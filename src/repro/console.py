"""The live ops console: §3.6's day-to-day operations seat, interactive.

``python -m repro day --console`` runs a campus day under a
:class:`~repro.obs.live.SimulationController` and renders it as a
terminal dashboard: per-server utilization bars, campus-wide rates from
the last window of the day's one window clock (a
:class:`~repro.obs.live.RollingAggregator`), an outage banner, hot
volumes/users, and the tail of the campus ops log (``campus.ops``).  The
operator can pause the virtual clock, single-step it, throttle it to
wall-clock speed, and inject faults (crash a server, partition a cluster,
start chaos) whose effects appear in the banner and the log — the
interactive half of what the paper's operators did by walking to the
machine room.

The module splits into a pure :class:`ConsoleModel` (state + text frames,
fully testable headlessly) and a thin curses front-end
(:func:`run_console`).  Only the front-end imports :mod:`curses`, so the
model works on builds without it and in CI pipes.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Optional, Tuple

from repro.analysis.report import format_share, utilization_bar
from repro.errors import ReproError
from repro.faults.plan import ChaosConfig, Fault
from repro.obs.live import RollingAggregator, SimulationController
from repro.system.topology import cluster_segment

__all__ = ["ConsoleModel", "KEY_HELP", "run_console"]

# One-line key legend rendered at the bottom of every frame.
KEY_HELP = ("space pause  tab/0-9 select  c crash  p partition  x chaos  "
            ". step  > +10s  +/- speed  q quit")

TOP_K = 4                 # rows in each "hot" panel
CRASH_OUTAGE = 90.0       # virtual seconds a "c" crash lasts
PARTITION_OUTAGE = 60.0   # ... and a "p" partition


class ConsoleModel:
    """Everything the console shows and does, minus the terminal.

    The model owns the controller, renders text frames from the last
    window of ``aggregator`` (whose window clock the caller installed)
    and the ops log's tail, and translates operator commands into
    fault-scheduler calls.  The curses front-end and the ``--headless``
    mode are both thin loops over :meth:`handle_key` /
    :meth:`render_lines`.
    """

    def __init__(self, campus, aggregator: RollingAggregator,
                 controller: Optional[SimulationController] = None):
        self.campus = campus
        self.sim = campus.sim
        self.controller = controller or SimulationController(self.sim, pacing=60.0)
        # Fault controls (installs an empty plan, the availability tracker
        # and the ops log on campuses that have none, so injected faults
        # are accounted for).
        self.scheduler = campus.ensure_fault_controls()
        self.ops = campus.ops
        self.aggregator = aggregator
        # Selectable targets: every server, then every cluster segment.
        self.targets: List[Tuple[str, str]] = (
            [("server", server.host.name) for server in campus.servers]
            + [("cluster", cluster_segment(i))
               for i in range(campus.config.clusters)]
        )
        self.selected = 0
        self.status = "ready"
        self.quit_requested = False

    # -- observation -------------------------------------------------------

    def banner(self) -> str:
        """The outage line: active faults and open outages, or all-clear."""
        active = self.scheduler.active
        tracker = self.campus.availability
        open_outages = len(tracker.open_episodes()) if tracker is not None else 0
        if not active and not open_outages:
            return "ALL CLEAR"
        faults = ", ".join(f"{kind}:{target}"
                           for kind, target in sorted(active))
        pieces = []
        if faults:
            pieces.append(f"ACTIVE FAULTS [{faults}]")
        if open_outages:
            pieces.append(f"{open_outages} users in outage")
        return "  ".join(pieces)

    # -- selection ---------------------------------------------------------

    @property
    def selected_target(self) -> Tuple[str, str]:
        return self.targets[self.selected]

    def select(self, index: int) -> None:
        if 0 <= index < len(self.targets):
            self.selected = index
            kind, name = self.targets[index]
            self.status = f"selected {kind} {name}"

    def select_next(self) -> None:
        self.select((self.selected + 1) % len(self.targets))

    # -- operator actions --------------------------------------------------

    def toggle_pause(self) -> None:
        paused = self.controller.toggle()
        self.status = "paused" if paused else "running"
        self.ops.emit("operator", action="pause" if paused else "resume")

    def step_event(self) -> None:
        ran = self.controller.step_event()
        self.status = f"stepped {ran} event(s)"

    def step_time(self, delta: float = 10.0) -> None:
        self.controller.step_time(delta)
        self.status = f"advanced {delta:.0f} virtual s"

    def change_pacing(self, factor: float) -> None:
        pacing = self.controller.pacing
        if pacing is None:
            self.status = "pacing off (unthrottled)"
            return
        self.controller.pacing = min(36000.0, max(1.0, pacing * factor))
        self.status = f"pacing {self.controller.pacing:.0f}x"

    def crash_selected(self) -> None:
        """Crash the selected server (servers only; clusters get partition)."""
        kind, name = self.selected_target
        if kind != "server":
            self.status = f"{name} is a cluster — press p to partition it"
            return
        if not self.campus.server(name).host.up:
            self.status = f"{name} is already down"
            return
        self.scheduler.inject(
            Fault("server_crash", name, start=0.0, duration=CRASH_OUTAGE))
        self.ops.emit("operator", action="crash_server", target=name,
                         outage=CRASH_OUTAGE)
        self.status = f"crashing {name} for {CRASH_OUTAGE:.0f}s"

    def partition_selected(self) -> None:
        """Partition the selected cluster segment off the backbone."""
        kind, name = self.selected_target
        if kind != "cluster":
            self.status = f"{name} is a server — press c to crash it"
            return
        if name in self.campus.network.partitioned:
            self.status = f"{name} is already partitioned"
            return
        self.scheduler.inject(
            Fault("partition", name, start=0.0, duration=PARTITION_OUTAGE))
        self.ops.emit("operator", action="partition_cluster", target=name,
                         duration=PARTITION_OUTAGE)
        self.status = f"partitioning {name} for {PARTITION_OUTAGE:.0f}s"

    def start_chaos(self) -> None:
        started = self.scheduler.start_chaos(ChaosConfig(
            start=0.0, mean_interval=300.0, mean_outage=45.0))
        if started:
            self.ops.emit("operator", action="start_chaos")
        self.status = "chaos started" if started else "chaos already running"

    # -- key dispatch ------------------------------------------------------

    def handle_key(self, key: str) -> None:
        """One keystroke; unknown keys are ignored."""
        if key == "q":
            self.quit_requested = True
        elif key == " ":
            self.toggle_pause()
        elif key == "\t":
            self.select_next()
        elif key.isdigit():
            self.select(int(key))
        elif key == "c":
            self.crash_selected()
        elif key == "p":
            self.partition_selected()
        elif key == "x":
            self.start_chaos()
        elif key == ".":
            self.step_event()
        elif key == ">":
            self.step_time(10.0)
        elif key == "+":
            self.change_pacing(2.0)
        elif key == "-":
            self.change_pacing(0.5)

    # -- rendering ---------------------------------------------------------

    def render_lines(self, width: int = 96, events_tail: int = 6) -> List[str]:
        """One full text frame, as a list of lines."""
        sim = self.sim
        window = self.aggregator.last or {}
        rates = window.get("rates", {})
        lines = [
            (f"ITC campus  t={sim.now:9.1f}s  [{self.controller.state.upper()}]"
             f"  pacing={self._pacing_label()}"
             f"  {window.get('events_per_s', 0.0):8.0f} ev/s"),
            f"  {self.banner()}",
            "",
        ]
        lines += self._server_lines(window)
        lines.append("")
        lines.append(
            f"campus   opens {rates.get('opens', 0.0):6.1f}/s"
            f"  fetch {rates.get('fetches', 0.0):5.1f}/s"
            f"  store {rates.get('stores', 0.0):5.1f}/s"
            f"  hit {format_share(window.get('hit_ratio', 0.0))}"
            f"  breaks {rates.get('callback_breaks', 0.0):5.1f}/s"
        )
        latency = window.get("latency", {})
        if latency.get("count"):
            lines.append(
                f"rpc      p50 {latency['p50'] * 1000:7.1f}ms"
                f"  p99 {latency['p99'] * 1000:7.1f}ms"
                f"  ({latency['count']} calls this window)"
            )
        lines.append("")
        lines += self._hotspot_lines()
        lines.append("")
        lines += [f"  {line}" for line in self._event_lines(events_tail)]
        lines.append("")
        lines.append(f"status: {self.status}")
        lines.append(KEY_HELP)
        return [line[:width] for line in lines]

    def _pacing_label(self) -> str:
        pacing = self.controller.pacing
        return "off" if pacing is None else f"{pacing:.0f}x"

    def _server_lines(self, window: Dict[str, Any]) -> List[str]:
        hosts = window.get("hosts", {})
        lines = []
        for index, (kind, name) in enumerate(self.targets):
            marker = ">" if index == self.selected else " "
            if kind == "server":
                host = self.campus.server(name).host
                stats = hosts.get(name, {})
                state = "UP  " if host.up else "DOWN"
                lines.append(
                    f"{marker}{index} {name:<10s} {state}"
                    f"  cpu {utilization_bar(stats.get('cpu', 0.0))}"
                    f" {format_share(stats.get('cpu', 0.0))}"
                    f"  disk {utilization_bar(stats.get('disk', 0.0))}"
                    f"  {stats.get('calls', 0.0):6.0f} calls"
                )
            else:
                cut = name in self.campus.network.partitioned
                state = "CUT " if cut else "OK  "
                lines.append(f"{marker}{index} {name:<10s} {state}  (segment)")
        return lines

    def _hotspot_lines(self) -> List[str]:
        lines = []
        for field, label in (("volumes", "hot volumes"), ("users", "hot users")):
            ranked = self.aggregator.top(field, TOP_K)
            if not ranked:
                continue
            cells = "  ".join(f"{name}:{delta:.0f}" for name, delta in ranked)
            lines.append(f"{label:<12s} {cells}")
        return lines or ["(no traffic yet)"]

    def _event_lines(self, n: int) -> List[str]:
        out = []
        for record in self.ops.tail(n):
            detail = " ".join(
                f"{key}={value}" for key, value in sorted(record.items())
                if key not in ("t", "event")
            )
            out.append(f"t={record['t']:9.1f}  {record['event']:<22s} {detail}")
        return out or ["(no events yet)"]


def run_headless(model: ConsoleModel, frames: int,
                 frame_virtual_seconds: float = 10.0,
                 print_frames: bool = False) -> int:
    """Drive the console loop without a terminal (tests, CI, pipes)."""
    for _ in range(frames):
        if model.quit_requested:
            break
        model.controller.advance(model.sim.now + frame_virtual_seconds)
        frame = model.render_lines()
        if print_frames:
            print("\n".join(frame))
            print("-" * 40)
    if not print_frames:
        print("\n".join(model.render_lines()))
    return 0


def run_console(model: ConsoleModel, horizon: Optional[float] = None) -> int:
    """The interactive curses loop (~20 frames/s, non-blocking input)."""
    import curses

    def loop(screen) -> None:
        curses.curs_set(0)
        screen.nodelay(True)
        last_wall = time.monotonic()
        while not model.quit_requested:
            wall = time.monotonic()
            elapsed, last_wall = wall - last_wall, wall
            try:
                model.controller.tick(elapsed, horizon=horizon)
            except ReproError:
                pass  # un-paced controller with no horizon: stepping only
            height, width = screen.getmaxyx()
            screen.erase()
            for row, line in enumerate(model.render_lines(width - 1)):
                if row >= height - 1:
                    break
                screen.addnstr(row, 0, line, width - 1)
            screen.refresh()
            if horizon is not None and model.sim.now >= horizon:
                break
            key = screen.getch()
            if key != -1:
                try:
                    model.handle_key(chr(key))
                except ValueError:
                    pass  # non-character key (resize, arrows): ignored
            time.sleep(0.05)

    curses.wrapper(loop)
    return 0
