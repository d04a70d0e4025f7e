"""A campus timesharing system: the paper's performance yardstick (§2.2).

"Our goal is to provide a level of file system performance that is at least
as good as that of a lightly-loaded timesharing system at CMU" — and §5.2
reports success: "our users perceive the overall performance of the
workstations to be equal to or better than that of the large timesharing
systems on campus."

To measure that comparison we need the comparator: one big shared machine
(a TOPS-20 / VAX-class service) whose users run the *same* action mix as
the synthetic Virtue users, but whose every file access and compile shares
one CPU and one disk farm.  Lightly loaded it is fast; as the login count
grows, everything queues.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, List

from repro.net.topology import Network
from repro.hosts import Host
from repro.sim.kernel import Simulator
from repro.sim.metrics import Samples
from repro.sim.rand import WorkloadRandom
from repro.storage.disk import Disk
from repro.storage.unixfs import UnixFileSystem
from repro.workload.filesizes import USER_DOCUMENT
from repro.workload.synthetic import UserProfile

__all__ = [
    "TimesharingSystem",
    "TimesharingUser",
    "recompile_task",
    "run_timesharing_compile",
    "run_timesharing_session",
]


class TimesharingSystem:
    """One shared machine serving every logged-in user.

    "Large" meant large memory and disk farms, not a fast processor: a
    VAX-11/780-class machine was roughly workstation-speed (cpu_speed 1.25
    here) — and it is *one* machine, the only place any login's work runs.
    """

    def __init__(
        self,
        sim: Simulator,
        cpu_speed: float = 1.25,
        disk_count: int = 2,
        name: str = "cmu-ts",
    ):
        self.sim = sim
        # A private single-segment network satisfies the Host plumbing; no
        # traffic crosses it (everything is local to the machine).
        self._network = Network(sim)
        self._network.add_segment("machine-room")
        self.host = Host(sim, self._network, name, "machine-room", cpu_speed=cpu_speed)
        self.disks = [Disk(sim, name=f"{name}-disk{i}") for i in range(disk_count)]
        self.fs = UnixFileSystem(clock=lambda: sim.now, name=name)
        self.fs.makedirs("/usr")
        self._disk_rr = 0

    def disk(self) -> Disk:
        """Round-robin over the disk farm."""
        self._disk_rr = (self._disk_rr + 1) % len(self.disks)
        return self.disks[self._disk_rr]

    def read_file(self, path: str) -> Generator[Any, Any, bytes]:
        """Open+read+close on the shared machine."""
        data = self.fs.read(path)
        yield from self.host.compute(0.02)  # open/namei on a loaded system
        yield from self.disk().access(len(data))
        yield from self.host.compute(len(data) * 2e-7)
        return data

    def write_file(self, path: str, data: bytes, owner: str) -> Generator:
        """Create/overwrite on the shared machine."""
        yield from self.host.compute(0.025)
        yield from self.disk().access(len(data), write=True)
        yield from self.host.compute(len(data) * 2e-7)
        self.fs.write(path, data, owner=owner)

    def stat(self, path: str) -> Generator[Any, Any, Dict]:
        """Status on the shared machine."""
        yield from self.host.compute(0.008)
        yield from self.disk().access(256)
        st = self.fs.stat(path)
        return {"size": st.size, "mtime": st.mtime}

    def compute(self, reference_seconds: float) -> Generator:
        """User computation (editors, compilers) on the shared CPU."""
        yield from self.host.compute(reference_seconds)

    def cpu_utilization(self, start: float = 0.0, end=None) -> float:
        """Mean CPU busy fraction."""
        return self.host.cpu_utilization(start, end)


class TimesharingUser:
    """The same behavioural profile as a Virtue user, on the shared machine."""

    def __init__(
        self,
        system: TimesharingSystem,
        username: str,
        profile: UserProfile,
        rng: WorkloadRandom,
        hot_files: int = 24,
    ):
        self.system = system
        self.username = username
        self.profile = profile
        self.rng = rng
        self.home = f"/usr/{username}"
        self.paths: List[str] = []
        system.fs.makedirs(self.home)
        for index in range(hot_files):
            path = f"{self.home}/file_{index:03d}"
            system.fs.write(path, USER_DOCUMENT.content(rng.fork(index), b"ts  "),
                            owner=username)
            self.paths.append(path)
        self.actions = 0
        self.action_latencies = Samples(f"ts:{username}")

    def _pick(self) -> str:
        return self.paths[self.rng.zipf_index(len(self.paths), self.profile.zipf_skew)]

    # Interactive cycles per action: on a timesharing system even editing
    # and shell work burn *shared* CPU — the load that made the campus
    # machines feel slow and motivated per-user workstations.
    INTERACTIVE_CPU = 0.7

    def _one_action(self) -> Generator:
        yield from self.system.compute(self.INTERACTIVE_CPU)
        draw = self.rng.random()
        profile = self.profile
        if draw < profile.p_browse:
            for _ in range(profile.browse_stats + 1):
                yield from self.system.stat(self._pick())
        elif draw < profile.p_browse + profile.p_edit:
            data = yield from self.system.read_file(self._pick())
            yield from self.system.compute(0.5)  # editor work
            yield from self.system.write_file(self._pick(), data + b"!", self.username)
        elif draw < profile.p_browse + profile.p_edit + profile.p_compile:
            total = 0
            for _ in range(3):
                total += len((yield from self.system.read_file(self._pick())))
            yield from self.system.compute(2.0 + total * 0.0008)
            yield from self.system.write_file(
                f"{self.home}/a.out", b"o" * min(total, 20_000), self.username
            )
        else:
            yield from self.system.read_file(self._pick())

    def run(self, duration: float) -> Generator:
        """Work for ``duration`` virtual seconds."""
        sim = self.system.sim
        deadline = sim.now + duration
        while sim.now < deadline:
            yield self.rng.exponential(self.profile.mean_think_seconds)
            if sim.now >= deadline:
                break
            started = sim.now
            yield from self._one_action()
            self.actions += 1
            self.action_latencies.add(sim.now - started)


class _TimesharingTaskAdapter:
    """Maps the shared recompile task onto the timesharing machine."""

    def __init__(self, system: TimesharingSystem, sources: List[str]):
        self.system = system
        self.sources = sources

    def stat(self, path: str):
        return self.system.stat(path)

    def read_file(self, path: str):
        return self.system.read_file(path)

    def compute(self, seconds: float):
        return self.system.compute(seconds)

    def write_output(self, name: str, data: bytes):
        return self.system.write_file(f"/usr/task/{name}", data, "task")


def recompile_task(adapter, sources: List[str]) -> Generator:
    """The measured task: make-style stat pass, then compile every source.

    Identical work on every world: only where the cycles and the file
    accesses land differs.
    """
    for path in sources:
        yield from adapter.stat(path)
    for index, path in enumerate(sources):
        data = yield from adapter.read_file(path)
        yield from adapter.compute(5.0 + len(data) * 0.00095)
        yield from adapter.write_output(f"obj_{index:03d}.o", data[: len(data) // 2])


def run_timesharing_compile(
    logins: int,
    source_count: int = 40,
    profile: UserProfile = None,
    seed: int = 5,
) -> Dict[str, float]:
    """Measure the recompile task on the shared machine with ``logins``
    other users logged in and working."""
    sim = Simulator()
    system = TimesharingSystem(sim)
    rng = WorkloadRandom(seed)
    system.fs.makedirs("/usr/task")
    sources = []
    for index in range(source_count):
        path = f"/usr/task/src_{index:03d}.c"
        system.fs.write(path, USER_DOCUMENT.content(rng.fork(7000 + index), b"/*c*/"),
                        owner="task")
        sources.append(path)
    background = [
        TimesharingUser(system, f"bg{i:03d}", profile or UserProfile(), rng.fork(i))
        for i in range(max(0, logins - 1))
    ]
    stop = {"flag": False}

    def background_forever(user):
        while not stop["flag"]:
            yield user.rng.exponential(user.profile.mean_think_seconds)
            if stop["flag"]:
                return
            yield from user._one_action()

    for user in background:
        sim.process(background_forever(user))
    adapter = _TimesharingTaskAdapter(system, sources)
    start = sim.now
    task = sim.process(recompile_task(adapter, sources))
    elapsed = {"seconds": None}

    def watch():
        yield task
        stop["flag"] = True
        elapsed["seconds"] = sim.now - start

    sim.run_until_complete(sim.process(watch()), limit=1e7)
    return {
        "logins": logins,
        "task_seconds": elapsed["seconds"],
        "cpu": system.cpu_utilization(start, sim.now),
    }


def run_timesharing_session(
    logins: int,
    duration: float = 3600.0,
    profile: UserProfile = None,
    seed: int = 5,
) -> Dict[str, float]:
    """One timesharing experiment: N users for ``duration`` virtual seconds.

    Returns mean/p90 action latency and machine CPU utilization.
    """
    sim = Simulator()
    system = TimesharingSystem(sim)
    rng = WorkloadRandom(seed)
    users = [
        TimesharingUser(system, f"ts{i:03d}", profile or UserProfile(), rng.fork(i))
        for i in range(logins)
    ]
    processes = [sim.process(user.run(duration)) for user in users]
    sim.run_until_complete(sim.all_of(processes), limit=duration * 10)
    latencies = Samples("all")
    for user in users:
        for value in user.action_latencies.values:
            latencies.add(value)
    return {
        "logins": logins,
        "mean_latency": latencies.mean,
        "p90_latency": latencies.percentile(0.9),
        "cpu": system.cpu_utilization(),
        "actions": sum(user.actions for user in users),
    }
