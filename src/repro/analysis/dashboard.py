"""The operator's campus status report.

§3.6 asks for tools "to ease day-to-day operations of the system"; this is
the at-a-glance half of that (the trend-watching half is
:class:`repro.analysis.monitor.CampusMonitor`).  One call renders the whole
campus: servers with their volumes, load and callback state; workstations
with their cache health; and the location database's current shape.
"""

from __future__ import annotations

from typing import List

from repro.analysis.report import Table, format_share

__all__ = ["authoritative_location", "availability_report", "campus_report",
           "hotspot_report", "server_report", "volume_report",
           "workstation_report"]


def server_report(campus, start: float = 0.0) -> Table:
    """One row per cluster server: storage, load, state.

    Reads the metrics registry (``campus.metrics``) rather than reaching
    into component attributes; CPU/disk utilization still goes through the
    host because the report window starts at ``start``, not at zero.
    """
    table = Table(
        ["server", "volumes", "files", "used MB", "calls", "CPU", "disk",
         "callbacks held", "locks"],
        title="Vice servers",
    )
    metrics = campus.metrics
    for server in campus.servers:
        name = server.host.name
        snap = metrics.snapshot(f"vice.{name}.")
        table.add(
            name,
            snap[f"vice.{name}.volumes"]["value"],
            snap[f"vice.{name}.files"]["value"],
            f"{snap[f'vice.{name}.used_bytes']['value'] / 1e6:.1f}",
            metrics.value(f"rpc.{name}.calls_received")["total"],
            format_share(server.host.cpu_utilization(start)),
            format_share(server.host.disk_utilization(start)),
            snap[f"vice.{name}.callbacks.held"]["value"],
            snap[f"vice.{name}.locks.held"]["value"],
        )
    return table


def workstation_report(campus) -> Table:
    """One row per workstation: cache health and traffic.

    Driven entirely by the metrics registry — the table is a rendering of
    ``campus.metrics.snapshot("venus.<host>.")``.
    """
    table = Table(
        ["workstation", "cached files", "cache KB", "hit ratio", "opens",
         "fetches", "stores", "breaks rx"],
        title="Virtue workstations",
    )
    metrics = campus.metrics
    for workstation in campus.workstations:
        name = workstation.name
        snap = metrics.snapshot(f"venus.{name}.")
        table.add(
            name,
            snap[f"venus.{name}.cache.files"]["value"],
            snap[f"venus.{name}.cache.used_bytes"]["value"] // 1024,
            format_share(snap[f"venus.{name}.cache.hit_ratio"]["value"]),
            snap[f"venus.{name}.opens"]["total"],
            snap[f"venus.{name}.fetches"]["total"],
            snap[f"venus.{name}.stores"]["total"],
            snap[f"venus.{name}.callback_breaks_received"]["total"],
        )
    return table


def authoritative_location(campus):
    """The location database to report from: the replication controller's
    copy when the campus has one (a server's replica stops updating while
    its host is down), else the master copy setup writes to."""
    controller = campus.replication_controller
    return controller.location if controller is not None else campus.servers[0].location


def volume_report(campus) -> Table:
    """One row per mounted volume: placement and state."""
    table = Table(
        ["mount", "volume", "custodian", "replicas", "read-only", "files",
         "bytes", "quota", "state"],
        title="Location database",
    )
    for entry in authoritative_location(campus).entries():
        try:
            volume = campus.volume(entry.volume_id)
            state = "online" if volume.online else "OFFLINE"
            files, used = volume.file_count, volume.used_bytes
            quota = volume.quota_bytes or "—"
        except Exception:
            state, files, used, quota = "missing", "?", "?", "—"
        table.add(
            entry.mount_path,
            entry.volume_id,
            entry.custodian,
            ",".join(entry.replicas) or "—",
            ",".join(entry.ro_servers) or "—",
            files,
            used,
            quota,
            state,
        )
    return table


def availability_report(campus) -> Table:
    """Outage accounting, when a fault plan is installed.

    Renders the :class:`~repro.obs.availability.AvailabilityTracker`
    summary: one row of campus-wide numbers plus one per user that
    experienced an outage.
    """
    tracker = campus.availability
    summary = tracker.summary()
    table = Table(
        ["scope", "ops", "ok", "failed", "availability", "outages",
         "MTTR p50", "MTTR p90"],
        title="Availability",
    )
    mttr = summary["mttr"]
    table.add(
        "campus",
        summary["attempts"],
        summary["successes"],
        summary["failures"],
        format_share(summary["availability"]),
        summary["outages"],
        f"{mttr['p50']:.1f}s",
        f"{mttr['p90']:.1f}s",
    )
    for user, stats in tracker.per_user().items():
        if not stats["failures"]:
            continue
        episodes = [e for e in tracker.episodes if e.user == user]
        durations = sorted(e.duration for e in episodes)
        table.add(
            user,
            stats["attempts"],
            stats["successes"],
            stats["failures"],
            format_share(stats["availability"]),
            len(episodes),
            f"{durations[len(durations) // 2]:.1f}s" if durations else "—",
            f"{durations[-1]:.1f}s" if durations else "—",
        )
    return table


def hotspot_report(aggregator, k: int = 5) -> str:
    """Top-``k`` hot volumes, users and servers from a rolling aggregator.

    Renders :meth:`~repro.obs.live.RollingAggregator.top` over the retained
    windows — the "which volume do we move tonight?" question §5.2 answers
    operationally; the console's hot panels rank the same deltas.  Printed
    by ``andrew`` / ``day --window``.
    """
    sections: List[str] = []
    for field, unit in (("volumes", "bytes"), ("users", "bytes"),
                        ("servers", "calls")):
        ranked = aggregator.top(field, k)
        table = Table([field[:-1], unit, "share"],
                      title=f"Top {field} ({len(aggregator.windows)} windows)")
        total = sum(delta for _, delta in ranked) or 1.0
        for name, delta in ranked:
            table.add(name, f"{delta:.0f}", format_share(delta / total))
        if not ranked:
            table.add("—", "0", format_share(0.0))
        sections.append(str(table))
    return "\n\n".join(sections)


def campus_report(campus, start: float = 0.0) -> str:
    """The full report, ready to print."""
    sections: List[str] = [
        f"Campus status at t={campus.sim.now:.1f}s "
        f"({campus.config.mode} mode, {len(campus.servers)} clusters,"
        f" {len(campus.workstations)} workstations)",
        "",
        str(server_report(campus, start)),
        "",
        str(workstation_report(campus)),
        "",
        str(volume_report(campus)),
    ]
    mix = campus.campus_call_mix()
    if mix:
        mix_table = Table(["call category", "share"], title="Campus call mix")
        for label, share in sorted(mix.items(), key=lambda kv: -kv[1]):
            mix_table.add(label, format_share(share))
        sections += ["", str(mix_table)]
    if getattr(campus, "availability", None) is not None:
        sections += ["", str(availability_report(campus))]
    return "\n".join(sections)
