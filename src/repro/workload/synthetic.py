"""Synthetic campus usage: the workload behind the paper's field numbers.

§5.2's measurements (cache hit ratio > 80 %, the 65/27/4/2 call mix, 40 %
busiest-server CPU) came from "actual use" by ~400 people.  We substitute
seeded synthetic users whose behaviour mixes the paper's file classes:

* mostly re-reading a small hot set of their own files (cache hits →
  validation calls under check-on-open),
* browsing directories and checking file status (status calls),
* occasionally touching cold files (fetches),
* occasionally editing (stores),
* sharing a project tree and system programs with everyone else.

The per-action probabilities below were tuned so that the *prototype*
configuration lands near the paper's published shares — see EXP-1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (Any, Callable, Dict, Generator, List, Optional, Sequence,
                    Union)

from repro.errors import ReproError
from repro.sim.metrics import Samples
from repro.sim.rand import WorkloadRandom
from repro.storage import pathutil
from repro.system.itc import ITCSystem
from repro.virtue.session import UserSession
from repro.workload.filesizes import SYSTEM_BINARY, USER_DOCUMENT

__all__ = ["NumberedPaths", "UserProfile", "SyntheticUser", "provision_campus",
           "run_campus_day"]


@dataclass(frozen=True)
class UserProfile:
    """Per-action behaviour probabilities for one synthetic user."""

    mean_think_seconds: float = 38.0
    # Action mix (first match wins on a single uniform draw).
    p_browse: float = 0.12  # stat a few files / list a directory
    p_edit: float = 0.020  # read-modify-write one file
    p_create: float = 0.006  # make a new small file
    p_compile: float = 0.008  # a small compile: several reads + temp writes
    # (remaining probability: plain whole-file read)
    # Where reads land.
    p_shared_read: float = 0.22  # project tree instead of own files
    p_binary_read: float = 0.06  # system programs
    p_cold: float = 0.020  # own archive (mostly uncached) instead of hot set
    hot_set_size: int = 24
    zipf_skew: float = 0.95
    # Shared trees are accessed with a sharper skew: a few hot documents
    # and binaries take almost all the traffic.
    popular_skew: float = 1.35
    browse_stats: int = 2


class NumberedPaths(Sequence[str]):
    """The paths ``f"{prefix}{i:03d}"`` for ``i`` in ``numbers``: a user's
    numbered files held as their pattern, each path formatted when read.

    Indexing, ``len`` and ``random.Random.choice`` behave as on the list
    of those paths; a slice is another ``NumberedPaths``.
    """

    __slots__ = ("prefix", "numbers")

    def __init__(self, prefix: str, numbers: range):
        self.prefix = prefix
        self.numbers = numbers

    def __len__(self) -> int:
        return len(self.numbers)

    def __getitem__(self, index: Union[int, slice]) -> Union[str, "NumberedPaths"]:
        if isinstance(index, slice):
            return NumberedPaths(self.prefix, self.numbers[index])
        return f"{self.prefix}{self.numbers[index]:03d}"


class SyntheticUser:
    """One simulated person working at one workstation."""

    def __init__(
        self,
        session: UserSession,
        profile: UserProfile,
        rng: WorkloadRandom,
        hot_files: Sequence[str],
        cold_files: Sequence[str],
        shared_files: Sequence[str],
        binary_files: Sequence[str],
        browse_dirs: Sequence[str],
    ):
        self.session = session
        self.profile = profile
        self.rng = rng
        self.hot_files = hot_files
        self.cold_files = cold_files
        self.shared_files = shared_files
        self.binary_files = binary_files
        self.browse_dirs = browse_dirs
        self.actions = 0
        self.failures = 0
        self.action_latencies = Samples("action-latency")
        self._create_counter = 0
        # Availability accounting (repro.obs.availability): attached by
        # run_campus_day when the campus has a fault plan installed.
        self.tracker = None
        # Optional deterministic think-time pacing (repro.workload.diurnal):
        # a callable t -> multiplier applied to each think-time draw.  The
        # draw itself is unchanged, so an unpaced user replays identically.
        self.pace = None

    # -- file choice ---------------------------------------------------------

    def _pick_read_target(self) -> str:
        draw = self.rng.random()
        profile = self.profile
        if draw < profile.p_binary_read and self.binary_files:
            return self.binary_files[
                self.rng.zipf_index(len(self.binary_files), profile.popular_skew)
            ]
        if draw < profile.p_binary_read + profile.p_shared_read and self.shared_files:
            return self.shared_files[
                self.rng.zipf_index(len(self.shared_files), profile.popular_skew)
            ]
        if self.rng.chance(profile.p_cold) and self.cold_files:
            return self.rng.choice(self.cold_files)
        hot = self.hot_files[: self.profile.hot_set_size]
        return hot[self.rng.zipf_index(len(hot), self.profile.zipf_skew)]

    # -- actions --------------------------------------------------------------

    def _action_read(self) -> Generator:
        yield from self.session.read_file(self._pick_read_target())

    def _action_browse(self) -> Generator:
        directory = self.rng.choice(self.browse_dirs)
        names = yield from self.session.listdir(directory)
        if not names:
            return
        for _ in range(self.profile.browse_stats):
            name = self.rng.choice(names)
            yield from self.session.stat(pathutil.join(directory, name))

    def _action_edit(self) -> Generator:
        target = self.hot_files[self.rng.zipf_index(
            min(len(self.hot_files), self.profile.hot_set_size)
        )]
        data = yield from self.session.read_file(target)
        edited = data + b"\n# edited\n"
        if len(edited) > USER_DOCUMENT.cap_bytes:
            edited = edited[: USER_DOCUMENT.cap_bytes // 2]
        yield from self.session.write_file(target, edited)

    def _action_create(self) -> Generator:
        self._create_counter += 1
        own_root = pathutil.dirname(self.hot_files[0])
        path = pathutil.join(own_root, f"scratch_{self._create_counter:04d}")
        yield from self.session.write_file(
            path, USER_DOCUMENT.content(self.rng, b"new ")
        )
        if self.rng.chance(0.5):
            yield from self.session.unlink(path)

    def _action_compile(self) -> Generator:
        host = self.session.workstation.host
        total = 0
        for _ in range(self.rng.randint(2, 5)):
            total += len((yield from self.session.read_file(self._pick_read_target())))
        yield from host.compute(2.0 + total * 0.0008)
        # Temporaries go to the local name space, as §3.1 prescribes.
        yield from self.session.write_file(
            f"/tmp/cc_{self._create_counter:04d}.o", b"\x7fOBJ" + b"o" * min(total, 20_000)
        )
        self._create_counter += 1

    def _one_action(self) -> Generator:
        draw = self.rng.random()
        profile = self.profile
        if draw < profile.p_browse:
            yield from self._action_browse()
        elif draw < profile.p_browse + profile.p_edit:
            yield from self._action_edit()
        elif draw < profile.p_browse + profile.p_edit + profile.p_create:
            yield from self._action_create()
        elif draw < profile.p_browse + profile.p_edit + profile.p_create + profile.p_compile:
            yield from self._action_compile()
        else:
            yield from self._action_read()

    # -- the user process ---------------------------------------------------------

    def run(self, duration: float) -> Generator:
        """Work until ``duration`` virtual seconds have elapsed."""
        sim = self.session.workstation.sim
        deadline = sim.now + duration
        while sim.now < deadline:
            think = self.rng.exponential(self.profile.mean_think_seconds)
            if self.pace is not None:
                think *= self.pace(sim.now)
            yield think
            if sim.now >= deadline:
                break
            started = sim.now
            try:
                yield from self._one_action()
                self.actions += 1
                self.action_latencies.add(sim.now - started)
                if self.tracker is not None:
                    self.tracker.record_op(self.session.username, True)
            except ReproError:
                self.failures += 1
                if self.tracker is not None:
                    self.tracker.record_op(self.session.username, False)


def provision_campus(
    campus: ITCSystem,
    profile: Optional[UserProfile] = None,
    hot_files: int = 30,
    cold_files: int = 110,
    shared_files: int = 60,
    binary_files: int = 30,
    seed: int = 11,
) -> List[SyntheticUser]:
    """Create one user per workstation, with home volumes in their cluster,
    a shared project volume and a system-binaries volume; returns the users
    ready to :meth:`SyntheticUser.run`.

    Both shared volumes have server0 as custodian.  On a campus of more
    than one server whose ``/unix`` has no read-write members, ``/unix``
    is released read-only to every server (§3.2), so a workstation reads
    system binaries from its own cluster.  A single-server campus, and a
    copies or coded campus, keep ``/unix`` on its members alone."""
    with campus.batch_setup():
        rng = WorkloadRandom(seed)
        config = campus.config

        project = campus.create_volume("/proj", custodian=0, volume_id="proj")
        project_tree = {
            f"/files/doc_{i:03d}": USER_DOCUMENT.body(rng.fork(1000 + i), b"proj")
            for i in range(shared_files)
        }
        campus.populate(project, project_tree)

        unix = campus.create_volume("/unix", custodian=0, volume_id="unix")
        binary_tree = {
            f"/bin/prog_{i:03d}": SYSTEM_BINARY.body(rng.fork(2000 + i), b"\x7fELF")
            for i in range(binary_files)
        }
        campus.populate(unix, binary_tree)
        if (len(campus.servers) > 1
                and not campus.location.entry_for_volume("unix").replicas):
            campus.release_readonly(unix)

        shared_paths = [f"/vice/proj/files/doc_{i:03d}" for i in range(shared_files)]
        binary_paths = [f"/vice/unix/bin/prog_{i:03d}" for i in range(binary_files)]

        users: List[SyntheticUser] = []
        for index, workstation in enumerate(campus.workstations):
            username = f"user{index:03d}"
            password = f"pw-{username}"
            campus.add_user(username, password)
            cluster = index // config.workstations_per_cluster
            volume = campus.create_user_volume(username, cluster=cluster)
            user_rng = rng.fork(index)
            tree = {}
            for i in range(hot_files):
                tree[f"/work/file_{i:03d}"] = USER_DOCUMENT.body(user_rng.fork(i), b"hot ")
            for i in range(cold_files):
                tree[f"/archive/old_{i:03d}"] = USER_DOCUMENT.body(
                    user_rng.fork(10_000 + i), b"cold"
                )
            campus.populate(volume, tree, owner=username)

            session = campus.login(workstation, username, password)
            home = f"/vice/usr/{username}"
            users.append(
                SyntheticUser(
                    session,
                    profile or UserProfile(),
                    user_rng.fork(999),
                    hot_files=NumberedPaths(f"{home}/work/file_", range(hot_files)),
                    cold_files=NumberedPaths(f"{home}/archive/old_", range(cold_files)),
                    shared_files=shared_paths,
                    binary_files=binary_paths,
                    browse_dirs=[f"{home}/work", "/vice/proj/files", "/vice/unix/bin"],
                )
            )
    return users


def run_campus_day(
    campus: ITCSystem,
    users: List[SyntheticUser],
    duration: float = 3600.0,
    warmup: float = 1800.0,
    stagger: float = 30.0,
    on_measure: Optional[Callable[[], Any]] = None,
) -> Dict[str, Any]:
    """Run every user for ``warmup + duration`` virtual seconds, to the end
    of each one's last action, and report the §5.2 quantities over the
    measured window only.

    Users start staggered (people arrive over ``stagger`` seconds); the
    warm-up fills the caches the way a real morning does, then counters
    are reset, and from then on each user's outcomes go to the campus
    availability tracker (when a fault plan is installed), so the report
    covers the steady state only.  ``on_measure`` is called once as the
    measured window opens (after the warm-up's counter reset): where an
    observer's window clock starts."""
    sim = campus.sim
    rng = WorkloadRandom(4242)  # arrivals: one fixed stream for every day

    def staggered(user: SyntheticUser, delay: float) -> Generator:
        yield delay
        yield from user.run(warmup + duration)

    processes = []
    for i, user in enumerate(users):
        delay = rng.uniform(0.0, stagger)
        processes.append(sim.process(staggered(user, delay), name=f"user{i}"))
    if warmup > 0:
        sim.run(until=sim.now + warmup)
        campus.reset_counters()
        for user in users:
            user.actions = 0
            user.failures = 0
    for user in users:
        user.tracker = campus.availability
    if on_measure is not None:
        on_measure()
    start = sim.now
    sim.run_until_complete(
        sim.all_of(processes), limit=start + duration + stagger + 7200
    )

    busiest, cpu = campus.busiest_server(start=start)
    summary = {
        "duration": sim.now - start,
        "actions": sum(user.actions for user in users),
        "failures": sum(user.failures for user in users),
        "call_mix": campus.campus_call_mix(),
        "hit_ratio": campus.mean_hit_ratio(),
        "busiest_server": busiest.host.name,
        "busiest_cpu": cpu,
        "busiest_cpu_peak": busiest.host.cpu.utilization.peak_utilization(),
        "busiest_disk": busiest.host.disk_utilization(start),
        "cross_cluster_bytes": campus.cross_cluster_bytes(),
    }
    if campus.availability is not None:
        summary["availability"] = campus.availability.summary()
    return summary
