"""Venus: the user-level cache manager on every Virtue workstation.

Paper §3.5.1: "Venus handles management of the cache, communication with
Vice and the emulation of native file system primitives for Vice files."

The operations here are the Vice half of every Virtue system call:

* ``open`` → cache lookup, validation (check-on-open) or callback trust
  (invalidate-on-modify), whole-file fetch on miss;
* ``close`` → whole-file store-through when the file was modified
  ("Virtue stores a file back when it is closed");
* directory operations → forwarded to the custodian, with referral
  handling via cached location hints;
* ``BreakCallback`` service → the server's invalidate-on-modification
  notifications land here and mark cache entries stale.

The paper's two designs differ in who walks a pathname, and Venus decides
that in one step, the mirror of the server's: :meth:`Venus._name_object`
names an object and :meth:`Venus._name_entry` a directory entry, each from
the campus's ``naming``.  Under ``"path"`` naming (the prototype) Venus
sends full pathnames and the server traverses them; under ``"fid"`` naming
(revised) Venus caches directories, walks paths itself and sends fids.
Locks are named by pathname in both.  ``validation`` selects check-on-open
vs callback independently, so the EXP-6 ablation can isolate the
validation policy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Generator, List, Optional, Tuple

from repro.crypto.keys import derive_user_key
from repro.errors import (
    FileNotFound,
    IsADirectory,
    LeaseExpired,
    NoSpace,
    NotAuthenticated,
    NotCustodian,
    NotADirectory,
    ReproError,
    ServerUnavailable,
    TooManySymlinks,
)
from repro.hosts import Host
from repro.obs.trace import _NULL_SPAN
from repro.rpc.connection import Connection
from repro.rpc.node import RpcNode
from repro.storage import pathutil
from repro.vice.ids import make_fid, split_fid
from repro.venus.cache import CacheEntry, WholeFileCache
from repro.venus.hints import MountHints

__all__ = ["Venus", "VenusCosts"]

_NEW_FID_PREFIX = "new:"
_MAX_SYMLINK_HOPS = 12
_DEFAULT_FETCH_GUESS = 262_144
# Deferred write-back (the EXP-13/14 ablation): a close is flushed this
# many virtual seconds later, and a failed flush is retried this many
# times before the write-back is declared lost.
FLUSH_DELAY = 30.0
FLUSH_RETRY_LIMIT = 2
# A server whose last call went unanswered is *silent*: every choice
# among servers tries it last, and a background probe asks it one cheap
# question (one datagram, on an open connection) this many virtual
# seconds apart until it answers.
SILENT_PROBE_INTERVAL = 120.0

# Registry instruments of every Venus, published as venus.<ws>.<suffix>
# (the dashboard and a run record's metrics.json read these).  Getters
# read through the Venus, so reset_counters zeroing the raw ints shows at
# once.
INSTRUMENTS = {
    "opens": ("counter", lambda venus: venus.opens),
    "fetches": ("counter", lambda venus: venus.fetches),
    "stores": ("counter", lambda venus: venus.stores),
    "validations": ("counter", lambda venus: venus.validations),
    "callback_breaks_received": ("counter",
                                 lambda venus: venus.callback_breaks_received),
    "flush_retries": ("counter", lambda venus: venus.flush_retries),
    "lost_writes": ("counter", lambda venus: venus.lost_writes),
    "failovers": ("counter", lambda venus: venus.failovers),
    "cache.hits": ("counter", lambda venus: venus.cache.hits),
    "cache.misses": ("counter", lambda venus: venus.cache.misses),
    "cache.evictions": ("counter", lambda venus: venus.cache.evictions),
    "cache.invalidations": ("counter", lambda venus: venus.cache.invalidations),
    "cache.hit_ratio": ("gauge", lambda venus: venus.cache.hit_ratio),
    "cache.files": ("gauge", lambda venus: len(venus.cache)),
    "cache.used_bytes": ("gauge", lambda venus: venus.cache.used_bytes),
}
# The fragment-aware fetch's instrument, erasure.<ws>.<suffix>.
STRIPED_INSTRUMENTS = {
    "degraded_reads": ("counter", lambda venus: venus.degraded_reads),
}


@dataclass(frozen=True)
class VenusCosts:
    """Client-side CPU prices (reference-machine seconds)."""

    open_base_cpu: float = 0.002
    close_base_cpu: float = 0.0015
    lookup_cpu: float = 0.0008
    per_byte_cpu: float = 1.5e-7  # copying into/out of the cache


_COSTS = VenusCosts()  # frozen: one instance serves every Venus


class _DirEntry:
    """A cached directory: name -> {fid, type} plus validity state.

    ``entries`` is the listing as it arrived, shared in-process with the
    server and every other cache holding that directory version: read it,
    never write into it (drop the whole entry instead)."""

    __slots__ = ("fid", "entries", "version", "valid", "vice_path")

    def __init__(self, fid: str, entries: Dict, version: int, vice_path: str):
        self.fid = fid
        self.entries = entries
        self.version = version
        self.valid = True
        self.vice_path = vice_path


class Venus:
    """The cache manager process of one workstation."""

    # A campus holds one Venus per workstation: slots keep each instance a
    # fixed array (these 32 names overflow a shared-key instance dict).
    __slots__ = (
        "host", "sim", "naming", "validation", "write_policy", "flush_delay",
        "flush_retry_limit", "flush_retry_backoff", "deferred_flushes",
        "coalesced_stores", "flush_retries", "lost_writes", "_flushing",
        "_flush_scheduled", "failover_servers", "failovers", "silent",
        "degraded_reads", "cluster_server", "costs", "node", "_pending_breaks",
        "cache", "dir_cache", "hints", "_keys", "_connections", "opens",
        "stores", "fetches", "validations", "callback_breaks_received",
    )

    def __init__(self, host: Host, cluster_server: str, config):
        """``config`` is the campus's :class:`~repro.system.config.SystemConfig`
        (already validated); what Venus reads at run time is copied here."""
        self.host = host
        self.sim = host.sim
        self.naming = config.naming
        self.validation = config.validation_policy
        # §3.2: "Changes to a cached file may be transmitted on close ... or
        # deferred until a later time. In our design, Virtue stores a file
        # back when it is closed."  The deferred alternative is implemented
        # for the EXP-13 ablation: closes coalesce and flush after a delay,
        # trading crash safety and freshness for fewer stores.
        self.write_policy = config.write_policy
        self.flush_delay = FLUSH_DELAY
        # Bounded write-back retry: a deferred flush that fails retries up
        # to flush_retry_limit times with exponential backoff before the
        # write-back is declared lost (it used to be dropped silently).
        # Limit 0 reproduces the historical single attempt exactly — same
        # virtual timing — while still counting the loss.
        self.flush_retry_limit = FLUSH_RETRY_LIMIT
        self.flush_retry_backoff = 2.0
        self.deferred_flushes = 0
        self.coalesced_stores = 0
        self.flush_retries = 0
        self.lost_writes = 0
        self._flushing: set = set()
        self._flush_scheduled: set = set()
        # Replicated campuses list every server here (enable_failover):
        # on ServerUnavailable/LeaseExpired Venus refreshes its location
        # hint against these and retries at the new primary.  Empty means
        # the historical behavior: such errors surface immediately.
        self.failover_servers: List[str] = []
        # Calls re-aimed because their server did not answer, whether it
        # failed just now (a timeout) or is remembered silent; see
        # _vice_call.  Location queries and fragment reads are not counted.
        self.failovers = 0
        # The silent-server record: server -> the probe process that asks
        # it, until any answer from it drops the entry (see _call).
        self.silent: Dict[str, Any] = {}
        # Striped fetches that had to reconstruct around an unreachable
        # stripe member (erasure-coded campuses only).
        self.degraded_reads = 0
        self.cluster_server = cluster_server
        self.costs = _COSTS

        self.node = RpcNode(host, **config.rpc_settings)
        self.node.register("BreakCallback", self._break_callback_handler)

        # Breaks that arrived for fids we do not (yet) hold: a callback can
        # race a fetch reply, and the fetched copy must not be trusted.
        self._pending_breaks: Dict[str, float] = {}
        self.cache = WholeFileCache(
            self.sim,
            policy=config.cache_policy,
            max_files=config.cache_max_files,
            max_bytes=config.cache_max_bytes,
        )
        self.dir_cache: Dict[str, _DirEntry] = {}
        self.hints = MountHints()
        self._keys: Dict[str, bytes] = {}
        self._connections: Dict[Tuple[str, str], Connection] = {}

        self.opens = 0
        self.stores = 0
        self.fetches = 0
        self.validations = 0
        self.callback_breaks_received = 0

        self.sim.metrics.attach(f"venus.{host.name}", self, INSTRUMENTS)

    # ==================================================================
    # sessions
    # ==================================================================

    def login(self, username: str, secret) -> None:
        """Record the user's key (derived from a password, never sent)."""
        if isinstance(secret, bytes):
            self._keys[username] = secret
        else:
            self._keys[username] = derive_user_key(username, secret)

    def logout(self, username: str) -> None:
        """Drop the user's key and tear down their connections."""
        self._keys.pop(username, None)
        for (user, server), conn in list(self._connections.items()):
            if user == username:
                self.node.close_connection(conn)
                del self._connections[(user, server)]

    def _require_login(self, username: str) -> None:
        if username not in self._keys:
            raise NotAuthenticated(f"user {username} is not logged in here")

    def _conn(self, username: str, server: str,
              retries: Optional[int] = None) -> Generator[Any, Any, Connection]:
        """The user's open connection to ``server``, made on first use;
        ``retries`` caps each handshake message as it caps the call."""
        key = self._keys.get(username)
        if key is None:
            raise NotAuthenticated(f"user {username} is not logged in here")
        conn = self._connections.get((username, server))
        if conn is not None and conn.established and not conn.closed:
            return conn
        conn = yield from self.node.connect(server, username, key, retries)
        self._connections[(username, server)] = conn
        return conn

    def _call(
        self, username: str, server: str, procedure: str, args: Dict, **options
    ) -> Generator[Any, Any, Tuple[Any, bytes]]:
        """One call to ``server``: every Venus call goes through here, so
        the silent-server record is kept in one place.

        A :class:`ServerUnavailable` (at connect or at call) marks the
        server silent; any answer clears the mark — a reply, a
        server-raised error, a fenced :class:`LeaseExpired`.
        """
        try:
            conn = yield from self._conn(username, server, options.get("retries"))
            reply = yield from self.node.call(conn, procedure, args, **options)
        except ServerUnavailable:
            if server not in self.silent:
                self.silent[server] = self.sim.process(
                    self._reprobe(username, server),
                    name=f"reprobe:{self.host.name}>{server}",
                )
            raise
        except NotAuthenticated:
            raise  # refused here, before the server was asked
        except ReproError:
            if self.silent:
                self.silent.pop(server, None)
            raise
        if self.silent:
            self.silent.pop(server, None)
        return reply

    def _reprobe(self, username: str, server: str) -> Generator:
        """While ``server`` stays silent, ask it where ``/`` lives once per
        :data:`SILENT_PROBE_INTERVAL`, off every user's path.

        Its answer clears the mark in :meth:`_call`.  The loop ends then,
        or when a newer mark has its own probe; with nobody logged in
        there is no key to ask with, and the mark is dropped instead.
        """
        me = self.sim.active_process
        while self.silent.get(server) is me:
            yield SILENT_PROBE_INTERVAL
            if self.silent.get(server) is not me:
                return
            if username not in self._keys:
                username = next(iter(self._keys), None)
                if username is None:
                    del self.silent[server]
                    return
            if not self.host.up:
                continue  # a crashed workstation sends nothing
            try:
                yield from self._call(username, server, "GetCustodian",
                                      {"path": "/"}, retries=0)
            except ReproError:
                pass

    def _live_first(self, servers: List[str]) -> List[str]:
        """``servers`` in order, the silent ones moved last."""
        if not self.silent:
            return servers
        return sorted(servers, key=self.silent.__contains__)

    # ==================================================================
    # location
    # ==================================================================

    def _entry_for(self, username: str, vice_path: str) -> Generator[Any, Any, Dict]:
        entry = self.hints.lookup(vice_path)
        if entry is not None:
            return entry
        result = yield from self._get_custodian(username, vice_path)
        return self.hints.install(result)

    def _get_custodian(self, username: str, vice_path: str) -> Generator[Any, Any, Dict]:
        """Location query, falling back across servers when failover is on
        (the cluster server first, silent servers last)."""
        probes = self._live_first([self.cluster_server] + [
            s for s in self.failover_servers if s != self.cluster_server
        ])
        last_error: Optional[ReproError] = None
        for server in probes:
            try:
                result, _ = yield from self._call(
                    username, server, "GetCustodian", {"path": vice_path}
                )
                return result
            except ServerUnavailable as err:
                last_error = err
        raise last_error

    def enable_failover(self, servers: List[str], striped: bool = False) -> None:
        """Let location queries and failed calls retry at these servers.

        Only a ``striped`` (erasure-coded) campus publishes the
        fragment-aware fetch's ``erasure.*`` instrument.
        """
        self.failover_servers = list(servers)
        if striped:
            self.sim.metrics.attach(f"erasure.{self.host.name}", self,
                                    STRIPED_INSTRUMENTS)

    def _sites(self, entry: Dict, fid: Optional[str] = None) -> List[str]:
        """Where a read of ``fid`` (or, with none, a pathname read) may go,
        in order: the nearest read-only replica first (§3.2), then the
        other sites nearest first, the custodian last.

        A pathname read may always go to the custodian.  A frozen-clone
        fid is stored only at the replica sites, any other fid only at the
        custodian.  :meth:`_routed` moves silent sites last.
        """
        custodian = entry["custodian"]
        replicas = entry.get("ro_servers") or ()
        if fid is None:
            sites = list(replicas)
            if custodian not in sites:
                sites.append(custodian)
        elif (replicas and not fid.startswith(_NEW_FID_PREFIX)
              and split_fid(fid)[0].endswith("-ro")):
            sites = list(replicas)
        else:
            return [custodian]
        if len(sites) == 1:
            return sites
        me, hops = self.host.name, self.host.network.hop_count
        sites.sort(key=lambda s: (hops(me, s), s))
        # A stable sort: the custodian goes last, the rest keep their order.
        return sites[:1] + sorted(sites[1:], key=lambda s: s == custodian)

    def _call_path(
        self, username: str, vice_path: str, procedure: str, **extra
    ) -> Generator[Any, Any, Any]:
        """A lock call: both designs name a lock by its pathname.  A lock
        lives in its custodian's table, never at a read-only replica."""
        entry = yield from self._entry_for(username, vice_path)
        result, _ = yield from self._vice_call(
            username, entry, None, procedure, {"path": vice_path, **extra}
        )
        return result

    def _vice_call(
        self, username: str, entry: Dict, sites: Optional[List[str]], procedure: str,
        args: Dict, payload: bytes = b"", expect_bytes: int = 0,
    ) -> Generator[Any, Any, Tuple[Any, bytes]]:
        """One Vice call, of either family, to ``sites`` under :meth:`_routed`
        (returned, not delegated to: one generator frame fewer per call)."""
        return self._routed(
            username, entry, sites, lambda _entry, target: self._call(
                username, target, procedure, args,
                payload=payload, expect_bytes=expect_bytes,
            ),
        )

    def _routed(
        self, username: str, entry: Dict, sites: Optional[List[str]],
        attempt: Callable[[Dict, str], Generator],
    ) -> Generator[Any, Any, Any]:
        """Run ``attempt(entry, target)`` with referral and failover retry.

        ``sites`` are the targets in order (a read's :meth:`_sites`, or
        the one custodian a write names); ``None`` means the custodian.
        Silent sites go last, and a silent custodian that is the only
        site is retargeted first.  A site that does not answer hands the
        attempt to the next one; after the last, every attempt goes to
        the custodian :meth:`_retarget` names.  Each move off the first
        site, from memory or after a timeout, is a failover.  The fourth
        attempt's error is raised as it stands: a retarget then would ask
        where the volume lives, and drop the cache's callback trust, for
        an answer nothing uses.
        """
        sites = list(sites or [entry["custodian"]])
        if self.silent:
            live = self._live_first(sites)
            if live[0] != sites[0]:
                self.failovers += 1
            sites = live
        target = sites.pop(0)
        if (not sites and target in self.silent and target == entry["custodian"]
                and self.failover_servers):
            entry = yield from self._retarget(
                username, entry, ServerUnavailable(f"{target} is silent"))
            target = entry["custodian"]
        for tries_left in (3, 2, 1, 0):
            try:
                return (yield from attempt(entry, target))
            except (NotCustodian, ServerUnavailable, LeaseExpired) as err:
                last_error = err
                if sites and isinstance(err, ServerUnavailable):
                    self.failovers += 1
                    target = sites.pop(0)
                elif tries_left:
                    entry = yield from self._retarget(username, entry, err)
                    target = entry["custodian"]
        raise last_error

    def _retarget(
        self, username: str, entry: Dict, err: ReproError
    ) -> Generator[Any, Any, Dict]:
        """The one referral/failover rule: the location entry to retry under.

        A referral names the custodian and updates the mount hint.  A dead
        or fenced custodian, on a campus with failover, means re-asking
        where the volume lives (the controller may have promoted a
        replica, which has no record of the old primary's promises and
        cannot break them: every writable cached copy must revalidate).
        Any other error is the caller's.
        """
        if isinstance(err, NotCustodian):
            self.hints.redirect(entry["mount_path"], err.custodian_hint)
            return dict(entry, custodian=err.custodian_hint)
        if not (isinstance(err, (ServerUnavailable, LeaseExpired))
                and self.failover_servers):
            raise err
        self.failovers += 1
        self.hints.forget(entry["mount_path"])
        for cached in self.cache:
            if not cached.status.get("read_only"):
                cached.callback_valid = False
        for directory in self.dir_cache.values():
            directory.valid = False
        result = yield from self._get_custodian(username, entry["mount_path"])
        return self.hints.install(result)

    # ==================================================================
    # the naming step: which object does a call mean?
    # ==================================================================

    def _name_object(
        self, username: str, vice_path: str, by_path: str, by_fid: str,
        want_write: bool, held: Optional[str] = None, kind: Optional[str] = None,
    ) -> Generator[Any, Any, Tuple[Dict, List[str], str, Dict]]:
        """Name the object at ``vice_path``: ``(location, targets,
        procedure, args)``.

        Path naming sends the pathname for the server to walk
        (``by_path``).  Fid naming sends a fid (``by_fid``): the ``held``
        one of a cached copy, else one walked to here, which must be a
        ``kind`` ("file" or "directory") when one is asked for.
        """
        if self.naming == "path":
            location = yield from self._entry_for(username, vice_path)
            sites = [location["custodian"]] if want_write else self._sites(location)
            return location, sites, by_path, {"path": vice_path}
        if held is not None:
            location = yield from self._entry_for(username, vice_path)
            fid = self._rw_fid(held) if want_write else held
            return location, self._sites(location, fid), by_fid, {"fid": fid}
        fid, ftype, sites, location = yield from self._resolve(
            username, vice_path, want_write
        )
        if kind == "file" and ftype == "directory":
            raise IsADirectory(vice_path)
        if kind == "directory" and ftype != "directory":
            raise NotADirectory(vice_path)
        return location, sites, by_fid, {"fid": fid}

    def _name_entry(
        self, username: str, vice_path: str, by_path: str, by_fid: str
    ) -> Generator[Any, Any, Tuple[Dict, List[str], str, Dict]]:
        """Name the directory entry ``vice_path`` (to create, remove or
        rename): its full path, or its parent's fid plus the last name.
        The call goes to the custodian either way."""
        if self.naming == "path":
            location = yield from self._entry_for(username, vice_path)
            return location, [location["custodian"]], by_path, {"path": vice_path}
        parent_path = pathutil.dirname(vice_path)
        fid, ftype, sites, location = yield from self._resolve(
            username, parent_path, want_write=True
        )
        if ftype != "directory":
            raise NotADirectory(parent_path)
        return location, sites, by_fid, {
            "parent": fid, "name": pathutil.basename(vice_path)
        }

    def _object_call(
        self, username: str, vice_path: str, by_path: str, by_fid: str,
        want_write: bool, held: Optional[str] = None, payload: bytes = b"",
        **extra,
    ) -> Generator[Any, Any, Any]:
        """One Vice operation on the object at ``vice_path``."""
        location, sites, procedure, args = yield from self._name_object(
            username, vice_path, by_path, by_fid, want_write, held
        )
        result, _ = yield from self._vice_call(
            username, location, sites, procedure, {**args, **extra}, payload=payload
        )
        return result

    def _entry_call(
        self, username: str, vice_path: str, by_path: str, by_fid: str,
        payload: bytes = b"", **extra,
    ) -> Generator[Any, Any, Any]:
        """One Vice operation that creates or removes the name ``vice_path``.

        A cached listing of the parent (and of a directory the name
        referred to) is dropped: the operation just changed it.  Only fid
        naming caches listings, and only it names a parent.
        """
        location, sites, procedure, args = yield from self._name_entry(
            username, vice_path, by_path, by_fid
        )
        parent = args.get("parent")
        listing = self.dir_cache.get(parent)
        child = listing.entries.get(args["name"]) if listing else None
        result, _ = yield from self._vice_call(
            username, location, sites, procedure, {**args, **extra}, payload=payload
        )
        self.dir_cache.pop(parent, None)
        if child:
            self.dir_cache.pop(child["fid"], None)
        return result

    # ==================================================================
    # fid resolution (fid naming)
    # ==================================================================

    def _dir_entries(
        self, username: str, fid: str, entry: Dict, vice_path: str
    ) -> Generator[Any, Any, _DirEntry]:
        cached = self.dir_cache.get(fid)
        if cached is not None:
            if self.validation == "callback" and cached.valid:
                return cached
            if self.validation == "check-on-open":
                result, _ = yield from self._vice_call(
                    username, entry, self._sites(entry, fid),
                    "ValidateByFid", {"fid": fid, "version": cached.version},
                )
                self.validations += 1
                if result["valid"]:
                    return cached
                del self.dir_cache[fid]
        result, _ = yield from self._vice_call(
            username, entry, self._sites(entry, fid),
            "FetchDir", {"fid": fid}, expect_bytes=8192,
        )
        status = result["status"]
        fresh = _DirEntry(fid, result["entries"], status["version"], vice_path)
        if self._pending_breaks.pop(fid, None) is not None:
            fresh.valid = False
        self.dir_cache[fid] = fresh
        yield from self.host.disk.access(64 * max(1, len(fresh.entries)), write=True)
        return fresh

    def _resolve(
        self, username: str, vice_path: str, want_write: bool = False
    ) -> Generator[Any, Any, Tuple[str, str, List[str], Dict]]:
        """Walk cached directories: ``(fid, type, targets, mount_entry)``.

        "Venus will translate a Vice pathname into a file identifier by
        caching the intermediate directories from Vice and traversing
        them" (§5.3).  Symlinks restart resolution at the expanded path.
        """
        path = pathutil.normalize(vice_path)
        for _hop in range(_MAX_SYMLINK_HOPS):
            entry = yield from self._entry_for(username, path)
            mount = entry["mount_path"]
            rest = path[len(mount):] if mount != "/" else path
            parts = pathutil.components(rest or "/")
            # Reads on a read-only-replicated volume walk the frozen clone
            # at the nearest replica site (§3.2's load-spreading).
            use_replica = not want_write and bool(entry.get("ro_servers"))
            volume_id = entry["volume_id"] + ("-ro" if use_replica else "")
            current_fid = make_fid(volume_id, 1)
            current_type = "directory"
            walked = mount
            symlink_target = None
            for index, part in enumerate(parts):
                directory = yield from self._dir_entries(username, current_fid, entry, walked)
                child = directory.entries.get(part)
                if child is None:
                    raise FileNotFound(path)
                walked = pathutil.join(walked, part)
                current_fid, current_type = child["fid"], child["type"]
                if current_type == "symlink":
                    result, _ = yield from self._vice_call(
                        username, entry, None,
                        "LookupVnode", {"fid": directory.fid, "name": part},
                    )
                    target = result["target"]
                    if not pathutil.is_abs(target):
                        target = pathutil.join(pathutil.dirname(walked), target)
                    remainder = "/".join(parts[index + 1:])
                    symlink_target = (
                        pathutil.join(target, remainder) if remainder else target
                    )
                    break
            if symlink_target is None:
                if want_write:
                    current_fid = self._rw_fid(current_fid)
                return current_fid, current_type, self._sites(entry, current_fid), entry
            path = pathutil.normalize(symlink_target)
        raise TooManySymlinks(vice_path)

    @staticmethod
    def _rw_fid(fid: str) -> str:
        volume_id, vnode = split_fid(fid)
        if volume_id.endswith("-ro"):
            return make_fid(volume_id[:-3], vnode)
        return fid

    # ==================================================================
    # open / close — the heart of §3.2
    # ==================================================================

    def open_file(
        self,
        username: str,
        vice_path: str,
        need_data: bool = True,
        create: bool = False,
    ) -> Generator[Any, Any, CacheEntry]:
        """Make a usable cached copy available; returns its cache entry.

        ``need_data=False`` is the truncating-open fast path: no fetch is
        needed for a file about to be overwritten entirely.
        """
        self._require_login(username)
        vice_path = pathutil.normalize(vice_path)
        self.opens += 1
        tracer = self.sim.tracer
        with (tracer.span("venus.open", component="venus",
                          host=self.host.name, path=vice_path)
              if tracer.enabled else _NULL_SPAN) as span:
            yield from self.host.compute(self.costs.open_base_cpu)

            entry = self.cache.lookup(vice_path)
            if entry is not None:
                usable = yield from self._entry_usable(username, entry)
                if usable:
                    self.cache.note_hit()
                    span.add(hit=True)
                    if need_data:
                        yield from self.host.disk.access(entry.size)
                    entry.open_count += 1
                    return entry
                if entry.dirty:
                    # The stale copy still held an unstored write (its
                    # store failed terminally, or a deferred flush never
                    # landed): it dies with the copy — count it.
                    self.lost_writes += 1
                self.cache.remove(vice_path)

            if not need_data:
                # Truncating open: no fetch was needed or avoided, so this is
                # neither a cache hit nor a miss; close() will store.
                entry = self._placeholder_entry(vice_path)
                entry.open_count += 1
                return self.cache.insert(entry)
            self.cache.note_miss()
            span.add(hit=False)
            try:
                status, data = yield from self._fetch(username, vice_path)
            except FileNotFound:
                if not create:
                    raise
                entry = self._placeholder_entry(vice_path)
                entry.open_count += 1
                return self.cache.insert(entry)
            self.fetches += 1
            yield from self.host.compute(len(data) * self.costs.per_byte_cpu)
            yield from self.host.disk.access(len(data), write=True)
            entry = CacheEntry(vice_path, status["fid"], data, status["version"], status)
            if self._pending_breaks.pop(status["fid"], None) is not None:
                # A break raced this fetch: the copy is usable for this open
                # but must be revalidated before the next one.
                entry.callback_valid = False
            entry.open_count += 1
            return self.cache.insert(entry)

    def _placeholder_entry(self, vice_path: str) -> CacheEntry:
        status = {
            "fid": _NEW_FID_PREFIX + vice_path,
            "type": "file",
            "size": 0,
            "version": 0,
            "mtime": self.sim.now,
            "owner": "",
            "mode": 0o644,
            "rights": "",
            "read_only": False,
        }
        entry = CacheEntry(vice_path, status["fid"], b"", 0, status)
        entry.dirty = True  # must be stored at close even if never written
        return entry

    def _entry_usable(self, username: str, entry: CacheEntry) -> Generator[Any, Any, bool]:
        if entry.fid.startswith(_NEW_FID_PREFIX):
            return True
        if entry.status.get("read_only") and entry.callback_valid:
            # Clones are immutable: no validation traffic in either policy.
            # (An explicit invalidation — crash recovery, release cutover —
            # clears callback_valid and falls through to a real check.)
            return True
        if self.validation == "callback" and not entry.status.get("read_only"):
            return entry.callback_valid
        result = yield from self._validate(username, entry)
        self.validations += 1
        return bool(result.get("valid"))

    def _validate(self, username: str, entry: CacheEntry) -> Generator:
        tracer = self.sim.tracer
        with (tracer.span("venus.validate", component="venus",
                          host=self.host.name, path=entry.vice_path)
              if tracer.enabled else _NULL_SPAN):
            return (yield from self._object_call(
                username, entry.vice_path, "ValidateCache", "ValidateByFid",
                want_write=False, held=entry.fid, version=entry.version,
            ))

    def _fetch(self, username: str, vice_path: str) -> Generator:
        location, sites, procedure, args = yield from self._name_object(
            username, vice_path, "Fetch", "FetchByFid", want_write=False, kind="file"
        )
        if location.get("erasure"):  # striped volumes exist under fid naming only
            return (yield from self._fetch_striped(
                username, location, self._rw_fid(args["fid"])
            ))
        return (yield from self._vice_call(
            username, location, sites, procedure, args,
            expect_bytes=_DEFAULT_FETCH_GUESS,
        ))

    def _fetch_striped(self, username: str, location: Dict, fid: str) -> Generator:
        """Fetch a striped file: k parallel fragment reads, reassemble.

        The custodian is always probed (its reply is the authoritative
        status and carries the callback promise); the remaining ``k - 1``
        probes go to the next stripe members in slot order, silent ones
        last.  Unreachable, silent or stale members are backfilled from
        the parity holders — a **degraded read** reconstructing from any
        ``k`` of ``k + m``.  One attempt raises the custodian's error, or
        :class:`ServerUnavailable` when the stripe is unreadable, and
        :meth:`_routed` retries it by the rule every other Vice call follows.
        """
        from repro.vice.erasure import decode

        # The fragment fetches run in processes of their own: hand them
        # the open's span as an explicit parent.
        parent = self.sim.tracer.current()

        def read_stripe(location: Dict, custodian: str) -> Generator:
            k, m = location["erasure"]
            members = list(location.get("replicas") or [custodian])
            slots = [custodian] + [n for n in members if n != custodian]
            order = slots[:1] + self._live_first(slots[1:])
            targets = order[:k]
            guess = _DEFAULT_FETCH_GUESS // max(1, k)
            results: Dict[str, tuple] = {}
            failed: Dict[str, ReproError] = {}

            def probe(name: str) -> Generator:
                try:
                    results[name] = yield from self._fetch_fragment(
                        username, name, fid, guess, parent)
                except ReproError as err:
                    failed[name] = err

            yield self.sim.all_of([
                self.sim.process(probe(name), name=f"fragfetch:{fid}@{name}")
                for name in targets
            ])
            if custodian in failed:
                raise failed[custodian]

            status = results[custodian][0]
            version = status["version"]
            frags: Dict[int, bytes] = {}
            for reply, frag in results.values():
                index = reply.get("frag_index")
                if index is not None and reply["version"] == version:
                    frags[index] = frag
            # Skipping a silent member of the first k is degraded too.
            degraded = len(frags) < len(targets) or targets != slots[:k]
            # Backfill from the untried members (parity holders and any
            # data holders beyond the first k) until reconstructable.
            for name in order[len(targets):]:
                if len(frags) >= k:
                    break
                try:
                    reply, frag = yield from self._fetch_fragment(
                        username, name, fid, guess)
                except ReproError as err:
                    failed[name] = err
                    degraded = True
                    continue
                index = reply.get("frag_index")
                if (index is not None and index not in frags
                        and reply["version"] == version):
                    frags[index] = frag
            if len(frags) < k and status["size"]:
                raise ServerUnavailable(
                    f"stripe for {fid} unreadable: {len(frags)} of {k} fragments")
            if degraded:
                self.degraded_reads += 1
            if any(isinstance(err, NotCustodian) for err in failed.values()):
                # A member referred us away: the hint's stripe membership
                # is stale (a rebuild moved that slot).  Re-resolve next
                # access so probes stop visiting ex-members.
                self.hints.forget(location["mount_path"])
            return status, decode(frags, k, m, status["size"])

        return self._routed(username, location, None, read_stripe)

    def _fetch_fragment(self, username: str, name: str, fid: str,
                        guess: int, parent=None) -> Generator:
        """One stripe member's ``FetchFragment``: ``(reply, fragment)``."""
        tracer = self.sim.tracer
        with (tracer.span("venus.fetch_fragment", component="venus",
                          host=self.host.name, parent=parent, server=name)
              if tracer.enabled else _NULL_SPAN):
            return (yield from self._call(
                username, name, "FetchFragment", {"fid": fid}, expect_bytes=guess))

    def close_file(
        self, username: str, entry: CacheEntry, new_data: Optional[bytes] = None
    ) -> Generator:
        """Close a descriptor; store-through when the file changed."""
        self._require_login(username)
        tracer = self.sim.tracer
        with (tracer.span("venus.close", component="venus",
                          host=self.host.name, path=entry.vice_path)
              if tracer.enabled else _NULL_SPAN):
            yield from self.host.compute(self.costs.close_base_cpu)
            if entry.open_count > 0:
                entry.open_count -= 1
            if new_data is None and not (entry.dirty and entry.open_count == 0):
                return  # clean close: no Vice traffic at all
            if new_data is not None:
                yield from self.host.compute(len(new_data) * self.costs.per_byte_cpu)
                yield from self.host.disk.access(len(new_data), write=True)
                entry.data = bytes(new_data)
                entry.dirty = True
            if entry.open_count > 0:
                return  # last closer writes through
            if self.write_policy == "deferred":
                if entry.vice_path in self._flush_scheduled:
                    # A flush timer is already pending: this close rides along.
                    self.coalesced_stores += 1
                    return
                self._flush_scheduled.add(entry.vice_path)
                self.deferred_flushes += 1
                self.sim.process(
                    self._flush_later(username, entry),
                    name=f"flush:{entry.vice_path}",
                )
                return
            yield from self._store(username, entry)

    def _store(self, username: str, entry: CacheEntry) -> Generator:
        with self.sim.tracer.span(
            "venus.store", component="venus", host=self.host.name,
            path=entry.vice_path, bytes=len(entry.data),
        ):
            yield from self._store_inner(username, entry)

    def _store_inner(self, username: str, entry: CacheEntry) -> Generator:
        if entry.fid.startswith(_NEW_FID_PREFIX):  # no fid yet: create the name
            status = yield from self._entry_call(
                username, entry.vice_path, "Store", "CreateByFid", payload=entry.data
            )
        else:
            status = yield from self._object_call(
                username, entry.vice_path, "Store", "StoreByFid", want_write=True,
                held=entry.fid, payload=entry.data,
            )
        self.stores += 1
        self.cache.remove(entry.vice_path)
        entry.fid = status["fid"]
        entry.version = status["version"]
        entry.status = status
        entry.dirty = False
        entry.callback_valid = True
        try:
            self.cache.insert(entry)
        except NoSpace:
            # The store succeeded at the custodian; the copy is simply too
            # large to keep locally. The next open will have to refetch.
            pass

    def _flush_later(self, username: str, entry: CacheEntry) -> Generator:
        """Deferred write-back: flush once the delay elapses, coalescing
        any closes that happened in between."""
        yield float(self.flush_delay)
        self._flush_scheduled.discard(entry.vice_path)
        if (
            not entry.dirty
            or entry.open_count > 0
            or entry.vice_path in self._flushing
        ):
            return
        self._flushing.add(entry.vice_path)
        try:
            delay = self.flush_delay
            attempt = 0
            while True:
                try:
                    yield from self._store(username, entry)
                    return
                except ReproError:
                    if attempt >= self.flush_retry_limit:
                        # Retries exhausted: the data survives in the local
                        # cache (dirty flag stays set) but Vice never saw
                        # this write-back — an honest, counted loss instead
                        # of the silent drop this branch used to be.
                        self.lost_writes += 1
                        return
                attempt += 1
                self.flush_retries += 1
                yield float(delay)
                delay *= self.flush_retry_backoff
                if not entry.dirty or entry.open_count > 0:
                    return  # reopened or re-flushed while we backed off
        finally:
            self._flushing.discard(entry.vice_path)

    # ==================================================================
    # status and directories
    # ==================================================================

    def stat(self, username: str, vice_path: str) -> Generator[Any, Any, Dict]:
        """Status of a Vice object (served locally when a valid copy exists)."""
        self._require_login(username)
        vice_path = pathutil.normalize(vice_path)
        yield from self.host.compute(self.costs.lookup_cpu)
        entry = self.cache.lookup(vice_path)
        if (
            entry is not None
            and self.validation == "callback"
            and entry.callback_valid
            and not entry.fid.startswith(_NEW_FID_PREFIX)
        ):
            return dict(entry.status)
        return (yield from self._object_call(
            username, vice_path, "GetStatus", "GetStatusByFid", want_write=False
        ))

    def listdir(self, username: str, vice_path: str) -> Generator[Any, Any, List[str]]:
        """Sorted names in a Vice directory."""
        self._require_login(username)
        vice_path = pathutil.normalize(vice_path)
        yield from self.host.compute(self.costs.lookup_cpu)
        location, sites, procedure, args = yield from self._name_object(
            username, vice_path, "ListDir", "FetchDir", want_write=False,
            kind="directory",
        )
        if procedure == "ListDir":  # a status read: nothing to cache
            result, _ = yield from self._vice_call(
                username, location, sites, procedure, args
            )
            return sorted(result["entries"])
        directory = yield from self._dir_entries(username, args["fid"], location, vice_path)
        return sorted(directory.entries)

    # ==================================================================
    # mutation of the name space
    # ==================================================================

    def mkdir(self, username: str, vice_path: str) -> Generator:
        """Create a Vice directory."""
        self._require_login(username)
        return (yield from self._entry_call(
            username, pathutil.normalize(vice_path), "MakeDir", "MakeDirByFid"
        ))

    def remove(self, username: str, vice_path: str) -> Generator:
        """Remove a Vice file or symlink."""
        self._require_login(username)
        vice_path = pathutil.normalize(vice_path)
        result = yield from self._entry_call(username, vice_path, "Remove", "RemoveByFid")
        self.cache.remove(vice_path)
        return result

    def rmdir(self, username: str, vice_path: str) -> Generator:
        """Remove an empty Vice directory."""
        self._require_login(username)
        return (yield from self._entry_call(
            username, pathutil.normalize(vice_path), "RemoveDir", "RemoveDirByFid"
        ))

    def rename(self, username: str, old_path: str, new_path: str) -> Generator:
        """Rename inside Vice (directories too, in the revised design)."""
        self._require_login(username)
        old_path = pathutil.normalize(old_path)
        new_path = pathutil.normalize(new_path)
        location, sites, procedure, old = yield from self._name_entry(
            username, old_path, "Rename", "RenameByFid"
        )
        if procedure == "Rename":  # one pathname call; the server walks both
            args = {"old": old_path, "new": new_path}
        else:
            *_, new = yield from self._name_entry(
                username, new_path, "Rename", "RenameByFid"
            )
            args = {"old_parent": old["parent"], "old_name": old["name"],
                    "new_parent": new["parent"], "new_name": new["name"]}
        result, _ = yield from self._vice_call(username, location, sites, procedure, args)
        self.dir_cache.pop(args.get("old_parent"), None)
        self.dir_cache.pop(args.get("new_parent"), None)
        # Any cached copy at the destination was just clobbered by the
        # rename; drop it before rebinding the moved entry to its new name.
        # A renamed directory takes every cached file beneath it along:
        # fids, and so the cached bytes and their promises, survive.
        for path in [e.vice_path for e in self.cache]:
            if path == new_path or path.startswith(new_path + "/"):
                self.cache.remove(path)
        for path in [e.vice_path for e in self.cache]:
            if path == old_path or path.startswith(old_path + "/"):
                self.cache.rename(path, new_path + path[len(old_path):])
        return result

    def symlink(self, username: str, vice_path: str, target: str) -> Generator:
        """Create a symlink inside Vice (revised design only)."""
        self._require_login(username)
        return (yield from self._entry_call(
            username, pathutil.normalize(vice_path), "MakeSymlink", "SymlinkByFid",
            target=target,
        ))

    # ==================================================================
    # protection and locks
    # ==================================================================

    def get_acl(self, username: str, vice_path: str) -> Generator:
        """Read a directory's access list."""
        self._require_login(username)
        return (yield from self._object_call(
            username, pathutil.normalize(vice_path), "GetACL", "GetACLByFid",
            want_write=False,
        ))

    def set_acl(self, username: str, vice_path: str, acl_record: Dict) -> Generator:
        """Replace a directory's access list."""
        self._require_login(username)
        return (yield from self._object_call(
            username, pathutil.normalize(vice_path), "SetACL", "SetACLByFid",
            want_write=True, acl=acl_record,
        ))

    def set_lock(self, username: str, vice_path: str, exclusive: bool) -> Generator:
        """Take an advisory lock."""
        self._require_login(username)
        return (yield from self._call_path(
            username, pathutil.normalize(vice_path), "SetLock", exclusive=exclusive
        ))

    def release_lock(self, username: str, vice_path: str) -> Generator:
        """Release an advisory lock."""
        self._require_login(username)
        return (yield from self._call_path(
            username, pathutil.normalize(vice_path), "ReleaseLock"
        ))

    # ==================================================================
    # callback service (Vice calls us)
    # ==================================================================

    def _break_callback_handler(self, conn: Connection, args: Dict, payload: bytes):
        yield from self.host.compute(0.0008)
        fid = args["fid"]
        self.callback_breaks_received += 1
        hit_file = self.cache.invalidate_fid(fid)
        directory = self.dir_cache.get(fid)
        if directory is not None:
            directory.valid = False
        if not hit_file and directory is None:
            # Possibly racing an in-flight fetch of this fid; remember it.
            self._pending_breaks[fid] = self.sim.now
            while len(self._pending_breaks) > 512:
                oldest = min(self._pending_breaks, key=self._pending_breaks.get)
                del self._pending_breaks[oldest]
        return {"ok": True}, b""

    # ==================================================================

    def invalidate_all(self) -> None:
        """Distrust everything cached (crash recovery, admin cutover)."""
        self.cache.invalidate_all()
        for directory in self.dir_cache.values():
            directory.valid = False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Venus {self.host.name} validation={self.validation}"
            f" cached={len(self.cache)}>"
        )
