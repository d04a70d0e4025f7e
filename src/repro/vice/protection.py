"""The protection domain: users, recursive groups, ACLs and negative rights.

Paper §3.4: entries on an access list come from a protection domain of
*Users* and *Groups*; groups may contain other groups recursively (modelled
on Grapevine's registration database).  A user's rights on an object are

    union of rights of every group in the user's CPS
    minus the union of the negative rights of the CPS,

where the *Current Protection Subdomain* (CPS) is the user plus every group
the user belongs to directly or transitively.  Negative rights exist for
rapid revocation: rescinding membership in a replicated database is slow,
but adding a negative entry at one site is immediate.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional, Set

from repro.errors import UnknownPrincipal
from repro.rpc.marshal import Shared

__all__ = ["AccessList", "ProtectionDatabase", "ProtectionState", "Rights"]


class Rights:
    """The rights a Vice directory ACL can grant (AFS's classic seven)."""

    READ = "r"  # fetch files and read their status
    WRITE = "w"  # store (overwrite) existing files
    INSERT = "i"  # create new directory entries
    DELETE = "d"  # remove directory entries
    LOOKUP = "l"  # list the directory and stat entries
    ADMINISTER = "a"  # modify the access list
    LOCK = "k"  # set advisory locks

    ALL: FrozenSet[str] = frozenset("rwidlak")
    READ_ONLY: FrozenSet[str] = frozenset("rl")

    @classmethod
    def parse(cls, spec: str) -> FrozenSet[str]:
        """Parse a rights string like ``"rliw"``; validates every letter."""
        rights = frozenset(spec)
        unknown = rights - cls.ALL
        if unknown:
            raise ValueError(f"unknown rights {''.join(sorted(unknown))!r}")
        return rights


class AccessList:
    """Positive and negative entries mapping principal name -> rights set.

    Attached to directories ("the protected entities are directories, and
    all files within a directory have the same protection status").
    """

    # Bound so a long-lived ACL checked against many distinct subdomains
    # cannot grow without limit; in practice a handful of CPS values recur.
    _RIGHTS_CACHE_LIMIT = 1024

    def __init__(self):
        self.positive: Dict[str, FrozenSet[str]] = {}
        self.negative: Dict[str, FrozenSet[str]] = {}
        # effective-rights memo keyed by the caller's CPS frozenset; cleared
        # on every entry mutation.  frozenset hashes are cached by CPython,
        # so a hit costs one dict probe.
        self._rights_cache: Dict[FrozenSet[str], FrozenSet[str]] = {}

    def grant(self, principal: str, rights: str) -> None:
        """Add (or extend) a positive entry."""
        parsed = Rights.parse(rights)
        self.positive[principal] = self.positive.get(principal, frozenset()) | parsed
        self._rights_cache.clear()

    def deny(self, principal: str, rights: str) -> None:
        """Add (or extend) a negative entry — the rapid-revocation mechanism."""
        parsed = Rights.parse(rights)
        self.negative[principal] = self.negative.get(principal, frozenset()) | parsed
        self._rights_cache.clear()

    def drop(self, principal: str) -> None:
        """Remove both entries for a principal."""
        self.positive.pop(principal, None)
        self.negative.pop(principal, None)
        self._rights_cache.clear()

    def effective_rights(self, cps: Iterable[str]) -> FrozenSet[str]:
        """Rights for a caller whose CPS is ``cps`` (positives minus negatives)."""
        key = cps if isinstance(cps, frozenset) else frozenset(cps)
        cached = self._rights_cache.get(key)
        if cached is not None:
            return cached
        granted: Set[str] = set()
        revoked: Set[str] = set()
        for principal in key:
            granted |= self.positive.get(principal, frozenset())
            revoked |= self.negative.get(principal, frozenset())
        result = frozenset(granted - revoked)
        if len(self._rights_cache) >= self._RIGHTS_CACHE_LIMIT:
            self._rights_cache.clear()
        self._rights_cache[key] = result
        return result

    def copy(self) -> "AccessList":
        """An independent copy (used when cloning volumes)."""
        duplicate = AccessList()
        duplicate.positive = dict(self.positive)
        duplicate.negative = dict(self.negative)
        return duplicate

    def as_dict(self) -> Dict[str, Dict[str, str]]:
        """Marshal-friendly representation."""
        return {
            "positive": {p: "".join(sorted(r)) for p, r in self.positive.items()},
            "negative": {p: "".join(sorted(r)) for p, r in self.negative.items()},
        }

    @classmethod
    def from_dict(cls, record: Dict[str, Dict[str, str]]) -> "AccessList":
        """Inverse of :meth:`as_dict`."""
        acl = cls()
        for principal, rights in record.get("positive", {}).items():
            acl.grant(principal, rights)
        for principal, rights in record.get("negative", {}).items():
            acl.deny(principal, rights)
        return acl

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<AccessList +{len(self.positive)} -{len(self.negative)}>"


class ProtectionState:
    """One version of the protection domain: users, groups (name -> direct
    members) and long-term keys, plus the member -> containing-groups index
    derived from them, built on first use.

    Every replica holding this version points at the same object, so the
    index is built once per version, and no replica writes a state another
    may hold (``ProtectionDatabase._new_version`` copies first).
    """

    __slots__ = ("users", "groups", "user_keys", "version", "_parents")

    def __init__(self, users: Set[str], groups: Dict[str, Set[str]],
                 user_keys: Dict[str, bytes], version: int):
        self.users = users
        self.groups = groups
        self.user_keys = user_keys
        self.version = version
        self._parents: Optional[Dict[str, List[str]]] = None

    def parents(self) -> Dict[str, List[str]]:
        """member -> the groups that list it directly."""
        if self._parents is None:
            parents: Dict[str, List[str]] = {}
            for group, members in self.groups.items():
                for member in members:
                    parents.setdefault(member, []).append(group)
            self._parents = parents
        return self._parents

    def copy(self) -> "ProtectionState":
        """A private copy (without the index, which its writer invalidates)."""
        return ProtectionState(
            set(self.users),
            {g: set(m) for g, m in self.groups.items()},
            dict(self.user_keys),
            self.version,
        )


class ProtectionDatabase:
    """Users and recursively nested groups, with CPS computation.

    One logical database, "replicated at each cluster server"; replication
    is coordinated by :class:`repro.vice.protserver.ProtectionServer`.
    ``version`` increments on every mutation so replicas can be compared.
    Replicas holding the same version share one :class:`ProtectionState`;
    ``users``, ``groups`` and ``user_keys`` read it and must not be written.
    """

    SYSTEM_ANYUSER = "system:anyuser"

    def __init__(self):
        self._state = ProtectionState(set(), {self.SYSTEM_ANYUSER: set()}, {}, 0)
        # True once another replica may hold ``_state`` (it was handed out
        # by snapshot() or adopted from one): the next write copies it.
        self._shared = False
        # CPS memo, this replica's own (the paper computes the CPS once, at
        # authentication time); cleared whenever the state changes.
        self._cps_cache: Dict[str, FrozenSet[str]] = {}
        self.cps_hits = 0
        self.cps_misses = 0

    @property
    def state(self) -> ProtectionState:
        """The version this replica holds (shared; never write it)."""
        return self._state

    @property
    def version(self) -> int:
        return self._state.version

    @property
    def users(self) -> Set[str]:
        return self._state.users

    @property
    def groups(self) -> Dict[str, Set[str]]:
        return self._state.groups

    @property
    def user_keys(self) -> Dict[str, bytes]:
        return self._state.user_keys

    def _new_version(self) -> ProtectionState:
        """The state to change into the next version: this replica's own,
        copied first if another replica may hold it."""
        if self._shared:
            self._state = self._state.copy()
            self._shared = False
        state = self._state
        state._parents = None
        state.version += 1
        self._cps_cache.clear()
        return state

    # -- principals ---------------------------------------------------------

    def add_user(self, username: str, key: Optional[bytes] = None) -> None:
        """Register a user (idempotent); optionally set their long-term key."""
        state = self._new_version()
        state.users.add(username)
        if key is not None:
            state.user_keys[username] = key

    def remove_user(self, username: str) -> None:
        """Delete a user and scrub them from every group."""
        if username not in self.users:
            raise UnknownPrincipal(username)
        state = self._new_version()
        state.users.discard(username)
        state.user_keys.pop(username, None)
        for members in state.groups.values():
            members.discard(username)

    def add_group(self, group: str) -> None:
        """Create an empty group (idempotent)."""
        self._new_version().groups.setdefault(group, set())

    def remove_group(self, group: str) -> None:
        """Delete a group and scrub it from containing groups."""
        if group not in self.groups:
            raise UnknownPrincipal(group)
        state = self._new_version()
        del state.groups[group]
        for members in state.groups.values():
            members.discard(group)

    def add_member(self, group: str, member: str) -> None:
        """Add a user or group to a group."""
        if group not in self.groups:
            raise UnknownPrincipal(group)
        if member not in self.users and member not in self.groups:
            raise UnknownPrincipal(member)
        self._new_version().groups[group].add(member)

    def remove_member(self, group: str, member: str) -> None:
        """Remove a direct member from a group."""
        if group not in self.groups:
            raise UnknownPrincipal(group)
        self._new_version().groups[group].discard(member)

    def is_user(self, name: str) -> bool:
        """True if ``name`` names a registered user."""
        return name in self._state.users

    def user_key(self, username: str) -> bytes:
        """The user's long-term authentication key (for the handshake)."""
        try:
            return self._state.user_keys[username]
        except KeyError:
            raise UnknownPrincipal(username)

    # -- CPS -----------------------------------------------------------------

    def cps(self, username: str) -> FrozenSet[str]:
        """The Current Protection Subdomain of a user.

        The user, every group reachable by following membership edges
        upward (direct or indirect), and the implicit ``system:anyuser``.
        """
        if username not in self._state.users:
            raise UnknownPrincipal(username)
        cached = self._cps_cache.get(username)
        if cached is not None:
            self.cps_hits += 1
            return cached
        self.cps_misses += 1
        parents = self._state.parents()
        reachable: Set[str] = {username, self.SYSTEM_ANYUSER}
        frontier: List[str] = [username]
        while frontier:
            for group in parents.get(frontier.pop(), ()):
                if group not in reachable:
                    reachable.add(group)
                    frontier.append(group)
        result = frozenset(reachable)
        self._cps_cache[username] = result
        return result

    def rights_on(self, acl: AccessList, username: str) -> FrozenSet[str]:
        """Effective rights of ``username`` on an object guarded by ``acl``."""
        return acl.effective_rights(self.cps(username))

    # -- replication support --------------------------------------------------

    def snapshot(self) -> Shared:
        """Full copy for replica synchronisation: the marshal-friendly
        record, carrying this version's state for an in-process receiver
        to adopt by reference (from now on this replica copies before it
        writes)."""
        state = self._state
        self._shared = True
        return Shared(state, {
            "users": sorted(state.users),
            "groups": {g: sorted(m) for g, m in state.groups.items()},
            "user_keys": dict(state.user_keys),
            "version": state.version,
        })

    def load_snapshot(self, snapshot: Dict) -> None:
        """Replace local state with a replica snapshot: the carried state,
        shared, or — for a snapshot decoded from bytes — a private one
        rebuilt from the record."""
        if isinstance(snapshot, Shared):
            self._state, self._shared = snapshot.state, True
        else:
            self._state = ProtectionState(
                set(snapshot["users"]),
                {g: set(m) for g, m in snapshot["groups"].items()},
                dict(snapshot["user_keys"]),
                snapshot["version"],
            )
            self._shared = False
        # The snapshot may carry the same version number as the state it
        # replaces (replica catch-up), so invalidate explicitly.
        self._cps_cache.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ProtectionDatabase users={len(self.users)} groups={len(self.groups)} v{self.version}>"
