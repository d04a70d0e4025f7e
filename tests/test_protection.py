"""Unit tests for the protection domain: groups, CPS, ACLs, negative rights."""

import pytest

from repro.errors import UnknownPrincipal
from repro.vice.protection import AccessList, ProtectionDatabase, Rights


@pytest.fixture
def db():
    database = ProtectionDatabase()
    database.add_user("satya")
    database.add_user("howard")
    database.add_user("mallory")
    return database


class TestRights:
    def test_parse_valid(self):
        assert Rights.parse("rl") == frozenset("rl")
        assert Rights.parse("rwidlak") == Rights.ALL

    def test_parse_invalid_letter(self):
        with pytest.raises(ValueError):
            Rights.parse("rx")

    def test_parse_empty(self):
        assert Rights.parse("") == frozenset()


class TestGroupsAndCPS:
    def test_cps_includes_self_and_anyuser(self, db):
        assert db.cps("satya") == frozenset({"satya", "system:anyuser"})

    def test_direct_membership(self, db):
        db.add_group("faculty")
        db.add_member("faculty", "satya")
        assert "faculty" in db.cps("satya")
        assert "faculty" not in db.cps("howard")

    def test_recursive_membership(self, db):
        db.add_group("itc")
        db.add_group("cmu")
        db.add_member("itc", "satya")
        db.add_member("cmu", "itc")  # group inside group, Grapevine-style
        cps = db.cps("satya")
        assert "itc" in cps
        assert "cmu" in cps

    def test_deep_nesting(self, db):
        previous = None
        for level in range(10):
            group = f"g{level}"
            db.add_group(group)
            if previous is None:
                db.add_member(group, "satya")
            else:
                db.add_member(group, previous)
            previous = group
        assert "g9" in db.cps("satya")

    def test_membership_cycle_terminates(self, db):
        db.add_group("a")
        db.add_group("b")
        db.add_member("a", "b")
        db.add_member("b", "a")
        db.add_member("a", "satya")
        cps = db.cps("satya")
        assert {"a", "b"} <= cps

    def test_cps_of_unknown_user(self, db):
        with pytest.raises(UnknownPrincipal):
            db.cps("nobody")

    def test_add_member_requires_existing_principals(self, db):
        db.add_group("g")
        with pytest.raises(UnknownPrincipal):
            db.add_member("g", "ghost")
        with pytest.raises(UnknownPrincipal):
            db.add_member("ghost-group", "satya")

    def test_remove_member(self, db):
        db.add_group("g")
        db.add_member("g", "satya")
        db.remove_member("g", "satya")
        assert "g" not in db.cps("satya")

    def test_remove_user_scrubs_groups(self, db):
        db.add_group("g")
        db.add_member("g", "mallory")
        db.remove_user("mallory")
        assert "mallory" not in db.groups["g"]
        with pytest.raises(UnknownPrincipal):
            db.cps("mallory")

    def test_remove_group_scrubs_containers(self, db):
        db.add_group("inner")
        db.add_group("outer")
        db.add_member("outer", "inner")
        db.remove_group("inner")
        assert "inner" not in db.groups["outer"]

    def test_version_increments_on_mutation(self, db):
        before = db.version
        db.add_group("g")
        assert db.version == before + 1

    def test_user_keys(self, db):
        db.add_user("keyed", b"k" * 32)
        assert db.user_key("keyed") == b"k" * 32
        with pytest.raises(UnknownPrincipal):
            db.user_key("satya-no-key" )


class TestAccessLists:
    def test_union_over_cps(self, db):
        db.add_group("readers")
        db.add_group("writers")
        db.add_member("readers", "satya")
        db.add_member("writers", "satya")
        acl = AccessList()
        acl.grant("readers", "rl")
        acl.grant("writers", "wi")
        assert db.rights_on(acl, "satya") == frozenset("rlwi")

    def test_anyuser_applies_to_everyone(self, db):
        acl = AccessList()
        acl.grant("system:anyuser", "rl")
        assert db.rights_on(acl, "mallory") == frozenset("rl")

    def test_negative_rights_subtract(self, db):
        acl = AccessList()
        acl.grant("system:anyuser", "rl")
        acl.deny("mallory", "r")
        assert db.rights_on(acl, "mallory") == frozenset("l")
        assert db.rights_on(acl, "satya") == frozenset("rl")

    def test_negative_rights_beat_group_grants(self, db):
        """Rapid revocation: a negative entry wins even while the slow
        group-membership removal has not propagated."""
        db.add_group("project")
        db.add_member("project", "mallory")
        acl = AccessList()
        acl.grant("project", "rwidlak")
        acl.deny("mallory", "rwidlak")
        assert db.rights_on(acl, "mallory") == frozenset()

    def test_negative_right_on_group(self, db):
        db.add_group("suspended")
        db.add_member("suspended", "mallory")
        acl = AccessList()
        acl.grant("system:anyuser", "rl")
        acl.deny("suspended", "rl")
        assert db.rights_on(acl, "mallory") == frozenset()

    def test_grant_accumulates(self):
        acl = AccessList()
        acl.grant("u", "r")
        acl.grant("u", "l")
        assert acl.positive["u"] == frozenset("rl")

    def test_as_dict_roundtrip(self):
        acl = AccessList()
        acl.grant("a", "rl")
        acl.grant("b", "rwidlak")
        acl.deny("c", "w")
        restored = AccessList.from_dict(acl.as_dict())
        assert restored.positive == acl.positive
        assert restored.negative == acl.negative


class TestSharedRightsSets:
    """Every rights set is one shared frozenset per distinct value."""

    def test_two_acls_hold_the_same_set(self):
        first, second = AccessList(), AccessList()
        first.grant("a", "rl")
        second.grant("b", "lr")
        assert first.positive["a"] is second.positive["b"] is Rights.parse("rl")

    def test_accumulated_grant_is_canonical(self):
        acl = AccessList()
        acl.grant("u", "r")
        acl.grant("u", "l")
        assert acl.positive["u"] is Rights.READ_ONLY

    def test_effective_rights_are_canonical(self, db):
        acl = AccessList()
        acl.grant("system:anyuser", "r")
        acl.grant("satya", "l")
        assert db.rights_on(acl, "satya") is Rights.READ_ONLY

    def test_a_negative_entry_still_revokes(self, db):
        acl = AccessList()
        acl.grant("system:anyuser", "rliw")
        acl.deny("mallory", "w")
        acl.deny("mallory", "i")
        assert acl.negative["mallory"] is Rights.parse("iw")
        assert db.rights_on(acl, "mallory") is Rights.parse("rl")
        assert db.rights_on(acl, "satya") == frozenset("rliw")


class TestSnapshot:
    def test_snapshot_roundtrip(self, db):
        db.add_group("g")
        db.add_member("g", "satya")
        db.add_user("keyed", b"\x01" * 32)
        replica = ProtectionDatabase()
        replica.load_snapshot(db.snapshot())
        assert replica.cps("satya") == db.cps("satya")
        assert replica.user_key("keyed") == b"\x01" * 32
        assert replica.version == db.version


class TestCPSCache:
    """The memoized CPS/rights must track every protection-DB mutation."""

    def test_cps_memoized_and_counted(self, db):
        first = db.cps("satya")
        assert db.cps("satya") == first
        assert db.cps_misses == 1
        assert db.cps_hits == 1

    def test_add_member_invalidates_cps(self, db):
        db.add_group("project")
        assert "project" not in db.cps("satya")
        db.add_member("project", "satya")
        assert "project" in db.cps("satya")

    def test_remove_member_invalidates_cps(self, db):
        db.add_group("project")
        db.add_member("project", "satya")
        assert "project" in db.cps("satya")
        db.remove_member("project", "satya")
        assert "project" not in db.cps("satya")

    def test_remove_group_invalidates_cps(self, db):
        db.add_group("outer")
        db.add_group("inner")
        db.add_member("inner", "satya")
        db.add_member("outer", "inner")
        assert db.cps("satya") >= {"inner", "outer"}
        db.remove_group("outer")
        cps = db.cps("satya")
        assert "inner" in cps and "outer" not in cps

    def test_load_snapshot_invalidates_cps(self, db):
        # Same version number on both sides: a replica that pinned its
        # cache to the version alone would serve the stale CPS.
        other = ProtectionDatabase()
        other.add_user("satya")
        other.add_group("elsewhere")
        other.add_member("elsewhere", "satya")
        while db.version < other.version:
            db.add_user(f"filler{db.version}")
        assert db.version == other.version
        assert "elsewhere" not in db.cps("satya")
        db.load_snapshot(other.snapshot())
        assert "elsewhere" in db.cps("satya")

    def test_negative_rights_correct_after_membership_change(self, db):
        db.add_group("suspended")
        acl = AccessList()
        acl.grant("system:anyuser", "rl")
        acl.deny("suspended", "rl")
        assert db.rights_on(acl, "mallory") == frozenset("rl")
        db.add_member("suspended", "mallory")  # revocation takes effect
        assert db.rights_on(acl, "mallory") == frozenset()
        db.remove_member("suspended", "mallory")
        assert db.rights_on(acl, "mallory") == frozenset("rl")

    def test_rights_cache_invalidated_by_acl_mutation(self, db):
        acl = AccessList()
        acl.grant("satya", "rl")
        assert db.rights_on(acl, "satya") == frozenset("rl")
        acl.grant("satya", "w")
        assert db.rights_on(acl, "satya") == frozenset("rlw")
        acl.deny("satya", "r")
        assert db.rights_on(acl, "satya") == frozenset("lw")

    def test_copied_acl_does_not_share_rights_cache(self, db):
        acl = AccessList()
        acl.grant("satya", "rl")
        assert db.rights_on(acl, "satya") == frozenset("rl")
        clone = AccessList.from_dict(acl.as_dict())
        clone.deny("satya", "r")
        assert db.rights_on(clone, "satya") == frozenset("l")
        assert db.rights_on(acl, "satya") == frozenset("rl")
