"""Integration: the protection server (§3.4, §3.5.2) and replication."""

import pytest

from repro.errors import PermissionDenied, UnknownPrincipal
from repro.crypto import derive_user_key
from repro.vice.protserver import manual_update
from tests.helpers import prot_call, protserver_campus, run, small_campus

HOME = "/vice/usr/alice"


class TestProtectionServer:
    def test_add_user_replicates_everywhere(self):
        campus = protserver_campus()
        key = derive_user_key("newbie", "pw")
        prot_call(campus, 0, "alice", "alice-pw", "ProtAddUser",
                  {"username": "newbie", "key": key})
        for server in campus.servers:
            assert server.protection.is_user("newbie")
            assert server.protection.user_key("newbie") == key

    def test_new_user_can_immediately_authenticate_anywhere(self):
        campus = protserver_campus()
        campus.create_volume("/usr/newbie", custodian=1, volume_id="u-newbie", owner="newbie")
        prot_call(campus, 0, "alice", "alice-pw", "ProtAddUser",
                  {"username": "newbie", "key": derive_user_key("newbie", "pw")})
        session = campus.login("ws1-0", "newbie", "pw")
        run(campus, session.write_file("/vice/usr/newbie/hello", b"hi"))

    def test_group_membership_via_protocol(self):
        campus = protserver_campus()
        prot_call(campus, 0, "alice", "alice-pw", "ProtAddUser",
                  {"username": "bob", "key": derive_user_key("bob", "bob-pw")})
        prot_call(campus, 0, "alice", "alice-pw", "ProtAddGroup", {"group": "team"})
        prot_call(campus, 0, "alice", "alice-pw", "ProtAddMember",
                  {"group": "team", "member": "bob"})
        for server in campus.servers:
            assert "team" in server.protection.cps("bob")

    def test_remove_member_propagates(self):
        campus = protserver_campus()
        prot_call(campus, 0, "alice", "alice-pw", "ProtAddGroup", {"group": "g"})
        prot_call(campus, 0, "alice", "alice-pw", "ProtAddMember",
                  {"group": "g", "member": "alice"})
        prot_call(campus, 0, "alice", "alice-pw", "ProtRemoveMember",
                  {"group": "g", "member": "alice"})
        for server in campus.servers:
            assert "g" not in server.protection.cps("alice")

    def test_non_admin_rejected(self):
        campus = protserver_campus()
        campus.add_user("pleb", "pw")
        with pytest.raises(PermissionDenied):
            prot_call(campus, 1, "pleb", "pw", "ProtAddGroup", {"group": "sneaky"})

    def test_remove_user_revokes_authentication(self):
        campus = protserver_campus()
        campus.add_user("doomed", "pw")
        prot_call(campus, 0, "alice", "alice-pw", "ProtRemoveUser", {"username": "doomed"})
        from repro.errors import AuthenticationFailure

        session = campus.login("ws1-0", "doomed", "pw")
        with pytest.raises(AuthenticationFailure):
            run(campus, session.listdir("/vice/usr"))

    def test_unknown_member_surfaces_error(self):
        campus = protserver_campus()
        prot_call(campus, 0, "alice", "alice-pw", "ProtAddGroup", {"group": "g"})
        with pytest.raises(UnknownPrincipal):
            prot_call(campus, 0, "alice", "alice-pw", "ProtAddMember",
                      {"group": "g", "member": "ghost"})


class TestManualUpdate:
    def test_prototype_operations_staff_path(self):
        """§3.5.2: the prototype had no protection server — operations
        staff edited every replica by hand."""
        campus = small_campus(mode="prototype", clusters=2, workstations_per_cluster=1)
        manual_update(
            campus.servers,
            lambda db: db.add_user("manual", derive_user_key("manual", "pw")),
        )
        for server in campus.servers:
            assert server.protection.is_user("manual")
