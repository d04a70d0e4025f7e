"""Vice: the trusted campus core — servers, volumes, protection, location."""

from repro.vice.clients import ClientState
from repro.vice.costs import ViceCosts
from repro.vice.ids import make_fid, split_fid
from repro.vice.location import LocationDatabase, LocationEntry
from repro.vice.protection import AccessList, ProtectionDatabase, Rights
from repro.vice.protserver import ADMIN_GROUP, ProtectionServer, manual_update
from repro.vice.server import ViceServer
from repro.vice.volume import Volume

__all__ = [
    "ADMIN_GROUP",
    "AccessList",
    "ClientState",
    "LocationDatabase",
    "LocationEntry",
    "ProtectionDatabase",
    "ProtectionServer",
    "Rights",
    "ViceCosts",
    "ViceServer",
    "Volume",
    "make_fid",
    "manual_update",
    "split_fid",
]
