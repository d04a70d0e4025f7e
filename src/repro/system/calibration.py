"""Calibration: how the cost constants were fitted to the paper.

The reproduction substitutes a discrete-event simulator for the authors'
campus of Suns, Vaxes and a 10 Mb/s Ethernet, so absolute constants must be
*chosen*.  They are not free parameters, though: the paper pins several
absolute and relative anchors, and the defaults in
:class:`~repro.rpc.costs.RpcCosts`, :class:`~repro.vice.costs.ViceCosts`
and :class:`~repro.venus.venus.VenusCosts` were fitted to them:

========================================  =======================================
paper anchor (§5.2)                        fitted against
========================================  =======================================
local 5-phase benchmark ≈ 1000 s           workstation CPU speed 1.0, compile
                                           cost per byte in the Andrew workload
remote cold benchmark ≈ +80 %              fetch path: RPC + crypto + server CPU
                                           + disk + 10 Mb/s wire for ~70 files
server CPU ~40 %, disk ~14 % (busiest)     per-call CPU ≫ per-call disk; the
                                           validate-heavy mix is CPU-bound
call mix 65/27/4/2                         produced by the synthetic workload's
                                           open/stat/miss/write ratios, not by
                                           the cost model (costs affect *time*,
                                           the mix is a count)
~20 workstations/server comfortable        server speed 2.0 with the above
========================================  =======================================

Era hardware the defaults model:

* workstation ≈ 1-MIPS class (Sun-2); cluster server ≈ 2× that;
* disk ≈ 24 ms average seek + 8.3 ms rotation + 1 MB/s transfer;
* Ethernet 10 Mb/s, 1460-byte MTU, 64 B header per frame;
* DES in software ≈ 75 KB/s ("too slow to be viable"), DES chip ≈ 4 MB/s.
"""

from __future__ import annotations

__all__ = [
    "ANDREW_LOCAL_TARGET_SECONDS",
    "ANDREW_REMOTE_PENALTY_TARGET",
    "CALL_MIX_TARGET",
    "HIT_RATIO_TARGET",
    "SERVER_CPU_TARGET",
    "SERVER_DISK_TARGET",
]

# The paper's quantitative anchors (EXPERIMENTS.md checks against these).
ANDREW_LOCAL_TARGET_SECONDS = 1000.0
ANDREW_REMOTE_PENALTY_TARGET = 0.80  # "about 80% longer"
HIT_RATIO_TARGET = 0.80  # "average cache hit ratio of over 80%"
SERVER_CPU_TARGET = 0.40  # "nearly 40% on the most heavily loaded servers"
SERVER_DISK_TARGET = 0.14  # "averaging about 14%"
CALL_MIX_TARGET = {"validate": 0.65, "status": 0.27, "fetch": 0.04, "store": 0.02}

