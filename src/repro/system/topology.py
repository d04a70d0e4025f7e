"""Topology builders: the Fig. 2-2 campus out of substrate parts.

"Vice is composed of a collection of semi-autonomous Clusters connected
together by a backbone LAN... Each cluster consists of a collection of
Virtue workstations and a representative of Vice called a Cluster Server."

These builders create exactly that shape: one segment per cluster, a
backbone segment, one bridge per cluster, one :class:`ViceServer` per
cluster, and the configured number of workstations per cluster whose home
(cluster) server is their own cluster's.
"""

from __future__ import annotations

from typing import List

from repro.net.topology import Network
from repro.hosts import Host
from repro.sim.kernel import Simulator
from repro.system.config import SystemConfig
from repro.vice.server import ViceServer
from repro.virtue.workstation import Workstation

__all__ = ["build_network", "build_servers", "build_workstations", "cluster_segment", "server_name"]

# Cluster servers were bigger machines than the 1-unit workstations (see
# repro.system.calibration: ~20 workstations per server at this speed).
SERVER_CPU_SPEED = 2.0


def cluster_segment(index: int) -> str:
    """Canonical segment name for a cluster."""
    return f"cluster{index}"


def server_name(index: int) -> str:
    """Canonical name of a cluster's server."""
    return f"server{index}"


def workstation_name(cluster: int, index: int) -> str:
    """Canonical name of a workstation within a cluster."""
    return f"ws{cluster}-{index}"


def build_network(sim: Simulator, config: SystemConfig) -> Network:
    """Backbone plus one bridged segment per cluster."""
    network = Network(sim)
    network.add_segment("backbone")
    for cluster in range(config.clusters):
        name = cluster_segment(cluster)
        network.add_segment(name)
        network.add_bridge(f"bridge{cluster}", name, "backbone")
    return network


def build_servers(
    sim: Simulator, network: Network, config: SystemConfig, service_key: bytes
) -> List[ViceServer]:
    """One cluster server per cluster (``ITCSystem`` wires who holds which
    replicated database)."""
    servers: List[ViceServer] = []
    for cluster in range(config.clusters):
        host = Host(
            sim,
            network,
            server_name(cluster),
            cluster_segment(cluster),
            cpu_speed=SERVER_CPU_SPEED,
        )
        servers.append(ViceServer(host, config, service_key))
    return servers


def build_workstations(
    sim: Simulator, network: Network, config: SystemConfig
) -> List[Workstation]:
    """The configured workstations, homed on their cluster's server."""
    workstations: List[Workstation] = []
    for cluster in range(config.clusters):
        for index in range(config.workstations_per_cluster):
            workstations.append(Workstation(
                sim,
                network,
                workstation_name(cluster, index),
                cluster_segment(cluster),
                server_name(cluster),
                config,
            ))
    return workstations
