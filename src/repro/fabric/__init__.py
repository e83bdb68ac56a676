"""Rack fabric substrate: nodes, switches, topologies, routing and assembly.

A rack-scale system in the paper's sense is a dense collection of
disaggregated sleds (compute, NVMe storage, DRAM, accelerators) joined by a
direct-connect fabric in which every sled's NIC also forwards transit
traffic through an embedded cut-through switching element.  This package
provides those building blocks, the topology builders (grid, torus, ring,
mesh, fat-tree, dragonfly, hypercube) the experiments reconfigure between,
and the topology-family registry (:mod:`repro.fabric.topologies`) that
scenarios and the CLI resolve fabrics through by name.
"""

from repro.fabric.fabric import Fabric, FabricConfig
from repro.fabric.failures import (
    FailureEvent,
    FailureInjector,
    FailureKind,
    random_failure_plan,
)
from repro.fabric.node import Node, NodeType
from repro.fabric.packetsim import PacketBackend, PacketLevelNetwork, PortState
from repro.fabric.routing import (
    NodeNotFoundError,
    NoPathError,
    Router,
    RoutingPolicy,
    ecmp_paths,
    k_shortest_paths,
    shortest_path,
)
from repro.fabric.switch import CutThroughSwitch, StoreAndForwardSwitch, SwitchModel
from repro.fabric.topologies import (
    TopologyError,
    TopologyFamily,
    TopologyMetadata,
    build_topology_fabric,
    get_topology,
    register_topology,
    topology_catalog,
    topology_metadata,
    topology_names,
)
from repro.fabric.topology import Topology, TopologyBuilder

__all__ = [
    "Fabric",
    "FabricConfig",
    "FailureEvent",
    "FailureInjector",
    "FailureKind",
    "random_failure_plan",
    "Node",
    "NodeType",
    "PacketBackend",
    "PacketLevelNetwork",
    "PortState",
    "NodeNotFoundError",
    "NoPathError",
    "Router",
    "RoutingPolicy",
    "ecmp_paths",
    "k_shortest_paths",
    "shortest_path",
    "CutThroughSwitch",
    "StoreAndForwardSwitch",
    "SwitchModel",
    "Topology",
    "TopologyBuilder",
    "TopologyError",
    "TopologyFamily",
    "TopologyMetadata",
    "build_topology_fabric",
    "get_topology",
    "register_topology",
    "topology_catalog",
    "topology_metadata",
    "topology_names",
]
