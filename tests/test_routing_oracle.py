"""Differential test: the owned routing graph against networkx as an oracle.

``repro.fabric.routing`` ports networkx 3.6.1's Dijkstra and Yen searches
onto ``Topology``'s own adjacency, and ``Topology`` answers its hop-count
queries by BFS.  Golden rows and fidelity gates depend on the exact paths,
so equal-cost ties must break exactly as networkx breaks them.  This file
rebuilds the weighted ``nx.Graph`` the fabric used to route over (node
insertion order, then one weighted edge per link in link order) and
asserts identical answers:

* every registered topology family at small dimensions, plus a ring and a
  hypercube from ``TopologyBuilder``;
* every weight function: hops, latency, inverse capacity and the CRC's
  price tags under uneven utilisation;
* pristine fabrics, fabrics with links removed and re-added (the edge
  moves to the end of both neighbour lists), and fabrics with a dark link
  (priced ``inf``, which must still be relaxed).

networkx is a test-only dependency; the runtime must not import it.
"""

import itertools
import os
import random
import subprocess
import sys
from pathlib import Path

import networkx as nx
import pytest

from repro.core.cost import LinkPriceTagger
from repro.fabric.routing import (
    NodeNotFoundError,
    NoPathError,
    ecmp_paths,
    hop_weight,
    inverse_capacity_weight,
    k_shortest_paths,
    latency_weight,
    shortest_path,
)
from repro.fabric.topologies import build_topology_fabric, topology_names
from repro.fabric.topology import TopologyBuilder

#: Small dimensions for every registered family (a new family must add one).
SMALL_DIMENSIONS = {
    "grid": {"rows": 3, "columns": 4},
    "torus": {"rows": 3, "columns": 4},
    "fat-tree": {"pods": 4},
    "dragonfly": {"groups": 3, "routers_per_group": 2, "hosts_per_router": 2},
}

TOPOLOGIES = sorted(SMALL_DIMENSIONS) + ["ring", "hypercube"]
MUTATIONS = ["pristine", "readded", "dark"]
WEIGHTS = ["hop", "latency", "inverse_capacity", "price"]
PAIRS_PER_CASE = 10
K = 4


def build(name):
    if name == "ring":
        return TopologyBuilder(lanes_per_link=2).ring(7)
    if name == "hypercube":
        return TopologyBuilder(lanes_per_link=2).hypercube(3)
    return build_topology_fabric(name, SMALL_DIMENSIONS[name], lanes_per_link=2).topology


def interior_links(topology):
    """Links whose endpoints both have another link (cutting one leaves no
    node with only dark or removed links)."""
    return [
        link
        for link in topology.links()
        if all(topology.degree(end) > 1 for end in link.endpoints)
    ]


def mutate(topology, mutation):
    links = interior_links(topology)
    if mutation == "readded":
        for link in (links[0], links[len(links) // 2]):
            topology.remove_link(*link.endpoints)
            topology.add_link(link)
    elif mutation == "dark":
        links[len(links) // 3].disable()
    return topology


def weight_function(name, topology):
    if name == "hop":
        return hop_weight
    if name == "latency":
        return latency_weight
    if name == "inverse_capacity":
        return inverse_capacity_weight
    rng = random.Random(topology.name)
    utilisation = {key: rng.uniform(0.0, 0.95) for key in topology.link_keys()}
    return LinkPriceTagger().weight_fn(utilisation)


def oracle_graph(topology, weight_fn):
    """The weighted ``nx.Graph`` routing used to rebuild on every call."""
    graph = nx.Graph()
    graph.add_nodes_from(topology.node_names())
    for key, link in zip(topology.link_keys(), topology.links()):
        graph.add_edge(*key, weight=weight_fn(link))
    return graph


def oracle_ecmp(graph, src, dst):
    best_cost = nx.shortest_path_length(graph, src, dst, weight="weight")
    paths = []
    for path in nx.shortest_simple_paths(graph, src, dst, weight="weight"):
        cost = sum(graph.edges[path[i], path[i + 1]]["weight"] for i in range(len(path) - 1))
        if cost > best_cost + 1e-12:
            break
        paths.append(path)
    return paths


def sampled_pairs(topology):
    names = topology.node_names()
    rng = random.Random(f"pairs-{topology.name}")
    pairs = [tuple(rng.sample(names, 2)) for _ in range(PAIRS_PER_CASE)]
    return pairs + [(names[0], names[0])]


def test_every_registered_family_is_covered():
    assert set(topology_names()) <= set(SMALL_DIMENSIONS)


@pytest.mark.parametrize("mutation", MUTATIONS)
@pytest.mark.parametrize("weight", WEIGHTS)
@pytest.mark.parametrize("name", TOPOLOGIES)
def test_paths_match_networkx(name, weight, mutation):
    topology = mutate(build(name), mutation)
    weight_fn = weight_function(weight, topology)
    graph = oracle_graph(topology, weight_fn)
    for src, dst in sampled_pairs(topology):
        assert shortest_path(topology, src, dst, weight_fn) == nx.shortest_path(
            graph, src, dst, weight="weight"
        ), (src, dst)
        expected = list(
            itertools.islice(nx.shortest_simple_paths(graph, src, dst, weight="weight"), K)
        )
        assert k_shortest_paths(topology, src, dst, K, weight_fn) == expected, (src, dst)
        assert ecmp_paths(topology, src, dst, weight_fn) == oracle_ecmp(graph, src, dst), (
            src,
            dst,
        )


@pytest.mark.parametrize("mutation", MUTATIONS)
@pytest.mark.parametrize("name", TOPOLOGIES)
def test_hop_metrics_match_networkx(name, mutation):
    topology = mutate(build(name), mutation)
    graph = oracle_graph(topology, hop_weight)
    assert topology.is_connected() == nx.is_connected(graph)
    assert topology.diameter() == nx.diameter(graph)
    average = topology.average_shortest_path_hops()
    assert average == nx.average_shortest_path_length(graph)
    assert type(average) is type(nx.average_shortest_path_length(graph))
    for node in topology.node_names():
        assert topology.neighbors(node) == list(graph.neighbors(node))
        assert topology.degree(node) == graph.degree(node)


def test_all_paths_dark_still_routes_like_networkx():
    # Every route between the ends of a line crosses the dark link, so
    # every candidate costs inf; networkx still relaxes inf weights.
    topology = TopologyBuilder(lanes_per_link=1).line(5)
    topology.link_between("n1", "n2").disable()
    for weight_fn in (inverse_capacity_weight, LinkPriceTagger().weight_fn()):
        graph = oracle_graph(topology, weight_fn)
        assert shortest_path(topology, "n0", "n4", weight_fn) == nx.shortest_path(
            graph, "n0", "n4", weight="weight"
        )
        assert k_shortest_paths(topology, "n0", "n4", K, weight_fn) == list(
            nx.shortest_simple_paths(graph, "n0", "n4", weight="weight")
        )
        assert ecmp_paths(topology, "n0", "n4", weight_fn) == oracle_ecmp(graph, "n0", "n4")


def test_disconnected_pair_raises_no_path_error():
    topology = TopologyBuilder(lanes_per_link=1).line(4)
    topology.remove_link("n1", "n2")
    graph = oracle_graph(topology, hop_weight)
    with pytest.raises(nx.NetworkXNoPath):
        nx.shortest_path(graph, "n0", "n3", weight="weight")
    for route in (shortest_path, ecmp_paths):
        with pytest.raises(NoPathError):
            route(topology, "n0", "n3")
    with pytest.raises(NoPathError):
        k_shortest_paths(topology, "n0", "n3", K)
    assert not topology.is_connected()
    with pytest.raises(NoPathError):
        topology.diameter()
    with pytest.raises(NoPathError):
        topology.average_shortest_path_hops()


def test_missing_node_raises_typed_error_naming_it():
    topology = TopologyBuilder(lanes_per_link=1).line(3)
    for call in (
        lambda: shortest_path(topology, "n0", "ghost"),
        lambda: k_shortest_paths(topology, "ghost", "n0", K),
        lambda: ecmp_paths(topology, "n0", "ghost"),
        lambda: topology.neighbors("ghost"),
        lambda: topology.degree("ghost"),
    ):
        with pytest.raises(NodeNotFoundError, match="ghost") as info:
            call()
        assert info.value.node == "ghost"


def test_adjacency_order_follows_networkx_under_mutation():
    topology = TopologyBuilder(lanes_per_link=1).grid(2, 2)
    graph = oracle_graph(topology, hop_weight)
    link = topology.remove_link("n0x0", "n0x1")
    graph.remove_edge("n0x0", "n0x1")
    topology.add_link(link)
    graph.add_edge("n0x0", "n0x1")
    topology.add_node(topology.node("n0x0"))  # re-adding a node changes nothing
    graph.add_node("n0x0")
    for node in topology.node_names():
        assert topology.neighbors(node) == list(graph.neighbors(node))


def test_runtime_does_not_import_networkx():
    script = (
        "import sys\n"
        "from repro.experiments.scenarios import run_scenario\n"
        "run_scenario('uniform-burst', {'rows': 2, 'columns': 2, 'num_flows': 4})\n"
        "assert 'networkx' not in sys.modules, 'networkx imported at runtime'\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    subprocess.run([sys.executable, "-c", script], check=True, env=env)
