"""Routing over the rack fabric.

The Closed Ring Control treats routing as one of the knobs it turns: every
link carries a *price tag* (see :mod:`repro.core.cost`) and routes are
shortest paths under that price.  This module provides the path computation
primitives -- single shortest path, k-shortest paths, and ECMP path sets --
plus a :class:`Router` that caches paths per topology version and is
invalidated whenever the CRC reconfigures the fabric.

The searches walk the topology's live adjacency
(:meth:`~repro.fabric.topology.Topology.adjacency`) and evaluate the weight
function lazily, once per edge relaxation; nothing copies the graph.  They
are line-for-line ports of NetworkX 3.6.1 (``bidirectional_dijkstra``,
``shortest_simple_paths`` with its private bidirectional Dijkstra and
``PathBuffer``, and the single-source Dijkstra behind
``shortest_path_length``), down to the ``(distance, counter, node)`` heap
entries, so equal-cost ties break exactly as they did when the fabric was
a NetworkX ``Graph``: by neighbour insertion order.  As in NetworkX, a
``None`` weight hides an edge, while an ``inf`` weight (a dark link's
price) is still relaxed.  ``tests/test_routing_oracle.py`` checks the ports
against NetworkX itself.
"""

from __future__ import annotations

import enum
import itertools
from heapq import heappop, heappush
from typing import Callable, Dict, Iterator, List, Mapping, Optional, Sequence, Set, Tuple

from repro.fabric.topology import NodeNotFoundError, NoPathError, Topology
from repro.phy.link import Link

PathType = List[str]
WeightFn = Callable[[Link], float]
Adjacency = Mapping[str, Mapping[str, Link]]


class RoutingPolicy(enum.Enum):
    """How the router picks among equal-cost candidates."""

    SHORTEST = "shortest"
    ECMP = "ecmp"
    K_SHORTEST = "k-shortest"


def hop_weight(_: Link) -> float:
    """Weight function that counts hops (every link costs 1)."""
    return 1.0


def latency_weight(link: Link) -> float:
    """Weight function using the link's fixed one-way latency."""
    return link.one_way_latency


def inverse_capacity_weight(link: Link) -> float:
    """Weight function preferring fat links (cost = 1 / capacity)."""
    capacity = link.capacity_bps
    if capacity <= 0:
        return float("inf")
    return 1.0 / capacity


def _require_nodes(topology: Topology, *names: str) -> Adjacency:
    """The live adjacency, after checking every name is one of its nodes."""
    adj = topology.adjacency()
    for name in names:
        if name not in adj:
            raise NodeNotFoundError(name, topology.name)
    return adj


def _path_cost(adj: Adjacency, path: Sequence[str], weight_fn: WeightFn) -> float:
    return sum(weight_fn(adj[u][v]) for u, v in zip(path, path[1:]))


def shortest_path(
    topology: Topology,
    src: str,
    dst: str,
    weight_fn: WeightFn = hop_weight,
) -> PathType:
    """Single shortest path from *src* to *dst* as a list of node names.

    Raises :class:`NoPathError` when the nodes are disconnected, which
    callers treat as "the CRC must repair the topology first", and
    :class:`NodeNotFoundError` for a name the topology lacks.
    """
    adj = _require_nodes(topology, src, dst)
    if src == dst:
        return [src]
    return _bidirectional_dijkstra(adj, src, dst, weight_fn)


def _bidirectional_dijkstra(
    adj: Adjacency, source: str, target: str, weight_fn: WeightFn
) -> PathType:
    """Port of NetworkX ``bidirectional_dijkstra`` for distinct nodes."""
    dists: List[Dict[str, float]] = [{}, {}]
    preds: List[Dict[str, Optional[str]]] = [{source: None}, {target: None}]

    def path(curr: Optional[str], direction: int) -> PathType:
        ret = []
        while curr is not None:
            ret.append(curr)
            curr = preds[direction][curr]
        return list(reversed(ret)) if direction == 0 else ret

    fringe: List[list] = [[], []]
    seen: List[Dict[str, float]] = [{source: 0}, {target: 0}]
    c = itertools.count()
    heappush(fringe[0], (0, next(c), source))
    heappush(fringe[1], (0, next(c), target))
    finaldist = None
    meetnode = None
    direction = 1
    while fringe[0] and fringe[1]:
        direction = 1 - direction
        dist, _, v = heappop(fringe[direction])
        done = dists[direction]
        if v in done:
            continue
        done[v] = dist
        if v in dists[1 - direction]:
            return path(meetnode, 0) + path(preds[1][meetnode], 1)
        seen_here = seen[direction]
        seen_there = seen[1 - direction]
        for w, link in adj[v].items():
            cost = weight_fn(link)
            if cost is None:
                continue
            vw_length = dist + cost
            if w in done:
                if vw_length < done[w]:
                    raise ValueError("Contradictory paths found: negative weights?")
            elif w not in seen_here or vw_length < seen_here[w]:
                seen_here[w] = vw_length
                heappush(fringe[direction], (vw_length, next(c), w))
                preds[direction][w] = v
                if w in seen_there:
                    finaldist_w = vw_length + seen_there[w]
                    if finaldist is None or finaldist > finaldist_w:
                        finaldist, meetnode = finaldist_w, w
    raise NoPathError(f"no path between {source!r} and {target!r}")


def _dijkstra_length(adj: Adjacency, source: str, target: str, weight_fn: WeightFn) -> float:
    """Port of NetworkX ``dijkstra_path_length`` (single-source Dijkstra)."""
    if source == target:
        return 0
    dist: Dict[str, float] = {}
    seen: Dict[str, float] = {source: 0}
    c = itertools.count()
    fringe = [(0, next(c), source)]
    while fringe:
        dist_v, _, v = heappop(fringe)
        if v in dist:
            continue
        dist[v] = dist_v
        if v == target:
            break
        for u, link in adj[v].items():
            cost = weight_fn(link)
            if cost is None:
                continue
            vu_dist = dist_v + cost
            if u in dist:
                if vu_dist < dist[u]:
                    raise ValueError("Contradictory paths found: negative weights?")
            elif u not in seen or vu_dist < seen[u]:
                seen[u] = vu_dist
                heappush(fringe, (vu_dist, next(c), u))
    try:
        return dist[target]
    except KeyError:
        raise NoPathError(f"node {target!r} not reachable from {source!r}") from None


def _spur_dijkstra(
    adj: Adjacency,
    source: str,
    target: str,
    weight_fn: WeightFn,
    ignore_nodes: Optional[Set[str]] = None,
    ignore_edges: Optional[Set[Tuple[str, str]]] = None,
) -> Tuple[float, PathType]:
    """Port of NetworkX ``simple_paths._bidirectional_dijkstra``.

    Yen's spur search: nodes in *ignore_nodes* and edges in *ignore_edges*
    (either orientation) are invisible.
    """
    if ignore_nodes and (source in ignore_nodes or target in ignore_nodes):
        raise NoPathError(f"no path between {source!r} and {target!r}")
    if source == target:
        return (0, [source])

    def neighbours(v: str) -> Iterator[Tuple[str, Link]]:
        for w, link in adj[v].items():
            if ignore_nodes and w in ignore_nodes:
                continue
            if ignore_edges and ((v, w) in ignore_edges or (w, v) in ignore_edges):
                continue
            yield w, link

    dists: List[Dict[str, float]] = [{}, {}]
    paths: List[Dict[str, PathType]] = [{source: [source]}, {target: [target]}]
    fringe: List[list] = [[], []]
    seen: List[Dict[str, float]] = [{source: 0}, {target: 0}]
    c = itertools.count()
    heappush(fringe[0], (0, next(c), source))
    heappush(fringe[1], (0, next(c), target))
    finalpath: PathType = []
    finaldist = 0.0
    direction = 1
    while fringe[0] and fringe[1]:
        direction = 1 - direction
        dist, _, v = heappop(fringe[direction])
        done = dists[direction]
        if v in done:
            continue
        done[v] = dist
        if v in dists[1 - direction]:
            return (finaldist, finalpath)
        seen_here = seen[direction]
        paths_here = paths[direction]
        for w, link in neighbours(v):
            minweight = weight_fn(link)
            if minweight is None:
                continue
            vw_length = done[v] + minweight
            if w in done:
                if vw_length < done[w]:
                    raise ValueError("Contradictory paths found: negative weights?")
            elif w not in seen_here or vw_length < seen_here[w]:
                seen_here[w] = vw_length
                heappush(fringe[direction], (vw_length, next(c), w))
                paths_here[w] = paths_here[v] + [w]
                if w in seen[0] and w in seen[1]:
                    totaldist = seen[0][w] + seen[1][w]
                    if finalpath == [] or finaldist > totaldist:
                        finaldist = totaldist
                        revpath = paths[1][w][:]
                        revpath.reverse()
                        finalpath = paths[0][w] + revpath[1:]
    raise NoPathError(f"no path between {source!r} and {target!r}")


class _PathBuffer:
    """Port of NetworkX ``simple_paths.PathBuffer``."""

    def __init__(self) -> None:
        self.paths: Set[Tuple[str, ...]] = set()
        self.sortedpaths: list = []
        self.counter = itertools.count()

    def __len__(self) -> int:
        return len(self.sortedpaths)

    def push(self, cost: float, path: PathType) -> None:
        hashable_path = tuple(path)
        if hashable_path not in self.paths:
            heappush(self.sortedpaths, (cost, next(self.counter), path))
            self.paths.add(hashable_path)

    def pop(self) -> PathType:
        _, _, path = heappop(self.sortedpaths)
        self.paths.remove(tuple(path))
        return path


def _shortest_simple_paths(
    adj: Adjacency, source: str, target: str, weight_fn: WeightFn
) -> Iterator[PathType]:
    """Port of NetworkX ``shortest_simple_paths`` (Yen's algorithm)."""
    list_a: List[PathType] = []
    list_b = _PathBuffer()
    prev_path: Optional[PathType] = None
    while True:
        if not prev_path:
            length, path = _spur_dijkstra(adj, source, target, weight_fn)
            list_b.push(length, path)
        else:
            ignore_nodes: Set[str] = set()
            ignore_edges: Set[Tuple[str, str]] = set()
            for i in range(1, len(prev_path)):
                root = prev_path[:i]
                root_length = _path_cost(adj, root, weight_fn)
                for path in list_a:
                    if path[:i] == root:
                        ignore_edges.add((path[i - 1], path[i]))
                try:
                    length, spur = _spur_dijkstra(
                        adj, root[-1], target, weight_fn,
                        ignore_nodes=ignore_nodes, ignore_edges=ignore_edges,
                    )
                    path = root[:-1] + spur
                    list_b.push(root_length + length, path)
                except NoPathError:
                    pass
                ignore_nodes.add(root[-1])

        if list_b:
            path = list_b.pop()
            yield path
            list_a.append(path)
            prev_path = path
        else:
            break


def k_shortest_paths(
    topology: Topology,
    src: str,
    dst: str,
    k: int,
    weight_fn: WeightFn = hop_weight,
) -> List[PathType]:
    """Up to *k* loop-free shortest paths in non-decreasing cost order."""
    if k <= 0:
        raise ValueError(f"k must be positive, got {k!r}")
    adj = _require_nodes(topology, src, dst)
    return list(itertools.islice(_shortest_simple_paths(adj, src, dst, weight_fn), k))


def ecmp_paths(
    topology: Topology,
    src: str,
    dst: str,
    weight_fn: WeightFn = hop_weight,
) -> List[PathType]:
    """All equal-minimum-cost paths between *src* and *dst*."""
    adj = _require_nodes(topology, src, dst)
    best_cost = _dijkstra_length(adj, src, dst, weight_fn)
    paths: List[PathType] = []
    for path in _shortest_simple_paths(adj, src, dst, weight_fn):
        if _path_cost(adj, path, weight_fn) > best_cost + 1e-12:
            break
        paths.append(path)
    return paths


def path_links(topology: Topology, path: Sequence[str]) -> List[Link]:
    """The link objects along *path* (consecutive node pairs)."""
    return [
        topology.link_between(path[i], path[i + 1]) for i in range(len(path) - 1)
    ]


def path_directed_keys(path: Sequence[str]) -> List[Tuple[str, str]]:
    """Directed ``(upstream, downstream)`` keys along *path*, for the fluid model."""
    return [(path[i], path[i + 1]) for i in range(len(path) - 1)]


class Router:
    """Caching path oracle over a topology.

    The router memoises computed paths until :meth:`invalidate` is called.
    The CRC invalidates it after every reconfiguration; workload drivers
    call :meth:`path` for every flow they admit.

    ECMP selection hashes the flow id so that a given flow is pinned to one
    path (per-flow ECMP, no packet reordering), matching what a real rack
    fabric would do.
    """

    def __init__(
        self,
        topology: Topology,
        weight_fn: WeightFn = hop_weight,
        policy: RoutingPolicy = RoutingPolicy.SHORTEST,
        k: int = 4,
    ) -> None:
        if k <= 0:
            raise ValueError(f"k must be positive, got {k!r}")
        self.topology = topology
        self.weight_fn = weight_fn
        self.policy = policy
        self.k = k
        self._cache: Dict[Tuple[str, str], List[PathType]] = {}
        self.cache_hits = 0
        self.cache_misses = 0
        self.invalidations = 0

    # ------------------------------------------------------------------ #
    # Cache management
    # ------------------------------------------------------------------ #
    def invalidate(self) -> None:
        """Drop all cached paths (topology or prices changed)."""
        self._cache.clear()
        self.invalidations += 1

    def set_weight_fn(self, weight_fn: WeightFn) -> None:
        """Replace the link weight function and invalidate the cache."""
        self.weight_fn = weight_fn
        self.invalidate()

    # ------------------------------------------------------------------ #
    # Path queries
    # ------------------------------------------------------------------ #
    def _candidates(self, src: str, dst: str) -> List[PathType]:
        key = (src, dst)
        if key in self._cache:
            self.cache_hits += 1
            return self._cache[key]
        self.cache_misses += 1
        if self.policy is RoutingPolicy.SHORTEST:
            candidates = [shortest_path(self.topology, src, dst, self.weight_fn)]
        elif self.policy is RoutingPolicy.ECMP:
            candidates = ecmp_paths(self.topology, src, dst, self.weight_fn)
        else:
            candidates = k_shortest_paths(self.topology, src, dst, self.k, self.weight_fn)
        self._cache[key] = candidates
        return candidates

    def path(self, src: str, dst: str, flow_id: Optional[int] = None) -> PathType:
        """The path a flow from *src* to *dst* should take.

        With multiple candidates (ECMP / k-shortest), the flow id selects one
        deterministically; flows without an id use the first candidate.
        """
        if src == dst:
            raise ValueError("source and destination are the same node")
        candidates = self._candidates(src, dst)
        if len(candidates) == 1 or flow_id is None:
            return candidates[0]
        return candidates[flow_id % len(candidates)]

    def all_paths(self, src: str, dst: str) -> List[PathType]:
        """All candidate paths the router would consider for the pair."""
        return list(self._candidates(src, dst))

    def path_cost(self, path: Sequence[str]) -> float:
        """Total weight of *path* under the current weight function."""
        return sum(self.weight_fn(link) for link in path_links(self.topology, path))

    def hop_count(self, src: str, dst: str) -> int:
        """Number of links on the selected path for the pair."""
        return len(self.path(src, dst)) - 1
