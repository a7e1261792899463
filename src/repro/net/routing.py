"""Shortest-path routing with symmetric-hash ECMP.

ExpressPass requires credits to traverse the reverse of the data path so the
per-link credit rate limiters meter the right links. The paper therefore uses
"ECMP routing with symmetric hash" (§6.2). We reproduce that: the ECMP hash
key is invariant under swapping source and destination, and each node's
next-hop list toward a destination is sorted by node id, so the forward and
reverse paths of a flow mirror each other in a symmetric Clos.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, FrozenSet, Iterable, List, Tuple

_MASK64 = (1 << 64) - 1


def edge_key(a: int, b: int) -> Tuple[int, int]:
    """Canonical (undirected) identity of the a<->b link."""
    return (a, b) if a <= b else (b, a)


def filter_adjacency(
    adjacency: Dict[int, List[int]],
    down_edges: FrozenSet[Tuple[int, int]],
) -> Dict[int, List[int]]:
    """Adjacency with the given (canonical-key) edges removed.

    This is how routing reacts to link failures: the physical wiring stays
    in the topology, but routes are recomputed over the surviving edges.
    """
    if not down_edges:
        return adjacency
    return {
        node: [nb for nb in neighbors if edge_key(node, nb) not in down_edges]
        for node, neighbors in adjacency.items()
    }


def compute_next_hops(
    adjacency: Dict[int, List[int]], destinations: Iterable[int]
) -> Dict[int, Dict[int, Tuple[int, ...]]]:
    """All equal-cost next hops toward each destination.

    ``adjacency`` maps node id -> neighbor ids (undirected: both ends list
    each other). Returns
    ``next_hops[node][dst] = (neighbor ids on shortest paths, sorted)``.

    A destination with exactly one neighbor (a single-homed host) is one hop
    further than that neighbor from everywhere else, so every node's next
    hops toward it are its next hops toward the neighbor: one BFS per ToR
    serves all the hosts on it.
    """
    next_hops: Dict[int, Dict[int, Tuple[int, ...]]] = {n: {} for n in adjacency}
    via_tables: Dict[int, Dict[int, Tuple[int, ...]]] = {}
    for dst in destinations:
        neighbors = adjacency[dst]
        if len(neighbors) != 1:
            for node, hops in _hops_toward(adjacency, dst).items():
                next_hops[node][dst] = hops
            continue
        via = neighbors[0]
        table = via_tables.get(via)
        if table is None:
            table = via_tables[via] = _hops_toward(adjacency, via)
        for node, hops in table.items():
            if node != dst:
                next_hops[node][dst] = hops
        next_hops[via][dst] = (dst,)
    return next_hops


def _hops_toward(
    adjacency: Dict[int, List[int]], dst: int
) -> Dict[int, Tuple[int, ...]]:
    """Sorted shortest-path next hops toward ``dst`` from every other node
    that can reach it."""
    dist = _bfs_distances(adjacency, dst)
    table: Dict[int, Tuple[int, ...]] = {}
    for node, neighbors in adjacency.items():
        if node == dst:
            continue
        d = dist.get(node)
        if d is None:
            continue  # unreachable; scenario wiring error surfaces later
        hops = tuple(sorted(nb for nb in neighbors if dist.get(nb) == d - 1))
        if hops:
            table[node] = hops
    return table


def _bfs_distances(adjacency: Dict[int, List[int]], src: int) -> Dict[int, int]:
    dist = {src: 0}
    frontier = deque([src])
    while frontier:
        node = frontier.popleft()
        for nb in adjacency[node]:
            if nb not in dist:
                dist[nb] = dist[node] + 1
                frontier.append(nb)
    return dist


def ecmp_index(flow_id: int, src: int, dst: int, n_choices: int,
               salt: int = 0) -> int:
    """Deterministic, direction-symmetric ECMP choice.

    The key hashes the unordered endpoint pair plus the flow id, so a flow's
    data packets and its reverse-direction credits/ACKs resolve to the same
    index into (sorted) equal-cost next-hop lists.

    ``salt`` decorrelates decisions made at different *tiers* of the fabric
    (ToR vs agg): without it, the same hash picks the same index at every
    hop and a host pair can only ever reach a fraction of its equal-cost
    paths. Symmetry is preserved as long as mirrored decisions (the up-hop
    at the source-side tier and at the destination-side tier) use the same
    salt, which tier-based salting guarantees on a symmetric Clos.
    """
    if n_choices <= 0:
        raise ValueError("no next hops to choose from")
    if n_choices == 1:
        return 0
    lo, hi = (src, dst) if src <= dst else (dst, src)
    # A multiply-xorshift mixer (not CRC32: CRC is linear, so a salt change
    # XORs the same constant into every hash and per-salt choices stay
    # perfectly correlated — exactly the imbalance the salt must break).
    key = (flow_id * 0x9E3779B97F4A7C15
           + lo * 0xBF58476D1CE4E5B9
           + hi * 0x94D049BB133111EB
           + salt * 0xD6E8FEB86659FD93) & _MASK64
    key ^= key >> 33
    key = (key * 0xFF51AFD7ED558CCD) & _MASK64
    key ^= key >> 33
    key = (key * 0xC4CEB9FE1A85EC53) & _MASK64
    key ^= key >> 33
    return key % n_choices
