"""Unit tests for shared-buffer management and ECMP routing."""

import pytest
from hypothesis import given, strategies as st

from repro.net.buffering import SharedBuffer, UnlimitedBuffer
from repro.net.routing import (
    _bfs_distances,
    compute_next_hops,
    edge_key,
    ecmp_index,
    filter_adjacency,
)


class TestSharedBuffer:
    def test_dynamic_threshold_shrinks_as_buffer_fills(self):
        buf = SharedBuffer(10_000, alpha=0.25)
        assert buf.threshold() == 2500
        assert buf.try_admit(0, 2000)
        assert buf.threshold() == 2000  # 0.25 * 8000

    def test_queue_over_threshold_rejected(self):
        buf = SharedBuffer(10_000, alpha=0.25)
        # queue already holds 2400; threshold is 2500 -> 200-byte pkt rejected
        buf.used = 2400
        assert not buf.try_admit(2400, 200)
        assert buf.drops == 1

    def test_hard_capacity_enforced(self):
        buf = SharedBuffer(1000, alpha=10.0)
        assert buf.try_admit(0, 900)
        assert not buf.try_admit(0, 200)

    def test_release_returns_bytes(self):
        buf = SharedBuffer(1000, alpha=1.0)
        buf.try_admit(0, 500)
        buf.release(500)
        assert buf.used == 0

    def test_release_below_zero_raises(self):
        buf = SharedBuffer(1000)
        with pytest.raises(RuntimeError):
            buf.release(1)

    def test_invalid_params_raise(self):
        with pytest.raises(ValueError):
            SharedBuffer(0)
        with pytest.raises(ValueError):
            SharedBuffer(100, alpha=0)

    @given(st.lists(st.integers(64, 1584), max_size=200))
    def test_property_used_never_exceeds_capacity(self, sizes):
        buf = SharedBuffer(20_000, alpha=0.5)
        admitted = []
        for s in sizes:
            if buf.try_admit(0, s):
                admitted.append(s)
            assert 0 <= buf.used <= buf.capacity
        for s in admitted:
            buf.release(s)
        assert buf.used == 0

    def test_unlimited_buffer_always_admits(self):
        buf = UnlimitedBuffer()
        assert buf.try_admit(10**12, 10**9)  # any occupancy, any size
        assert buf.used == 10**9
        buf.release(10**9)
        assert buf.used == 0

    def test_unlimited_buffer_rejects_negative_occupancy(self):
        """A release without a matching admit (double release) must raise,
        exactly like SharedBuffer — a silent negative gauge defeated the
        audit's buffer-conservation check on host NICs."""
        buf = UnlimitedBuffer()
        buf.try_admit(0, 100)
        buf.release(100)
        with pytest.raises(RuntimeError, match="negative"):
            buf.release(1)


class TestRouting:
    def _diamond(self):
        #    1
        #  /   \
        # 0     3 -- 4(host)
        #  \   /
        #    2
        return {0: [1, 2], 1: [0, 3], 2: [0, 3], 3: [1, 2, 4], 4: [3]}

    def test_equal_cost_paths_found(self):
        nh = compute_next_hops(self._diamond(), destinations=[4])
        assert nh[0][4] == (1, 2)
        assert nh[1][4] == (3,)
        assert nh[3][4] == (4,)

    def test_no_route_to_self(self):
        nh = compute_next_hops(self._diamond(), destinations=[4])
        assert 4 not in nh[4]

    def test_line_topology(self):
        adj = {0: [1], 1: [0, 2], 2: [1]}
        nh = compute_next_hops(adj, destinations=[0, 2])
        assert nh[0][2] == (1,)
        assert nh[1][0] == (0,)
        assert nh[1][2] == (2,)

    def test_unreachable_destination_omitted(self):
        adj = {0: [1], 1: [0], 2: []}
        nh = compute_next_hops(adj, destinations=[2])
        assert 2 not in nh[0]


def _next_hops_per_destination(adjacency, destinations):
    """The reference: one BFS per destination, nothing shared."""
    next_hops = {n: {} for n in adjacency}
    for dst in destinations:
        dist = _bfs_distances(adjacency, dst)
        for node, neighbors in adjacency.items():
            d = dist.get(node)
            if node == dst or d is None:
                continue
            hops = tuple(sorted(nb for nb in neighbors if dist.get(nb) == d - 1))
            if hops:
                next_hops[node][dst] = hops
    return next_hops


@st.composite
def _fabrics(draw):
    """(adjacency over surviving edges, host ids): a random switch graph,
    hosts hung off it with one uplink (most), two, or none, and a random
    subset of all the edges taken down, so some single-homed hosts lose
    their only link and some dual-homed ones become single-homed."""
    n_sw = draw(st.integers(1, 7))
    edges = {edge_key(a, b) for a, b in draw(st.lists(
        st.tuples(st.integers(0, n_sw - 1), st.integers(0, n_sw - 1)),
        max_size=14)) if a != b}
    hosts = []
    for uplinks in draw(st.lists(
            st.lists(st.integers(0, n_sw - 1), max_size=2, unique=True),
            min_size=1, max_size=8)):
        host = n_sw + len(hosts)
        hosts.append(host)
        edges |= {edge_key(host, sw) for sw in uplinks}
    adjacency = {n: [] for n in range(n_sw + len(hosts))}
    for a, b in sorted(edges):
        adjacency[a].append(b)
        adjacency[b].append(a)
    down = draw(st.sets(st.sampled_from(sorted(edges)), max_size=4)
                if edges else st.just(set()))
    return filter_adjacency(adjacency, frozenset(down)), hosts


class TestSharedBfs:
    """``compute_next_hops`` serves every single-homed destination from one
    BFS of its only neighbor; the tables must equal the per-destination form."""

    @given(_fabrics())
    def test_equals_per_destination_form(self, fabric):
        adjacency, hosts = fabric
        assert (compute_next_hops(adjacency, hosts)
                == _next_hops_per_destination(adjacency, hosts))

    def test_host_whose_only_link_is_down(self):
        # tor 0 -- hosts 2, 3;  tor 1 -- host 4;  tors linked; 0-3 down.
        adj = {0: [1, 2, 3], 1: [0, 4], 2: [0], 3: [0], 4: [1]}
        nh = compute_next_hops(filter_adjacency(adj, frozenset({(0, 3)})),
                               [2, 3, 4])
        assert nh[4] == {2: (1,)} and nh[1] == {2: (0,), 4: (4,)}
        assert all(3 not in table for table in nh.values())
        assert nh[3] == {}

    def test_siblings_share_one_bfs(self, monkeypatch):
        from repro.net import routing
        calls = []
        real = routing._bfs_distances
        monkeypatch.setattr(routing, "_bfs_distances",
                            lambda adj, src: calls.append(src) or real(adj, src))
        # two tors with three hosts each, one dual-homed host (8)
        adj = {0: [1, 2, 3, 4, 8], 1: [0, 5, 6, 7, 8], 2: [0], 3: [0],
               4: [0], 5: [1], 6: [1], 7: [1], 8: [0, 1]}
        hosts = [2, 3, 4, 5, 6, 7, 8]
        nh = routing.compute_next_hops(adj, hosts)
        assert sorted(calls) == [0, 1, 8]
        assert nh == _next_hops_per_destination(adj, hosts)
        assert nh[2][8] == (0,) and nh[5][2] == (1,) and nh[5][8] == (1,)


class TestEcmpHash:
    def test_symmetric_in_endpoints(self):
        """Required for ExpressPass: reverse-path credits hash like data."""
        for flow in range(50):
            assert ecmp_index(flow, 3, 9, 4) == ecmp_index(flow, 9, 3, 4)

    def test_deterministic(self):
        assert ecmp_index(7, 1, 2, 8) == ecmp_index(7, 1, 2, 8)

    def test_single_choice(self):
        assert ecmp_index(123, 1, 2, 1) == 0

    def test_zero_choices_raises(self):
        with pytest.raises(ValueError):
            ecmp_index(1, 1, 2, 0)

    def test_spreads_flows(self):
        idxs = {ecmp_index(f, 1, 2, 4) for f in range(100)}
        assert idxs == {0, 1, 2, 3}

    @given(st.integers(0, 1 << 30), st.integers(0, 500), st.integers(0, 500), st.integers(1, 16))
    def test_property_in_range_and_symmetric(self, flow, a, b, n):
        i = ecmp_index(flow, a, b, n)
        assert 0 <= i < n
        assert i == ecmp_index(flow, b, a, n)
