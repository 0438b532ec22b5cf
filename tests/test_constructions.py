import math

import pytest

from cayleycount.constructions import (
    GadgetRingConfig,
    OddCirculantConfig,
    build_gadget,
    build_gadget_ring,
    build_odd_circulant,
    enumerate_interval_families,
    interval_family_count,
    interval_family_intersection,
    maximal_set_from_intervals,
    odd_circulant_structure_check,
)
from cayleycount.counting import count_independent_sets
from cayleycount.errors import InvalidInputError, MalformedIntervalsError
from cayleycount.graphs import bits_list, edge_connectivity, mask_of, vertex_connectivity
from cayleycount.groups import make_group


def test_gadget_degrees_and_connectivity():
    for d in (3, 4):
        g = build_gadget(d, seed=0)
        assert g.vcount == 4 * d - 2
        assert len(g.edges()) == 2 * d * (d - 1)
        left = bits_list(g.parts[0])
        assert all(g.degree(v) == d for v in left)
        right = bits_list(g.parts[1])
        assert all(g.degree(v) == d - 1 for v in right)
        assert vertex_connectivity(g) >= d - 1
        # handshake: d (2d-2) = (d-1) 2d on both sides
        assert d * (2 * d - 2) == (d - 1) * 2 * d


def test_gadget_rejects_d2():
    with pytest.raises(InvalidInputError):
        build_gadget(2)
    with pytest.raises(InvalidInputError):
        GadgetRingConfig(d=2, t=2)


def test_gadget_deterministic_per_seed():
    assert build_gadget(3, seed=5).adj == build_gadget(3, seed=5).adj


def test_ring_shape():
    cfg = GadgetRingConfig(d=3, t=2, seed=0)
    ring = build_gadget_ring(cfg)
    g = ring.graph
    assert g.vcount == 2 * cfg.n == 40
    assert all(g.degree(v) == 3 for v in range(g.vcount))
    assert g.parts is not None
    assert g.is_connected()
    # every Z vertex has exactly one matching edge, to the next block's Y
    for b, bl in enumerate(ring.layout):
        nxt = ring.layout[(b + 1) % cfg.blocks]
        for z in bits_list(bl.z_mask):
            out = g.adj[z] & ~(bl.x_mask | bl.y_mask | bl.z_mask)
            assert out.bit_count() == 1
            assert out & nxt.y_mask == out


def test_ring_edge_connectivity():
    ring = build_gadget_ring(GadgetRingConfig(d=3, t=2, seed=0))
    assert edge_connectivity(ring.graph) >= 2


def test_ring_count_lower_bound():
    ring = build_gadget_ring(GadgetRingConfig(d=3, t=2, seed=0))
    count = count_independent_sets(ring.graph)
    assert count >= 2 ** (ring.cfg.n + 1)


def test_maximal_sets():
    ring = build_gadget_ring(GadgetRingConfig(d=3, t=2, seed=0))
    m, rep = maximal_set_from_intervals(ring, [])
    assert rep.size == ring.cfg.n  # a full side
    assert rep.independent and rep.maximal and rep.size_ok
    m, rep = maximal_set_from_intervals(ring, [(1, 1)])
    assert rep.independent and rep.maximal
    assert rep.size >= ring.cfg.n - 2
    # t = 4 in ring blocks: the single-block interval of the example
    ring8 = build_gadget_ring(GadgetRingConfig(d=3, t=4, seed=0))
    m, rep = maximal_set_from_intervals(ring8, [(1, 1)])
    assert rep.independent and rep.maximal and rep.size >= ring8.cfg.n - 2


def test_malformed_intervals():
    ring = build_gadget_ring(GadgetRingConfig(d=3, t=2, seed=0))
    with pytest.raises(MalformedIntervalsError):
        maximal_set_from_intervals(ring, [(2, 2)])        # even endpoints
    with pytest.raises(MalformedIntervalsError):
        maximal_set_from_intervals(ring, [(1, 9)])        # out of range
    with pytest.raises(MalformedIntervalsError):
        maximal_set_from_intervals(ring, [(1, 3), (3, 3)])  # overlap


def test_interval_families_and_disjointness():
    ring = build_gadget_ring(GadgetRingConfig(d=3, t=2, seed=0))
    families = enumerate_interval_families(ring.cfg.blocks)
    assert () in families
    total = 0
    for fam in families:
        rep = interval_family_count(ring, fam)
        assert rep.cross_edges_ok
        total += rep.count
        assert interval_family_intersection(ring, fam, fam) == rep.count
        for other in families:
            if other != fam:
                assert interval_family_intersection(ring, fam, other) == 0
    assert total <= count_independent_sets(ring.graph)


def test_odd_circulant_build():
    g = build_odd_circulant(OddCirculantConfig(8, 3))
    assert g.group == make_group([16])
    assert g.gens.mask == mask_of([1, 3, 13, 15])
    assert g.parts is not None
    assert g.is_connected()
    assert all(g.degree(v) == 4 for v in range(16))
    with pytest.raises(InvalidInputError):
        OddCirculantConfig(8, 4)   # even d
    with pytest.raises(InvalidInputError):
        OddCirculantConfig(3, 5)   # d + 1 > n


def test_odd_circulant_structure():
    rep = odd_circulant_structure_check(OddCirculantConfig(8, 3))
    assert rep.all_t_equal_d
    assert rep.all_intervals
    assert rep.all_nbhd_ap
    assert rep.table_zero_off_diag
    assert rep.min_coverage >= 0.25
    assert rep.records


def test_odd_circulant_interval_records_at_12():
    rep = odd_circulant_structure_check(OddCirculantConfig(12, 3))
    assert rep.all_t_equal_d and rep.all_intervals and rep.table_zero_off_diag
    for key, ratio in rep.ratios.items():
        assert 0 < ratio <= 1


def test_odd_circulant_beats_trivial_bound():
    # in the low-degree regime the side-subset count is beaten strictly
    g = build_odd_circulant(OddCirculantConfig(16, 3))
    count = count_independent_sets(g)
    assert count > 2 ** 17


def test_ring_rate_across_three_sizes():
    rates = []
    for t in (2, 3, 4):
        ring = build_gadget_ring(GadgetRingConfig(d=3, t=t, seed=0))
        count = count_independent_sets(ring.graph, budget=96)
        n = ring.cfg.n
        rates.append((math.log2(count) - n, count ** (1 / (2 * n))))
    # the per-block excess grows with t; the per-vertex rate levels off
    assert rates[0][0] < rates[1][0] < rates[2][0]


def test_ring_vertex_connectivity_at_least_d_minus_1():
    ring = build_gadget_ring(GadgetRingConfig(d=3, t=2, seed=0))
    assert vertex_connectivity(ring.graph) >= 2
