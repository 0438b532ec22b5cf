import random
from itertools import combinations

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from cayleycount import groups
from cayleycount.counting import count_independent_sets, count_independent_sets_bruteforce
from cayleycount.errors import InvalidInputError
from cayleycount.graphs import (
    Graph,
    bits_list,
    build_cayley,
    closure,
    edge_connectivity,
    graph_from_json,
    graph_to_json,
    mask_of,
    times_k2,
    vertex_connectivity,
)
from cayleycount.groups import GeneratorSet, make_group
from cayleycount.sumsets import iterated_sumset
from cayleycount.verify import corpus_graphs, cycle_graph


def c8():
    spec = make_group([8])
    return build_cayley(spec, GeneratorSet(spec, {1, 7}))


def test_build_cayley_cycle():
    g = cycle_graph(4)
    assert g.vcount == 4
    assert all(g.degree(v) == 2 for v in range(4))
    assert g.parts == (mask_of([0, 2]), mask_of([1, 3]))
    assert cycle_graph(8).is_connected()


def test_build_odd_band_example():
    spec = make_group([16])
    g = build_cayley(spec, GeneratorSet(spec, {1, 3, 13, 15}))
    assert all(g.degree(v) == 4 for v in range(16))
    assert g.parts is not None
    assert g.is_connected()
    evens = mask_of(range(0, 16, 2))
    assert g.parts[0] == evens


def test_neighborhood_examples():
    g = c8()
    assert g.nbhd_iter(1 << 0, 1) == mask_of([1, 7])
    assert g.nbhd_iter(1 << 0, 2) == mask_of([0, 2, 6])
    assert g.nbhd_iter(1 << 0, 0) == 1 << 0
    assert g.nbhd_iter(0, 1) == 0


def test_neighborhood_matches_sumset_oracle():
    # two independent implementations of A + iD must agree
    rng = random.Random(7)
    for label, g in list(corpus_graphs(10))[::7]:
        spec = g.group
        sample = rng.sample(range(spec.order), rng.randint(1, spec.order))
        mask = mask_of(sample)
        for i in range(3):
            from_graph = set(bits_list(g.nbhd_iter(mask, i)))
            from_sums = set(bits_list(iterated_sumset(spec, mask, g.gens.mask, i)))
            assert from_graph == from_sums, label


def test_closure_examples():
    g = c8()
    rec = closure(g, 1 << 0)
    assert rec.closure == 1 << 0
    assert rec.nbhd == mask_of([1, 7])
    assert (rec.a, rec.g, rec.t) == (1, 2, 1)
    rec = closure(g, mask_of([0, 2]))
    assert rec.closure == mask_of([0, 2])
    assert rec.nbhd == mask_of([1, 3, 7])
    assert rec.boundary == mask_of([3, 7])
    assert (rec.a, rec.g, rec.t) == (2, 3, 1)
    x_mask = g.parts[0]
    rec = closure(g, x_mask)
    assert rec.closure == x_mask and rec.nbhd == g.parts[1] and rec.boundary == 0


def test_closure_rejects_straddling_sets():
    g = c8()
    with pytest.raises(InvalidInputError):
        closure(g, mask_of([0, 1]))


def test_closure_idempotent_exhaustive_small():
    for g in (cycle_graph(8), cycle_graph(12)):
        x_mask = g.parts[0]
        xs = bits_list(x_mask)
        for sub in range(1, 1 << len(xs)):
            mask = 0
            for i, v in enumerate(xs):
                if sub >> i & 1:
                    mask |= 1 << v
            rec = closure(g, mask)
            again = closure(g, rec.closure)
            assert again.closure == rec.closure
            assert again.nbhd == rec.nbhd


def test_expansion_on_connected_bipartite():
    # |N(A)| >= |A| with equality only for the empty set and the full side
    for label, g in corpus_graphs(12):
        if g.parts is None or not g.is_connected():
            continue
        xs = bits_list(g.parts[0])
        if len(xs) > 6:
            continue
        for sub in range(1 << len(xs)):
            mask = 0
            for i, v in enumerate(xs):
                if sub >> i & 1:
                    mask |= 1 << v
            nb = g.nbhd(mask)
            assert nb.bit_count() >= mask.bit_count(), label
            if 0 < mask.bit_count() < len(xs):
                assert nb.bit_count() > mask.bit_count() or mask == g.parts[0], label


def test_two_linked_components():
    g = c8()
    assert len(g.components(mask_of([0, 2]), hops=2)) == 1
    assert len(g.components(mask_of([0, 4]), hops=2)) == 2
    assert len(g.components(mask_of([0, 2, 4]), hops=2)) == 1
    assert g.components(0, hops=2) == []


CORPUS = list(corpus_graphs(12))


def any_mask(data, graph):
    return data.draw(st.integers(0, graph.full_mask()))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(CORPUS), st.data())
def test_interior_and_heavy_match_per_vertex_loops(item, data):
    label, g = item
    within, region = any_mask(data, g), any_mask(data, g)
    k = data.draw(st.integers(0, 2 * g.degree(0) + 2)) / 2   # thresholds such as d / 2
    interior = heavy = 0
    for v in range(g.vcount):
        if within >> v & 1:
            nbrs = {u for u in range(g.vcount) if g.adj[v] >> u & 1}
            if all(region >> u & 1 for u in nbrs):
                interior |= 1 << v
            if sum(region >> u & 1 for u in nbrs) >= k:
                heavy |= 1 << v
    assert g.interior(within, region) == interior, label
    assert g.heavy(within, region, k) == heavy, label


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(CORPUS), st.data())
def test_two_linkage_matches_networkx_square_graph(item, data):
    label, g = item
    a_mask = any_mask(data, g)
    a = set(bits_list(a_mask))
    nxg = nx.Graph(g.edges())
    nxg.add_nodes_from(range(g.vcount))
    # the square graph on A: two vertices of A are adjacent when they share a neighbor
    square = nx.Graph()
    square.add_nodes_from(a)
    for v in nxg:
        square.add_edges_from(combinations(sorted(set(nxg[v]) & a), 2))
    expected = {frozenset(c) for c in nx.connected_components(square)}
    comps = g.components(a_mask, hops=2)
    assert {frozenset(bits_list(c)) for c in comps} == expected, label
    assert len(comps) == len(expected)


def test_side_of():
    g = c8()
    x_mask, y_mask = g.parts
    assert g.side_of(mask_of([0, 4]), y_mask) == x_mask
    assert g.side_of(mask_of([1, 7]), x_mask) == y_mask
    assert g.side_of(0, y_mask) == y_mask
    with pytest.raises(InvalidInputError):
        g.side_of(mask_of([0, 1]), x_mask)
    with pytest.raises(InvalidInputError):
        cycle_graph(5).side_of(1, 1)


def test_heavy_neighborhood():
    g = c8()
    rec = closure(g, mask_of([0, 2]))
    assert g.heavy(rec.nbhd, rec.closure, 2) == 1 << 1
    assert g.heavy(rec.nbhd, rec.closure, 0) == rec.nbhd
    assert g.heavy(rec.nbhd, rec.closure, 3) == 0


def test_boundary_complement_is_fully_interior():
    for label, g in list(corpus_graphs(12))[::13]:
        if g.parts is None:
            continue
        xs = bits_list(g.parts[0])[:4]
        for v in xs:
            rec = closure(g, 1 << v)
            assert rec.boundary & ~rec.nbhd == 0
            interior = rec.nbhd & ~rec.boundary
            assert interior == g.heavy(rec.nbhd, rec.closure, g.degree(0)), label


def test_times_k2_odd_cycle():
    g = times_k2(cycle_graph(5))
    assert g.vcount == 10
    assert all(g.degree(v) == 2 for v in range(10))
    assert g.is_connected()
    assert g.parts is not None


def test_times_k2_bipartite_splits():
    g = times_k2(cycle_graph(4))
    comps = g.components()
    assert len(comps) == 2
    assert sorted(c.bit_count() for c in comps) == [4, 4]


def test_times_k2_single_edge():
    spec = make_group([2])
    k2 = build_cayley(spec, GeneratorSet(spec, {1}))
    doubled = times_k2(k2)
    assert doubled.vcount == 4
    assert all(doubled.degree(v) == 1 for v in range(4))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([item for item in CORPUS if item[1].vcount <= 10]))
def test_times_k2_is_the_networkx_tensor_product(item):
    label, g = item
    n = g.vcount
    doubled = times_k2(g)
    nxg = nx.Graph(g.edges())
    nxg.add_nodes_from(range(n))
    expected = nx.tensor_product(nxg, nx.complete_graph(2))
    # equal under the isomorphism (v, layer) -> v + layer * n
    relabelled = nx.relabel_nodes(expected, {(v, k): v + k * n for v, k in expected})
    assert set(map(frozenset, doubled.edges())) == set(map(frozenset, relabelled.edges())), label
    low = (1 << n) - 1
    assert doubled.parts == (low, low << n)
    assert count_independent_sets(doubled) == count_independent_sets_bruteforce(doubled), label


def test_connectivity_examples():
    g = c8()
    assert edge_connectivity(g) == 2
    assert vertex_connectivity(g) == 2
    spec = make_group([4])
    k4 = build_cayley(spec, GeneratorSet(spec, {1, 2, 3}))
    assert edge_connectivity(k4) == 3
    assert vertex_connectivity(k4) == 3


def test_connectivity_disconnected_is_zero():
    spec = make_group([6])
    g = build_cayley(spec, GeneratorSet(spec, {2, 4}))
    assert edge_connectivity(g) == 0
    assert vertex_connectivity(g) == 0


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 12), st.sampled_from((0.15, 0.35, 0.6, 1.0)), st.integers(0, 2 ** 32))
def test_connectivity_matches_networkx_on_random_graphs(n, density, seed):
    # density 1.0 is K_n; low densities are mostly disconnected
    rng = random.Random(seed)
    edges = [e for e in combinations(range(n), 2) if rng.random() < density]
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    nxg = nx.Graph(edges)
    nxg.add_nodes_from(range(n))
    g = Graph(adj)
    if n >= 2:
        assert edge_connectivity(g) == nx.edge_connectivity(nxg)
        assert vertex_connectivity(g) == nx.node_connectivity(nxg)
    else:
        assert edge_connectivity(g) == vertex_connectivity(g) == 0
    if density == 1.0 and n >= 2:
        assert edge_connectivity(g) == vertex_connectivity(g) == n - 1
    # networkx calls the null graph neither connected nor disconnected
    if n >= 1:
        assert g.is_connected() == nx.is_connected(nxg)
        assert sorted(bits_list(c) for c in g.components()) == sorted(
            sorted(c) for c in nx.connected_components(nxg))


def test_graph_rejects_asymmetric_adjacency():
    for adj in ([0, 0b1], [0b10, 0]):
        with pytest.raises(InvalidInputError):
            Graph(adj)
    # CayleyGraph skips these checks; its adjacency and bipartition must pass them
    for _, g in CORPUS:
        Graph(g.adj, g.parts)


def test_graph_rejects_parts_that_are_not_independent():
    # one edge with both ends on side X
    with pytest.raises(InvalidInputError):
        Graph([0b10, 0b01], parts=(0b11, 0))
    assert Graph([0b10, 0b01], parts=(0b01, 0b10)).parts == (0b01, 0b10)


def test_connectivity_against_networkx():
    rng = random.Random(3)
    sample = [g for _, g in list(corpus_graphs(10))[::5]]
    rng.shuffle(sample)
    for g in sample[:12]:
        if not g.is_connected():
            continue
        nxg = nx.Graph(g.edges())
        nxg.add_nodes_from(range(g.vcount))
        assert edge_connectivity(g) == nx.edge_connectivity(nxg)
        assert vertex_connectivity(g) == nx.node_connectivity(nxg)


def test_graph_json_roundtrip():
    g = c8()
    data = graph_to_json(g)
    back = graph_from_json(data)
    assert back.adj == g.adj
    plain = Graph([0b10, 0b01], parts=(0b01, 0b10))
    data = graph_to_json(plain, provenance={"kind": "edge"})
    back = graph_from_json(data)
    assert back.adj == plain.adj and back.parts == plain.parts


def test_bipartition_matches_two_coloring_when_connected():
    for label, g in list(corpus_graphs(12))[::3]:
        if not g.is_connected():
            continue
        nxg = nx.Graph(g.edges())
        nxg.add_nodes_from(range(g.vcount))
        assert (g.parts is not None) == nx.is_bipartite(nxg), label
        if g.parts is not None:
            x_mask, y_mask = g.parts
            for u, v in g.edges():
                assert (x_mask >> u & 1) != (x_mask >> v & 1), label


def test_closure_idempotent_wider_exhaustive():
    # exhaust every A on side X for a few structurally different graphs
    from cayleycount.constructions import OddCirculantConfig, build_odd_circulant

    spec = make_group([2, 8])
    d = {groups.coords_to_id(spec, (1, 1)), groups.coords_to_id(spec, (1, 7)),
         groups.coords_to_id(spec, (1, 3)), groups.coords_to_id(spec, (1, 5))}
    instances = [build_odd_circulant(OddCirculantConfig(8, 3)),
                 build_cayley(spec, GeneratorSet(spec, d))]
    for g in instances:
        xs = bits_list(g.parts[0])
        for sub in range(1 << len(xs)):
            mask = 0
            for i, v in enumerate(xs):
                if sub >> i & 1:
                    mask |= 1 << v
            rec = closure(g, mask, side=g.parts[0])
            again = closure(g, rec.closure, side=g.parts[0])
            assert again.closure == rec.closure and again.nbhd == rec.nbhd


def test_independence_number_is_n_on_connected_bipartite():
    # König duality oracle: alpha = V - max matching for bipartite graphs
    for label, g in list(corpus_graphs(14))[::17]:
        if g.parts is None or not g.is_connected():
            continue
        nxg = nx.Graph(g.edges())
        nxg.add_nodes_from(range(g.vcount))
        top = set(bits_list(g.parts[0]))
        matching = nx.bipartite.maximum_matching(nxg, top_nodes=top)
        alpha = g.vcount - len(matching) // 2
        assert alpha == g.vcount // 2, label
