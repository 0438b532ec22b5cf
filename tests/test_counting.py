import random
import sys
from fractions import Fraction
from itertools import combinations
from unittest.mock import patch

import networkx as nx
import pytest
from hypothesis import event, given, settings, strategies as st

from cayleycount import counting
from cayleycount.constructions import (GadgetRingConfig, OddCirculantConfig, build_gadget_ring,
                                       build_odd_circulant)
from cayleycount.counting import (
    bipartite_bound_sum,
    chosen_engine,
    cluster_bound,
    container_table,
    count_closure_preimages,
    count_independent_sets,
    count_independent_sets_bruteforce,
    enumerate_small_2linked_closed,
    lucas_number,
    orbit_representatives,
)
from cayleycount.errors import InstanceTooLargeError, InvalidInputError
from cayleycount.graphs import Graph, bits_list, closure, iter_bits, mask_of
from cayleycount.groups import (GeneratorSet, coords_to_id, enumerate_abelian_groups,
                                id_to_coords, make_group, symmetrize)
from cayleycount.graphs import build_cayley
from cayleycount.verify import complete_bipartite_graph, cycle_graph


def test_known_counts():
    assert count_independent_sets(cycle_graph(4)) == 7
    assert count_independent_sets(cycle_graph(5)) == 11
    assert count_independent_sets(cycle_graph(6)) == 18
    assert count_independent_sets(cycle_graph(8)) == 47
    assert count_independent_sets(complete_bipartite_graph(2)) == 7
    assert count_independent_sets(Graph([0] * 5)) == 32
    assert count_independent_sets(Graph([0])) == 2
    assert count_independent_sets(Graph([])) == 1


def count_by(engine, graph, budget=counting.DEFAULT_BRANCHING_BUDGET):
    """i(G) by the named engine, whatever `chosen_engine` would pick."""
    with patch.object(counting, "chosen_engine", lambda g: engine):
        return count_independent_sets(graph, budget)


def _path(n):
    return Graph([(1 << v - 1 if v else 0) | (1 << v + 1 if v + 1 < n else 0)
                  for v in range(n)])


def _ladder(k):
    """P_k x K2: vertices 2i and 2i + 1 form rung i."""
    adj = [0] * (2 * k)
    edges = [(2 * i, 2 * i + 1) for i in range(k)]
    edges += [(v, v + 2) for v in range(2 * k - 2)]
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return Graph(adj)


def test_count_runs_deep_instances_without_touching_the_recursion_limit(monkeypatch):
    # the count may neither need nor set a recursion limit: it runs under a
    # low one, and setting any limit fails the test
    real_set = sys.setrecursionlimit
    limit = sys.getrecursionlimit()

    def refuse(new_limit):
        raise AssertionError(f"the count set the recursion limit to {new_limit}")

    real_set(200)
    monkeypatch.setattr(sys, "setrecursionlimit", refuse)
    try:
        # i(P_k x K2): a(1) = 3, a(2) = 7, a(k) = 2 a(k-1) + a(k-2)
        a, b = 3, 7
        for _ in range(400 - 2):
            a, b = b, 2 * b + a
        for engine in ("branching", "frontier"):
            assert count_by(engine, _ladder(400), budget=800) == b
        assert count_independent_sets(cycle_graph(3000), budget=3000) == lucas_number(3000)
        # i(P_n) = F(n + 2)
        f, g = 0, 1
        for _ in range(3000 + 2):
            f, g = g, f + g
        assert count_independent_sets(_path(3000), budget=3000) == f
    finally:
        real_set(limit)


def test_bruteforce_known_counts():
    assert count_independent_sets_bruteforce(cycle_graph(8)) == 47
    assert count_independent_sets_bruteforce(cycle_graph(5)) == 11
    assert count_independent_sets_bruteforce(Graph([0])) == 2


def test_budgets_enforced():
    g = cycle_graph(12)
    with pytest.raises(InstanceTooLargeError):
        count_independent_sets(g, budget=10)
    with pytest.raises(InstanceTooLargeError):
        count_independent_sets_bruteforce(g, budget=10)


def _scan_oracle(graph):
    """Independent oracle: test every subset for an edge inside it."""
    low = [row & ((1 << v) - 1) for v, row in enumerate(graph.adj)]
    count = 0
    for sub in range(1 << graph.vcount):
        if not any(sub >> v & 1 and sub & low[v] for v in range(graph.vcount)):
            count += 1
    return count


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 14), st.data())
def test_doubling_table_matches_subset_scan(n, data):
    density = data.draw(st.sampled_from((0.1, 0.3, 0.6)))
    rng = random.Random(data.draw(st.integers(0, 2 ** 32)))
    adj = [0] * n
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < density:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
    g = Graph(adj)
    assert count_independent_sets_bruteforce(g) == _scan_oracle(g)


def test_bruteforce_at_the_budget():
    assert count_independent_sets_bruteforce(Graph([0] * 26)) == 2 ** 26
    assert count_independent_sets_bruteforce(complete_bipartite_graph(13)) == 2 ** 14 - 1
    assert count_independent_sets_bruteforce(cycle_graph(24)) == lucas_number(24)
    assert count_independent_sets_bruteforce(Graph([])) == 1


def test_lucas_oracle():
    known = {1: 1, 2: 3, 3: 4, 4: 7, 5: 11, 6: 18, 7: 29, 8: 47, 10: 123}
    for n, val in known.items():
        assert lucas_number(n) == val
    for n in range(3, 40):
        assert lucas_number(n) == lucas_number(n - 1) + lucas_number(n - 2)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 11), st.data())
def test_engine_matches_bruteforce_on_random_graphs(n, data):
    adj = [0] * n
    for u in range(n):
        for v in range(u + 1, n):
            if data.draw(st.booleans()):
                adj[u] |= 1 << v
                adj[v] |= 1 << u
    g = Graph(adj)
    assert count_independent_sets(g) == count_independent_sets_bruteforce(g)


@st.composite
def path_cycle_unions(draw):
    """Disjoint unions of paths and cycles on at most 20 vertices under a
    random relabeling, so that components are non-contiguous masks;
    sometimes with pendant vertices or chords, so that the engine branches
    until the remainders fall into closed forms."""
    edges, n = [], 0
    for cyclic, k in draw(st.lists(st.tuples(st.booleans(), st.integers(1, 9)),
                                   min_size=1, max_size=4)):
        k = min(max(k, 3) if cyclic else k, 17 - n)
        if k < 1:
            break
        edges += [(n + i, n + i + 1) for i in range(k - 1)]
        if cyclic and k >= 3:
            edges.append((n + k - 1, n))
        n += k
    for _ in range(draw(st.integers(0, 3))):
        edges.append((draw(st.integers(0, n - 1)), n))
        n += 1
    edges += draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                           max_size=2))
    label = draw(st.permutations(range(n)))
    adj = [0] * n
    for u, v in edges:
        if u != v:
            adj[label[u]] |= 1 << label[v]
            adj[label[v]] |= 1 << label[u]
    return Graph(adj)


@settings(max_examples=300, deadline=None)
@given(path_cycle_unions())
def test_closed_forms_and_mask_memo_match_bruteforce(graph):
    assert count_by("branching", graph) == count_independent_sets_bruteforce(graph)


def _relabeled(n, edges, label):
    adj = [0] * n
    for u, v in edges:
        adj[label[u]] |= 1 << label[v]
        adj[label[v]] |= 1 << label[u]
    return Graph(adj)


@st.composite
def banded_graphs(draw):
    """Random graphs, and paths or rings of cliques and ladders: in id order
    they are bands, on which the frontier DP's bound is small; randomly
    relabeled (at most 24 vertices, so that a forced frontier DP stays
    cheap) they mostly are not."""
    kind = draw(st.sampled_from(("random", "cliques", "ladder")))
    ring = draw(st.booleans())
    if kind == "random":
        n = draw(st.integers(0, 16))
        density = draw(st.sampled_from((0.1, 0.3, 0.6)))
        rng = random.Random(draw(st.integers(0, 2 ** 32)))
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < density]
    elif kind == "cliques":
        size, k = draw(st.integers(2, 5)), draw(st.integers(1, 8))
        n = size * k
        edges = [(b * size + i, b * size + j)
                 for b in range(k) for i in range(size) for j in range(i + 1, size)]
        # one edge from each clique to the next, and from the last to the first
        edges += [(b * size + size - 1, (b + 1) % k * size)
                  for b in range(k if ring and k >= 3 else k - 1)]
    else:
        k = draw(st.integers(1, 20))
        n = 2 * k
        edges = _ladder(k).edges()
        if ring and k >= 3:
            edges += [(n - 2, 0), (n - 1, 1)]
    relabel = n <= 24 and draw(st.booleans())
    label = draw(st.permutations(range(n))) if relabel else range(n)
    return _relabeled(n, edges, label)


@settings(max_examples=200, deadline=None)
@given(banded_graphs())
def test_frontier_dp_matches_branching_and_bruteforce(graph):
    event(chosen_engine(graph))
    count = count_by("frontier", graph)
    assert count == count_by("branching", graph) == count_independent_sets(graph)
    if graph.vcount <= counting.DEFAULT_BRUTEFORCE_BUDGET:
        assert count == count_independent_sets_bruteforce(graph)


def _hypercube(d):
    """Q_d: the Cayley graph of Z2^d with the standard basis."""
    spec = make_group([2] * d)
    return build_cayley(spec, GeneratorSet(spec, {coords_to_id(spec, [int(i == j) for j in range(d)])
                                                  for i in range(d)}))


def test_engine_choice():
    for seed in (1, 7):
        ring = build_gadget_ring(GadgetRingConfig(d=3, t=3, seed=seed)).graph
        assert chosen_engine(ring) == "frontier"
    # a band goes to the frontier DP in id order: its bound sum_v 2^|L_v|
    # (2 at v = 0, 4 at v = 1..38, 1 at v = 39) exceeds V + E = 40 + 58, so
    # the breadth-first order is formed, but that order is id order itself,
    # and the tie keeps the graph's own rows.  The choice is kept on the
    # graph, so each budget gets a new one
    for budget, engine in ((2 + 4 * 38 + 1, "frontier"), (2 + 4 * 38, "branching")):
        with patch.object(counting, "FRONTIER_STATE_BUDGET", budget):
            assert chosen_engine(_ladder(20)) == engine
    ladder = _ladder(20)
    assert counting._breadth_first_order(ladder.adj) == list(range(40))
    assert chosen_engine(ladder) == "frontier"
    assert counting._route(ladder)[1] is ladder.adj
    # the d=3, t=100 ring's id-order bound is below V^2 but above V + E =
    # 5,000, so its breadth-first order is formed, and its bound is lower
    ring = build_gadget_ring(GadgetRingConfig(d=3, t=100, seed=1)).graph
    bfs_rows = counting._relabeled(ring.adj, counting._breadth_first_order(ring.adj))
    assert counting._state_bound(ring.adj, counting.FRONTIER_STATE_BUDGET) == 624_359
    assert counting._state_bound(bfs_rows, counting.FRONTIER_STATE_BUDGET) == 155_167
    assert counting._route(ring) == ("frontier", bfs_rows)
    assert count_independent_sets(ring, budget=2000) == counting._count_frontier(ring.adj)
    # shuffled, the ladder is no band in id order, but its breadth-first
    # order is one, and the DP runs over that order
    shuffled = list(range(40))
    random.Random(3).shuffle(shuffled)
    shuffled = _relabeled(40, ladder.edges(), shuffled)
    assert counting._state_bound(shuffled.adj, counting.FRONTIER_STATE_BUDGET) > 40 ** 2
    assert counting._route(shuffled) == (
        "frontier", counting._relabeled(shuffled.adj, counting._breadth_first_order(shuffled.adj)))
    assert count_independent_sets(shuffled) == count_independent_sets(ladder)
    for graph in (cycle_graph(24), _hypercube(5), _hypercube(6), complete_bipartite_graph(6)):
        assert chosen_engine(graph) == "branching"


def test_breadth_first_order():
    # two components, {0, 2, 4, 5} and {1, 3}: 0's neighbors 5 and 2 come in
    # id order, then 2's new neighbor 4; then 1, the least vertex left
    edges = [(0, 5), (0, 2), (2, 4), (1, 3)]
    assert counting._breadth_first_order(_relabeled(6, edges, range(6)).adj) == [0, 2, 5, 4, 1, 3]
    assert counting._breadth_first_order(()) == []


def test_odd_circulants_keep_id_order(monkeypatch):
    # the id-order bound exceeds V + E and TAU^V exceeds V^2, so the
    # breadth-first order is formed, and its bound is the higher one: (20,5) 38,911 against 30,783 in id order,
    # (40,9) 44.6M against 16.3M
    formed = []
    order = counting._breadth_first_order
    monkeypatch.setattr(counting, "_breadth_first_order",
                        lambda adj: formed.append(len(adj)) or order(adj))
    for n, d, engine in ((20, 5, "frontier"), (40, 9, "branching")):
        graph = build_odd_circulant(OddCirculantConfig(n=n, d=d))
        assert counting._route(graph) == (engine, graph.adj)
        assert formed.pop() == 2 * n


def test_a_tie_keeps_id_order(monkeypatch):
    # a path of four 10-cliques, each joined to the next by one edge: its
    # bound in id order is above V + E, and its breadth-first order is id
    # order itself, so the two bounds tie and the graph's own rows are kept
    edges = [(b * 10 + i, b * 10 + j) for b in range(4) for i in range(10) for j in range(i + 1, 10)]
    edges += [(b * 10 + 9, b * 10 + 10) for b in range(3)]
    graph = _relabeled(40, edges, range(40))
    assert counting._breadth_first_order(graph.adj) == list(range(40))
    assert counting._state_bound(graph.adj, counting.FRONTIER_STATE_BUDGET) > 40 ** 2
    assert counting._route(graph)[1] is graph.adj


def _refuse_a_second_order(adj):
    raise AssertionError("a second vertex order was formed")


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 17), st.sampled_from((0.1, 0.3, 0.6, 0.9)), st.integers(0, 2 ** 32))
def test_small_graphs_form_no_second_order(n, density, seed):
    # tau^17 is about 240, below 17^2, so no graph of at most 17 vertices
    # forms the breadth-first order: the choice does the id-order work only
    rng = random.Random(seed)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < density]
    graph = _relabeled(n, edges, range(n))
    with patch.object(counting, "_breadth_first_order", _refuse_a_second_order):
        assert count_independent_sets(graph) == count_independent_sets_bruteforce(graph)


@st.composite
def relabeled_bands(draw):
    """Rings of cliques, ladders and gadget rings of 18-60 vertices under a
    random relabeling: of the whole graph, or within consecutive windows,
    which leaves id order a wider band."""
    kind = draw(st.sampled_from(("cliques", "ladder", "gadget")))
    if kind == "cliques":
        size = draw(st.integers(3, 5))         # cliques of 2 would make a cycle
        k = draw(st.integers(-(-18 // size), 60 // size))
        n = size * k
        edges = [(b * size + i, b * size + j)
                 for b in range(k) for i in range(size) for j in range(i + 1, size)]
        edges += [(b * size + size - 1, (b + 1) % k * size) for b in range(k)]
    elif kind == "ladder":
        k = draw(st.integers(9, 30))
        n = 2 * k
        edges = _ladder(k).edges()
        if draw(st.booleans()):
            edges += [(n - 2, 0), (n - 1, 1)]
    else:
        d, t = draw(st.sampled_from(((3, 2), (3, 3), (4, 2))))
        graph = build_gadget_ring(GadgetRingConfig(d=d, t=t, seed=draw(st.integers(0, 50)))).graph
        n, edges = graph.vcount, graph.edges()
    window = draw(st.sampled_from((2, 4, 6, n)))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    label = []
    for start in range(0, n, window):
        block = list(range(start, min(start + window, n)))
        rng.shuffle(block)
        label += block
    return _relabeled(n, edges, label)


@settings(max_examples=80, deadline=None)
@given(relabeled_bands())
def test_dp_in_the_chosen_order_matches_id_order_and_branching(graph):
    engine, rows = counting._route(graph)
    event(f"{engine}, {'id' if rows is graph.adj else 'breadth-first'} order")
    count = count_by("branching", graph)
    assert count_independent_sets(graph) == count
    if engine == "frontier":
        assert counting._count_frontier(rows) == count
    # the id-order DP where its bound keeps it cheap
    if counting._state_bound(graph.adj, 1 << 16) <= 1 << 16:
        event("id-order DP checked")
        assert counting._count_frontier(graph.adj) == count
    if graph.vcount <= counting.DEFAULT_BRUTEFORCE_BUDGET:
        assert count == count_independent_sets_bruteforce(graph)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.booleans(), st.integers(1, 12)), min_size=1, max_size=4),
       st.data())
def test_graphs_of_maximum_degree_two_branch(parts, data):
    # paths and cycles, in id order or relabeled, stay on the closed forms
    edges, n = [], 0
    for cyclic, k in parts:
        edges += [(n + i, n + i + 1) for i in range(k - 1)]
        if cyclic and k >= 3:
            edges.append((n + k - 1, n))
        n += k
    label = data.draw(st.permutations(range(n))) if data.draw(st.booleans()) else range(n)
    assert chosen_engine(_relabeled(n, edges, label)) == "branching"


def test_hypercube_counts():
    known = {2: 7, 3: 35, 4: 743, 5: 254475, 6: 19768832143}
    for d, count in known.items():
        assert count_independent_sets(_hypercube(d)) == count
        # Q6 has too wide a frontier for the DP in a test run
        if d <= 5:
            assert count_by("frontier", _hypercube(d)) == count


def test_monotone_under_added_generators():
    # adding generators only adds edges, which can only remove independent sets
    spec = make_group([12])
    nested = [{1, 11}, {1, 11, 2, 10}, {1, 11, 2, 10, 3, 9}]
    counts = [count_independent_sets(build_cayley(spec, GeneratorSet(spec, d)))
              for d in nested]
    assert counts[0] >= counts[1] >= counts[2]


def _brute_small_2linked_closed(graph):
    """Independent oracle: scan every subset of X for closed 2-linked small."""
    xs = bits_list(graph.parts[0])
    n = len(xs)
    out = set()
    for sub in range(1, 1 << n):
        mask = 0
        for i, v in enumerate(xs):
            if sub >> i & 1:
                mask |= 1 << v
        rec = closure(graph, mask)
        if rec.closure != mask:
            continue
        if 2 * rec.a > n:
            continue
        if len(graph.components(mask, hops=2)) != 1:
            continue
        out.add(mask)
    return out


def test_enumeration_matches_subset_scan():
    for g in (cycle_graph(8), cycle_graph(12), complete_bipartite_graph(3)):
        expected = _brute_small_2linked_closed(g)
        got = {rec.closure for rec in enumerate_small_2linked_closed(g, "X")}
        assert got == expected


def test_enumeration_c8_records():
    g = cycle_graph(8)
    recs = {rec.closure: rec for rec in enumerate_small_2linked_closed(g, "X")}
    singles = {mask_of([v]) for v in (0, 2, 4, 6)}
    pairs = {mask_of([0, 2]), mask_of([2, 4]), mask_of([4, 6]), mask_of([6, 0])}
    assert set(recs) == singles | pairs
    for mask in singles:
        assert (recs[mask].a, recs[mask].g) == (1, 2)
    for mask in pairs:
        assert (recs[mask].a, recs[mask].g) == (2, 3)


def test_enumeration_complete_bipartite_is_empty():
    # every nonempty subset closes to the whole side
    for d in (2, 3, 4):
        assert list(enumerate_small_2linked_closed(complete_bipartite_graph(d), "X")) == []


def test_container_table_c8():
    table = container_table(cycle_graph(8))
    assert table.entries == {(1, 2): 4, (2, 3): 4}
    assert table.closed_entries == {(1, 2): 4, (2, 3): 4}
    assert table.rows() == [(1, 2, 1, 4), (2, 3, 1, 4)]


def test_a_side_other_than_x_or_y_is_refused():
    graph = cycle_graph(8)
    for side in ("x", "Z"):
        message = f"side must be 'X' or 'Y', got '{side}'"
        with pytest.raises(InvalidInputError, match=message):
            list(enumerate_small_2linked_closed(graph, side))
        with pytest.raises(InvalidInputError, match=message):
            list(orbit_representatives(graph, side))
        with pytest.raises(InvalidInputError, match=message):
            container_table(graph, side)


def test_container_table_c4_empty():
    # C4 is K_{2,2}: singleton closures already cover the whole side
    assert container_table(cycle_graph(4)).entries == {}


def test_preimage_counts():
    g = cycle_graph(8)
    rec = closure(g, mask_of([0, 2]))
    assert count_closure_preimages(g, rec) == 1
    rec = closure(g, mask_of([0]))
    assert count_closure_preimages(g, rec) == 1


@st.composite
def bipartite_graphs(draw):
    """A random bipartite graph on sides X = 0..nx-1 and Y = nx..; each side
    may end in vertices without neighbors, which lie in every closure."""
    nx_edged, ny_edged = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    nx_, ny = nx_edged + draw(st.integers(0, 2)), ny_edged + draw(st.integers(0, 2))
    edges = draw(st.sets(st.tuples(st.integers(0, nx_edged - 1), st.integers(0, ny_edged - 1))))
    adj = [0] * (nx_ + ny)
    for x, y in edges:
        adj[x] |= 1 << (nx_ + y)
        adj[nx_ + y] |= 1 << x
    x_mask = (1 << nx_) - 1
    return Graph(adj, parts=(x_mask, ((1 << (nx_ + ny)) - 1) & ~x_mask))


def _enumerate_from_scratch(graph, side):
    """The walk of enumerate_small_2linked_closed with every child closed
    from scratch, as [state + v] = interior(side, N(state + v)), and every
    record built by closure()."""
    side_mask = graph.parts[0] if side == "X" else graph.parts[1]
    n = side_mask.bit_count()
    seen, queue, out = set(), [0], []
    for state in queue:
        if state:
            out.append(closure(graph, state, side_mask))
            grow = graph.nbhd(graph.nbhd(state)) & side_mask & ~state
        else:
            grow = side_mask
        for v in iter_bits(grow):
            child = graph.interior(side_mask, graph.nbhd(state | (1 << v)))
            if 2 * child.bit_count() > n or child in seen:
                continue
            seen.add(child)
            queue.append(child)
    return out


@settings(max_examples=200, deadline=None)
@given(bipartite_graphs(), st.sampled_from("XY"))
def test_incremental_enumeration_matches_from_scratch_walk(graph, side):
    assert list(enumerate_small_2linked_closed(graph, side)) == _enumerate_from_scratch(graph, side)


@settings(max_examples=150, deadline=None)
@given(bipartite_graphs(), st.sampled_from("XY"))
def test_state_budget_counts_queued_states(graph, side):
    # the budget counts the walk's states, not the neighborhood keys, which
    # also hold the oversized children
    states = len(_enumerate_from_scratch(graph, side))
    for budget in range(states + 2):
        with patch.object(counting, "ENUM_STATE_BUDGET", budget):
            if states > budget:
                with pytest.raises(InstanceTooLargeError):
                    list(enumerate_small_2linked_closed(graph, side))
            else:
                assert len(list(enumerate_small_2linked_closed(graph, side))) == states


@settings(max_examples=150, deadline=None)
@given(bipartite_graphs(), st.sampled_from("XY"), st.data())
def test_rooted_walk_is_the_full_walk_through_the_root(graph, side, data):
    side_mask = graph.parts[0] if side == "X" else graph.parts[1]
    linked = [v for v in iter_bits(side_mask) if graph.adj[v]]
    if not linked:
        return
    root = data.draw(st.sampled_from(linked))
    full = [rec for rec in enumerate_small_2linked_closed(graph, side) if rec.closure >> root & 1]
    rooted = list(enumerate_small_2linked_closed(graph, side, root))
    assert sorted(rooted, key=lambda rec: rec.closure) == sorted(full, key=lambda rec: rec.closure)


def test_rooted_walk_refuses_an_isolated_root():
    graph = Graph([0b100, 0, 0b1], parts=(0b011, 0b100))
    with pytest.raises(InvalidInputError):
        list(enumerate_small_2linked_closed(graph, "X", 1))


@st.composite
def bipartite_cayley_graphs(draw):
    """A Cayley graph on an Abelian group of even order <= 64, cyclic or
    not, whose generators all lie off the kernel of a random map to Z2, so
    that it is bipartite; it may be disconnected."""
    order = 2 * draw(st.integers(1, 32))
    spec = draw(st.sampled_from(enumerate_abelian_groups(order)))
    evens = [i for i, m in enumerate(spec.factors) if m % 2 == 0]
    odd_coords = draw(st.sets(st.sampled_from(evens), min_size=1))
    off_kernel = [x for x in range(order)
                  if sum(id_to_coords(spec, x)[i] for i in odd_coords) % 2]
    ids = draw(st.sets(st.sampled_from(off_kernel), min_size=1, max_size=4))
    return build_cayley(spec, GeneratorSet(spec, symmetrize(spec, ids)))


@settings(max_examples=150, deadline=None)
@given(bipartite_cayley_graphs(), st.sampled_from("XY"))
def test_orbit_table_equals_the_full_walk(graph, side):
    # a plain Graph with the same adjacency takes the full walk, the oracle;
    # a graph with more closed sets than it can walk quickly is passed over
    with patch.object(counting, "ENUM_STATE_BUDGET", 2000):
        try:
            full = container_table(Graph(graph.adj, graph.parts), side)
        except InstanceTooLargeError:
            return
    orbit = container_table(graph, side)
    assert orbit.n == full.n
    assert orbit.entries == full.entries
    assert orbit.closed_entries == full.closed_entries


def test_orbit_weights_count_stabilizers():
    # Z2 x Z2 x Z8: some closed sets are fixed by one or three translations,
    # so their orbits have n / |Stab(A)| = 8 or 4 sets, not 16
    spec = make_group([2, 2, 8])
    ids = {coords_to_id(spec, c) for c in
           ((1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 0, 7), (1, 0, 2), (1, 0, 6))}
    graph = build_cayley(spec, GeneratorSet(spec, ids))
    weights = [weight for _, weight in orbit_representatives(graph, "X")]
    assert sorted(set(weights)) == [4, 8, 16]
    orbit, full = container_table(graph), container_table(Graph(graph.adj, graph.parts))
    assert (orbit.entries, orbit.closed_entries) == (full.entries, full.closed_entries)


def _preimages_by_subset_loop(graph, rec, require_two_linked):
    """Every nonempty subset of the closure, its N(A) computed directly and
    its 2-linkage read from the networkx square graph on it."""
    nxg = nx.Graph(graph.edges())
    nxg.add_nodes_from(range(graph.vcount))
    verts = bits_list(rec.closure)
    count = 0
    for k in range(1, len(verts) + 1):
        for sub in combinations(verts, k):
            if graph.nbhd(mask_of(sub)) != rec.nbhd:
                continue
            if require_two_linked:
                square = nx.Graph()
                square.add_nodes_from(sub)
                for v in nxg:
                    square.add_edges_from(combinations(sorted(set(nxg[v]) & set(sub)), 2))
                if not nx.is_connected(square):
                    continue
            count += 1
    return count


@settings(max_examples=150, deadline=None)
@given(bipartite_graphs(), st.sampled_from("XY"), st.booleans(), st.data())
def test_half_table_preimages_match_subset_loop(graph, side, require_two_linked, data):
    side_mask = graph.parts[0] if side == "X" else graph.parts[1]
    a_mask = data.draw(st.sets(st.sampled_from(bits_list(side_mask))).map(mask_of))
    rec = closure(graph, a_mask, side_mask)
    assert count_closure_preimages(graph, rec, require_two_linked) == \
        _preimages_by_subset_loop(graph, rec, require_two_linked)


def test_half_table_preimages_at_odd_closure_sizes():
    # closures of 1, 3 and 5 vertices: the two half tables differ in size
    for graph in (cycle_graph(10), cycle_graph(12), complete_bipartite_graph(3),
                  complete_bipartite_graph(5)):
        x_mask = graph.parts[0]
        closed = (closure(graph, mask_of(sub), x_mask)
                  for k in range(1, 4) for sub in combinations(bits_list(x_mask), k))
        records = {rec.closure: rec for rec in closed}
        assert {rec.a % 2 for rec in records.values()} >= {1}
        for rec in records.values():
            for require_two_linked in (True, False):
                assert count_closure_preimages(graph, rec, require_two_linked) == \
                    _preimages_by_subset_loop(graph, rec, require_two_linked)


def test_side_sum_c4_example():
    sums = bipartite_bound_sum(cycle_graph(4))
    assert sums.sum_small_size == 6
    assert sums.doubled_small_size == 12
    assert sums.sum_small_closure == 4
    assert sums.doubled_small_closure == 8
    assert sums.doubled_small_size >= 7 and sums.doubled_small_closure >= 7


def test_side_sum_matches_direct_loop():
    # independent oracle: recompute both sums element by element
    for g in (cycle_graph(8), complete_bipartite_graph(3), cycle_graph(6)):
        xs = bits_list(g.parts[0])
        n = len(xs)
        by_size = 0
        by_closure = 0
        for sub in range(1 << n):
            mask = 0
            for i, v in enumerate(xs):
                if sub >> i & 1:
                    mask |= 1 << v
            rec = closure(g, mask)
            term = 2 ** (n - rec.g)
            if 2 * mask.bit_count() <= n:
                by_size += term
            if 2 * rec.a <= n:
                by_closure += term
        sums = bipartite_bound_sum(g)
        assert sums.sum_small_size == by_size
        assert sums.sum_small_closure == by_closure


def test_cluster_bound_c8():
    rep = cluster_bound(cycle_graph(8))
    assert rep.sum_all == Fraction(3, 2)
    assert rep.i_count == 47
    assert rep.holds
    assert abs(rep.bound_float - 143.414) < 0.01
    assert rep.bound_lower <= Fraction(144)


def test_cluster_bound_c4():
    rep = cluster_bound(cycle_graph(4))
    assert rep.sum_all == 0
    assert rep.bound_float == 8.0
    assert rep.holds  # 7 <= 8


def test_cluster_bound_complete_bipartite():
    for d in range(1, 7):
        rep = cluster_bound(complete_bipartite_graph(d))
        assert rep.sum_all == 0
        assert rep.i_count == 2 ** (d + 1) - 1
        assert rep.holds


def test_cluster_lower_bound_is_rigorous():
    import math
    rep = cluster_bound(cycle_graph(8))
    exact = 2 ** 5 * math.exp(1.5)
    assert float(rep.bound_lower) <= exact
    assert exact - float(rep.bound_lower) < 1e-10


def test_side_sum_requires_connected_bipartite():
    from cayleycount.errors import InvalidInputError
    from cayleycount.groups import GeneratorSet, coords_to_id

    spec = make_group([2, 4])
    # a perfect matching: bipartite but disconnected
    disconnected = build_cayley(spec, GeneratorSet(spec, {coords_to_id(spec, (1, 0))}))
    assert disconnected.parts is not None and not disconnected.is_connected()
    with pytest.raises(InvalidInputError):
        bipartite_bound_sum(disconnected)
    non_bipartite = cycle_graph(5)
    with pytest.raises(InvalidInputError):
        bipartite_bound_sum(non_bipartite)
