import math
import os
import random
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from cayleycount import containers
from cayleycount.containers import (
    ApproxParams,
    CoverResult,
    PsiApprox,
    SuperVertex,
    boundary_container,
    check_phi,
    check_psi,
    contract,
    greedy_cover,
    phi_approx_sample,
    psi_approx,
    regular_degree,
    split_relative,
)
from cayleycount.counting import enumerate_small_2linked_closed
from cayleycount.errors import (
    InvalidInputError,
    InvariantViolation,
    RetriesExhaustedError,
)
from cayleycount.graphs import Graph, bits_list, build_cayley, closure, iter_bits, mask_of
from cayleycount.groups import GeneratorSet, coords_to_id, make_group, symmetrize
from cayleycount.sumsets import chain_witness_search, iterated_sumset, sumset
from cayleycount.constructions import OddCirculantConfig, build_odd_circulant
from cayleycount.verify import corpus_graphs, cycle_graph


def big_band_graph():
    """A 40-regular bipartite circulant large enough that the sampler's
    inclusion probability drops below 1 (the nondegenerate regime)."""
    rng = random.Random(5)
    spec = make_group([1200])
    base = set()
    while len(symmetrize(spec, base)) < 40:
        base.add(rng.randrange(1, 1200, 2))
    gens = GeneratorSet(spec, symmetrize(spec, base))
    graph = build_cayley(spec, gens)
    assert 60 * math.log2(gens.d) / gens.d2 < 1
    return graph


def test_approx_params():
    p = ApproxParams.for_degree(4)
    assert p.phi == 4 - math.sqrt(4) / 2
    assert p.psi == 2.0
    assert not p.phi_degenerate and not p.psi_degenerate
    p2 = ApproxParams.for_degree(2)
    assert p2.psi_degenerate  # psi = d at degree 2
    p1 = ApproxParams.for_degree(1)
    assert p1.phi_degenerate and p1.psi_degenerate


def test_greedy_cover_star():
    # four leaves covered by one center
    res = greedy_cover(0b1111, [0b1111])
    assert res.chosen == [0]
    assert len(res.chosen) <= res.bound


def test_greedy_cover_matching_is_tight():
    k = 6
    sets = [1 << i for i in range(k)]
    res = greedy_cover((1 << k) - 1, sets)
    assert len(res.chosen) == k
    assert res.bound == pytest.approx(k)  # (|B|/1)(1 + ln 1) = k


def test_greedy_cover_uncoverable():
    with pytest.raises(InvalidInputError, match="universe element 1 lies in no candidate set"):
        greedy_cover(0b11, [0b01])


def test_greedy_cover_bound_random():
    rng = random.Random(2)
    for _ in range(200):
        na, nb = rng.randint(1, 60), rng.randint(1, 20)
        sets = [0] * nb
        for v in range(na):
            for i in rng.sample(range(nb), rng.randint(1, nb)):
                sets[i] |= 1 << v
        res = greedy_cover((1 << na) - 1, sets)  # bound checked internally
        assert res.chosen_mask == (1 << na) - 1


def _greedy_cover_dict_counts(universe, candidates):
    """greedy_cover with its multiplicities counted in a dict over every bit
    of every candidate."""
    if universe == 0:
        return CoverResult([], 0, 0.0)
    restricted = [c & universe for c in candidates]
    cover_count = {}
    for c in restricted:
        for v in iter_bits(c):
            cover_count[v] = cover_count.get(v, 0) + 1
    for v in iter_bits(universe):
        if v not in cover_count:
            raise InvalidInputError(f"universe element {v} lies in no candidate set")
    a_min = min(cover_count[v] for v in iter_bits(universe))
    b_max = max(c.bit_count() for c in restricted)
    chosen, covered = [], 0
    while covered != universe:
        best_i, best_gain = -1, 0
        for i, c in enumerate(restricted):
            gain = (c & ~covered).bit_count()
            if gain > best_gain:
                best_i, best_gain = i, gain
        chosen.append(best_i)
        covered |= restricted[best_i]
    bound = (len(candidates) / a_min) * (1 + math.log(b_max))
    if len(chosen) > bound:
        raise InvariantViolation("greedy exceeded the Lovász-Stein guarantee")
    return CoverResult(chosen, covered, bound)


def _outcome(fn, universe, candidates):
    try:
        return fn(universe, candidates)
    except (InvalidInputError, InvariantViolation) as exc:
        return type(exc), str(exc)


@st.composite
def cover_instances(draw):
    """A universe of up to 200 bits and up to 40 candidates, the lovasz-stein
    suite's sizes; candidates may be empty, repeat one another, or reach
    past the universe."""
    bits = draw(st.integers(1, 200))
    universe = draw(st.integers(0, 2 ** bits - 1))
    candidates = draw(st.lists(st.one_of(st.just(0), st.integers(0, 2 ** (bits + 8) - 1)),
                               max_size=40))
    if candidates:
        repeats = draw(st.lists(st.sampled_from(candidates), max_size=8))
        candidates = draw(st.permutations(candidates + repeats))
    least = draw(st.integers(0, 3))
    if least:
        # every element in at least `least` candidates: coverable, so the
        # greedy loop runs, and a_min >= least
        universe |= 2 ** bits - 1
        for v in range(bits):
            if sum(c >> v & 1 for c in candidates) < least:
                universe &= ~(1 << v)
    return universe, candidates


@settings(max_examples=300, deadline=None)
@given(st.one_of(cover_instances(),
                 st.tuples(st.integers(0, 2 ** 12 - 1),
                           st.lists(st.integers(0, 2 ** 14 - 1), max_size=8))))
def test_greedy_cover_matches_dict_counts(instance):
    universe, candidates = instance
    assert _outcome(greedy_cover, universe, candidates) == \
        _outcome(_greedy_cover_dict_counts, universe, candidates)


def test_whole_graph_facts_are_checked_on_every_call():
    spec = make_group([2, 4])
    # two 4-cycles: bipartite, regular and disconnected
    split = build_cayley(spec, GeneratorSet(spec, {coords_to_id(spec, (0, 1)),
                                                   coords_to_id(spec, (0, 3))}))
    rec = closure(split, 1, split.parts[0])
    for _ in range(3):
        with pytest.raises(InvalidInputError):
            boundary_container(split, rec)
        with pytest.raises(InvalidInputError):
            phi_approx_sample(split, rec, rec.boundary)
    path = Graph([0b10, 0b101, 0b10], parts=(0b101, 0b10))     # degrees 1, 2, 1
    path_rec = closure(path, 1)
    for _ in range(3):
        with pytest.raises(InvalidInputError):
            regular_degree(path)
        with pytest.raises(InvalidInputError):
            check_phi(path, path_rec, path_rec.nbhd)
    # answers belong to one graph: a connected graph of the same order
    # built and asked in between changes nothing
    cycle = cycle_graph(8)
    assert not split.is_connected() and cycle.is_connected()
    assert regular_degree(cycle) == 2 and regular_degree(split) == 2
    assert not split.is_connected() and cycle.is_connected()
    assert path.is_connected() and path.degrees() == {1, 2}
    assert cycle.degrees() == {2}


# With ln patched to -1 the Lovász-Stein bound (|B|/a)(1 + ln b) is 0, so
# every nonempty cover exceeds it.
_BROKEN_BOUND = """
import sys
from cayleycount import containers, verify
from cayleycount.errors import InvariantViolation
containers.math.log = lambda x: -1.0
try:
    containers.greedy_cover(1, [1])
    raised = False
except InvariantViolation:
    raised = True
res = verify.sweep_lovasz_stein(trials=3)
print(sys.flags.optimize, raised, res.checked, res.violations)
"""


def test_invariants_survive_python_O():
    src = str(Path(containers.__file__).parent.parent)
    out = subprocess.run([sys.executable, "-O", "-c", _BROKEN_BOUND], capture_output=True,
                         text=True, check=True, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.split() == ["1", "True", "3", "3"]


def test_contract_trivial():
    g = cycle_graph(8)
    state = contract(g, g.parts[1])
    assert state.r_mask == g.parts[0]
    assert state.supers == []


def test_contract_single_step():
    g = cycle_graph(8)
    state = contract(g, g.parts[1] & ~(1 << 1))
    assert len(state.supers) == 1
    sv = state.supers[0]
    assert sv.s_mask == mask_of([0, 2])
    assert sv.nbhd == mask_of([3, 7])
    assert sv.members == mask_of([0, 1, 2])


def test_contract_partitions_x():
    g = cycle_graph(12)
    rng = random.Random(4)
    ys = bits_list(g.parts[1])
    for _ in range(20):
        keep = [y for y in ys if rng.random() < 0.5]
        state = contract(g, mask_of(keep))
        assert state.x_partition_ok(g.parts[0])


def _contract_by_merging(graph, c_mask, side):
    """contract as a merge loop: each Y-vertex outside C, in id order, merges
    its remaining X-neighbors and every super-vertex it borders into one."""
    adj = graph.adj
    x_rem = graph.full_mask() & ~side
    supers = []
    for u in bits_list(side & ~c_mask):
        orig = adj[u] & x_rem
        keep, s_new = [], orig
        for sv in supers:
            if sv.nbhd >> u & 1:
                s_new |= sv.s_mask
            else:
                keep.append(sv)
        if s_new == 0:
            continue
        ns = graph.nbhd(s_new)
        nsd = graph.interior(ns, s_new)
        supers = keep + [SuperVertex(s_new, s_new | nsd, ns & ~nsd)]
        x_rem &= ~orig
    return x_rem, supers


def _as_merged(graph, c_mask, side):
    """contract's R and super-vertices, and the merge loop's, each as R,
    the number of super-vertices and the set of their fields."""
    state = contract(graph, c_mask, side)
    return [(r_mask, len(supers), {(sv.s_mask, sv.members, sv.nbhd) for sv in supers})
            for r_mask, supers in ((state.r_mask, state.supers),
                                   _contract_by_merging(graph, c_mask, side))]


ORACLE_GRAPHS = [build_odd_circulant(OddCirculantConfig(n, d))
                 for n, d in ((8, 3), (12, 3), (16, 5), (20, 5), (32, 7))] + [
    g for _, g in list(corpus_graphs(12))[::7] if g.parts is not None and g.is_connected()]


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(ORACLE_GRAPHS + [cycle_graph(8), cycle_graph(12), cycle_graph(24)]),
       st.integers(0, 1), st.sampled_from([0.0, 0.1, 0.3, 0.5, 0.7, 0.9, 1.0]),
       st.integers(0, 2 ** 32))
def test_contract_matches_the_merge_loop(graph, which, density, seed):
    side = graph.parts[which]
    rng = random.Random(seed)
    c_mask = mask_of(v for v in bits_list(side) if rng.random() < density)
    new, old = _as_merged(graph, c_mask, side)
    assert new == old


def test_contract_matches_the_merge_loop_on_the_band_graph():
    g = big_band_graph()
    rec = closure(g, mask_of([0, 2, 4]))
    y_side = g.full_mask() & ~rec.side
    for c_mask in (rec.boundary, y_side, rec.nbhd):
        new, old = _as_merged(g, c_mask, y_side)
        assert new == old


def test_contract_skips_a_y_vertex_without_neighbors():
    # a path 0 - 1 - 2 with Y = {1, 3}, vertex 3 isolated
    g = Graph([0b10, 0b101, 0b10, 0], parts=(0b101, 0b1010))
    for c_mask in (0, 0b10, 0b1000):
        new, old = _as_merged(g, c_mask, g.parts[1])
        assert new == old


def test_check_phi_basics():
    g = cycle_graph(8)
    rec = closure(g, mask_of([0, 2]))
    assert check_phi(g, rec, rec.nbhd)          # F = G always valid
    assert not check_phi(g, rec, 0)             # empty F misses the closure
    assert not check_phi(g, rec, mask_of([5]))  # outside G entirely


def test_phi_sampler_degenerate_small_d():
    g = cycle_graph(8)
    rec = closure(g, mask_of([0, 2]))
    f_mask, rep = phi_approx_sample(g, rec, rec.boundary, seed=0)
    assert rep.degenerate
    assert f_mask == rec.nbhd
    assert check_phi(g, rec, f_mask)


def test_phi_sampler_preconditions():
    g = cycle_graph(8)
    rec = closure(g, mask_of([0, 2]))
    with pytest.raises(InvalidInputError):
        phi_approx_sample(g, rec, 0, seed=0)  # C misses the boundary
    big = closure(g, g.parts[0])
    with pytest.raises(InvalidInputError):
        phi_approx_sample(g, big, big.boundary, seed=0)  # not small


def test_phi_sampler_nondegenerate():
    g = big_band_graph()
    for seed_mask in ([0, 2], [0, 2, 4], [0, 2, 4, 6, 8]):
        rec = closure(g, mask_of(seed_mask))
        assert rec.small
        f_mask, rep = phi_approx_sample(g, rec, rec.boundary, seed=1)
        assert not rep.degenerate
        assert rep.retries <= 100
        assert check_phi(g, rec, f_mask)
        # determinism: same seed gives the same certificate
        f_mask2, rep2 = phi_approx_sample(g, rec, rec.boundary, seed=1)
        assert f_mask2 == f_mask and rep2.retries == rep.retries
        psi = psi_approx(g, rec, f_mask)
        prep = check_psi(g, rec, psi)
        assert prep.valid
        assert prep.size_bound_ok


def test_phi_sampler_with_a_super_vertex_inside_the_closure():
    # A = N(y) for a Y-vertex y, and C = G' = G - y: y lies outside C, so the
    # contraction merges N(y) into one super-vertex inside the closure, whose
    # member y is rebuilt as an interior vertex, and whose neighborhood a
    # draw of Q0 that meets it adds to Z1
    g = big_band_graph()
    y = 1
    rec = closure(g, g.adj[y])
    assert rec.small and rec.boundary == rec.nbhd & ~(1 << y)
    state = contract(g, rec.boundary, side=g.full_mask() & ~rec.side)
    _, _, sup_a, _ = split_relative(state, rec)
    assert [sv.s_mask for sv in sup_a] == [g.adj[y]]
    assert sup_a[0].members & ~rec.side == 1 << y
    for seed in range(3):
        f_mask, rep = phi_approx_sample(g, rec, rec.boundary, seed)
        assert not rep.degenerate and rep.retries == 1
        assert check_phi(g, rec, f_mask)


def _psi_approx_by_restarts(graph, rec, f_mask):
    """psi_approx with each loop restarted from the least vertex after
    every step."""
    d = regular_degree(graph)
    psi = ApproxParams.for_degree(d).psi
    adj = graph.adj
    y_side = graph.full_mask() & ~rec.side
    f_prime = f_mask
    while True:
        grow = [u for u in iter_bits(rec.closure)
                if (adj[u] & rec.nbhd & ~f_prime).bit_count() >= psi]
        if not grow:
            break
        f_prime |= adj[grow[0]]
    s_mask = graph.heavy(rec.side, f_prime, d - psi)
    while True:
        strip = [w for w in iter_bits(y_side & ~f_prime) if (adj[w] & s_mask).bit_count() > psi]
        if not strip:
            break
        s_mask &= ~adj[strip[0]]
    return PsiApprox(s_mask, f_prime)


def _thinned(graph, rec, drop):
    """F = G less the vertices of `drop`, each left out, in id order, while F
    stays a phi-approximation: an F for which loop 1 has work."""
    f_mask = rec.nbhd
    for v in iter_bits(drop & rec.nbhd):
        if check_phi(graph, rec, f_mask & ~(1 << v)):
            f_mask &= ~(1 << v)
    return f_mask


PSI_ORACLE_RECORDS = [(g, rec) for g in ORACLE_GRAPHS for side in "XY"
                      for rec in enumerate_small_2linked_closed(g, side)]


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(PSI_ORACLE_RECORDS), st.sampled_from(["G", "sampled", "thinned"]),
       st.integers(0, 3), st.integers(0, 2 ** 64 - 1))
def test_psi_approx_matches_the_restart_loops(graph_rec, start, seed, drop):
    graph, rec = graph_rec
    if start == "G":
        f_mask = rec.nbhd
    elif start == "sampled":
        f_mask, _ = phi_approx_sample(graph, rec, boundary_container(graph, rec).c_mask, seed)
    else:
        f_mask = _thinned(graph, rec, drop)
    assert psi_approx(graph, rec, f_mask) == _psi_approx_by_restarts(graph, rec, f_mask)


def test_psi_approx_matches_the_restart_loops_on_the_band_graph():
    # the band graph is the one instance whose sampler is not degenerate
    g = big_band_graph()
    rng = random.Random(3)
    for seed_mask in ([0, 2], [0, 2, 4], [0, 2, 4, 6, 8]):
        rec = closure(g, mask_of(seed_mask))
        for seed in range(2):
            f_mask, rep = phi_approx_sample(g, rec, rec.boundary, seed)
            assert not rep.degenerate
            for f in (f_mask, _thinned(g, rec, rng.getrandbits(g.vcount))):
                assert psi_approx(g, rec, f) == _psi_approx_by_restarts(g, rec, f)


def test_psi_c8_trace():
    # degree 2: psi = d, the algorithm idles and returns (X, G)
    g = cycle_graph(8)
    rec = closure(g, mask_of([0, 2]))
    out = psi_approx(g, rec, rec.nbhd)
    assert out.s_mask == g.parts[0]
    assert out.f_mask == rec.nbhd
    rep = check_psi(g, rec, out)
    assert rep.valid
    assert rep.size_bound_ok is None  # division by d - psi = 0 is flagged, not asserted


def test_psi_requires_phi_approximation():
    g = cycle_graph(8)
    rec = closure(g, mask_of([0, 2]))
    with pytest.raises(InvalidInputError):
        psi_approx(g, rec, 0)


def test_check_psi_rejects_bad_pairs():
    g = cycle_graph(8)
    rec = closure(g, mask_of([0, 2]))
    rep = check_psi(g, rec, PsiApprox(0, rec.nbhd))
    assert not rep.valid and not rep.covers_closure


def test_psi_loop2_fires_and_keeps_closure():
    # degree-4 instance where the S-trimming loop actually removes vertices
    g = build_odd_circulant(OddCirculantConfig(8, 3))
    rec = closure(g, mask_of([0, 2, 4, 6]))
    assert rec.small and rec.t == 3
    out = psi_approx(g, rec, rec.nbhd)
    assert out.s_mask == mask_of([0, 2, 4, 6])
    rep = check_psi(g, rec, out)
    assert rep.valid and rep.size_bound_ok


def test_boundary_container_covers_and_fallback():
    # degree 2: cover machinery degenerates, C = G' is returned
    g = cycle_graph(8)
    rec = closure(g, mask_of([0, 2]))
    bc = boundary_container(g, rec)
    assert bc.fallback
    assert bc.c_mask == rec.boundary == mask_of([3, 7])

    # degree 4: the structured path runs and still covers G'
    oc = build_odd_circulant(OddCirculantConfig(8, 3))
    for rec in enumerate_small_2linked_closed(oc, "X"):
        bc = boundary_container(oc, rec)
        assert not bc.fallback
        assert rec.boundary & ~bc.c_mask == 0


def test_boundary_container_core_is_the_closed_chain_end():
    # oracle: the chain's last set, closed on X by hand and cut to [A]
    g = build_odd_circulant(OddCirculantConfig(16, 5))
    d = g.degree(0)
    x_side = g.parts[0]
    records = list(enumerate_small_2linked_closed(g, "X"))
    assert records
    powers = tuple(iterated_sumset(g.group, g.gens.mask, g.gens.mask, i) for i in range(4))
    c = Fraction(math.log2(d) ** 2).limit_denominator(10**6)
    c_out = Fraction(math.log2(d) ** 2 * math.log2(d)).limit_denominator(10**6)
    assert g.chain_inputs() == (powers, c, c_out)
    for rec in records:
        bc = boundary_container(g, rec)
        assert not bc.fallback
        chain = chain_witness_search(g.group, rec.closure, powers, c, mode="greedy")
        core = chain.chain[-1]
        g_core = g.nbhd(core)
        core_closed = 0
        for v in bits_list(x_side):
            if g.adj[v] & ~g_core == 0:
                core_closed |= 1 << v
        assert bc.core == core_closed & rec.closure, rec.closure


def _boundary_container_by_reclosure(graph, rec):
    """boundary_container as it was before it read N^2 and N^3 off the
    chains' level sums: the core re-closed and every neighborhood formed,
    whatever the chains removed.  The chain search is looked up on the
    containers module, so a patched search reaches both."""
    d = regular_degree(graph)
    spec = graph.group
    x_side = rec.side
    y_side = graph.full_mask() & ~x_side
    powers, c, c_out = graph.chain_inputs()
    chain = containers.chain_witness_search(spec, rec.closure, powers, c, mode="greedy")
    core_rec = closure(graph, chain.chain[-1], x_side)
    core, g_core = core_rec.closure, core_rec.nbhd
    n2_core = graph.nbhd(g_core)
    a0 = n2_core & ~core
    g0 = graph.nbhd(n2_core) & ~g_core
    heavy = graph.heavy(core_rec.boundary, a0, d / 2)
    light = core_rec.boundary & ~heavy
    z2 = containers.neighborhood_cover(graph, heavy, a0)
    outside = y_side & ~g_core
    m_prime = outside
    if outside:
        chain_out = containers.chain_witness_search(spec, outside, powers[:3], c_out,
                                                    mode="greedy")
        m_prime = chain_out.chain[-1]
    n2_m = graph.nbhd_iter(m_prime, 2)
    a2 = graph.nbhd(n2_m) & core
    z3 = containers.neighborhood_cover(graph, light & n2_m, a2)
    residual = graph.nbhd_iter((outside & ~m_prime) & g0, 2)
    tail = graph.nbhd(rec.closure & ~core)
    return graph.nbhd(z2) | graph.nbhd(z3) | residual | tail, core


def _non_cyclic_graph():
    spec = make_group([2, 2, 8])
    return build_cayley(spec, GeneratorSet(spec, {coords_to_id(spec, c) for c in (
        (1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 0, 7), (1, 0, 2), (1, 0, 6))}))


@pytest.mark.parametrize("trimmed", [(), (3,), (2,), (2, 3)])
def test_boundary_container_matches_the_reclosing_construction(monkeypatch, trimmed):
    # No chain of a connected bipartite Cayley graph with d >= 4 searched so
    # far removes an element (odd circulants up to n = 40 and random groups up
    # to order 128), so the trimmed branch is forced: a search of depth k in
    # `trimmed` (3 for the core, 2 for M') drops the largest element of M from
    # every later level.  Its level sums are formed anew, as the search would.
    search = containers.chain_witness_search
    trims = []

    def trimming_search(spec, m_set, powers, c, mode):
        wit = search(spec, m_set, powers, c, mode)
        if len(powers) - 1 not in trimmed or m_set.bit_count() < 2:
            return wit
        top = 1 << (m_set.bit_length() - 1)
        chain = wit.chain[:1] + [s & ~top for s in wit.chain[1:]]
        trims.append(len(powers) - 1)
        return replace(wit, chain=chain,
                       sums=[sumset(spec, s, powers[i]) for i, s in enumerate(chain)])

    monkeypatch.setattr(containers, "chain_witness_search", trimming_search)
    cores_cut = 0
    for graph in (build_odd_circulant(OddCirculantConfig(16, 5)), _non_cyclic_graph()):
        for side in "XY":
            for rec in enumerate_small_2linked_closed(graph, side):
                bc = boundary_container(graph, rec)
                assert (bc.c_mask, bc.core) == _boundary_container_by_reclosure(graph, rec)
                cores_cut += bc.core != rec.closure
    assert set(trims) == set(trimmed)
    assert (cores_cut > 0) == (3 in trimmed)


def test_boundary_container_nondegenerate_instance():
    g = big_band_graph()
    rec = closure(g, mask_of([0, 2, 4]))
    bc = boundary_container(g, rec)
    assert not bc.fallback
    assert rec.boundary & ~bc.c_mask == 0
    assert bc.ratio is not None


def test_split_relative_classifies_supers():
    g = build_odd_circulant(OddCirculantConfig(8, 3))
    rec = closure(g, mask_of([0, 2, 4, 6]))
    state = contract(g, rec.boundary)
    r_a, r_ac, sup_a, sup_ac = split_relative(state, rec)
    assert (r_a | r_ac) == state.r_mask
    for sv in sup_a:
        assert sv.s_mask & ~rec.closure == 0
    for sv in sup_ac:
        assert sv.s_mask & ~rec.closure


def test_phi_retry_cap_reported(monkeypatch):
    monkeypatch.setattr(containers, "PHI_RETRIES", 100)
    g = big_band_graph()
    rec = closure(g, mask_of([0, 2]))
    f_mask, rep = phi_approx_sample(g, rec, rec.boundary, seed=0)
    assert rep.retries <= containers.PHI_RETRIES
    assert rep.properties is not None and all(rep.properties)


def test_check_phi_manipulated_sets():
    # degree 2: every vertex of G is phi-heavy, so any proper subset fails
    g = cycle_graph(8)
    rec = closure(g, mask_of([0, 2]))
    for y in bits_list(rec.nbhd):
        assert not check_phi(g, rec, rec.nbhd & ~(1 << y))


def test_phi_sampler_with_full_container():
    # C = Y is the loosest valid container; the sampler must still succeed
    g = build_odd_circulant(OddCirculantConfig(8, 3))
    for rec in enumerate_small_2linked_closed(g, "X"):
        f_mask, _ = phi_approx_sample(g, rec, g.parts[1], seed=2)
        assert check_phi(g, rec, f_mask)


def test_phi_sampler_full_container_beyond_doubling_regime(monkeypatch):
    # With C = Y nothing contracts, so the boundary-edge property needs the
    # standing doubling hypothesis |2D| >= d log^3 d, which no desk-scale
    # generator set satisfies.  Default thresholds therefore exhaust their
    # retries here; the thresholds are module constants, and one matching
    # the actual p*t*d expectation lets the construction finish and stay valid.
    big = big_band_graph()
    rec = closure(big, mask_of([0, 2, 4]))
    with monkeypatch.context() as patch:
        patch.setattr(containers, "PHI_RETRIES", 10)
        with pytest.raises(RetriesExhaustedError):
            phi_approx_sample(big, rec, big.parts[1], seed=2)
    monkeypatch.setattr(containers, "PHI_EDGE_COEFF", 2000.0)
    f_mask, rep = phi_approx_sample(big, rec, big.parts[1], seed=2)
    assert not rep.degenerate
    assert check_phi(big, rec, f_mask)


def test_cayley_steps_refuse_a_plain_graph():
    oc = build_odd_circulant(OddCirculantConfig(16, 5))
    plain = Graph(oc.adj, oc.parts)
    rec = closure(plain, 1, plain.parts[0])
    for step in (lambda: boundary_container(plain, rec),
                 lambda: phi_approx_sample(plain, rec, rec.boundary)):
        with pytest.raises(InvalidInputError, match="needs a Cayley graph"):
            step()
    # psi and the checks take any regular bipartite graph
    assert psi_approx(plain, rec, rec.nbhd) == psi_approx(oc, rec, rec.nbhd)
    assert check_psi(plain, rec, psi_approx(plain, rec, rec.nbhd)).valid


def test_container_pipeline_on_y_side_records():
    g = build_odd_circulant(OddCirculantConfig(8, 3))
    for rec in enumerate_small_2linked_closed(g, "Y"):
        bc = boundary_container(g, rec)
        assert rec.boundary & ~bc.c_mask == 0
        f_mask, _ = phi_approx_sample(g, rec, bc.c_mask, seed=0)
        assert check_phi(g, rec, f_mask)
        out = psi_approx(g, rec, f_mask)
        assert check_psi(g, rec, out).valid
