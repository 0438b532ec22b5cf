import math
import random

import pytest

from cayleycount.containers import (
    ApproxParams,
    PhiSampleConfig,
    boundary_container,
    check_phi,
    check_psi,
    contract,
    greedy_cover,
    phi_approx_sample,
    psi_approx,
    split_relative,
)
from cayleycount.counting import enumerate_small_2linked_closed
from cayleycount.errors import InvalidInputError, UncoverableError
from cayleycount.graphs import bits_list, build_cayley, closure, mask_of
from cayleycount.groups import GeneratorSet, make_group, symmetrize
from cayleycount.sumsets import chain_witness_search
from cayleycount.constructions import OddCirculantConfig, build_odd_circulant
from cayleycount.verify import cycle_graph


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
    with pytest.raises(UncoverableError):
        greedy_cover(0b11, [0b01])


def test_greedy_cover_bound_random():
    rng = random.Random(2)
    for _ in range(200):
        na, nb = rng.randint(1, 60), rng.randint(1, 20)
        sets = [0] * nb
        for v in range(na):
            for i in rng.sample(range(nb), rng.randint(1, nb)):
                sets[i] |= 1 << v
        res = greedy_cover((1 << na) - 1, sets)  # bound asserted internally
        assert res.chosen_mask == (1 << na) - 1


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


def test_check_phi_basics():
    g = cycle_graph(8)
    rec = closure(g, mask_of([0, 2]))
    assert check_phi(g, rec, rec.nbhd)          # F = G always valid
    assert not check_phi(g, rec, 0)             # empty F misses the closure
    assert not check_phi(g, rec, mask_of([5]))  # outside G entirely


def test_phi_sampler_degenerate_small_d():
    g = cycle_graph(8)
    rec = closure(g, mask_of([0, 2]))
    approx, rep = phi_approx_sample(g, rec, rec.boundary, seed=0)
    assert rep.degenerate
    assert approx.f_mask == rec.nbhd
    assert check_phi(g, rec, approx.f_mask)


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
        approx, rep = phi_approx_sample(g, rec, rec.boundary, seed=1)
        assert not rep.degenerate
        assert rep.retries <= 100
        assert check_phi(g, rec, approx.f_mask)
        # determinism: same seed gives the same certificate
        approx2, rep2 = phi_approx_sample(g, rec, rec.boundary, seed=1)
        assert approx2.f_mask == approx.f_mask and rep2.retries == rep.retries
        psi = psi_approx(g, rec, approx.f_mask)
        prep = check_psi(g, rec, psi)
        assert prep.valid
        assert prep.size_bound_ok


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
    from cayleycount.containers import PsiApprox
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
    for rec in records:
        bc = boundary_container(g, rec)
        assert not bc.fallback
        chain = chain_witness_search(g.group, rec.closure, g.gens.mask, k=3,
                                     c=math.log2(d) ** 2, mode="greedy")
        core = chain.chain[-1]
        g_core = g.nbhd(core)
        core_closed = 0
        for v in bits_list(x_side):
            if g.adj[v] & ~g_core == 0:
                core_closed |= 1 << v
        assert bc.core == core_closed & rec.closure, rec.closure


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


def test_phi_retry_cap_reported():
    g = big_band_graph()
    rec = closure(g, mask_of([0, 2]))
    cfg = PhiSampleConfig(max_retries=100, size_coeff=50.0)
    approx, rep = phi_approx_sample(g, rec, rec.boundary, seed=0, cfg=cfg)
    assert rep.retries <= cfg.max_retries
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
        approx, _ = phi_approx_sample(g, rec, g.parts[1], seed=2)
        assert check_phi(g, rec, approx.f_mask)


def test_phi_sampler_full_container_beyond_doubling_regime():
    # With C = Y nothing contracts, so the boundary-edge property needs the
    # standing doubling hypothesis |2D| >= d log^3 d, which no desk-scale
    # generator set satisfies.  Default thresholds therefore exhaust their
    # retries here; the properties are config, and a threshold matching the
    # actual p*t*d expectation lets the construction finish and stay valid.
    from cayleycount.errors import RetriesExhaustedError

    big = big_band_graph()
    rec = closure(big, mask_of([0, 2, 4]))
    with pytest.raises(RetriesExhaustedError):
        phi_approx_sample(big, rec, big.parts[1], seed=2,
                          cfg=PhiSampleConfig(max_retries=10))
    loose = PhiSampleConfig(edge_coeff=2000.0)
    approx, rep = phi_approx_sample(big, rec, big.parts[1], seed=2, cfg=loose)
    assert not rep.degenerate
    assert check_phi(big, rec, approx.f_mask)


def test_container_pipeline_on_y_side_records():
    g = build_odd_circulant(OddCirculantConfig(8, 3))
    for rec in enumerate_small_2linked_closed(g, "Y"):
        bc = boundary_container(g, rec)
        assert rec.boundary & ~bc.c_mask == 0
        approx, _ = phi_approx_sample(g, rec, bc.c_mask, seed=0)
        assert check_phi(g, rec, approx.f_mask)
        out = psi_approx(g, rec, approx.f_mask)
        assert check_psi(g, rec, out).valid
