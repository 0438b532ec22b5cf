from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from cayleycount import groups
from cayleycount.errors import InvalidInputError, SearchSpaceTooLargeError
from cayleycount.graphs import iter_bits, mask_of
from cayleycount.groups import GeneratorSet, add_ids, make_group, symmetrize
from cayleycount.sumsets import (
    ThinningConfig,
    basic_expansion_check,
    chain_witness_search,
    iterated_growth_check,
    iterated_sumset,
    minimal_generating_subset,
    olson_check,
    prp_witness_search,
    sumset,
    sumset_stats,
    thin_generators,
)


def test_sumset_examples():
    assert sumset is groups.sumset  # one kernel, defined in groups
    z4 = make_group([4])
    assert sumset(z4, mask_of({0, 1}), mask_of({0, 1})) == mask_of({0, 1, 2})
    z8 = make_group([8])
    assert sumset(z8, mask_of({1, 7}), mask_of({1, 7})) == mask_of({0, 2, 6})
    assert sumset(z8, mask_of({1, 2, 3}), mask_of(set())) == mask_of(set())
    assert sumset(z8, mask_of({3, 5}), mask_of({0})) == mask_of({3, 5})


def test_iterated_sumset_conventions():
    z8 = make_group([8])
    assert iterated_sumset(z8, mask_of([0]), mask_of({1, 7}), 0) == mask_of({0})
    assert iterated_sumset(z8, mask_of([0]), mask_of({1, 7}), 2) == mask_of({0, 2, 6})


def _oracle_sumset(spec, a, b):
    return frozenset(add_ids(spec, x, y) for x in a for y in b)


def _oracle_iterated(spec, a, d, i):
    out = frozenset(a)
    for _ in range(i):
        out = _oracle_sumset(spec, out, d)
    return out


# cyclic, non-cyclic, and without addition tables (Z1024 is cyclic,
# Z2xZ4096 is above the table order limit)
ORACLE_GROUPS = [make_group(f) for f in (
    [7], [12], [2, 2], [2, 2, 2, 2], [2, 4, 8], [3, 6], [4, 4], [2, 6, 12], [1024],
    [2, 4096])]


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(ORACLE_GROUPS), st.data())
def test_mask_sumset_matches_add_ids_oracle(spec, data):
    def draw_set():
        return data.draw(st.sets(st.integers(0, spec.order - 1), max_size=8))
    a, b, d = draw_set(), draw_set(), draw_set()
    i = data.draw(st.integers(0, 3))
    got = sumset(spec, mask_of(a), mask_of(b))
    assert got == mask_of(_oracle_sumset(spec, a, b))
    got = iterated_sumset(spec, mask_of(a), mask_of(d), i)
    assert got == mask_of(_oracle_iterated(spec, a, d, i))


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 30), st.data())
def test_sumset_size_invariants(order, data):
    spec = make_group([order])
    a = mask_of(data.draw(st.sets(st.integers(0, order - 1), min_size=1, max_size=6)))
    b = mask_of(data.draw(st.sets(st.integers(0, order - 1), min_size=1, max_size=6)))
    ab = sumset(spec, a, b)
    assert ab.bit_count() >= max(a.bit_count(), b.bit_count())
    a2b = sumset(spec, ab, b)
    assert a2b.bit_count() >= ab.bit_count()


def test_growth_examples():
    z16 = make_group([16])
    rep = iterated_growth_check(z16, mask_of({0}), mask_of({1, 15}), 2)
    assert (rep.lhs, rep.rhs, rep.holds) == (3, 5, True)
    z32 = make_group([32])
    rep = iterated_growth_check(z32, mask_of({0, 4, 9}), mask_of({5}), 3)
    assert rep.t == 0 and rep.lhs == rep.m and rep.holds
    with pytest.raises(InvalidInputError):
        iterated_growth_check(z16, mask_of({0}), mask_of(set()), 2)
    with pytest.raises(InvalidInputError):
        iterated_growth_check(z16, mask_of({0}), mask_of({1}), 1)


def test_prp_examples():
    z64 = make_group([64])
    wit = prp_witness_search(z64, mask_of({0, 1, 2}), mask_of({0, 1}), 2)
    assert wit.alpha == Fraction(4, 3)
    assert wit.witness == mask_of({0, 1, 2})
    assert wit.lhs == 5 and wit.lhs <= wit.rhs
    wit = prp_witness_search(z64, mask_of({0, 7, 9}), mask_of({0}), 3)
    assert wit.alpha == 1 and wit.witness == mask_of({0, 7, 9})
    with pytest.raises(SearchSpaceTooLargeError):
        prp_witness_search(z64, mask_of(set(range(30))), mask_of({0, 1}), 2)
    with pytest.raises(InvalidInputError):
        prp_witness_search(z64, mask_of(set()), mask_of({0}), 2)


def test_olson_examples():
    z5 = make_group([5])
    rep = olson_check(z5, mask_of({0}), mask_of({0, 1}))
    assert rep.branch == "expanded" and rep.holds
    z4 = make_group([4])
    rep = olson_check(z4, mask_of({0, 2}), mask_of({0, 2}))
    assert rep.branch == "stabilized" and rep.holds
    # the shifted path: N without 0
    z7 = make_group([7])
    rep = olson_check(z7, mask_of({0, 1}), mask_of({2, 3}))
    assert rep.holds
    with pytest.raises(InvalidInputError):
        olson_check(z5, mask_of(set()), mask_of({0}))


def test_olson_shift_invariance():
    z9 = make_group([9])
    base = olson_check(z9, mask_of({0, 1, 5}), mask_of({0, 2}))
    shifted = olson_check(z9, mask_of({0, 1, 5}), mask_of({4, 6}))  # N + 4
    assert base.branch == shifted.branch
    assert base.sum_size == shifted.sum_size


def test_chain_examples():
    z64 = make_group([64])
    wit = chain_witness_search(z64, mask_of({0, 1, 2, 3, 4}), mask_of({0, 1, 63}), 2, 4)
    assert wit.success and wit.mode == "exhaustive"
    assert len(wit.chain) == 3
    assert wit.chain[0] == mask_of({0, 1, 2, 3, 4})
    assert wit.chain[1] & ~wit.chain[0] == 0 and wit.chain[2] & ~wit.chain[1] == 0
    m = wit.chain[0].bit_count()
    for level, lhs, rhs in wit.bounds:
        assert lhs <= rhs
    # singleton generator: t = 0, the chain is M itself at every level
    wit = chain_witness_search(z64, mask_of({0, 5, 11}), mask_of({7}), 2, 4)
    assert wit.success
    assert all(s == wit.chain[0] for s in wit.chain)
    assert wit.t == 0


def test_chain_greedy_mode():
    z64 = make_group([64])
    wit = chain_witness_search(z64, mask_of(set(range(20))), mask_of({0, 1, 63}), 2, 4,
                               mode="greedy")
    assert wit.mode == "greedy"
    assert wit.success
    with pytest.raises(InvalidInputError):
        chain_witness_search(z64, mask_of({0}), mask_of({1}), 2, c=2)


def test_sumset_stats():
    z8 = make_group([8])
    st8 = sumset_stats(z8, mask_of({1, 7}))
    assert st8.base == mask_of({1, 7})
    assert st8.double == mask_of({0, 2, 6}) and st8.doubling == 3
    assert st8.reps == {0: 1}
    # pair-count consistency: total representations = C(|D|, 2)
    z16 = make_group([16])
    d = {1, 3, 5, 11, 13, 15}
    stats = sumset_stats(z16, mask_of(d))
    assert sum(stats.reps.values()) == len(list(combinations(d, 2)))
    assert stats.heavy(1.0) & ~stats.double == 0
    # representation pairs with the same sum are pairwise disjoint
    for u in iter_bits(stats.double):
        pairs = [p for p in combinations(sorted(d), 2) if (p[0] + p[1]) % 16 == u]
        flat = [x for p in pairs for x in p]
        assert len(flat) == len(set(flat))


def test_minimal_generating_subset():
    z1024 = make_group([1024])
    s = minimal_generating_subset(z1024, mask_of(symmetrize(z1024, range(1, 65))))
    assert s == mask_of([1])
    z8 = make_group([8])
    s = minimal_generating_subset(z8, mask_of({2, 6, 3, 5}))
    assert s.bit_count() <= 3


def test_thinning_exact_properties():
    spec = make_group([1024])
    gens = GeneratorSet(spec, symmetrize(spec, range(1, 65)))
    for seed in range(10):
        thin, rep = thin_generators(spec, gens, ThinningConfig(alpha=2, seed=seed))
        assert rep.generating and rep.symmetric
        assert thin.mask & ~gens.mask == 0
        assert rep.minimal_gen_log_ok
    # determinism
    t1, _ = thin_generators(spec, gens, ThinningConfig(alpha=2, seed=3))
    t2, _ = thin_generators(spec, gens, ThinningConfig(alpha=2, seed=3))
    assert t1.mask == t2.mask


def test_thinning_requires_generating_set():
    spec = make_group([8])
    gens = GeneratorSet(spec, {2, 6})
    with pytest.raises(InvalidInputError):
        thin_generators(spec, gens, ThinningConfig(alpha=1.0))


def test_thinning_warns_on_large_doubling():
    spec = make_group([64])
    gens = GeneratorSet(spec, symmetrize(spec, {1, 5, 9, 23}))
    _, rep = thin_generators(spec, gens, ThinningConfig(alpha=1.0, seed=0))
    assert not rep.precondition_doubling_ok
    assert rep.generating and rep.symmetric


def test_expansion_report_c8():
    z8 = make_group([8])
    gens = GeneratorSet(z8, {1, 7})
    rep = basic_expansion_check(z8, mask_of({0, 2}), gens)
    # M + 2D covers the whole side, so the doubling corollary is inapplicable
    assert not rep.doubling_from_expansion.applicable
    # D' = D default: |D + D| >= |2D| (1 - 1/log^2 d) trivially
    assert rep.partial_doubling.applicable and rep.partial_doubling.holds


def test_expansion_applicable_case():
    z32 = make_group([32])
    gens = GeneratorSet(z32, {1, 31})
    rep = basic_expansion_check(z32, mask_of({0, 2}), gens)
    assert rep.doubling_from_expansion.applicable
    assert rep.doubling_from_expansion.holds
    # {0,2} contains u + D' for u = 1 and D' = D
    assert rep.sixth_expansion.applicable
    assert rep.sixth_expansion.holds


def test_expansion_random_instances_hold_when_applicable():
    import random
    rng = random.Random(11)
    for _ in range(40):
        order = rng.choice([16, 24, 32, 48, 64])
        spec = make_group([order])
        base = {rng.randrange(1, order) for _ in range(rng.randint(1, 4))}
        gens_ids = symmetrize(spec, base)
        if 0 in gens_ids:
            continue
        gens = GeneratorSet(spec, gens_ids)
        m = {rng.randrange(order) for _ in range(rng.randint(1, order // 4))}
        rep = basic_expansion_check(spec, mask_of(m), gens)
        for sub in (rep.doubling_from_expansion, rep.partial_doubling, rep.sixth_expansion):
            if sub.applicable:
                assert sub.holds, (order, sorted(base), sorted(m))
