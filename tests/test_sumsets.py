import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from cayleycount import groups
from cayleycount.errors import InstanceTooLargeError, InvalidInputError
from cayleycount.graphs import iter_bits, mask_of
from cayleycount.groups import (
    GeneratorSet,
    add_ids,
    enumerate_abelian_groups,
    make_group,
    symmetrize,
)
from cayleycount.sumsets import (
    CHAIN_CAP,
    ChainWitness,
    ThinningConfig,
    chain_powers,
    chain_witness_search,
    iterated_growth_check,
    iterated_sumset,
    minimal_generating_subset,
    olson_check,
    prp_witness_search,
    sumset,
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
    wit = prp_witness_search(z64, mask_of({0, 1, 2}), chain_powers(z64, mask_of({0, 1}), 1))
    assert wit.alpha == Fraction(4, 3)
    assert wit.witness == mask_of({0, 1, 2})
    assert wit.lhs == 5 and wit.lhs <= wit.rhs
    wit = prp_witness_search(z64, mask_of({0, 7, 9}), chain_powers(z64, mask_of({0}), 2))
    assert wit.alpha == 1 and wit.witness == mask_of({0, 7, 9})
    with pytest.raises(InstanceTooLargeError, match=r"\|M\| = 30 exceeds exhaustive cap"):
        prp_witness_search(z64, mask_of(set(range(30))), chain_powers(z64, mask_of({0, 1}), 1))
    with pytest.raises(InvalidInputError):
        prp_witness_search(z64, mask_of(set()), chain_powers(z64, mask_of({0}), 1))
    with pytest.raises(InvalidInputError):
        prp_witness_search(z64, mask_of({0}), ())


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
    powers = chain_powers(z64, mask_of({0, 1, 63}), 2)
    wit = chain_witness_search(z64, mask_of({0, 1, 2, 3, 4}), powers, 4, mode="exhaustive")
    assert wit.success and wit.mode == "exhaustive"
    assert len(wit.chain) == 3
    assert wit.chain[0] == mask_of({0, 1, 2, 3, 4})
    assert wit.chain[1] & ~wit.chain[0] == 0 and wit.chain[2] & ~wit.chain[1] == 0
    m = wit.chain[0].bit_count()
    for level, lhs, rhs in wit.bounds:
        assert lhs <= rhs
    # singleton generator: t = 0, the chain is M itself at every level
    wit = chain_witness_search(z64, mask_of({0, 5, 11}), chain_powers(z64, mask_of({7}), 2), 4,
                               mode="exhaustive")
    assert wit.success
    assert all(s == wit.chain[0] for s in wit.chain)
    assert wit.t == 0


def test_chain_greedy_mode():
    z64 = make_group([64])
    powers = chain_powers(z64, mask_of({0, 1, 63}), 2)
    assert powers == tuple(iterated_sumset(z64, mask_of({0, 1, 63}), mask_of({0, 1, 63}), i)
                           for i in range(3))
    wit = chain_witness_search(z64, mask_of(set(range(20))), powers, 4, mode="greedy")
    assert wit.mode == "greedy"
    assert wit.success
    one = chain_powers(z64, mask_of({1}), 2)
    for bad in (dict(c=2), dict(mode="auto"), dict(c=4.0), dict(powers=one[:1]),
                dict(powers=()), dict(powers=(0, 0)), dict(m_set=0)):
        args = dict(spec=z64, m_set=mask_of({0}), powers=one, c=4, mode="greedy") | bad
        with pytest.raises(InvalidInputError):
            chain_witness_search(**args)


def _chain_search_with_d(spec, m_set, d_set, k, c, mode):
    """The chain search as it was when it took D, k and a float or int c,
    and built (D, ..., (k+1)D) and the exact c itself on every call."""
    if not m_set or not d_set:
        raise InvalidInputError("M and D must be nonempty")
    if k < 1:
        raise InvalidInputError("k must be >= 1")
    c_frac = Fraction(c).limit_denominator(10**6) if not isinstance(c, int) else Fraction(c)
    if c_frac < 4:
        raise InvalidInputError("c must be >= 4")
    m = m_set.bit_count()
    t = sumset(spec, m_set, d_set).bit_count() - m
    if t < 0:
        raise InvalidInputError("|M + D| < |M|: chain precondition violated")
    budget = t * c_frac.denominator // c_frac.numerator
    if mode == "exhaustive" and m > CHAIN_CAP:
        raise InstanceTooLargeError(f"|M| = {m} exceeds exhaustive cap {CHAIN_CAP}")
    powers = [d_set]
    for _ in range(k):
        powers.append(sumset(spec, powers[-1], d_set))
    rhs = [m + (2 * i) ** (i + 1) * c_frac.numerator ** i * t // c_frac.denominator ** i
           for i in range(k + 1)]

    def level_ok(subset, i):
        lhs = sumset(spec, subset, powers[i]).bit_count()
        return (lhs, rhs[i]) if lhs <= rhs[i] else None

    def level_sums(chain):
        return [sumset(spec, s, powers[i]) for i, s in enumerate(chain)]

    if mode == "exhaustive":
        def dfs(current, level):
            if level > k:
                return []
            bits = [1 << x for x in iter_bits(current)]
            for removed in range(budget + 1):
                for drop in combinations(bits, removed):
                    cand = current ^ sum(drop)
                    chk = level_ok(cand, level)
                    rest = None if chk is None else dfs(cand, level + 1)
                    if rest is not None:
                        return [(cand, (level, *chk))] + rest
            return None

        found = dfs(m_set, 1)
        steps = found or []
        chain = [m_set] + [s for s, _ in steps]
        return ChainWitness(chain, level_sums(chain), found is not None,
                            "exhaustive", t, [b for _, b in steps])
    chain, bounds, current, success = [m_set], [], m_set, True
    for level in range(1, k + 1):
        removed = 0
        while True:
            chk = level_ok(current, level)
            if chk is not None:
                bounds.append((level, chk[0], chk[1]))
                break
            if removed >= budget or current.bit_count() <= 1:
                success = False
                break
            best_x = min(iter_bits(current), key=lambda x: sumset(
                spec, current ^ (1 << x), powers[level]).bit_count())
            current ^= 1 << best_x
            removed += 1
        if not success:
            break
        chain.append(current)
    return ChainWitness(chain, level_sums(chain), success, "greedy", t, bounds)


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 64), st.data())
def test_chain_search_on_powers_matches_the_search_on_d(order, data):
    specs = enumerate_abelian_groups(order)
    spec = data.draw(st.sampled_from(specs))
    mode = data.draw(st.sampled_from(("exhaustive", "greedy")))
    k = data.draw(st.integers(1, 3))
    elements = st.integers(0, order - 1)
    d_set = mask_of(data.draw(st.sets(elements, min_size=1, max_size=3)))
    m_set = mask_of(data.draw(st.sets(elements, min_size=1,
                                      max_size=6 if mode == "exhaustive" else 16)))
    # an int, or a float made exact the way the old search did
    c = data.draw(st.one_of(st.integers(4, 12), st.floats(4, 40)))
    c_exact = c if isinstance(c, int) else Fraction(c).limit_denominator(10**6)
    got = chain_witness_search(spec, m_set, chain_powers(spec, d_set, k), c_exact, mode)
    assert got == _chain_search_with_d(spec, m_set, d_set, k, c, mode)


def _random_symmetric_set(spec, size, seed):
    """A symmetric set of `size` nonzero elements, drawn as pairs {x, -x}."""
    rng, out = random.Random(seed), set()
    while len(out) < size:
        x = rng.randrange(1, spec.order)
        out |= {x, groups.neg_id(spec, x)}
    return mask_of(out)


def test_greedy_chain_removes_elements_until_a_level_holds():
    # a large random D makes |M + 2D| exceed its bound, so the greedy search
    # has to trim M: {0, 5} + 2D has 1,262 elements against a bound of
    # 2 + 16 t = 1,218, and dropping one element brings it to 723
    z4096 = make_group([4096])
    d_set = _random_symmetric_set(z4096, 40, 1)
    wit = chain_witness_search(z4096, mask_of({0, 5}), chain_powers(z4096, d_set, 1), 4, "greedy")
    assert wit.success and wit.t == 76
    assert [m.bit_count() for m in wit.chain] == [2, 1]
    assert sumset(z4096, mask_of({0, 5}), sumset(z4096, d_set, d_set)).bit_count() == 1262
    assert wit.bounds == [(1, 723, 1218)]
    assert wit == _chain_search_with_d(z4096, mask_of({0, 5}), d_set, 1, 4, "greedy")
    # of three elements, the one whose removal leaves the least sumset goes
    m_set = mask_of({322, 543, 1843})
    wit = chain_witness_search(z4096, m_set, chain_powers(z4096, d_set, 1), 4, "greedy")
    assert wit.success and wit.chain == [m_set, mask_of({322, 543})]
    assert wit == _chain_search_with_d(z4096, m_set, d_set, 1, 4, "greedy")
    # a single element cannot be trimmed: |2D| = 1,431 > 1 + 16 * 59
    d_set = _random_symmetric_set(z4096, 60, 1)
    assert sumset(z4096, d_set, d_set).bit_count() == 1431
    wit = chain_witness_search(z4096, mask_of({0}), chain_powers(z4096, d_set, 1), 4, "greedy")
    assert not wit.success and wit.chain == [mask_of({0})] and wit.bounds == []
    assert wit == _chain_search_with_d(z4096, mask_of({0}), d_set, 1, 4, "greedy")


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 64), st.data())
def test_chain_sums_are_the_level_sumsets(order, data):
    # greedy searches on sets up to half the group, as the boundary container
    # runs them; a chain that fails has sums for the sets it reached
    spec = data.draw(st.sampled_from(enumerate_abelian_groups(order)))
    mode = data.draw(st.sampled_from(("exhaustive", "greedy")))
    k = data.draw(st.integers(1, 3))
    elements = st.integers(0, order - 1)
    d_set = mask_of(data.draw(st.sets(elements, min_size=1, max_size=6)))
    m_set = mask_of(data.draw(st.sets(elements, min_size=1,
                                      max_size=6 if mode == "exhaustive" else order // 2 + 1)))
    powers = chain_powers(spec, d_set, k)
    wit = chain_witness_search(spec, m_set, powers, data.draw(st.integers(4, 12)), mode)
    assert len(wit.sums) == len(wit.chain) <= k + 1
    for i, (subset, total) in enumerate(zip(wit.chain, wit.sums)):
        assert total == sumset(spec, subset, powers[i])
    assert [x.bit_count() for x in wit.sums[1:]] == [lhs for _, lhs, _ in wit.bounds]


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
