from itertools import product
from math import prod

import pytest
from hypothesis import given, settings, strategies as st

from cayleycount import groups
from cayleycount.errors import InstanceTooLargeError, InvalidInputError
from cayleycount.sumsets import minimal_generating_subset, sumset
from cayleycount.groups import (
    GeneratorSet,
    bipartition,
    coords_to_id,
    enumerate_abelian_groups,
    id_to_coords,
    iter_bits,
    make_group,
    mask_of,
    parse_group,
    subgroup_generated,
    symmetrize,
)


def test_make_group_basic():
    assert make_group([4]).factors == (4,)
    assert make_group([4]).order == 4
    assert make_group([2, 4]).order == 8


def test_group_spec_order_is_cached_outside_the_fields():
    spec = make_group([2, 4])
    assert spec.order == 8 and spec.order == 8
    fresh = make_group([2, 4])
    assert spec == fresh and hash(spec) == hash(fresh)
    assert repr(spec) == repr(fresh)


def test_make_group_rejects_degenerate_factors():
    with pytest.raises(InvalidInputError, match="invalid cyclic factor 1"):
        make_group([1, 3])
    with pytest.raises(InvalidInputError, match="need at least one factor"):
        make_group([])
    with pytest.raises(InvalidInputError, match="invalid cyclic factor 0"):
        make_group([0])


def test_group_spec_rejects_factors_outside_an_invariant_factor_chain():
    with pytest.raises(InvalidInputError, match="are not an invariant-factor chain"):
        groups.GroupSpec((4, 2))
    with pytest.raises(InvalidInputError, match="are not an invariant-factor chain"):
        groups.GroupSpec((2, 3))
    assert groups.GroupSpec((2, 4)) == make_group([4, 2])
    assert groups.GroupSpec((2, 2, 6)) == make_group([6, 2, 2])


def test_make_group_canonicalizes_isomorphic_presentations():
    assert make_group([2, 3]) == make_group([6])
    assert make_group([4, 2]) == make_group([2, 4])
    assert make_group([6, 4]).factors == (2, 12)
    # invariant-factor chain: each divides the next
    spec = make_group([12, 10, 3])
    for a, b in zip(spec.factors, spec.factors[1:]):
        assert b % a == 0


def _partition_count(n):
    # independent oracle: number of partitions of n
    table = [1] + [0] * n
    for part in range(1, n + 1):
        for total in range(part, n + 1):
            table[total] += table[total - part]
    return table[n]


def _factor_exponents(n):
    out = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def test_enumerate_abelian_groups_small_orders():
    assert [s.factors for s in enumerate_abelian_groups(8)] == [(2, 2, 2), (2, 4), (8,)]
    assert [s.factors for s in enumerate_abelian_groups(6)] == [(6,)]
    assert [s.factors for s in enumerate_abelian_groups(2)] == [(2,)]


def test_enumerate_abelian_groups_returns_a_fresh_list():
    first = enumerate_abelian_groups(8)
    first.clear()
    assert [s.factors for s in enumerate_abelian_groups(8)] == [(2, 2, 2), (2, 4), (8,)]
    with pytest.raises(InvalidInputError, match="order must be >= 2"):
        enumerate_abelian_groups(1)


def test_enumerate_abelian_groups_refuses_a_huge_order_before_factoring_it():
    # 10**17 + 3 is prime: trial division would run for minutes
    with pytest.raises(InstanceTooLargeError):
        enumerate_abelian_groups(10**17 + 3)
    assert enumerate_abelian_groups(groups.MAX_ORDER)


def test_enumerate_abelian_groups_counts_match_partition_oracle():
    for order in range(2, 65):
        expected = 1
        for e in _factor_exponents(order).values():
            expected *= _partition_count(e)
        specs = enumerate_abelian_groups(order)
        assert len(specs) == expected
        assert len(set(specs)) == len(specs)
        for s in specs:
            assert s.order == order


def test_subgroup_generated_examples():
    z8 = make_group([8])
    assert subgroup_generated(z8, mask_of([2, 6])) == mask_of([0, 2, 4, 6])
    assert subgroup_generated(z8, mask_of([1, 7])).bit_count() == 8
    g24 = make_group([2, 4])
    s = mask_of([coords_to_id(g24, (1, 1)), coords_to_id(g24, (1, 3))])
    closure = subgroup_generated(g24, s)
    expected = {(0, 0), (1, 1), (0, 2), (1, 3)}
    assert {id_to_coords(g24, x) for x in iter_bits(closure)} == expected


def test_subgroup_generated_idempotent():
    z12 = make_group([12])
    first = subgroup_generated(z12, mask_of([8, 4]))
    assert subgroup_generated(z12, first) == first


def test_generator_set_validation():
    z8 = make_group([8])
    with pytest.raises(InvalidInputError, match=r"D is not symmetric: missing -\(1\)"):
        GeneratorSet(z8, {1})          # missing -1
    with pytest.raises(InvalidInputError, match="0 in D would create self-loops"):
        GeneratorSet(z8, {0, 1, 7})    # identity not allowed
    with pytest.raises(InvalidInputError, match="generator set must be nonempty"):
        GeneratorSet(z8, set())
    with pytest.raises(InvalidInputError, match="element id -1 out of range"):
        GeneratorSet(z8, {-1, 1})      # id out of range
    gens = GeneratorSet(z8, {1, 7})
    assert gens.mask == mask_of([1, 7])
    assert gens.d == 2
    assert gens.d2 == 3  # {0, 2, 6}
    assert gens.coords() == [(1,), (7,)]


def test_bipartition_examples():
    z6 = make_group([6])
    parts = bipartition(z6, GeneratorSet(z6, {1, 5}))
    assert parts is not None
    assert parts[0] == mask_of([0, 2, 4])
    assert parts[1] == mask_of([1, 3, 5])
    assert bipartition(z6, GeneratorSet(z6, {1, 2, 4, 5})) is None
    z22 = make_group([2, 2])
    d = {coords_to_id(z22, (0, 1)), coords_to_id(z22, (1, 0))}
    parts = bipartition(z22, GeneratorSet(z22, d))
    assert parts is not None
    assert {id_to_coords(z22, x) for x in iter_bits(parts[0])} == {(0, 0), (1, 1)}


def test_symmetrize():
    z8 = make_group([8])
    assert symmetrize(z8, [1, 2]) == frozenset({1, 2, 6, 7})


small_groups = st.lists(st.integers(2, 9), min_size=1, max_size=3).map(make_group)


@settings(max_examples=60, deadline=None)
@given(small_groups, st.data())
def test_group_laws(spec, data):
    order = spec.order
    a = data.draw(st.integers(0, order - 1))
    b = data.draw(st.integers(0, order - 1))
    c = data.draw(st.integers(0, order - 1))
    add, neg = groups.add_ids, groups.neg_id
    assert add(spec, a, neg(spec, a)) == 0
    assert add(spec, a, b) == add(spec, b, a)
    assert add(spec, add(spec, a, b), c) == add(spec, a, add(spec, b, c))
    assert add(spec, a, 0) == a


multi_factor_groups = st.sampled_from([spec for n in range(4, 33)
                                       for spec in enumerate_abelian_groups(n)
                                       if len(spec.factors) > 1])
# the cyclic rotation path of `sumset`, up to the thinning sweep's Z1024
cyclic_groups = st.integers(2, 1024).map(lambda n: make_group([n]))


@settings(max_examples=150, deadline=None)
@given(st.one_of(multi_factor_groups, cyclic_groups), st.data())
def test_mask_valued_group_functions_match_oracles(spec, data):
    order = spec.order
    gens = data.draw(st.sets(st.integers(0, order - 1), max_size=5))
    # breadth-first closure of {0} under adding each generator
    oracle, frontier = {0}, {0}
    while frontier:
        frontier = {groups.add_ids(spec, x, g) for x in frontier for g in gens} - oracle
        oracle |= frontier
    assert subgroup_generated(spec, mask_of(gens)) == mask_of(oracle)
    assert groups.is_generating(spec, mask_of(gens)) == (len(oracle) == order)

    d_ids = symmetrize(spec, data.draw(st.sets(st.integers(1, order - 1), min_size=1,
                                               max_size=5)))
    d = GeneratorSet(spec, d_ids)
    assert d.mask == mask_of(d_ids)
    least = minimal_generating_subset(spec, d.mask)
    assert least & ~d.mask == 0
    assert subgroup_generated(spec, least) == subgroup_generated(spec, d.mask)
    parts = bipartition(spec, d)
    if parts is not None:
        x, y = parts
        assert x | y == (1 << order) - 1 and x & y == 0
        assert x & 1
        assert sumset(spec, x, d.mask) & x == 0
        assert sumset(spec, y, d.mask) & y == 0


def _first_homomorphism(spec, d_ids):
    """(kernel, coset) masks of the first chi: G -> Z2 with chi(D) = 1, one
    image per even factor, in lexicographic order of the images; or None."""
    even = [i for i, m in enumerate(spec.factors) if m % 2 == 0]
    for images in product((0, 1), repeat=len(even)):
        def chi(x):
            coords = id_to_coords(spec, x)
            return sum(coords[i] * b for i, b in zip(even, images)) % 2
        if all(chi(x) for x in d_ids):
            y = mask_of(x for x in range(spec.order) if chi(x))
            return ((1 << spec.order) - 1) ^ y, y
    return None


groups_to_128 = st.one_of(
    st.sampled_from([spec for n in range(2, 129) for spec in enumerate_abelian_groups(n)]),
    st.integers(1, 6).map(lambda k: make_group([2] * k)))


@settings(max_examples=200, deadline=None)
@given(groups_to_128, st.data())
def test_bipartition_is_the_first_homomorphism_in_lexicographic_order(spec, data):
    order = spec.order
    even = [i for i, m in enumerate(spec.factors) if m % 2 == 0]
    images = data.draw(st.tuples(*[st.integers(0, 1)] * len(even)))
    if any(images) and data.draw(st.booleans()):
        # from the odd coset of a nonzero choice of images: bipartite
        coset = [x for x in range(order)
                 if sum(id_to_coords(spec, x)[i] * b for i, b in zip(even, images)) % 2]
        drawn = data.draw(st.sets(st.sampled_from(coset), min_size=1, max_size=5))
    else:
        drawn = data.draw(st.sets(st.integers(1, order - 1), min_size=1, max_size=5))
    d_ids = symmetrize(spec, drawn)
    assert bipartition(spec, GeneratorSet(spec, d_ids)) == _first_homomorphism(spec, d_ids)


def _elements(spec):
    """All elements in id order (lexicographic coordinates)."""
    return list(product(*(range(m) for m in spec.factors)))


def _coords(spec, eid):
    """Mixed-radix digits of an id, last factor least significant."""
    out = []
    for m in reversed(spec.factors):
        eid, digit = divmod(eid, m)
        out.append(digit)
    return tuple(reversed(out))


def _check_arithmetic(spec, pairs):
    """add_ids and neg_id against coordinate arithmetic on the given pairs."""
    ids = {e: i for i, e in enumerate(_elements(spec))}
    for a, b in pairs:
        ca, cb = _coords(spec, a), _coords(spec, b)
        total = tuple((x + y) % m for x, y, m in zip(ca, cb, spec.factors))
        assert groups.add_ids(spec, a, b) == ids[total]
        assert groups.neg_id(spec, a) == ids[tuple(-x % m for x, m in zip(ca, spec.factors))]


def test_arithmetic_matches_coordinates_on_every_pair_up_to_order_64():
    for order in range(2, 65):
        for spec in enumerate_abelian_groups(order):
            _check_arithmetic(spec, product(range(order), repeat=2))


# orders 65-1024: elementary 2-groups up to Z2^10, mixed groups such as
# Z2xZ2xZ6, and cyclic groups
larger_groups = st.one_of(
    st.integers(7, 10).map(lambda k: make_group([2] * k)),
    st.lists(st.sampled_from([2, 3, 4, 6, 8, 12, 16]), min_size=2, max_size=5)
    .filter(lambda factors: 65 <= prod(factors) <= 1024).map(make_group),
    st.integers(65, 1024).map(lambda n: make_group([n])),
)


@settings(max_examples=80, deadline=None)
@given(larger_groups, st.data())
def test_arithmetic_matches_coordinates_on_larger_groups(spec, data):
    ids = st.integers(0, spec.order - 1)
    _check_arithmetic(spec, data.draw(st.lists(st.tuples(ids, ids), min_size=1, max_size=40)))


def test_equal_specs_built_separately_agree():
    first, second = groups.GroupSpec((2, 4, 8)), make_group([8, 4, 2])
    assert first == second and first is not second
    a, b = mask_of([1, 9, 30]), mask_of([0, 5, 17, 63])
    assert sumset(first, a, b) == sumset(second, a, b)
    for x in range(first.order):
        assert groups.neg_id(first, x) == groups.neg_id(second, x)
        for y in range(first.order):
            assert groups.add_ids(first, x, y) == groups.add_ids(second, x, y)


def test_coords_id_roundtrip():
    spec = make_group([2, 3, 4])
    for eid, coords in enumerate(_elements(spec)):
        assert coords_to_id(spec, coords) == eid
        assert id_to_coords(spec, eid) == coords


def test_parse_group():
    assert parse_group("Z2xZ4").factors == (2, 4)
    assert parse_group('{"factors": [2, 4]}').factors == (2, 4)
    assert parse_group("Z16").order == 16
    with pytest.raises(InvalidInputError, match="cannot parse group spec 'K4'"):
        parse_group("K4")
    with pytest.raises(InvalidInputError, match="invalid cyclic factor 'x'"):
        parse_group('{"factors": "x"}')
