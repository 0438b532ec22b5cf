from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from cayleycount import groups
from cayleycount.errors import InvalidGeneratorsError, InvalidGroupError
from cayleycount.groups import (
    GeneratorSet,
    bipartition,
    canonical_iso,
    coords_to_id,
    elements,
    enumerate_abelian_groups,
    id_to_coords,
    make_group,
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
    with pytest.raises(InvalidGroupError):
        make_group([1, 3])
    with pytest.raises(InvalidGroupError):
        make_group([])
    with pytest.raises(InvalidGroupError):
        make_group([0])


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
    with pytest.raises(InvalidGroupError):
        enumerate_abelian_groups(1)


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
    assert sorted(subgroup_generated(z8, [2, 6])) == [0, 2, 4, 6]
    assert len(subgroup_generated(z8, [1, 7])) == 8
    g24 = make_group([2, 4])
    s = [coords_to_id(g24, (1, 1)), coords_to_id(g24, (1, 3))]
    closure = subgroup_generated(g24, s)
    expected = {(0, 0), (1, 1), (0, 2), (1, 3)}
    assert {id_to_coords(g24, x) for x in closure} == expected


def test_subgroup_generated_idempotent():
    z12 = make_group([12])
    first = subgroup_generated(z12, [8, 4])
    assert subgroup_generated(z12, first) == first


def test_generator_set_validation():
    z8 = make_group([8])
    with pytest.raises(InvalidGeneratorsError):
        GeneratorSet(z8, {1})          # missing -1
    with pytest.raises(InvalidGeneratorsError):
        GeneratorSet(z8, {0, 1, 7})    # identity not allowed
    with pytest.raises(InvalidGeneratorsError):
        GeneratorSet(z8, set())
    gens = GeneratorSet(z8, {1, 7})
    assert gens.d == 2
    assert gens.d2 == 3  # {0, 2, 6}


def test_bipartition_examples():
    z6 = make_group([6])
    parts = bipartition(z6, GeneratorSet(z6, {1, 5}))
    assert parts is not None
    assert parts[0] == frozenset({0, 2, 4})
    assert parts[1] == frozenset({1, 3, 5})
    assert bipartition(z6, GeneratorSet(z6, {1, 2, 4, 5})) is None
    z22 = make_group([2, 2])
    d = {coords_to_id(z22, (0, 1)), coords_to_id(z22, (1, 0))}
    parts = bipartition(z22, GeneratorSet(z22, d))
    assert parts is not None
    assert {id_to_coords(z22, x) for x in parts[0]} == {(0, 0), (1, 1)}


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


def test_coords_id_roundtrip():
    spec = make_group([2, 3, 4])
    for eid, coords in enumerate(elements(spec)):
        assert coords_to_id(spec, coords) == eid
        assert id_to_coords(spec, eid) == coords


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(2, 8), min_size=1, max_size=3))
def test_canonical_iso_is_an_isomorphism(factors):
    target, fn = canonical_iso(tuple(factors))
    src_elems = list(product(*(range(m) for m in factors)))
    image = set()
    for ea in src_elems:
        fa = fn(ea)
        image.add(fa)
        for eb in src_elems[:8]:
            fb = fn(eb)
            s = tuple((x + y) % m for x, y, m in zip(ea, eb, factors))
            expected = tuple((x + y) % m for x, y, m in zip(fa, fb, target.factors))
            assert fn(s) == expected
    assert len(image) == target.order


def test_parse_group():
    assert parse_group("Z2xZ4").factors == (2, 4)
    assert parse_group('{"factors": [2, 4]}').factors == (2, 4)
    assert parse_group("Z16").order == 16
    with pytest.raises(InvalidGroupError):
        parse_group("K4")
    with pytest.raises(InvalidGroupError):
        parse_group('{"factors": "x"}')
