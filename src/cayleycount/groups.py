"""Finite Abelian group arithmetic.

Groups are products of cyclic factors, kept in invariant-factor form
(m1 | m2 | ... | mk) so that isomorphic groups compare equal.  Elements
travel in two representations: coordinate tuples at the API boundary and
dense integer ids (mixed-radix rank of the coordinates, first factor most
significant) inside all kernels.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import product
from math import gcd, prod
from typing import Iterable, Iterator, Optional, Sequence

from .errors import InvalidGeneratorsError, InvalidGroupError, InvalidInputError

# Addition tables are only materialized for groups up to this order;
# larger groups fall back to per-call coordinate arithmetic.
_TABLE_ORDER_LIMIT = 4096


@dataclass(frozen=True)
class GroupSpec:
    """A finite Abelian group as a product of cyclic factors."""

    factors: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.factors or any(m < 2 for m in self.factors):
            raise InvalidGroupError(f"cyclic factors must all be >= 2, got {self.factors}")

    @cached_property
    def order(self) -> int:
        # cached outside the fields: equality and hashing compare `factors`
        return prod(self.factors)

    def __str__(self) -> str:
        return "x".join(f"Z{m}" for m in self.factors)


def _factorize(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def _invariant_factors(factors: Sequence[int]) -> tuple[int, ...]:
    """Reduce an arbitrary factor list to invariant-factor form."""
    exps: dict[int, list[int]] = {}
    for m in factors:
        for p, e in _factorize(m).items():
            exps.setdefault(p, []).append(e)
    slots = max(len(v) for v in exps.values())
    for v in exps.values():
        v.sort(reverse=True)
        v.extend([0] * (slots - len(v)))
    # slot 0 collects the largest prime power of every prime
    invs = [prod(p ** v[i] for p, v in exps.items()) for i in range(slots)]
    invs = [m for m in invs if m > 1]
    invs.reverse()
    return tuple(invs)


def make_group(factors: Sequence[int]) -> GroupSpec:
    """Build a group from cyclic factor orders, canonicalized so that
    isomorphic inputs produce equal specs."""
    if not factors:
        raise InvalidGroupError("need at least one factor")
    for m in factors:
        if not isinstance(m, int) or m < 2:
            raise InvalidGroupError(f"invalid cyclic factor {m!r}")
    return GroupSpec(_invariant_factors(factors))


def _partitions(n: int) -> Iterator[tuple[int, ...]]:
    """All partitions of n as non-increasing tuples."""
    if n == 0:
        yield ()
        return

    def rec(rest: int, cap: int) -> Iterator[tuple[int, ...]]:
        if rest == 0:
            yield ()
            return
        for first in range(min(rest, cap), 0, -1):
            for tail in rec(rest - first, first):
                yield (first,) + tail

    yield from rec(n, n)


def enumerate_abelian_groups(order: int) -> list[GroupSpec]:
    """One GroupSpec per isomorphism class of Abelian groups of the order.

    A fresh list on every call; the classes are computed once per order."""
    if order < 2:
        raise InvalidGroupError("order must be >= 2")
    return list(_abelian_groups(order))


@lru_cache(maxsize=None)
def _abelian_groups(order: int) -> tuple[GroupSpec, ...]:
    primes = _factorize(order)
    per_prime = [[(p, part) for part in _partitions(e)] for p, e in sorted(primes.items())]
    specs = set()
    for combo in product(*per_prime):
        pp_factors = [p ** e for p, part in combo for e in part]
        specs.add(make_group(pp_factors))
    return tuple(sorted(specs, key=lambda s: s.factors))


# -- element representations -------------------------------------------------


@lru_cache(maxsize=None)
def _strides(spec: GroupSpec) -> tuple[int, ...]:
    out = []
    acc = 1
    for m in reversed(spec.factors):
        out.append(acc)
        acc *= m
    return tuple(reversed(out))


def coords_to_id(spec: GroupSpec, coords: Sequence[int]) -> int:
    if len(coords) != len(spec.factors):
        raise InvalidInputError(f"expected {len(spec.factors)} coordinates, got {len(coords)}")
    return sum((c % m) * s for c, m, s in zip(coords, spec.factors, _strides(spec)))


def id_to_coords(spec: GroupSpec, eid: int) -> tuple[int, ...]:
    out = []
    for m, s in zip(spec.factors, _strides(spec)):
        out.append((eid // s) % m)
    return tuple(out)


def elements(spec: GroupSpec) -> list[tuple[int, ...]]:
    """All elements in id order (lexicographic coordinates)."""
    return list(product(*(range(m) for m in spec.factors)))


@lru_cache(maxsize=None)
def _tables(spec: GroupSpec) -> Optional[tuple[list[list[int]], list[int]]]:
    if spec.order > _TABLE_ORDER_LIMIT:
        return None
    elems = elements(spec)
    facs = spec.factors
    ids = {e: i for i, e in enumerate(elems)}
    add = [
        [ids[tuple((a + b) % m for a, b, m in zip(ea, eb, facs))] for eb in elems]
        for ea in elems
    ]
    neg = [ids[tuple((-a) % m for a, m in zip(e, facs))] for e in elems]
    return add, neg


def add_ids(spec: GroupSpec, a: int, b: int) -> int:
    if len(spec.factors) == 1:
        return (a + b) % spec.order
    tabs = _tables(spec)
    if tabs is not None:
        return tabs[0][a][b]
    ca, cb = id_to_coords(spec, a), id_to_coords(spec, b)
    return coords_to_id(spec, [x + y for x, y in zip(ca, cb)])


def neg_id(spec: GroupSpec, a: int) -> int:
    if len(spec.factors) == 1:
        return (-a) % spec.order
    tabs = _tables(spec)
    if tabs is not None:
        return tabs[1][a]
    return coords_to_id(spec, [-x for x in id_to_coords(spec, a)])


@lru_cache(maxsize=None)
def _rotation(spec: GroupSpec, factor: int, shift: int) -> tuple[int, int, int, int]:
    """Adding `shift` to coordinate `factor` of every element of a bitmask
    rotates each block of m * s bits (m the factor, s its stride): the bits
    `lo`, with coordinate below m - shift, move up by `up`; the rest, `hi`,
    wrap down by `down`.  Built on first use: at most sum(m_i) per group."""
    m, s = spec.factors[factor], _strides(spec)[factor]
    full = (1 << spec.order) - 1
    # bit 0 of every block (a block repunit) times the block's low run
    lo = full // ((1 << m * s) - 1) * ((1 << (m - shift) * s) - 1)
    return lo, full ^ lo, shift * s, (m - shift) * s


class _Translations(dict):
    """Element id -> its rotations, one per nonzero coordinate."""

    def __init__(self, spec: GroupSpec):
        super().__init__()
        self.spec = spec

    def __missing__(self, a: int) -> tuple[tuple[int, int, int, int], ...]:
        coords = id_to_coords(self.spec, a)
        self[a] = steps = tuple(_rotation(self.spec, i, c) for i, c in enumerate(coords) if c)
        return steps


@lru_cache(maxsize=None)
def translations(spec: GroupSpec) -> _Translations:
    """Per element id a, the rotations that turn a bitmask (bit x = element
    id x) into the mask of its translate by a: applied in turn, each maps
    mask to ((mask & lo) << up) | ((mask & hi) >> down)."""
    return _Translations(spec)


def subgroup_generated(spec: GroupSpec, gens: Iterable[int]) -> frozenset[int]:
    """Closure of the generators (plus identity) under addition, as ids."""
    gens = [g % spec.order if len(spec.factors) == 1 else g for g in gens]
    seen = {0}
    frontier = [0]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = add_ids(spec, x, g)
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return frozenset(seen)


def is_generating(spec: GroupSpec, gens: Iterable[int]) -> bool:
    return len(subgroup_generated(spec, gens)) == spec.order


class GeneratorSet:
    """A symmetric generator set D with 0 excluded.

    `d2` (the doubling |2D|) is computed on first access.
    """

    def __init__(self, spec: GroupSpec, elems: Iterable[int]):
        ids = frozenset(elems)
        if not ids:
            raise InvalidGeneratorsError("generator set must be nonempty")
        if 0 in ids:
            raise InvalidGeneratorsError("0 in D would create self-loops")
        for x in ids:
            if not (0 <= x < spec.order):
                raise InvalidGeneratorsError(f"element id {x} out of range")
            if neg_id(spec, x) not in ids:
                raise InvalidGeneratorsError(f"D is not symmetric: missing -({x})")
        self.spec = spec
        self.ids = ids
        self._d2: Optional[int] = None

    @property
    def d(self) -> int:
        return len(self.ids)

    @property
    def d2(self) -> int:
        if self._d2 is None:
            self._d2 = len({add_ids(self.spec, x, y) for x in self.ids for y in self.ids})
        return self._d2

    def coords(self) -> list[tuple[int, ...]]:
        return [id_to_coords(self.spec, x) for x in sorted(self.ids)]

    def __repr__(self) -> str:
        return f"GeneratorSet({self.spec}, {sorted(self.ids)})"


def symmetrize(spec: GroupSpec, elems: Iterable[int]) -> frozenset[int]:
    """Close a set of element ids under negation."""
    out = set()
    for x in elems:
        out.add(x)
        out.add(neg_id(spec, x))
    return frozenset(out)


# -- bipartition --------------------------------------------------------------


def _gf2_consistent(rows: list[tuple[int, int]]) -> bool:
    rows = [r for r in rows if r != (0, 0)]
    pivots: list[tuple[int, int]] = []
    for mask, rhs in rows:
        for pmask, prhs in pivots:
            low = pmask & -pmask
            if mask & low:
                mask ^= pmask
                rhs ^= prhs
        if mask == 0:
            if rhs:
                return False
        else:
            pivots.append((mask, rhs))
    return True


def _gf2_lex_smallest(rows: list[tuple[int, int]], nvars: int) -> Optional[list[int]]:
    """Lexicographically smallest solution of an affine GF(2) system, or None."""
    if not _gf2_consistent(rows):
        return None
    assign = []
    for v in range(nvars):
        bit = 1 << v
        for val in (0, 1):
            trial = []
            ok = True
            for mask, rhs in rows:
                if mask & bit:
                    mask ^= bit
                    rhs ^= val
                trial.append((mask, rhs))
            if _gf2_consistent(trial):
                assign.append(val)
                rows = trial
                ok = True
                break
            ok = False
        if not ok:  # pragma: no cover - consistency rechecked each step
            return None
    return assign


def bipartition(spec: GroupSpec, gens: GeneratorSet) -> Optional[tuple[frozenset[int], frozenset[int]]]:
    """Kernel/coset split under a homomorphism to Z2 sending every generator
    to 1, if one exists.  Returns (X, Y) as id sets, or None.

    When several index-2 subgroups qualify, the one given by the
    lexicographically smallest choice of factor images is used.
    """
    k = len(spec.factors)
    even_idx = [i for i, m in enumerate(spec.factors) if m % 2 == 0]
    pos = {i: j for j, i in enumerate(even_idx)}
    rows = []
    for x in sorted(gens.ids):
        coords = id_to_coords(spec, x)
        mask = 0
        for i in even_idx:
            if coords[i] % 2:
                mask |= 1 << pos[i]
        rows.append((mask, 1))
    sol = _gf2_lex_smallest(rows, len(even_idx))
    if sol is None:
        return None
    chi = [0] * k
    for i, j in zip(even_idx, range(len(even_idx))):
        chi[i] = sol[j]
    xs, ys = set(), set()
    for eid, coords in enumerate(elements(spec)):
        val = sum(c * w for c, w in zip(coords, chi)) % 2
        (xs if val == 0 else ys).add(eid)
    return frozenset(xs), frozenset(ys)


# -- isomorphism to canonical form (used for graph products) ------------------


def _crt_pair(r1: int, m1: int, r2: int, m2: int) -> tuple[int, int]:
    g, m = gcd(m1, m2), m1 * m2
    assert g == 1
    # extended euclid for m1 inverse mod m2
    a, b, u, v = m1 % m2, m2, 1, 0
    x0, x1 = 0, 1
    while a:
        q = b // a
        b, a = a, b - q * a
        x0, x1 = x1, x0 - q * x1
    inv = x0 % m2
    t = ((r2 - r1) % m2) * inv % m2
    return (r1 + m1 * t) % m, m


def canonical_iso(factors: Sequence[int]):
    """Canonical spec for an arbitrary factor list plus an explicit
    isomorphism mapping coordinate tuples into it (via per-prime CRT
    decomposition and reassembly)."""
    factors = tuple(factors)
    target = make_group(factors)
    # source prime-power slots: (prime, exponent, source index)
    src_slots: dict[int, list[tuple[int, int]]] = {}
    for j, m in enumerate(factors):
        for p, e in _factorize(m).items():
            src_slots.setdefault(p, []).append((e, j))
    tgt_slots: dict[int, list[tuple[int, int]]] = {}
    for i, m in enumerate(target.factors):
        for p, e in _factorize(m).items():
            tgt_slots.setdefault(p, []).append((e, i))
    # match prime powers largest-first; the exponent multisets agree
    routing: dict[int, list[tuple[int, int, int]]] = {i: [] for i in range(len(target.factors))}
    for p, src in src_slots.items():
        src_sorted = sorted(src, reverse=True)
        tgt_sorted = sorted(tgt_slots[p], reverse=True)
        for (e_s, j), (e_t, i) in zip(src_sorted, tgt_sorted):
            assert e_s == e_t
            routing[i].append((p ** e_s, j, p ** e_s))

    def fn(coords: Sequence[int]) -> tuple[int, ...]:
        out = []
        for i in range(len(target.factors)):
            r, m = 0, 1
            for pe, j, mod in routing[i]:
                r, m = _crt_pair(r, m, coords[j] % mod, mod)
            out.append(r)
        return tuple(out)

    return target, fn


# -- serialization -------------------------------------------------------------

_GROUP_RE = re.compile(r"^Z(\d+)(?:xZ(\d+))*$", re.IGNORECASE)


def parse_group(text: str) -> GroupSpec:
    """Parse either the compact 'Z2xZ4' form or a JSON {"factors": [...]}."""
    text = text.strip()
    if text.startswith("{"):
        try:
            data = json.loads(text)
            return make_group(data["factors"])
        except (KeyError, TypeError, ValueError) as exc:
            raise InvalidGroupError(f"bad group JSON: {exc}") from exc
    if not _GROUP_RE.match(text):
        raise InvalidGroupError(f"cannot parse group spec {text!r}")
    return make_group([int(m) for m in re.findall(r"\d+", text)])


def group_to_json(spec: GroupSpec) -> dict:
    return {"factors": list(spec.factors)}
