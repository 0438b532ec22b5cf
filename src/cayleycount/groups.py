"""Finite Abelian group arithmetic.

Groups are products of cyclic factors, kept in invariant-factor form
(m1 | m2 | ... | mk) so that isomorphic groups compare equal.  Elements
travel in two representations: coordinate tuples at the API boundary and
dense integer ids (mixed-radix rank of the coordinates, first factor most
significant) inside all kernels.

`add_ids` and `neg_id` work on ids directly, with no tables and no order
limit, in one of three exact cases: a cyclic group is arithmetic mod the
order; in an elementary 2-group the id bits are the coordinates, so
addition is XOR and every element is its own negative; any other group
adds digit by digit over `GroupSpec.radix`, the (factor, stride) pairs.
Everything derived from a group alone (radix, translations) is kept on
its `GroupSpec`, so no per-call path hashes a spec.

A set of elements is an int bitmask, bit x for element id x: generator
sets, subgroups and the bipartition sides alike.  Collections of ids are
taken only where sets enter the program (`GeneratorSet`, `symmetrize`).

`sumset` is the one A + B kernel on such masks: it applies the masked
rotations of `GroupSpec.translations`, one per nonzero coordinate of each
element of the smaller set.  Subgroups are its closure
(`subgroup_generated`).  The bipartition is a mask expression too: the
sides of a map to Z2 are XORs of the odd-coordinate masks of the even
factors, with no element loop.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce
from itertools import product
from math import prod
from operator import xor
from typing import Iterable, Iterator, Optional, Sequence

from .errors import InstanceTooLargeError, InvalidInputError

# The largest group order, and graph vertex count, taken as input: checked
# before a generator mask or an adjacency list is allocated.
MAX_ORDER = 1 << 14


@dataclass(frozen=True)
class GroupSpec:
    """A finite Abelian group as a product of cyclic factors in
    invariant-factor form: each factor divides the next.

    The data derived from the factors alone are cached properties, stored
    outside the fields: equality and hashing compare `factors` only."""

    factors: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.factors or any(m < 2 for m in self.factors):
            raise InvalidInputError(f"cyclic factors must all be >= 2, got {self.factors}")
        if any(b % a for a, b in zip(self.factors, self.factors[1:])):
            raise InvalidInputError(
                f"factors {self.factors} are not an invariant-factor chain (each dividing "
                "the next); make_group canonicalizes any factor list")

    @cached_property
    def order(self) -> int:
        return prod(self.factors)

    @cached_property
    def radix(self) -> tuple[tuple[int, int], ...]:
        """(factor m, stride s) per coordinate, s the product of the later
        factors: coordinate i of id x is x // s % m."""
        out, s = [], 1
        for m in reversed(self.factors):
            out.append((m, s))
            s *= m
        return tuple(reversed(out))

    @cached_property
    def translations(self) -> _Translations:
        """Per element id a, the rotations that turn a bitmask (bit x =
        element id x) into the mask of its translate by a: applied in turn,
        each maps mask to ((mask & lo) << up) | ((mask & hi) >> down)."""
        return _Translations(self)

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
    isomorphic inputs produce equal specs.  An order above MAX_ORDER is
    refused before the factors are factored."""
    if not factors:
        raise InvalidInputError("need at least one factor")
    for m in factors:
        if not isinstance(m, int) or m < 2:
            raise InvalidInputError(f"invalid cyclic factor {m!r}")
    order = prod(factors)
    if order > MAX_ORDER:
        raise InstanceTooLargeError(f"group order {order} exceeds the size budget {MAX_ORDER}")
    return GroupSpec(_invariant_factors(factors))


def _partitions(n: int) -> Iterator[tuple[int, ...]]:
    """All partitions of n as non-increasing tuples."""

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

    A fresh list on every call; the classes are computed once per order.
    An order above MAX_ORDER is refused before it is factored."""
    if order < 2:
        raise InvalidInputError("order must be >= 2")
    if order > MAX_ORDER:
        raise InstanceTooLargeError(f"group order {order} exceeds the size budget {MAX_ORDER}")
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


def iter_bits(mask: int) -> Iterator[int]:
    while mask:
        lsb = mask & -mask
        yield lsb.bit_length() - 1
        mask ^= lsb


def mask_of(ids) -> int:
    out = 0
    for i in ids:
        out |= 1 << i
    return out


def bits_list(mask: int) -> list[int]:
    return list(iter_bits(mask))


def coords_to_id(spec: GroupSpec, coords: Sequence[int]) -> int:
    if len(coords) != len(spec.factors):
        raise InvalidInputError(f"expected {len(spec.factors)} coordinates, got {len(coords)}")
    return sum(c % m * s for c, (m, s) in zip(coords, spec.radix))


def id_to_coords(spec: GroupSpec, eid: int) -> tuple[int, ...]:
    return tuple(eid // s % m for m, s in spec.radix)


def add_ids(spec: GroupSpec, a: int, b: int) -> int:
    if len(spec.factors) == 1:
        return (a + b) % spec.order
    if spec.order == 1 << len(spec.factors):
        return a ^ b            # every factor is 2: the id bits are the coordinates
    out = 0
    for m, s in spec.radix:
        out += (a // s % m + b // s % m) % m * s
    return out


def neg_id(spec: GroupSpec, a: int) -> int:
    if len(spec.factors) == 1:
        return -a % spec.order
    if spec.order == 1 << len(spec.factors):
        return a
    out = 0
    for m, s in spec.radix:
        out += -(a // s) % m * s
    return out


class _Translations(dict):
    """Element id -> its rotations, one per nonzero coordinate; each
    rotation is built on first use, at most sum(m_i) per group."""

    def __init__(self, spec: GroupSpec):
        super().__init__()
        self.spec = spec
        self.rotations: dict[tuple[int, int], tuple[int, int, int, int]] = {}

    def _rotation(self, factor: int, shift: int) -> tuple[int, int, int, int]:
        """Adding `shift` to coordinate `factor` of every element of a
        bitmask rotates each block of m * s bits (m the factor, s its
        stride): the bits `lo`, with coordinate below m - shift, move up by
        `up`; the rest, `hi`, wrap down by `down`."""
        key = factor, shift
        if key not in self.rotations:
            m, s = self.spec.radix[factor]
            full = (1 << self.spec.order) - 1
            # bit 0 of every block (a block repunit) times the block's low run
            lo = full // ((1 << m * s) - 1) * ((1 << (m - shift) * s) - 1)
            self.rotations[key] = lo, full ^ lo, shift * s, (m - shift) * s
        return self.rotations[key]

    def __missing__(self, a: int) -> tuple[tuple[int, int, int, int], ...]:
        coords = id_to_coords(self.spec, a)
        self[a] = steps = tuple(self._rotation(i, c) for i, c in enumerate(coords) if c)
        return steps


def sumset(spec: GroupSpec, a: int, b: int) -> int:
    """A + B = {x + y}; empty if either side is empty."""
    if a.bit_count() > b.bit_count():
        a, b = b, a
    steps = spec.translations
    out = 0
    while a:
        low = a & -a
        x = b                   # becomes b + y, y the element of bit `low`
        for lo, hi, up, down in steps[low.bit_length() - 1]:
            x = ((x & lo) << up) | ((x & hi) >> down)
        out |= x
        a ^= low
    return out


def subgroup_generated(spec: GroupSpec, gens: int) -> int:
    """Closure of the generators (plus identity) under addition: {0} grown
    by one step of + gens until it stops growing."""
    seen, grown = 0, 1
    while grown != seen:
        seen, grown = grown, grown | sumset(spec, grown, gens)
    return seen


def is_generating(spec: GroupSpec, gens: int) -> bool:
    return subgroup_generated(spec, gens).bit_count() == spec.order


class GeneratorSet:
    """A symmetric generator set D with 0 excluded, built from element ids
    and kept as the mask of D.

    `d2` (the doubling |2D|) is computed on first access.
    """

    def __init__(self, spec: GroupSpec, elems: Iterable[int]):
        if spec.order > MAX_ORDER:
            raise InstanceTooLargeError(
                f"group order {spec.order} exceeds the size budget {MAX_ORDER}")
        mask = 0
        for x in elems:
            if not (0 <= x < spec.order):
                raise InvalidInputError(f"element id {x} out of range")
            mask |= 1 << x
        if not mask:
            raise InvalidInputError("generator set must be nonempty")
        if mask & 1:
            raise InvalidInputError("0 in D would create self-loops")
        for x in iter_bits(mask):
            if not mask >> neg_id(spec, x) & 1:
                raise InvalidInputError(f"D is not symmetric: missing -({x})")
        self.spec = spec
        self.mask = mask
        self._d2: Optional[int] = None

    @property
    def d(self) -> int:
        return self.mask.bit_count()

    @property
    def d2(self) -> int:
        if self._d2 is None:
            ids = bits_list(self.mask)
            self._d2 = len({add_ids(self.spec, x, y) for x in ids for y in ids})
        return self._d2

    def coords(self) -> list[tuple[int, ...]]:
        return [id_to_coords(self.spec, x) for x in iter_bits(self.mask)]

    def __repr__(self) -> str:
        return f"GeneratorSet({self.spec}, {bits_list(self.mask)})"


def symmetrize(spec: GroupSpec, elems: Iterable[int]) -> frozenset[int]:
    """Close a set of element ids under negation."""
    out = set()
    for x in elems:
        out.add(x)
        out.add(neg_id(spec, x))
    return frozenset(out)


# -- bipartition --------------------------------------------------------------


def bipartition(spec: GroupSpec, gens: GeneratorSet) -> Optional[tuple[int, int]]:
    """Kernel/coset split under a homomorphism to Z2 sending every generator
    to 1, if one exists.  Returns the masks (X, Y), or None.

    A homomorphism sends each even factor's generator to 0 or 1 (odd factors
    to 0), and its coset Y is the XOR of the chosen factors' odd-coordinate
    masks.  The first choice in lexicographic order (first even factor most
    significant) whose Y holds every generator is used.
    """
    full = (1 << spec.order) - 1
    # an odd coordinate at stride s is bits s..2s-1 of every 2s-bit period;
    # the period divides the order because the factor is even
    odds = [full // ((1 << 2 * s) - 1) * (((1 << s) - 1) << s)
            for m, s in spec.radix if m % 2 == 0]
    for choice in product(*((0, odd) for odd in odds)):
        y = reduce(xor, choice, 0)
        if gens.mask & ~y == 0:
            return full ^ y, y
    return None


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
            raise InvalidInputError(f"bad group JSON: {exc}") from exc
    if not _GROUP_RE.match(text):
        raise InvalidInputError(f"cannot parse group spec {text!r}")
    return make_group([int(m) for m in re.findall(r"\d+", text)])


def group_to_json(spec: GroupSpec) -> dict:
    return {"factors": list(spec.factors)}
