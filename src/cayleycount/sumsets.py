"""Additive-combinatorics engine: sumsets, doubling statistics, witness
searches for the classical sumset inequalities (Plünnecke-Ruzsa-Petridis,
Olson), iterated-growth checks, generator thinning, and the expansion
corollaries used by the container machinery.

Sets of group elements are int bitmasks, bit x for element id x; `sumset`
is the one kernel.  Report fields read as sets, such as `PrpWitness.witness`
and `ChainWitness.chain`, are frozensets of ids.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from typing import Optional

from . import groups
from .errors import InvalidInputError, SearchSpaceTooLargeError
from .graphs import iter_bits, mask_of
from .groups import GeneratorSet, GroupSpec

DEFAULT_WITNESS_CAP = 20
DEFAULT_CHAIN_CAP = 16


def sumset(spec: GroupSpec, a: int, b: int) -> int:
    """A + B = {x + y}; empty if either side is empty."""
    if a.bit_count() > b.bit_count():
        a, b = b, a
    steps = groups.translations(spec)
    out = 0
    while a:
        low = a & -a
        x = b                   # becomes b + y, y the element of bit `low`
        for lo, hi, up, down in steps[low.bit_length() - 1]:
            x = ((x & lo) << up) | ((x & hi) >> down)
        out |= x
        a ^= low
    return out


def iterated_sumset(spec: GroupSpec, a: int, d: int, i: int) -> int:
    """A + iD with the convention 0*D = {0}."""
    if i < 0:
        raise InvalidInputError("iteration count must be >= 0")
    for _ in range(i):
        a = sumset(spec, a, d)
    return a


def _ids(mask: int) -> frozenset[int]:
    return frozenset(iter_bits(mask))


# -- doubling statistics --------------------------------------------------------


@dataclass
class SumsetStats:
    """Doubling data for a base set D: |2D| and the representation counts
    r_u = #{ {x, y} in D, x != y : x + y = u }."""

    spec: GroupSpec
    base: frozenset[int]
    double: frozenset[int]
    reps: dict[int, int]

    @property
    def doubling(self) -> int:
        return len(self.double)

    def heavy(self, alpha: float) -> frozenset[int]:
        """Elements of 2D with at least |D| / (2 alpha) representations."""
        threshold = len(self.base) / (2 * alpha)
        return frozenset(u for u in self.double if self.reps.get(u, 0) >= threshold)


def sumset_stats(spec: GroupSpec, base: int) -> SumsetStats:
    reps: dict[int, int] = {}
    rest = base
    while rest:
        low = rest & -rest
        rest ^= low
        # x + y for the y > x in D: translation is a bijection, so each bit
        # is one pair
        for u in iter_bits(sumset(spec, rest, low)):
            reps[u] = reps.get(u, 0) + 1
    return SumsetStats(spec, _ids(base), _ids(sumset(spec, base, base)), reps)


# -- iterated growth (the m + d^i t bound) ---------------------------------------


@dataclass
class GrowthReport:
    m: int
    d: int
    t: int
    i: int
    lhs: int
    rhs: int
    holds: bool


def iterated_growth_check(spec: GroupSpec, m_set: int, d_set: int, i: int) -> GrowthReport:
    """Check |M + iD| <= m + d^i * t where t = |M + D| - |M|."""
    if not d_set:
        raise InvalidInputError("D must be nonempty")
    if i < 2:
        raise InvalidInputError("growth check is stated for i >= 2")
    m = m_set.bit_count()
    md = sumset(spec, m_set, d_set)
    t = md.bit_count() - m
    if t < 0:
        raise InvalidInputError("|M + D| < |M|: growth precondition violated")
    lhs = iterated_sumset(spec, md, d_set, i - 1).bit_count()
    d = d_set.bit_count()
    rhs = m + d ** i * t
    return GrowthReport(m, d, t, i, lhs, rhs, lhs <= rhs)


# -- Plünnecke-Ruzsa-Petridis witness --------------------------------------------


@dataclass
class PrpWitness:
    alpha: Fraction
    j: int
    witness: frozenset[int]
    lhs: int
    rhs: Fraction


def prp_witness_search(spec: GroupSpec, m_set: int, d_set: int,
                       j: int, cap: int = DEFAULT_WITNESS_CAP) -> PrpWitness:
    """Largest M' <= M with |M' + jD| <= alpha^j |M'|, alpha = |M+D|/|M|.

    Exhaustive largest-first subset search; existence is guaranteed, so an
    empty search is a hard failure rather than a result.
    """
    if not m_set:
        raise InvalidInputError("M must be nonempty")
    if j < 1:
        raise InvalidInputError("j must be >= 1")
    m = m_set.bit_count()
    if m > cap:
        raise SearchSpaceTooLargeError(f"|M| = {m} exceeds exhaustive cap {cap}")
    md = sumset(spec, m_set, d_set).bit_count()
    jd = iterated_sumset(spec, 1, d_set, j)
    bits = [1 << x for x in iter_bits(m_set)]
    for size in range(m, 0, -1):
        # lhs is an integer, so lhs <= alpha^j size iff lhs <= its floor
        floor_rhs = md ** j * size // m ** j
        for combo in combinations(bits, size):
            sub = sum(combo)
            lhs = sumset(spec, sub, jd).bit_count()
            if lhs <= floor_rhs:
                alpha = Fraction(md, m)
                return PrpWitness(alpha, j, _ids(sub), lhs, alpha ** j * size)
    raise AssertionError(
        "no witness found: the inequality is a theorem, this is a bug")


# -- Olson / Cauchy-Davenport style disjunction -----------------------------------


@dataclass
class OlsonReport:
    branch: str              # "stabilized" or "expanded"
    holds: bool
    m: int
    n: int
    sum_size: int            # |M + N|
    sum2_size: int           # |M + 2N|


def olson_check(spec: GroupSpec, m_set: int, n_set: int) -> OlsonReport:
    """Either M + 2N = M + N, or |M + N| >= |M| + |N|/2.

    N is shifted internally so that 0 is a member; the branch taken and all
    sizes are shift-invariant.
    """
    if not m_set or not n_set:
        raise InvalidInputError("M and N must be nonempty")
    if not n_set & 1:
        least = (n_set & -n_set).bit_length() - 1
        n_set = sumset(spec, n_set, 1 << groups.neg_id(spec, least))
    mn = sumset(spec, m_set, n_set)
    m2n = sumset(spec, mn, n_set)
    m, n, sum_size = m_set.bit_count(), n_set.bit_count(), mn.bit_count()
    stabilized = m2n == mn
    expanded = 2 * sum_size >= 2 * m + n
    return OlsonReport(
        branch="stabilized" if stabilized else "expanded",
        holds=stabilized or expanded,
        m=m,
        n=n,
        sum_size=sum_size,
        sum2_size=m2n.bit_count(),
    )


# -- shrinking chains with controlled iterated growth ------------------------------


@dataclass
class ChainWitness:
    chain: list[frozenset[int]]      # M = M^(0) >= M^(1) >= ... >= M^(k)
    success: bool
    mode: str                        # "exhaustive" or "greedy"
    t: int
    removal_budget: int
    bounds: list[tuple[int, int, int]] = field(default_factory=list)  # (i, lhs, rhs)


def _chain_bound(m: int, i: int, c: Fraction, t: int) -> int:
    """floor(m + (2i)^(i+1) c^i t), for t >= 0."""
    return m + (2 * i) ** (i + 1) * c.numerator ** i * t // c.denominator ** i


def chain_witness_search(spec: GroupSpec, m_set: int, d_set: int,
                         k: int, c: float = 4, mode: str = "auto",
                         cap: int = DEFAULT_CHAIN_CAP) -> ChainWitness:
    """Find a chain M = M^(0) >= ... >= M^(k), each step removing at most
    t/c elements, with |M^(i) + (i+1)D| <= m + (2i)^(i+1) c^i t for each
    level 1 <= i <= k.

    Exhaustive mode proves existence on small instances; greedy mode
    (repeatedly drop the element whose removal shrinks the iterated sumset
    most) reports success or failure without an existence guarantee.
    """
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

    if mode == "auto":
        mode = "exhaustive" if m <= cap else "greedy"
    if mode == "exhaustive" and m > cap:
        raise SearchSpaceTooLargeError(f"|M| = {m} exceeds exhaustive cap {cap}")

    # powers[i] = (i+1)D; rhs[i] is the level-i bound, floored since lhs is
    # an integer
    powers = [d_set]
    for _ in range(k):
        powers.append(sumset(spec, powers[-1], d_set))
    rhs = [_chain_bound(m, i, c_frac, t) for i in range(k + 1)]

    def level_ok(subset: int, i: int) -> Optional[tuple[int, int]]:
        lhs = sumset(spec, subset, powers[i]).bit_count()
        return (lhs, rhs[i]) if lhs <= rhs[i] else None

    if mode == "exhaustive":
        def dfs(current: int, level: int) -> Optional[list[tuple[int, tuple[int, int, int]]]]:
            """(set, bound) for levels level..k below `current`, or None."""
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
        return ChainWitness([_ids(m_set)] + [_ids(s) for s, _ in steps], found is not None,
                            "exhaustive", t, budget, [b for _, b in steps])

    # greedy
    chain = [m_set]
    bounds = []
    current = m_set
    success = True
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
            # the first of the elements whose removal leaves the smallest sumset
            best_x = min(iter_bits(current), key=lambda x: sumset(
                spec, current ^ (1 << x), powers[level]).bit_count())
            current ^= 1 << best_x
            removed += 1
        if not success:
            break
        chain.append(current)
    return ChainWitness([_ids(s) for s in chain], success, "greedy", t, budget, bounds)


# -- generator thinning -------------------------------------------------------------


@dataclass
class ThinningConfig:
    alpha: float
    seed: int = 0

    @property
    def p(self) -> float:
        return 1.0 / (15.0 * self.alpha)

    def __post_init__(self) -> None:
        if self.alpha < 1:
            raise InvalidInputError("alpha must be >= 1")


@dataclass
class ThinningReport:
    d_size: int
    thin_size: int
    window: tuple[float, float]
    in_window: bool
    doubling_lhs: int
    doubling_rhs: float
    doubling_ok: bool
    generating: bool
    symmetric: bool
    minimal_gen_size: int
    minimal_gen_log_ok: bool
    precondition_doubling_ok: bool


def minimal_generating_subset(spec: GroupSpec, d_set: int) -> list[int]:
    """Greedy minimal generating subset: scan ids in order, keep an element
    iff it enlarges the generated subgroup.  At most log2(order) elements."""
    chosen: list[int] = []
    current = groups.subgroup_generated(spec, [])
    for x in iter_bits(d_set):
        if x not in current:
            chosen.append(x)
            current = groups.subgroup_generated(spec, chosen)
            if len(current) == spec.order:
                break
    return chosen


def thin_generators(spec: GroupSpec, gens: GeneratorSet,
                    cfg: ThinningConfig) -> tuple[GeneratorSet, ThinningReport]:
    """Thin a slowly-doubling generator set down to a sparse symmetric
    generating subset P u -P u S u -S with a p-random P and a greedy
    minimal generating S.

    Symmetry and generation are exact for every seed; the size window and
    the restored doubling are probabilistic and only reported.
    """
    if not groups.is_generating(spec, gens.ids):
        raise InvalidInputError("D must generate the group")
    d = gens.d
    alpha = cfg.alpha
    precondition_ok = gens.d2 <= alpha * d

    rng = random.Random(f"thin:{cfg.seed}")
    p = cfg.p
    d_mask = mask_of(gens.ids)
    picked = [x for x in iter_bits(d_mask) if rng.random() < p]
    s_set = minimal_generating_subset(spec, d_mask)
    thin_mask = 0
    for x in picked + s_set:
        thin_mask |= 1 << x | 1 << groups.neg_id(spec, x)
    thin = GeneratorSet(spec, iter_bits(thin_mask))

    window = (d / (20 * alpha), 2 * d / (5 * alpha))
    doubled = sumset(spec, thin_mask, thin_mask).bit_count()
    report = ThinningReport(
        d_size=d,
        thin_size=thin.d,
        window=window,
        in_window=window[0] <= thin.d <= window[1],
        doubling_lhs=doubled,
        doubling_rhs=alpha * thin.d,
        doubling_ok=doubled >= alpha * thin.d,
        generating=groups.is_generating(spec, thin.ids),
        symmetric=True,  # enforced by the GeneratorSet constructor
        minimal_gen_size=len(s_set),
        minimal_gen_log_ok=len(s_set) <= math.log2(spec.order),
        precondition_doubling_ok=precondition_ok,
    )
    return thin, report


# -- expansion corollaries ------------------------------------------------------------


@dataclass
class SubCheck:
    applicable: bool
    holds: Optional[bool]
    lhs: Optional[float] = None
    rhs: Optional[float] = None
    note: str = ""


@dataclass
class ExpansionReport:
    doubling_from_expansion: SubCheck   # |2D| <= 2 (alpha^2 - 1) |M|
    partial_doubling: SubCheck          # |D + D'| >= |2D| (1 - 1/log^2 d)
    sixth_expansion: SubCheck           # |M + D| >= |M| + |2D| / 6


def basic_expansion_check(spec: GroupSpec, m_set: int, gens: GeneratorSet,
                          d_sub: Optional[int] = None) -> ExpansionReport:
    """Verify the three expansion facts linking small neighborhoods to
    doubling, on one instance.  Each sub-check reports whether its
    hypotheses held; conclusions are only asserted when they did."""
    d_set = mask_of(gens.ids)
    d = d_set.bit_count()
    d2 = sumset(spec, d_set, d_set).bit_count()
    log_d = math.log2(d) if d >= 2 else 0.0

    # partial doubling: removing few generators keeps most of the doubling
    if d_sub is None:
        d_sub = d_set
    if d_sub & ~d_set:
        raise InvalidInputError("D' must be a subset of D")
    if d < 2:
        partial = SubCheck(False, None, note="needs d >= 2")
    else:
        removal_ok = (d_set & ~d_sub).bit_count() <= math.sqrt(d) / log_d
        if not removal_ok:
            partial = SubCheck(False, None, note="|D \\ D'| too large")
        else:
            lhs = sumset(spec, d_set, d_sub).bit_count()
            rhs = d2 * (1 - 1 / log_d**2)
            partial = SubCheck(True, lhs >= rhs, lhs, rhs)

    bip = groups.bipartition(spec, gens)
    sides = [mask_of(part) for part in bip] if bip is not None else []
    generating = groups.is_generating(spec, gens.ids)

    side = next((part for part in sides if not m_set & ~part), None)
    m = m_set.bit_count()

    if side is None or not generating or not m_set:
        doubling = SubCheck(False, None, note="needs connected bipartite context and M on one side")
        sixth = SubCheck(False, None, note="needs connected bipartite context and M on one side")
    else:
        n_side = side.bit_count()
        m2d = iterated_sumset(spec, m_set, d_set, 2)
        if 2 * m > n_side or m2d == side:
            doubling = SubCheck(False, None, note="hypothesis failed (M too large or M+2D = X)")
        else:
            alpha = Fraction(sumset(spec, m_set, d_set).bit_count(), m)
            lhs = Fraction(d2)
            rhs = 2 * (alpha**2 - 1) * m
            doubling = SubCheck(True, lhs <= rhs, float(lhs), float(rhs))

        # does M contain most of a translate of D?
        translate_ok = d >= 2 and any(
            (sumset(spec, d_set, 1 << u) & m_set).bit_count() >= d - math.sqrt(d) / log_d
            for u in range(spec.order))
        if not translate_ok or 2 * m > n_side:
            sixth = SubCheck(False, None, note="hypothesis failed (no dense translate or M too large)")
        else:
            lhs_i = 6 * sumset(spec, m_set, d_set).bit_count()
            rhs_i = 6 * m + d2
            sixth = SubCheck(True, lhs_i >= rhs_i, lhs_i / 6, rhs_i / 6)

    return ExpansionReport(doubling, partial, sixth)
