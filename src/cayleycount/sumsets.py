"""Additive-combinatorics engine: iterated sumsets, witness searches for the
classical sumset inequalities (Plünnecke-Ruzsa-Petridis, Olson),
iterated-growth checks and generator thinning.

Sets of group elements are int bitmasks, bit x for element id x, in the
arguments and in every result field (`PrpWitness.witness`,
`ChainWitness.chain`).  `sumset`, the one A + B kernel, lives in `groups`
next to the rotations it applies, so that subgroup closure can use it too;
it is imported here by name.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from typing import NamedTuple, Optional, Sequence

from . import groups
from .errors import InstanceTooLargeError, InvalidInputError, InvariantViolation
from .groups import GeneratorSet, GroupSpec, bits_list, iter_bits, sumset

# The largest |M| each exhaustive search takes
WITNESS_CAP = 20
CHAIN_CAP = 16


def iterated_sumset(spec: GroupSpec, a: int, d: int, i: int) -> int:
    """A + iD with the convention 0*D = {0}."""
    if i < 0:
        raise InvalidInputError("iteration count must be >= 0")
    for _ in range(i):
        a = sumset(spec, a, d)
    return a


# -- iterated growth (the m + d^i t bound) ---------------------------------------


@dataclass
class GrowthReport:
    m: int
    d: int
    t: int
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
    return GrowthReport(m, d, t, lhs, rhs, lhs <= rhs)


# -- Plünnecke-Ruzsa-Petridis witness --------------------------------------------


@dataclass
class PrpWitness:
    """M' = `witness` with |M' + jD| = `lhs`; `md` = |M + D| and `m` = |M|
    fix alpha, and the exact values are formed only when read."""

    witness: int
    lhs: int
    md: int
    m: int
    j: int

    @property
    def alpha(self) -> Fraction:
        return Fraction(self.md, self.m)

    @property
    def rhs(self) -> Fraction:
        """alpha^j |M'|."""
        return self.alpha ** self.j * self.witness.bit_count()


def prp_witness_search(spec: GroupSpec, m_set: int, powers: Sequence[int]) -> PrpWitness:
    """Largest M' <= M with |M' + jD| <= alpha^j |M'|, alpha = |M+D|/|M|.

    `powers` is (D, 2D, ..., jD), so j = len(powers); a caller that searches
    many M against one D builds them once (`chain_powers`).  Exhaustive
    largest-first subset search; existence is guaranteed, so an empty search
    is a hard failure rather than a result.
    """
    if not m_set:
        raise InvalidInputError("M must be nonempty")
    if not powers:
        raise InvalidInputError("j must be >= 1")
    j = len(powers)
    m = m_set.bit_count()
    if m > WITNESS_CAP:
        raise InstanceTooLargeError(f"|M| = {m} exceeds exhaustive cap {WITNESS_CAP}")
    md = sumset(spec, m_set, powers[0]).bit_count()
    jd = powers[-1]
    bits = [1 << x for x in iter_bits(m_set)]
    for size in range(m, 0, -1):
        # lhs is an integer, so lhs <= alpha^j size iff lhs <= its floor
        floor_rhs = md ** j * size // m ** j
        for combo in combinations(bits, size):
            sub = sum(combo)
            lhs = sumset(spec, sub, jd).bit_count()
            if lhs <= floor_rhs:
                return PrpWitness(sub, lhs, md, m, j)
    raise InvariantViolation(
        "no witness found: the inequality is a theorem, this is a bug")


# -- Olson / Cauchy-Davenport style disjunction -----------------------------------


@dataclass
class OlsonReport:
    branch: str              # "stabilized" or "expanded"
    holds: bool
    m: int
    n: int
    sum_size: int            # |M + N|


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
    )


# -- shrinking chains with controlled iterated growth ------------------------------


@dataclass
class ChainWitness:
    """A chain as far as the search got (all k + 1 sets on success), with
    its level sums: `sums[i]` is M^(i) + (i+1)D, the sumset whose size the
    search bounded at level i (at level 0, the M + D that gives t).  On a
    Cayley graph with generators D, M + iD is the i-th neighborhood N^i(M).
    """

    chain: list[int]                 # M = M^(0) >= M^(1) >= ... >= M^(k)
    sums: list[int]                  # M^(i) + (i+1)D, one per chain set
    success: bool
    mode: str                        # "exhaustive" or "greedy"
    t: int
    bounds: list[tuple[int, int, int]] = field(default_factory=list)  # (i, lhs, rhs)


class ChainConstant(NamedTuple):
    """An exact chain constant c = num / den >= 4 with its level bounds'
    coefficients `levels[i]` = ((2i)^(i+1) num^i, den^i), i = 0..k."""

    num: int
    den: int
    levels: tuple[tuple[int, int], ...]


def chain_constant(c: Fraction | int, k: int) -> ChainConstant:
    """The ChainConstant of an int or Fraction c >= 4 to depth k."""
    if not isinstance(c, (int, Fraction)):
        raise InvalidInputError(f"c must be an int or a Fraction, got {c!r}")
    num, den = c.numerator, c.denominator
    if num < 4 * den:
        raise InvalidInputError("c must be >= 4")
    return ChainConstant(num, den, tuple(((2 * i) ** (i + 1) * num ** i, den ** i)
                                         for i in range(k + 1)))


def _chain_bound(m: int, i: int, c: ChainConstant, t: int) -> int:
    """floor(m + (2i)^(i+1) c^i t), for t >= 0."""
    coef, den = c.levels[i]
    return m + coef * t // den


def chain_powers(spec: GroupSpec, d_set: int, k: int) -> tuple[int, ...]:
    """(D, 2D, ..., (k+1)D): the `powers` of a depth-k chain search."""
    powers = [d_set]
    for _ in range(k):
        powers.append(sumset(spec, powers[-1], d_set))
    return tuple(powers)


def chain_witness_search(spec: GroupSpec, m_set: int, powers: Sequence[int],
                         c: Fraction | int | ChainConstant, mode: str) -> ChainWitness:
    """Find a chain M = M^(0) >= ... >= M^(k), each step removing at most
    t/c elements, with |M^(i) + (i+1)D| <= m + (2i)^(i+1) c^i t for each
    level 1 <= i <= k.

    `powers` is (D, 2D, ..., (k+1)D), so k = len(powers) - 1; a caller that
    searches many M against one D builds them once (`chain_powers`).  `c`
    is exact: an int, a Fraction, or a `chain_constant` of depth >= k that
    a caller formed once.  `mode` is "exhaustive" or "greedy".
    Exhaustive mode proves existence on small instances (|M| <= CHAIN_CAP);
    greedy mode (repeatedly drop the element whose removal shrinks the
    iterated sumset most) reports success or failure without an existence
    guarantee.  Both return the level sums M^(i) + (i+1)D they formed to
    test the bounds (`ChainWitness.sums`), with no sumset formed for them
    alone.
    """
    if not m_set or not powers or not powers[0]:
        raise InvalidInputError("M and D must be nonempty")
    k = len(powers) - 1
    if k < 1:
        raise InvalidInputError("k must be >= 1")
    if mode not in ("exhaustive", "greedy"):
        raise InvalidInputError(f"mode must be 'exhaustive' or 'greedy', got {mode!r}")
    if not isinstance(c, ChainConstant):
        c = chain_constant(c, k)
    elif len(c.levels) <= k:
        raise InvalidInputError(f"c holds bounds to depth {len(c.levels) - 1}, not {k}")
    m = m_set.bit_count()
    m_sum = sumset(spec, m_set, powers[0])
    t = m_sum.bit_count() - m
    if t < 0:
        raise InvalidInputError("|M + D| < |M|: chain precondition violated")
    budget = t * c.den // c.num

    if mode == "exhaustive" and m > CHAIN_CAP:
        raise InstanceTooLargeError(f"|M| = {m} exceeds exhaustive cap {CHAIN_CAP}")

    # rhs[i] is the level-i bound, floored since lhs is an integer
    rhs = [_chain_bound(m, i, c, t) for i in range(k + 1)]

    def level_sum(subset: int, i: int) -> Optional[int]:
        """subset + (i+1)D if it meets the level-i bound, else None."""
        total = sumset(spec, subset, powers[i])
        return total if total.bit_count() <= rhs[i] else None

    if mode == "exhaustive":
        def dfs(current: int, level: int) -> Optional[list[tuple[int, int]]]:
            """(set, level sum) for levels level..k below `current`, or None."""
            if level > k:
                return []
            bits = [1 << x for x in iter_bits(current)]
            for removed in range(budget + 1):
                for drop in combinations(bits, removed):
                    cand = current ^ sum(drop)
                    total = level_sum(cand, level)
                    rest = None if total is None else dfs(cand, level + 1)
                    if rest is not None:
                        return [(cand, total)] + rest
            return None

        found = dfs(m_set, 1)
        steps = found or []
        return ChainWitness([m_set] + [s for s, _ in steps], [m_sum] + [x for _, x in steps],
                            found is not None, "exhaustive", t,
                            [(i, x.bit_count(), rhs[i]) for i, (_, x) in enumerate(steps, 1)])

    # greedy
    chain = [m_set]
    sums = [m_sum]
    bounds = []
    current = m_set
    success = True
    for level in range(1, k + 1):
        removed = 0
        while True:
            total = level_sum(current, level)
            if total is not None:
                sums.append(total)
                bounds.append((level, total.bit_count(), rhs[level]))
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
    return ChainWitness(chain, sums, success, "greedy", t, bounds)


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
    in_window: bool                  # d/(20 alpha) <= |thin| <= 2d/(5 alpha)
    doubling_ok: bool                # |2 thin| >= alpha |thin|
    generating: bool
    symmetric: bool
    minimal_gen_log_ok: bool         # |S| <= log2 of the group order
    precondition_doubling_ok: bool   # |2D| <= alpha d


def minimal_generating_subset(spec: GroupSpec, d_set: int) -> int:
    """Greedy minimal generating subset: scan ids in order, keep an element
    iff it enlarges the generated subgroup.  At most log2(order) elements."""
    chosen = 0
    current = groups.subgroup_generated(spec, 0)
    for x in iter_bits(d_set):
        if not current >> x & 1:
            chosen |= 1 << x
            current = groups.subgroup_generated(spec, chosen)
            if current.bit_count() == spec.order:
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
    if not groups.is_generating(spec, gens.mask):
        raise InvalidInputError("D must generate the group")
    d = gens.d
    alpha = cfg.alpha
    precondition_ok = gens.d2 <= alpha * d

    rng = random.Random(f"thin:{cfg.seed}")
    p = cfg.p
    picked = [x for x in iter_bits(gens.mask) if rng.random() < p]
    s_set = minimal_generating_subset(spec, gens.mask)
    thin = GeneratorSet(spec, groups.symmetrize(spec, picked + bits_list(s_set)))

    doubled = sumset(spec, thin.mask, thin.mask).bit_count()
    report = ThinningReport(
        in_window=d / (20 * alpha) <= thin.d <= 2 * d / (5 * alpha),
        doubling_ok=doubled >= alpha * thin.d,
        generating=groups.is_generating(spec, thin.mask),
        symmetric=True,  # enforced by the GeneratorSet constructor
        minimal_gen_log_ok=s_set.bit_count() <= math.log2(spec.order),
        precondition_doubling_ok=precondition_ok,
    )
    return thin, report
