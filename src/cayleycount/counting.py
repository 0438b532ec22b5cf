"""Exact independent-set counting and enumeration of small 2-linked closed
sets.

Two independent counting routes are kept deliberately separate: a branching
engine (component factorization + memoization on relabeled component
signatures) and a doubling table over all 2^V subsets, held in one int.
Tests require them to agree; neither shares code with the other.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from fractions import Fraction
from math import exp
from typing import Iterator

from .errors import InstanceTooLargeError, InvalidInputError
from .graphs import ClosedSetRecord, Graph, bits_list, closure, is_two_linked, iter_bits

DEFAULT_BRANCHING_BUDGET = 64
DEFAULT_BRUTEFORCE_BUDGET = 26
DEFAULT_SUBSET_SUM_BUDGET = 20
DEFAULT_ENUM_STATES = 1 << 20


def count_independent_sets(graph: Graph, budget: int = DEFAULT_BRANCHING_BUDGET) -> int:
    """Exact i(G), empty set included.

    Branches on a maximum-degree vertex (exclude it / take it and delete its
    closed neighborhood), factors over connected components, and memoizes on
    a position-independent component signature so that repeated fragments of
    structured graphs (rings, circulants) are counted once.
    """
    if graph.vcount > budget:
        raise InstanceTooLargeError(
            f"{graph.vcount} vertices exceeds branching budget {budget}")
    if graph.vcount == 0:
        return 1
    adj = graph.adj
    memo: dict[tuple[int, ...], int] = {}

    def signature(comp: int) -> tuple[int, ...]:
        vs = bits_list(comp)
        pos = {v: i for i, v in enumerate(vs)}
        sig = []
        for v in vs:
            rest = adj[v] & comp
            m = 0
            while rest:
                lsb = rest & -rest
                m |= 1 << pos[lsb.bit_length() - 1]
                rest ^= lsb
            sig.append(m)
        return tuple(sig)

    def count_active(active: int) -> int:
        result = 1
        rest = active
        while rest:
            seed = rest & -rest
            comp = seed
            while True:
                grown = comp
                sub = comp
                while sub:
                    lsb = sub & -sub
                    grown |= adj[lsb.bit_length() - 1]
                    sub ^= lsb
                grown &= active
                if grown == comp:
                    break
                comp = grown
            rest &= ~comp
            result *= count_comp(comp)
        return result

    def count_comp(comp: int) -> int:
        k = comp.bit_count()
        if k == 1:
            return 2
        if k == 2:
            return 3  # connected pair = one edge
        sig = signature(comp)
        cached = memo.get(sig)
        if cached is not None:
            return cached
        best_v, best_d = -1, -1
        for v in iter_bits(comp):
            dv = (adj[v] & comp).bit_count()
            if dv > best_d:
                best_d, best_v = dv, v
        v_bit = 1 << best_v
        taken = comp & ~((adj[best_v] & comp) | v_bit)
        res = count_active(comp & ~v_bit) + count_active(taken)
        memo[sig] = res
        return res

    caller_limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(caller_limit, 10000))
    try:
        return count_active(graph.full_mask())
    finally:
        sys.setrecursionlimit(caller_limit)


def count_independent_sets_bruteforce(graph: Graph,
                                      budget: int = DEFAULT_BRUTEFORCE_BUDGET) -> int:
    """Exact i(G) over all 2^V subsets by a doubling table.  Independent
    oracle for the branching engine.

    Bit m of `table` is set iff the subset m of the vertices seen so far is
    independent.  Vertex v doubles the table: its new upper half is the lower
    half ANDed with `avoid`, the mask of the indices m < 2^v that hold no
    neighbor of v, itself doubled once per non-neighbor below v.
    """
    v_count = graph.vcount
    if v_count > budget:
        raise InstanceTooLargeError(
            f"{v_count} vertices exceeds brute-force budget {budget}")
    table = 1
    for v, row in enumerate(graph.adj):
        avoid = 1
        for j in range(v):
            if not row >> j & 1:
                avoid |= avoid << (1 << j)
        table |= (table & avoid) << (1 << v)
    return table.bit_count()


# -- transfer-matrix oracle for cycles ------------------------------------------


def _mat_mul(a, b):
    return (
        (a[0][0] * b[0][0] + a[0][1] * b[1][0], a[0][0] * b[0][1] + a[0][1] * b[1][1]),
        (a[1][0] * b[0][0] + a[1][1] * b[1][0], a[1][0] * b[0][1] + a[1][1] * b[1][1]),
    )


def lucas_number(n: int) -> int:
    """L(n) as the trace of the n-th power of the 2x2 transfer matrix
    [[1,1],[1,0]]; equals i(C_n) for n >= 3."""
    if n < 1:
        raise InvalidInputError("n must be >= 1")
    result = ((1, 0), (0, 1))
    base = ((1, 1), (1, 0))
    e = n
    while e:
        if e & 1:
            result = _mat_mul(result, base)
        base = _mat_mul(base, base)
        e >>= 1
    return result[0][0] + result[1][1]


# -- small 2-linked closed sets ---------------------------------------------------


def enumerate_small_2linked_closed(graph: Graph, side: str = "X",
                                   max_states: int = DEFAULT_ENUM_STATES) -> Iterator[ClosedSetRecord]:
    """All closed ([A] = A), 2-linked, small sets on one side, each exactly
    once.

    States are closed 2-linked sets; children are closures of a state plus
    one square-graph neighbor.  Every closed 2-linked set is reachable this
    way through closed 2-linked subsets of itself, and smallness prunes
    soundly because closures only grow along the walk.  Visited-state
    dedup keeps the walk output-sensitive, so structured graphs far beyond
    exhaustive-subset range still enumerate quickly.
    """
    if graph.parts is None:
        raise InvalidInputError("enumeration requires a bipartite graph")
    side_mask = graph.parts[0] if side == "X" else graph.parts[1]
    n = side_mask.bit_count()
    seen: set[int] = set()
    queue = [0]     # the empty state: its children are the single-vertex closures
    for state in queue:
        if len(seen) > max_states:
            raise InstanceTooLargeError("closed-set enumeration exceeded state budget")
        if state:
            yield closure(graph, state, side_mask)
            grow = graph.nbhd(graph.nbhd(state)) & side_mask & ~state
        else:
            grow = side_mask
        for v in iter_bits(grow):
            child = graph.interior(side_mask, graph.nbhd(state | (1 << v)))
            if 2 * child.bit_count() > n or child in seen:
                continue
            seen.add(child)
            queue.append(child)


def count_closure_preimages(graph: Graph, rec: ClosedSetRecord,
                            require_two_linked: bool = True) -> int:
    """Number of subsets A of the closure with N(A) = G (optionally also
    2-linked); these are exactly the sets whose closure is this record."""
    verts = bits_list(rec.closure)
    a = len(verts)
    if a > 24:
        raise InstanceTooLargeError("closure too large for subset expansion")
    local_adj = [graph.adj[v] for v in verts]
    target = rec.nbhd
    count = 0
    for sub in range(1, 1 << a):
        g = 0
        s = sub
        while s:
            lsb = s & -s
            g |= local_adj[lsb.bit_length() - 1]
            s ^= lsb
        if g != target:
            continue
        if require_two_linked:
            mask = 0
            s = sub
            while s:
                lsb = s & -s
                mask |= 1 << verts[lsb.bit_length() - 1]
                s ^= lsb
            if not is_two_linked(graph, mask):
                continue
        count += 1
    return count


@dataclass
class ContainerTable:
    """Exact counts of small 2-linked sets, bucketed by (closure size a,
    neighborhood size g)."""

    n: int
    entries: dict[tuple[int, int], int] = field(default_factory=dict)
    closed_entries: dict[tuple[int, int], int] = field(default_factory=dict)

    def rows(self) -> list[tuple[int, int, int, int]]:
        return sorted((a, g, g - a, c) for (a, g), c in self.entries.items())


def container_table(graph: Graph, side: str = "X",
                    max_states: int = DEFAULT_ENUM_STATES) -> ContainerTable:
    if graph.parts is None:
        raise InvalidInputError("container table requires a bipartite graph")
    side_mask = graph.parts[0] if side == "X" else graph.parts[1]
    table = ContainerTable(n=side_mask.bit_count())
    for rec in enumerate_small_2linked_closed(graph, side, max_states):
        key = (rec.a, rec.g)
        table.closed_entries[key] = table.closed_entries.get(key, 0) + 1
        cnt = count_closure_preimages(graph, rec)
        if cnt:
            table.entries[key] = table.entries.get(key, 0) + cnt
    return table


# -- bipartite counting bounds ------------------------------------------------------


@dataclass
class SideSumReport:
    """The doubled subset sums bounding i(G) for connected bipartite graphs.

    `small_size` restricts to |A| <= n/2 (the symmetric counting identity);
    `small_closure` restricts to |[A]| <= n/2 (the tighter container-side
    variant, valid on connected bipartite graphs).  Both are exact integers.
    """

    n: int
    sum_small_size: int
    sum_small_closure: int

    @property
    def doubled_small_size(self) -> int:
        return 2 * self.sum_small_size

    @property
    def doubled_small_closure(self) -> int:
        return 2 * self.sum_small_closure


def bipartite_bound_sum(graph: Graph, budget: int = DEFAULT_SUBSET_SUM_BUDGET) -> SideSumReport:
    """Evaluate sum over A of 2^(n - |N(A)|) on one side, exactly, in both
    the |A|-small and |[A]|-small variants.

    Both doubled sums upper-bound i(G); the derivation needs the graph
    connected (expansion), so disconnected input is rejected."""
    if graph.parts is None:
        raise InvalidInputError("bound sum requires a bipartite graph")
    if not graph.is_connected():
        raise InvalidInputError("bound sum requires a connected graph")
    x_mask, _ = graph.parts
    xs = bits_list(x_mask)
    n = len(xs)
    if n > budget:
        raise InstanceTooLargeError(f"side size {n} exceeds subset-sum budget {budget}")
    rows = [graph.adj[v] for v in xs]
    sum_size = 0
    sum_closure = 0
    for sub in range(1 << n):
        g = 0
        s = sub
        size = 0
        while s:
            lsb = s & -s
            g |= rows[lsb.bit_length() - 1]
            size += 1
            s ^= lsb
        term = 1 << (n - g.bit_count())
        if 2 * size <= n:
            sum_size += term
        closed = sum(1 for row in rows if row & ~g == 0)
        if 2 * closed <= n:
            sum_closure += term
    return SideSumReport(n, sum_size, sum_closure)


def _exp_lower(x: Fraction, prec_bits: int = 200) -> Fraction:
    """Rigorous rational lower bound on exp(x) for x >= 0: a Taylor sum in
    fixed-point arithmetic with every term floored, so rounding always
    points downward."""
    if x < 0:
        raise InvalidInputError("exponent must be nonnegative")
    num, den = x.numerator, x.denominator
    scale = 1 << prec_bits
    total = scale
    term = scale
    k = 1
    while term:
        term = term * num // (den * k)
        total += term
        k += 1
    return Fraction(total, scale)


@dataclass
class ClusterBoundReport:
    n: int
    sum_all: Fraction        # sum of 2^-g over all small 2-linked sets
    sum_closed: Fraction     # same sum over closed representatives only
    bound_lower: Fraction    # rigorous lower bound on 2^(n+1) * exp(sum_all)
    bound_float: float
    i_count: int
    holds: bool
    holds_closed: bool


def cluster_bound(graph: Graph, side: str = "X",
                  count_budget: int = DEFAULT_BRANCHING_BUDGET,
                  max_states: int = DEFAULT_ENUM_STATES) -> ClusterBoundReport:
    """Evaluate the cluster-style upper bound 2^(n+1) * exp(sum 2^-|N(A)|)
    over small 2-linked sets and compare it against the exact count.

    The exponential is lower-bounded by an exact rational partial sum, so a
    reported `holds` is rigorous (outward rounding).  The sum over all small
    2-linked sets is the primary variant and the one that is actually an
    upper bound; the closed-representative variant is reported alongside
    for comparison but genuinely undershoots i(G) on some dense instances.
    """
    table = container_table(graph, side, max_states)
    sum_all = Fraction(0)
    for (a, g), cnt in table.entries.items():
        sum_all += Fraction(cnt, 1 << g)
    sum_closed = Fraction(0)
    for (a, g), cnt in table.closed_entries.items():
        sum_closed += Fraction(cnt, 1 << g)
    n = table.n
    scale = 1 << (n + 1)
    bound_lower = scale * _exp_lower(sum_all)
    bound_closed_lower = scale * _exp_lower(sum_closed)
    i_count = count_independent_sets(graph, count_budget)
    return ClusterBoundReport(
        n=n,
        sum_all=sum_all,
        sum_closed=sum_closed,
        bound_lower=bound_lower,
        bound_float=scale * exp(float(sum_all)),
        i_count=i_count,
        holds=i_count <= bound_lower,
        holds_closed=i_count <= bound_closed_lower,
    )
