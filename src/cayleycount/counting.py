"""Exact independent-set counting and enumeration of small 2-linked closed
sets.

Three counting routes are kept deliberately separate, and none shares code
with another:
- a branching engine (component factorization, path and cycle closed forms,
  memoization on component vertex masks);
- a frontier DP over a vertex order, whose state is the set of chosen
  vertices that still have an unprocessed neighbor (the pathwidth DP, or
  transfer-matrix method);
- a doubling table over all 2^V subsets, held in one int.
`count_independent_sets` runs the frontier DP when a bound on its state
count, computed before it starts, is within FRONTIER_STATE_BUDGET and no
larger than the branching engine's worst-case bound; otherwise it branches.
The DP runs in id order, or in a breadth-first order where that order's
bound is smaller.  The second order is formed only when the id-order bound
exceeds V + E, the cost of forming it, and the branching bound exceeds V^2,
so graphs of at most 17 vertices never form it.  Tests require all three
routes to agree.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import exp
from typing import Iterator, Optional

from .errors import InstanceTooLargeError, InvalidInputError
from .graphs import CayleyGraph, ClosedSetRecord, Graph, bits_list, closure, iter_bits, mask_of
from .groups import add_ids, neg_id, sumset

DEFAULT_BRANCHING_BUDGET = 64
DEFAULT_BRUTEFORCE_BUDGET = 26
SUBSET_SUM_BUDGET = 20
ENUM_STATE_BUDGET = 1 << 20
FRONTIER_STATE_BUDGET = 1 << 20
# the root of x^4 = x^3 + 1: branching on a vertex of degree >= 3 solves
# T(V) = T(V - 1) + T(V - 4), so the branching engine visits O(TAU^V) nodes
TAU = 1.3802775690976141


def count_independent_sets(graph: Graph, budget: int = DEFAULT_BRANCHING_BUDGET) -> int:
    """Exact i(G), empty set included.

    i(G) is the product of its components' counts.  A component of maximum
    degree <= 2 is a path (i = F(k+2)) or a cycle (i = L(k)) and is counted
    in closed form.  Any other component branches on a maximum-degree vertex
    v (exclude v / take v and delete its closed neighborhood) and splits
    both remainders into components again.  Within one graph a vertex mask
    fixes the induced subgraph, so branched components are memoized by
    their mask, and repeated fragments are counted once.  The branching runs
    on an explicit stack, so its depth is bounded by memory alone.

    When `chosen_engine` names the frontier DP, that DP counts instead, over
    the vertex order the choice kept.  The vertex budget holds for both
    engines.
    """
    if graph.vcount > budget:
        raise InstanceTooLargeError(
            f"{graph.vcount} vertices exceeds the counting vertex budget {budget}")
    if graph.vcount == 0:
        return 1
    if chosen_engine(graph) == "frontier":
        return _count_frontier(_route(graph)[1])
    adj = graph.adj
    memo: dict[int, int] = {}

    def split(active: int) -> list[int]:
        """The connected components of `active`, each grown from the
        frontier of its newly added vertices."""
        comps = []
        while active:
            comp = frontier = active & -active
            while frontier:
                grown = 0
                while frontier:
                    lsb = frontier & -frontier
                    grown |= adj[lsb.bit_length() - 1]
                    frontier ^= lsb
                frontier = grown & active & ~comp
                comp |= frontier
            active ^= comp
            comps.append(comp)
        return comps

    # A frame is [component, slot in its parent, exclude-v product, take-v
    # product, todo]; todo holds the (slot, subcomponent) pairs still to
    # count, slot 2 for exclude-v and 3 for take-v.  The root frame's
    # take-v product is 0, so its total is the product over G's components.
    stack = [[0, 0, 1, 0, [(2, comp) for comp in split(graph.full_mask())]]]
    while True:
        frame = stack[-1]
        todo = frame[4]
        while todo:
            slot, comp = todo.pop()
            k = comp.bit_count()
            if k <= 2:
                frame[slot] *= k + 1        # one vertex, or one edge
                continue
            known = memo.get(comp)
            if known is not None:
                frame[slot] *= known
                continue
            best_v = best_d = -1
            degree_sum = 0
            rest = comp
            while rest:
                lsb = rest & -rest
                v = lsb.bit_length() - 1
                d = (adj[v] & comp).bit_count()
                degree_sum += d
                if d > best_d:
                    best_d, best_v = d, v
                rest ^= lsb
            if best_d <= 2:
                # a path has k - 1 edges, a cycle k
                a, b = (1, 2) if degree_sum < 2 * k else (2, 1)
                for _ in range(k):
                    a, b = b, a + b
                frame[slot] *= a
                continue
            v_bit = 1 << best_v
            stack.append([comp, slot, 1, 1,
                          [(2, c) for c in split(comp ^ v_bit)]
                          + [(3, c) for c in split(comp & ~(adj[best_v] | v_bit))]])
            break
        else:
            stack.pop()
            total = frame[2] + frame[3]
            if not stack:
                return total
            memo[frame[0]] = total
            stack[-1][frame[1]] *= total


def chosen_engine(graph: Graph) -> str:
    """The engine `count_independent_sets` runs: "frontier" or "branching".

    Let L_v be the vertices <= v with a neighbor > v in a vertex order.  The
    frontier DP over that order holds at most 2^|L_v| states after vertex v,
    so sum_v 2^|L_v| bounds its work.  The DP runs when that bound is within
    FRONTIER_STATE_BUDGET and within the branching engine's worst case,
    TAU^V.  A graph of maximum degree <= 2 always branches, since its
    components are paths and cycles counted in closed form.

    The bound is taken in id order, and also in a breadth-first order from
    the least vertex of each component (Cuthill-McKee's order, without its
    degree sort) when the id-order bound exceeds V + E, the O(V + E) steps
    of forming and bounding the second order, and TAU^V exceeds V^2, so it
    is formed only where it can pay.  The DP runs over the order with the
    smaller bound, id order on a tie.  Each sum stops as soon as it passes
    its cap, so a graph without band structure costs a few vertices' work.
    The choice is made once per graph and kept on it.
    """
    return _route(graph)[0]


def _route(graph: Graph) -> tuple[str, tuple[int, ...]]:
    """(the engine, the adjacency rows renamed into the order the frontier
    DP runs over), chosen on first use and kept on the graph."""
    if graph._route is None:
        graph._route = _choose_route(graph.adj)
    return graph._route


def _choose_route(adj: tuple[int, ...]) -> tuple[str, tuple[int, ...]]:
    v_count = len(adj)
    # tau^1000 exceeds any state budget, and tau^V overflows a float past
    # V = 2200
    tau_v = TAU ** min(v_count, 1000)
    cap = min(FRONTIER_STATE_BUDGET, tau_v)
    bound = _state_bound(adj, cap)
    # forming and bounding a second order costs O(V + E) steps; TAU^V > V^2
    # keeps graphs of at most 17 vertices in id order
    wide = (tau_v > v_count ** 2
            and bound > v_count + sum(row.bit_count() for row in adj) // 2)
    if bound > cap and not wide or all(row.bit_count() <= 2 for row in adj):
        return "branching", adj
    if wide:
        limit = min(cap, bound - 1)         # a tie keeps id order
        rows = _relabeled(adj, _breadth_first_order(adj))
        if _state_bound(rows, limit) <= limit:
            return "frontier", rows
    return ("frontier" if bound <= cap else "branching"), adj


def _state_bound(adj: tuple[int, ...], cap: float) -> int:
    """sum_v 2^|L_v| in id order, or its first partial sum above `cap`.

    L_v is the part <= v of the neighborhood of the vertices > v, so the sum
    runs from the last vertex down, where that neighborhood only grows."""
    total = 1                   # L_{V-1} is empty
    later = 0
    for v in range(len(adj) - 2, -1, -1):
        later |= adj[v + 1]
        total += 1 << (later & ((2 << v) - 1)).bit_count()
        if total > cap:
            break
    return total


def _breadth_first_order(adj: tuple[int, ...]) -> list[int]:
    """The vertices in breadth-first order, each component from its least
    vertex and each vertex's new neighbors in id order."""
    order: list[int] = []
    unseen = (1 << len(adj)) - 1
    done = 0
    while unseen:
        if done == len(order):
            low = unseen & -unseen
            unseen ^= low
            order.append(low.bit_length() - 1)
        new = adj[order[done]] & unseen
        unseen ^= new
        order.extend(iter_bits(new))
        done += 1
    return order


def _relabeled(adj: tuple[int, ...], order: list[int]) -> tuple[int, ...]:
    """The adjacency rows with vertex order[i] renamed i."""
    position = [0] * len(adj)
    for i, v in enumerate(order):
        position[v] = i
    return tuple(mask_of(position[u] for u in iter_bits(adj[v])) for v in order)


def _count_frontier(adj: tuple[int, ...]) -> int:
    """i(G) by a DP over the rows in their order.  A state is the set of
    chosen vertices that still have an unprocessed neighbor, mapped to the
    number of independent sets of the processed vertices that leave it.  A
    vertex leaves every state once its last neighbor is processed."""
    expire = [0] * len(adj)
    for u, row in enumerate(adj):
        if row >> u:
            expire[row.bit_length() - 1] |= 1 << u
    states = {0: 1}
    for v, row in enumerate(adj):
        keep = ~expire[v]
        # v joins a state only if a neighbor of v is still to come
        stays = 1 << v if row >> v else 0
        grown: dict[int, int] = {}
        get = grown.get
        for state, count in states.items():
            rest = state & keep
            grown[rest] = get(rest, 0) + count
            if not state & row:
                rest |= stays
                grown[rest] = get(rest, 0) + count
        states = grown
    return sum(states.values())


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


def _side_mask(graph: Graph, side: str, what: str) -> int:
    """The vertices of side "X" (the first part) or "Y" (the second); `what`
    names the caller's work in the refusal of a graph without parts."""
    if graph.parts is None:
        raise InvalidInputError(f"{what} requires a bipartite graph")
    if side not in ("X", "Y"):
        raise InvalidInputError(f"side must be 'X' or 'Y', got {side!r}")
    return graph.parts[side == "Y"]


def enumerate_small_2linked_closed(graph: Graph, side: str = "X",
                                   root: Optional[int] = None) -> Iterator[ClosedSetRecord]:
    """All closed ([A] = A), 2-linked, small sets on one side, each exactly
    once; with `root`, only those that contain the vertex `root`.

    States are closed 2-linked sets; children are closures of a state plus
    one square-graph neighbor.  Every closed 2-linked set is reachable this
    way through closed 2-linked subsets of itself, and smallness prunes
    soundly because closures only grow along the walk.  Visited-state
    dedup keeps the walk output-sensitive, so structured graphs far beyond
    exhaustive-subset range still enumerate quickly.  More than
    ENUM_STATE_BUDGET queued states raise InstanceTooLargeError.

    A closure has the neighborhood of the set it closes, and a closed set is
    exactly the side vertices inside its neighborhood, so a closed set and
    its neighborhood determine each other.  The child of state + v is keyed
    by G | N(v), G = N(state) riding in the queue next to its state, and is
    closed only when its key is new; oversized children are keyed too, so
    none is closed twice.  The closure of state + v is the state plus the
    side vertices outside it whose neighborhood lies in G | N(v), and each
    of those has a neighbor in N(v) \\ G.  The empty root is not closed
    when a side vertex is isolated (an isolated vertex lies in every
    closure), so its children are closed from scratch.

    A walk with `root` starts from the state [root] instead of the empty
    root.  A closed 2-linked set S that contains the root is still reached:
    each state T < S has a square-graph neighbor v in S, and [T + v] lies
    in S, contains the root and is 2-linked.
    """
    side_mask = _side_mask(graph, side, "enumeration")
    n = side_mask.bit_count()
    adj = graph.adj
    # (state, N(state)); the empty state's children are the single-vertex
    # closures, and the empty state is no state of the budget
    if root is None:
        queue, empty = [(0, 0)], 1
    else:
        if not adj[root]:
            raise InvalidInputError(f"root {root} has no neighbor, so it lies in every closure")
        start = closure(graph, 1 << root, side_mask)
        if not start.small:
            return
        queue, empty = [(start.closure, start.nbhd)], 0
    seen: set[int] = set()      # the neighborhoods of the children closed so far
    for state, g in queue:
        if len(queue) - empty > ENUM_STATE_BUDGET:
            raise InstanceTooLargeError("closed-set enumeration exceeded state budget")
        if state:
            # a state is closed, so its record's closure is the state itself
            outside = side_mask & ~state
            yield ClosedSetRecord(state, g, graph.heavy(g, outside, 1), side_mask, n)
            grow = graph.nbhd(g) & outside
        else:
            grow = side_mask
        for v in iter_bits(grow):
            key = g | adj[v]
            if key in seen:
                continue
            seen.add(key)
            child = (state | graph.interior(outside & graph.nbhd(adj[v] & ~g), key) if state
                     else graph.interior(side_mask, key))
            if 2 * child.bit_count() <= n:
                queue.append((child, key))


def _or_table(rows: list[int]) -> list[int]:
    """The union of rows over every subset of them, indexed by the subset's
    bitmask."""
    table = [0]
    for row in rows:
        table += [x | row for x in table]
    return table


def count_closure_preimages(graph: Graph, rec: ClosedSetRecord,
                            require_two_linked: bool = True) -> int:
    """Number of subsets A of the closure with N(A) = G (optionally also
    2-linked); these are exactly the sets whose closure is this record.

    N(A) is the union of two half-table entries, one per half of the
    closure's vertices.  2-linkage is a breadth-first search on the
    closure's square graph (two vertices adjacent when they share a
    neighbor), whose set neighborhoods come from half tables the same way.
    """
    verts = bits_list(rec.closure)
    a = len(verts)
    if a > 24:
        raise InstanceTooLargeError("closure too large for subset expansion")
    rows = [graph.adj[v] for v in verts]
    h = a // 2
    low_mask = (1 << h) - 1
    low, high = _or_table(rows[:h]), _or_table(rows[h:])
    if require_two_linked:
        square = [mask_of(j for j, other in enumerate(rows) if j != i and row & other)
                  for i, row in enumerate(rows)]
        sq_low, sq_high = _or_table(square[:h]), _or_table(square[h:])
    target = rec.nbhd
    count = 0
    for hi, g_high in enumerate(high):
        base = hi << h
        for lo, g_low in enumerate(low):
            if g_low | g_high != target:
                continue
            sub = base | lo
            if not sub:
                continue
            if require_two_linked:
                comp = frontier = sub & -sub
                while frontier:
                    frontier = (sq_low[frontier & low_mask] | sq_high[frontier >> h]) & sub & ~comp
                    comp |= frontier
                if comp != sub:
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


def orbit_representatives(graph: CayleyGraph,
                          side: str = "X") -> Iterator[tuple[ClosedSetRecord, int]]:
    """One record per orbit of the side's translations among the small
    2-linked closed sets, with the orbit's size.

    The bipartition's kernel H acts on each side by translation, regularly,
    and a translation preserves N, the closure, 2-linkage, (a, g) and the
    preimage count.  The walk takes the sets that contain the side's least
    vertex r (the identity on X); an orbit meets them in the translates
    A - a + r, a in A.  A is the orbit's representative iff its mask is the
    least of these, and the number of them equal to A is |Stab(A)|, so the
    orbit has n / |Stab(A)| sets, n = |H| the side size.
    """
    side_mask = _side_mask(graph, side, "orbit enumeration")
    n = side_mask.bit_count()
    spec = graph.group
    r = (side_mask & -side_mask).bit_length() - 1
    for rec in enumerate_small_2linked_closed(graph, side, r):
        state = rec.closure
        stabilizer = 0
        for a in iter_bits(state):
            image = sumset(spec, state, 1 << add_ids(spec, r, neg_id(spec, a)))
            if image < state:
                break
            stabilizer += image == state
        else:
            yield rec, n // stabilizer


def container_table(graph: Graph, side: str = "X") -> ContainerTable:
    """The exact (a, g) table of one side's small 2-linked sets: per bucket,
    `entries` counts the sets and `closed_entries` their closures.

    Each closed set adds its preimage count (`count_closure_preimages`) to
    its bucket.  On a `CayleyGraph` the closed sets come one per
    translation orbit (`orbit_representatives`), each weighted by its
    orbit's size n / |Stab(A)|; any other graph walks every closed set."""
    side_mask = _side_mask(graph, side, "container table")
    table = ContainerTable(n=side_mask.bit_count())
    weighted = (orbit_representatives(graph, side) if isinstance(graph, CayleyGraph)
                else ((rec, 1) for rec in enumerate_small_2linked_closed(graph, side)))
    for rec, weight in weighted:
        key = (rec.a, rec.g)
        table.closed_entries[key] = table.closed_entries.get(key, 0) + weight
        cnt = count_closure_preimages(graph, rec)
        if cnt:
            table.entries[key] = table.entries.get(key, 0) + weight * cnt
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


def bipartite_bound_sum(graph: Graph) -> SideSumReport:
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
    if n > SUBSET_SUM_BUDGET:
        raise InstanceTooLargeError(
            f"side size {n} exceeds subset-sum budget {SUBSET_SUM_BUDGET}")
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


def _exp_lower(x: Fraction) -> Fraction:
    """Rigorous rational lower bound on exp(x) for x >= 0: a Taylor sum in
    200-bit fixed-point arithmetic with every term floored, so rounding
    always points downward."""
    if x < 0:
        raise InvalidInputError("exponent must be nonnegative")
    num, den = x.numerator, x.denominator
    scale = 1 << 200
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
    bound_lower: Fraction    # rigorous lower bound on 2^(n+1) * exp(sum_all)
    bound_float: float
    i_count: int
    holds: bool
    holds_closed: bool       # the same test with the closed representatives' sum


def cluster_bound(graph: Graph) -> ClusterBoundReport:
    """Evaluate the cluster-style upper bound 2^(n+1) * exp(sum 2^-|N(A)|)
    over small 2-linked sets on side X and compare it against the exact
    count.

    The exponential is lower-bounded by an exact rational partial sum, so a
    reported `holds` is rigorous (outward rounding).  The sum over all small
    2-linked sets is the primary variant and the one that is actually an
    upper bound; the closed-representative variant is reported alongside
    for comparison but genuinely undershoots i(G) on some dense instances.
    """
    table = container_table(graph, "X")
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
    i_count = count_independent_sets(graph)
    return ClusterBoundReport(
        n=n,
        sum_all=sum_all,
        bound_lower=bound_lower,
        bound_float=scale * exp(float(sum_all)),
        i_count=i_count,
        holds=i_count <= bound_lower,
        holds_closed=i_count <= bound_closed_lower,
    )
