"""Cayley graphs over finite Abelian groups and the structural vocabulary
built on them: closures, 2-linkage, boundaries, doubling covers and exact
connectivity.  Neighborhoods N^i(A), heavy sets and 2-linked components are
`Graph` methods (`nbhd_iter`, `heavy`, `components(mask, hops=2)`).

Vertex sets are plain Python ints used as bitmasks (bit i = vertex id i),
so unions, intersections and popcounts are single word-parallel operations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from typing import Optional, Sequence

from . import groups, sumsets
from .errors import InstanceTooLargeError, InvalidInputError, InvariantViolation
from .groups import GeneratorSet, GroupSpec, bits_list, iter_bits, mask_of


class Graph:
    """Undirected graph over vertex ids 0..vcount-1 with bitmask adjacency,
    optionally with a bipartition `parts` into two independent sets.

    A graph never changes after construction, so its whole-graph facts
    (connectivity and the degree set) and its counting route (kept by
    `counting.chosen_engine`) are computed on first use and kept."""

    __slots__ = ("vcount", "adj", "parts", "_facts", "_route")

    def __init__(self, adj: Sequence[int], parts: Optional[tuple[int, int]] = None):
        self.vcount = len(adj)
        self.adj = tuple(adj)
        self.parts = parts
        self._facts: Optional[tuple[bool, frozenset[int]]] = None
        self._route: Optional[tuple[str, tuple[int, ...]]] = None
        full = (1 << self.vcount) - 1
        for v, row in enumerate(self.adj):
            if row >> self.vcount:
                raise InvalidInputError("adjacency mask out of range")
            if row & (1 << v):
                raise InvalidInputError(f"self-loop at vertex {v}")
            while row:
                lsb = row & -row
                u = lsb.bit_length() - 1
                if not self.adj[u] >> v & 1:
                    raise InvalidInputError(f"arc {v} -> {u} has no reverse arc")
                row ^= lsb
        if parts is not None:
            x, y = parts
            if x | y != full or x & y:
                raise InvalidInputError("parts must partition the vertex set")
            if any(row & (x if x >> v & 1 else y) for v, row in enumerate(self.adj)):
                raise InvalidInputError("parts must be independent sets")

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def nbhd(self, mask: int) -> int:
        out = 0
        adj = self.adj
        while mask:
            lsb = mask & -mask
            out |= adj[lsb.bit_length() - 1]
            mask ^= lsb
        return out

    def nbhd_iter(self, mask: int, i: int) -> int:
        """i-fold iterated neighborhood; i = 0 returns the set itself."""
        if i < 0:
            raise InvalidInputError("iteration count must be >= 0")
        out = mask
        for _ in range(i):
            out = self.nbhd(out)
        return out

    def full_mask(self) -> int:
        return (1 << self.vcount) - 1

    def edges(self) -> list[tuple[int, int]]:
        out = []
        for u in range(self.vcount):
            rest = self.adj[u] >> (u + 1)
            for k in iter_bits(rest):
                out.append((u, u + 1 + k))
        return out

    def interior(self, within: int, region: int) -> int:
        """The vertices of `within` whose whole neighborhood lies in `region`."""
        out = 0
        adj = self.adj
        outside = ~region
        while within:
            lsb = within & -within
            if not adj[lsb.bit_length() - 1] & outside:
                out |= lsb
            within ^= lsb
        return out

    def heavy(self, within: int, region: int, k: float) -> int:
        """The vertices of `within` with at least k neighbors in `region`."""
        out = 0
        adj = self.adj
        while within:
            lsb = within & -within
            if (adj[lsb.bit_length() - 1] & region).bit_count() >= k:
                out |= lsb
            within ^= lsb
        return out

    def reach(self, seed: int, within: int, hops: int = 1) -> int:
        """The vertices of `within` reachable from `seed` in steps of `hops`
        edges that stop only inside `within`: the connected part of the seed
        for hops = 1, its 2-linked part for hops = 2."""
        # N^hops distributes over unions, so only the newest layer can add
        comp = frontier = seed & within
        while frontier:
            frontier = self.nbhd_iter(frontier, hops) & within & ~comp
            comp |= frontier
        return comp

    def components(self, within: Optional[int] = None, hops: int = 1) -> list[int]:
        active = self.full_mask() if within is None else within
        out = []
        rest = active
        while rest:
            comp = self.reach(rest & -rest, active, hops)
            out.append(comp)
            rest &= ~comp
        return out

    def side_of(self, mask: int, empty: int) -> int:
        """The part of the bipartition containing `mask`; `empty` for the
        empty set, which lies in both."""
        if self.parts is None:
            raise InvalidInputError("sides need a bipartite graph")
        if mask == 0:
            return empty
        for part in self.parts:
            if mask & ~part == 0:
                return part
        raise InvalidInputError("set straddles both sides of the bipartition")

    def _whole(self) -> tuple[bool, frozenset[int]]:
        """(connected, the set of vertex degrees), computed once."""
        if self._facts is None:
            full = self.full_mask()
            self._facts = (self.vcount > 0 and self.reach(1, full) == full,
                           frozenset(row.bit_count() for row in self.adj))
        return self._facts

    def is_connected(self) -> bool:
        return self._whole()[0]

    def degrees(self) -> frozenset[int]:
        return self._whole()[1]


class CayleyGraph(Graph):
    """Cayley graph on a group with a symmetric generator set.

    Like the whole-graph facts, the boundary container's chain inputs
    depend on the graph alone and are computed on first use and kept."""

    __slots__ = ("group", "gens", "_chain")

    def __init__(self, group: GroupSpec, gens: GeneratorSet):
        if gens.spec != group:
            raise InvalidInputError("generator set built for a different group")
        n = group.order
        ids = bits_list(gens.mask)
        adj = [0] * n
        for u in range(n):
            row = 0
            for x in ids:
                row |= 1 << groups.add_ids(group, u, x)
            adj[u] = row
        # Graph's input checks hold by construction: D is validated symmetric
        # and 0-free, and the parts are the kernel and coset of a map to Z2
        self.vcount, self.adj, self.parts = n, tuple(adj), groups.bipartition(group, gens)
        self._facts = self._route = None
        self._chain: Optional[tuple[tuple[int, ...], Fraction, Fraction]] = None
        self.group = group
        self.gens = gens
        d = gens.d
        if not all(r.bit_count() == d for r in adj):
            raise InvariantViolation("Cayley graph must be regular")

    def chain_inputs(self) -> tuple[tuple[int, ...], Fraction, Fraction]:
        """((D, 2D, 3D, 4D), c, c log2 d) with c = log2(d)^2, each constant
        the nearest fraction of denominator <= 10^6 to its float value;
        computed once."""
        if self._chain is None:
            log_d = math.log2(self.gens.d)
            c = log_d ** 2
            self._chain = (sumsets.chain_powers(self.group, self.gens.mask, 3),
                           Fraction(c).limit_denominator(10**6),
                           Fraction(c * log_d).limit_denominator(10**6))
        return self._chain


def build_cayley(group: GroupSpec, gens: GeneratorSet) -> CayleyGraph:
    return CayleyGraph(group, gens)


# -- closures -----------------------------------------------------------------


@dataclass(frozen=True)
class ClosedSetRecord:
    """The closure [A] of a set A on one side of a bipartite graph, with
    A's neighborhood G, boundary G', and the (a, g, t) statistics.  A
    itself is not kept: every set with the same G has the same record."""

    closure: int        # [A]: side vertices whose whole neighborhood is in G
    nbhd: int           # G = N(A)
    boundary: int       # G' = vertices of G with a neighbor outside [A]
    side: int           # mask of the side containing A
    n: int              # side size

    @property
    def a(self) -> int:
        return self.closure.bit_count()

    @property
    def g(self) -> int:
        return self.nbhd.bit_count()

    @property
    def t(self) -> int:
        return self.g - self.a

    @property
    def small(self) -> bool:
        return 2 * self.a <= self.n


def closure(graph: Graph, a_mask: int, side: Optional[int] = None) -> ClosedSetRecord:
    """Close A on its side of the bipartition.

    `side` disambiguates the empty set (defaults to the X part).
    """
    if graph.parts is None:
        raise InvalidInputError("closure requires a bipartite graph")
    if side is None:
        side = graph.side_of(a_mask, graph.parts[0])
    elif a_mask & ~side:
        raise InvalidInputError("A is not contained in the requested side")
    g = graph.nbhd(a_mask)
    closed = graph.interior(side, g)
    boundary = graph.heavy(g, side & ~closed, 1)
    return ClosedSetRecord(closed, g, boundary, side, side.bit_count())


# -- tensor double cover -------------------------------------------------------


def times_k2(graph: Graph) -> Graph:
    """The bipartite double cover Gamma x K2: vertex v of Gamma becomes v
    (the low layer) and v + n (the high layer), and each edge uv becomes
    the two edges u ~ v + n and v ~ u + n.  The parts are the two layers."""
    n = graph.vcount
    low = (1 << n) - 1
    return Graph([row << n for row in graph.adj] + list(graph.adj), parts=(low, low << n))


# -- exact connectivity via max-flow -------------------------------------------


def _max_flow(arcs: dict[int, dict[int, int]], s: int, t: int, limit: int) -> int:
    """The s-t max-flow, capped at `limit`, one unit per breadth-first
    augmenting path. `arcs[u][v]` is the capacity of u -> v; it is consumed
    as the residual network."""
    flow = 0
    while flow < limit:
        parent = {s: s}
        queue = [s]
        for u in queue:
            for v, cap in arcs[u].items():
                if cap and v not in parent:
                    parent[v] = u
                    queue.append(v)
        if t not in parent:
            break
        v = t
        while v != s:
            u = parent[v]
            arcs[u][v] -= 1
            arcs[v][u] = arcs[v].get(u, 0) + 1
            v = u
        flow += 1
    return flow


def edge_connectivity(graph: Graph) -> int:
    """Exact edge-connectivity (0 for disconnected input)."""
    n = graph.vcount
    if n < 2 or not graph.is_connected():
        return 0
    # every global min cut separates vertex 0 from something
    best = min(graph.degree(v) for v in range(n))
    base = {u: dict.fromkeys(iter_bits(graph.adj[u]), 1) for u in range(n)}
    for t in range(1, n):
        best = _max_flow({u: a.copy() for u, a in base.items()}, 0, t, best)
    return best


def vertex_connectivity(graph: Graph) -> int:
    """Exact vertex-connectivity (0 for disconnected input, n - 1 for K_n)."""
    n = graph.vcount
    if n < 2 or not graph.is_connected():
        return 0
    min_deg = best = min(graph.degree(v) for v in range(n))
    # v is split into 2v -> 2v + 1 of capacity 1; edges never bind
    base = {2 * v: {2 * v + 1: 1} for v in range(n)}
    for v in range(n):
        base[2 * v + 1] = dict.fromkeys((2 * u for u in iter_bits(graph.adj[v])), n)
    # kappa <= min_deg (K_n has no separator and kappa = n - 1 = min_deg), so
    # a minimum separator misses one of any min_deg + 1 sources
    for s in range(min_deg + 1):
        for t in iter_bits(graph.full_mask() & ~graph.adj[s] & ~(1 << s)):
            best = _max_flow({u: a.copy() for u, a in base.items()}, 2 * s + 1, 2 * t, best)
    return best


# -- serialization --------------------------------------------------------------


def graph_to_json(graph: Graph, provenance: Optional[dict] = None) -> dict:
    out: dict = {}
    if isinstance(graph, CayleyGraph):
        out["group"] = groups.group_to_json(graph.group)
        out["generators"] = [list(c) for c in graph.gens.coords()]
    else:
        out["vcount"] = graph.vcount
        out["edges"] = [[u, v] for u, v in graph.edges()]
        if graph.parts is not None:
            out["parts"] = [bits_list(graph.parts[0]), bits_list(graph.parts[1])]
    if provenance:
        out["provenance"] = provenance
    return out


def _ints(values, what: str) -> list[int]:
    """`values` if it is a JSON array of integers (no floats, strings or
    booleans), else InvalidInputError."""
    if not isinstance(values, list) or any(type(v) is not int for v in values):
        raise InvalidInputError(f"{what} must be a list of integers, got {values!r}")
    return values


def _field(data, key: str, kind: type):
    """`data[key]` if `data` is a JSON object holding a `kind` (exactly, so
    no boolean for an int) under `key`, else InvalidInputError."""
    value = data.get(key) if isinstance(data, dict) else None
    if type(value) is not kind:
        raise InvalidInputError(f"graph JSON needs a {kind.__name__} {key!r}, got {value!r}")
    return value


def graph_from_json(data) -> Graph:
    if not isinstance(data, dict):
        raise InvalidInputError(f"graph JSON must be an object, got {type(data).__name__}")
    if "group" in data:
        spec = groups.make_group(_ints(_field(data["group"], "factors", list), "group factors"))
        ids = {groups.coords_to_id(spec, _ints(c, "generator coordinates"))
               for c in _field(data, "generators", list)}
        return CayleyGraph(spec, GeneratorSet(spec, ids))
    vcount, edges = _field(data, "vcount", int), _field(data, "edges", list)
    if vcount < 0:
        raise InvalidInputError(f"vcount must be >= 0, got {vcount}")
    if vcount > groups.MAX_ORDER:
        raise InstanceTooLargeError(
            f"vcount {vcount} exceeds the size budget {groups.MAX_ORDER}")
    part_ids = data.get("parts")
    if part_ids is not None and (type(part_ids) is not list or len(part_ids) != 2):
        raise InvalidInputError(f"parts must be a list of two id lists, got {part_ids!r}")
    for edge in edges:
        if len(_ints(edge, "an edge")) != 2:
            raise InvalidInputError(f"an edge has two endpoints, got {edge!r}")
    for i in chain(*edges, *(_ints(part, "a part") for part in part_ids or ())):
        if not 0 <= i < vcount:
            raise InvalidInputError(f"vertex id {i} outside 0..{vcount - 1}")
    adj = [0] * vcount
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    parts = (mask_of(part_ids[0]), mask_of(part_ids[1])) if part_ids else None
    return Graph(adj, parts)


def edge_list_text(graph: Graph) -> str:
    return "\n".join(f"{u} {v}" for u, v in graph.edges()) + "\n"
