"""Cayley graphs over finite Abelian groups and the structural vocabulary
built on them: neighborhoods, closures, 2-linkage, boundaries, doubling
covers and exact connectivity.

Vertex sets are plain Python ints used as bitmasks (bit i = vertex id i),
so unions, intersections and popcounts are single word-parallel operations.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Iterator, Optional, Sequence

from . import groups
from .errors import InvalidGeneratorsError, InvalidInputError
from .groups import GeneratorSet, GroupSpec


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


class Graph:
    """Undirected graph over vertex ids 0..vcount-1 with bitmask adjacency."""

    __slots__ = ("vcount", "adj", "parts")

    def __init__(self, adj: Sequence[int], parts: Optional[tuple[int, int]] = None):
        self.vcount = len(adj)
        self.adj = tuple(adj)
        self.parts = parts
        full = (1 << self.vcount) - 1
        for v, row in enumerate(self.adj):
            if row >> self.vcount:
                raise InvalidInputError("adjacency mask out of range")
            if row & (1 << v):
                raise InvalidInputError(f"self-loop at vertex {v}")
        if parts is not None:
            x, y = parts
            if x | y != full or x & y:
                raise InvalidInputError("parts must partition the vertex set")

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
        for v in iter_bits(within):
            if adj[v] & ~region == 0:
                out |= 1 << v
        return out

    def heavy(self, within: int, region: int, k: float) -> int:
        """The vertices of `within` with at least k neighbors in `region`."""
        out = 0
        adj = self.adj
        for v in iter_bits(within):
            if (adj[v] & region).bit_count() >= k:
                out |= 1 << v
        return out

    def reach(self, seed: int, within: int, hops: int = 1) -> int:
        """The vertices of `within` reachable from `seed` in steps of `hops`
        edges that stop only inside `within`: the connected part of the seed
        for hops = 1, its 2-linked part for hops = 2."""
        comp = seed & within
        while True:
            grown = (comp | self.nbhd_iter(comp, hops)) & within
            if grown == comp:
                return comp
            comp = grown

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

    def is_connected(self) -> bool:
        return self.vcount > 0 and len(self.components()) == 1


class CayleyGraph(Graph):
    """Cayley graph on a group with a symmetric generator set."""

    __slots__ = ("group", "gens")

    def __init__(self, group: GroupSpec, gens: GeneratorSet):
        if gens.spec != group:
            raise InvalidGeneratorsError("generator set built for a different group")
        n = group.order
        adj = [0] * n
        for u in range(n):
            row = 0
            for x in gens.ids:
                row |= 1 << groups.add_ids(group, u, x)
            adj[u] = row
        parts = groups.bipartition(group, gens)
        part_masks = None
        if parts is not None:
            part_masks = (mask_of(parts[0]), mask_of(parts[1]))
        super().__init__(adj, part_masks)
        self.group = group
        self.gens = gens
        d = gens.d
        assert all(r.bit_count() == d for r in adj), "Cayley graph must be regular"

    @property
    def degree_d(self) -> int:
        return self.gens.d


def build_cayley(group: GroupSpec, gens: GeneratorSet) -> CayleyGraph:
    return CayleyGraph(group, gens)


def neighborhood(graph: Graph, mask: int, i: int = 1) -> int:
    """N^i(A); for Cayley graphs this equals the iterated sumset A + iD."""
    return graph.nbhd_iter(mask, i)


# -- closures -----------------------------------------------------------------


@dataclass(frozen=True)
class ClosedSetRecord:
    """A set A on one side of a bipartite graph together with its closure,
    neighborhood G, boundary G', and the (a, g, t) statistics."""

    a_set: int          # the original A
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
    return ClosedSetRecord(a_mask, closed, g, boundary, side, side.bit_count())


def two_linked_components(graph: Graph, a_mask: int) -> list[int]:
    """Connected components of A in the square graph (shared-neighbor
    adjacency), without materializing the square graph."""
    return graph.components(a_mask, hops=2)


def is_two_linked(graph: Graph, a_mask: int) -> bool:
    return a_mask != 0 and graph.reach(a_mask & -a_mask, a_mask, 2) == a_mask


def heavy_neighborhood(graph: Graph, rec: ClosedSetRecord, alpha: float) -> int:
    """Vertices of G with at least `alpha` neighbors inside the closure."""
    return graph.heavy(rec.nbhd, rec.closure, alpha)


# -- tensor double cover -------------------------------------------------------


def times_k2(graph: CayleyGraph) -> CayleyGraph:
    """The bipartite double cover, realized as the Cayley graph on
    group x Z2 with every generator tagged by 1 (then canonicalized)."""
    src_factors = graph.group.factors + (2,)
    target, iso = groups.canonical_iso(src_factors)
    new_gens = set()
    for x in graph.gens.ids:
        coords = groups.id_to_coords(graph.group, x) + (1,)
        new_gens.add(groups.coords_to_id(target, iso(coords)))
    return CayleyGraph(target, GeneratorSet(target, new_gens))


# -- exact connectivity via max-flow -------------------------------------------


class _Dinic:
    def __init__(self, n: int):
        self.n = n
        self.to: list[int] = []
        self.cap: list[int] = []
        self.head: list[list[int]] = [[] for _ in range(n)]

    def add_arc(self, u: int, v: int, cap: int, rcap: int = 0) -> None:
        self.head[u].append(len(self.to))
        self.to.append(v)
        self.cap.append(cap)
        self.head[v].append(len(self.to))
        self.to.append(u)
        self.cap.append(rcap)

    def max_flow(self, s: int, t: int, limit: float = float("inf")) -> int:
        flow = 0
        while flow < limit:
            level = [-1] * self.n
            level[s] = 0
            queue = [s]
            for u in queue:
                for e in self.head[u]:
                    v = self.to[e]
                    if self.cap[e] > 0 and level[v] < 0:
                        level[v] = level[u] + 1
                        queue.append(v)
            if level[t] < 0:
                break
            it = [0] * self.n

            def dfs(u: int, pushed: int) -> int:
                if u == t:
                    return pushed
                while it[u] < len(self.head[u]):
                    e = self.head[u][it[u]]
                    v = self.to[e]
                    if self.cap[e] > 0 and level[v] == level[u] + 1:
                        got = dfs(v, min(pushed, self.cap[e]))
                        if got:
                            self.cap[e] -= got
                            self.cap[e ^ 1] += got
                            return got
                    it[u] += 1
                return 0

            while flow < limit:
                pushed = dfs(s, 1 << 60)
                if not pushed:
                    break
                flow += pushed
        return flow


def _edge_flow(graph: Graph, s: int, t: int, limit: float = float("inf")) -> int:
    net = _Dinic(graph.vcount)
    for u, v in graph.edges():
        net.add_arc(u, v, 1, 1)
    return net.max_flow(s, t, limit)


def _vertex_flow(graph: Graph, s: int, t: int, limit: float = float("inf")) -> int:
    # split v into in=2v, out=2v+1 with unit capacity
    net = _Dinic(2 * graph.vcount)
    big = 1 << 40
    for v in range(graph.vcount):
        net.add_arc(2 * v, 2 * v + 1, 1)
    for u, v in graph.edges():
        net.add_arc(2 * u + 1, 2 * v, big)
        net.add_arc(2 * v + 1, 2 * u, big)
    return net.max_flow(2 * s + 1, 2 * t, limit)


def edge_connectivity(graph: Graph) -> int:
    if graph.vcount < 2:
        return 0
    if not graph.is_connected():
        return 0
    # every global min cut separates vertex 0 from something
    best = min(graph.degree(v) for v in range(graph.vcount))
    for t in range(1, graph.vcount):
        best = min(best, _edge_flow(graph, 0, t, best))
        if best == 0:
            break
    return best


def vertex_connectivity(graph: Graph) -> int:
    n = graph.vcount
    if n < 2 or not graph.is_connected():
        return 0
    min_deg = min(graph.degree(v) for v in range(n))
    best = n - 1
    found_pair = False
    # a minimum cut has at most min_deg vertices, so among any min_deg + 1
    # sources at least one avoids it
    for s in range(min(min_deg + 1, n)):
        non_adj = graph.full_mask() & ~graph.adj[s] & ~(1 << s)
        for t in iter_bits(non_adj):
            found_pair = True
            best = min(best, _vertex_flow(graph, s, t, best))
            if best == 0:
                return 0
    return best if found_pair else n - 1


def vertex_connectivity_at_least(graph: Graph, k: int) -> bool:
    """Cheaper one-sided check used inside randomized gadget search."""
    n = graph.vcount
    if k <= 0:
        return True
    if n < 2 or not graph.is_connected():
        return False
    min_deg = min(graph.degree(v) for v in range(n))
    if min_deg < k:
        return False
    for s in range(min(min_deg + 1, n)):
        non_adj = graph.full_mask() & ~graph.adj[s] & ~(1 << s)
        for t in iter_bits(non_adj):
            if _vertex_flow(graph, s, t, k) < k:
                return False
    return True


def connectivity(graph: Graph, mode: str = "edge") -> int:
    """Exact edge- or vertex-connectivity (0 for disconnected input)."""
    if mode == "edge":
        return edge_connectivity(graph)
    if mode == "vertex":
        return vertex_connectivity(graph)
    raise InvalidInputError(f"unknown connectivity mode {mode!r}")


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


def graph_from_json(data: dict) -> Graph:
    if "group" in data:
        spec = groups.make_group(data["group"]["factors"])
        ids = {groups.coords_to_id(spec, tuple(c)) for c in data["generators"]}
        return CayleyGraph(spec, GeneratorSet(spec, ids))
    vcount, edges, part_ids = data["vcount"], data["edges"], data.get("parts")
    for i in chain(*edges, *(part_ids or ())):
        if not 0 <= i < vcount:
            raise InvalidInputError(f"vertex id {i} outside 0..{vcount - 1}")
    adj = [0] * vcount
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    parts = (mask_of(part_ids[0]), mask_of(part_ids[1])) if part_ids else None
    graph = Graph(adj, parts)
    if parts is not None and any(graph.nbhd(side) & side for side in parts):
        raise InvalidInputError("parts must be independent sets")
    return graph


def edge_list_text(graph: Graph) -> str:
    return "\n".join(f"{u} {v}" for u, v in graph.edges()) + "\n"
