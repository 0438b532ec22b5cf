"""Container machinery: greedy covers with the Lovász-Stein guarantee, the
contraction preprocessing, randomized phi-approximation sampling, the
deterministic psi-approximation algorithm, and per-record boundary
containers.

Everything here operates on a d-regular bipartite graph and a closed-set
record (A on side X, closure [A], neighborhood G, boundary G').  The small-d
degenerate regimes take explicit fallback paths instead of failing, since
desk-scale instances sit below the asymptotic parameter window.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import InvalidInputError, RetriesExhaustedError, UncoverableError
from .graphs import (
    CayleyGraph,
    ClosedSetRecord,
    Graph,
    bits_list,
    closure,
    heavy_neighborhood,
    iter_bits,
    mask_of,
)
from .sumsets import chain_witness_search


def regular_degree(graph: Graph) -> int:
    degs = {graph.degree(v) for v in range(graph.vcount)}
    if len(degs) != 1:
        raise InvalidInputError("container operations need a regular graph")
    return degs.pop()


@dataclass(frozen=True)
class ApproxParams:
    """Degree-derived thresholds for the two approximation notions."""

    d: int
    phi: float
    psi: float

    @classmethod
    def for_degree(cls, d: int) -> "ApproxParams":
        if d >= 2:
            log_d = math.log2(d)
            phi = d - math.sqrt(d) / log_d
            psi = d / log_d
        else:
            phi, psi = 0.0, float(d)
        return cls(d, phi, psi)

    @property
    def phi_degenerate(self) -> bool:
        return self.phi <= 0

    @property
    def psi_degenerate(self) -> bool:
        return self.psi >= self.d


# -- greedy covers ------------------------------------------------------------------


@dataclass
class CoverResult:
    chosen: list[int]          # indices into the candidate list
    chosen_mask: int           # union of the chosen sets (within the universe)
    a_min: int                 # min cover multiplicity over the universe
    b_max: int                 # max candidate size within the universe
    bound: float               # (|B|/a)(1 + ln b)


def greedy_cover(universe: int, candidates: Sequence[int]) -> CoverResult:
    """Greedy max-coverage selection of candidate sets until the universe is
    covered.  The selection provably stays within (|B|/a)(1 + ln b), which is
    asserted on every call."""
    if universe == 0:
        return CoverResult([], 0, 0, 0, 0.0)
    restricted = [c & universe for c in candidates]
    cover_count: dict[int, int] = {}
    for c in restricted:
        for v in iter_bits(c):
            cover_count[v] = cover_count.get(v, 0) + 1
    for v in iter_bits(universe):
        if v not in cover_count:
            raise UncoverableError(f"universe element {v} lies in no candidate set")
    a_min = min(cover_count[v] for v in iter_bits(universe))
    b_max = max(c.bit_count() for c in restricted)
    chosen: list[int] = []
    covered = 0
    while covered != universe:
        best_i, best_gain = -1, 0
        for i, c in enumerate(restricted):
            gain = (c & ~covered).bit_count()
            if gain > best_gain:
                best_i, best_gain = i, gain
        chosen.append(best_i)
        covered |= restricted[best_i]
    bound = (len(candidates) / a_min) * (1 + math.log(b_max))
    assert len(chosen) <= bound, "greedy exceeded the Lovász-Stein guarantee"
    return CoverResult(chosen, covered, a_min, b_max, bound)


def neighborhood_cover(graph: Graph, universe: int, pool: int) -> int:
    """Greedy-cover `universe` by the neighborhoods of the vertices in
    `pool`; the chosen pool vertices, as a mask (0 for an empty universe)."""
    if not universe:
        return 0
    verts = bits_list(pool)
    res = greedy_cover(universe, [graph.adj[v] for v in verts])
    return mask_of(verts[i] for i in res.chosen)


# -- contraction ---------------------------------------------------------------------


@dataclass
class SuperVertex:
    s_mask: int       # absorbed original X-vertices
    members: int      # S together with the fully interior Y-vertices N(S)_d
    nbhd: int         # N(S) minus N(S)_d, in original Y-vertices


@dataclass
class ContractionState:
    c_mask: int
    r_mask: int                     # X-vertices whose whole neighborhood is in C
    supers: list[SuperVertex]

    def x_partition_ok(self, x_mask: int) -> bool:
        seen = self.r_mask
        for sv in self.supers:
            if sv.s_mask & seen:
                return False
            seen |= sv.s_mask
        return seen == x_mask


def contract(graph: Graph, c_mask: int, side: Optional[int] = None) -> ContractionState:
    """Process every Y-vertex outside C in id order, each time merging its
    current X-side neighborhood (originals and earlier super-vertices) into
    one super-vertex.

    A super-vertex with absorbed set S is adjacent to exactly
    N(S) \\ N(S)_d, where N(S)_d is the set of Y-vertices with all their
    neighbors inside S; those interior Y-vertices are recorded as members.

    `side` names the part playing the role of Y (the part containing C);
    it is inferred from C when unambiguous.
    """
    if graph.parts is None:
        raise InvalidInputError("contraction requires a bipartite graph")
    if side is None:
        side = graph.side_of(c_mask, graph.parts[1])
    x_mask = graph.full_mask() & ~side
    y_mask = side
    if c_mask & ~y_mask:
        raise InvalidInputError("C must be a subset of the chosen side")
    adj = graph.adj
    x_rem = x_mask
    supers: list[SuperVertex] = []
    for u in bits_list(y_mask & ~c_mask):
        u_bit = 1 << u
        orig = adj[u] & x_rem
        keep: list[SuperVertex] = []
        s_new = orig
        for sv in supers:
            if sv.nbhd & u_bit:
                s_new |= sv.s_mask
            else:
                keep.append(sv)
        if s_new == 0:
            # u's neighbors are already interior to a single super-vertex
            continue
        ns = graph.nbhd(s_new)
        nsd = graph.interior(ns, s_new)
        keep.append(SuperVertex(s_new, s_new | nsd, ns & ~nsd))
        supers = keep
        x_rem &= ~orig
    state = ContractionState(c_mask, x_rem, supers)
    # the never-absorbed vertices are exactly those with N(v) inside C
    assert state.r_mask == graph.interior(x_mask, c_mask)
    assert state.x_partition_ok(x_mask)
    return state


def split_relative(state: ContractionState, rec: ClosedSetRecord):
    """Partition R and the super-vertices relative to a record's closure."""
    r_a = state.r_mask & rec.closure
    r_ac = state.r_mask & ~rec.closure
    sup_a = [sv for sv in state.supers if sv.s_mask & ~rec.closure == 0]
    sup_ac = [sv for sv in state.supers if sv.s_mask & ~rec.closure]
    return r_a, r_ac, sup_a, sup_ac


# -- phi-approximation ----------------------------------------------------------------


@dataclass
class PhiApprox:
    f_mask: int
    z1: int = 0
    z2: int = 0
    degenerate: bool = False


@dataclass
class PhiSampleConfig:
    max_retries: int = 100
    size_coeff: float = 50.0       # |Q0| threshold coefficient, times t / log^2 d
    edge_coeff: float = 50.0       # boundary-edge threshold, times t / log^2 d
    miss_coeff: float = 5.0        # uncovered super count, times t / d^7
    residual_coeff: float = 5.0    # uncovered heavy vertices, times t / d^8


@dataclass
class PhiSampleReport:
    degenerate: bool
    retries: int
    properties: tuple[bool, bool, bool, bool] | None
    values: tuple[int, int, int, int] | None
    thresholds: tuple[float, float, float, float] | None
    f_size: int = 0
    z1_size: int = 0
    z2_size: int = 0


def check_phi(graph: Graph, rec: ClosedSetRecord, f_mask: int,
              params: Optional[ApproxParams] = None) -> bool:
    """F is a phi-approximation: F inside G, F covers every phi-heavy vertex
    of G, and N(F) covers the closure."""
    if params is None:
        params = ApproxParams.for_degree(regular_degree(graph))
    if f_mask & ~rec.nbhd:
        return False
    g_phi = heavy_neighborhood(graph, rec, params.phi)
    if g_phi & ~f_mask:
        return False
    return rec.closure & ~graph.nbhd(f_mask) == 0


def phi_approx_sample(graph: CayleyGraph, rec: ClosedSetRecord, c_mask: int,
                      seed: int = 0, cfg: Optional[PhiSampleConfig] = None,
                      ) -> tuple[PhiApprox, PhiSampleReport]:
    """Sample a phi-approximation for the record, given a container C for
    its boundary.

    Draws Q0 as a p-random subset of C intersected with G (p = 60 log d / d2,
    clamped), retries until the four size properties hold, then assembles
    Z1 from the sampled sets and the interior reconstruction and Z2 from a
    greedy cover of the closure vertices Z1 misses.  The returned set always
    passes check_phi; the sampled properties only certify sizes.

    Small-d degeneracy (p >= 1 or phi <= 0) returns F = G, which is always
    valid.
    """
    if cfg is None:
        cfg = PhiSampleConfig()
    if graph.parts is None or not graph.is_connected():
        raise InvalidInputError("sampler needs a connected bipartite graph")
    if not rec.small:
        raise InvalidInputError("record must be small")
    if rec.boundary & ~c_mask:
        raise InvalidInputError("C must contain the record's boundary")
    d = regular_degree(graph)
    d2 = graph.gens.d2
    params = ApproxParams.for_degree(d)
    p = 60.0 * math.log2(d) / d2 if d >= 2 else 1.0

    if p >= 1.0 or params.phi_degenerate:
        approx = PhiApprox(f_mask=rec.nbhd, degenerate=True)
        assert check_phi(graph, rec, approx.f_mask, params)
        report = PhiSampleReport(True, 0, None, None, None,
                                 f_size=rec.g, z1_size=rec.g, z2_size=0)
        return approx, report

    adj = graph.adj
    t = rec.t
    log2_d = math.log2(d)
    state = contract(graph, c_mask, side=graph.full_mask() & ~rec.side)
    r_a, r_ac, sup_a, sup_ac = split_relative(state, rec)

    # interior Y-vertices outside C, reconstructed from the pure-A supers
    g_d = heavy_neighborhood(graph, rec, d)
    interior_outside = 0
    for sv in sup_a:
        interior_outside |= sv.members & ~rec.side & ~c_mask
    assert interior_outside == g_d & ~c_mask, "interior reconstruction mismatch"

    g_phi = heavy_neighborhood(graph, rec, params.phi)
    pool = bits_list(c_mask & rec.nbhd)
    thresholds = (
        cfg.size_coeff * t / log2_d**2,
        cfg.edge_coeff * t / log2_d**2,
        cfg.miss_coeff * t / d**7,
        cfg.residual_coeff * t / d**8,
    )

    last_props = None
    last_vals = None
    for attempt in range(cfg.max_retries):
        rng = random.Random(f"phi:{seed}:{attempt}")
        q0 = 0
        for y in pool:
            if rng.random() < p:
                q0 |= 1 << y
        # edges from Q0 into the non-closure part of the contracted graph
        boundary_edges = 0
        for y in iter_bits(q0):
            boundary_edges += (adj[y] & r_ac).bit_count()
            boundary_edges += sum(1 for sv in sup_ac if sv.nbhd >> y & 1)
        missed_supers = sum(1 for sv in sup_a if sv.nbhd & q0 == 0)
        hit_r = graph.nbhd(q0) & r_a
        cover_y = graph.nbhd(hit_r)
        for sv in sup_a:
            if sv.nbhd & q0:
                cover_y |= sv.nbhd
        q3 = (g_phi & c_mask) & ~cover_y
        vals = (q0.bit_count(), boundary_edges, missed_supers, q3.bit_count())
        props = tuple(v <= thr for v, thr in zip(vals, thresholds))
        last_props, last_vals = props, vals
        if not all(props):
            continue
        z1 = (cover_y & rec.nbhd) | q3 | interior_outside
        uncovered = rec.closure & ~graph.nbhd(z1)
        # absorbed closure vertices always have an interior neighbor in Z1
        assert uncovered & ~r_a == 0, "non-R closure vertex escaped Z1"
        z2 = neighborhood_cover(graph, uncovered, rec.nbhd & ~z1)
        f_mask = z1 | z2
        assert check_phi(graph, rec, f_mask, params)
        approx = PhiApprox(f_mask, z1, z2, False)
        report = PhiSampleReport(False, attempt + 1, props, vals, thresholds,
                                 f_size=f_mask.bit_count(),
                                 z1_size=z1.bit_count(), z2_size=z2.bit_count())
        return approx, report
    raise RetriesExhaustedError(
        f"phi sampler failed {cfg.max_retries} retries; "
        f"last values {last_vals} vs thresholds {thresholds} ({last_props})")


# -- psi-approximation ----------------------------------------------------------------


@dataclass
class PsiApprox:
    s_mask: int
    f_mask: int


def psi_approx(graph: Graph, rec: ClosedSetRecord, f_mask: int) -> PsiApprox:
    """Refine a phi-approximation into a (S, F) psi-approximation.

    Loop 1 grows F by the full neighborhood of the least closure vertex that
    still has psi neighbors outside F.  S then starts as every X-vertex with
    at least d - psi neighbors in F, and loop 2 strips N(w) from S for the
    least Y-vertex outside F with more than psi neighbors in S (vertices
    inside F are exempt, which is what keeps the closure inside S).
    Each loop-1 step adds at least psi vertices to F and each loop-2 step
    removes at least one vertex from S, so termination is guaranteed.
    """
    d = regular_degree(graph)
    params = ApproxParams.for_degree(d)
    if not check_phi(graph, rec, f_mask, params):
        raise InvalidInputError("input F is not a phi-approximation")
    psi = params.psi
    adj = graph.adj
    x_side = rec.side
    y_side = graph.full_mask() & ~x_side

    f_prime = f_mask
    while True:
        candidate = -1
        for u in iter_bits(rec.closure):
            if (adj[u] & rec.nbhd & ~f_prime).bit_count() >= psi:
                candidate = u
                break
        if candidate < 0:
            break
        f_prime |= adj[candidate]
    s_mask = graph.heavy(x_side, f_prime, d - psi)
    while True:
        candidate = -1
        for w in iter_bits(y_side & ~f_prime):
            if (adj[w] & s_mask).bit_count() > psi:
                candidate = w
                break
        if candidate < 0:
            break
        s_mask &= ~adj[candidate]
    return PsiApprox(s_mask, f_prime)


@dataclass
class PsiCheckReport:
    valid: bool
    covers_closure: bool
    f_inside_g: bool
    s_degrees_ok: bool
    outside_degrees_ok: bool
    size_bound_ok: Optional[bool]    # None when psi = d (degenerate split)
    s_size: int = 0
    f_size: int = 0
    size_rhs: Optional[float] = None


def check_psi(graph: Graph, rec: ClosedSetRecord, approx: PsiApprox) -> PsiCheckReport:
    """Evaluate the psi-approximation clauses and the size inequality
    |S| <= |F| + 2 t psi / (d - psi) (skipped when psi = d)."""
    d = regular_degree(graph)
    params = ApproxParams.for_degree(d)
    psi = params.psi
    s_mask, f_mask = approx.s_mask, approx.f_mask
    x_side = rec.side
    y_side = graph.full_mask() & ~x_side

    covers = rec.closure & ~s_mask == 0
    inside = f_mask & ~rec.nbhd == 0
    s_deg = graph.heavy(s_mask, f_mask, d - psi) == s_mask
    outside = y_side & ~f_mask
    out_deg = graph.heavy(outside, x_side & ~s_mask, d - psi) == outside
    valid = covers and inside and s_deg and out_deg

    if params.psi_degenerate:
        size_ok, rhs = None, None
    else:
        rhs = f_mask.bit_count() + 2 * rec.t * psi / (d - psi)
        size_ok = s_mask.bit_count() <= rhs
    return PsiCheckReport(valid, covers, inside, s_deg, out_deg, size_ok,
                          s_mask.bit_count(), f_mask.bit_count(), rhs)


# -- boundary containers ---------------------------------------------------------------


@dataclass
class BoundaryContainer:
    c_mask: int
    fallback: bool
    ratio: Optional[float]          # |C| / (t d2 / log^3 d), when defined
    z2: int = 0
    z3: int = 0
    residual: int = 0               # the N^2((G_c \ M') & G0) part
    trimmed_tail: int = 0           # the N([A] \ A_core) part
    core: int = 0                   # the trimmed closed subset of the closure


def boundary_container(graph: CayleyGraph, rec: ClosedSetRecord,
                       c: Optional[float] = None) -> BoundaryContainer:
    """Assemble a per-record container C covering the boundary G' from
    greedy covers of the structured ingredient pieces.

    The construction trims the closure to a core subset with controlled
    iterated growth, covers the boundary vertices that are heavy into the
    first ring around the core, covers the part reachable twice from a
    trimmed outside set, and includes the leftovers directly.  Containment
    of G' is deterministic and asserted.  When the parameters degenerate
    (small degree), the trivially valid C = G' is returned instead.
    """
    if graph.parts is None or not graph.is_connected():
        raise InvalidInputError("boundary container needs a connected bipartite graph")
    if not rec.small:
        raise InvalidInputError("record must be small")
    d = regular_degree(graph)
    d2 = graph.gens.d2
    if c is None:
        c = math.log2(d) ** 2 if d >= 2 else 0.0
    t = rec.t
    denom = t * d2 / math.log2(d) ** 3 if d >= 2 and t > 0 else None

    if d < 4 or c < 4:
        return BoundaryContainer(rec.boundary, True,
                                 rec.boundary.bit_count() / denom if denom else None)

    spec = graph.group
    x_side = rec.side
    y_side = graph.full_mask() & ~x_side

    # trim the closure to a core with controlled growth, then re-close it
    d_mask = graph.gens.mask
    chain = chain_witness_search(spec, rec.closure, d_mask, k=3, c=c, mode="greedy")
    # [core] lies inside [A], because N(core) lies inside G
    core_rec = closure(graph, chain.chain[-1], x_side)
    core, g_core = core_rec.closure, core_rec.nbhd

    a0 = graph.nbhd_iter(core, 2) & ~core
    g0 = graph.nbhd_iter(core, 3) & ~g_core
    heavy = graph.heavy(core_rec.boundary, a0, d / 2)
    light = core_rec.boundary & ~heavy
    z2 = neighborhood_cover(graph, heavy, a0)

    outside = y_side & ~g_core
    m_prime = outside
    if outside:
        chain_out = chain_witness_search(spec, outside, d_mask,
                                         k=2, c=c * math.log2(d), mode="greedy")
        m_prime = chain_out.chain[-1]
    a2 = graph.nbhd_iter(m_prime, 3) & core
    reachable = light & graph.nbhd_iter(m_prime, 2)
    z3 = neighborhood_cover(graph, reachable, a2)

    residual = graph.nbhd_iter((outside & ~m_prime) & g0, 2)
    tail = graph.nbhd(rec.closure & ~core)
    c_mask = graph.nbhd(z2) | graph.nbhd(z3) | residual | tail
    assert rec.boundary & ~c_mask == 0, "container must cover the boundary"
    ratio = c_mask.bit_count() / denom if denom else None
    return BoundaryContainer(c_mask, False, ratio, z2, z3, residual, tail, core)
