"""Container machinery: greedy covers with the Lovász-Stein guarantee, the
contraction preprocessing (super-vertices as the connected components
through the Y-vertices outside C), randomized phi-approximation sampling,
the deterministic psi-approximation algorithm (two single passes), and
per-record boundary containers.

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

from .errors import InvalidInputError, InvariantViolation, RetriesExhaustedError
from .graphs import CayleyGraph, ClosedSetRecord, Graph, bits_list, closure, iter_bits, mask_of
from .sumsets import ChainWitness, chain_witness_search


def regular_degree(graph: Graph) -> int:
    degs = graph.degrees()
    if len(degs) != 1:
        raise InvalidInputError("container operations need a regular graph")
    return next(iter(degs))


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
    bound: float               # (|B|/a)(1 + ln b): a the least cover multiplicity
                               # over the universe, b the largest candidate in it


def greedy_cover(universe: int, candidates: Sequence[int]) -> CoverResult:
    """Greedy max-coverage selection of candidate sets until the universe is
    covered.  The selection provably stays within (|B|/a)(1 + ln b), which is
    checked on every call."""
    if universe == 0:
        return CoverResult([], 0, 0.0)
    restricted = [c & universe for c in candidates]
    # layers[j]: the elements in at least j + 1 candidates; a candidate
    # carries the elements it holds up through the layers that hold them
    layers: list[int] = []
    for carry in restricted:
        for j, layer in enumerate(layers):
            if not carry:
                break
            carry, layers[j] = carry & layer, layer | carry
        else:
            if carry:
                layers.append(carry)
    missed = universe & ~layers[0] if layers else universe
    if missed:
        v = (missed & -missed).bit_length() - 1
        raise InvalidInputError(f"universe element {v} lies in no candidate set")
    # the layers shrink, so the ones that hold the whole universe come first
    a_min = sum(1 for layer in layers if layer == universe)
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
    if len(chosen) > bound:
        raise InvariantViolation("greedy exceeded the Lovász-Stein guarantee")
    return CoverResult(chosen, covered, bound)


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
    """Merge the X-vertices linked through Y-vertices outside C.

    The super-vertices are the connected components of the subgraph on
    Y \\ C together with its X-neighbors, each cut down to its X-vertices
    S: two X-vertices share one exactly when a path through Y-vertices
    outside C joins them.  R is the rest of X, the vertices with no
    neighbor outside C.

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
    if c_mask & ~side:
        raise InvalidInputError("C must be a subset of the chosen side")
    outside = side & ~c_mask
    touched = x_mask & graph.nbhd(outside)
    supers: list[SuperVertex] = []
    for comp in graph.components(touched | outside):
        s = comp & x_mask
        if s:       # a Y-vertex without neighbors merges nothing
            ns = graph.nbhd(s)
            nsd = graph.interior(ns, s)
            supers.append(SuperVertex(s, s | nsd, ns & ~nsd))
    state = ContractionState(x_mask & ~touched, supers)
    # the untouched vertices are exactly those with N(v) inside C
    if state.r_mask != graph.interior(x_mask, c_mask):
        raise InvariantViolation("contraction kept a vertex with a neighbor outside C")
    if not state.x_partition_ok(x_mask):
        raise InvariantViolation("contraction does not partition the X side")
    return state


def split_relative(state: ContractionState, rec: ClosedSetRecord):
    """Partition R and the super-vertices relative to a record's closure."""
    r_a = state.r_mask & rec.closure
    r_ac = state.r_mask & ~rec.closure
    sup_a = [sv for sv in state.supers if sv.s_mask & ~rec.closure == 0]
    sup_ac = [sv for sv in state.supers if sv.s_mask & ~rec.closure]
    return r_a, r_ac, sup_a, sup_ac


# -- phi-approximation ----------------------------------------------------------------


# The sampler's retry cap and its boundary-edge threshold, as a multiple of
# t / log^2 d; read at each call.
PHI_RETRIES = 100
PHI_EDGE_COEFF = 50.0


@dataclass
class PhiSampleReport:
    degenerate: bool
    retries: int
    properties: tuple[bool, bool, bool, bool] | None
    f_size: int


def check_phi(graph: Graph, rec: ClosedSetRecord, f_mask: int,
              params: Optional[ApproxParams] = None) -> bool:
    """F is a phi-approximation: F inside G, F covers every phi-heavy vertex
    of G, and N(F) covers the closure."""
    if params is None:
        params = ApproxParams.for_degree(regular_degree(graph))
    if f_mask & ~rec.nbhd:
        return False
    g_phi = graph.heavy(rec.nbhd, rec.closure, params.phi)
    if g_phi & ~f_mask:
        return False
    return rec.closure & ~graph.nbhd(f_mask) == 0


def phi_approx_sample(graph: CayleyGraph, rec: ClosedSetRecord, c_mask: int,
                      seed: int = 0) -> tuple[int, PhiSampleReport]:
    """Sample a phi-approximation F for the record, given a container C for
    its boundary, and return the mask of F with a report.

    Draws Q0 as a p-random subset of C intersected with G (p = 60 log d / d2,
    clamped), redraws (at most PHI_RETRIES draws) until the four size
    properties hold, then assembles Z1 from the sampled sets and the
    interior reconstruction and Z2 from a greedy cover of the closure
    vertices Z1 misses.  The returned set always passes check_phi; the
    sampled properties only certify sizes.

    Small-d degeneracy (p >= 1 or phi <= 0) returns F = G, which is always
    valid.
    """
    if not isinstance(graph, CayleyGraph):
        raise InvalidInputError("sampler needs a Cayley graph")
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
        if not check_phi(graph, rec, rec.nbhd, params):
            raise InvariantViolation("F = G is not a phi-approximation")
        return rec.nbhd, PhiSampleReport(True, 0, None, rec.g)

    adj = graph.adj
    t = rec.t
    log2_d = math.log2(d)
    state = contract(graph, c_mask, side=graph.full_mask() & ~rec.side)
    r_a, r_ac, sup_a, sup_ac = split_relative(state, rec)

    # interior Y-vertices outside C, reconstructed from the pure-A supers
    g_d = graph.heavy(rec.nbhd, rec.closure, d)
    interior_outside = 0
    for sv in sup_a:
        interior_outside |= sv.members & ~rec.side & ~c_mask
    if interior_outside != g_d & ~c_mask:
        raise InvariantViolation("interior reconstruction mismatch")

    g_phi = graph.heavy(rec.nbhd, rec.closure, params.phi)
    pool = bits_list(c_mask & rec.nbhd)
    thresholds = (
        50.0 * t / log2_d**2,           # |Q0|
        PHI_EDGE_COEFF * t / log2_d**2,
        5.0 * t / d**7,                 # uncovered supers
        5.0 * t / d**8,                 # uncovered heavy vertices
    )

    last_props = None
    last_vals = None
    for attempt in range(PHI_RETRIES):
        rng = random.Random(f"phi:{seed}:{attempt}")
        q0 = 0
        for y in pool:
            if rng.random() < p:
                q0 |= 1 << y
        # edges from Q0 into the non-closure part of the contracted graph:
        # into R outside [A] by their Q0 ends, into a super-vertex by its nbhd
        boundary_edges = (sum((adj[y] & r_ac).bit_count() for y in iter_bits(q0))
                          + sum((sv.nbhd & q0).bit_count() for sv in sup_ac))
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
        if uncovered & ~r_a:
            raise InvariantViolation("non-R closure vertex escaped Z1")
        z2 = neighborhood_cover(graph, uncovered, rec.nbhd & ~z1)
        f_mask = z1 | z2
        if not check_phi(graph, rec, f_mask, params):
            raise InvariantViolation("sampled F is not a phi-approximation")
        return f_mask, PhiSampleReport(False, attempt + 1, props, f_mask.bit_count())
    raise RetriesExhaustedError(
        f"phi sampler failed {PHI_RETRIES} retries; "
        f"last values {last_vals} vs thresholds {thresholds} ({last_props})")


# -- psi-approximation ----------------------------------------------------------------


@dataclass
class PsiApprox:
    s_mask: int
    f_mask: int


def psi_approx(graph: Graph, rec: ClosedSetRecord, f_mask: int, *,
               checked: bool = False) -> PsiApprox:
    """Refine a phi-approximation into a (S, F) psi-approximation.

    F must be a phi-approximation of the record: it is checked with
    `check_phi`, and InvalidInputError raised if it fails, unless `checked`
    says the caller holds F from `phi_approx_sample` for this very record,
    which has just run the same check.

    Loop 1 passes over the closure in id order and grows F by the full
    neighborhood of each vertex that still has psi neighbors in G outside
    F.  S then starts as every X-vertex with at least d - psi neighbors in
    F, and loop 2 passes over the Y-vertices outside F in id order and
    strips N(w) from S for each w that still has more than psi neighbors in
    S (vertices inside F are exempt, which is what keeps the closure inside
    S).  Loop 1 only grows F and loop 2 only shrinks S, so a count only
    falls and a vertex that fails its test once fails it for good: one
    pass picks the same vertices, in the same order, as restarting from
    the least vertex after each step.
    """
    d = regular_degree(graph)
    params = ApproxParams.for_degree(d)
    if not checked and not check_phi(graph, rec, f_mask, params):
        raise InvalidInputError("input F is not a phi-approximation")
    psi = params.psi
    adj = graph.adj
    x_side = rec.side
    y_side = graph.full_mask() & ~x_side

    f_prime = f_mask
    for u in iter_bits(rec.closure):
        if (adj[u] & rec.nbhd & ~f_prime).bit_count() >= psi:
            f_prime |= adj[u]
    s_mask = graph.heavy(x_side, f_prime, d - psi)
    for w in iter_bits(y_side & ~f_prime):
        if (adj[w] & s_mask).bit_count() > psi:
            s_mask &= ~adj[w]
    return PsiApprox(s_mask, f_prime)


@dataclass
class PsiCheckReport:
    valid: bool
    covers_closure: bool
    size_bound_ok: Optional[bool]    # None when psi = d (degenerate split)
    s_size: int


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
        size_ok = None
    else:
        size_ok = s_mask.bit_count() <= f_mask.bit_count() + 2 * rec.t * psi / (d - psi)
    return PsiCheckReport(valid, covers, size_ok, s_mask.bit_count())


# -- boundary containers ---------------------------------------------------------------


@dataclass
class BoundaryContainer:
    c_mask: int
    fallback: bool
    ratio: Optional[float]          # |C| / (t d2 / log^3 d), when defined
    core: int = 0                   # the trimmed closed subset of the closure


def _untrimmed(chain: ChainWitness) -> bool:
    """The chain removed nothing from M and reached level 2, so its level
    sums M + 2D and M + 3D are N^2(M) and N^3(M) on the Cayley graph."""
    return chain.chain[-1] == chain.chain[0] and len(chain.sums) > 2


def boundary_container(graph: CayleyGraph, rec: ClosedSetRecord) -> BoundaryContainer:
    """Assemble a per-record container C covering the boundary G' from
    greedy covers of the structured ingredient pieces.

    The construction trims the closure to a core subset with controlled
    iterated growth, covers the boundary vertices that are heavy into the
    first ring around the core, covers the part reachable twice from a
    trimmed outside set, and includes the leftovers directly.  Containment
    of G' is deterministic and checked.  When the parameters degenerate
    (small degree), the trivially valid C = G' is returned instead.  The
    chain constant is c = log^2 d.

    N^2 and N^3 of the core and of the trimmed outside set M' come from
    their chain searches, whose level sums M + (i+1)D are exactly the
    iterated neighborhoods N^(i+1)(M) on a Cayley graph: when a chain
    removes nothing, its end is its start, and neither re-closing nor a
    neighborhood is computed again.  Only a chain that trimmed its set has
    its end re-closed (the core) and its neighborhoods formed.
    """
    if not isinstance(graph, CayleyGraph):
        raise InvalidInputError("boundary container needs a Cayley graph")
    if graph.parts is None or not graph.is_connected():
        raise InvalidInputError("boundary container needs a connected bipartite graph")
    if not rec.small:
        raise InvalidInputError("record must be small")
    d = regular_degree(graph)
    d2 = graph.gens.d2
    t = rec.t
    denom = t * d2 / math.log2(d) ** 3 if d >= 2 and t > 0 else None

    # c = log2(d)^2 is below 4 exactly when d is
    if d < 4:
        return BoundaryContainer(rec.boundary, True,
                                 rec.boundary.bit_count() / denom if denom else None)

    spec = graph.group
    x_side = rec.side
    y_side = graph.full_mask() & ~x_side
    powers, c, c_out = graph.chain_inputs()

    # trim the closure to a core with controlled growth
    chain = chain_witness_search(spec, rec.closure, powers, c, mode="greedy")
    if _untrimmed(chain):
        # the core is [A] itself, with N^2 and N^3 the level sums
        core_rec, (n2_core, n3_core) = rec, chain.sums[1:3]
    else:
        # re-close the core; [core] lies inside [A], because N(core) lies
        # inside G, and N(core) = G_core, since a closure has the
        # neighborhood of what it closes
        core_rec = closure(graph, chain.chain[-1], x_side)
        n2_core = graph.nbhd(core_rec.nbhd)
        n3_core = graph.nbhd(n2_core)
    core, g_core = core_rec.closure, core_rec.nbhd

    a0 = n2_core & ~core
    g0 = n3_core & ~g_core
    heavy = graph.heavy(core_rec.boundary, a0, d / 2)
    light = core_rec.boundary & ~heavy
    z2 = neighborhood_cover(graph, heavy, a0)

    outside = y_side & ~g_core
    m_prime = n2_m = n3_m = 0
    if outside:
        chain_out = chain_witness_search(spec, outside, powers[:3], c_out, mode="greedy")
        m_prime = chain_out.chain[-1]
        if _untrimmed(chain_out):
            n2_m, n3_m = chain_out.sums[1:3]
        else:
            n2_m = graph.nbhd_iter(m_prime, 2)
            n3_m = graph.nbhd(n2_m)
    a2 = n3_m & core
    reachable = light & n2_m
    z3 = neighborhood_cover(graph, reachable, a2)

    residual = graph.nbhd_iter((outside & ~m_prime) & g0, 2)   # N^2((G_c \ M') & G0)
    tail = graph.nbhd(rec.closure & ~core)                      # N([A] \ A_core)
    c_mask = graph.nbhd(z2) | graph.nbhd(z3) | residual | tail
    if rec.boundary & ~c_mask:
        raise InvariantViolation("container must cover the boundary")
    ratio = c_mask.bit_count() / denom if denom else None
    return BoundaryContainer(c_mask, False, ratio, core)
