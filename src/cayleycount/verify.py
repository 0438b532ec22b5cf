"""Verification sweeps: each function checks one family of facts across a
corpus and returns a SweepResult.  The CLI `verify` subcommand and the
acceptance tests both run these.

The standing corpus is: every Abelian group of order <= 16 with every
nonempty symmetric generator set, plus cycles C3..C24 and the complete
bipartite K_{d,d} for d <= 6.  The suites' other caps are fixed in their
bodies and named in their docstrings; only the keywords that the CLI's
`verify` flags reach stay settable.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain, combinations
from typing import Callable, Iterable, Iterator

from . import containers, counting, groups, sumsets
from .constructions import (
    GadgetRingConfig,
    OddCirculantConfig,
    build_gadget_ring,
    build_odd_circulant,
    enumerate_interval_families,
    interval_family_count,
    interval_family_intersection,
    maximal_set_from_intervals,
    odd_circulant_structure_check,
)
from .errors import InvalidInputError, InvariantViolation, RetriesExhaustedError
from .graphs import (CayleyGraph, bits_list, build_cayley, edge_connectivity, iter_bits,
                     mask_of, times_k2)
from .groups import GeneratorSet, GroupSpec

# The corpus tail: cycles C3..C{MAX_CYCLE} and K_{d,d} for d <= MAX_KDD
MAX_CYCLE = 24
MAX_KDD = 6


@dataclass
class SweepResult:
    name: str
    checked: int = 0
    violations: int = 0
    skipped: int = 0
    details: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.violations == 0 and self.checked > 0

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (f"{status} {self.name}: checked={self.checked} "
                f"violations={self.violations} skipped={self.skipped}")


# -- corpus ---------------------------------------------------------------------


def symmetric_generator_sets(spec: GroupSpec) -> Iterator[int]:
    """All nonempty symmetric subsets of the nonzero elements, as masks
    built from the negation orbits."""
    units: list[int] = []
    for x in range(1, spec.order):
        nx = groups.neg_id(spec, x)
        if x <= nx:
            units.append(1 << x | 1 << nx)
    for pick in range(1, 1 << len(units)):
        d = 0
        rest = pick
        while rest:
            lsb = rest & -rest
            d |= units[lsb.bit_length() - 1]
            rest ^= lsb
        yield d


def corpus_sets(orders: Iterable[int]) -> Iterator[tuple[GroupSpec, int]]:
    """Every (group, symmetric generator set mask) of the given orders."""
    for order in orders:
        for spec in groups.enumerate_abelian_groups(order):
            for d_set in symmetric_generator_sets(spec):
                yield spec, d_set


def corpus_graphs(max_order: int = 16) -> Iterator[tuple[str, CayleyGraph]]:
    for spec, d_set in corpus_sets(range(2, max_order + 1)):
        graph = build_cayley(spec, GeneratorSet(spec, iter_bits(d_set)))
        yield f"{spec}|D={bits_list(d_set)}", graph


def cycle_graph(n: int) -> CayleyGraph:
    spec = groups.make_group([n])
    return build_cayley(spec, GeneratorSet(spec, {1, n - 1}))


def complete_bipartite_graph(d: int) -> CayleyGraph:
    spec = groups.make_group([2 * d])
    return build_cayley(spec, GeneratorSet(spec, {x for x in range(1, 2 * d) if x % 2}))


def extremal_graphs() -> Iterator[tuple[str, CayleyGraph]]:
    """The corpus tail: cycles C3..C{MAX_CYCLE}, then K_{d,d} for d <= MAX_KDD."""
    for n in range(3, MAX_CYCLE + 1):
        yield f"C{n}", cycle_graph(n)
    for d in range(1, MAX_KDD + 1):
        yield f"K{d},{d}", complete_bipartite_graph(d)


# -- counting suites ---------------------------------------------------------------


def sweep_engine_equivalence(max_order: int = 16) -> SweepResult:
    """Branching engine equals the 2^V brute force on the whole corpus."""
    res = SweepResult("engine-equivalence")
    bad: list[str] = []
    for label, graph in chain(corpus_graphs(max_order), extremal_graphs()):
        if graph.vcount > 24:
            res.skipped += 1
            continue
        res.checked += 1
        if counting.count_independent_sets(graph) != counting.count_independent_sets_bruteforce(graph):
            res.violations += 1
            bad.append(label)
    res.details["failures"] = bad[:10]
    return res


def sweep_lucas_cycles() -> SweepResult:
    """i(C_n) equals the Lucas number L(n) for 3 <= n <= 30."""
    res = SweepResult("lucas-cycles")
    for n in range(3, 31):
        res.checked += 1
        if counting.count_independent_sets(cycle_graph(n)) != counting.lucas_number(n):
            res.violations += 1
    return res


def sweep_complete_bipartite() -> SweepResult:
    """i(K_{d,d}) = 2^(d+1) - 1 for d <= MAX_KDD."""
    res = SweepResult("complete-bipartite")
    for d in range(1, MAX_KDD + 1):
        res.checked += 1
        if counting.count_independent_sets(complete_bipartite_graph(d)) != 2 ** (d + 1) - 1:
            res.violations += 1
    return res


def sweep_zhao(max_vertices: int = 14) -> SweepResult:
    """i(Gamma x K2) >= i(Gamma)^2 on every corpus graph up to the size cap."""
    res = SweepResult("zhao")
    for label, graph in corpus_graphs(max_vertices):
        res.checked += 1
        base = counting.count_independent_sets(graph)
        doubled = counting.count_independent_sets(times_k2(graph))
        if doubled < base * base:
            res.violations += 1
            res.details.setdefault("failures", []).append(label)
    c5, c10 = cycle_graph(5), cycle_graph(10)
    i5 = counting.count_independent_sets(c5)
    i10 = counting.count_independent_sets(c10)
    res.checked += 1
    if not (i5 == 11 and i10 == 123 and i10 >= i5 * i5):
        res.violations += 1
    res.details["i(C5)"] = i5
    res.details["i(C10)"] = i10
    return res


def sweep_side_sums(max_order: int = 16) -> SweepResult:
    """On every connected bipartite corpus graph with sides of n <= 14
    vertices: i(G) is bounded by both doubled side sums, and by the rigorous
    cluster bound."""
    res = SweepResult("side-sum-and-cluster")

    def check(label: str, graph: CayleyGraph) -> None:
        if graph.parts is None or not graph.is_connected():
            return
        n = graph.vcount // 2
        if n > 14:
            res.skipped += 1
            return
        res.checked += 1
        i_count = counting.count_independent_sets(graph)
        sums = counting.bipartite_bound_sum(graph)
        cb = counting.cluster_bound(graph)
        # the closed-representative cluster variant is NOT a valid bound
        # (it genuinely fails on some order-16 elementary-Abelian instances),
        # so only the all-sets variant is asserted
        ok = (i_count <= sums.doubled_small_size
              and i_count <= sums.doubled_small_closure
              and cb.holds and cb.i_count == i_count)
        if not ok:
            res.violations += 1
            res.details.setdefault("failures", []).append(label)
        if not cb.holds_closed:
            res.details["closed_variant_fails"] = res.details.get("closed_variant_fails", 0) + 1

    # odd cycles are not bipartite, so `check` passes over them
    for label, graph in chain(corpus_graphs(max_order), extremal_graphs()):
        check(label, graph)
    return res


def sweep_main_trend(max_order: int = 16) -> SweepResult:
    """Report the maximum of i(Gamma) / 2^(n+1) over connected corpus graphs
    on 2n <= 16 vertices; sanity-assert the bipartite high-degree cases."""
    res = SweepResult("main-trend")
    max_ratio: Fraction = Fraction(0)
    max_label = ""
    max_bip_ratio: Fraction = Fraction(0)
    max_bip_label = ""
    complete_ok = True
    for spec, d_set in corpus_sets(range(2, max_order + 1, 2)):
        n = spec.order // 2
        graph = build_cayley(spec, GeneratorSet(spec, iter_bits(d_set)))
        if not graph.is_connected():
            continue
        res.checked += 1
        ratio = Fraction(counting.count_independent_sets(graph), 2 ** (n + 1))
        if ratio > max_ratio:
            max_ratio, max_label = ratio, f"{spec}|{bits_list(d_set)}"
        if graph.parts is not None and graph.gens.d >= math.log2(max(n, 2)):
            if ratio > max_bip_ratio:
                max_bip_ratio, max_bip_label = ratio, f"{spec}|{bits_list(d_set)}"
            x_mask, y_mask = graph.parts
            complete = all(graph.adj[v] == y_mask for v in iter_bits(x_mask))
            if complete and ratio != Fraction(2 ** (n + 1) - 1, 2 ** (n + 1)):
                complete_ok = False
    res.details["max_ratio"] = float(max_ratio)
    res.details["max_instance"] = max_label
    res.details["max_bipartite_ratio"] = float(max_bip_ratio)
    res.details["max_bipartite_instance"] = max_bip_label
    if not (max_bip_ratio <= 4 and complete_ok):
        res.violations += 1
    return res


# -- sumset suites ---------------------------------------------------------------------


def sets_with_zero(order: int, below: int) -> list[int]:
    """Masks of {0} u C for every set C of fewer than `below` of the ids
    1..order-1, by size and then lexicographically: the element sets of a
    group of that order up to translation, the corpus of the sumset sweeps."""
    bits = [1 << x for x in range(1, order)]
    return [1 | sum(c) for size in range(below) for c in combinations(bits, size)]


def sweep_olson(max_order: int = 10) -> SweepResult:
    """The stabilize-or-expand disjunction for every (M, N) pair, every group
    of order <= max_order.  Both sides are swept over subsets containing 0:
    all sizes and the branch taken are translation invariant, and the check
    itself shifts N to contain 0, so this covers every pair."""
    res = SweepResult("olson")
    for order in range(2, max_order + 1):
        sets = sets_with_zero(order, order)
        for spec in groups.enumerate_abelian_groups(order):
            for m_set in sets:
                for n_set in sets:
                    res.checked += 1
                    if not sumsets.olson_check(spec, m_set, n_set).holds:
                        res.violations += 1
    return res


def sweep_prp(max_order: int = 12) -> SweepResult:
    """A Plünnecke-Ruzsa-Petridis witness at j = 2 exists for every (M, D)
    with |M|, |D| <= 4 (swept up to translation: both sets contain 0)."""
    res = SweepResult("prp")
    for order in range(2, max_order + 1):
        sets = sets_with_zero(order, 4)
        for spec in groups.enumerate_abelian_groups(order):
            for d_set in sets:
                powers = sumsets.chain_powers(spec, d_set, 1)
                for m_set in sets:
                    res.checked += 1
                    try:
                        sumsets.prp_witness_search(spec, m_set, powers)
                    except InvariantViolation:
                        res.violations += 1
    return res


def sweep_chain(max_order: int = 12) -> SweepResult:
    """A valid shrinking chain with c = 4 exists (exhaustive search) for
    every (M, D) with |M| <= 8 and |D| <= 3 and every depth k <= 2, swept up
    to translation."""
    res = SweepResult("chain")
    for order in range(2, max_order + 1):
        m_sets, d_sets = sets_with_zero(order, 8), sets_with_zero(order, 3)
        for spec in groups.enumerate_abelian_groups(order):
            for d_set in d_sets:
                powers = sumsets.chain_powers(spec, d_set, 2)
                for m_set in m_sets:
                    for k in (1, 2):
                        res.checked += 1
                        wit = sumsets.chain_witness_search(spec, m_set, powers[:k + 1], 4,
                                                           mode="exhaustive")
                        if not wit.success:
                            res.violations += 1
                            res.details.setdefault("failures", []).append(
                                (order, bits_list(m_set), bits_list(d_set), k))
    return res


def sweep_growth(trials: int = 10000, max_order: int = 64, seed: int = 0) -> SweepResult:
    """Random instances of the iterated-growth bound |M + iD| <= m + d^i t
    for 2 <= i <= 3.  D is drawn symmetric (optionally containing 0),
    matching the setting in which the bound is a theorem."""
    if max_order < 2:
        raise InvalidInputError(f"growth draws groups of order 2..max_order, got {max_order}")
    res = SweepResult("growth")
    rng = random.Random(f"growth:{seed}")
    for _ in range(trials):
        order = rng.randint(2, max_order)
        specs = groups.enumerate_abelian_groups(order)
        spec = specs[rng.randrange(len(specs))]
        half: set[int] = set()
        size_target = rng.randint(1, max(1, order // 2))
        for _ in range(size_target):
            half.add(rng.randrange(1, order))
        d_set = 0
        for x in half:
            d_set |= 1 << x | 1 << groups.neg_id(spec, x)
        if rng.random() < 0.3:
            d_set |= 1
        m_size = rng.randint(1, max(1, order // 2))
        m_set = mask_of(rng.sample(range(order), m_size))
        i = rng.randint(2, 3)
        res.checked += 1
        if not sumsets.iterated_growth_check(spec, m_set, d_set, i).holds:
            res.violations += 1
            res.details.setdefault("failures", []).append(
                (spec.factors, bits_list(m_set), bits_list(d_set), i))
    return res


def sweep_thinning(seeds: int = 100) -> SweepResult:
    """Thinning at alpha = 2 on the arithmetic-progression generator set
    {+-1..+-64} in Z1024: symmetry and generation must hold on every seed;
    the size window and restored doubling on at least 90% of seeds."""
    res = SweepResult("thinning")
    spec = groups.make_group([1024])
    gens = GeneratorSet(spec, groups.symmetrize(spec, range(1, 65)))
    exact_ok = window_ok = doubling_ok = 0
    for seed in range(seeds):
        res.checked += 1
        _, rep = sumsets.thin_generators(spec, gens, sumsets.ThinningConfig(2.0, seed))
        exact_ok += rep.generating and rep.symmetric
        window_ok += rep.in_window
        doubling_ok += rep.doubling_ok
    res.details.update(exact=exact_ok, window=window_ok, doubling=doubling_ok)
    if exact_ok < seeds or window_ok < 0.9 * seeds or doubling_ok < 0.9 * seeds:
        res.violations += 1
    return res


# -- container suites ---------------------------------------------------------------------


PSI_CORPUS = ((8, 3), (16, 5), (32, 7))


def sweep_psi(instances: Iterable[tuple[int, int]] = PSI_CORPUS) -> SweepResult:
    """psi_approx started from F = G passes both definition clauses on every
    small 2-linked closed record, with the size inequality whenever the
    degree split is nondegenerate."""
    res = SweepResult("psi")
    for n, d in instances:
        graph = build_odd_circulant(OddCirculantConfig(n, d))
        params = containers.ApproxParams.for_degree(d + 1)
        for rec in counting.enumerate_small_2linked_closed(graph, "X"):
            res.checked += 1
            approx = containers.psi_approx(graph, rec, rec.nbhd)
            rep = containers.check_psi(graph, rec, approx)
            size_ok = rep.size_bound_ok if not params.psi_degenerate else True
            if not (rep.valid and (size_ok or size_ok is None)):
                res.violations += 1
                res.details.setdefault("failures", []).append((n, d, rec.closure))
    return res


def sweep_phi(instances: Iterable[tuple[int, int]] = PSI_CORPUS) -> SweepResult:
    """phi_approx_sample returns a valid approximation within the retry cap
    for every record, container C = G', across the master seeds 0..4."""
    res = SweepResult("phi")
    for n, d in instances:
        graph = build_odd_circulant(OddCirculantConfig(n, d))
        recs = list(counting.enumerate_small_2linked_closed(graph, "X"))
        for seed in range(5):
            successes = 0
            for rec in recs:
                res.checked += 1
                try:
                    f_mask, _ = containers.phi_approx_sample(graph, rec, rec.boundary, seed)
                except RetriesExhaustedError:
                    res.violations += 1
                    continue
                if containers.check_phi(graph, rec, f_mask):
                    successes += 1
                else:
                    res.violations += 1
            res.details[f"({n},{d})@seed{seed}"] = f"{successes}/{len(recs)}"
            if successes < 0.99 * len(recs):
                res.violations += 1
    return res


def sweep_lovasz_stein(trials: int = 1000, seed: int = 0) -> SweepResult:
    """Random bipartite cover instances, a universe of at most 200 elements
    and at most 40 sets; the greedy cover checks its guarantee internally,
    so any violation raises."""
    res = SweepResult("lovasz-stein")
    rng = random.Random(f"cover:{seed}")
    for _ in range(trials):
        na = rng.randint(1, 200)
        nb = rng.randint(1, 40)
        universe = (1 << na) - 1
        sets = [0] * nb
        for v in range(na):
            k = rng.randint(1, nb)
            for i in rng.sample(range(nb), k):
                sets[i] |= 1 << v
        res.checked += 1
        try:
            result = containers.greedy_cover(universe, sets)
        except InvariantViolation:
            res.violations += 1
            continue
        if result.chosen_mask != universe:
            res.violations += 1
    return res


# -- construction suites ---------------------------------------------------------------------


def sweep_gadget_ring(d: int = 3, seed: int = 0) -> SweepResult:
    """Regularity, edge-connectivity >= d-1, every interval family's maximal
    independent set, the 2^(n+1) lower bound, and the growth trend of
    log2 i(G) - n across t = 2, 3."""
    res = SweepResult("gadget-ring")
    log_excess = []
    for t in (2, 3):
        ring = build_gadget_ring(GadgetRingConfig(d=d, t=t, seed=seed))
        graph = ring.graph
        res.checked += 1
        regular = all(graph.degree(v) == d for v in range(graph.vcount))
        econn = edge_connectivity(graph)
        # 96 vertices: the t = 3 ring has 84 at d = 4, above the default budget
        i_count = counting.count_independent_sets(graph, 96)
        n = ring.cfg.n
        families = enumerate_interval_families(ring.cfg.blocks)
        fams_ok = True
        family_total = 0
        for fam in families:
            _, rep = maximal_set_from_intervals(ring, fam)
            fams_ok &= rep.independent and rep.maximal and rep.size_ok
            fc = interval_family_count(ring, fam)
            fams_ok &= fc.cross_edges_ok
            family_total += fc.count
            for other in families:
                inter = interval_family_intersection(ring, fam, other)
                if fam == other:
                    fams_ok &= inter == fc.count
                else:
                    fams_ok &= inter == 0
        ok = (regular and econn >= d - 1 and i_count >= 2 ** (n + 1)
              and fams_ok and family_total <= i_count)
        if not ok:
            res.violations += 1
        log_excess.append(math.log2(i_count) - n)
        res.details[f"t={t}"] = {
            "edge_connectivity": econn,
            "log2_i_minus_n": round(math.log2(i_count) - n, 4),
            "rate": round(i_count ** (1 / (2 * n)), 6),
            "families": len(families),
        }
    if any(b <= a for a, b in zip(log_excess, log_excess[1:])):
        res.violations += 1
    return res


def sweep_odd_circulant(max_n: int = 12, d: int = 3) -> SweepResult:
    """Structure of the odd-band circulant: interval closures, difference-2
    progression neighborhoods with g = a + d, and a table supported on
    t = d only."""
    # n = d + 1 has no small 2-linked closed sets, so a shorter range checks nothing
    if max_n < d + 2:
        raise InvalidInputError(f"odd-circulant needs max_n >= d + 2 = {d + 2}, got {max_n}")
    res = SweepResult("odd-circulant")
    for n in range(d + 1, max_n + 1):
        rep = odd_circulant_structure_check(OddCirculantConfig(n, d))
        res.checked += len(rep.records)
        if not (rep.all_t_equal_d and rep.all_intervals and rep.all_nbhd_ap
                and rep.table_zero_off_diag):
            res.violations += 1
            res.details.setdefault("failures", []).append(n)
        res.details[f"n={n}"] = {
            "records": len(rep.records),
            "min_coverage": round(rep.min_coverage, 4),
            "ratio_range": (round(min(rep.ratios.values()), 4),
                            round(max(rep.ratios.values()), 4)) if rep.ratios else None,
        }
    return res


ALL_SUITES: dict[str, Callable[[], SweepResult]] = {
    "engine": sweep_engine_equivalence,
    "lucas": sweep_lucas_cycles,
    "kdd": sweep_complete_bipartite,
    "zhao": sweep_zhao,
    "side-sum": sweep_side_sums,
    "trend": sweep_main_trend,
    "olson": sweep_olson,
    "prp": sweep_prp,
    "chain": sweep_chain,
    "growth": sweep_growth,
    "thinning": sweep_thinning,
    "psi": sweep_psi,
    "phi": sweep_phi,
    "lovasz-stein": sweep_lovasz_stein,
    "gadget-ring": sweep_gadget_ring,
    "odd-circulant": sweep_odd_circulant,
}
