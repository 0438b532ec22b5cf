"""Builders and verifiers for the two extremal constructions: a ring of
bipartite gadgets (high edge-connectivity, many independent sets) and the
odd-band circulant Cayley graph on Z_2n whose small closed sets are
intervals.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from math import prod
from typing import Optional, Sequence

from . import counting, groups
from .errors import (
    InstanceTooLargeError,
    InvalidInputError,
    InvariantViolation,
    RetriesExhaustedError,
)
from .graphs import (
    CayleyGraph,
    Graph,
    bits_list,
    build_cayley,
    iter_bits,
    mask_of,
    vertex_connectivity,
)
from .groups import GeneratorSet

# Seeded rejection-sampling attempts per gadget
GADGET_ATTEMPTS = 2000


# -- gadget ring ----------------------------------------------------------------


@dataclass(frozen=True)
class GadgetRingConfig:
    """Ring of 2t identical bipartite gadget blocks of degree d.

    Each block has 4d - 2 vertices, so the ring has 2n = 2(4d - 2)t vertices
    with n = (4d - 2) t; an even number of blocks keeps the ring bipartite.
    A ring above `groups.MAX_ORDER` vertices is refused before anything is
    built.
    """

    d: int
    t: int
    seed: int = 0

    def __post_init__(self) -> None:
        if self.d < 3:
            raise InvalidInputError(
                "d must be >= 3: a connected gadget needs 2d(d-1) >= 4d - 3 edges")
        if self.t < 2:
            raise InvalidInputError("t must be >= 2")
        if 2 * self.n > groups.MAX_ORDER:
            raise InstanceTooLargeError(
                f"a ring of {2 * self.n} vertices exceeds the size budget {groups.MAX_ORDER}")

    @property
    def blocks(self) -> int:
        return 2 * self.t

    @property
    def n(self) -> int:
        return (4 * self.d - 2) * self.t

    @property
    def block_size(self) -> int:
        return 4 * self.d - 2


def build_gadget(d: int, seed: int = 0) -> Graph:
    """One bipartite block: left part X of 2d - 2 vertices with degree d,
    right part Y u Z of 2d vertices with degree d - 1, vertex connectivity
    at least d - 1.

    Found by seeded rejection sampling over biregular configurations, at
    most GADGET_ATTEMPTS draws; any simple graph meeting the degree and
    connectivity constraints works.
    Vertex layout: X = 0..2d-3, Y = 2d-2..3d-3, Z = 3d-2..4d-3.
    """
    if d < 3:
        raise InvalidInputError(
            "d must be >= 3: a connected gadget needs 2d(d-1) >= 4d - 3 edges")
    nx, nr = 2 * d - 2, 2 * d
    rng = random.Random(f"gadget:{d}:{seed}")
    left_stubs = [x for x in range(nx) for _ in range(d)]
    for _ in range(GADGET_ATTEMPTS):
        right_stubs = [nx + r for r in range(nr) for _ in range(d - 1)]
        rng.shuffle(right_stubs)
        adj = [0] * (nx + nr)
        ok = True
        for u, v in zip(left_stubs, right_stubs):
            if adj[u] >> v & 1:
                ok = False
                break
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        if not ok:
            continue
        g = Graph(adj, parts=(mask_of(range(nx)), mask_of(range(nx, nx + nr))))
        if vertex_connectivity(g) >= d - 1:
            return g
    raise RetriesExhaustedError(
        f"no ({d})-gadget found in {GADGET_ATTEMPTS} attempts; retry with a new seed")


@dataclass
class BlockLayout:
    index: int          # 1-based block number
    x_mask: int
    y_mask: int
    z_mask: int

    @property
    def left(self) -> int:
        """The L side: X for odd block numbers, Y u Z for even ones."""
        return self.x_mask if self.index % 2 == 1 else self.y_mask | self.z_mask

    @property
    def right(self) -> int:
        return self.y_mask | self.z_mask if self.index % 2 == 1 else self.x_mask


@dataclass
class GadgetRing:
    cfg: GadgetRingConfig
    graph: Graph
    gadget: Graph
    layout: list[BlockLayout]


def build_gadget_ring(cfg: GadgetRingConfig) -> GadgetRing:
    """Assemble 2t copies of one gadget into a d-regular ring by matching
    Z of each block to Y of the next (identity matching under the fixed
    labeling), wrapping around."""
    d = cfg.d
    gadget = build_gadget(d, cfg.seed)
    bs = cfg.block_size
    blocks = cfg.blocks
    total = bs * blocks
    adj = [0] * total
    layout = []
    for b in range(blocks):
        base = b * bs
        adj[base:base + bs] = [row << base for row in gadget.adj]
        layout.append(BlockLayout(
            index=b + 1,
            x_mask=mask_of(range(base, base + 2 * d - 2)),
            y_mask=mask_of(range(base + 2 * d - 2, base + 3 * d - 2)),
            z_mask=mask_of(range(base + 3 * d - 2, base + 4 * d - 2)),
        ))
    for b in range(blocks):
        nxt = (b + 1) % blocks
        zs = bits_list(layout[b].z_mask)
        ys = bits_list(layout[nxt].y_mask)
        for zv, yv in zip(zs, ys):
            adj[zv] |= 1 << yv
            adj[yv] |= 1 << zv
    graph = Graph(adj, parts=(sum(bl.left for bl in layout), sum(bl.right for bl in layout)))
    if not all(graph.degree(v) == d for v in range(total)):
        raise InvariantViolation("ring must be d-regular")
    return GadgetRing(cfg, graph, gadget, layout)


def _validate_intervals(blocks: int, intervals: Sequence[tuple[int, int]]) -> list[tuple[int, int]]:
    seen_blocks: set[int] = set()
    out = []
    for lo, hi in intervals:
        if not (1 <= lo <= hi <= blocks):
            raise InvalidInputError(f"interval ({lo},{hi}) out of range 1..{blocks}")
        if lo % 2 == 0 or hi % 2 == 0:
            raise InvalidInputError(f"interval ({lo},{hi}) must start and end on odd blocks")
        span = set(range(lo, hi + 1))
        if span & seen_blocks:
            raise InvalidInputError("intervals must be pairwise disjoint")
        seen_blocks |= span
        out.append((lo, hi))
    return sorted(out)


def _chosen_sides(ring: GadgetRing, intervals: Sequence[tuple[int, int]]) -> list[int]:
    """Per block, its L side if one of the intervals covers it, else its R side."""
    ivs = _validate_intervals(ring.cfg.blocks, intervals)
    return [bl.left if any(lo <= bl.index <= hi for lo, hi in ivs) else bl.right
            for bl in ring.layout]


@dataclass
class MaximalSetReport:
    size: int
    independent: bool
    maximal: bool
    size_ok: bool       # size >= n - 2c


def maximal_set_from_intervals(ring: GadgetRing,
                               intervals: Sequence[tuple[int, int]]) -> tuple[int, MaximalSetReport]:
    """Build the union of L sides over interval blocks and R sides elsewhere,
    and verify independence, maximality, and the n - 2c size guarantee."""
    m = sum(_chosen_sides(ring, intervals))     # the blocks are disjoint
    g = ring.graph
    nbhd = g.nbhd(m)
    independent = nbhd & m == 0
    maximal = independent and nbhd | m == g.full_mask()
    return m, MaximalSetReport(size=m.bit_count(), independent=independent, maximal=maximal,
                               size_ok=m.bit_count() >= ring.cfg.n - 2 * len(intervals))


def enumerate_interval_families(blocks: int) -> list[tuple[tuple[int, int], ...]]:
    """All collections of pairwise disjoint odd-endpoint intervals
    (including the empty collection), in a deterministic order."""
    odd = [b for b in range(1, blocks + 1) if b % 2 == 1]
    intervals = [(lo, hi) for lo in odd for hi in odd if lo <= hi]
    out: list[tuple[tuple[int, int], ...]] = []

    def rec(start: int, acc: list[tuple[int, int]]) -> None:
        out.append(tuple(acc))
        for i in range(start, len(intervals)):
            lo, hi = intervals[i]
            if all(hi2 < lo or lo2 > hi for lo2, hi2 in acc):
                acc.append(intervals[i])
                rec(i + 1, acc)
                acc.pop()

    rec(0, [])
    return sorted(set(out))


@dataclass
class IntervalFamilyReport:
    count: int                    # number of independent sets of this type
    cross_edges_ok: bool          # chosen sides of consecutive blocks never clash


def interval_family_count(ring: GadgetRing,
                          intervals: Sequence[tuple[int, int]]) -> IntervalFamilyReport:
    """Count independent sets hitting the chosen side of every block and
    nothing else: the per-block choices are free, so the count is the
    product of (2^side - 1), provided no matching edge joins two chosen
    sides (checked exactly)."""
    chosen = _chosen_sides(ring, intervals)
    total = sum(chosen)     # the blocks are disjoint
    return IntervalFamilyReport(prod((1 << cm.bit_count()) - 1 for cm in chosen),
                                ring.graph.nbhd(total) & total == 0)


def interval_family_intersection(ring: GadgetRing,
                                 s1: Sequence[tuple[int, int]],
                                 s2: Sequence[tuple[int, int]]) -> int:
    """Exact size of the intersection of two interval families: blocks with
    the same chosen side contribute their nonempty subsets, any block with
    clashing sides kills the product."""
    sides = _chosen_sides(ring, s1)
    if sides != _chosen_sides(ring, s2):
        return 0
    return prod((1 << side.bit_count()) - 1 for side in sides)


# -- odd-band circulant -----------------------------------------------------------


@dataclass(frozen=True)
class OddCirculantConfig:
    """Cayley graph on Z_2n generated by the d + 1 odd residues between
    -d and d (d odd), bipartite with even/odd parts."""

    n: int
    d: int

    def __post_init__(self) -> None:
        if self.d % 2 == 0 or self.d < 3:
            raise InvalidInputError("d must be odd and >= 3")
        if self.d + 1 > self.n:
            raise InvalidInputError("need d + 1 <= n for distinct generators")


def build_odd_circulant(cfg: OddCirculantConfig) -> CayleyGraph:
    spec = groups.make_group([2 * cfg.n])
    gens = GeneratorSet(spec, {(2 * i - cfg.d) % (2 * cfg.n) for i in range(cfg.d + 1)})
    graph = build_cayley(spec, gens)
    if graph.parts is None:
        raise InvariantViolation("odd circulant must be bipartite")
    return graph


def _is_circular_interval(indices: set[int], n: int) -> bool:
    if not indices:
        return False
    if len(indices) == n:
        return True
    starts = sum(1 for i in indices if (i - 1) % n not in indices)
    return starts == 1


@dataclass
class CirculantRecordCheck:
    a: int
    g: int
    t: int
    closure_is_interval: bool
    nbhd_is_ap: bool
    coverage_fraction: float     # subsets of the closure whose neighborhood is all of G


@dataclass
class CirculantStructureReport:
    records: list[CirculantRecordCheck] = field(default_factory=list)
    table: Optional[counting.ContainerTable] = None
    all_t_equal_d: bool = True
    all_intervals: bool = True
    all_nbhd_ap: bool = True
    table_zero_off_diag: bool = True
    ratios: dict[tuple[int, int], float] = field(default_factory=dict)
    min_coverage: float = 1.0


def odd_circulant_structure_check(cfg: OddCirculantConfig) -> CirculantStructureReport:
    """Exhaustively check the structure of small 2-linked closed sets:
    closures are intervals of evens, neighborhoods are difference-2
    progressions of size a + d, counts vanish off t = d, and a constant
    fraction of closure subsets already see the whole neighborhood."""
    graph = build_odd_circulant(cfg)
    n, d = cfg.n, cfg.d
    report = CirculantStructureReport()
    for rec in counting.enumerate_small_2linked_closed(graph, "X"):
        closure_idx = {v // 2 for v in iter_bits(rec.closure)}
        nbhd_idx = {(v - 1) // 2 for v in iter_bits(rec.nbhd)}
        covering = counting.count_closure_preimages(graph, rec, require_two_linked=False)
        chk = CirculantRecordCheck(
            a=rec.a,
            g=rec.g,
            t=rec.t,
            closure_is_interval=_is_circular_interval(closure_idx, n),
            nbhd_is_ap=_is_circular_interval(nbhd_idx, n),
            coverage_fraction=covering / (1 << rec.a),
        )
        report.records.append(chk)
        report.all_t_equal_d &= chk.t == d
        report.all_intervals &= chk.closure_is_interval
        report.all_nbhd_ap &= chk.nbhd_is_ap
        report.min_coverage = min(report.min_coverage, chk.coverage_fraction)
    report.table = counting.container_table(graph, "X")
    for (a, g), cnt in report.table.entries.items():
        if g - a != d:
            report.table_zero_off_diag = False
        report.ratios[(a, g)] = cnt / (n * 2 ** (g - d))
    return report
