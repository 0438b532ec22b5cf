"""The benchmark's three workloads.

Each workload turns the seed into fixed inputs once, then runs one job per
call of `job()`.  A job is a list of items; an item is the smallest unit
whose output the benchmark checks, and its latency is timed:

- census: one corpus graph, built and counted by both engines;
- witness: one `verify` sweep call;
- reference: one step of the CLI session: `build` commands and the commands
  that read their files.

Every check compares an output against a fact the timed call did not
produce.  A failed check is recorded, never raised.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import random
import time
from dataclasses import dataclass, field
from math import comb
from pathlib import Path

CORPUS_SIZE = 36892          # every Abelian group of order <= 16 x every symmetric D


@dataclass
class JobResult:
    latencies: list[float] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    digest: object = field(default_factory=hashlib.sha256)

    def item(self, elapsed: float, ok: bool, label: str, output: object) -> None:
        self.latencies.append(elapsed)
        if not ok:
            self.failures.append(label)
        self.digest.update(json.dumps(output, sort_keys=True, default=str).encode())


def _failure(label: str, exc: Exception) -> str:
    return f"{label}: {type(exc).__name__}: {exc}"


# -- census -------------------------------------------------------------------------


class Census:
    """A seeded uniform sample of the standing corpus, cross-checked graph by
    graph: the branching engine must equal the 2^V brute force."""

    warm_orders = 16
    graphs_per_job = 1010            # at least 10 graphs lie beyond the p99

    def __init__(self, cc, seed: int, workdir: Path):
        self.cc = cc
        corpus = []
        for order in range(2, 17):
            for spec in cc.groups.enumerate_abelian_groups(order):
                orbits = sorted({frozenset({x, cc.groups.neg_id(spec, x)})
                                 for x in range(1, order)}, key=min)
                corpus.append((spec, orbits))
        sizes = [2 ** len(orbits) - 1 for _, orbits in corpus]
        if sum(sizes) != CORPUS_SIZE:
            raise RuntimeError(f"corpus has {sum(sizes)} graphs, expected {CORPUS_SIZE}")
        self.inputs = []
        for index in random.Random(f"census:{seed}").sample(range(CORPUS_SIZE), self.graphs_per_job):
            k = 0
            while index >= sizes[k]:
                index -= sizes[k]
                k += 1
            spec, orbits = corpus[k]
            pick = index + 1           # nonempty subset of the orbits
            ids = sorted(x for bit, orbit in enumerate(orbits) if pick >> bit & 1 for x in orbit)
            self.inputs.append((spec, ids))

    def job(self) -> JobResult:
        cc, res = self.cc, JobResult()
        for spec, ids in self.inputs:
            label = f"{spec}|D={ids}"
            started = time.perf_counter()
            try:
                graph = cc.graphs.build_cayley(spec, cc.groups.GeneratorSet(spec, ids))
                fast = cc.counting.count_independent_sets(graph)
                brute = cc.counting.count_independent_sets_bruteforce(graph)
            except Exception as exc:
                res.item(time.perf_counter() - started, False, _failure(label, exc), None)
                continue
            elapsed = time.perf_counter() - started
            res.item(elapsed, fast == brute, f"{label}: {fast} != {brute}", fast)
        return res


# -- witness ------------------------------------------------------------------------


def _abelian_groups(n: int) -> int:
    """Number of Abelian groups of order n: the product of p(e) over the
    prime exponents e of n."""
    def partitions(e: int, cap: int) -> int:
        return 1 if e == 0 else sum(partitions(e - k, k) for k in range(1, min(e, cap) + 1))
    out, p = 1, 2
    while n > 1:
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        out *= partitions(e, e)
        p += 1
    return out


def _subsets_below(r: int, k: int) -> int:
    """Subsets of an r-set with fewer than k elements."""
    return sum(comb(r, s) for s in range(min(k, r + 1)))


class Witness:
    """The acceptance gate's sumset sweeps through `verify`, at reduced caps.
    Each sweep must pass and check exactly the number of instances its caps
    determine, counted here from first principles."""

    warm_orders = 64                 # sweep_growth draws groups up to order 64

    def __init__(self, cc, seed: int, workdir: Path):
        self.cc = cc
        orders = {n: _abelian_groups(n) for n in range(2, 65)}
        olson, prp, chain = 7, 8, 7
        self.sweeps = (
            ("olson", dict(max_order=olson),
             sum(orders[n] * 4 ** (n - 1) for n in range(2, olson + 1))),
            ("prp", dict(max_order=prp),
             sum(orders[n] * _subsets_below(n - 1, 4) ** 2 for n in range(2, prp + 1))),
            ("chain", dict(max_order=chain),
             sum(orders[n] * _subsets_below(n - 1, 3) * _subsets_below(n - 1, min(8, n)) * 2
                 for n in range(2, chain + 1))),
            ("thinning", dict(seeds=1), 1),
        ) + tuple(
            # 6000 growth trials as 6000 seeded one-trial calls: the item
            # latencies form a population, so their percentiles move smoothly
            # instead of jumping between whole sweeps.  The trial costs are
            # heavy-tailed; with 60 items beyond the p99, which trials the
            # seed draws moves it by a few percent only
            ("growth", dict(trials=1, max_order=64, seed=10_000 * seed + k), 1)
            for k in range(6000))

    def job(self) -> JobResult:
        res = JobResult()
        for name, kwargs, expected in self.sweeps:
            sweep = getattr(self.cc.verify, f"sweep_{name}")
            started = time.perf_counter()
            try:
                out = sweep(**kwargs)
            except Exception as exc:
                res.item(time.perf_counter() - started, False, _failure(name, exc), None)
                continue
            elapsed = time.perf_counter() - started
            ok = out.passed and out.checked == expected
            res.item(elapsed, ok, f"{out.line()} (expected checked={expected})",
                      [out.checked, out.violations, out.skipped, out.details])
        return res


# -- reference ----------------------------------------------------------------------


def _lucas(n: int) -> int:
    a, b = 2, 1                      # L(0), L(1)
    for _ in range(n):
        a, b = b, a + b
    return a


class Reference:
    """A scripted in-process `cli.main` session on the reference instances,
    with its files in a scratch directory.  The session has three steps: the
    gadget ring's count, C24's count with its brute-force cross-check, and
    the odd circulants' (a, g) table and container certificates.

    The gadget ring stays at t = 3: its gadget comes from the seed, and the
    branching count's cost varies about sixfold between gadgets, so a larger
    ring would make the session time depend on the seed more than on the code.
    """

    warm_orders = 0                  # cyclic groups only: no addition tables
    ring_d, ring_t = 3, 3
    table_n, table_d = 20, 5
    cont_n, cont_d = 40, 9

    def __init__(self, cc, seed: int, workdir: Path):
        self.cc = cc
        self.dir = workdir
        f = {name: str(workdir / name) for name in (
            "ring.json", "ring.count.json", "c24.json", "c24.count.json",
            "oc.json", "table.csv", "oc2.json", "containers.csv")}
        self.steps = (
            ("ring", (
                ("build", "gadget-ring", "--d", str(self.ring_d), "--t", str(self.ring_t),
                 "--seed", str(seed), "-o", f["ring.json"]),
                ("count", f["ring.json"], "-o", f["ring.count.json"])),
             self._check_ring),
            ("c24", (
                ("build", "--group", "Z24", "--gens", "1,23", "-o", f["c24.json"]),
                ("count", f["c24.json"], "-o", f["c24.count.json"])),
             self._check_c24),
            ("circulant", (
                ("build", "odd-circulant", "--n", str(self.table_n), "--d", str(self.table_d),
                 "-o", f["oc.json"]),
                ("table", f["oc.json"], "-o", f["table.csv"]),
                ("build", "odd-circulant", "--n", str(self.cont_n), "--d", str(self.cont_d),
                 "-o", f["oc2.json"]),
                ("containers", f["oc2.json"], "--seed", str(seed), "-o", f["containers.csv"])),
             self._check_circulant),
        )

    def _json(self, name: str) -> dict:
        data = json.loads((self.dir / name).read_text())
        data.pop("report", None)     # carries wall time and paths
        return data

    def _csv(self, name: str) -> list[dict]:
        return list(csv.DictReader(io.StringIO((self.dir / name).read_text())))

    def _check_ring(self):
        """At least 2^(n+1) independent sets, n being half the vertex count."""
        out = self._json("ring.count.json")
        n = (4 * self.ring_d - 2) * self.ring_t
        return out["vertices"] == 2 * n and int(out["i"]) >= 2 ** (n + 1), \
            [self._json("ring.json"), out]

    def _check_c24(self):
        """The Lucas number L(24), with the brute force agreeing."""
        out = self._json("c24.count.json")
        return out["i"] == str(_lucas(24)) and out.get("crosscheck") is True, out

    def _check_circulant(self):
        """The table is supported on t = d only; every certificate is valid."""
        table, certs = self._csv("table.csv"), self._csv("containers.csv")
        ok = (bool(table) and all(int(r["t"]) == self.table_d for r in table)
              and bool(certs) and all(r["phi_valid"] == "true" and r["psi_valid"] == "true"
                                      for r in certs))
        return ok, [table, certs]

    def job(self) -> JobResult:
        res = JobResult()
        for name, commands, check in self.steps:
            started = time.perf_counter()
            try:
                for argv in commands:
                    err = io.StringIO()
                    with contextlib.redirect_stderr(err):
                        code = self.cc.cli.main(list(argv))
                    if code != 0:
                        raise RuntimeError(f"{argv[0]} exited {code}: {err.getvalue().strip()}")
                elapsed = time.perf_counter() - started
                ok, output = check()
            except Exception as exc:
                res.item(time.perf_counter() - started, False, _failure(name, exc), None)
                continue
            res.item(elapsed, ok, f"{name}: output check failed", output)
        return res


WORKLOADS = {"census": Census, "witness": Witness, "reference": Reference}
