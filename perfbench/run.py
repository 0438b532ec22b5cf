"""Benchmark of cayleycount: three seeded workloads, checked outputs,
end-to-end metrics untraced and per-layer metrics traced.

    python3 perfbench/run.py --workload census --seed 1 --seconds 30 --trace 0

Run from the root of a source tree; the package is imported from `src/`.
`--workload all` runs census, witness and reference one after another in
this one process, with metric names prefixed by the workload (peak_rss_mb
is then the process peak so far).  The last line of standard output is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

and the line before it a report with the machine, flags, seed, sample
counts, error rate and output digests.  With `--trace 0` the metrics are
the end-to-end ones of BENCHMARK.json; with `--trace 1` the first half of
the run is untraced, the second half traced, and the metrics are the
per-layer ones plus `trace.overhead_s` (traced minus untraced `wall_s`).

Every job of a run repeats the same items, and each item's latency is its
mean time over the run's jobs; `item_p50_ms` and `item_p99_ms` are
percentiles of these per-item means, so every distinct item is one sample.
On a shared host the CPU throughput changes by 20-100% for seconds to
minutes at a time, and the mean tracks the run's average speed smoothly,
where the best or the median of the repeats jumps between speed levels.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path
from types import SimpleNamespace

from tracing import EXACT, PER_LAYER, Tracer, unit
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MODULES = ("groups", "graphs", "counting", "sumsets", "containers", "constructions",
           "verify", "cli")
SETUP_REPEATS = 3


def own_modules() -> dict:
    return {name: m for name, m in sys.modules.items()
            if name == "cayleycount" or name.startswith("cayleycount.")}


class Package(SimpleNamespace):
    """The freshly imported cayleycount modules, by layer name."""

    @staticmethod
    def modules() -> list:
        return list(own_modules().values())


def fresh_import() -> Package:
    for name in own_modules():
        del sys.modules[name]
    return Package(**{m: importlib.import_module(f"cayleycount.{m}") for m in MODULES})


def setup_once(warm_orders: int) -> tuple[Package, float]:
    """Import the package and fill the lazy addition tables of every group
    the workload reaches."""
    started = time.perf_counter()
    cc = fresh_import()
    for order in range(2, warm_orders + 1):
        for spec in cc.groups.enumerate_abelian_groups(order):
            cc.groups.add_ids(spec, 0, 0)
    return cc, time.perf_counter() - started


def setup(warm_orders: int) -> tuple[Package, list[float]]:
    """SETUP_REPEATS set-ups; the last import is kept.  numpy stays
    imported after the first."""
    times = []
    for _ in range(SETUP_REPEATS):
        cc, elapsed = setup_once(warm_orders)
        times.append(elapsed)
    return cc, times


def setup_aside(warm_orders: int) -> float:
    """Time one more set-up and drop what it imported, so that the package
    the workload holds stays the one in `sys.modules`."""
    kept = own_modules()
    try:
        return setup_once(warm_orders)[1]
    finally:
        for name in own_modules():
            del sys.modules[name]
        sys.modules.update(kept)
        gc.collect()


def quantile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def item_means(results) -> list[float]:
    """Each item's mean latency over the jobs; every job runs the same
    items in the same order."""
    return [statistics.fmean(times) for times in zip(*(r.latencies for r in results), strict=True)]


def run_jobs(workload, seconds: float, between=None):
    """Repeat the job while another one fits in the time box (at least one),
    calling `between` after each job."""
    started = time.perf_counter()
    results, walls = [], []
    while True:
        t0 = time.perf_counter()
        results.append(workload.job())
        walls.append(time.perf_counter() - t0)
        if between:
            between()
        if time.perf_counter() - started + statistics.median(walls) > seconds:
            return results, walls


def machine() -> dict:
    import numpy
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """(report, result) of one workload."""
    cls = WORKLOADS[name]
    cc, setup_times = setup(cls.warm_orders)
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        workload = cls(cc, seed, workdir)
        if trace:
            results, walls, metrics, extra = run_traced(cc, name, workload, seconds)
        else:
            # One more set-up after each job: the host's speed shifts within
            # seconds, so set-ups spread over the run give a steadier median
            # than set-ups made back to back.
            results, walls = run_jobs(
                workload, seconds, lambda: setup_times.append(setup_aside(cls.warm_orders)))
            extra = {}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(len(r.latencies) for r in results)
    failures = [f for r in results for f in r.failures]
    digests = {r.digest.hexdigest() for r in results}
    if len(digests) > 1:
        failures.append(f"outputs differ between jobs of one seed: {sorted(digests)}")
    items = item_means(results)
    p99 = quantile(items, 99)
    if not trace:
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "wall_s": (statistics.fmean(walls), "s"),
            "item_p50_ms": (1000 * quantile(items, 50), "ms"),
            "item_p99_ms": (1000 * p99, "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    report = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "machine": machine(),
        "flags": {"optimize": sys.flags.optimize, "dev_mode": sys.flags.dev_mode,
                  "hash_randomization": sys.flags.hash_randomization},
        "setup_s_each": setup_times,
        "jobs": len(results), "wall_s_each": walls,
        "item_samples": len(items),
        "item_samples_beyond_p99": sum(x > p99 for x in items),
        "error_rate": len(failures) / attempted,
        "failures": failures[:10],
        "output_digest": sorted(digests)[0],
    }
    report.update(extra)
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return report, result


def run_traced(cc, name: str, workload, seconds: float):
    """Untraced jobs for the first half of the time box, traced jobs for the
    second.  Layer times are medians over traced jobs; counts must repeat
    exactly; the overhead compares mean job times, as `wall_s` does."""
    results, plain_walls = run_jobs(workload, seconds / 2)
    tracer = Tracer(cc)
    tracer.install()
    per_job, traced_walls = [], []
    started = time.perf_counter()
    try:
        while True:
            tracer.reset()
            t0 = time.perf_counter()
            results.append(workload.job())
            traced_walls.append(time.perf_counter() - t0)
            per_job.append(tracer.job_metrics())
            if time.perf_counter() - started + statistics.median(traced_walls) > seconds / 2:
                break
    finally:
        tracer.uninstall()
    metrics = {k: (statistics.median(j[k] for j in per_job), unit(k)) for k in PER_LAYER}
    for k in EXACT:
        if len({j[k] for j in per_job}) > 1:
            results[-1].failures.append(f"{k} differs between traced jobs: {[j[k] for j in per_job]}")
    metrics["trace.overhead_s"] = (statistics.fmean(traced_walls) - statistics.fmean(plain_walls), "s")
    idle = [k for k, exercised_by in PER_LAYER.items() if name in exercised_by and not metrics[k][0]]
    if idle:
        results[-1].failures.append(f"per-layer metrics stayed at zero: {idle}")
    extra = {"exact_counts": {k: metrics[k][0] for k in EXACT},
             "traced_wall_s_each": traced_walls}
    return results, plain_walls, metrics, extra


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("census", "witness", "reference", "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if sys.flags.optimize:
        print("refusing to run under python -O: the package's invariant checks are "
              "asserts, and -O would time a program without them", file=sys.stderr)
        return 2
    if not (SRC / "cayleycount" / "__init__.py").is_file():
        print(f"no cayleycount sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    names = ("census", "witness", "reference") if args.workload == "all" else (args.workload,)
    reports, results = [], []
    for name in names:
        report, result = run_workload(name, args.seed, args.seconds, bool(args.trace))
        reports.append(report)
        results.append(result)
    if len(names) == 1:
        final = results[0]
    else:
        final = {
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {f"{n}.{k}": v for n, r in zip(names, results)
                        for k, v in r["metrics"].items()},
        }
    for name, report in zip(names, reports):
        print(json.dumps({"report": report}))
    print(json.dumps(final))
    failed_trace = args.trace and not final["correct"]
    return 1 if failed_trace else 0


if __name__ == "__main__":
    sys.exit(main())
