"""Run the benchmark once per seed and report, per metric, the median and
the quartile spread (distance between the first and third quartile as a
share of the median), set against the metric's bound in BENCHMARK.json.

    python3 perfbench/spread.py --workload census --seeds 1-10 --out runs.json

Runs are sequential, each in its own process, exactly as a single
`run.py` invocation.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="write every run's result and report here")
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    summary, status = {}, 0
    for workload in args.workload:
        runs = {}
        for seed in args.seeds:
            cmd = [sys.executable, *bench["command"][1:], "--workload", workload,
                   "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
                   "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
            lines = proc.stdout.splitlines()
            if proc.returncode != 0 or len(lines) < 2:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                return 1
            result, report = json.loads(lines[-1]), json.loads(lines[-2])["report"]
            runs[seed] = {"result": result, "report": report}
            status |= not result["correct"]
            print(f"{workload} seed {seed}: correct={result['correct']} jobs={report['jobs']} "
                  + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
                  flush=True)
        stats = {}
        for metric in runs[args.seeds[0]]["result"]["metrics"]:
            values = [r["result"]["metrics"][metric]["value"] for r in runs.values()]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else None
            stats[metric] = {"median": med, "spread": spread}
            bound = bounds.get(metric) if not args.trace else None
            flag = ""
            if bound is not None and spread is not None:
                flag = f" bound={bound} {'ok' if spread < bound / 3 else 'WIDE'}"
            shown = f"{spread:.3f}" if spread is not None else "-"
            print(f"  {workload} {metric}: median={med:.5g} spread={shown}{flag}")
        summary[workload] = {"runs": runs, "stats": stats}
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1) + "\n")
    return status


if __name__ == "__main__":
    sys.exit(main())
