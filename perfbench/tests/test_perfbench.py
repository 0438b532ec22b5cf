"""Self-tests of the benchmark.

    python3 -m pytest perfbench/tests -q

Two traced runs of one seed, each in its own process, must report the same
exact work counts and the same output digests (census counts, sweep
results, CLI outputs).  The benchmark refuses `python -O` and a tree
without the package sources, printing no result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "perfbench"))

from tracing import EXACT, PER_LAYER  # noqa: E402
from workloads import _abelian_groups  # noqa: E402

END_TO_END = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]]


def bench(*args: str, cwd: Path = ROOT, flags: tuple[str, ...] = ()):
    return subprocess.run([sys.executable, *flags, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600, check=False)


def parsed(proc) -> tuple[dict, dict]:
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    return json.loads(lines[-2])["report"], json.loads(lines[-1])


@pytest.mark.parametrize("workload", ["census", "witness", "reference"])
def test_traced_runs_of_one_seed_repeat_exactly(workload):
    runs = [parsed(bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "1"))
            for _ in range(2)]
    for report, result in runs:
        assert result["correct"], report["failures"]
        assert set(result["metrics"]) == set(PER_LAYER) | {"trace.overhead_s"}
    (first, first_result), (second, second_result) = runs
    assert first["exact_counts"] == second["exact_counts"]
    assert set(first["exact_counts"]) == set(EXACT)
    assert first["output_digest"] == second["output_digest"]
    for name in EXACT:
        assert first_result["metrics"][name] == second_result["metrics"][name]


def test_all_workloads_in_one_process():
    proc = bench("--workload", "all", "--seed", "2", "--seconds", "1", "--trace", "0")
    _, result = parsed(proc)
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {f"{w}.{m}" for w in ("census", "witness", "reference")
                                      for m in END_TO_END}


def test_refuses_python_optimize():
    proc = bench("--workload", "census", "--seed", "1", "--seconds", "1", flags=("-O",))
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_refuses_tree_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "census", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_setup_aside_keeps_the_package_in_use():
    sys.path.insert(0, str(ROOT / "src"))
    import run
    cc, _ = run.setup(4)
    kept = run.own_modules()
    assert run.setup_aside(4) > 0
    assert run.own_modules() == kept
    assert sys.modules["cayleycount.groups"] is cc.groups


def test_abelian_group_counts():
    # OEIS A000688
    expected = {2: 1, 4: 2, 8: 3, 12: 2, 16: 5, 32: 7, 36: 4, 48: 5, 64: 11}
    assert {n: _abelian_groups(n) for n in expected} == expected
