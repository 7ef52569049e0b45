"""Smoke test of the benchmark: every workload on two instances, and its output checks.

Run from the repository root: python3 -m pytest perfbench/tests
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
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
from workloads import WORKLOADS, cli_argv  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace), "--instances", "2"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_spec_lists_the_benchmark_workloads_and_metrics():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("workload", list(WORKLOADS))
@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
def test_workload_prints_every_metric_with_its_unit(workload, trace, kind):
    done = bench(ROOT, workload, trace)
    assert done.returncode == 0, done.stderr
    *table, last = done.stdout.strip().splitlines()
    result = json.loads(last)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    expected = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    printed = {line.split()[0]: line.split()[2] for line in table if len(line.split()) >= 3}
    for name, unit in expected.items():
        assert printed.get(name) == unit, name


def test_directory_without_sources_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = bench(tmp_path, "exact_bypass", 0)
    assert done.returncode != 0
    assert "correct" not in done.stdout


def emitted(tmp_path: Path, workload: str):
    """One real CLI output of the workload, with its instance."""
    gmk = run.import_gmk(str(ROOT))
    import gmk.cli

    w = WORKLOADS[workload]
    corpus = run.make_corpus(gmk, w, 5, 1, str(tmp_path))
    assert gmk.cli.main(cli_argv(w, corpus[0]["path"], corpus[0]["out"])) == 0
    return gmk, w, corpus[0]["inst"], json.loads(Path(corpus[0]["out"]).read_text())


def test_check_passes_real_output_and_fires_on_corrupted_value(tmp_path):
    gmk, w, inst, report = emitted(tmp_path, "exact_bypass")
    assert run.check_output(gmk, w, inst, report)[0] == []
    report["final_value"] -= 1
    problems, _, _ = run.check_output(gmk, w, inst, report)
    assert problems and "differs from the optimum" in problems[0]


def test_check_fires_on_corrupted_solution(tmp_path, capsys):
    gmk, w, inst, solution = emitted(tmp_path, "cut_multibin")
    capsys.readouterr()
    assert run.check_output(gmk, w, inst, solution)[0] == []
    solution["sets"] = [list(inst.items) for _ in solution["sets"]]
    problems, _, _ = run.check_output(gmk, w, inst, solution)
    assert problems
