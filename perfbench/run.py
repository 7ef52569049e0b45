"""The gmk benchmark: one seeded workload, timed end to end through gmk.cli.main.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads are defined in ``perfbench/workloads.py``. The seed generates the
corpus of instance files; the program sees only those files. A child
process runs the calls in a closed loop with one client (see worker.py).

``--trace 0`` prints the end-to-end metrics: instances per second, the
median and tail call time, the value ratio against the oracle, the failed
fraction, the fresh-interpreter import time of ``gmk.cli`` and the peak
RSS of the child. ``--trace 1`` runs the first quarter of the corpus once untraced and once
with spans around each module's public functions, and prints the
per-layer metrics and the tracing overhead.

Every output is checked, and a call whose output differs byte for byte
from the first call on the same instance, or from the digest recorded in
``perfbench/golden.json``, counts as failed. The last line of standard
output is one JSON object: correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import calibrate
from workloads import WORKLOADS, cli_argv

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN_PATH = os.path.join(HERE, "golden.json")
SETUP_SAMPLES = 11
DEADLINE_S = 170.0
# the traced run covers the first quarter of the corpus, which bounds its span count
TRACE_SHARE = 4
TAIL_PERCENTILES = (99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 80.0, 75.0, 50.0)

END_TO_END = {
    "instances_per_s": "1/s",
    "solve_s_p50": "s",
    "solve_s_tail": "s",
    "value_ratio": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# (metric, span name, field of the span summary)
SPAN_METRICS = [
    ("mkcp.solve_mkcp_exact.calls", "mkcp.solve_mkcp_exact", "calls"),
    ("mkcp.solve_mkcp_exact.self_s", "mkcp.solve_mkcp_exact", "self_s"),
    ("mkcp.solve_mkcp_greedy.calls", "mkcp.solve_mkcp_greedy", "calls"),
    ("mkcp.solve_mkcp_greedy.self_s", "mkcp.solve_mkcp_greedy", "self_s"),
    ("mkcp.pack_assignment.calls", "mkcp.pack_assignment", "calls"),
    ("mkcp.pack_assignment.self_s", "mkcp.pack_assignment", "self_s"),
    ("mkcp.pack_mkc.calls", "mkcp.pack_mkc", "calls"),
    ("mkcp.pack_mkc.self_s", "mkcp.pack_mkc", "self_s"),
    ("reduction.reduce_instance.calls", "reduction.reduce_instance", "calls"),
    ("reduction.reduce_instance.self_s", "reduction.reduce_instance", "self_s"),
    ("reduction.lift_solution.calls", "reduction.lift_solution", "calls"),
    ("reduction.lift_solution.self_s", "reduction.lift_solution", "self_s"),
    ("reduction.verify_reduced_solution.calls", "reduction.verify_reduced_solution", "calls"),
    ("reduction.verify_reduced_solution.self_s", "reduction.verify_reduced_solution", "self_s"),
    ("reduction.objective_evals", "reduction.ReducedObjective.evaluate", "calls"),
    ("core.ensure_valid.calls", "core.ensure_valid", "calls"),
    ("core.ensure_valid.self_s", "core.ensure_valid", "self_s"),
    ("core.check_feasible.calls", "core.check_feasible", "calls"),
    ("core.check_feasible.self_s", "core.check_feasible", "self_s"),
    ("core.evaluate_objective.calls", "core.evaluate_objective", "calls"),
    ("core.evaluate_objective.self_s", "core.evaluate_objective", "self_s"),
    ("cutting.windows", "cutting.solve_bounded_horizon", "calls"),
    ("cutting.solve_bounded_horizon.self_s", "cutting.solve_bounded_horizon", "self_s"),
    ("cutting.combine_cut_solutions.calls", "cutting.combine_cut_solutions", "calls"),
    ("cutting.combine_cut_solutions.self_s", "cutting.combine_cut_solutions", "self_s"),
    ("cutting.solve_general_result.self_s", "cutting.solve_general_result", "self_s"),
    ("oracle.brute_force_gmk.calls", "oracle.brute_force_gmk", "calls"),
    ("oracle.brute_force_gmk.self_s", "oracle.brute_force_gmk", "self_s"),
    ("cli.self_s", "cli.main", "self_s"),
]

PER_LAYER = {
    **{name: ("s" if field == "self_s" else "count") for name, _, field in SPAN_METRICS},
    "mkcp.pack_assignment.packed_frac": "ratio",
    "reduction.elements": "count",
    "submodular.evals": "count",
    "submodular.self_s": "s",
    "serialize.read_s": "s",
    "serialize.write_s": "s",
    "trace.overhead_s": "s",
}


class BenchError(Exception):
    """The benchmark cannot run here; reported on stderr with exit code 2."""


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--instances", type=int, default=None,
                        help="corpus size (default: the workload's own)")
    parser.add_argument("--record-golden", action="store_true",
                        help="add this corpus's output digests to golden.json")
    return parser.parse_args(argv)


def import_gmk(root: str):
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "gmk", "cli.py")):
        raise BenchError(f"no gmk sources under {src}; run from the root of a checkout")
    sys.path.insert(0, src)
    import gmk

    return gmk


def child_env(root: str) -> dict:
    # a fixed hash seed keeps set iteration, and so the work counts, repeatable
    return dict(os.environ, PYTHONPATH=os.path.join(root, "src"), PYTHONHASHSEED="0")


def short(digest: str) -> str:
    """Golden digests keep 48 bits, plenty to tell outputs of one instance apart."""
    return digest[:12]


def make_corpus(gmk, w, seed: int, count: int, workdir: str) -> list[dict]:
    corpus = []
    for k in range(count):
        inst = gmk.gen_random(gmk.generators.GenParams(**w.gen), seed * 1_000_003 + k)
        path = os.path.join(workdir, f"inst_{k:04d}.json")
        gmk.serialize.write_json(path, gmk.serialize.instance_to_dict(inst))
        with open(path, "rb") as handle:
            digest = short(hashlib.sha256(handle.read()).hexdigest())
        corpus.append({"path": path, "out": os.path.join(workdir, f"out_{k:04d}.json"),
                       "inst": inst, "digest": digest})
    return corpus


def measure_setup(root: str, env: dict, deadline: float) -> tuple[float, float]:
    """Median import time of gmk.cli in fresh interpreters: measured and in reference seconds.

    The first child also compiles the bytecode and is not counted. This
    process times the calibration kernel before each child.
    """
    probe = ("import time; t = time.perf_counter(); import gmk.cli; "
             "print(time.perf_counter() - t)")
    kernel = calibrate.Kernel()
    samples, kernel_s = [], []
    for _ in range(SETUP_SAMPLES + 1):
        kernel_s.append(kernel.seconds())
        done = subprocess.run(
            [sys.executable, "-c", probe], cwd=root, env=env, capture_output=True,
            text=True, timeout=max(1.0, deadline - time.monotonic()),
        )
        if done.returncode != 0:
            raise BenchError(f"importing gmk.cli failed:\n{done.stderr}")
        samples.append(float(done.stdout))
    measured = statistics.median(samples[1:])
    return measured, measured * calibrate.factor(kernel_s)


def run_worker(root: str, env: dict, plan: dict, workdir: str, deadline: float) -> dict:
    plan_path = os.path.join(workdir, "plan.json")
    with open(plan_path, "w", encoding="utf-8") as handle:
        json.dump(plan, handle)
    proc = subprocess.Popen([sys.executable, os.path.join(HERE, "worker.py"), plan_path],
                            cwd=root, env=env, stdout=sys.stderr, stderr=sys.stderr)
    try:
        code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError("the worker did not finish before the deadline")
    if code != 0:
        raise BenchError(f"the worker exited with code {code}")
    with open(plan["result_path"], encoding="utf-8") as handle:
        return json.load(handle)


def reference_seconds(loop: dict) -> list[float]:
    """Each call's seconds, scaled by the five calibration samples around it."""
    kernel_s = loop["kernel_s"]
    return [r[1] * calibrate.factor(kernel_s[max(0, r[4] - 2):r[4] + 3])
            for r in loop["records"]]


def check_output(gmk, w, inst, payload) -> tuple[list[str], int | None, int | None]:
    """Problems with one emitted result, plus its value and the oracle optimum."""
    try:
        if w.command == "compare":
            emitted, optimum = payload["final_value"], payload["oracle_value"]
            if not (isinstance(emitted, int) and isinstance(optimum, int)):
                return ["report values are not integers"], None, None
        else:
            sol = gmk.serialize.solution_from_dict(payload)
            feasibility = gmk.check_feasible(inst, sol)
            if not feasibility.ok:
                return [f"infeasible solution: {feasibility.violations[:3]}"], None, None
            emitted = gmk.evaluate_objective(inst, sol.sets)
            optimum = gmk.evaluate_objective(inst, gmk.brute_force_gmk(inst).sets)
    except (gmk.GmkError, KeyError, TypeError, ValueError) as exc:
        return [f"malformed output: {exc!r}"], None, None
    if w.optimal and emitted != optimum:
        return [f"value {emitted} differs from the optimum {optimum}"], emitted, optimum
    if emitted > optimum:
        return [f"value {emitted} exceeds the optimum {optimum}"], emitted, optimum
    return [], emitted, optimum


def tail(samples: list[float]) -> tuple[float, float]:
    """Nearest-rank value at the highest listed percentile with at least ten
    samples beyond it."""
    ordered = sorted(samples)
    n = len(ordered)
    for p in TAIL_PERCENTILES:
        rank = math.ceil(p * n / 100)
        if n - rank >= 10:
            return p, ordered[rank - 1]
    return 100.0, ordered[-1]


def layer_metrics(result: dict) -> dict:
    """Per-layer metrics of the traced pass; times in reference seconds."""
    spans = result["spans"]
    traced = result["traced"]
    untraced_s = sum(reference_seconds(result["untraced"]))
    traced_s = sum(reference_seconds(traced))
    scale = traced_s / sum(r[1] for r in traced["records"])

    def field(name: str, key: str):
        value = spans.get(name, {}).get(key, 0)
        return value * scale if key == "self_s" else value

    def layer_sum(prefix: str, key: str):
        return sum(field(k, key) for k in spans if k.startswith(prefix))

    metrics = {name: field(span, key) for name, span, key in SPAN_METRICS}
    packs = field("mkcp.pack_assignment", "calls")
    metrics.update({
        "mkcp.pack_assignment.packed_frac":
            result["counters"]["mkcp.pack_assignment.packed"] / packs if packs else 0.0,
        "reduction.elements": result["counters"]["reduction.elements"],
        "submodular.evals": layer_sum("submodular.", "entries"),
        "submodular.self_s": layer_sum("submodular.", "self_s"),
        "serialize.read_s": field("serialize.load_json", "self_s")
        + field("serialize.instance_from_dict", "self_s"),
        "serialize.write_s": field("serialize.write_json", "self_s"),
        "trace.overhead_s": traced_s - untraced_s,
    })
    return metrics


def end_to_end_metrics(loop: dict, corpus_size: int, setup: tuple, peak_rss_mb: float,
                       value_ratio: float):
    """End-to-end metrics of the untraced loop, plus a note per metric.

    The median and tail are taken over per-instance times (the median of an
    instance's calls), so that how far the loop got into its second pass
    does not change which instances they describe.
    """
    times = reference_seconds(loop)
    per_call: list[list[float]] = [[] for _ in range(corpus_size)]
    for record, seconds in zip(loop["records"], times):
        per_call[record[0]].append(seconds)
    per_instance = [statistics.median(calls) for calls in per_call]
    p, tail_s = tail(per_instance)
    raw_s = sum(r[1] for r in loop["records"])
    values = {
        "instances_per_s": len(times) / sum(times),
        "solve_s_p50": statistics.median(per_instance),
        "solve_s_tail": tail_s,
        "value_ratio": value_ratio,
        "setup_s": setup[1],
        "peak_rss_mb": peak_rss_mb,
    }
    notes = {
        "instances_per_s": f"{len(times)} calls; measured {len(times) / raw_s:.4g}/s",
        "solve_s_p50": f"over {corpus_size} instances",
        "solve_s_tail": f"p{p:g} of {corpus_size} instances",
        "setup_s": f"median of {SETUP_SAMPLES} fresh interpreters; measured {setup[0]:.4g} s",
    }
    return values, notes


def environment() -> str:
    import numpy

    return (f"nproc {os.cpu_count()}, Python {platform.python_version()}, "
            f"numpy {numpy.__version__}; closed loop, 1 client, in-process gmk.cli.main")


def load_golden() -> dict:
    if not os.path.exists(GOLDEN_PATH):
        return {}
    with open(GOLDEN_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def save_golden(golden: dict) -> None:
    with open(GOLDEN_PATH, "w", encoding="utf-8") as handle:
        json.dump(golden, handle, sort_keys=True, indent=0, separators=(",", ":"))
        handle.write("\n")


def check_corpus(gmk, w, corpus: list[dict], records: list, pinned: dict):
    """Check each instance's first output; returns problems per instance,
    the first digest per instance and the value ratio against the oracle."""
    first: dict[int, str] = {}
    for k, _, _, digest, _ in records:
        first.setdefault(k, digest)
    bad: dict[int, list[str]] = {}
    emitted_sum = optimum_sum = 0
    for k, c in enumerate(corpus):
        if first.get(k) is None:
            bad[k] = ["no output"]
            continue
        with open(c["out"], encoding="utf-8") as handle:
            payload = json.load(handle)
        problems, emitted, optimum = check_output(gmk, w, c["inst"], payload)
        if emitted is not None:
            emitted_sum += emitted
            optimum_sum += optimum
        if pinned.get(c["digest"], short(first[k])) != short(first[k]):
            problems.append("output differs from the recorded golden digest")
        if problems:
            bad[k] = problems
    return bad, first, emitted_sum / optimum_sum if optimum_sum else 0.0


def bench(args, root: str) -> tuple[dict, list[str]]:
    """Run one workload; returns the result object and the lines to print before it."""
    deadline = time.monotonic() + DEADLINE_S
    w = WORKLOADS[args.workload]
    gmk = import_gmk(root)
    env = child_env(root)
    count = args.instances or w.instances
    if args.trace:
        count = -(-count // TRACE_SHARE)
    workdir = os.path.join(root, ".perfbench", f"{w.name}-s{args.seed}-p{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        corpus = make_corpus(gmk, w, args.seed, count, workdir)
        setup = None if args.trace else measure_setup(root, env, deadline)
        plan = {
            "command": w.command,
            "argvs": [cli_argv(w, c["path"], c["out"]) for c in corpus],
            "outs": [c["out"] for c in corpus],
            "seconds": args.seconds,
            "trace": args.trace,
            "result_path": os.path.join(workdir, "result.json"),
            "spans_path": os.path.join(root, ".perfbench", f"spans-{w.name}-s{args.seed}.npz"),
        }
        result = run_worker(root, env, plan, workdir, deadline)
        loops = [result["untraced"]] + ([result["traced"]] if args.trace else [])
        records = [r for loop in loops for r in loop["records"]]

        golden = load_golden()
        pinned = golden.get(w.name, {})
        bad, first, value_ratio = check_corpus(gmk, w, corpus, records, pinned)
        failed = sum(1 for k, _, code, digest, _ in records
                     if code != 0 or digest != first[k] or k in bad)
        attempted = len(records)
        if args.record_golden and failed == 0:
            pinned.update({c["digest"]: short(first[k]) for k, c in enumerate(corpus)})
            golden[w.name] = pinned
            save_golden(golden)

        lines = [f"workload {w.name}  seed {args.seed}  corpus {count} instances  "
                 f"calls {attempted}  trace {args.trace}",
                 f"environment: {environment()}",
                 f"times in reference seconds (calibrate.py, kernel = "
                 f"{calibrate.REFERENCE_S} s); 'measured' is wall time"]
        for k, problems in sorted(bad.items())[:5]:
            lines.append(f"FAILED instance {k}: {'; '.join(problems)}")
        for loop in loops:
            for err in loop["errors"]:
                lines.append(f"FAILED call on instance {err['instance']} "
                             f"(exit {err['exit_code']}): {err['output'].strip()[-300:]}")
        lines.append(f"{'failed_frac':42s} {failed / attempted:<14.6g} ratio  "
                     f"({failed} of {attempted})")
        if args.trace:
            values, units, notes = layer_metrics(result), PER_LAYER, {}
            untraced_s = sum(reference_seconds(result["untraced"]))
            notes["trace.overhead_s"] = (f"{100 * values['trace.overhead_s'] / untraced_s:.1f}% "
                                         f"of an untraced pass of {untraced_s:.3f} s")
        else:
            values, notes = end_to_end_metrics(result["untraced"], count, setup,
                                               result["peak_rss_mb"], value_ratio)
            units = END_TO_END
        for name, unit in units.items():
            lines.append(f"{name:42s} {values[name]:<14.6g} {unit}  {notes.get(name, '')}".rstrip())
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
        out = {"correct": failed == 0, "attempted": attempted, "failed": failed,
               "metrics": metrics}
        return out, lines
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        out, lines = bench(args, os.getcwd())
    except (BenchError, subprocess.TimeoutExpired) as exc:
        sys.stderr.write(f"benchmark failed: {exc}\n")
        return 2
    print("\n".join(lines))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
