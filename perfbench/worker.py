"""Child process of the benchmark: runs one workload's corpus through gmk.cli.main.

Usage: python3 perfbench/worker.py PLAN_JSON

The plan (written by run.py) lists one CLI argument vector and one output
file per corpus instance. Calls run in process, in a closed loop with one
client: each call starts when the previous one has returned. Without
tracing the loop cycles over the corpus until at least one full pass is
done and ``seconds`` have passed. With tracing it makes one untraced and
one traced pass. The result file holds, per call, the corpus index, wall
seconds, exit code, output digest and the index of the last calibration
sample taken before it (see calibrate.py), plus this process's peak RSS.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import sys
import traceback
from time import perf_counter

from calibrate import Kernel

# a calibration sample is taken before a call once this long has passed
CALIBRATION_INTERVAL_S = 0.3
# report fields that describe the solution; timings and any fields added
# later are left out so that only a change of the result alters the digest
REPORT_KEYS = ("bypassed", "final_value", "iterations", "oracle_value", "ratio", "selected_j")


def output_digest(command: str, path: str) -> str:
    """sha256 of the canonical bytes of one emitted result."""
    with open(path, "rb") as handle:
        data = handle.read()
    if command == "compare":
        report = json.loads(data)
        picked = {k: report.get(k) for k in REPORT_KEYS}
        data = json.dumps(picked, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(data).hexdigest()


def call(cli, argv: list[str]) -> tuple[int, float, str]:
    sink = io.StringIO()
    started = perf_counter()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = cli.main(argv)
    except SystemExit as exc:  # argparse rejects its arguments this way
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # a traceback is a failed call, not a crashed benchmark
        code = 1
        sink.write(traceback.format_exc())
    return code, perf_counter() - started, sink.getvalue()


def run_calls(cli, plan: dict, kernel: Kernel, min_seconds: float, on_call=None) -> dict:
    """Closed loop over the corpus: at least one pass and ``min_seconds``."""
    argvs, outs, command = plan["argvs"], plan["outs"], plan["command"]
    records, errors, kernel_s = [], [], []
    n = len(argvs)
    i = 0
    started = last_calibration = perf_counter()
    kernel_s.append(kernel.seconds())
    while True:
        k = i % n
        if perf_counter() - last_calibration >= CALIBRATION_INTERVAL_S:
            last_calibration = perf_counter()
            kernel_s.append(kernel.seconds())
        if on_call is not None:
            on_call(k)
        code, seconds, text = call(cli, argvs[k])
        digest = output_digest(command, outs[k]) if code == 0 else None
        if code != 0 and len(errors) < 5:
            errors.append({"instance": k, "exit_code": code, "output": text[-2000:]})
        records.append([k, seconds, code, digest, len(kernel_s) - 1])
        i += 1
        if i >= n and perf_counter() - started >= min_seconds:
            break
    wall = perf_counter() - started
    kernel_s.append(kernel.seconds())
    return {"records": records, "wall_s": wall, "errors": errors, "kernel_s": kernel_s}


def main(plan_path: str) -> int:
    with open(plan_path, encoding="utf-8") as handle:
        plan = json.load(handle)
    import gmk.cli as cli

    kernel = Kernel()

    if plan["trace"]:
        from tracer import Recorder

        result = {"untraced": run_calls(cli, plan, kernel, 0.0)}
        rec = Recorder()
        restore = rec.install()

        def on_call(k: int) -> None:
            rec.current_instance = k

        try:
            result["traced"] = run_calls(cli, plan, kernel, 0.0, on_call)
        finally:
            restore()
        result["spans"] = rec.summary()
        result["counters"] = rec.counters
        rec.save(plan["spans_path"])
    else:
        result = {"untraced": run_calls(cli, plan, kernel, plan["seconds"])}
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    with open(plan["result_path"], "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
