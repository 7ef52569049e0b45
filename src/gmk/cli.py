"""Command-line surface: validate, gen, reduce, solve-mkcp, oracle, solve, compare.

Every subcommand reads and writes the JSON formats from ``serialize``.
Exit codes: 0 ok, 2 input error, 3 budget exceeded, 4 contract violation.
Errors are printed as one JSON object on stderr.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
from fractions import Fraction

from . import serialize
from .core import (
    MODULAR,
    check_feasible,
    ensure_valid,
    evaluate_objective,
    validate_instance,
)
from .cutting import SOLVER_CHOICES, SchemeParams, solve_general_result
from .errors import ContractViolationError, GmkError, InputError
from .generators import GenParams, gen_from_2kp, gen_from_multidim_knapsack, gen_random, kp_from_dict
from .intervals import to_intervals
from .mkcp import DEFAULT_PACK_BUDGET, solve_mkcp_exact, solve_mkcp_greedy
from .oracle import StageRows, check_dp_work
from .reduction import reduce_instance

# flags fall back to GMK_BUDGET and GMK_PACK_BUDGET
ENV_PREFIX = "GMK_"


def _env_int(name: str) -> int | None:
    raw = os.environ.get(ENV_PREFIX + name)
    if raw is None:
        return None
    try:
        return int(raw)
    except ValueError:
        raise InputError(f"{ENV_PREFIX}{name} must be an integer, got {raw!r}")


def _emit(payload, path=None) -> None:
    if path:
        serialize.write_json(path, payload)
    else:
        sys.stdout.write(serialize.dumps(payload))


def _parse_fraction(text: str, what: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise InputError(f"cannot parse {what} {text!r} as a rational number")


def cmd_validate(args) -> int:
    inst = serialize.instance_from_dict(serialize.load_json(args.instance))
    report = validate_instance(inst)
    payload = {"ok": report.ok, "entries": list(report.entries)}
    # check_feasible assumes a valid instance
    if args.solution and report.ok:
        sol = serialize.solution_from_dict(serialize.load_json(args.solution))
        feasibility = check_feasible(inst, sol)
        payload["solution_ok"] = feasibility.ok
        payload["solution_violations"] = list(feasibility.violations)
        if feasibility.ok:
            payload["value"] = evaluate_objective(inst, sol.sets)
            payload["intervals"] = serialize.interval_set_to_list(to_intervals(sol.sets))
    _emit(payload, args.out)
    ok = report.ok and payload.get("solution_ok", True)
    if not ok:
        raise InputError("validation failed: " + json.dumps(payload))
    return 0


def cmd_gen(args) -> int:
    modes = [m for m in (args.random, bool(args.from_kp), bool(args.from_2kp)) if m]
    if len(modes) != 1:
        raise InputError("pick exactly one of --random, --from-kp, --from-2kp")
    if args.from_kp:
        inst = gen_from_multidim_knapsack(kp_from_dict(serialize.load_json(args.from_kp)))
    elif args.from_2kp:
        inst = gen_from_2kp(kp_from_dict(serialize.load_json(args.from_2kp)))
    else:
        target = None if args.target_phi in (None, "inf") else _parse_fraction(args.target_phi, "target phi")
        params = GenParams(
            items=args.items,
            horizon=args.horizon,
            dimension=args.d,
            bins_per_mkc=args.bins,
            weight_range=_parse_range(args.weights),
            capacity_range=_parse_range(args.capacities),
            profit_range=_parse_range(args.profits),
            gain_range=_parse_range(args.gains),
            cost_range=_parse_range(args.costs),
            target_phi=target,
            variant=args.variant,
        )
        inst = gen_random(params, args.seed)
    _emit(serialize.instance_to_dict(inst), args.out)
    return 0


def _parse_range(text: str) -> tuple[int, int]:
    try:
        lo, _, hi = text.partition(":")
        return (int(lo), int(hi))
    except ValueError:
        raise InputError(f"cannot parse range {text!r}, expected LO:HI")


def cmd_reduce(args) -> int:
    inst = ensure_valid(serialize.instance_from_dict(serialize.load_json(args.instance)))
    reduced = reduce_instance(inst, enum_budget=args.budget)
    _emit(serialize.reduced_to_dict(reduced), args.out)
    return 0


def cmd_solve_mkcp(args) -> int:
    reduced = serialize.reduced_from_dict(serialize.load_json(args.instance))
    if args.greedy:
        rsol = solve_mkcp_greedy(reduced, pack_budget=args.pack_budget)
    else:
        rsol = solve_mkcp_exact(reduced, enum_budget=args.budget)
    payload = serialize.reduced_solution_to_dict(rsol)
    payload["value"] = reduced.value_of(rsol.chosen)
    _emit(payload, args.out)
    return 0


def cmd_oracle(args) -> int:
    inst = ensure_valid(serialize.instance_from_dict(serialize.load_json(args.instance)))
    sol, value = StageRows(inst).optimum(args.budget)
    payload = serialize.solution_to_dict(sol)
    payload["value"] = value
    _emit(payload, args.out)
    return 0


def _run_scheme(args, inst):
    params = SchemeParams(epsilon=_parse_fraction(args.eps, "epsilon"), phi=args.phi, mu_inv=args.mu_inv)
    started = time.perf_counter()
    result = solve_general_result(
        inst,
        params,
        args.sub_solver,
        enum_budget=args.budget,
        pack_budget=args.pack_budget,
    )
    elapsed = time.perf_counter() - started
    return params, result, elapsed


def _report_payload(args, params, inst, result, timings) -> dict:
    # result.value is the objective of result.solution, computed once by the scheme
    return {
        "instance_hash": serialize.instance_hash(inst),
        "parameters": {
            "epsilon": str(params.epsilon),
            "phi": params.phi,
            "mu_inv": params.mu_inv,
            "sub_solver": args.sub_solver,
        },
        "bypassed": result.bypassed,
        "iterations": [
            {
                "j": it.j,
                "cut_points": list(it.cut_points),
                "window_values": list(it.window_values),
                "combined_value": it.combined_value,
                "combine_bonus": it.combined_value - sum(it.window_values),
            }
            for it in result.iterations
        ],
        "selected_j": result.selected_j,
        "final_value": result.value,
        "timings_sec": timings,
    }


def cmd_solve(args) -> int:
    # solve_general_result validates the instance
    inst = serialize.instance_from_dict(serialize.load_json(args.instance))
    params, result, elapsed = _run_scheme(args, inst)
    # The value line and the report, the outputs that hold integers, pass the
    # JSON writer's guard before the solution is written, so an integer too
    # long to print leaves no file behind.
    value = serialize.canonical_dumps(result.value)
    if args.report:
        _emit(_report_payload(args, params, inst, result, {"solve": elapsed}), args.report)
    _emit(serialize.solution_to_dict(result.solution), args.out)
    sys.stdout.write(f"value {value}\n")
    return 0


def cmd_compare(args) -> int:
    # solve_general_result validates the instance; the oracle's budget, which
    # reads only |I| and T, refuses first so that no refused run solves
    inst = serialize.instance_from_dict(serialize.load_json(args.instance))
    check_dp_work("oracle refused: DP", inst.horizon, len(inst.items), args.budget)
    params, result, solve_elapsed = _run_scheme(args, inst)
    started = time.perf_counter()
    # the oracle reads the stage table the scheme filled
    _, oracle_value = result.rows.optimum(args.budget)
    oracle_elapsed = time.perf_counter() - started

    payload = _report_payload(
        args, params, inst, result, {"solve": solve_elapsed, "oracle": oracle_elapsed}
    )
    payload["oracle_value"] = oracle_value
    payload["ratio"] = (result.value / oracle_value) if oracle_value else None
    _emit(payload, args.report)
    if result.value > oracle_value:
        raise ContractViolationError(
            f"scheme value {result.value} exceeds the oracle optimum {oracle_value}"
        )
    if args.sub_solver == "exact" and Fraction(result.value) < (1 - params.epsilon) * oracle_value:
        raise ContractViolationError(
            f"scheme value {result.value} below (1 - {params.epsilon}) * {oracle_value}"
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gmk", description="Multistage d-knapsack toolkit: generate, reduce, solve, verify."
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate an instance (and optionally a solution)")
    p.add_argument("instance")
    p.add_argument("--solution")
    p.add_argument("--out")
    p.set_defaults(handler=cmd_validate)

    p = sub.add_parser("gen", help="generate an instance")
    p.add_argument("--random", action="store_true")
    p.add_argument("--from-kp", metavar="KP_JSON")
    p.add_argument("--from-2kp", metavar="KP_JSON")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--items", type=int, default=3)
    p.add_argument("--horizon", type=int, default=3)
    p.add_argument("--d", type=int, default=1)
    p.add_argument("--bins", type=int, default=1)
    p.add_argument("--weights", default="1:4")
    p.add_argument("--capacities", default="2:8")
    p.add_argument("--profits", default="0:5")
    p.add_argument("--gains", default="0:3")
    p.add_argument("--costs", default="0:3")
    p.add_argument("--target-phi", default=None)
    p.add_argument("--variant", choices=["modular", "submodular"], default=MODULAR)
    p.add_argument("--out")
    p.set_defaults(handler=cmd_gen)

    p = sub.add_parser("reduce", help="materialize the reduced packing instance")
    p.add_argument("--in", dest="instance", required=True)
    p.add_argument("--budget", type=int, default=None)
    p.add_argument("--out")
    p.set_defaults(handler=cmd_reduce)

    p = sub.add_parser("solve-mkcp", help="solve a reduced instance")
    p.add_argument("--in", dest="instance", required=True)
    group = p.add_mutually_exclusive_group()
    group.add_argument("--exact", action="store_true")
    group.add_argument("--greedy", action="store_true")
    p.add_argument("--budget", type=int, default=None)
    p.add_argument("--pack-budget", type=int, default=None)
    p.add_argument("--out")
    p.set_defaults(handler=cmd_solve_mkcp)

    p = sub.add_parser("oracle", help="exact optimum by exhaustive dynamic programming")
    p.add_argument("--in", dest="instance", required=True)
    p.add_argument("--budget", type=int, default=None)
    p.add_argument("--out")
    p.set_defaults(handler=cmd_oracle)

    for name, handler in (("solve", cmd_solve), ("compare", cmd_compare)):
        p = sub.add_parser(
            name,
            help="run the horizon-cutting scheme"
            + (" and compare against the oracle" if name == "compare" else ""),
        )
        p.add_argument("--in", dest="instance", required=True)
        p.add_argument("--eps", required=True)
        p.add_argument("--phi", type=int, required=True)
        p.add_argument("--mu-inv", type=int, default=None, help="experimental grid override")
        p.add_argument("--sub-solver", choices=SOLVER_CHOICES, default="exact")
        p.add_argument("--horizon-cap", help="accepted and ignored")
        p.add_argument("--budget", type=int, default=None)
        p.add_argument("--pack-budget", type=int, default=None)
        if name == "solve":
            p.add_argument("--out")
        p.add_argument("--report")
        p.set_defaults(handler=handler)

    return parser


# per limit: argument name, environment variable without the prefix, default
_LIMITS = (
    ("budget", "BUDGET", None),
    ("pack_budget", "PACK_BUDGET", DEFAULT_PACK_BUDGET),
)


def _apply_env_defaults(args) -> None:
    """Fill each absent limit from the environment, then its default.

    A negative limit, from a flag or the environment, is an input error.
    """
    for name, env, default in _LIMITS:
        if not hasattr(args, name):
            continue
        value, source = getattr(args, name), "--" + name.replace("_", "-")
        if value is None:
            value, source = _env_int(env), ENV_PREFIX + env
        if value is None:
            value = default
        elif value < 0:
            raise InputError(f"{source} must be nonnegative, got {value}")
        setattr(args, name, value)


@functools.cache
def _shared_parser() -> argparse.ArgumentParser:
    """The parser of every ``main`` call in this process, built by the first.

    Parsing leaves a parser unchanged, and no default comes from the
    environment: the ``GMK_*`` limits are read after parsing, on each call.
    """
    return build_parser()


def main(argv=None) -> int:
    """Run one command line (``sys.argv[1:]`` when None) and return its exit code."""
    args = _shared_parser().parse_args(argv)
    try:
        _apply_env_defaults(args)
        return args.handler(args)
    except GmkError as exc:
        sys.stderr.write(
            json.dumps({"error": {"type": type(exc).__name__, "message": str(exc)}}) + "\n"
        )
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
