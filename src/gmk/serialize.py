"""Canonical JSON formats for instances, solutions and reduced artifacts.

Stage indices are 1-based everywhere. Gain tables are dense over
items x [2, T] and cost tables over items x [1, T]; missing entries are
rejected downstream by validation rather than silently zeroed. A top-level
``denominator`` scales decimal inputs into exact integers at parse time;
files written by this module always use denominator 1.

Negative profits, gains, costs, weights or capacities are rejected while
parsing.
"""

from __future__ import annotations

import hashlib
import json
import math
from collections.abc import Callable, Mapping  # isinstance on this Mapping takes a third of typing.Mapping's time
from fractions import Fraction
from typing import Any

from .core import (
    GmkInstance,
    Mkc,
    McpStage,
    MultistageSolution,
    MODULAR,
    SUBMODULAR,
)
from .errors import InputError
from .reduction import (
    ReducedConstraint,
    ReducedElement,
    ReducedInstance,
    ReducedObjective,
    ReducedSolution,
)
from .submodular import (
    CoverageFunction,
    ModularFunction,
    SetFunctionOracle,
    SumFunction,
    extend_function,
)


_quote = json.encoder.encode_basestring_ascii


def _key(key: Any) -> str:
    # a key that is not a string, converted as the stdlib writer converts it
    if key is None or isinstance(key, (int, float)):
        return _quote(json.dumps(key))
    raise TypeError(f"keys must be str, int, float, bool or None, not {key.__class__.__name__}")


def _write(value: Any, newline: str = "\n") -> str:
    """``json.dumps(value, sort_keys=True, indent=2)``, its line breaks written as ``newline``.

    A str or int in a container is written in place by a C call, not by a Python call per value.
    """
    inner = newline + "  "
    if isinstance(value, (list, tuple)) and value:
        lines = [
            _quote(v) if type(v) is str else int.__repr__(v) if type(v) is int else _write(v, inner) for v in value
        ]
        return f"[{inner}{(',' + inner).join(lines)}{newline}]"
    if isinstance(value, dict) and value:
        lines = [
            (_quote(k) if type(k) is str else _key(k))
            + ": "
            + (_quote(v) if type(v) is str else int.__repr__(v) if type(v) is int else _write(v, inner))
            for k, v in sorted(value.items())
        ]
        return f"{{{inner}{(',' + inner).join(lines)}{newline}}}"
    return json.dumps(value)  # a scalar or an empty container: one line, as the indented form


def _encode(write: Callable[[Any], str], payload: Any) -> str:
    try:
        return write(payload)
    except ValueError as exc:  # an integer beyond Python's int-to-string digit limit
        raise InputError(f"result cannot be written as JSON: {exc}")


def canonical_dumps(payload: Any) -> str:
    """Stable compact encoding used for hashing and byte-equality tests."""
    return _encode(lambda value: json.dumps(value, sort_keys=True, separators=(",", ":")), payload)


def dumps(payload: Any) -> str:
    """The indented form every file and stdout report takes, with a final newline."""
    return _encode(_write, payload) + "\n"


def _scaled_int(raw: Any, denominator: int, where: str) -> int:
    if type(raw) is int:
        # an integer stays integral under any denominator
        if raw < 0:
            raise InputError(f"{where}: negative values are rejected at parse time, got {raw}")
        return raw * denominator
    if isinstance(raw, bool) or not isinstance(raw, (int, float)):
        raise InputError(f"{where}: expected a number, got {raw!r}")
    if isinstance(raw, float) and not math.isfinite(raw):
        raise InputError(f"{where}: expected a finite number, got {raw!r}")
    value = Fraction(raw if isinstance(raw, int) else str(raw)) * denominator
    if value.denominator != 1:
        raise InputError(f"{where}: {raw} is not integral under denominator {denominator}")
    number = int(value)
    if number < 0:
        raise InputError(f"{where}: negative values are rejected at parse time, got {raw}")
    return number


def _object(raw: Any, where: str) -> Mapping:
    """``raw``, refused unless it is a JSON object: a list or a number has no keys to read."""
    if type(raw) is not dict and not isinstance(raw, Mapping):
        raise InputError(f"{where}: expected an object, got {type(raw).__name__}")
    return raw


def _list(raw: Any, where: str) -> list:
    """``raw``, refused unless it is a JSON array: an object would read as its keys."""
    if not isinstance(raw, list):
        raise InputError(f"{where}: expected a list, got {type(raw).__name__}")
    return raw


def _fields(raw: Any, where: str, *keys: str) -> Mapping:
    """``raw``, refused unless it is a JSON object holding each of ``keys``."""
    raw = _object(raw, where)
    for key in keys:
        if key not in raw:
            raise InputError(f"{where}: missing key {key!r}")
    return raw


def _scaled_values(raw: Any, denominator: int, where: str, name: str, key_form: str) -> dict[str, int]:
    """The values of ``raw``, a JSON object named ``where + name``, as integers, keyed by ``str`` of each key.

    A nonnegative int is scaled in place; any other value goes to ``_scaled_int``,
    named ``where + key_form.format(key)``.
    """
    _object(raw, where + name)
    return {
        str(k): v * denominator
        if type(v) is int and v >= 0
        else _scaled_int(v, denominator, where + key_form.format(k))
        for k, v in raw.items()
    }


def _name_list(raw: Any, where: str) -> tuple[str, ...]:
    # a string or an object would otherwise read as its characters or keys
    if not isinstance(raw, list):
        raise InputError(f"{where}: expected a list of names, got {type(raw).__name__}")
    return tuple(str(name) for name in raw)


def _table_from_json(raw: Any, denominator: int, where: str, stage_of: dict[str, int]) -> dict[tuple[str, int], int]:
    """A coupling table; ``stage_of`` holds each stage key the file has shown good, with its stage."""
    if not isinstance(raw, Mapping):
        raise InputError(f"{where}: expected an object keyed by item")
    table: dict[tuple[str, int], int] = {}
    for item, stages in raw.items():
        if not isinstance(stages, Mapping):
            raise InputError(f"{where}[{item}]: expected an object keyed by stage")
        for key, value in stages.items():
            if key not in stage_of:
                try:
                    t = int(key)
                    # only the form _table_to_json writes, so no two keys name one stage
                    if str(t) != key:
                        raise ValueError(key)
                except (TypeError, ValueError):
                    raise InputError(f"{where}[{item}]: bad stage key {key!r}")
                stage_of[key] = t
            table[item, stage_of[key]] = (
                value * denominator
                if type(value) is int and value >= 0
                else _scaled_int(value, denominator, f"{where}[{item}][{key}]")
            )
    return table


def _table_to_json(table: Mapping[tuple[str, int], int]) -> dict[str, dict[str, int]]:
    out: dict[str, dict[str, int]] = {}
    for (item, t), value in table.items():
        out.setdefault(item, {})[str(t)] = value
    return out


def oracle_to_dict(oracle: SetFunctionOracle) -> dict:
    if isinstance(oracle, CoverageFunction):
        return {
            "kind": "coverage",
            "universe": dict(oracle.universe),
            "covers": {item: sorted(cover) for item, cover in oracle.covers.items()},
        }
    if isinstance(oracle, ModularFunction):
        return {"kind": "modular", "values": dict(oracle.values)}
    if isinstance(oracle, SumFunction):
        return {"kind": "sum", "parts": [oracle_to_dict(p) for p in oracle.parts]}
    raise InputError(f"oracle kind {oracle.kind!r} has no file form")


def oracle_from_dict(raw: Any, denominator: int, where: str) -> SetFunctionOracle:
    if not isinstance(raw, Mapping) or "kind" not in raw:
        raise InputError(f"{where}: expected an oracle object with a 'kind'")
    kind = raw["kind"]
    if kind == "coverage":
        universe = _scaled_values(raw.get("universe", {}), denominator, where, ".universe", ".universe[{}]")
        covers = {}
        for item, cover in _object(raw.get("covers", {}), f"{where}.covers").items():
            cover = _name_list(cover, f"{where}.covers[{item}]")
            unknown = set(cover) - set(universe)
            if unknown:
                raise InputError(f"{where}.covers[{item}]: unknown universe elements {sorted(unknown)}")
            covers[str(item)] = frozenset(cover)
        return CoverageFunction(universe=universe, covers=covers)
    if kind == "modular":
        values = _scaled_values(raw.get("values", {}), denominator, where, ".values", ".values[{}]")
        return ModularFunction(values=values)
    if kind == "sum":
        # read flat, depth first by a stack of its own: a chain of sums costs no recursion
        parts, pending = [], [(raw, where)]
        while pending:
            node, at = pending.pop()
            if isinstance(node, Mapping) and node.get("kind") == "sum":
                listed = _list(node.get("parts", []), f"{at}.parts")
                pending += reversed([(p, f"{at}.parts[{k}]") for k, p in enumerate(listed)])
            else:
                parts.append(oracle_from_dict(node, denominator, at))
        return SumFunction(parts=tuple(parts))
    raise InputError(f"{where}: unknown oracle kind {kind!r}")


def instance_to_dict(inst: GmkInstance) -> dict:
    stages = []
    for stage in inst.stages:
        profit = (
            oracle_to_dict(stage.profit)
            if isinstance(stage.profit, SetFunctionOracle)
            else dict(stage.profit)
        )
        stages.append(
            {
                "mkcs": [
                    {
                        "weights": dict(mkc.weights),
                        "bins": list(mkc.bins),
                        "capacities": dict(mkc.capacities),
                    }
                    for mkc in stage.mkcs
                ],
                "profit": profit,
            }
        )
    payload = {
        "variant": inst.variant,
        "items": list(inst.items),
        "horizon": inst.horizon,
        "stages": stages,
        "gain_plus": _table_to_json(inst.gain_plus),
        "gain_minus": _table_to_json(inst.gain_minus),
        "cost_plus": _table_to_json(inst.cost_plus),
        "cost_minus": _table_to_json(inst.cost_minus),
    }
    if inst.metadata:
        payload["metadata"] = dict(inst.metadata)
    return payload


def instance_from_dict(raw: Any) -> GmkInstance:
    if not isinstance(raw, Mapping):
        raise InputError("instance file must hold a JSON object")
    for key in ("variant", "items", "horizon", "stages", "gain_plus", "gain_minus", "cost_plus", "cost_minus"):
        if key not in raw:
            raise InputError(f"instance file missing required key {key!r}")
    try:
        denominator = raw.get("denominator", 1)
        if type(denominator) is not int or denominator < 1:
            raise InputError(f"denominator must be a positive integer, got {denominator!r}")
        variant = raw["variant"]
        if variant not in (MODULAR, SUBMODULAR):
            raise InputError(f"unknown variant {variant!r}")
        items = _name_list(raw["items"], "items")
        horizon = raw["horizon"]
        if type(horizon) is not int or horizon < 1:
            raise InputError(f"horizon must be a positive integer, got {horizon!r}")

        stages = []
        if not isinstance(raw["stages"], list):
            raise InputError("stages must be a list")
        for t, stage_raw in enumerate(raw["stages"], start=1):
            stage_raw = _object(stage_raw, f"stage {t}")
            mkcs = []
            for j, mkc_raw in enumerate(_list(stage_raw.get("mkcs", []), f"stage {t} mkcs"), start=1):
                where = f"stage {t} constraint {j}"
                mkc_raw = _object(mkc_raw, where)
                weights = _scaled_values(mkc_raw.get("weights", {}), denominator, where, " weights", " weight of {}")
                bins = _name_list(mkc_raw.get("bins", []), f"{where} bins")
                capacities = _scaled_values(
                    mkc_raw.get("capacities", {}), denominator, where, " capacities", " capacity of {}"
                )
                mkcs.append(Mkc(weights=weights, bins=bins, capacities=capacities))
            profit_raw = stage_raw.get("profit", {})
            if variant == SUBMODULAR:
                profit: Any = oracle_from_dict(profit_raw, denominator, f"stage {t} profit")
            else:
                if not isinstance(profit_raw, Mapping) or "kind" in profit_raw:
                    raise InputError(f"stage {t} profit must be a per-item table in the modular variant")
                profit = _scaled_values(profit_raw, denominator, f"stage {t}", " profit", " profit of {}")
            stages.append(McpStage(mkcs=tuple(mkcs), profit=profit))

        stage_of: dict[str, int] = {}
        return GmkInstance(
            items=items,
            horizon=horizon,
            stages=tuple(stages),
            gain_plus=_table_from_json(raw["gain_plus"], denominator, "gain_plus", stage_of),
            gain_minus=_table_from_json(raw["gain_minus"], denominator, "gain_minus", stage_of),
            cost_plus=_table_from_json(raw["cost_plus"], denominator, "cost_plus", stage_of),
            cost_minus=_table_from_json(raw["cost_minus"], denominator, "cost_minus", stage_of),
            variant=variant,
            metadata=dict(_object(raw.get("metadata", {}), "metadata")),
        )
    except (KeyError, TypeError, AttributeError, ValueError) as exc:
        raise InputError(f"instance file malformed: {exc!r}")


def solution_to_dict(sol: MultistageSolution) -> dict:
    return {
        "sets": [sorted(s) for s in sol.sets],
        "assignments": [
            [{b: sorted(assigned) for b, assigned in a.items()} for a in per_stage]
            for per_stage in sol.assignments
        ],
    }


def solution_from_dict(raw: Any) -> MultistageSolution:
    if not isinstance(raw, Mapping) or "sets" not in raw or "assignments" not in raw:
        raise InputError("solution file must hold an object with 'sets' and 'assignments'")
    for t, names in enumerate(_list(raw["sets"], "sets"), start=1):
        _list(names, f"stage {t} set")
    for t, per_stage in enumerate(_list(raw["assignments"], "assignments"), start=1):
        for j, assignment in enumerate(_list(per_stage, f"stage {t} assignments"), start=1):
            for b, names in _object(assignment, f"stage {t} assignment {j}").items():
                _list(names, f"stage {t} assignment {j} bin {b}")
    try:
        return MultistageSolution.from_raw(raw["sets"], raw["assignments"])
    except (KeyError, TypeError, AttributeError, ValueError) as exc:
        raise InputError(f"solution file malformed: {exc!r}")


def _element_from_id(eid: Any) -> ReducedElement:
    item, sep, mask = eid.rpartition("@") if isinstance(eid, str) else ("", "", "")
    if not sep or not (mask.isascii() and mask.isdigit()):
        raise InputError(f"bad reduced element id {eid!r}")
    return ReducedElement(item=item, mask=int(mask))


def reduced_to_dict(reduced: ReducedInstance) -> dict:
    elements = reduced.elements
    partition: dict[str, list[str]] = {item: [] for item in reduced.items}
    values = {}
    for e in elements:
        partition[e.item].append(e.id)
        values[e.id] = reduced.schedules[e.item][e.mask]
    payload: dict[str, Any] = {
        "variant": reduced.variant,
        "items": list(reduced.items),
        "horizon": reduced.horizon,
        "dimension": reduced.dimension,
        "elements": [{"id": e.id, "item": e.item, "stages": list(e.stages())} for e in elements],
        "partition": partition,
        "constraints": [
            {
                "stage": rc.stage,
                "index": rc.index,
                "padding": rc.padding,
                "bins": list(rc.bins),
                "capacities": dict(rc.capacities),
                "item_weights": dict(rc.item_weights),
            }
            for rc in reduced.constraints
        ],
    }
    if reduced.objective is None:
        payload["values"] = values
    else:
        payload["objective"] = {
            "stage_profits": [oracle_to_dict(f.base) for f in reduced.objective.stage_functions],
            "gain_values": values,
        }
    return payload


def _reduced_constraint(rc: Any, where: str) -> ReducedConstraint:
    rc = _fields(rc, where, "stage", "index", "padding", "bins", "capacities", "item_weights")
    bins = _name_list(rc["bins"], f"{where} bins")
    caps = _object(rc["capacities"], f"{where} capacities")
    caps = {str(b): _scaled_int(c, 1, f"{where} capacity of {b}") for b, c in caps.items()}
    if len(set(bins)) != len(bins) or set(caps) != set(bins):
        raise InputError(f"{where}: needs distinct bins with one capacity each")
    weights = _object(rc["item_weights"], f"{where} item_weights")
    weights = {str(i): _scaled_int(w, 1, f"{where} weight of {i}") for i, w in weights.items()}
    stage, index = _scaled_int(rc["stage"], 1, where), _scaled_int(rc["index"], 1, where)
    if not isinstance(rc["padding"], bool):
        raise InputError(f"{where}: padding must be true or false, got {rc['padding']!r}")
    if rc["padding"] and list(caps.values()) != [0]:
        raise InputError(f"{where}: a padding constraint holds one bin of capacity 0")
    return ReducedConstraint(stage, index, rc["padding"], bins, caps, weights)


def reduced_from_dict(raw: Any) -> ReducedInstance:
    """Parse a reduced instance, rejecting anything the solvers cannot index.

    Masks lie within the horizon, the partition splits the elements into one
    group per item, each with the empty schedule, there is one constraint per
    stage and index with nonnegative data, every stage profit is defined on
    every item, and the variant's ``values`` or ``objective`` covers every
    element.
    """
    if not isinstance(raw, Mapping):
        raise InputError("reduced instance file must hold a JSON object")
    variant = raw.get("variant")
    if variant not in (MODULAR, SUBMODULAR):
        raise InputError(f"unknown variant {variant!r}")
    payload, other = ("values", "objective") if variant == MODULAR else ("objective", "values")
    if payload not in raw or other in raw:
        raise InputError(f"the {variant} variant needs {payload!r} and no {other!r}")
    label = "value" if variant == MODULAR else "gain value"
    _fields(raw, "reduced instance file", "items", "horizon", "dimension", "elements", "partition", "constraints")
    try:
        items = _name_list(raw["items"], "items")
        horizon = _scaled_int(raw["horizon"], 1, "horizon")
        dimension = _scaled_int(raw["dimension"], 1, "dimension")
        elements = tuple(
            _element_from_id(_fields(e, f"elements[{k}]", "id")["id"]) for k, e in enumerate(raw["elements"])
        )
        groups = _object(raw["partition"], "partition")
        groups = {str(i): tuple(map(_element_from_id, _list(g, f"partition[{i}]"))) for i, g in groups.items()}
        constraints = tuple(
            _reduced_constraint(rc, f"constraint {k}") for k, rc in enumerate(raw["constraints"])
        )
        stage_functions = None
        if variant == SUBMODULAR:
            objective_raw = _fields(raw["objective"], "objective", "stage_profits", "gain_values")
            stage_profits = _list(objective_raw["stage_profits"], "objective.stage_profits")
            if len(stage_profits) != horizon:
                raise InputError("objective needs one stage profit per stage")
            stage_functions = tuple(
                extend_function(oracle_from_dict(p, 1, f"objective stage {t}"), t)
                for t, p in enumerate(stage_profits, start=1)
            )
        table = raw["values"] if stage_functions is None else objective_raw["gain_values"]
        table = _object(table, "values" if stage_functions is None else "objective.gain_values")
        values = {
            _element_from_id(eid): _scaled_int(v, 1, f"{label} of {eid}")
            for eid, v in table.items()
        }
    except (KeyError, TypeError, AttributeError, ValueError) as exc:
        raise InputError(f"reduced instance file malformed: {exc!r}")
    element_set = frozenset(elements)
    if horizon < 1 or dimension < 1 or len(set(items)) != len(items):
        raise InputError(
            "a reduced instance needs a positive dimension, a positive horizon and distinct items"
        )
    if any(e.mask >> horizon for e in elements):
        raise InputError(f"a schedule mask names a stage beyond horizon {horizon}")
    grouped = {e for item, group in groups.items() for e in group if e.item == item}
    if (
        set(groups) != set(items)
        or grouped != element_set
        or not len(elements) == len(element_set) == sum(map(len, groups.values()))
    ):
        raise InputError("partition must split the elements into one group per item")
    if any(ReducedElement(item, 0) not in element_set for item in items):
        raise InputError("every item needs its empty schedule")
    keys = sorted((rc.stage, rc.index) for rc in constraints)
    # the count first, so that the expected keys are no more than the listed ones
    if len(keys) != horizon * dimension or keys != [
        (t, j) for t in range(1, horizon + 1) for j in range(1, dimension + 1)
    ]:
        raise InputError("constraints must be one per stage and index within horizon and dimension")
    if any(not rc.padding and not set(items) <= set(rc.item_weights) for rc in constraints):
        raise InputError("every unpadded constraint needs the weight of every item")
    if stage_functions is not None and any(not set(items) <= f.base.ground for f in stage_functions):
        raise InputError("every stage profit needs every item")
    if set(values) != element_set:
        raise InputError(f"{payload} must cover exactly the elements")
    schedules = {item: {e.mask: values[e] for e in sorted(groups[item])} for item in items}
    objective = None if stage_functions is None else ReducedObjective(stage_functions, schedules)
    return ReducedInstance(variant, items, horizon, dimension, schedules, constraints, objective)


def reduced_solution_to_dict(rsol: ReducedSolution) -> dict:
    return {
        "chosen": sorted(e.id for e in rsol.chosen),
        "assignments": [
            {
                "stage": t,
                "index": j,
                "bins": {b: sorted(e.id for e in assigned) for b, assigned in assignment.items()},
            }
            for (t, j), assignment in sorted(rsol.assignments.items())
        ],
    }


def interval_set_to_list(iv) -> list[list]:
    """Debug form of interval runs: [item, start, end] triples."""
    return [[e.item, e.start, e.end] for e in iv]


def instance_hash(inst: GmkInstance) -> str:
    return hashlib.sha256(canonical_dumps(instance_to_dict(inst)).encode()).hexdigest()


def load_json(path) -> Any:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except FileNotFoundError:
        raise InputError(f"no such file: {path}")
    except OSError as exc:  # a directory, say, or a file it may not read
        raise InputError(f"cannot read {path}: {exc.strerror or exc}")
    except ValueError as exc:  # a JSONDecodeError, or an integer too long to convert
        raise InputError(f"{path} is not valid JSON: {exc}")
    except RecursionError:  # the decoder recurses once per nested array or object
        raise InputError(f"{path} nests too deeply to parse as JSON")


def write_json(path, payload: Any) -> None:
    text = dumps(payload)  # first, so a refused payload leaves no file behind
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:  # a missing directory, say
        raise InputError(f"cannot write {path}: {exc.strerror or exc}")
