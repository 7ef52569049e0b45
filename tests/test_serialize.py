"""JSON round trips, scaling, rejection rules, hashing."""

from __future__ import annotations

import json
import pathlib
import re

import pytest
from hypothesis import given, settings, strategies as st

from gmk import serialize
from gmk.cli import main
from gmk.core import ensure_valid, evaluate_objective, validate_instance
from gmk.errors import InputError
from gmk.generators import GenParams, gen_random
from gmk.mkcp import solve_mkcp_exact, solve_mkcp_greedy
from gmk.oracle import brute_force_gmk
from gmk.reduction import ReducedElement, reduce_instance
from gmk.serialize import (
    _scaled_int,
    canonical_dumps,
    dumps,
    instance_from_dict,
    instance_hash,
    instance_to_dict,
    reduced_from_dict,
    reduced_solution_to_dict,
    reduced_to_dict,
    solution_from_dict,
    solution_to_dict,
)

DOCS = pathlib.Path(__file__).resolve().parent.parent / "docs" / "examples"


def test_instance_round_trip_modular():
    for seed in range(8):
        inst = gen_random(GenParams(items=3, horizon=3, dimension=2, bins_per_mkc=2), seed)
        again = instance_from_dict(instance_to_dict(inst))
        assert again == inst
        assert instance_hash(again) == instance_hash(inst)


def test_instance_round_trip_submodular():
    for seed in range(5):
        inst = gen_random(GenParams(items=3, horizon=2, variant="submodular"), seed)
        again = instance_from_dict(instance_to_dict(inst))
        assert again == inst


def test_docs_micro_instances_parse_and_validate():
    for name in ("modular_micro.json", "submodular_micro.json", "submodular_sum.json"):
        raw = json.loads((DOCS / name).read_text())
        inst = instance_from_dict(raw)
        assert validate_instance(inst).ok
        again = instance_from_dict(instance_to_dict(inst))
        assert again == inst


def test_denominator_scaling():
    raw = json.loads((DOCS / "modular_micro.json").read_text())
    raw["denominator"] = 2
    raw["stages"][0]["profit"]["cam"] = 2.5
    inst = instance_from_dict(raw)
    assert inst.item_profit(1, "cam") == 5
    # everything else was doubled
    assert inst.item_profit(1, "log") == 4


def test_denominator_must_make_values_integral():
    raw = json.loads((DOCS / "modular_micro.json").read_text())
    raw["stages"][0]["profit"]["cam"] = 0.3
    with pytest.raises(InputError):
        instance_from_dict(raw)
    raw["denominator"] = 10
    assert instance_from_dict(raw).item_profit(1, "cam") == 3


def test_negative_values_rejected_at_parse():
    raw = json.loads((DOCS / "modular_micro.json").read_text())
    raw["stages"][0]["profit"]["cam"] = -1
    with pytest.raises(InputError, match="negative"):
        instance_from_dict(raw)
    raw = json.loads((DOCS / "modular_micro.json").read_text())
    raw["cost_plus"]["cam"]["1"] = -3
    with pytest.raises(InputError, match="negative"):
        instance_from_dict(raw)


@pytest.mark.parametrize("key", ["02", " 2", "+2", "0_2", "\u0662", "two"])
def test_stage_key_in_any_form_but_the_written_one_rejected(key):
    raw = json.loads((DOCS / "modular_micro.json").read_text())
    raw["gain_plus"]["cam"][key] = 9
    with pytest.raises(InputError, match=re.escape(f"gain_plus[cam]: bad stage key {key!r}")):
        instance_from_dict(raw)
    del raw["gain_plus"]["cam"][key]
    assert instance_from_dict(raw).gain_plus["cam", 2] == 2


def test_missing_keys_rejected():
    with pytest.raises(InputError):
        instance_from_dict({"variant": "modular"})
    with pytest.raises(InputError):
        instance_from_dict([1, 2, 3])


def test_solution_round_trip():
    inst = gen_random(GenParams(items=3, horizon=3, dimension=2), 2)
    sol = brute_force_gmk(inst)
    again = solution_from_dict(solution_to_dict(sol))
    assert again == sol
    assert evaluate_objective(inst, again.sets) == evaluate_objective(inst, sol.sets)


def test_reduced_round_trip_modular():
    inst = gen_random(GenParams(items=2, horizon=3, dimension=2), 4)
    reduced = reduce_instance(inst)
    again = reduced_from_dict(reduced_to_dict(reduced))
    assert again.elements == reduced.elements
    assert again.schedules == reduced.schedules
    assert again.constraints == reduced.constraints
    rsol = solve_mkcp_exact(again)
    assert reduced.value_of(rsol.chosen) == again.value_of(rsol.chosen)


def test_reduced_round_trip_submodular():
    inst = gen_random(GenParams(items=2, horizon=2, variant="submodular"), 1)
    reduced = reduce_instance(inst)
    again = reduced_from_dict(reduced_to_dict(reduced))
    assert again.elements == reduced.elements
    chosen = frozenset(list(reduced.elements)[:2])
    # one element per item: take each item's full schedule
    chosen = frozenset(ReducedElement(i, max(reduced.schedules[i])) for i in reduced.items)
    assert again.value_of(chosen) == reduced.value_of(chosen)


@pytest.mark.parametrize("profit", [{"kind": "coverage", "universe": {"u1": 3}}, {"kind": "modular"}])
def test_reduced_stage_profit_missing_an_item_rejected(profit):
    inst = instance_from_dict(json.loads((DOCS / "submodular_micro.json").read_text()))
    raw = reduced_to_dict(reduce_instance(inst))
    raw["objective"]["stage_profits"][0] = profit
    # the solvers would evaluate the profit on every item and fail with a KeyError
    with pytest.raises(InputError, match="every item"):
        reduced_from_dict(raw)


def test_reduced_solution_round_trip():
    # no command reads a reduced solution back, so pin the writer's form:
    # sorted element ids, and one entry per constraint in (stage, index) order
    inst = gen_random(GenParams(items=3, horizon=2, dimension=2), 6)
    rsol = solve_mkcp_greedy(reduce_instance(inst))

    def ids(elements):
        return sorted(f"{e.item}@{e.mask}" for e in elements)

    keys = [(t, j) for t in range(1, inst.horizon + 1) for j in range(1, inst.dimension + 1)]
    assert sorted(rsol.assignments) == keys
    assert reduced_solution_to_dict(rsol) == {
        "chosen": ids(rsol.chosen),
        "assignments": [
            {"stage": t, "index": j, "bins": {b: ids(held) for b, held in rsol.assignments[t, j].items()}}
            for t, j in keys
        ],
    }


def test_canonical_dumps_stable():
    payload = {"b": [3, 1], "a": {"y": 1, "x": 2}}
    assert canonical_dumps(payload) == canonical_dumps(json.loads(canonical_dumps(payload)))


def test_scaled_int_parse_results_and_messages():
    assert _scaled_int(7, 3, "w") == 21
    assert type(_scaled_int(7, 3, "w")) is int
    assert _scaled_int(0, 4, "w") == 0
    assert _scaled_int(2**70, 2, "w") == 2**71
    assert _scaled_int(2.5, 2, "w") == 5
    assert _scaled_int(0.3, 10, "w") == 3
    assert _scaled_int(4.0, 1, "w") == 4
    rejected = [
        (True, 1, "w: expected a number, got True"),
        (False, 1, "w: expected a number, got False"),
        ("5", 1, "w: expected a number, got '5'"),
        (float("nan"), 1, "w: expected a finite number, got nan"),
        (-3, 2, "w: negative values are rejected at parse time, got -3"),
        (-1.5, 2, "w: negative values are rejected at parse time, got -1.5"),
        (0.3, 1, "w: 0.3 is not integral under denominator 1"),
        (1.25, 2, "w: 1.25 is not integral under denominator 2"),
    ]
    for raw, denominator, message in rejected:
        with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
            _scaled_int(raw, denominator, "w")


def _leaves(value):
    if isinstance(value, dict):
        value = list(value.values())
    return [leaf for part in value for leaf in _leaves(part)] if isinstance(value, list) else [value]


def _stdlib_indented(payload) -> str:
    """The reference layout ``dumps`` must match byte for byte."""
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


# quotes, backslashes, controls, non-ASCII beyond the BMP and lone surrogates
_TEXT = st.text(st.sampled_from('a"\\/\x00\x1f\n\t\x7f\xe9\u2028\U0001f600\ud800') | st.characters(), max_size=8)
_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-(10**30), max_value=10**30)
    | st.floats()
    | st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0])
    | _TEXT
)
# keys of one type per object: the stdlib sorts them, and cannot order a str and an int
_KEYS = (_TEXT, st.integers(), st.floats(), st.booleans(), st.none())
_JSON_VALUES = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.one_of(*(st.dictionaries(keys, inner, max_size=4) for keys in _KEYS)),
    max_leaves=24,
)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(payload=_JSON_VALUES)
def test_dumps_writes_what_the_stdlib_indented_writer_writes(payload):
    assert dumps(payload) == _stdlib_indented(payload)


def test_dumps_matches_the_stdlib_on_every_payload_the_cli_writes(tmp_path, monkeypatch):
    written = []

    def checked(payload):
        text = dumps(payload)
        assert text == _stdlib_indented(payload)
        written.append(text)
        return text

    monkeypatch.setattr(serialize, "dumps", checked)
    scheme = ("--eps", "0.2", "--phi", "1")
    for seed, variant in ((1, "modular"), (2, "modular"), (3, "submodular")):
        inst, reduced = tmp_path / f"inst{seed}.json", tmp_path / f"reduced{seed}.json"
        gen = ("--random", "--seed", seed, "--items", 3, "--horizon", 3, "--d", 2, "--bins", 2)
        runs = [
            ("gen", *gen, "--variant", variant, "--target-phi", 1, "--out", inst),
            ("reduce", "--in", inst, "--out", reduced),
            ("solve-mkcp", "--in", reduced, "--exact", "--out", tmp_path / "rsol.json"),
            ("solve-mkcp", "--in", reduced, "--greedy"),
            ("oracle", "--in", inst, "--out", tmp_path / "opt.json"),
            ("validate", inst, "--solution", tmp_path / "opt.json"),
            ("solve", "--in", inst, *scheme, "--mu-inv", 1, "--out", tmp_path / "sol.json", "--report", tmp_path / "r.json"),
            ("compare", "--in", inst, *scheme, "--sub-solver", "greedy", "--report", tmp_path / "cmp.json"),
        ]
        for argv in runs:
            assert main([str(a) for a in argv]) == 0, argv
    # each run writes one payload, and the solve run two
    assert len(written) == 3 * 9
    values = [value for text in written for value in _leaves(json.loads(text))]
    assert {type(value) for value in values} == {str, int, bool, float, type(None)}
