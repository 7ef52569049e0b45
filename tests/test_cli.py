"""End-to-end command-line runs, exit codes, report invariants."""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import resource
import shlex
import shutil
import subprocess
import sys

import pytest

from gmk import cli, core, cutting, mkcp, oracle
from gmk.cli import main
from gmk.lanes import Row
from gmk.oracle import StageRows
from gmk.generators import GenParams, gen_random
from gmk.mkcp import DEFAULT_PACK_BUDGET
from gmk.serialize import (
    canonical_dumps,
    instance_from_dict,
    instance_hash,
    instance_to_dict,
    load_json,
    write_json,
)
from util import binless_first_stage

DOCS = pathlib.Path(__file__).resolve().parent.parent / "docs" / "examples"


def run(*argv):
    return main([str(a) for a in argv])


def test_validate_good_instance(tmp_path, capsys):
    assert run("validate", DOCS / "modular_micro.json") == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] and payload["entries"] == []


def test_validate_broken_instance_exits_2(tmp_path, capsys):
    raw = json.loads((DOCS / "modular_micro.json").read_text())
    del raw["gain_plus"]["cam"]
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(raw))
    assert run("validate", path) == 2
    out = capsys.readouterr()
    assert "gain_plus incomplete" in out.out


def test_validate_lists_missing_entries_in_instance_order_under_any_hash_seed(tmp_path):
    raw = instance_to_dict(gen_random(GenParams(items=5, horizon=2), 1))
    raw["stages"][0]["mkcs"][0]["weights"].clear()
    raw["stages"][1]["profit"].clear()
    raw["gain_plus"].clear()
    path = tmp_path / "missing.json"
    path.write_text(json.dumps(raw))
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    runs = [
        subprocess.run([sys.executable, "-m", "gmk.cli", "validate", str(path)], capture_output=True, timeout=60,
                       env={**os.environ, "PYTHONPATH": str(src), "PYTHONHASHSEED": seed})
        for seed in ("1", "2")
    ]
    assert [done.returncode for done in runs] == [2, 2]
    assert runs[0].stdout == runs[1].stdout and runs[0].stderr == runs[1].stderr
    items = raw["items"]
    assert json.loads(runs[0].stdout)["entries"] == [
        *(f"weights incomplete: stage 1 constraint 1 missing item {i}" for i in items),
        *(f"profit incomplete: stage 2 missing item {i}" for i in items),
        *(f"gain_plus incomplete: missing entry for item {i} stage 2" for i in items),
    ]


def _submodular_twin(inst, **extra):
    """The raw modular instance made submodular: zero change costs, modular oracles of its profits and ``extra``."""
    zero = {item: dict.fromkeys(costs, 0) for item, costs in inst["cost_plus"].items()}
    inst.update(variant="submodular", cost_plus=zero, cost_minus=zero)
    for stage in inst["stages"]:
        stage["profit"] = {"kind": "modular", "values": {**stage["profit"], **extra}}


def test_unknown_items_of_two_types_exit_2_with_their_names(tmp_path, capsys):
    # sorted() alone cannot order a JSON true and a string
    sol_path = tmp_path / "sol.json"
    assert run("oracle", "--in", DOCS / "modular_micro.json", "--out", sol_path) == 0
    sol = load_json(sol_path)
    sol["sets"][0] = [True, "ghost"]
    sol_path.write_text(json.dumps(sol))
    capsys.readouterr()
    assert run("validate", DOCS / "modular_micro.json", "--solution", sol_path) == 2
    assert "S_1 contains unknown items [True, 'ghost']" in json.loads(capsys.readouterr().err)["error"]["message"]


def test_the_submodular_twin_of_modular_micro_is_valid(tmp_path, capsys):
    # the oracle_of_unknown_item case below is refused for its ghost alone
    inst_path, sol_path = tmp_path / "inst.json", tmp_path / "sol.json"
    assert run("oracle", "--in", DOCS / "modular_micro.json", "--out", sol_path) == 0
    inst = load_json(DOCS / "modular_micro.json")
    _submodular_twin(inst)
    inst_path.write_text(json.dumps(inst))
    assert run("validate", inst_path, "--solution", sol_path) == 0


def _valued(edit, value):
    """A corruption that sets one number of the raw instance to ``value`` by ``edit``."""
    return lambda inst, sol: edit(inst, value)


def _coverage_twin(inst, weight):
    _submodular_twin(inst)
    profit = {"kind": "coverage", "universe": {"u1": 3, "u2": weight}, "covers": {"cam": ["u1"], "log": ["u2"]}}
    inst["stages"][0]["profit"] = profit


# every place a number in an instance file is scaled: how to set it, and the name its refusal gives
NUMBER_SITES = {
    "weight": (
        lambda inst, v: inst["stages"][0]["mkcs"][0]["weights"].update(log=v),
        "stage 1 constraint 1 weight of log",
    ),
    "bin_capacity": (
        lambda inst, v: inst["stages"][1]["mkcs"][0]["capacities"].update(srv1=v),
        "stage 2 constraint 1 capacity of srv1",
    ),
    "profit": (lambda inst, v: inst["stages"][1]["profit"].update(log=v), "stage 2 profit of log"),
    "universe": (_coverage_twin, "stage 1 profit.universe[u2]"),
    "oracle_value": (
        lambda inst, v: (_submodular_twin(inst), inst["stages"][1]["profit"]["values"].update(log=v)),
        "stage 2 profit.values[log]",
    ),
    **{
        table: (lambda inst, v, table=table: inst[table]["log"].update({"2": v}), f"{table}[log][2]")
        for table in ("gain_plus", "gain_minus", "cost_plus", "cost_minus")
    },
}
# values an integer-only fast path must still hand to the full check; inf is written as 1e400
BAD_NUMBERS = {
    "true": (True, "expected a number, got True"),
    "minus_1": (-1, "negative values are rejected at parse time, got -1"),
    "2_5": (2.5, "2.5 is not integral under denominator 1"),
    "string_3": ("3", "expected a number, got '3'"),
    "1e400": (float("inf"), "expected a finite number, got inf"),
}


@pytest.mark.parametrize(
    "corrupt, message",
    [
        pytest.param(
            lambda inst, sol: inst.update(items=5), "items: expected a list of names, got int", id="items_number"
        ),
        pytest.param(
            lambda inst, sol: inst["stages"].__setitem__(0, 3), "stage 1: expected an object, got int", id="stage_number"
        ),
        pytest.param(
            lambda inst, sol: inst["stages"][0].update(mkcs=3), "stage 1 mkcs: expected a list, got int", id="mkcs_number"
        ),
        pytest.param(
            lambda inst, sol: inst["stages"][1]["mkcs"].__setitem__(0, 3),
            "stage 2 constraint 1: expected an object, got int",
            id="mkc_number",
        ),
        pytest.param(
            lambda inst, sol: inst["stages"][0]["mkcs"][0].update(weights=[2, 1]),
            "stage 1 constraint 1 weights: expected an object, got list",
            id="weights_list",
        ),
        pytest.param(
            lambda inst, sol: inst["stages"][0]["mkcs"][0].update(capacities=[2, 1]),
            "stage 1 constraint 1 capacities: expected an object, got list",
            id="capacities_list",
        ),
        pytest.param(
            lambda inst, sol: inst["stages"][0]["mkcs"][0]["capacities"].update(srv1=float("inf")),
            "stage 1 constraint 1 capacity of srv1: expected a finite number, got inf",
            id="capacity_1e400",
        ),
        pytest.param(lambda inst, sol: sol.update(sets=5), "sets: expected a list, got int", id="solution_sets_number"),
        # a string would read as its characters
        pytest.param(
            lambda inst, sol: sol["sets"].__setitem__(1, "cam"), "stage 2 set: expected a list, got str", id="set_string"
        ),
        pytest.param(
            lambda inst, sol: sol["assignments"][0][0].update(srv1="cam"),
            "stage 1 assignment 1 bin srv1: expected a list, got str",
            id="bin_string",
        ),
        # metadata is an object: a list of pairs or of two-letter strings is no dict of it
        *(
            pytest.param(
                lambda inst, sol, value=value: inst.update(metadata=value),
                f"metadata: expected an object, got {type(value).__name__}",
                id=f"metadata_{name}",
            )
            for name, value in (("pairs", [["seed", 9]]), ("chars", ["xy"]), ("number", 3), ("string", "ab"))
        ),
        pytest.param(
            lambda inst, sol: (_coverage_twin(inst, 1), inst["stages"][0]["profit"].update(covers=[["u1"]])),
            "stage 1 profit.covers: expected an object, got list",
            id="covers_list",
        ),
        pytest.param(
            lambda inst, sol: (_submodular_twin(inst), inst["stages"][1].update(profit={"kind": "sum", "parts": 3})),
            "stage 2 profit.parts: expected a list, got int",
            id="parts_number",
        ),
        # an object of parts would read as its keys, each refused as parts[0]
        pytest.param(
            lambda inst, sol: (
                _submodular_twin(inst),
                inst["stages"][1].update(profit={"kind": "sum", "parts": {"p": inst["stages"][1]["profit"]}}),
            ),
            "stage 2 profit.parts: expected a list, got dict",
            id="parts_object",
        ),
        pytest.param(
            lambda inst, sol: sol.update(assignments=5), "assignments: expected a list, got int", id="assignments_number"
        ),
        pytest.param(
            lambda inst, sol: sol["assignments"].__setitem__(1, {"srv1": ["cam"]}),
            "stage 2 assignments: expected a list, got dict",
            id="stage_assignments_object",
        ),
        pytest.param(
            lambda inst, sol: sol["assignments"][0].__setitem__(0, [["cam"]]),
            "stage 1 assignment 1: expected an object, got list",
            id="assignment_list",
        ),
        # an invalid instance is not checked against the solution, which
        # here reads a capacity that does not exist, or a stage past T
        pytest.param(
            lambda inst, sol: (
                inst["stages"][0]["mkcs"][0]["bins"].append("b2"),
                sol["assignments"][0][0].update(srv2=[], b2=["log"]),
            ),
            'validation failed: {"ok": false, "entries": ["stage 1 constraint 1 capacities do not match its bin list"]}',
            id="bin_without_capacity",
        ),
        pytest.param(
            lambda inst, sol: (
                inst.update(horizon=1),
                sol.update(sets=sol["sets"][:1], assignments=sol["assignments"][:1]),
            ),
            'validation failed: {"ok": false, "entries": ["expected 1 stages, got 2"]}',
            id="horizon_below_stages",
        ),
        pytest.param(lambda inst, sol: inst.update(variant="bogus"), "unknown variant 'bogus'", id="unknown_variant"),
        pytest.param(
            lambda inst, sol: inst["cost_plus"]["cam"].update(one=1),
            "cost_plus[cam]: bad stage key 'one'",
            id="stage_key_one",
        ),
        pytest.param(
            lambda inst, sol: inst["stages"][0].update(profit={"kind": "modular", "values": {"cam": 5}}),
            "stage 1 profit must be a per-item table in the modular variant",
            id="modular_profit_oracle",
        ),
        # a second spelling of stage 2, which int() would read as the same key
        pytest.param(
            lambda inst, sol: inst["gain_plus"]["cam"].update({"02": 9}),
            "gain_plus[cam]: bad stage key '02'",
            id="stage_key_02",
        ),
        # a bad key first met in the last table, after every good key was read
        pytest.param(
            lambda inst, sol: inst["cost_minus"]["log"].update({"01": 0}),
            "cost_minus[log]: bad stage key '01'",
            id="stage_key_late",
        ),
        pytest.param(
            lambda inst, sol: inst["stages"][0]["profit"].update(ghost=7),
            'validation failed: {"ok": false, "entries": ["stage 1 profit names unknown item ghost"]}',
            id="profit_of_unknown_item",
        ),
        # a valid instance, and a solution with no assignment at stage 1
        pytest.param(
            lambda inst, sol: sol["assignments"][0].clear(),
            'validation failed: {"ok": true, "entries": [], "solution_ok": false,'
            ' "solution_violations": ["stage 1 needs 1 assignments, got 0"]}',
            id="stage_without_assignments",
        ),
        # a submodular stage oracle that values an item outside the instance
        pytest.param(
            lambda inst, sol: _submodular_twin(inst, ghost=7),
            'validation failed: {"ok": false, "entries": ["stage 1 profit oracle names unknown items [\'ghost\']",'
            ' "stage 2 profit oracle names unknown items [\'ghost\']"]}',
            id="oracle_of_unknown_item",
        ),
        *(
            pytest.param(_valued(edit, value), f"{where}: {refusal}", id=f"{site}_{name}")
            for site, (edit, where) in NUMBER_SITES.items()
            for name, (value, refusal) in BAD_NUMBERS.items()
        ),
    ],
)
def test_validate_malformed_file_exits_2(tmp_path, capsys, corrupt, message):
    inst_path, sol_path = tmp_path / "inst.json", tmp_path / "sol.json"
    assert run("oracle", "--in", DOCS / "modular_micro.json", "--out", sol_path) == 0
    inst, sol = load_json(DOCS / "modular_micro.json"), load_json(sol_path)
    corrupt(inst, sol)
    # json.dumps writes an infinite capacity as Infinity; the file should say 1e400
    inst_path.write_text(json.dumps(inst).replace("Infinity", "1e400"))
    sol_path.write_text(json.dumps(sol))
    capsys.readouterr()
    assert run("validate", inst_path, "--solution", sol_path) == 2
    error = json.loads(capsys.readouterr().err)["error"]
    assert (error["type"], error["message"]) == ("InputError", message)


def test_integer_too_long_to_parse_exits_2(tmp_path, capsys):
    text = (DOCS / "modular_micro.json").read_text().replace('"srv1": 4', '"srv1": ' + "9" * 5000)
    path = tmp_path / "long.json"
    path.write_text(text)
    assert run("validate", path) == 2
    assert json.loads(capsys.readouterr().err)["error"]["type"] == "InputError"


def test_validate_solution_value(tmp_path, capsys):
    inst = DOCS / "modular_micro.json"
    sol = tmp_path / "sol.json"
    assert run("oracle", "--in", inst, "--out", sol) == 0
    assert run("validate", inst, "--solution", sol) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["solution_ok"] and payload["value"] == 15


def test_gen_modes_are_exclusive(capsys):
    assert run("gen", "--random", "--from-2kp", "x.json") == 2


def test_gen_random_deterministic_bytes(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ("gen", "--random", "--seed", 9, "--items", 3, "--horizon", 3, "--target-phi", "1")
    assert run(*args, "--out", a) == 0
    assert run(*args, "--out", b) == 0
    assert a.read_bytes() == b.read_bytes()


def test_gen_from_kp_and_validate(tmp_path):
    kp = tmp_path / "kp.json"
    kp.write_text(
        json.dumps(
            {
                "items": ["x", "y"],
                "profits": {"x": 6, "y": 4},
                "weights": {"x": [1, 2], "y": [2, 1]},
                "capacities": [3, 3],
            }
        )
    )
    out = tmp_path / "inst.json"
    assert run("gen", "--from-kp", kp, "--out", out) == 0
    assert run("validate", out) == 0
    out2 = tmp_path / "inst2.json"
    assert run("gen", "--from-2kp", kp, "--out", out2) == 0
    assert run("validate", out2) == 0


# knapsack numbers follow the instance-file rule: nonnegative integers,
# never a truncated float, a string or a boolean; and every item needs a
# profit and a weight in each of at least one dimension
KP_CORRUPTIONS = {
    "profit_1.5": lambda kp: kp["profits"].update(x=1.5),
    "capacity_3.9": lambda kp: kp["capacities"].__setitem__(0, 3.9),
    "weight_string": lambda kp: kp["weights"]["y"].__setitem__(1, "3"),
    "profit_true": lambda kp: kp["profits"].update(z=True),
    "profits_list": lambda kp: kp.update(profits=[6, 4, 5]),
    "no_capacities": lambda kp: kp.update(capacities=[]),
    "item_without_weights": lambda kp: kp["weights"].pop("y"),
}


@pytest.mark.parametrize("mode", ["--from-kp", "--from-2kp"])
@pytest.mark.parametrize("corrupt", list(KP_CORRUPTIONS.values()), ids=list(KP_CORRUPTIONS))
def test_gen_from_knapsack_rejects_non_integer_numbers(tmp_path, capsys, mode, corrupt):
    kp = load_json(DOCS / "kp_2d.json")
    corrupt(kp)
    path, out = tmp_path / "kp.json", tmp_path / "inst.json"
    path.write_text(json.dumps(kp))
    assert run("gen", mode, path, "--out", out) == 2
    assert json.loads(capsys.readouterr().err)["error"]["type"] == "InputError"
    assert not out.exists()


@pytest.mark.parametrize("key", ["horizon", "denominator"])
def test_boolean_horizon_or_denominator_exits_2(tmp_path, capsys, key):
    # true would read as 1, and the instance would be written back with true
    raw = instance_to_dict(gen_random(GenParams(items=2, horizon=1, target_phi=1), 0))
    raw[key] = True
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(raw))
    assert run("validate", path) == 2
    assert run("solve", "--in", path, "--eps", "0.2", "--phi", 1, "--out", tmp_path / "s.json") == 2
    assert not (tmp_path / "s.json").exists()
    assert key in json.loads(capsys.readouterr().err.splitlines()[-1])["error"]["message"]


def test_reduce_solve_mkcp_pipeline(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    assert run("gen", "--random", "--seed", 4, "--items", 2, "--horizon", 2, "--out", inst) == 0
    reduced = tmp_path / "reduced.json"
    assert run("reduce", "--in", inst, "--out", reduced) == 0
    rsol = tmp_path / "rsol.json"
    assert run("solve-mkcp", "--in", reduced, "--exact", "--out", rsol) == 0
    exact_payload = load_json(rsol)
    assert run("solve-mkcp", "--in", reduced, "--greedy", "--out", rsol) == 0
    greedy_payload = load_json(rsol)
    assert greedy_payload["value"] <= exact_payload["value"]


def _negative_capacity(raw):
    caps = raw["constraints"][0]["capacities"]
    caps[next(iter(caps))] = -1


def _mask_beyond_horizon(raw):
    raw["elements"].append({"id": "cam@999", "item": "cam", "stages": [1, 2, 3]})
    raw["partition"]["cam"].append("cam@999")
    raw["values"]["cam@999"] = 1


def _element_without_value(raw):
    del raw["values"][raw["partition"]["cam"][-1]]


def _without_empty_schedule(raw):
    raw["elements"] = [e for e in raw["elements"] if e["id"] != "cam@0"]
    raw["partition"]["cam"].remove("cam@0")
    del raw["values"]["cam@0"]


# per case: the docs example whose reduction it corrupts, the corruption,
# and a fragment of the error message
BAD_REDUCED = {
    "negative_capacity": ("modular_micro", _negative_capacity, "negative values are rejected"),
    "mask_beyond_horizon": ("modular_micro", _mask_beyond_horizon, "beyond horizon 2"),
    "constraint_without_stage": (
        "modular_micro", lambda raw: raw["constraints"][0].pop("stage"), "constraint 0: missing key 'stage'"
    ),
    "element_without_id": ("modular_micro", lambda raw: raw["elements"][1].pop("id"), "elements[1]: missing key 'id'"),
    "without_constraints": (
        "modular_micro", lambda raw: raw.pop("constraints"), "reduced instance file: missing key 'constraints'"
    ),
    "objective_without_gain_values": (
        "submodular_micro",
        lambda raw: raw["objective"].pop("gain_values"),
        "objective: missing key 'gain_values'",
    ),
    # a string would read as its characters
    "partition_group_string": (
        "modular_micro",
        lambda raw: raw["partition"].update(cam="cam@0"),
        "partition[cam]: expected a list, got str",
    ),
    "element_without_value": ("modular_micro", _element_without_value, "cover exactly the elements"),
    "unknown_variant": ("modular_micro", lambda raw: raw.update(variant="bogus"), "unknown variant"),
    "modular_without_values": ("modular_micro", lambda raw: raw.pop("values"), "needs 'values'"),
    "stage_profit_missing": (
        "submodular_micro",
        lambda raw: raw["objective"]["stage_profits"].pop(),
        "one stage profit per stage",
    ),
    "zero_horizon": (
        "modular_micro", lambda raw: raw.update(horizon=0), "positive horizon and distinct items"
    ),
    "item_without_empty_schedule": ("modular_micro", _without_empty_schedule, "empty schedule"),
    "padding_string": (
        "modular_micro",
        lambda raw: raw["constraints"][0].update(padding="false"),
        "constraint 0: padding must be true or false, got 'false'",
    ),
    "padding_number": (
        "modular_micro",
        lambda raw: raw["constraints"][0].update(padding=1),
        "constraint 0: padding must be true or false, got 1",
    ),
    "constraint_without_item_weight": (
        "modular_micro",
        lambda raw: raw["constraints"][0]["item_weights"].pop("log"),
        "needs the weight of every item",
    ),
    # the packer skips a padding constraint, so one with no bin would refuse the packed answer
    "padding_without_its_bin": (
        "modular_micro",
        lambda raw: raw["constraints"][0].update(padding=True, bins=[], capacities={}),
        "constraint 0: a padding constraint holds one bin of capacity 0",
    ),
    "elements_entry_string": (
        "modular_micro", lambda raw: raw["elements"].__setitem__(1, "cam@1"), "elements[1]: expected an object, got str"
    ),
    "partition_list": (
        "modular_micro", lambda raw: raw.update(partition=[["cam@0"]]), "partition: expected an object, got list"
    ),
    "values_list": ("modular_micro", lambda raw: raw.update(values=[0]), "values: expected an object, got list"),
    "capacities_list": (
        "modular_micro",
        lambda raw: raw["constraints"][0].update(capacities=[2, 1]),
        "constraint 0 capacities: expected an object, got list",
    ),
    "item_weights_list": (
        "modular_micro",
        lambda raw: raw["constraints"][0].update(item_weights=[2, 1]),
        "constraint 0 item_weights: expected an object, got list",
    ),
    "gain_values_list": (
        "submodular_micro",
        lambda raw: raw["objective"].update(gain_values=[0]),
        "objective.gain_values: expected an object, got list",
    ),
    "constraint_number": (
        "modular_micro", lambda raw: raw["constraints"].__setitem__(0, 3), "constraint 0: expected an object, got int"
    ),
    "objective_list": (
        "submodular_micro", lambda raw: raw.update(objective=[1]), "objective: expected an object, got list"
    ),
    "stage_profits_object": (
        "submodular_micro",
        lambda raw: raw["objective"].update(stage_profits=dict(enumerate(raw["objective"]["stage_profits"]))),
        "objective.stage_profits: expected a list, got dict",
    ),
}


@pytest.mark.parametrize("case", list(BAD_REDUCED))
@pytest.mark.parametrize("mode", ["--exact", "--greedy"])
def test_solve_mkcp_bad_reduced_file_exits_2(tmp_path, capsys, case, mode):
    example, corrupt, message = BAD_REDUCED[case]
    reduced = tmp_path / "reduced.json"
    assert run("reduce", "--in", DOCS / f"{example}.json", "--out", reduced) == 0
    raw = load_json(reduced)
    corrupt(raw)
    reduced.write_text(json.dumps(raw))
    capsys.readouterr()
    assert run("solve-mkcp", "--in", reduced, mode, "--out", tmp_path / "rsol.json") == 2
    error = json.loads(capsys.readouterr().err)["error"]
    assert error["type"] == "InputError" and message in error["message"]


def test_solve_mkcp_exact_refuses_subset_tables_beyond_the_budget(tmp_path, capsys):
    # one item over 64 stages, with the empty schedule and the one at stage
    # 64: a candidate space of 3, but subset tables of 2**64 entries
    horizon, elements = 64, ["x@0", f"x@{2**63}"]
    raw = {
        "variant": "modular", "items": ["x"], "horizon": horizon, "dimension": 1,
        "elements": [{"id": e} for e in elements],
        "partition": {"x": elements},
        "constraints": [
            {"stage": t, "index": 1, "padding": False, "bins": ["b"], "capacities": {"b": 1},
             "item_weights": {"x": 1}}
            for t in range(1, horizon + 1)
        ],
        "values": {"x@0": 0, f"x@{2**63}": 1},
    }
    reduced = tmp_path / "reduced.json"
    reduced.write_text(json.dumps(raw))
    capsys.readouterr()
    assert run("solve-mkcp", "--in", reduced, "--exact", "--out", tmp_path / "rsol.json") == 3
    error = json.loads(capsys.readouterr().err)["error"]
    assert error["type"] == "BudgetExceededError" and "|I| * 2**T" in error["message"]


# per horizon, the optimum the oracle finds too (README quotes T = 8 and 13)
@pytest.mark.parametrize(
    "horizon, value", [pytest.param(h, v, id=str(h)) for h, v in ((7, 41), (8, 56), (10, 61), (12, 75), (13, 74))]
)
def test_solve_mkcp_exact_runs_at_the_default_budget(tmp_path, monkeypatch, horizon, value):
    # candidate spaces of 1.3 * 10**6 to 6.6 * 10**10 schedule tuples (T <= 12), but
    # searches that examine 28 to 467 candidate schedules
    monkeypatch.delenv("GMK_BUDGET", raising=False)
    inst, reduced, rsol = tmp_path / "inst.json", tmp_path / "reduced.json", tmp_path / "rsol.json"
    assert run("gen", "--random", "--seed", 3, "--items", 3, "--horizon", horizon, "--out", inst) == 0
    assert run("reduce", "--in", inst, "--out", reduced) == 0
    assert run("solve-mkcp", "--in", reduced, "--exact", "--out", rsol) == 0
    assert load_json(rsol)["value"] == value
    assert run("solve-mkcp", "--in", reduced, "--greedy", "--out", tmp_path / "greedy.json") == 0
    # 3 * 2**T schedule-table entries pass a budget of 100 at every horizon here
    assert run("reduce", "--in", inst, "--budget", 100, "--out", tmp_path / "refused.json") == 3


def test_solve_mkcp_exact_budget_boundary_is_the_search_count(tmp_path, capsys):
    # subset tables of 3 * 2**6 = 192 entries; the search examines 3784 candidates
    inst, reduced = tmp_path / "inst.json", tmp_path / "reduced.json"
    gen = ("--random", "--seed", 2, "--items", 3, "--horizon", 6, "--d", 2, "--bins", 2)
    assert run("gen", *gen, "--target-phi", 1, "--out", inst) == 0
    assert run("reduce", "--in", inst, "--out", reduced) == 0
    rsol = tmp_path / "rsol.json"
    assert run("solve-mkcp", "--in", reduced, "--exact", "--budget", 3784, "--out", rsol) == 0
    capsys.readouterr()
    assert run("solve-mkcp", "--in", reduced, "--exact", "--budget", 3783, "--out", rsol) == 3
    error = json.loads(capsys.readouterr().err)["error"]
    assert error["type"] == "BudgetExceededError"
    assert "search examined more than 3783" in error["message"]
    assert "use solve_mkcp_greedy or raise the budget" in error["message"]


SCHEME = ("--eps", "0.2", "--phi", 10**30)


def _micro_with_cam_profit(tmp_path, profit):
    raw = load_json(DOCS / "modular_micro.json")
    for stage in raw["stages"]:
        stage["profit"]["cam"] = profit
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(raw))
    return path


@pytest.mark.parametrize("profit", [2**62, 2**63, 10**400], ids=["2_62", "2_63", "10_400"])
def test_values_beyond_int64_solve_exactly(tmp_path, capsys, profit):
    # the micro optimum packs both items at both stages: 15 - (5 + 4) + 2 * profit
    optimum = 2 * profit + 6
    path = _micro_with_cam_profit(tmp_path, profit)
    capsys.readouterr()
    assert run("oracle", "--in", path) == 0
    assert json.loads(capsys.readouterr().out)["value"] == optimum
    assert run("solve", "--in", path, *SCHEME, "--out", tmp_path / "s.json") == 0
    assert capsys.readouterr().out == f"value {optimum}\n"
    assert run("compare", "--in", path, *SCHEME, "--report", tmp_path / "r.json") == 0
    report = load_json(tmp_path / "r.json")
    assert report["final_value"] == report["oracle_value"] == optimum
    reduced = tmp_path / "reduced.json"
    assert run("reduce", "--in", path, "--out", reduced) == 0
    for mode in ("--exact", "--greedy"):
        assert run("solve-mkcp", "--in", reduced, mode) == 0
        assert json.loads(capsys.readouterr().out)["value"] == optimum


def _assert_refused_unwritable(capsys, code):
    assert code == 2
    captured = capsys.readouterr()
    error = json.loads(captured.err)["error"]
    assert error["type"] == "InputError" and "cannot be written" in error["message"]
    assert captured.out == ""


@pytest.mark.parametrize(
    "command, outputs",
    [("solve", ("--out", "--report")), ("compare", ("--report",)), ("reduce", ("--out",))],
)
def test_values_too_long_to_write_exit_2_and_leave_no_file(tmp_path, capsys, command, outputs):
    # schedule values and the optimum, 2 * profit + 6, have 4,301 digits:
    # one past the int-to-string limit
    path = _micro_with_cam_profit(tmp_path, int("9" * 4300))
    argv = ["--in", path, *(SCHEME if command != "reduce" else ())]
    files = [tmp_path / f"out{k}.json" for k in range(len(outputs))]
    for flags in ((), outputs):
        capsys.readouterr()
        extra = [a for flag, f in zip(flags, files) for a in (flag, f)]
        _assert_refused_unwritable(capsys, run(command, *argv, *extra))
    assert not any(f.exists() for f in files)


def test_report_too_long_to_write_leaves_no_solution_file(tmp_path, capsys):
    # eps = 10**-3000 makes the report's mu_inv 10**6000, its one integer too long
    out, report = tmp_path / "s.json", tmp_path / "r.json"
    argv = ("--in", DOCS / "modular_micro.json", "--eps", f"1/{10**3000}", "--phi", 1)
    capsys.readouterr()
    _assert_refused_unwritable(capsys, run("solve", *argv, "--out", out, "--report", report))
    assert not out.exists() and not report.exists()


def test_oracle_value_too_long_to_write_exits_2(tmp_path, capsys):
    # the optimum, 2 * profit + 6, has 4,301 digits: one past the int-to-string limit
    path = _micro_with_cam_profit(tmp_path, int("9" * 4300))
    assert run("oracle", "--in", path) == 2
    assert json.loads(capsys.readouterr().err)["error"]["type"] == "InputError"
    out = tmp_path / "sol.json"
    assert run("oracle", "--in", path, "--out", out) == 2
    assert not out.exists()


def test_solve_validates_the_instance_once(tmp_path, capsys, monkeypatch):
    # each command checks its instance once: in its stage table, or in reduce_instance
    inst = tmp_path / "inst.json"
    params = GenParams(items=3, horizon=14, dimension=2, target_phi=1)
    write_json(inst, instance_to_dict(gen_random(params, 0)))
    broken = load_json(DOCS / "modular_micro.json")
    del broken["gain_plus"]["cam"]
    broken_path = tmp_path / "broken.json"
    broken_path.write_text(json.dumps(broken))
    calls = []
    real = core.validate_instance
    monkeypatch.setattr(core, "validate_instance", lambda i: calls.append(i) or real(i))
    commands = [
        ("solve", *SCHEME, "--out", tmp_path / "s.json"),
        ("compare", *SCHEME, "--report", tmp_path / "c.json"),
        ("compare", *SCHEME, "--sub-solver", "greedy", "--report", tmp_path / "c.json"),
        ("oracle", "--out", tmp_path / "o.json"),
        ("reduce", "--out", tmp_path / "r.json"),
    ]
    for command, *flags in commands:
        for path, code in ((inst, 0), (broken_path, 2)):
            calls.clear()
            capsys.readouterr()
            assert run(command, "--in", path, *flags) == code, command
            assert len(calls) == 1, command
        assert "invalid instance" in json.loads(capsys.readouterr().err)["error"]["message"]


def _reduce_at_table_boundary(tmp_path):
    """Write an instance with |I| = 1, T = 13: 8192 table entries, past the old horizon cap."""
    inst = tmp_path / "inst.json"
    assert run("gen", "--random", "--seed", 0, "--items", 1, "--horizon", 13, "--out", inst) == 0
    return inst


def test_reduce_horizon_cap_exit_3(tmp_path, capsys, monkeypatch):
    # reduce's limit on the horizon is its --budget on the |I| * 2**T schedule tables
    monkeypatch.delenv("GMK_BUDGET", raising=False)
    inst, out = _reduce_at_table_boundary(tmp_path), tmp_path / "r.json"
    assert run("reduce", "--in", inst, "--budget", 8192, "--out", out) == 0
    capsys.readouterr()
    assert run("reduce", "--in", inst, "--budget", 8191, "--out", tmp_path / "refused.json") == 3
    error = json.loads(capsys.readouterr().err)["error"]
    assert error["type"] == "BudgetExceededError"
    assert "8192 entries (|I| * 2**T) exceed budget 8191" in error["message"]
    assert not (tmp_path / "refused.json").exists()


def test_env_var_horizon_cap(tmp_path, monkeypatch):
    monkeypatch.delenv("GMK_BUDGET", raising=False)
    inst, out = _reduce_at_table_boundary(tmp_path), tmp_path / "r.json"
    # GMK_HORIZON_CAP is no longer read: a cap far below T = 13 refuses nothing
    monkeypatch.setenv("GMK_HORIZON_CAP", "3")
    assert run("reduce", "--in", inst, "--out", out) == 0
    # GMK_BUDGET fills in for an absent flag, and an explicit flag wins over it
    monkeypatch.setenv("GMK_BUDGET", "8191")
    assert run("reduce", "--in", inst, "--out", tmp_path / "r2.json") == 3
    assert run("reduce", "--in", inst, "--budget", 8192, "--out", tmp_path / "r2.json") == 0
    assert (tmp_path / "r2.json").read_bytes() == out.read_bytes()
    monkeypatch.setenv("GMK_BUDGET", "8192")
    assert run("reduce", "--in", inst, "--budget", 8191, "--out", tmp_path / "r3.json") == 3


def test_solve_and_compare_accept_and_ignore_horizon_cap(tmp_path, monkeypatch):
    for name in ("GMK_BUDGET", "GMK_PACK_BUDGET"):
        monkeypatch.delenv(name, raising=False)
    args = ("--in", DOCS / "modular_micro.json", *SCHEME)
    assert run("solve", *args, "--out", tmp_path / "a.json") == 0
    assert run("solve", *args, "--horizon-cap", -1, "--out", tmp_path / "b.json") == 0
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
    assert run("compare", *args, "--horizon-cap", 0, "--report", tmp_path / "c.json") == 0


def test_oracle_budget_exit_3(tmp_path):
    inst = tmp_path / "inst.json"
    assert run("gen", "--random", "--seed", 0, "--items", 3, "--horizon", 3, "--out", inst) == 0
    assert run("oracle", "--in", inst, "--budget", 10, "--out", tmp_path / "s.json") == 3


def test_oracle_budget_boundary_is_the_dp_work(tmp_path, capsys):
    # T * |I| * 2**|I| = 3 * 3 * 8: that budget runs both commands, one less refuses both
    inst, out = tmp_path / "inst.json", tmp_path / "out.json"
    assert run("gen", "--random", "--seed", 0, "--items", 3, "--horizon", 3, "--target-phi", 1,
               "--out", inst) == 0
    oracle = ("oracle", "--in", inst, "--out", out)
    compare = ("compare", "--in", inst, *SCHEME, "--report", out)
    for argv in (oracle, compare):
        assert run(*argv, "--budget", 72) == 0
        capsys.readouterr()
        assert run(*argv, "--budget", 71) == 3
        error = json.loads(capsys.readouterr().err)["error"]
        assert error["message"].startswith("oracle refused: DP work 72 ")


def test_compare_refuses_before_it_solves(tmp_path, monkeypatch):
    inst = tmp_path / "inst.json"
    assert run("gen", "--random", "--seed", 1, "--items", 9, "--horizon", 60, "--d", 2,
               "--bins", 2, "--target-phi", 1, "--out", inst) == 0
    solves = []
    real = cli.solve_general_result

    def counted(*args, **kwargs):
        solves.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "solve_general_result", counted)
    argv = ("compare", "--in", inst, *SCHEME, "--sub-solver", "greedy",
            "--report", tmp_path / "c.json")
    assert run(*argv, "--budget", 60 * 9 * 2**9 - 1) == 3
    assert solves == []


@pytest.mark.parametrize(
    "gen, flags",
    [
        # the exact_bypass benchmark shape: one window, the whole horizon
        (dict(items=3, horizon=10, capacity_range=(3, 7), profit_range=(1, 5),
              gain_range=(0, 2), cost_range=(1, 1), target_phi=1), ()),
        # a cut loop over 2-bin, d = 2 stages, exact and greedy
        (dict(items=3, horizon=40, dimension=2, bins_per_mkc=2, capacity_range=(3, 8),
              target_phi=1), ("--mu-inv", 4)),
        (dict(items=3, horizon=40, dimension=2, bins_per_mkc=2, capacity_range=(3, 8),
              target_phi=1), ("--mu-inv", 4, "--sub-solver", "greedy")),
    ],
    ids=["exact_bypass", "cut_loop", "greedy_cut_loop"],
)
def test_compare_builds_each_stage_row_once_for_scheme_and_oracle(tmp_path, monkeypatch, gen, flags):
    inst = tmp_path / "inst.json"
    write_json(inst, instance_to_dict(gen_random(GenParams(**gen), 3)))
    stages, packed = [], []
    real_row, real_pack = oracle.packable_row, oracle.pack_stage

    def counted_row(row_inst, t):
        stages.append(t)
        return real_row(row_inst, t)

    def counted_pack(stage, members, t):
        packed.append((t, members))
        return real_pack(stage, members, t)

    # every gmk module that holds either function calls the spy
    for module in (cli, core, cutting, mkcp, oracle):
        for name, spy in (("packable_row", counted_row), ("pack_stage", counted_pack)):
            if name in vars(module):
                monkeypatch.setattr(module, name, spy)
    horizon = gen["horizon"]
    assert run("compare", "--in", inst, *SCHEME, *flags, "--report", tmp_path / "c.json") == 0
    # the scheme and the oracle read one stage table: each row is built once,
    # and each (stage, set) pair is packed at most once
    assert sorted(stages) == list(range(1, horizon + 1))
    assert len(packed) == len(set(packed)) >= horizon
    stages.clear()
    packed.clear()
    assert run("oracle", "--in", inst, "--out", tmp_path / "o.json") == 0
    assert sorted(stages) == list(range(1, horizon + 1))
    assert sorted(t for t, _ in packed) == list(range(1, horizon + 1))


def test_oracle_readme_reach_at_the_default_budget(tmp_path, monkeypatch):
    monkeypatch.delenv("GMK_BUDGET", raising=False)
    inst, out = tmp_path / "big.json", tmp_path / "big_opt.json"
    assert run("gen", "--random", "--seed", 1, "--items", 10, "--horizon", 60, "--d", 2,
               "--bins", 2, "--target-phi", 1, "--out", inst) == 0
    assert run("oracle", "--in", inst, "--out", out) == 0
    assert load_json(out)["value"] == 1625


def test_solve_report_invariants(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    assert (
        run(
            "gen", "--random", "--seed", 5, "--items", 3, "--horizon", 3,
            "--profits", "1:5", "--costs", "1:1", "--target-phi", "1", "--out", inst,
        )
        == 0
    )
    sol = tmp_path / "sol.json"
    report = tmp_path / "report.json"
    assert run(
        "solve", "--in", inst, "--eps", "0.2", "--phi", 1,
        "--out", sol, "--report", report,
    ) == 0
    payload = load_json(report)
    assert payload["bypassed"] is True
    assert payload["parameters"]["mu_inv"] == 25

    # emitted files re-parse and the reported value is recomputable
    capsys.readouterr()
    assert run("validate", inst, "--solution", sol) == 0
    shown = json.loads(capsys.readouterr().out)
    assert shown["value"] == payload["final_value"]


def test_greedy_solve_runs_at_the_paper_parameters(tmp_path, capsys):
    # eps 0.2 and phi 1 give mu_inv = 25, so greedy windows reach 50 stages,
    # far past the 15 stages the default budget admits for a reduction of 20 items
    inst, sol, report = tmp_path / "inst.json", tmp_path / "sol.json", tmp_path / "report.json"
    assert run("gen", "--random", "--seed", 3, "--items", 20, "--horizon", 60, "--d", 2,
               "--bins", 2, "--target-phi", 1, "--out", inst) == 0
    assert run("solve", "--in", inst, "--eps", "0.2", "--phi", 1, "--sub-solver", "greedy",
               "--out", sol, "--report", report) == 0
    payload = load_json(report)
    assert payload["parameters"]["mu_inv"] == 25 and not payload["bypassed"]
    capsys.readouterr()
    assert run("validate", inst, "--solution", sol) == 0
    assert json.loads(capsys.readouterr().out)["value"] == payload["final_value"]
    # compare checks the greedy value against the oracle's optimum
    small = tmp_path / "small.json"
    assert run("gen", "--random", "--seed", 3, "--items", 4, "--horizon", 60, "--d", 2,
               "--bins", 2, "--target-phi", 1, "--out", small) == 0
    assert run("compare", "--in", small, "--eps", "0.2", "--phi", 1, "--sub-solver", "greedy",
               "--report", report) == 0
    payload = load_json(report)
    assert not payload["bypassed"]
    assert 0 <= payload["final_value"] <= payload["oracle_value"]


def test_greedy_cut_loop_over_two_bin_stages_validates(tmp_path, capsys):
    inst, sol = tmp_path / "cut40.json", tmp_path / "cut40_greedy.json"
    assert run("gen", "--random", "--seed", 1, "--items", 3, "--horizon", 40, "--d", 2, "--bins", 2,
               "--target-phi", 1, "--out", inst) == 0
    capsys.readouterr()
    assert run("solve", "--in", inst, "--eps", "0.2", "--phi", 1, "--sub-solver", "greedy", "--mu-inv", 4,
               "--out", sol) == 0
    value = int(capsys.readouterr().out.split()[1])
    assert run("validate", inst, "--solution", sol) == 0
    assert json.loads(capsys.readouterr().out)["value"] == value


def test_greedy_cut_loop_values_each_window_as_its_solve_alone(tmp_path, capsys):
    # at the default mu_inv of 25 and |I| = 20, T = 150, each shift chains its
    # windows in one pass per item, and every window's value is what the
    # greedy solve of that window alone gives
    inst, sol, report = tmp_path / "g150.json", tmp_path / "g150_sol.json", tmp_path / "g150_report.json"
    assert run("gen", "--random", "--seed", 1, "--items", 20, "--horizon", 150, "--d", 2, "--bins", 2,
               "--target-phi", 1, "--out", inst) == 0
    assert run("solve", "--in", inst, "--eps", "0.2", "--phi", 1, "--sub-solver", "greedy",
               "--out", sol, "--report", report) == 0
    assert run("validate", inst, "--solution", sol) == 0
    instance = instance_from_dict(load_json(inst))
    its = load_json(report)["iterations"]
    assert len(its) == 25 and max(len(it["window_values"]) for it in its) > 2, its
    for it in its:
        points = it["cut_points"]
        alone = [cutting.solve_bounded_horizon(StageRows(instance), lo, hi - 1, "greedy")[1]
                 for lo, hi in zip(points, points[1:])]
        assert it["window_values"] == alone, (it, alone)


@pytest.mark.parametrize(
    "shape",
    [("--items", 10, "--horizon", 60, "--bins", 2), ("--items", 8, "--horizon", 10, "--bins", 3)],
    ids=["big_two_bins", "three_bins"],
)
def test_greedy_compare_reads_the_oracle_it_runs(tmp_path, shape):
    # README's big.json, and three bins, where first fit fails on some stage
    # sets and the packer backtracks
    inst, opt, report = tmp_path / "inst.json", tmp_path / "opt.json", tmp_path / "cmp.json"
    assert run("gen", "--random", "--seed", 1, *shape, "--d", 2, "--target-phi", 1, "--out", inst) == 0
    assert run("oracle", "--in", inst, "--out", opt) == 0
    assert run("compare", "--in", inst, "--eps", "0.2", "--phi", 1, "--sub-solver", "greedy",
               "--report", report) == 0
    payload = load_json(report)
    assert payload["oracle_value"] == load_json(opt)["value"]
    assert payload["final_value"] <= payload["oracle_value"] and payload["ratio"] <= 1


def test_solve_cut_loop_report(tmp_path):
    inst = tmp_path / "inst.json"
    assert (
        run(
            "gen", "--random", "--seed", 6, "--items", 2, "--horizon", 8,
            "--profits", "1:4", "--costs", "1:1", "--target-phi", "1", "--out", inst,
        )
        == 0
    )
    report = tmp_path / "report.json"
    assert run(
        "solve", "--in", inst, "--eps", "0.2", "--phi", 1, "--mu-inv", 2,
        "--out", tmp_path / "sol.json", "--report", report,
    ) == 0
    payload = load_json(report)
    assert payload["bypassed"] is False
    assert [it["j"] for it in payload["iterations"]] == [1, 2]
    assert payload["selected_j"] in (1, 2)
    best = max(it["combined_value"] for it in payload["iterations"])
    assert payload["final_value"] == best


def test_compare_ok_and_ratio(tmp_path):
    inst = tmp_path / "inst.json"
    assert (
        run(
            "gen", "--random", "--seed", 7, "--items", 3, "--horizon", 3,
            "--profits", "1:5", "--costs", "1:1", "--target-phi", "1", "--out", inst,
        )
        == 0
    )
    report = tmp_path / "report.json"
    assert run("compare", "--in", inst, "--eps", "0.2", "--phi", 1, "--report", report) == 0
    payload = load_json(report)
    assert payload["final_value"] <= payload["oracle_value"]
    assert payload["ratio"] is None or payload["ratio"] >= 0.8


def test_compare_readme_long_horizon_example(tmp_path):
    inst, report = tmp_path / "long.json", tmp_path / "cmp.json"
    assert run(
        "gen", "--random", "--seed", 7, "--items", 3, "--horizon", 60, "--d", 2, "--bins", 2,
        "--target-phi", 1, "--out", inst,
    ) == 0
    assert run("compare", "--in", inst, "--eps", "0.2", "--phi", 1, "--report", report) == 0
    payload = load_json(report)
    assert payload["bypassed"] is False
    values = [it["combined_value"] for it in payload["iterations"]]
    assert len(values) == 25 and (min(values), max(values)) == (607, 610)
    assert payload["selected_j"] == 2
    assert payload["final_value"] == payload["oracle_value"] == 610


def _value_line(capsys):
    """The value ``solve`` printed, from its one ``value N`` line."""
    words = capsys.readouterr().out.split()
    assert words[0] == "value" and len(words) == 2, words
    return int(words[1])


def test_exact_cut_loop_over_two_bin_stages_validates_and_compares(tmp_path, capsys):
    # an exact cut loop over 2-bin, d = 2 stages; compare runs it again
    inst, sol, report = tmp_path / "cut40.json", tmp_path / "cut40_exact.json", tmp_path / "cut40_cmp.json"
    assert run("gen", "--random", "--seed", 1, "--items", 3, "--horizon", 40, "--d", 2, "--bins", 2,
               "--target-phi", 1, "--out", inst) == 0
    capsys.readouterr()
    assert run("solve", "--in", inst, "--eps", "0.2", "--phi", 1, "--sub-solver", "exact", "--mu-inv", 4,
               "--out", sol) == 0
    value = _value_line(capsys)
    assert run("validate", inst, "--solution", sol) == 0
    assert json.loads(capsys.readouterr().out)["value"] == value
    assert run("compare", "--in", inst, "--eps", "0.2", "--phi", 1, "--mu-inv", 4, "--report", report) == 0
    assert load_json(report)["final_value"] == value


@pytest.mark.parametrize(
    "shape, budget, widths",
    [
        # one whole-horizon exact window keys its cells in 600 bits (list
        # passes); the oracle's plain values fit 32-bit lanes
        (("--items", 12, "--horizon", 50), ("--budget", 3000000), [None, 32]),
        # profits near 10**20 overflow 64-bit lanes: both take the list passes
        (("--items", 4, "--horizon", 6, "--profits", "100000000000000000000:100000000000000000009"), (),
         [None, None]),
    ],
    ids=["paths", "p20"],
)
def test_exact_solve_and_oracle_agree_on_either_engine_path(tmp_path, capsys, lane_widths, shape, budget, widths):
    inst, sol, opt = tmp_path / "inst.json", tmp_path / "sol.json", tmp_path / "opt.json"
    assert run("gen", "--random", "--seed", 1, *shape, "--d", 2, "--bins", 2, "--target-phi", 1, "--out", inst) == 0
    capsys.readouterr()
    assert run("solve", "--in", inst, "--eps", "0.2", "--phi", 1, "--sub-solver", "exact", *budget,
               "--out", sol) == 0
    value = _value_line(capsys)
    assert run("oracle", "--in", inst, *budget, "--out", opt) == 0
    assert load_json(opt)["value"] == value
    assert lane_widths == widths
    if "--profits" in shape:
        assert value > 10**20


def test_exact_bypass_over_four_bins_and_weightless_items_finds_the_optimum(tmp_path):
    # four bins and weightless items: the exact bypass of a T <= 2 * mu_inv
    # horizon finds the oracle's optimum
    inst, report = tmp_path / "bins4.json", tmp_path / "bins4_cmp.json"
    assert run("gen", "--random", "--seed", 1, "--items", 6, "--horizon", 8, "--d", 2, "--bins", 4,
               "--weights", "0:4", "--target-phi", 1, "--out", inst) == 0
    assert run("compare", "--in", inst, "--eps", "0.2", "--phi", 1, "--sub-solver", "exact",
               "--report", report) == 0
    payload = load_json(report)
    assert payload["bypassed"] and payload["final_value"] == payload["oracle_value"], payload


def test_compare_sum_oracle_example(tmp_path):
    report = tmp_path / "cmp.json"
    assert run("validate", DOCS / "submodular_sum.json") == 0
    assert run(
        "compare", "--in", DOCS / "submodular_sum.json", "--eps", "0.2", "--phi", 1, "--report", report
    ) == 0
    payload = load_json(report)
    assert payload["final_value"] == payload["oracle_value"] == 12
    # and the example without sums
    assert run("compare", "--in", DOCS / "submodular_micro.json", "--eps", "0.2", "--phi", 1) == 0


@pytest.mark.parametrize(
    "stage, edit",
    [
        pytest.param(1, lambda profit: profit["covers"].update(ghost=["u1", "u2"]), id="cover"),
        pytest.param(2, lambda profit: profit["values"].update(ghost=7), id="value"),
    ],
)
def test_stage_oracle_of_an_unknown_item_exits_2_at_every_command(tmp_path, capsys, stage, edit):
    raw = load_json(DOCS / "submodular_micro.json")
    edit(raw["stages"][stage - 1]["profit"])
    path = tmp_path / "ghost.json"
    path.write_text(json.dumps(raw))
    for argv in (
        ("validate", path),
        ("reduce", "--in", path, "--out", tmp_path / "reduced.json"),
        ("oracle", "--in", path),
        ("compare", "--in", path, "--eps", "0.2", "--phi", 1),
    ):
        capsys.readouterr()
        assert run(*argv) == 2, argv
        error = json.loads(capsys.readouterr().err)["error"]
        assert f"stage {stage} profit oracle names unknown items ['ghost']" in error["message"], argv
    assert not (tmp_path / "reduced.json").exists()


def test_a_chain_of_sums_as_deep_as_the_decoder_reads_runs_as_the_flat_file(tmp_path, capsys):
    # each stage profit of the sum example wrapped in one-part sums, at the
    # deepest chain every command reads: a sum's parts are held flat, so
    # values and grounds take no recursion per level
    flat = json.loads((DOCS / "submodular_sum.json").read_text())
    path, opt, sol, report = (tmp_path / name for name in ("chain.json", "opt.json", "sol.json", "cmp.json"))
    scheme = ("--eps", "0.2", "--phi", 1)

    def codes(depth):
        # written as text: the encoder recurses once per level, as the decoder does
        stages = [{**stage, "profit": f"profit {t}"} for t, stage in enumerate(flat["stages"])]
        text = json.dumps({**flat, "stages": stages})
        for t, stage in enumerate(flat["stages"]):
            chain = '{"kind": "sum", "parts": [' * depth + json.dumps(stage["profit"]) + "]}" * depth
            text = text.replace(f'"profit {t}"', chain)
        path.write_text(text)
        got = (
            run("oracle", "--in", path, "--out", opt),
            run("solve", "--in", path, *scheme, "--out", sol),
            run("compare", "--in", path, *scheme, "--report", report),
        )
        assert set(got) <= {0, 2}, (depth, got)  # 2: the decoder refused the nesting
        return got

    low, high = 1, 2000  # every command reads a chain of depth low
    while low < high:
        mid = (low + high + 1) // 2
        low, high = (mid, high) if codes(mid) == (0, 0, 0) else (low, mid - 1)
    assert low >= 200
    capsys.readouterr()
    assert codes(low) == (0, 0, 0)
    assert capsys.readouterr().out.split() == ["value", "12"]
    assert load_json(opt)["value"] == 12
    payload = load_json(report)
    assert payload["final_value"] == payload["oracle_value"] == 12
    # written flat, the chain is the example itself
    assert payload["instance_hash"] == instance_hash(instance_from_dict(flat))


# scheme values around the micro example's optimum of 15, with whether
# compare accepts each under the exact and the greedy sub-solver
@pytest.mark.parametrize(
    "value, exact_ok, greedy_ok, message",
    [
        (16, False, False, "scheme value 16 exceeds the oracle optimum 15"),
        (12, True, True, ""),
        (11, False, True, "scheme value 11 below (1 - 1/5) * 15"),
    ],
    ids=["above_opt", "at_guarantee", "below_guarantee"],
)
def test_compare_exit_4_when_the_scheme_value_breaks_its_bounds(
    tmp_path, capsys, monkeypatch, value, exact_ok, greedy_ok, message
):
    real = cli.solve_general_result
    monkeypatch.setattr(
        cli, "solve_general_result", lambda *a, **k: real(*a, **k)._replace(value=value)
    )
    for solver, ok in (("exact", exact_ok), ("greedy", greedy_ok)):
        capsys.readouterr()
        code = run("compare", "--in", DOCS / "modular_micro.json", "--eps", "0.2", "--phi", 1,
                   "--sub-solver", solver, "--report", tmp_path / "cmp.json")
        assert code == (0 if ok else 4), solver
        assert load_json(tmp_path / "cmp.json")["final_value"] == value
        if not ok:
            error = json.loads(capsys.readouterr().err)["error"]
            assert error == {"type": "ContractViolationError", "message": message}


def _contract_error(capsys):
    """The message of the one JSON ``ContractViolationError`` a command printed."""
    error = json.loads(capsys.readouterr().err)["error"]
    assert error["type"] == "ContractViolationError"
    return error["message"]


def test_oracle_dp_value_off_the_objective_exits_4(capsys, monkeypatch):
    real = oracle.max_plus_masks

    def one_over(*args):
        top, masks = real(*args)
        return top + 1, masks

    monkeypatch.setattr(oracle, "max_plus_masks", one_over)
    micro = DOCS / "modular_micro.json"
    for argv in (("oracle", "--in", micro), ("compare", "--in", micro, "--eps", "0.2", "--phi", 1)):
        capsys.readouterr()
        assert run(*argv) == 4, argv
        assert _contract_error(capsys) == "oracle DP value 16 differs from the objective 15"


def test_oracle_and_compare_evaluate_the_oracle_sets_once(tmp_path, monkeypatch):
    # the value the oracle's DP checked against the objective is the one reported
    evaluated = []
    real = core.evaluate_objective
    for module in (cli, oracle):
        monkeypatch.setattr(module, "evaluate_objective", lambda i, s: evaluated.append(s) or real(i, s))
    micro = DOCS / "modular_micro.json"
    assert run("oracle", "--in", micro, "--out", tmp_path / "o.json") == 0
    assert len(evaluated) == 1
    assert run("compare", "--in", micro, "--eps", "0.2", "--phi", 1, "--report", tmp_path / "c.json") == 0
    assert len(evaluated) == 2
    assert load_json(tmp_path / "o.json")["value"] == load_json(tmp_path / "c.json")["oracle_value"] == 15


@pytest.mark.parametrize("mu_inv", [None, 4], ids=["bypass", "cut_loop"])
def test_scheme_answer_that_does_not_pack_exits_4(tmp_path, capsys, monkeypatch, mu_inv):
    # every item outweighs some bin's capacity, so the optimum of the
    # unconstrained stages packs nowhere: only the packer of the returned sets sees it
    params = GenParams(items=3, horizon=10, weight_range=(3, 4), capacity_range=(2, 5), target_phi=1)
    path = tmp_path / "inst.json"
    write_json(path, instance_to_dict(gen_random(params, 0)))
    monkeypatch.setattr(oracle, "packable_row", lambda inst, t: Row.of([True] * (1 << len(inst.items))))
    grid = () if mu_inv is None else ("--mu-inv", mu_inv)
    capsys.readouterr()
    assert run("solve", "--in", path, "--eps", "0.2", "--phi", 1, *grid, "--out", tmp_path / "s.json") == 4
    assert "does not pack" in _contract_error(capsys)
    assert not (tmp_path / "s.json").exists()


def test_exact_window_value_off_the_objective_exits_4(capsys, monkeypatch):
    real = cutting.evaluate_window
    monkeypatch.setattr(cutting, "evaluate_window", lambda *a: real(*a) + 1)
    capsys.readouterr()
    assert run("solve", "--in", DOCS / "modular_micro.json", "--eps", "0.2", "--phi", 1) == 4
    assert _contract_error(capsys) == "stage DP value 15 differs from the objective 16"


@pytest.mark.parametrize(
    "argv, message",
    [
        (("solve", "--in", DOCS / "modular_micro.json", "--eps", "abc", "--phi", 1), "epsilon 'abc'"),
        (("compare", "--in", DOCS / "modular_micro.json", "--eps", "1/0", "--phi", 1), "epsilon '1/0'"),
        (("gen", "--random", "--weights", "1-4"), "range '1-4'"),
    ],
    ids=["eps_abc", "eps_1_over_0", "weights_dash"],
)
def test_unparsable_number_exits_2(capsys, argv, message):
    capsys.readouterr()
    assert run(*argv) == 2
    out = capsys.readouterr()
    assert out.out == "" and len(out.err.splitlines()) == 1
    error = json.loads(out.err)["error"]
    assert error["type"] == "InputError" and message in error["message"]


def test_exact_commands_run_past_the_transition_bound(tmp_path, monkeypatch):
    # the DPs' T * |I| * 2**|I| additions fit the default budget where
    # T * 4**|I| transitions did not, the oracle's in compare included
    monkeypatch.delenv("GMK_BUDGET", raising=False)
    inst, report = tmp_path / "inst.json", tmp_path / "cmp.json"
    assert run(
        "gen", "--random", "--seed", 2, "--items", 8, "--horizon", 60, "--d", 2, "--bins", 2,
        "--target-phi", 1, "--out", inst,
    ) == 0
    assert run("compare", "--in", inst, "--eps", "0.2", "--phi", 1, "--report", report) == 0
    payload = load_json(report)
    assert payload["ratio"] == 1.0 and payload["final_value"] == 1413
    assert run(
        "gen", "--random", "--seed", 3, "--items", 10, "--horizon", 4, "--target-phi", 1,
        "--out", inst,
    ) == 0
    assert run(
        "solve", "--in", inst, "--eps", "0.2", "--phi", 1, "--sub-solver", "exact",
        "--out", tmp_path / "sol.json",
    ) == 0


def test_compare_phi_violation_exit_2_names_item(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    assert (
        run(
            "gen", "--random", "--seed", 8, "--items", 2, "--horizon", 2,
            "--profits", "1:1", "--costs", "3:3", "--out", inst,
        )
        == 0
    )
    assert run("compare", "--in", inst, "--eps", "0.2", "--phi", 1) == 2
    err = capsys.readouterr().err
    assert "profit-cost ratio exceeds" in err and "i0" in err


def test_solve_deterministic_bytes(tmp_path):
    inst = tmp_path / "inst.json"
    assert (
        run(
            "gen", "--random", "--seed", 9, "--items", 2, "--horizon", 8,
            "--profits", "1:4", "--costs", "1:1", "--target-phi", "1", "--out", inst,
        )
        == 0
    )
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ("solve", "--in", inst, "--eps", "0.2", "--phi", 1, "--mu-inv", 2)
    assert run(*args, "--out", a) == 0
    assert run(*args, "--out", b) == 0
    assert a.read_bytes() == b.read_bytes()


def test_missing_file_exit_2():
    assert run("validate", "/nonexistent/file.json") == 2


MICRO = DOCS / "modular_micro.json"


# "DIR" reads a directory, "NODIR" writes into a directory that does not exist
@pytest.mark.parametrize(
    "argv",
    [
        ("validate", "DIR"),
        ("validate", MICRO, "--solution", "DIR"),
        ("solve", "--in", "DIR", *SCHEME),
        ("gen", "--from-kp", "DIR"),
        ("solve-mkcp", "--in", "DIR"),
        ("solve", "--in", MICRO, *SCHEME, "--out", "NODIR"),
        ("compare", "--in", MICRO, *SCHEME, "--report", "NODIR"),
        ("reduce", "--in", MICRO, "--out", "NODIR"),
        ("oracle", "--in", MICRO, "--out", "NODIR"),
        ("gen", "--random", "--out", "NODIR"),
    ],
    ids=[
        "validate", "validate_solution", "solve_in", "gen_from_kp", "solve_mkcp_in",
        "solve_out", "compare_report", "reduce_out", "oracle_out", "gen_out",
    ],
)
def test_path_the_system_refuses_exits_2(tmp_path, capsys, argv):
    paths = {"DIR": tmp_path, "NODIR": tmp_path / "nodir" / "x.json"}
    capsys.readouterr()
    assert run(*(paths.get(a, a) for a in argv)) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    error = json.loads(lines[0])["error"]
    path = next(paths[a] for a in argv if a in paths)
    assert error["type"] == "InputError" and str(path) in error["message"]
    assert not (tmp_path / "nodir").exists()


def test_env_var_budget_fallback(tmp_path, monkeypatch):
    inst = tmp_path / "inst.json"
    assert run("gen", "--random", "--seed", 0, "--items", 3, "--horizon", 3, "--out", inst) == 0
    monkeypatch.setenv("GMK_BUDGET", "10")
    assert run("oracle", "--in", inst, "--out", tmp_path / "s.json") == 3
    monkeypatch.setenv("GMK_BUDGET", "not-a-number")
    assert run("oracle", "--in", inst, "--out", tmp_path / "s.json") == 2


@pytest.mark.parametrize("flag", ["budget", "pack-budget"])
@pytest.mark.parametrize("via_env", [False, True], ids=["flag", "env"])
def test_negative_limit_exits_2(tmp_path, capsys, monkeypatch, flag, via_env):
    env = "GMK_" + flag.upper().replace("-", "_")
    for name in ("GMK_BUDGET", "GMK_PACK_BUDGET"):
        monkeypatch.delenv(name, raising=False)
    args = ("solve", "--in", DOCS / "modular_micro.json", *SCHEME, "--out", tmp_path / "s.json")

    def attempt(value):
        if via_env:
            monkeypatch.setenv(env, str(value))
            return run(*args)
        return run(*args, "--" + flag, value)

    capsys.readouterr()
    assert attempt(-1) == 2
    error = json.loads(capsys.readouterr().err)["error"]
    assert error["type"] == "InputError"
    assert (env if via_env else "--" + flag) in error["message"]
    # zero is a limit like any other: it may refuse work, never the input
    attempt(0)
    assert "InputError" not in capsys.readouterr().err


HOSTILE_REDUCED = {
    "variant": "modular", "items": ["x"], "horizon": 100000, "dimension": 100000,
    "elements": [{"id": "x@0"}], "partition": {"x": ["x@0"]}, "constraints": [],
    "values": {"x@0": 0},
}
HOSTILE_INSTANCE = {
    "variant": "modular", "items": ["a"], "horizon": 10**8, "stages": [],
    "gain_plus": {}, "gain_minus": {}, "cost_plus": {}, "cost_minus": {},
}


def _gmk_in_1_gb(tmp_path, payload, *argv):
    """Run ``gmk`` on ``payload``, written to a file, with its address space capped at 1 GB."""
    path = tmp_path / "hostile.json"
    path.write_text(json.dumps(payload))
    argv = [str(path) if a == "FILE" else a for a in argv]

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    return subprocess.run([sys.executable, "-m", "gmk.cli", *argv], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)}, preexec_fn=cap, timeout=60)


@pytest.mark.parametrize("mode", ["--greedy", "--exact"])
def test_hostile_reduced_file_exits_2_in_bounded_memory(tmp_path, mode):
    cases = [
        # horizon * dimension is 10**10 constraint keys, against the none listed
        (HOSTILE_REDUCED, "one per stage and index"),
        # dimension 0 expects no constraint, which would leave the horizon unbounded
        ({**HOSTILE_REDUCED, "horizon": 10**12, "dimension": 0}, "positive dimension"),
    ]
    for payload, message in cases:
        done = _gmk_in_1_gb(tmp_path, payload, "solve-mkcp", "--in", "FILE", mode)
        assert done.returncode == 2, done.stderr
        error = json.loads(done.stderr)["error"]
        assert error["type"] == "InputError" and message in error["message"]


@pytest.mark.parametrize(
    "argv,code",
    [
        (("validate", "FILE"), 2),
        (("solve", "--in", "FILE", "--eps", "0.2", "--phi", "1"), 2),
        (("oracle", "--in", "FILE"), 2),
        (("reduce", "--in", "FILE"), 2),
        # the oracle's budget reads only |I| and T, and refuses first
        (("compare", "--in", "FILE", "--eps", "0.2", "--phi", "1"), 3),
    ],
    ids=lambda v: v[0] if isinstance(v, tuple) else str(v),
)
def test_hostile_instance_file_exits_in_bounded_memory(tmp_path, argv, code):
    # a horizon of 10**8 with no stage: the tables would span 10**8 keys per item
    done = _gmk_in_1_gb(tmp_path, HOSTILE_INSTANCE, *argv)
    assert done.returncode == code, done.stderr
    error = json.loads(done.stderr.splitlines()[-1])["error"]
    if code == 2:
        assert "expected 100000000 stages, got 0" in error["message"]


@pytest.fixture(scope="module")
def counts_past_4300_digits(tmp_path_factory):
    """Files whose budget counts have more than the 4,300 digits Python prints."""
    where = tmp_path_factory.mktemp("counts")
    items, stages = where / "items.json", where / "stages.json"
    # T * |I| * 2**|I| at |I| = 14,300 and |I| * 2**T at T = 14,300
    gen = ("gen", "--random", "--seed", 1, "--target-phi", 1)
    assert run(*gen, "--items", 14300, "--horizon", 1, "--out", items) == 0
    assert run(*gen, "--items", 1, "--horizon", 14300, "--out", stages) == 0
    # a 4,300-digit horizon: DP work 2 * T has 4,301 digits
    horizon = where / "horizon.json"
    horizon.write_text(json.dumps({**HOSTILE_INSTANCE, "horizon": 10**4300 - 1}))
    # subset tables of 2**14,285 entries, 4,301 digits
    reduced = where / "reduced.json"
    t = 14285
    reduced.write_text(json.dumps({
        "variant": "modular", "items": ["x"], "horizon": t, "dimension": 1,
        "elements": [{"id": "x@0"}], "partition": {"x": ["x@0"]}, "values": {"x@0": 0},
        "constraints": [
            {"stage": s, "index": 1, "padding": False, "bins": ["b"], "capacities": {"b": 1},
             "item_weights": {"x": 1}}
            for s in range(1, t + 1)
        ],
    }))
    return {"items": items, "stages": stages, "horizon": horizon, "reduced": reduced}


@pytest.mark.parametrize(
    "argv",
    [
        ("oracle", "--in", "items", "--out", "OUT"),
        ("solve", "--in", "items", *SCHEME, "--out", "OUT"),
        ("compare", "--in", "items", *SCHEME, "--report", "OUT"),
        ("reduce", "--in", "stages", "--out", "OUT"),
        ("compare", "--in", "horizon", *SCHEME, "--report", "OUT"),
        ("solve-mkcp", "--in", "reduced", "--exact", "--out", "OUT"),
    ],
    ids=lambda argv: f"{argv[0]}-{argv[2]}",
)
def test_budget_refusal_of_a_count_too_long_to_print_exits_3(
    tmp_path, capsys, counts_past_4300_digits, argv
):
    paths = {**counts_past_4300_digits, "OUT": tmp_path / "out.json"}
    capsys.readouterr()
    assert run(*[paths.get(a, a) for a in argv]) == 3
    error = json.loads(capsys.readouterr().err)["error"]
    assert error["type"] == "BudgetExceededError"


def test_greedy_solve_packs_no_item_at_a_binless_stage(tmp_path):
    # no bin holds the weightless item a either, so both sub-solvers leave
    # every stage empty
    binless = core.Mkc(weights={"a": 0, "b": 1}, bins=(), capacities={})
    stages = [core.McpStage(mkcs=(binless,), profit={"a": 2, "b": 3})] * 2
    zero_gain, zero_cost = {(i, 2): 0 for i in "ab"}, {(i, t): 0 for i in "ab" for t in (1, 2)}
    inst = core.GmkInstance(("a", "b"), 2, tuple(stages), zero_gain, zero_gain, zero_cost,
                            zero_cost)
    path = tmp_path / "inst.json"
    write_json(path, instance_to_dict(inst))
    solutions = []
    for solver in ("greedy", "exact"):
        out = tmp_path / f"{solver}.json"
        assert run("solve", "--in", path, *SCHEME, "--sub-solver", solver, "--out", out) == 0
        solutions.append(load_json(out))
    assert solutions[0] == solutions[1]
    assert solutions[0]["sets"] == [[], []]


def test_binless_stage_solves_through_every_command(tmp_path, capsys):
    path, reduced = tmp_path / "inst.json", tmp_path / "reduced.json"
    write_json(path, instance_to_dict(binless_first_stage()))
    capsys.readouterr()
    assert run("solve", "--in", path, *SCHEME, "--out", tmp_path / "s.json") == 0
    assert capsys.readouterr().out == "value 5\n"
    assert run("reduce", "--in", path, "--out", reduced) == 0
    for mode in ("--exact", "--greedy"):
        assert run("solve-mkcp", "--in", reduced, mode) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["value"] == 5 and payload["chosen"] == ["a@2", "b@2"]


def test_solve_refuses_submodular_change_costs_as_an_invalid_instance(tmp_path, capsys):
    raw = instance_to_dict(gen_random(GenParams(items=2, horizon=2, variant="submodular"), 0))
    raw["cost_plus"][next(iter(raw["cost_plus"]))]["1"] = 2
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(raw))
    capsys.readouterr()
    assert run("solve", "--in", path, *SCHEME, "--out", tmp_path / "s.json") == 2
    error = json.loads(capsys.readouterr().err)["error"]
    assert error["type"] == "InputError" and "invalid instance" in error["message"]
    assert "must have zero change costs" in error["message"]


def test_cli_imports_no_numpy():
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    code = "import sys, gmk.cli; print('numpy' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True).stdout
    assert out == "False\n"


def test_cli_imports_no_code_generation_machinery():
    # records are named tuples and slotted classes: starting the command line
    # compiles no generated methods and needs no source inspection
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    code = "import sys, gmk.cli; print(sorted({'dataclasses', 'inspect', 'ast', 'dis'} & sys.modules.keys()))"
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True).stdout
    assert out == "[]\n"


def test_greedy_commands_default_to_one_pack_budget(tmp_path, monkeypatch):
    budgets = []

    class Recording(mkcp._PartialPacking):
        def __init__(self, items, stages, node_budget=None):
            budgets.append(node_budget)
            super().__init__(items, stages, node_budget)

    monkeypatch.setattr(mkcp, "_PartialPacking", Recording)
    monkeypatch.setattr(cutting, "_PartialPacking", Recording)
    monkeypatch.delenv("GMK_PACK_BUDGET", raising=False)
    inst, reduced = tmp_path / "inst.json", tmp_path / "reduced.json"
    assert run("gen", "--random", "--seed", 4, "--items", 2, "--horizon", 2, "--out", inst) == 0
    assert run("reduce", "--in", inst, "--out", reduced) == 0
    assert run("solve-mkcp", "--in", reduced, "--greedy", "--out", tmp_path / "r.json") == 0
    assert run("solve", "--in", inst, "--eps", "0.2", "--phi", 9, "--sub-solver", "greedy",
               "--out", tmp_path / "s.json") == 0
    assert budgets == [DEFAULT_PACK_BUDGET, DEFAULT_PACK_BUDGET]
    # the environment and the flag still override the default
    monkeypatch.setenv("GMK_PACK_BUDGET", "3")
    assert run("solve-mkcp", "--in", reduced, "--greedy", "--out", tmp_path / "r.json") == 0
    assert run("solve-mkcp", "--in", reduced, "--greedy", "--pack-budget", 7,
               "--out", tmp_path / "r.json") == 0
    assert budgets[2:] == [3, 7]


def test_report_records_combine_bonus(tmp_path):
    inst = tmp_path / "inst.json"
    assert (
        run(
            "gen", "--random", "--seed", 6, "--items", 2, "--horizon", 8,
            "--profits", "1:4", "--costs", "1:1", "--target-phi", "1", "--out", inst,
        )
        == 0
    )
    report = tmp_path / "report.json"
    assert run(
        "solve", "--in", inst, "--eps", "0.2", "--phi", 1, "--mu-inv", 2,
        "--out", tmp_path / "sol.json", "--report", report,
    ) == 0
    for it in load_json(report)["iterations"]:
        assert it["combine_bonus"] == it["combined_value"] - sum(it["window_values"])
        assert it["combine_bonus"] >= 0


def test_validate_solution_reports_intervals(tmp_path, capsys):
    inst = DOCS / "modular_micro.json"
    sol = tmp_path / "sol.json"
    assert run("oracle", "--in", inst, "--out", sol) == 0
    capsys.readouterr()
    assert run("validate", inst, "--solution", sol) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["intervals"] == [["cam", 1, 2], ["log", 1, 2]]


# sha256 of each seed's `solve --sub-solver exact` solution bytes followed by
# its `compare --mu-inv 2` report without `timings_sec`, recorded while every
# exact window was still solved by branch and bound over the reduction
GOLDEN_SCHEME = {
    "two_bin_d2_t6": (
        GenParams(items=3, horizon=6, dimension=2, bins_per_mkc=2, capacity_range=(3, 8),
                  target_phi=1),
        [
            "88c19870a1557f528f76764cfe1c9a4e56d6b30146e42ad6704a257058874dcc",
            "acae392e3d29fa724b605154deb7542ec02b8b33f97f18b7aba6173a3e7999f8",
            "c5402bf20bb7430fe5564a34e772e6169f33393b44dee790600e92ae75941fec",
            "19e659970fce61ed5b03023e4852176d58ae5b8068f1c02f7036680f591de691",
            "0ebac1de58f03e1a9fa3fdcb246c533e96c540d876ff6b5e096bc06a10bae1b3",
            "a577fa4c1deebaf43317a505c7e80604494699a5a7c5709f5f5969ea431d1050",
        ],
    ),
    "tie_heavy_t5": (
        GenParams(items=4, horizon=5, weight_range=(0, 2), capacity_range=(1, 3),
                  profit_range=(0, 1), gain_range=(0, 1), cost_range=(0, 1), target_phi=1),
        [
            "7d9aab7c7cbe45bf8df7d9e942438734882aafa9e70c0b00660ebb3390188de4",
            "90a18550cb4ddae8c4d24731b42262cdf2ec452890bfa42172d30f24c6d47939",
            "478d0ddeca4edaa635a19677a8bedc264a83388344b71861647eb5a65f340288",
            "bb4c8a84950d5a8ca897b44f1f39fe6a3479e6b860ebd52d4759333d73308d7b",
            "2a17bdaa6ffa5683529f3c64b4e3ea887b50ea4bddbc31c607dd7e8aa41ecce2",
            "326a006471e71ae6fdae5290146d80e7b3b06b4f056b28e1ef06ed99e1978d94",
        ],
    ),
    "submodular_d2_t5": (
        GenParams(items=3, horizon=5, dimension=2, bins_per_mkc=2, variant="submodular"),
        [
            "1de1b363f0b35c92248695a6b05f7a5225743b01fc2e9ecec5168fb0bdfc1901",
            "1296647b8dc7af76446d43905b65cd6b019c8fa6c03fc4d23c2a2c6d1df19ef5",
            "8d779f1e1c5f3b5cc10cbe0d25f4a782fa7de9319070654f2cf5746bd7681d01",
            "d80f65c005e546a116d133a7797c86f5bd0d7f7b4b0cc01c1f10e24c41f03783",
            "4c9a964682c604a84de00c9f2e75b4d05b6c13a17562a50bf137c2d45af81ad0",
            "d75a9c855ad2e8e64131634511066fed684f882a1ded8fa3a10d38cbfb5a3d1a",
        ],
    ),
}


# sha256 of each seed's `solve --sub-solver greedy --mu-inv 2` solution bytes
# followed by its `compare --sub-solver greedy --mu-inv 2` report without
# `timings_sec`: every shift cuts T into two or more windows, so these pin the
# greedy's multi-window shifts, recorded before the engine took held rows only
GOLDEN_GREEDY = {
    "two_bin_d2_t8": (
        GenParams(items=4, horizon=8, dimension=2, bins_per_mkc=2, capacity_range=(3, 8),
                  target_phi=1),
        [
            "656f0f3ce30207087ca9af05515e31d892184a6439bd2c4f9bc765c308fca5a1",
            "e200ba4e3c135908e1529373b5861b029e765e7acc4118c4d88aedb41ce7369a",
            "25585dbb46e6b5e8ebd73a0e7fedad028c5ee52d354dbff50f267577dd7966b3",
            "ef3b0d182598cf029729b1c4dcc1baa2c71a2d85de7b05b2151fdb1f6e2f1b58",
            "dbc4618b5e513f6900bc7eb94d948635961e2b7c07ff90669c73192813a711e6",
            "5f501b0baacf44744362c0dfbedfe31579e1a2a50d7ceed3e0be006291ca3505",
        ],
    ),
    "tie_heavy_t7": (
        GenParams(items=4, horizon=7, weight_range=(0, 2), capacity_range=(1, 3),
                  profit_range=(0, 1), gain_range=(0, 1), cost_range=(0, 1), target_phi=1),
        [
            "a3f2842f4ab3f20ad18a33e3a6a2312498f18669212c4876b26dfdc413e3a98f",
            "a877216068471e39e7a8614ef0e495b72b12edcbd6be14ddccdfc451fa02a947",
            "fb4c1976b3ffad43437704401ca239b7cf99045553ac95f052dd28b36b9fa465",
            "72d266ac93489fb4125befcaa15eff8294723b445223e1c745129180dced774c",
            "e7618a0f88ac3e0222cd7b0643d7fab14be43cf1d8e2fd80e37f91cae5099e13",
            "edf5cc6a058b89a5d2bcd596585d436c67efc810c4d9e56b866beb7599285c6b",
        ],
    ),
    "submodular_d2_t7": (
        GenParams(items=3, horizon=7, dimension=2, bins_per_mkc=2, variant="submodular"),
        [
            "f7482461cc974c228b9eaf2a6657f6d39e8f6f01b2832d7f9e14a15bfd291f5f",
            "2d6d32438cea379921005b5b8773c7794e86a9adc20bfaf6096ae01709039191",
            "45f1ce5ac7e6b17c628921f2493fc8500f01dcf236262ff4e72cab396f12f3ea",
            "9a6ba2d6ecc908a4011a99ae57f8ae51930725d07910ec06e0818aa9a0f10cb2",
            "028976919f153c6fd9c8b1dae397bac6559a24306926ff468b504333c0400ca6",
            "0e2b6b430900a22ead32a3321bc855e0b503b51f8f47c80783804c1f806a44b4",
        ],
    ),
    "three_bin_d2_t8": (
        GenParams(items=5, horizon=8, dimension=2, bins_per_mkc=3, capacity_range=(1, 5),
                  target_phi=1),
        [
            "32aa6de48da8639a672f781de26bb76f865fd716b71cfa0b5339efa53a801fb4",
            "20ac068d8efc703b72165af62ba584a6e6e238aad9af8c30dc94d9231b032661",
            "e61ea1929fd0e6e74e237ddd95b48f37328aa597fa2e6ccad2b36754f7e6c259",
            "9d7011fd03920298669347b9a7a14835995fdbd3d2316442f56bfe57d4adf1a0",
            "426481ddcc922760a59e3604c65dffb2a0e64f1dcbf362225461fbed59db245b",
            "59a4796203858773288f1f45905635cb19f9803f14225f0b28186d722d68fd10",
        ],
    ),
}


def _scheme_digests(tmp_path, params, solve_flags, compare_flags):
    """Per seed 0..5: sha256 of the solution bytes and the compare report without timings."""
    inst, sol, report = tmp_path / "inst.json", tmp_path / "sol.json", tmp_path / "report.json"
    common = ("--in", inst, "--eps", "0.2", "--phi", 1, "--budget", 10**15)
    got = []
    for seed in range(6):
        write_json(inst, instance_to_dict(gen_random(params, seed)))
        assert run("solve", *common, *solve_flags, "--out", sol) == 0
        assert run("compare", *common, *compare_flags, "--report", report) == 0
        payload = load_json(report)
        del payload["timings_sec"]
        got.append(hashlib.sha256(sol.read_bytes() + canonical_dumps(payload).encode()).hexdigest())
    return got


@pytest.mark.parametrize("shape", sorted(GOLDEN_SCHEME))
def test_exact_scheme_golden_digests(tmp_path, shape):
    params, digests = GOLDEN_SCHEME[shape]
    assert _scheme_digests(tmp_path, params, ("--sub-solver", "exact"), ("--mu-inv", 2)) == digests


@pytest.mark.parametrize("shape", sorted(GOLDEN_GREEDY))
def test_greedy_scheme_golden_digests(tmp_path, shape):
    params, digests = GOLDEN_GREEDY[shape]
    flags = ("--sub-solver", "greedy", "--mu-inv", 2)
    assert _scheme_digests(tmp_path, params, flags, flags) == digests


@pytest.mark.parametrize(
    "argv",
    [
        ("validate", "DEEP"),
        ("solve", "--in", "DEEP", *SCHEME),
        ("gen", "--from-kp", "DEEP"),
        ("solve-mkcp", "--in", "DEEP"),
    ],
    ids=["validate", "solve", "gen_from_kp", "solve_mkcp"],
)
def test_deeply_nested_json_exits_2(tmp_path, capsys, argv):
    # the decoder recurses once per bracket, far past the interpreter's limit
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200_000)
    capsys.readouterr()
    assert run(*(deep if a == "DEEP" else a for a in argv)) == 2
    error = json.loads(capsys.readouterr().err)["error"]
    assert error["type"] == "InputError" and "nests too deeply" in error["message"]


# Every name is one letter, so each string below reads, split into its
# characters, as the list it replaces, and an object as the list of its keys.
STRING_FOR_LIST = {
    "knapsack_items": ("kp", lambda f: f.update(items="xyz")),
    "instance_items": ("inst", lambda f: f.update(items="ab")),
    "instance_items_object": ("inst", lambda f: f.update(items={"a": 1, "b": 2})),
    "instance_bins": ("inst", lambda f: f["stages"][1]["mkcs"][0].update(bins="x")),
    "coverage_cover": ("sub", lambda f: f["stages"][0]["profit"]["covers"].update(b="uv")),
    "reduced_items": ("reduced", lambda f: f.update(items="ab")),
    "reduced_bins": ("reduced", lambda f: f["constraints"][-1].update(bins="x")),
    "solution_sets": ("sol", lambda f: f["sets"].__setitem__(1, "ab")),
    "solution_bin": ("sol", lambda f: f["assignments"][1][0].update(x="ab")),
}


@pytest.mark.parametrize("case", sorted(STRING_FOR_LIST))
def test_string_where_a_list_of_names_is_due_exits_2(tmp_path, capsys, case):
    paths = {key: tmp_path / f"{key}.json" for key in ("kp", "inst", "sub", "reduced", "sol")}
    write_json(paths["inst"], instance_to_dict(binless_first_stage()))
    assert run("solve", "--in", paths["inst"], *SCHEME, "--out", paths["sol"]) == 0
    assert run("reduce", "--in", paths["inst"], "--out", paths["reduced"]) == 0
    write_json(paths["kp"], load_json(DOCS / "kp_2d.json"))
    sub = load_json(DOCS / "submodular_micro.json")
    profit = sub["stages"][0]["profit"]
    profit.update(universe={"u": 3, "v": 2}, covers={"a": ["u"], "b": ["u", "v"]})
    write_json(paths["sub"], sub)
    argv = {
        "kp": ("gen", "--from-kp", paths["kp"]),
        "inst": ("validate", paths["inst"]),
        "sub": ("validate", paths["sub"]),
        "reduced": ("solve-mkcp", "--in", paths["reduced"]),
        "sol": ("validate", paths["inst"], "--solution", paths["sol"]),
    }
    target, corrupt = STRING_FOR_LIST[case]
    assert run(*argv[target]) == 0
    raw = load_json(paths[target])
    corrupt(raw)
    write_json(paths[target], raw)
    capsys.readouterr()
    assert run(*argv[target]) == 2
    assert json.loads(capsys.readouterr().err)["error"]["type"] == "InputError"


SUBCOMMANDS = ("validate", "gen", "reduce", "solve-mkcp", "oracle", "solve", "compare")
# every help text, then two usage errors: a missing required flag and an unknown command
SURFACE_ARGVS = [
    ["--help"], *([name, "--help"] for name in SUBCOMMANDS), ["solve", "--in", "x"], ["nosuch"]
]


def _surface(parse, capsys):
    outcomes = []
    for argv in SURFACE_ARGVS:
        with pytest.raises(SystemExit) as exc:
            parse(argv)
        out = capsys.readouterr()
        outcomes.append((exc.value.code, out.out, out.err))
    return outcomes


def test_shared_parser_prints_what_a_fresh_parser_prints(capsys):
    fresh = _surface(lambda argv: cli.build_parser().parse_args(argv), capsys)
    assert [code for code, _, _ in fresh] == [0] * (1 + len(SUBCOMMANDS)) + [2, 2]
    assert all(name in fresh[0][1] for name in SUBCOMMANDS)
    assert "required: --eps, --phi" in fresh[-2][2] and "nosuch" in fresh[-1][2]
    cli._shared_parser.cache_clear()
    assert run("validate", MICRO) == 0  # builds the shared parser; nothing exits yet
    capsys.readouterr()
    # the first argv runs before any exit of the shared parser, the rest after one
    assert _surface(main, capsys) == fresh
    assert _surface(main, capsys) == fresh


def test_main_builds_its_parser_once_per_process(tmp_path, capsys, monkeypatch):
    builds = []
    build = cli.build_parser

    def counting_build():
        builds.append(1)
        return build()

    monkeypatch.setattr(cli, "build_parser", counting_build)
    cli._shared_parser.cache_clear()
    assert run("solve", "--in", MICRO, *SCHEME, "--out", tmp_path / "s.json") == 0
    assert run("compare", "--in", MICRO, *SCHEME, "--report", tmp_path / "c.json") == 0
    assert run("validate", tmp_path / "missing.json") == 2  # a GmkError
    for argv, code in ((["solve", "--in", str(MICRO)], 2), (["--help"], 0)):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == code
    assert run("oracle", "--in", MICRO, "--out", tmp_path / "o.json") == 0
    assert builds == [1]


def test_importing_the_cli_builds_no_parser():
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    code = (
        "import argparse\n"
        "built = []\n"
        "init = argparse.ArgumentParser.__init__\n"
        "def counting_init(self, *args, **kwargs):\n"
        "    built.append(1)\n"
        "    init(self, *args, **kwargs)\n"
        "argparse.ArgumentParser.__init__ = counting_init\n"
        "import gmk.cli\n"
        "print(len(built))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True).stdout
    assert out == "0\n"


def test_budget_from_the_environment_is_read_on_every_call(tmp_path, monkeypatch):
    inst = tmp_path / "inst.json"
    assert run("gen", "--random", "--seed", 0, "--items", 3, "--horizon", 3, "--target-phi", 1,
               "--out", inst) == 0
    commands = (
        ("oracle", "--in", inst, "--out", tmp_path / "o.json"),
        ("solve", "--in", inst, *SCHEME, "--out", tmp_path / "s.json"),
    )
    outcomes = []
    for budget in (None, "10", "100000000", "-1", "ten", "10", None):
        if budget is None:
            monkeypatch.delenv("GMK_BUDGET", raising=False)
        else:
            monkeypatch.setenv("GMK_BUDGET", budget)
        outcomes.append([run(*argv) for argv in commands])
    assert outcomes == [[0, 0], [3, 3], [0, 0], [2, 2], [2, 2], [3, 3], [0, 0]]


def _readme_walkthrough():
    """The commands of README's command-line walkthrough, without the leading ``gmk``."""
    readme = (DOCS.parent.parent / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    commands = [shlex.split(line, comments=True) for line in block.replace("\\\n", "").splitlines()]
    assert all(argv[0] == "gmk" for argv in commands)
    return [argv[1:] for argv in commands]


def test_readme_python_blocks_run_in_a_fresh_interpreter(tmp_path):
    # each block of README's library section, as a reader would paste it
    root = DOCS.parent.parent
    blocks = [part.split("```", 1)[0] for part in (root / "README.md").read_text().split("```python\n")[1:]]
    assert len(blocks) == 2
    for block in blocks:
        done = subprocess.run([sys.executable, "-c", block], cwd=tmp_path, capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": str(root / "src")}, timeout=60)
        assert done.returncode == 0, done.stderr


def _walkthrough_files(directory):
    files = {}
    for path in sorted(directory.glob("*.json")):
        payload = load_json(path)
        payload.pop("timings_sec", None)
        files[path.name] = canonical_dumps(payload)
    return files


def test_readme_walkthrough_repeats_in_one_process_and_matches_a_fresh_one(
    tmp_path, capsys, monkeypatch
):
    walkthrough = _readme_walkthrough()
    assert len(walkthrough) == 15
    for name in ("GMK_BUDGET", "GMK_PACK_BUDGET"):
        monkeypatch.delenv(name, raising=False)

    src = DOCS.parent.parent / "src"

    def in_process(argv):
        code = main(argv)
        out = capsys.readouterr()
        return code, out.out, out.err

    def fresh_process(argv):
        done = subprocess.run([sys.executable, "-m", "gmk.cli", *argv], capture_output=True,
                              text=True, env={**os.environ, "PYTHONPATH": str(src)})
        return done.returncode, done.stdout, done.stderr

    runs = []
    for name, call in (("first", in_process), ("second", in_process), ("fresh", fresh_process)):
        directory = tmp_path / name
        shutil.copytree(DOCS, directory / "docs" / "examples")
        monkeypatch.chdir(directory)
        capsys.readouterr()
        outcomes = [call(argv) for argv in walkthrough]
        runs.append((outcomes, _walkthrough_files(directory)))
    first = runs[0]
    assert all(code == 0 for code, _, _ in first[0])
    assert "report.json" in first[1] and "cmp3.json" in first[1]
    assert runs[1] == first and runs[2] == first
