"""End-to-end command-line runs, exit codes, report invariants."""

from __future__ import annotations

import json
import pathlib

import pytest

from gmk import mkcp
from gmk.cli import main
from gmk.mkcp import DEFAULT_PACK_BUDGET
from gmk.serialize import load_json

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


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda inst, sol: inst.update(items=5),
        lambda inst, sol: inst["stages"].__setitem__(0, 3),
        lambda inst, sol: inst["stages"][0].update(mkcs=3),
        lambda inst, sol: inst["stages"][0]["mkcs"][0]["capacities"].update(srv1=float("inf")),
        lambda inst, sol: sol.update(sets=5),
    ],
    ids=["items_number", "stage_number", "mkcs_number", "capacity_1e400", "solution_sets_number"],
)
def test_validate_malformed_file_exits_2(tmp_path, capsys, corrupt):
    inst_path, sol_path = tmp_path / "inst.json", tmp_path / "sol.json"
    assert run("oracle", "--in", DOCS / "modular_micro.json", "--out", sol_path) == 0
    inst, sol = load_json(DOCS / "modular_micro.json"), load_json(sol_path)
    corrupt(inst, sol)
    # json.dumps writes an infinite capacity as Infinity; the file should say 1e400
    inst_path.write_text(json.dumps(inst).replace("Infinity", "1e400"))
    sol_path.write_text(json.dumps(sol))
    capsys.readouterr()
    assert run("validate", inst_path, "--solution", sol_path) == 2
    assert json.loads(capsys.readouterr().err)["error"]["type"] == "InputError"


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


@pytest.mark.parametrize(
    "corrupt",
    [
        _negative_capacity,
        _mask_beyond_horizon,
        lambda raw: raw["constraints"][0].pop("stage"),
        _element_without_value,
        lambda raw: raw.update(variant="bogus"),
        lambda raw: raw.pop("values"),
        lambda raw: raw["values"].update({raw["partition"]["cam"][-1]: 2**62}),
    ],
    ids=[
        "negative_capacity",
        "mask_beyond_horizon",
        "constraint_without_stage",
        "element_without_value",
        "unknown_variant",
        "modular_without_values",
        "value_at_2_62",
    ],
)
@pytest.mark.parametrize("mode", ["--exact", "--greedy"])
def test_solve_mkcp_bad_reduced_file_exits_2(tmp_path, capsys, corrupt, mode):
    reduced = tmp_path / "reduced.json"
    assert run("reduce", "--in", DOCS / "modular_micro.json", "--out", reduced) == 0
    raw = load_json(reduced)
    corrupt(raw)
    reduced.write_text(json.dumps(raw))
    capsys.readouterr()
    assert run("solve-mkcp", "--in", reduced, mode, "--out", tmp_path / "rsol.json") == 2
    assert json.loads(capsys.readouterr().err)["error"]["type"] == "InputError"


SCHEME = ("--eps", "0.2", "--phi", 10**30)


def _micro_with_cam_profit(tmp_path, profit):
    raw = load_json(DOCS / "modular_micro.json")
    for stage in raw["stages"]:
        stage["profit"]["cam"] = profit
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(raw))
    return path


@pytest.mark.parametrize("profit", [2**62, 2**63, 10**400], ids=["2_62", "2_63", "10_400"])
def test_values_beyond_int64_exit_2_and_oracle_still_answers(tmp_path, capsys, profit):
    path = _micro_with_cam_profit(tmp_path, profit)
    for command in ("solve", "compare"):
        capsys.readouterr()
        assert run(command, "--in", path, *SCHEME) == 2
        assert json.loads(capsys.readouterr().err)["error"]["type"] == "InputError"
    capsys.readouterr()
    assert run("oracle", "--in", path) == 0
    # the micro optimum packs both items at both stages: 15 - (5 + 4) + 2 * profit
    assert json.loads(capsys.readouterr().out)["value"] == 2 * profit + 6


def test_oracle_value_too_long_to_write_exits_2(tmp_path, capsys):
    # the optimum, 2 * profit + 6, has 4,301 digits: one past the int-to-string limit
    path = _micro_with_cam_profit(tmp_path, int("9" * 4300))
    assert run("oracle", "--in", path) == 2
    assert json.loads(capsys.readouterr().err)["error"]["type"] == "InputError"
    out = tmp_path / "sol.json"
    assert run("oracle", "--in", path, "--out", out) == 2
    assert not out.exists()


def test_values_just_below_the_limit_solve_exactly(tmp_path, capsys):
    # cam's profits and gains sum to 2**62 - 2, just inside the limit
    path = _micro_with_cam_profit(tmp_path, 2**61 - 2)
    assert run("compare", "--in", path, *SCHEME, "--report", tmp_path / "r.json") == 0
    report = load_json(tmp_path / "r.json")
    assert report["final_value"] == report["oracle_value"] == 2 * (2**61 - 2) + 6


def test_reduce_horizon_cap_exit_3(tmp_path):
    inst = tmp_path / "inst.json"
    assert run("gen", "--random", "--seed", 0, "--items", 1, "--horizon", 5, "--out", inst) == 0
    assert run("reduce", "--in", inst, "--horizon-cap", 3, "--out", tmp_path / "r.json") == 3


def test_oracle_budget_exit_3(tmp_path):
    inst = tmp_path / "inst.json"
    assert run("gen", "--random", "--seed", 0, "--items", 3, "--horizon", 3, "--out", inst) == 0
    assert run("oracle", "--in", inst, "--budget", 10, "--out", tmp_path / "s.json") == 3


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


def test_env_var_budget_fallback(tmp_path, monkeypatch):
    inst = tmp_path / "inst.json"
    assert run("gen", "--random", "--seed", 0, "--items", 3, "--horizon", 3, "--out", inst) == 0
    monkeypatch.setenv("GMK_BUDGET", "10")
    assert run("oracle", "--in", inst, "--out", tmp_path / "s.json") == 3
    monkeypatch.setenv("GMK_BUDGET", "not-a-number")
    assert run("oracle", "--in", inst, "--out", tmp_path / "s.json") == 2


def test_env_var_horizon_cap(tmp_path, monkeypatch):
    inst = tmp_path / "inst.json"
    assert run("gen", "--random", "--seed", 0, "--items", 1, "--horizon", 5, "--out", inst) == 0
    monkeypatch.setenv("GMK_HORIZON_CAP", "3")
    assert run("reduce", "--in", inst, "--out", tmp_path / "r.json") == 3
    # an explicit flag wins over the environment
    assert run("reduce", "--in", inst, "--horizon-cap", 5, "--out", tmp_path / "r.json") == 0


def test_greedy_commands_default_to_one_pack_budget(tmp_path, monkeypatch):
    budgets = []

    class Recording(mkcp._PartialPacking):
        def __init__(self, reduced, node_budget=None):
            budgets.append(node_budget)
            super().__init__(reduced, node_budget)

    monkeypatch.setattr(mkcp, "_PartialPacking", Recording)
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
