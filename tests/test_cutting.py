"""Cut grids, windowed solving, recombination and the full scheme."""

from __future__ import annotations

import dataclasses
import random
from fractions import Fraction

import pytest

import gmk
from gmk import core, cutting, mkcp, oracle, reduction
from gmk.core import (
    Mkc,
    McpStage,
    MultistageSolution,
    check_feasible,
    evaluate_objective,
    evaluate_window,
    window_instance,
)
from gmk.cutting import (
    CutPointSet,
    SchemeParams,
    combine_cut_solutions,
    cut_points,
    solve_bounded_horizon,
    solve_general_result,
    solve_shift,
)
from gmk.errors import BudgetExceededError, ContractViolationError, InputError
from gmk.generators import GenParams, gen_random
from gmk.mkcp import finish_selection, solve_mkcp_exact, solve_mkcp_greedy
from gmk.oracle import StageRows, brute_force_gmk, checked_solution
from gmk.reduction import ReducedElement, lift_solution, reduce_instance
from gmk.serialize import canonical_dumps, solution_to_dict

from util import (
    build_instance,
    dense_table,
    full_table_oracle,
    random_feasible_solution,
    single_bin_stage,
    sweep_instances,
    two_stage_single_item,
)


def test_cut_point_set_validation():
    with pytest.raises(InputError):
        CutPointSet((2, 5))
    with pytest.raises(InputError):
        CutPointSet((1, 5, 5))
    cuts = CutPointSet((1, 3, 6, 9, 13))
    assert cuts.horizon == 12
    assert cuts.interior() == (3, 6, 9)
    assert cuts.windows() == ((1, 2), (3, 5), (6, 8), (9, 12))


def test_cut_points_formula_examples():
    assert cut_points(12, 3, 1).points == (1, 3, 6, 9, 13)
    assert cut_points(12, 3, 3).points == (1, 5, 8, 13)


def test_cut_points_shift_range_checked():
    with pytest.raises(InputError):
        cut_points(12, 3, 0)
    with pytest.raises(InputError):
        cut_points(12, 3, 4)


def test_cut_points_interior_disjoint_across_shifts():
    for horizon in range(1, 40):
        for mu_inv in range(1, 8):
            grids = [set(cut_points(horizon, mu_inv, j).interior()) for j in range(1, mu_inv + 1)]
            for a in range(len(grids)):
                for b in range(a + 1, len(grids)):
                    assert not (grids[a] & grids[b])


def test_scheme_params_derivation_and_validation():
    params = SchemeParams(Fraction(1, 5), 1)
    assert params.mu_inv == 25
    params = SchemeParams(Fraction("0.1"), 2)
    assert params.mu_inv == 200
    with pytest.raises(InputError):
        SchemeParams(Fraction(1, 4), 1)
    with pytest.raises(InputError):
        SchemeParams(Fraction(1, 5), 0)
    with pytest.raises(InputError):
        SchemeParams(Fraction(1, 5), True)
    with pytest.raises(InputError):
        SchemeParams(Fraction(1, 5), 1, mu_inv=True)
    override = SchemeParams(Fraction(1, 5), 1, mu_inv=3)
    assert override.mu_inv == 3


def _local(inst, window):
    """The window (lo, hi) of ``inst`` as a standalone instance; None is the whole horizon."""
    return inst if window is None else window_instance(inst, *window)


def _solve(inst, solver="exact", window=None, **budgets):
    """``solve_bounded_horizon`` on a window of ``inst`` (default all of it), packed and checked on the window."""
    lo, hi = window or (1, inst.horizon)
    local = _local(inst, window)
    rows = StageRows(inst)
    sets, value = solve_bounded_horizon(rows, lo, hi, solver, **budgets)
    assert value == evaluate_objective(local, sets)
    return checked_solution(local, sets, [rows.assignments(t, s) for t, s in enumerate(sets, start=lo)])


def _all_windows(inst, mu_inv):
    """The whole horizon (None), then the windows of every shifted cut grid."""
    grids = [cut_points(inst.horizon, mu_inv, j) for j in range(1, mu_inv + 1)]
    return [None] + [window for cuts in grids for window in cuts.windows()]


def test_cut_windows_cover_the_horizon():
    inst = gen_random(GenParams(items=2, horizon=12), 0)
    assert CutPointSet((1, 13)).windows() == ((1, 12),)
    windows = CutPointSet((1, 3, 6, 9, 13)).windows()
    assert windows == ((1, 2), (3, 5), (6, 8), (9, 12))
    covered = sorted(t for lo, hi in windows for t in range(lo, hi + 1))
    assert covered == list(range(1, 13))
    # the windows of cut points that end short of T + 1 combine into no solution
    rows = StageRows(inst)
    parts = [solve_bounded_horizon(rows, lo, hi) for lo, hi in CutPointSet((1, 3, 10)).windows()]
    with pytest.raises(InputError, match="sum to 9"):
        combine_cut_solutions(inst, parts)


def test_combine_single_window_identity():
    inst = gen_random(GenParams(items=3, horizon=4, cost_range=(0, 2)), 1)
    rng = random.Random(0)
    part = random_feasible_solution(rng, inst)
    window_value = evaluate_window(inst, 1, 4, part.sets)
    combined, value = combine_cut_solutions(inst, [(part.sets, window_value)])
    assert combined == part.sets
    assert value == evaluate_objective(inst, combined) == window_value


def test_combine_seam_bonus_exact_accounting():
    items = ["i"]
    stages = [single_bin_stage(items, {"i": 1}, 1, {"i": 3}) for _ in range(4)]
    inst = build_instance(
        items,
        stages,
        gain_plus=dense_table(items, 2, 4, default=2),
        cost_plus=dense_table(items, 1, 4, default=1),
        cost_minus=dense_table(items, 1, 4, default=1),
    )
    full = MultistageSolution.from_raw(
        [{"i"}] * 2, [[{"b": {"i"}}], [{"b": {"i"}}]]
    )
    left = right = full
    left_value = evaluate_window(inst, 1, 2, left.sets)
    right_value = evaluate_window(inst, 3, 4, right.sets)
    combined, value = combine_cut_solutions(inst, [(left.sets, left_value), (right.sets, right_value)])
    # the seam saves c-_{i,2} + c+_{i,3} and earns g+_{i,3}
    assert value == evaluate_objective(inst, combined) == left_value + right_value + 1 + 1 + 2
    assert value >= left_value + right_value + 2


def test_combine_inequality_random():
    rng = random.Random(42)
    for trial in range(500):
        horizon = rng.randint(2, 6)
        inst = gen_random(
            GenParams(items=3, horizon=horizon, dimension=2, cost_range=(0, 3)),
            seed=trial,
        )
        interior = sorted(rng.sample(range(2, horizon + 1), rng.randint(0, min(3, horizon - 1))))
        cuts = CutPointSet(tuple(sorted({1, horizon + 1, *interior})))
        windows = cuts.windows()
        parts = [random_feasible_solution(rng, window_instance(inst, lo, hi)) for lo, hi in windows]
        values = [evaluate_window(inst, lo, hi, part.sets) for (lo, hi), part in zip(windows, parts)]
        combined, value = combine_cut_solutions(inst, [(p.sets, v) for p, v in zip(parts, values)])
        assert value == evaluate_objective(inst, combined) >= sum(values)


def test_combine_rejects_bad_shapes_and_values_below_the_sum():
    inst = gen_random(GenParams(items=2, horizon=4), 0)
    rng = random.Random(1)
    part = random_feasible_solution(rng, window_instance(inst, 1, 2)).sets
    value = evaluate_window(inst, 1, 2, part)
    with pytest.raises(InputError, match="sum to 2"):
        combine_cut_solutions(inst, [(part, value)])
    # a part its window solver got wrong breaks the contract: a value above
    # what the concatenation is worth
    tail = random_feasible_solution(rng, window_instance(inst, 3, 4)).sets
    tail_value = evaluate_window(inst, 3, 4, tail)
    _, total = combine_cut_solutions(inst, [(part, value), (tail, tail_value)])
    with pytest.raises(ContractViolationError, match="below the sum"):
        combine_cut_solutions(inst, [(part, value), (tail, total - value + 1)])


def test_bounded_horizon_spec_example():
    inst = two_stage_single_item()
    sol = _solve(inst)
    assert evaluate_objective(inst, sol.sets) == 10


def test_bounded_horizon_matches_oracle_on_sweep():
    for inst in sweep_instances(fillings=1):
        sol = _solve(inst)
        opt = evaluate_objective(inst, brute_force_gmk(inst).sets)
        # a second reference that shares no DP code with the stage DP
        assert evaluate_objective(inst, full_table_oracle(inst).sets) == opt
        assert evaluate_objective(inst, sol.sets) == opt


def test_bounded_horizon_on_view_equals_window_optimum():
    rng = random.Random(3)
    for seed in range(10):
        inst = gen_random(GenParams(items=3, horizon=5, cost_range=(0, 2)), seed)
        t1 = rng.randint(1, 5)
        t2 = rng.randint(t1, 5)
        sets, value = solve_bounded_horizon(StageRows(inst), t1, t2, "exact")
        local = window_instance(inst, t1, t2)
        opt = evaluate_objective(local, brute_force_gmk(local).sets)
        assert evaluate_window(inst, t1, t2, sets) == value == opt
        assert _solve(inst, window=(t1, t2)).sets == sets


def test_bounded_horizon_unknown_solver():
    with pytest.raises(InputError):
        solve_bounded_horizon(StageRows(two_stage_single_item()), 1, 2, "annealing")


def test_general_bypass_equivalence():
    params = SchemeParams(Fraction(1, 5), 1)  # mu_inv 25, bypass for short horizons
    for seed in range(6):
        inst = gen_random(GenParams(items=3, horizon=3, cost_range=(1, 1), profit_range=(1, 5), target_phi=1), seed)
        _, value = solve_bounded_horizon(StageRows(inst), 1, inst.horizon, "exact")
        result = solve_general_result(inst, params, "exact")
        assert result.bypassed and result.selected_j is None
        assert result.value == value
        assert _solution_bytes(result.solution) == _solution_bytes(_solve(inst))


def test_general_phi_precondition_names_item():
    inst = gen_random(
        GenParams(items=2, horizon=2, profit_range=(1, 1), cost_range=(3, 3)), 0
    )
    with pytest.raises(InputError, match="i01"):
        solve_general_result(inst, SchemeParams(Fraction(1, 5), 1))


def test_general_cutting_loop_with_override():
    params = SchemeParams(Fraction(1, 5), 1, mu_inv=2)
    for seed in range(6):
        inst = gen_random(
            GenParams(items=2, horizon=8, cost_range=(1, 1), profit_range=(1, 4), target_phi=1),
            seed,
        )
        result = solve_general_result(inst, params, "exact")
        assert not result.bypassed
        assert len(result.iterations) == 2
        assert result.selected_j in (1, 2)
        opt = evaluate_objective(inst, brute_force_gmk(inst).sets)
        assert result.value <= opt
        # argmax over shifts, smallest j on ties
        best = max(it.combined_value for it in result.iterations)
        assert result.value == best
        winners = [it.j for it in result.iterations if it.combined_value == best]
        assert result.selected_j == winners[0]
        # windows stay within the bounded horizon whenever a grid has interior points
        for it in result.iterations:
            cuts = CutPointSet(it.cut_points)
            if cuts.interior():
                assert max(hi - lo + 1 for lo, hi in cuts.windows()) <= 2 * params.mu_inv


def test_general_deterministic():
    params = SchemeParams(Fraction(1, 5), 1, mu_inv=2)
    inst = gen_random(
        GenParams(items=2, horizon=8, cost_range=(1, 1), profit_range=(1, 4), target_phi=1), 3
    )
    first = solve_general_result(inst, params, "exact").solution
    second = solve_general_result(inst, params, "exact").solution
    assert canonical_dumps(solution_to_dict(first)) == canonical_dumps(solution_to_dict(second))


def test_general_submodular_path():
    params = SchemeParams(Fraction(1, 5), 1, mu_inv=2)
    for seed in range(4):
        inst = gen_random(GenParams(items=2, horizon=7, variant="submodular"), seed)
        result = solve_general_result(inst, params, "exact")
        assert not result.bypassed
        opt = evaluate_objective(inst, brute_force_gmk(inst).sets)
        assert result.value <= opt
        bypass = solve_general_result(inst, SchemeParams(Fraction(1, 5), 1), "exact")
        assert bypass.value == opt


def test_general_submodular_rejects_nonzero_costs():
    inst = gen_random(GenParams(items=2, horizon=2, variant="submodular"), 0)
    import dataclasses

    broken = dataclasses.replace(inst, cost_plus={("i01", 1): 2, **{k: 0 for k in inst.cost_plus if k != ("i01", 1)}})
    with pytest.raises(InputError):
        solve_general_result(broken, SchemeParams(Fraction(1, 5), 1))


def test_general_greedy_subsolver_feasible():
    params = SchemeParams(Fraction(1, 5), 1, mu_inv=2)
    for seed in range(4):
        inst = gen_random(
            GenParams(items=3, horizon=8, cost_range=(1, 1), profit_range=(1, 4), target_phi=1),
            seed,
        )
        result = solve_general_result(inst, params, "greedy")
        opt = evaluate_objective(inst, brute_force_gmk(inst).sets)
        assert result.value <= opt


# shapes on which the stage DP must pick the exact search's masks
DP_SHAPES = {
    "criterion5_t8": GenParams(
        items=3, horizon=8, weight_range=(1, 4), capacity_range=(3, 7),
        profit_range=(1, 5), gain_range=(0, 2), cost_range=(1, 1), target_phi=1,
    ),
    "two_bin_d2": GenParams(items=3, horizon=6, dimension=2, bins_per_mkc=2),
    "three_bin_d2": GenParams(
        items=4, horizon=5, dimension=2, bins_per_mkc=3, weight_range=(1, 6),
        capacity_range=(2, 8),
    ),
    "tie_heavy": GenParams(
        items=4, horizon=5, weight_range=(0, 2), capacity_range=(1, 3),
        profit_range=(0, 1), gain_range=(0, 1), cost_range=(0, 1),
    ),
    "submodular": GenParams(items=3, horizon=4, variant="submodular"),
    "submodular_two_bin_d2": GenParams(
        items=3, horizon=4, dimension=2, bins_per_mkc=2, gain_range=(0, 1),
        variant="submodular",
    ),
    # many subsets are unpackable, so the DP compares floor-valued predecessors
    "tight_i8": GenParams(
        items=8, horizon=4, weight_range=(1, 4), capacity_range=(2, 5), profit_range=(0, 2),
        gain_range=(0, 1), cost_range=(0, 1),
    ),
}


def stage_dp_masks(inst):
    """Per item, the schedule mask of the whole-horizon stage DP's answer."""
    sets, _ = solve_bounded_horizon(StageRows(inst), 1, inst.horizon, "exact", enum_budget=10**15)
    return tuple(sum((item in s) << t for t, s in enumerate(sets)) for item in inst.items)


def _search_masks(inst):
    rsol = solve_mkcp_exact(reduce_instance(inst), enum_budget=10**15)
    mask = {e.item: e.mask for e in rsol.chosen}
    return tuple(mask[i] for i in inst.items)


@pytest.mark.parametrize("shape", sorted(DP_SHAPES))
def test_stage_dp_masks_equal_exact_search_masks(shape):
    for seed in range(12):
        inst = gen_random(DP_SHAPES[shape], seed)
        window = window_instance(inst, 2, inst.horizon - 1)
        for target in (inst, window):
            assert stage_dp_masks(target) == _search_masks(target), seed


def _all_schedules_negative():
    """Six items whose every non-empty schedule costs more than it earns."""
    params = GenParams(items=6, horizon=3, profit_range=(0, 0), gain_range=(0, 0), cost_range=(1, 1))
    return gen_random(params, 0)


def _counting(calls, name, real):
    def recorded(*args, **kwargs):
        calls.append(name)
        return real(*args, **kwargs)

    return recorded


def _recording(calls, name):
    return _counting(calls, name, getattr(cutting, name))


@pytest.mark.parametrize("solver", ["exact", "greedy"])
def test_a_whole_horizon_window_is_valued_once(monkeypatch, solver):
    # evaluate_objective reads core.evaluate_window, so every valuation counts;
    # at mu_inv = 4, T = 9, shifts 3 and 4 have the one window 1..9, solved once
    calls = []
    for module in (core, cutting):
        real = module.evaluate_window
        monkeypatch.setattr(module, "evaluate_window", _counting(calls, "evaluate_window", real))
    inst = gen_random(GenParams(items=3, horizon=9, target_phi=1), 0)
    result = solve_general_result(inst, SchemeParams(Fraction(1, 5), 1, mu_inv=5), solver)
    assert result.bypassed and len(calls) == 1
    calls.clear()
    result = solve_general_result(inst, SchemeParams(Fraction(1, 5), 1, mu_inv=4), solver)
    windows = [len(it.window_values) for it in result.iterations]
    assert windows == [2, 2, 1, 1]
    assert len(calls) == 2 + 2 + 1 + 2  # each distinct window, then each shift of two windows


@pytest.mark.parametrize("solver, engine_calls", [("exact", 3), ("greedy", 3 * 3)])
def test_identical_shifts_are_solved_once(monkeypatch, solver, engine_calls):
    # at mu_inv = 4, T = 9, shifts 3 and 4 have the one window 1..9: the four
    # shifts take one exact DP per distinct shift, or one greedy pass per item
    # and distinct shift, and report what solving each shift alone gives
    calls = []
    monkeypatch.setattr(cutting, "max_plus_masks", _recording(calls, "max_plus_masks"))
    inst = gen_random(GenParams(items=3, horizon=9, target_phi=1), 0)
    result = solve_general_result(inst, SchemeParams(Fraction(1, 5), 1, mu_inv=4), solver)
    assert len(calls) == engine_calls
    assert [len(it.window_values) for it in result.iterations] == [2, 2, 1, 1]
    for it in result.iterations:
        parts = solve_shift(StageRows(inst), CutPointSet(it.cut_points).windows(), solver)
        assert it.window_values == tuple(v for _, v in parts)
        assert it.combined_value == combine_cut_solutions(inst, parts)[1]


def _shift_case(rng, n, horizon, variant):
    """Seeded n items over ``horizon`` stages, some stages binless, and random consecutive windows."""
    params = GenParams(items=n, horizon=horizon, bins_per_mkc=rng.randint(1, 2), variant=variant,
                       target_phi=1 if variant == "modular" else None)
    inst = gen_random(params, rng.randrange(10**6))
    binless = Mkc(weights={i: 0 for i in inst.items}, bins=(), capacities={})
    stages = [
        dataclasses.replace(stage, mkcs=(binless,)) if rng.random() < 0.15 else stage
        for stage in inst.stages
    ]
    inst = dataclasses.replace(inst, stages=tuple(stages))
    interior = rng.sample(range(2, horizon + 1), rng.randint(0, horizon - 1))
    return inst, CutPointSet((1, *sorted(interior), horizon + 1)).windows()


def _windows_alone(inst, windows):
    """Each window's ``solve_bounded_horizon``, on a stage table of its own."""
    return [solve_bounded_horizon(StageRows(inst), lo, hi, enum_budget=10**15) for lo, hi in windows]


def test_shift_dp_matches_its_windows_solved_alone():
    # one DP over a shift's windows keys each window in a block of its own
    # and links them by the cut's exit and entry costs: every window gets
    # the sets and value of its own DP
    rng = random.Random(30)
    seen = dict.fromkeys(("binless", "submodular", "one_stage", "unequal", "no_item"), 0)
    for case in range(240):
        variant = "submodular" if case % 4 == 3 else "modular"
        inst, windows = _shift_case(rng, case % 6, rng.randint(1, 12), variant)
        got = solve_shift(StageRows(inst), windows, enum_budget=10**15)
        assert got == _windows_alone(inst, windows), case
        lengths = [hi - lo + 1 for lo, hi in windows]
        seen["binless"] += any(not mkc.bins for stage in inst.stages for mkc in stage.mkcs)
        seen["submodular"] += variant == "submodular" and len(windows) > 1
        seen["one_stage"] += 1 in lengths and len(windows) > 1
        seen["unequal"] += len(set(lengths)) > 1
        seen["no_item"] += not inst.items and len(windows) > 1
    assert min(seen.values()) >= 10, seen


@pytest.mark.parametrize(
    "n, horizon, every, profits, shift_width, window_width",
    [(2, 32, 4, (0, 10**4), 64, 32), (5, 20, 10, (0, 5), None, None)],
    ids=["wider_lanes", "lists"],
)
def test_shift_dp_takes_the_lanes_its_span_needs(
    lane_widths, n, horizon, every, profits, shift_width, window_width
):
    # a shift's span sums its windows' cells at its wider scale, so it can
    # need wider lanes than any of its windows, or the list passes
    inst = gen_random(GenParams(items=n, horizon=horizon, profit_range=profits), 0)
    windows = CutPointSet((*range(1, horizon + 1, every), horizon + 1)).windows()
    got = solve_shift(StageRows(inst), windows, enum_budget=10**15)
    assert lane_widths == [shift_width]
    lane_widths.clear()
    assert got == _windows_alone(inst, windows)
    assert lane_widths == [window_width] * len(windows)


def test_shift_dp_value_off_the_sum_of_its_windows_is_refused(monkeypatch):
    # each window's value is its objective, and they must sum to the DP's
    inst = gen_random(GenParams(items=3, horizon=9, target_phi=1), 0)
    windows = ((1, 3), (4, 4), (5, 9))
    value = sum(v for _, v in solve_shift(StageRows(inst), windows))
    real = cutting.evaluate_window
    monkeypatch.setattr(cutting, "evaluate_window", lambda *a: real(*a) + 1)
    with pytest.raises(ContractViolationError) as err:
        solve_shift(StageRows(inst), windows)
    assert str(err.value) == f"stage DP value {value} differs from the objective {value + 3}"


def test_greedy_shift_matches_its_windows_solved_alone():
    # one greedy pass per item chains a shift's windows by the cut's exit and
    # entry costs, with no tie-break key: every window gets the sets and
    # value that the greedy solve of it alone gives, at every packer budget
    rng = random.Random(32)
    seen = dict.fromkeys(("binless", "submodular", "one_stage", "unequal", "no_item"), 0)
    for case in range(240):
        variant = "submodular" if case % 4 == 3 else "modular"
        inst, windows = _shift_case(rng, case % 6, rng.randint(1, 12), variant)
        for budget in (1, 2, None):
            got = solve_shift(StageRows(inst), windows, "greedy", pack_budget=budget)
            alone = [solve_bounded_horizon(StageRows(inst), lo, hi, "greedy", pack_budget=budget)
                     for lo, hi in windows]
            assert got == alone, (case, budget)
        lengths = [hi - lo + 1 for lo, hi in windows]
        seen["binless"] += any(not mkc.bins for stage in inst.stages for mkc in stage.mkcs)
        seen["submodular"] += variant == "submodular" and len(windows) > 1
        seen["one_stage"] += 1 in lengths and len(windows) > 1
        seen["unequal"] += len(set(lengths)) > 1
        seen["no_item"] += not inst.items and len(windows) > 1
    assert min(seen.values()) >= 10, seen


MALFORMED_CHAINS = {
    "reversed": ((3, 2),),
    "gap": ((1, 3), (5, 6)),
    "overlap": ((1, 3), (3, 6)),
    "empty": (),
    "past_the_horizon": ((5, 9),),
    "before_stage_1": ((0, 4),),
}


@pytest.mark.parametrize("solver", ["exact", "greedy"])
@pytest.mark.parametrize("chain", sorted(MALFORMED_CHAINS))
def test_malformed_window_chains_are_refused_before_any_work(monkeypatch, chain, solver):
    # refused as input, before the budget check (budget 0 would refuse any
    # work) and before any DP
    inst = gen_random(GenParams(items=3, horizon=8, target_phi=1), 1)
    windows = MALFORMED_CHAINS[chain]
    monkeypatch.setattr(cutting, "max_plus_masks", None)
    budgets = dict(enum_budget=0, pack_budget=1)
    with pytest.raises(InputError, match="are not consecutive stage ranges"):
        solve_shift(StageRows(inst), windows, solver, **budgets)
    if len(windows) == 1:
        with pytest.raises(InputError, match="are not consecutive stage ranges"):
            gmk.solve_bounded_horizon(StageRows(inst), *windows[0], solver, **budgets)


@pytest.fixture
def exact_routes(monkeypatch):
    """The stage DP calls the exact solves make, in call order."""
    calls = []
    monkeypatch.setattr(cutting, "_stage_dp", _recording(calls, "_stage_dp"))
    return calls


def _optimum(inst):
    return evaluate_objective(inst, brute_force_gmk(inst).sets)


def _dp_work(inst):
    return inst.horizon * len(inst.items) * 2 ** len(inst.items)


def test_exact_route_follows_the_worst_case_rule(exact_routes):
    # the stage DP's work, T * |I| * 2**|I| additions, is the one bound of
    # the exact route: the DP runs at that budget and is refused below it
    inst = _all_schedules_negative()
    work = _dp_work(inst)
    assert work == 3 * 6 * 2**6
    for budget in (None, work):
        exact_routes.clear()
        sol = _solve(inst, enum_budget=budget)
        assert exact_routes == ["_stage_dp"], budget
        assert evaluate_objective(inst, sol.sets) == _optimum(inst)
    exact_routes.clear()
    with pytest.raises(BudgetExceededError, match="stage DP work"):
        _solve(inst, enum_budget=work - 1)
    assert exact_routes == []


def test_exact_route_solves_nine_items_by_the_dp_alone(exact_routes):
    # a full transition table's 4 * 4**9 entries pass the default budget,
    # but the factored DP's 4 * 9 * 2**9 additions fit it
    inst = gen_random(GenParams(items=9, horizon=4), 0)
    sol = _solve(inst)
    assert exact_routes == ["_stage_dp"]
    assert _solution_bytes(sol) == _solution_bytes(_reduce_pack_lift(inst))
    assert stage_dp_masks(inst) == _search_masks(inst)


def test_exact_routes_refuse_by_the_candidate_space(exact_routes):
    # the budget of the reduction and of branch and bound (their |I| * 2**T
    # subset tables, then the search) does not bind the scheme, which builds
    # no reduction
    params = dataclasses.replace(DP_SHAPES["two_bin_d2"], target_phi=1)
    for seed in range(3):
        inst = gen_random(params, seed)
        work = _dp_work(inst)
        reduced = reduce_instance(inst)
        with pytest.raises(BudgetExceededError, match="use solve_mkcp_greedy"):
            solve_mkcp_exact(reduced, enum_budget=work)
        exact_routes.clear()
        sol = _solve(inst, enum_budget=work)
        assert exact_routes == ["_stage_dp"]
        assert evaluate_objective(inst, sol.sets) == _optimum(inst)
        scheme = SchemeParams(Fraction(1, 5), 1, mu_inv=2)
        result = solve_general_result(inst, scheme, "exact", enum_budget=work)
        assert not result.bypassed
        long = gen_random(dataclasses.replace(params, horizon=13), seed)
        with pytest.raises(BudgetExceededError, match=r"reduction refused: .* \(\|I\| \* 2\*\*T\)"):
            reduce_instance(long, enum_budget=work)
        sol = _solve(long, "greedy")
        assert check_feasible(long, sol).ok
        assert 0 <= evaluate_objective(long, sol.sets) <= _optimum(long)


@pytest.mark.parametrize("shape", ["two_bin_d2", "three_bin_d2", "submodular_two_bin_d2"])
def test_exact_scheme_matches_oracle_beyond_one_bin(shape):
    params = DP_SHAPES[shape]
    if params.variant == "modular":
        params = dataclasses.replace(params, target_phi=1)
    bypass = SchemeParams(Fraction(1, 5), 1)
    # the largest grid count whose loop still cuts the horizon
    cutting_loop = SchemeParams(Fraction(1, 5), 1, mu_inv=(params.horizon - 1) // 2)
    budget = dict(enum_budget=10**15)
    for seed in range(8):
        inst = gen_random(params, seed)
        opt = evaluate_objective(inst, brute_force_gmk(inst).sets)
        assert evaluate_objective(inst, _solve(inst, **budget).sets) == opt
        result = solve_general_result(inst, bypass, "exact", **budget)
        assert result.bypassed and result.value == opt
        result = solve_general_result(inst, cutting_loop, "exact", **budget)
        assert not result.bypassed and result.value <= opt
        for it in result.iterations:
            windows = CutPointSet(it.cut_points).windows()
            for (lo, hi), value in zip(windows, it.window_values):
                local = window_instance(inst, lo, hi)
                assert value == evaluate_objective(local, brute_force_gmk(local).sets)


# (eps, |I|, T, d, bins per constraint): every T lies in (2 * mu_inv, 150]
PAPER_PARAMETER_CASES = [
    (Fraction(1, 5), 3, 51, 1, 1), (Fraction(1, 5), 3, 60, 2, 2), (Fraction(1, 5), 4, 75, 2, 2),
    (Fraction(1, 5), 5, 60, 2, 1), (Fraction(1, 5), 4, 150, 1, 1), (Fraction(1, 5), 3, 130, 2, 2),
    (Fraction(3, 20), 3, 91, 2, 2), (Fraction(3, 20), 4, 100, 1, 1),
    (Fraction(3, 20), 5, 95, 2, 2), (Fraction(3, 20), 3, 150, 2, 1),
]


def test_exact_scheme_at_the_paper_parameters_keeps_the_ptas_bound():
    # mu_inv derives from eps and phi (25 at eps 1/5, 45 at 3/20), with no
    # override, so windows run up to 90 stages, far past what the reduction admits
    for seed, (eps, items, horizon, d, bins) in enumerate(PAPER_PARAMETER_CASES):
        params = GenParams(items=items, horizon=horizon, dimension=d, bins_per_mkc=bins,
                           target_phi=1)
        inst = gen_random(params, seed)
        scheme = SchemeParams(eps, 1)
        assert 2 * scheme.mu_inv < horizon <= 150
        result = solve_general_result(inst, scheme, "exact")
        opt = _optimum(inst)
        assert not result.bypassed, seed
        assert result.value >= (1 - eps) * opt, seed
        assert len(result.iterations) == scheme.mu_inv
        assert all(it.combined_value <= opt for it in result.iterations), seed


def _reduce_pack_lift(inst, window=None):
    """The DP's masks on a window of ``inst``, packed, verified and lifted through the reduction."""
    inst = _local(inst, window)
    reduced = reduce_instance(inst)
    chosen = list(map(ReducedElement, inst.items, stage_dp_masks(inst)))
    return lift_solution(inst, finish_selection(reduced, chosen), reduced)


def _solution_bytes(sol):
    return canonical_dumps(solution_to_dict(sol))


def _padded_instance():
    """Stages with one, two and again one constraint: d = 2 pads stages 1 and 3."""
    items = ["a", "b", "c"]
    weights = {"a": 2, "b": 3, "c": 1}
    one = Mkc(weights=weights, bins=("x", "y"), capacities={"x": 3, "y": 2})
    tight = Mkc(weights={"a": 1, "b": 2, "c": 2}, bins=("z",), capacities={"z": 3})
    profit = {"a": 3, "b": 4, "c": 2}
    stages = [
        McpStage(mkcs=(one,), profit=profit),
        McpStage(mkcs=(one, tight), profit=profit),
        McpStage(mkcs=(one,), profit=profit),
    ]
    return build_instance(
        items,
        stages,
        gain_plus=dense_table(items, 2, 3, default=1),
        cost_plus=dense_table(items, 1, 3, default=1),
        cost_minus=dense_table(items, 1, 3, default=1),
    )


@pytest.mark.parametrize("shape", sorted(DP_SHAPES))
def test_dp_route_emits_the_bytes_of_reduce_pack_lift(shape, exact_routes):
    params = DP_SHAPES[shape]
    mu_inv = (params.horizon - 1) // 2
    budget = 10**15
    for seed in range(8):
        inst = gen_random(params, seed)
        for window in _all_windows(inst, mu_inv):
            got = _solve(inst, window=window, enum_budget=budget)
            assert _solution_bytes(got) == _solution_bytes(_reduce_pack_lift(inst, window)), seed
    assert set(exact_routes) == {"_stage_dp"}


def _reduce_greedy_lift(inst, window, budget):
    """Reference for the greedy route on a window of ``inst``: reduce, ``solve_mkcp_greedy``, lift."""
    inst = _local(inst, window)
    reduced = reduce_instance(inst)
    return lift_solution(inst, solve_mkcp_greedy(reduced, pack_budget=budget), reduced)


@pytest.mark.parametrize("shape", sorted(DP_SHAPES))
def test_greedy_route_emits_the_bytes_of_reduce_greedy_lift(shape):
    params = DP_SHAPES[shape]
    mu_inv = (params.horizon - 1) // 2
    for seed in range(6):
        inst = gen_random(params, seed)
        for budget in (1, 2, 5, None):
            for window in _all_windows(inst, mu_inv):
                got = _solve(inst, "greedy", window, pack_budget=budget)
                want = _reduce_greedy_lift(inst, window, budget)
                assert _solution_bytes(got) == _solution_bytes(want), (seed, budget)


def test_dp_route_packs_stages_with_fewer_constraints_than_d(exact_routes):
    inst = _padded_instance()
    assert [rc.padding for rc in reduce_instance(inst).constraints] == [
        False, True, False, False, False, True,
    ]
    got = _solve(inst)
    assert exact_routes == ["_stage_dp"]
    assert _solution_bytes(got) == _solution_bytes(_reduce_pack_lift(inst))
    assert evaluate_objective(inst, got.sets) == evaluate_objective(
        inst, brute_force_gmk(inst).sets
    )


def test_cutting_loop_builds_each_stage_row_once_and_no_reduction(monkeypatch):
    # the shape of the cut_multibin benchmark: every exact shift takes one
    # stage DP over all its windows, every greedy shift one pass per item
    params = GenParams(items=3, horizon=40, dimension=2, bins_per_mkc=2,
                       capacity_range=(3, 8), target_phi=1)
    inst = gen_random(params, 1_000_003)
    stages = []
    real_row = oracle.packable_row

    def counted_row(row_inst, t):
        stages.append(t)
        return real_row(row_inst, t)

    # the windows of each exact shift DP, the stage sets it chooses, the
    # engine calls of both sub-solvers, and the stage sets packed
    dps, chosen, engine, packed = [], [], [], []
    real_dp, real_pack = cutting._stage_dp, oracle.pack_stage

    def recorded_dp(dp_rows, windows):
        sets, value = real_dp(dp_rows, windows)
        dps.append(windows)
        chosen.extend(zip([t for lo, hi in windows for t in range(lo, hi + 1)], sets, strict=True))
        return sets, value

    def counted_pack(stage, members, t):
        packed.append((t, members))
        return real_pack(stage, members, t)

    calls = []
    monkeypatch.setattr(oracle, "packable_row", counted_row)
    monkeypatch.setattr(cutting, "_stage_dp", recorded_dp)
    monkeypatch.setattr(cutting, "max_plus_masks", _recording(engine, "max_plus_masks"))
    monkeypatch.setattr(oracle, "pack_stage", counted_pack)
    for module, name in (
        (reduction, "reduce_instance"), (reduction, "lift_solution"), (mkcp, "solve_mkcp_greedy"),
        (reduction, "_reduced_constraints"),
    ):
        monkeypatch.setattr(module, name, _counting(calls, name, getattr(module, name)))
    # the instance is validated once and no window is materialized; each
    # shift is solved once, through the one shift solver, each window valued
    # once, each shift's windows are combined and valued once, and only the
    # returned solution is packed and checked
    checks = []
    names = (
        (core, "validate_instance"), (core, "window_instance"),
        (oracle, "check_feasible"), (reduction, "check_feasible"),
        (cutting, "evaluate_window"), (cutting, "evaluate_objective"),
        (cutting, "solve_bounded_horizon"), (cutting, "solve_shift"),
        (cutting, "combine_cut_solutions"),
    )
    for module, name in names:
        monkeypatch.setattr(module, name, _counting(checks, name, getattr(module, name)))
    scheme = SchemeParams(Fraction(1, 5), 1, mu_inv=4)
    bypass = SchemeParams(Fraction(1, 5), 1, mu_inv=inst.horizon // 2)
    for solver, rows in (("exact", 1), ("greedy", 0)):
        stages.clear()
        checks.clear()
        dps.clear()
        chosen.clear()
        engine.clear()
        packed.clear()
        result = solve_general_result(inst, scheme, solver, enum_budget=10**15)
        assert not result.bypassed and len(result.iterations) == 4
        assert sorted(stages) == rows * list(range(1, inst.horizon + 1))
        assert calls == []
        windows = sum(len(it.window_values) for it in result.iterations)
        assert {name: checks.count(name) for _, name in names} == {
            "validate_instance": 1,
            "window_instance": 0,
            "check_feasible": 1,
            "evaluate_window": windows,
            "evaluate_objective": 4,
            "solve_bounded_horizon": 0,
            "solve_shift": 4,
            "combine_cut_solutions": 4,
        }
        # one exact DP over all items per shift, or one greedy pass per item and shift
        shifts = [CutPointSet(it.cut_points).windows() for it in result.iterations]
        assert dps == (shifts if solver == "exact" else [])
        assert len(engine) == (4 if solver == "exact" else 3 * 4)
        # every exact window chooses a set at every stage; of the 160 the
        # windows choose, for both sub-solvers, only the returned sets are
        # packed, once per stage
        assert len(chosen) == rows * 4 * inst.horizon
        assert packed == list(enumerate(result.solution.sets, start=1))
        if solver == "exact":
            assert set(packed) < set(chosen)
        # a bypass solves its one window and packs and checks it, combining nothing
        checks.clear()
        packed.clear()
        result = solve_general_result(inst, bypass, solver, enum_budget=10**15)
        assert result.bypassed
        assert packed == list(enumerate(result.solution.sets, start=1))
        assert {name: checks.count(name) for _, name in names} == {
            "validate_instance": 1,
            "window_instance": 0,
            "check_feasible": 1,
            "evaluate_window": 1,
            "evaluate_objective": 0,
            "solve_bounded_horizon": 1,
            "solve_shift": 1,
            "combine_cut_solutions": 0,
        }
        assert calls == []
