"""Objective evaluation, validation, feasibility, ratio, windows and coupling terms."""

from __future__ import annotations

import dataclasses
import math
import random
from fractions import Fraction

import pytest

from gmk.core import (
    GmkInstance,
    Mkc,
    McpStage,
    MultistageSolution,
    check_feasible,
    coupling_terms,
    evaluate_objective,
    evaluate_window,
    profit_cost_ratio,
    ratio_violation,
    validate_instance,
    window_instance,
)
from gmk.errors import InputError, UnsupportedVariantError
from gmk.generators import GenParams, gen_random
from gmk.submodular import CoverageFunction, ModularFunction

from util import build_instance, dense_table, single_bin_stage, two_stage_single_item


def test_objective_empty_sets_zero_gain_minus():
    inst = build_instance(
        ["a", "b"],
        [single_bin_stage(["a", "b"], {"a": 1, "b": 1}, 2, {"a": 1, "b": 1})] * 2,
    )
    assert evaluate_objective(inst, [set(), set()]) == 0


def test_objective_term_by_term():
    inst = two_stage_single_item()
    assert evaluate_objective(inst, [{"i"}, {"i"}]) == 10
    # c+ charged at entry, c- at stage 1 because the item leaves after it
    assert evaluate_objective(inst, [{"i"}, set()]) == 5 - 1 - 4


def test_objective_counts_gain_minus_only_when_absent_twice():
    items = ["a"]
    inst = build_instance(
        items,
        [single_bin_stage(items, {"a": 1}, 1, {"a": 0})] * 3,
        gain_minus=dense_table(items, 2, 3, **{"a:2": 4, "a:3": 7}),
    )
    assert evaluate_objective(inst, [set(), set(), set()]) == 11
    assert evaluate_objective(inst, [{"a"}, set(), set()]) == 7


def test_objective_unknown_item_rejected():
    inst = two_stage_single_item()
    with pytest.raises(InputError):
        evaluate_objective(inst, [{"ghost"}, set()])
    with pytest.raises(InputError):
        evaluate_objective(inst, [{"i"}])


def test_monotone_gain_property():
    rng = random.Random(5)
    for seed in range(25):
        inst = gen_random(GenParams(items=3, horizon=4), seed)
        sets = [frozenset(i for i in inst.items if rng.random() < 0.5) for _ in range(4)]
        t = rng.randint(2, 4)
        stayers = sets[t - 2] & sets[t - 1]
        if not stayers:
            continue
        item = sorted(stayers)[0]
        bumped = dict(inst.gain_plus)
        bumped[item, t] += 9
        richer = dataclasses.replace(inst, gain_plus=bumped)
        assert evaluate_objective(richer, sets) == evaluate_objective(inst, sets) + 9


def test_validate_well_formed():
    report = validate_instance(two_stage_single_item())
    assert report.ok and report.entries == ()


def test_validate_missing_gain_entry():
    inst = two_stage_single_item()
    broken = dataclasses.replace(inst, gain_plus={})
    report = validate_instance(broken)
    assert any("gain_plus incomplete" in e for e in report.entries)


def test_validate_submodular_nonzero_costs():
    items = ("a",)
    stage = McpStage(
        mkcs=(Mkc(weights={"a": 1}, bins=("b",), capacities={"b": 1}),),
        profit=ModularFunction(values={"a": 2}),
    )
    inst = GmkInstance(
        items=items,
        horizon=1,
        stages=(stage,),
        gain_plus={},
        gain_minus={},
        cost_plus={("a", 1): 3},
        cost_minus={("a", 1): 0},
        variant="submodular",
    )
    report = validate_instance(inst)
    assert any("must have zero change costs" in e for e in report.entries)


def test_validate_catches_structural_breakage():
    inst = two_stage_single_item()
    bad_stage = McpStage(
        mkcs=(Mkc(weights={}, bins=("b", "b"), capacities={"b": 1}),),
        profit={"i": -2},
    )
    broken = dataclasses.replace(inst, stages=(bad_stage, inst.stages[1]))
    entries = validate_instance(broken).entries
    assert any("weights incomplete" in e for e in entries)
    assert any("duplicate bin" in e for e in entries)
    assert any("profit" in e for e in entries)


def _submodular(inst):
    """``inst`` as a valid submodular instance: oracle profits and zero change costs."""
    stages = tuple(dataclasses.replace(s, profit=ModularFunction(values=dict(s.profit))) for s in inst.stages)
    zero = {key: 0 for key in inst.cost_plus}
    return dataclasses.replace(
        inst, variant="submodular", stages=stages, cost_plus=zero, cost_minus=dict(zero)
    )


def _first_stage(inst, profit=None, **mkc_changes):
    """``inst`` with its first stage's profit or first constraint's fields replaced."""
    stage = inst.stages[0]
    mkc = dataclasses.replace(stage.mkcs[0], **mkc_changes)
    profit = stage.profit if profit is None else profit
    stage = dataclasses.replace(stage, mkcs=(mkc, *stage.mkcs[1:]), profit=profit)
    return dataclasses.replace(inst, stages=(stage, *inst.stages[1:]))


# per case: a corruption of a valid instance, and the entry validation must report
INVALID_INSTANCES = {
    "unknown_variant": (lambda inst: dataclasses.replace(inst, variant="bogus"), "unknown variant 'bogus'"),
    "horizon_below_1": (
        lambda inst: dataclasses.replace(inst, horizon=0, stages=()), "horizon must be at least 1, got 0"
    ),
    "empty_item_id": (lambda inst: dataclasses.replace(inst, items=("i", "")), "empty item id"),
    "duplicate_item_id": (lambda inst: dataclasses.replace(inst, items=("i", "i")), "duplicate item id i"),
    "negative_weight": (
        lambda inst: _first_stage(inst, weights={"i": -1}),
        "stage 1 constraint 1 weight of i is -1, not a nonnegative integer",
    ),
    "negative_capacity": (
        lambda inst: _first_stage(inst, capacities={"b": -1}),
        "stage 1 constraint 1 capacity of bin b is -1, not a nonnegative integer",
    ),
    "negative_table_value": (
        lambda inst: dataclasses.replace(inst, gain_plus={("i", 2): -1}),
        "gain_plus[('i', 2)] = -1 is not a nonnegative integer",
    ),
    "oracle_profit_in_modular": (
        lambda inst: _first_stage(inst, ModularFunction(values={"i": 5})),
        "stage 1 profit must be a per-item table in the modular variant",
    ),
    "table_profit_in_submodular": (
        lambda inst: _first_stage(_submodular(inst), {"i": 5}),
        "stage 1 profit must be a set-function oracle in the submodular variant",
    ),
    "unknown_item_in_modular_profit": (
        lambda inst: _first_stage(inst, {"i": 5, "ghost": 7}),
        "stage 1 profit names unknown item ghost",
    ),
    "oracle_missing_an_item": (
        lambda inst: _first_stage(_submodular(inst), ModularFunction(values={"j": 1})),
        "stage 1 profit oracle missing items ['i']",
    ),
    "oracle_names_an_unknown_item": (
        lambda inst: _first_stage(_submodular(inst), ModularFunction(values={"i": 1, "ghost": 7, "alien": 2})),
        "stage 1 profit oracle names unknown items ['alien', 'ghost']",
    ),
    "coverage_names_an_unknown_item": (
        lambda inst: _first_stage(
            _submodular(inst), CoverageFunction(universe={"u": 3}, covers={"i": {"u"}, "ghost": {"u"}})
        ),
        "stage 1 profit oracle names unknown items ['ghost']",
    ),
}


@pytest.mark.parametrize("case", list(INVALID_INSTANCES))
def test_validate_reports_each_invalid_field(case):
    corrupt, entry = INVALID_INSTANCES[case]
    inst = two_stage_single_item()
    assert validate_instance(inst).ok and validate_instance(_submodular(inst)).ok
    assert entry in validate_instance(corrupt(inst)).entries


def test_check_feasible_examples():
    items = ["i"]
    inst = build_instance(items, [single_bin_stage(items, {"i": 3}, 3, {"i": 1})])
    good = MultistageSolution.from_raw([{"i"}], [[{"b": {"i"}}]])
    assert check_feasible(inst, good).ok

    tight = build_instance(items, [single_bin_stage(items, {"i": 3}, 2, {"i": 1})])
    report = check_feasible(tight, good)
    assert any("bin b over capacity at (t=1, j=1)" in v for v in report.violations)

    uncovered = MultistageSolution.from_raw([{"i"}], [[{"b": set()}]])
    report = check_feasible(inst, uncovered)
    assert any("assignment does not cover S_1" in v for v in report.violations)


def test_unknown_items_of_two_types_are_named_in_str_order():
    # sorted() alone cannot order a bool and a str; the messages order names by str
    inst = two_stage_single_item()
    sets = [{True, "ghost"}, set()]
    report = check_feasible(inst, MultistageSolution.from_raw(sets, [[{"b": set()}]] * 2))
    assert "S_1 contains unknown items [True, 'ghost']" in report.violations
    with pytest.raises(InputError, match=r"stage set 1 references unknown items \[True, 'ghost'\]"):
        evaluate_objective(inst, sets)


def test_check_feasible_rejects_overcover_and_unknown_bin():
    items = ["i", "j"]
    inst = build_instance(items, [single_bin_stage(items, {"i": 1, "j": 1}, 2, {"i": 1, "j": 1})])
    overcover = MultistageSolution.from_raw([{"i"}], [[{"b": {"i", "j"}}]])
    assert not check_feasible(inst, overcover).ok
    stray = MultistageSolution.from_raw([{"i"}], [[{"zz": {"i"}}]])
    assert any("unknown bin" in v for v in check_feasible(inst, stray).violations)


def test_profit_cost_ratio_examples():
    items = ["a", "b"]
    stages = [single_bin_stage(items, {"a": 1, "b": 1}, 2, {"a": 2, "b": 2})] * 2
    inst = build_instance(
        items,
        stages,
        cost_plus=dense_table(items, 1, 2, default=1),
        cost_minus=dense_table(items, 1, 2, default=1),
    )
    assert profit_cost_ratio(inst) == Fraction(1, 2)

    free = build_instance(items, stages)
    assert profit_cost_ratio(free) == 0

    broke_stage = single_bin_stage(items, {"a": 1, "b": 1}, 2, {"a": 0, "b": 2})
    broke = build_instance(
        items,
        [stages[0], broke_stage],
        cost_plus=dense_table(items, 1, 2, **{"a:1": 1}),
    )
    assert profit_cost_ratio(broke) == math.inf
    witness = ratio_violation(broke, Fraction(10**9))
    assert witness is not None and witness[0] == "a"


def test_profit_cost_ratio_zero_cost_zero_profit_contributes_zero():
    items = ["a"]
    inst = build_instance(items, [single_bin_stage(items, {"a": 1}, 1, {"a": 0})])
    assert profit_cost_ratio(inst) == 0


def test_profit_cost_ratio_scaling():
    for seed in range(10):
        inst = gen_random(GenParams(items=3, horizon=3, cost_range=(1, 3), profit_range=(1, 4)), seed)
        ratio = profit_cost_ratio(inst)
        k = 3
        scaled_stages = tuple(
            McpStage(mkcs=s.mkcs, profit={i: k * p for i, p in s.profit.items()})
            for s in inst.stages
        )
        scale_costs = lambda table: {key: k * v for key, v in table.items()}
        both = dataclasses.replace(
            inst,
            stages=scaled_stages,
            cost_plus=scale_costs(inst.cost_plus),
            cost_minus=scale_costs(inst.cost_minus),
        )
        assert profit_cost_ratio(both) == ratio
        costs_only = dataclasses.replace(
            inst, cost_plus=scale_costs(inst.cost_plus), cost_minus=scale_costs(inst.cost_minus)
        )
        assert profit_cost_ratio(costs_only) == ratio * k


def test_profit_cost_ratio_requires_modular():
    inst = gen_random(GenParams(items=2, horizon=2, variant="submodular"), 0)
    with pytest.raises(UnsupportedVariantError):
        profit_cost_ratio(inst)


def test_sub_instance_full_range_identity():
    rng = random.Random(11)
    for seed in range(10):
        inst = gen_random(GenParams(items=3, horizon=4), seed)
        sets = [frozenset(i for i in inst.items if rng.random() < 0.5) for _ in range(4)]
        assert evaluate_window(inst, 1, inst.horizon, sets) == evaluate_objective(inst, sets)


def test_sub_instance_boundary_convention():
    items = ["i"]
    stages = [single_bin_stage(items, {"i": 1}, 1, {"i": 0}) for _ in range(4)]
    inst = build_instance(
        items,
        stages,
        gain_plus=dense_table(items, 2, 4, **{"i:2": 10, "i:3": 7}),
        cost_plus=dense_table(items, 1, 4, **{"i:2": 2}),
        cost_minus=dense_table(items, 1, 4, **{"i:3": 3}),
    )
    # g+ at t=2 is out of scope inside the window, g+ at t=3 is earned
    assert evaluate_window(inst, 2, 3, [{"i"}, {"i"}]) == 7 - 2 - 3


def test_sub_instance_single_stage_entry_and_exit():
    items = ["i"]
    inst = build_instance(
        items,
        [single_bin_stage(items, {"i": 1}, 1, {"i": 5})],
        cost_plus=dense_table(items, 1, 1, **{"i:1": 1}),
        cost_minus=dense_table(items, 1, 1, **{"i:1": 1}),
    )
    assert evaluate_window(inst, 1, 1, [{"i"}]) == 3


def test_sub_instance_gain_minus_inside_window_only():
    items = ["i"]
    stages = [single_bin_stage(items, {"i": 1}, 1, {"i": 0}) for _ in range(3)]
    inst = build_instance(
        items, stages, gain_minus=dense_table(items, 2, 3, **{"i:2": 5, "i:3": 7})
    )
    assert evaluate_window(inst, 2, 3, [set(), set()]) == 7


def test_sub_instance_range_checks():
    inst = two_stage_single_item()
    for lo, hi in ((2, 1), (0, 1), (1, 3)):
        with pytest.raises(InputError, match="invalid stage range"):
            window_instance(inst, lo, hi)
        with pytest.raises(InputError, match="invalid stage range"):
            evaluate_window(inst, lo, hi, [])


def test_sub_value_at_most_global_window_contribution():
    """Window value never exceeds the same terms read with global context."""
    rng = random.Random(23)
    for seed in range(200):
        inst = gen_random(GenParams(items=3, horizon=4, cost_range=(0, 3)), seed)
        sets = [frozenset(i for i in inst.items if rng.random() < 0.5) for _ in range(4)]
        t1 = rng.randint(1, 4)
        t2 = rng.randint(t1, 4)
        window = sets[t1 - 1 : t2]
        contribution = sum(inst.stage_profit(t, sets[t - 1]) for t in range(t1, t2 + 1))
        for t in range(t1 + 1, t2 + 1):
            for i in inst.items:
                if i in sets[t - 2] and i in sets[t - 1]:
                    contribution += inst.gain_plus[i, t]
                if i not in sets[t - 2] and i not in sets[t - 1]:
                    contribution += inst.gain_minus[i, t]
        for t in range(t1, t2 + 1):
            prev = sets[t - 2] if t > 1 else frozenset()
            nxt = sets[t] if t < 4 else frozenset()
            for i in sets[t - 1]:
                if i not in prev:
                    contribution -= inst.cost_plus[i, t]
                if i not in nxt:
                    contribution -= inst.cost_minus[i, t]
        assert evaluate_window(inst, t1, t2, window) <= contribution


def test_materialized_view_evaluates_identically():
    rng = random.Random(31)
    for seed in range(30):
        inst = gen_random(GenParams(items=3, horizon=5, dimension=2), seed)
        t1 = rng.randint(1, 5)
        t2 = rng.randint(t1, 5)
        local = window_instance(inst, t1, t2)
        assert local.horizon == t2 - t1 + 1
        sets = [frozenset(i for i in inst.items if rng.random() < 0.5) for _ in range(local.horizon)]
        assert evaluate_objective(local, sets) == evaluate_window(inst, t1, t2, sets)


@pytest.mark.parametrize("variant", ["modular", "submodular"])
def test_coupling_terms_plus_stage_profits_equal_the_window_objective(variant):
    rng = random.Random(47)
    chains = 0
    for seed in range(40):
        horizon = rng.randint(1, 6)
        params = GenParams(items=3, horizon=horizon, dimension=2, variant=variant)
        inst = gen_random(params, seed)
        single, start = rng.randint(1, horizon), rng.randint(1, horizon)
        end = rng.randint(start, horizon)
        # consecutive windows over start..end, cut at random stages
        cuts = sorted(rng.sample(range(start + 1, end + 1), rng.randint(0, end - start)))
        chain = tuple(zip([start, *cuts], [t - 1 for t in cuts] + [end]))
        chains += len(chain) > 1
        for windows in (((1, horizon),), ((single, single),), ((start, end),), chain):
            lo, hi = windows[0][0], windows[-1][1]
            sets = [frozenset(i for i in inst.items if rng.random() < 0.5) for _ in range(lo, hi + 1)]
            total = sum(inst.stage_profit(t, s) for t, s in enumerate(sets, start=lo))
            # nothing is packed just before lo or just after hi
            padded = [frozenset(), *sets, frozenset()]
            for i in inst.items:
                terms = coupling_terms(inst, i, windows)
                assert len(terms) == hi - lo + 2
                for term, prev, cur in zip(terms, padded, padded[1:]):
                    total += term[i in cur][i in prev]
            # each window is valued alone, with nothing packed around it
            expected = sum(evaluate_window(inst, w_lo, w_hi, sets[w_lo - lo : w_hi - lo + 1])
                           for w_lo, w_hi in windows)
            assert total == expected, (seed, windows)
    assert chains >= 10
