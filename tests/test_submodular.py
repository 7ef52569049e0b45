"""Oracles, the property checker, and the stage extension."""

from __future__ import annotations

import dataclasses
import itertools
import random

import pytest

from gmk.core import evaluate_objective
from gmk.errors import InputError
from gmk.generators import GenParams, gen_random
from gmk.reduction import ReducedElement, reduce_instance
from gmk.submodular import (
    CoverageFunction,
    ModularFunction,
    SumFunction,
    TableFunction,
    check_monotone_submodular,
    extend_function,
)

from util import build_instance, single_bin_stage


def random_coverage(rng, items, universe_size=5):
    universe = {f"u{k}": rng.randint(1, 6) for k in range(universe_size)}
    covers = {i: frozenset(u for u in universe if rng.random() < 0.5) for i in items}
    return CoverageFunction(universe=universe, covers=covers)


def test_coverage_examples():
    f = CoverageFunction(universe={"u": 5}, covers={"a": frozenset({"u"}), "b": frozenset({"u"})})
    assert f.evaluate(frozenset()) == 0
    assert f.evaluate(frozenset({"a", "b"})) == 5
    assert f.evaluate(frozenset({"a"})) == 5


def test_modular_oracle_matches_profit_table():
    values = {"a": 3, "b": 0, "c": 7}
    f = ModularFunction(values=values)
    for size in range(4):
        for combo in itertools.combinations(values, size):
            assert f.evaluate(frozenset(combo)) == sum(values[i] for i in combo)


def test_checker_clean_on_guaranteed_kinds():
    rng = random.Random(3)
    for _ in range(20):
        f = random_coverage(rng, ["a", "b", "c", "d"])
        assert check_monotone_submodular(f).clean
    g = ModularFunction(values={"a": 2, "b": 5})
    assert check_monotone_submodular(g).clean


def test_sum_closure():
    rng = random.Random(4)
    parts = tuple(random_coverage(rng, ["a", "b", "c"]) for _ in range(3))
    f = SumFunction(parts=parts + (ModularFunction(values={"a": 1, "b": 2, "c": 0}),))
    assert check_monotone_submodular(f).clean


def test_nested_sums_are_held_flat_with_every_value_unchanged():
    rng = random.Random(5)
    a, b, c = (random_coverage(rng, items) for items in (["a", "b"], ["b", "c"], ["a", "c"]))
    nested = SumFunction(parts=(a, SumFunction(parts=(b, SumFunction(parts=(c,))))))
    assert nested.parts == (a, b, c) and nested.ground == frozenset("abc")
    for size in range(4):
        for combo in itertools.combinations("abc", size):
            subset = frozenset(combo)
            assert nested.evaluate(subset) == sum(f.evaluate(subset & f.ground) for f in (a, b, c))
    # a chain far past the interpreter's recursion limit is one level deep
    chain = c
    for _ in range(5000):
        chain = SumFunction(parts=(chain,))
    assert chain.parts == (c,) and chain.evaluate(frozenset("abc")) == c.evaluate(frozenset("ac"))


def test_a_sum_builds_each_part_ground_once_and_equals_its_parts(monkeypatch):
    rng = random.Random(7)
    items = [f"i{k}" for k in range(6)]
    parts = [random_coverage(rng, rng.sample(items, 4)) for _ in range(3)]
    builds = []
    real = CoverageFunction.ground.fget

    def counted(self):
        builds.append(self)
        return real(self)

    monkeypatch.setattr(CoverageFunction, "ground", property(counted))
    total = SumFunction(parts=tuple(parts))
    assert len(builds) == len(parts)
    builds.clear()
    for size in range(len(items) + 1):
        for combo in itertools.combinations(items, size):
            subset = frozenset(combo)
            want = sum(f.evaluate(subset & real(f)) for f in parts)
            assert total.evaluate(subset) == want, combo
    assert builds == []


def test_adversarial_table_flagged_with_witness():
    ground = frozenset({"a", "b"})
    table = {
        frozenset(): 0,
        frozenset({"a"}): 1,
        frozenset({"b"}): 1,
        frozenset({"a", "b"}): 5,
    }
    f = TableFunction(table=table, members=ground)
    report = check_monotone_submodular(f)
    assert not report.clean
    assert any("not submodular" in v for v in report.violations)


def test_nonmonotone_table_flagged():
    ground = frozenset({"a", "b"})
    table = {
        frozenset(): 3,
        frozenset({"a"}): 1,
        frozenset({"b"}): 3,
        frozenset({"a", "b"}): 1,
    }
    f = TableFunction(table=table, members=ground)
    report = check_monotone_submodular(f)
    assert not report.clean
    assert any("not monotone" in v for v in report.violations)


@pytest.mark.parametrize(
    "values", [{"a": 2**63, "b": 1}, {"a": 2**62, "b": 2**62}], ids=["2_63", "two_2_62"]
)
def test_checker_exact_beyond_int64(values):
    assert check_monotone_submodular(ModularFunction(values=values)).clean


def test_nonmonotone_table_beyond_int64_reports_witness():
    big = 2**64
    table = {
        frozenset(): 0,
        frozenset({"a"}): big,
        frozenset({"b"}): big,
        frozenset({"a", "b"}): big - 1,
    }
    report = check_monotone_submodular(TableFunction(table=table, members=frozenset({"a", "b"})))
    assert report.violations == ("not monotone: f({a, b}) - f({b}) = -1",)


def test_negative_table_flagged():
    f = TableFunction(table={frozenset(): -1, frozenset({"a"}): 0}, members=frozenset({"a"}))
    report = check_monotone_submodular(f)
    assert any("negative" in v for v in report.violations)


@pytest.mark.parametrize(
    "size_value,violations",
    [
        (lambda s: -s, ("negative: f({i00}) = -1", "not monotone: f({i00}) - f({}) = -1")),
        (lambda s: 13 - s, ("not monotone: f({i00}) - f({}) = -1",)),
        (lambda s: s * s, ("not submodular: adding i00 gains 3 at {i01} but 1 at subset {}",)),
    ],
    ids=["negative", "not_monotone", "not_submodular"],
)
def test_sampled_check_reports_the_first_witness(size_value, violations):
    # all 8,192 subsets of 13 members are checked; the value depends on the size alone
    members = [f"i{k:02d}" for k in range(13)]
    table = {
        frozenset(subset): size_value(r)
        for r in range(len(members) + 1)
        for subset in itertools.combinations(members, r)
    }
    report = check_monotone_submodular(TableFunction(table=table, members=frozenset(members)))
    assert report.violations == violations


def test_extension_base_cases():
    f = CoverageFunction(universe={"u": 4}, covers={"a": frozenset({"u"})})
    g = extend_function(f, 2)
    assert g.evaluate(frozenset()) == 0
    inactive = ReducedElement("a", 0b001)  # stage 1 only
    active = ReducedElement("a", 0b010)  # stage 2 only
    assert g.evaluate(frozenset({inactive})) == 0
    assert g.evaluate(frozenset({active})) == 4


def test_extension_is_checked_over_the_ground_its_caller_passes():
    table = {
        frozenset(): 0,
        frozenset({"a"}): 1,
        frozenset({"b"}): 1,
        frozenset({"a", "b"}): 5,
    }
    g = extend_function(TableFunction(table=table, members=frozenset({"a", "b"})), 1)
    with pytest.raises(InputError, match="no stored ground"):
        check_monotone_submodular(g)
    sample = [ReducedElement(i, m) for i in "ab" for m in (0b0, 0b1)]
    report = check_monotone_submodular(g, sample)
    assert len(report.violations) == 1 and report.violations[0].startswith("not submodular"), report


def test_extension_stays_clean():
    """The stage lift of a clean oracle passes the exhaustive checker."""
    rng = random.Random(9)
    for _ in range(25):
        items = ["a", "b", "c"]
        f = random_coverage(rng, items)
        horizon = 3
        ground = [
            ReducedElement(i, m) for i in items for m in range(1 << horizon)
        ]
        sample = rng.sample(ground, 9)
        stage = rng.randint(1, horizon)
        g = extend_function(f, stage)
        report = check_monotone_submodular(g, sample)
        assert report.clean, report.violations


def test_submodular_objective_matches_modular_zero_costs():
    rng = random.Random(12)
    items = ["a", "b", "c"]
    for seed in range(15):
        modular = gen_random(GenParams(items=3, horizon=3, cost_range=(0, 0)), seed)
        twin_stages = tuple(
            dataclasses.replace(s, profit=ModularFunction(values=dict(s.profit)))
            for s in modular.stages
        )
        twin = dataclasses.replace(modular, stages=twin_stages, variant="submodular")
        for _ in range(20):
            sets = [frozenset(i for i in modular.items if rng.random() < 0.5) for _ in range(3)]
            assert evaluate_objective(twin, sets) == evaluate_objective(modular, sets)


def test_reduced_submodular_objective_examples():
    items = ["a"]
    f = CoverageFunction(universe={"u": 4, "v": 2}, covers={"a": frozenset({"u"})})
    from gmk.core import GmkInstance, Mkc, McpStage

    stage = McpStage(mkcs=(Mkc(weights={"a": 1}, bins=("b",), capacities={"b": 1}),), profit=f)
    inst = GmkInstance(
        items=("a",),
        horizon=2,
        stages=(stage, stage),
        gain_plus={("a", 2): 3},
        gain_minus={("a", 2): 1},
        cost_plus={("a", 1): 0, ("a", 2): 0},
        cost_minus={("a", 1): 0, ("a", 2): 0},
        variant="submodular",
    )
    reduced = reduce_instance(inst)
    objective = reduced.objective
    assert objective.evaluate(frozenset()) == 0
    full = ReducedElement("a", 0b11)
    assert objective.evaluate(frozenset({full})) == 4 + 4 + 3
    empty = ReducedElement("a", 0)
    assert objective.evaluate(frozenset({empty})) == 1
