"""Hardness-construction generators and the random generator."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from gmk.core import evaluate_objective, profit_cost_ratio, validate_instance
from gmk.errors import InputError
from gmk.generators import (
    GenParams,
    MultidimKnapsackInstance,
    gen_from_2kp,
    gen_from_multidim_knapsack,
    gen_random,
    kp_from_dict,
    kp_to_dict,
)
from gmk.oracle import brute_force_gmk
from gmk.serialize import canonical_dumps, instance_to_dict
from gmk.submodular import ModularFunction

from util import brute_force_kp


def small_kp(seed, items=3, d=2, weight_hi=4, cap_hi=6, profit_hi=5):
    rng = random.Random(seed)
    ids = tuple(f"k{n}" for n in range(items))
    return MultidimKnapsackInstance(
        items=ids,
        profits={i: rng.randint(0, profit_hi) for i in ids},
        weights={i: tuple(rng.randint(0, weight_hi) for _ in range(d)) for i in ids},
        capacities=tuple(rng.randint(1, cap_hi) for _ in range(d)),
    )


def test_multidim_degenerate_single_dimension():
    kp = MultidimKnapsackInstance(
        items=("a",), profits={"a": 7}, weights={"a": (2,)}, capacities=(3,)
    )
    inst = gen_from_multidim_knapsack(kp)
    assert inst.horizon == 1
    assert inst.cost_plus[("a", 1)] == 0 and inst.cost_minus[("a", 1)] == 0
    assert inst.stage(1).profit == {"a": 7}
    assert inst.metadata["scale"] == 1


def test_multidim_formula_divisible():
    kp = MultidimKnapsackInstance(
        items=("a",), profits={"a": 6}, weights={"a": (1, 1)}, capacities=(2, 2)
    )
    inst = gen_from_multidim_knapsack(kp)
    assert inst.stage(1).profit == {"a": 3} and inst.stage(2).profit == {"a": 3}
    assert inst.cost_plus[("a", 1)] == 0 and inst.cost_plus[("a", 2)] == 6
    assert inst.cost_minus[("a", 1)] == 6 and inst.cost_minus[("a", 2)] == 0


def test_multidim_prescaling_when_not_divisible():
    kp = MultidimKnapsackInstance(
        items=("a",), profits={"a": 5}, weights={"a": (1, 1)}, capacities=(2, 2)
    )
    inst = gen_from_multidim_knapsack(kp)
    assert inst.metadata["scale"] == 2
    assert inst.stage(1).profit == {"a": 5}
    assert inst.cost_plus[("a", 2)] == 10


def test_multidim_optimum_preserved():
    for seed in range(30):
        d = 1 + seed % 3
        kp = small_kp(seed, items=3 + seed % 2, d=d)
        inst = gen_from_multidim_knapsack(kp)
        assert validate_instance(inst).ok
        gmk_opt = evaluate_objective(inst, brute_force_gmk(inst).sets)
        kp_opt, _ = brute_force_kp(kp)
        scale = inst.metadata["scale"]
        assert gmk_opt == scale * kp_opt


def test_2kp_requires_two_dimensions():
    with pytest.raises(InputError):
        gen_from_2kp(small_kp(0, d=3))


def test_2kp_formula_and_objective_shape():
    kp = MultidimKnapsackInstance(
        items=("a", "b"),
        profits={"a": 7, "b": 2},
        weights={"a": (1, 1), "b": (1, 1)},
        capacities=(2, 2),
    )
    inst = gen_from_2kp(kp)
    assert inst.gain_plus[("a", 2)] == 7
    assert inst.gain_minus[("a", 2)] == 0
    assert all(v == 0 for v in inst.cost_plus.values())
    assert profit_cost_ratio(inst) == 0
    rng = random.Random(0)
    for _ in range(20):
        s1 = frozenset(i for i in inst.items if rng.random() < 0.5)
        s2 = frozenset(i for i in inst.items if rng.random() < 0.5)
        expected = sum(kp.profits[i] for i in s1 & s2)
        assert evaluate_objective(inst, [s1, s2]) == expected


def test_2kp_optimum_preserved():
    for seed in range(25):
        kp = small_kp(seed, items=4, d=2)
        inst = gen_from_2kp(kp)
        gmk_opt = evaluate_objective(inst, brute_force_gmk(inst).sets)
        kp_opt, _ = brute_force_kp(kp)
        assert gmk_opt == kp_opt


def test_2kp_relabels_as_submodular():
    import dataclasses

    kp = small_kp(3, d=2)
    inst = gen_from_2kp(kp)
    twin_stages = tuple(
        dataclasses.replace(s, profit=ModularFunction(values=dict(s.profit)))
        for s in inst.stages
    )
    twin = dataclasses.replace(inst, stages=twin_stages, variant="submodular")
    assert validate_instance(twin).ok


def test_kp_round_trip_and_validation():
    kp = small_kp(7, d=3)
    again = kp_from_dict(kp_to_dict(kp))
    assert again == kp
    with pytest.raises(InputError):
        kp_from_dict({"items": ["a"], "profits": {"a": 1}, "weights": {"a": [1, 2]}, "capacities": [3]})


def test_random_determinism_bytes():
    params = GenParams(items=4, horizon=3, dimension=2, bins_per_mkc=2, target_phi=2)
    first = canonical_dumps(instance_to_dict(gen_random(params, 11)))
    second = canonical_dumps(instance_to_dict(gen_random(params, 11)))
    assert first == second
    other = canonical_dumps(instance_to_dict(gen_random(params, 12)))
    assert first != other


def test_random_target_phi_zero_means_zero_costs():
    inst = gen_random(GenParams(items=3, horizon=3, target_phi=0), 5)
    assert all(v == 0 for v in inst.cost_plus.values())
    assert all(v == 0 for v in inst.cost_minus.values())


def test_random_phi_bound_sweep():
    for seed in range(200):
        bound = Fraction(1 + seed % 3, 1 + seed % 2)
        inst = gen_random(GenParams(items=3, horizon=3, target_phi=bound), seed)
        assert profit_cost_ratio(inst) <= bound


def test_random_rejects_bad_ranges():
    with pytest.raises(InputError):
        gen_random(GenParams(weight_range=(4, 1)), 0)
    with pytest.raises(InputError):
        gen_random(GenParams(horizon=0), 0)
    with pytest.raises(InputError, match="items must be >= 0"):
        gen_random(GenParams(items=-1), 0)
    assert gen_random(GenParams(items=0), 0).items == ()
    with pytest.raises(InputError):
        gen_random(GenParams(target_phi=Fraction(-1)), 0)


def test_random_submodular_variant_valid():
    for seed in range(5):
        inst = gen_random(GenParams(items=3, horizon=3, variant="submodular"), seed)
        assert validate_instance(inst).ok
        assert all(v == 0 for v in inst.cost_plus.values())
