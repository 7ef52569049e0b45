"""Acceptance suite: one test per criterion, exact tolerances, desk scale.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass line per
criterion. Everything asserts integer equality or an exact rational
inequality; nothing is tuned after the fact.
"""

from __future__ import annotations

import random
from fractions import Fraction

from gmk.core import evaluate_objective, evaluate_window, window_instance
from gmk.cutting import (
    CutPointSet,
    SchemeParams,
    combine_cut_solutions,
    cut_points,
    solve_general_result,
)
from gmk.generators import GenParams, gen_from_2kp, gen_from_multidim_knapsack, gen_random
from gmk.generators import MultidimKnapsackInstance
from gmk.intervals import (
    IntervalElement,
    cut_element,
    cut_loss,
    element_value,
    to_intervals,
)
from gmk.mkcp import finish_selection, solve_mkcp_exact, solve_mkcp_greedy
from gmk.oracle import StageRows, brute_force_gmk
from gmk.reduction import ReducedElement, lift_solution, reduce_instance
from gmk.serialize import canonical_dumps, instance_to_dict, reduced_solution_to_dict, solution_to_dict
from gmk.submodular import TableFunction, check_monotone_submodular, extend_function

from util import brute_force_kp, random_feasible_solution, sweep_instances

PASS = "[PASS]"


def report(number: int, text: str) -> None:
    print(f"\n{PASS} criterion {number}: {text}")


def test_criterion_1_reduction_value_preservation():
    rng = random.Random(101)
    instances = 0
    below_opt = 0
    lifted_random = 0
    for inst in sweep_instances(max_items=3, max_horizon=3, max_dim=2, max_bins=2,
                                cap_limit=4, value_limit=5, fillings=3):
        instances += 1
        reduced = reduce_instance(inst)
        rsol = solve_mkcp_exact(reduced)
        reduced_opt = reduced.value_of(rsol.chosen)
        oracle_opt = evaluate_objective(inst, brute_force_gmk(inst).sets)
        assert reduced_opt == oracle_opt
        lifted = lift_solution(inst, rsol, reduced)
        assert evaluate_objective(inst, lifted.sets) == oracle_opt
        # the greedy's reduced solutions lift with their value too, optimal or not
        greedy = solve_mkcp_greedy(reduced)
        greedy_value = reduced.value_of(greedy.chosen)
        assert evaluate_objective(inst, lift_solution(inst, greedy, reduced).sets) == greedy_value
        assert greedy_value <= oracle_opt
        below_opt += greedy_value < oracle_opt
        # so do the schedules of random feasible solutions, whose masks the reduction kept
        for _ in range(8):
            sol = random_feasible_solution(rng, inst)
            masks = [sum(1 << t for t, s in enumerate(sol.sets) if i in s) for i in inst.items]
            if any(m not in reduced.schedules[i] for i, m in zip(inst.items, masks)):
                continue
            picked = finish_selection(reduced, [ReducedElement(i, m) for i, m in zip(inst.items, masks)])
            assert reduced.value_of(picked.chosen) == evaluate_objective(inst, sol.sets)
            assert lift_solution(inst, picked, reduced).sets == sol.sets
            lifted_random += 1
    assert instances == 108 and below_opt > 0 and lifted_random >= 400
    report(1, f"lifting preserves value and OPT(R(Q)) = OPT(Q) on {instances} instances "
              f"({below_opt} greedy reduced solutions below OPT, {lifted_random} random "
              f"feasible schedules lifted), tolerance 0")


def test_criterion_2_interval_decomposition_identity():
    rng = random.Random(102)
    sequences = 0
    for seed in range(50):
        inst = gen_random(
            GenParams(items=3, horizon=5, cost_range=(0, 4), gain_range=(0, 4)), seed
        )
        for _ in range(200):
            sets = [frozenset(i for i in inst.items if rng.random() < 0.5) for _ in range(5)]
            iv = to_intervals(sets)
            total = sum(element_value(inst, e) for e in iv)
            for t in range(2, 6):
                for i in inst.items:
                    if i not in sets[t - 2] and i not in sets[t - 1]:
                        total += inst.gain_minus[i, t]
            assert total == evaluate_objective(inst, sets)
            sequences += 1
    assert sequences == 10_000
    report(2, f"objective equals run values plus leftover g- mass on {sequences} sequences, exact")


def test_criterion_3_loss_identities():
    rng = random.Random(103)
    pairs = 0
    for seed in range(25):
        horizon = 12
        inst = gen_random(
            GenParams(items=2, horizon=horizon, cost_range=(0, 4), gain_range=(0, 4)), seed
        )
        for _ in range(400):
            item = inst.items[rng.randrange(2)]
            t1 = rng.randint(1, horizon)
            t2 = rng.randint(t1, horizon)
            e = IntervalElement(item, t1, t2)
            interior = sorted(rng.sample(range(2, horizon + 1), rng.randint(0, 5)))
            cuts = CutPointSet(tuple(sorted({1, horizon + 1, *interior})))
            pieces = cut_element(e, cuts)
            loss = cut_loss(inst, e, cuts)
            assert element_value(inst, e) == sum(element_value(inst, p) for p in pieces) + loss
            assert loss == sum(
                cut_loss(inst, e, CutPointSet((1, u, horizon + 1)))
                for u in interior
            )
            pairs += 1
    assert pairs == 10_000
    report(3, f"cut-loss identity and per-point additivity on {pairs} element/cut-set pairs, exact")


def test_criterion_4_combine_inequality():
    rng = random.Random(104)
    triples = 0
    for trial in range(1000):
        horizon = rng.randint(2, 6)
        inst = gen_random(
            GenParams(items=3, horizon=horizon, dimension=2, cost_range=(0, 3)), seed=trial
        )
        interior = sorted(rng.sample(range(2, horizon + 1), rng.randint(0, min(3, horizon - 1))))
        cuts = CutPointSet(tuple(sorted({1, horizon + 1, *interior})))
        windows = cuts.windows()
        parts = [random_feasible_solution(rng, window_instance(inst, lo, hi)) for lo, hi in windows]
        values = [evaluate_window(inst, lo, hi, part.sets) for (lo, hi), part in zip(windows, parts)]
        combined, value = combine_cut_solutions(inst, [(p.sets, v) for p, v in zip(parts, values)])
        assert value == evaluate_objective(inst, combined) >= sum(values)
        triples += 1
    assert triples == 1000
    report(4, f"combined value at least the window sum on {triples} instance/cut/part triples")


def _criterion5_params():
    return GenParams(
        items=3, horizon=13, dimension=1, bins_per_mkc=1,
        weight_range=(1, 4), capacity_range=(3, 7),
        profit_range=(1, 5), gain_range=(0, 2), cost_range=(1, 1),
        target_phi=1,
    )


def test_criterion_5_general_scheme_guarantee():
    params = _criterion5_params()
    scheme_02 = SchemeParams(Fraction("0.2"), 1)
    scheme_01 = SchemeParams(Fraction("0.1"), 1)
    kwargs = dict(enum_budget=10**15)
    checked_02 = 0
    checked_01 = 0
    for seed in range(200):
        inst = gen_random(params, seed)
        opt = evaluate_objective(inst, brute_force_gmk(inst).sets)
        result = solve_general_result(StageRows(inst), scheme_02, "exact", **kwargs)
        assert Fraction(result.value) >= (1 - Fraction("0.2")) * opt
        checked_02 += 1
        if seed < 50:
            result_01 = solve_general_result(StageRows(inst), scheme_01, "exact", **kwargs)
            assert Fraction(result_01.value) >= (1 - Fraction("0.1")) * opt
            checked_01 += 1
    assert checked_02 == 200 and checked_01 == 50
    report(5, "scheme with exact sub-solver within (1 - eps) of the oracle on 200 instances "
              "at eps=0.2 and 50 at eps=0.1 (|I|=3, T=13, unit costs, d=1)")


def test_criterion_6_hardness_generators_dual_oracles():
    rng = random.Random(106)
    multidim = 0
    for n_items in range(1, 5):
        for d in range(1, 4):
            for _ in range(4):
                ids = tuple(f"k{k}" for k in range(n_items))
                kp = MultidimKnapsackInstance(
                    items=ids,
                    profits={i: rng.randint(0, 5) for i in ids},
                    weights={i: tuple(rng.randint(0, 4) for _ in range(d)) for i in ids},
                    capacities=tuple(rng.randint(1, 6) for _ in range(d)),
                )
                inst = gen_from_multidim_knapsack(kp)
                gmk_opt = evaluate_objective(inst, brute_force_gmk(inst).sets)
                kp_opt, _ = brute_force_kp(kp)
                assert gmk_opt == inst.metadata["scale"] * kp_opt
                multidim += 1
    twokp = 0
    for n_items in range(1, 6):
        for _ in range(5):
            ids = tuple(f"k{k}" for k in range(n_items))
            kp = MultidimKnapsackInstance(
                items=ids,
                profits={i: rng.randint(0, 5) for i in ids},
                weights={i: (rng.randint(0, 4), rng.randint(0, 4)) for i in ids},
                capacities=(rng.randint(1, 6), rng.randint(1, 6)),
            )
            inst = gen_from_2kp(kp)
            gmk_opt = evaluate_objective(inst, brute_force_gmk(inst).sets)
            kp_opt, _ = brute_force_kp(kp)
            assert gmk_opt == kp_opt
            twokp += 1
    report(6, f"dual brute-force oracles agree on {multidim} stage-per-dimension and "
              f"{twokp} gain-encoded reductions, exact after un-scaling")


def test_criterion_7_extension_properties_and_adversary():
    rng = random.Random(107)
    clean = 0
    for trial in range(100):
        universe = {f"u{k}": rng.randint(1, 6) for k in range(5)}
        items = [f"i{k}" for k in range(3)]
        covers = {i: frozenset(u for u in universe if rng.random() < 0.5) for i in items}
        from gmk.submodular import CoverageFunction

        f = CoverageFunction(universe=universe, covers=covers)
        horizon = 3
        ground = [ReducedElement(i, m) for i in items for m in range(1 << horizon)]
        sample = rng.sample(ground, 10)
        stage = rng.randint(1, horizon)
        lifted = extend_function(f, stage)
        result = check_monotone_submodular(lifted, sample)
        assert result.clean, result.violations
        clean += 1
    adversarial = TableFunction(
        table={
            frozenset(): 0,
            frozenset({"a"}): 1,
            frozenset({"b"}): 1,
            frozenset({"a", "b"}): 5,
        },
        members=frozenset({"a", "b"}),
    )
    flagged = check_monotone_submodular(adversarial)
    assert not flagged.clean
    assert any("not submodular" in v for v in flagged.violations)
    report(7, f"stage extensions of {clean} coverage oracles pass the exhaustive checker; "
              "the adversarial table is flagged with a witness")


def test_criterion_8_cut_point_combinatorics():
    checked = 0
    for horizon in range(1, 61):
        for mu_inv in range(1, 11):
            interiors = []
            for j in range(1, mu_inv + 1):
                produced = cut_points(horizon, mu_inv, j)
                expected = {1, horizon + 1}
                for point in range(2, horizon + 1):
                    if (
                        point >= mu_inv + j - 1
                        and (point - j + 1) % mu_inv == 0
                        and point <= horizon - mu_inv
                    ):
                        expected.add(point)
                assert produced.points == tuple(sorted(expected))
                interiors.append(set(produced.interior()))
                checked += 1
            for a in range(len(interiors)):
                for b in range(a + 1, len(interiors)):
                    assert not (interiors[a] & interiors[b])
    report(8, f"generated grids match the closed form on {checked} (T, mu_inv, j) triples "
              "and interiors are disjoint across shifts")


def test_criterion_9_determinism_byte_identical():
    params = _criterion5_params()
    gen_bytes = [
        canonical_dumps(instance_to_dict(gen_random(params, 77))) for _ in range(2)
    ]
    assert gen_bytes[0] == gen_bytes[1]

    inst = gen_random(GenParams(items=3, horizon=3, cost_range=(1, 1),
                                profit_range=(1, 5), target_phi=1), 7)
    scheme = SchemeParams(Fraction("0.2"), 1)
    solve_bytes = [
        canonical_dumps(solution_to_dict(solve_general_result(StageRows(inst), scheme, "exact").solution))
        for _ in range(2)
    ]
    assert solve_bytes[0] == solve_bytes[1]

    loop_inst = gen_random(GenParams(items=2, horizon=8, cost_range=(1, 1),
                                     profit_range=(1, 4), target_phi=1), 8)
    loop_scheme = SchemeParams(Fraction("0.2"), 1, mu_inv=2)
    loop_bytes = [
        canonical_dumps(solution_to_dict(solve_general_result(StageRows(loop_inst), loop_scheme, "exact").solution))
        for _ in range(2)
    ]
    assert loop_bytes[0] == loop_bytes[1]

    reduced = reduce_instance(inst)
    greedy_bytes = [
        canonical_dumps(reduced_solution_to_dict(solve_mkcp_greedy(reduced))) for _ in range(2)
    ]
    assert greedy_bytes[0] == greedy_bytes[1]

    oracle_bytes = [
        canonical_dumps(solution_to_dict(brute_force_gmk(inst))) for _ in range(2)
    ]
    assert oracle_bytes[0] == oracle_bytes[1]

    sub_inst = gen_random(GenParams(items=2, horizon=2, variant="submodular"), 9)
    sub_reduced = reduce_instance(sub_inst)
    sub_bytes = [
        canonical_dumps(reduced_solution_to_dict(solve_mkcp_exact(sub_reduced))) for _ in range(2)
    ]
    assert sub_bytes[0] == sub_bytes[1]
    report(9, "generator, scheme (bypass and loop), greedy, oracle and submodular exact runs "
              "are byte-identical across executions")
