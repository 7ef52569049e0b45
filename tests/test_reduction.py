"""Element values, the reduced instance, and lifting reduced solutions back."""

from __future__ import annotations

import hashlib
import random

import pytest

from gmk.core import evaluate_objective
from gmk.errors import BudgetExceededError, InputError
from gmk.generators import GenParams, gen_random
from gmk.intervals import IntervalElement, element_value
from gmk.mkcp import finish_selection, solve_mkcp_exact
from gmk.oracle import brute_force_gmk
from gmk.reduction import (
    ReducedElement,
    ReducedSolution,
    lift_solution,
    verify_reduced_solution,
    _schedule_values,
    reduce_instance,
)
from gmk.serialize import canonical_dumps, reduced_from_dict, reduced_to_dict

from gmk.core import McpStage
from util import (
    binless_first_stage,
    build_instance,
    dense_table,
    single_bin_stage,
    sweep_instances,
    two_stage_single_item,
)


def test_fixed_value_empty_schedule_collects_gain_minus():
    items = ["i"]
    stages = [single_bin_stage(items, {"i": 1}, 1, {"i": 9}) for _ in range(3)]
    inst = build_instance(items, stages, gain_minus=dense_table(items, 2, 3, default=4))
    assert reduce_instance(inst).schedules["i"][0] == 8


def test_fixed_value_full_schedule_equals_interval_value():
    rng = random.Random(2)
    for seed in range(20):
        inst = gen_random(GenParams(items=3, horizon=4, cost_range=(0, 3)), seed)
        k = rng.randrange(3)
        full = (1 << inst.horizon) - 1
        assert _schedule_values(inst)[k][full] == element_value(
            inst, IntervalElement(inst.items[k], 1, inst.horizon)
        )


def test_fixed_value_formula_walk():
    items = ["i"]
    stages = [single_bin_stage(items, {"i": 1}, 1, {"i": 5}) for _ in range(3)]
    inst = build_instance(
        items,
        stages,
        gain_plus=dense_table(items, 2, 3, default=1),
        gain_minus=dense_table(items, 2, 3, default=1),
        cost_plus=dense_table(items, 1, 3, default=2),
        cost_minus=dense_table(items, 1, 3, default=2),
    )
    assert reduce_instance(inst).schedules["i"][0b101] == 10 - 4 - 4  # stages 1 and 3


def test_vectorized_schedule_values_match_scalar():
    # a schedule's value is the objective of the set sequence that packs its
    # item alone, less the other items' empty-schedule values, and less the
    # stage profits in the submodular variant (they stay an oracle)
    for variant in ("modular", "submodular"):
        for seed in range(10):
            params = GenParams(items=3, horizon=5, cost_range=(0, 4), variant=variant)
            inst = gen_random(params, seed)
            values = _schedule_values(inst)
            assert [len(row) for row in values] == [1 << inst.horizon] * 3

            def gain_value(sets):
                value = evaluate_objective(inst, sets)
                if variant == "submodular":
                    value -= sum(inst.stage_profit(t, s) for t, s in enumerate(sets, start=1))
                return value

            empty = gain_value([frozenset()] * inst.horizon)
            for k, item in enumerate(inst.items):
                alone = sum(inst.gain_minus[item, t] for t in range(2, inst.horizon + 1))
                for mask in range(1 << inst.horizon):
                    sets = [frozenset({item} if mask >> t & 1 else ()) for t in range(inst.horizon)]
                    assert values[k][mask] == gain_value(sets) - empty + alone


def test_reduce_counts_and_partition():
    items = ["a", "b"]
    stages = [single_bin_stage(items, {"a": 1, "b": 1}, 2, {"a": 1, "b": 1})] * 2
    inst = build_instance(items, stages)
    reduced = reduce_instance(inst)
    assert len(reduced.elements) == 8  # zero costs, nothing dropped
    assert len(reduced.constraints) == 2
    assert set(reduced.schedules) == {"a", "b"}
    assert all(len(table) == 4 for table in reduced.schedules.values())


def test_reduce_drops_negative_values_but_keeps_empty():
    items = ["a"]
    stages = [single_bin_stage(items, {"a": 1}, 1, {"a": 1}) for _ in range(2)]
    inst = build_instance(
        items,
        stages,
        cost_plus=dense_table(items, 1, 2, default=5),
        cost_minus=dense_table(items, 1, 2, default=5),
    )
    reduced = reduce_instance(inst)
    masks = {e.mask for e in reduced.elements}
    assert 0 in masks
    assert 0b01 not in masks  # 1 - 10 < 0
    assert reduced.schedules["a"][0] == 0


def test_weight_rule_audit():
    for seed in range(5):
        inst = gen_random(GenParams(items=3, horizon=3, dimension=2, bins_per_mkc=2), seed)
        reduced = reduce_instance(inst)
        for rc in reduced.constraints:
            for e in reduced.elements:
                expected = 0
                if not rc.padding and e.active_at(rc.stage):
                    expected = inst.stage(rc.stage).mkcs[rc.index - 1].weights[e.item]
                assert rc.weight_of(e) == expected


def test_padding_constraints_take_everything_at_zero_weight():
    items = ["a", "b"]
    mkc = {"a": 1, "b": 2}
    wide = single_bin_stage(items, mkc, 3, {"a": 1, "b": 1})
    two_mkcs = McpStage(mkcs=wide.mkcs * 2, profit=dict(wide.profit))
    inst = build_instance(items, [wide, two_mkcs])
    reduced = reduce_instance(inst)
    pads = [rc for rc in reduced.constraints if rc.padding]
    assert [(rc.stage, rc.index) for rc in pads] == [(1, 2)]
    for rc in pads:
        assert rc.capacities == {"pad": 0}
        assert all(rc.weight_of(e) == 0 for e in reduced.elements)


def test_reduce_refuses_tables_past_the_budget():
    # |I| * 2**T = 2 * 16 table entries, the rule solve_mkcp_exact applies
    inst = gen_random(GenParams(items=2, horizon=4), 0)
    assert reduce_instance(inst, enum_budget=32).schedules == reduce_instance(inst).schedules
    with pytest.raises(BudgetExceededError, match=r"32 entries \(\|I\| \* 2\*\*T\) exceed budget 31"):
        reduce_instance(inst, enum_budget=31)
    with pytest.raises(BudgetExceededError, match="exact solve refused"):
        solve_mkcp_exact(reduce_instance(inst), enum_budget=31)


def test_default_budget_reduces_solves_and_lifts_past_twelve_stages():
    # 3 * 2**13 table entries: the reduce, solve-mkcp --exact, lift pipeline
    # at the default budget reaches the oracle's optimum
    inst = gen_random(GenParams(items=3, horizon=13), 3)
    reduced = reduce_instance(inst)
    sol = lift_solution(inst, solve_mkcp_exact(reduced), reduced)
    assert evaluate_objective(inst, sol.sets) == evaluate_objective(inst, brute_force_gmk(inst).sets) == 74


def test_lift_empty_schedule_only():
    inst = gen_random(GenParams(items=1, horizon=3, cost_range=(0, 1)), 8)
    reduced = reduce_instance(inst)
    chosen = frozenset({ReducedElement(inst.items[0], 0)})
    assignments = {}
    for rc in reduced.constraints:
        bins = {b: frozenset() for b in rc.bins}
        bins[min(rc.bins)] = chosen
        assignments[(rc.stage, rc.index)] = bins
    sol = lift_solution(inst, ReducedSolution(chosen=chosen, assignments=assignments), reduced)
    assert all(not s for s in sol.sets)
    mass = sum(inst.gain_minus[inst.items[0], t] for t in range(2, 4))
    assert evaluate_objective(inst, sol.sets) == mass
    # an item with no chosen element lifts as its empty schedule does: the
    # lift earns its g- mass, which the reduced value leaves out
    for seed in range(10):
        inst = gen_random(GenParams(items=3, horizon=4, dimension=2, bins_per_mkc=2), seed)
        reduced = reduce_instance(inst)
        chosen = solve_mkcp_exact(reduced).chosen
        for left_out in chosen:
            rsol = finish_selection(reduced, [e for e in chosen if e != left_out])
            lifted = evaluate_objective(inst, lift_solution(inst, rsol, reduced).sets)
            mass = sum(inst.gain_minus[left_out.item, t] for t in range(2, 5))
            assert lifted - reduced.value_of(rsol.chosen) == mass, seed


def test_binless_constraint_holds_no_element():
    inst = binless_first_stage()
    reduced = reduce_instance(inst)
    rsol = solve_mkcp_exact(reduced)
    assert rsol.chosen == frozenset({ReducedElement("a", 2), ReducedElement("b", 2)})
    assert rsol.assignments[1, 1] == {}
    assert not verify_reduced_solution(reduced, rsol)
    lifted = lift_solution(inst, rsol, reduced)
    assert lifted.sets == (frozenset(), frozenset("ab"))
    assert evaluate_objective(inst, lifted.sets) == 5
    # b packed at the binless stage 1 too: no bin holds it there
    active = frozenset({ReducedElement("a", 2), ReducedElement("b", 3)})
    assignments = {(1, 1): {}, (2, 1): {"x": active}}
    out = verify_reduced_solution(reduced, ReducedSolution(chosen=active, assignments=assignments))
    assert out == ("assignment does not cover the chosen set at (t=1, j=1)",)


def test_lift_rejects_infeasible_reduced_solution():
    # per case: the item's weight against a bin of 1, the chosen masks, the
    # bin that holds them at both stages, and the violation
    cases = [
        (1, (0, 3), "b", "matroid violation"),
        (1, (3,), "zz", "unknown bin zz"),
        (2, (3,), "b", "bin b over capacity"),
    ]
    for weight, masks, holder, violation in cases:
        inst = build_instance("i", [single_bin_stage("i", {"i": weight}, 1, {"i": 5})] * 2)
        reduced = reduce_instance(inst)
        chosen = frozenset(ReducedElement("i", m) for m in masks)
        assignments = {(rc.stage, rc.index): {holder: chosen} for rc in reduced.constraints}
        with pytest.raises(InputError, match=violation):
            lift_solution(inst, ReducedSolution(chosen=chosen, assignments=assignments), reduced)


def test_verifier_catches_violations():
    inst = two_stage_single_item()
    reduced = reduce_instance(inst)
    chosen = frozenset({ReducedElement("i", 3)})
    good = {
        (rc.stage, rc.index): {min(rc.bins): chosen, **{b: frozenset() for b in rc.bins if b != min(rc.bins)}}
        for rc in reduced.constraints
    }
    assert not verify_reduced_solution(reduced, ReducedSolution(chosen=chosen, assignments=good))

    missing = dict(good)
    missing.pop((1, 1))
    out = verify_reduced_solution(reduced, ReducedSolution(chosen=chosen, assignments=missing))
    assert any("missing assignment" in v for v in out)

    uncovered = {key: {b: frozenset() for b in bins} for key, bins in good.items()}
    out = verify_reduced_solution(reduced, ReducedSolution(chosen=chosen, assignments=uncovered))
    assert any("does not cover" in v for v in out)

    ghost = frozenset({ReducedElement("i", 3), ReducedElement("zz", 0)})
    out = verify_reduced_solution(reduced, ReducedSolution(chosen=ghost, assignments=good))
    assert any("not part of the reduced instance" in v for v in out)


def test_matroid_violation_detected():
    inst = two_stage_single_item()
    reduced = reduce_instance(inst)
    pair = frozenset({ReducedElement("i", 1), ReducedElement("i", 2)})
    assignments = {
        (rc.stage, rc.index): {min(rc.bins): pair, **{b: frozenset() for b in rc.bins if b != min(rc.bins)}}
        for rc in reduced.constraints
    }
    out = verify_reduced_solution(reduced, ReducedSolution(chosen=pair, assignments=assignments))
    assert any("matroid violation" in v for v in out)


def test_optimum_preserved_small_sweep():
    """Reduced optimum equals the multistage optimum on a shape sweep."""
    count = 0
    for inst in sweep_instances(fillings=1):
        reduced = reduce_instance(inst)
        rsol = solve_mkcp_exact(reduced)
        opt = evaluate_objective(inst, brute_force_gmk(inst).sets)
        assert reduced.value_of(rsol.chosen) == opt
        lifted = lift_solution(inst, rsol, reduced)
        assert evaluate_objective(inst, lifted.sets) == opt
        count += 1
    assert count == 36


def test_submodular_reduction_keeps_everything():
    inst = gen_random(GenParams(items=2, horizon=3, variant="submodular"), 5)
    reduced = reduce_instance(inst)
    assert len(reduced.elements) == 2 * 8
    # one table holds the gains; the objective reads the same one
    assert reduced.objective is not None and reduced.objective.schedules is reduced.schedules


# sha256 of the canonical reduced-instance JSON of seeds 0..5, recorded
# before the reduction kept one mask-to-value table per item
GOLDEN_REDUCE = {
    "two_bin_d2_t4": (
        GenParams(items=3, horizon=4, dimension=2, bins_per_mkc=2),
        [
            "2cc733189eded3ce658e549b89856cb918b7352512c576157681a0bb0c28ad9b",
            "a3d9e85921877384f2e0af309f8604f5c817773ddbf4d295bc9eb63da336ec10",
            "d44a0f0feb8b218ec13e2ce3ef03cba94e2859a2e5af597eee76cefe636559cb",
            "60c036ced6301a6814e66ce886571e06b380ce459521e2539db60208bdb492bc",
            "60765d9b4ca7ea897b6d6756fb5a7300e8d8c05c14e72bc2da46c383c0e6d542",
            "a6a297163916c3624e4f066cb216ba9f694c0f07a5769c76d0a13be299dc31b5",
        ],
    ),
    # profits, gains and costs in 0:1: many ties and many negative schedules dropped
    "tie_heavy_t4": (
        GenParams(
            items=3, horizon=4, dimension=2, bins_per_mkc=2, weight_range=(0, 2),
            capacity_range=(0, 3), profit_range=(0, 1), gain_range=(0, 1), cost_range=(0, 1),
        ),
        [
            "cc2a3ebf1754e9b0eecb028dad1b5bbc0a1b206d5d298cd75ac28589e0eb957b",
            "fc03e2a48781cc03739bbffe662d2af6aeceb15f36f666f0f28dc8d32161326f",
            "474743e734f170dfeb2f30bab0c8be627be8e0233c898cb3e3c5ae6b43c421fc",
            "d26d5e03115f202cd11289eb265445063d292e3258e1edc8bf34c3f1823c5720",
            "38cc09e90887d2cea883139366123353ec24fe118142567fce1b24aa7f4317e1",
            "044b9d1dd0f401817dadf342e2827315d4b6b7149bbbeff45480f5f41431802f",
        ],
    ),
    "submodular_t3": (
        GenParams(items=3, horizon=3, variant="submodular"),
        [
            "8261ca1dac44f22feaf3cc8bea45ff1fa35ee264d8319be392cb961a0e92814f",
            "d1ab21a6f1b126071118314118af0fe8f3fcb677b80c585c7751064caa9851b4",
            "67918e41239ce6cd9d96e15ecb6588b5ceb835410d38bd9c52a68da3b6285363",
            "67dcc1d3d3473648a05e6e864a3dcc6ade4012f44e19b2f191fe4ac5d28ebd58",
            "8419581b3bf2608eec91cb3b09f6ac41fa6aa26905b338993bdc8a3fdc4764d6",
            "e4def8900823c99ecdf9f10caba7d94e12333363d0788b58ee82ba1e6ebb0f70",
        ],
    ),
}


@pytest.mark.parametrize("shape", sorted(GOLDEN_REDUCE))
def test_reduce_golden_digests_and_read_back(shape):
    params, digests = GOLDEN_REDUCE[shape]
    dropped = 0
    for seed, digest in enumerate(digests):
        reduced = reduce_instance(gen_random(params, seed))
        dropped += len(reduced.items) * 2**reduced.horizon - len(reduced.elements)
        payload = canonical_dumps(reduced_to_dict(reduced))
        assert hashlib.sha256(payload.encode()).hexdigest() == digest, seed
        again = reduced_from_dict(reduced_to_dict(reduced))
        assert canonical_dumps(reduced_to_dict(again)) == payload, seed
    # modular shapes drop negative schedules; the submodular reduction keeps every one
    assert (dropped == 0) == (params.variant == "submodular")
