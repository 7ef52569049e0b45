"""The exhaustive dynamic-programming oracle."""

from __future__ import annotations

import hashlib
import itertools
import random

import pytest

from gmk import core, cutting, mkcp, oracle
from gmk.cli import main
from gmk.core import McpStage, Mkc, check_feasible, coupling_terms, evaluate_objective
from gmk.cutting import CutPointSet, solve_bounded_horizon
from gmk.errors import BudgetExceededError, ContractViolationError
from gmk.generators import GenParams, gen_random
from gmk.mkcp import Capacities
from gmk.reduction import DEFAULT_ENUM_BUDGET as DEFAULT_ORACLE_BUDGET
from gmk.oracle import StageRows, brute_force_gmk, max_plus_masks, packable_row
from gmk.serialize import canonical_dumps, dumps, instance_to_dict, solution_to_dict, write_json

from util import (
    build_instance,
    enumerate_optimum,
    full_table_oracle,
    held_rows,
    knapsack_dp,
    packable_sets,
    packs_by_every_map,
    single_bin_stage,
)

TIE_HEAVY = dict(
    dimension=2, bins_per_mkc=2, weight_range=(0, 2), capacity_range=(0, 3),
    profit_range=(0, 1), gain_range=(0, 1), cost_range=(0, 1),
)


def test_empty_instance_value_zero():
    inst = gen_random(GenParams(items=0, horizon=2), 0)
    sol = brute_force_gmk(inst)
    assert evaluate_objective(inst, sol.sets) == 0


def test_single_stage_is_classic_knapsack():
    for seed in range(15):
        inst = gen_random(
            GenParams(
                items=4, horizon=1, capacity_range=(3, 9), profit_range=(0, 6),
                cost_range=(0, 2),
            ),
            seed,
        )
        sol = brute_force_gmk(inst)
        weights = inst.stage(1).mkcs[0].weights
        capacity = inst.stage(1).mkcs[0].capacities["b1"]
        # at T=1 entry and exit costs both bite, so they fold into the profit
        folded = [
            (inst.item_profit(1, i) - inst.cost_plus[i, 1] - inst.cost_minus[i, 1], weights[i])
            for i in inst.items
        ]
        keepers = [(p, w) for p, w in folded if p > 0]
        expected = knapsack_dp([p for p, _ in keepers], [w for _, w in keepers], capacity)
        assert evaluate_objective(inst, sol.sets) == expected


def test_matches_literal_sequence_enumeration():
    for seed in range(25):
        inst = gen_random(
            GenParams(items=2, horizon=3, dimension=2, bins_per_mkc=2, cost_range=(0, 3)), seed
        )
        sol = brute_force_gmk(inst)
        best_value, _ = enumerate_optimum(inst)
        assert evaluate_objective(inst, sol.sets) == best_value
        assert check_feasible(inst, sol).ok


def test_submodular_instances_supported():
    for seed in range(8):
        inst = gen_random(GenParams(items=3, horizon=3, variant="submodular"), seed)
        sol = brute_force_gmk(inst)
        best_value, _ = enumerate_optimum(inst)
        assert evaluate_objective(inst, sol.sets) == best_value


def test_budget_refusal():
    inst = gen_random(GenParams(items=3, horizon=3), 0)
    with pytest.raises(BudgetExceededError):
        brute_force_gmk(inst, work_budget=10)


def test_budget_counts_the_dp_work_at_the_boundary():
    # the DP's T * |I| * 2**|I| additions, not the T * 4**|I| of a full transition table
    inst = gen_random(GenParams(items=5, horizon=4), 0)
    work = 4 * 5 * 2**5
    assert brute_force_gmk(inst, work_budget=work) == brute_force_gmk(inst)
    with pytest.raises(BudgetExceededError, match=f"DP work {work} .* exceeds budget {work - 1}"):
        brute_force_gmk(inst, work_budget=work - 1)


def test_respects_stage_packability():
    items = ["i"]
    # item never fits stage 2, so staying packed both stages is impossible
    stages = [
        single_bin_stage(items, {"i": 1}, 1, {"i": 9}),
        single_bin_stage(items, {"i": 5}, 1, {"i": 9}),
    ]
    inst = build_instance(items, stages)
    sol = brute_force_gmk(inst)
    assert sol.sets[1] == frozenset()
    assert evaluate_objective(inst, sol.sets) == 9


def _huge_gain_instance():
    items = ["i"]
    huge = 10**400
    # stage 1 cannot hold the item, so the DP meets an unreachable predecessor
    # next to a transition term far beyond any float
    stages = [
        single_bin_stage(items, {"i": 5}, 1, {"i": 0}),
        single_bin_stage(items, {"i": 1}, 1, {"i": huge}),
    ]
    gain_plus = {("i", 2): huge}
    return build_instance(items, stages, gain_plus=gain_plus, gain_minus={("i", 2): 0})


def test_exact_beyond_float_range():
    inst = _huge_gain_instance()
    sol = brute_force_gmk(inst)
    assert sol.sets == (frozenset(), frozenset({"i"}))
    assert evaluate_objective(inst, sol.sets) == 10**400


def test_witness_deterministic():
    inst = gen_random(GenParams(items=3, horizon=3, dimension=2), 9)
    a = brute_force_gmk(inst)
    b = brute_force_gmk(inst)
    assert a == b


# sha256 of the oracle's solution JSON for seeds 0..9, recorded while the
# DP still called a per-pair transition function and packed every subset
GOLDEN_ORACLE = {
    "greedy_oracle": (
        GenParams(items=6, horizon=10, dimension=2, bins_per_mkc=2, capacity_range=(4, 12), target_phi=1),
        [
            "3cee6c223b7f0eb206155d6cd13c65dc188932c6b28c57f116415d31d91bf0e0",
            "f23771e3e1f316b5ed65b0a9b7e0d4ce5f45c2d5c0819b3b3fa3659ac2d1a99c",
            "42b62d1692de1eaa5566115975536112bdd8fc8baf4fc43db838380f90b7dc62",
            "71045280a0f56daebb8a4b711617bf926b048c5b6676f1bff01282d322e441f2",
            "121c0e18778fa11417bfab9db5e05485278e5dd3a40433c77e57c0e0c5da8445",
            "94daaf3635c3da525bc766de6b8232af17b4772e14807672e74a8deb49274771",
            "d6da7272043e3099bc20a0a97ceb42bd1377e9e8e079d95e1627315a36659cb2",
            "f15b0a2863d76d48ea99256949dbba64c6a602db22690d6856d67f014a931944",
            "c5080cd073181c8510b166a4cfe2cbef3246ec6d2bc3abe15db4c28064a0af32",
            "9cdda6d17125e14a04a017c306e3cfd7760e0a2feed0aff8b68bf5c2fc1a4adb",
        ],
    ),
    "tie_heavy": (
        GenParams(items=4, horizon=5, **TIE_HEAVY),
        [
            "e6161e0c33f304d3022174e34af0ace93d81b0deed07c34fd95c2eb636fcb3e7",
            "a8640e8c4e5a6e78522f780b7c4e27e7e2607ca4af70ed977a07db47bfd00c0b",
            "97295dfe293472867c42870d4e8b3c613b4200d300fae672027a68fdcb34ec27",
            "1f96cbcf64e63eb32c927dfeec97f3078dd8d819f28b571fd2d711ed8052bf85",
            "3929bfd56660b3f5b243f08a1f91ab2079e5ff6cd8ca80bf0a2a7ca38828d2dd",
            "328353b0d36c291ea5880d39f1e8dc6dca863d0913188a669450df7dbd594a59",
            "b11106ae9522a763d6de7fa1dd70a94eb4526625702d1bd03d7c74cbfcbd942f",
            "482eca6cd1ba2ddded7e16249087bd87ea0afea05d0fbfd2eb07f3bf27f445ca",
            "26968bc8bbf4630d67cdd211b7e8631e556e4a7533d8e1eaf1ab20de30458791",
            "49491779c160d4a36135726cfdde9da9ad67c3aaf2079d96ba7feb24b7331910",
        ],
    ),
    "tight_three_bin": (
        GenParams(items=5, horizon=4, dimension=2, bins_per_mkc=3, capacity_range=(1, 5)),
        [
            "8163e00f6f3085a018e00d65b6f91b54b78a2b3d68751989d457401b8656b2b9",
            "0db451fc53e6de6dd78e7c05eb784a0d1ab8c9bf5e0f6b06180ca0102a5fbb5e",
            "51ba994ce971bd77afb2f0f13538ac1c2753e6598dd8f9a91ea611897768167d",
            "836e20488b4b91d3080f50d93a02a2c8a737d86ab39f8df6bc6f4f8054f68223",
            "a48247179ea445cc6cfbf96e0416cf0d67d81bd60cd9e12eeef972ab93fc4b44",
            "96e0ec6c95ea78f1ececa7f9a333cde3a4ce33b07cca1b822c54d2b8604103ea",
            "b488a526c7e0abc410b3d4428372a379654cb8c8330b62b2a7a1c2a9a1cc74f9",
            "4fc4c52c93bf8af02c17d2b79353b191c76d09250b07ad76ec8445ce7a39e8e2",
            "b62c484193377ac4294079d5e67f386a733b0b84753fcc1c28179b6bdce1a9d5",
            "2f7762ef903ade78d23d918cb421ea537492e133afa06141b8bb0a06853ca5a5",
        ],
    ),
    "submodular": (
        GenParams(items=5, horizon=4, bins_per_mkc=2, variant="submodular"),
        [
            "bb307553890a139de5c62e21285ed21d9f1e1e84de90b4ff1f7a28c57fa7ced8",
            "bfc8b669d5b7bcbfd124c26576ac9a751070e40e433dbd6086ff87b57758642e",
            "49f99b1ac783e1017449ca349e73fab254b82299c090b7f563c0a155b8a26bc1",
            "30f2ccc69d522ebca4ebefdfdafac854ad6187b8847464e465a2d2bdc6e17eff",
            "9a489b8f43774067467361acabfd85ef3bfbc4710caf758a98db4df5080ed507",
            "1ba93f12ba92aa99817b8c2961b5bff40f98fa57489a5372212a75031ab379c3",
            "0a62a540a426a5515c82d3f8f42878ed3fb3acea824864667a4552b47dd40d4d",
            "c90a36d8ee4043348e6dfcc8b35049b1bf55efdbb7dde5e456a8f7fc51784808",
            "f8726cee6fdbdb3f407519736fc501c24f1721062c2db6a3827a1aedff533502",
            "2bfff98fba9617d5d8822e6ad9b3cf36172335ad96ac834e5429bc2b1e12d677",
        ],
    ),
}


@pytest.mark.parametrize("shape", sorted(GOLDEN_ORACLE))
def test_golden_digests_pin_tie_break_and_witness(shape):
    params, digests = GOLDEN_ORACLE[shape]
    for seed, digest in enumerate(digests):
        payload = dumps(solution_to_dict(brute_force_gmk(gen_random(params, seed))))
        assert hashlib.sha256(payload.encode()).hexdigest() == digest, seed


def _mixed_stages(seed):
    """Six items, some weightless, over three stages of mixed constraints.

    Stage 1 holds a constraint with no bin, a one-bin constraint and a
    three-bin constraint with a zero-capacity bin; stage 2 drops the
    binless one and stage 3 holds one-bin constraints only.
    """
    rng = random.Random(seed)
    items = "abcdef"

    def mkc(caps):
        weights = {i: rng.choice((0, 0, 1, 2, 3, 4)) for i in items}
        return Mkc(weights=weights, bins=tuple(caps), capacities=caps)

    binless = mkc({})
    one = mkc({"b": rng.randint(2, 8)})
    three = mkc({"x": 0, "y": rng.randint(2, 6), "z": rng.randint(2, 6)})
    profit = {i: 1 for i in items}
    stages = [(binless, one, three), (one, three), (one, mkc({"c": rng.randint(0, 6)}))]
    return build_instance(items, [McpStage(mkcs=mkcs, profit=profit) for mkcs in stages])


@pytest.mark.parametrize(
    "params",
    [
        GenParams(items=5, horizon=3, dimension=2, bins_per_mkc=3, capacity_range=(1, 5)),
        GenParams(items=4, horizon=4, dimension=2, bins_per_mkc=1, capacity_range=(1, 5)),
        GenParams(items=8, horizon=2, dimension=2, bins_per_mkc=2, weight_range=(1, 6),
                  capacity_range=(3, 9)),
        GenParams(items=7, horizon=2, dimension=2, bins_per_mkc=3, weight_range=(0, 5),
                  capacity_range=(0, 7)),
        GenParams(items=8, horizon=2, dimension=1, bins_per_mkc=4, weight_range=(0, 6),
                  capacity_range=(1, 6)),
        "mixed",
    ],
)
def test_packable_rows_match_packing_every_subset(params, monkeypatch):
    packer = []
    real_packer = mkcp.pack_assignment

    def counted(*args, **kwargs):
        packer.append(args)
        return real_packer(*args, **kwargs)

    placed = []
    real_place = oracle.place

    def counted_place(*args, **kwargs):
        placed.append(args)
        return real_place(*args, **kwargs)

    monkeypatch.setattr(mkcp, "pack_assignment", counted)
    monkeypatch.setattr(oracle, "place", counted_place)
    unpackable = searched = 0
    for seed in range(6):
        inst = _mixed_stages(seed) if params == "mixed" else gen_random(params, seed)
        for t in range(1, inst.horizon + 1):
            searched += len(placed)
            packer.clear()
            placed.clear()
            row = packable_row(inst, t)
            # rows ask ``place`` directly, never the naming packer
            assert packer == [], (seed, t)
            # the lanes alone decide every constraint of one or two bins
            assert all(len(caps) >= 3 for caps, _ in placed), (seed, t)
            if all(len(mkc.bins) <= 2 for mkc in inst.stage(t).mkcs):
                assert placed == [], (seed, t)
            got = {
                frozenset(i for k, i in enumerate(inst.items) if (m >> k) & 1)
                for m, ok in enumerate(row)
                if ok
            }
            assert got == set(packable_sets(inst, t)), (seed, t)
            mkcs = inst.stage(t).mkcs
            for m, ok in enumerate(row):
                members = [i for k, i in enumerate(inst.items) if m >> k & 1]
                assert ok == all(
                    packs_by_every_map(list(mkc.capacities.values()), [mkc.weights[i] for i in members])
                    for mkc in mkcs
                ), (seed, t, m)
            unpackable += row.count(False)
    # tight capacities leave many subsets unpackable, so the closure is exercised
    assert unpackable > 100
    # and the spy sees the searches that stages with three bins or more make
    assert (searched > 0) == (params == "mixed" or params.bins_per_mkc >= 3)


@pytest.mark.parametrize("unit", [2**40, 10**30], ids=["past_32_bits", "past_64_bits"])
def test_packable_rows_hold_weights_past_machine_words(unit, monkeypatch):
    # Screen lanes widen with the capacities. Sums of up to five weights near
    # 2**40 still fit numpy's int64, so every map is tried; near 10**30 the
    # reference is the packer of each subset.
    placed = []
    real_place = oracle.place
    monkeypatch.setattr(oracle, "place", lambda *args: placed.append(args) or real_place(*args))
    params = GenParams(items=5, horizon=3, dimension=2, bins_per_mkc=3,
                       weight_range=(unit, 3 * unit), capacity_range=(unit, 5 * unit))
    flags = []
    for seed in range(4):
        inst = gen_random(params, seed)
        for t in range(1, inst.horizon + 1):
            row = packable_row(inst, t)
            subsets = [frozenset(i for k, i in enumerate(inst.items) if m >> k & 1) for m in range(len(row))]
            if unit < 2**62:
                expected = [
                    all(
                        packs_by_every_map([mkc.capacities[b] for b in mkc.bins], [mkc.weights[i] for i in s])
                        for mkc in inst.stage(t).mkcs
                    )
                    for s in subsets
                ]
            else:
                packable = set(packable_sets(inst, t))
                expected = [s in packable for s in subsets]
            assert list(row) == expected, (seed, t)
            flags += expected
    # both outcomes occur, and some subsets are left for the search to decide
    assert 0 < flags.count(True) < len(flags) and placed


def _two_bin_stage(rng, case):
    """One stage over six items: two two-bin constraints of the case's shape, or a 1-, 2- and 3-bin one."""
    items = "abcdef"
    unit = {"past_32_bits": 2**40, "past_64_bits": 10**30}.get(case, 1)
    c1 = rng.randint(4, 9)
    shapes = {
        "equal_capacities": [[c1, c1], [c1, c1]],
        "zero_capacity_bin": [[c1, 0], [0, c1]],
        "mixed_bins": [[c1], [c1, rng.randint(1, c1)], [c1, rng.randint(1, c1), rng.randint(0, c1)]],
    }.get(case, [[c1, rng.randint(1, c1)], [rng.randint(1, c1), c1]])

    def mkc(caps):
        low = 0 if case == "zero_weights" else 1
        # a weight near k * unit, nudged off the multiple where unit is large
        weights = {i: rng.randint(low, 5) * unit + rng.randint(0, unit >> 3) for i in items}
        if case == "above_c1":
            weights[rng.choice(items)] = max(caps) * unit + 1
        bins = tuple(f"b{j}" for j in range(len(caps)))
        return Mkc(weights=weights, bins=bins, capacities={b: c * unit for b, c in zip(bins, caps)})

    return McpStage(mkcs=tuple(map(mkc, shapes)), profit={i: 1 for i in items})


@pytest.mark.parametrize(
    "case",
    ["equal_capacities", "zero_capacity_bin", "zero_weights", "above_c1", "past_32_bits", "past_64_bits",
     "mixed_bins"],
)
def test_two_bin_rows_match_every_map_without_place(case, monkeypatch):
    # A constraint of at most two bins is decided in lanes, by a subset max
    # and one compare, so ``place`` sees only constraints of three bins or
    # more. The subsets that fit neither the largest bin alone nor fail the
    # total, which the screen used to leave open, are decided both ways.
    placed = []
    real_place = oracle.place
    monkeypatch.setattr(oracle, "place", lambda *args: placed.append(args) or real_place(*args))
    rng = random.Random(case)
    flags, decided = [], []
    for _ in range(6):
        stage = _two_bin_stage(rng, case)
        inst = build_instance("abcdef", [stage])
        row = packable_row(inst, 1)
        for m, ok in enumerate(row):
            members = [i for k, i in enumerate(inst.items) if m >> k & 1]
            verdicts = []
            for mkc in stage.mkcs:
                caps, weights = sorted(mkc.capacities.values(), reverse=True), [mkc.weights[i] for i in members]
                verdicts.append(packs_by_every_map(caps, weights))
                if len(caps) == 2 and Capacities.of(caps).fit(sum(weights), max(weights, default=0)) is None:
                    decided.append(verdicts[-1])
            assert ok == all(verdicts), (case, m)
            flags.append(ok)
    assert all(len(caps) >= 3 for caps, _ in placed)
    assert True in flags and False in flags
    if case != "zero_capacity_bin":
        assert True in decided and False in decided, decided


def test_matches_enumeration_on_tie_heavy_instances():
    for seed in range(10):
        inst = gen_random(GenParams(items=3, horizon=4, **TIE_HEAVY), seed)
        sol = brute_force_gmk(inst)
        best_value, _ = enumerate_optimum(inst)
        assert evaluate_objective(inst, sol.sets) == best_value
        assert check_feasible(inst, sol).ok


# the benchmark's four corpora, and shapes that stress ties, packability and edges
FULL_TABLE_CORPORA = {
    "exact_bypass": (GenParams(
        items=3, horizon=10, weight_range=(1, 4), capacity_range=(3, 7), profit_range=(1, 5),
        gain_range=(0, 2), cost_range=(1, 1), target_phi=1,
    ), 12),
    "cut_multibin": (GenParams(
        items=3, horizon=40, dimension=2, bins_per_mkc=2, capacity_range=(3, 8), target_phi=1,
    ), 6),
    "greedy_oracle": (GOLDEN_ORACLE["greedy_oracle"][0], 16),
    "submod_exact": (GenParams(items=3, horizon=4, variant="submodular"), 12),
    "tie_heavy": (GenParams(items=5, horizon=5, **TIE_HEAVY), 20),
    "submodular_two_bin_d2": (GenParams(
        items=6, horizon=4, dimension=2, bins_per_mkc=2, gain_range=(0, 1), variant="submodular",
    ), 8),
    "no_items": (GenParams(items=0, horizon=3), 2),
    "one_stage": (GenParams(items=4, horizon=1, capacity_range=(3, 9), cost_range=(0, 3)), 10),
}


@pytest.mark.parametrize("shape", [*FULL_TABLE_CORPORA, "mixed", "huge"])
def test_per_item_passes_match_the_full_table_byte_for_byte(shape):
    # the full cur x prev table keeps the first maximal predecessor; the
    # passes plus the recomputed backtrack must pick the same witness
    if shape == "mixed":
        instances = [_mixed_stages(seed) for seed in range(8)]
    elif shape == "huge":
        instances = [_huge_gain_instance()]
    else:
        params, seeds = FULL_TABLE_CORPORA[shape]
        instances = [gen_random(params, seed) for seed in range(seeds)]
    for k, inst in enumerate(instances):
        got = canonical_dumps(solution_to_dict(brute_force_gmk(inst)))
        assert got == canonical_dumps(solution_to_dict(full_table_oracle(inst))), k


def test_modular_optimum_builds_only_the_sets_it_picks():
    # a modular profit row is a subset sum, so of the 2**14 masks only the
    # optimum's stage sets are built, once each; a submodular row needs every subset
    inst = gen_random(GenParams(items=14, horizon=3, target_phi=1), 0)
    rows = StageRows(inst)
    solution, _ = rows.optimum()
    assert 1 <= len(rows.subsets) <= inst.horizon
    assert set(rows.subsets.values()) == set(solution.sets)
    rows = StageRows(gen_random(GenParams(items=4, horizon=1, variant="submodular"), 0))
    rows.optimum()
    assert len(rows.subsets) == 2**4


def test_matches_the_whole_horizon_stage_dp_past_the_full_table_reach(lane_widths):
    # two exact DPs with independent term encodings; a full table's T * 4**|I|
    # exceeds the default budget here, the passes' T * |I| * 2**|I| fits it.
    # The stage DP's 600-bit tie-break cells take the list passes, the
    # oracle's plain values 32-bit lanes.
    params = GenParams(items=10, horizon=60, dimension=2, bins_per_mkc=2, target_phi=1)
    assert 60 * 4**10 > DEFAULT_ORACLE_BUDGET >= 60 * 10 * 2**10
    for seed in range(3):
        inst = gen_random(params, seed)
        sets, _ = solve_bounded_horizon(StageRows(inst), 1, inst.horizon, "exact")
        oracle = brute_force_gmk(inst)
        assert check_feasible(inst, oracle).ok
        assert evaluate_objective(inst, oracle.sets) == evaluate_objective(inst, sets), seed
    assert lane_widths == [None, 32] * 3


@pytest.mark.parametrize("stage", [0, 1, 2])
def test_engine_refuses_rows_where_the_empty_set_does_not_pack(stage):
    # with no item the empty set is the only one; a value reached through the
    # floor at a later stage must not pass for a packable sequence
    packable = [[True], [True], [True]]
    packable[stage] = [False]
    assert _engine([[1], [2], [3]], [], [[True]] * 3) == (6, [0, 0, 0])
    with pytest.raises(ContractViolationError, match="no packable subset sequence"):
        _engine([[1], [2], [3]], [], packable)


def _engine(rows, chains, packable):
    """``max_plus_masks`` on the held rows of these cell lists."""
    return max_plus_masks(held_rows(rows), chains, held_rows(packable), oracle.link_span(chains))


def _span(rows, links):
    return sum(abs(v) for row in rows for v in row) + sum(
        abs(v) for link in links for term in link for pair in term for v in pair
    )


def _engine_outcome(rows, links, packable, lanes=True):
    """``max_plus_masks``' (top, masks) or refusal message, or the list passes' for ``lanes=False``."""
    try:
        if lanes:
            # each item's links as a chain with zero entry and exit terms
            zero = ((0, 0), (0, 0))
            chains = [[zero, *[link[k] for link in links], zero] for k in range(len(rows[0]).bit_length() - 1)]
            return _engine(rows, chains, packable)
        ends = [0] * (len(rows[0]).bit_length() - 1)
        return oracle._max_plus(held_rows(rows), (ends, ends), links, held_rows(packable), _span(rows, links), None)
    except ContractViolationError as err:
        return str(err)


def _engine_case(rng, n, horizon, magnitude, share):
    """Seeded rows and link terms in +-magnitude; each nonempty set packs with chance ``share``."""
    size = 1 << n
    rows = [[rng.randint(-magnitude, magnitude) for _ in range(size)] for _ in range(horizon)]
    links = [
        [tuple(tuple(rng.randint(-magnitude, magnitude) for _ in "pq") for _ in "io") for _ in range(n)]
        for _ in range(horizon - 1)
    ]
    packable = [[m == 0 or rng.random() < share for m in range(size)] for _ in range(horizon)]
    return rows, links, packable


@pytest.mark.parametrize("n", [0, 1, 2, 3, 6, 8])
def test_lane_passes_match_the_list_passes(n, lane_widths):
    # magnitude 0 gives all-zero rows (span 0), share 0 stages where only the
    # empty set packs, and a stage where nothing packs the refusal
    rng = random.Random(n)
    outcomes = []
    for horizon in (1, 2, 5):
        for magnitude in (0, 1, 50, 10**6):
            for share in (0.0, 0.5, 1.0):
                rows, links, packable = _engine_case(rng, n, horizon, magnitude, share)
                if share == 0.5 and magnitude == 50:
                    packable[rng.randrange(horizon)] = [False] * (1 << n)
                lane_widths.clear()
                outcomes.append(_engine_outcome(rows, links, packable))
                assert lane_widths[0] is not None
                assert outcomes[-1] == _engine_outcome(rows, links, packable, lanes=False)
    assert outcomes.count("no packable subset sequence exists (empty set must pack)") == 3


def _chain_value(bits, chain):
    """One item's chain terms along its schedule ``bits``, out before the first stage and after the last."""
    return sum(term[cur][prev] for term, prev, cur in zip(chain, [0, *bits], [*bits, 0]))


def _best_schedules(rows, chain, packable):
    """Brute force over one item's 2**T schedules: the best value and its schedules by ascending mask."""
    horizon = len(rows)
    best, schedules = None, []
    for mask in range(1 << horizon):
        bits = [mask >> t & 1 for t in range(horizon)]
        if all(ok[b] for ok, b in zip(packable, bits)):
            value = sum(row[b] for row, b in zip(rows, bits)) + _chain_value(bits, chain)
            if best is None or value > best:
                best, schedules = value, []
            if value == best:
                schedules.append(bits)
    return best, schedules


def _redraw_unread(rng, chain):
    """``chain`` with new entry terms at in_prev = 1 and exit terms at in_cur = 1, the slots never read."""
    (out, _), (into, _) = chain[0]
    a, b, c, d = (rng.randint(-9, 9) for _ in range(4))
    return [((out, a), (into, b)), *chain[1:-1], (chain[-1][0], (c, d))]


def test_one_item_backtrack_picks_the_smallest_best_schedule(monkeypatch):
    # With one item, the first maximum at the last stage, then at each
    # predecessor (0 before 1), is the smallest schedule mask, latest stage
    # most significant, of best value: the order a tie-break key would give.
    # Rows and terms take few values, so most cases tie; the chains carry
    # core.coupling_terms' entry, cut and exit terms, as greedy shifts do, or
    # random terms in all four slots of every boundary. At T = 1 the entry
    # and exit terms fold into the one row.
    rng = random.Random(32)
    real = oracle._max_plus
    ties = 0
    for case in range(240):
        horizon = rng.randint(1, 9)
        rows = [[rng.randint(0, 1), rng.randint(0, 1)] for _ in range(horizon)]
        packable = [(True, rng.random() < 0.8) for _ in range(horizon)]
        if case % 2:
            params = GenParams(items=1, horizon=horizon, gain_range=(0, 1), cost_range=(0, 1))
            inst = gen_random(params, case)
            interior = rng.sample(range(2, horizon + 1), rng.randint(0, horizon - 1))
            windows = CutPointSet((1, *sorted(interior), horizon + 1)).windows()
            chain = coupling_terms(inst, inst.items[0], windows)
        else:
            chain = [
                tuple(tuple(rng.randint(-1, 1) for _ in "pq") for _ in "io") for _ in range(horizon + 1)
            ]
        best, schedules = _best_schedules(rows, chain, packable)
        for width in [*oracle._LANE_CODES, None]:
            monkeypatch.setattr(oracle, "_max_plus", lambda *args, w=width: real(*args[:-1], w))
            for terms in (chain, _redraw_unread(rng, chain)):
                assert _engine(rows, [terms], packable) == (best, schedules[0]), (case, width)
        ties += len(schedules) > 1
    assert ties >= 120, ties


@pytest.mark.parametrize("n", [0, 1, 3, 5])
def test_all_zero_terms_backtrack_as_the_list_passes_do(n, monkeypatch, lane_widths):
    # Every cell and term is 0, so every packable set ties at every stage:
    # the guard-bit backtrack marks every packable predecessor's lane and
    # must take the lowest, as the list backtrack's first maximum does.
    rng = random.Random(n)
    real = oracle._max_plus
    for horizon in (1, 2, 4):
        rows = [[0] * (1 << n)] * horizon
        chains = [[((0, 0), (0, 0))] * (horizon + 1)] * n
        packable = [[m == 0 or rng.random() < 0.6 for m in range(1 << n)] for _ in range(horizon)]
        outcomes = []
        for width in (32, 64, None):
            monkeypatch.setattr(oracle, "_max_plus", lambda *args, w=width: real(*args[:-1], w))
            outcomes.append(_engine(rows, chains, packable))
        assert outcomes[0] == outcomes[1] == outcomes[2] == (0, [0] * horizon)
    assert lane_widths == [32, 64, None] * 3


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_entry_and_exit_terms_count_for_every_item(n):
    # Random terms in all four slots of every boundary, entry and exit
    # included: the engine's top is the best value over every packable set
    # sequence, and its masks are worth the top, at T = 1 too.
    rng = random.Random(n)
    size = 1 << n
    for horizon in (1, 2, 3):
        for _ in range(4):
            rows, _, packable = _engine_case(rng, n, horizon, 5, 0.7)
            chains = [
                [tuple(tuple(rng.randint(-5, 5) for _ in "pq") for _ in "io") for _ in range(horizon + 1)]
                for _ in range(n)
            ]

            def value(masks):
                items = sum(_chain_value([m >> k & 1 for m in masks], chain) for k, chain in enumerate(chains))
                return sum(row[m] for row, m in zip(rows, masks)) + items

            def packs(masks):
                return all(ok[m] for ok, m in zip(packable, masks))

            top, masks = _engine(rows, chains, packable)
            sequences = itertools.product(range(size), repeat=horizon)
            assert packs(masks) and top == value(masks) == max(map(value, filter(packs, sequences)))


@pytest.mark.parametrize("width, wider", [(32, 64), (64, None)])
def test_lane_width_follows_the_span(width, wider, lane_widths):
    # A lane holds a cell's value biased by 4 * span + 1, so 0..5 * span + 1,
    # below its guard bit. At the limit the cells take this width, one past
    # it the next width, or the list passes past 64 bits.
    limit = ((1 << width - 1) - 2) // 5
    rng = random.Random(width)
    for span, expected in ((limit, width), (limit + 1, wider)):
        rows, links, packable = _engine_case(rng, 3, 4, 9, 0.5)
        rows[-1][-1] = -(span - _span(rows, links) + abs(rows[-1][-1]))
        cases = [
            # one sequence worth span, the highest lane, and one that drops
            # from the floor by span - 1, near the lowest
            ([[span - 2], [1], [1]], [(), ()], [[True]] * 3),
            ([[-1], [-1], [2 - span]], [(), ()], [[False], [True], [True]]),
            (rows, links, packable),
        ]
        lane_widths.clear()
        for case in cases:
            assert _span(*case[:2]) == span
            assert _engine_outcome(*case) == _engine_outcome(*case, lanes=False)
        assert lane_widths == [expected, None] * len(cases)


# the command and instance shape of each perfbench workload
BENCHMARK_SHAPES = {
    "exact_bypass": (
        ("compare", "--sub-solver", "exact"),
        GenParams(items=3, horizon=10, weight_range=(1, 4), capacity_range=(3, 7),
                  profit_range=(1, 5), gain_range=(0, 2), cost_range=(1, 1), target_phi=1),
    ),
    "cut_multibin": (
        ("solve", "--mu-inv", "4", "--sub-solver", "exact"),
        GenParams(items=3, horizon=40, dimension=2, bins_per_mkc=2, capacity_range=(3, 8), target_phi=1),
    ),
    "greedy_oracle": (
        ("compare", "--sub-solver", "greedy"),
        GenParams(items=6, horizon=10, dimension=2, bins_per_mkc=2, capacity_range=(4, 12), target_phi=1),
    ),
    "submod_exact": (
        ("compare", "--sub-solver", "exact"),
        GenParams(items=3, horizon=4, variant="submodular"),
    ),
}


def test_held_rows_enter_lanes_once_per_width(tmp_path, monkeypatch, lane_widths):
    # cut_multibin's shape through compare: its four exact shifts (64-bit
    # lanes) and the oracle (32-bit lanes) read one stage table. Each held
    # row is built once per lane width, in lane arithmetic: no engine call
    # converts a row through an array.
    path = tmp_path / "inst.json"
    write_json(path, instance_to_dict(gen_random(BENCHMARK_SHAPES["cut_multibin"][1], 1_000_003)))
    held, built, converted = [], [], []
    real_missing, real_convert = StageRows.__missing__, core.array_lanes

    def missing(rows, t):
        # each held row records every form it builds
        for row in real_missing(rows, t):
            make = row._make
            row._make = lambda width, row=row, make=make: built.append((row, width)) or make(width)
            held.append(row)
        return rows[t]

    monkeypatch.setattr(StageRows, "__missing__", missing)
    monkeypatch.setattr(core, "array_lanes", lambda *args: converted.append(args) or real_convert(*args))
    argv = ["compare", "--in", str(path), "--eps", "0.2", "--phi", "1", "--mu-inv", "4",
            "--report", str(tmp_path / "c.json")]
    assert main(argv) == 0
    assert sorted(lane_widths) == [32, 64, 64, 64, 64]
    assert len(held) == 2 * 40 and converted == []
    for row in held:
        assert sorted(width for other, width in built if other is row) == [32, 64]


@pytest.mark.parametrize("shape", sorted(BENCHMARK_SHAPES))
def test_benchmark_shapes_take_lanes(shape, tmp_path, monkeypatch, lane_widths):
    # Every engine call reads held lanes: a row's cells go through an array
    # only when a submodular profit row first builds its lanes of a width,
    # and a call reads one array, its final row's, however many stages it
    # walks back through.
    converted, read, calls = [], [], []
    real_convert, real_read = core.array_lanes, oracle.array_cells
    monkeypatch.setattr(core, "array_lanes", lambda cells, width: converted.append((id(cells), width))
                        or real_convert(cells, width))
    monkeypatch.setattr(oracle, "array_cells", lambda *args: read.append(args) or real_read(*args))
    real_engine = oracle.max_plus_masks

    def engine(*args):
        before = len(read)
        result = real_engine(*args)
        calls.append(len(read) - before)
        return result

    for module in (oracle, cutting):
        monkeypatch.setattr(module, "max_plus_masks", engine)
    (command, *flags), params = BENCHMARK_SHAPES[shape]
    path = tmp_path / "inst.json"
    for seed in range(1_000_003, 1_000_006):
        write_json(path, instance_to_dict(gen_random(params, seed)))
        argv = [command, "--in", str(path), "--eps", "0.2", "--phi", "1", *flags, "--budget", str(10**15)]
        assert main([*argv, "--out" if command == "solve" else "--report", str(tmp_path / "out.json")]) == 0
        # each held row's cells, alive through the command, once per width
        assert len(set(converted)) == len(converted)
        assert bool(converted) is (params.variant == "submodular")
        converted.clear()
    assert lane_widths and None not in lane_widths
    assert calls and set(calls) == {1}
