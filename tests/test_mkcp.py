"""Packing decisions and the exact and greedy reduced-instance solvers."""

from __future__ import annotations

import hashlib
import random

import numpy as np
import pytest

from gmk.core import Mkc, evaluate_objective
from gmk.errors import BudgetExceededError
from gmk.generators import GenParams, gen_random
from gmk.mkcp import (
    Capacities,
    _BudgetHit,
    _kept_schedules,
    _packing,
    pack_assignment,
    pack_mkc,
    place,
    solve_mkcp_exact,
    solve_mkcp_greedy,
)
from gmk.reduction import (
    ReducedElement,
    reduce_instance,
    verify_reduced_solution,
)
from gmk.oracle import brute_force_gmk
from gmk.serialize import canonical_dumps, reduced_from_dict, reduced_solution_to_dict, reduced_to_dict

from util import naive_reduced_optimum, packs_by_every_map


def test_pack_two_items_one_bin():
    result = pack_assignment(["b"], {"b": 6}, {"x": 3, "y": 3})
    assert result.packed
    assert result.assignment["b"] == frozenset({"x", "y"})


def test_pack_infeasible_split():
    result = pack_assignment(["b1", "b2"], {"b1": 5, "b2": 2}, {"x": 4, "y": 3})
    assert not result.packed and result.assignment is None


def test_pack_needs_backtracking():
    # first-fit-decreasing misplaces the 4 into the 6-bin; search fixes it
    result = pack_assignment(["b1", "b2"], {"b1": 6, "b2": 4}, {"x": 4, "y": 3, "z": 3})
    assert result.packed
    loads = {
        b: sum({"x": 4, "y": 3, "z": 3}[e] for e in elems)
        for b, elems in result.assignment.items()
    }
    assert all(loads[b] <= {"b1": 6, "b2": 4}[b] for b in loads)


def test_pack_zero_weight_always_fits():
    result = pack_assignment(["b"], {"b": 0}, {"x": 0, "y": 0})
    assert result.packed
    assert result.assignment["b"] == frozenset({"x", "y"})


def test_pack_no_bins():
    assert pack_assignment([], {}, {}).assignment == {}
    assert pack_assignment([], {}, {"x": 0}).assignment is None


def test_pack_budget_unknown():
    # first-fit fails here, so the search starts and hits the node budget
    with pytest.raises(_BudgetHit):
        place([6, 4], [4, 3, 3], 1)
    # with room to search the same input packs
    weights = {"x": 4, "y": 3, "z": 3}
    assert pack_assignment(["b1", "b2"], {"b1": 6, "b2": 4}, weights).packed


def test_pack_deterministic_witness():
    weights = {f"e{k}": w for k, w in enumerate([4, 4, 3, 2, 1])}
    first = pack_assignment(["b1", "b2"], {"b1": 7, "b2": 7}, weights)
    second = pack_assignment(["b1", "b2"], {"b1": 7, "b2": 7}, weights)
    assert first.assignment == second.assignment


def test_pack_mkc_wrapper():
    mkc = Mkc(weights={"i": 3, "j": 4}, bins=("b1", "b2"), capacities={"b1": 4, "b2": 3})
    assert pack_mkc(mkc, {"i", "j"}).packed
    tight = Mkc(weights={"i": 3, "j": 4}, bins=("b1",), capacities={"b1": 5})
    assert not pack_mkc(tight, {"i", "j"}).packed


def _pack_corpus():
    """Seeded packer inputs: 0-4 bins, repeated capacities, zero and repeated weights."""
    rng = random.Random(24)
    for _ in range(1500):
        # shuffled bin ids, so the canonical order differs from the given one
        bins = [f"b{k}" for k in rng.sample(range(6), rng.randint(0, 4))]
        caps = [rng.randint(0, 10) for _ in range(2)]
        capacities = {b: rng.choice(caps) for b in bins}
        weights = [0] + [rng.randint(1, 7) for _ in range(3)]
        items = rng.sample(range(12), rng.randint(0, 9))
        yield bins, capacities, {f"e{k}": rng.choice(weights) for k in items}


def _budget_stops(bins, capacities, weights, budget) -> bool:
    """Whether ``place`` stops at ``budget`` on the lists ``pack_assignment`` builds from these."""
    if budget is None or not bins:
        return False
    caps = sorted((capacities[b] for b in bins), reverse=True)
    try:
        place(caps, sorted((w for w in weights.values() if w), reverse=True), budget)
    except _BudgetHit:
        return True
    return False


# sha256 over the status and assignment of every packing of the corpus
# above under each node budget, recorded when ``pack_assignment`` took one
# and answered "unknown" where the budget stopped its search
GOLDEN_PACK = "1933298c454a376d158f25070692bf2ee61b44d944b9338690faafa1adf849ad"


def test_pack_assignment_outcomes_digest():
    digest = hashlib.sha256()
    statuses = {"packed": 0, "infeasible": 0, "unknown": 0}
    for bins, capacities, weights in _pack_corpus():
        result = pack_assignment(bins, capacities, weights)
        for budget in (None, 1, 3, 10, 100):
            if _budget_stops(bins, capacities, weights, budget):
                status, assignment = "unknown", None
            else:
                status = "packed" if result.packed else "infeasible"
                assignment = result.assignment
            statuses[status] += 1
            assignment = sorted((b, sorted(s)) for b, s in (assignment or {}).items())
            digest.update(repr((status, assignment)).encode())
    assert min(statuses.values()) > 0
    assert digest.hexdigest() == GOLDEN_PACK


def test_place_matches_every_map():
    rng = random.Random(5)
    outcomes = {"packed": 0, "unpackable": 0, "budget_hit": 0}
    # first fit strands a 3 here, so the search starts, and budget 1 stops it
    inputs = [([6, 4], [4, 3, 3])]
    for _ in range(600):
        caps = sorted((rng.randint(0, 9) for _ in range(rng.randint(0, 4))), reverse=True)
        weights = sorted((rng.randint(1, 6) for _ in range(rng.randint(0, 8))), reverse=True)
        inputs.append((caps, weights))
    for caps, weights in inputs:
        packs = packs_by_every_map(caps, weights)
        placed = place(caps, weights)
        assert (placed is not None) == packs, (caps, weights)
        if placed is not None:
            loads = [sum(w for w, b in zip(weights, placed) if b == j) for j in range(len(caps))]
            assert all(load <= cap for load, cap in zip(loads, caps)), (caps, weights, placed)
        outcomes["packed" if packs else "unpackable"] += 1
        # a budget either stops the search or leaves its answer unchanged
        for budget in (1, 3):
            try:
                assert place(caps, weights, budget) == placed
            except _BudgetHit:
                outcomes["budget_hit"] += 1
    assert min(outcomes.values()) > 0


def test_screen_agrees_with_fit():
    rng = random.Random(8)
    verdicts = {True: 0, False: 0, None: 0}
    for case in range(300):
        # small bins, and bins whose total sits just below a byte boundary,
        # where the sum of several heavy weights needs a wider lane
        top = (9, 127, 2**15 - 1)[case % 3]
        caps = Capacities.of(sorted((rng.randint(0, top) for _ in range(rng.randint(1, 4))), reverse=True))
        weights = [rng.choice((0, rng.randint(1, top + top // 3))) for _ in range(rng.randint(0, 6))]
        # at the narrowest width the screen allows, and one byte wider
        width = caps.lane_width(len(weights)) + rng.choice((0, 8))
        within, above = caps.screen(weights, width)
        guards = [1 << (m + 1) * width - 1 for m in range(1 << len(weights))]
        # only guard bits are set, and only in the subsets' lanes
        assert within | above | sum(guards) == sum(guards)
        for m, guard in enumerate(guards):
            held = [w for k, w in enumerate(weights) if m >> k & 1]
            fits = caps.fit(sum(held), max(held, default=0))
            assert bool(within & guard) is (fits is not False), (caps, weights, m)
            assert bool(above & guard) is (fits is None), (caps, weights, m)
            verdicts[fits] += 1
    assert min(verdicts.values()) > 0


def test_exact_single_item_argmax_and_feasibility_filter():
    inst = gen_random(GenParams(items=1, horizon=2, cost_range=(0, 1)), 2)
    reduced = reduce_instance(inst)
    rsol = solve_mkcp_exact(reduced)
    table = reduced.schedules[reduced.items[0]]
    best = max(table.values())
    # single item, everything packable alone: the argmax schedule wins
    chosen = next(iter(rsol.chosen))
    assert table[chosen.mask] == best

    # force the top-valued schedule to be unpackable: weight above capacity
    from util import build_instance, dense_table, single_bin_stage

    items = ["a"]
    stages = [single_bin_stage(items, {"a": 5}, 4, {"a": 9}), single_bin_stage(items, {"a": 1}, 4, {"a": 7})]
    inst2 = build_instance(items, stages)
    reduced2 = reduce_instance(inst2)
    rsol2 = solve_mkcp_exact(reduced2)
    chosen2 = next(iter(rsol2.chosen))
    assert chosen2.mask == 0b10  # stage 2 only; stage 1 never fits


def _reversed_partition(reduced):
    """Read back through the file format with every group in descending mask order."""
    raw = reduced_to_dict(reduced)
    raw["partition"] = {i: g[::-1] for i, g in raw["partition"].items()}
    return reduced_from_dict(raw)


def test_exact_matches_naive_enumeration():
    small = GenParams(items=3, horizon=2, dimension=2, bins_per_mkc=2, cost_range=(0, 3))
    # profits, gains and costs in 0:1 leave several optimal schedule tuples
    ties = GenParams(
        items=3, horizon=4, dimension=2, bins_per_mkc=2, profit_range=(0, 1), gain_range=(0, 1),
        cost_range=(0, 1),
    )
    corpus = [reduce_instance(gen_random(small, seed)) for seed in range(40)]
    corpus += [reduce_instance(gen_random(ties, seed)) for seed in range(12)]
    corpus.append(_reversed_partition(corpus[-1]))
    # the file lists each group in descending mask order; the table holds it ascending
    masks = list(corpus[-1].schedules[corpus[-1].items[0]])
    assert masks == sorted(masks) and len(masks) > 1
    for reduced in corpus:
        rsol = solve_mkcp_exact(reduced)
        naive_value, naive_combo = naive_reduced_optimum(reduced)
        assert reduced.value_of(rsol.chosen) == naive_value
        # identical tie-break: lexicographically smallest schedule tuple
        solver_tuple = tuple(
            next(e.mask for e in rsol.chosen if e.item == item) for item in reduced.items
        )
        naive_tuple = tuple(e.mask for e in naive_combo)
        assert solver_tuple == naive_tuple


def test_exact_submodular_matches_naive():
    for seed in range(12):
        inst = gen_random(GenParams(items=2, horizon=2, variant="submodular"), seed)
        reduced = reduce_instance(inst)
        rsol = solve_mkcp_exact(reduced)
        naive_value, _ = naive_reduced_optimum(reduced)
        assert reduced.value_of(rsol.chosen) == naive_value


def test_exact_budget_refusal_mentions_greedy():
    inst = gen_random(GenParams(items=3, horizon=3), 0)
    reduced = reduce_instance(inst)
    with pytest.raises(BudgetExceededError, match="greedy"):
        solve_mkcp_exact(reduced, enum_budget=10)


def test_exact_empty_instance():
    inst = gen_random(GenParams(items=0, horizon=2), 0)
    reduced = reduce_instance(inst)
    rsol = solve_mkcp_exact(reduced)
    assert rsol.chosen == frozenset()
    assert reduced.value_of(rsol.chosen) == 0


def test_greedy_agrees_with_exact_on_single_item():
    for seed in range(10):
        inst = gen_random(GenParams(items=1, horizon=3, cost_range=(0, 2)), seed)
        reduced = reduce_instance(inst)
        exact = solve_mkcp_exact(reduced)
        greedy = solve_mkcp_greedy(reduced)
        assert reduced.value_of(exact.chosen) == reduced.value_of(greedy.chosen)


def test_greedy_never_below_all_empty_and_never_above_exact():
    ratios = []
    for seed in range(200):
        inst = gen_random(GenParams(items=3, horizon=3, dimension=2, cost_range=(0, 2)), seed)
        reduced = reduce_instance(inst)
        greedy = solve_mkcp_greedy(reduced)
        assert not verify_reduced_solution(reduced, greedy)
        value = reduced.value_of(greedy.chosen)
        empties = frozenset(ReducedElement(i, 0) for i in reduced.items)
        assert value >= reduced.value_of(empties)
        exact_value = reduced.value_of(solve_mkcp_exact(reduced).chosen)
        assert value <= exact_value
        if exact_value > 0:
            ratios.append(value / exact_value)
    # empirical record, no fixed bound guaranteed by the greedy
    print(f"\ngreedy/exact over {len(ratios)} instances: min {min(ratios):.3f} mean {sum(ratios)/len(ratios):.3f}")


def test_greedy_submodular_bound():
    for seed in range(10):
        inst = gen_random(GenParams(items=3, horizon=2, variant="submodular"), seed)
        reduced = reduce_instance(inst)
        greedy = solve_mkcp_greedy(reduced)
        empties = frozenset(ReducedElement(i, 0) for i in reduced.items)
        assert reduced.value_of(greedy.chosen) >= reduced.value_of(empties)


def test_solver_determinism():
    for seed in (1, 7):
        inst = gen_random(GenParams(items=3, horizon=3, dimension=2, cost_range=(0, 2)), seed)
        reduced = reduce_instance(inst)
        a = solve_mkcp_exact(reduced)
        b = solve_mkcp_exact(reduced)
        assert a.chosen == b.chosen and a.assignments == b.assignments
        g1 = solve_mkcp_greedy(reduced)
        g2 = solve_mkcp_greedy(reduced)
        assert g1.chosen == g2.chosen and g1.assignments == g2.assignments


# sha256 of the canonical reduced-solution JSON of seeds 0..11, recorded
# before the exact search moved from ReducedElement dicts to integer masks
GOLDEN_EXACT = {
    "single_bin_t8": (
        GenParams(
            items=3, horizon=8, dimension=1, bins_per_mkc=1, weight_range=(1, 4),
            capacity_range=(3, 7), profit_range=(1, 5), gain_range=(0, 2),
            cost_range=(1, 1), target_phi=1,
        ),
        [
            "0e6aae6552c278558f920b0f8d3c01208853b89d2131294b3d48190c990b6887",
            "74fce0e551a3cee5626d0eb6b5ed83e380b92a7f4b507f51479e054ecbcc6781",
            "375e43ff4a599512e195f83d785229a04095fd392166ab45db0172ebd9fce26c",
            "ce97236164bb55823de6a2bf03b7c74208b2db70c22ad8a6551abd35d1564735",
            "50664c0c84fb4bbcfa285d8fa5a837e6205c63314d349b52cde81455a6fb1c4b",
            "317fc77fb8404a75e9a189ad63b729bbbab42ae521908b9630c323e99c7cca4f",
            "d69192aa3da9c20d3a83011445546afac40c7dda7c82434fa8530ee4f247783c",
            "7c1836e4c3be5658352f71c2c78149cd56d09af7037f32b1599ab618c3c8993a",
            "93d8aeeece40138044fb5b08deeb042843c3bd11cd1193824625a668f92845b3",
            "36d55d2f2f37648e90b6747c394636293bb519013a585bdc0b9ec8172fcd2f1c",
            "b7647b7f84dd3657cc10e13e1be9ed031898a51e325d8b2e215a3fdd90811919",
            "8e97dd1ce96239482308a9b55085e225c6dcc651706c51853ebfe46e70e5d161",
        ],
    ),
    "two_bin_d2_t6": (
        GenParams(items=3, horizon=6, dimension=2, bins_per_mkc=2),
        [
            "0c297f35a244aec32ab01cf3d906a9ffc757a42e7756062314c9dfb3b3a7d10e",
            "d9410f5e7a324c3f4b8549f5c1774ecfc6b4ab44ac8c43ec17a84bbc39e65c17",
            "3290a32328a38344d52602a9a6c8a430f256da64457fddb0840fc0ce51f0c7dc",
            "f26e01cd6f4f632a5b5e1521f1c684b49d6f76d2a7e84c56037dd360ffe7d824",
            "1f9f0eb8addff255dee371bd90c0e2ef531801ff81f413d76d9a0f9b28021fbb",
            "5a69d66bfdc512622760de19276e2d4d0eab4efd53f8a7af00b137bb0d7086f2",
            "d07bd423fba6dd8fc7547b80941c4789abd6c4e28e0dc3615cc68d0ee3b07ab1",
            "e5af61e942efb2b6ed37048340657bc18f59bf9189f8e02e06d33c793394a250",
            "aeec9885af0f870222ab4bb2cb1f6b4e8bb5d7d8a8d4092f7c4833a65527426f",
            "ec909166675882437f22704e58ccc547fe5cd555c8cc7e16a756db7c8444bcfb",
            "8730d55bfc91f565aa685bd57d4dc83fa5866565da87de52606425307abb2da8",
            "8a1d15d80e32c8e73314995beb801319010a5b14448146be75863e373eb5b62e",
        ],
    ),
}


@pytest.mark.parametrize("shape", sorted(GOLDEN_EXACT))
def test_exact_golden_digests_and_oracle_value(shape):
    params, digests = GOLDEN_EXACT[shape]
    for seed, digest in enumerate(digests):
        inst = gen_random(params, seed)
        reduced = reduce_instance(inst)
        rsol = solve_mkcp_exact(reduced, enum_budget=10**15)
        payload = canonical_dumps(reduced_solution_to_dict(rsol))
        assert hashlib.sha256(payload.encode()).hexdigest() == digest, seed
        assert reduced.value_of(rsol.chosen) == evaluate_objective(inst, brute_force_gmk(inst).sets)


# sha256 over the canonical greedy reduced-solution JSON of seeds 0..7, each
# solved as reduced and as read back from JSON, per pack budget; recorded
# before the reduction kept one mask-to-value table per item
GOLDEN_GREEDY = {
    "three_bin_d2_t4": (
        GenParams(
            items=5, horizon=4, dimension=2, bins_per_mkc=3, weight_range=(1, 6),
            capacity_range=(2, 8),
        ),
        {
            1: "f86d2b304917b7be8da5a1eb15c6101ddf47dc525f9a72dd0bf63ac9a4d2595d",
            2: "f86d2b304917b7be8da5a1eb15c6101ddf47dc525f9a72dd0bf63ac9a4d2595d",
            5: "c75921603e1deb4131def0503984b81bb06d18e51950ce638b374c4d63505b21",
            None: "cc245eac83e510af30f98c9522fa83e25d5f24f85d15e559c2017ada5d13a4a1",
        },
    ),
    "four_bin_submodular_t3": (
        GenParams(
            items=5, horizon=3, dimension=2, bins_per_mkc=4, weight_range=(2, 7),
            capacity_range=(3, 9), variant="submodular",
        ),
        {
            1: "52bf3aa5fdc83d492f45ed2357d943113d2a3e49abeb07997150eb7487beb0c9",
            2: "52bf3aa5fdc83d492f45ed2357d943113d2a3e49abeb07997150eb7487beb0c9",
            5: "36935d381ab468ad79f2dbb8c39b4e9206c062b7527fc8e8aea0022ce56be80e",
            None: "36935d381ab468ad79f2dbb8c39b4e9206c062b7527fc8e8aea0022ce56be80e",
        },
    ),
}


@pytest.mark.parametrize("shape", sorted(GOLDEN_GREEDY))
@pytest.mark.parametrize("budget", [1, 2, 5, None])
def test_greedy_golden_digests(shape, budget):
    params, digests = GOLDEN_GREEDY[shape]
    digest = hashlib.sha256()
    for seed in range(8):
        reduced = reduce_instance(gen_random(params, seed))
        for candidate in (reduced, reduced_from_dict(reduced_to_dict(reduced))):
            rsol = solve_mkcp_greedy(candidate, pack_budget=budget)
            digest.update(canonical_dumps(reduced_solution_to_dict(rsol)).encode())
    assert digest.hexdigest() == digests[budget]


def _solve_mkcp_corpus():
    """Seeded reduced instances: modular, submodular, and modular files with arbitrary values."""
    rng = random.Random(21)
    corpus = []
    for seed in range(120):
        kind = ("modular", "submodular", "arbitrary")[seed % 3]
        params = GenParams(
            items=rng.randint(2, 4) if kind == "submodular" else rng.randint(3, 5),
            horizon=rng.randint(2, 3) if kind == "submodular" else rng.randint(2, 6),
            dimension=rng.randint(1, 2),
            bins_per_mkc=rng.randint(1, 3),
            weight_range=(2, 7),
            capacity_range=(3, 10),
            variant="submodular" if kind == "submodular" else "modular",
        )
        reduced = reduce_instance(gen_random(params, seed))
        if kind == "arbitrary":
            raw = reduced_to_dict(reduced)
            raw["values"] = {eid: rng.randrange(20) for eid in raw["values"]}
            reduced = reduced_from_dict(raw)
        corpus.append(reduced)
    return corpus


# sha256 over every solve-mkcp outcome of the corpus above: the canonical
# reduced-solution JSON, or the refusal message; recorded before the exact
# search took its starting bound from solve_mkcp_greedy
GOLDEN_SOLVE_MKCP = "cbc7a64d89a1473f7c8fdf680772c4fb3e0fbaf0622f427beddb6306c5c1534a"


def test_solve_mkcp_outcomes_digest():
    digest = hashlib.sha256()
    outcomes = {"refused": 0, "budget_changes_greedy": 0}
    for reduced in _solve_mkcp_corpus():
        for budget in (None, 50, 400):
            try:
                rsol = solve_mkcp_exact(reduced, enum_budget=budget)
                text = canonical_dumps(reduced_solution_to_dict(rsol))
            except BudgetExceededError as exc:
                text = str(exc)
                outcomes["refused"] += 1
            digest.update(text.encode())
        greedy = [
            canonical_dumps(reduced_solution_to_dict(solve_mkcp_greedy(reduced, pack_budget=budget)))
            for budget in (None, 3, 10**5)
        ]
        outcomes["budget_changes_greedy"] += greedy[0] != greedy[1]
        for text in greedy:
            digest.update(text.encode())
    # the corpus reaches both refusals and budgeted packer outcomes
    assert outcomes["refused"] > 0 and outcomes["budget_changes_greedy"] > 0
    assert digest.hexdigest() == GOLDEN_SOLVE_MKCP


def _loop_dominance_prune(reduced, table):
    """Reference: the per-schedule prune over a subset-max table."""
    size = 1 << reduced.horizon
    arr = np.full(size, -(1 << 62), dtype=np.int64)
    for mask, value in table.items():
        arr[mask] = value
    best = arr.copy()
    masks = np.arange(size)
    for t in range(reduced.horizon):
        bit = 1 << t
        idx = masks[(masks & bit) != 0]
        best[idx] = np.maximum(best[idx], best[idx ^ bit])
    keep = []
    for mask, value in table.items():
        if mask == 0:
            keep.append(mask)
            continue
        proper = max(int(best[mask ^ (1 << t)]) for t in range(reduced.horizon) if mask >> t & 1)
        if value > proper:
            keep.append(mask)
    return keep


def _packs_alone(reduced, element):
    """Reference: the element packs by itself in every reduced constraint."""
    return all(
        pack_assignment(rc.bins, rc.capacities, {element: rc.weight_of(element)}).packed
        for rc in reduced.constraints
    )


def _reference_kept(reduced, dropped):
    """Reference: loop prune, then a from-scratch packing of each schedule alone."""
    out = []
    for item in reduced.items:
        table = reduced.schedules[item]
        pruned = _loop_dominance_prune(reduced, table)
        kept = [m for m in pruned if m == 0 or _packs_alone(reduced, ReducedElement(item, m))]
        dropped["dominated"] += len(table) - len(pruned)
        dropped["unpackable"] += len(pruned) - len(kept)
        out.append([(m, table[m]) for m in kept])
    return out


def _with_masks_missing(reduced):
    """Read back through the file format without every third nonempty schedule."""
    raw = reduced_to_dict(reduced)
    gone = {e.id for e in reduced.elements if e.mask % 3 == 1}
    raw["elements"] = [e for e in raw["elements"] if e["id"] not in gone]
    raw["partition"] = {i: [eid for eid in g if eid not in gone] for i, g in raw["partition"].items()}
    raw["values"] = {eid: v for eid, v in raw["values"].items() if eid not in gone}
    return reduced_from_dict(raw)


def test_kept_schedules_match_loop_prune_and_solo_filter():
    shapes = [
        GenParams(items=3, horizon=6, weight_range=(1, 6), capacity_range=(2, 5)),
        GenParams(
            items=3, horizon=5, dimension=2, bins_per_mkc=2, weight_range=(1, 6),
            capacity_range=(1, 4),
        ),
    ]
    dropped = {"dominated": 0, "unpackable": 0}
    for params in shapes:
        for seed in range(6):
            reduced = reduce_instance(gen_random(params, seed))
            for candidate in (reduced, _with_masks_missing(reduced)):
                packing = _packing(candidate)
                tables = [_kept_schedules(candidate, packing, k) for k in range(len(candidate.items))]
                kept = [[(m, v) for v, m in cand] for cand, _ in tables]
                assert kept == _reference_kept(candidate, dropped)
                # fit is the subset-max table of the kept values
                for cand, fit in tables:
                    assert fit == [
                        max((v for v, m in cand if m & c == m), default=-1)
                        for c in range(1 << candidate.horizon)
                    ]
    # both rules fire on this corpus
    assert dropped["dominated"] > 0 and dropped["unpackable"] > 0


def _packs_with(reduced, loaded, new, budget):
    """Reference: ``new`` on top of ``loaded`` packs every constraint it weighs in.

    A constraint whose search ``budget`` stops counts as unpackable.
    """
    for rc in reduced.constraints:
        if rc.weight_of(new) > 0:
            weights = {e: rc.weight_of(e) for e in loaded + [new]}
            if _budget_stops(rc.bins, rc.capacities, weights, budget):
                return False
            if not pack_assignment(rc.bins, rc.capacities, weights).packed:
                return False
    return True


@pytest.mark.parametrize("budget", [1, 2, 5, None])
def test_avail_matches_packing_every_touched_constraint(budget):
    """mask inside avail(k) exactly when each touched constraint packs from scratch."""
    params = GenParams(
        items=6, horizon=3, dimension=2, bins_per_mkc=3, weight_range=(2, 7), capacity_range=(4, 10),
    )
    rng = random.Random(0)
    fits = [0, 0]
    undecided = 0
    for seed in range(6):
        reduced = reduce_instance(gen_random(params, seed))
        items, horizon = reduced.items, reduced.horizon
        for _ in range(8):
            # a random partial packing: items in random order, each with a
            # random schedule that packs on top of the earlier ones
            order = rng.sample(range(len(items)), len(items))
            k = order.pop()
            packing = _packing(reduced, node_budget=budget)
            loaded = []
            for j in order:
                e = ReducedElement(items[j], rng.randrange(1 << horizon))
                if _packs_with(reduced, loaded, e, None):
                    packing.push(j, e.mask)
                    loaded.append(e)
            avail = packing.avail(k)
            for mask in range(1 << horizon):
                new = ReducedElement(items[k], mask)
                packs = _packs_with(reduced, loaded, new, budget)
                assert (mask & ~avail == 0) == packs, (seed, k, loaded, mask)
                if budget is None:
                    assert packs == all(
                        packs_by_every_map(
                            [rc.capacities[b] for b in rc.bins], [rc.weight_of(e) for e in loaded + [new]]
                        )
                        for rc in reduced.constraints
                        if rc.weight_of(new) > 0
                    ), (seed, k, loaded, mask)
                fits[packs] += 1
                undecided += packs != _packs_with(reduced, loaded, new, None)
    # the corpus reaches both answers, and every finite budget leaves some packing undecided
    assert fits[0] > 0 and fits[1] > 0
    assert (undecided > 0) == (budget is not None)
