"""Shared builders and independent oracles for the test suite.

The oracles here deliberately re-derive results by the dumbest available
route (full sequence enumeration, candidate products, textbook DP) so the
library's solvers are checked against code that shares none of their
shortcuts.
"""

from __future__ import annotations

import itertools
import random

import numpy as np

from gmk.core import (
    MODULAR,
    GmkInstance,
    Mkc,
    McpStage,
    MultistageSolution,
    Row,
    Rows,
    evaluate_objective,
)
from gmk.mkcp import pack_mkc
from gmk.oracle import checked_solution, pack_stage
from gmk.reduction import ReducedElement, ReducedInstance


def dense_table(items, lo, hi, default=0, **overrides):
    """Dense (item, stage) table; overrides keyed 'item:stage'."""
    table = {(i, t): default for i in items for t in range(lo, hi + 1)}
    for key, value in overrides.items():
        item, _, stage = key.rpartition(":")
        table[item, int(stage)] = value
    return table


def single_bin_stage(items, weights, capacity, profits):
    mkc = Mkc(weights=dict(weights), bins=("b",), capacities={"b": capacity})
    return McpStage(mkcs=(mkc,), profit=dict(profits))


def build_instance(items, stages, *, gain_plus=None, gain_minus=None,
                   cost_plus=None, cost_minus=None, variant="modular"):
    items = tuple(items)
    horizon = len(stages)
    zero_gain = dense_table(items, 2, horizon)
    zero_cost = dense_table(items, 1, horizon)
    return GmkInstance(
        items=items,
        horizon=horizon,
        stages=tuple(stages),
        gain_plus=gain_plus if gain_plus is not None else dict(zero_gain),
        gain_minus=gain_minus if gain_minus is not None else dict(zero_gain),
        cost_plus=cost_plus if cost_plus is not None else dict(zero_cost),
        cost_minus=cost_minus if cost_minus is not None else dict(zero_cost),
        variant=variant,
    )


def two_stage_single_item():
    """One item, two stages, value 10 for packing it in both stages."""
    mkc = Mkc(weights={"i": 1}, bins=("b",), capacities={"b": 1})
    stages = (McpStage(mkcs=(mkc,), profit={"i": 5}), McpStage(mkcs=(mkc,), profit={"i": 5}))
    return GmkInstance(
        items=("i",),
        horizon=2,
        stages=stages,
        gain_plus={("i", 2): 2},
        gain_minus={("i", 2): 0},
        cost_plus={("i", 1): 1, ("i", 2): 0},
        cost_minus={("i", 1): 4, ("i", 2): 1},
    )


def binless_first_stage():
    """Two items; stage 1 has one constraint with no bin, stage 2 one bin for both.

    No item packs at stage 1, the weightless a included, so the optimum packs
    both at stage 2 alone, for value 5.
    """
    binless = Mkc(weights={"a": 0, "b": 1}, bins=(), capacities={})
    one_bin = Mkc(weights={"a": 1, "b": 1}, bins=("x",), capacities={"x": 2})
    profits = {"a": 2, "b": 3}
    return build_instance("ab", [McpStage((binless,), profits), McpStage((one_bin,), profits)])


def held_rows(rows):
    """The held ``core.Rows`` the stage-DP engine takes, of these stages' cell lists.

    Each stage is a ``core.Row.of`` its cells, whose lanes of each width are
    converted once through ``core.array_lanes``.
    """
    return Rows.stages(map(Row.of, rows))


def packable_sets(inst, t):
    """All subsets of the item set packable under every constraint of stage t."""
    out = []
    for size in range(len(inst.items) + 1):
        for combo in itertools.combinations(inst.items, size):
            if all(pack_mkc(mkc, combo).packed for mkc in inst.stage(t).mkcs):
                out.append(frozenset(combo))
    return out


def packs_by_every_map(capacities, weights):
    """Whether some map of the weights to the bins keeps every bin within its capacity.

    Tries all ``len(capacities) ** len(weights)`` maps at once, with no
    ordering, screen or search, so it shares no code with ``gmk.mkcp``.
    Small inputs only: at most 4 bins and 8 weights.
    """
    if not weights:
        return True
    if not capacities:
        return False
    # maps[k]: the bin of weights[k], in each map
    maps = np.indices((len(capacities),) * len(weights)).reshape(len(weights), -1)
    column = np.array(weights)[:, None]
    within = [(column * (maps == b)).sum(axis=0) <= cap for b, cap in enumerate(capacities)]
    return bool(np.logical_and.reduce(within).any())


def enumerate_optimum(inst):
    """Literal enumeration of all packable set sequences; tiny inputs only."""
    per_stage = [packable_sets(inst, t) for t in range(1, inst.horizon + 1)]
    best_value = None
    best_sets = None
    for sets in itertools.product(*per_stage):
        value = evaluate_objective(inst, sets)
        if best_value is None or value > best_value:
            best_value, best_sets = value, sets
    return best_value, best_sets


def random_feasible_solution(rng: random.Random, inst) -> MultistageSolution:
    """Random packable subset per stage with packer-built assignments."""
    sets = []
    assignments = []
    for t in range(1, inst.horizon + 1):
        stage = inst.stage(t)
        subset = None
        for _ in range(12):
            candidate = frozenset(i for i in inst.items if rng.random() < 0.5)
            results = [pack_mkc(mkc, candidate) for mkc in stage.mkcs]
            if all(r.packed for r in results):
                subset = candidate
                break
        if subset is None:
            subset = frozenset()
            results = [pack_mkc(mkc, subset) for mkc in stage.mkcs]
        sets.append(subset)
        assignments.append(tuple(dict(r.assignment) for r in results))
    return MultistageSolution.from_raw(sets, assignments)


def naive_reduced_optimum(reduced: ReducedInstance):
    """Product enumeration over one element per group, packing from scratch.

    Returns (value, chosen tuple); ties resolved toward the lexicographically
    smallest schedule-mask tuple in item order by scanning in that order.
    """
    groups = [
        [ReducedElement(item, mask) for mask in sorted(reduced.schedules[item])]
        for item in reduced.items
    ]
    best_value = None
    best_combo = None
    for combo in itertools.product(*groups):
        chosen = frozenset(combo)
        feasible = True
        for rc in reduced.constraints:
            from gmk.mkcp import pack_assignment

            weights = {e: rc.weight_of(e) for e in chosen}
            if not pack_assignment(rc.bins, rc.capacities, weights).packed:
                feasible = False
                break
        if not feasible:
            continue
        value = reduced.value_of(chosen)
        if best_value is None or value > best_value:
            best_value, best_combo = value, combo
    return best_value, best_combo


def brute_force_kp(kp):
    """Subset enumeration for multidimensional knapsack."""
    best_value = 0
    best_set: frozenset = frozenset()
    d = kp.dimension
    for size in range(len(kp.items) + 1):
        for combo in itertools.combinations(kp.items, size):
            loads = [sum(kp.weights[i][k] for i in combo) for k in range(d)]
            if all(loads[k] <= kp.capacities[k] for k in range(d)):
                value = sum(kp.profits[i] for i in combo)
                if value > best_value:
                    best_value, best_set = value, frozenset(combo)
    return best_value, best_set


def knapsack_dp(profits, weights, capacity):
    """Textbook 0/1 knapsack DP, maximum profit under one capacity."""
    table = [0] * (capacity + 1)
    for p, w in zip(profits, weights):
        for c in range(capacity, w - 1, -1):
            table[c] = max(table[c], table[c - w] + p)
    return table[capacity]


def sweep_instances(max_items=3, max_horizon=3, max_dim=2, max_bins=2,
                    cap_limit=4, value_limit=5, fillings=3):
    """Deterministic family covering every shape within the sweep bounds."""
    rng = random.Random(20240917)
    for n_items in range(1, max_items + 1):
        for horizon in range(1, max_horizon + 1):
            for dim in range(1, max_dim + 1):
                for bins in range(1, max_bins + 1):
                    for _ in range(fillings):
                        items = tuple(f"i{k}" for k in range(n_items))
                        stages = []
                        for _t in range(horizon):
                            mkcs = []
                            for _j in range(rng.randint(1, dim)):
                                weights = {i: rng.randint(0, cap_limit) for i in items}
                                bin_ids = tuple(f"b{b}" for b in range(bins))
                                caps = {b: rng.randint(0, cap_limit) for b in bin_ids}
                                mkcs.append(Mkc(weights=weights, bins=bin_ids, capacities=caps))
                            profit = {i: rng.randint(0, value_limit) for i in items}
                            stages.append(McpStage(mkcs=tuple(mkcs), profit=profit))
                        gain_plus = {(i, t): rng.randint(0, value_limit)
                                     for i in items for t in range(2, horizon + 1)}
                        gain_minus = {(i, t): rng.randint(0, value_limit)
                                      for i in items for t in range(2, horizon + 1)}
                        cost_plus = {(i, t): rng.randint(0, value_limit)
                                     for i in items for t in range(1, horizon + 1)}
                        cost_minus = {(i, t): rng.randint(0, value_limit)
                                      for i in items for t in range(1, horizon + 1)}
                        yield GmkInstance(
                            items=items,
                            horizon=horizon,
                            stages=tuple(stages),
                            gain_plus=gain_plus,
                            gain_minus=gain_minus,
                            cost_plus=cost_plus,
                            cost_minus=cost_minus,
                        )


def transition_columns(inst, t):
    """cols[cur][prev]: coupling terms at the boundary between stages t-1 and t.

    Item k adds bit k to both masks with the terms of its four cases: g- when
    out of both sets, g+ when in both, and in the modular variant minus the
    entry cost c+[i, t] or the exit cost c-[i, t-1] when it enters or leaves.
    """
    modular = inst.variant == MODULAR
    cols = [[0]]
    for i in inst.items:
        entry = inst.cost_plus[i, t] if modular else 0
        leave = inst.cost_minus[i, t - 1] if modular else 0
        # term[in_cur] = (value with i out of prev, value with i in prev)
        term = ((inst.gain_minus[i, t], -leave), (-entry, inst.gain_plus[i, t]))
        cols = [[v + a for v in col] + [v + b for v in col] for a, b in term for col in cols]
    return cols


def full_table_oracle(inst):
    """The oracle DP over the full ``cur x prev`` transition table of every stage.

    Each packable set keeps the first predecessor of maximum value, and the
    first final set of maximum value wins; packability comes from
    ``packs_by_every_map`` and profits from ``stage_profit``, one subset at
    a time, and the chosen sets are packed by ``pack_stage``, not through
    ``StageRows``. ``T * 4**|I|`` work: small inputs only.
    """
    size = 1 << len(inst.items)
    subsets = [frozenset(i for k, i in enumerate(inst.items) if m >> k & 1) for m in range(size)]
    modular = inst.variant == MODULAR
    horizon = inst.horizon

    def boundary_cost(m, table, t):
        return sum(table[i, t] for i in subsets[m]) if modular else 0

    def packs(t, subset):
        return all(
            packs_by_every_map([mkc.capacities[b] for b in mkc.bins], [mkc.weights[i] for i in subset])
            for mkc in inst.stage(t).mkcs
        )

    packable = [[packs(t, s) for s in subsets] for t in range(1, horizon + 1)]
    profits = [[inst.stage_profit(t, s) for s in subsets] for t in range(1, horizon + 1)]
    span = sum(abs(p) for row in profits for p in row) + sum(
        abs(v)
        for table in (inst.gain_plus, inst.gain_minus, inst.cost_plus, inst.cost_minus)
        for v in table.values()
    )
    floor = -3 * span - 1
    best = [
        profits[0][m] - boundary_cost(m, inst.cost_plus, 1) if packable[0][m] else floor
        for m in range(size)
    ]
    parents = []
    for t in range(2, horizon + 1):
        cols = transition_columns(inst, t)
        nxt, parent = [floor] * size, [0] * size
        for cur in range(size):
            if packable[t - 1][cur]:
                cand = [b + c for b, c in zip(best, cols[cur])]
                nxt[cur] = max(cand) + profits[t - 1][cur]
                parent[cur] = cand.index(max(cand))
        parents.append(parent)
        best = nxt

    final_best, final_mask = floor, 0
    for m in range(size):
        candidate = best[m] - boundary_cost(m, inst.cost_minus, horizon)
        if best[m] != floor and candidate > final_best:
            final_best, final_mask = candidate, m
    masks = [final_mask]
    for parent in reversed(parents):
        masks.append(parent[masks[-1]])
    sets = [subsets[m] for m in reversed(masks)]
    return checked_solution(inst, sets, [pack_stage(inst.stage(t), s, t) for t, s in enumerate(sets, start=1)])
