"""Ground-truth solver: exhaustive dynamic program over per-stage item sets.

The objective couples only consecutive stages, so enumerating every subset
per stage and every transition between consecutive subsets is exhaustive
and exact. A work budget of roughly ``T * 4**|items|`` transitions keeps
this a desk-scale oracle.

Two exact shortcuts keep the inner work small. Every coupling term belongs
to one item and depends only on whether that item is in the previous and
the current set, so the transition values of a stage separate by item: the
full ``cur x prev`` table is built by doubling over the items, one bit at a
time, in about ``1.33 * 4**|items|`` additions. Packability is built in
bulk: each constraint's subset weight sums and heaviest weights come by
doubling over the items, and ``mkcp.Capacities.fit`` screens them (one bin
packs a sum within its capacity; more bins refuse a sum above their total
or an item above the largest bin, and take a sum that fits the largest
bin), while a constraint with no bin packs only the empty set. Packability
is monotone, as weights are nonnegative and dropping an item from a
feasible assignment keeps it feasible: a subset the screens leave open is
packable when some subset with one more item is, and the exact packer
decides only the subsets left after that.
The DP runs on plain Python ints, so it is exact at any magnitude, and it
keeps its own encoding of the objective's terms, independent of the
reduction's, because it is the reference the exact solvers are tested
against. ``packable_row``, the one packability kernel of the package's
stage DPs, ``pack_stage`` and ``checked_solution`` are shared with
``cutting``, so an error in them would show in its stage DP and in this
reference alike; the test that the DP picks the masks of the reduced
branch and bound, which encodes the objective independently, catches it
there.
``transition_columns`` belongs to this reference alone.
"""

from __future__ import annotations

from operator import add
from typing import Mapping, Sequence

from .core import (
    MODULAR,
    GmkInstance,
    McpStage,
    Mkc,
    MultistageSolution,
    check_feasible,
)
from .errors import BudgetExceededError, ContractViolationError
from .mkcp import Capacities, pack_mkc

DEFAULT_ORACLE_BUDGET = 10**6


def packable_row(inst: GmkInstance, t: int) -> list[bool]:
    """row[m]: the subset with bit k set for items[k] packs at stage t.

    Each constraint's subset sums and heaviest weights, built by doubling
    over the items, decide what ``Capacities.fit`` can; a constraint with no
    bin packs only the empty set. The masks left open are scanned in
    descending order, so every one-item superset of a mask is decided before
    the mask itself, and the exact packer runs only on those with no
    packable one.
    """
    items = inst.items
    size = 1 << len(items)
    row = [True] * size
    open_mkcs: dict[int, list[Mkc]] = {}
    for mkc in inst.stage(t).mkcs:
        if not mkc.bins:
            row[1:] = [False] * (size - 1)
            continue
        sums, heaviest = [0], [0]
        for i in items:
            w = mkc.weights[i]
            sums += [s + w for s in sums]
            heaviest += [max(h, w) for h in heaviest]
        for m, fits in enumerate(map(Capacities.of(mkc.capacities.values()).fit, sums, heaviest)):
            if fits is None:
                open_mkcs.setdefault(m, []).append(mkc)
            elif not fits:
                row[m] = False
    for m in sorted(open_mkcs, reverse=True):
        if row[m] and not any(row[m | 1 << k] for k in range(len(items)) if not m >> k & 1):
            members = [i for k, i in enumerate(items) if m >> k & 1]
            row[m] = all(pack_mkc(mkc, members).packed for mkc in open_mkcs[m])
    return row


def transition_columns(inst: GmkInstance, t: int) -> list[list[int]]:
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


def brute_force_gmk(inst: GmkInstance, *, work_budget: int | None = None) -> MultistageSolution:
    """Exact optimum with a witness solution.

    Stage by stage, each packable subset keeps its best predecessor; the
    transition values come from separable per-item columns and the
    packability table from the monotone closure described in the module
    docstring. Deterministic: among optimal set sequences the one found by
    ascending subset masks stage by stage is returned (the first maximum
    over predecessors, then over final subsets), with packer-produced
    assignments.
    """
    budget = DEFAULT_ORACLE_BUDGET if work_budget is None else work_budget
    n = len(inst.items)
    horizon = inst.horizon
    work = horizon * (1 << n) * (1 << n)
    if work > budget:
        raise BudgetExceededError(
            f"oracle refused: {work} transitions exceed the budget {budget}"
        )

    size = 1 << n
    items = inst.items
    members = [tuple(i for k, i in enumerate(items) if (m >> k) & 1) for m in range(size)]
    subsets = [frozenset(t) for t in members]

    packable = [packable_row(inst, t) for t in range(1, horizon + 1)]
    profits = [
        [inst.stage_profit(t, subsets[m]) for m in range(size)] for t in range(1, horizon + 1)
    ]
    modular = inst.variant == MODULAR

    def entry_cost(m: int) -> int:
        if not modular:
            return 0
        return sum(inst.cost_plus[i, 1] for i in members[m])

    def exit_cost(m: int) -> int:
        if not modular:
            return 0
        return sum(inst.cost_minus[i, horizon] for i in members[m])

    # No reachable value nor transition term exceeds ``span`` in absolute
    # value, so an unreachable predecessor (``floor`` plus a term) loses to
    # every reachable one, and the first maximum is the smallest best mask.
    span = sum(abs(p) for row in profits for p in row) + sum(
        abs(v)
        for table in (inst.gain_plus, inst.gain_minus, inst.cost_plus, inst.cost_minus)
        for v in table.values()
    )
    floor = -3 * span - 1
    best = [profits[0][m] - entry_cost(m) if packable[0][m] else floor for m in range(size)]
    parents: list[list[int]] = []
    for t in range(2, horizon + 1):
        cols = transition_columns(inst, t)
        nxt = [floor] * size
        parent = [0] * size
        for cur in range(size):
            if not packable[t - 1][cur]:
                continue
            cand = list(map(add, best, cols[cur]))
            top = max(cand)
            nxt[cur] = top + profits[t - 1][cur]
            parent[cur] = cand.index(top)
        parents.append(parent)
        best = nxt

    final_best = floor
    final_mask = 0
    for m in range(size):
        if best[m] == floor:
            continue
        candidate = best[m] - exit_cost(m)
        if candidate > final_best:
            final_best = candidate
            final_mask = m
    if final_best == floor:
        raise ContractViolationError("no packable subset sequence exists (empty set must pack)")

    masks = [final_mask]
    for parent in reversed(parents):
        masks.append(parent[masks[-1]])
    masks.reverse()

    return pack_stage_sets(inst, tuple(subsets[m] for m in masks))


def pack_stage(
    stage: McpStage, chosen: frozenset[str], t: int
) -> tuple[Mapping[str, frozenset[str]], ...]:
    """Assignments of ``chosen`` under every constraint of stage t, in constraint order.

    Raises ``ContractViolationError`` when the set does not pack.
    """
    assignments = []
    for j, mkc in enumerate(stage.mkcs, start=1):
        result = pack_mkc(mkc, chosen)
        if not result.packed:
            raise ContractViolationError(f"stage set does not pack constraint (t={t}, j={j})")
        assignments.append(result.assignment)
    return tuple(assignments)


def checked_solution(
    inst: GmkInstance, sets: Sequence[frozenset[str]], assignments: Sequence[tuple]
) -> MultistageSolution:
    """The solution of these stage sets and assignments, once ``check_feasible`` accepts it.

    Raises ``ContractViolationError`` when it is infeasible.
    """
    solution = MultistageSolution(sets=tuple(sets), assignments=tuple(assignments))
    feasibility = check_feasible(inst, solution)
    if not feasibility.ok:
        raise ContractViolationError(
            "packed stage sets infeasible: " + "; ".join(feasibility.violations)
        )
    return solution


def pack_stage_sets(inst: GmkInstance, sets: Sequence[frozenset[str]]) -> MultistageSolution:
    """Pack each stage set under every constraint of its stage, then check the whole."""
    stages = enumerate(zip(inst.stages, sets), start=1)
    packed = [pack_stage(stage, chosen, t) for t, (stage, chosen) in stages]
    return checked_solution(inst, sets, packed)
