"""Ground-truth solver: exhaustive dynamic program over per-stage item sets.

The objective couples only consecutive stages, so a DP whose row holds
every subset of the items at a stage, and that takes each subset's best
predecessor, is exhaustive and exact. Every coupling term belongs to one
item and depends only on whether that item is in the previous and the
current set, so the max over predecessors factors by item: one pass per
item over the ``2**|items|`` row swaps that item's previous-stage bit for
its current-stage bit and adds its term. A stage costs about
``|items| * 2**|items|`` additions, and the budget bounds the whole DP's
``T * |items| * 2**|items|``. The forward pass keeps each stage's row of
best values and no predecessor table; walking back, each stage rebuilds
the one column of the full ``cur x prev`` table that belongs to the chosen
set and takes its first maximum. Modular profit rows come by doubling over
the items.

Packability is built in bulk: each constraint's subset weight sums and
heaviest weights come by doubling over the items, and
``mkcp.Capacities.fit`` screens them (one bin packs a sum within its
capacity; more bins refuse a sum above their total or an item above the
largest bin, and take a sum that fits the largest bin), while a constraint
with no bin packs only the empty set. Packability is monotone, as weights
are nonnegative and dropping an item from a feasible assignment keeps it
feasible: a subset the screens leave open is packable when some subset
with one more item is, and the exact packer decides only the subsets left
after that.

The DP runs on plain Python ints, so it is exact at any magnitude. It
keeps its own encoding of the objective's terms, per item
``((g-, -c-[t-1]), (-c+[t], g+))`` read straight from the instance tables,
independent of ``core.coupling_terms`` (which the reduction and
``cutting``'s stage DP read), because it is the reference the exact
solvers are tested against. ``packable_row``, the one packability kernel
of the package's stage DPs, ``pack_stage`` and ``checked_solution`` are
shared with ``cutting``, so an error in them would show in its stage DP
and in this reference alike; the test that the DP picks the masks of the
reduced branch and bound, which encodes the objective independently,
catches it there.
"""

from __future__ import annotations

from operator import add, sub
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


def check_oracle_budget(inst: GmkInstance, work_budget: int | None = None) -> None:
    """Refuse the oracle's DP when its ``T * |I| * 2**|I|`` additions pass the budget.

    None means ``DEFAULT_ORACLE_BUDGET``. Raises ``BudgetExceededError``.
    """
    budget = DEFAULT_ORACLE_BUDGET if work_budget is None else work_budget
    n = len(inst.items)
    work = inst.horizon * n * 2**n
    if work > budget:
        raise BudgetExceededError(
            f"oracle refused: DP work {work} (T * |I| * 2**|I|) exceeds budget {budget}"
        )


def brute_force_gmk(inst: GmkInstance, *, work_budget: int | None = None) -> MultistageSolution:
    """Exact optimum with a witness solution.

    Stage by stage, each packable subset keeps its best value over all
    predecessors, by the per-item passes and the packability closure
    described in the module docstring. Deterministic: among optimal set
    sequences the one found by ascending subset masks stage by stage is
    returned (the first maximum over predecessors, then over final
    subsets), with packer-produced assignments.
    """
    check_oracle_budget(inst, work_budget)
    items, horizon = inst.items, inst.horizon
    size = 1 << len(items)
    subsets = [frozenset(i for k, i in enumerate(items) if m >> k & 1) for m in range(size)]
    modular = inst.variant == MODULAR

    def item_row(values) -> list[int]:
        row = [0]
        for v in values:
            row += [x + v for x in row]
        return row

    packable = [packable_row(inst, t) for t in range(1, horizon + 1)]
    profits = [
        item_row(inst.stage(t).profit[i] for i in items)
        if modular
        else [inst.stage(t).profit.evaluate(s) for s in subsets]
        for t in range(1, horizon + 1)
    ]
    entry = item_row(inst.cost_plus[i, 1] if modular else 0 for i in items)
    leave = item_row(inst.cost_minus[i, horizon] if modular else 0 for i in items)
    # links[t - 2][k][in_cur][in_prev]: item k's term at the boundary before stage t
    gp, gm, cp, cm = inst.gain_plus, inst.gain_minus, inst.cost_plus, inst.cost_minus
    links = [
        [
            ((gm[i, t], -cm[i, t - 1] if modular else 0), (-cp[i, t] if modular else 0, gp[i, t]))
            for i in items
        ]
        for t in range(2, horizon + 1)
    ]

    # No reachable value nor transition term exceeds ``span`` in absolute
    # value, so an unreachable predecessor (``floor`` plus a term) loses to
    # every reachable one, and the first maximum is the smallest best mask.
    span = sum(abs(p) for row in profits for p in row) + sum(
        abs(v)
        for table in (inst.gain_plus, inst.gain_minus, inst.cost_plus, inst.cost_minus)
        for v in table.values()
    )
    floor = -3 * span - 1
    best = [p - c if ok else floor for p, c, ok in zip(profits[0], entry, packable[0])]
    history = [best]
    half = size >> 1
    for link, profit, ok in zip(links, profits[1:], packable[1:]):
        # One pass per item, last item first: a pass swaps the top bit's
        # previous-stage value for its current one and rotates the mask
        # left, so after all passes the mask holds the current set.
        acc = best[:]
        for (out0, out1), (in0, in1) in reversed(link):
            left, right = acc[:half], acc[half:]
            acc[0::2] = map(max, [v + out0 for v in left], [v + out1 for v in right])
            acc[1::2] = map(max, [v + in0 for v in left], [v + in1 for v in right])
        best = [v + p if y else floor for v, p, y in zip(acc, profit, ok)]
        history.append(best)

    final = list(map(sub, best, leave))
    masks = [final.index(max(final))]
    if best[masks[0]] == floor:
        raise ContractViolationError("no packable subset sequence exists (empty set must pack)")
    # Walking back, the chosen set's transition column is rebuilt over every
    # predecessor and its first maximum taken, the predecessor a full
    # ``cur x prev`` table would keep.
    for link, prev in zip(reversed(links), reversed(history[:-1])):
        col = [0]
        for k, term in enumerate(link):
            out_prev, in_prev = term[masks[-1] >> k & 1]
            col = [v + out_prev for v in col] + [v + in_prev for v in col]
        cand = list(map(add, prev, col))
        masks.append(cand.index(max(cand)))
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
