"""Ground-truth solver: exhaustive dynamic program over per-stage item sets.

The objective couples only consecutive stages, and each coupling term
belongs to one item and depends only on whether that item is in the
previous and the current set. So a DP whose row holds every subset of the
items at a stage is exhaustive, and its max over predecessors factors by
item: ``max_plus_masks`` takes one pass per item over the ``2**|items|``
row, and the budget bounds the whole DP's ``T * |items| * 2**|items|``
additions. It keeps one row per stage and no predecessor table; walking
back, it rebuilds the chosen set's one column of the full ``cur x prev``
table and takes its first maximum. Where the terms' span fits 32- or
64-bit lanes (``gmk.lanes``), a row is one int of biased, nonnegative
lanes, a pass is about twenty big-int operations ending in one
``lanes.larger``, and a column's first maximum is its lowest lane equal to
the maximum the forward pass kept, by one ``lanes.at_least``. Wider cells,
such as the tie-break keys of the scheme's exact shifts, take passes over
lists. Both give the same values and witness.

The engine takes only held ``lanes.Rows``, so a row held for a command is
converted at most once per (stage, width), however many DPs read it. A
modular profit row is a ``lanes.Row.sums``. Packability is built in bulk
too (``packable_row``): ``mkcp.screen`` decides every subset of a
constraint in lanes, by one rule for any number of bins, and a stage's
flags are and-ed in one int; a binless constraint packs only the empty
set. The rule chains over the capacities c1 >= ... >= ck: P_1[m] =
[w(m) <= c1], and P_j[m] = [h_j[m] + c_j >= w(m)], h_j the subset max of
w * P_{j-1}. It is exact, as m packs into bins 1..j exactly when some B
inside m packs into bins 1..j-1 with w(m) - w(B) <= c_j, and the heaviest
such B is enough.

This module holds what the package's stage DPs share: the engine
``max_plus_masks`` and the stage table ``StageRows``, the one builder of a
stage's packability and profit rows, subsets and packed assignments. Each
command builds one table, which checks its instance (``core.ensure_valid``),
and the scheme's windows and the oracle (``StageRows.optimum``) read it.
The oracle keeps its own terms, per item the chain of entry ``((0, 0),
(-c+[1], 0))``, links ``((g-, -c-[t-1]), (-c+[t], g+))`` and
exit ``((0, -c-[T]), (0, 0))`` read straight from the instance tables
(never ``core.coupling_terms``), and the plain ascending-mask tie-break.
Tests check the engine and the table against references that run neither:
``tests/util.full_table_oracle`` (a ``T * 4**|items|`` DP on
``stage_profit`` and every map of weights to bins), the literal
enumeration ``enumerate_optimum`` and the reduced branch and bound.
``cutting.solve_shift`` checks each exact shift's DP value against the
sum of its windows' ``core.evaluate_window``, and ``optimum`` its own
against ``core.evaluate_objective``. All values are plain Python ints, exact.
"""

from __future__ import annotations

from operator import add
from typing import Mapping, Sequence

from . import lanes
from .core import MODULAR, GmkInstance, McpStage, MultistageSolution, check_feasible, ensure_valid, evaluate_objective
from .errors import BudgetExceededError, ContractViolationError
from .mkcp import pack_mkc, screen
from .reduction import DEFAULT_ENUM_BUDGET, count_text

# one stage's assignments: per constraint, the items of each bin
StageAssignments = tuple[Mapping[str, frozenset[str]], ...]


def packable_row(inst: GmkInstance, t: int) -> lanes.Row:
    """The flag row whose cell m is True when the subset with bit k set for items[k] packs at stage t.

    Every constraint's ``mkcp.screen`` decides all subsets at once, of any
    number of bins, in lanes of one width for the stage, and the stage's
    row is their and, read out in bulk, one byte per subset; a constraint
    with no bin packs only the empty set.
    """
    items = inst.items
    size = 1 << len(items)
    screens, width = [], 8
    for weights, bins, capacities in inst.stage(t).mkcs:
        if not bins:
            return lanes.Row.flags(b"\1" + bytes(size - 1))
        caps = sorted([capacities[b] for b in bins], reverse=True)
        width = max(width, lanes.width((len(items) + 1) * (sum(caps) + 1)))
        screens.append((caps, [weights[i] for i in items]))
    allowed = lanes.guard(size, width)
    for caps, weights in screens:
        allowed &= screen(caps, weights, width)
    return lanes.Row.flags(lanes.flags(allowed, size, width))


def check_dp_work(refusal: str, horizon: int, n: int, budget: int | None) -> None:
    """Refuse a stage DP whose ``horizon * n * 2**n`` additions over n items pass ``budget``.

    None means ``DEFAULT_ENUM_BUDGET``. Raises ``BudgetExceededError``, opening with ``refusal``.
    """
    budget = DEFAULT_ENUM_BUDGET if budget is None else budget
    work = horizon * n * 2**n
    if work > budget:
        raise BudgetExceededError(
            f"{refusal} work {count_text(work)} (T * |I| * 2**|I|) exceeds budget {budget}"
        )


def max_plus_masks(
    rows: lanes.Rows, chains: Sequence[Sequence[tuple]], packable: lanes.Rows, link_span: int
) -> tuple[int, list[int]]:
    """The best value of a set sequence, and its set masks stage by stage.

    A sequence is worth the sum of ``rows[t][m]`` over its stages and of
    ``chains[k][s][in_cur][in_prev]`` over its items and T + 1 boundaries,
    by whether item k is in the sets after and before boundary s: 0 comes
    before the first stage and T after the last, next to empty sets, as in
    ``core.coupling_terms``. Set m counts only where ``packable[t][m]``.
    Both are held ``lanes.Rows``, which give each width's form once, however
    many calls read it. ``link_span`` is the sum of the magnitudes of the
    chains' terms at boundaries 1..T-1, which the caller sums once.
    Ties go to the first maximum: over final sets, then over each chosen
    set's predecessors. Raises ``ContractViolationError`` when no sequence packs.
    """
    # each boundary's terms, item by item; with no item, every one is empty
    entry, *links, leave = zip(*chains) if chains else [()] * (len(rows) + 1)
    # entry terms [x][0] fold into the first row, exit terms [0][x] into the
    # last, less their out terms [0][0], whose sum the top gets back; each
    # term is in half of its row's cells
    ends = [into - out for (out, _), (into, _) in entry], [left - out for (out, left), _ in leave]
    span = rows.span + link_span + (sum(map(abs, ends[0])) + sum(map(abs, ends[1])) << len(entry) >> 1)
    # Every cell is worth a partial sequence's value, within span of 0 or of
    # the floor, so a lane biased by 4 * span + 1 holds it in 0..5 * span + 1
    # below its guard bit.
    width = next((w for w in lanes.CODES if w >= lanes.width(5 * span + 1)), None)
    top, masks = _max_plus(rows, ends, links, packable, span, width)
    return top + sum(term[0][0] for term in entry + leave), masks


def link_span(chains: Sequence[Sequence[tuple]]) -> int:
    """The sum of the magnitudes of the chains' terms at boundaries 1..T-1: ``max_plus_masks``' ``link_span``."""
    return sum(abs(a) + abs(b) + abs(c) + abs(d) for chain in chains for (a, b), (c, d) in chain[1:-1])


def _max_plus(rows: lanes.Rows, ends, links, packable: lanes.Rows, span: int, width: int | None) -> tuple[int, list[int]]:
    """``max_plus_masks`` with its passes on ``width``-bit lanes, or on lists for None, ``ends`` folded into the rows."""
    # A packable sequence is worth at least -span, one through ``floor`` at
    # most floor + span < -span: it never wins a maximum, and a top below
    # -span means that no sequence packs.
    floor = -(3 * span + 1)
    forms = list(rows.form(width))
    for t, terms in zip((0, -1), ends):
        forms[t] = list(map(add, forms[t], lanes.subset_sums(terms))) if width is None else forms[t] + lanes.sums(terms, width)
    if width is None:
        top, masks = _list_passes(forms, links, packable.form(None), floor)
    else:
        top, masks = _lane_passes(forms, links, packable.form(width), floor, span - floor, width, 1 << len(ends[0]))
    if top < -span:
        raise ContractViolationError("no packable subset sequence exists (empty set must pack)")
    return top, masks


def _list_passes(rows: list, links, packable: list, floor: int) -> tuple[int, list[int]]:
    """The top and masks by passes over lists, one Python int per cell."""
    history, best = [], [0] * len(rows[0])
    half = len(best) >> 1
    for link, row, ok in zip(((), *links), rows, packable):
        # The max over prev of best[prev] plus the per-item terms takes one
        # pass per item, last item first: a pass swaps the top bit's prev
        # value for its cur value and rotates the mask left, bringing the
        # next item's bit on top; n passes restore the item order.
        acc = best[:]
        for (out0, out1), (in0, in1) in reversed(link):
            left, right = acc[:half], acc[half:]
            acc[0::2] = map(max, [v + out0 for v in left], [v + out1 for v in right])
            acc[1::2] = map(max, [v + in0 for v in left], [v + in1 for v in right])
        best = [v + x if y else floor for v, x, y in zip(acc, row, ok)]
        history.append(best)
    # Walking back, the chosen set's transition column is rebuilt over every
    # predecessor and its first maximum taken, the predecessor a full
    # ``cur x prev`` table would keep: each predecessor's value plus its
    # terms into set cur, less their out_prev sum.
    top = max(best)
    masks = [best.index(top)]
    for link, prev in zip(reversed(links), reversed(history[:-1])):
        terms = [term[masks[-1] >> k & 1] for k, term in enumerate(link)]
        cand = list(map(add, prev, lanes.subset_sums(in_prev - out_prev for out_prev, in_prev in terms)))
        masks.append(cand.index(max(cand)))
    masks.reverse()
    return top, masks


def _lane_passes(rows: list[int], links, packable: list[int], floor: int, bias: int, width: int, size: int):
    """The top and masks by passes over ``size`` lanes of ``width`` bits, the rows' held lanes.

    Every lane holds a partial sequence's value plus ``bias``, nonnegative
    and below its guard bit: ``max_plus_masks`` picks the width.
    """
    ones, guard = lanes.ones(size, width), lanes.guard(size, width)
    floors = (floor + bias) * ones
    per_item = lanes.masks(size, width)

    def settle(acc: int, row: int, keep: int) -> int:
        # a stage's best values: its maxima plus its row where it packs, else the floor
        return floors ^ ((acc + row) ^ floors) & ((keep << width) - keep)

    # per stage: its maxima over the best values before it
    history, best = [], bias * ones
    for link, row, keep in zip(((), *links), rows, packable):
        acc = best
        for ((out0, out1), (in0, in1)), (shift, e0, e1, low) in zip(link, per_item):
            # Lane m and lane m | 2**k line up by one shift. Each lane keeps
            # the larger of its prev bit k kept (same) and flipped (cross).
            p0 = acc & low
            same = acc + out0 * e0 + in1 * e1
            cross = ((acc ^ p0) >> shift) + (p0 << shift) + out1 * e0 + in0 * e1
            acc = lanes.larger(same, cross, guard, width)
        history.append(acc)
        best = settle(acc, row, keep)
    cells = lanes.cells(best, size, width)
    top = max(cells)
    masks = [cells.index(top)]
    # Walking back, the chosen set cur's column adds every predecessor's terms
    # into cur; the lanes equal to cur's maximum from the forward pass set
    # their guard bit, and the lowest is the first maximum.
    for t in range(len(links), 0, -1):
        cur, prev = masks[-1], settle(history[t - 1], rows[t - 1], packable[t - 1])
        for k, (term, (_, e0, e1, _)) in enumerate(zip(links[t - 1], per_item)):
            out_prev, in_prev = term[cur >> k & 1]
            prev += out_prev * e0 + in_prev * e1
        sel = lanes.at_least(prev, (history[t] >> cur * width & (1 << width) - 1) * ones, guard)
        masks.append(lanes.lowest(sel, width))
    masks.reverse()
    return top - bias, masks


class StageRows(dict):
    """The per-instance stage table that every stage DP of one command reads.

    Building it checks the instance (``core.ensure_valid``), so an invalid
    one is refused with ``InputError`` before any row is read. Stage t
    maps, on first use, to its pair of ``lanes.Row``: the packability of
    every item subset at stage t (``packable_row``) and that subset's
    stage profit, each held in every form a DP has read, so a (stage,
    width) pair is converted at most once per command.
    ``subset`` builds a mask's item set once, when a DP picks it or
    a submodular profit row needs it, and ``assignments`` packs each
    (stage, set) pair once, for the scheme's answer and the oracle's.
    """

    def __init__(self, inst: GmkInstance):
        super().__init__()
        self.instance = ensure_valid(inst)
        self.subsets: dict[int, frozenset[str]] = {}
        self.packed: dict[tuple[int, frozenset[str]], StageAssignments] = {}

    def subset(self, m: int) -> frozenset[str]:
        """The item subset of mask m, built on first use and kept in ``subsets``."""
        if m not in self.subsets:
            items = self.instance.items
            self.subsets[m] = frozenset(i for k, i in enumerate(items) if m >> k & 1)
        return self.subsets[m]

    def __missing__(self, t: int) -> tuple[lanes.Row, lanes.Row]:
        inst = self.instance
        profit = inst.stage(t).profit
        if inst.variant == MODULAR:
            row = lanes.Row.sums([profit[i] for i in inst.items])
        else:
            row = lanes.Row.of(profit.evaluate(self.subset(m)) for m in range(1 << len(inst.items)))
        rows = self[t] = (packable_row(inst, t), row)
        return rows

    def assignments(self, t: int, chosen: frozenset[str]) -> StageAssignments:
        """The assignments of ``chosen`` under every constraint of stage t, packed once."""
        key = (t, chosen)
        if key not in self.packed:
            self.packed[key] = pack_stage(self.instance.stage(t), chosen, t)
        return self.packed[key]

    def optimum(self, work_budget: int | None = None) -> tuple[MultistageSolution, int]:
        """Exact optimum with a witness solution, by ``max_plus_masks`` on this module's terms.

        Among optimal set sequences, the first by ascending subset masks
        (over final subsets, then over predecessors), with packer-produced
        assignments, and its value: the DP's, which must equal the objective
        of its sets. Refused when the DP's ``T * |I| * 2**|I|`` additions
        pass ``work_budget``.
        """
        inst = self.instance
        items, horizon = inst.items, inst.horizon
        check_dp_work("oracle refused: DP", horizon, len(items), work_budget)
        packable, rows = zip(*(self[t] for t in range(1, horizon + 1)))
        gp, gm, cp, cm = inst.gain_plus, inst.gain_minus, inst.cost_plus, inst.cost_minus
        # chains[k][t - 1][in_cur][in_prev]: item k's term at the boundary before stage t
        chains = [
            [((0, 0), (-cp[i, 1], 0))]
            + [((gm[i, t], -cm[i, t - 1]), (-cp[i, t], gp[i, t])) for t in range(2, horizon + 1)]
            + [((0, -cm[i, horizon]), (0, 0))]
            for i in items
        ]
        top, masks = max_plus_masks(lanes.Rows.stages(rows), chains, lanes.Rows.stages(packable), link_span(chains))
        sets = [self.subset(m) for m in masks]
        value = evaluate_objective(inst, sets)
        if top != value:
            raise ContractViolationError(f"oracle DP value {top} differs from the objective {value}")
        return self.solution(sets), value

    def solution(self, sets: Sequence[frozenset[str]]) -> MultistageSolution:
        """The solution of the stage sets of all T stages, each packed once, after ``checked_solution``."""
        packed = [self.assignments(t, s) for t, s in enumerate(sets, start=1)]
        return checked_solution(self.instance, sets, packed)


def brute_force_gmk(inst: GmkInstance, *, work_budget: int | None = None) -> MultistageSolution:
    """The solution of ``StageRows(inst).optimum(work_budget)``: the exact optimum on a table of its own."""
    return StageRows(inst).optimum(work_budget)[0]


def pack_stage(stage: McpStage, chosen: frozenset[str], t: int) -> StageAssignments:
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
