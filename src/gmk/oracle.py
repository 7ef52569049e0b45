"""Ground-truth solver: exhaustive dynamic program over per-stage item sets.

The objective couples only consecutive stages, and each coupling term
belongs to one item and depends only on whether that item is in the
previous and the current set. So a DP whose row holds every subset of the
items at a stage is exhaustive, and its max over predecessors factors by
item: ``max_plus_masks`` takes one pass per item over the ``2**|items|``
row, and the budget bounds the whole DP's ``T * |items| * 2**|items|``
additions. It keeps each stage's row of best values and no predecessor
table; walking back, it rebuilds the chosen set's one column of the full
``cur x prev`` table and takes its first maximum. Where the terms' span
fits 32- or 64-bit lanes, a row is one Python int of biased, nonnegative
lanes, and a pass is about twenty big-int operations with a guard-bit max
("SIMD within a register": Fisher and Dietz, LCPC 1998; Warren, *Hacker's
Delight*, ch. 2). Wider cells, such as the tie-break keys of the scheme's
exact shifts, take passes over lists. Both give the same values and witness.

Rows are ``core.Row``: each form, the list of cells or their lanes of one
width, is built on first use and kept, so a row held for a command is
converted at most once per (stage, width), however many DPs read it, and
its list is built only where something reads it: a submodular profit row,
the list passes, the masks ``place`` decides. A modular profit row is a
subset sum, built straight in lanes (``core.lane_sums``). Packability is
built in bulk too (``packable_row``): ``mkcp.Capacities.screen`` flags
every subset's weight sum at once by guard-bit compares, the flags of a
stage's constraints are and-ed in one int, and a constraint with no bin
packs only the empty set. Packability is monotone, as weights are
nonnegative and dropping an item from a feasible assignment keeps it
feasible: a subset the screen leaves open is packable when some subset
with one more item is, and ``mkcp.place`` decides only the subsets left
after that.

This module holds what the package's stage DPs share: the engine
``max_plus_masks`` and the stage table ``StageRows``, the one builder of a
stage's packability and profit rows, subsets and packed assignments. The
scheme's windows and the oracle (``StageRows.optimum``) read one table per
command. The oracle keeps its own terms, per item the chain of entry
``((0, 0), (-c+[1], 0))``, links ``((g-, -c-[t-1]), (-c+[t], g+))`` and
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

from array import array
from itertools import compress
from operator import add
from typing import Mapping, Sequence

from .core import (
    LANE_CODES as _LANE_CODES,
    MODULAR,
    GmkInstance,
    McpStage,
    MultistageSolution,
    Row,
    Rows,
    array_cells,
    check_feasible,
    evaluate_objective,
    lane_ones,
    subset_sums,
)
from .errors import BudgetExceededError, ContractViolationError
from .mkcp import Capacities, pack_mkc, place
from .reduction import DEFAULT_ENUM_BUDGET, count_text

# one stage's assignments: per constraint, the items of each bin
StageAssignments = tuple[Mapping[str, frozenset[str]], ...]


def packable_row(inst: GmkInstance, t: int) -> Row:
    """The flag row whose cell m is True when the subset with bit k set for items[k] packs at stage t.

    Every constraint's ``Capacities.screen`` flags all subsets at once, in
    lanes of one width for the stage, and a constraint with no bin packs
    only the empty set. The masks a screen leaves open are decided in
    descending order, so every one-item superset of a mask is decided
    before the mask itself, and ``place`` runs only on those with no
    packable one. The flags are read out in bulk, one byte per subset.
    """
    items = inst.items
    size = 1 << len(items)
    screens, width = [], 8
    for mkc in inst.stage(t).mkcs:
        if not mkc.bins:
            return Row.flags(b"\1" + bytes(size - 1))
        caps = sorted([mkc.capacities[b] for b in mkc.bins], reverse=True)
        bounds = Capacities(sum(caps), caps[0])
        width = max(width, bounds.lane_width(len(items)))
        screens.append((caps, bounds, [mkc.weights[i] for i in items]))
    # each lane's guard bit, as one byte per subset
    nbytes, step = size * width >> 3, width >> 3
    allowed, opened = lane_ones(size, width) << width - 1, []
    for caps, bounds, weights in screens:
        within, above = bounds.screen(weights, width)
        allowed &= within
        if above:
            opened.append((caps, weights, above))
    row = (allowed >> width - 1).to_bytes(nbytes, "little")[::step]
    if not opened:
        return Row.flags(row)
    open_mkcs: dict[int, list[tuple[list[int], list[tuple[int, int]]]]] = {}
    bits = [1 << k for k in range(len(items))]
    for caps, weights, above in opened:
        undecided = list(compress(range(size), ((above & allowed) >> width - 1).to_bytes(nbytes, "little")[::step]))
        if undecided:
            # (weight, bit) pairs by weight descending, for the masks left open
            desc = sorted(((w, bit) for w, bit in zip(weights, bits) if w), reverse=True)
            for m in undecided:
                open_mkcs.setdefault(m, []).append((caps, desc))
    if open_mkcs:
        row = bytearray(row)
        for m in sorted(open_mkcs, reverse=True):
            if not any(row[m | bit] for bit in bits if not m & bit):
                row[m] = all(
                    place(caps, [w for w, bit in desc if m & bit]) is not None for caps, desc in open_mkcs[m]
                )
    return Row.flags(bytes(row))


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
    rows: Rows | Sequence[Row | Sequence[int]],
    chains: Sequence[Sequence[tuple]],
    packable: Rows | Sequence[Row | Sequence[bool]],
) -> tuple[int, list[int]]:
    """The best value of a set sequence, and its set masks stage by stage.

    A sequence is worth the sum of ``rows[t][m]`` over its stages and of
    ``chains[k][s][in_cur][in_prev]`` over its items and T + 1 boundaries,
    by whether item k is in the sets after and before boundary s: 0 comes
    before the first stage and T after the last, next to empty sets, as in
    ``core.coupling_terms``. Set m counts only where ``packable[t][m]``.
    Each stage's row is a ``core.Row``, which gives each width's form once,
    however many calls read it, or a list, converted on each call; both
    may come as one ``core.Rows``.
    Ties go to the first maximum: over final sets, then over each chosen
    set's predecessors. Raises ``ContractViolationError`` when no sequence packs.
    """
    # each boundary's terms, item by item; with no item, every one is empty
    entry, *links, leave = zip(*chains) if chains else [()] * (len(rows) + 1)
    rows = rows if isinstance(rows, Rows) else Rows.stages(rows)
    packable = packable if isinstance(packable, Rows) else Rows.stages(packable)
    # entry terms [x][0] fold into the first row, exit terms [0][x] into the
    # last, less their out terms [0][0], whose sum the top gets back
    first = Row.sums(into - out for (out, _), (into, _) in entry)
    last = Row.sums(left - out for (out, left), _ in leave)
    span = rows.span + first.span + last.span
    span += sum(abs(a) + abs(b) + abs(c) + abs(d) for link in links for (a, b), (c, d) in link)
    # Every cell is worth a partial sequence's value, within span of 0 or of
    # the floor, so a lane biased by 4 * span + 1 holds it in 0..5 * span + 1
    # below its guard bit.
    width = next((w for w in _LANE_CODES if 5 * span + 1 < 1 << w - 1), None)
    top, masks = _max_plus(_folded(rows, first, last), links, packable, span, width)
    return top + sum(term[0][0] for term in entry + leave), masks


def _folded(rows: Rows, first: Row, last: Row) -> Rows:
    """``rows`` with ``first`` added to the first stage's row and ``last`` to the last one's."""

    def make(width: int | None) -> list:
        forms = list(rows.form(width))
        if width is None:
            forms[0] = list(map(add, forms[0], first))
            forms[-1] = list(map(add, forms[-1], last))
        else:
            forms[0] += first.form(width)
            forms[-1] += last.form(width)
        return forms

    return Rows(len(rows), rows.cells, rows.span + first.span + last.span, make)


def _max_plus(rows, links, packable, span: int, width: int | None) -> tuple[int, list[int]]:
    """``max_plus_masks`` with its forward passes on ``width``-bit lanes, or on lists for None."""
    # A packable sequence is worth at least -span, one through ``floor`` at
    # most floor + span < -span: it never wins a maximum, and a top below
    # -span means that no sequence packs.
    floor = -(3 * span + 1)
    if width is None:
        bias, (history, column) = 0, _list_passes(rows, links, packable, floor)
    else:
        bias = span - floor
        history, column = _lane_passes(rows, links, packable, floor, bias, width)
    best = column(history[-1], (), 0)
    top = max(best) - bias
    if top < -span:
        raise ContractViolationError("no packable subset sequence exists (empty set must pack)")
    # Walking back, the chosen set's transition column is rebuilt over every
    # predecessor and its first maximum taken, the predecessor a full
    # ``cur x prev`` table would keep.
    masks = [best.index(top + bias)]
    for link, prev in zip(reversed(links), reversed(history[:-1])):
        cand = column(prev, link, masks[-1])
        masks.append(cand.index(max(cand)))
    masks.reverse()
    return top, masks


def _list_passes(rows, links, packable, floor: int):
    """Each stage's row of best values, one Python int per cell, and ``_list_column``."""
    rows = list(rows)
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
    return history, _list_column


def _list_column(prev: list[int], link, cur: int) -> list[int]:
    """Every predecessor's value plus its terms ``link[k][in_cur][in_prev]`` into set ``cur``, less their out_prev sum."""
    if not link:
        return prev
    terms = [term[cur >> k & 1] for k, term in enumerate(link)]
    return list(map(add, prev, subset_sums(in_prev - out_prev for out_prev, in_prev in terms)))


def _lane_passes(rows: Rows, links, packable: Rows, floor: int, bias: int, width: int):
    """Each stage's row of best values plus ``bias``, cell m in bits ``m * width`` up, and its column.

    Every lane holds a partial sequence's value plus ``bias``: nonnegative
    and below its guard bit (``max_plus_masks`` picks the width), so big-int
    sums never carry across lanes. The rows give their lanes ready, each
    built once per width. ``column`` adds all of each predecessor's terms.
    """
    size = rows.cells
    ones = lane_ones(size, width)
    guard_bit = width - 1
    guard, floors = ones << guard_bit, (floor + bias) * ones
    # per item k: the shift that lines lane m up with lane m | 2**k, a one in
    # each lane with bit k clear and in each with it set, and the former's bits
    per_item = []
    one = b"\1" + bytes((width >> 3) - 1)
    for k in range(size.bit_length() - 1):
        e0 = int.from_bytes((one * (1 << k) + bytes(len(one) << k)) * (size >> k + 1), "little")
        per_item.append((width << k, e0, e0 << (width << k), (e0 << width) - e0))

    def column(prev: int, link, cur: int) -> array:
        for k, (term, (_, e0, e1, _)) in enumerate(zip(link, per_item)):
            out_prev, in_prev = term[cur >> k & 1]
            prev += out_prev * e0 + in_prev * e1
        return array_cells(prev, size, width)

    history, best = [], bias * ones
    for link, row, keep in zip(((), *links), rows.form(width), packable.form(width)):
        acc = best
        for ((out0, out1), (in0, in1)), (shift, e0, e1, low) in zip(link, per_item):
            # Lane m and lane m | 2**k line up by one shift. Each lane keeps
            # the larger of its prev bit k kept (same) and flipped (cross), by
            # the sign of same - cross in its guard bit, clear in both.
            p0 = acc & low
            same = acc + out0 * e0 + in1 * e1
            cross = ((acc ^ p0) >> shift) + (p0 << shift) + out1 * e0 + in0 * e1
            sel = ((same | guard) - cross) & guard
            acc = cross ^ (same ^ cross) & sel - (sel >> guard_bit)
        best = floors ^ ((acc + row) ^ floors) & ((keep << width) - keep)
        history.append(best)
    return history, column


class StageRows(dict):
    """The per-instance stage table that every stage DP of one command reads.

    Stage t maps, on first use, to its pair of ``core.Row``: the
    packability of every item subset at stage t (``packable_row``) and
    that subset's stage profit, each held in every form a DP has read, so
    a (stage, width) pair is converted at most once per command.
    ``subset`` builds a mask's item set once, when a DP picks it or
    a submodular profit row needs it, and ``assignments`` packs each
    (stage, set) pair once, for the scheme's answer and the oracle's.
    """

    def __init__(self, inst: GmkInstance):
        super().__init__()
        self.instance = inst
        self.subsets: dict[int, frozenset[str]] = {}
        self.packed: dict[tuple[int, frozenset[str]], StageAssignments] = {}

    def subset(self, m: int) -> frozenset[str]:
        """The item subset of mask m, built on first use and kept in ``subsets``."""
        if m not in self.subsets:
            items = self.instance.items
            self.subsets[m] = frozenset(i for k, i in enumerate(items) if m >> k & 1)
        return self.subsets[m]

    def __missing__(self, t: int) -> tuple[Row, Row]:
        inst = self.instance
        profit = inst.stage(t).profit
        if inst.variant == MODULAR:
            row = Row.sums([profit[i] for i in inst.items])
        else:
            row = Row.of(profit.evaluate(self.subset(m)) for m in range(1 << len(inst.items)))
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
        top, masks = max_plus_masks(rows, chains, packable)
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
