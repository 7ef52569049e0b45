"""Solvers for reduced packing instances, on one placement search.

``place`` decides whether positive weights fit a multiple knapsack
constraint's bins, by first-fit-decreasing and then exhaustive
backtracking with symmetry breaking on equal remaining capacities.
``pack_assignment`` names its placement by element and bin;
``oracle.packable_row`` and ``_PartialPacking.avail`` only ask whether one
exists. Every solver asks ``avail(k)`` for the stages where the k-th item
still packs on top of its choices so far; a schedule packs exactly when
its mask lies inside that mask.

``solve_mkcp_exact`` finds a maximum-value selection of one schedule per
item. Every solver reads the reduced instance's per-item mask-to-value
tables and builds ``ReducedElement``s only for the schedules it chooses or
hands to a submodular objective. For modular values the search runs on
Python ints, exact at any magnitude: per item, the mask and value of every
schedule that survives a solo-pack filter and a dominance prune (a subset
schedule of at least equal value exists; safe, as weights shrink
coordinatewise with the schedule). One branch-and-bound pass walks each item's schedules
inside ``avail`` in ascending mask order and records only strict
improvements, so it returns the first optimum it reaches, the
lexicographically smallest. Submodular objectives are searched in
lexicographic order under a monotonicity upper bound. Both are exact and
deterministic; an enumeration budget refuses oversized per-item subset
tables and stops a search once it has examined more candidate schedules.

``solve_mkcp_greedy`` gives each item in turn its best schedule inside
``avail``, packing under a node budget, and never fails: the empty
schedule weighs nothing everywhere.

Both solvers serve only ``gmk solve-mkcp``, whose reduced file may carry
arbitrary per-mask values. The scheme builds no reduction: the stage DPs
in ``cutting`` pick the same schedules for its windows, and its greedy
windows build their ``_PartialPacking`` from the stages' own constraints.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Hashable, Mapping, NamedTuple, Sequence

from .core import MODULAR, Mkc, lane_ones, lane_sums
from .errors import BudgetExceededError, ContractViolationError
from .reduction import (
    ReducedElement,
    ReducedInstance,
    ReducedSolution,
    check_table_budget,
    verify_reduced_solution,
)

DEFAULT_PACK_BUDGET = 10**5


class _BudgetHit(Exception):
    pass


@dataclass(frozen=True)
class PackingResult:
    """Outcome of a packing attempt: a witness assignment, or None when the set does not pack."""

    assignment: Mapping[str, frozenset] | None

    @property
    def packed(self) -> bool:
        return self.assignment is not None


def place(caps: Sequence[int], weights: Sequence[int], node_budget: int | None = None) -> list[int] | None:
    """Each weight's index in ``caps`` in a packing of the weights, or None when none exists.

    ``caps`` must descend, and ``weights`` be positive and descend. First
    fit decreasing runs first; when it strands a weight, backtracking tries
    each weight in every bin with room, once per distinct remaining
    capacity, and raises ``_BudgetHit`` past ``node_budget`` nodes. Equal
    weights are interchangeable and the ``tried`` set merges bins of equal
    capacity, so the nodes visited and a budgeted outcome depend on the two
    lists alone, never on the names behind them.
    """
    if sum(weights) > sum(caps) or weights and weights[0] > caps[0]:
        return None
    remaining = list(caps)
    placed: list[int] = []
    for w in weights:
        for b, r in enumerate(remaining):
            if r >= w:
                remaining[b] = r - w
                placed.append(b)
                break
        else:
            break
    else:
        return placed

    remaining, placed = list(caps), [0] * len(weights)
    nodes = 0

    def dfs(k: int) -> bool:
        nonlocal nodes
        if k == len(weights):
            return True
        nodes += 1
        if node_budget is not None and nodes > node_budget:
            raise _BudgetHit
        w = weights[k]
        tried: set[int] = set()
        for b, r in enumerate(remaining):
            if r < w or r in tried:
                continue
            tried.add(r)
            remaining[b] = r - w
            placed[k] = b
            if dfs(k + 1):
                return True
            remaining[b] = r
        return False

    return placed if dfs(0) else None


def pack_assignment(
    bins: Sequence[str], capacities: Mapping[str, int], weights: Mapping[Hashable, int]
) -> PackingResult:
    """Exact multiple-knapsack packability of a fixed element set, by unbudgeted ``place``.

    Elements go in weight descending, then key, order and bins in the
    canonical order (capacity descending, then bin id). Zero-weight
    elements always fit and are parked in the first bin of that order.
    """
    entries = sorted(weights.items(), key=lambda kv: (-kv[1], kv[0]))
    if not bins:
        return PackingResult(None if entries else {})
    order = sorted(bins, key=lambda b: (-capacities[b], b))
    placed = place([capacities[b] for b in order], [w for _, w in entries if w])
    if placed is None:
        return PackingResult(None)
    assignment: dict[str, set] = {b: set() for b in bins}
    # the positive weights lead the entries, and the zeros follow
    for (e, _), b in zip(entries, placed):
        assignment[order[b]].add(e)
    for e, _ in entries[len(placed) :]:
        assignment[order[0]].add(e)
    return PackingResult({b: frozenset(s) for b, s in assignment.items()})


def pack_mkc(mkc: Mkc, chosen: Sequence[str] | frozenset[str]) -> PackingResult:
    """Packability of an item set under one original constraint."""
    return pack_assignment(mkc.bins, mkc.capacities, {i: mkc.weights[i] for i in chosen})


class Capacities(NamedTuple):
    """A constraint's bin capacities, as far as loads alone decide packability."""

    total: int
    largest: int

    @classmethod
    def of(cls, caps: Sequence[int]) -> "Capacities":
        return cls(sum(caps), max(caps, default=0))

    def fit(self, load: int, heaviest: int) -> bool | None:
        """Whether weights summing to ``load``, none above ``heaviest``, pack.

        Bins refuse them when the sum exceeds the total or the heaviest
        exceeds the largest bin, and take them all in the largest bin when
        the sum fits there, as one bin does. ``None`` leaves the rest to
        ``place``; ``pack_assignment`` packs only the empty set into no bin.
        """
        if load > self.total or heaviest > self.largest:
            return False
        return True if load <= self.largest else None

    def lane_width(self, n: int) -> int:
        """A lane width in whole bytes for ``screen`` of n weights: room for (n + 1) * (total + 1) below the guard bit."""
        return ((n + 1) * (self.total + 1)).bit_length() + 8 >> 3 << 3

    def screen(self, weights: Sequence[int], width: int) -> tuple[int, int]:
        """``fit`` of every subset at once, in guard bits: of those that may pack, and of those left to ``place``.

        Subset m holds ``weights[k]`` for each bit k of m, and its lane is
        bits ``m * width`` up (``core.lane_sums``), its guard bit the top
        one; ``width`` is at least ``lane_width``. An item above the largest
        bin counts as total + 1, so one comparison refuses its subsets. Each
        bound takes one subtraction: the guard bit of ``bound + guard - sum``
        stays set where the sum is at most the bound.
        """
        total, largest = self
        ones = lane_ones(1 << len(weights), width)
        guard = ones << width - 1
        sums = lane_sums([w if w <= largest else total + 1 for w in weights], width)
        within = (total * ones + guard - sums) & guard
        return within, within ^ (largest * ones + guard - sums) & guard if total > largest else 0


class _PartialPacking:
    """Incremental packability of a growing chosen set, stage by stage.

    ``stages[t]`` holds the constraints of the stage on bit t. Every
    constraint belongs to one stage, so a schedule packs on top of the
    pushed ones exactly when each of its stages accepts the item. A stage
    with a binless constraint accepts no item, whatever its weight: no bin
    can hold it. ``Capacities.fit`` decides from the loads what it can,
    every single-bin constraint included, and ``place`` the rest from the
    pushed weights.
    """

    def __init__(
        self, items: Sequence[str], stages: Sequence[Sequence[Mkc]], node_budget: int | None = None
    ):
        self.node_budget = node_budget
        pairs = [(1 << t, mkc) for t, mkcs in enumerate(stages) for mkc in mkcs]
        self.full = (1 << len(stages)) - 1 & ~sum({bit for bit, mkc in pairs if not mkc.bins})
        self.bin_caps = [sorted([mkc.capacities[b] for b in mkc.bins], reverse=True) for _, mkc in pairs]
        self.caps = [Capacities.of(caps) for caps in self.bin_caps]
        # per item: (constraint index, stage bit, weight) wherever it weighs anything
        self.weights: list[list[tuple[int, int, int]]] = [
            [(ci, b, w) for ci, (b, mkc) in enumerate(pairs) if (w := mkc.weights.get(item, 0)) > 0]
            for item in items
        ]
        # per constraint: the pushed items' positive weights, and their sum
        self.loads: list[list[int]] = [[] for _ in pairs]
        self.load_sums: list[int] = [0] * len(pairs)

    def avail(self, k: int) -> int:
        """Mask of the stages where the k-th item still packs."""
        avail = self.full
        for ci, bit, w in self.weights[k]:
            if not avail & bit:
                continue
            # the pushed weights fit already, so w is the one that can be too heavy
            fits = self.caps[ci].fit(self.load_sums[ci] + w, w)
            if fits is None:
                try:
                    weights = sorted([*self.loads[ci], w], reverse=True)
                    fits = place(self.bin_caps[ci], weights, self.node_budget) is not None
                except _BudgetHit:
                    fits = False
            if not fits:
                avail ^= bit
        return avail

    def push(self, k: int, mask: int) -> None:
        for ci, bit, w in self.weights[k]:
            if mask & bit:
                self.load_sums[ci] += w
                self.loads[ci].append(w)

    def pop(self, k: int, mask: int) -> None:
        for ci, bit, w in self.weights[k]:
            if mask & bit:
                self.load_sums[ci] -= w
                self.loads[ci].remove(w)


def _packing(reduced: ReducedInstance, node_budget: int | None = None) -> _PartialPacking:
    """The ``_PartialPacking`` of a reduced instance; padding constraints weigh nothing."""
    stages: list[list[Mkc]] = [[] for _ in range(reduced.horizon)]
    for rc in reduced.constraints:
        if not rc.padding:
            stages[rc.stage - 1].append(Mkc(rc.item_weights, rc.bins, rc.capacities))
    return _PartialPacking(reduced.items, stages, node_budget)


def _build_assignments(reduced: ReducedInstance, chosen: frozenset[ReducedElement]):
    assignments = {}
    for rc in reduced.constraints:
        weights = {e: rc.weight_of(e) for e in rc.held(chosen)}
        result = pack_assignment(rc.bins, rc.capacities, weights)
        if not result.packed:
            raise ContractViolationError(
                f"chosen set does not pack constraint (t={rc.stage}, j={rc.index})"
            )
        assignments[(rc.stage, rc.index)] = dict(result.assignment)
    return assignments


def finish_selection(reduced: ReducedInstance, chosen: Sequence[ReducedElement]) -> ReducedSolution:
    """Pack and verify one schedule per item; every route that solves the reduction ends here."""
    chosen_set = frozenset(chosen)
    rsol = ReducedSolution(chosen=chosen_set, assignments=_build_assignments(reduced, chosen_set))
    violations = verify_reduced_solution(reduced, rsol)
    if violations:
        raise ContractViolationError("solver produced an invalid solution: " + "; ".join(violations))
    return rsol


def _kept_schedules(
    reduced: ReducedInstance, packing: _PartialPacking, k: int
) -> tuple[list[tuple[int, int]], list[int]]:
    """The k-th item's schedules that can be optimal, and their subset-max table.

    Drops the schedules covering a stage where the item outweighs every bin
    of a constraint, then the dominated ones, worth no more than a proper
    subset schedule: the swap down loses nothing and lowers the mask, which
    keeps the lexicographic tie-break. Returns the kept (value, mask) pairs,
    by ascending mask, and ``fit[c]``, the largest kept value whose
    mask lies inside c. One pass builds both tables over the solo-filtered
    schedules; ``fit`` is also the kept ones' table, as every dominated
    schedule has a kept subset worth at least as much. Values are
    nonnegative (``reduce_instance`` drops negative schedules, and a reduced
    file holds none), so -1 marks "no schedule".
    """
    table = reduced.schedules[reduced.items[k]]
    solo_bad = 0
    for ci, bit, w in packing.weights[k]:
        if w > packing.caps[ci].largest:
            solo_bad |= bit
    size = 1 << reduced.horizon
    fit = [-1] * size
    for mask, value in table.items():
        if not mask & solo_bad:
            fit[mask] = value
    # proper[m]: the largest value over proper subsets of m. A pass takes the
    # top bit's halves and rotates the mask left, bringing the next bit on
    # top, as ``oracle.max_plus_masks`` does; T passes restore the mask order.
    proper = [-1] * size
    half = size >> 1
    for _ in range(reduced.horizon):
        low, below = fit[:half], proper[:half]
        proper[1::2] = [p if p > v else v for p, v in zip(proper[half:], low)]
        proper[0::2] = below
        fit[1::2] = [f if f > v else v for f, v in zip(fit[half:], low)]
        fit[0::2] = low
    kept = [
        (value, mask)
        for mask, value in table.items()
        if not mask & solo_bad and value > proper[mask]  # mask 0 has no proper subset
    ]
    return kept, fit


def solve_mkcp_exact(reduced: ReducedInstance, *, enum_budget: int | None = None) -> ReducedSolution:
    """Maximum-value feasible selection, ties broken lexicographically.

    The tie-break is over the tuple of chosen schedule masks in item order.
    The enumeration budget refuses, before the search starts, per-item
    subset tables (``|I| * 2**T`` entries) larger than it, and then the
    search once the candidate schedules it examined outnumber it.
    """
    hint = "; use solve_mkcp_greedy or raise the budget"
    budget = check_table_budget("exact solve refused", len(reduced.items), reduced.horizon, enum_budget, hint)
    examined = 0

    def examine(candidates: int) -> None:
        nonlocal examined
        examined += candidates
        if examined > budget:
            raise BudgetExceededError(
                f"exact solve refused: search examined more than {budget} "
                f"candidate schedules{hint}"
            )

    if reduced.variant == MODULAR:
        return _exact_modular(reduced, examine)
    return _exact_submodular(reduced, examine)


def _exact_modular(reduced: ReducedInstance, examine: Callable[[int], None]) -> ReducedSolution:
    items = reduced.items
    n = len(items)
    packing = _packing(reduced)
    # per item: candidates (value, mask) by ascending mask, and the
    # subset-max table of their values, whose last entry is the largest
    tables = [_kept_schedules(reduced, packing, k) for k in range(n)]
    cand = [kept for kept, _ in tables]
    fit = [table for _, table in tables]
    suffix = [0] * (n + 1)
    for k in range(n - 1, -1, -1):
        suffix[k] = suffix[k + 1] + fit[k][-1]

    # Load-aware completion bound. A joint completion packs each remaining
    # element together with the others, so per item the best schedule whose
    # stages all still accept the item's weight (in single-bin constraints;
    # multi-bin ones are relaxed here and enforced by avail) bounds its
    # contribution. Subset-max tables make that a single lookup.
    single_cap = [caps[0] if len(caps) == 1 else None for caps in packing.bin_caps]
    stage_weights = [
        [(ci, ~bit, w) for ci, bit, w in row if single_cap[ci] is not None]
        for row in packing.weights
    ]
    full_mask = packing.full
    load_sums = packing.load_sums

    def completion_bound(k: int) -> int:
        total = 0
        for j in range(k, n):
            avail = full_mask
            for ci, clear, w in stage_weights[j]:
                if load_sums[ci] + w > single_cap[ci]:
                    avail &= clear
            total += fit[j][avail]
        return total

    # Masks ascend within each item, so leaves arrive in lexicographic order
    # of their mask tuples. The bounds cut only paths that cannot beat
    # ``best``, and at the last item every schedule that does not beat it, so
    # the first leaf to reach the optimum, the lexicographically smallest
    # one, is recorded and no later tie replaces it. Starting one below the
    # value of the greedy's unbudgeted choice keeps a tie with it recordable.
    best = reduced.value_of(frozenset(_greedy_choice(reduced, _packing(reduced)))) - 1
    avail, push, pop = packing.avail, packing.push, packing.pop
    stack: list[int] = []
    chosen: list[ReducedElement] | None = None

    def dfs(k: int, acc: int) -> None:
        nonlocal best, chosen
        if k == n:
            # only strict improvements get past the prunes below
            best = acc
            chosen = [ReducedElement(item, mask) for item, mask in zip(items, stack)]
            return
        if acc + completion_bound(k) <= best:
            return
        examine(len(cand[k]))
        bound = suffix[k + 1]
        blocked = ~avail(k)
        for value, mask in cand[k]:
            if acc + value + bound <= best or mask & blocked:
                continue
            push(k, mask)
            stack.append(mask)
            dfs(k + 1, acc + value)
            stack.pop()
            pop(k, mask)

    dfs(0, 0)
    if chosen is None:
        raise ContractViolationError("exact search recorded no solution")
    return finish_selection(reduced, chosen)


def _exact_submodular(reduced: ReducedInstance, examine: Callable[[int], None]) -> ReducedSolution:
    objective = reduced.objective
    assert objective is not None
    items = reduced.items
    groups = [[ReducedElement(item, mask) for mask in reduced.schedules[item]] for item in items]
    n = len(items)
    rest: list[frozenset[ReducedElement]] = [frozenset()] * (n + 1)
    for k in range(n - 1, -1, -1):
        rest[k] = rest[k + 1] | frozenset(groups[k])

    packing = _packing(reduced)
    stack: list[ReducedElement] = []
    best_value: int | None = None
    best_chosen: tuple[ReducedElement, ...] = ()

    def dfs(k: int) -> None:
        nonlocal best_value, best_chosen
        if k == n:
            value = objective.evaluate(frozenset(stack))
            if best_value is None or value > best_value:
                best_value = value
                best_chosen = tuple(stack)
            return
        examine(len(groups[k]))
        blocked = ~packing.avail(k)
        for e in groups[k]:
            if e.mask & blocked:
                continue
            if best_value is not None:
                # monotone bound: no completion beats the union of everything left
                bound = objective.evaluate(frozenset(stack) | {e} | rest[k + 1])
                if bound <= best_value:
                    continue
            packing.push(k, e.mask)
            stack.append(e)
            dfs(k + 1)
            stack.pop()
            packing.pop(k, e.mask)

    dfs(0)
    return finish_selection(reduced, best_chosen)


def solve_mkcp_greedy(
    reduced: ReducedInstance, *, pack_budget: int | None = DEFAULT_PACK_BUDGET
) -> ReducedSolution:
    """Per item, the best marginal schedule that keeps everything packable.

    Packing checks run under ``pack_budget`` nodes (``None``: unbounded);
    an undecided check counts as unpackable. Ties go to the smaller mask.
    """
    return finish_selection(reduced, _greedy_choice(reduced, _packing(reduced, pack_budget)))


def _greedy_choice(reduced: ReducedInstance, packing: _PartialPacking) -> list[ReducedElement]:
    """The greedy's schedules, one per item, pushed onto ``packing`` in item order."""
    chosen: list[ReducedElement] = []
    objective = reduced.objective
    for k, item in enumerate(reduced.items):
        table = reduced.schedules[item]
        blocked = ~packing.avail(k)
        fits = [m for m in table if not m & blocked]
        if objective is None:
            mask = min(fits, key=lambda m: (-table[m], m))
        else:
            current = frozenset(chosen)
            mask = min(fits, key=lambda m: (-objective.evaluate(current | {ReducedElement(item, m)}), m))
        packing.push(k, mask)
        chosen.append(ReducedElement(item, mask))
    return chosen
