"""Reduction of a multistage instance to a single-shot packing problem.

Every reduced element pairs an item with a schedule, the exact set of
stages in which the item is packed, stored as a bitmask with bit ``t-1``
for stage ``t``. Per item, one table maps each kept schedule mask, in
ascending order, to its fixed value; elements are derived from it, and no
``ReducedElement`` is built until a caller asks. Choosing at most one
schedule per item is a partition matroid constraint, kept implicit by those
tables. Each original constraint (t, j) carries over with the weight rule
"full weight if the schedule contains t, zero otherwise", and stages with
fewer than d constraints are padded with a trivial zero-capacity,
zero-weight constraint so the reduced instance always has d*T of them.

The reduction blows up as ``|I| * 2**T`` by design; ``check_table_budget``
refuses it by the rule the exact reduced solver applies to its tables.

``lift_solution`` projects a reduced solution's schedules back onto the
stages and keeps its value, so OPT(R(Q)) = OPT(Q). Schedule values are
built from ``core.coupling_terms`` of the one window 1..T, the encoding
of the gains and costs that the cutting loop's stage DP reads over a
shift's windows, plus the item's profit at each scheduled stage in the
modular variant; they are Python ints, exact at any magnitude.
"""

from __future__ import annotations

from typing import AbstractSet, Iterable, Mapping, NamedTuple

from .core import (
    MODULAR,
    GmkInstance,
    Mkc,
    MultistageSolution,
    check_feasible,
    coupling_terms,
    ensure_valid,
    evaluate_objective,
)
from .errors import BudgetExceededError, ContractViolationError, InputError
from .submodular import ExtendedStageFunction, extend_function

DEFAULT_ENUM_BUDGET = 10**6
PAD_BIN = "pad"


class ReducedElement(NamedTuple):
    """Item plus schedule bitmask; the empty schedule is a legal element."""

    item: str
    mask: int

    def active_at(self, t: int) -> bool:
        return bool((self.mask >> (t - 1)) & 1)

    def stages(self) -> tuple[int, ...]:
        out, mask, t = [], self.mask, 1
        while mask:
            if mask & 1:
                out.append(t)
            mask >>= 1
            t += 1
        return tuple(out)

    @property
    def id(self) -> str:
        return f"{self.item}@{self.mask}"


class ReducedConstraint(NamedTuple):
    """One of the d*T reduced MKCs.

    Real constraints mirror the bins of the original stage constraint;
    padding constraints hold a single zero-capacity bin and give every
    element weight zero.
    """

    stage: int
    index: int
    padding: bool
    bins: tuple[str, ...]
    capacities: Mapping[str, int]
    item_weights: Mapping[str, int]

    def weight_of(self, e: ReducedElement) -> int:
        if self.padding or not e.active_at(self.stage):
            return 0
        return self.item_weights[e.item]

    def held(self, chosen: Iterable[ReducedElement]) -> list[ReducedElement]:
        """The chosen elements the bins of this constraint must hold between them.

        Every chosen element if the constraint has a bin, the ones inactive at
        its stage at weight 0. A constraint with no bin holds no element, so
        only those active at its stage are returned, and none can be placed.
        """
        if self.bins:
            return list(chosen)
        return [e for e in chosen if e.active_at(self.stage)]


class ReducedObjective(NamedTuple):
    """Submodular reduced objective: per-stage lifted oracles plus the gains in ``schedules``."""

    stage_functions: tuple[ExtendedStageFunction, ...]
    schedules: Mapping[str, Mapping[int, int]]

    def evaluate(self, chosen: AbstractSet[ReducedElement]) -> int:
        subset = frozenset(chosen)
        total = sum(f.evaluate(subset) for f in self.stage_functions)
        return total + sum(self.schedules[e.item][e.mask] for e in subset)


class ReducedInstance(NamedTuple):
    """Per item, ``schedules`` maps each kept mask, ascending, to its value.

    The value is the whole objective in the modular variant and the gain
    part of ``objective`` in the submodular one.
    """

    variant: str
    items: tuple[str, ...]
    horizon: int
    dimension: int
    schedules: Mapping[str, Mapping[int, int]]
    constraints: tuple[ReducedConstraint, ...]
    objective: ReducedObjective | None = None

    @property
    def elements(self) -> tuple[ReducedElement, ...]:
        """Every (item, schedule) pair, in item order and ascending mask order."""
        return tuple(ReducedElement(i, mask) for i in self.items for mask in self.schedules[i])

    def value_of(self, chosen: AbstractSet[ReducedElement]) -> int:
        if self.objective is None:
            return sum(self.schedules[e.item][e.mask] for e in chosen)
        return self.objective.evaluate(chosen)


class ReducedSolution(NamedTuple):
    """Chosen elements plus one bin assignment per reduced constraint."""

    chosen: frozenset[ReducedElement]
    assignments: Mapping[tuple[int, int], Mapping[str, frozenset[ReducedElement]]]


def _schedule_values(inst: GmkInstance) -> list[list[int]]:
    """values[k][m]: the fixed value of schedule mask m of the k-th item, for every m.

    Built from ``core.coupling_terms`` of the window 1..T by doubling over the
    stages, in plain ints: the masks of stages 1..t list those without
    stage t first, so the next stage's terms add by halves. The modular
    variant adds the item's profit at each scheduled stage.
    """
    modular = inst.variant == MODULAR
    values = []
    for i in inst.items:
        terms = coupling_terms(inst, i, ((1, inst.horizon),))
        row = [0]
        for t, ((stay_out, leave), (enter, stay_in)) in enumerate(terms[:-1], start=1):
            profit = inst.item_profit(t, i) if modular else 0
            half = len(row) >> 1 if t > 1 else 1  # nothing is packed before stage 1
            low, high = row[:half], row[half:]
            row = (
                [v + stay_out for v in low] + [v + leave for v in high]
                + [v + enter + profit for v in low] + [v + stay_in + profit for v in high]
            )
        half = len(row) >> 1
        row[half:] = [v + terms[-1][0][1] for v in row[half:]]  # stage T's exit
        values.append(row)
    return values


def _reduced_constraints(inst: GmkInstance) -> tuple[ReducedConstraint, ...]:
    pad = Mkc({}, (PAD_BIN,), {PAD_BIN: 0})
    out: list[ReducedConstraint] = []
    for t, stage in enumerate(inst.stages, start=1):
        for j in range(1, inst.dimension + 1):
            mkc = stage.mkcs[j - 1] if j <= stage.dimension else pad
            out.append(
                ReducedConstraint(
                    stage=t,
                    index=j,
                    padding=mkc is pad,
                    bins=tuple(mkc.bins),
                    capacities=dict(mkc.capacities),
                    item_weights=dict(mkc.weights),
                )
            )
    return tuple(out)


def count_text(count: int) -> str:
    """``str(count)``, or ``at least 2**k`` past Python's limit on printed digits (4,300 by default).

    k is one less than the bit length. Budget refusals write their counts this way.
    """
    try:
        return str(count)
    except ValueError:
        return f"at least 2**{count.bit_length() - 1}"


def check_table_budget(refusal: str, n: int, horizon: int, budget: int | None, hint: str = "") -> int:
    """Return ``budget`` (None: ``DEFAULT_ENUM_BUDGET``) unless ``n << horizon`` table entries pass it.

    Then raise ``BudgetExceededError``, opening with ``refusal`` and closing with ``hint``.
    """
    budget = DEFAULT_ENUM_BUDGET if budget is None else budget
    if n << horizon > budget:
        raise BudgetExceededError(
            f"{refusal}: subset tables of {count_text(n << horizon)} entries (|I| * 2**T) "
            f"exceed budget {budget}{hint}"
        )
    return budget


def reduce_instance(inst: GmkInstance, *, enum_budget: int | None = None) -> ReducedInstance:
    """Build the reduced packing instance's schedule tables and constraints.

    Both variants value each schedule with ``_schedule_values``. Schedules
    of negative value are dropped; the empty schedule is worth the item's g-
    mass and always stays. In the modular variant those values are the
    whole objective. In the submodular variant they are its gain terms,
    sums of nonnegative gains, so nothing is dropped; the objective stays an
    oracle that adds per-stage lifted profit functions to them. Checks the
    instance (``core.ensure_valid``), then refuses (``check_table_budget``)
    tables larger than ``enum_budget``.
    """
    ensure_valid(inst)
    check_table_budget("reduction refused", len(inst.items), inst.horizon, enum_budget)
    schedules: dict[str, dict[int, int]] = {}
    for item, row in zip(inst.items, _schedule_values(inst)):
        assert row[0] >= 0, "empty schedule value is a nonnegative gain sum"
        schedules[item] = {m: v for m, v in enumerate(row) if v >= 0}
    objective = None
    if inst.variant != MODULAR:
        lifted = tuple(extend_function(inst.stage(t).profit, t) for t in range(1, inst.horizon + 1))
        objective = ReducedObjective(lifted, schedules)
    return ReducedInstance(
        inst.variant, inst.items, inst.horizon, inst.dimension, schedules,
        _reduced_constraints(inst), objective,
    )


def verify_reduced_solution(reduced: ReducedInstance, rsol: ReducedSolution) -> tuple[str, ...]:
    """Independent check of the reduced-solution invariants.

    Deliberately separate from the solvers' own bookkeeping: matroid
    membership, element existence, exact cover per constraint
    (``ReducedConstraint.held``), capacities.
    """
    violations: list[str] = []
    per_item: dict[str, int] = {}
    for e in rsol.chosen:
        if e.mask not in reduced.schedules.get(e.item, ()):
            violations.append(f"element {e.id} is not part of the reduced instance")
        per_item[e.item] = per_item.get(e.item, 0) + 1
    for item, count in per_item.items():
        if count > 1:
            violations.append(f"matroid violation: {count} elements chosen for item {item}")

    for rc in reduced.constraints:
        key = (rc.stage, rc.index)
        assignment = rsol.assignments.get(key)
        if assignment is None:
            violations.append(f"missing assignment for constraint (t={rc.stage}, j={rc.index})")
            continue
        covered: set[ReducedElement] = set()
        for b, assigned in assignment.items():
            if b not in rc.capacities:
                violations.append(f"unknown bin {b} at (t={rc.stage}, j={rc.index})")
                continue
            covered.update(assigned)
            load = sum(rc.weight_of(e) for e in assigned)
            if load > rc.capacities[b]:
                violations.append(
                    f"bin {b} over capacity at (t={rc.stage}, j={rc.index}): "
                    f"load {load} > {rc.capacities[b]}"
                )
        if covered != set(rc.held(rsol.chosen)):
            violations.append(
                f"assignment does not cover the chosen set at (t={rc.stage}, j={rc.index})"
            )
    return tuple(violations)


def lift_solution(
    inst: GmkInstance, rsol: ReducedSolution, reduced: ReducedInstance
) -> MultistageSolution:
    """Project a feasible reduced solution back onto the stages.

    S_t collects the items whose chosen schedule contains t, and each bin
    keeps the items of the elements it held. The result is feasible and has
    the same value; if some item has no chosen element at all, the lifted
    value may exceed the reduced one by that item's g- mass.
    """
    violations = verify_reduced_solution(reduced, rsol)
    if violations:
        raise InputError("reduced solution is infeasible: " + "; ".join(violations))

    sets = tuple(
        frozenset(e.item for e in rsol.chosen if e.active_at(t))
        for t in range(1, inst.horizon + 1)
    )
    assignments = []
    for t, stage in enumerate(inst.stages, start=1):
        per_stage = []
        for j, mkc in enumerate(stage.mkcs, start=1):
            reduced_assignment = rsol.assignments[(t, j)]
            per_stage.append(
                {
                    b: frozenset(
                        e.item for e in reduced_assignment.get(b, frozenset()) if e.active_at(t)
                    )
                    for b in mkc.bins
                }
            )
        assignments.append(tuple(per_stage))
    sol = MultistageSolution(sets=sets, assignments=tuple(assignments))

    feasibility = check_feasible(inst, sol)
    if not feasibility.ok:
        raise ContractViolationError(
            "lifted solution is infeasible: " + "; ".join(feasibility.violations)
        )
    lifted_value = evaluate_objective(inst, sol.sets)
    reduced_value = reduced.value_of(rsol.chosen)
    covered_items = {e.item for e in rsol.chosen}
    if covered_items == set(inst.items):
        if lifted_value != reduced_value:
            raise ContractViolationError(
                f"lifting broke value preservation: {lifted_value} != {reduced_value}"
            )
    elif lifted_value < reduced_value:
        raise ContractViolationError(
            f"lifted value {lifted_value} below reduced value {reduced_value}"
        )
    return sol
