"""Data model and objective for the generalized multistage d-knapsack problem.

An instance spans ``T`` stages over a shared item set. Every stage carries
``d_t`` multiple-knapsack constraints plus a profit function, and stages are
coupled through four tables: gains ``g+`` and ``g-`` reward an item for being
packed, respectively unpacked, in two consecutive stages, while change costs
``c+`` and ``c-`` charge the start, respectively the end, of a packed run.
Nothing is packed before stage 1 or after stage ``T``.

Two variants exist. The modular variant prices items individually and admits
change costs. The submodular variant replaces every stage profit with a
monotone submodular oracle and must carry all-zero cost tables.

All numeric data are exact integers (``serialize`` scales decimal input at
parse time), so every identity in this package is testable with tolerance
zero. Instances are immutable after construction, being ``typing.NamedTuple``
records whose fields refuse assignment, and safe to share across workers. A
window is a plain stage range ``(lo, hi)``: ``evaluate_window`` values it
under the empty-boundary convention (nothing is packed before lo or after
hi), ``window_instance`` copies it into a standalone instance, and
``coupling_terms`` gives the solvers one encoding, in plain values, of the
gains and costs that couple consecutive stages of a chain of windows, cuts
included.
"""

from __future__ import annotations

import math
from collections.abc import Mapping  # an isinstance check on it takes a third of typing.Mapping's time
from fractions import Fraction
from itertools import chain, product
from types import MappingProxyType
from typing import AbstractSet, NamedTuple, Sequence

from .errors import InputError, UnsupportedVariantError
from .submodular import SetFunctionOracle

MODULAR = "modular"
SUBMODULAR = "submodular"

# Tables are dense maps keyed by (item, stage): gains over [2, T], costs
# over [1, T]. Missing entries are a validation error, never implicit zeros.
Table = Mapping[tuple[str, int], int]


# a mapping's refusals, formatted with where, key and value: a missing key, an unknown key, a bad value
_WEIGHT_TEXTS = ("weights incomplete: {where} missing item {0}", "{where} weighs unknown item {0}",
                 "{where} weight of {0} is {1!r}, not a nonnegative integer")
_CAPACITY_TEXTS = ("", "", "{where} capacity of bin {0} is {1!r}, not a nonnegative integer")
_PROFIT_TEXTS = ("profit incomplete: {where} missing item {0}", "{where} profit names unknown item {0}",
                 "{where} profit of {0} is {1!r}, not a nonnegative integer")
_TABLE_TEXTS = ("{where} incomplete: missing entry for item {0[0]} stage {0[1]}", "{where} has an extra entry {0}",
                "{where}[{0}] = {1!r} is not a nonnegative integer")


def _check_amounts(entries: list[str], numbers: list | None, where: str, mapping, expected, texts) -> None:
    """Report by ``texts`` the keys of ``expected`` that ``mapping`` lacks, then its other keys and bad values.

    Given a list ``numbers``, a mapping with the expected keys only adds its
    values to it, for ``validate_instance`` to check in bulk.
    """
    if numbers is not None and mapping.keys() == expected.keys():
        numbers.append(mapping.values())
        return
    missing, unknown, bad = texts
    entries.extend(missing.format(key, where=where) for key in expected if key not in mapping)
    for key, value in mapping.items():
        if key not in expected:
            entries.append(unknown.format(key, where=where))
        elif not (isinstance(value, int) and not isinstance(value, bool) and value >= 0):
            entries.append(bad.format(key, value, where=where))


class Mkc(NamedTuple):
    """A multiple knapsack constraint: item weights and capacitated bins."""

    weights: Mapping[str, int]
    bins: tuple[str, ...]
    capacities: Mapping[str, int]


class McpStage(NamedTuple):
    """One stage: an ordered tuple of MKCs plus the stage profit.

    ``profit`` is a plain item-to-integer mapping in the modular variant and
    a ``SetFunctionOracle`` in the submodular variant.
    """

    mkcs: tuple[Mkc, ...]
    profit: Mapping[str, int] | SetFunctionOracle

    @property
    def dimension(self) -> int:
        return len(self.mkcs)


class GmkInstance(NamedTuple):
    """A full multistage instance.

    ``gain_plus``/``gain_minus`` are defined exactly on items x [2, T] and
    ``cost_plus``/``cost_minus`` exactly on items x [1, T].
    """

    items: tuple[str, ...]
    horizon: int
    stages: tuple[McpStage, ...]
    gain_plus: Table
    gain_minus: Table
    cost_plus: Table
    cost_minus: Table
    variant: str = MODULAR
    metadata: Mapping[str, object] = MappingProxyType({})

    @property
    def dimension(self) -> int:
        """Instance-level dimension bound (largest per-stage constraint count)."""
        return max((s.dimension for s in self.stages), default=1)

    def stage(self, t: int) -> McpStage:
        if not 1 <= t <= self.horizon:
            raise InputError(f"stage {t} out of range [1, {self.horizon}]")
        return self.stages[t - 1]

    def item_profit(self, t: int, item: str) -> int:
        profit = self.stage(t).profit
        if isinstance(profit, SetFunctionOracle):
            raise UnsupportedVariantError("per-item profit is undefined in the submodular variant")
        return profit[item]

    def stage_profit(self, t: int, subset: AbstractSet[str]) -> int:
        profit = self.stage(t).profit
        if isinstance(profit, SetFunctionOracle):
            return profit.evaluate(frozenset(subset))
        return sum(profit[i] for i in subset)


def _collection(raw):
    if isinstance(raw, (str, Mapping)):
        raise TypeError(f"expected a collection of names, got {type(raw).__name__}")
    return raw


class MultistageSolution(NamedTuple):
    """Per-stage item sets plus per-stage, per-constraint bin assignments.

    ``assignments[t-1][j-1]`` maps every bin of constraint j at stage t to
    the items it holds.
    """

    sets: tuple[frozenset[str], ...]
    assignments: tuple[tuple[Mapping[str, frozenset[str]], ...], ...]

    @classmethod
    def from_raw(cls, sets, assignments) -> "MultistageSolution":
        """Build a solution from nested collections, such as parsed JSON.

        A string or a mapping where a collection of names is due raises
        ``TypeError`` instead of being read as its characters or keys.
        """
        return cls(
            sets=tuple(frozenset(_collection(s)) for s in _collection(sets)),
            assignments=tuple(
                tuple({b: frozenset(_collection(v)) for b, v in a.items()} for a in per_stage)
                for per_stage in assignments
            ),
        )


class ValidationReport(NamedTuple):
    entries: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.entries


class FeasibilityReport(NamedTuple):
    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def validate_instance(inst: GmkInstance) -> ValidationReport:
    """Collect every violated structural invariant of ``inst``.

    All failures are report entries; an empty report means the instance is
    well formed. Operations other than this one assume a valid instance.
    Every weight, capacity, profit and table value is checked at once; the
    per-value loops run only when some value is not a nonnegative int.
    """
    numbers: list = []
    entries = _entries(inst, numbers)
    values = list(chain.from_iterable(numbers))
    if not (set(map(type, values)) <= {int} and min(values, default=0) >= 0):  # a bool's type is not int
        entries = _entries(inst, None)
    return ValidationReport(tuple(entries))


def _entries(inst: GmkInstance, numbers: list | None) -> list[str]:
    """``validate_instance``'s entries, with ``numbers`` passed to each ``_check_amounts``."""
    entries: list[str] = []
    if inst.variant not in (MODULAR, SUBMODULAR):
        entries.append(f"unknown variant {inst.variant!r}")
    if inst.horizon < 1:
        entries.append(f"horizon must be at least 1, got {inst.horizon}")
    if len(inst.stages) != inst.horizon:
        entries.append(f"expected {inst.horizon} stages, got {len(inst.stages)}")

    seen: set[str] = set()
    for item in inst.items:
        if not item:
            entries.append("empty item id")
        if item in seen:
            entries.append(f"duplicate item id {item}")
        seen.add(item)

    item_set = dict.fromkeys(inst.items)  # ordered: entries name items in instance order
    for t, stage in enumerate(inst.stages, start=1):
        if stage.dimension < 1:
            entries.append(f"stage {t} has no knapsack constraints")
        for j, mkc in enumerate(stage.mkcs, start=1):
            where = f"stage {t} constraint {j}"
            _check_amounts(entries, numbers, where, mkc.weights, item_set, _WEIGHT_TEXTS)
            if len(set(mkc.bins)) != len(mkc.bins):
                entries.append(f"{where} has duplicate bin ids")
            if set(mkc.capacities) != set(mkc.bins):
                entries.append(f"{where} capacities do not match its bin list")
            # its own keys expected: only the values are checked
            _check_amounts(entries, numbers, where, mkc.capacities, mkc.capacities, _CAPACITY_TEXTS)

        profit = stage.profit
        if inst.variant == SUBMODULAR:
            if not isinstance(profit, SetFunctionOracle):
                entries.append(f"stage {t} profit must be a set-function oracle in the submodular variant")
            else:
                missing, unknown = item_set.keys() - profit.ground, profit.ground - item_set.keys()
                if missing:
                    entries.append(f"stage {t} profit oracle missing items {sorted(missing, key=str)}")
                if unknown:
                    entries.append(f"stage {t} profit oracle names unknown items {sorted(unknown, key=str)}")
        else:
            if isinstance(profit, SetFunctionOracle):
                entries.append(f"stage {t} profit must be a per-item table in the modular variant")
            else:
                _check_amounts(entries, numbers, f"stage {t}", profit, item_set, _PROFIT_TEXTS)

    # the tables span |I| * T keys: checked against a horizon the stages confirm
    if len(inst.stages) == inst.horizon:
        for name, lo in (("gain_plus", 2), ("gain_minus", 2), ("cost_plus", 1), ("cost_minus", 1)):
            expected = dict.fromkeys(product(inst.items, range(lo, inst.horizon + 1)))
            _check_amounts(entries, numbers, name, getattr(inst, name), expected, _TABLE_TEXTS)

    if inst.variant == SUBMODULAR:
        for name, table in (("cost_plus", inst.cost_plus), ("cost_minus", inst.cost_minus)):
            for key, value in table.items():
                if value != 0:
                    entries.append(
                        f"submodular variant must have zero change costs: {name}[{key}] = {value}"
                    )
    return entries


def ensure_valid(inst: GmkInstance) -> GmkInstance:
    """Raise ``InputError`` unless ``inst`` passes validation."""
    report = validate_instance(inst)
    if not report.ok:
        raise InputError("invalid instance: " + "; ".join(report.entries))
    return inst


def check_feasible(inst: GmkInstance, sol: MultistageSolution) -> FeasibilityReport:
    """Check that every assignment covers exactly S_t within all capacities."""
    violations: list[str] = []
    if len(sol.sets) != inst.horizon:
        violations.append(f"solution has {len(sol.sets)} stages, instance has {inst.horizon}")
        return FeasibilityReport(tuple(violations))
    if len(sol.assignments) != inst.horizon:
        violations.append(f"solution has assignments for {len(sol.assignments)} stages")
        return FeasibilityReport(tuple(violations))

    item_set = set(inst.items)
    for t, stage in enumerate(inst.stages, start=1):
        selected = sol.sets[t - 1]
        unknown = selected - item_set
        if unknown:
            violations.append(f"S_{t} contains unknown items {sorted(unknown, key=str)}")
        per_stage = sol.assignments[t - 1]
        if len(per_stage) != stage.dimension:
            violations.append(
                f"stage {t} needs {stage.dimension} assignments, got {len(per_stage)}"
            )
            continue
        for j, ((weights, bins, capacities), assignment) in enumerate(zip(stage.mkcs, per_stage), start=1):
            bin_set = set(bins)
            covered: set[str] = set()
            for b, assigned in assignment.items():
                if b not in bin_set:
                    violations.append(f"unknown bin {b} at (t={t}, j={j})")
                    continue
                covered.update(assigned)
                load = sum(weights[i] for i in assigned if i in weights)
                if load > capacities[b]:
                    violations.append(
                        f"bin {b} over capacity at (t={t}, j={j}): load {load} > {capacities[b]}"
                    )
            if covered != set(selected):
                violations.append(f"assignment does not cover S_{t} at (t={t}, j={j})")
    return FeasibilityReport(tuple(violations))


def _check_sets(inst: GmkInstance, sets: Sequence[AbstractSet[str]], expected: int) -> None:
    if len(sets) != expected:
        raise InputError(f"expected {expected} stage sets, got {len(sets)}")
    known = set(inst.items)
    for k, subset in enumerate(sets):
        unknown = set(subset) - known
        if unknown:
            raise InputError(f"stage set {k + 1} references unknown items {sorted(unknown, key=str)}")


def _check_window(inst: GmkInstance, lo: int, hi: int) -> None:
    if not 1 <= lo <= hi <= inst.horizon:
        raise InputError(f"invalid stage range [{lo}, {hi}] for horizon {inst.horizon}")


def evaluate_window(inst: GmkInstance, lo: int, hi: int, sets: Sequence[AbstractSet[str]]) -> int:
    """Objective over stages [lo, hi] with empty boundary sets.

    Gains and costs are read at their global stage indices; gains accrue
    only at transitions strictly inside the range. This is the reference
    the solvers' ``coupling_terms`` are checked against, so it keeps its
    own arithmetic.
    """
    _check_window(inst, lo, hi)
    _check_sets(inst, sets, hi - lo + 1)
    items, gp, gm, cp, cm = inst.items, inst.gain_plus, inst.gain_minus, inst.cost_plus, inst.cost_minus
    total = 0
    for k, t in enumerate(range(lo, hi + 1)):
        total += inst.stage_profit(t, sets[k])
    for k, t in enumerate(range(lo + 1, hi + 1), start=1):
        prev, cur = sets[k - 1], sets[k]
        for i in items:
            if i in prev:
                if i in cur:
                    total += gp[i, t]
            elif i not in cur:
                total += gm[i, t]
    if inst.variant == MODULAR:
        empty: frozenset[str] = frozenset()
        for k, t in enumerate(range(lo, hi + 1)):
            prev = sets[k - 1] if k > 0 else empty
            nxt = sets[k + 1] if k + 1 < len(sets) else empty
            for i in sets[k]:
                if i not in prev:
                    total -= cp[i, t]
                if i not in nxt:
                    total -= cm[i, t]
    return total


def evaluate_objective(inst: GmkInstance, sets: Sequence[AbstractSet[str]]) -> int:
    """Exact objective value of the stage sets (assignments do not matter)."""
    return evaluate_window(inst, 1, inst.horizon, sets)


def coupling_terms(inst: GmkInstance, item: str, windows: Sequence[tuple[int, int]]) -> list:
    """``item``'s coupling terms at the boundaries t = lo..hi+1 of consecutive windows (lo, hi).

    ``terms[t - lo][in_cur][in_prev]`` is what the boundary before stage t
    adds when the item is packed (1) or not (0) at stages t and t - 1, from
    the first window's lo to the last one's hi. Each window is valued alone,
    under the empty-boundary convention: lo adds only the entry cost -c+[lo],
    hi + 1 only the exit cost -c-[hi], a cut t between two windows both,
    ``((0, -c-[t-1]), (-c+[t], -c-[t-1] - c+[t]))``, and any other t
    ``((g-, -c-[t-1]), (-c+[t], g+))``. Costs are read in both variants.
    The chain is what ``oracle.max_plus_masks`` takes per item, whole.
    """
    gp, gm, cp, cm = inst.gain_plus, inst.gain_minus, inst.cost_plus, inst.cost_minus
    (lo, _), (_, hi) = windows[0], windows[-1]
    cuts = {start for start, _ in windows[1:]}
    terms = [((0, 0), (-cp[item, lo], 0))]
    for t in range(lo + 1, hi + 1):
        leave, enter = -cm[item, t - 1], -cp[item, t]
        out, stay = (0, leave + enter) if t in cuts else (gm[item, t], gp[item, t])
        terms.append(((out, leave), (enter, stay)))
    return [*terms, ((0, -cm[item, hi]), (0, 0))]


def window_instance(inst: GmkInstance, lo: int, hi: int) -> GmkInstance:
    """Standalone instance over local stages 1..hi-lo+1 with the window's semantics."""
    _check_window(inst, lo, hi)

    def shift(table: Table, first: int) -> dict[tuple[str, int], int]:
        return {(i, t): table[i, t + lo - 1] for i in inst.items for t in range(first, hi - lo + 2)}

    return inst._replace(
        horizon=hi - lo + 1,
        stages=inst.stages[lo - 1 : hi],
        gain_plus=shift(inst.gain_plus, 2),
        gain_minus=shift(inst.gain_minus, 2),
        cost_plus=shift(inst.cost_plus, 1),
        cost_minus=shift(inst.cost_minus, 1),
        metadata={"window": [lo, hi]},
    )


def _ratio_terms(inst: GmkInstance, item: str) -> tuple[int, int, int, int]:
    """(cost stage, largest change cost, profit stage, smallest stage profit).

    Ties go to the earliest stage on both sides.
    """
    stages = range(1, inst.horizon + 1)
    costs = [max(inst.cost_plus[item, t], inst.cost_minus[item, t]) for t in stages]
    profits = [inst.item_profit(t, item) for t in stages]
    max_cost, min_profit = max(costs), min(profits)
    return costs.index(max_cost) + 1, max_cost, profits.index(min_profit) + 1, min_profit


def profit_cost_ratio(inst: GmkInstance) -> Fraction | float:
    """Least r with every change cost at most r times every stage profit.

    Items with some positive change cost and some zero stage profit force
    ``math.inf``; items with zero costs everywhere contribute 0 even
    when all their profits are 0.
    """
    if inst.variant != MODULAR:
        raise UnsupportedVariantError("profit_cost_ratio requires the modular variant")
    worst = Fraction(0)
    for i in inst.items:
        _, max_cost, _, min_profit = _ratio_terms(inst, i)
        if max_cost == 0:
            continue
        if min_profit == 0:
            return math.inf
        worst = max(worst, Fraction(max_cost, min_profit))
    return worst


def ratio_violation(inst: GmkInstance, bound: int | Fraction):
    """First witness that the profit-cost ratio exceeds ``bound``, or None.

    Returns (item, cost stage, cost, profit stage, profit) where
    cost > bound * profit.
    """
    for i in inst.items:
        terms = _ratio_terms(inst, i)
        _, max_cost, _, min_profit = terms
        if max_cost > 0 and max_cost > bound * min_profit:
            return (i, *terms)
    return None
