"""Horizon cutting: shifted cut grids, windowed solves, recombination.

For mu_inv shifted grids the horizon splits into windows of length at most
``2 * mu_inv``, with one exception: interior cut points are capped at
``T - mu_inv``, so for ``2 * mu_inv < T <= 3 * mu_inv - 2`` some shifts get
no interior cut and their one window is the whole horizon (at mu_inv = 25,
T = 60, 14 of 25 shifts; at mu_inv = 4, T = 9, 2 of 4). Each window is
solved at bounded horizon through the reduction pipeline, and the window
solutions concatenate into a full solution worth at least the sum of its
parts (seam costs can only be saved, seam gains only added). The best
recombination over all shifts wins. Short horizons bypass the loop.

``SchemeParams`` derives ``mu_inv = ceil(phi / epsilon**2)`` so grid
spacing and loop bounds stay integral; any valid epsilon below 1/4 makes
mu_inv at least 17, far beyond the default reduction cap, so the loop is
reachable at desk scale only through an explicit ``mu_inv`` override
(intended for experiments and tests).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .core import (
    MODULAR,
    GmkInstance,
    MultistageSolution,
    SubInstanceView,
    check_feasible,
    ensure_valid,
    evaluate_objective,
    evaluate_sub_objective,
    ratio_violation,
    sub_instance,
)
from .errors import ContractViolationError, InputError
from .mkcp import DEFAULT_PACK_BUDGET, solve_mkcp_exact, solve_mkcp_greedy
from .reduction import DEFAULT_HORIZON_CAP, reduce_instance
from .reduction import lift_solution

SOLVER_CHOICES = ("exact", "greedy")


@dataclass(frozen=True)
class CutPointSet:
    """Sorted cut points u_0 < ... < u_k with u_0 = 1 and u_k = T + 1."""

    points: tuple[int, ...]

    def __post_init__(self) -> None:
        pts = self.points
        if len(pts) < 2 or pts[0] != 1:
            raise InputError(f"cut points must start at 1 and end at T+1, got {pts}")
        if any(a >= b for a, b in zip(pts, pts[1:])):
            raise InputError(f"cut points must be strictly increasing, got {pts}")

    @property
    def horizon(self) -> int:
        return self.points[-1] - 1

    def interior(self) -> tuple[int, ...]:
        return self.points[1:-1]

    def windows(self) -> tuple[tuple[int, int], ...]:
        return tuple((lo, hi - 1) for lo, hi in zip(self.points, self.points[1:]))


@dataclass(frozen=True)
class SchemeParams:
    """Scheme parameters; mu_inv derives from epsilon and phi unless given.

    epsilon must lie strictly inside (0, 1/4) and phi must be a positive
    integer bounding the instance's profit-cost ratio. The derived grid
    count satisfies 1/mu_inv <= epsilon**2 / phi, which only strengthens
    the scheme's guarantee.
    """

    epsilon: Fraction
    phi: int
    mu_inv: int | None = None

    def __post_init__(self) -> None:
        eps = Fraction(self.epsilon)
        object.__setattr__(self, "epsilon", eps)
        if not 0 < eps < Fraction(1, 4):
            raise InputError(f"epsilon must lie strictly inside (0, 1/4), got {eps}")
        if not (isinstance(self.phi, int) and self.phi >= 1):
            raise InputError(f"phi must be an integer >= 1, got {self.phi!r}")
        if self.mu_inv is None:
            object.__setattr__(self, "mu_inv", math.ceil(Fraction(self.phi) / (eps * eps)))
        elif not (isinstance(self.mu_inv, int) and self.mu_inv >= 1):
            raise InputError(f"mu_inv must be an integer >= 1, got {self.mu_inv!r}")


def cut_points(horizon: int, mu_inv: int, j: int) -> CutPointSet:
    """The j-th shifted cut grid for the given horizon.

    Interior points are a * mu_inv + j - 1 for a >= 1, capped at
    horizon - mu_inv; sentinels 1 and horizon + 1 are always present.
    Grids with different shifts share only the sentinels.
    """
    if mu_inv < 1:
        raise InputError(f"mu_inv must be at least 1, got {mu_inv}")
    if not 1 <= j <= mu_inv:
        raise InputError(f"shift j must lie in [1, {mu_inv}], got {j}")
    points = {1, horizon + 1}
    a = 1
    while a * mu_inv + j - 1 <= horizon - mu_inv:
        points.add(a * mu_inv + j - 1)
        a += 1
    return CutPointSet(tuple(sorted(points)))


def cut_instances(inst: GmkInstance, cuts: CutPointSet) -> list[SubInstanceView]:
    """Views over the consecutive windows the cut points induce."""
    if cuts.horizon != inst.horizon:
        raise InputError(
            f"cut points end at {cuts.points[-1]}, expected horizon {inst.horizon} + 1"
        )
    return [sub_instance(inst, lo, hi) for lo, hi in cuts.windows()]


def combine_cut_solutions(
    inst: GmkInstance, parts: Sequence[MultistageSolution]
) -> MultistageSolution:
    """Concatenate window solutions into a full solution.

    Each part must be feasible for its window; the combined value is at
    least the sum of the window values, which is asserted at runtime.
    """
    total = sum(p.horizon for p in parts)
    if total != inst.horizon:
        raise InputError(f"window horizons sum to {total}, expected {inst.horizon}")
    start = 1
    views: list[SubInstanceView] = []
    for part in parts:
        view = sub_instance(inst, start, start + part.horizon - 1)
        report = check_feasible(view.materialize(), part)
        if not report.ok:
            raise InputError(
                f"window [{view.start}, {view.end}] solution infeasible: "
                + "; ".join(report.violations)
            )
        views.append(view)
        start += part.horizon

    combined = MultistageSolution(
        sets=tuple(s for part in parts for s in part.sets),
        assignments=tuple(a for part in parts for a in part.assignments),
    )
    report = check_feasible(inst, combined)
    if not report.ok:
        raise ContractViolationError(
            "combined solution infeasible: " + "; ".join(report.violations)
        )
    window_sum = sum(
        evaluate_sub_objective(view, part.sets) for view, part in zip(views, parts)
    )
    if evaluate_objective(inst, combined.sets) < window_sum:
        raise ContractViolationError("combined value fell below the sum of window values")
    return combined


def solve_bounded_horizon(
    target: GmkInstance | SubInstanceView,
    solver: str = "exact",
    *,
    horizon_cap: int = DEFAULT_HORIZON_CAP,
    enum_budget: int | None = None,
    pack_budget: int | None = DEFAULT_PACK_BUDGET,
) -> MultistageSolution:
    """Solve an instance or window through reduce, pack-solve, lift.

    With the exact sub-solver the result is an optimum of the (sub-)
    instance; the greedy sub-solver trades that for scale under ``pack_budget``.
    """
    if solver not in SOLVER_CHOICES:
        raise InputError(f"unknown solver {solver!r}, expected one of {SOLVER_CHOICES}")
    inst = target.materialize() if isinstance(target, SubInstanceView) else target
    ensure_valid(inst)
    reduced = reduce_instance(inst, horizon_cap=horizon_cap)
    if solver == "exact":
        rsol = solve_mkcp_exact(reduced, enum_budget=enum_budget)
    else:
        rsol = solve_mkcp_greedy(reduced, pack_budget=pack_budget)
    return lift_solution(inst, rsol, reduced)


@dataclass(frozen=True)
class SchemeIteration:
    """One shift of the cutting loop, for reporting."""

    j: int
    cut_points: tuple[int, ...]
    window_values: tuple[int, ...]
    combined_value: int


@dataclass(frozen=True)
class SchemeResult:
    solution: MultistageSolution
    value: int
    bypassed: bool
    selected_j: int | None
    iterations: tuple[SchemeIteration, ...]


def solve_general_result(
    inst: GmkInstance,
    params: SchemeParams,
    solver: str = "exact",
    *,
    horizon_cap: int = DEFAULT_HORIZON_CAP,
    enum_budget: int | None = None,
    pack_budget: int | None = DEFAULT_PACK_BUDGET,
) -> SchemeResult:
    """Run the full scheme and keep per-shift details for reporting."""
    ensure_valid(inst)
    if inst.variant == MODULAR:
        witness = ratio_violation(inst, Fraction(params.phi))
        if witness is not None:
            item, t_cost, cost, t_profit, profit = witness
            raise InputError(
                f"profit-cost ratio exceeds phi={params.phi}: item {item} has change cost "
                f"{cost} at stage {t_cost} against profit {profit} at stage {t_profit}"
            )
    else:
        for table in (inst.cost_plus, inst.cost_minus):
            nonzero = [k for k, v in table.items() if v != 0]
            if nonzero:
                raise InputError(
                    f"submodular scheme requires zero change costs, found {nonzero[0]}"
                )

    solve_kwargs = dict(
        horizon_cap=horizon_cap, enum_budget=enum_budget, pack_budget=pack_budget
    )
    mu_inv = params.mu_inv
    assert mu_inv is not None
    if inst.horizon <= 2 * mu_inv:
        solution = solve_bounded_horizon(inst, solver, **solve_kwargs)
        return SchemeResult(
            solution=solution,
            value=evaluate_objective(inst, solution.sets),
            bypassed=True,
            selected_j=None,
            iterations=(),
        )

    best: MultistageSolution | None = None
    best_value = 0
    best_j: int | None = None
    iterations: list[SchemeIteration] = []
    for j in range(1, mu_inv + 1):
        cuts = cut_points(inst.horizon, mu_inv, j)
        if cuts.interior():
            longest = max(hi - lo + 1 for lo, hi in cuts.windows())
            if longest > 2 * mu_inv:
                raise ContractViolationError(
                    f"window of length {longest} exceeds the bounded horizon {2 * mu_inv}"
                )
        views = cut_instances(inst, cuts)
        parts = [solve_bounded_horizon(view, solver, **solve_kwargs) for view in views]
        combined = combine_cut_solutions(inst, parts)
        value = evaluate_objective(inst, combined.sets)
        iterations.append(
            SchemeIteration(
                j=j,
                cut_points=cuts.points,
                window_values=tuple(
                    evaluate_sub_objective(view, part.sets)
                    for view, part in zip(views, parts)
                ),
                combined_value=value,
            )
        )
        if best is None or value > best_value:
            best, best_value, best_j = combined, value, j
    assert best is not None
    return SchemeResult(
        solution=best,
        value=best_value,
        bypassed=False,
        selected_j=best_j,
        iterations=tuple(iterations),
    )


__all__ = [
    "CutPointSet",
    "SchemeParams",
    "SchemeIteration",
    "SchemeResult",
    "cut_points",
    "cut_instances",
    "combine_cut_solutions",
    "solve_bounded_horizon",
    "solve_general_result",
]
