"""Horizon cutting: shifted cut grids, windowed solves, recombination.

For mu_inv shifted grids the horizon splits into windows of length at most
``2 * mu_inv``, with one exception: interior cut points are capped at
``T - mu_inv``, so for ``2 * mu_inv < T <= 3 * mu_inv - 2`` some shifts get
no interior cut and their one window is the whole horizon (at mu_inv = 25,
T = 60, 14 of 25 shifts; at mu_inv = 4, T = 9, 2 of 4). A window is a
plain stage range (lo, hi), read in place from the instance's tables: no
reduction is built and no window copied. One shift solver
(``solve_shift``) returns each window's stage sets, not packed, and their
value; ``solve_bounded_horizon`` is its one-window case. Shifts of the
same windows are solved once. An exact shift is one stage DP over
packable item sets (``_stage_dp``) across all of its windows: each window
is valued as if alone, and at a cut an item pays the exit cost of the
window before it when packed at its last stage and the entry cost of the
window after it when packed at its first: ``core.coupling_terms`` gives
those cut links with the rest. ``_stage_dp`` alone knows the tie-break:
its key gives each window a block of ``n * L`` bits, L the longest
window's length, that orders the window's set sequences as a DP of its
own would, and its scale, applied to rows and terms alike, leaves
``bitlen(W - 1)`` spare bits above the sum of W blocks, so every window
gets the sets of its own DP. A greedy shift runs the DP once per item
across its windows with no key, on two-cell rows built straight in lanes:
with one item, the engine's first-maximum backtrack already takes the
smallest best schedule mask, the key's order (with more, the key's
item-major order is not the engine's). The passes
and backtrack are the oracle's engine, ``oracle.max_plus_masks``, which
reads each item's ``core.coupling_terms`` chain whole. Every exact shift
reads the command's one stage table (``oracle.StageRows``), which the
caller builds and passes in, for its rows and subsets. The
table holds each ``lanes.Row``'s lanes, built once per width, and an exact
shift composes its cells from them, ``scale * P_t - (LEX << t - lo)``:
about two big-int operations a stage, with no row converted again.
``combine_cut_solutions`` joins a shift's window sets: one window spanning
the horizon keeps its value, and more windows are valued once, worth at
least the sum of their parts (seam costs can only be saved, seam gains
only added). The best shift, or the bypass's one window of a short
horizon, is the only answer packed (``StageRows.solution``) and checked
against the whole instance. All values are Python ints, exact at any magnitude.

``SchemeParams`` derives ``mu_inv = ceil(phi / epsilon**2)`` so grid
spacing and loop bounds stay integral; any valid epsilon below 1/4 makes
mu_inv at least 17.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import islice
from operator import sub
from typing import NamedTuple, Sequence

from . import lanes
from .core import (
    MODULAR,
    GmkInstance,
    MultistageSolution,
    coupling_terms,
    evaluate_objective,
    evaluate_window,
    ratio_violation,
)
from .errors import ContractViolationError, InputError
from .mkcp import DEFAULT_PACK_BUDGET, _PartialPacking
from .oracle import StageRows, check_dp_work, link_span, max_plus_masks

SOLVER_CHOICES = ("exact", "greedy")

# the item sets of consecutive stages, one per stage
StageSets = tuple[frozenset[str], ...]


class CutPointSet(NamedTuple("CutPointSet", [("points", tuple[int, ...])])):
    """Sorted cut points u_0 < ... < u_k with u_0 = 1 and u_k = T + 1."""

    __slots__ = ()

    def __new__(cls, points: tuple[int, ...]) -> "CutPointSet":
        if len(points) < 2 or points[0] != 1:
            raise InputError(f"cut points must start at 1 and end at T+1, got {points}")
        if any(a >= b for a, b in zip(points, points[1:])):
            raise InputError(f"cut points must be strictly increasing, got {points}")
        return super().__new__(cls, points)

    @property
    def horizon(self) -> int:
        return self.points[-1] - 1

    def interior(self) -> tuple[int, ...]:
        return self.points[1:-1]

    def windows(self) -> tuple[tuple[int, int], ...]:
        return tuple((lo, hi - 1) for lo, hi in zip(self.points, self.points[1:]))


def _is_count(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool) and x >= 1


class SchemeParams(NamedTuple("SchemeParams", [("epsilon", Fraction), ("phi", int), ("mu_inv", int)])):
    """Scheme parameters; mu_inv derives from epsilon and phi unless given.

    epsilon must lie strictly inside (0, 1/4) and phi must be a positive
    integer bounding the instance's profit-cost ratio. The derived grid
    count satisfies 1/mu_inv <= epsilon**2 / phi, which only strengthens
    the scheme's guarantee.
    """

    __slots__ = ()

    def __new__(cls, epsilon: Fraction, phi: int, mu_inv: int | None = None) -> "SchemeParams":
        eps = Fraction(epsilon)
        if not 0 < eps < Fraction(1, 4):
            raise InputError(f"epsilon must lie strictly inside (0, 1/4), got {eps}")
        if not _is_count(phi):
            raise InputError(f"phi must be an integer >= 1, got {phi!r}")
        if mu_inv is None:
            mu_inv = math.ceil(Fraction(phi) / (eps * eps))
        elif not _is_count(mu_inv):
            raise InputError(f"mu_inv must be an integer >= 1, got {mu_inv!r}")
        return super().__new__(cls, eps, phi, mu_inv)


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


def _stage_dp(rows: StageRows, windows: Sequence[tuple[int, int]]) -> tuple[StageSets, int]:
    """An exact shift's stage sets over all items, stage by stage across consecutive windows, and their value.

    Each window (lo, hi) is valued under the empty-boundary convention, and
    the windows are solved side by side in one DP on the packability and
    profit rows of ``rows``, whose cells it composes in whichever form the
    engine reads, lanes or lists, bounding their span by the held rows'
    spans. Set m has bit k for the k-th item. Each item's
    coupling terms over the windows, cuts included, are
    ``core.coupling_terms``, multiplied here by the tie-break scale as the
    rows are, and ``oracle.max_plus_masks`` runs the DP on those chains
    whole, the first window's entry and the last window's exit included.

    With L stages in the longest of W windows, window w's key is
    ``M_w = sum_k mask_k * 2**(L*(n-1-k))`` over its item schedules
    ``mask_k`` (bit t - lo_w for stage t), below ``2**(n*L)``: one block of
    n fields, which orders the window's set sequences by their masks as its
    own ``2**(n*H_w)`` key does. The DP maximizes
    ``value * scale - sum_w M_w``, with ``scale = 2**(n*L + bitlen(W-1))``
    above any sum of W keys. Value and key are sums over the windows, so
    the maximum is every window's own: its largest value, then its smallest
    key, which distinct set sequences of one window never share.
    """
    inst = rows.instance
    n = len(inst.items)
    packable, profits = zip(*(rows[t] for lo, hi in windows for t in range(lo, hi + 1)))
    longest = max(hi - lo + 1 for lo, hi in windows)
    scale = 1 << n * longest + (len(windows) - 1).bit_length()
    # lex[m]: the M of set m packed at a window's first stage alone; stage t
    # of the window shifts it left by t - lo
    lex = lanes.Row.sums(1 << longest * (n - 1 - k) for k in range(n))
    shifts = [t - lo for lo, hi in windows for t in range(lo, hi + 1)]

    def cells(width: int | None) -> list:
        # profit * scale - (lex << shift) cell by cell, or in lanes: about two
        # big-int operations a stage
        if width is None:
            return [[p * scale - (x << shift) for p, x in zip(row, lex)] for row, shift in zip(profits, shifts)]
        key = lex.form(width)
        return [row.form(width) * scale - (key << shift) for row, shift in zip(profits, shifts)]

    span = sum(row.span for row in profits) * scale + sum(lex.span << shift for shift in shifts)
    terms = lanes.Rows(len(shifts), span, cells)
    # each item's terms at the tie-break scale, as the rows carry it
    plain = [coupling_terms(inst, i, windows) for i in inst.items]
    chains = [[((a * scale, b * scale), (c * scale, d * scale)) for (a, b), (c, d) in chain] for chain in plain]
    top, masks = max_plus_masks(terms, chains, lanes.Rows.stages(packable), link_span(plain) * scale)
    # top = value * scale - key with 0 <= key < scale
    return tuple(rows.subset(m) for m in masks), -(-top // scale)


def _pair_rows(empty: int, cells: Sequence[int]) -> lanes.Rows:
    """One item's rows over its stages, cell 0 ``empty`` and cell 1 ``cells[t]``: lanes ``empty + (cell << width)``."""
    span = sum(map(abs, cells)) + empty * len(cells)
    return lanes.Rows(len(cells), span, lambda w: [empty + (c << w) for c in cells] if w else [[empty, c] for c in cells])


def _greedy_sets(inst: GmkInstance, windows: Sequence[tuple[int, int]], pack_budget: int | None) -> StageSets:
    """A greedy shift's stage sets, stage by stage across consecutive windows, built item by item.

    Each item runs ``max_plus_masks`` once over all the windows, on plain
    values and its whole ``core.coupling_terms`` chain: it packs at the
    stages of ``_PartialPacking.avail(k)``, built from the windows'
    constraints, under ``pack_budget`` nodes per ``place`` call, and earns
    its marginal profit over the items chosen before it: each stage's
    profit with the item, less the profit the stage holds, which a stage
    that takes the item then holds. The engine's first maximum, taken from
    the last stage back with 0 before 1, is the smallest best schedule mask,
    and the cut links are separable: each window gets the schedule a pass of
    its own would. The value is not checked: one item's sets miss the other
    items' g- terms.
    """
    stages = [t for lo, hi in windows for t in range(lo, hi + 1)]
    packing = _PartialPacking(inst.items, [inst.stage(t).mkcs for t in stages], pack_budget)
    chosen: list[frozenset[str]] = [frozenset()] * len(stages)
    held = [inst.stage_profit(t, frozenset()) for t in stages]
    for k, item in enumerate(inst.items):
        avail = packing.avail(k)
        gained = [inst.stage_profit(t, s | {item}) for t, s in zip(stages, chosen)]
        chain = coupling_terms(inst, item, windows)
        fits = _pair_rows(1, [avail >> s & 1 for s in range(len(stages))])
        _, masks = max_plus_masks(_pair_rows(0, list(map(sub, gained, held))), [chain], fits, link_span([chain]))
        packing.push(k, sum(m << s for s, m in enumerate(masks)))
        chosen = [s | {item} if m else s for s, m in zip(chosen, masks)]
        held = [g if m else h for g, h, m in zip(gained, held, masks)]
    return tuple(chosen)


def solve_shift(
    rows: StageRows,
    windows: Sequence[tuple[int, int]],
    solver: str = "exact",
    *,
    enum_budget: int | None = None,
    pack_budget: int | None = DEFAULT_PACK_BUDGET,
) -> list[tuple[StageSets, int]]:
    """Per window (lo, hi) of consecutive ``windows``: its stage sets, not packed, and their value.

    Each window is read in place from a valid instance's tables and solved
    as if alone. Each sub-solver picks the schedules its reduced solver
    would, for all the windows at once: exact by one ``_stage_dp``, once
    the enumeration budget admits every window's work of
    ``T * |I| * 2**|I|`` additions; greedy by ``_greedy_sets`` under
    ``pack_budget``. Every window is valued by ``core.evaluate_window``,
    and an exact shift's values must sum to its DP's (at lo..hi = 1..T,
    the optimum). A chain that is not a nonempty run of consecutive
    ranges inside 1..T is refused before any work.
    """
    if solver not in SOLVER_CHOICES:
        raise InputError(f"unknown solver {solver!r}, expected one of {SOLVER_CHOICES}")
    inst = rows.instance
    chained = all(hi + 1 == lo for (_, hi), (lo, _) in zip(windows, windows[1:]))
    if not (windows and chained and 1 <= windows[0][0] and windows[-1][1] <= inst.horizon
            and all(lo <= hi for lo, hi in windows)):
        raise InputError(f"windows {tuple(windows)} are not consecutive stage ranges inside 1..{inst.horizon}")
    if solver == "greedy":
        sets, decoded = _greedy_sets(inst, windows, pack_budget), None
    else:
        for lo, hi in windows:
            check_dp_work("exact solve refused: stage DP", hi - lo + 1, len(inst.items), enum_budget)
        sets, decoded = _stage_dp(rows, windows)
    chosen = iter(sets)
    parts = []
    for lo, hi in windows:
        window = tuple(islice(chosen, hi - lo + 1))
        parts.append((window, evaluate_window(inst, lo, hi, window)))
    value = sum(v for _, v in parts)
    if decoded is not None and value != decoded:
        raise ContractViolationError(f"stage DP value {decoded} differs from the objective {value}")
    return parts


def solve_bounded_horizon(
    rows: StageRows,
    lo: int,
    hi: int,
    solver: str = "exact",
    *,
    enum_budget: int | None = None,
    pack_budget: int | None = DEFAULT_PACK_BUDGET,
) -> tuple[StageSets, int]:
    """The stage sets at stages lo..hi of ``rows.instance``, not packed, and their value.

    ``solve_shift`` of the one window.
    """
    [part] = solve_shift(rows, ((lo, hi),), solver, enum_budget=enum_budget, pack_budget=pack_budget)
    return part


def combine_cut_solutions(
    inst: GmkInstance, parts: Sequence[tuple[StageSets, int]]
) -> tuple[StageSets, int]:
    """Concatenate (stage sets, window value) parts into the sets of all T stages and their value.

    The part horizons must sum to T. One part spans the whole horizon, so
    its value is the concatenation's; more parts are valued once, and must
    be worth at least the sum of the part values.
    """
    combined = tuple(s for sets, _ in parts for s in sets)
    if len(combined) != inst.horizon:
        raise InputError(f"window horizons sum to {len(combined)}, expected {inst.horizon}")
    value = parts[0][1] if len(parts) == 1 else evaluate_objective(inst, combined)
    if value < sum(v for _, v in parts):
        raise ContractViolationError("combined value fell below the sum of window values")
    return combined, value


class SchemeIteration(NamedTuple):
    """One shift of the cutting loop, for reporting."""

    j: int
    cut_points: tuple[int, ...]
    window_values: tuple[int, ...]
    combined_value: int


class SchemeResult(NamedTuple):
    solution: MultistageSolution
    value: int
    bypassed: bool
    selected_j: int | None
    iterations: tuple[SchemeIteration, ...]


def solve_general_result(
    rows: StageRows,
    params: SchemeParams,
    solver: str = "exact",
    *,
    enum_budget: int | None = None,
    pack_budget: int | None = DEFAULT_PACK_BUDGET,
) -> SchemeResult:
    """Run the full scheme on the instance of ``rows``, which checked it, and keep per-shift details for reporting."""
    inst = rows.instance
    if inst.variant == MODULAR:
        witness = ratio_violation(inst, Fraction(params.phi))
        if witness is not None:
            item, t_cost, cost, t_profit, profit = witness
            raise InputError(
                f"profit-cost ratio exceeds phi={params.phi}: item {item} has change cost "
                f"{cost} at stage {t_cost} against profit {profit} at stage {t_profit}"
            )

    budgets = dict(enum_budget=enum_budget, pack_budget=pack_budget)
    mu_inv = params.mu_inv
    if inst.horizon <= 2 * mu_inv:
        sets, value = solve_bounded_horizon(rows, 1, inst.horizon, solver, **budgets)
        return SchemeResult(rows.solution(sets), value, True, None, ())

    iterations: list[SchemeIteration] = []
    shift_sets: list[StageSets] = []
    # shifts with no interior cut share the one window 1..T, solved once
    solved: dict[tuple[tuple[int, int], ...], list[tuple[StageSets, int]]] = {}
    for j in range(1, mu_inv + 1):
        cuts = cut_points(inst.horizon, mu_inv, j)
        windows = cuts.windows()
        if cuts.interior():
            longest = max(hi - lo + 1 for lo, hi in windows)
            if longest > 2 * mu_inv:
                raise ContractViolationError(
                    f"window of length {longest} exceeds the bounded horizon {2 * mu_inv}"
                )
        if windows not in solved:
            solved[windows] = solve_shift(rows, windows, solver, **budgets)
        parts = solved[windows]
        sets, value = combine_cut_solutions(inst, parts)
        iterations.append(SchemeIteration(j, cuts.points, tuple(v for _, v in parts), value))
        shift_sets.append(sets)
    # the first shift of the largest value wins; only its sets are packed and checked
    best = max(iterations, key=lambda it: it.combined_value)
    solution = rows.solution(shift_sets[best.j - 1])
    return SchemeResult(solution, best.combined_value, False, best.j, tuple(iterations))


__all__ = [
    "CutPointSet",
    "SchemeParams",
    "SchemeIteration",
    "SchemeResult",
    "cut_points",
    "combine_cut_solutions",
    "solve_bounded_horizon",
    "solve_general_result",
    "solve_shift",
]
