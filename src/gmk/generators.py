"""Instance generators.

Two structured generators re-purpose the hardness constructions as value-
preserving instance builders, one from multidimensional knapsack (stages
replace dimensions, change costs equal to profits glue the stages
together) and one from two-dimensional knapsack (profit moves entirely
into the stage-2 consistency gain). A seeded random generator with a
profit-cost ratio knob rounds out the family.

Outputs are deterministic per seed and carry provenance metadata so the
oracle cross-checks can invert the mapping.
"""

from __future__ import annotations

import hashlib
import random
from fractions import Fraction
from typing import Mapping, NamedTuple, Sequence

from .core import (
    MODULAR,
    SUBMODULAR,
    GmkInstance,
    Mkc,
    McpStage,
    ensure_valid,
    profit_cost_ratio,
)
from .errors import ContractViolationError, InputError
from .serialize import _name_list, _scaled_int, canonical_dumps
from .submodular import CoverageFunction


class MultidimKnapsackInstance(NamedTuple):
    """d-dimensional knapsack: one bin per dimension, vector weights."""

    items: tuple[str, ...]
    profits: Mapping[str, int]
    weights: Mapping[str, tuple[int, ...]]
    capacities: tuple[int, ...]

    @property
    def dimension(self) -> int:
        return len(self.capacities)


def kp_to_dict(kp: MultidimKnapsackInstance) -> dict:
    return {
        "items": list(kp.items),
        "profits": dict(kp.profits),
        "weights": {i: list(w) for i, w in kp.weights.items()},
        "capacities": list(kp.capacities),
    }


def kp_from_dict(raw) -> MultidimKnapsackInstance:
    """Parse a knapsack file; every number is a nonnegative integer, as in instance files."""
    try:
        items = _name_list(raw["items"], "knapsack items")
        capacities = tuple(_scaled_int(c, 1, "capacity") for c in raw["capacities"])
        profits = {str(i): _scaled_int(p, 1, f"profit of {i}") for i, p in raw["profits"].items()}
        weights = {
            str(i): tuple(_scaled_int(w, 1, f"weight of {i}") for w in ws)
            for i, ws in raw["weights"].items()
        }
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise InputError(f"knapsack file malformed: {exc}")
    kp = MultidimKnapsackInstance(items=items, profits=profits, weights=weights, capacities=capacities)
    d = kp.dimension
    if d < 1:
        raise InputError("knapsack instance needs at least one dimension")
    for i in items:
        if i not in profits or i not in weights:
            raise InputError(f"knapsack item {i} lacks a profit or weight vector")
        if len(weights[i]) != d:
            raise InputError(f"knapsack item {i} has {len(weights[i])} weights, expected {d}")
    return kp


def kp_hash(kp: MultidimKnapsackInstance) -> str:
    return hashlib.sha256(canonical_dumps(kp_to_dict(kp)).encode()).hexdigest()


def _zero_table(items: Sequence[str], lo: int, hi: int) -> dict[tuple[str, int], int]:
    return {(i, t): 0 for i in items for t in range(lo, hi + 1)}


def gen_from_multidim_knapsack(kp: MultidimKnapsackInstance) -> GmkInstance:
    """Stages replace dimensions; change costs forbid cheap stage-hopping.

    Stage profits are the (possibly pre-scaled) item profit divided by the
    dimension count, entry costs bite at every stage but the first, exit
    costs at every stage but the last. An always-packed item thus earns its
    full profit while partial runs forfeit it. When profits are not all
    divisible by d they are pre-scaled by d; the metadata records the
    factor so optima can be un-scaled.
    """
    d = kp.dimension
    scale = 1 if all(p % d == 0 for p in kp.profits.values()) else d
    scaled = {i: scale * kp.profits[i] for i in kp.items}
    stage_profit = {i: scaled[i] // d for i in kp.items}

    stages = []
    for t in range(1, d + 1):
        weights = {i: kp.weights[i][t - 1] for i in kp.items}
        mkc = Mkc(weights=weights, bins=("b",), capacities={"b": kp.capacities[t - 1]})
        stages.append(McpStage(mkcs=(mkc,), profit=dict(stage_profit)))

    cost_plus = {(i, t): scaled[i] if t >= 2 else 0 for i in kp.items for t in range(1, d + 1)}
    cost_minus = {(i, t): scaled[i] if t <= d - 1 else 0 for i in kp.items for t in range(1, d + 1)}
    inst = GmkInstance(
        items=kp.items,
        horizon=d,
        stages=tuple(stages),
        gain_plus=_zero_table(kp.items, 2, d),
        gain_minus=_zero_table(kp.items, 2, d),
        cost_plus=cost_plus,
        cost_minus=cost_minus,
        variant=MODULAR,
        metadata={"generator": "multidim_knapsack", "scale": scale, "source_hash": kp_hash(kp)},
    )
    return ensure_valid(inst)


def gen_from_2kp(kp: MultidimKnapsackInstance) -> GmkInstance:
    """Two stages, zero stage profits, all profit in the stage-2 gain."""
    if kp.dimension != 2:
        raise InputError(f"this generator needs a 2-dimensional instance, got d={kp.dimension}")
    stages = []
    for t in (1, 2):
        weights = {i: kp.weights[i][t - 1] for i in kp.items}
        mkc = Mkc(weights=weights, bins=("b",), capacities={"b": kp.capacities[t - 1]})
        stages.append(McpStage(mkcs=(mkc,), profit={i: 0 for i in kp.items}))
    gain_plus = {(i, 2): kp.profits[i] for i in kp.items}
    inst = GmkInstance(
        items=kp.items,
        horizon=2,
        stages=tuple(stages),
        gain_plus=gain_plus,
        gain_minus={(i, 2): 0 for i in kp.items},
        cost_plus=_zero_table(kp.items, 1, 2),
        cost_minus=_zero_table(kp.items, 1, 2),
        variant=MODULAR,
        metadata={"generator": "2kp", "scale": 1, "source_hash": kp_hash(kp)},
    )
    return ensure_valid(inst)


class GenParams(NamedTuple):
    """Knobs for the random generator; ranges are inclusive."""

    items: int = 3
    horizon: int = 3
    dimension: int = 1
    bins_per_mkc: int = 1
    weight_range: tuple[int, int] = (1, 4)
    capacity_range: tuple[int, int] = (2, 8)
    profit_range: tuple[int, int] = (0, 5)
    gain_range: tuple[int, int] = (0, 3)
    cost_range: tuple[int, int] = (0, 3)
    target_phi: Fraction | int | None = None
    variant: str = MODULAR


def _rand_in(rng: random.Random, lo_hi: tuple[int, int], where: str) -> int:
    lo, hi = lo_hi
    if lo > hi or lo < 0:
        raise InputError(f"unsatisfiable range {lo_hi} for {where}")
    return rng.randint(lo, hi)


def gen_random(params: GenParams, seed: int) -> GmkInstance:
    """Seeded random instance; byte-identical output per seed.

    With a finite ``target_phi`` every change cost is clamped per item so
    the profit-cost ratio of the output never exceeds the target, which is
    re-verified through the ratio operation before returning.
    """
    if params.items < 0 or params.horizon < 1 or params.dimension < 1 or params.bins_per_mkc < 1:
        raise InputError("items must be >= 0; horizon, dimension and bins_per_mkc must be >= 1")
    if params.variant not in (MODULAR, SUBMODULAR):
        raise InputError(f"unknown variant {params.variant!r}")
    if params.target_phi is not None and Fraction(params.target_phi) < 0:
        raise InputError("target_phi must be nonnegative or None")

    rng = random.Random(seed)
    items = tuple(f"i{k + 1:02d}" for k in range(params.items))

    stages = []
    for _ in range(params.horizon):
        mkcs = []
        for _ in range(rng.randint(1, params.dimension)):
            weights = {i: _rand_in(rng, params.weight_range, "weight") for i in items}
            bins = tuple(f"b{b + 1}" for b in range(params.bins_per_mkc))
            capacities = {b: _rand_in(rng, params.capacity_range, "capacity") for b in bins}
            mkcs.append(Mkc(weights=weights, bins=bins, capacities=capacities))
        if params.variant == SUBMODULAR:
            universe = {f"u{k + 1}": rng.randint(1, 5) for k in range(params.items + 2)}
            covers = {
                i: frozenset(u for u in universe if rng.random() < 0.5) for i in items
            }
            profit = CoverageFunction(universe=universe, covers=covers)
        else:
            profit = {i: _rand_in(rng, params.profit_range, "profit") for i in items}
        stages.append(McpStage(mkcs=tuple(mkcs), profit=profit))

    def table(lo: int, rand_range) -> dict[tuple[str, int], int]:
        return {
            (i, t): _rand_in(rng, rand_range, "table")
            for i in items
            for t in range(lo, params.horizon + 1)
        }

    gain_plus = table(2, params.gain_range)
    gain_minus = table(2, params.gain_range)
    if params.variant == SUBMODULAR:
        cost_plus = _zero_table(items, 1, params.horizon)
        cost_minus = _zero_table(items, 1, params.horizon)
    else:
        cost_plus = table(1, params.cost_range)
        cost_minus = table(1, params.cost_range)
        if params.target_phi is not None:
            target = Fraction(params.target_phi)
            for i in items:
                min_profit = min(stages[t - 1].profit[i] for t in range(1, params.horizon + 1))
                cap = int(target * min_profit)
                for t in range(1, params.horizon + 1):
                    cost_plus[i, t] = min(cost_plus[i, t], cap)
                    cost_minus[i, t] = min(cost_minus[i, t], cap)

    inst = GmkInstance(
        items=items,
        horizon=params.horizon,
        stages=tuple(stages),
        gain_plus=gain_plus,
        gain_minus=gain_minus,
        cost_plus=cost_plus,
        cost_minus=cost_minus,
        variant=params.variant,
        metadata={"generator": "random", "seed": seed},
    )
    ensure_valid(inst)
    if params.variant == MODULAR and params.target_phi is not None and params.items > 0:
        ratio = profit_cost_ratio(inst)
        if ratio > params.target_phi:
            raise ContractViolationError(
                f"generated ratio {ratio} exceeds the requested bound {params.target_phi}"
            )
    return inst
