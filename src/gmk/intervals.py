"""Run-length view of multistage solutions.

A sequence of stage sets is equivalently a set of maximal runs
``(item, start, end)``. The run value plus the leftover g- mass recovers
the full objective, and cutting a run at given points loses exactly the
crossing gains and the extra change costs, nothing else. Both identities
hold with tolerance zero and anchor the horizon-cutting scheme.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, AbstractSet, Sequence

from .core import MODULAR, GmkInstance
from .errors import InputError, UnsupportedVariantError

if TYPE_CHECKING:
    from .cutting import CutPointSet


@dataclass(frozen=True, order=True)
class IntervalElement:
    """Contiguous assignment run of one item over stages [start, end]."""

    item: str
    start: int
    end: int

    def __post_init__(self) -> None:
        if not 1 <= self.start <= self.end:
            raise InputError(f"invalid interval [{self.start}, {self.end}]")


def to_intervals(sets: Sequence[AbstractSet[str]]) -> tuple[IntervalElement, ...]:
    """Maximal runs of the set sequence, in ``(item, start, end)`` order.

    Same-item runs are disjoint with a gap of at least one stage.
    """
    horizon = len(sets)
    items = sorted(set().union(*sets)) if sets else []
    out: list[IntervalElement] = []
    for item in items:
        start = None
        for t in range(1, horizon + 2):
            inside = t <= horizon and item in sets[t - 1]
            if inside and start is None:
                start = t
            elif not inside and start is not None:
                out.append(IntervalElement(item, start, t - 1))
                start = None
    return tuple(out)


def element_value(inst: GmkInstance, e: IntervalElement) -> int:
    """Net value of one run: profits plus interior gains minus boundary costs."""
    if inst.variant != MODULAR:
        raise UnsupportedVariantError("element values are undefined for non-modular profits")
    if e.end > inst.horizon:
        raise InputError(f"interval {e} exceeds horizon {inst.horizon}")
    value = sum(inst.item_profit(t, e.item) for t in range(e.start, e.end + 1))
    value += sum(inst.gain_plus[e.item, t] for t in range(e.start + 1, e.end + 1))
    return value - inst.cost_plus[e.item, e.start] - inst.cost_minus[e.item, e.end]


def cut_element(e: IntervalElement, cuts: "CutPointSet") -> tuple[IntervalElement, ...]:
    """Pieces of ``e`` clipped to the windows the cut points induce, by start.

    Cut points at ``e.start`` or outside ``(start, end]`` are no-ops; the
    pieces tile [start, end] exactly. They are adjacent by design, so they
    are not maximal runs.
    """
    inner = [u for u in cuts.points if e.start < u <= e.end]
    bounds = [e.start, *inner, e.end + 1]
    return tuple(IntervalElement(e.item, lo, hi - 1) for lo, hi in zip(bounds, bounds[1:]))


def cut_loss(inst: GmkInstance, e: IntervalElement, cuts: "CutPointSet") -> int:
    """Exact value lost by cutting ``e`` at the given points.

    Each cut point inside ``(start, end]`` loses the crossing gain plus the
    two change costs the split introduces; losses add up per point, and
    ``element_value(e) == sum of piece values + cut_loss`` exactly.
    """
    if inst.variant != MODULAR:
        raise UnsupportedVariantError("cut losses are undefined for non-modular profits")
    total = 0
    for u in cuts.points:
        if e.start < u <= e.end:
            total += (
                inst.gain_plus[e.item, u]
                + inst.cost_plus[e.item, u]
                + inst.cost_minus[e.item, u - 1]
            )
    return total
