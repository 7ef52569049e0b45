"""Monotone submodular profit oracles and an exhaustive property checker.

Instance profits in the submodular variant are drawn from a closed family
that is nonnegative, monotone and submodular by construction: weighted
coverage functions, modular functions, and sums thereof. A table-backed
oracle with no guarantees is also provided so the property checker can be
exercised against adversarial inputs.

``check_monotone_submodular`` is exhaustive over the ground it is given: it
evaluates all ``2**n`` subsets of ``n`` members, so it is meant for desk
scale. ``extend_function`` lifts an oracle over items to an oracle over
item/schedule pairs that only sees the items whose schedule contains a
given stage. The lifted function inherits all three properties. Its ground
is the item/schedule pairs, which it does not hold, so the caller passes
the pairs to check to the checker.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar, Hashable, Iterable, Mapping

from .errors import InputError


class SetFunctionOracle:
    """Base class for evaluable set functions over a fixed ground set."""

    kind: ClassVar[str] = "abstract"

    @property
    def ground(self) -> frozenset:
        raise NotImplementedError

    def evaluate(self, subset: frozenset) -> int:
        """Value of ``subset``; callers must stay within ``ground``."""
        raise NotImplementedError


@dataclass(frozen=True)
class CoverageFunction(SetFunctionOracle):
    """Total weight of universe elements covered by the selected items."""

    kind: ClassVar[str] = "coverage"
    universe: Mapping[Hashable, int]
    covers: Mapping[Hashable, frozenset]

    @property
    def ground(self) -> frozenset:
        return frozenset(self.covers)

    def evaluate(self, subset: frozenset) -> int:
        covered: set = set()
        for item in subset:
            covered.update(self.covers[item])
        return sum(self.universe[u] for u in covered)


@dataclass(frozen=True)
class ModularFunction(SetFunctionOracle):
    """Additive set function; equals a per-item profit table."""

    kind: ClassVar[str] = "modular"
    values: Mapping[Hashable, int]

    @property
    def ground(self) -> frozenset:
        return frozenset(self.values)

    def evaluate(self, subset: frozenset) -> int:
        return sum(self.values[i] for i in subset)


@dataclass(frozen=True)
class SumFunction(SetFunctionOracle):
    """Sum of oracles; closed under the guaranteed properties."""

    kind: ClassVar[str] = "sum"
    parts: tuple[SetFunctionOracle, ...]
    # each part's ground, built once with the sum
    grounds: tuple[frozenset, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        # held flat, so a chain of sums costs no recursion: a sum part gives its
        # parts, whose grounds lie in its own, so every value is unchanged
        flat = tuple(q for p in self.parts for q in (p.parts if isinstance(p, SumFunction) else (p,)))
        object.__setattr__(self, "parts", flat)
        object.__setattr__(self, "grounds", tuple(part.ground for part in flat))

    @property
    def ground(self) -> frozenset:
        return frozenset().union(*self.grounds)

    def evaluate(self, subset: frozenset) -> int:
        return sum(part.evaluate(subset & ground) for part, ground in zip(self.parts, self.grounds))


@dataclass(frozen=True)
class TableFunction(SetFunctionOracle):
    """Arbitrary explicit table, no properties guaranteed.

    Diagnostic oracle for checker tests; not accepted in instance files.
    """

    kind: ClassVar[str] = "table"
    table: Mapping[frozenset, int]
    members: frozenset

    @property
    def ground(self) -> frozenset:
        return self.members

    def evaluate(self, subset: frozenset) -> int:
        try:
            return self.table[frozenset(subset)]
        except KeyError:
            raise InputError(f"table oracle has no entry for {sorted(map(str, subset))}")


@dataclass(frozen=True)
class ExtendedStageFunction(SetFunctionOracle):
    """Lift of an item oracle to schedule elements active at one stage.

    Evaluates the base function on the items whose element is active at
    ``stage``; elements are anything exposing ``item`` and ``active_at``.
    The elements range over every item/schedule pair, so there is no stored
    ground: ``ground`` raises and a check names the elements it covers.
    """

    kind: ClassVar[str] = "stage-extension"
    base: SetFunctionOracle
    stage: int

    @property
    def ground(self) -> frozenset:
        raise InputError("a stage extension has no stored ground; pass the elements to check")

    def evaluate(self, subset: frozenset) -> int:
        items = frozenset(e.item for e in subset if e.active_at(self.stage))
        return self.base.evaluate(items)


def extend_function(oracle: SetFunctionOracle, stage: int) -> ExtendedStageFunction:
    """Oracle over item/schedule elements seeing only stage ``stage``."""
    return ExtendedStageFunction(base=oracle, stage=stage)


@dataclass(frozen=True)
class PropertyReport:
    """Outcome of a nonnegativity, monotonicity and submodularity check."""

    violations: tuple[str, ...]

    @property
    def clean(self) -> bool:
        return not self.violations


def _subset(members, mask: int) -> frozenset:
    return frozenset(members[k] for k in range(len(members)) if (mask >> k) & 1)


def _fmt(members, mask: int) -> str:
    return "{" + ", ".join(str(m) for m in sorted(map(str, _subset(members, mask)))) + "}"


def check_monotone_submodular(oracle: SetFunctionOracle, ground: Iterable | None = None) -> PropertyReport:
    """Verify nonnegativity, monotonicity and diminishing returns.

    Checks every subset of ``ground`` (the oracle's own ground if omitted),
    so it makes ``2**n`` evaluations for ``n`` members. The first witness of
    each violated property is reported.
    """
    members = sorted(ground if ground is not None else oracle.ground)
    n = len(members)
    table = [oracle.evaluate(_subset(members, mask)) for mask in range(1 << n)]

    violations: list[str] = []
    negative = next((mask for mask, v in enumerate(table) if v < 0), None)
    if negative is not None:
        violations.append(f"negative: f({_fmt(members, negative)}) = {table[negative]}")

    monotone_witness = None
    submodular_witness = None
    half = (1 << n) >> 1
    for k in range(n):
        bit = 1 << k
        # the masks not containing bit k, ascending; index c of orig is a
        # compressed mask over the other n - 1 members
        orig = [mask for mask in range(1 << n) if not mask & bit]
        marg = [table[mask | bit] - table[mask] for mask in orig]

        if monotone_witness is None:
            bad = next((c for c, m in enumerate(marg) if m < 0), None)
            if bad is not None:
                mask = orig[bad]
                monotone_witness = (
                    f"not monotone: f({_fmt(members, mask | bit)}) - "
                    f"f({_fmt(members, mask)}) = {marg[bad]}"
                )

        if submodular_witness is None:
            # diminishing returns: marg over supersets never exceeds the
            # minimum marginal over their subsets. A pass takes the top
            # bit's halves and rotates the index left, bringing the next bit
            # on top; n - 1 passes restore the index order.
            mins = marg
            for _ in range(n - 1):
                low, high = mins[: half >> 1], mins[half >> 1 :]
                mins = [0] * half
                mins[0::2], mins[1::2] = low, map(min, high, low)
            bad = next((c for c, (m, low) in enumerate(zip(marg, mins)) if m > low), None)
            if bad is not None:
                b_comp = bad
                a_comp = b_comp
                sub = b_comp
                while True:
                    if marg[sub] < marg[b_comp]:
                        a_comp = sub
                        break
                    if sub == 0:
                        break
                    sub = (sub - 1) & b_comp
                b_mask = orig[b_comp]
                a_mask = orig[a_comp]
                submodular_witness = (
                    f"not submodular: adding {members[k]} gains {marg[b_comp]} at "
                    f"{_fmt(members, b_mask)} but {marg[a_comp]} at subset {_fmt(members, a_mask)}"
                )

    if monotone_witness:
        violations.append(monotone_witness)
    if submodular_witness:
        violations.append(submodular_witness)
    return PropertyReport(tuple(violations))

