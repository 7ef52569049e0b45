"""Rows of subset cells held in one Python int of lanes, read by guard-bit compares.

Cell m, for the item subset of mask m, is lane m: bits ``m * width`` up,
``width`` whole bytes. A held row keeps each cell in two's complement,
less a borrow from the lane above each negative one, so lanes add, scale
and shift as their cells. A DP biases its lanes nonnegative and below each
lane's top bit, its guard bit: big-int sums never carry across lanes, and
the guard bit of ``(a | guard) - b`` stays set where a >= b ("SIMD within
a register": Fisher and Dietz, LCPC 1998; Warren, *Hacker's Delight*,
ch. 2). This module alone builds and reads guard bits. ``Row`` holds a
stage's cells in each form a DP reads, the list or the lanes of a width,
and ``Rows`` consecutive stages.
"""

from __future__ import annotations

import sys
from array import array
from functools import lru_cache
from typing import Any, Callable, Iterable, Sequence

# a signed array typecode of each lane width in bits, chosen by itemsize, narrowest first;
# lanes run from the least significant byte up, so big-endian arrays swap their bytes
CODES = dict(sorted((array(code).itemsize * 8, code) for code in "iq"))
_BIG_ENDIAN = sys.byteorder == "big"


def width(bound: int) -> int:
    """The narrowest lane width in whole bytes whose lanes hold 0..``bound`` below the guard bit."""
    return bound.bit_length() + 8 >> 3 << 3


@lru_cache(maxsize=8)
def ones(size: int, width: int) -> int:
    """A one in each of ``size`` lanes of ``width`` bits, a multiple of 8; the last few kept."""
    return int.from_bytes((b"\1" + bytes((width >> 3) - 1)) * size, "little")


def guard(size: int, width: int) -> int:
    """The guard bit, the top one, of each of ``size`` lanes of ``width`` bits."""
    return ones(size, width) << width - 1


def at_least(a: int, b: int, guard: int) -> int:
    """The guard bits of the lanes where a >= b, both of lanes nonnegative and below ``guard``."""
    return ((a | guard) - b) & guard


def fill(sel: int, width: int) -> int:
    """Every lane whose guard bit is set in ``sel``, all ones below it; the others zero."""
    return sel - (sel >> width - 1)


def larger(a: int, b: int, guard: int, width: int) -> int:
    """The larger of lanes a and b, lane by lane, a on ties; both nonnegative and below ``guard``."""
    # fill(at_least(a, b, guard), width) inlined: the engine's passes call this once per
    # item and stage, where two more calls cost a few percent of an exact cut-loop solve
    sel = ((a | guard) - b) & guard
    return b ^ (a ^ b) & sel - (sel >> width - 1)


def flags(sel: int, size: int, width: int) -> bytes:
    """The guard bits of ``sel``'s ``size`` lanes, no other bit set, one byte a lane: 1 where set, else 0."""
    return (sel >> width - 1).to_bytes(size * width >> 3, "little")[:: width >> 3]


def lowest(sel: int, width: int) -> int:
    """The lane of ``sel``'s lowest set guard bit."""
    return (sel & -sel).bit_length() // width - 1


@lru_cache(maxsize=1)
def masks(size: int, width: int) -> tuple[tuple[int, int, int, int], ...]:
    """Per item k of ``size`` lanes of ``width`` bits: (shift, e0, e1, low), cached for the last pair only.

    The shift lines lane m up with lane m | 2**k, e0 and e1 hold a one in each lane with bit k
    clear and set, and low all of e0's lanes' bits: at |I| = 16, 48 ints of 2**16 lanes.
    """
    one = b"\1" + bytes((width >> 3) - 1)
    per_item = []
    for k in range(size.bit_length() - 1):
        e0 = int.from_bytes((one * (1 << k) + bytes(len(one) << k)) * (size >> k + 1), "little")
        per_item.append((width << k, e0, e0 << (width << k), (e0 << width) - e0))
    return tuple(per_item)


def subset_sums(values: Iterable[int]) -> list[int]:
    """sums[m]: the sum of ``values[k]`` over the bits k of mask m, for every mask m."""
    sums = [0]
    for v in values:
        sums += [s + v for s in sums]
    return sums


def sums(values: Sequence[int], width: int) -> int:
    """``subset_sums(values)`` in ``width``-bit lanes: each item doubles them, its value added to the copy."""
    lanes, each = 0, 1
    for k, v in enumerate(values):
        shift = width << k
        lanes += (lanes + v * each) << shift
        each |= each << shift
    return lanes


def of(cells: Sequence[int], width: int) -> int:
    """The ``width``-bit lanes of a list of cells, through a ``CODES`` array."""
    words = array(CODES[width], cells)
    if _BIG_ENDIAN:
        words.byteswap()
    raw = int.from_bytes(words, "little")
    # two's complement lanes, less a borrow from the lane above each negative one
    return raw - ((raw & guard(len(cells), width)) << 1)


def cells(lanes: int, size: int, width: int) -> array:
    """The ``size`` cells of nonnegative ``width``-bit lanes, as a ``CODES`` array."""
    words = array(CODES[width], lanes.to_bytes(size * width >> 3, "little"))
    if _BIG_ENDIAN:
        words.byteswap()
    return words


class Row(Sequence[int]):
    """One stage's cells, read as their sequence, in each form a stage DP reads.

    ``form(None)`` is the list of cells and ``form(width)`` their lanes, each
    built on first use and kept in ``forms``. ``span`` bounds the sum of the
    cells' magnitudes.
    """

    __slots__ = ("size", "span", "forms", "_make")

    def __init__(self, size: int, span: int, make: Callable[[int | None], list | int]):
        self.size, self.span, self._make = size, span, make
        self.forms: dict[int | None, list | int] = {}

    @classmethod
    def of(cls, cells: Iterable[int]) -> Row:
        """The row of these cells; its lanes are 32 or 64 bits wide, converted through ``array``."""
        values = list(cells)
        row = cls(len(values), sum(map(abs, values)), lambda width: of(values, width))
        row.forms[None] = values
        return row

    @classmethod
    def sums(cls, values: Iterable[int]) -> Row:
        """The row of ``subset_sums(values)``; each value is in half of the cells."""
        terms = list(values)
        span = sum(map(abs, terms)) << len(terms) >> 1
        return cls(1 << len(terms), span, lambda width: subset_sums(terms) if width is None else sums(terms, width))

    @classmethod
    def flags(cls, flags: bytes) -> Row:
        """The row of 0/1 cells, one byte each, read as booleans; its lanes take any width of whole bytes."""

        def make(width: int | None) -> list | int:
            if width is None:
                return list(map(bool, flags))
            lanes = bytearray(len(flags) * width >> 3)
            lanes[:: width >> 3] = flags
            return int.from_bytes(lanes, "little")

        return cls(len(flags), flags.count(1), make)

    def form(self, width: int | None) -> Any:
        """The list of cells for None, else their ``width``-bit lanes; built once and kept."""
        found = self.forms.get(width)
        if found is None:
            found = self.forms[width] = self._make(width)
        return found

    def __len__(self) -> int:
        return self.size

    def __getitem__(self, m):
        return self.form(None)[m]

    def __iter__(self):
        return iter(self.form(None))


class Rows(Row):
    """The rows of consecutive stages: a row whose cells are stage rows.

    ``form(width)`` lists every stage's form of that width, and ``span``
    bounds the sum of the magnitudes of all their cells.
    """

    __slots__ = ()

    @classmethod
    def stages(cls, rows: Iterable[Row]) -> Rows:
        """The held rows of these stages, each read in the form it holds."""
        held = list(rows)
        span = sum(row.span for row in held)
        return cls(len(held), span, lambda width: [row.form(width) for row in held])
