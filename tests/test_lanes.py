"""The lane primitives against plain-list references."""

from __future__ import annotations

import random

import pytest

from gmk import lanes


def pack(cells, width):
    """The lanes of a list of cells: ``sum(cells[m] << m * width)``."""
    return sum(c << m * width for m, c in enumerate(cells))


def unpack(value, size, width):
    """The ``size`` lanes of a nonnegative int, each as its ``width`` bits read unsigned."""
    return [value >> m * width & (1 << width) - 1 for m in range(size)]


def guard_bits(value, size, width):
    """Whether each lane's guard bit is set."""
    return [bool(value >> (m + 1) * width - 1 & 1) for m in range(size)]


@pytest.mark.parametrize("bound, width", [
    (0, 8), (1, 8), (127, 8), (128, 16), (2**15 - 1, 16), (2**15, 24),
    (2**31 - 1, 32), (2**31, 40), (2**63 - 1, 64), (2**63, 72),
])
def test_width_is_the_narrowest_whole_byte_lane_with_room_below_the_guard_bit(bound, width):
    assert lanes.width(bound) == width
    assert bound < 1 << width - 1 and (width == 8 or bound >= 1 << width - 9)


@pytest.mark.parametrize("width", [8, 16, 24, 32, 64, 72])
def test_ones_and_guard(width):
    for size in (1, 2, 8, 16):
        assert unpack(lanes.ones(size, width), size, width) == [1] * size
        assert lanes.ones(size, width) >> size * width == 0
        assert lanes.guard(size, width) == pack([1 << width - 1] * size, width)


@pytest.mark.parametrize("width", [8, 16, 24, 32, 40, 64, 200])
def test_sums_are_subset_sums_in_lanes(width):
    # negative sums borrow from the lane above, so the int is the signed sum
    # of its cells; biased nonnegative, each lane reads back its subset sum
    rng = random.Random(width)
    for n in range(6):
        top = (1 << width - 1) // (n + 2) // 2
        values = [rng.randint(-top, top) for _ in range(n)]
        expected = lanes.subset_sums(values)
        assert expected == [sum(v for k, v in enumerate(values) if m >> k & 1) for m in range(1 << n)]
        held = lanes.sums(values, width)
        assert held == pack(expected, width)
        bias = sum(map(abs, values))
        size = 1 << n
        assert unpack(held + bias * lanes.ones(size, width), size, width) == [s + bias for s in expected]


@pytest.mark.parametrize("width", sorted(lanes.CODES))
def test_of_and_cells_round_trip(width):
    rng = random.Random(width)
    top = (1 << width - 1) - 1
    for size in (1, 2, 5, 16):
        signed = [rng.choice((0, 1, -1, top, -top, rng.randint(-top, top))) for _ in range(size)]
        # negative cells borrow from the lane above, as in every held row
        assert lanes.of(signed, width) == pack(signed, width)
        # cells reads nonnegative lanes, such as the biased ones of a DP
        plain = [rng.choice((0, top, rng.randint(0, top))) for _ in range(size)]
        assert list(lanes.cells(lanes.of(plain, width), size, width)) == plain
        half = [v // 2 for v in signed]
        bias = (top + 1) // 2
        biased = lanes.of(half, width) + bias * lanes.ones(size, width)
        assert list(lanes.cells(biased, size, width)) == [v + bias for v in half]


@pytest.mark.parametrize("width", [8, 16, 32, 64, 72])
def test_at_least_larger_fill_and_lowest_match_the_cells(width):
    rng = random.Random(width)
    top = (1 << width - 1) - 1
    for size in (1, 2, 7, 32):
        guard = lanes.guard(size, width)
        for _ in range(20):
            a = [rng.choice((0, top, rng.randint(0, top))) for _ in range(size)]
            b = [rng.choice((0, top, x, rng.randint(0, top))) for x in a]
            sel = lanes.at_least(pack(a, width), pack(b, width), guard)
            assert guard_bits(sel, size, width) == [x >= y for x, y in zip(a, b)]
            assert sel & ~guard == 0
            assert unpack(lanes.fill(sel, width), size, width) == [top if x >= y else 0 for x, y in zip(a, b)]
            assert lanes.larger(pack(a, width), pack(b, width), guard, width) == pack(list(map(max, a, b)), width)
            if sel:
                assert lanes.lowest(sel, width) == next(m for m, (x, y) in enumerate(zip(a, b)) if x >= y)


@pytest.mark.parametrize("width", [8, 32, 64, 72])
def test_flags_read_the_guard_bits_and_flag_rows_hold_them(width):
    rng = random.Random(width)
    for size in (1, 4, 64):
        bits = [rng.random() < 0.5 for _ in range(size)]
        sel = pack([b << width - 1 for b in bits], width)
        assert lanes.flags(sel, size, width) == bytes(bits)
        row = lanes.Row.flags(bytes(bits))
        assert row.form(width) == pack(bits, width)
        assert list(row) == bits and row.span == sum(bits)


@pytest.mark.parametrize("width", [8, 32, 64])
def test_masks_hold_each_items_lanes(width):
    for n in range(5):
        size = 1 << n
        per_item = lanes.masks(size, width)
        assert len(per_item) == n
        for k, (shift, e0, e1, low) in enumerate(per_item):
            assert shift == width << k
            assert e0 == pack([int(not m >> k & 1) for m in range(size)], width)
            assert e1 == pack([m >> k & 1 for m in range(size)], width)
            assert low == pack([(1 << width) - 1 if not m >> k & 1 else 0 for m in range(size)], width)
            # the shift carries lane m onto lane m | 2**k
            assert (e0 << shift) == e1


def test_rows_hold_each_form_once():
    values = [3, -5, 7]
    row = lanes.Row.sums(values)
    assert list(row) == lanes.subset_sums(values) and row.span == 15 * 4
    assert row.form(32) is row.form(32) == lanes.sums(values, 32)
    cells = lanes.Row.of([4, -1])
    stages = lanes.Rows.stages([cells, lanes.Row.of([0, 2])])
    assert len(stages) == 2 and stages.span == 7
    assert stages.form(None) == [[4, -1], [0, 2]]
    assert stages.form(64) == [pack([4, -1], 64), pack([0, 2], 64)]
    assert cells.forms[64] is stages.form(64)[0]
