"""Run-length representation: round trips, values, cut losses."""

from __future__ import annotations

import random

import pytest

from gmk.core import MODULAR, coupling_terms, evaluate_objective
from gmk.cutting import CutPointSet, cut_points
from gmk.errors import UnsupportedVariantError
from gmk.generators import GenParams, gen_random
from gmk.intervals import (
    IntervalElement,
    cut_element,
    cut_loss,
    element_value,
    to_intervals,
)

from util import build_instance, dense_table, single_bin_stage


def random_sets(rng, items, horizon):
    return [frozenset(i for i in items if rng.random() < 0.5) for _ in range(horizon)]


def is_maximal_runs(elements):
    """True when the sorted intervals of each item are disjoint and non-adjacent."""
    return all(
        a.item != b.item or b.start > a.end + 1 for a, b in zip(elements, elements[1:])
    )


def test_to_intervals_examples():
    assert to_intervals([{"i"}, {"i"}, {"i"}]) == (IntervalElement("i", 1, 3),)
    assert to_intervals([{"i"}, set(), {"i"}]) == (
        IntervalElement("i", 1, 1),
        IntervalElement("i", 3, 3),
    )
    assert to_intervals([set(), set()]) == ()


def test_round_trip_both_directions():
    rng = random.Random(7)
    items = [f"i{k}" for k in range(5)]
    for _ in range(1000):
        sets = random_sets(rng, items, 6)
        iv = to_intervals(sets)
        assert list(iv) == sorted(iv) and is_maximal_runs(iv)
        # rebuild each stage's set from the runs covering it
        assert [frozenset(e.item for e in iv if e.start <= t <= e.end) for t in range(1, 7)] == sets


def test_element_value_formula():
    items = ["i"]
    stages = [single_bin_stage(items, {"i": 1}, 1, {"i": 5}) for _ in range(3)]
    inst = build_instance(
        items,
        stages,
        gain_plus=dense_table(items, 2, 3, default=1),
        cost_plus=dense_table(items, 1, 3, **{"i:1": 2}),
        cost_minus=dense_table(items, 1, 3, **{"i:3": 2}),
    )
    assert element_value(inst, IntervalElement("i", 1, 3)) == 15 + 2 - 4


def test_element_value_single_stage():
    items = ["i"]
    inst = build_instance(
        items,
        [single_bin_stage(items, {"i": 1}, 1, {"i": 5}) for _ in range(2)],
        cost_plus=dense_table(items, 1, 2, default=3),
        cost_minus=dense_table(items, 1, 2, default=2),
    )
    assert element_value(inst, IntervalElement("i", 2, 2)) == 5 - 3 - 2


def test_element_value_requires_modular():
    inst = gen_random(GenParams(items=2, horizon=2, variant="submodular"), 1)
    with pytest.raises(UnsupportedVariantError):
        element_value(inst, IntervalElement("i01", 1, 1))


def test_objective_decomposition_identity():
    """f equals the sum of run values plus the leftover g- mass."""
    rng = random.Random(13)
    for seed in range(40):
        inst = gen_random(GenParams(items=3, horizon=4, cost_range=(0, 4)), seed)
        for _ in range(25):
            sets = random_sets(rng, inst.items, 4)
            iv = to_intervals(sets)
            total = sum(element_value(inst, e) for e in iv)
            for t in range(2, 5):
                for i in inst.items:
                    if i not in sets[t - 2] and i not in sets[t - 1]:
                        total += inst.gain_minus[i, t]
            assert total == evaluate_objective(inst, sets)


def test_cut_element_examples():
    cuts = CutPointSet((1, 4, 7, 10))
    pieces = cut_element(IntervalElement("i", 1, 9), cuts)
    assert pieces == (
        IntervalElement("i", 1, 3),
        IntervalElement("i", 4, 6),
        IntervalElement("i", 7, 9),
    )
    inside = cut_element(IntervalElement("i", 4, 6), CutPointSet((1, 4, 10)))
    assert inside == (IntervalElement("i", 4, 6),)


def test_cut_pieces_tile_exactly():
    rng = random.Random(17)
    for _ in range(500):
        horizon = rng.randint(2, 14)
        t1 = rng.randint(1, horizon)
        t2 = rng.randint(t1, horizon)
        interior = sorted(rng.sample(range(2, horizon + 1), rng.randint(0, min(4, horizon - 1))))
        cuts = CutPointSet(tuple(sorted({1, horizon + 1, *interior})))
        e = IntervalElement("x", t1, t2)
        pieces = cut_element(e, cuts)
        assert pieces[0].start == t1 and pieces[-1].end == t2
        for a, b in zip(pieces, pieces[1:]):
            assert b.start == a.end + 1


def test_cut_loss_examples():
    items = ["i"]
    stages = [single_bin_stage(items, {"i": 1}, 1, {"i": 0}) for _ in range(4)]
    inst = build_instance(
        items,
        stages,
        gain_plus=dense_table(items, 2, 4, **{"i:3": 2}),
        cost_plus=dense_table(items, 1, 4, **{"i:3": 1}),
        cost_minus=dense_table(items, 1, 4, **{"i:2": 1}),
    )
    e = IntervalElement("i", 1, 4)
    assert cut_loss(inst, e, CutPointSet((1, 3, 5))) == 2 + 1 + 1
    assert cut_loss(inst, e, CutPointSet((1, 5))) == 0


def test_cut_loss_identity_and_additivity():
    """Value of a run equals piece values plus loss; losses add per point."""
    rng = random.Random(19)
    for seed in range(25):
        horizon = 10
        inst = gen_random(
            GenParams(items=2, horizon=horizon, cost_range=(0, 4), gain_range=(0, 4)), seed
        )
        for _ in range(40):
            item = inst.items[rng.randrange(len(inst.items))]
            t1 = rng.randint(1, horizon)
            t2 = rng.randint(t1, horizon)
            e = IntervalElement(item, t1, t2)
            interior = sorted(
                rng.sample(range(2, horizon + 1), rng.randint(0, 4))
            )
            cuts = CutPointSet(tuple(sorted({1, horizon + 1, *interior})))
            pieces = cut_element(e, cuts)
            loss = cut_loss(inst, e, cuts)
            assert element_value(inst, e) == sum(element_value(inst, p) for p in pieces) + loss
            per_point = sum(
                cut_loss(inst, e, CutPointSet((1, u, horizon + 1)))
                for u in interior
                if t1 < u <= t2
            )
            assert loss == per_point


def test_cut_never_remerges_for_free():
    items = ["i"]
    stages = [single_bin_stage(items, {"i": 1}, 1, {"i": 1}) for _ in range(4)]
    inst = build_instance(
        items,
        stages,
        cost_plus=dense_table(items, 1, 4, default=1),
        cost_minus=dense_table(items, 1, 4, default=1),
    )
    e = IntervalElement("i", 1, 4)
    cuts = CutPointSet((1, 3, 5))
    assert cut_loss(inst, e, cuts) > 0
    pieces = cut_element(e, cuts)
    assert not is_maximal_runs(pieces)


@pytest.mark.parametrize("variant", ["modular", "submodular"])
def test_cut_links_fall_short_of_in_window_links_by_the_seam_terms(variant):
    # a shift's chain of windows, against the same stages as one window: at
    # a cut u, an item absent on both sides misses g-[u], one present on
    # both loses what cutting a run across u alone loses, and one entering
    # or leaving at u pays the same cost either way
    rng = random.Random(12)
    nonzero = 0
    for seed in range(12):
        horizon, mu_inv = rng.randint(5, 14), rng.randint(2, 4)
        inst = gen_random(GenParams(items=3, horizon=horizon, variant=variant), seed)
        # cut_loss reads only the gain and cost tables, zero costs included
        tables = inst._replace(variant=MODULAR)
        for j in range(1, mu_inv + 1):
            cuts = cut_points(horizon, mu_inv, j)
            for i in inst.items:
                whole = coupling_terms(inst, i, ((1, horizon),))
                chain = coupling_terms(inst, i, cuts.windows())
                for u in range(2, horizon + 1):
                    at_cut = u in cuts.interior()
                    seam = cut_loss(tables, IntervalElement(i, u - 1, u), CutPointSet((1, u, horizon + 1)))
                    expected = {(0, 0): inst.gain_minus[i, u], (1, 1): seam} if at_cut else {}
                    for in_cur in (0, 1):
                        for in_prev in (0, 1):
                            diff = whole[u - 1][in_cur][in_prev] - chain[u - 1][in_cur][in_prev]
                            assert diff == expected.get((in_cur, in_prev), 0) >= 0, (seed, j, i, u)
                            nonzero += diff > 0
    assert nonzero >= 100, nonzero
