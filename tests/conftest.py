"""Fixtures shared by the test modules."""

from __future__ import annotations

import pytest

from gmk import oracle


@pytest.fixture
def lane_widths(monkeypatch):
    """The lane width of every ``max_plus_masks`` call from here on, None for the list passes."""
    widths = []
    real = oracle._max_plus

    def spy(*args):
        widths.append(args[-1])
        return real(*args)

    monkeypatch.setattr(oracle, "_max_plus", spy)
    return widths
