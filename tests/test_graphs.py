"""Tests for the shared strongly-connected-component pass."""

from __future__ import annotations

from taxgames._graphs import strongly_connected_components

LONG = 200_000


def test_long_path_needs_no_recursion():
    # 0 -> 1 -> ... -> n-1: every vertex is its own component, the last
    # vertex's first
    successors = [[v + 1] for v in range(LONG - 1)] + [[]]
    components = strongly_connected_components(successors)
    assert components == [[v] for v in reversed(range(LONG))]


def test_long_cycle_needs_no_recursion():
    successors = [[(v + 1) % LONG] for v in range(LONG)]
    (component,) = strongly_connected_components(successors)
    assert sorted(component) == list(range(LONG))
