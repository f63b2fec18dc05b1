"""Paths and boundary points are validated once, where they enter
(DirectedGraph.path and actions.boundary_point), and trusted from then on.

These tests are the safety net for that trust: every path and point the
library builds is rebuilt through the validating constructors and must
come back equal, and every point must equal a literal canonical form (the
shortest prefix before a primitive period), on the fixtures and on the
random actions.
"""

import random

import pytest

from selfsim import semigroup as sg
from selfsim.actions import (BoundaryPoint, act_point, boundary_point,
                             boundary_points_from, edge_at,
                             minimal_strongly_fixed, point_tail)
from selfsim.germs import cycle_expansion, point_prepend
from selfsim.graphs import comparable

from conftest import EXPLICIT_FIXTURES, FIXTURES


def oracle_canonical(x):
    """The least prefix and period spelling the infinite word of x: period
    lengths dividing len(x.period) are tried shortest first, then prefix
    lengths."""
    if x.is_finite():
        return x
    n, k = len(x.prefix), len(x.period)
    w = [edge_at(x, i) for i in range(n + 2 * k)]
    for q in range(1, k + 1):
        if k % q:
            continue
        for m in range(n + 1):
            if all(w[i] == w[i + q] for i in range(m, n + k)):
                return BoundaryPoint(x.base, tuple(w[:m]), tuple(w[m:m + q]))
    raise AssertionError("x is periodic with its own period")


def assert_path(graph, p):
    assert graph.path(p.edges, base=p.base) == p, p


def assert_point(graph, x):
    assert x == boundary_point(graph, x.prefix, x.period, base=x.base), x
    assert x == oracle_canonical(x), x


@pytest.fixture(scope="module")
def all_actions(fix, random_actions):
    return [fix(n).action for n in FIXTURES] + random_actions


@pytest.fixture(scope="module")
def explicit_actions(fix, random_actions):
    return [fix(n).action for n in EXPLICIT_FIXTURES] + random_actions


def test_oracle_canonical_rolls_and_shortens():
    assert oracle_canonical(BoundaryPoint("v", ("e", "f"), ("e", "f"))) == \
        BoundaryPoint("v", (), ("e", "f"))
    assert oracle_canonical(BoundaryPoint("v", ("a", "f"), ("e", "f"))) == \
        BoundaryPoint("v", ("a",), ("f", "e"))
    assert oracle_canonical(BoundaryPoint("v", (), ("e", "e"))) == \
        BoundaryPoint("v", (), ("e",))


def test_path_calculus_returns_valid_paths(all_actions):
    for action in all_actions:
        graph, gpd = action.graph, action.groupoid
        paths = graph.all_paths(2)
        for p in paths:
            assert_path(graph, p)
            for n in range(len(p) + 1):
                assert_path(graph, graph.prefix(p, n))
                assert_path(graph, graph.tail_after(p, n))
            for q in paths:
                if graph.path_src(p) == q.base:
                    assert_path(graph, graph.concat(p, q))
            for g in gpd.elements():
                if gpd.src(g) == p.base:
                    assert_path(graph, action.act_path(g, p))


def test_semigroup_legs_are_valid_paths(explicit_actions):
    rng = random.Random(4)
    for action in explicit_actions:
        graph = action.graph
        elements = sg.elements_up_to(action, 2)
        paths = graph.all_paths(2)
        for s in rng.sample(elements, min(len(elements), 25)):
            for t in elements:
                if not comparable(s.beta, t.alpha):
                    continue
                st = sg.mul(action, s, t)
                assert_path(graph, st.alpha)
                assert_path(graph, st.beta)
            star = sg.star(action, s)
            assert_path(graph, star.alpha)
            assert_path(graph, star.beta)
            for p in paths:
                c = sg.conj_idempotent(action, s, p)
                if not sg.is_zero(c):
                    assert_path(graph, c.alpha)
                    assert_path(graph, c.beta)


def test_minimal_strongly_fixed_paths_are_valid(all_actions):
    for action in all_actions:
        graph, gpd = action.graph, action.groupoid
        for g in gpd.elements():
            res = minimal_strongly_fixed(action, g)
            for p in res.paths:
                assert_path(graph, p)
                assert p.base == gpd.src(g)
            if not res.is_finite():
                w = res.witness
                graph.path(w["access"] + w["cycle"] * 2 + w["exit"],
                           base=gpd.src(g))


def test_points_are_valid_and_canonical(all_actions):
    for action in all_actions:
        graph, gpd = action.graph, action.groupoid
        short = graph.all_paths(2)
        for v in graph.vertices:
            for x in boundary_points_from(graph, v, 3):
                assert_point(graph, x)
                last = len(x.prefix) + (len(x.period) + 1 if x.period else 0)
                for n in range(last + 1):
                    assert_point(graph, point_tail(graph, x, n))
                for p in short:
                    if graph.path_src(p) == x.base:
                        assert_point(graph, point_prepend(graph, p, x))
                for g in gpd.elements():
                    if gpd.src(g) == x.base:
                        assert_point(graph, act_point(action, g, x))
        for g0 in gpd.elements():
            for first in graph.paths_from(gpd.src(g0), 2):
                if first.edges and graph.path_src(first) == gpd.rng(g0):
                    assert_point(graph, cycle_expansion(action, first, g0))
