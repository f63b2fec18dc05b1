"""Shared fixtures: bundled systems and a seeded random-action generator.

Random actions are built from one generator per chosen vertex: a
source-preserving edge permutation plus arbitrary restriction picks,
closed under the group law and rejected unless the action laws hold.
"""

import itertools
import random

import pytest

from selfsim import systems
from selfsim.actions import SelfSimilarAction
from selfsim.graphs import DirectedGraph
from selfsim.groupoids import (BehavioralModel, cyclic_group_table,
                               group_bundle)

FIXTURES = ("entrance_free_loop", "four_loop_z2", "not_exel_pardo",
            "twisted_three_spoke", "two_edges")
EXPLICIT_FIXTURES = ("entrance_free_loop", "four_loop_z2",
                     "twisted_three_spoke")


@pytest.fixture(scope="session")
def fix():
    cache = {}

    def get(name):
        if name not in cache:
            cache[name] = systems.load_fixture(name)
        return cache[name]

    return get


def oracle_has_entrance(graph, p):
    """Some vertex the path passes through (the range of each edge, and
    the path's source) receives two or more edges."""
    passed = [graph.edge(n).rng for n in p.edges] + [graph.path_src(p)]
    return any(len(graph.received_by(v)) >= 2 for v in passed)


def random_graph(rng, max_vertices=3, max_edges=4):
    nv = rng.randint(1, max_vertices)
    vertices = ["p", "q", "r"][:nv]
    ne = rng.randint(1, max_edges)
    edges = [("x%d" % k, rng.choice(vertices), rng.choice(vertices))
             for k in range(ne)]
    return DirectedGraph(vertices, edges)


def _source_preserving_permutations(graph, v):
    """Permutations of the edges received by v that keep each edge's source."""
    groups = {}
    for e in graph.received_by(v):
        groups.setdefault(e.src, []).append(e.name)
    pools = [list(itertools.permutations(names)) for names in groups.values()]
    out = []
    for combo in itertools.product(*pools):
        perm = {}
        for (names, image) in zip(groups.values(), combo):
            perm.update(dict(zip(names, image)))
        out.append(perm)
    return out


def random_action(rng, max_vertices=3, max_edges=4, max_group=4):
    """One rejection-sampled explicit self-similar action."""
    while True:
        graph = random_graph(rng, max_vertices, max_edges)
        nv = len(graph.vertices)
        hub = rng.choice(graph.vertices)
        order = rng.randint(1, max(1, max_group - (nv - 1)))
        fibers = {hub: cyclic_group_table(order, prefix="c")}
        gpd = group_bundle(graph.vertices, fibers)

        perms = _source_preserving_permutations(graph, hub)
        perm = dict(rng.choice(perms)) if perms else {}

        edge_action, restriction = {}, {}
        ok = True
        for v in graph.vertices:
            u = gpd.unit_at(v)
            for e in graph.received_by(v):
                edge_action[(u, e.name)] = e.name
                restriction[(u, e.name)] = gpd.unit_at(e.src)
        gen = "c1" if order > 1 else None
        if gen is not None:
            for e in graph.received_by(hub):
                edge_action[(gen, e.name)] = perm.get(e.name, e.name)
                fiber = sorted(gpd.isotropy_at(e.src))
                restriction[(gen, e.name)] = rng.choice(fiber)
            # close under the group law: c^k acts as c applied after c^{k-1}
            for k in range(2, order):
                g, prev = "c%d" % k, "c%d" % (k - 1)
                for e in graph.received_by(hub):
                    mid = edge_action[(prev, e.name)]
                    edge_action[(g, e.name)] = edge_action[(gen, mid)]
                    restriction[(g, e.name)] = gpd.mul(
                        restriction[(gen, mid)], restriction[(prev, e.name)])
            # the closure must wrap around to the unit
            u = gpd.unit_at(hub)
            last = "c%d" % (order - 1)
            for e in graph.received_by(hub):
                mid = edge_action[(last, e.name)]
                if edge_action[(gen, mid)] != e.name:
                    ok = False
                    break
                if gpd.mul(restriction[(gen, mid)],
                           restriction[(last, e.name)]) != gpd.unit_at(e.src):
                    ok = False
                    break
        if not ok:
            continue
        action = SelfSimilarAction(graph, gpd, edge_action, restriction)
        if action.validate():
            continue
        return action


def zn_rotation(n):
    """One vertex, n loops, and Z_n rotating them: c^a·x_i = x_{i+a}, with
    restriction exponent [j == 0] - [i == 0] for j = i + a (mod n)."""
    graph = DirectedGraph(["v"], [("x%d" % i, "v", "v") for i in range(n)])
    gpd = group_bundle(["v"], {"v": cyclic_group_table(n, prefix="c")})
    edge_action, restriction = {}, {}
    for a in range(n):
        for i in range(n):
            j = (i + a) % n
            edge_action[("c%d" % a, "x%d" % i)] = "x%d" % j
            restriction[("c%d" % a, "x%d" % i)] = \
                "c%d" % (((j == 0) - (i == 0)) % n)
    return SelfSimilarAction(graph, gpd, edge_action, restriction)


@pytest.fixture(scope="session")
def random_actions():
    rng = random.Random(20260814)
    return [random_action(rng) for _ in range(50)]


def random_behavioral_action(rng, max_vertices=3, max_edges=5, extra=4):
    """One rejection-sampled behavioral model: a unit per vertex plus a few
    non-unit states, each acting by an arbitrary bijection with arbitrary
    restrictions.  No product law binds them, so kernels, cycles and
    fixed walks of any shape occur.  unit_reflecting is set, so failure
    witnesses are reported."""
    while True:
        graph = random_graph(rng, max_vertices, max_edges)
        vs = graph.vertices
        states = [("u_" + v, v, v, True) for v in vs]
        for k in range(rng.randint(1, extra)):
            a, b = rng.choice(vs), rng.choice(vs)
            states.append(("s%d" % k, a, b, False))
        by_ends = {}
        for (name, a, b, _) in states:
            by_ends.setdefault((a, b), []).append(name)
        edge_action, restriction, ok = {}, {}, True
        for (name, a, b, is_unit) in states:
            dom = [e.name for e in graph.received_by(a)]
            cod = [e.name for e in graph.received_by(b)]
            if len(dom) != len(cod):
                ok = False
                break
            if not is_unit:
                rng.shuffle(cod)
            for (e, f) in zip(dom, cod):
                edge_action[(name, e)] = f
                ends = (graph.edge(e).src, graph.edge(f).src)
                if is_unit:
                    restriction[(name, e)] = "u_" + ends[0]
                elif ends in by_ends:
                    restriction[(name, e)] = rng.choice(by_ends[ends])
                else:
                    ok = False
        if not ok:
            continue
        gpd = BehavioralModel.from_states(vs, states,
                                          {"unit_reflecting": True})
        action = SelfSimilarAction(graph, gpd, edge_action, restriction)
        if not action.validate():
            return action


@pytest.fixture(scope="session")
def wide_random_actions():
    """Random actions where witnesses often have several candidates to
    choose the least from: explicit ones over larger groups and edge sets,
    then behavioral models."""
    rng = random.Random(7)
    out = [random_action(rng, 3, rng.randint(1, 6), rng.randint(1, 6))
           for _ in range(150)]
    return out + [random_behavioral_action(rng) for _ in range(150)]


@pytest.fixture(scope="session")
def seeded_actions():
    """2,000 more random actions for comparing deciders with their loop
    oracles: 1,000 explicit ones shaped like wide_random_actions, then
    1,000 behavioral models."""
    rng = random.Random(20261019)
    out = [random_action(rng, 3, rng.randint(1, 6), rng.randint(1, 6))
           for _ in range(1000)]
    return out + [random_behavioral_action(rng) for _ in range(1000)]
