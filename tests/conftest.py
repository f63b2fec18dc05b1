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
from selfsim.groupoids import (BehavioralModel, ExplicitGroupoid,
                               cyclic_group_table, from_group_action,
                               group_bundle)
from selfsim.semigroup import is_zero, length_cocycle

FIXTURES = ("entrance_free_loop", "four_loop_z2", "not_exel_pardo",
            "twisted_three_spoke", "two_edges")
EXPLICIT_FIXTURES = ("entrance_free_loop", "four_loop_z2",
                     "twisted_three_spoke")

# A bundle document with a cyclic fibre and a table fibre, for the tests
# of the bundle reader: system_to_json writes every groupoid as an
# explicit table, so no bundled system reaches it.
TWO_FIBRE_BUNDLE = {
    "name": "two_fibre_bundle",
    "graph": {"vertices": ["v", "w"],
              "edges": [{"name": "e", "src": "v", "rng": "v"},
                        {"name": "f", "src": "w", "rng": "v"},
                        {"name": "k", "src": "w", "rng": "w"}]},
    "groupoid": {"kind": "bundle", "fibers": {
        "v": {"cyclic": 2, "prefix": "c"},
        "w": {"elements": ["1", "t"], "unit": "1",
              "mul": [["1", "1", "1"], ["1", "t", "t"], ["t", "1", "t"],
                      ["t", "t", "1"]]}}},
    "action": {
        "edge_action": [["c0", "e", "e"], ["c0", "f", "f"], ["c1", "e", "e"],
                        ["c1", "f", "f"], ["1", "k", "k"], ["t", "k", "k"]],
        "restriction": [["c0", "e", "c0"], ["c0", "f", "1"], ["c1", "e", "c1"],
                        ["c1", "f", "t"], ["1", "k", "1"], ["t", "k", "t"]]},
}


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


def strongly_fixes(action, g, p):
    """The literal definition: g·p = p with unit restriction g|_p."""
    return (action.act_path(g, p) == p
            and action.groupoid.is_unit(action.restrict_path(g, p)))


def in_S0(s):
    """Degree zero: a nonzero triple whose legs have equal length."""
    return not is_zero(s) and length_cocycle(s) == 0


def is_idempotent(action, s):
    """Zero, or a triple (alpha, unit, alpha)."""
    if is_zero(s):
        return True
    return s.alpha == s.beta and action.groupoid.is_unit(s.g)


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


def transformation_action(k=2, m=4, d=2):
    """Z_m rotating k vertices u0..u{k-1} (k and d divide m): edges
    t{v}_{i} run from u{v+1} to u{v}; gamma@u{v} sends t{v}_{i} to
    t{v+gamma}_{i+gamma} and restricts to (3·gamma)@u{v+1}.  Both maps
    are homomorphisms in gamma, so the laws hold."""
    vs = ["u%d" % v for v in range(k)]
    group = ["z%d" % a for a in range(m)]
    gmul = {(group[a], group[b]): group[(a + b) % m]
            for a in range(m) for b in range(m)}
    vact = {(group[a], vs[v]): vs[(v + a) % k]
            for a in range(m) for v in range(k)}
    gpd = from_group_action(group, gmul, group[0], vs, vact)
    graph = DirectedGraph(vs, [("t%d_%d" % (v, i), vs[(v + 1) % k], vs[v])
                               for v in range(k) for i in range(d)])
    edge_action, restriction = {}, {}
    for a in range(m):
        for v in range(k):
            g = "%s@%s" % (group[a], vs[v])
            for i in range(d):
                e = "t%d_%d" % (v, i)
                edge_action[(g, e)] = "t%d_%d" % ((v + a) % k, (i + a) % d)
                restriction[(g, e)] = "%s@%s" % (group[3 * a % m],
                                                  vs[(v + 1) % k])
    return SelfSimilarAction(graph, gpd, edge_action, restriction)


def single_entry_corruptions(action):
    """Every copy of an action with one entry of its mul, inv,
    edge_action or restriction table changed to another value (every
    element or edge name, and one unknown name) or deleted, plus copies
    with one extra entry on a pair outside the table's domain, plus every
    swap of the images of two edges under one element.  A behavioral
    model has no mul or inv table, so only its action tables are changed.
    Yields (table, key, value, action); value None means deleted."""
    gpd, graph = action.groupoid, action.graph
    els, edges = gpd.elements(), [e.name for e in graph.edges]
    tables, extra = {}, {}
    if gpd.kind == "explicit":
        tables = {"mul": gpd._mul, "inv": gpd._inv}
        extra = {"mul": [("zz", "zz")] + [
                     (a, b) for a in els for b in els
                     if gpd.src(a) != gpd.rng(b)][:1],
                 "inv": ["zz"]}
    tables.update(edge_action=action.edge_action,
                  restriction=action.restriction)
    extra.update(edge_action=[("zz", edges[0])] if edges else [],
                 restriction=[(els[0], "zz")])
    for (name, table) in tables.items():
        values = edges if name == "edge_action" else els
        for key in sorted(table):
            for value in list(values) + ["zz", None]:
                if value != table[key]:
                    yield name, key, value, _with_entry(action, name, key, value)
        for key in extra[name]:
            yield name, key, els[0], _with_entry(action, name, key, els[0])
    # A single changed image breaks the bijection, which an earlier stage
    # reports; swapping two images keeps it, so the (hg)·e law is reached.
    for g in els:
        dom = [e.name for e in graph.received_by(gpd.src(g))]
        for (e, f) in itertools.combinations(dom, 2):
            swapped = _with_entry(action, "edge_action", (g, e),
                                  action.edge_action[(g, f)])
            swapped.edge_action[(g, f)] = action.edge_action[(g, e)]
            yield "edge_action", (g, e, f), "swap", swapped


def _with_entry(action, name, key, value):
    gpd = action.groupoid
    tables = {"edge_action": dict(action.edge_action),
              "restriction": dict(action.restriction)}
    if name in ("mul", "inv"):
        tables.update(mul=dict(gpd._mul), inv=dict(gpd._inv))
    if value is None:
        del tables[name][key]
    else:
        tables[name][key] = value
    if name in ("mul", "inv"):
        gpd = ExplicitGroupoid(gpd.vertices,
                               [gpd._elements[g] for g in gpd.elements()],
                               gpd.units, tables["mul"], tables["inv"])
    return SelfSimilarAction(action.graph, gpd, tables["edge_action"],
                             tables["restriction"])


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


# -- literal validators ------------------------------------------------------
#
# The validators as they were before the laws were checked on generators:
# every table entry, every triple (a, b, c) and every (h, g, e).  Any
# validate() must return exactly their problem lists.


def oracle_groupoid_validate(gpd):
    """ExplicitGroupoid.validate, scanning every pair and triple; a
    behavioral model's own validate."""
    if gpd.kind != "explicit":
        return gpd.validate()
    problems = []
    vset = set(gpd.vertices)
    for el in gpd._elements.values():
        if el.src not in vset:
            problems.append("element %r has unknown src %r" % (el.name, el.src))
        if el.rng not in vset:
            problems.append("element %r has unknown rng %r" % (el.name, el.rng))
    for v in gpd.vertices:
        u = gpd.units.get(v)
        if u is None:
            problems.append("no unit at vertex %r" % v)
            continue
        if u not in gpd._elements:
            problems.append("unit %r at %r is not an element" % (u, v))
            continue
        if gpd.src(u) != v or gpd.rng(u) != v:
            problems.append("unit %r at %r has src/rng elsewhere" % (u, v))
    if problems:
        return problems
    els = gpd.elements()
    # mul defined exactly on composable pairs, with the right src/rng
    for a in els:
        for b in els:
            composable = gpd.src(a) == gpd.rng(b)
            present = (a, b) in gpd._mul
            if composable and not present:
                problems.append("missing product (%r, %r)" % (a, b))
            elif not composable and present:
                problems.append("product (%r, %r) should not exist" % (a, b))
            elif present:
                ab = gpd._mul[(a, b)]
                if ab not in gpd._elements:
                    problems.append("product (%r, %r) = %r unknown" % (a, b, ab))
                elif gpd.src(ab) != gpd.src(b) or gpd.rng(ab) != gpd.rng(a):
                    problems.append("product (%r, %r) has wrong endpoints" % (a, b))
    if problems:
        return problems
    for g in els:
        u_r, u_s = gpd.unit_at(gpd.rng(g)), gpd.unit_at(gpd.src(g))
        if gpd._mul[(u_r, g)] != g or gpd._mul[(g, u_s)] != g:
            problems.append("units do not act as identities on %r" % g)
        gi = gpd._inv.get(g)
        if gi is None or gi not in gpd._elements:
            problems.append("missing or unknown inverse for %r" % g)
        elif (gpd.src(gi) != gpd.rng(g) or gpd.rng(gi) != gpd.src(g)
              or gpd._mul[(gi, g)] != u_s or gpd._mul[(g, gi)] != u_r):
            problems.append("inverse of %r is wrong" % g)
    for a in els:
        for b in els:
            if gpd.src(a) != gpd.rng(b):
                continue
            ab = gpd._mul[(a, b)]
            for c in els:
                if gpd.src(b) != gpd.rng(c):
                    continue
                if gpd._mul[(ab, c)] != gpd._mul[(a, gpd._mul[(b, c)])]:
                    problems.append(
                        "associativity fails on (%r, %r, %r)" % (a, b, c))
    return problems


def oracle_action_validate(action):
    """SelfSimilarAction.validate, checking the product laws at every
    composable (h, g, e), over oracle_groupoid_validate."""
    problems = []
    problems += ["graph: " + m for m in action.graph.validate()]
    problems += ["groupoid: " + m for m in oracle_groupoid_validate(action.groupoid)]
    gpd, graph = action.groupoid, action.graph
    if set(gpd.vertices) != set(graph.vertices):
        problems.append("groupoid vertex set differs from the graph's")
    if problems:
        return problems

    composable = set()
    for g in gpd.elements():
        for e in graph.received_by(gpd.src(g)):
            composable.add((g, e.name))
    for key in action.edge_action:
        if key not in composable:
            problems.append("edge action on non-composable pair %r" % (key,))
    for key in action.restriction:
        if key not in composable:
            problems.append("restriction on non-composable pair %r" % (key,))
    for key in sorted(composable):
        if key not in action.edge_action:
            problems.append("missing edge action for %r" % (key,))
        if key not in action.restriction:
            problems.append("missing restriction for %r" % (key,))
    if problems:
        return problems

    for g in gpd.elements():
        dom = graph.received_by(gpd.src(g))
        cod = {e.name for e in graph.received_by(gpd.rng(g))}
        seen = set()
        for e in dom:
            img = action.edge_action[(g, e.name)]
            if img not in cod:
                problems.append(
                    "(%r)·%r = %r is not received by rng(%r)" % (g, e.name, img, g))
            if img in seen:
                problems.append("edge action of %r is not injective" % (g,))
            seen.add(img)
            r = action.restriction[(g, e.name)]
            if not gpd.has_element(r):
                problems.append("restriction (%r)|_%r = %r unknown" % (g, e.name, r))
                continue
            if gpd.src(r) != e.src:
                problems.append(
                    "src((%r)|_%r) should be src(%r)" % (g, e.name, e.name))
            if img in cod and gpd.rng(r) != graph.edge(img).src:
                problems.append(
                    "rng((%r)|_%r) should be src of the image edge" % (g, e.name))
        if len(seen) != len(dom) or len(dom) != len(cod):
            problems.append("edge action of %r is not a bijection" % (g,))
    if problems:
        return problems

    for v in graph.vertices:
        u = gpd.unit_at(v)
        for e in graph.received_by(v):
            if action.edge_action[(u, e.name)] != e.name:
                problems.append("unit at %r moves edge %r" % (v, e.name))
            r = action.restriction[(u, e.name)]
            if r != gpd.unit_at(e.src):
                problems.append("unit at %r restricts to non-unit on %r" % (v, e.name))

    if gpd.kind == "explicit" and not problems:
        for h in gpd.elements():
            for g in gpd.elements():
                if gpd.src(h) != gpd.rng(g):
                    continue
                hg = gpd.mul(h, g)
                for e in graph.received_by(gpd.src(g)):
                    ge = action.edge_action[(g, e.name)]
                    if action.edge_action[(hg, e.name)] != action.edge_action[(h, ge)]:
                        problems.append(
                            "(hg)·e law fails at (%r, %r, %r)" % (h, g, e.name))
                    lhs = action.restriction[(hg, e.name)]
                    rhs = gpd.mul(action.restriction[(h, ge)],
                                  action.restriction[(g, e.name)])
                    if lhs != rhs:
                        problems.append(
                            "(hg)|_e law fails at (%r, %r, %r)" % (h, g, e.name))
    return problems
