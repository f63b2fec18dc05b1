"""Action calculus, boundary points, fixing behavior, kernels, nucleus.

Oracles (written first, frozen) work from the public one-step calculus
only — path enumeration, direct state walks, reverse reachability — and
never call the algorithms under test.
"""

import collections
import itertools
import random

import pytest

from selfsim import actions as act
from selfsim.actions import (BoundaryPoint, FixingAutomaton, SelfSimilarAction,
                             act_point,
                             boundary_point, fixes_point, point_from_json,
                             point_prefix, point_tail, point_to_json,
                             strongly_fixed_prefix)
from selfsim.germs import point_prepend

from selfsim.graphs import DirectedGraph, Path, path_key
from selfsim.groupoids import (BehavioralModel, ExplicitGroupoid, Groupoid,
                               from_group_action, group_bundle)

from conftest import (EXPLICIT_FIXTURES, FIXTURES, oracle_action_validate,
                      oracle_groupoid_validate, single_entry_corruptions,
                      strongly_fixes, transformation_action, zn_rotation)


# -- oracles ----------------------------------------------------------------


def oracle_inverse_restriction_failure(action, bound=3):
    """The first (g, p) with (g|_p)⁻¹ != g⁻¹|_{g·p}, over every path p of
    length <= bound that g can act on; None when the law holds there."""
    graph, gpd = action.graph, action.groupoid
    for g in gpd.elements():
        for p in graph.paths_from(gpd.src(g), bound):
            lhs = gpd.inv(action.restrict_path(g, p))
            rhs = action.restrict_path(gpd.inv(g), action.act_path(g, p))
            if lhs != rhs:
                return (g, p)
    return None


def oracle_unit_reachable(action, g):
    """States (restrictions of g along fixed words) from which some fixed
    word leads to a unit: direct graph search over the one-step calculus."""
    graph, gpd = action.graph, action.groupoid
    nodes, stack, arrows = {g}, [g], []
    while stack:
        h = stack.pop()
        for e in graph.received_by(gpd.src(h)):
            if action.act_edge(h, e.name) == e.name:
                k = action.restrict_edge(h, e.name)
                arrows.append((h, k))
                if k not in nodes:
                    nodes.add(k)
                    stack.append(k)
    rev = {}
    for (a, b) in arrows:
        rev.setdefault(b, set()).add(a)
    good = {h for h in nodes if gpd.is_unit(h)}
    stack = list(good)
    while stack:
        b = stack.pop()
        for a in rev.get(b, ()):
            if a not in good:
                good.add(a)
                stack.append(a)
    return good


def oracle_minimal_fixed(action, g, bound):
    """All minimal strongly fixed paths of length <= bound, by pruned DFS:
    a branch dies when an edge is not fixed, stops when the state turns
    unit, and is cut early when no unit is reachable from the state."""
    graph, gpd = action.graph, action.groupoid
    good = oracle_unit_reachable(action, g)
    out = []

    def walk(h, path):
        if gpd.is_unit(h):
            out.append(path)
            return
        if len(path.edges) >= bound or h not in good:
            return
        for e in graph.received_by(graph.path_src(path)):
            if action.act_edge(h, e.name) == e.name:
                walk(action.restrict_edge(h, e.name),
                     graph.concat(path, graph.path([e.name])))

    walk(g, graph.path((), base=gpd.src(g)))
    return set(out)


def oracle_fixes_all(action, g):
    """Bounded check, exact at depth = #elements + 1 (a deeper breaking
    path would repeat a restriction state, so a shorter one exists)."""
    graph, gpd = action.graph, action.groupoid
    depth = len(gpd.elements()) + 1

    def walk(h, v, d):
        for e in graph.received_by(v):
            if action.act_edge(h, e.name) != e.name:
                return False
            if d > 1 and not walk(action.restrict_edge(h, e.name), e.src,
                                  d - 1):
                return False
        return True

    return walk(g, gpd.src(g), depth)


def oracle_tight_kernel(action):
    """g lies in the tight kernel iff every walk from its source fixes all
    edges and turns unit before depth #elements + 1 (finite walks must end
    unit at a source).  Exactness: membership unfolds level by level from
    the units, and the levels stabilize before #elements steps."""
    gpd = action.groupoid
    depth = len(gpd.elements()) + 1

    def ok(h, v, d):
        if gpd.is_unit(h):
            return True
        if d == 0:
            return False
        outs = action.graph.received_by(v)
        if not outs:
            return False   # a non-unit at a source misses the vertex point
        for e in outs:
            if action.act_edge(h, e.name) != e.name:
                return False
            if not ok(action.restrict_edge(h, e.name), e.src, d - 1):
                return False
        return True

    return {g for g in gpd.elements() if ok(g, gpd.src(g), depth)}


def oracle_tight_kernel_rounds(action):
    """The least fixpoint by rounds: from the units, add every regular-based
    element that moves no edge and whose restrictions all lie in the set,
    until a round adds nothing."""
    gpd, graph, dg = action.groupoid, action.graph, action.digraph
    units = {gpd.unit_at(v) for v in graph.vertices}
    singular_units = {gpd.unit_at(v) for v in graph.sources()}
    regular_fixers = [g for g in gpd.elements()
                      if not graph.is_source(gpd.src(g))
                      and not graph.is_source(gpd.rng(g))
                      and g not in dg.movers]
    k = set(units)
    while True:
        nxt = set(singular_units)
        for g in regular_fixers:
            if all(h in k for (_, h) in dg.arrows[g]):
                nxt.add(g)
        nxt |= k
        if nxt == k:
            return k
        k = nxt


def oracle_nucleus(action):
    """Everything reachable as a restriction along some path of length in
    [#elements + 1, 2·#elements + 1]: deep enough to force a state repeat,
    wide enough to catch every cycle stride."""
    graph, gpd = action.graph, action.groupoid
    n = len(gpd.elements())
    out = set()

    def walk(h, v, d):
        if n + 1 <= d:
            out.add(h)
        if d == 2 * n + 1:
            return
        for e in graph.received_by(v):
            walk(action.restrict_edge(h, e.name), e.src, d + 1)

    for g in gpd.elements():
        walk(g, gpd.src(g), 0)
    return out


def oracle_fixed_arrows(action, h):
    """The arrows h -e-> h|_e with h·e = e, sorted by edge name."""
    graph, gpd = action.graph, action.groupoid
    return [(e.name, action.restrict_edge(h, e.name))
            for e in sorted(graph.received_by(gpd.src(h)), key=lambda e: e.name)
            if action.act_edge(h, e.name) == e.name]


def oracle_least_walk(action, source, goal, within=None, min_len=0):
    """The shortest, then lexicographically least, word of fixed arrows from
    source to a node passing goal, of length >= min_len, with every node
    after the source and before the end in within; (end, word) or
    (None, None).  Dynamic programming over exact lengths: the least word
    of length L into n extends the least word of length L - 1 into some
    predecessor."""
    best = {source: ()}
    for length in range(len(action.groupoid.elements()) + 2):
        if length >= min_len:
            hits = sorted((w, n) for (n, w) in best.items() if goal(n))
            if hits:
                return hits[0][1], hits[0][0]
        nxt = {}
        for (h, word) in best.items():
            if length > 0 and within is not None and h not in within:
                continue
            for (e, n) in oracle_fixed_arrows(action, h):
                if n not in nxt or word + (e,) < nxt[n]:
                    nxt[n] = word + (e,)
        best = nxt
    return None, None


def oracle_fixed_reach(action, g, avoid=lambda h: False):
    out, stack = set(), [g]
    while stack:
        h = stack.pop()
        if h not in out and not avoid(h):
            out.add(h)
            stack.extend(n for (_, n) in oracle_fixed_arrows(action, h))
    return out


def oracle_pumping_witness(action, g):
    """The witness minimal_strongly_fixed reports for an infinite set: the
    least non-unit h, reached from g through non-units, that lies on such
    a cycle and can reach a unit; then the least cycle, access and exit
    words.  None when the set is finite."""
    is_unit = action.groupoid.is_unit
    if is_unit(g):
        return None
    region = oracle_fixed_reach(action, g, avoid=is_unit)
    good = oracle_unit_reachable(action, g)
    for h in sorted(region & good):
        _, cycle = oracle_least_walk(action, h, lambda n: n == h, region, 1)
        if cycle is None:
            continue
        _, access = oracle_least_walk(action, g, lambda n: n == h, region)
        _, exit_ = oracle_least_walk(action, h, is_unit)
        return {"element": g, "access": list(access), "cycle": list(cycle),
                "exit": list(exit_)}
    return None


def oracle_sla_witness(action):
    """The Sla witness: the least kernel element g with a cycle node c below
    it that reaches a non-unit, the least such c, and the least words."""
    is_unit = action.groupoid.is_unit
    cyclic = oracle_cycle_nodes(action)
    for g in action.groupoid.elements():
        if not oracle_fixes_all(action, g):
            continue
        for c in sorted(oracle_fixed_reach(action, g) & cyclic):
            node, word = oracle_least_walk(action, c, lambda n: not is_unit(n))
            if node is None:
                continue
            _, access = oracle_least_walk(action, g, lambda n: n == c)
            _, cycle = oracle_least_walk(action, c, lambda n: n == c, None, 1)
            return {"op": "restriction_digraph", "element": g,
                    "access": list(access), "cycle": list(cycle),
                    "to_nonunit": list(word), "nonunit": node}
    return None


def oracle_cycle_nodes(action):
    """Nodes g with a non-empty restriction walk back to g, by one search
    per node over the one-step calculus."""
    graph, gpd = action.graph, action.groupoid

    def step(h):
        return [action.restrict_edge(h, e.name)
                for e in graph.received_by(gpd.src(h))]

    out = set()
    for g in gpd.elements():
        seen, stack = set(), step(g)
        while stack:
            h = stack.pop()
            if h == g:
                out.add(g)
                break
            if h not in seen:
                seen.add(h)
                stack.extend(step(h))
    return out


# -- path calculus laws -----------------------------------------------------


@pytest.mark.parametrize("name", FIXTURES)
def test_action_laws_on_paths(fix, name):
    action = fix(name).action
    graph, gpd = action.graph, action.groupoid
    for g in gpd.elements():
        for p in graph.paths_from(gpd.src(g), 3):
            q = action.act_path(g, p)
            r = action.restrict_path(g, p)
            assert len(q.edges) == len(p.edges)
            assert q.base == gpd.rng(g)
            assert gpd.src(r) == graph.path_src(p)
            assert gpd.rng(r) == graph.path_src(q)
            # unit acts trivially with unit restrictions
            u = gpd.unit_at(p.base)
            assert action.act_path(u, p) == p
            assert gpd.is_unit(action.restrict_path(u, p))
            # prefix compatibility: acting on a prefix is a prefix
            for n in range(len(p.edges) + 1):
                assert action.act_path(g, graph.prefix(p, n)) == \
                    graph.prefix(q, n)


@pytest.mark.parametrize("name", EXPLICIT_FIXTURES)
def test_restriction_inverse_law(fix, name):
    assert oracle_inverse_restriction_failure(fix(name).action) is None


def test_validated_actions_satisfy_the_inverse_restriction_law(random_actions):
    for action in random_actions + [zn_rotation(n) for n in range(3, 7)]:
        assert action.validate() == []
        assert oracle_inverse_restriction_failure(action) is None


def _corrupt_tables(rng, action):
    """A copy of action with 1-3 table entries changed.  An edge-action
    change swaps the images of two edges whose images share a source, so
    each element still acts as a bijection; a restriction change keeps
    the entry's source and range.  Only the action laws can catch it."""
    graph, gpd = action.graph, action.groupoid
    edge_action, restriction = dict(action.edge_action), dict(action.restriction)
    movers = [g for g in gpd.elements() if graph.received_by(gpd.src(g))]
    for _ in range(rng.randint(1, 3)):
        g = rng.choice(movers)
        dom = [e.name for e in graph.received_by(gpd.src(g))]
        if rng.random() < 0.5:
            swaps = [(a, b) for (a, b) in itertools.combinations(dom, 2)
                     if graph.edge(edge_action[(g, a)]).src
                     == graph.edge(edge_action[(g, b)]).src]
            if swaps:
                a, b = rng.choice(swaps)
                edge_action[(g, a)], edge_action[(g, b)] = \
                    edge_action[(g, b)], edge_action[(g, a)]
        else:
            e = rng.choice(dom)
            r = restriction[(g, e)]
            restriction[(g, e)] = rng.choice(
                [h for h in gpd.elements()
                 if gpd.src(h) == gpd.src(r) and gpd.rng(h) == gpd.rng(r)])
    return SelfSimilarAction(graph, gpd, edge_action, restriction)


def test_validate_catches_every_inverse_restriction_failure(fix, random_actions):
    """validate() checks no paths; the edge-level laws it does check must
    still reject every corrupted table that breaks the law on paths."""
    rng = random.Random(20261018)
    bases = (random_actions + [fix(n).action for n in EXPLICIT_FIXTURES]
             + [zn_rotation(n) for n in range(3, 6)])
    broken = 0
    for base in bases:
        for _ in range(12):
            action = _corrupt_tables(rng, base)
            if oracle_inverse_restriction_failure(action) is not None:
                broken += 1
                assert action.validate() != []
    assert broken >= 50


def test_validate_enumerates_no_paths(monkeypatch):
    def refuse(self, v, max_len):
        raise AssertionError("validate enumerated paths")

    monkeypatch.setattr(DirectedGraph, "paths_from", refuse)
    assert zn_rotation(8).validate() == []


@pytest.mark.parametrize("name", EXPLICIT_FIXTURES)
def test_composition_law_on_paths(fix, name):
    action = fix(name).action
    graph, gpd = action.graph, action.groupoid
    for g in gpd.elements():
        for h in gpd.elements():
            if gpd.src(g) != gpd.rng(h):
                continue
            gh = gpd.mul(g, h)
            for p in graph.paths_from(gpd.src(h), 3):
                assert action.act_path(gh, p) == \
                    action.act_path(g, action.act_path(h, p))
                assert action.restrict_path(gh, p) == gpd.mul(
                    action.restrict_path(g, action.act_path(h, p)),
                    action.restrict_path(h, p))


# -- boundary points --------------------------------------------------------


def test_boundary_point_canonical_forms(fix):
    graph = fix("four_loop_z2").action.graph
    x = boundary_point(graph, ["a"], ["e", "f"])
    # rotating the periodic part while growing the prefix gives the same point
    assert x == boundary_point(graph, ["a", "e"], ["f", "e"])
    assert x == boundary_point(graph, ["a", "e", "f"], ["e", "f"])
    # periods reduce to their primitive word
    assert boundary_point(graph, [], ["e", "e"]) == \
        boundary_point(graph, [], ["e"])
    # prefix tails matching the period tail get absorbed
    assert boundary_point(graph, ["e"], ["e"]) == \
        boundary_point(graph, [], ["e"])
    assert boundary_point(graph, ["a", "b"], []).is_finite()


def test_point_prefix_tail_and_json_roundtrip(fix):
    graph = fix("four_loop_z2").action.graph
    x = boundary_point(graph, ["a", "b"], ["e", "f"])
    for n in range(6):
        p = point_prefix(x, n)
        t = point_tail(graph, x, n)
        assert len(p.edges) == n
        # gluing the prefix back on returns the same point
        assert point_prepend(graph, p, t) == x
    assert point_from_json(graph, point_to_json(x)) == x


@pytest.mark.parametrize("name", EXPLICIT_FIXTURES)
def test_act_point_is_an_action(fix, name):
    action = fix(name).action
    graph, gpd = action.graph, action.groupoid
    points = [x for v in graph.vertices
              for x in act.boundary_points_from(graph, v, 3)]
    for x in points:
        u = gpd.unit_at(x.base)
        assert act_point(action, u, x) == x
        for g in gpd.elements():
            if gpd.src(g) != x.base:
                continue
            y = act_point(action, g, x)
            assert act_point(action, gpd.inv(g), y) == x
            for h in gpd.elements():
                if gpd.src(h) != gpd.rng(g):
                    continue
                assert act_point(action, gpd.mul(h, g), x) == \
                    act_point(action, h, y)


def _swap_of_two_sources():
    """Two source vertices (no edges) swapped by a transformation groupoid
    of Z2: the element 1@v moves the vertex point v."""
    graph = DirectedGraph(["v", "w"], [])
    gpd = from_group_action(["0", "1"], {(a, b): str((int(a) + int(b)) % 2)
                                         for a in "01" for b in "01"},
                            "0", ["v", "w"], {("0", "v"): "v", ("0", "w"): "w",
                                              ("1", "v"): "w", ("1", "w"): "v"})
    return SelfSimilarAction(graph, gpd, {}, {})


def test_fixes_point_matches_act_point(fix, random_actions):
    """fixes_point walks x without building g·x; the oracle builds and
    compares the canonical points."""
    actions = [fix(n).action for n in FIXTURES] + random_actions \
        + [_swap_of_two_sources()]
    seen = set()
    for action in actions:
        graph, gpd = action.graph, action.groupoid
        for v in graph.vertices:
            for x in act.boundary_points_from(graph, v, 3):
                for g in gpd.elements():
                    if gpd.src(g) != x.base:
                        continue
                    expect = act_point(action, g, x) == x
                    assert fixes_point(action, g, x) == expect, (g, x)
                    kind = ("infinite" if x.period else
                            "finite" if x.prefix else "vertex")
                    seen.add((kind, expect))
    assert seen >= {(kind, b) for kind in ("vertex", "infinite")
                    for b in (True, False)} | {("finite", True)}


def oracle_act_point(action, g, x):
    """g·x by its own pigeonhole loop: a position per (element, phase)
    pair, and the image's period starts where the repeated pair was first
    seen."""
    graph, gpd = action.graph, action.groupoid
    if x.is_finite():
        p = action.act_path(g, act.finite_path(x))
        return BoundaryPoint(p.base, p.edges, ())
    out, seen, h, i = [], {}, g, 0
    while True:
        key = (h, act.point_phase(x, i))
        if key in seen:
            j = seen[key]
            return act.canonical_point(gpd.rng(g), tuple(out[:j]),
                                       tuple(out[j:i]))
        seen[key] = i
        e = act.edge_at(x, i)
        out.append(action.act_edge(h, e))
        h = action.restrict_edge(h, e)
        i += 1


def test_act_point_matches_the_loop_oracle(fix, random_actions,
                                           wide_random_actions):
    """Every element at every point of total length <= 3, and <= 2 on the
    behavioral models of wide_random_actions, whose points at length 3
    number about 50,000."""
    pool = [(fix(n).action, 3) for n in FIXTURES]
    pool += [(zn_rotation(n), 3) for n in (3, 4, 5, 6)]
    pool += [(a, 3) for a in random_actions]
    pool += [(a, 2 if a.groupoid.kind == "behavioral" else 3)
             for a in wide_random_actions]
    seen = collections.Counter()
    for (action, bound) in pool:
        graph, gpd = action.graph, action.groupoid
        for v in graph.vertices:
            for x in act.boundary_points_from(graph, v, bound):
                for g in gpd.elements():
                    if gpd.src(g) != x.base:
                        continue
                    y = act_point(action, g, x)
                    assert y == oracle_act_point(action, g, x), (g, str(x))
                    seen[(x.is_finite(), y == x)] += 1
    assert min(seen.values()) >= 10 and len(seen) == 4, seen


@pytest.mark.parametrize("name", FIXTURES)
def test_strongly_fixed_prefix_matches_direct_walk(fix, name):
    action = fix(name).action
    graph, gpd = action.graph, action.groupoid
    bound = 3 * len(gpd.elements()) + 4
    for v in graph.vertices:
        for x in act.boundary_points_from(graph, v, 3):
            for g in gpd.elements():
                if gpd.src(g) != x.base:
                    continue
                got = strongly_fixed_prefix(action, g, x)
                # direct walk: first n with the n-prefix strongly fixed
                expect = None
                for n in range(bound):
                    if x.is_finite() and n > len(x.prefix):
                        break
                    p = point_prefix(x, n)
                    if strongly_fixes(action, g, p):
                        expect = n
                        break
                assert got == expect, (name, g, str(x))
                if got is not None:
                    assert fixes_point(action, g, x)


# -- minimal strongly fixed paths (the 2a oracle) ---------------------------


def _check_minimal_fixed(action):
    gpd = action.groupoid
    graph = action.graph
    n = len(gpd.elements())
    bound = 2 * n + 2
    for g in gpd.elements():
        res = act.minimal_strongly_fixed(action, g)
        brute = oracle_minimal_fixed(action, g, bound)
        if res.is_finite():
            assert set(res.paths) == brute, (g,)
            assert all(len(p.edges) <= n + 1 for p in res.paths)
        else:
            w = res.witness
            assert w["element"] == g
            access, cycle, exit_ = w["access"], w["cycle"], w["exit"]
            assert cycle, "an infinite family needs a pumpable cycle"
            for k in range(4):
                edges = access + cycle * k + exit_
                p = graph.path(edges, base=gpd.src(g) if not edges else None)
                assert strongly_fixes(action, g, p)
                for m in range(len(p.edges)):
                    assert not strongly_fixes(action, g, graph.prefix(p, m))
                if len(edges) <= bound:
                    assert p in brute


@pytest.mark.parametrize("name", FIXTURES)
def test_minimal_strongly_fixed_on_fixtures(fix, name):
    _check_minimal_fixed(fix(name).action)


def test_minimal_strongly_fixed_on_random_actions(random_actions):
    for action in random_actions:
        _check_minimal_fixed(action)


def test_minimal_strongly_fixed_witness_is_the_least(fix, random_actions,
                                                     wide_random_actions):
    pool = [fix(name).action for name in FIXTURES] + list(random_actions)
    pool += list(wide_random_actions) + [zn_rotation(n) for n in (3, 4, 5)]
    infinite = 0
    for action in pool:
        for g in action.groupoid.elements():
            res = act.minimal_strongly_fixed(action, g)
            assert res.witness == oracle_pumping_witness(action, g), g
            infinite += not res.is_finite()
    assert infinite >= 10


def test_minimal_fixed_result_shape_on_four_loop(fix):
    action = fix("four_loop_z2").action
    res = act.minimal_strongly_fixed(action, "1")
    assert not res.is_finite()
    w = res.witness
    assert (w["access"], w["cycle"], w["exit"]) == ([], ["e"], ["f"])
    res0 = act.minimal_strongly_fixed(action, "0")
    assert res0.is_finite()
    assert [str(p) for p in res0.paths] == ["v"]


def oracle_shortest_walk(succ, sources, goal_test, within=None):
    """The breadth-first search with a bound: when within is given,
    intermediate nodes must stay inside it (goal nodes are exempt)."""
    queue = collections.deque((s, ()) for s in sorted(set(sources)))
    seen = set(sources)
    while queue:
        h, word = queue.popleft()
        if goal_test(h):
            return h, word
        for (e, n) in succ[h]:
            if within is not None and n not in within and not goal_test(n):
                continue
            if n not in seen:
                seen.add(n)
                queue.append((n, word + (e,)))
    return None, None


def oracle_cycle_word(succ, c, within=None):
    best = None
    for (e, n) in succ[c]:
        if within is not None and n not in within:
            continue
        if n == c:
            return (e,)
        _, back = oracle_shortest_walk(succ, [n], lambda m: m == c, within)
        if back is not None and (best is None
                                 or (len(back) + 1, (e,) + back) < (len(best), best)):
            best = (e,) + back
    return best


def oracle_minimal_strongly_fixed(action, g):
    """minimal_strongly_fixed by its own pump search: the least cyclic
    live node of the region with a cycle inside the region, the walks to
    and around it kept inside the region.  Unlike the oracles above it
    reads the restriction digraph, as the search it replaced did."""
    gpd = action.groupoid
    if gpd.is_unit(g):
        return act.MinimalFixedResult("finite", (Path(gpd.src(g)),))
    dg = action.digraph
    succ, good = dg.fixed, dg.can_reach_unit
    region = dg.reach([g], avoid=dg.units)
    for h in sorted(region & good & dg.cyclic):
        cycle_word = oracle_cycle_word(succ, h, within=region)
        if cycle_word is None:
            continue
        _, access = oracle_shortest_walk(succ, [g], lambda n: n == h,
                                         within=region)
        _, exit_word = oracle_shortest_walk(succ, [h], gpd.is_unit)
        return act.MinimalFixedResult("infinite", (), {
            "element": g,
            "access": list(access),
            "cycle": list(cycle_word),
            "exit": list(exit_word),
        })
    out, stack = [], [(g, ())]
    while stack:
        h, word = stack.pop()
        for (e, n) in succ[h]:
            if gpd.is_unit(n):
                out.append(Path(gpd.src(g), word + (e,)))
            elif n in region and n in good:
                stack.append((n, word + (e,)))
    return act.MinimalFixedResult("finite", tuple(sorted(out, key=path_key)))


def test_minimal_strongly_fixed_matches_the_bounded_search(
        fix, random_actions, wide_random_actions, seeded_actions):
    """On the golden systems, the 50 + 300 pools and the 2,000 seeded
    actions: the same status, paths and witness for every element."""
    from test_golden import GOLDEN
    pool = [(system or fix(name)).action for (name, system) in GOLDEN]
    pool += list(random_actions) + list(wide_random_actions)
    pool += list(seeded_actions)
    infinite = 0
    for action in pool:
        for g in action.groupoid.elements():
            got = act.minimal_strongly_fixed(action, g)
            want = oracle_minimal_strongly_fixed(action, g)
            assert (got.status, got.paths, got.witness) == \
                (want.status, want.paths, want.witness), g
            infinite += not got.is_finite()
    assert infinite >= 100, infinite


def fixed_chain(n, width=1):
    """A model of the Z_2 bundle on a chain b0 <- b1 <- ... <- b_{n-1}, with
    width parallel edges (q_j, then r_j) from b_{j+1} into b_j: h_j fixes
    them and restricts to h_{j+1}, the last one to a unit.  The states are
    the whole bundle, so every flag is set.  With width 2 this is D(n - 1):
    h0 has 2^(n-1) minimal strongly fixed paths."""
    vs = ["b%d" % j for j in range(n)]
    steps = [(c + str(j), j) for j in range(n - 1) for c in "qr"[:width]]
    graph = DirectedGraph(vs, [(e, vs[j + 1], vs[j]) for (e, j) in steps])
    states = [("u%d" % j, v, v, True) for (j, v) in enumerate(vs)]
    states += [("h%d" % j, v, v, False) for (j, v) in enumerate(vs)]
    gpd = BehavioralModel.from_states(
        vs, states, dict.fromkeys(("unit_reflecting", "element_complete",
                                   "orbit_complete"), True))
    edge_action, restriction = {}, {}
    for (e, j) in steps:
        edge_action[("u%d" % j, e)] = edge_action[("h%d" % j, e)] = e
        restriction[("u%d" % j, e)] = "u%d" % (j + 1)
        restriction[("h%d" % j, e)] = "h%d" % (j + 1) if j < n - 2 \
            else "u%d" % (j + 1)
    return SelfSimilarAction(graph, gpd, edge_action, restriction)


def test_minimal_strongly_fixed_walks_a_long_chain_without_recursion():
    n = 1500
    action = fixed_chain(n)
    assert action.validate() == []
    res = act.minimal_strongly_fixed(action, "h0")
    assert res.is_finite()
    assert [p.edges for p in res.paths] == \
        [tuple("q%d" % j for j in range(n - 1))]


# -- fixes_all_paths, kernels, faithfulness ---------------------------------


@pytest.mark.parametrize("name", FIXTURES)
def test_fixes_all_paths_matches_bounded_oracle(fix, name):
    action = fix(name).action
    for g in action.groupoid.elements():
        assert act.fixes_all_paths(action, g) == oracle_fixes_all(action, g)


def test_fixes_all_paths_on_random_actions(random_actions, wide_random_actions):
    deep_kernels = 0
    for action in list(random_actions) + list(wide_random_actions):
        gpd = action.groupoid
        kernel = {g for g in gpd.elements() if oracle_fixes_all(action, g)}
        for g in gpd.elements():
            assert act.fixes_all_paths(action, g) == (g in kernel)
        # kernels where an element fixing its own edges restricts to a mover
        deep_kernels += any(
            g not in kernel and all(action.act_edge(g, e.name) == e.name
                                    for e in action.graph.received_by(gpd.src(g)))
            for g in gpd.elements())
    assert deep_kernels >= 5


@pytest.mark.parametrize("name", FIXTURES)
def test_kernel_and_tight_kernel_match_oracles(fix, name):
    action = fix(name).action
    gpd = action.groupoid
    expected = {g for g in gpd.elements() if oracle_fixes_all(action, g)}
    assert set(act.kernel_elements(action)) == expected
    tight = set(act.tight_kernel_elements(action))
    assert tight == oracle_tight_kernel(action)
    assert tight == oracle_tight_kernel_rounds(action)


def test_kernels_on_random_actions(random_actions, wide_random_actions,
                                   seeded_actions):
    """The tight kernel against both oracles, on the random pools and the
    fixed chains."""
    pool = list(random_actions) + list(wide_random_actions)
    pool += list(seeded_actions)
    pool += [fixed_chain(n, width) for n in (1, 2, 5) for width in (1, 2)]
    bigger = 0
    for action in pool:
        tight = set(act.tight_kernel_elements(action))
        assert tight == oracle_tight_kernel(action)
        assert tight == oracle_tight_kernel_rounds(action)
        bigger += len(tight) > len(action.graph.vertices)
    assert bigger >= 100


def test_faithfulness_flags(fix):
    assert act.faithful(fix("four_loop_z2").action).status == "Holds"
    assert act.faithful(fix("not_exel_pardo").action).status == "Fails"
    assert act.tightly_faithful(fix("two_edges").action).status == "Fails"
    assert act.tightly_faithful(fix("four_loop_z2").action).status == "Holds"


# -- the restriction digraph ------------------------------------------------


def test_digraph_cycle_nodes_match_oracle(fix, random_actions,
                                         wide_random_actions):
    pool = [fix(name).action for name in FIXTURES] + list(random_actions)
    pool += list(wide_random_actions)
    pool += [zn_rotation(n) for n in (3, 4, 5, 6)]
    for action in pool:
        assert action.digraph.cyclic == oracle_cycle_nodes(action)


def test_digraph_cycle_search_handles_a_long_cycle():
    n = 3000
    vs = ["v%d" % i for i in range(n)]
    graph = DirectedGraph(vs, [("e%d" % i, vs[(i + 1) % n], vs[i])
                               for i in range(n)])
    units = {v: "1@" + v for v in vs}
    gpd = ExplicitGroupoid(vs, [(u, v, v) for (v, u) in units.items()], units,
                           {(u, u): u for u in units.values()},
                           {u: u for u in units.values()})
    edge_action = {(gpd.unit_at(v), "e%d" % i): "e%d" % i
                   for (i, v) in enumerate(vs)}
    restriction = {(gpd.unit_at(v), "e%d" % i): gpd.unit_at(vs[(i + 1) % n])
                   for (i, v) in enumerate(vs)}
    action = SelfSimilarAction(graph, gpd, edge_action, restriction)
    assert action.digraph.cyclic == set(gpd.elements())
    assert len(act.nucleus(action)) == n


# -- nucleus ----------------------------------------------------------------


def test_nucleus_matches_deep_restriction_oracle(fix):
    for name in ("four_loop_z2", "entrance_free_loop"):
        action = fix(name).action
        assert set(act.nucleus(action)) == oracle_nucleus(action)


def test_nucleus_on_random_actions(random_actions):
    for action in random_actions:
        if action.graph.sources():
            continue
        assert set(act.nucleus(action)) == oracle_nucleus(action)


def test_nucleus_is_minimal_by_subset_search(fix):
    action = fix("four_loop_z2").action
    nuc = set(act.nucleus(action))
    deep = oracle_nucleus(action)
    # no proper subset absorbs all deep restrictions
    for k in range(len(nuc)):
        for sub in itertools.combinations(sorted(nuc), k):
            assert not deep <= set(sub)


def test_nucleus_refuses_sources_and_behavioral(fix):
    with pytest.raises(act.ActionError):
        act.nucleus(fix("twisted_three_spoke").action)
    from selfsim.groupoids import RequiresExplicitError
    with pytest.raises(RequiresExplicitError):
        act.nucleus(fix("not_exel_pardo").action)


# -- guards of the one-step calculus -----------------------------------------


def unit_spoke_action(vertices=("v", "w")):
    """An edge e from w to v and a loop f at w; the unit groupoid on
    vertices, each unit fixing what it acts on."""
    graph = DirectedGraph(["v", "w"], [("e", "w", "v"), ("f", "w", "w")])
    units = {v: "u" + v for v in vertices}
    gpd = ExplicitGroupoid(vertices, [(u, v, v) for (v, u) in units.items()],
                           units, {(u, u): u for u in units.values()},
                           {u: u for u in units.values()})
    acts = [(g, e) for (g, e) in (("uv", "e"), ("uw", "f")) if g in gpd.elements()]
    return SelfSimilarAction(graph, gpd, {(g, e): e for (g, e) in acts},
                             {(g, e): "uw" for (g, e) in acts})


def test_validate_refuses_a_groupoid_on_other_vertices():
    action = unit_spoke_action(vertices=("v",))
    assert action.validate() == ["groupoid vertex set differs from the graph's"]


@pytest.mark.parametrize("call, message", [
    (lambda a, p, x: a.act_path("uw", p), "'uw' cannot act on path e"),
    (lambda a, p, x: a.restrict_path("uw", p), "'uw' cannot restrict along path e"),
    (lambda a, p, x: act_point(a, "uw", x), "'uw' cannot act on point"),
    (lambda a, p, x: strongly_fixed_prefix(a, "uw", x), "'uw' does not sit at point"),
    (lambda a, p, x: fixes_point(a, "uw", x), "'uw' cannot act on point"),
], ids=["act_path", "restrict_path", "act_point", "strongly_fixed_prefix",
        "fixes_point"])
def test_an_element_elsewhere_cannot_act(call, message):
    """uw sits at w; the path e and the point e·f^∞ have range v.  The
    commands reach the one-edge guards through a restriction table that
    lands at the wrong vertex (test_cli); these are tested here."""
    action = unit_spoke_action()
    assert action.validate() == []
    p = action.graph.path(["e"])
    x = point_from_json(action.graph, {"prefix": ["e"], "period": ["f"]})
    with pytest.raises(act.ActionError, match=message):
        call(action, p, x)


# -- pseudo-freeness ---------------------------------------------------------


@pytest.mark.parametrize("name", FIXTURES)
def test_pseudo_free_witnesses_replay(fix, name):
    action = fix(name).action
    gpd = action.groupoid
    v = act.pseudo_free(action)
    pairs = [(g, e.name) for g in gpd.elements()
             if not gpd.is_unit(g)
             for e in action.graph.received_by(gpd.src(g))
             if action.act_edge(g, e.name) == e.name
             and gpd.is_unit(action.restrict_edge(g, e.name))]
    if pairs:
        assert v.status == "Fails"
        w = v.witness
        assert (w["element"], w["edge"]) in pairs
    else:
        assert v.status in ("Holds", "HoldsOnModel")


def test_pseudo_free_pinned_witness(fix):
    v = act.pseudo_free(fix("four_loop_z2").action)
    assert v.status == "Fails"
    assert v.witness == {"element": "1", "edge": "f"}


# -- fixing automaton --------------------------------------------------------


def test_fixing_automaton_agrees_with_oracle_reachability(fix):
    for name in FIXTURES:
        action = fix(name).action
        for g in action.groupoid.elements():
            aut = FixingAutomaton(action, g)
            assert (action.digraph.can_reach_unit & aut.trans.keys()
                    == oracle_unit_reachable(action, g))


def test_fixing_automaton_is_the_fixed_arrows_below_its_root(
        fix, random_actions, wide_random_actions):
    pool = [fix(name).action for name in FIXTURES] + list(random_actions)
    pool += list(wide_random_actions)
    for action in pool:
        for g in action.groupoid.elements():
            assert FixingAutomaton(action, g).trans == {
                h: tuple(oracle_fixed_arrows(action, h))
                for h in oracle_fixed_reach(action, g)}


def test_fixing_automaton_dot_is_deterministic(fix):
    action = fix("four_loop_z2").action
    aut = FixingAutomaton(action, "1")
    assert aut.to_dot() == aut.to_dot()


# -- the product laws on generators -------------------------------------------


def _law_pool(random_actions):
    return ([zn_rotation(n) for n in range(3, 7)] + random_actions
            + [transformation_action()])


def test_validate_matches_the_literal_validators_on_every_corruption(
        random_actions):
    """Every single-entry corruption of the four tables: the groupoid and
    the action give exactly the problems of the validators that scan every
    triple, order included.  The laws are checked on generators and then,
    after a failure, everywhere; both branches must be reached.  The
    literal groupoid validator scans pairs of elements only, so the extra
    entries keyed by the non-element "zz" add exactly one problem to its
    list."""
    beyond = {("mul", ("zz", "zz")): ["product ('zz', 'zz') should not exist"],
              ("inv", "zz"): ["inverse given for unknown element 'zz'"]}
    reached = collections.Counter()
    for base in _law_pool(random_actions):
        for (table, key, value, action) in single_entry_corruptions(base):
            extra = beyond.get((table, key), [])
            expected = oracle_action_validate(action) + \
                ["groupoid: " + p for p in extra]
            assert action.validate() == expected, (table, key, value)
            if table in ("mul", "inv"):
                gpd = action.groupoid
                assert gpd.validate() == oracle_groupoid_validate(gpd) + extra, \
                    (table, key, value)
            for law in ("associativity", "(hg)·e law", "(hg)|_e law"):
                reached[law] += any(law in p for p in expected)
    assert min(reached.values()) >= 50, reached


def test_validate_matches_the_literal_validator_on_behavioral_corruptions(
        wide_random_actions):
    """The linear stages read the records of a behavioral model as they
    read an explicit groupoid's: every single-entry corruption of the
    action tables of the behavioral half of wide_random_actions gets
    exactly the literal validator's problems, order included."""
    reached = collections.Counter()
    for base in wide_random_actions:
        if base.groupoid.kind != "behavioral":
            continue
        for (table, key, value, action) in single_entry_corruptions(base):
            expected = oracle_action_validate(action)
            assert action.validate() == expected, (table, key, value)
            for stage in ("non-composable", "missing", "bijection",
                          "unknown", "should be src", "unit at"):
                reached[stage] += any(stage in p for p in expected)
    assert min(reached.values()) >= 20, reached


def test_the_product_laws_wait_for_the_unit_law():
    """The trivial group on one vertex, its unit swapping the two loops:
    both product laws fail only at the unit middle, which the scan over
    the non-unit generators (none here) never takes.  The unit stage runs
    first and names the fault, so the list is the literal validator's."""
    graph = DirectedGraph(["v"], [("e", "v", "v"), ("f", "v", "v")])
    gpd = group_bundle(["v"], {})
    action = SelfSimilarAction(graph, gpd,
                               {("1@v", "e"): "f", ("1@v", "f"): "e"},
                               {("1@v", "e"): "1@v", ("1@v", "f"): "1@v"})
    assert gpd.generators() == ("1@v",)
    assert action._law_failures({"1@v"}) == [
        "(hg)·e law fails at ('1@v', '1@v', 'e')",
        "(hg)·e law fails at ('1@v', '1@v', 'f')"]
    assert action.validate() == oracle_action_validate(action) == [
        "unit at 'v' moves edge 'e'", "unit at 'v' moves edge 'f'"]


class _CountingTable(dict):
    """A table that counts its lookups, in all (reads) and per key
    (by_key)."""

    def __init__(self, table):
        super().__init__(table)
        self.reads = 0
        self.by_key = collections.Counter()

    def __getitem__(self, key):
        self.reads += 1
        self.by_key[key] += 1
        return dict.__getitem__(self, key)

    def get(self, key, default=None):
        self.reads += 1
        self.by_key[key] += 1
        return dict.get(self, key, default)


def counting_rows(index, keys=()):
    """A copy of a row index, first -> row or first -> (row, row), with
    each row a _CountingTable; each of keys gets empty rows if it has
    none, so that no read falls back to a shared empty row."""
    shape = next(iter(index.values()))
    empty = ({}, {}) if isinstance(shape, tuple) else {}
    out = {}
    for k in {**index, **dict.fromkeys(keys)}:
        rows = index.get(k, empty)
        out[k] = (tuple(map(_CountingTable, rows)) if isinstance(rows, tuple)
                  else _CountingTable(rows))
    return out


def row_reads(index, part=None):
    """The reads counted on a counting_rows copy; part picks one row of
    each pair."""
    return sum((rows if part is None else rows[part]).reads
               for rows in index.values())


def test_validate_makes_subcubic_products(monkeypatch):
    """zn_rotation(32), |G| = |E| = 32: the literal validators make about
    |G|²·|E| products through mul and 3·|G|³ reads of the product table.
    validate reads the product rows fewer than |G|³/2 times."""
    action = zn_rotation(32)
    n = 32
    calls = collections.Counter()
    real_mul = ExplicitGroupoid.mul

    def counting_mul(self, a, b):
        calls["mul"] += 1
        return real_mul(self, a, b)

    monkeypatch.setattr(ExplicitGroupoid, "mul", counting_mul)
    gpd = action.groupoid
    gpd._rows = counting_rows(gpd.product_rows())
    assert action.validate() == []
    assert calls["mul"] < n * n * n // 4
    assert 0 < row_reads(gpd._rows) < n * n * n // 2


def test_the_reduced_law_scans_take_no_unit_outer_factor():
    """zn_rotation(32), |G| = |E| = n = 32, whose one non-unit generator
    is c1.  The reduced associativity scan visits (a, c1, c) for the
    n - 1 non-units a and c only.  composable_pairs reads a·c1 from a's
    row once per pair, the scan reads c1·c from c1's row once per c, and
    then (a·c1)·c and a·(c1·c) once per triple: (n - 1) + (n - 1) +
    2·(n - 1)² = 2·n·(n - 1) reads of the product rows, where a read of
    c1·c per triple made it (n - 1) + 3·(n - 1)².  The reduced action-law
    scan visits (h, c1, e) for the n - 1 non-units h and every edge e.
    It reads c1·e and c1|_e once per edge, then (hc1)·e, h·(c1·e),
    (hc1)|_e and h|_{c1·e} once per triple: n + 2·(n - 1)·n reads of the
    edge-action rows, where a read of c1·e per triple made it
    3·(n - 1)·n, and as many of the restriction rows.  Its products are
    h·c1 per pair and h|_{c1·e}·c1|_e per triple, (n - 1)·(n + 1) reads
    of the product rows."""
    n = 32
    action = zn_rotation(n)
    gpd = action.groupoid
    assert action.validate() == []
    assert gpd.generators() == ("c0", "c1")
    gpd._rows = counting_rows(gpd.product_rows())
    assert gpd.law_failures(gpd._associativity_failures, True) == []
    assert row_reads(gpd._rows) == 2 * n * (n - 1)
    gpd._rows = counting_rows(gpd.product_rows())
    action._rows = counting_rows(action.rows())
    assert gpd.law_failures(action._law_failures, True) == []
    assert row_reads(action._rows, 0) == n + 2 * (n - 1) * n
    assert row_reads(action._rows, 1) == n + 2 * (n - 1) * n
    assert row_reads(gpd._rows) == (n - 1) * (n + 1)


def flat(index, part=None):
    """The flat table (first, second) -> value a row index holds."""
    return {(k, key): value for (k, rows) in index.items()
            for (key, value) in (rows if part is None else rows[part]).items()}


def test_each_row_index_holds_exactly_its_table(fix, random_actions,
                                                wide_random_actions):
    """The product rows, and the edge-action and restriction rows, hold
    exactly the entries of their flat tables, before validate and after
    it: on the fixtures, zn_rotation(3..6), the sampled actions and every
    single-entry corruption of them, whose extra keys such as
    ("zz", "zz") name no element.  The table stage still reports those
    as entries that should not exist."""
    pool = [fix(name).action for name in FIXTURES]
    pool += [zn_rotation(n) for n in range(3, 7)] + list(random_actions)
    pool += [a for a in wide_random_actions if a.groupoid.kind == "explicit"]
    cases = 0
    for base in pool:
        for action in [base] + [a for (*_, a) in single_entry_corruptions(base)]:
            gpd = action.groupoid
            for _ in range(2):
                rows = action.rows()
                assert flat(rows, 0) == action.edge_action
                assert flat(rows, 1) == action.restriction
                if gpd.kind == "explicit":
                    assert flat(gpd.product_rows()) == gpd._mul
                problems = action.validate()
            if ("zz", "zz") in getattr(gpd, "_mul", ()):
                assert gpd.product_rows()["zz"] == {"zz": gpd.elements()[0]}
                assert ("groupoid: product ('zz', 'zz') should not exist"
                        in problems)
                cases += 1
    assert cases == len(pool) - len(FIXTURES) + len(EXPLICIT_FIXTURES)
    assert act.NO_ROWS == ({}, {})


def test_validate_calls_no_checked_accessor_per_entry(monkeypatch):
    """Once a stage has checked the records, the later stages read them
    directly: on a valid zn_rotation(n) the checked accessors are called
    as often at n = 8 as at n = 32."""
    actions = [zn_rotation(8), zn_rotation(32)]
    calls = collections.Counter()
    for (cls, name) in [(Groupoid, "src"), (Groupoid, "rng"),
                        (Groupoid, "_get"), (Groupoid, "has_element"),
                        (ExplicitGroupoid, "mul"), (DirectedGraph, "edge"),
                        (SelfSimilarAction, "act_edge"),
                        (SelfSimilarAction, "restrict_edge")]:
        def counting(*args, _real=getattr(cls, name), _name=name):
            calls[_name] += 1
            return _real(*args)
        monkeypatch.setattr(cls, name, counting)
    counts = []
    for action in actions:
        calls.clear()
        assert action.validate() == []
        counts.append(dict(calls))
    assert counts[0] == counts[1], counts
