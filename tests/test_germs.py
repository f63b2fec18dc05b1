"""Germ calculus, singular decompositions, and the group summation test.

Core membership is checked against germ equality with literally
represented elements — a different code path than the implementation.
The `hum` answers are pinned by the golden transcript in test_golden.
"""

import pytest

from selfsim import germs
from selfsim import semigroup as sg
from selfsim.actions import (SelfSimilarAction, act_point, boundary_point,
                             boundary_points_from, edge_at, point_phase,
                             point_prefix, point_tail, strongly_fixed_prefix,
                             walk)
from selfsim.germs import (Germ, GermError, SingularClass, classify,
                           cycle_expansion, germ_eq,
                           germ_inv, germ_mul, hum_for_point, in_core,
                           make_germ, point_prepend, range_point,
                           singular_decompositions, source_point, xbar)
from selfsim.graphs import DirectedGraph
from selfsim.groupoids import (BehavioralModel, RequiresExplicitError,
                               cyclic_group_table, group_bundle)

from conftest import FIXTURES, zn_rotation


# -- oracles ----------------------------------------------------------------


def oracle_in_core(action, a):
    """Core membership via germ equality with a represented element's germ."""
    gpd, graph = action.groupoid, action.graph
    t = a.triple
    if sg.length_cocycle(t) != 0:
        return False
    for h in gpd.elements():
        if gpd.src(h) != t.beta.base:
            continue
        b = Germ(sg.Triple(action.act_path(h, t.beta),
                           action.restrict_path(h, t.beta), t.beta), a.xi)
        if germ_eq(action, a, b):
            return True
    return False


# -- germ construction -------------------------------------------------------


def _pt(graph, prefix, period, base=None):
    return boundary_point(graph, prefix, period, base=base)


def _germ(action, alpha, g, beta, xi):
    graph = action.graph
    t = sg.make(action,
                graph.path(alpha, base=None if alpha else action.groupoid.rng(g)),
                g,
                graph.path(beta, base=None if beta else action.groupoid.src(g)))
    return make_germ(action, t, xi)


def test_make_germ_validates_point_base(fix):
    action = fix("four_loop_z2").action
    graph = action.graph
    xi = _pt(graph, [], ["e"])
    g = _germ(action, ["a"], "1", ["b"], xi)
    assert str(g) == "[(a, 1, b); (e)^inf]"
    with pytest.raises(GermError):
        make_germ(action, sg.ZERO, xi)


def test_source_and_range_points(fix):
    action = fix("four_loop_z2").action
    graph = action.graph
    xi = _pt(graph, [], ["e"])
    a = _germ(action, ["a"], "1", ["b"], xi)
    assert source_point(action, a) == _pt(graph, ["b"], ["e"])
    # 1 fixes e^inf, so the range is a·e^inf
    assert range_point(action, a) == _pt(graph, ["a"], ["e"])


def test_germ_json_roundtrip(fix):
    action = fix("four_loop_z2").action
    graph = action.graph
    a = _germ(action, ["a"], "1", ["b"], _pt(graph, ["e"], ["f", "e"]))
    assert germs.from_json(action, germs.to_json(a)) == a
    with pytest.raises(GermError):
        germs.from_json(action, {"zero": True, "xi": {"base": "v"}})


# -- germ equality ------------------------------------------------------------


def test_germ_eq_positive_and_negative_cases(fix):
    action = fix("four_loop_z2").action
    graph = action.graph
    einf = _pt(graph, [], ["e"])
    # (e, 1|_e = 1, e) at e^inf against (v, 1, v) at e·e^inf = e^inf:
    # same source point, ranges develop identically, restrictions agree
    a = _germ(action, ["e"], "1", ["e"], einf)
    b = _germ(action, [], "1", [], _pt(graph, [], ["e"]))
    assert germ_eq(action, a, b)
    # the unit germ at the same point differs (1 is never unit along e)
    u = _germ(action, [], "0", [], einf)
    assert not germ_eq(action, a, u)
    # degree mismatch is detected without any walking
    c = _germ(action, ["e", "e"], "1", ["e"], einf)
    assert not germ_eq(action, a, c)
    # same triple at different points: different germs
    d = _germ(action, [], "1", [], _pt(graph, [], ["f"]))
    assert not germ_eq(action, u, d) and not germ_eq(action, b, d)


def test_germ_eq_merges_after_divergent_prefix(fix):
    action = fix("four_loop_z2").action
    graph = action.graph
    finf = _pt(graph, [], ["f"])
    # 1 restricts to 0 along f, so (f, 1|_f, f) at f^inf equals the unit
    a = _germ(action, ["f"], "0", ["f"], finf)
    b = _germ(action, [], "1", [], finf)
    assert germ_eq(action, a, b)
    assert classify(action, b)["kind"] == "unit"


def test_germ_eq_is_an_equivalence_on_a_sample(fix):
    action = fix("four_loop_z2").action
    graph = action.graph
    einf = _pt(graph, [], ["e"])
    pool = []
    for t in sg.elements_up_to(action, 1):
        base_needed = graph.path_src(t.beta)
        xi = point_tail(graph, _pt(graph, [], ["e"]), 0)
        if base_needed != xi.base:
            continue
        pool.append(Germ(t, xi))
    assert len(pool) >= 20
    for a in pool:
        assert germ_eq(action, a, a)
    eqs = {(i, j): germ_eq(action, a, b)
           for (i, a) in enumerate(pool) for (j, b) in enumerate(pool)}
    for (i, j), v in eqs.items():
        assert v == eqs[(j, i)]
    n = len(pool)
    for i in range(n):
        for j in range(n):
            if not eqs[(i, j)]:
                continue
            for k in range(n):
                if eqs[(j, k)]:
                    assert eqs[(i, k)], (str(pool[i]), str(pool[j]),
                                         str(pool[k]))


def oracle_germ_eq(action, a, b):
    """The path-building loop: both rewritten ranges are extended edge by
    edge and compared whole, until the restrictions agree, the point ends
    or the triple (ga, gb, phase) repeats."""
    graph = action.graph
    x = source_point(action, a)
    if x != source_point(action, b):
        return False
    if sg.length_cocycle(a.triple) != sg.length_cocycle(b.triple):
        return False
    na, nb = len(a.triple.beta.edges), len(b.triple.beta.edges)
    n = max(na, nb)
    wa = point_prefix(x, n)
    pa = graph.concat(a.triple.alpha,
                      action.act_path(a.triple.g, graph.tail_after(wa, na)))
    ga = action.restrict_path(a.triple.g, graph.tail_after(wa, na))
    pb = graph.concat(b.triple.alpha,
                      action.act_path(b.triple.g, graph.tail_after(wa, nb)))
    gb = action.restrict_path(b.triple.g, graph.tail_after(wa, nb))
    seen = set()
    while True:
        if pa != pb:
            return False
        if ga == gb:
            return True
        if x.is_finite() and n >= len(x.prefix):
            return False
        key = (ga, gb, point_phase(x, n))
        if key in seen:
            return False
        seen.add(key)
        e = edge_at(x, n)
        pa = graph.concat(pa, graph.path([action.act_edge(ga, e)]))
        pb = graph.concat(pb, graph.path([action.act_edge(gb, e)]))
        ga = action.restrict_edge(ga, e)
        gb = action.restrict_edge(gb, e)
        n += 1


def _germs_at(action, y):
    """Every germ at the point y whose triple has legs of length <= 1."""
    graph = action.graph
    out = []
    for t in sg.elements_up_to(action, 1):
        n = len(t.beta.edges)
        if (t.beta.base == y.base and (n <= len(y.prefix) or y.period)
                and point_prefix(y, n) == t.beta):
            out.append(Germ(t, point_tail(graph, y, n)))
    return out


def test_germ_eq_matches_the_path_building_loop(fix, random_actions):
    pool = ([fix(name).action
             for name in ("four_loop_z2", "twisted_three_spoke")]
            + random_actions[:20] + [zn_rotation(n) for n in (3, 4)])
    pairs = equal = 0
    for action in pool:
        graph = action.graph
        for v in graph.vertices:
            for y in boundary_points_from(graph, v, 2):
                sample = _germs_at(action, y)[:12]
                for a in sample:
                    for b in sample:
                        got = germ_eq(action, a, b)
                        assert got == oracle_germ_eq(action, a, b), (
                            str(a), str(b))
                        pairs += 1
                        equal += got
    assert pairs > 5000 and equal > 500, (pairs, equal)


# -- composition laws ----------------------------------------------------------


def test_germ_groupoid_laws(fix):
    action = fix("four_loop_z2").action
    graph = action.graph
    points = [_pt(graph, [], ["e"]), _pt(graph, [], ["f"]),
              _pt(graph, [], ["e", "f"]), _pt(graph, ["a"], ["e"])]
    pool = [Germ(t, xi) for t in sg.elements_up_to(action, 1)
            for xi in points]
    src_of = {a: source_point(action, a) for a in pool}
    rng_of = {a: range_point(action, a) for a in pool}

    for a in pool:
        ai = germ_inv(action, a)
        assert source_point(action, ai) == rng_of[a]
        assert range_point(action, ai) == src_of[a]
        assert germ_eq(action, germ_inv(action, ai), a)
        left = germ_mul(action, ai, a)
        assert classify(action, left)["kind"] == "unit"
        right = germ_mul(action, a, ai)
        assert classify(action, right)["kind"] == "unit"

    by_rng = {}
    for b in pool:
        by_rng.setdefault(rng_of[b], []).append(b)

    pairs = [(a, b) for a in pool for b in by_rng.get(src_of[a], ())]
    assert pairs
    for (a, b) in pairs[:400]:
        ab = germ_mul(action, a, b)
        assert source_point(action, ab) == src_of[b]
        assert range_point(action, ab) == rng_of[a]

    # associativity over explicit chains
    chains = 0
    for a in pool:
        for b in by_rng.get(src_of[a], ())[:3]:
            for c in by_rng.get(src_of[b], ())[:3]:
                lhs = germ_mul(action, germ_mul(action, a, b), c)
                rhs = germ_mul(action, a, germ_mul(action, b, c))
                assert germ_eq(action, lhs, rhs), (str(a), str(b), str(c))
                chains += 1
        if chains >= 300:
            break
    assert chains >= 100


def test_germ_mul_respects_equality(fix):
    action = fix("four_loop_z2").action
    graph = action.graph
    einf = _pt(graph, [], ["e"])
    a1 = _germ(action, ["e"], "1", ["e"], einf)
    a2 = _germ(action, [], "1", [], einf)
    assert germ_eq(action, a1, a2)
    b = _germ(action, [], "1", [], einf)   # range of b is 1·e^inf = e^inf
    p1 = germ_mul(action, a1, b)
    p2 = germ_mul(action, a2, b)
    assert germ_eq(action, p1, p2)
    assert p2.triple.g == "0"  # 1·1 = 0 in the fiber


def test_germ_mul_rejects_noncomposable(fix):
    action = fix("four_loop_z2").action
    graph = action.graph
    a = _germ(action, [], "1", [], _pt(graph, [], ["e"]))
    b = _germ(action, [], "1", [], _pt(graph, [], ["f"]))
    with pytest.raises(GermError):
        germ_mul(action, a, b)


# -- classification -------------------------------------------------------------


def test_classify_unit_and_isotropy_cases(fix):
    action = fix("four_loop_z2").action
    graph = action.graph
    einf = _pt(graph, [], ["e"])
    finf = _pt(graph, [], ["f"])
    # the balanced isotropy case at the fixed point e^inf
    out = classify(action, _germ(action, [], "1", [], einf))
    assert out == {"kind": "isotropy", "case": "a", "verified": True}
    # the same triple at f^inf is a unit germ: 1 strongly fixes f
    out = classify(action, _germ(action, [], "1", [], finf))
    assert out["kind"] == "unit"
    # a germ that moves its point
    out = classify(action, _germ(action, ["a"], "1", ["b"], einf))
    assert out["kind"] == "moving"
    # shrinking legs: beta = alpha·(cycle), verified by expansion
    out = classify(action, _germ(action, ["e", "e"], "0", ["e"], einf))
    assert out == {"kind": "isotropy", "case": "c", "verified": True}
    out = classify(action, _germ(action, ["e"], "0", ["e", "e"], einf))
    assert out == {"kind": "isotropy", "case": "b", "verified": True}
    # unit germs of unit elements
    out = classify(action, _germ(action, [], "0", [], einf))
    assert out["kind"] == "unit"


def test_cycle_expansion_fixed_point_property(fix):
    action = fix("four_loop_z2").action
    graph = action.graph
    for (first, g0) in [(graph.path(["e"]), "1"), (graph.path(["e"]), "0"),
                        (graph.path(["a"]), "1"), (graph.path(["e", "f"]), "1")]:
        x = cycle_expansion(action, first, g0)
        # x = first · (g0 · x), checked on canonical forms
        gx = act_point(action, g0, x)
        assert point_prepend(graph, first, gx) == x


# -- core membership -------------------------------------------------------------


def test_in_core_pinned_values(fix):
    action = fix("four_loop_z2").action
    graph = action.graph
    for n in range(6):
        xi = _pt(graph, ["e"] * n, ["f"])
        a = _germ(action, ["a"], "1", ["b"], xi)
        assert in_core(action, a), n
        assert oracle_in_core(action, a)
    einf = _pt(graph, [], ["e"])
    a = _germ(action, ["a"], "1", ["b"], einf)
    assert not in_core(action, a)
    assert not oracle_in_core(action, a)


def test_in_core_matches_germ_equality_oracle(fix):
    action = fix("four_loop_z2").action
    graph = action.graph
    points = [_pt(graph, [], ["e"]), _pt(graph, [], ["f"]),
              _pt(graph, ["e"], ["f"]), _pt(graph, [], ["e", "f"])]
    for t in sg.elements_up_to(action, 1):
        for xi in points:
            a = Germ(t, xi)
            assert in_core(action, a) == oracle_in_core(action, a), str(a)


def test_in_core_needs_degree_zero(fix):
    action = fix("four_loop_z2").action
    graph = action.graph
    a = _germ(action, ["e", "e"], "0", ["e"], _pt(graph, [], ["e"]))
    assert not in_core(action, a)


def test_in_core_refuses_behavioral(fix):
    action = fix("not_exel_pardo").action
    graph = action.graph
    a = _germ(action, [], "g", [], _pt(graph, [], ["e"]))
    with pytest.raises(RequiresExplicitError):
        in_core(action, a)


# -- singular decompositions --------------------------------------------------


def test_singular_decompositions_empty_when_families_finite(fix):
    # these two systems have tiny boundaries; cover them outright
    for name in ("entrance_free_loop", "two_edges"):
        action = fix(name).action
        graph = action.graph
        points = [x for v in graph.vertices
                  for x in boundary_points_from(graph, v, 6)]
        assert points
        for x in points:
            classes, note = singular_decompositions(action, x)
            assert classes == []
            if x.is_finite():
                assert "finite" in note


def test_singular_decompositions_empty_without_isotropy(fix):
    # trivial fibers over the bushy graph: plenty of points, none singular
    from selfsim.actions import SelfSimilarAction
    from selfsim.groupoids import group_bundle
    graph = fix("four_loop_z2").action.graph
    gpd = group_bundle(["v"], {})
    u = gpd.unit_at("v")
    action = SelfSimilarAction(
        graph, gpd,
        {(u, e.name): e.name for e in graph.edges},
        {(u, e.name): u for e in graph.edges})
    assert action.validate() == []
    points = boundary_points_from(graph, "v", 3)
    assert len(points) >= 20
    for x in points[:20]:
        classes, _ = singular_decompositions(action, x)
        assert classes == []
        assert xbar(action, x)["size"] == 1


def oracle_singular_candidates(action, x):
    """The literal per-position loop: at every position up to the search
    bound, test every non-unit isotropy element against the tail afresh,
    with g·tail = tail decided by building g·tail, and every restriction
    along the tail able to reach a unit along fixed arrows."""
    graph, gpd = action.graph, action.groupoid
    bound = len(x.prefix) + len(x.period) * max(1, len(gpd.elements()))
    out = []
    for i in range(bound + 1):
        tail = point_tail(graph, x, i)
        for g in gpd.elements():
            if (gpd.src(g) == gpd.rng(g) == tail.base and not gpd.is_unit(g)
                    and act_point(action, g, tail) == tail
                    and strongly_fixed_prefix(action, g, tail) is None
                    and all(h in action.digraph.can_reach_unit for (_, _, h)
                            in walk(tail, 0, g, action.restrict_edge))):
                out.append(SingularClass(i, g))
    return out


def test_singular_candidates_match_the_per_position_loop(fix, random_actions):
    pool = ([fix(name).action for name in FIXTURES] + random_actions
            + [zn_rotation(n) for n in range(3, 7)])
    points = found = repeated = 0
    for action in pool:
        graph = action.graph
        for v in graph.vertices:
            for x in boundary_points_from(graph, v, 3):
                if x.is_finite():
                    continue
                cands = germs._singular_candidates(action, x)
                assert cands == oracle_singular_candidates(action, x), x
                points += 1
                found += bool(cands)
                repeated += any(c.position > len(x.prefix) + len(x.period)
                                for c in cands)
    assert points > 1000 and found > 40 and repeated > 40, (points, found,
                                                             repeated)


def oracle_decomposition_equivalent(action, x, a, b):
    """(i, g) ~ (j, h): along some common prefix the two restrictions meet,
    walked pairwise up to a repeated (ga, gb, phase)."""
    graph = action.graph
    m = max(a.position, b.position)

    def advance(c):
        w = point_prefix(x, m)
        return action.restrict_path(c.element, graph.tail_after(w, c.position))

    ga, gb = advance(a), advance(b)
    n, seen = m, set()
    while True:
        if ga == gb:
            return True
        key = (ga, gb, point_phase(x, n))
        if key in seen:
            return False
        seen.add(key)
        e = edge_at(x, n)
        ga = action.restrict_edge(ga, e)
        gb = action.restrict_edge(gb, e)
        n += 1


def oracle_singular_classes(action, x, cands):
    """The pairwise merge: each candidate joins the first representative it
    is equivalent to, or becomes one."""
    reps = []
    for c in cands:
        if not any(oracle_decomposition_equivalent(action, x, c, r)
                   for r in reps):
            reps.append(c)
    return sorted(reps, key=lambda c: (c.position, c.element))


def two_loops_fixed_by_zn(n):
    """One vertex with loops x and y, Z_n fixing both; g restricts to g
    along x and to the unit along y.  At x^inf every non-unit passes at
    every position (n^2 - 1 candidates) and the classes are the n - 1
    non-units."""
    graph = DirectedGraph(["v"], [("x", "v", "v"), ("y", "v", "v")])
    gpd = group_bundle(["v"], {"v": cyclic_group_table(n, prefix="c")})
    edge_action, restriction = {}, {}
    for g in gpd.elements():
        edge_action[(g, "x")], restriction[(g, "x")] = "x", g
        edge_action[(g, "y")], restriction[(g, "y")] = "y", "c0"
    return SelfSimilarAction(graph, gpd, edge_action, restriction)


def chain_into_a_loop(m):
    """A behavioral model at one vertex with loops x and y: along x the
    states s1..sm restrict down the chain sm -> ... -> s1 -> s1, along y to
    the unit.  At x^inf every (position, state) is a candidate and all of
    them form one class, but a candidate joining at the last candidate
    position meets the others only m - 1 steps later."""
    graph = DirectedGraph(["v"], [("x", "v", "v"), ("y", "v", "v")])
    states = [("s%d" % i, "v", "v", False) for i in range(1, m + 1)]
    gpd = BehavioralModel.from_states(["v"], states + [("u", "v", "v", True)])
    edge_action = {(g, e): e for g in gpd.elements() for e in ("x", "y")}
    restriction = {(g, "y"): "u" for g in gpd.elements()}
    restriction[("u", "x")] = "u"
    for i in range(1, m + 1):
        restriction[("s%d" % i, "x")] = "s%d" % max(1, i - 1)
    return SelfSimilarAction(graph, gpd, edge_action, restriction)


def test_singular_decompositions_match_the_pairwise_merge(
        fix, random_actions, wide_random_actions):
    pool = ([fix(name).action for name in FIXTURES] + random_actions
            + wide_random_actions + [zn_rotation(n) for n in range(3, 7)])
    points = merged = 0
    for action in pool:
        graph = action.graph
        for v in graph.vertices:
            for x in boundary_points_from(graph, v, 3):
                if x.is_finite():
                    continue
                classes, _ = singular_decompositions(action, x)
                cands = germs._singular_candidates(action, x)
                assert classes == oracle_singular_classes(action, x, cands), x
                points += 1
                merged += len(classes) < len(cands)
    for n in (8, 16):
        action = two_loops_fixed_by_zn(n)
        x = _pt(action.graph, [], ["x"])
        classes, _ = singular_decompositions(action, x)
        cands = germs._singular_candidates(action, x)
        assert classes == oracle_singular_classes(action, x, cands)
        assert [c.position for c in classes] == [0] * (n - 1)
    for m in (3, 6, 9):
        action = chain_into_a_loop(m)
        assert action.validate() == []
        x = _pt(action.graph, [], ["x"])
        classes, _ = singular_decompositions(action, x)
        cands = germs._singular_candidates(action, x)
        assert classes == oracle_singular_classes(action, x, cands) == [
            SingularClass(0, "s1")]
    assert points > 15000 and merged > 50, (points, merged)


def test_singular_decompositions_work_is_polynomial():
    # restrict_edge calls stay within 4·|G|·(|prefix| + |G|·|period| + 1):
    # the candidate search plus one synchronous walk of at most |G|
    # walkers; the pairwise merge made 292,671 calls here
    n = 32
    action = two_loops_fixed_by_zn(n)
    x = _pt(action.graph, [], ["x"])
    calls, restrict = [0], action.restrict_edge

    def counting(g, e):
        calls[0] += 1
        return restrict(g, e)

    action.restrict_edge = counting
    classes, _ = singular_decompositions(action, x)
    assert len(classes) == n - 1
    assert calls[0] <= 4 * n * (0 + n * 1 + 1), calls[0]


def test_singular_decompositions_build_each_tail_once(monkeypatch):
    # past the prefix the tail repeats with the period, so the candidate
    # search builds at most one tail per prefix position and per phase of
    # the period (plus one per class returned), not one per position up
    # to |prefix| + |period|·|G|
    action = zn_rotation(8)
    graph = action.graph
    calls, tail = [0], germs.point_tail

    def counting(*args):
        calls[0] += 1
        return tail(*args)

    monkeypatch.setattr(germs, "point_tail", counting)
    for (prefix, period, most) in [([], ["x0"], 1), ([], ["x1", "x2", "x5"], 3),
                                   (["x3", "x4"], ["x0"], 3)]:
        x = _pt(graph, prefix, period)
        calls[0] = 0
        classes, _ = singular_decompositions(action, x)
        assert calls[0] <= len(x.prefix) + len(x.period) + len(classes)
        assert calls[0] <= most, (x, calls[0])


def test_singular_decompositions_pinned_on_four_loop(fix):
    action = fix("four_loop_z2").action
    graph = action.graph
    einf = _pt(graph, [], ["e"])
    classes, note = singular_decompositions(action, einf)
    assert [(c.position, c.element) for c in classes] == [(0, "1")]
    data = xbar(action, einf)
    assert data["size"] == 2
    g = germs.from_json(action, data["germs"][0])
    out = classify(action, g)
    assert out["kind"] == "isotropy" and out["case"] == "a"
    finf = _pt(graph, [], ["f"])
    assert xbar(action, finf)["size"] == 1
    # a point entering e^inf after a prefix still meets the class
    late = _pt(graph, ["a", "f"], ["e"])
    classes, _ = singular_decompositions(action, late)
    assert [(c.position, c.element) for c in classes] == [(2, "1")]


def test_xbar_size_bounded_by_nucleus(fix):
    from selfsim.actions import nucleus
    action = fix("four_loop_z2").action
    graph = action.graph
    bound = len(nucleus(action))
    pts = boundary_points_from(graph, "v", 3)
    infinite = [x for x in pts if not x.is_finite()]
    assert len(infinite) >= 10
    for x in infinite:
        assert xbar(action, x)["size"] <= bound


def test_singular_class_germ_shape(fix):
    action = fix("four_loop_z2").action
    graph = action.graph
    x = _pt(graph, ["a", "f"], ["e"])
    c = SingularClass(2, "1")
    g = c.germ(action, x)
    assert g.triple.alpha == g.triple.beta == point_prefix(x, 2)
    assert g.xi == point_tail(graph, x, 2)
    assert not germs.sg.is_zero(g.triple)


def test_positions_respect_the_search_bound(fix):
    action = fix("four_loop_z2").action
    graph = action.graph
    x = _pt(graph, ["a", "b", "a"], ["e", "f"])
    bound = len(x.prefix) + len(x.period) * max(
        1, len(action.groupoid.elements()))
    classes, _ = singular_decompositions(action, x)
    for c in classes:
        assert c.position <= bound


# -- the group summation test ----------------------------------------------------


def oracle_subgroup(gpd, gens):
    """The subgroup gens generate, from products of any two members until
    nothing new appears."""
    out = set(gens)
    while True:
        new = {gpd.mul(a, b) for a in out for b in out} - out
        if not new:
            return sorted(out)
        out |= new


def test_hum_group_is_the_subgroup_the_classes_generate(seeded_actions):
    """hum closes the class elements under right multiplication by them:
    the subgroup they generate, from at most |group|·|generators|
    products, never the isotropy's whole table."""
    groups, proper = 0, 0
    for action in seeded_actions:
        gpd = action.groupoid
        if gpd.kind != "explicit":
            continue
        for v in action.graph.vertices:
            for x in boundary_points_from(action.graph, v, 2):
                classes, _ = singular_decompositions(action, x)
                if x.is_finite() or not classes:
                    continue
                gens = sorted({c.element for c in classes})
                calls = []
                gpd.mul = lambda a, b: calls.append(1) or type(gpd).mul(
                    gpd, a, b)
                try:
                    out = hum_for_point(action, x)
                finally:
                    del gpd.mul
                if out["result"] is None:
                    continue
                groups += 1
                assert out["group"] == oracle_subgroup(gpd, gens)
                assert len(calls) <= len(out["group"]) * len(gens)
                proper += len(out["group"]) < len(
                    gpd.isotropy_at(gpd.src(gens[0])))
    assert groups > 50 and proper > 0, (groups, proper)


def test_hum_for_point_cases(fix):
    action = fix("four_loop_z2").action
    graph = action.graph
    out = hum_for_point(action, _pt(graph, [], ["e"]))
    assert out["result"] is False
    assert out["group"] == ["0", "1"]
    assert out["family"] == [["0", "1"]]
    out = hum_for_point(action, _pt(graph, [], ["f"]))
    assert out["result"] is True
    assert out["group"] == []
    behav = fix("not_exel_pardo").action
    out = hum_for_point(behav, _pt(behav.graph, [], ["e"]))
    assert out["result"] is None
    assert "behavioral" in out["note"]
    two = fix("two_edges").action
    fin = boundary_point(two.graph, ["e", "f"])
    out = hum_for_point(two, fin)
    assert out["result"] is None
    assert "finite" in out["note"]
