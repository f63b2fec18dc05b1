"""The one t·f_p: semigroup.shrink and semigroup.rewriters against the
copies they replaced.

Before shrink, the order, conjugation, fixedness and germ calculus each
wrote the leg rewrite (alpha, g, beta) -> (alpha·(g·b), g|_b, beta·b) out
by hand, and S00 membership and core membership each searched for the
elements h with h·beta = alpha.  Those copies are kept here, literally, as
oracles: every function must give the same result or raise the same
exception type.  (test_germs.oracle_germ_eq is an older oracle, the
path-building loop; oracle_germ_eq here is the start-then-walk copy.)
"""

import pytest

from selfsim import semigroup as sg
from selfsim import actions as act_mod
from selfsim.actions import (boundary_point, boundary_points_from,
                             point_prefix, point_tail, strongly_fixed_prefix,
                             walk)
from selfsim.germs import (Germ, GermError, classify, cycle_expansion,
                           germ_eq, germ_mul, in_core, range_point,
                           source_point)
from selfsim.graphs import Path, comparable, is_prefix
from selfsim.groupoids import RequiresExplicitError

from conftest import EXPLICIT_FIXTURES, FIXTURES, zn_rotation
from test_germs import oracle_in_core


# -- the copies --------------------------------------------------------------


def oracle_leq_split(action, s, t):
    if sg.is_zero(s):
        return True
    if sg.is_zero(t):
        return False
    if not is_prefix(t.beta, s.beta):
        return False
    d1 = action.graph.tail_after(s.beta, len(t.beta.edges))
    return (s.alpha == action.graph.concat(t.alpha, action.act_path(t.g, d1))
            and s.g == action.restrict_path(t.g, d1))


def oracle_conj_split(action, t, p):
    if sg.is_zero(t):
        return sg.ZERO
    graph = action.graph
    if is_prefix(t.beta, p):
        b1 = graph.tail_after(p, len(t.beta.edges))
        return sg.idempotent(action, graph.concat(t.alpha,
                                                  action.act_path(t.g, b1)))
    if is_prefix(p, t.beta):
        return sg.idempotent(action, t.alpha)
    return sg.ZERO


def oracle_in_S00(action, s):
    if sg.is_zero(s):
        return False
    gpd, graph = action.groupoid, action.graph
    if sg.length_cocycle(s) != 0:
        return False
    for h in gpd.elements():
        if gpd.src(h) != s.beta.base:
            continue
        if (action.act_path(h, s.beta) == s.alpha
                and action.restrict_path(h, s.beta) == s.g):
            return True
    if not gpd.element_complete:
        raise RequiresExplicitError("a missing element may rewrite it")
    return False


def oracle_fixed_by(action, t, p):
    if sg.is_zero(t):
        return False
    graph = action.graph
    if len(t.alpha.edges) > len(t.beta.edges):
        t = sg.star(action, t)
    alpha, g, beta = t.alpha, t.g, t.beta

    if not comparable(p, beta):
        return False
    if is_prefix(p, beta) and p != beta:
        for k in range(len(p.edges), len(beta.edges)):
            stem = graph.prefix(beta, k)
            if len(graph.received_by(graph.path_src(stem))) > 1:
                return False
        if not is_prefix(alpha, beta):
            return False
        forced = Path(graph.path_src(beta))
    else:
        forced = graph.tail_after(p, len(beta.edges))

    if len(alpha.edges) == len(beta.edges):
        if alpha != beta:
            return False
        if action.act_path(g, forced) != forced:
            return False
        return act_mod.fixes_all_paths(action, action.restrict_path(g, forced))

    if not is_prefix(alpha, beta):
        return False
    alpha_bar = beta.edges[len(alpha.edges):]
    return sg._corridor_holds(action, g, alpha_bar, forced.edges,
                              graph.path_src(beta))


def oracle_germ_eq(action, a, b):
    graph = action.graph
    x = source_point(action, a)
    if x != source_point(action, b):
        return False
    if sg.length_cocycle(a.triple) != sg.length_cocycle(b.triple):
        return False
    n = max(len(a.triple.beta.edges), len(b.triple.beta.edges))
    w = point_prefix(x, n)

    def start(t):
        seg = graph.tail_after(w, len(t.beta.edges))
        return (graph.concat(t.alpha, action.act_path(t.g, seg)),
                action.restrict_path(t.g, seg))

    (pa, ga), (pb, gb) = start(a.triple), start(b.triple)
    if pa != pb:
        return False

    def step(pair, e):
        return (action.restrict_edge(pair[0], e),
                action.restrict_edge(pair[1], e))

    for (_, e, (ga, gb)) in walk(x, n, (ga, gb), step):
        if ga == gb:
            return True
        if e is None or action.act_edge(ga, e) != action.act_edge(gb, e):
            return False


def oracle_germ_mul(action, a, b):
    graph = action.graph
    if source_point(action, a) != range_point(action, b):
        raise GermError("germs do not compose: source(a) != range(b)")
    st = sg.mul(action, a.triple, b.triple)
    if sg.is_zero(st):
        raise GermError("composable germs gave a zero product")
    beta, gamma = a.triple.beta, b.triple.alpha
    if is_prefix(beta, gamma):
        xi = b.xi
    else:
        g1 = graph.tail_after(beta, len(gamma.edges))
        xi = point_tail(graph, b.xi, len(g1.edges))
    return Germ(st, xi)


def oracle_classify(action, a):
    graph, gpd = action.graph, action.groupoid
    alpha, g, beta = a.triple.alpha, a.triple.g, a.triple.beta
    if alpha == beta and strongly_fixed_prefix(action, g, a.xi) is not None:
        return {"kind": "unit", "case": None, "verified": True}
    if source_point(action, a) != range_point(action, a):
        return {"kind": "moving", "case": None, "verified": True}
    la, lb = len(alpha.edges), len(beta.edges)
    if la == lb:
        return {"kind": "isotropy", "case": "a", "verified": alpha == beta}
    verified = None
    if gpd.kind == "explicit":
        if la > lb:
            b1 = graph.tail_after(alpha, lb)
            verified = a.xi == cycle_expansion(action, b1, g)
        else:
            abar = graph.tail_after(beta, la)
            gi = gpd.inv(g)
            verified = a.xi == cycle_expansion(
                action, action.act_path(gi, abar),
                action.restrict_path(gi, abar))
    return {"kind": "isotropy", "case": "c" if la > lb else "b",
            "verified": verified}


# -- comparison ----------------------------------------------------------------


def outcome(f, *args):
    """f(*args), or the type of the exception it raises."""
    try:
        return f(*args)
    except Exception as exc:
        return type(exc)


def assert_same(new, old, *args):
    got, want = outcome(new, *args), outcome(old, *args)
    assert got == want, (new.__name__, [str(a) for a in args[1:]], got, want)
    return got


def check_semigroup(action, suite, others, paths):
    """leq on suite × others both ways; conj and fixed_by on suite × paths;
    in_S00 on suite.  Counts the true or nonzero answers per function."""
    hits = dict.fromkeys(("leq", "conj", "S00", "fixed"), 0)
    for s in suite:
        hits["S00"] += assert_same(sg.in_S00, oracle_in_S00, action, s) is True
        for t in others:
            for (x, y) in ((s, t), (t, s)):
                hits["leq"] += assert_same(sg.leq, oracle_leq_split,
                                           action, x, y) is True
        for p in paths:
            c = assert_same(sg.conj_idempotent, oracle_conj_split, action, s, p)
            hits["conj"] += isinstance(c, sg.Triple)
            hits["fixed"] += assert_same(sg.fixed_by, oracle_fixed_by,
                                         action, s, p) is True
    return hits


def test_semigroup_matches_the_copies_at_bound_one(fix, random_actions):
    pool = ([fix(name).action for name in FIXTURES]
            + [zn_rotation(n) for n in (3, 4, 5)] + random_actions)
    total = dict.fromkeys(("leq", "conj", "S00", "fixed"), 0)
    for action in pool:
        suite = sg.elements_up_to(action, 1) + [sg.ZERO]
        hits = check_semigroup(action, suite, suite,
                               action.graph.all_paths(1))
        for k in total:
            total[k] += hits[k]
    assert min(total.values()) > 300, total


@pytest.mark.parametrize("name", ["four_loop_z2", "twisted_three_spoke"])
def test_semigroup_matches_the_copies_at_bound_two(fix, name):
    action = fix(name).action
    big = sg.elements_up_to(action, 2)
    small = sg.elements_up_to(action, 1) + [sg.ZERO]
    hits = check_semigroup(action, big, small, action.graph.all_paths(2))
    assert min(hits.values()) > 10, hits


def germs_at_points(action, max_len):
    """Every germ whose triple has legs of length <= 1, at every point of
    length <= max_len that extends its beta leg."""
    graph = action.graph
    out = []
    for v in graph.vertices:
        for y in boundary_points_from(graph, v, max_len):
            for t in sg.elements_up_to(action, 1):
                n = len(t.beta.edges)
                if (t.beta.base == y.base and (n <= len(y.prefix) or y.period)
                        and point_prefix(y, n) == t.beta):
                    out.append(Germ(t, point_tail(graph, y, n)))
    return out


def germ_pool(action, name):
    """The germs test_germs builds: on four_loop_z2 every triple at bound 1
    at the four points of the groupoid-law test, elsewhere the germs at
    every point of length <= 2."""
    if name != "four_loop_z2":
        return germs_at_points(action, 2)
    graph = action.graph
    points = [boundary_point(graph, [], ["e"]), boundary_point(graph, [], ["f"]),
              boundary_point(graph, [], ["e", "f"]),
              boundary_point(graph, ["a"], ["e"])]
    return [Germ(t, xi) for t in sg.elements_up_to(action, 1) for xi in points]


@pytest.mark.parametrize("name", EXPLICIT_FIXTURES)
def test_germs_match_the_copies(fix, name):
    action = fix(name).action
    pool = germ_pool(action, name)
    by_src, by_rng = {}, {}
    for a in pool:
        by_src.setdefault(source_point(action, a), []).append(a)
        by_rng.setdefault(range_point(action, a), []).append(a)
    equal = composed = 0
    for a in pool:
        assert classify(action, a) == oracle_classify(action, a), str(a)
        assert in_core(action, a) == oracle_in_core(action, a), str(a)
        for b in by_src[source_point(action, a)]:
            equal += assert_same(germ_eq, oracle_germ_eq, action, a, b)
        for b in by_rng.get(source_point(action, a), ()):
            ab = assert_same(germ_mul, oracle_germ_mul, action, a, b)
            composed += isinstance(ab, Germ)
    assert equal > len(pool) and composed > len(pool) // 2, (
        len(pool), equal, composed)


def test_in_core_refuses_every_degree_zero_germ_on_behavioral_models(fix):
    action = fix("not_exel_pardo").action
    pool = germs_at_points(action, 2)
    zero = [a for a in pool if sg.length_cocycle(a.triple) == 0]
    assert zero and len(zero) < len(pool)
    for a in pool:
        if sg.length_cocycle(a.triple) == 0:
            with pytest.raises(RequiresExplicitError):
                in_core(action, a)
        else:
            assert in_core(action, a) is False
