"""Inverse-semigroup layer: laws, order, conjugation, fixedness.

Oracles come first and use only `mul`/`star` (never the function under
test): conjugation is checked against literal products t f t*, the order
against s = t s* s, and fixedness against bounded idempotent sweeps.
"""

import itertools
import random

import pytest

from selfsim import semigroup as sg
from selfsim.actions import SelfSimilarAction
from selfsim.graphs import DirectedGraph, comparable
from selfsim.groupoids import (BehavioralModel, ExplicitGroupoid,
                               GroupoidError, RequiresExplicitError)
from selfsim.semigroup import (ZERO, SemigroupError, Triple, conj_idempotent,
                               elements_up_to, fixed_by,
                               idempotent, in_S00, is_zero, length_cocycle,
                               leq, make, mul, star)
from selfsim import actions as act

from conftest import FIXTURES, in_S0, is_idempotent, zn_rotation


# -- oracles ----------------------------------------------------------------


def oracle_conj(action, t, p):
    """t f_p t* as a literal three-fold product."""
    return mul(action, mul(action, t, idempotent(action, p)),
               star(action, t))


def oracle_leq(action, s, t):
    """The order law: s <= t iff s = t s* s."""
    if is_zero(s):
        return True
    return s == mul(action, t, mul(action, star(action, s), s))


def _sweep(action, t, p, max_len, breaks):
    graph = action.graph
    stack = [p]
    while stack:
        q = stack.pop()
        if breaks(q):
            return q
        if len(q.edges) < max_len:
            for e in graph.received_by(graph.path_src(q)):
                stack.append(graph.concat(q, graph.path([e.name])))
    return None


def oracle_fixed_breaker(action, t, p, max_len):
    """A path q extending p with (t f_q t*) f_q = 0, if one exists within
    max_len; None otherwise.  Products are literal (explicit models only)."""
    def breaks(q):
        f = idempotent(action, q)
        return is_zero(mul(action, oracle_conj(action, t, q), f))
    return _sweep(action, t, p, max_len, breaks)


def oracle_fixed_breaker_structural(action, t, p, max_len):
    """Same sweep with the product test replaced by its structural form:
    two nonzero idempotents meet iff their paths are comparable.  Runs on
    behavioral models, where literal products are unavailable."""
    def breaks(q):
        c = conj_idempotent(action, t, q)
        return is_zero(c) or not comparable(c.alpha, q)
    return _sweep(action, t, p, max_len, breaks)


def oracle_order_counterexample(action, leg_bound, idem_bound):
    """A non-idempotent element sitting above a nonzero idempotent, if the
    bounded sweep finds one."""
    graph = action.graph
    idems = [idempotent(action, q) for q in graph.all_paths(idem_bound)]
    for s in elements_up_to(action, leg_bound):
        if is_idempotent(action, s):
            continue
        for f in idems:
            if leq(action, f, s):
                return s, f
    return None


def small_suite(action, bound):
    """All triples with legs <= bound, plus zero."""
    return list(elements_up_to(action, bound)) + [ZERO]


def sampled_suite(action, bound, count, seed):
    rng = random.Random(seed)
    graph, gpd = action.graph, action.groupoid
    by_src = {}
    for q in graph.all_paths(bound):
        by_src.setdefault(graph.path_src(q), []).append(q)
    out = [ZERO]
    els = gpd.elements()
    while len(out) < count + 1:
        g = rng.choice(els)
        alphas = by_src.get(gpd.rng(g))
        betas = by_src.get(gpd.src(g))
        if not alphas or not betas:
            continue
        out.append(Triple(rng.choice(alphas), g, rng.choice(betas)))
    return out


# -- construction and validation --------------------------------------------


def test_make_rejects_mismatched_legs(fix):
    action = fix("four_loop_z2").action
    graph = action.graph
    e = graph.path(["e"])
    with pytest.raises(GroupoidError):
        make(action, e, "unknown-element", e)
    other = fix("two_edges").action
    p = other.graph.path(["e"])
    with pytest.raises(SemigroupError):
        # legs must sit at the element's vertices
        make(other, p, "0w", p)


def test_pinned_product_and_star(fix):
    action = fix("four_loop_z2").action
    graph = action.graph
    a = graph.path(["a"])
    b = graph.path(["b"])
    s = make(action, a, "1", b)
    t = make(action, b, "1", a)
    st = mul(action, s, t)
    assert (str(st.alpha), st.g, str(st.beta)) == ("a", "0", "a")
    assert star(action, s) == make(action, b, "1", a)
    assert mul(action, s, s) == ZERO  # legs b and a are incomparable


@pytest.mark.parametrize("bound", range(4))
def test_count_up_to_counts_the_elements(fix, random_actions, bound):
    actions = [fix(name).action for name in FIXTURES] + random_actions
    for action in actions:
        n = len(elements_up_to(action, bound))
        assert sg.count_up_to(action, bound, n) == n


def test_count_up_to_stops_past_its_limit(fix):
    # four loops: 2·(1 + 4 + ... + 4^k)² triples at bound k, one length
    # at a time, so a huge bound stops at the first count past the limit
    loops = fix("four_loop_z2").action
    assert sg.count_up_to(loops, 10 ** 9, 1000) == 2 * 85 ** 2
    assert sg.count_up_to(loops, 4, 10 ** 6) == 232562
    # no path on two_edges has more than two edges, so the count stops
    two = fix("two_edges").action
    assert sg.count_up_to(two, 10 ** 9, 10 ** 6) == \
        len(elements_up_to(two, 3))


def test_json_roundtrip(fix):
    action = fix("entrance_free_loop").action
    for s in small_suite(action, 2):
        assert sg.from_json(action, sg.to_json(s)) == s
    with pytest.raises(SemigroupError):
        sg.from_json(action, {"alpha": [], "g": "nope", "beta": []})


# -- the law suites ----------------------------------------------------------


def _law_suite(action, suite, pair_cap=None, triple_cap=None, seed=7):
    rng = random.Random(seed)
    pairs = list(itertools.product(suite, repeat=2))
    if pair_cap and len(pairs) > pair_cap:
        pairs = rng.sample(pairs, pair_cap)
    triples = None
    if triple_cap is not None:
        triples = [tuple(rng.choice(suite) for _ in range(3))
                   for _ in range(triple_cap)]
    else:
        triples = list(itertools.product(suite, repeat=3))

    for s in suite:
        ss = star(action, s)
        assert star(action, ss) == s
        sss = mul(action, s, mul(action, ss, s))
        assert sss == s
        assert is_idempotent(action, mul(action, ss, s))
        assert mul(action, s, ZERO) == ZERO
        assert mul(action, ZERO, s) == ZERO

    for s, t in pairs:
        p = mul(action, s, t)
        assert star(action, p) == mul(action, star(action, t),
                                      star(action, s))
        if not is_zero(p) and not is_zero(s) and not is_zero(t):
            assert length_cocycle(p) == length_cocycle(s) + length_cocycle(t)
        if is_idempotent(action, s) and is_idempotent(action, t):
            assert p == mul(action, t, s)
            assert is_idempotent(action, p)
        assert leq(action, s, t) == oracle_leq(action, s, t)

    for s, t, u in triples:
        assert mul(action, mul(action, s, t), u) == \
            mul(action, s, mul(action, t, u))


def test_laws_exhaustive_on_deterministic_fixture(fix):
    action = fix("entrance_free_loop").action
    suite = small_suite(action, 3)
    assert len(suite) == 51
    _law_suite(action, suite, pair_cap=None, triple_cap=4000)


def test_laws_exhaustive_on_branching_fixture(fix):
    action = fix("twisted_three_spoke").action
    suite = small_suite(action, 3)
    assert len(suite) == 65
    _law_suite(action, suite, pair_cap=None, triple_cap=4000)


def test_laws_randomized_at_larger_bound(fix):
    action = fix("four_loop_z2").action
    suite = sampled_suite(action, 5, 60, seed=20260814)
    _law_suite(action, suite, pair_cap=2500, triple_cap=4000)


def test_products_require_an_explicit_model(fix):
    action = fix("not_exel_pardo").action
    graph = action.graph
    f = idempotent(action, graph.path(["e"]))
    s = make(action, graph.path((), base="v"), "g", graph.path((), base="v"))
    with pytest.raises(RequiresExplicitError):
        mul(action, s, f)
    with pytest.raises(RequiresExplicitError):
        star(action, s)
    # products with incomparable legs are zero without needing the model
    t = make(action, graph.path(["e"]), "u", graph.path(["e"]))
    u = make(action, graph.path(["f"]), "u", graph.path(["f"]))
    assert mul(action, t, u) == ZERO


# -- natural order and conjugation -------------------------------------------


@pytest.mark.parametrize("name", ["entrance_free_loop", "four_loop_z2",
                                  "twisted_three_spoke"])
def test_conj_idempotent_matches_literal_product(fix, name):
    action = fix(name).action
    suite = small_suite(action, 2)
    ps = action.graph.all_paths(2)
    for t in suite:
        for p in ps:
            assert conj_idempotent(action, t, p) == oracle_conj(action, t, p)


def test_conj_idempotent_is_idempotent(fix):
    action = fix("four_loop_z2").action
    for t in small_suite(action, 2):
        for p in action.graph.all_paths(2):
            assert is_idempotent(action, conj_idempotent(action, t, p))


def test_order_is_a_partial_order(fix):
    action = fix("entrance_free_loop").action
    suite = small_suite(action, 2)
    for s in suite:
        assert leq(action, s, s)
    for s, t in itertools.product(suite, repeat=2):
        if leq(action, s, t) and leq(action, t, s):
            assert s == t
    for s, t, u in itertools.product(suite, repeat=3):
        if leq(action, s, t) and leq(action, t, u):
            assert leq(action, s, u)


def test_idempotent_order_mirrors_prefix_order(fix):
    action = fix("four_loop_z2").action
    graph = action.graph
    from selfsim.graphs import is_prefix
    for p in graph.all_paths(2):
        for q in graph.all_paths(2):
            assert leq(action, idempotent(action, q),
                       idempotent(action, p)) == is_prefix(p, q)


# -- S0 and S00 ---------------------------------------------------------------


def test_in_s00_membership(fix):
    action = fix("four_loop_z2").action
    graph = action.graph
    for p in graph.all_paths(2):
        assert in_S00(action, idempotent(action, p))
    s = make(action, graph.path(["b"]), "0", graph.path(["a"]))
    # b = 1·a with restriction 1|_a = 0, so (b, 0, a) is represented
    assert in_S00(action, s)
    t = make(action, graph.path(["b"]), "1", graph.path(["a"]))
    # would need h with h·a = b and h|_a = 1; only h = 1 moves a, giving 0
    assert not in_S00(action, t)
    assert not in_S00(action, make(action, graph.path(["e", "e"]), "0",
                                   graph.path(["e"])))  # degree 1
    for s in small_suite(action, 1):
        if not is_zero(s) and in_S00(action, s):
            assert in_S0(s)


def test_in_s00_on_a_model_answers_as_the_explicit_action_or_refuses():
    """The units-only model of zn_rotation(3) asserts unit_reflecting and
    orbit_complete.  Its True answers are the explicit action's, and the
    degree-zero triples no unit rewrites are refused: (x1, c0, x2) and
    (x2, c0, x1) hold explicitly (c2 and c1 rewrite them), so a False there
    would be unsound."""
    full = zn_rotation(3)
    units = {k: v for (k, v) in full.edge_action.items() if k[0] == "c0"}
    sub = act.SelfSimilarAction(
        full.graph,
        BehavioralModel.from_states(
            ["v"], [("c0", "v", "v", True)],
            {"unit_reflecting": True, "orbit_complete": True}),
        units, {k: full.restriction[k] for k in units})
    assert sub.validate() == []
    suite = elements_up_to(sub, 1)
    refused = set()
    for s in suite:
        try:
            assert in_S00(sub, s) == in_S00(full, s)
        except RequiresExplicitError:
            refused.add((str(s.alpha), str(s.beta)))
    assert len(suite) == 16
    assert refused == {("x%d" % a, "x%d" % b) for a in range(3)
                       for b in range(3) if a != b}
    assert in_S00(full, make(full, full.graph.path(["x1"]), "c0",
                             full.graph.path(["x2"])))


# -- fixedness of idempotents -------------------------------------------------


def _acyclic(graph):
    return not act.cycle_nodes({v: [(e.name, e.src) for e in graph.received_by(v)]
                                for v in graph.vertices})


@pytest.mark.parametrize("name", ["entrance_free_loop", "two_edges",
                                  "twisted_three_spoke", "not_exel_pardo",
                                  "acyclic-random"])
def test_fixed_by_matches_bounded_sweep_exactly(fix, random_actions, name):
    # these graphs branch little enough that a depth-8 sweep is decisive;
    # on the acyclic graphs of the random pool (each with a source) every
    # extension ends at a source within it
    if name == "acyclic-random":
        pool = [a for a in random_actions if _acyclic(a.graph)]
        assert len(pool) >= 5
    else:
        pool = [fix(name).action]
    for action in pool:
        explicit = action.groupoid.kind == "explicit"
        suite = [s for s in small_suite(action, 2) if not is_zero(s)]
        if not explicit:
            # star needs inverses, so a behavioral model only decides the
            # normalized shapes; the longer-alpha ones refuse loudly
            longer = [s for s in suite if len(s.alpha.edges) > len(s.beta.edges)]
            suite = [s for s in suite if len(s.alpha.edges) <= len(s.beta.edges)]
            if longer:
                with pytest.raises(RequiresExplicitError):
                    fixed_by(action, longer[0],
                             action.graph.path((), base=longer[0].beta.base))
        ps = action.graph.all_paths(2)
        for t in suite:
            for p in ps:
                depth = len(p.edges) + 8
                breaker = oracle_fixed_breaker_structural(action, t, p, depth)
                if explicit:
                    assert breaker == oracle_fixed_breaker(action, t, p, depth)
                assert fixed_by(action, t, p) == (breaker is None), \
                    (name, str(t), str(p), breaker and str(breaker))


def test_fixed_by_ends_a_corridor_at_a_source_only_on_unvalidated_tables():
    """On a valid action no corridor reaches a source: the restriction
    there would join the source to a vertex that receives an edge.  Here
    g joins the source s to v, which receives x, and nothing acts for
    g^-1; t = (v, g, x) leaves the corridor at s at once, and the sweep is
    exhaustive, since every extension of x ends at s."""
    graph = DirectedGraph(["s", "v"], [("x", "s", "v")])
    gpd = ExplicitGroupoid(
        ["s", "v"], [("us", "s", "s"), ("uv", "v", "v"), ("g", "s", "v"),
                     ("gi", "v", "s")],
        {"s": "us", "v": "uv"},
        {("us", "us"): "us", ("uv", "uv"): "uv", ("g", "us"): "g",
         ("uv", "g"): "g", ("gi", "uv"): "gi", ("us", "gi"): "gi",
         ("g", "gi"): "uv", ("gi", "g"): "us"},
        {"us": "us", "uv": "uv", "g": "gi", "gi": "g"})
    action = SelfSimilarAction(graph, gpd, {("uv", "x"): "x"},
                               {("uv", "x"): "us"})
    assert action.validate() != []
    t = make(action, graph.path((), base="v"), "g", graph.path(["x"]))
    p = graph.path(["x"])
    assert fixed_by(action, t, p)
    assert oracle_fixed_breaker(action, t, p, 8) is None


def test_fixed_by_agrees_with_sweep_on_branching_fixture(fix):
    # full equality is checked one-directionally here: a found breaker
    # forces False, and True forbids breakers in range
    action = fix("four_loop_z2").action
    suite = [s for s in small_suite(action, 1) if not is_zero(s)]
    ps = action.graph.all_paths(1)
    for t in suite:
        for p in ps:
            got = fixed_by(action, t, p)
            breaker = oracle_fixed_breaker(action, t, p, len(p.edges) + 5)
            if breaker is not None:
                assert not got, (str(t), str(p), str(breaker))
            if got:
                assert breaker is None


def test_fixed_by_pinned_cases(fix):
    action = fix("four_loop_z2").action
    graph = action.graph
    v = graph.path((), base="v")
    one = make(action, v, "1", v)
    # 1 swaps a and b, so conjugating f_a by it lands on f_b: not fixed
    assert not fixed_by(action, one, graph.path(["a"]))
    # but 1 fixes e with restriction 1, and 1 fixes f with restriction 0,
    # and every extension of f stays fixed (the restriction is the kernel
    # element 0), so f_f is fixed
    assert fixed_by(action, one, graph.path(["f"]))
    # f_e: extensions ea/eb get swapped by the restriction 1
    assert not fixed_by(action, one, graph.path(["e"]))
    assert fixed_by(action, idempotent(action, v), graph.path(["a"]))
    assert not fixed_by(action, ZERO, graph.path(["a"]))


# -- unitary order ideal == pseudo-freeness ----------------------------------


@pytest.mark.parametrize("name", FIXTURES)
def test_estar_unitary_matches_definition_and_freeness(fix, name):
    """E*-unitary (checked by bounded sweep) iff pseudo-free."""
    action = fix(name).action
    v = act.pseudo_free(action)
    cx = oracle_order_counterexample(action, 2, 3)
    if v.status == "Fails":
        assert cx is not None
        s, f = cx
        assert leq(action, f, s) and not is_idempotent(action, s)
    else:
        assert cx is None


def test_estar_unitary_on_random_actions(random_actions):
    for action in random_actions[:12]:
        v = act.pseudo_free(action)
        cx = oracle_order_counterexample(action, 1, 2)
        if cx is not None:
            assert v.status == "Fails"
        if v.status != "Fails":
            assert cx is None
