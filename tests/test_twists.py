"""Tests for circle-valued twists: phases, tables, bowtie extension, omega."""

import collections
import collections.abc
import random
from fractions import Fraction

import pytest

from selfsim import semigroup as sg
from selfsim import twists
from selfsim.actions import SelfSimilarAction
from selfsim.graphs import DirectedGraph, GraphError, is_prefix
from selfsim.groupoids import (ExplicitGroupoid, Groupoid, GroupoidError,
                               cyclic_group_table, group_bundle)
from selfsim.systems import (load_fixture, system_from_json, system_to_json,
                             twist_to_json, validate_system)
from selfsim.twists import (
    Twist,
    TwistError,
    extend_bowtie,
    omega,
    phase,
    phase_str,
    validate_twist,
    verify_omega_cocycle,
)

from conftest import (EXPLICIT_FIXTURES, FIXTURES, random_action,
                      transformation_action, zn_rotation)


# ---------------------------------------------------------------------------
# Oracles.  They read each table entry as a Fraction through
# twist.fraction and add Fractions mod 1, so they are a reference for the
# int arithmetic mod twist.scale.  extend_bowtie is checked against a
# direct front-edge-first fold over the edge table; omega failures are
# replayed from the raw identity.


def fraction_of(twist, w):
    """A phase the library returned, as a Fraction; None stays None."""
    return None if w is None else twist.fraction(w)


def oracle_extend(action, twist, g, p):
    total = Fraction(0)
    state = g
    for name in p.edges:
        total = (total + twist.fraction(twist.edge(state, name))) % 1
        state = action.restrict_edge(state, name)
    return total


def oracle_omega_sides(action, twist, r, s, t):
    """Both sides of the cocycle identity, or None when a product is zero."""
    rs = sg.mul(action, r, s)
    st = sg.mul(action, s, t)
    if sg.is_zero(sg.mul(action, rs, t)):
        return None
    w = [twist.fraction(omega(twist, x, y))
         for (x, y) in ((s, t), (r, st), (r, s), (rs, t))]
    return (w[0] + w[1]) % 1, (w[2] + w[3]) % 1


def oracle_mul(action, s, t):
    """The product by its own two-case prefix split."""
    if sg.is_zero(s) or sg.is_zero(t):
        return sg.ZERO
    gpd, graph = action.groupoid, action.graph
    alpha, g, beta = s.alpha, s.g, s.beta
    gamma, h, delta = t.alpha, t.g, t.beta
    if is_prefix(beta, gamma):
        b1 = graph.tail_after(gamma, len(beta.edges))
        return sg.Triple(graph.concat(alpha, action.act_path(g, b1)),
                         gpd.mul(action.restrict_path(g, b1), h),
                         delta)
    if is_prefix(gamma, beta):
        g1 = graph.tail_after(beta, len(gamma.edges))
        hi = gpd.inv(h)
        r = action.restrict_path(hi, g1)
        return sg.Triple(alpha,
                         gpd.mul(g, gpd.inv(r)),
                         graph.concat(delta, action.act_path(hi, g1)))
    return sg.ZERO


def oracle_omega(twist, s, t, cases=None):
    """omega by its own two-case prefix split, as a Fraction; None on a
    zero product.  A Counter passed as cases counts (case, whether the
    group phase is nonzero)."""
    if sg.is_zero(s) or sg.is_zero(t):
        return None
    action = twist.action
    graph, gpd = action.graph, action.groupoid
    beta, gamma = s.beta, t.alpha
    if is_prefix(beta, gamma):
        b1 = graph.tail_after(gamma, len(beta.edges))
        case, group = 1, twist.group(action.restrict_path(s.g, b1), t.g)
        edge = oracle_extend(action, twist, s.g, b1)
    elif is_prefix(gamma, beta):
        g1 = graph.tail_after(beta, len(gamma.edges))
        hi = gpd.inv(t.g)
        k = gpd.inv(action.restrict_path(hi, g1))
        case, group = 2, twist.group(s.g, k)
        edge = oracle_extend(action, twist, t.g, action.act_path(hi, g1))
    else:
        return None
    if cases is not None:
        cases[case, group != 0] += 1
    return (twist.fraction(group) + edge) % 1


def _right_candidates(action, elements):
    """Index: for an element s, the t with mul(s,t) nonzero are those whose
    alpha leg is comparable with s.beta."""
    graph = action.graph
    exact = {}
    extends = {}
    for t in elements:
        exact.setdefault(t.alpha, []).append(t)
        p = t.alpha
        while True:
            extends.setdefault(p, []).append(t)
            if not p.edges:
                break
            p = graph.prefix(p, len(p.edges) - 1)

    def cands(s):
        out = list(extends.get(s.beta, ()))
        p = s.beta
        while p.edges:
            p = graph.prefix(p, len(p.edges) - 1)
            out.extend(exact.get(p, ()))
        return out

    return cands


def oracle_instances(twist, bound, cases=None):
    """Each counted instance (r, s, t, lhs, rhs) of the cocycle identity,
    from the oracles, unmemoized, over the literal candidate index
    _right_candidates, in verify_omega_cocycle's order; cases as for
    oracle_omega."""
    action = twist.action
    elements = sg.elements_up_to(action, bound)
    cands = _right_candidates(action, elements)
    for r in elements:
        for s in cands(r):
            rs = oracle_mul(action, r, s)
            if sg.is_zero(rs):
                continue
            for t in cands(s):
                st = oracle_mul(action, s, t)
                if sg.is_zero(st) or sg.is_zero(oracle_mul(action, rs, t)):
                    continue
                lhs = (oracle_omega(twist, s, t, cases)
                       + oracle_omega(twist, r, st, cases)) % 1
                rhs = (oracle_omega(twist, r, s, cases)
                       + oracle_omega(twist, rs, t, cases)) % 1
                yield r, s, t, lhs, rhs


def oracle_verify(twist, bound, cases=None):
    """verify_omega_cocycle's result, one instance at a time from
    oracle_instances."""
    checked, failures = 0, []
    for (r, s, t, lhs, rhs) in oracle_instances(twist, bound, cases):
        checked += 1
        if lhs == rhs:
            continue
        if len(failures) == 20:
            return {"ok": False, "checked": checked,
                    "failures": failures, "truncated": True}
        failures.append({"r": sg.to_json(r), "s": sg.to_json(s),
                         "t": sg.to_json(t), "lhs": phase_str(lhs),
                         "rhs": phase_str(rhs)})
    return {"ok": not failures, "checked": checked, "failures": failures}


def oracle_validate_twist(twist):
    """validate_twist as it scanned every pair of elements, kept literally:
    the composable pairs filtered from |G|², every k and every edge
    filtered again per pair.  Phases are Fractions summed mod 1."""
    action = twist.action
    gpd, graph = action.groupoid, action.graph

    def group(g, h):
        return twist.fraction(twist.group(g, h))

    def edge(g, e):
        return twist.fraction(twist.edge(g, e))

    bad = []
    for g in gpd.elements():
        lu = gpd.unit_at(gpd.rng(g))
        ru = gpd.unit_at(gpd.src(g))
        if group(lu, g) != 0 or group(g, ru) != 0:
            bad.append("group cocycle is not normalized at %r" % (g,))
    composable = [(g, h) for g in gpd.elements() for h in gpd.elements()
                  if gpd.src(g) == gpd.rng(h)]
    for (g, h) in composable:
        gh = gpd.mul(g, h)
        for k in gpd.elements():
            if gpd.src(h) != gpd.rng(k):
                continue
            lhs = (group(g, h) + group(gh, k)) % 1
            rhs = (group(h, k) + group(g, gpd.mul(h, k))) % 1
            if lhs != rhs:
                bad.append("group cocycle identity fails at (%r, %r, %r)"
                           % (g, h, k))
    edge_names = sorted(e.name for e in graph.edges)
    for e in edge_names:
        u = gpd.unit_at(graph.edge(e).rng)
        if edge(u, e) != 0:
            bad.append("edge phase at the unit is not 1 on %r" % (e,))
    for (g, h) in composable:
        gh = gpd.mul(g, h)
        for e in edge_names:
            if graph.edge(e).rng != gpd.src(h):
                continue
            he = action.act_edge(h, e)
            lhs = ((edge(h, e) - edge(gh, e)) % 1 + edge(g, he)) % 1
            rhs = ((-group(action.restrict_edge(g, he),
                           action.restrict_edge(h, e))) % 1
                   + group(g, h)) % 1
            if lhs != rhs:
                bad.append("edge compatibility fails at (%r, %r, %r)"
                           % (g, h, e))
    return bad


def random_twist(action, rng, orders=(6,)):
    """Seeded phases k/n, n drawn from orders, on every composable group
    pair and every (element, edge) pair; not a cocycle, only a table omega
    reads."""
    gpd, graph = action.groupoid, action.graph

    def draw():
        # a single order draws no choice, so seeds keep their tables
        n = rng.choice(orders) if len(orders) > 1 else orders[0]
        return Fraction(rng.randrange(n), n)

    group = [(g, h, draw()) for g in gpd.elements() for h in gpd.elements()
             if gpd.src(g) == gpd.rng(h)]
    edge = [(g, e.name, draw())
            for g in gpd.elements() for e in graph.received_by(gpd.src(g))]
    return Twist(action, group, edge)


def normalized_twist(action, rng, n=6):
    """Seeded phases k/n, 0 < k < n, on every composable pair of non-units
    and every (non-unit, edge) pair, and none at the units.  The identity
    then holds whenever r is a unit triple, so the check runs on into
    non-unit triples, and products of them, before it fails."""
    gpd, graph = action.groupoid, action.graph
    units = {gpd.unit_at(v) for v in graph.vertices}
    moving = [g for g in gpd.elements() if g not in units]

    def draw():
        return Fraction(rng.randrange(1, n), n)

    group = [(g, h, draw()) for g in moving for h in moving
             if gpd.src(g) == gpd.rng(h)]
    edge = [(g, e.name, draw())
            for g in moving for e in graph.received_by(gpd.src(g))]
    return Twist(action, group, edge)


def table_fractions(twist):
    """Every group and edge entry of the twist, as Fractions."""
    action = twist.action
    gpd, graph = action.groupoid, action.graph
    group = {(g, h): twist.fraction(twist.group(g, h)) for g in gpd.elements()
             for h in gpd.elements() if gpd.src(g) == gpd.rng(h)}
    edge = {(g, e.name): twist.fraction(twist.edge(g, e.name))
            for g in gpd.elements() for e in graph.received_by(gpd.src(g))}
    return group, edge


def z4_loop_action():
    """Z4 on a single loop, every restriction the element itself."""
    graph = DirectedGraph(["v"], [("e", "v", "v")])
    gpd = group_bundle(["v"], {"v": cyclic_group_table(4)})
    els = ["0", "1", "2", "3"]
    return SelfSimilarAction(
        graph,
        gpd,
        {(x, "e"): "e" for x in els},
        {(x, "e"): x for x in els},
    )


# ---------------------------------------------------------------------------
# Phases.


def test_phase_parses_and_reduces_mod_one():
    assert phase("2/3") == Fraction(2, 3)
    assert phase("5/3") == Fraction(2, 3)
    assert phase("-1/3") == Fraction(2, 3)
    assert phase(1) == Fraction(0)
    assert phase(Fraction(7, 4)) == Fraction(3, 4)


def sample_twist(texts):
    """zn_rotation(3) with the given phases on its group pairs, in order;
    returns the twist and the ints it stores for them."""
    action = zn_rotation(3)
    pairs = [(g, h) for g in action.groupoid.elements()
             for h in action.groupoid.elements()]
    tw = Twist(action, [p + (t,) for (p, t) in zip(pairs, texts)])
    return tw, [tw.group(*p) for p in pairs[:len(texts)]]


def test_phase_group_laws():
    """The stored ints form the group Z/scale, and k -> k/scale maps it
    one to one onto Fraction phases, sums to sums and negation to
    negation."""
    tw, samples = sample_twist(("0", "1/2", "1/3", "2/3", "3/4", "5/7"))
    n, frac = tw.scale, tw.fraction
    assert n == 84
    assert len({frac(k) for k in range(n)}) == n and frac(0) == 0
    for a in samples:
        assert 0 <= a < n
        assert (a + 0) % n == a and (a + (-a) % n) % n == 0
        assert frac(-a % n) == (-frac(a)) % 1
        for b in samples:
            assert (a + b) % n == (b + a) % n
            assert frac((a + b) % n) == (frac(a) + frac(b)) % 1
            for c in samples:
                assert ((a + b) % n + c) % n == (a + (b + c) % n) % n


def test_phase_str_round_trip():
    tw, samples = sample_twist(("0/1", "1/2", "2/3", "3/4"))
    for (s, k) in zip(("0/1", "1/2", "2/3", "3/4"), samples):
        assert phase_str(phase(s)) == s
        assert phase_str(tw.fraction(k)) == s


def test_phase_rejects_garbage():
    with pytest.raises(ValueError):
        phase("x")
    with pytest.raises(ValueError):
        phase("1/3/4")
    for flag in (True, False):
        with pytest.raises(TwistError):
            phase(flag)
    with pytest.raises(TwistError):
        Twist(load_fixture("four_loop_z2").action,
              edge_entries=[("1", "e", True)])


# ---------------------------------------------------------------------------
# Twist tables: defaults, json, and rejection of bad entries.


def test_twist_defaults_to_trivial_phases():
    action = load_fixture("four_loop_z2").action
    tw = Twist(action)
    assert tw.scale == 1
    assert tw.group("1", "1") == 0
    assert tw.edge("1", "e") == 0
    assert twist_to_json(tw) == {"sigma_G": [], "sigma_bowtie": []}
    assert validate_twist(tw) == []


def test_twist_json_lists_nonzero_entries():
    action = load_fixture("four_loop_z2").action
    tw = Twist(action, group_entries=[("0", "1", "1/3")], edge_entries=[("0", "e", "1/3")])
    assert twist_to_json(tw) == {"sigma_G": [["0", "1", "1/3"]],
                                 "sigma_bowtie": [["0", "e", "1/3"]]}
    assert tw.scale == 3
    assert tw.group("0", "1") == tw.edge("0", "e") == 1
    assert tw.fraction(tw.group("0", "1")) == Fraction(1, 3)


def test_twist_rejects_unknown_names():
    action = load_fixture("four_loop_z2").action
    with pytest.raises(GraphError):
        Twist(action, edge_entries=[("1", "nope", "1/2")])
    with pytest.raises(GroupoidError):
        Twist(action, group_entries=[("1", "gu", "1/2")])


def test_twist_rejects_noncomposable_entries():
    action = load_fixture("twisted_three_spoke").action
    with pytest.raises(TwistError):
        Twist(action, edge_entries=[("u1", "e", "1/2")])
    with pytest.raises(TwistError):
        Twist(action, group_entries=[("u1", "1", "1/2")])


def test_twist_queries_reject_noncomposable_pairs():
    """Twist.group and Twist.edge trust their pair, whose entries were
    checked when the twist was built; the queries check the pairs they
    meet.  With the hub element 0 named as the restriction along the spoke
    e1, the meet of s = (v, 0, v) and t = (e1, u1, e1) has (a, b) =
    (0, u1), which does not compose, on an action nobody validated."""
    tw = load_fixture("twisted_three_spoke").twist
    with pytest.raises(TwistError, match="'u1' does not act on path e"):
        extend_bowtie(tw, "u1", tw.action.graph.path(["e"]))
    doc = system_to_json(load_fixture("twisted_three_spoke"))
    rows = doc["action"]["restriction"]
    rows[rows.index(["0", "e1", "u1"])][2] = "0"
    bad = system_from_json(doc).twist
    s = sg.from_json(bad.action, {"alpha": [], "g": "0", "beta": []})
    t = sg.from_json(bad.action, {"alpha": ["e1"], "g": "u1", "beta": ["e1"]})
    with pytest.raises(TwistError, match=r"\('0', 'u1'\) is not composable"):
        omega(bad, s, t)


def test_twist_requires_an_explicit_model():
    action = load_fixture("two_edges").action
    with pytest.raises(TwistError):
        Twist(action)


# ---------------------------------------------------------------------------
# validate_twist: the bundled twist is valid; planted defects are named.


def test_bundled_twist_is_valid():
    assert validate_twist(load_fixture("twisted_three_spoke").twist) == []


def test_validate_names_unnormalized_group_entry():
    action = load_fixture("four_loop_z2").action
    tw = Twist(action, group_entries=[("0", "1", "1/3")])
    msgs = validate_twist(tw)
    assert "group cocycle is not normalized at '1'" in msgs


def test_validate_names_broken_group_identity():
    tw = Twist(z4_loop_action(), group_entries=[("1", "1", "1/4")])
    msgs = validate_twist(tw)
    assert "group cocycle identity fails at ('1', '1', '2')" in msgs
    assert all("normalized" not in m for m in msgs)


def test_validate_names_bad_unit_edge_phase():
    action = load_fixture("four_loop_z2").action
    tw = Twist(action, edge_entries=[("0", "e", "1/3")])
    msgs = validate_twist(tw)
    assert "edge phase at the unit is not 1 on 'e'" in msgs


def test_validate_names_broken_edge_compatibility():
    action = load_fixture("four_loop_z2").action
    tw = Twist(action, edge_entries=[("1", "e", "1/3")])
    assert validate_twist(tw) == ["edge compatibility fails at ('1', '1', 'e')"]


def test_validate_twist_matches_the_literal_scan():
    """The problems of validate_twist, order included, equal the literal
    scan's: on the bundled twist, and on a trivial and a seeded random
    twist of four_loop_z2 and zn_rotation(3..4), each with every single
    phase moved by 1/7."""
    rng = random.Random(20261021)
    bundled = load_fixture("twisted_three_spoke").twist
    cases = [bundled]
    for action in (load_fixture("four_loop_z2").action, zn_rotation(3),
                   zn_rotation(4)):
        cases += [Twist(action), random_twist(action, rng)]
    checked = 0
    for tw in cases:
        group, edge = table_fractions(tw)
        for (table, key) in [("group", k) for k in group] + \
                [("edge", k) for k in edge]:
            moved = {"group": dict(group), "edge": dict(edge)}
            moved[table][key] = (moved[table][key] + Fraction(1, 7)) % 1
            bad = Twist(tw.action,
                        [k + (v,) for (k, v) in moved["group"].items()],
                        [k + (v,) for (k, v) in moved["edge"].items()])
            expected = oracle_validate_twist(bad)
            assert expected and validate_twist(bad) == expected, (table, key)
            checked += 1
        assert validate_twist(tw) == oracle_validate_twist(tw)
    assert checked == (6 + 6) + 2 * ((4 + 8) + (9 + 9) + (16 + 16))


def coboundary_twist(action, rng, n=6):
    """The coboundary of seeded phases f = k/n on the non-units and on the
    edges, 0 at the units: sigma_G(g, h) = f(g) + f(h) - f(gh) and
    sigma_bowtie(g, e) = f(g) + f(e) - f(g·e) - f(g|_e).  On a valid
    action it is a valid twist, with its class trivial."""
    gpd, graph = action.groupoid, action.graph
    f = {g: Fraction(0 if gpd.is_unit(g) else rng.randrange(n), n)
         for g in gpd.elements()}
    fe = {e.name: Fraction(rng.randrange(n), n) for e in graph.edges}
    group = [(g, h, (f[g] + f[h] - f[gpd.mul(g, h)]) % 1)
             for g in gpd.elements() for h in gpd.elements()
             if gpd.src(g) == gpd.rng(h)]
    edge = [(g, e.name, (f[g] + fe[e.name] - fe[action.act_edge(g, e.name)]
                         - f[action.restrict_edge(g, e.name)]) % 1)
            for g in gpd.elements() for e in graph.received_by(gpd.src(g))]
    return Twist(action, group, edge)


def klein_bicharacter_twist():
    """Z2×Z2 fixing one loop, each element its own restriction, with
    sigma_G(x, y) = x1·y2/2 and sigma_bowtie(x, e) = x1/2.  A bicharacter
    is a cocycle, and an additive edge phase is compatible here.  The
    class is not trivial: a coboundary f(x) + f(y) - f(xy) on an abelian
    group is symmetric, and sigma_G(10, 01) = 1/2 != sigma_G(01, 10)."""
    graph = DirectedGraph(["v"], [("e", "v", "v")])
    names = ["00", "01", "10", "11"]

    def xor(x, y):
        return "%d%d" % (int(x[0]) ^ int(y[0]), int(x[1]) ^ int(y[1]))

    gpd = group_bundle(["v"], {"v": {
        "elements": names, "unit": "00",
        "mul": {(x, y): xor(x, y) for x in names for y in names}}})
    action = SelfSimilarAction(graph, gpd, {(x, "e"): "e" for x in names},
                               {(x, "e"): x for x in names})
    return Twist(action,
                 [(x, y, Fraction(int(x[0]) * int(y[1]), 2))
                  for x in names for y in names],
                 [(x, "e", Fraction(int(x[0]), 2)) for x in names])


def test_validate_twist_on_generators_matches_the_literal_scan():
    """On valid twists validate_twist checks the identities at the
    non-unit generators only, and rescans every middle on a failure.  The
    twists: coboundaries on four_loop_z2, zn_rotation(3..4),
    transformation_action() and eight seeded random actions; the two
    golden twists; and the Klein bicharacter, whose class is not trivial.
    Each is valid, and each single entry moved by 1/7 and by 1/2 gives
    exactly the literal scan's problems, order included.  A move by 1/2
    can give another valid twist (a Z2 character on the edges, say).

    One more input breaks normalization on its own: the edge phase at the
    unit of a vertex that no non-unit meets, moved by 1/3 on every edge the
    vertex receives.  Its only compatibility failures have that unit as
    middle, so the scan must keep the units when normalization fails."""
    from test_golden import sevenths_and_elevenths

    rng = random.Random(20261019)
    actions = [load_fixture("four_loop_z2").action, zn_rotation(3),
               zn_rotation(4), transformation_action()]
    actions += [random_action(random.Random(300 + i)) for i in range(8)]
    cases = [coboundary_twist(action, rng) for action in actions]
    cases += [load_fixture("twisted_three_spoke").twist,
              sevenths_and_elevenths().twist, klein_bicharacter_twist()]
    reached = collections.Counter()
    for tw in cases:
        assert tw.action.validate() == []
        assert validate_twist(tw) == oracle_validate_twist(tw) == []
        group, edge = table_fractions(tw)
        for (table, key) in [("group", k) for k in group] + \
                [("edge", k) for k in edge]:
            for step in (Fraction(1, 7), Fraction(1, 2)):
                moved = {"group": dict(group), "edge": dict(edge)}
                moved[table][key] = (moved[table][key] + step) % 1
                bad = Twist(tw.action,
                            [k + (v,) for (k, v) in moved["group"].items()],
                            [k + (v,) for (k, v) in moved["edge"].items()])
                expected = oracle_validate_twist(bad)
                assert validate_twist(bad) == expected, (table, key, step)
                # with both normalization scans clean, the generators run
                if not any("normalized" in p or "at the unit" in p
                           for p in expected):
                    for kind in ("identity", "compatibility"):
                        reached[kind] += any(kind in p for p in expected)
    assert min(reached.values()) >= 20, reached

    tw = cases[5]   # random_action(Random(301)): only units meet vertex p
    gpd, graph = tw.action.groupoid, tw.action.graph
    u = gpd.unit_at("p")
    group, edge = table_fractions(tw)
    for e in graph.received_by("p"):
        edge[(u, e.name)] += Fraction(1, 3)
    bad = Twist(tw.action, [k + (v,) for (k, v) in group.items()],
                [k + (v,) for (k, v) in edge.items()])
    expected = oracle_validate_twist(bad)
    assert [p for p in expected if "compatibility" in p] == [
        "edge compatibility fails at (%r, %r, %r)" % (u, u, e.name)
        for e in sorted(graph.received_by("p"), key=lambda e: e.name)]
    assert validate_twist(bad) == expected


def test_validate_twist_reads_subcubic_entries():
    """A valid coboundary twist on zn_rotation(32), |G| = |E| = n = 32,
    whose non-unit generator is c1: the literal scan reads sigma_G
    4·n³ + 2·n³ times and sigma_bowtie 3·n³ times.  With c1 as the middle
    and the n - 1 non-units as outer factors, validate_twist reads the
    phase rows as follows.
      - Normalization: sigma_G 2·n times, and sigma_bowtie at the unit
        once per edge, n times.
      - The identity at (g, c1, k), g and k outer: sigma_G(c1, k) once
        per k, sigma_G(g, c1) once per pair, sigma_G(gc1, k) and
        sigma_G(g, c1k) once per triple, 2·(n - 1) + 2·(n - 1)² =
        2·n·(n - 1) reads of sigma_G, where reading all four per triple
        made it 4·(n - 1)².
      - Compatibility at (g, c1, e), g outer: sigma_bowtie(c1, e) once per
        edge, sigma_G(g, c1) once per pair, then sigma_bowtie(gc1, e),
        sigma_bowtie(g, c1·e) and sigma_G(g|_{c1·e}, c1|_e) once per
        triple: n + 2·(n - 1)·n reads of sigma_bowtie, where three per
        triple made it 3·(n - 1)·n, and (n - 1) + (n - 1)·n of sigma_G,
        where two per triple made it 2·(n - 1)·n.
    In all sigma_G is read 2·n + 2·n·(n - 1) + (n - 1)·(n + 1) =
    3·n² - 1 times and sigma_bowtie 2·n² times."""
    from test_actions import counting_rows, row_reads

    n = 32
    tw = coboundary_twist(zn_rotation(n), random.Random(32))
    elements = tw.action.groupoid.elements()
    tw._group_rows = counting_rows(tw._group_rows, elements)
    tw._edge_rows = counting_rows(tw._edge_rows, elements)
    assert validate_twist(tw) == []
    assert row_reads(tw._group_rows) == 3 * n * n - 1
    assert row_reads(tw._edge_rows) == 2 * n * n


def test_the_phase_rows_hold_exactly_the_tables():
    """Each twist's rows hold exactly the entries handed to it, with a
    row, perhaps empty, for every element, and validate_twist leaves them
    so: the fixtures' twists, the Klein bicharacter, and trivial, random
    and coboundary twists of the fixtures and zn_rotation(3..6).  A twist
    handed its entries as a dict, as triples or as rows, as the loader
    hands them, has the same rows and scale."""
    from test_actions import _given_forms

    rng = random.Random(35)
    cases = [klein_bicharacter_twist()]
    for action in [load_fixture(name).action for name in EXPLICIT_FIXTURES] \
            + [zn_rotation(n) for n in range(3, 7)]:
        cases += [Twist(action), random_twist(action, rng),
                  coboundary_twist(action, rng)]
    cases += [load_fixture(name).twist for name in FIXTURES
              if load_fixture(name).twist is not None]
    for tw in cases:
        elements = set(tw.action.groupoid.elements())
        assert set(tw._group_rows) == set(tw._edge_rows) == elements
        tables = [{(g, x): phase_str(tw.fraction(k)) for (g, row) in rows.items()
                   for (x, k) in row.items()}
                  for rows in (tw._group_rows, tw._edge_rows)]
        for given in zip(*map(_given_forms, tables)):
            handed = Twist(tw.action, *given)
            for _ in range(2):
                assert (handed._group_rows, handed._edge_rows, handed.scale) \
                    == (tw._group_rows, tw._edge_rows, tw.scale)
                validate_twist(handed)


class _Unread(collections.abc.Mapping):
    """A (g, e) view of a table that refuses to be read at all."""

    def __getitem__(self, key):
        raise AssertionError("a table entry was read by its pair: %r" % (key,))

    def __iter__(self):
        raise AssertionError("a table was read by its pairs")

    def __len__(self):
        raise AssertionError("a table was read by its pairs")


def _refuse(*args):
    raise AssertionError("an entry was read through its accessor: %r"
                         % (args,))


def test_the_validation_scans_read_only_rows(monkeypatch):
    """validate_system and validate_twist read the tables as rows only:
    with the action's (g, e) views refusing every read, and the
    accessors that read one product, edge action, restriction or phase
    refusing too, each gives the problems it gives on an untouched copy.
    The inputs are the fixtures, the Klein bicharacter, coboundary twists
    of the fixtures and zn_rotation(3..5), and each of those twists with
    one phase moved."""
    def systems_and_twists():
        rng = random.Random(3535)
        for name in FIXTURES:
            yield load_fixture(name), None
        actions = [load_fixture(name).action for name in EXPLICIT_FIXTURES]
        actions += [zn_rotation(n) for n in range(3, 6)]
        twists_ = [klein_bicharacter_twist()]
        twists_ += [coboundary_twist(action, rng) for action in actions]
        for tw in twists_:
            group, edge = table_fractions(tw)
            key = sorted(edge)[0]
            edge[key] = (edge[key] + Fraction(1, 3)) % 1
            moved = Twist(tw.action, group, edge)
            yield None, tw
            yield None, moved

    def check(system, tw):
        if system is not None:
            return validate_system(system)
        return validate_twist(tw)

    cases = list(systems_and_twists())
    expected = [check(system, tw) for (system, tw) in cases]
    for view in ("edge_action", "restriction"):
        monkeypatch.setattr(SelfSimilarAction, view,
                            property(lambda self: _Unread()))
    for ((system, tw), want) in zip(cases, expected):
        twist = tw if system is None else system.twist
        action = (system or twist).action
        action.act_edge = action.restrict_edge = _refuse
        if action.groupoid.kind == "explicit":
            action.groupoid.mul = _refuse
        if twist is not None:
            twist.group = twist.edge = _refuse
        assert check(system, tw) == want
    assert sum(map(bool, expected)) >= 5


# ---------------------------------------------------------------------------
# extend_bowtie.


def test_extend_bowtie_matches_edge_fold():
    for name in ("twisted_three_spoke", "four_loop_z2"):
        system = load_fixture(name)
        action = system.action
        tw = system.twist if system.twist is not None else Twist(action)
        gpd = action.groupoid
        for p in action.graph.all_paths(3):
            for g in gpd.elements():
                if gpd.src(g) != p.base:
                    continue
                assert tw.fraction(extend_bowtie(tw, g, p)) == \
                    oracle_extend(action, tw, g, p)


def test_extend_bowtie_half_turn_on_spoke_paths():
    system = load_fixture("twisted_three_spoke")
    tw, graph = system.twist, system.action.graph
    for n in range(6):
        p = graph.path(["e"] * n + ["em1"])
        assert tw.fraction(extend_bowtie(tw, "1", p)) == Fraction(1, 2)
    assert extend_bowtie(tw, "1", graph.path(["e1"])) == 0
    assert extend_bowtie(tw, "1", graph.path([], base="v")) == 0


def test_extend_bowtie_rejects_base_mismatch():
    system = load_fixture("twisted_three_spoke")
    with pytest.raises(TwistError):
        extend_bowtie(system.twist, "1", system.action.graph.path([], base="w1"))


# ---------------------------------------------------------------------------
# omega.


def test_omega_pinned_half_turn():
    system = load_fixture("twisted_three_spoke")
    action, tw = system.action, system.twist
    graph, gpd = action.graph, action.groupoid
    s = sg.make(action, graph.path([], base="v"), "1", graph.path([], base="v"))
    t = sg.make(action, graph.path(["em1"]), gpd.unit_at("wm1"), graph.path(["em1"]))
    assert tw.fraction(omega(tw, s, t)) == Fraction(1, 2)


def test_omega_is_one_against_the_source_idempotent():
    system = load_fixture("twisted_three_spoke")
    action, tw = system.action, system.twist
    for s in sg.elements_up_to(action, 2):
        f = sg.mul(action, sg.star(action, s), s)
        assert omega(tw, s, f) == 0


def test_omega_is_none_on_zero_products():
    system = load_fixture("twisted_three_spoke")
    action, tw = system.action, system.twist
    graph, gpd = action.graph, action.groupoid
    f_e = sg.make(action, graph.path(["e1"]), gpd.unit_at("w1"), graph.path(["e1"]))
    f_f = sg.make(action, graph.path(["em1"]), gpd.unit_at("wm1"), graph.path(["em1"]))
    assert sg.is_zero(sg.mul(action, f_e, f_f))
    assert omega(tw, f_e, f_f) is None


def test_omega_idempotent_and_conjugation_clauses():
    system = load_fixture("twisted_three_spoke")
    action, tw = system.action, system.twist
    graph, gpd = action.graph, action.groupoid
    elements = sg.elements_up_to(action, 2)
    idems = [
        sg.make(action, p, gpd.unit_at(graph.path_src(p)), p)
        for p in graph.all_paths(3)
    ]
    for s in elements:
        star_s = sg.star(action, s)
        assert omega(tw, s, star_s) == omega(tw, star_s, s)
        ssrc = sg.mul(action, star_s, s)
        for e in idems:
            if not sg.is_zero(sg.mul(action, e, ssrc)) and sg.leq(action, ssrc, e):
                assert omega(tw, s, e) == 0
                assert omega(tw, e, star_s) == 0
            se = sg.mul(action, s, e)
            if not sg.is_zero(se):
                ses = sg.mul(action, se, star_s)
                assert omega(tw, s, e) == omega(tw, ses, s)
    for e in idems:
        for f in idems:
            if not sg.is_zero(sg.mul(action, e, f)):
                assert omega(tw, e, f) == 0


def test_omega_trivial_for_trivial_twist():
    action = load_fixture("four_loop_z2").action
    tw = Twist(action)
    for s in sg.elements_up_to(action, 1):
        for t in sg.elements_up_to(action, 1):
            if not sg.is_zero(sg.mul(action, s, t)):
                assert omega(tw, s, t) == 0


# ---------------------------------------------------------------------------
# verify_omega_cocycle.


def test_verify_omega_cocycle_on_bundled_twist():
    tw = load_fixture("twisted_three_spoke").twist
    out = verify_omega_cocycle(tw, 3)
    assert out["ok"] is True
    assert out["checked"] == 60032
    assert out["failures"] == []
    assert "truncated" not in out


def test_mul_and_omega_match_the_case_split_oracles():
    """Every pair at bound 2 on the bundled twist.  Under a seeded random
    twist on four_loop_z2 and zn_rotation(3..5): four seeded elements at
    bound 2 against every element there, on both sides, and on the first
    two also every pair at bound 1."""
    rng = random.Random(20261020)
    spoke = load_fixture("twisted_three_spoke")
    elements = sg.elements_up_to(spoke.action, 2)
    cases = [(spoke.twist, [(s, t) for s in elements for t in elements])]
    for (k, action) in enumerate([load_fixture("four_loop_z2").action] +
                                 [zn_rotation(n) for n in (3, 4, 5)]):
        small = sg.elements_up_to(action, 1) if k < 2 else []
        pairs = [(s, t) for s in small for t in small]
        big = sg.elements_up_to(action, 2)
        for s in rng.sample(big, 4):
            pairs += [(s, t) for t in big] + [(t, s) for t in big]
        cases.append((random_twist(action, rng), pairs))
    nonzero = 0
    for (tw, pairs) in cases:
        for (s, t) in pairs:
            st = sg.mul(tw.action, s, t)
            assert st == oracle_mul(tw.action, s, t), (s, t)
            assert fraction_of(tw, omega(tw, s, t)) == \
                oracle_omega(tw, s, t), (s, t)
            nonzero += not sg.is_zero(st)
    assert nonzero > 5000


def test_verify_omega_cocycle_matches_the_unmemoized_oracle():
    spoke = load_fixture("twisted_three_spoke")
    assert verify_omega_cocycle(spoke.twist, 2) == \
        {"ok": True, "checked": 10350, "failures": []}
    out = verify_omega_cocycle(spoke.twist, 1)
    assert out["checked"] > 100 and out == oracle_verify(spoke.twist, 1)
    broken = Twist(spoke.action, edge_entries=[("1", "em1", "1/2"),
                                               ("1", "e1", "1/3")])
    out = verify_omega_cocycle(broken, 1)
    assert out["failures"] and out == oracle_verify(broken, 1)
    four = load_fixture("four_loop_z2").action
    broken = Twist(four, edge_entries=[("1", "e", "1/3")])
    out = verify_omega_cocycle(broken, 1)
    assert out["truncated"] and out == oracle_verify(broken, 1)


def test_verify_omega_cocycle_matches_the_oracle_across_denominators():
    """The integer phases mod scale against Fraction arithmetic: seeded
    order-6 twists (phases 1/2, 1/3 and 1/6 mixed), a group table in halves
    with an edge table in thirds (scale 6, above each denominator), and the
    trivial twist (scale 1)."""
    rng = random.Random(20261019)
    four = load_fixture("four_loop_z2").action
    three = zn_rotation(3)
    for action in (four, three):
        tw = random_twist(action, rng)
        group, edge = table_fractions(tw)
        assert {f.denominator for f in (*group.values(), *edge.values())} \
            >= {2, 3, 6}
        out = verify_omega_cocycle(tw, 1)
        assert out["truncated"] and out == oracle_verify(tw, 1)
    mixed = Twist(four, [("0", "0", "1/2")], [("0", "a", "1/3")])
    out = verify_omega_cocycle(mixed, 1)
    assert out == oracle_verify(mixed, 1)
    assert any(f[side].endswith("/6") for f in out["failures"]
               for side in ("lhs", "rhs"))
    trivial = Twist(load_fixture("twisted_three_spoke").action)
    out = verify_omega_cocycle(trivial, 1)
    assert out["ok"] and out == oracle_verify(trivial, 1)


def test_verify_omega_cocycle_matches_the_oracle_in_both_prefix_cases():
    """Broken twists at bound 2: the bundled system's with two edge phases
    moved, the trivial twist on the bundled action with one edge phase of
    1/7, whose first 20 failures put candidates s of one r in two proper
    prefixes of its beta leg (so the prefixes must come longest first),
    and seeded order-6 twists on four_loop_z2 and zn_rotation(3).
    Seeded twists normalized at the units, with a nonzero sigma_G, on the
    same two at bound 1.  Both prefix cases are met, and case 2 (gamma a
    proper prefix of beta, phase sigma_G(g, (h⁻¹|_g1)⁻¹)) with a nonzero
    group phase on each normalized twist."""
    rng = random.Random(20261023)
    spoke = load_fixture("twisted_three_spoke")
    four = load_fixture("four_loop_z2").action
    three = zn_rotation(3)
    reached = collections.Counter()
    broken = [Twist(spoke.action, edge_entries=[("1", "em1", "1/2"),
                                                ("1", "e1", "1/3")]),
              Twist(spoke.action, edge_entries=[("1", "e", "1/7")])]
    for tw in broken + [random_twist(a, rng) for a in (four, three)]:
        out = verify_omega_cocycle(tw, 2)
        assert out["truncated"] and out == oracle_verify(tw, 2, reached)
    for action in (four, three):
        cases = collections.Counter()
        tw = normalized_twist(action, rng)
        out = verify_omega_cocycle(tw, 1)
        assert out["truncated"] and out == oracle_verify(tw, 1, cases)
        assert cases[2, True] > 0
        reached += cases
    assert all(reached[case, nonzero] for case in (1, 2)
               for nonzero in (False, True)), reached


def test_int_phases_match_the_fraction_oracles_across_orders():
    """Seeded tables mixing phases k/6, k/7 and k/10 (scale 210):
    extend_bowtie, omega, validate_twist and verify_omega_cocycle equal the
    Fraction oracles.  The trivial twist has scale 1, and a phase is one
    int however it is spelled."""
    rng = random.Random(20261022)
    four = load_fixture("four_loop_z2").action
    three = zn_rotation(3)
    for action in (four, three):
        tw = random_twist(action, rng, orders=(6, 7, 10))
        assert tw.scale == 210
        gpd = action.groupoid
        for p in action.graph.all_paths(2):
            for g in gpd.elements():
                if gpd.src(g) == p.base:
                    assert tw.fraction(extend_bowtie(tw, g, p)) == \
                        oracle_extend(action, tw, g, p)
        elements = sg.elements_up_to(action, 1)
        for s in elements:
            for t in elements:
                assert fraction_of(tw, omega(tw, s, t)) == \
                    oracle_omega(tw, s, t), (s, t)
        bad = validate_twist(tw)
        assert bad and bad == oracle_validate_twist(tw)
        out = verify_omega_cocycle(tw, 1)
        assert out["failures"] and out == oracle_verify(tw, 1)
    assert Twist(four).scale == 1
    tw = Twist(three, [("c1", "c1", "-2/6"), ("c2", "c2", "2/3"),
                       ("c1", "c2", "1/7")])
    assert tw.scale == 21
    assert tw.group("c1", "c1") == tw.group("c2", "c2") == 14


def verifier_work(monkeypatch, twist, bound):
    """(the (element, path) arguments of each fused walk, the number of
    meets) of one verify_omega_cocycle call.  The meets are the entries of
    the core rows: the memo tables held by another memo table."""
    walks, memos = [], []
    memo, walk = twists._Memo, twists._walk

    class Recording(memo):
        def __init__(self, fill):
            super().__init__(fill)
            memos.append(self)

    def counting(tw, g, q):
        walks.append((g, q))
        return walk(tw, g, q)

    with monkeypatch.context() as m:
        m.setattr(twists, "_walk", counting)
        m.setattr(twists, "_Memo", Recording)
        verify_omega_cocycle(twist, bound)
    return walks, sum(len(row) for table in memos for row in table.values()
                      if isinstance(row, memo))


def test_verify_omega_cocycle_meets_each_pair_once(monkeypatch):
    """The meets share their walks: at bound 2 on the bundled twist they
    walk 28 distinct (element, path) pairs, each once (meeting each pair
    afresh made 2,250 calls of each of the three walks this one fuses)."""
    spoke = load_fixture("twisted_three_spoke")
    walks, _ = verifier_work(monkeypatch, spoke.twist, 2)
    assert len(set(walks)) == len(walks) == 28


def test_verify_omega_cocycle_work_is_bounded_by_its_inputs(monkeypatch):
    """On the bundled twist at bounds 1-3 and coboundary twists on two
    sampled actions at bounds 1 and 2: the fused walks are at most the
    (element k, path q at src k) pairs with q no longer than 2·bound, the
    longest tail a meet can cut, and the meets at most the right halves
    times the left halves of the elements and of their nonzero products
    over the oracle's candidate pairs."""
    spoke = load_fixture("twisted_three_spoke")
    cases = [(spoke.twist, bound) for bound in (1, 2, 3)]
    for seed in (3, 4):
        action = random_action(random.Random(seed))
        tw = coboundary_twist(action, random.Random(seed))
        cases += [(tw, 1), (tw, 2)]
    for (tw, bound) in cases:
        action = tw.action
        gpd = action.groupoid
        tails = action.graph.all_paths(2 * bound)
        pairs = sum(gpd.src(k) == q.base for k in gpd.elements()
                    for q in tails)
        elements = sg.elements_up_to(action, bound)
        cands = _right_candidates(action, elements)
        rights = {(x.beta, x.g) for x in elements}
        lefts = {(x.alpha, x.g) for x in elements}
        for s in elements:
            for t in cands(s):
                st = oracle_mul(action, s, t)
                rights.add((st.beta, st.g))
                lefts.add((st.alpha, st.g))
        walks, meets = verifier_work(monkeypatch, tw, bound)
        assert len(walks) <= pairs, (bound, len(walks), pairs)
        assert meets <= len(rights) * len(lefts), (bound, meets)


def test_verify_omega_cocycle_reads_the_proved_tables(monkeypatch):
    """Once the system validates, the verifier reads the groupoid, action
    and twist tables directly: with every checked accessor raising, the
    bundled twist still verifies at bound 2."""
    spoke = load_fixture("twisted_three_spoke")
    assert validate_system(spoke) == []

    def refuse(*args):
        raise AssertionError("a checked accessor was called")

    with monkeypatch.context() as m:
        for name in ("act_edge", "restrict_edge", "act_path",
                     "restrict_path"):
            m.setattr(SelfSimilarAction, name, refuse)
        m.setattr(Groupoid, "_get", refuse)
        m.setattr(ExplicitGroupoid, "mul", refuse)
        m.setattr(ExplicitGroupoid, "inv", refuse)
        m.setattr(Twist, "group", refuse)
        m.setattr(Twist, "edge", refuse)
        m.setattr(twists, "extend_bowtie", refuse)
        out = verify_omega_cocycle(spoke.twist, 2)
    assert out == {"ok": True, "checked": 10350, "failures": []}


def test_verify_omega_cocycle_on_four_loop_z2_at_bound_2():
    """A half turn on one loop of four_loop_z2 is a valid twist; its
    26,915,112 instances at bound 2 fall into 61,032 classes."""
    action = load_fixture("four_loop_z2").action
    tw = Twist(action, [], [("1", "e", "1/2")])
    assert verify_omega_cocycle(tw, 2) == \
        {"ok": True, "checked": 26915112, "failures": []}


def test_verify_omega_cocycle_matches_the_oracle_on_untruncated_failures():
    """Seeded random twists on two sampled actions fail between 1 and 19
    times, so the verifier replays every failing class to its end and
    the count covers every instance."""
    for (i, n) in ((16, 16), (39, 10)):
        action = random_action(random.Random(100 + i))
        tw = random_twist(action, random.Random(i))
        out = verify_omega_cocycle(tw, 1)
        assert len(out["failures"]) == n and "truncated" not in out
        assert out == oracle_verify(tw, 1)


def test_verify_omega_cocycle_replays_failing_classes_per_triple():
    """The bundled system with two edge phases moved, at bound 1.  The
    21st failure, where the check stops, falls on an r that is not the
    first with its (beta, g), so every r of a failing class is replayed,
    not only the first; and one (r, s) up to it has a passing t between
    two failing t, so the failures and the count come out only from a
    replay in the triple loop's order."""
    spoke = load_fixture("twisted_three_spoke")
    tw = Twist(spoke.action, edge_entries=[("1", "em1", "1/2"),
                                           ("1", "e1", "1/3")])
    out = verify_omega_cocycle(tw, 1)
    assert out["truncated"] and out == oracle_verify(tw, 1)
    first = {}
    for x in sg.elements_up_to(spoke.action, 1):
        first.setdefault((x.beta, x.g), x)
    runs, failed = collections.defaultdict(str), 0
    for (r, s, _, lhs, rhs) in oracle_instances(tw, 1):
        runs[r, s] += "P" if lhs == rhs else "F"
        failed += lhs != rhs
        if failed == 21:
            break
    assert first[r.beta, r.g] != r
    assert any("P" in run.strip("P") for run in runs.values())


def test_verify_omega_cocycle_on_trivial_twist():
    action = load_fixture("four_loop_z2").action
    out = verify_omega_cocycle(Twist(action), 1)
    assert out["ok"] is True
    assert out["failures"] == []
    assert out["checked"] > 0


def test_broken_twist_fails_with_replayable_triples():
    action = load_fixture("four_loop_z2").action
    tw = Twist(action, edge_entries=[("1", "e", "1/3")])
    out = verify_omega_cocycle(tw, 1)
    assert out["ok"] is False
    assert out["truncated"] is True
    assert len(out["failures"]) == 20
    first = out["failures"][0]
    assert set(first) == {"r", "s", "t", "lhs", "rhs"}
    r = sg.from_json(action, first["r"])
    s = sg.from_json(action, first["s"])
    t = sg.from_json(action, first["t"])
    sides = oracle_omega_sides(action, tw, r, s, t)
    assert sides is not None
    lhs, rhs = sides
    assert phase_str(lhs) == first["lhs"]
    assert phase_str(rhs) == first["rhs"]
    assert lhs != rhs


def test_verify_checks_every_nonzero_triple_against_the_identity():
    system = load_fixture("twisted_three_spoke")
    action, tw = system.action, system.twist
    elements = sg.elements_up_to(action, 1)
    checked = 0
    for r in elements:
        for s in elements:
            if sg.is_zero(sg.mul(action, r, s)):
                continue
            for t in elements:
                sides = oracle_omega_sides(action, tw, r, s, t)
                if sides is None:
                    continue
                lhs, rhs = sides
                assert lhs == rhs
                checked += 1
    assert checked > 100
