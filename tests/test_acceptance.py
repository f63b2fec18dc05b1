"""Acceptance gate: one test per shipped criterion.

Each test is a single pass/fail line under `pytest -v`.  The brute-force
reference implementations here are deliberately literal — straight
enumeration with declared length bounds — so the library answers are
measured against definitions, not against themselves.
"""

import bisect
import collections.abc
import itertools
import json
import random
import time

import pytest

from selfsim import actions as act_mod
from selfsim import cli, germs
from selfsim import semigroup as sg
from selfsim import twists
from selfsim.actions import point_from_json
from selfsim.conditions import invariant_closure, run_report
from selfsim.systems import load_fixture

from conftest import EXPLICIT_FIXTURES, FIXTURES, is_idempotent, zn_rotation
from test_conditions import oracle_is_invariant, oracle_orbit_closure
from test_semigroup import oracle_order_counterexample


def statuses(name, scope="model"):
    report = run_report(load_fixture(name).action, name=name,
                        scope_mode=scope)
    conds = {k: v["status"] for (k, v) in report["conditions"].items()}
    derived = {k: v["status"] for (k, v) in report["derived"].items()}
    return report, conds, derived


def periodic_points(graph, limit=20):
    """Deterministic sample of eventually periodic boundary points."""
    out, seen = [], set()
    paths = graph.all_paths(3)
    cycles = [p for p in paths
              if p.edges and graph.path_src(p) == p.base]
    for cyc in cycles:
        for pre in paths:
            if pre.edges and graph.path_src(pre) != cyc.base:
                continue
            data = {"prefix": list(pre.edges), "period": list(cyc.edges)}
            if not pre.edges:
                data["base"] = cyc.base
            x = point_from_json(graph, data)
            if str(x) not in seen:
                seen.add(str(x))
                out.append(x)
            if len(out) >= limit:
                return out
    return out


# ---------------------------------------------------------------------------
# 1. Fixture reproduction.


def test_1a_not_exel_pardo_matches_the_stated_table():
    _, conds, derived = statuses("not_exel_pardo")
    assert conds["Fin"] == "Fails"
    assert conds["Sla"] == "Fails"
    assert conds["Rec"] == "Fails"
    assert conds["Evr"] == "HoldsOnModel"
    assert conds["Cyc"] == "Holds"
    assert conds["Min"] == "Holds"
    assert conds["Con"] == "Holds"
    assert derived["TopFreeTight"] == "HoldsOnModel"
    assert derived["EffectiveS"] == "Fails"


def test_1b_two_edges_matches_the_stated_table():
    _, conds, derived = statuses("two_edges")
    assert conds["Evr"] == "HoldsOnModel"
    assert conds["Cyc"] == "Holds"
    assert conds["Rec"] == "Fails"
    assert derived["TopFreeTight"] == "HoldsOnModel"
    assert derived["TopFreeCore"] == "HoldsOnModel"
    assert derived["TopFreeUniversal"] == "Fails"


def test_1c_entrance_free_loop_matches_the_stated_table():
    report, conds, derived = statuses("entrance_free_loop")
    assert conds["Cyc"] == "Fails"
    assert report["conditions"]["Cyc"]["witness"]["path"] == ["f"]
    assert conds["Evr"] == "Holds"
    assert conds["Rec"] == "Holds"
    assert derived["TopFreeTight"] == "Fails"
    assert derived["TopFreeUniversal"] == "Holds"


def test_1d_four_loop_z2_core_and_nucleus_facts():
    action = load_fixture("four_loop_z2").action
    graph = action.graph
    _, conds, _ = statuses("four_loop_z2")
    assert conds["Fin"] == "Fails"

    free = act_mod.pseudo_free(action)
    assert free.status == "Fails"
    assert free.witness == {"element": "1", "edge": "f"}

    triple = sg.make(action, graph.path(["a"]), "1", graph.path(["b"]))
    for n in range(1, 5):
        x = point_from_json(graph, {"prefix": ["e"] * n, "period": ["f"]})
        assert germs.in_core(action, germs.make_germ(action, triple, x))
    einf = point_from_json(graph, {"prefix": [], "period": ["e"]})
    assert not germs.in_core(action, germs.make_germ(action, triple, einf))

    assert germs.xbar(action, einf)["size"] == 2
    assert set(act_mod.nucleus(action)) == {"0", "1"}


def test_1e_twisted_three_spoke_twist_facts():
    system = load_fixture("twisted_three_spoke")
    twist, graph = system.twist, system.action.graph
    assert twists.validate_twist(twist) == []
    for n in range(6):
        p = graph.path(["e"] * n + ["em1"])
        assert (twist.fraction(twists.extend_bowtie(twist, "1", p))
                == twists.phase("1/2"))
    out = twists.verify_omega_cocycle(twist, 3)
    assert out["ok"] is True
    assert out["failures"] == []


# ---------------------------------------------------------------------------
# 2. Oracle equivalences.


def _unit_reachable(action, state):
    """Can the fixed-edge walk from this state ever restrict to a unit?"""
    gpd, graph = action.groupoid, action.graph
    seen, stack = set(), [state]
    while stack:
        s = stack.pop()
        if s in seen:
            continue
        seen.add(s)
        for e in graph.received_by(gpd.src(s)):
            if action.act_edge(s, e.name) != e.name:
                continue
            r = action.restrict_edge(s, e.name)
            if gpd.is_unit(r):
                return True
            stack.append(r)
    return False


def brute_minimal_fixed(action, g):
    """Literal path enumeration to length 2·|elements|+2: grow only fixed
    branches and stop a branch at a unit restriction.  A branch still alive
    at the bound has pumped a state cycle; the answer is infinite exactly
    when such a branch can still reach a unit."""
    gpd, graph = action.groupoid, action.graph
    bound = 2 * len(gpd.elements()) + 2
    if gpd.is_unit(g):
        return "finite", {graph.path((), base=gpd.src(g))}
    minimal, alive = set(), [(g, gpd.src(g), ())]
    for _ in range(bound):
        nxt = []
        for (state, vertex, word) in alive:
            for e in graph.received_by(vertex):
                if action.act_edge(state, e.name) != e.name:
                    continue
                r = action.restrict_edge(state, e.name)
                grown = word + (e.name,)
                if gpd.is_unit(r):
                    minimal.add(graph.path(list(grown)))
                else:
                    nxt.append((r, e.src, grown))
        alive = nxt
        if not alive:
            break
    infinite = any(_unit_reachable(action, state) for (state, _, _) in alive)
    return ("infinite" if infinite else "finite"), minimal


def test_2a_minimal_fixed_matches_brute_force(random_actions):
    pool = [load_fixture(n).action for n in FIXTURES] + list(random_actions)
    assert len(pool) >= 55
    for action in pool:
        for g in action.groupoid.elements():
            got = act_mod.minimal_strongly_fixed(action, g)
            status, paths = brute_minimal_fixed(action, g)
            assert got.status == status
            if status == "finite":
                assert set(got.paths) == paths


@pytest.mark.parametrize("name", EXPLICIT_FIXTURES)
def test_2b_pseudo_free_iff_estar_unitary(name):
    """PseudoFree against the definition of E*-unitary: a bounded sweep for
    a non-idempotent above a nonzero idempotent, and a replay of the
    witness (g, e) as one such pair, f_e <= (src g, g, src g)."""
    action = load_fixture(name).action
    free = act_mod.pseudo_free(action)
    cx = oracle_order_counterexample(action, 2, 3)
    assert (free.status == "Fails") == (cx is not None)
    if free.status == "Fails":
        graph, g = action.graph, free.witness["element"]
        v = graph.path((), base=action.groupoid.src(g))
        s = sg.make(action, v, g, v)
        f = sg.idempotent(action, graph.path([free.witness["edge"]]))
        assert sg.leq(action, f, s) and not is_idempotent(action, s)


@pytest.mark.parametrize("name", FIXTURES)
def test_2c_invariant_closure_is_minimal_by_subset_search(name):
    action = load_fixture(name).action
    assert len(action.graph.vertices) <= 5
    classes = oracle_orbit_closure(action.groupoid)
    for v in action.graph.vertices:
        closure = invariant_closure(action, v)
        assert v in closure
        assert oracle_is_invariant(action, classes, closure)
        for k in range(len(closure)):
            for combo in itertools.combinations(sorted(closure), k):
                h = set(combo)
                if v in h:
                    assert not oracle_is_invariant(action, classes, h)


def test_2d_fin_implies_empty_singular_decompositions():
    exercised = 0
    for name in FIXTURES:
        action = load_fixture(name).action
        _, conds, _ = statuses(name)
        if conds["Fin"] != "Holds":
            continue
        for x in periodic_points(action.graph):
            classes, _ = germs.singular_decompositions(action, x)
            assert classes == []
            exercised += 1
    assert exercised >= 2


def test_2e_xbar_bounded_by_nucleus():
    exercised = 0
    for name in EXPLICIT_FIXTURES:
        action = load_fixture(name).action
        if any(action.graph.is_source(v) for v in action.graph.vertices):
            continue
        bound = len(act_mod.nucleus(action))
        for x in periodic_points(action.graph):
            assert germs.xbar(action, x)["size"] <= bound
            exercised += 1
    assert exercised >= 10


# ---------------------------------------------------------------------------
# 3. Algebraic law suites.


def _semigroup_laws(action, suite, rng=None, assoc_cap=None):
    """The inverse-semigroup laws over suite.  Products are memoized per
    pair, so each distinct product comes from sg.mul exactly once."""
    zero, products = sg.ZERO, {}

    def mul(a, b):
        if (a, b) not in products:
            products[a, b] = sg.mul(action, a, b)
        return products[a, b]

    for s in suite:
        star_s = sg.star(action, s)
        assert sg.star(action, star_s) == s
        assert mul(mul(s, star_s), s) == s
        assert mul(s, zero) == zero
        assert mul(zero, s) == zero
    idems = [s for s in suite if mul(s, s) == s]
    for e in idems:
        for f in idems:
            assert mul(e, f) == mul(f, e)
    triples = list(itertools.product(suite, repeat=3))
    if assoc_cap is not None and len(triples) > assoc_cap:
        triples = rng.sample(triples, assoc_cap)
    for (a, b, c) in triples:
        left = mul(mul(a, b), c)
        right = mul(a, mul(b, c))
        assert left == right
        assert sg.star(action, mul(a, b)) == mul(sg.star(action, b),
                                                  sg.star(action, a))


class TriplesUpTo(collections.abc.Sequence):
    """sg.elements_up_to(action, bound), in its order, read by index
    without building the triples: one block per element g, and in it
    alpha, then beta, over the paths with source rng(g) and src(g).  At
    bound 5 four_loop_z2 has 3,726,450 triples; random.sample reads only
    the length and the indices it draws, so it draws the same sample from
    this view as from the list."""

    def __init__(self, action, bound):
        gpd, graph = action.groupoid, action.graph
        by_src = {}
        for q in graph.all_paths(bound):
            by_src.setdefault(graph.path_src(q), []).append(q)
        self.blocks, self.starts, n = [], [], 0
        for g in gpd.elements():
            alphas = by_src.get(gpd.rng(g), [])
            betas = by_src.get(gpd.src(g), [])
            self.blocks.append((g, alphas, betas))
            self.starts.append(n)
            n += len(alphas) * len(betas)
        self.size = n

    def __len__(self):
        return self.size

    def __getitem__(self, i):
        if not 0 <= i < self.size:
            raise IndexError(i)
        # the last block starting at or before i, which is never empty
        k = bisect.bisect_right(self.starts, i) - 1
        g, alphas, betas = self.blocks[k]
        a, b = divmod(i - self.starts[k], len(betas))
        return sg.Triple(alphas[a], g, betas[b])


def test_the_triple_view_is_elements_up_to():
    for name in ("four_loop_z2", "entrance_free_loop", "two_edges"):
        action = load_fixture(name).action
        for bound in range(4):
            assert list(TriplesUpTo(action, bound)) == sg.elements_up_to(
                action, bound)


def test_3_semigroup_laws_exhaustive_at_bound_three():
    action = load_fixture("entrance_free_loop").action
    suite = sg.elements_up_to(action, 3)
    assert len(suite) >= 40
    _semigroup_laws(action, suite)


def test_3_semigroup_laws_randomized_at_bound_five():
    rng = random.Random(20260814)
    action = load_fixture("four_loop_z2").action
    suite = rng.sample(TriplesUpTo(action, 5), 60)
    _semigroup_laws(action, suite, rng=rng, assoc_cap=4000)


def test_3_germ_groupoid_laws():
    action = load_fixture("four_loop_z2").action
    graph = action.graph
    points = [point_from_json(graph, {"prefix": [], "period": ["e"]}),
              point_from_json(graph, {"prefix": [], "period": ["f"]}),
              point_from_json(graph, {"prefix": ["a"], "period": ["e"]})]
    pool = []
    for s in sg.elements_up_to(action, 1):
        for x in points:
            try:
                pool.append(germs.make_germ(action, s, x))
            except germs.GermError:
                continue
    assert len(pool) >= 20
    for a in pool:
        inv = germs.germ_inv(action, a)
        assert germs.germ_eq(action, germs.germ_inv(action, inv), a)
        unit = germs.germ_mul(action, a, inv)
        assert germs.classify(action, unit)["kind"] == "unit"
    composable = [(a, b) for a in pool for b in pool
                  if germs.source_point(action, a)
                  == germs.range_point(action, b)]
    assert len(composable) >= 40
    for (a, b) in composable[:200]:
        ab = germs.germ_mul(action, a, b)
        assert (germs.source_point(action, ab)
                == germs.source_point(action, b))
    chains = [(a, b, c) for (a, b) in composable[:40]
              for (b2, c) in composable[:40] if b2 is b]
    assert len(chains) >= 40
    for (a, b, c) in chains[:120]:
        left = germs.germ_mul(action, germs.germ_mul(action, a, b), c)
        right = germs.germ_mul(action, a, germs.germ_mul(action, b, c))
        assert germs.germ_eq(action, left, right)


def test_3_phase_group_laws():
    """A twist stores phases as ints mod its scale: they satisfy the group
    laws there, and k -> k/scale is a group isomorphism onto the Fraction
    phases, taking sums to sums and negation to negation."""
    texts = ("0", "1/2", "1/3", "2/3", "1/4", "3/4", "1/6", "5/6")
    action = zn_rotation(3)
    pairs = [(g, h) for g in action.groupoid.elements()
             for h in action.groupoid.elements()][:len(texts)]
    tw = twists.Twist(action, [p + (t,) for (p, t) in zip(pairs, texts)])
    n, frac = tw.scale, tw.fraction
    samples = [tw.group(*p) for p in pairs]
    assert n == 12 and [frac(a) for a in samples] == \
        [twists.phase(t) for t in texts]
    assert len({frac(k) for k in range(n)}) == n and frac(0) == 0
    for a in samples:
        assert (a + (-a) % n) % n == 0
        assert frac(-a % n) == (-frac(a)) % 1
        for b in samples:
            assert (a + b) % n == (b + a) % n
            assert frac((a + b) % n) == (frac(a) + frac(b)) % 1
            for c in samples:
                assert ((a + b) % n + c) % n == (a + (b + c) % n) % n


def test_3_cocycle_identities_exhaustive_at_bound_three():
    system = load_fixture("twisted_three_spoke")
    out = twists.verify_omega_cocycle(system.twist, 3)
    assert out["ok"] is True
    assert out["checked"] > 50000
    trivial = twists.Twist(load_fixture("four_loop_z2").action)
    assert twists.verify_omega_cocycle(trivial, 1)["ok"] is True


# ---------------------------------------------------------------------------
# 4. Determinism, and the stated time budget.


@pytest.mark.parametrize("name", FIXTURES)
def test_4_reports_are_byte_identical_across_runs(capsys, name):
    outputs = []
    for _ in range(2):
        assert cli.main(["report", name]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    assert json.loads(outputs[0])["system"] == name


@pytest.mark.parametrize("name", FIXTURES)
def test_each_fixture_report_runs_in_under_five_seconds(name):
    start = time.perf_counter()
    run_report(load_fixture(name).action, name=name)
    assert time.perf_counter() - start < 5.0
