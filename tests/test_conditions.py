"""Condition deciders, scope discipline, derived verdicts, reports.

The invariance oracle enumerates vertex subsets outright and checks the
closure clauses literally, so the library's fixpoint computation is
measured against the definition, not against itself.
"""

import collections
import itertools
import json
import random

import pytest

from selfsim import actions as act_mod
from selfsim import cli, germs, systems, verdicts
from selfsim import conditions as cond
from selfsim.actions import (SelfSimilarAction, boundary_points_from,
                             faithful, orbit_classes, point_to_json,
                             pseudo_free)
from selfsim.conditions import (check_con, check_contracting, check_cyc,
                                check_evr, check_fin, check_min, check_rec,
                                check_sla, combine, invariant_closure,
                                run_report)
from selfsim.graphs import DirectedGraph
from selfsim.groupoids import (BehavioralModel, ExplicitGroupoid,
                               cyclic_group_table, group_bundle)
from selfsim.systems import load_fixture
from selfsim.verdicts import fails, holds, holds_on_model, requires_explicit

from conftest import (FIXTURES, oracle_has_entrance, random_action,
                      strongly_fixes, zn_rotation)
from test_actions import (_CountingTable, fixed_chain, oracle_fixed_arrows,
                          oracle_fixes_all, oracle_sla_witness,
                          oracle_unit_reachable)


# -- oracles ----------------------------------------------------------------


def oracle_orbit_closure(groupoid):
    """Equivalence closure of the witnessed (src, rng) pairs, by repeated
    symmetric-transitive sweeps."""
    classes = {v: {v} for v in groupoid.vertices}
    pairs = set(groupoid.orbit_pairs())
    changed = True
    while changed:
        changed = False
        for (a, b) in pairs:
            merged = classes[a] | classes[b]
            for u in merged:
                if classes[u] != merged:
                    classes[u] = merged
                    changed = True
    return classes


def oracle_is_invariant(action, classes, h):
    """h is invariant: path-closed, orbit-closed, and saturated."""
    graph = action.graph
    for u in h:
        for e in graph.received_by(u):
            if e.src not in h:
                return False
        if not classes[u] <= h:
            return False
    for w in graph.vertices:
        if w in h or graph.is_source(w):
            continue
        if all(e.src in h for e in graph.received_by(w)):
            return False
    return True


def oracle_min_closure(action, v):
    """Smallest invariant vertex set containing v, by exhaustive search;
    invariant sets intersect to invariant sets, so the minimum is their
    intersection."""
    vs = sorted(action.graph.vertices)
    classes = oracle_orbit_closure(action.groupoid)
    best = None
    for k in range(len(vs) + 1):
        for combo in itertools.combinations(vs, k):
            h = set(combo)
            if v in h and oracle_is_invariant(action, classes, h):
                best = h if best is None else (best & h)
    return best


def oracle_check_cyc(action):
    """The literal scan: the path_key-least non-empty path of at most
    |vertices| edges that passes no entrance and closes up to the orbit
    relation, as a Cyc witness; None when there is none."""
    graph = action.graph
    classes = oracle_orbit_closure(action.groupoid)
    for p in graph.all_paths(len(graph.vertices)):
        if not p.edges or oracle_has_entrance(graph, p):
            continue
        src = graph.path_src(p)
        if src in classes[p.base]:
            return {"op": "has_entrance", "path": list(p.edges),
                    "src": src, "rng": p.base}
    return None


def oracle_entrance_cycle_base_points(action):
    """Base points of orbit-cycles with an entrance, by a search over every
    pair of (vertex, touched, moved) profiles: x is one when some q walks
    into x and x walks on to some p in q's orbit, the two walks together
    moving and touching a vertex that receives two edges."""
    graph = action.graph
    classes = oracle_orbit_closure(action.groupoid)
    in2 = {v: len(graph.received_by(v)) >= 2 for v in graph.vertices}

    def reach_profiles(a):
        out = set()
        stack = [(a, in2[a], False)]
        while stack:
            state = stack.pop()
            if state in out:
                continue
            out.add(state)
            (u, t, _) = state
            for e in graph.received_by(u):
                stack.append((e.src, t or in2[e.src], True))
        return out

    profiles = {v: reach_profiles(v) for v in graph.vertices}
    return {x for x in graph.vertices
            if any(u1 == x and p in classes[q] and (t1 or t2) and (m1 or m2)
                   for q in graph.vertices for (u1, t1, m1) in profiles[q]
                   for (p, t2, m2) in profiles[x])}


def oracle_check_fin(action):
    """The per-element loop: the first element, in elements() order, whose
    minimal strongly fixed paths are infinitely many gives the witness."""
    for g in action.groupoid.elements():
        res = act_mod.minimal_strongly_fixed(action, g)
        if not res.is_finite():
            witness = dict(res.witness)
            witness["op"] = "minimal_strongly_fixed"
            return witness
    return None


def oracle_path_reachable(graph, v):
    """Vertices reachable from v by following edges range-to-source."""
    out, stack = set(), [v]
    while stack:
        u = stack.pop()
        if u not in out:
            out.add(u)
            stack.extend(e.src for e in graph.received_by(u))
    return out


def oracle_invariant_closure(action, v):
    """The nested fixpoint: close under following paths and under the orbit
    relation, then add every saturated vertex, until nothing is added."""
    graph = action.graph
    classes = oracle_orbit_closure(action.groupoid)
    h, frontier = set(), {v}
    while frontier:
        while frontier:
            u = frontier.pop()
            for w in oracle_path_reachable(graph, u):
                for x in classes[w]:
                    if x not in h:
                        h.add(x)
                        frontier.add(x)
        for w in graph.vertices:
            if (w not in h and not graph.is_source(w)
                    and all(e.src in h for e in graph.received_by(w))):
                frontier.add(w)
    return h


def oracle_check_min(action):
    """The least vertex whose nested-fixpoint closure is proper."""
    vs = set(action.graph.vertices)
    for v in sorted(vs):
        closure = oracle_invariant_closure(action, v)
        if closure != vs:
            return {"op": "invariant_closure", "vertex": v,
                    "closure": sorted(closure)}
    return None


def oracle_check_con(action):
    """The per-vertex loop: the least vertex whose range-to-source walks
    miss every base point of an orbit-cycle with an entrance."""
    graph = action.graph
    base = oracle_entrance_cycle_base_points(action)
    for v in sorted(graph.vertices):
        if not (oracle_path_reachable(graph, v) & base):
            return {"op": "path_reachable_vertices", "vertex": v}
    return None


# -- ad-hoc systems ----------------------------------------------------------


def five_vertex_action():
    """Five vertices with a proper invariant closure: d is walled off
    behind its own loop while saturation pulls z in, and an orbit pair
    links b with c."""
    graph = DirectedGraph(
        ["a", "b", "c", "d", "z"],
        [("e1", "b", "a"), ("e2", "c", "b"), ("n", "c", "c"),
         ("f1", "a", "z"), ("f2", "c", "z"), ("l", "d", "d"),
         ("m", "z", "d")])
    units = {v: "u" + v for v in graph.vertices}
    elements = [("u" + v, v, v) for v in graph.vertices]
    elements += [("g", "b", "c"), ("gi", "c", "b")]
    mul = {(u, u): u for u in units.values()}
    mul.update({("g", "gi"): "uc", ("gi", "g"): "ub",
                ("uc", "g"): "g", ("g", "ub"): "g",
                ("ub", "gi"): "gi", ("gi", "uc"): "gi"})
    inv = {u: u for u in units.values()}
    inv.update({"g": "gi", "gi": "g"})
    gpd = ExplicitGroupoid(graph.vertices, elements, units, mul, inv)
    assert gpd.validate() == []
    edge_action, restriction = {}, {}
    for v in graph.vertices:
        for e in graph.received_by(v):
            edge_action[("u" + v, e.name)] = e.name
            restriction[("u" + v, e.name)] = "u" + e.src
    # g: b -> c moves the edge into b onto the loop at c, and back
    edge_action[("g", "e2")] = "n"
    restriction[("g", "e2")] = "uc"
    edge_action[("gi", "n")] = "e2"
    restriction[("gi", "n")] = "uc"
    action = SelfSimilarAction(graph, gpd, edge_action, restriction)
    assert action.validate() == []
    return action


def stuck_loop_action():
    """Both loops fixed by the involution with itself as restriction: it
    fixes every path yet never strongly fixes one."""
    graph = DirectedGraph(["v"], [("e", "v", "v"), ("f", "v", "v")])
    gpd = group_bundle(["v"], {"v": cyclic_group_table(2)})
    edge_action = {(g, e): e for g in ("0", "1") for e in ("e", "f")}
    restriction = {("0", "e"): "0", ("0", "f"): "0",
                   ("1", "e"): "1", ("1", "f"): "1"}
    action = SelfSimilarAction(graph, gpd, edge_action, restriction)
    assert action.validate() == []
    return action


def disconnected_action(flags):
    """Two loop components seen through a behavioral model."""
    graph = DirectedGraph(["v", "w"], [("e", "v", "v"), ("f", "w", "w")])
    gpd = BehavioralModel.from_states(
        ["v", "w"],
        [("0v", "v", "v", True), ("0w", "w", "w", True)], flags)
    edge_action = {("0v", "e"): "e", ("0w", "f"): "f"}
    restriction = {("0v", "e"): "0v", ("0w", "f"): "0w"}
    return SelfSimilarAction(graph, gpd, edge_action, restriction)


def random_orbit_action(rng, max_vertices=8):
    """A random graph, most of whose vertices receive at most one edge and
    few of whose edges are loops, seen through a behavioral model whose
    states link every vertex to the least vertex with the same random
    label.  The action tables are empty: Cyc and Con read only the graph
    and the orbit relation."""
    n = rng.randint(1, max_vertices)
    vs = ["v%d" % k for k in range(n)]
    edges = []
    for v in vs:
        for _ in range(rng.choice((0, 1, 1, 1, 1, 2))):
            src = rng.choice(vs)
            if src == v:
                src = rng.choice(vs)
            edges.append(("e%d" % len(edges), src, v))
    graph = DirectedGraph(vs, edges)
    label = {v: rng.randrange(n) for v in vs}
    states = [("u" + v, v, v, True) for v in vs]
    for v in vs:
        least = min(u for u in vs if label[u] == label[v])
        if least != v:
            states.append(("g" + v, least, v, False))
    gpd = BehavioralModel.from_states(
        vs, states, {"orbit_complete": rng.random() < 0.5})
    return SelfSimilarAction(graph, gpd, {}, {})


def ring_action(n, loops):
    """n vertices in a ring under the unit groupoid, with or without a loop
    at each vertex; the ring without loops is one entrance-free cycle."""
    vs = ["r%d" % k for k in range(n)]
    edges = [("s%d" % k, vs[(k + 1) % n], vs[k]) for k in range(n)]
    if loops:
        edges += [("l%d" % k, vs[k], vs[k]) for k in range(n)]
    return SelfSimilarAction(DirectedGraph(vs, edges),
                             group_bundle(vs, {}), {}, {})


# -- orbit classes -----------------------------------------------------------


@pytest.mark.parametrize("name", FIXTURES)
def test_orbit_classes_match_closure_oracle(fix, name):
    gpd = fix(name).action.groupoid
    classes = orbit_classes(gpd)
    oracle = oracle_orbit_closure(gpd)
    for v in gpd.vertices:
        for w in gpd.vertices:
            assert (classes[v] == classes[w]) == (w in oracle[v])


def test_orbit_classes_close_transitively():
    gpd = BehavioralModel.from_states(
        ["a", "b", "c", "d"],
        [("ua", "a", "a", True), ("ub", "b", "b", True),
         ("uc", "c", "c", True), ("ud", "d", "d", True),
         ("s", "a", "b", False), ("t", "b", "c", False)])
    classes = orbit_classes(gpd)
    assert classes["a"] == classes["b"] == classes["c"]
    assert classes["d"] != classes["a"]
    # c links a with b, so reaching b from a goes up to c and back down;
    # each vertex maps to the least vertex of its class
    gpd = BehavioralModel.from_states(
        ["a", "b", "c", "d"],
        [("ua", "a", "a", True), ("ub", "b", "b", True),
         ("uc", "c", "c", True), ("ud", "d", "d", True),
         ("s", "a", "c", False), ("t", "b", "c", False)])
    assert orbit_classes(gpd) == {"a": "a", "b": "a", "c": "a", "d": "d"}


# -- invariant closure (the Min machinery) ------------------------------------


@pytest.mark.parametrize("name", FIXTURES)
def test_invariant_closure_is_minimal_on_fixtures(fix, name):
    action = fix(name).action
    for v in action.graph.vertices:
        assert invariant_closure(action, v) == oracle_min_closure(action, v)


def test_invariant_closure_is_minimal_on_five_vertices():
    action = five_vertex_action()
    classes = oracle_orbit_closure(action.groupoid)
    for v in action.graph.vertices:
        closure = invariant_closure(action, v)
        assert closure == oracle_min_closure(action, v)
        assert oracle_is_invariant(action, classes, closure)
    assert invariant_closure(action, "a") == {"a", "b", "c", "z"}
    assert invariant_closure(action, "d") == {"a", "b", "c", "d", "z"}


def test_check_min_witness_replays():
    action = five_vertex_action()
    v = check_min(action)
    assert v.status == "Fails"
    w = v.witness
    assert w["vertex"] == "a"
    assert w["closure"] == ["a", "b", "c", "z"]
    classes = oracle_orbit_closure(action.groupoid)
    assert oracle_is_invariant(action, classes, set(w["closure"]))
    assert set(w["closure"]) != set(action.graph.vertices)


# -- cycles and entrances ------------------------------------------------------


def _replay_cyc_witness(action, w):
    graph = action.graph
    p = graph.path(w["path"])
    assert not oracle_has_entrance(graph, p)
    oracle = oracle_orbit_closure(action.groupoid)
    assert graph.path_src(p) in oracle[p.base]
    assert (w["src"], w["rng"]) == (graph.path_src(p), p.base)
    assert w == oracle_check_cyc(action)


def test_check_cyc_fails_with_replayable_witness(fix):
    action = fix("entrance_free_loop").action
    v = check_cyc(action)
    assert v.status == "Fails"
    assert v.witness["path"] == ["f"]
    _replay_cyc_witness(action, v.witness)
    v5 = check_cyc(five_vertex_action())
    assert v5.status == "Fails"
    _replay_cyc_witness(five_vertex_action(), v5.witness)


def test_check_cyc_holds_when_cycles_pass_entrances(fix):
    assert check_cyc(fix("four_loop_z2").action).status == "Holds"
    # complete orbit data on the model upgrades the sweep to Holds
    assert check_cyc(fix("two_edges").action).status == "Holds"


def _expected_cyc_status(action, witness):
    if witness is not None:
        return "Fails"
    return "Holds" if action.groupoid.orbit_complete else "HoldsOnModel"


def test_check_cyc_matches_the_literal_scan_on_random_graphs():
    rng = random.Random(20261018)
    lengths = collections.Counter()
    for _ in range(5000):
        action = random_orbit_action(rng)
        v, witness = check_cyc(action), oracle_check_cyc(action)
        assert v.status == _expected_cyc_status(action, witness)
        assert v.witness == witness
        lengths[witness and len(witness["path"])] += 1
    # both verdicts are well exercised, and witnesses of several lengths
    assert 1000 < lengths[None] < 4000
    assert lengths[2] > 100 and max(filter(None, lengths)) >= 4


def test_check_cyc_matches_the_literal_scan_on_golden_systems():
    from test_golden import GOLDEN
    for (name, system) in GOLDEN:
        action = (system or load_fixture(name)).action
        v, witness = check_cyc(action), oracle_check_cyc(action)
        assert v.status == _expected_cyc_status(action, witness), name
        assert v.witness == witness, name


def test_check_cyc_enumerates_no_paths(monkeypatch):
    def refuse(*args):
        raise AssertionError("Cyc enumerated paths")

    monkeypatch.setattr(DirectedGraph, "paths_from", refuse)
    assert check_cyc(ring_action(1000, loops=True)).status == "Holds"
    v = check_cyc(ring_action(200, loops=False))
    assert v.status == "Fails"
    assert v.witness["path"] == ["s%d" % k for k in range(200)]
    assert v.witness["src"] == v.witness["rng"] == "r0"


def test_check_cyc_work_doubles_with_the_ring(monkeypatch):
    """On the loopless ring every base's chain closes only after all n
    edges, so a walk per base reads received_by about n² times.  One pass
    over the chains reads it a bounded number of times per vertex: each
    doubling of n at most doubles the count (slack 10%)."""
    calls = collections.Counter()
    received_by = DirectedGraph.received_by

    def counting(self, v):
        calls[len(self.vertices)] += 1
        return received_by(self, v)

    monkeypatch.setattr(DirectedGraph, "received_by", counting)
    sizes = (100, 200, 400)
    for n in sizes:
        v = check_cyc(ring_action(n, loops=False))
        assert len(v.witness["path"]) == n
    for (n, m) in zip(sizes, sizes[1:]):
        assert 0 < calls[m] <= 2.2 * calls[n], dict(calls)


def test_con_base_points_match_the_profile_pair_search():
    """Both ways of finding base points are met often: a class inside one
    component of the range-to-source walk is read from that component, a
    class spanning several gets the closure pair."""
    rng = random.Random(20261018)
    nonempty, spans = 0, collections.Counter()
    for _ in range(5000):
        action = random_orbit_action(rng)
        base = cond._entrance_cycle_base_points(action)
        assert base == oracle_entrance_cycle_base_points(action)
        nonempty += bool(base)
        orb = action.orbits
        for cls in orb.members.values():
            spans[len({orb.component[v] for v in cls}) > 1] += 1
    assert 1000 < nonempty < 4000
    assert spans[False] > 2000 and spans[True] > 2000, spans


def _matches_loops(action, checks):
    """Each named decider gives the verdict and witness that its loop
    oracle's witness gets under the same scoping; the Fails are returned."""
    oracles = {"Fin": (check_fin, oracle_check_fin, verdicts.universal_verdict),
               "Min": (check_min, oracle_check_min, cond._monotone_scoped),
               "Con": (check_con, oracle_check_con, cond._monotone_scoped)}
    failed = set()
    for cid in checks:
        (decide, oracle, scope) = oracles[cid]
        v, witness = decide(action), oracle(action)
        want = scope(action.groupoid, witness)
        assert (v.status, v.witness) == (want.status, want.witness), cid
        if v.status == "Fails":
            failed.add(cid)
    for u in action.graph.vertices:
        assert invariant_closure(action, u) == \
            oracle_invariant_closure(action, u)
    return failed


def test_fin_min_and_con_match_the_loop_oracles(random_actions,
                                               wide_random_actions,
                                               seeded_actions):
    """On the golden systems, the random pools and the fixed chains, and on
    1,000 seeded graphs for Min and Con."""
    from test_golden import GOLDEN
    rng = random.Random(20261019)
    pool = [(system or load_fixture(name)).action for (name, system) in GOLDEN]
    pool += list(random_actions) + list(wide_random_actions)
    pool += list(seeded_actions)
    pool += [fixed_chain(n, width) for n in (1, 2, 5) for width in (1, 2)]
    failing = collections.Counter()
    for action in pool:
        failing.update(_matches_loops(action, ("Fin", "Min", "Con")))
    for _ in range(1000):
        failing.update(_matches_loops(random_orbit_action(rng),
                                      ("Min", "Con")))
    assert min(failing.values()) >= 100, failing


def test_report_deciders_make_one_pass_on_the_doubled_chain(monkeypatch):
    """D(300): the Z_2 bundle on 301 vertices, two fixed edges per step.
    h0 has 2^300 minimal strongly fixed paths, yet Fin and Min hold after
    one pass each: Fin never lists minimal strongly fixed paths, Min
    computes one invariant closure (the walk has one sink component), and
    a report builds the orbit classes once."""
    calls = collections.Counter()
    original = act_mod.minimal_strongly_fixed

    def counted(action, g):
        calls["minimal_strongly_fixed"] += 1
        return original(action, g)

    def refuse(action, g):
        raise AssertionError("Fin listed minimal strongly fixed paths")

    def counted_classes(groupoid):
        calls["orbit_classes"] += 1
        return orbit_classes(groupoid)

    def counted_closure(action, v):
        calls["invariant_closure"] += 1
        return invariant_closure(action, v)

    assert len(original(fixed_chain(11, width=2), "h0").paths) == 2 ** 10
    monkeypatch.setattr(act_mod, "minimal_strongly_fixed", counted)
    for name in ("four_loop_z2", "twisted_three_spoke"):
        assert check_fin(load_fixture(name).action).status == "Fails"
    assert calls["minimal_strongly_fixed"] == 2
    monkeypatch.setattr(act_mod, "minimal_strongly_fixed", refuse)
    monkeypatch.setattr(act_mod, "orbit_classes", counted_classes)
    monkeypatch.setattr(cond, "invariant_closure", counted_closure)
    assert check_min(fixed_chain(301, width=2)).status == "Holds"
    assert calls["invariant_closure"] == 1
    calls.clear()
    base = run_report(fixed_chain(301, width=2))["conditions"]
    assert (base["Fin"]["status"], base["Min"]["status"]) == ("Holds", "Holds")
    assert calls["orbit_classes"] == 1


# -- recurrence, finiteness, strong fixing -------------------------------------


def test_check_rec_witness_is_nonunit_isotropy(fix):
    for name in ("four_loop_z2", "not_exel_pardo", "two_edges",
                 "twisted_three_spoke"):
        action = fix(name).action
        v = check_rec(action)
        assert v.status == "Fails"
        g = v.witness["element"]
        gpd = action.groupoid
        assert not gpd.is_unit(g)
        assert gpd.src(g) == gpd.rng(g)
        assert v.witness["path"]["base"] == gpd.src(g)


def test_check_rec_holds_without_nonunit_isotropy(fix):
    assert check_rec(fix("entrance_free_loop").action).status == "Holds"


def test_check_fin_witness_pumps(fix):
    for name in ("four_loop_z2", "twisted_three_spoke"):
        action = fix(name).action
        v = check_fin(action)
        assert v.status == "Fails"
        w = v.witness
        graph = action.graph
        for k in range(4):
            p = graph.path(w["access"] + w["cycle"] * k + w["exit"])
            assert strongly_fixes(action, w["element"], p)
            for m in range(len(p.edges)):
                assert not strongly_fixes(action, w["element"],
                                          graph.prefix(p, m))


def test_check_fin_holds_on_tame_fixtures(fix):
    assert check_fin(fix("entrance_free_loop").action).status == "Holds"
    # a cycle-free graph keeps every minimal family finite; the behavioral
    # scope keeps the verdict on the model
    assert check_fin(fix("two_edges").action).status == "HoldsOnModel"


def _unit_reachable_inline(action, g):
    gpd, graph = action.groupoid, action.graph
    seen, stack = {g}, [g]
    while stack:
        h = stack.pop()
        if gpd.is_unit(h):
            return True
        for e in graph.received_by(gpd.src(h)):
            if action.act_edge(h, e.name) == e.name:
                k = action.restrict_edge(h, e.name)
                if k not in seen:
                    seen.add(k)
                    stack.append(k)
    return False


def test_check_evr_fails_on_stuck_action():
    action = stuck_loop_action()
    v = check_evr(action)
    assert v.status == "Fails"
    g = v.witness["element"]
    from selfsim.actions import fixes_all_paths
    assert fixes_all_paths(action, g)
    assert not _unit_reachable_inline(action, g)
    assert check_fin(action).status == "Holds"  # no minimal paths at all


def test_check_sla_fails_on_stuck_action_with_replay():
    action = stuck_loop_action()
    v = check_sla(action)
    assert v.status == "Fails"
    w = v.witness
    g = action.groupoid
    h = w["element"]
    for e in w["access"]:
        assert action.act_edge(h, e) == e
        h = action.restrict_edge(h, e)
    at_cycle = h
    for e in w["cycle"]:
        assert action.act_edge(h, e) == e
        h = action.restrict_edge(h, e)
    assert h == at_cycle, "the cycle word must return to its state"
    for e in w["to_nonunit"]:
        assert action.act_edge(h, e) == e
        h = action.restrict_edge(h, e)
    assert h == w["nonunit"]
    assert not g.is_unit(h)


def test_check_sla_on_fixtures(fix):
    assert check_sla(fix("not_exel_pardo").action).status == "Fails"
    assert check_sla(fix("entrance_free_loop").action).status == "Holds"
    # the involution moves a and b, so it fixes no vertex path's tree and
    # the quantifier over all-path-fixing elements sees only the unit
    assert check_sla(fix("four_loop_z2").action).status == "Holds"
    assert check_sla(fix("twisted_three_spoke").action).status == "Fails"


# -- reachability of entered cycles --------------------------------------------


def test_check_con_statuses(fix):
    assert check_con(fix("four_loop_z2").action).status == "Holds"
    v = check_con(five_vertex_action())
    assert v.status == "Fails"
    assert v.witness["vertex"] == "a"
    loop = check_con(fix("entrance_free_loop").action)
    assert loop.status == "Fails"


def test_check_con_scope_needs_orbit_completeness():
    v = check_con(disconnected_action({}))
    assert v.status == "RequiresExplicit"
    v = check_con(disconnected_action({"orbit_complete": True}))
    assert v.status == "Fails"


def test_check_min_scope_needs_orbit_completeness():
    v = check_min(disconnected_action({}))
    assert v.status == "RequiresExplicit"
    v = check_min(disconnected_action({"orbit_complete": True}))
    assert v.status == "Fails"
    assert v.witness["vertex"] == "v"
    assert v.witness["closure"] == ["v"]


# -- contraction ----------------------------------------------------------------


def test_check_contracting_cases(fix):
    v = check_contracting(fix("four_loop_z2").action)
    assert v.status == "Holds"
    assert "nucleus has 2 elements" in v.note
    v = check_contracting(fix("twisted_three_spoke").action)
    assert v.status == "Holds"
    assert "source" in v.note
    v = check_contracting(fix("not_exel_pardo").action)
    assert v.status == "RequiresExplicit"


# -- combining verdicts -----------------------------------------------------------


def test_combine_precedence_and_scope():
    H = holds("ok")
    M = holds_on_model("ok on model")
    F = fails({"x": 1}, "broken")
    R = requires_explicit("unknown")
    assert combine([("A", H), ("B", H)]).status == "Holds"
    out = combine([("A", H), ("B", M)])
    assert out.status == "HoldsOnModel"
    assert "B" in out.note
    out = combine([("A", M), ("B", F), ("C", R)])
    assert out.status == "Fails"
    assert out.witness["failed_input"] == "B"
    assert out.witness["witness"] == {"x": 1}
    out = combine([("A", M), ("B", R)])
    assert out.status == "RequiresExplicit"
    out = combine([("A", M)], scope_mode="strict")
    assert out.status == "RequiresExplicit"
    assert combine([], scope_mode="strict").status == "Holds"


def test_report_structure_and_notes(fix):
    data = run_report(fix("four_loop_z2").action, name="four_loop_z2")
    assert data["system"] == "four_loop_z2"
    assert data["backend"] == "explicit"
    assert data["scope_mode"] == "model"
    assert set(data["conditions"]) == set(cond.CONDITION_TEXT)
    for cid, entry in data["conditions"].items():
        assert set(entry) >= {"status", "witness", "scope", "citation"}
        assert entry["citation"] == cond.CONDITION_TEXT[cid]
    for did, entry in data["derived"].items():
        assert set(entry) >= {"status", "witness", "scope", "citation",
                              "inputs"}
        assert entry["inputs"] == list(
            [i for (d, i, _r) in cond.DERIVED_RULES if d == did][0])
    assert any("purely" in n for n in data["notes"])
    text = cond.report_text(data)
    assert "four_loop_z2" in text
    for cid in data["conditions"]:
        assert cid in text


def test_report_strict_scope_downgrades_model_verdicts(fix):
    data = run_report(fix("two_edges").action, scope_mode="strict")
    assert data["conditions"]["Evr"]["status"] == "HoldsOnModel"
    assert data["derived"]["TopFreeTight"]["status"] == "RequiresExplicit"
    relaxed = run_report(fix("two_edges").action, scope_mode="model")
    assert relaxed["derived"]["TopFreeTight"]["status"] == "HoldsOnModel"


def report_systems(random_actions, workdir):
    """(CLI reference, System) for the fixtures, zn_rotation(3..5) and the
    seeded random pool; each built system is saved under workdir."""
    out = [(name, load_fixture(name)) for name in FIXTURES]
    built = [systems.System("zn_rotation_%d" % n, zn_rotation(n))
             for n in (3, 4, 5)]
    built += [systems.System("random_%02d" % k, action)
              for (k, action) in enumerate(random_actions)]
    for system in built:
        ref = str(workdir / (system.name + ".json"))
        systems.save_system(system, ref)
        out.append((ref, system))
    return out


@pytest.mark.parametrize("scope", ["model", "strict"])
def test_the_report_is_the_document_the_cli_prints(tmp_path, capsys,
                                                   random_actions, scope):
    """run_report returns the document `selfsim report` prints: it reads
    back from its JSON unchanged, its text form depends only on that JSON,
    and the CLI prints exactly these two."""
    for (ref, system) in report_systems(random_actions, tmp_path):
        doc = run_report(system.action, name=system.name, scope_mode=scope,
                         notes=system.notes)
        printed = systems.json_text(doc)
        assert json.loads(printed) == doc
        text = cond.report_text(doc)
        assert cond.report_text(json.loads(printed)) == text
        for (fmt, expected) in (("json", printed), ("text", text)):
            code = cli.main(["report", ref, "--scope", scope,
                             "--format", fmt])
            assert (code, capsys.readouterr().out) == (0, expected), ref


def test_xbar_returns_the_json_the_cli_prints(fix, capsys):
    """germs.xbar returns what `germ xbar` prints, at the first points of
    length up to 2 at each vertex of each fixture."""
    seen = 0
    for name in FIXTURES:
        action = fix(name).action
        for v in action.graph.vertices:
            for x in boundary_points_from(action.graph, v, 2)[:4]:
                arg = json.dumps(point_to_json(x))
                assert cli.main(["germ", name, "xbar", arg]) == 0
                assert (capsys.readouterr().out
                        == systems.json_text(germs.xbar(action, x)))
                seen += 1
    assert seen >= 15


def test_report_reads_each_table_entry_once(monkeypatch):
    """One report on a validated action reads g·e and g|_e at most once per
    composable (g, e), through the shared restriction digraph, and builds
    no per-element fixing automaton."""
    rng = random.Random(5)
    pool = [load_fixture(name).action for name in FIXTURES]
    pool += [zn_rotation(n) for n in (3, 4, 5)]
    pool += [random_action(rng) for _ in range(20)]

    def no_automaton(self, action, root):
        raise AssertionError("run_report built a FixingAutomaton")

    for action in pool:
        assert action.validate() == []
        action.edge_action = _CountingTable(action.edge_action)
        action.restriction = _CountingTable(action.restriction)
    monkeypatch.setattr(act_mod.FixingAutomaton, "__init__", no_automaton)
    reads = collections.Counter()
    for action in pool:
        run_report(action)
        gpd, graph = action.groupoid, action.graph
        composable = {(g, e) for g in gpd.elements()
                      for e in graph.received_names(gpd.src(g))}
        for table in (action.edge_action, action.restriction):
            assert set(table.by_key) <= composable
            reads.update({(id(table), key): n
                          for (key, n) in table.by_key.items()})
    assert reads and max(reads.values()) == 1


def test_witnesses_are_the_least(fix, random_actions, wide_random_actions):
    """Evr, Sla, PseudoFree and Faithful report the least counterexample,
    by the oracles' literal search over the one-step calculus."""
    pool = [fix(name).action for name in FIXTURES] + list(random_actions)
    pool += list(wide_random_actions)
    failing = collections.Counter()
    for action in pool:
        gpd = action.groupoid
        kernel = [g for g in gpd.elements() if oracle_fixes_all(action, g)]
        stuck = [{"op": "fixes_all_paths", "element": g} for g in kernel
                 if g not in oracle_unit_reachable(action, g)]
        strong = [{"element": g, "edge": e} for g in gpd.elements()
                  if not gpd.is_unit(g)
                  for (e, h) in oracle_fixed_arrows(action, g)
                  if gpd.is_unit(h)]
        loose = [{"element": g} for g in kernel if not gpd.is_unit(g)]
        expected = {"Evr": (check_evr, stuck[0] if stuck else None),
                    "Sla": (check_sla, oracle_sla_witness(action)),
                    "PseudoFree": (pseudo_free, strong[0] if strong else None),
                    "Faithful": (faithful, loose[0] if loose else None)}
        for (cid, (decide, witness)) in expected.items():
            assert decide(action).witness == witness, cid
            failing[cid] += witness is not None
    assert min(failing.values()) >= 10
