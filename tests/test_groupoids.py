"""Groupoid backends: table validation, bundles, transformation groupoids,
behavioral models and their capability flags."""

import collections
import itertools

import pytest

from selfsim.groupoids import (BehavioralModel, ExplicitGroupoid,
                               GroupoidError, RequiresExplicitError,
                               cyclic_group_table, from_group_action,
                               group_bundle)

from conftest import (EXPLICIT_FIXTURES, oracle_groupoid_validate,
                      transformation_action, zn_rotation)


def test_cyclic_table_is_a_group():
    for n in (1, 2, 3, 4, 6):
        fib = cyclic_group_table(n, prefix="g")
        els, unit, mul = fib["elements"], fib["unit"], fib["mul"]
        assert len(els) == n
        for a, b, c in itertools.product(els, repeat=3):
            assert mul[(mul[(a, b)], c)] == mul[(a, mul[(b, c)])]
        for a in els:
            assert mul[(unit, a)] == a and mul[(a, unit)] == a
            assert any(mul[(a, b)] == unit for b in els)


def test_group_bundle_validates_and_exposes_isotropy():
    g = group_bundle(["v", "w"], {"v": cyclic_group_table(3, "c")})
    assert g.validate() == []
    assert sorted(g.isotropy_at("v")) == ["c0", "c1", "c2"]
    assert g.unit_at("v") == "c0"
    assert g.is_unit("1@w")
    assert g.inv("c1") == "c2"
    assert g.mul("c2", "c2") == "c1"
    with pytest.raises(GroupoidError):
        g.mul("c1", "1@w")      # not composable


def test_bad_tables_are_reported():
    # drop one product from Z_2: associativity/closure breaks
    els = [("a", "v", "v"), ("b", "v", "v")]
    mul = {("a", "a"): "a", ("a", "b"): "b", ("b", "a"): "b"}
    g = ExplicitGroupoid(["v"], els, {"v": "a"}, mul, {"a": "a", "b": "b"})
    assert g.validate() != []
    # wrong inverse
    mul[("b", "b")] = "a"
    g = ExplicitGroupoid(["v"], els, {"v": "a"}, mul, {"a": "a", "b": "a"})
    assert any("inverse" in p for p in g.validate())


def _sym(perm_tuples):
    """Tiny symmetric group from permutation tuples on range(n)."""
    els = {p: "s" + "".join(map(str, p)) for p in perm_tuples}

    def compose(p, q):
        return tuple(p[q[i]] for i in range(len(p)))

    mul = {}
    for p in perm_tuples:
        for q in perm_tuples:
            mul[(els[p], els[q])] = els[compose(p, q)]
    unit = els[tuple(range(len(perm_tuples[0])))]
    return list(els.values()), mul, unit, els, compose


def test_from_group_action_builds_valid_transformation_groupoids():
    perms = list(itertools.permutations(range(3)))
    names, mul, unit, table, compose = _sym(perms)
    vertices = ["v0", "v1", "v2"]
    vertex_action = {(table[p], "v%d" % i): "v%d" % p[i]
                     for p in perms for i in range(3)}
    g = from_group_action(names, mul, unit, vertices, vertex_action)
    assert g.validate() == []
    assert len(list(g.elements())) == 6 * 3


def test_from_group_action_rejects_non_actions():
    names = ["u", "t"]
    mul = {("u", "u"): "u", ("u", "t"): "t", ("t", "u"): "t", ("t", "t"): "u"}
    # t moves a to b but b to b: not a bijection, not an action
    vertex_action = {("u", "a"): "a", ("u", "b"): "b",
                     ("t", "a"): "b", ("t", "b"): "b"}
    g = from_group_action(names, mul, "u", ["a", "b"], vertex_action)
    assert "product ('t@b', 't@a') has wrong endpoints" in g.validate()


def test_from_group_action_reports_a_missing_inverse():
    # t·t = t: a monoid, whose t has no inverse
    names = ["u", "t"]
    mul = {("u", "u"): "u", ("u", "t"): "t", ("t", "u"): "t", ("t", "t"): "t"}
    vertex_action = {(g, "a"): "a" for g in names}
    g = from_group_action(names, mul, "u", ["a"], vertex_action)
    assert g.validate() == ["missing or unknown inverse for 't@a'"]


def test_elements_is_one_tuple_per_groupoid():
    for gpd in (zn_rotation(3).groupoid,
                BehavioralModel(["v"], [("u", "v", "v", True),
                                        ("g", "v", "v", False)])):
        assert gpd.elements() is gpd.elements()
        assert gpd.elements() == tuple(sorted(gpd.elements()))


def test_behavioral_model_constructor_marks_units():
    m = BehavioralModel(["v"], [("u", "v", "v", True)])
    assert m.unit_at("v") == "u" and m.is_unit("u")
    assert m.validate() == []
    assert not (m.unit_reflecting or m.element_complete or m.orbit_complete)


def test_behavioral_model_flags_and_refusals():
    m = BehavioralModel.from_states(
        ["v"],
        [("u", "v", "v", True), ("g", "v", "v", False)],
        {"unit_reflecting": True})
    assert m.validate() == []
    assert m.unit_reflecting and not m.element_complete
    assert m.is_unit("u") and not m.is_unit("g")
    with pytest.raises(RequiresExplicitError):
        m.mul("g", "g")
    with pytest.raises(RequiresExplicitError):
        m.inv("g")


def test_behavioral_model_requires_one_unit_per_vertex():
    m = BehavioralModel.from_states(["v", "w"], [("u", "v", "v", True)])
    assert any("unit" in p for p in m.validate())


def test_unit_at_is_the_least_unit_state_at_the_vertex():
    m = BehavioralModel.from_states(
        ["v", "w"],
        [("ub", "v", "v", True), ("ua", "v", "v", True),
         ("uw", "w", "w", True), ("s", "v", "w", False)])
    assert m.unit_at("v") == "ua"
    assert m.unit_at("w") == "uw"
    assert "several unit states at vertex 'v'" in m.validate()
    with pytest.raises(GroupoidError):
        m.unit_at("x")


def test_orbit_pairs_generate_an_equivalence():
    from selfsim.actions import orbit_classes
    m = BehavioralModel.from_states(
        ["a", "b", "c"],
        [("ua", "a", "a", True), ("ub", "b", "b", True),
         ("uc", "c", "c", True), ("s", "a", "b", False)])
    cls = orbit_classes(m)
    assert cls["a"] == cls["b"] != cls["c"]


def _closure(gpd, gens):
    """Every product of the given elements, by brute force over all pairs
    until nothing new appears."""
    closed = set(gens)
    while True:
        new = {gpd.mul(a, b) for a in closed for b in closed
               if gpd.src(a) == gpd.rng(b)} - closed
        if not new:
            return closed
        closed |= new


def _explicit_groupoids(fix, random_actions, wide_random_actions):
    perms = list(itertools.permutations(range(3)))
    names, mul, unit, table, _ = _sym(perms)
    s3_on_three = from_group_action(
        names, mul, unit, ["v0", "v1", "v2"],
        {(table[p], "v%d" % i): "v%d" % p[i] for p in perms for i in range(3)})
    actions = ([fix(n).action for n in EXPLICIT_FIXTURES] + random_actions
               + wide_random_actions + [zn_rotation(n) for n in range(1, 9)]
               + [transformation_action(), transformation_action(3, 6, 3)])
    return ([a.groupoid for a in actions if a.groupoid.kind == "explicit"]
            + [s3_on_three,
               group_bundle(["v", "w", "x"], {"v": cyclic_group_table(6, "c"),
                                              "x": cyclic_group_table(2, "d")})])


def test_generators_are_units_then_greedy_and_generate(
        fix, random_actions, wide_random_actions):
    for gpd in _explicit_groupoids(fix, random_actions, wide_random_actions):
        gens = gpd.generators()
        units = tuple(gpd.unit_at(v) for v in gpd.vertices)
        assert gens[:len(units)] == units
        assert _closure(gpd, gens) == set(gpd.elements())
        for k in range(len(units), len(gens)):
            assert gens[k] not in _closure(gpd, gens[:k])
        assert list(gens[len(units):]) == sorted(gens[len(units):])
        assert gpd.generators() is gens


def test_generators_of_zn_rotation_are_c0_and_c1():
    for n in range(2, 40):
        assert zn_rotation(n).groupoid.generators() == ("c0", "c1")
    assert zn_rotation(1).groupoid.generators() == ("c0",)


def test_table_stage_walks_the_composable_pairs_only():
    """A 60-vertex bundle of Z_2 fibres with one product removed: the table
    stage reads the product table and its rows a bounded number of times
    per composable pair and entry, where a scan of every pair of elements
    makes |G|² = 14,400 membership tests alone."""
    vs = ["v%d" % k for k in range(60)]
    bundle = group_bundle(vs, {v: cyclic_group_table(2, v + "c") for v in vs})
    mul = dict(bundle._mul)
    del mul[("v7c1", "v7c1")]
    gpd = ExplicitGroupoid(vs, [bundle._elements[g] for g in bundle.elements()],
                           bundle.units, mul, bundle._inv)
    lookups = collections.Counter()

    class CountingTable(dict):
        def __contains__(self, key):
            lookups["mul"] += 1
            return dict.__contains__(self, key)

        def __getitem__(self, key):
            lookups["mul"] += 1
            return dict.__getitem__(self, key)

        def get(self, key, default=None):
            lookups["mul"] += 1
            return dict.get(self, key, default)

    gpd._mul = CountingTable(mul)
    gpd._rows = {a: CountingTable(row)
                 for (a, row) in gpd.product_rows().items()}
    assert gpd.validate() == ["missing product ('v7c1', 'v7c1')"]
    composable = 60 * 2 * 2
    assert 0 < lookups["mul"] <= 4 * (composable + len(mul)), lookups


def test_table_problems_come_in_pair_order():
    """Problems found by the walk and an entry found past it are listed in
    the order of a scan over every pair of elements."""
    bundle = group_bundle(["v", "w"], {"v": cyclic_group_table(2, "a"),
                                       "w": cyclic_group_table(2, "b")})
    mul = dict(bundle._mul)
    del mul[("b1", "b1")]
    mul[("a1", "b0")] = "a0"
    mul[("a0", "a1")] = "b1"
    gpd = ExplicitGroupoid(bundle.vertices,
                           [bundle._elements[g] for g in bundle.elements()],
                           bundle.units, mul, bundle._inv)
    assert gpd.validate() == oracle_groupoid_validate(gpd) == [
        "product ('a0', 'a1') has wrong endpoints",
        "product ('a1', 'b0') should not exist",
        "missing product ('b1', 'b1')"]


def test_table_entries_off_the_element_set_are_problems():
    """A product keyed by a non-element on either side, and an inverse
    keyed by a non-element, are reported; a scan over pairs of elements
    never reads them."""
    base = zn_rotation(3).groupoid
    cases = [("mul", ("zz", "zz"), "product ('zz', 'zz') should not exist"),
             ("mul", ("zz", "c0"), "product ('zz', 'c0') should not exist"),
             ("mul", ("c1", "zz"), "product ('c1', 'zz') should not exist"),
             ("inv", "zz", "inverse given for unknown element 'zz'")]
    for (table, key, problem) in cases:
        tables = {"mul": dict(base._mul), "inv": dict(base._inv)}
        tables[table][key] = "c0"
        gpd = ExplicitGroupoid(base.vertices,
                               [base._elements[g] for g in base.elements()],
                               base.units, tables["mul"], tables["inv"])
        assert oracle_groupoid_validate(gpd) == []
        assert gpd.validate() == [problem], key


def test_a_failure_only_at_a_unit_middle_is_listed():
    """a absorbs, b·b = a, b and u commute to b, and u·u = a breaks the
    unit law.  Associativity fails only at the middle u, and the scan over
    the non-unit generators (here b) passes.  The unit stage has found a
    problem, so the units stay among the middles and both triples are
    listed."""
    els = ["a", "b", "u"]
    mul = {(x, y): "a" for x in els for y in els}
    mul[("b", "u")] = mul[("u", "b")] = "b"
    gpd = ExplicitGroupoid(["v"], [(x, "v", "v") for x in els], {"v": "u"},
                           mul, {x: x for x in els})
    assert gpd.generators() == ("u", "b")
    assert gpd._associativity_failures({"b"}) == []
    assert gpd.validate() == oracle_groupoid_validate(gpd) == [
        "inverse of 'a' is wrong",
        "inverse of 'b' is wrong",
        "units do not act as identities on 'u'",
        "inverse of 'u' is wrong",
        "associativity fails on ('b', 'u', 'u')",
        "associativity fails on ('u', 'u', 'b')"]
