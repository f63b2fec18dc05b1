"""The four workloads: which systems each one writes, and which CLI
operations one pass of its closed loop runs.

A workload is a list of slots.  Each slot holds interchangeable
operations of similar cost (the dearest operation of a slot takes at most
about twice as long as the cheapest).  Every pass of the loop runs every
slot once, in an order drawn by the run's seeded random stream, and each
slot runs its operations in turn from a seeded start.  A run therefore
holds each operation of a slot equally often, give or take one, which
keeps the latency quantiles steady across seeds, while the seed still
decides the order and, on validate, which systems are built.  Every pass
a run makes is timed.

Each operation carries its expected outcome:

* ("exact", code, stdout) - known by construction;
* ("problems", expected, exact) - exit 1, and the listed problems appear
  in the validator's output (exactly those, when exact);
* ("golden", extra) - exit code and stdout digest equal the ones recorded
  in golden.json, plus an optional property known by construction
  ("cyc_holds" or "verify_ok");
* ("malformed",) - a malformed argument, expected to exit 2.

The report, query and cocycle plans are the same for every seed, so
golden.json covers every operation any seed can reach.
"""

import hashlib
import json
import os
import random

from selfsim import actions as act_mod
from selfsim import germs
from selfsim import semigroup as sg
from selfsim import systems

import gen

FIXTURES = ("entrance_free_loop", "four_loop_z2", "not_exel_pardo",
            "twisted_three_spoke", "two_edges")
CATALOGUE_SEED = 20261017


class Op:
    __slots__ = ("cmd", "system", "rest", "expect")

    def __init__(self, cmd, system, rest=(), expect=("golden", None)):
        self.cmd = cmd
        self.system = system      # logical system name, the file's stem
        self.rest = tuple(rest)   # argv after the system path
        self.expect = expect

    def argv(self, path):
        return [self.cmd, path] + list(self.rest)

    def key(self):
        """Golden key: the operation with the system named, not located."""
        text = json.dumps([self.cmd, self.system] + list(self.rest))
        return hashlib.sha1(text.encode()).hexdigest()[:16]


class Plan:
    """The slots of one workload plus the systems their operations use."""

    def __init__(self):
        self.slots = []
        self.systems = {}

    def add_system(self, system):
        self.systems.setdefault(system.name, system)
        return system.name

    def slot(self, ops):
        self.slots.append(list(ops))

    def write_system(self, name, directory):
        path = os.path.join(directory, name + ".json")
        systems.save_system(self.systems[name], path)
        return path

    def write(self, directory):
        return {name: self.write_system(name, directory)
                for name in sorted(self.systems)}

    def ops(self):
        return [op for slot in self.slots for op in slot]


def _emit_text(obj):
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


# -- validate -----------------------------------------------------------------

VALIDATE_ZN = (6, 8, 10, 10)
VALIDATE_TRANS = ((3, 6, 3), (4, 8, 4), (4, 12, 4))
SAMPLER_POOL = 32
SAMPLES_PER_PASS = 20
CORRUPT_VARIANTS = 3


def _valid(plan, system):
    name = plan.add_system(system)
    out = _emit_text({"system": name, "valid": True, "problems": []})
    return Op("validate", name, expect=("exact", 0, out))


def _corrupted(plan, system, kind, rng, variant):
    bad, expected = gen.corrupt(system, kind, rng)
    bad.name += "_%d" % variant
    name = plan.add_system(bad)
    return Op("validate", name, expect=("problems", expected,
                                        kind == "inverse"))


def plan_validate(seed):
    """zn_rotation at growing n; transformation groupoids with seeded edge
    shifts; the bundled fixtures; SAMPLES_PER_PASS slots over a pool of
    sampled actions; and, for each corruption kind, CORRUPT_VARIANTS
    seeded corrupted copies of two explicit systems."""
    rng = random.Random(seed)
    plan = Plan()
    for n in VALIDATE_ZN:
        plan.slot([_valid(plan, gen.zn_rotation(n))])
    for (k, m, d) in VALIDATE_TRANS:
        c, s = rng.randrange(d), rng.randrange(m // k)
        plan.slot([_valid(plan, gen.transformation(k, m, d, c, s))])
    for name in FIXTURES:
        plan.slot([_valid(plan, systems.load_fixture(name))])
    # The sampled pool is the same for every seed (drawn from the
    # catalogue seed), so the seed does not shift the cheap operations the
    # median falls among.
    pool_rng = random.Random(CATALOGUE_SEED)
    pool = [_valid(plan, gen.sampled(pool_rng, "sample_%02d" % i))
            for i in range(SAMPLER_POOL)]
    for _ in range(SAMPLES_PER_PASS):
        plan.slot(pool)
    for base in (gen.zn_rotation(6), gen.transformation(3, 9, 3, 1, 1)):
        for kind in gen.CORRUPTIONS:
            plan.slot([_corrupted(plan, base, kind, rng, v)
                       for v in range(CORRUPT_VARIANTS)])
    return plan


# -- report -------------------------------------------------------------------

REPORT_RINGS = (7, 8, 9, 9)
REPORT_BUNDLES = ((3, 4, 2), (6, 4, 2), (8, 4, 2))
REPORT_TRANS = ((2, 4, 2), (3, 6, 3))
# Behavioral chains by length.  The eight k=6 reports cost about the same
# and have as many cheaper operations below them as dearer ones above, so
# the median lands in their middle.
REPORT_BEHAV = (4,) * 6 + (6,) * 8 + (8,) * 2


def _flag_combos():
    return [tuple(bool(b >> i & 1) for i in range(3)) for b in range(8)]


def plan_report(seed):
    """The same plan for every seed."""
    plan = Plan()

    def ops(systems_, extra=None):
        return [Op("report", plan.add_system(s), expect=("golden", extra))
                for s in systems_]

    for v in REPORT_RINGS:
        plan.slot(ops([gen.ring(v)], "cyc_holds"))
    for (k, m, d) in REPORT_BUNDLES:
        plan.slot(ops(gen.cyclic_bundle(k, m, d, lam, t)
                      for lam in range(m) for t in range(m)))
    for (k, m, d) in REPORT_TRANS:
        plan.slot(ops(gen.transformation(k, m, d, c, s)
                      for c in range(d) for s in range(m // k)))
    behav = {k: ops([gen.behavioral_chain(k, flags, recur)
                     for flags in _flag_combos() for recur in (False, True)])
             for k in set(REPORT_BEHAV)}
    for k in REPORT_BEHAV:
        plan.slot(behav[k])
    for name in FIXTURES:
        plan.slot(ops([systems.load_fixture(name)]))
    return plan


# -- query --------------------------------------------------------------------

QUERY_INSTANCES = 6
MALFORMED = (
    ("semigroup", ("star", "[1]")),
    ("germ", ("classify", "{}")),
    ("semigroup", ("mul", "{oops", "{}")),
    ("hum", ("[not json",)),
    ("twist", ("extend", '"x"', "{nope")),
    ("germ", ("eq", '{"alpha": [], "g": ', "{}")),
)


def _js(obj):
    return json.dumps(obj, sort_keys=True)


class _ArgMaker:
    """Random valid CLI arguments over one system."""

    def __init__(self, action, rng):
        self.action, self.rng = action, rng
        graph = action.graph
        self.paths = graph.all_paths(2)
        self.by_src = {}
        for p in self.paths:
            self.by_src.setdefault(graph.path_src(p), []).append(p)
        self.points = {v: [x for x in act_mod.boundary_points_from(graph, v, 3)
                           if not x.is_finite()]
                       for v in graph.vertices}

    def triple(self):
        gpd, rng = self.action.groupoid, self.rng
        g = rng.choice(gpd.elements())
        alpha = rng.choice(self.by_src[gpd.rng(g)])
        beta = rng.choice(self.by_src[gpd.src(g)])
        return sg.Triple(alpha, g, beta)

    def germ(self):
        while True:
            t = self.triple()
            pts = self.points[self.action.graph.path_src(t.beta)]
            if pts:
                return germs.Germ(t, self.rng.choice(pts))

    def point(self):
        """An infinite point with the system's shortest period.  The cost of
        xbar and hum grows with the period, and these are the dearest query
        operations, so equal periods keep the tail inside one class."""
        shortest = min(len(x.period) for pts in self.points.values()
                       for x in pts)
        pts = [x for v in sorted(self.points) for x in self.points[v]
               if len(x.period) == shortest]
        return self.rng.choice(pts)

    @staticmethod
    def triple_json(t):
        return _js(sg.to_json(t))

    @staticmethod
    def germ_json(a):
        return _js(germs.to_json(a))

    def args(self, kind):
        action, rng = self.action, self.rng
        if kind == "mul":
            return ("mul", self.triple_json(self.triple()),
                    self.triple_json(self.triple()))
        if kind == "star":
            return ("star", self.triple_json(self.triple()))
        if kind == "leq":
            t = self.triple()
            ext = [p for p in self.paths if p.base == t.beta.base
                   and p.edges[:len(t.beta.edges)] == t.beta.edges]
            s = sg.mul(action, t, sg.idempotent(action, rng.choice(ext)))
            first, second = (s, t) if rng.random() < 0.5 else (t, s)
            return ("leq", self.triple_json(first), self.triple_json(second))
        if kind == "conj":
            p = rng.choice(self.paths)
            return ("conj", self.triple_json(self.triple()),
                    _js({"base": p.base, "edges": list(p.edges)}))
        if kind == "eq":
            a = self.germ()
            if rng.random() < 0.5:
                return ("eq", self.germ_json(a), self.germ_json(self.germ()))
            e = act_mod.edge_at(a.xi, 0)
            p = action.graph.path([e])
            b = germs.Germ(
                sg.Triple(action.graph.concat(a.triple.alpha,
                                              action.act_path(a.triple.g, p)),
                          action.restrict_path(a.triple.g, p),
                          action.graph.concat(a.triple.beta, p)),
                act_mod.point_tail(action.graph, a.xi, 1))
            return ("eq", self.germ_json(a), self.germ_json(b))
        if kind == "compose":
            a = self.germ()
            return ("compose", self.germ_json(germs.germ_inv(action, a)),
                    self.germ_json(a))
        if kind in ("inverse", "classify", "in-core"):
            return (kind, self.germ_json(self.germ()))
        if kind == "xbar":
            return ("xbar", _js(act_mod.point_to_json(self.point())))
        if kind == "hum":
            return (_js(act_mod.point_to_json(self.point())),)
        if kind == "extend":
            g = rng.choice(action.groupoid.elements())
            v = action.groupoid.src(g)
            p = rng.choice([q for q in self.paths if q.base == v])
            return ("extend", _js(g), _js({"base": v, "edges": list(p.edges)}))
        if kind == "omega":
            return ("omega", self.triple_json(self.triple()),
                    self.triple_json(self.triple()))
        if kind in ("kernel", "nucleus"):
            return ()
        raise ValueError(kind)


QUERY_KINDS = (
    ("semigroup", "mul"), ("semigroup", "star"), ("semigroup", "leq"),
    ("semigroup", "conj"), ("germ", "eq"), ("germ", "compose"),
    ("germ", "inverse"), ("germ", "classify"), ("germ", "in-core"),
    ("germ", "xbar"), ("hum", "hum"), ("kernel", "kernel"),
    ("nucleus", "nucleus"),
)
TWIST_KINDS = (("twist", "extend"), ("twist", "omega"))


def plan_query(seed):
    """The same plan for every seed.

    Each (system, kind) slot holds QUERY_INSTANCES argument lists made by
    a fixed catalogue seed, so golden.json covers all of them.
    """
    plan = Plan()
    rng = random.Random(CATALOGUE_SEED)
    explicit = [gen.zn_rotation(8), gen.cyclic_bundle(3, 4, 2, 1, 1),
                gen.transformation(3, 6, 3, 1, 1),
                systems.load_fixture("four_loop_z2")]
    twisted = [gen.twisted_spoke(2, 3, (1, 0, 2)),
               systems.load_fixture("twisted_three_spoke")]
    for (group, kinds) in ((explicit, QUERY_KINDS), (twisted, TWIST_KINDS)):
        for system in group:
            name = plan.add_system(system)
            maker = _ArgMaker(system.action, rng)
            for (cmd, kind) in kinds:
                alts = {maker.args(kind) for _ in range(QUERY_INSTANCES)}
                plan.slot([Op(cmd, name, rest) for rest in sorted(alts)])
    for (cmd, rest) in MALFORMED:
        plan.slot([Op(cmd, s.name, rest, expect=("malformed",))
                   for s in explicit])
    return plan


# -- cocycle ------------------------------------------------------------------

def plan_cocycle(seed):
    """The same plan for every seed.

    Bounds are chosen per size, since the verifier's cost grows steeply
    with both: bound 2 on twisted_three_spoke and its family (spoke(2, 2),
    every twist weight vector), bound 1 on the larger spoke(2, 3) and, six
    times a pass, on spoke(2, 2).
    """
    plan = Plan()

    def op(system, bound):
        return Op("twist", plan.add_system(system),
                  ("verify", "--bound", str(bound)),
                  expect=("golden", "verify_ok"))

    def family(k, m, bound):
        return [op(gen.twisted_spoke(k, m, tuple(code // m ** j % m
                                                 for j in range(k + 1))),
                   bound)
                for code in range(m ** (k + 1))]

    three = systems.load_fixture("twisted_three_spoke")
    plan.slot([op(three, 2)] + family(2, 2, 2))
    plan.slot(family(2, 3, 1))
    small = family(2, 2, 1)
    for _ in range(6):
        plan.slot(small)
    return plan


PLANS = {"validate": plan_validate, "report": plan_report,
         "query": plan_query, "cocycle": plan_cocycle}


# -- sized families for the slope sweep --------------------------------------

def slope_families():
    """(metric stem, size, system, cmd, rest): one operation per size.

    Sizes: zn_rotation n; transformation in-degree d; ring vertices;
    bundle ring length k; query zn_rotation n; spoke hub order m.
    """
    fams = []
    for n in (4, 6, 8):
        fams.append(("validate.zn_rotation", n, gen.zn_rotation(n),
                     "validate", ()))
    for d in (2, 3, 4):
        fams.append(("validate.transformation", d,
                     gen.transformation(2, 12, d, 1, 1), "validate", ()))
    for v in (5, 6, 7):
        fams.append(("report.ring", v, gen.ring(v), "report", ()))
    for k in (2, 4, 8):
        fams.append(("report.bundle", k, gen.cyclic_bundle(k, 4, 2, 1, 1),
                     "report", ()))
    t = _js({"alpha": ["x1"], "beta": ["x0"], "g": "c1"})
    for n in (8, 16, 32):
        fams.append(("query.zn_rotation", n, gen.zn_rotation(n),
                     "semigroup", ("mul", t, t)))
    for m in (2, 3, 4):
        fams.append(("cocycle.spoke", m, gen.twisted_spoke(1, m, (0, 1)),
                     "twist", ("verify", "--bound", "1")))
    return fams
