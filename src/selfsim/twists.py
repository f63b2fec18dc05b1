"""Circle-valued twists over an action.

A twist is a normalized 2-cocycle on the groupoid together with a phase
for each (element, edge) pair, compatible with the action.  Phases are
roots of unity written additively as exact fractions mod 1 ("p/q"); the
multiplicative identity is "0/1".  The pair extends to paths and induces
a 2-cocycle omega on the semigroup of triples, defined wherever the
product is nonzero.

A Twist owns the phase format.  It parses each entry once and keeps it as
an int k in [0, scale), standing for k/scale, where scale is the lcm of
the entries' denominators.  Every phase computed here is a sum of entries,
so it is an int mod scale, exact; Twist.fraction(k) gives the Fraction
back for printing.
"""

import math
from fractions import Fraction

from . import semigroup as sg


class TwistError(ValueError):
    pass


def phase(value):
    """Parse a circle element: 'p/q' string, int, or Fraction, taken mod 1.
    A bool is no phase, though Python counts it as an int."""
    if isinstance(value, bool) or not isinstance(value, (Fraction, int, str)):
        raise TwistError("cannot read a phase from %r" % (value,))
    return Fraction(value) % 1


def phase_str(a):
    return "%d/%d" % (a.numerator, a.denominator)


class Twist:
    """Sparse table of group phases sigma_G(g,h) and edge phases
    sigma_bowtie(g,e); missing entries are the identity phase.  Phases are
    ints mod `scale` (1 for the trivial twist)."""

    def __init__(self, action, group_entries=(), edge_entries=()):
        gpd = action.groupoid
        if gpd.kind != "explicit":
            raise TwistError("twists need products; the backend is behavioral")
        self.action = action
        group, edge = {}, {}
        for (g, h, val) in group_entries:
            if gpd.src(g) != gpd.rng(h):
                raise TwistError("group entry (%r, %r) is not composable"
                                 % (g, h))
            group[(g, h)] = phase(val)
        for (g, e, val) in edge_entries:
            if gpd.src(g) != action.graph.edge(e).rng:
                raise TwistError("edge entry (%r, %r): the element does not "
                                 "act on the edge" % (g, e))
            edge[(g, e)] = phase(val)
        self.scale = scale = math.lcm(
            *(f.denominator for f in (*group.values(), *edge.values())))
        self._group = {k: f.numerator * (scale // f.denominator)
                       for (k, f) in group.items()}
        self._edge = {k: f.numerator * (scale // f.denominator)
                      for (k, f) in edge.items()}

    def fraction(self, k):
        """The phase k/scale as a Fraction mod 1, for printing."""
        return Fraction(k % self.scale, self.scale)

    def group(self, g, h):
        gpd = self.action.groupoid
        if gpd.src(g) != gpd.rng(h):
            raise TwistError("(%r, %r) is not composable" % (g, h))
        return self._group.get((g, h), 0)

    def edge(self, g, e):
        if self.action.groupoid.src(g) != self.action.graph.edge(e).rng:
            raise TwistError("%r does not act on edge %r" % (g, e))
        return self._edge.get((g, e), 0)

    def group_json(self):
        return [[g, h, phase_str(self.fraction(v))] for ((g, h), v)
                in sorted(self._group.items()) if v]

    def edge_json(self):
        return [[g, e, phase_str(self.fraction(v))] for ((g, e), v)
                in sorted(self._edge.items()) if v]


def extend_bowtie(twist, g, p):
    """The edge phase extended along a path, front edge first."""
    action = twist.action
    if p.base != action.groupoid.src(g):
        raise TwistError("%r does not act on path %s" % (g, p))
    out, h = 0, g
    for e in p.edges:
        out += twist.edge(h, e)
        h = action.restrict_edge(h, e)
    return out % twist.scale


def validate_twist(twist):
    """All normalization, cocycle and compatibility identities; returns the
    list of violations (empty means valid)."""
    action = twist.action
    gpd, graph = action.groupoid, action.graph
    group, edge, scale = twist.group, twist.edge, twist.scale
    bad = []
    for g in gpd.elements():
        lu = gpd.unit_at(gpd.rng(g))
        ru = gpd.unit_at(gpd.src(g))
        if group(lu, g) or group(g, ru):
            bad.append("group cocycle is not normalized at %r" % (g,))
    # composable pairs (g, h) and triples (g, h, k) in sorted order
    by_rng = gpd.by_range()
    composable = [(g, h) for g in gpd.elements() for h in by_rng[gpd.src(g)]]
    for (g, h) in composable:
        gh = gpd.mul(g, h)
        for k in by_rng[gpd.src(h)]:
            if (group(g, h) + group(gh, k) - group(h, k)
                    - group(g, gpd.mul(h, k))) % scale:
                bad.append("group cocycle identity fails at (%r, %r, %r)"
                           % (g, h, k))
    for e in sorted(e.name for e in graph.edges):
        u = gpd.unit_at(graph.edge(e).rng)
        if edge(u, e):
            bad.append("edge phase at the unit is not 1 on %r" % (e,))
    for (g, h) in composable:
        gh = gpd.mul(g, h)
        for e in sorted(e.name for e in graph.received_by(gpd.src(h))):
            he = action.act_edge(h, e)
            lhs = edge(h, e) - edge(gh, e) + edge(g, he)
            rhs = group(g, h) - group(action.restrict_edge(g, he),
                                      action.restrict_edge(h, e))
            if (lhs - rhs) % scale:
                bad.append("edge compatibility fails at (%r, %r, %r)"
                           % (g, h, e))
    return bad


def omega(twist, s, t):
    """The induced semigroup 2-cocycle; None when the product is zero."""
    m = sg.meet(twist.action, s, t)
    return None if m is None else _meet_phase(twist, m)


def _meet_phase(twist, m):
    """omega from a meet: the edge phase of x along p times sigma_G(a, b)."""
    _, a, b, _, x, p = m
    return (extend_bowtie(twist, x, p) + twist.group(a, b)) % twist.scale


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


def verify_omega_cocycle(twist, bound):
    """Exhaustively check omega(s,t)·omega(r,st) = omega(r,s)·omega(rs,t)
    over all triples with legs of length <= bound and nonzero products.

    One meet per composable pair gives both the product and its omega, and
    the pair is memoized: it shows up under many third factors.  The loop
    works on integers only.  Each triple gets an id on first sight (the
    elements in order, then each new product), so the memo and the
    candidate lists hold ids, not triples to hash.  Each omega is the
    twist's int mod `scale`, and a failing side becomes a Fraction only
    when it is recorded.
    """
    action = twist.action
    elements = sg.elements_up_to(action, bound)
    cands = _right_candidates(action, elements)
    scale = twist.scale
    triples = list(elements)
    ids = {x: i for (i, x) in enumerate(triples)}
    pair_lists = [[ids[t] for t in cands(s)] for s in elements]
    memo = {}

    def meetc(key):
        """(id of x·y, omega(x, y)), or None when x·y is zero."""
        m = sg.meet(action, triples[key[0]], triples[key[1]])
        if m is not None:
            xy = sg.Triple(m[0], action.groupoid.mul(m[1], m[2]), m[3])
            i = ids.setdefault(xy, len(triples))
            if i == len(triples):
                triples.append(xy)
            m = (i, _meet_phase(twist, m))
        memo[key] = m
        return m

    checked, failures = 0, []
    for r in range(len(elements)):
        for s in pair_lists[r]:
            key = (r, s)
            rs = memo[key] if key in memo else meetc(key)
            if rs is None:
                continue
            for t in pair_lists[s]:
                key = (s, t)
                st = memo[key] if key in memo else meetc(key)
                if st is None:
                    continue
                key = (rs[0], t)
                rst = memo[key] if key in memo else meetc(key)
                if rst is None:
                    continue
                checked += 1
                key = (r, st[0])
                r_st = memo[key] if key in memo else meetc(key)
                if (st[1] + r_st[1] - rs[1] - rst[1]) % scale:
                    if len(failures) < 20:
                        failures.append({
                            "r": sg.to_json(triples[r]),
                            "s": sg.to_json(triples[s]),
                            "t": sg.to_json(triples[t]),
                            "lhs": phase_str(twist.fraction(st[1] + r_st[1])),
                            "rhs": phase_str(twist.fraction(rs[1] + rst[1])),
                        })
                    else:
                        return {"ok": False, "checked": checked,
                                "failures": failures, "truncated": True}
    return {"ok": not failures, "checked": checked, "failures": failures}
