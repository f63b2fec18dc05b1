"""Circle-valued twists over an action.

A twist is a normalized 2-cocycle on the groupoid together with a phase
for each (element, edge) pair, compatible with the action.  Phases are
roots of unity written additively as exact fractions mod 1 ("p/q"); the
multiplicative identity is "0/1".  The pair extends to paths and induces
a 2-cocycle omega on the semigroup of triples, defined wherever the
product is nonzero.
"""

import math
from fractions import Fraction

from . import semigroup as sg


class TwistError(ValueError):
    pass


PHASE_ONE = Fraction(0)


def phase(value):
    """Parse a circle element: 'p/q' string, int, or Fraction, taken mod 1.
    A bool is no phase, though Python counts it as an int."""
    if isinstance(value, bool):
        raise TwistError("cannot read a phase from %r" % (value,))
    if isinstance(value, Fraction):
        f = value
    elif isinstance(value, int):
        f = Fraction(value)
    elif isinstance(value, str):
        f = Fraction(value)
    else:
        raise TwistError("cannot read a phase from %r" % (value,))
    return f % 1


def phase_mul(a, b):
    return (a + b) % 1


def phase_conj(a):
    return (-a) % 1


def phase_str(a):
    return "%d/%d" % (a.numerator, a.denominator)


class Twist:
    """Sparse table of group phases sigma_G(g,h) and edge phases
    sigma_bowtie(g,e); missing entries are the identity phase."""

    def __init__(self, action, group_entries=(), edge_entries=()):
        gpd = action.groupoid
        if gpd.kind != "explicit":
            raise TwistError("twists need products; the backend is behavioral")
        self.action = action
        self._group = {}
        self._edge = {}
        for (g, h, val) in group_entries:
            if gpd.src(g) != gpd.rng(h):
                raise TwistError("group entry (%r, %r) is not composable"
                                 % (g, h))
            self._group[(g, h)] = phase(val)
        for (g, e, val) in edge_entries:
            edge = action.graph.edge(e)
            if gpd.src(g) != edge.rng:
                raise TwistError("edge entry (%r, %r): the element does not "
                                 "act on the edge" % (g, e))
            self._edge[(g, e)] = phase(val)

    def group(self, g, h):
        gpd = self.action.groupoid
        if gpd.src(g) != gpd.rng(h):
            raise TwistError("(%r, %r) is not composable" % (g, h))
        return self._group.get((g, h), PHASE_ONE)

    def edge(self, g, e):
        if self.action.groupoid.src(g) != self.action.graph.edge(e).rng:
            raise TwistError("%r does not act on edge %r" % (g, e))
        return self._edge.get((g, e), PHASE_ONE)

    def group_json(self):
        return [[g, h, phase_str(v)] for ((g, h), v)
                in sorted(self._group.items()) if v != PHASE_ONE]

    def edge_json(self):
        return [[g, e, phase_str(v)] for ((g, e), v)
                in sorted(self._edge.items()) if v != PHASE_ONE]


def extend_bowtie(twist, g, p):
    """The edge phase extended along a path, front edge first."""
    action = twist.action
    if p.base != action.groupoid.src(g):
        raise TwistError("%r does not act on path %s" % (g, p))
    out, h = PHASE_ONE, g
    for e in p.edges:
        out = phase_mul(out, twist.edge(h, e))
        h = action.restrict_edge(h, e)
    return out


def validate_twist(twist):
    """All normalization, cocycle and compatibility identities; returns the
    list of violations (empty means valid)."""
    action = twist.action
    gpd, graph = action.groupoid, action.graph
    bad = []
    for g in gpd.elements():
        lu = gpd.unit_at(gpd.rng(g))
        ru = gpd.unit_at(gpd.src(g))
        if twist.group(lu, g) != PHASE_ONE or twist.group(g, ru) != PHASE_ONE:
            bad.append("group cocycle is not normalized at %r" % (g,))
    # composable pairs (g, h) and triples (g, h, k) in sorted order
    by_rng = gpd.by_range()
    composable = [(g, h) for g in gpd.elements() for h in by_rng[gpd.src(g)]]
    for (g, h) in composable:
        gh = gpd.mul(g, h)
        for k in by_rng[gpd.src(h)]:
            lhs = phase_mul(twist.group(g, h), twist.group(gh, k))
            rhs = phase_mul(twist.group(h, k), twist.group(g, gpd.mul(h, k)))
            if lhs != rhs:
                bad.append("group cocycle identity fails at (%r, %r, %r)"
                           % (g, h, k))
    for e in sorted(e.name for e in graph.edges):
        u = gpd.unit_at(graph.edge(e).rng)
        if twist.edge(u, e) != PHASE_ONE:
            bad.append("edge phase at the unit is not 1 on %r" % (e,))
    for (g, h) in composable:
        gh = gpd.mul(g, h)
        for e in sorted(e.name for e in graph.received_by(gpd.src(h))):
            he = action.act_edge(h, e)
            lhs = phase_mul(
                phase_mul(twist.edge(h, e), phase_conj(twist.edge(gh, e))),
                twist.edge(g, he))
            rhs = phase_mul(
                phase_conj(twist.group(action.restrict_edge(g, he),
                                       action.restrict_edge(h, e))),
                twist.group(g, h))
            if lhs != rhs:
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
    return phase_mul(extend_bowtie(twist, x, p), twist.group(a, b))


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
    candidate lists hold ids, not triples to hash.  D (`scale`) is the lcm
    of the denominators in the twist's tables; omega is a sum of table
    entries mod 1, so omega·D is an exact integer, and a phase is kept as
    that integer mod D.  The identity holds iff the two integer sides
    agree mod D, so the answer is the one Fraction arithmetic gives; a
    failing side becomes the Fraction x/D again only when it is recorded.
    """
    action = twist.action
    elements = sg.elements_up_to(action, bound)
    cands = _right_candidates(action, elements)
    scale = math.lcm(*(v.denominator for v in (*twist._group.values(),
                                              *twist._edge.values())))
    triples = list(elements)
    ids = {x: i for (i, x) in enumerate(triples)}
    pair_lists = [[ids[t] for t in cands(s)] for s in elements]
    memo = {}

    def meetc(key):
        """(id of x·y, omega(x, y)·D mod D), or None when x·y is zero."""
        m = sg.meet(action, triples[key[0]], triples[key[1]])
        if m is not None:
            xy = sg.Triple(m[0], action.groupoid.mul(m[1], m[2]), m[3])
            i = ids.setdefault(xy, len(triples))
            if i == len(triples):
                triples.append(xy)
            w = _meet_phase(twist, m)
            m = (i, w.numerator * (scale // w.denominator) % scale)
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
                        lhs = Fraction((st[1] + r_st[1]) % scale, scale)
                        rhs = Fraction((rs[1] + rst[1]) % scale, scale)
                        failures.append({
                            "r": sg.to_json(triples[r]),
                            "s": sg.to_json(triples[s]),
                            "t": sg.to_json(triples[t]),
                            "lhs": phase_str(lhs), "rhs": phase_str(rhs),
                        })
                    else:
                        return {"ok": False, "checked": checked,
                                "failures": failures, "truncated": True}
    return {"ok": not failures, "checked": checked, "failures": failures}
