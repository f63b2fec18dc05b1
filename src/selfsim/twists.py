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

import collections
import math
from fractions import Fraction

from . import semigroup as sg
from .graphs import is_prefix


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
    list of violations (empty means valid), in this order: normalization
    of sigma_G, the group cocycle identity, the edge phase at the units,
    edge compatibility.

    The action must be valid (SelfSimilarAction.validate returns no
    problem), as it is in validate_system and `selfsim twist validate`.
    Both identities are checked at middles h through the groupoid's
    law_failures, with the units passing once both normalization scans
    are clean.

    The group cocycle identity at (g, h, k) says that (u_g u_h) u_k =
    u_g (u_h u_k) in the twisted groupoid algebra, whose basis elements
    u_g multiply as u_g u_h = sigma_G(g, h) u_gh.  The scalars are central
    and invertible, so by Light's associativity test (see
    ExplicitGroupoid.law_failures) the middles h at which it holds for
    every composable g and k are closed under products.  A unit middle
    passes by normalization: sigma_G(g, u) + sigma_G(gu, k) =
    sigma_G(u, k) + sigma_G(g, uk) reads 0 + sigma_G(g, k) on both sides.

    Write D(g, h, e) for the edge compatibility defect
        sigma_bowtie(h, e) - sigma_bowtie(gh, e) + sigma_bowtie(g, h·e)
        - sigma_G(g, h) + sigma_G(g|_{h·e}, h|_e).
    Once the group identity holds everywhere, the middles h with
    D(g, h, e) = 0 for every g and e are closed under products, normalized
    or not.  Take a and b among them, and expand sigma_bowtie((ga)b, e)
    through D(ga, b, e) and D(g, a, b·e), and sigma_bowtie(ab, e) through
    D(a, b, e).  By the action laws (ga)|_{b·e} = g|_{ab·e} a|_{b·e} and
    (ab)|_e = a|_{b·e} b|_e, and what is left of D(g, ab, e) is the group
    identity at (g, a, b) and at (g|_{ab·e}, a|_{b·e}, b|_e), so it is 0.
    A unit middle u passes by normalization and the unit law of the
    action, u·e = e and u|_e a unit: D(g, u, e) = sigma_G(g|_e, u|_e) = 0.
    When the group identity fails somewhere, compatibility is scanned at
    every middle.
    """
    action = twist.action
    gpd, graph = action.groupoid, action.graph
    group, edge, scale = twist.group, twist.edge, twist.scale
    elements, by_rng = gpd.elements(), gpd.by_range()
    received = {v: sorted(e.name for e in graph.received_by(v))
                for v in gpd.vertices}
    normal = []
    for g in elements:
        lu = gpd.unit_at(gpd.rng(g))
        ru = gpd.unit_at(gpd.src(g))
        if group(lu, g) or group(g, ru):
            normal.append("group cocycle is not normalized at %r" % (g,))
    unit_edges = []
    for e in sorted(e.name for e in graph.edges):
        u = gpd.unit_at(graph.edge(e).rng)
        if edge(u, e):
            unit_edges.append("edge phase at the unit is not 1 on %r" % (e,))

    def identity(middles):
        bad = []
        for (g, h, gh) in gpd.composable_pairs(middles):
            for k in by_rng[gpd.src(h)]:
                if (group(g, h) + group(gh, k) - group(h, k)
                        - group(g, gpd.mul(h, k))) % scale:
                    bad.append("group cocycle identity fails at "
                               "(%r, %r, %r)" % (g, h, k))
        return bad

    def compatibility(middles):
        bad = []
        for (g, h, gh) in gpd.composable_pairs(middles):
            for e in received[gpd.src(h)]:
                he = action.act_edge(h, e)
                lhs = edge(h, e) - edge(gh, e) + edge(g, he)
                rhs = group(g, h) - group(action.restrict_edge(g, he),
                                          action.restrict_edge(h, e))
                if (lhs - rhs) % scale:
                    bad.append("edge compatibility fails at "
                               "(%r, %r, %r)" % (g, h, e))
        return bad

    normalized = not normal and not unit_edges
    cocycle = gpd.law_failures(identity, normalized)
    incompatible = (compatibility(set(elements)) if cocycle
                    else gpd.law_failures(compatibility, normalized))
    return normal + cocycle + unit_edges + incompatible


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


class _Memo(dict):
    """A dict that fills a missing key with fill(key), once."""

    def __init__(self, fill):
        super().__init__()
        self.fill = fill

    def __missing__(self, key):
        value = self[key] = self.fill(key)
        return value


def _interner():
    """(the keys in order of first sight, a function giving a key's id)."""
    keys, ids = [], {}

    def intern(key):
        i = ids.setdefault(key, len(keys))
        if i == len(keys):
            keys.append(key)
        return i

    return keys, intern


def verify_omega_cocycle(twist, bound):
    """Exhaustively check omega(s,t)·omega(r,st) = omega(r,s)·omega(rs,t)
    over all triples with legs of length <= bound and nonzero products.

    Each identity is evaluated once per class of instances.  Call
    (beta, g) the right half of s = (alpha, g, beta) and (gamma, h) the
    left half of t = (gamma, h, delta).  semigroup.meet's case split reads
    these two halves and nothing else:

        gamma = beta·b1:  s·t = (alpha·p, ab, delta), p = g·b1, a = g|_b1,
                          b = h, omega = (edge phase of g along b1) + sigma
        beta = gamma·g1:  s·t = (alpha, ab, delta·p), p = h⁻¹·g1, a = g,
                          b = (h⁻¹|_g1)⁻¹, omega = (edge phase of h along
                          p) + sigma

    with sigma = sigma_G(a, b); s·t is zero when the legs are
    incomparable.  So core(right half of s, left half of t) = (case, p,
    ab, omega(s, t)) or None.  For an instance (r, s, t):

      - r·s and omega(r, s) are core(right of r, left of s);
      - s·t and omega(s, t) are core(right of s, left of t);
      - the right half of r·s is (beta_s, ab) in the first case and
        (beta_s·p, ab) in the second, so (rs)·t and omega(rs, t) read the
        right half of r, s and the left half of t;
      - the left half of s·t is (alpha_s·p, ab) or (alpha_s, ab), so
        omega(r, st) reads the same three;
      - s is a candidate for r when alpha_s is comparable with beta_r, and
        t for s when gamma is comparable with beta_s.

    So whether an instance is counted, whether it holds and its two sides
    are functions of (right half of r, s, left half of t), its class.
    Paths and halves are interned as ints.  core is filled once per pair
    of halves met, through the checked library calls, each memoized per
    distinct input: is_prefix and tail_after per pair of legs; act_path,
    restrict_path and extend_bowtie per element and tail; concat per leg
    and tail; mul with Twist.group per pair; inv per element.  The
    candidates of each beta leg are grouped by left half with their
    multiplicity.  For each right half rho and each candidate s, each
    left half of t is evaluated once and counted with its multiplicity;
    rho's total is the count for any r with right half rho, and the r loop
    adds it in element order.  When the total holds a failing instance,
    that r is replayed per s and per t in the triple loop's order, so
    `checked`, the failures in order, the cap of 20 and `truncated` are
    those of the loop over triples (tests/test_twists.py::oracle_verify).

    Calls the triple loop makes and this one does not: the alpha leg of
    r·s and the delta leg of s·t are never built (no concat), and no
    product triple is formed; core(right of rs, left of t) and
    omega(r, st) are met once per class, not once per r with right half
    rho and t with left half lambda; omega(r, s) and the right half of
    r·s once per (rho, s), not once per r.  No instance goes unchecked,
    since each instance's truth value and sides are its class's and each
    class is evaluated.  The tables die with the call, and a failing
    side becomes a Fraction only when it is recorded.
    """
    action = twist.action
    gpd, graph = action.groupoid, action.graph
    scale = twist.scale
    elements = sg.elements_up_to(action, bound)
    cands = _right_candidates(action, elements)
    paths, path_id = _interner()
    halves, half_id = _interner()
    legs = [(path_id(x.alpha), x.g, path_id(x.beta)) for x in elements]
    lefts = [half_id((alpha, g)) for (alpha, g, _) in legs]
    rights = [half_id((beta, g)) for (_, g, beta) in legs]
    position = {x: i for (i, x) in enumerate(elements)}
    # per beta leg: its candidates t in order, and (left half, count)
    groups = {}
    for (x, (_, _, beta)) in zip(elements, legs):
        if beta not in groups:      # the candidates depend on beta alone
            ts = [position[t] for t in cands(x)]
            groups[beta] = ts, list(collections.Counter(
                lefts[t] for t in ts).items())

    def cut(key):
        """(True, id of b1), (False, id of g1), or None: incomparable."""
        beta, gamma = paths[key[0]], paths[key[1]]
        if is_prefix(beta, gamma):
            return True, path_id(graph.tail_after(gamma, len(beta.edges)))
        if is_prefix(gamma, beta):
            return False, path_id(graph.tail_after(beta, len(gamma.edges)))
        return None

    def walk(key):
        k, q = key[0], paths[key[1]]
        return (path_id(action.act_path(k, q)), action.restrict_path(k, q),
                extend_bowtie(twist, k, q))

    cuts, walks = _Memo(cut), _Memo(walk)
    cats = _Memo(lambda key: path_id(graph.concat(paths[key[0]],
                                                  paths[key[1]])))
    prods = _Memo(lambda key: (gpd.mul(*key), twist.group(*key)))
    invs = _Memo(gpd.inv)

    def meet(rho, lam):
        """(first case?, id of p, ab, omega) for the halves with ids rho
        and lam, or None when the product is zero."""
        beta, g = halves[rho]
        gamma, h = halves[lam]
        c = cuts[beta, gamma]
        if c is None:
            return None
        first, tail = c
        if first:
            p, a, w = walks[g, tail]
            b = h
        else:
            p, hi_g1, _ = walks[invs[h], tail]
            a, b = g, invs[hi_g1]
            w = walks[h, p][2]
        ab, sigma = prods[a, b]
        return first, p, ab, (w + sigma) % scale

    core = _Memo(lambda rho: _Memo(lambda lam: meet(rho, lam)))

    def by_left_of(s):
        """(lambda, its count, omega(s, t), left half of s·t) for each
        left half lambda of the candidates t of s."""
        alpha, _, beta = legs[s]
        row = core[rights[s]]
        out = []
        for (lam, m) in groups[beta][1]:
            first, p, ab, w = row[lam]
            out.append((lam, m, w,
                        half_id((cats[alpha, p] if first else alpha, ab))))
        return out

    by_left = _Memo(by_left_of)

    def total(rho):
        """(checks for an r with right half rho, None) when they all hold;
        else (checks, [(s, its checks, row of r·s, {lambda: (lhs, rhs)}
        for the failing lambda)] per candidate s, in order)."""
        row = core[rho]
        n, per_s, failing = 0, [], False
        for s in groups[halves[rho][0]][0]:
            first, p, ab, w_rs = row[lefts[s]]
            beta = legs[s][2]
            row_rs = core[half_id((beta if first else cats[beta, p], ab))]
            count, bad = 0, {}
            for (lam, m, w_st, lam_st) in by_left[s]:
                c = row_rs[lam]
                if c is None:
                    continue
                count += m
                lhs, rhs = w_st + row[lam_st][3], w_rs + c[3]
                if (lhs - rhs) % scale:
                    bad[lam] = lhs, rhs
            n += count
            failing = failing or bool(bad)
            per_s.append((s, count, row_rs, bad))
        return n, per_s if failing else None

    totals = _Memo(total)
    checked, failures = 0, []
    for r in range(len(elements)):
        n, per_s = totals[rights[r]]
        if per_s is None:
            checked += n
            continue
        for (s, count, row_rs, bad) in per_s:
            if not bad:
                checked += count
                continue
            for t in groups[legs[s][2]][0]:
                lam = lefts[t]
                if row_rs[lam] is None:
                    continue
                checked += 1
                if lam not in bad:
                    continue
                if len(failures) == 20:
                    return {"ok": False, "checked": checked,
                            "failures": failures, "truncated": True}
                lhs, rhs = bad[lam]
                failures.append({
                    "r": sg.to_json(elements[r]),
                    "s": sg.to_json(elements[s]),
                    "t": sg.to_json(elements[t]),
                    "lhs": phase_str(twist.fraction(lhs)),
                    "rhs": phase_str(twist.fraction(rhs)),
                })
    return {"ok": not failures, "checked": checked, "failures": failures}
