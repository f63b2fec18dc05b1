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
from .graphs import Path, is_prefix
from .groupoids import NO_ROW, _rows


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
    ints mod `scale` (1 for the trivial twist).  Each table is stored
    once, as rows g -> {h: sigma_G(g, h)} (_group_rows) and
    g -> {e: sigma_bowtie(g, e)} (_edge_rows), built here, with a row,
    perhaps empty, for every element."""

    def __init__(self, action, group_entries=(), edge_entries=()):
        """Each table is given as rows, as a dict (first, second) -> phase
        or as (first, second, phase) triples.  Each entry is checked here,
        once: a group entry whose pair does not compose, or an edge entry
        whose element does not act on its edge, raises TwistError."""
        gpd = action.groupoid
        if gpd.kind != "explicit":
            raise TwistError("twists need products; the backend is behavioral")
        self.action = action
        self._group_rows = group = {g: {} for g in gpd.elements()}
        self._edge_rows = edge = {g: {} for g in gpd.elements()}
        for (g, row) in _rows(group_entries).items():
            for (h, val) in row.items():
                if gpd.src(g) != gpd.rng(h):
                    raise TwistError("group entry (%r, %r) is not composable"
                                     % (g, h))
                group[g][h] = phase(val)
        for (g, row) in _rows(edge_entries).items():
            for (e, val) in row.items():
                if gpd.src(g) != action.graph.edge(e).rng:
                    raise TwistError("edge entry (%r, %r): the element does "
                                     "not act on the edge" % (g, e))
                edge[g][e] = phase(val)
        self.scale = scale = math.lcm(*(f.denominator for rows in (group, edge)
                                        for row in rows.values()
                                        for f in row.values()))
        for row in [*group.values(), *edge.values()]:
            for (x, f) in row.items():
                row[x] = f.numerator * (scale // f.denominator)

    def fraction(self, k):
        """The phase k/scale as a Fraction mod 1, for printing."""
        return Fraction(k % self.scale, self.scale)

    def group(self, g, h):
        """sigma_G(g, h); (g, h) must compose, as every stored entry does."""
        return self._group_rows[g].get(h, 0)

    def edge(self, g, e):
        """sigma_bowtie(g, e); g must act on e, as in every stored entry."""
        return self._edge_rows[g].get(e, 0)


def extend_bowtie(twist, g, p):
    """The edge phase extended along a path, front edge first; each step's
    pair is checked by its restriction before its edge phase is read."""
    action = twist.action
    if p.base != action.groupoid.src(g):
        raise TwistError("%r does not act on path %s" % (g, p))
    out, h = 0, g
    for e in p.edges:
        h, out = action.restrict_edge(h, e), out + twist.edge(h, e)
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
    are clean.  The action is valid, so its tables are read directly, as
    rows: each middle's entries once, then the rows of the outer factors
    once per pair.

    The group cocycle identity at (g, h, k) says that (u_g u_h) u_k =
    u_g (u_h u_k) in the twisted groupoid algebra, whose basis elements
    u_g multiply as u_g u_h = sigma_G(g, h) u_gh.  The scalars are central
    and invertible, so by Light's associativity test (see
    ExplicitGroupoid.law_failures) the middles h at which it holds for
    every composable g and k are closed under products.  A unit middle
    passes by normalization: sigma_G(g, u) + sigma_G(gu, k) =
    sigma_G(u, k) + sigma_G(g, uk) reads 0 + sigma_G(g, k) on both sides,
    and a unit outer factor g or k passes by normalization the same way.

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
    action, u·e = e and u|_e a unit: D(g, u, e) = sigma_G(g|_e, u|_e) = 0,
    and D(u, h, e) = sigma_bowtie(u, h·e) + sigma_G(u|_{h·e}, h|_e) = 0.
    When the group identity fails somewhere, compatibility is scanned at
    every middle.
    """
    action = twist.action
    gpd, graph = action.groupoid, action.graph
    group, edge, scale = twist._group_rows, twist._edge_rows, twist.scale
    els, products, units = gpd._elements, gpd._mul_rows, gpd.units
    act, res = action._act_rows, action._res_rows
    elements = gpd.elements()
    received = graph.received_names
    normal = []
    for g in elements:
        if (group[units[els[g].rng]].get(g, 0)
                or group[g].get(units[els[g].src], 0)):
            normal.append("group cocycle is not normalized at %r" % (g,))
    unit_edges = []
    for e in graph.edges:
        if edge[units[e.rng]].get(e.name, 0):
            unit_edges.append("edge phase at the unit is not 1 on %r"
                              % (e.name,))

    # s_xy is the phase at (x, y), and xy the product or image there
    def identity(middles, outer=None):
        bad, by_rng, tails = [], gpd.by_range(outer), {}
        for h in middles:
            mul_h, group_h = products[h], group[h]
            tails[h] = [(k, mul_h[k], group_h.get(k, 0))
                        for k in by_rng[els[h].src]]
        for (g, h, gh) in gpd.composable_pairs(middles, outer):
            group_g, group_gh = group[g], group[gh]
            s_gh = group_g.get(h, 0)
            for (k, hk, s_hk) in tails[h]:
                if (s_gh + group_gh.get(k, 0) - s_hk
                        - group_g.get(hk, 0)) % scale:
                    bad.append("group cocycle identity fails at "
                               "(%r, %r, %r)" % (g, h, k))
        return bad

    def compatibility(middles, outer=None):
        bad, legs = [], {}
        for h in middles:
            act_h, res_h, edge_h = act.get(h, NO_ROW), res.get(h, NO_ROW), edge[h]
            legs[h] = [(e, act_h[e], res_h[e], edge_h.get(e, 0))
                       for e in received(els[h].src)]
        for (g, h, gh) in gpd.composable_pairs(middles, outer):
            if not legs[h]:
                continue
            res_g, edge_g, edge_gh = res[g], edge[g], edge[gh]
            s_gh = group[g].get(h, 0)
            for (e, he, h_e, s_he) in legs[h]:
                lhs = s_he - edge_gh.get(e, 0) + edge_g.get(he, 0)
                rhs = s_gh - group[res_g[he]].get(h_e, 0)
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
    """The induced semigroup 2-cocycle; None when the product is zero.  The
    meet's (a, b) is checked: on an unvalidated action it may not compose."""
    m = sg.meet(twist.action, s, t)
    if m is None:
        return None
    _, a, b, _, x, p = m
    if twist.action.groupoid.src(a) != twist.action.groupoid.rng(b):
        raise TwistError("(%r, %r) is not composable" % (a, b))
    return (extend_bowtie(twist, x, p) + twist.group(a, b)) % twist.scale


class _Memo(dict):
    """A dict that fills a missing key with fill(key), once."""

    def __init__(self, fill):
        super().__init__()
        self.fill = fill

    def __missing__(self, key):
        value = self[key] = self.fill(key)
        return value


def _interner():
    """(the keys in order of first sight, a function giving a key's id).
    The function is the lookup of a _Memo, so a key seen before never
    reaches Python code."""
    keys = []

    def fill(key):
        keys.append(key)
        return len(keys) - 1

    return keys, _Memo(fill).__getitem__


def _walk(twist, g, q):
    """(g·q, g|_q, edge phase of g along q) in one pass over q, read
    straight from the tables: g must act on q and the action be valid."""
    action = twist.action
    act, res, edge = action._act_rows, action._res_rows, twist._edge_rows
    h, image, w = g, [], 0
    for e in q.edges:
        image.append(act[h][e])
        w += edge[h].get(e, 0)
        h = res[h][e]
    return (Path(action.groupoid._elements[g].rng, tuple(image)), h,
            w % twist.scale)


def verify_omega_cocycle(twist, bound):
    """Exhaustively check omega(s,t)·omega(r,st) = omega(r,s)·omega(rs,t)
    over all triples with legs of length <= bound and nonzero products.

    The action must be valid (SelfSimilarAction.validate returns no
    problem), as it is in `selfsim twist verify`, after validate_system,
    and in validate_twist: the groupoid's product, inverse and element
    tables, the action's edge action and restriction tables and the
    twist's entries are read directly, without the one-step guards.

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
    Paths and halves are interned as ints, the paths up to the bound
    first, and the elements are the legs (alpha, g, beta) in
    semigroup.elements_up_to's order, each (g, alpha) a run of betas.
    core is filled once per pair of halves met, each step memoized per
    distinct input: the case and tail per pair of legs; one walk giving
    k·q, k|_q and the edge phase of k along q per element and tail; each
    concatenation.  Products, inverses and group phases are table
    lookups.  The candidates of each beta leg are the runs whose alpha
    extends beta, then those whose alpha is a proper prefix of beta,
    longest first, each with its multiplicity.  For each right half rho
    and each candidate s, each left half of t is evaluated once and
    counted with its multiplicity; rho's total is the count for any r
    with right half rho, and the r loop adds it in element order.  When
    the total holds a failing instance, that r is replayed per s and per
    t in the triple loop's order, so `checked`, the failures in order,
    the cap of 20 and `truncated` are those of the loop over triples
    (tests/test_twists.py::oracle_verify).

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
    els, mul, inv = gpd._elements, gpd._mul_rows, gpd._inv
    group, scale = twist._group_rows, twist.scale
    paths, path_id = _interner()
    srcs = _Memo(lambda i: graph.path_src(paths[i]))
    by_src = {}
    for p in graph.all_paths(bound):
        i = path_id(p)
        by_src.setdefault(srcs[i], []).append(i)
    shorter = {i: path_id(Path(p.base, p.edges[:-1]))
               for (i, p) in enumerate(paths) if p.edges}
    halves, half_id = _interner()
    legs, lefts, rights = [], [], []
    # per path id: the left halves (alpha, g) with that alpha, and with
    # an alpha extending it, each with its run of element positions
    exact, extends, runs = {}, {}, {}
    for g in gpd.elements():
        betas = by_src[els[g].src]
        right = [half_id((b, g)) for b in betas]
        for a in by_src[els[g].rng]:
            lam = half_id((a, g))
            runs[lam] = range(len(legs), len(legs) + len(betas))
            exact.setdefault(a, []).append(lam)
            p = a
            while p is not None:
                extends.setdefault(p, []).append(lam)
                p = shorter.get(p)
            legs += [(a, g, b) for b in betas]
            lefts += [lam] * len(betas)
            rights += right

    def candidates(beta):
        """(the t with mul(s, t) nonzero for an s with this beta leg, in
        order, and (left half, count) for their left halves)."""
        lams = list(extends.get(beta, ()))
        p = shorter.get(beta)
        while p is not None:
            lams += exact.get(p, ())
            p = shorter.get(p)
        return ([t for lam in lams for t in runs[lam]],
                [(lam, len(runs[lam])) for lam in lams])

    groups = _Memo(candidates)

    def cut(key):
        """(True, id of b1), (False, id of g1), or None: incomparable."""
        beta, gamma = paths[key[0]], paths[key[1]]
        if is_prefix(beta, gamma):
            return True, path_id(Path(srcs[key[0]],
                                      gamma.edges[len(beta.edges):]))
        if is_prefix(gamma, beta):
            return False, path_id(Path(srcs[key[1]],
                                       beta.edges[len(gamma.edges):]))
        return None

    def walk(key):
        image, h, w = _walk(twist, key[0], paths[key[1]])
        return path_id(image), h, w

    def cat(key):
        p, q = paths[key[0]], paths[key[1]]
        return path_id(Path(p.base, p.edges + q.edges))

    cuts, walks, cats = _Memo(cut), _Memo(walk), _Memo(cat)

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
            p, hi_g1, _ = walks[inv[h], tail]
            a, b = g, inv[hi_g1]
            w = walks[h, p][2]
        return first, p, mul[a][b], (w + group[a].get(b, 0)) % scale

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

    def leg_json(x):
        """semigroup.to_json of the element at position x."""
        alpha, g, beta = legs[x]
        return {"alpha": list(paths[alpha].edges), "g": g,
                "beta": list(paths[beta].edges)}

    totals = _Memo(total)
    checked, failures = 0, []
    for r in range(len(legs)):
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
                    "r": leg_json(r), "s": leg_json(s), "t": leg_json(t),
                    "lhs": phase_str(twist.fraction(lhs)),
                    "rhs": phase_str(twist.fraction(rhs)),
                })
    return {"ok": not failures, "checked": checked, "failures": failures}
