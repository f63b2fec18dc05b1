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


class _Memo(dict):
    """A dict that fills a missing key with fill(key), once."""

    def __init__(self, fill):
        super().__init__()
        self.fill = fill

    def __missing__(self, key):
        value = self[key] = self.fill(key)
        return value


def verify_omega_cocycle(twist, bound):
    """Exhaustively check omega(s,t)·omega(r,st) = omega(r,s)·omega(rs,t)
    over all triples with legs of length <= bound and nonzero products.

    A product kernel over int ids does the work.  Each path gets an id on
    first sight, and each triple is held as (id of alpha, g, id of beta)
    with an id of its own (the elements in order, then each new product).
    A pair of triples is met once, giving (id of s·t, omega(s, t)), or
    None when s·t is zero; the pair shows up under many third factors.
    The meet is semigroup.meet's case split, with s·t = (alpha', ab,
    delta') and omega = (edge phase of x along p) + sigma_G(a, b).  For
    s = (alpha, g, beta) and t = (gamma, h, delta):

        gamma = beta·b1:  s·f_gamma = (alpha', a, gamma), b = h, x = g, p = b1
        beta = gamma·g1:  t*·f_beta = (delta', b⁻¹, beta), a = g, x = h,
                          p = h⁻¹·g1 (delta' after |delta|)

    so alpha' = alpha·(g·b1), a = g|_b1 and delta' = delta in the first
    case, and b = (h⁻¹|_g1)⁻¹ and delta' = delta·(h⁻¹·g1) in the second.
    Its steps are memoized, keyed by ids: the case and the tail (b1 or
    g1) per (id of beta, id of gamma); the walk (id of k·q, k|_q, edge
    phase of k along q) per element k and tail q; each concatenation per
    (leg, tail); (ab, sigma_G(a, b)) per (a, b); each inverse; and each
    product triple.  A walk is a pure function of (k, q) over the
    action's and the twist's fixed tables, and so is every other entry
    of its key, so the memo changes no answer.  Each entry is filled on
    first sight by the checked library calls (is_prefix, tail_after,
    concat, act_path, restrict_path, extend_bowtie, mul, inv and
    Twist.group), so every check still fires once per distinct input;
    the tables die with the call.  Each omega is the twist's int mod
    `scale`, and a failing side becomes a Fraction only when it is
    recorded.
    """
    action = twist.action
    gpd, graph = action.groupoid, action.graph
    scale = twist.scale
    elements = sg.elements_up_to(action, bound)
    cands = _right_candidates(action, elements)
    paths, path_ids = [], {}

    def path_id(p):
        i = path_ids.setdefault(p, len(paths))
        if i == len(paths):
            paths.append(p)
        return i

    triples = [(path_id(x.alpha), x.g, path_id(x.beta)) for x in elements]
    ids = {x: i for (i, x) in enumerate(triples)}
    pair_lists, by_beta = [], {}
    for (s, (_, _, beta)) in zip(elements, triples):
        if beta not in by_beta:      # the candidates depend on beta alone
            by_beta[beta] = [ids[path_id(t.alpha), t.g, path_id(t.beta)]
                             for t in cands(s)]
        pair_lists.append(by_beta[beta])

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

    def meet(si, ti):
        """(id of s·t, omega(s, t)) for the triples s and t with ids si and
        ti, or None when s·t is zero."""
        alpha, g, beta = triples[si]
        gamma, h, delta = triples[ti]
        c = cuts[beta, gamma]
        if c is None:
            return None
        first, tail = c
        if first:
            gb, a, w = walks[g, tail]
            alpha, b = cats[alpha, gb], h
        else:
            hg1, hi_g1, _ = walks[invs[h], tail]
            a, b = g, invs[hi_g1]
            delta = cats[delta, hg1]
            w = walks[h, hg1][2]
        ab, sigma = prods[a, b]
        st = (alpha, ab, delta)
        i = ids.setdefault(st, len(triples))
        if i == len(triples):
            triples.append(st)
        return i, (w + sigma) % scale

    # rows[si][ti] is meet(si, ti); right[s] lists (t, id of s·t,
    # omega(s, t)) for the candidates t of s with s·t nonzero, in order
    rows = _Memo(lambda si: _Memo(lambda ti: meet(si, ti)))
    right = _Memo(lambda s: [(t, *rows[s][t]) for t in pair_lists[s]
                             if rows[s][t] is not None])
    checked, failures = 0, []
    for r in range(len(elements)):
        row_r = rows[r]
        for (s, rs, rs_w) in right[r]:
            row_rs = rows[rs]
            for (t, st, st_w) in right[s]:
                rst = row_rs[t]
                if rst is None:
                    continue
                checked += 1
                r_st_w = row_r[st][1]
                if (st_w + r_st_w - rs_w - rst[1]) % scale:
                    if len(failures) < 20:
                        failures.append({
                            "r": sg.to_json(elements[r]),
                            "s": sg.to_json(elements[s]),
                            "t": sg.to_json(elements[t]),
                            "lhs": phase_str(twist.fraction(st_w + r_st_w)),
                            "rhs": phase_str(twist.fraction(rs_w + rst[1])),
                        })
                    else:
                        return {"ok": False, "checked": checked,
                                "failures": failures, "truncated": True}
    return {"ok": not failures, "checked": checked, "failures": failures}
