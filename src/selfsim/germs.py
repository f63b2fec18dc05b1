"""Germs of semigroup elements at finite or eventually periodic points.

A germ [alpha, g, beta; xi] is a triple together with a point xi hanging
off the beta leg; it sits at the point beta·xi and maps it to
alpha·(g·xi).  Two germs are equal when some common shrinking of their
triples agrees on a neighbourhood of the point; the search advances the
common prefix edge by edge and is complete by pigeonhole on the pair of
tracked restrictions and the phase of the point.
"""

from typing import NamedTuple

from . import semigroup as sg
from .actions import (BoundaryPoint, _closure, act_point, canonical_point,
                      edge_at, fixes_point, point_from_json, point_phase,
                      point_prefix, point_tail, point_to_json,
                      strongly_fixed_prefix, walk)
from .graphs import UsageError
from .groupoids import GroupoidError


class GermError(ValueError):
    pass


class Germ(NamedTuple):
    triple: sg.Triple
    xi: BoundaryPoint   # the tail of the base point after the beta leg

    def __str__(self):
        return "[%s; %s]" % (self.triple, self.xi)


def make_germ(action, triple, xi):
    if sg.is_zero(triple):
        raise GermError("zero has no germs")
    if action.graph.path_src(triple.beta) != xi.base:
        raise GermError("point %s does not extend the beta leg %s"
                        % (xi, triple.beta))
    return Germ(triple, xi)


def point_prepend(graph, p, x):
    """The point p·x (p a path composing with x)."""
    if graph.path_src(p) != x.base:
        raise GermError("path %s does not compose with point %s" % (p, x))
    return canonical_point(p.base, p.edges + x.prefix, x.period)


def source_point(action, a):
    return point_prepend(action.graph, a.triple.beta, a.xi)


def range_point(action, a):
    return point_prepend(action.graph, a.triple.alpha,
                         act_point(action, a.triple.g, a.xi))


def germ_eq(action, a, b):
    """Germ equality: same point, and some common prefix extension of both
    beta legs on which the rewritten ranges and the restrictions agree.
    Past the longer beta leg the pair of restrictions walks the point; the
    degrees agree, so the ranges stay equal while both send each edge to
    the same edge."""
    x = source_point(action, a)
    if x != source_point(action, b):
        return False
    if sg.length_cocycle(a.triple) != sg.length_cocycle(b.triple):
        return False
    n = max(len(a.triple.beta.edges), len(b.triple.beta.edges))
    w = point_prefix(x, n)
    ua, ub = sg.shrink(action, a.triple, w), sg.shrink(action, b.triple, w)
    if ua.alpha != ub.alpha:
        return False

    def step(pair, e):
        return (action.restrict_edge(pair[0], e),
                action.restrict_edge(pair[1], e))

    for (_, e, (ga, gb)) in walk(x, n, (ua.g, ub.g), step):
        if ga == gb:
            return True
        if e is None or action.act_edge(ga, e) != action.act_edge(gb, e):
            return False


def germ_mul(action, a, b):
    """Composition a∘b, defined when source(a) = range(b): the semigroup
    product, at b's point less the k edges the product's beta leg adds."""
    if source_point(action, a) != range_point(action, b):
        raise GermError("germs do not compose: source(a) != range(b)")
    st = sg.mul(action, a.triple, b.triple)
    if sg.is_zero(st):
        raise GermError("composable germs gave a zero product")
    k = len(st.beta.edges) - len(b.triple.beta.edges)
    return Germ(st, point_tail(action.graph, b.xi, k))


def germ_inv(action, a):
    return Germ(sg.star(action, a.triple),
                act_point(action, a.triple.g, a.xi))


def cycle_expansion(action, first, g0):
    """The unique point x with x = first·(g0·x): blocks a1 = first,
    a_{n+1} = g_n·a_n, g_{n+1} = g_n|_{a_n}; eventually periodic by
    pigeonhole on (element, block)."""
    blocks, seen = [], {}
    word, h = first, g0
    while (h, word) not in seen:
        seen[(h, word)] = len(blocks)
        blocks.append(word)
        nxt = action.act_path(h, word)
        h = action.restrict_path(h, word)
        word = nxt
    j = seen[(h, word)]
    pre = tuple(e for b in blocks[:j] for e in b.edges)
    per = tuple(e for b in blocks[j:] for e in b.edges)
    return canonical_point(first.base, pre, per)


def classify(action, a):
    """Sort a germ: unit, isotropy (cases a/b/c by leg lengths), or moving.

    The unbalanced isotropy cases are cross-checked (on explicit backends)
    against the cycle expansion that must reproduce the point.
    """
    graph, gpd = action.graph, action.groupoid
    alpha, g, beta = a.triple.alpha, a.triple.g, a.triple.beta
    if alpha == beta and strongly_fixed_prefix(action, g, a.xi) is not None:
        return {"kind": "unit", "case": None, "verified": True}
    if source_point(action, a) != range_point(action, a):
        return {"kind": "moving", "case": None, "verified": True}
    la, lb = len(alpha.edges), len(beta.edges)
    if la == lb:
        return {"kind": "isotropy", "case": "a", "verified": alpha == beta}
    verified = None
    if gpd.kind == "explicit":
        # case c expands t itself, case b expands t* shrunk to beta
        u = (a.triple if la > lb
             else sg.shrink(action, sg.star(action, a.triple), beta))
        verified = a.xi == cycle_expansion(
            action, graph.tail_after(u.alpha, lb), u.g)
    return {"kind": "isotropy", "case": "c" if la > lb else "b",
            "verified": verified}


def in_core(action, a):
    """Membership in the degree-zero sub-semigroup's germ groupoid: some
    element h rewrites beta to alpha while g^{-1}(h|_beta) strongly fixes
    the point.  Needs g^{-1}: a behavioral model refuses degree zero."""
    gpd, t = action.groupoid, a.triple
    if sg.length_cocycle(t) != 0:
        return False
    gi = gpd.inv(t.g)
    return any(strongly_fixed_prefix(action, gpd.mul(gi, r), a.xi) is not None
               for r in sg.rewriters(action, t.beta, t.alpha))


def to_json(a):
    out = sg.to_json(a.triple)
    out["xi"] = point_to_json(a.xi)
    return out


def from_json(action, data):
    """The one reader of a germ: a triple (semigroup.from_json) with a point
    "xi" (actions.point_from_json).  A malformed value raises UsageError."""
    triple = sg.from_json(action, data)
    if sg.is_zero(triple):
        raise GermError("zero has no germs")
    if "xi" not in data:
        raise UsageError("a germ lacks 'xi'")
    return make_germ(action, triple, point_from_json(action.graph, data["xi"]))


# -- singular decompositions and xbar --------------------------------------


class SingularClass(NamedTuple):
    position: int
    element: str

    def germ(self, action, x):
        p = point_prefix(x, self.position)
        return Germ(sg.Triple(p, self.element, p),
                    point_tail(action.graph, x, self.position))


def _tail_states_good(action, g, tail):
    """Every prefix of the tail must keep a strongly fixed extension in
    reach: each restriction along the tail can reach a unit along the fixed
    arrows of the restriction digraph.  g fixes the tail, so the walk below
    only takes fixed arrows."""
    good = action.digraph.can_reach_unit
    return all(h in good
               for (_, _, h) in walk(tail, 0, g, action.restrict_edge))


def _singular_candidates(action, x):
    """The (position, element) pairs singular_decompositions starts from,
    in order.  Past the prefix the tail repeats with the period, and equal
    phases mean equal tails, so each distinct tail is built and tested
    once."""
    graph, gpd = action.graph, action.groupoid
    bound = len(x.prefix) + len(x.period) * max(1, len(gpd.elements()))
    passing, cands = {}, []
    for i in range(bound + 1):
        phase = point_phase(x, i)
        if phase not in passing:
            tail = point_tail(graph, x, i)
            passing[phase] = [
                g for g in gpd.isotropy_at(tail.base)
                if not gpd.is_unit(g) and fixes_point(action, g, tail)
                and strongly_fixed_prefix(action, g, tail) is None
                and _tail_states_good(action, g, tail)]
        cands.extend(SingularClass(i, g) for g in passing[phase])
    return cands


def singular_decompositions(action, x):
    """All ways of writing the point as prefix·tail with a non-unit isotropy
    element fixing the tail, not strongly, while every tail prefix keeps a
    strongly fixed extension in reach — up to common-prefix equivalence:
    (i, g) ~ (j, h) when g|_{x[i:n]} = h|_{x[j:n]} for some n >= i, j.
    Each class is named by its least (position, element).

    Returns (classes, note); finite points get no classes (the construction
    needs an infinite tail past every prefix).
    """
    if x.is_finite():
        return [], ("finite points admit no singular decompositions; an "
                    "infinite tail is needed")
    # One synchronous walk along x, the walkers keyed by state: each
    # candidate joins at its position with its element as state; walkers
    # that reach the same state have met, so their candidates are
    # equivalent, and the least candidate survives.  Candidates arrive in
    # (position, element) order and each step keeps the first walker per
    # state, so the dict stays in that order.
    #
    # The walk stops at |prefix| + 2·|G|·|period|, and that is exact.  Past
    # the prefix the edge at position n depends only on the phase, so every
    # walker moves by one map F on the at most |G|·|period| pairs (state,
    # phase).  All candidates have joined by |prefix| + |G|·|period| (the
    # candidate search bound), and within |G|·|period| more steps every
    # walker's pair lies on a cycle of F.  F is injective on its cycles, so
    # two walkers on cycles that have not met never meet.
    cands = _singular_candidates(action, x)
    stop = len(x.prefix) + 2 * len(x.period) * max(
        1, len(action.groupoid.elements()))
    walkers, k = {}, 0
    for n in range(stop):
        while k < len(cands) and cands[k].position == n:
            walkers.setdefault(cands[k].element, cands[k])
            k += 1
        if k == len(cands) and len(walkers) < 2:
            break
        e, moved = edge_at(x, n), {}
        for (h, c) in walkers.items():
            moved.setdefault(action.restrict_edge(h, e), c)
        walkers = moved
    return list(walkers.values()), ""


def xbar(action, x):
    """The closure data of the point, as the JSON `germ xbar` prints: the
    point itself plus one isotropy germ per singular decomposition class."""
    classes, note = singular_decompositions(action, x)
    return {"point": point_to_json(x),
            "germs": [to_json(c.germ(action, x)) for c in classes],
            "size": 1 + len(classes),
            "note": note}


# -- the group-summation test ----------------------------------------------


def hum_for_point(action, x):
    """The group summation test on the subgroup sub generated by the germ
    components of xbar(x) minus the point, when they sit at one vertex of
    an explicit groupoid; refuse otherwise (recorded in the note).

    The test asks whether every function on sub that sums to zero over
    each left translate of each member of the family [sub] vanishes.  Each
    translate is sub itself, so the one constraint is a sum over sub, and
    the answer is len(sub) == 1.  The generators are the class elements,
    which are not units, so the answer is False at every point with a
    singular class and True only where there is none.  sub is their
    closure under right multiplication by them, which in a finite group
    is the subgroup they generate."""
    gpd = action.groupoid
    classes, note = singular_decompositions(action, x)
    if x.is_finite():
        return {"result": None, "note": note}
    if not classes:
        return {"result": True, "group": [], "family": [],
                "note": "no singular classes at the point; the condition "
                        "is vacuous"}
    if gpd.kind != "explicit":
        return {"result": None,
                "note": "the group test needs products; the backend is "
                        "behavioral"}
    vertices = {gpd.src(c.element) for c in classes}
    if len(vertices) > 1:
        return {"result": None,
                "note": "germ components sit at several vertices; refusing "
                        "to aggregate them into one group"}
    v = vertices.pop()
    iso = set(gpd.isotropy_at(v))
    gens = sorted({c.element for c in classes})
    sub = sorted(_closure(gens, lambda a: [gpd.mul(a, g) for g in gens]
                          if a in iso else ()))
    outside = [a for a in sub if a not in iso]
    if outside:
        raise GroupoidError("the isotropy at %r is not closed under "
                            "products: %r is outside it" % (v, outside[0]))
    return {"result": len(sub) == 1, "group": sub, "family": [sub], "note": ""}
