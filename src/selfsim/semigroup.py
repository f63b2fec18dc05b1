"""The inverse semigroup of an action: triples alpha·g·beta* plus zero.

A nonzero element is a triple t = (alpha, g, beta) of two paths and a
groupoid element with src(alpha) = rng(g) and src(beta) = src(g); it maps
the cylinder of beta onto the cylinder of alpha by rewriting prefixes.
Products follow the two-case prefix formula and are zero when the inner
legs are incomparable.  Idempotents are the f_alpha = (alpha, unit, alpha)
together with zero.

Everything product-shaped needs an explicit groupoid; the behavioral
backend raises RequiresExplicitError through the groupoid calls.
"""

from typing import NamedTuple

from .graphs import (Path, UsageError, comparable, is_prefix, json_name,
                     json_names)
from .groupoids import RequiresExplicitError
from . import actions as act_mod


class SemigroupError(ValueError):
    pass


class _Zero:
    __slots__ = ()

    def __repr__(self):
        return "0"

    def __str__(self):
        return "0"


ZERO = _Zero()


def is_zero(s):
    return isinstance(s, _Zero)


class Triple(NamedTuple):
    alpha: Path
    g: str
    beta: Path

    def __str__(self):
        return "(%s, %s, %s)" % (self.alpha, self.g, self.beta)


def make(action, alpha, g, beta):
    gpd, graph = action.groupoid, action.graph
    if graph.path_src(alpha) != gpd.rng(g):
        raise SemigroupError(
            "src(alpha)=%r is not rng(%r)" % (graph.path_src(alpha), g))
    if graph.path_src(beta) != gpd.src(g):
        raise SemigroupError(
            "src(beta)=%r is not src(%r)" % (graph.path_src(beta), g))
    return Triple(alpha, g, beta)


def idempotent(action, p):
    """f_p = (p, unit at src(p), p)."""
    u = action.groupoid.unit_at(action.graph.path_src(p))
    return Triple(p, u, p)


def shrink(action, t, p):
    """t·f_p = (alpha·(g·b), g|_b, p): the triple t = (alpha, g, beta)
    restricted to the cylinder of a path p = beta·b that extends its beta
    leg.  The one place where a triple's legs are made longer."""
    graph = action.graph
    b = graph.tail_after(p, len(t.beta.edges))
    return Triple(graph.concat(t.alpha, action.act_path(t.g, b)),
                  action.restrict_path(t.g, b), p)


def meet(action, s, t):
    """The one prefix case split of s·t: None when s·t is zero, else
    (alpha', a, b, delta', x, p) with s·t = (alpha', ab, delta') and the
    twist cocycle (edge phase of x along p)·(group phase of (a, b)).  For
    s = (alpha, g, beta) and t = (gamma, h, delta) it is one of two shrinks:

        gamma = beta·b1:  s·f_gamma = (alpha', a, gamma), b = h, x = g, p = b1
        beta = gamma·g1:  t*·f_beta = (delta', b⁻¹, beta), a = g, x = h,
                          p = h⁻¹·g1 (delta' after |delta|)
    """
    if is_zero(s) or is_zero(t):
        return None
    gpd, graph = action.groupoid, action.graph
    beta, gamma = s.beta, t.alpha
    if is_prefix(beta, gamma):
        u = shrink(action, s, gamma)
        return (u.alpha, u.g, t.g, t.beta, s.g,
                graph.tail_after(gamma, len(beta.edges)))
    if is_prefix(gamma, beta):
        u = shrink(action, star(action, t), beta)
        return (s.alpha, s.g, gpd.inv(u.g), u.alpha, t.g,
                graph.tail_after(u.alpha, len(t.beta.edges)))
    return None


def mul(action, s, t):
    """Product in the semigroup; zero when the inner legs are incomparable."""
    m = meet(action, s, t)
    if m is None:
        return ZERO
    return Triple(m[0], action.groupoid.mul(m[1], m[2]), m[3])


def star(action, s):
    if is_zero(s):
        return ZERO
    return Triple(s.beta, action.groupoid.inv(s.g), s.alpha)


def leq(action, s, t):
    """Natural partial order: s <= t iff s = t·f_{beta(s)}."""
    if is_zero(s):
        return True
    if is_zero(t):
        return False
    return is_prefix(t.beta, s.beta) and shrink(action, t, s.beta) == s


def length_cocycle(s):
    """|alpha| - |beta|: the degree of the element."""
    if is_zero(s):
        raise SemigroupError("zero has no degree")
    return len(s.alpha.edges) - len(s.beta.edges)


def rewriters(action, beta, alpha):
    """h|_beta for each element h with h·beta = alpha, lazily and in
    element order: the search behind S00 membership."""
    gpd = action.groupoid
    return (action.restrict_path(h, beta) for h in gpd.elements()
            if gpd.src(h) == beta.base and action.act_path(h, beta) == alpha)


def in_S00(action, s):
    """Is s of the form (h·beta, h|_beta, beta) for some element h?

    A behavioral model without element_complete answers True when a state
    is such an h, and otherwise cannot rule one out: RequiresExplicitError,
    as germs.in_core.
    """
    if is_zero(s) or length_cocycle(s) != 0:
        return False
    found = s.g in rewriters(action, s.beta, s.alpha)
    if not (found or action.groupoid.element_complete):
        raise RequiresExplicitError("no modeled state rewrites %s to %s with "
                                    "restriction %r" % (s.beta, s.alpha, s.g))
    return found


def conj_idempotent(action, t, p):
    """t f_p t*: an idempotent again, by the prefix case split."""
    if is_zero(t):
        return ZERO
    if is_prefix(t.beta, p):
        return idempotent(action, shrink(action, t, p).alpha)
    if is_prefix(p, t.beta):
        return idempotent(action, t.alpha)
    return ZERO


def _corridor_holds(action, g, alpha_bar, forced, start_vertex):
    """Decide: for every path b extending the forced word, g·b is a prefix
    of alpha_bar·b.  alpha_bar has positive length s; position i of the
    target word is alpha_bar[i] for i < s and b[i-s] afterwards.

    Runs the unique corridor the condition allows; any branch point, or a
    mismatch, refutes it.  A source ends the corridor (vacuously true
    beyond), though on a valid action none is reached: the element there
    would join the source to a vertex that receives an edge.  A repeated
    (element, window) state proves it holds forever.
    """
    gpd, graph = action.groupoid, action.graph
    s = len(alpha_bar)
    h, w, i, vertex = g, [], 0, start_vertex
    seen = set()
    while True:
        if i < len(forced):
            e = forced[i]
        else:
            outs = graph.received_by(vertex)
            if not outs:
                return True
            if len(outs) > 1:
                return False  # some continuation must break the rewriting
            e = outs[0].name
        req = alpha_bar[i] if i < s else w[i - s]
        if action.act_edge(h, e) != req:
            return False
        h = action.restrict_edge(h, e)
        w.append(e)
        vertex = graph.edge(e).src
        i += 1
        if i >= len(forced) and i >= s:
            key = (h, tuple(w[i - s:i]))
            if key in seen:
                return True
            seen.add(key)


def fixed_by(action, t, p):
    """Does t fix the idempotent f_p: (t f t*) f != 0 for every nonzero
    idempotent f <= f_p?

    Decided exactly: branches off the beta-corridor kill it, and the
    unbounded condition past beta reduces to a deterministic corridor
    simulation (or to kernel membership of a restriction when the legs
    have equal length).  t fixes f_p iff t* does, so the legs may be
    swapped to make alpha the shorter one.
    """
    if is_zero(t):
        return False
    graph = action.graph
    if len(t.alpha.edges) > len(t.beta.edges):
        t = star(action, t)
    alpha, g, beta = t.alpha, t.g, t.beta

    if not comparable(p, beta):
        return False  # conj at p itself is already zero
    if is_prefix(p, beta) and p != beta:
        # extensions of p that leave the beta corridor meet a zero conjugate
        for k in range(len(p.edges), len(beta.edges)):
            stem = graph.prefix(beta, k)
            if len(graph.received_by(graph.path_src(stem))) > 1:
                return False
        if not is_prefix(alpha, beta):
            return False  # the chain element at beta is incomparable with alpha
        p = beta

    if len(alpha.edges) == len(beta.edges):
        u = shrink(action, t, p)
        return u.alpha == u.beta and act_mod.fixes_all_paths(action, u.g)

    if not is_prefix(alpha, beta):
        return False
    alpha_bar = beta.edges[len(alpha.edges):]
    forced = p.edges[len(beta.edges):]
    return _corridor_holds(action, g, alpha_bar, forced, graph.path_src(beta))


def elements_up_to(action, bound):
    """All nonzero triples whose legs have length <= bound (sorted)."""
    gpd, graph = action.groupoid, action.graph
    paths = graph.all_paths(bound)
    by_src = {}
    for q in paths:
        by_src.setdefault(graph.path_src(q), []).append(q)
    out = []
    for g in gpd.elements():
        for alpha in by_src.get(gpd.rng(g), ()):
            for beta in by_src.get(gpd.src(g), ()):
                out.append(Triple(alpha, g, beta))
    return out


def count_up_to(action, bound, limit):
    """len(elements_up_to(action, bound)), counted without building a
    path; the count stops at the first length where it passes limit, or
    where no path of that length is left.  S_k(v), the number of paths of
    length k with source v, is 1 at k = 0 and S_{k+1}(w) is the sum of
    S_k(rng e) over the edges e with src(e) = w; with P the sum of S_k up
    to the bound, there are P(rng g)·P(src g) triples for each g."""
    gpd, graph = action.groupoid, action.graph
    ends = [(gpd.rng(g), gpd.src(g)) for g in gpd.elements()]
    layer = dict.fromkeys(graph.vertices, 1)
    total = dict(layer)
    count = len(ends)
    for _ in range(bound):
        if count > limit or not any(layer.values()):
            break
        nxt = dict.fromkeys(graph.vertices, 0)
        for e in graph.edges:
            nxt[e.src] += layer[e.rng]
        layer = nxt
        for (v, n) in layer.items():
            total[v] += n
        count = sum(total[r] * total[s] for (r, s) in ends)
    return count


def to_json(s):
    if is_zero(s):
        return {"zero": True}
    return {"alpha": list(s.alpha.edges), "g": s.g, "beta": list(s.beta.edges)}


def from_json(action, data):
    """The one reader of a triple: {"zero": true}, or an object with edge
    arrays "alpha" and "beta" and an element name "g" ("zero" false or
    absent).  A malformed value raises UsageError."""
    if not isinstance(data, dict):
        raise UsageError("a triple must be a JSON object")
    zero = data.get("zero", False)
    if zero is not True and zero is not False:
        raise UsageError("'zero' must be true or false")
    if zero:
        if {"alpha", "g", "beta"} & data.keys():
            raise UsageError("a zero triple takes no 'alpha', 'g' or 'beta'")
        return ZERO
    if not {"alpha", "g", "beta"} <= data.keys():
        raise UsageError("a triple needs 'alpha', 'g' and 'beta'")
    g = json_name(data["g"], "'g'")
    alpha = json_names(data["alpha"], "'alpha'")
    beta = json_names(data["beta"], "'beta'")
    gpd, graph = action.groupoid, action.graph
    if not gpd.has_element(g):
        raise SemigroupError("unknown element %r" % (g,))
    alpha = graph.path(alpha, base=None if alpha else gpd.rng(g))
    beta = graph.path(beta, base=None if beta else gpd.src(g))
    return make(action, alpha, g, beta)
