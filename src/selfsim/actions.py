"""Self-similar groupoid actions on finite directed graphs.

An action assigns to each composable pair (g, e) — an element g and an
edge e received by src(g) — an image edge g·e received by rng(g) and a
restriction g|_e with src(g|_e) = src(e) and rng(g|_e) = src(g·e).  For
each g the map e -> g·e is a bijection from src(g)E1 onto rng(g)E1.
On paths the action runs edge by edge, restricting as it goes; vertices
are length-zero paths with g·v = rng(g) and g|_v = g.

Every action must satisfy the unit law u_v·e = e, u_v|_e = u_{src e};
on explicit groupoids it must also satisfy the two product laws

    (hg)·e = h·(g·e)        (hg)|_e = (h|_{g·e}) (g|_e)

The unit law is checked edge by edge.  The product laws are checked at
middles g through ExplicitGroupoid.law_failures, by Lemma 2: once the
groupoid is associative, the set T of g satisfying both laws for every
composable h and e is closed under products.  For a, b in T, expand
through b and then through a:

    (h(ab))·e = ((ha)b)·e = (ha)·(b·e) = h·(a·(b·e)) = h·((ab)·e),
    (h(ab))|_e = ((ha)b)|_e = (ha)|_{b·e} b|_e = h|_{a·(b·e)} a|_{b·e} b|_e
               = h|_{(ab)·e} (ab)|_e,

using b in T with h = a for (ab)·e = a·(b·e) and (ab)|_e = a|_{b·e} b|_e.
Once the unit law holds, every unit u is in T, since (hu)·e = h·e =
h·(u·e) and (hu)|_e = h|_e = h|_{u·e} u|_e, and a unit outer factor u
passes, since (ug)·e = u·(g·e) and (ug)|_e = g|_e = u|_{g·e} g|_e.  The
inverse-restriction law (g|_p)⁻¹ = g⁻¹|_{g·p} on paths is implied, so it
is not checked.
Take h = g⁻¹ in the product law and use the unit law:

    g⁻¹|_{g·e} (g|_e) = (g⁻¹g)|_e = u_{src e},  so  g⁻¹|_{g·e} = (g|_e)⁻¹;
    for p = e p':  g⁻¹|_{g·p} = (g⁻¹|_{g·e})|_{g|_e·p'} = ((g|_e)⁻¹)|_{g|_e·p'}
                 = ((g|_e)|_{p'})⁻¹ = (g|_p)⁻¹   by induction on |p|.

The deciders all ask how elements walk along restrictions, so they share
one restriction digraph per action (SelfSimilarAction.digraph, built on
first use): an arrow g -e-> g|_e per composable (g, e), marked fixed when
g·e = e.  A walk of fixed arrows from g spells a path that g fixes, and it
ends at a unit exactly when g strongly fixes that path.  Hence the kernel
(elements fixing every path) is the set of elements that reach no element
moving an edge; Evr fails at a kernel element whose fixed walks never
reach a unit; the kernel is closed under restriction, so Sla fails
exactly when a kernel element reaches a directed cycle from which a
non-unit is in reach (pump the cycle); and the nucleus is everything
reachable from a directed cycle.  The cycle nodes are the non-trivial
strongly connected components, from one pass of Tarjan's algorithm.

The deciders that ask about the orbit relation on vertices (Cyc, Min,
Con) likewise share one OrbitGraph per action (SelfSimilarAction.orbits):
the orbit classes, the edges read both ways, and the strongly connected
components of the walk from each vertex to the sources of its received
edges.

Questions about an eventually periodic boundary point (does g fix it, or
strongly fix a prefix of it; are two germs at it equal) follow a finite
state h along it, h -> step(h, e) per edge e.  Past the prefix the edge at
position i depends only on point_phase(x, i), so once a (state, phase)
pair repeats nothing new can follow: walk stops there, or at the end of a
finite point.

Behavioral models carry the same act/restrict tables on states; every
state is assumed to describe the behavior of at least one actual element.
"""

import collections
import collections.abc
import functools
from typing import NamedTuple

from .graphs import (Path, GraphError, UsageError, dot_id, json_name,
                     json_names, path_key)
from .groupoids import NO_ROW, RequiresExplicitError, _rows
from . import verdicts


class ActionError(ValueError):
    pass


class _PairView(collections.abc.Mapping):
    """A read-only (g, e) -> value view of rows g -> {e: value}."""

    def __init__(self, rows):
        self._rows = rows

    def __getitem__(self, key):
        g, e = key
        return self._rows[g][e]

    def __iter__(self):
        return ((g, e) for (g, row) in self._rows.items() for e in row)

    def __len__(self):
        return sum(map(len, self._rows.values()))


class SelfSimilarAction:
    """An action given by its edge action and restriction tables, each
    stored once, as rows g -> {e: g·e} and g -> {e: g|_e}, built here from
    the rows, dict or triples given; edge_action and restriction view them."""

    def __init__(self, graph, groupoid, edge_action, restriction):
        self.graph = graph
        self.groupoid = groupoid
        self._act_rows = _rows(edge_action)     # g -> {e: g·e}
        self._res_rows = _rows(restriction)     # g -> {e: g|_e}

    edge_action = property(lambda self: _PairView(self._act_rows))
    restriction = property(lambda self: _PairView(self._res_rows))

    @functools.cached_property
    def digraph(self):
        """The restriction digraph, built on first use and kept."""
        return RestrictionDigraph(self)

    @functools.cached_property
    def orbits(self):
        """The orbit graph, built on first use and kept, like digraph."""
        return OrbitGraph(self)

    # -- one-step calculus ----------------------------------------------

    def act_edge(self, g, e):
        if self.groupoid.src(g) != self.graph.edge(e).rng:
            raise ActionError("element %r cannot act on edge %r" % (g, e))
        try:
            return self._act_rows[g][e]
        except KeyError:
            raise ActionError("edge action missing for (%r, %r)" % (g, e))

    def restrict_edge(self, g, e):
        if self.groupoid.src(g) != self.graph.edge(e).rng:
            raise ActionError("element %r cannot restrict along edge %r" % (g, e))
        try:
            return self._res_rows[g][e]
        except KeyError:
            raise ActionError("restriction missing for (%r, %r)" % (g, e))

    # -- path calculus ----------------------------------------------------

    def act_path(self, g, p):
        """g·p, defined when src(g) = rng(p); has range rng(g) and len(p)."""
        if self.groupoid.src(g) != p.base:
            raise ActionError("element %r cannot act on path %s" % (g, p))
        h, out = g, []
        for e in p.edges:
            out.append(self.act_edge(h, e))
            h = self.restrict_edge(h, e)
        return Path(self.groupoid.rng(g), tuple(out))

    def restrict_path(self, g, p):
        """g|_p: restrict g along every edge of p in turn."""
        if self.groupoid.src(g) != p.base:
            raise ActionError("element %r cannot restrict along path %s" % (g, p))
        h = g
        for e in p.edges:
            h = self.restrict_edge(h, e)
        return h

    # -- validation --------------------------------------------------------

    def validate(self):
        """Problems with the action, as strings; empty when it is valid.

        Checks, in order, stopping after the first stage that finds any:
        the graph and the groupoid; which pairs (g, e) carry table entries;
        that each g acts as a bijection src(g)E1 -> rng(g)E1 with
        restrictions of the right source and range; and the unit law.
        On an explicit groupoid it then checks both product laws through
        the groupoid's law_failures, with g as the middle of (h, g, e).
        The groupoid stage has proved associativity, so by Lemma 2 (see
        the module docstring) the g passing both laws are closed under
        products, and the units pass, as middles and as outer factors,
        once the unit stage has.  The problems are every failing
        (h, g, e), in sorted order.  No path is enumerated: the
        inverse-restriction law on paths is implied.
        """
        problems = []
        problems += ["graph: " + m for m in self.graph.validate()]
        problems += ["groupoid: " + m for m in self.groupoid.validate()]
        gpd, graph = self.groupoid, self.graph
        if set(gpd.vertices) != set(graph.vertices):
            problems.append("groupoid vertex set differs from the graph's")
        if problems:
            return problems

        # The records are checked: the stages below read them directly.
        els, act, res = gpd._elements, self._act_rows, self._res_rows
        received = graph.received_names
        received_set = {v: set(received(v)) for v in graph.vertices}
        edge_src = {e.name: e.src for e in graph.edges}
        composable = {g: received_set[eg.src] for (g, eg) in els.items()}
        for (rows, what) in ((act, "edge action"), (res, "restriction")):
            extra = []
            for (g, row) in rows.items():
                edges = composable.get(g, ())
                for e in row:
                    if e not in edges:
                        extra.append((g, e))
            problems += ["%s on non-composable pair %r" % (what, key)
                         for key in sorted(extra)]
        for g in gpd.elements():
            act_g, res_g = act.get(g, NO_ROW), res.get(g, NO_ROW)
            # with no extra key, rows as large as composable[g] hold it all
            if problems or not len(act_g) == len(res_g) == len(composable[g]):
                for e in received(els[g].src):
                    if e not in act_g:
                        problems.append("missing edge action for %r" % ((g, e),))
                    if e not in res_g:
                        problems.append("missing restriction for %r" % ((g, e),))
        if problems:
            return problems

        for g in gpd.elements():
            eg = els[g]
            dom, cod = received(eg.src), received_set[eg.rng]
            act_g, res_g = act.get(g, NO_ROW), res.get(g, NO_ROW)
            seen = set()
            for e in dom:
                img = act_g[e]
                if img not in cod:
                    problems.append(
                        "(%r)·%r = %r is not received by rng(%r)" % (g, e, img, g))
                if img in seen:
                    problems.append("edge action of %r is not injective" % (g,))
                seen.add(img)
                r = res_g[e]
                er = els.get(r)
                if er is None:
                    problems.append("restriction (%r)|_%r = %r unknown" % (g, e, r))
                    continue
                if er.src != edge_src[e]:
                    problems.append(
                        "src((%r)|_%r) should be src(%r)" % (g, e, e))
                if img in cod and er.rng != edge_src[img]:
                    problems.append(
                        "rng((%r)|_%r) should be src of the image edge" % (g, e))
            if len(seen) != len(dom) or len(dom) != len(cod):
                problems.append("edge action of %r is not a bijection" % (g,))
        if problems:
            return problems

        units = {v: gpd.unit_at(v) for v in graph.vertices}
        for v in graph.vertices:
            act_u, res_u = act.get(units[v], NO_ROW), res.get(units[v], NO_ROW)
            for e in received(v):
                if act_u[e] != e:
                    problems.append("unit at %r moves edge %r" % (v, e))
                if res_u[e] != units[edge_src[e]]:
                    problems.append("unit at %r restricts to non-unit on %r" % (v, e))

        if gpd.kind == "explicit" and not problems:
            problems = gpd.law_failures(self._law_failures, units_pass=True)
        return problems

    def _law_failures(self, right, outer=None):
        """One problem per product law failing at a composable (h, g, e)
        with g in right and h in outer (if given), in sorted (h, g) order
        and then by the name of e, the order of received_by.  Walks
        composable pairs only; the bijection stage has made
        (h|_{g·e}, g|_e) composable.  Each middle's g·e and g|_e are read
        once, then the rows of h and hg once per pair (h, g)."""
        gpd, received = self.groupoid, self.graph.received_names
        els, products = gpd._elements, gpd._mul_rows
        act, res = self._act_rows, self._res_rows
        legs, out = {}, []
        for g in right:
            act_g, res_g = act.get(g, NO_ROW), res.get(g, NO_ROW)
            legs[g] = [(e, act_g[e], res_g[e]) for e in received(els[g].src)]
        for (h, g, hg) in gpd.composable_pairs(right, outer):
            if not legs[g]:
                continue
            act_h, res_h, act_hg, res_hg = act[h], res[h], act[hg], res[hg]
            for (e, ge, g_e) in legs[g]:
                if act_hg[e] != act_h[ge]:
                    out.append(
                        "(hg)·e law fails at (%r, %r, %r)" % (h, g, e))
                if res_hg[e] != products[res_h[ge]][g_e]:
                    out.append(
                        "(hg)|_e law fails at (%r, %r, %r)" % (h, g, e))
        return out


# -- eventually periodic boundary points ---------------------------------


class BoundaryPoint(NamedTuple):
    """A finite path, or an eventually periodic infinite path prefix·period^∞.

    Stored canonically: the period is primitive and the prefix is as short
    as possible (no trailing prefix edge equal to the last period edge).
    boundary_point validates raw words once; the operations below build
    their points from words they already hold, through canonical_point.
    """

    base: str
    prefix: tuple = ()
    period: tuple = ()

    def is_finite(self):
        return not self.period

    def __str__(self):
        if self.is_finite():
            return "".join(self.prefix) if self.prefix else self.base
        head = "".join(self.prefix)
        return "%s(%s)^inf" % (head, "".join(self.period))


def _primitive_word(word):
    n = len(word)
    for d in range(1, n):
        if n % d == 0 and word[:d] * (n // d) == word:
            return word[:d]
    return word


def canonical_point(base, prefix, period=()):
    """The canonical form of prefix·period^∞ at range vertex base (a finite
    point when period is empty).  Trusted: prefix·period must compose and
    the period must close up.  Rolling the period back over the prefix
    keeps the word, so the base does not change."""
    if period:
        period = _primitive_word(period)
        while prefix and prefix[-1] == period[-1]:
            prefix, period = prefix[:-1], (period[-1],) + period[:-1]
    return BoundaryPoint(base, prefix, period)


def boundary_point(graph, prefix_edges, period_edges=(), base=None):
    """Validate raw edge words once and return the canonical boundary point:
    prefix·period must be a path (at base, when given) and the period must
    close up."""
    prefix, period = tuple(prefix_edges), tuple(period_edges)
    p = graph.path(prefix + period, base=base)
    if period and graph.edge(period[-1]).src != graph.edge(period[0]).rng:
        raise GraphError("period %s is not a closed word" % ("".join(period),))
    return canonical_point(p.base, prefix, period)


def finite_path(x):
    if not x.is_finite():
        raise GraphError("%s is not a finite point" % (x,))
    return Path(x.base, x.prefix)


def edge_at(x, i):
    if i < len(x.prefix):
        return x.prefix[i]
    if x.is_finite():
        raise GraphError("%s has no edge at position %d" % (x, i))
    return x.period[(i - len(x.prefix)) % len(x.period)]


def point_prefix(x, n):
    """The length-n prefix of the point, as a Path."""
    if x.is_finite() and n > len(x.prefix):
        raise GraphError("%s is shorter than %d" % (x, n))
    return Path(x.base, tuple(edge_at(x, i) for i in range(n)))


def point_tail(graph, x, n):
    """The boundary point left after removing the first n edges."""
    if x.is_finite():
        p = graph.tail_after(finite_path(x), n)
        return BoundaryPoint(p.base, p.edges, ())
    k = max(0, n - len(x.prefix)) % len(x.period)
    return canonical_point(graph.edge(edge_at(x, n)).rng, x.prefix[n:],
                           x.period[k:] + x.period[:k])


def point_phase(x, i):
    """Canonical marker for position i; equal markers mean equal tails."""
    if i < len(x.prefix):
        return ("pre", i)
    return ("per", (i - len(x.prefix)) % len(x.period))


def point_to_json(x):
    return {"base": x.base, "prefix": list(x.prefix), "period": list(x.period)}


def point_from_json(graph, data):
    """The one reader of a point: an array of edge names (a finite point),
    or an object with edge arrays "prefix" and "period" and, if both are
    empty or missing, a "base".  A malformed value raises UsageError."""
    if isinstance(data, list):
        data = {"prefix": json_names(data, "a point")}
    if not isinstance(data, dict):
        raise UsageError("a point must be a JSON array of edge names or an "
                         "object")
    base = data.get("base")
    if base is not None:
        json_name(base, "'base'")
    prefix = json_names(data.get("prefix", []), "'prefix'")
    period = json_names(data.get("period", []), "'period'")
    if base is None and not (prefix or period):
        raise UsageError("an edgeless point needs a base ({\"base\": v})")
    return boundary_point(graph, prefix, period, base=base)


def boundary_points_from(graph, v, max_len):
    """All of v∂E with prefix+period total length <= max_len (canonical, sorted)."""
    pts = set()
    for p in graph.paths_from(v, max_len):
        if graph.is_source(graph.path_src(p)):
            pts.add(BoundaryPoint(p.base, p.edges, ()))
        for k in range(len(p.edges)):
            head, tail = p.edges[:k], p.edges[k:]
            if graph.edge(tail[-1]).src == graph.edge(tail[0]).rng:
                pts.add(canonical_point(p.base, head, tail))
    return sorted(pts, key=lambda x: (len(x.prefix) + len(x.period), x.base,
                                      x.prefix, x.period))


def walk(x, i, h, step):
    """Follow state h along the point x from position i, h -> step(h, e) at
    each edge e.  Yields (i, e, h) at every position reached, with e the
    edge there, and last (i, None, h) at the end of a finite point or where
    (h, point_phase(x, i)) first repeats.  The states must be hashable and
    finitely many for an infinite point."""
    seen = set()
    while not (x.is_finite() and i >= len(x.prefix)):
        key = (h, point_phase(x, i))
        if key in seen:
            break
        seen.add(key)
        e = edge_at(x, i)
        yield i, e, h
        h = step(h, e)
        i += 1
    yield i, None, h


def act_point(action, g, x):
    """g·x for a boundary point x with rng(x) = src(g), edge by edge along
    walk.  The image's period starts at the first step with the walk's
    final (element, phase) pair."""
    gpd = action.groupoid
    if gpd.src(g) != x.base:
        raise ActionError("element %r cannot act on point %s" % (g, x))
    steps = list(walk(x, 0, g, action.restrict_edge))
    n, _, last = steps[-1]
    out = tuple(action.act_edge(h, e) for (_, e, h) in steps[:-1])
    j = n if x.is_finite() else next(
        i for (i, _, h) in steps
        if h == last and point_phase(x, i) == point_phase(x, n))
    return canonical_point(gpd.rng(g), out[:j], out[j:])


def strongly_fixed_prefix(action, g, x):
    """Smallest n with the length-n prefix of x strongly fixed by g, else None."""
    gpd = action.groupoid
    if gpd.src(g) != x.base:
        raise ActionError("element %r does not sit at point %s" % (g, x))
    for (i, e, h) in walk(x, 0, g, action.restrict_edge):
        if gpd.is_unit(h):
            return i
        if e is None or action.act_edge(h, e) != e:
            return None


def fixes_point(action, g, x):
    """g·x = x, decided by walking x from g without building g·x: every edge
    up to the end of the walk must be fixed.  A fixed first edge puts rng(g)
    at x.base, so only a vertex point needs rng(g) checked."""
    gpd = action.groupoid
    if gpd.src(g) != x.base:
        raise ActionError("element %r cannot act on point %s" % (g, x))
    if not x.prefix and not x.period:
        return gpd.rng(g) == x.base
    return all(e is None or action.act_edge(h, e) == e
               for (_, e, h) in walk(x, 0, g, action.restrict_edge))


# -- the restriction digraph ----------------------------------------------


def _closure(seeds, step, avoid=frozenset()):
    """Everything reachable from seeds by step(node) -> nodes, never
    entering avoid."""
    out, stack = set(), list(seeds)
    while stack:
        h = stack.pop()
        if h not in out and h not in avoid:
            out.add(h)
            stack.extend(step(h))
    return out


def _dot(name, arrows, is_unit, root=None):
    lines = ["digraph %s {" % dot_id(name)]
    for h in sorted(arrows):
        shape = "doublecircle" if is_unit(h) else "circle"
        mark = ' style=bold' if h == root else ""
        lines.append('  %s [shape=%s%s];' % (dot_id(h), shape, mark))
    for h in sorted(arrows):
        for (e, n) in arrows[h]:
            lines.append('  %s -> %s [label=%s];'
                         % (dot_id(h), dot_id(n), dot_id(e)))
    lines.append("}")
    return "\n".join(lines) + "\n"


class RestrictionDigraph:
    """The arrows g -e-> g|_e of an action, one per composable (g, e).

    arrows[g] lists every arrow out of g and fixed[g] the fixed ones
    (g·e = e), both by edge name, the order of received_by; movers are
    the elements with an arrow that is not fixed.  Each table entry is
    read once, here, straight from g's rows: every e that src(g)
    receives composes with g, so act_edge's guard has nothing to check.
    The derived sets are computed on first use.  The deciders share the
    searches along fixed arrows kept here: reach, reaching, and one
    breadth-first search, behind pump's witness words.  The tables are not
    assumed valid: an element whose source is not a vertex raises
    GraphError, and a missing entry, or an arrow into a name the groupoid
    lacks, raises ActionError, with the messages of act_edge and
    restrict_edge, so the commands that skip validate refuse them.
    """

    def __init__(self, action):
        gpd, graph = action.groupoid, action.graph
        members, moves, restricts = gpd._elements, action._act_rows, action._res_rows
        self.arrows, self.fixed, self.movers, self.units = {}, {}, set(), set()
        for g in gpd.elements():
            if gpd.is_unit(g):
                self.units.add(g)
            outs, fixed = [], []
            moves_g, restricts_g = moves.get(g, NO_ROW), restricts.get(g, NO_ROW)
            for e in graph.received_names(members[g].src):
                try:
                    h = restricts_g[e]
                except KeyError:
                    raise ActionError("restriction missing for (%r, %r)"
                                      % (g, e))
                if h not in members:
                    raise ActionError("restriction (%r)|_%r = %r is not an "
                                      "element" % (g, e, h))
                try:
                    moved = moves_g[e]
                except KeyError:
                    raise ActionError("edge action missing for (%r, %r)"
                                      % (g, e))
                outs.append((e, h))
                if moved == e:
                    fixed.append((e, h))
            self.arrows[g], self.fixed[g] = tuple(outs), tuple(fixed)
            if len(fixed) < len(outs):
                self.movers.add(g)

    def reach(self, sources, avoid=frozenset()):
        """Nodes reachable from sources along fixed arrows, never entering
        avoid."""
        return _closure(sources, lambda h: (n for (_, n) in self.fixed.get(h, ())),
                        avoid)

    @functools.cached_property
    def _fixed_into(self):
        rev = {}
        for (g, outs) in self.fixed.items():
            for (_, h) in outs:
                rev.setdefault(h, []).append(g)
        return rev

    def reaching(self, targets, avoid=frozenset()):
        """Nodes with a walk of fixed arrows into targets, never entering
        avoid."""
        return _closure(targets, lambda h: self._fixed_into.get(h, ()), avoid)

    @functools.cached_property
    def kernel(self):
        """Elements fixing every path at their source: those that reach no
        mover.  A walk to the first mover on it uses fixed arrows only."""
        return set(self.arrows) - self.reaching(self.movers)

    @functools.cached_property
    def can_reach_unit(self):
        """Nodes from which a walk of fixed arrows reaches a unit."""
        return self.reaching(self.units)

    @functools.cached_property
    def live(self):
        """Non-units that reach a unit along fixed arrows: the nodes a fixed
        walk can pass through and still end in a strongly fixed path."""
        return self.can_reach_unit - self.units

    @functools.cached_property
    def cyclic(self):
        """Nodes on a directed cycle of the arrows."""
        return cycle_nodes(self.arrows)

    @functools.cached_property
    def pumps(self):
        """Nodes on a cycle of fixed arrows among the live nodes."""
        return cycle_nodes({h: self.fixed[h] for h in self.live})

    def _shortest_walk(self, starts, goal):
        """The first (node, word) with goal(node) in a breadth-first search
        along fixed arrows from the (node, word) starts, else (None, None).
        With starts of one length in increasing word order, each word is
        the shortest, then lexicographically least, from any start: a
        queue in word order stays so, as arrows go in edge-name order."""
        queue = collections.deque(starts)
        seen = {h for (h, _) in starts}
        while queue:
            h, word = queue.popleft()
            if goal(h):
                return h, word
            for (e, n) in self.fixed[h]:
                if n not in seen:
                    seen.add(n)
                    queue.append((n, word + (e,)))
        return None, None

    def pump(self, g, c, goal):
        """The words of a pumping witness through a cycle node c below g, each
        the shortest, then least: access from g to c, the non-empty cycle at
        c (the search started from c's arrows), and exit from c to the
        first node meeting goal; last that exit node."""
        _, access = self._shortest_walk([(g, ())], lambda n: n == c)
        _, cycle = self._shortest_walk([(n, (e,)) for (e, n) in self.fixed[c]],
                                       lambda n: n == c)
        node, exit_word = self._shortest_walk([(c, ())], goal)
        return access, cycle, exit_word, node


def components(succ):
    """The strongly connected components of succ[v] = (w, ...), each a list
    of nodes, from one iterative pass of Tarjan's algorithm."""
    index, low, stack, on_stack, out = {}, {}, [], set(), []

    def visit(v):
        index[v] = low[v] = len(index)
        stack.append(v)
        on_stack.add(v)
        return (v, iter(succ.get(v, ())))

    for root in succ:
        work = [] if root in index else [visit(root)]
        while work:
            v, it = work[-1]
            for w in it:
                if w not in index:
                    work.append(visit(w))
                    break
                if w in on_stack:
                    low[v] = min(low[v], index[w])
            else:
                work.pop()
                if work:
                    low[work[-1][0]] = min(low[work[-1][0]], low[v])
                if low[v] == index[v]:
                    comp = [stack.pop()]
                    while comp[-1] != v:
                        comp.append(stack.pop())
                    on_stack.difference_update(comp)
                    out.append(comp)
    return out


def on_cycle(succ, comp):
    """Does the strongly connected component comp hold a directed cycle?"""
    return len(comp) > 1 or comp[0] in succ.get(comp[0], ())


def cycle_nodes(arrows):
    """Nodes on a directed cycle of arrows[v] = ((e, w), ...): the
    non-trivial strongly connected components."""
    succ = {v: [w for (_, w) in outs] for (v, outs) in arrows.items()}
    return {v for comp in components(succ) if on_cycle(succ, comp)
            for v in comp}


# -- the orbit graph --------------------------------------------------------


def orbit_classes(groupoid):
    """Vertex partition generated by the (src, rng) pairs of the elements,
    each vertex mapped to the least vertex of its class.

    The real orbit relation is an equivalence, so taking the closure of the
    witnessed pairs is sound on a behavioral model too.
    """
    linked = {v: [] for v in groupoid.vertices}
    for (a, b) in groupoid.orbit_pairs():
        linked[a].append(b)
        linked[b].append(a)
    classes = {}
    for v in groupoid.vertices:
        if v not in classes:
            classes.update(dict.fromkeys(_closure([v], linked.get), v))
    return classes


class OrbitGraph:
    """The vertex side of an action, read by the orbit-relation deciders.

    classes maps each vertex to the least vertex of its orbit class and
    members each class to its sorted vertices; sources[v] lists the source
    of every edge v receives and ranges[v] the range of every edge with
    source v.  components are the strongly connected components of the
    range-to-source walk v -> sources[v], and component[v] is the index of
    the one holding v.
    """

    def __init__(self, action):
        graph = action.graph
        self.classes = orbit_classes(action.groupoid)
        self.members = {}
        for v in graph.vertices:
            self.members.setdefault(self.classes[v], []).append(v)
        self.sources = {v: [e.src for e in graph.received_by(v)]
                        for v in graph.vertices}
        self.ranges = {v: [] for v in graph.vertices}
        for e in graph.edges:
            self.ranges[e.src].append(e.rng)
        self.components = components(self.sources)
        self.component = {v: i for (i, comp) in enumerate(self.components)
                          for v in comp}


class FixingAutomaton:
    """States reachable from a root element by restricting along fixed edges:
    the restriction digraph's fixed arrows, cut down to what the root reaches.

    A walk root -e1-> h1 -e2-> h2 ... exists iff the path e1 e2 ... is
    fixed by the root; the walk ends at a unit state iff the path is
    strongly fixed.
    """

    def __init__(self, action, root):
        self.action = action
        self.root = root
        fixed = action.digraph.fixed
        self.trans = {h: fixed.get(h, ()) for h in action.digraph.reach([root])}

    def to_dot(self):
        return _dot("fixing", self.trans, self.action.groupoid.is_unit, self.root)


# -- minimal strongly fixed paths -------------------------------------------


class MinimalFixedResult(NamedTuple):
    status: str            # "finite" | "infinite"
    paths: tuple = ()      # the minimal strongly fixed paths when finite
    witness: dict = None   # pumping data when infinite

    def is_finite(self):
        return self.status == "finite"


def minimal_strongly_fixed(action, g):
    """The minimal strongly fixed paths of g: no proper prefix strongly fixed.

    Returns a finite sorted tuple, or reports the set infinite with a
    pumping witness (access word to a node on a cycle, the cycle word, and
    an exit word to a unit; pumping the cycle gives infinitely many
    minimal strongly fixed paths).  It is infinite exactly when the region
    (what g reaches along fixed arrows through non-units) meets the pumps.
    By the unit law fixed arrows out of units lead to units, so a fixed
    walk from g to a non-unit stays in the region: no walk needs a bound.
    """
    gpd = action.groupoid
    if gpd.is_unit(g):
        return MinimalFixedResult("finite", (Path(gpd.src(g)),))
    dg = action.digraph
    pumped = dg.reach([g], avoid=dg.units) & dg.pumps
    if pumped:
        access, cycle, exit_word, _ = dg.pump(g, min(pumped), gpd.is_unit)
        return MinimalFixedResult("infinite", (), {
            "element": g,
            "access": list(access),
            "cycle": list(cycle),
            "exit": list(exit_word),
        })

    # finite: walk every word through live nodes (they form no cycle here)
    out, stack = [], [(g, ())]
    while stack:
        h, word = stack.pop()
        for (e, n) in dg.fixed[h]:
            if gpd.is_unit(n):
                out.append(Path(gpd.src(g), word + (e,)))
            elif n in dg.live:
                stack.append((n, word + (e,)))
    return MinimalFixedResult("finite", tuple(sorted(out, key=path_key)))


# -- kernels, nucleus, freeness -------------------------------------------


def fixes_all_paths(action, g):
    """Does g fix every path out of src(g)?  (Kernel membership test.)"""
    return g in action.digraph.kernel


def kernel_elements(action):
    """The kernel: all elements (or states) fixing every path at their source."""
    return tuple(sorted(action.digraph.kernel))


def faithful(action):
    """Only units may fix all paths."""
    gpd, dg = action.groupoid, action.digraph
    nonunits = dg.kernel - dg.units
    witness = {"element": min(nonunits)} if nonunits else None
    return verdicts.universal_verdict(
        gpd, witness,
        witness_note="a non-unit fixes every path at its source",
        model_note="only units fix all paths")


def tight_kernel_elements(action):
    """Elements whose iterated restrictions strongly stabilize: the least set
    containing the units that contains every regular-based g fixing all its
    edges with restrictions already in the set.  Such a g joins once its
    last arrow's target has joined."""
    gpd, graph, dg = action.groupoid, action.graph, action.digraph
    regular = {v for v in graph.vertices if not graph.is_source(v)}
    waiting = {}
    for g in gpd.elements():
        el = gpd._elements[g]
        if el.src not in regular:
            continue
        if el.rng not in regular:
            # kernel skips validate, so a range that is no vertex is
            # refused here
            if not graph.has_vertex(el.rng):
                raise GraphError("unknown vertex %r" % (el.rng,))
        elif g not in dg.movers:
            waiting[g] = len(dg.arrows[g])

    def step(h):
        # a fixer's arrows are all fixed, so the fixed index lists them all
        for g in dg._fixed_into.get(h, ()):
            if g in waiting:
                waiting[g] -= 1
        return [g for g in dg._fixed_into.get(h, ()) if waiting.get(g) == 0]
    return tuple(sorted(_closure([gpd.unit_at(v) for v in graph.vertices],
                                 step)))


def tightly_faithful(action):
    """The tight kernel contains only units."""
    units = {action.groupoid.unit_at(v) for v in action.graph.vertices}
    witness = None
    for g in tight_kernel_elements(action):
        if g not in units:
            witness = {"element": g}
            break
    return verdicts.universal_verdict(
        action.groupoid, witness,
        witness_note="a non-unit lies in the tight kernel (it strongly fixes "
                     "the whole boundary at its source)",
        model_note="the tight kernel is the unit space")


def restriction_digraph_dot(action):
    return _dot("restrictions", action.digraph.arrows, action.groupoid.is_unit)


def nucleus(action):
    """The smallest restriction-closed set that all deep restrictions land in:
    every element reachable from a directed cycle of the restriction digraph.

    Needs a graph without sources (restriction walks must never die out).
    """
    if action.groupoid.kind != "explicit":
        raise RequiresExplicitError(
            "the nucleus concerns the full element set; a behavioral model "
            "cannot certify it")
    if action.graph.sources():
        raise ActionError("nucleus needs a graph without sources; %r is one"
                          % (action.graph.sources()[0],))
    arrows = action.digraph.arrows
    return tuple(sorted(_closure(action.digraph.cyclic,
                                 lambda g: (h for (_, h) in arrows[g]))))


def pseudo_free(action):
    """No non-unit fixes an edge with unit restriction."""
    gpd, dg = action.groupoid, action.digraph
    witness = None
    for g in gpd.elements():
        if g in dg.units:
            continue
        for (e, h) in dg.fixed[g]:
            if h in dg.units:
                witness = {"element": g, "edge": e}
                break
        if witness:
            break
    return verdicts.universal_verdict(
        gpd, witness,
        witness_note="a non-unit strongly fixes an edge",
        model_note="no non-unit strongly fixes an edge")
