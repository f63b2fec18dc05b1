"""Finite directed graphs and their path calculus.

Convention: an edge e runs from its range vertex rng(e) to its source
vertex src(e), and vE1(v) is the set of edges *received* by v (those with
rng(e) = v).  A vertex with vE1(v) empty is a source.  A path is a word
e1 e2 ... en with src(e_i) = rng(e_{i+1}); it has rng = rng(e1) and
src = src(en), and it extends by appending edges at its source end.
Vertices double as the paths of length zero.
"""

import collections
import operator
from typing import NamedTuple


class GraphError(ValueError):
    pass


class UsageError(Exception):
    """A value whose JSON shape is wrong: the command line exits 2."""


def json_names(data, what):
    """data, once it is a JSON array of names (strings); else UsageError."""
    if isinstance(data, list):
        try:
            "".join(data)        # a TypeError unless every entry is a string
            return data
        except TypeError:
            pass
    raise UsageError("%s must be a JSON array of names" % what)


def json_name(data, what):
    """data, once it is a JSON string; else UsageError."""
    if not isinstance(data, str):
        raise UsageError("%s must be a JSON string" % what)
    return data


class Edge(NamedTuple):
    name: str
    src: str
    rng: str


class Path(NamedTuple):
    """A finite path: range vertex plus the tuple of edge names, in order.

    Paths are validated once, where they enter from outside: by
    DirectedGraph.path, and inside boundary points by
    actions.boundary_point.  Every other operation trusts them and builds
    its results directly.

    len(p) is the number of edges, not of fields, so a vertex path is
    falsy.  For that reason namedtuple's _make and _replace, which check
    len(), must not be used on a Path; build one with Path(base, edges).
    """

    base: str            # the range vertex of the path
    edges: tuple = ()

    def __len__(self):
        return len(self.edges)

    def __str__(self):
        return "".join(self.edges) if self.edges else self.base


class DirectedGraph:
    """A graph with one order, fixed here: the vertices sorted, the edges
    sorted by name, and each vertex's received edges in edge order.  Every
    reader trusts this order, so no answer depends on how a file lists the
    graph.  A vertex or edge name listed twice is refused here."""

    def __init__(self, vertices, edges):
        self.vertices = tuple(sorted(vertices))
        self.edges = tuple(sorted([e if isinstance(e, Edge) else Edge(*e)
                                   for e in edges],
                                  key=operator.attrgetter("name")))
        self._by_name = {e.name: e for e in self.edges}
        received = {v: [] for v in self.vertices}  # vE1: edges with rng = v
        if len(received) < len(self.vertices):
            raise GraphError("'vertices' lists the name %r twice"
                             % (first_repeat(self.vertices),))
        if len(self._by_name) < len(self.edges):
            raise GraphError("'edges' lists the name %r twice" % (
                first_repeat(e.name for e in self.edges),))
        for e in self.edges:
            if e.rng in received:
                received[e.rng].append(e)
        self._received = {v: tuple(es) for (v, es) in received.items()}
        self._received_names = {v: tuple([e.name for e in es])
                                for (v, es) in received.items()}

    def validate(self):
        """Collect structural problems; empty list means the graph is well formed."""
        problems = []
        for e in self.edges:
            if e.src not in self._received:
                problems.append("edge %r has unknown src %r" % (e.name, e.src))
            if e.rng not in self._received:
                problems.append("edge %r has unknown rng %r" % (e.name, e.rng))
            if e.name in self._received:
                problems.append("name %r used for both a vertex and an edge" % e.name)
        return problems

    def edge(self, name):
        try:
            return self._by_name[name]
        except KeyError:
            raise GraphError("unknown edge %r" % (name,))

    def has_vertex(self, v):
        return v in self._received

    def received_by(self, v):
        """vE1: the edges whose range is v, in name order."""
        try:
            return self._received[v]
        except KeyError:
            raise GraphError("unknown vertex %r" % (v,))

    def received_names(self, v):
        """The names of the edges received_by(v), in that order: one tuple
        per vertex, built with the graph."""
        try:
            return self._received_names[v]
        except KeyError:
            raise GraphError("unknown vertex %r" % (v,))

    def is_source(self, v):
        return not self.received_by(v)

    def sources(self):
        return tuple(v for v in self.vertices if self.is_source(v))

    # -- path calculus -------------------------------------------------

    def path(self, edge_names, base=None):
        """Build a path from edge names; base only needed for the empty path."""
        edge_names = tuple(edge_names)
        if base is None:
            if not edge_names:
                raise GraphError("empty path needs a base vertex")
            base = self.edge(edge_names[0]).rng
        return self.check_path(Path(base, edge_names))

    def check_path(self, p):
        """The one path validator: p itself when it is a path of this graph,
        else GraphError.  path calls it; every other path operation trusts
        its arguments."""
        es = [self.edge(n) for n in p.edges]
        if not self.has_vertex(p.base):
            raise GraphError("unknown vertex %r" % (p.base,))
        for a, b in zip(es, es[1:]):
            if a.src != b.rng:
                raise GraphError(
                    "edges %r and %r do not compose (src %r != rng %r)"
                    % (a.name, b.name, a.src, b.rng))
        if es and es[0].rng != p.base:
            raise GraphError("path %s has range %r, not %r"
                             % (p, es[0].rng, p.base))
        return p

    def path_src(self, p):
        """The source vertex of the path (its base for the empty path)."""
        return self.edge(p.edges[-1]).src if p.edges else p.base

    def concat(self, p, q):
        """p followed by q; valid when src(p) = rng(q)."""
        if self.path_src(p) != q.base:
            raise GraphError("paths %s and %s do not compose" % (p, q))
        return Path(p.base, p.edges + q.edges)

    def prefix(self, p, n):
        if n < 0 or n > len(p.edges):
            raise GraphError("no prefix of length %d in %s" % (n, p))
        return Path(p.base, p.edges[:n])

    def tail_after(self, p, n):
        """The path left after removing the length-n prefix of p."""
        if n < 0 or n > len(p.edges):
            raise GraphError("no prefix of length %d in %s" % (n, p))
        return Path(self.edge(p.edges[n - 1]).src if n else p.base,
                    p.edges[n:])

    def paths_from(self, v, max_len):
        """All paths with range v of length <= max_len, shortest first, lexicographic."""
        self.received_by(v)  # an unknown vertex raises GraphError
        out, frontier = [Path(v)], [Path(v)]
        for _ in range(max_len):
            nxt = []
            for p in frontier:
                for e in self.received_by(self.path_src(p)):
                    nxt.append(Path(p.base, p.edges + (e.name,)))
            out.extend(nxt)
            frontier = nxt
            if not frontier:
                break
        return out

    def all_paths(self, max_len):
        out = []
        for v in self.vertices:
            out.extend(self.paths_from(v, max_len))
        out.sort(key=path_key)
        return out

    def to_dot(self, name="graph"):
        lines = ["digraph %s {" % dot_id(name)]
        for v in self.vertices:
            shape = "doublecircle" if self.is_source(v) else "circle"
            lines.append('  %s [shape=%s];' % (dot_id(v), shape))
        for e in self.edges:
            lines.append('  %s -> %s [label=%s];'
                         % (dot_id(e.rng), dot_id(e.src), dot_id(e.name)))
        lines.append("}")
        return "\n".join(lines) + "\n"


def first_repeat(names):
    """The first key listed more than once in names, in the order of first
    listing (on a sorted list, the least repeated key): the key that every
    refusal of a name or key listed twice names."""
    return next(key for (key, n) in collections.Counter(names).items()
                if n > 1)


def dot_id(name):
    """name as a quoted DOT ID, its backslashes and double quotes escaped:
    every ID and label the DOT writers print goes through here, so any
    name makes valid DOT."""
    return '"%s"' % name.replace("\\", "\\\\").replace('"', '\\"')


def path_key(p):
    """Deterministic sort key: length, then base, then edge names."""
    return (len(p.edges), p.base, p.edges)


def is_prefix(p, q):
    """True when p is a prefix of q (same base, q's edges start with p's)."""
    return p.base == q.base and q.edges[: len(p.edges)] == p.edges


def comparable(p, q):
    """True when one of the paths is a prefix of the other (same cylinder chain)."""
    return is_prefix(p, q) or is_prefix(q, p)

