"""Deciders for the combinatorial conditions of an action, and the report.

Base conditions (ids used verbatim in reports):

  Fin  — every element has finitely many minimal strongly fixed paths
  Evr  — every element fixing all paths at its source strongly fixes one
  Cyc  — every cycle up to the orbit relation passes an entrance
  Sla  — elements fixing all paths strongly fix all long enough paths
  Rec  — no element fixes a path with a non-unit restriction
  Min  — the invariant closure of every vertex is the whole vertex set
  Con  — every vertex reaches a base point of an orbit-cycle with entrance

plus PseudoFree, Faithful, TightlyFaithful and Contracting.  Derived
verdicts combine these by fixed rules; each carries the rule it used, its
inputs, and honest scope propagation (a HoldsOnModel input never yields a
plain Holds, and --scope strict refuses to propagate it at all).
"""

from . import actions as act_mod
from . import verdicts
from .verdicts import holds, fails, holds_on_model, requires_explicit


# -- orbit bookkeeping ------------------------------------------------------


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
    for v in sorted(groupoid.vertices):
        if v not in classes:
            classes.update(dict.fromkeys(act_mod._closure([v], linked.get), v))
    return classes


def _orbit_scoped(groupoid, witness, witness_note="", model_note=""):
    """Scoping for orbit-quantified checks: failure witnesses are sound
    (states are inhabited), a clean sweep needs the full orbit relation."""
    if witness is not None:
        return fails(witness, witness_note)
    if groupoid.orbit_complete:
        return holds(model_note)
    return holds_on_model(model_note)


def _monotone_scoped(groupoid, witness, witness_note="", model_note=""):
    """Scoping for checks that can only get easier with more orbit pairs:
    holding on the model is globally sound, failing needs completeness."""
    if witness is None:
        return holds(model_note)
    if groupoid.orbit_complete:
        return fails(witness, witness_note)
    return requires_explicit(
        "the modeled orbit relation is incomplete, so the failure cannot "
        "be trusted")


# -- the seven conditions ---------------------------------------------------


def check_fin(action):
    """Finitely many minimal strongly fixed paths for every element.  An
    element has infinitely many exactly when its fixed walks through
    non-units reach a pump; the least such element gives the witness."""
    dg = action.digraph
    starts = dg.reaching(dg.pumps, avoid=dg.units)
    witness = None
    if starts:
        res = act_mod.minimal_strongly_fixed(action, min(starts))
        witness = dict(res.witness, op="minimal_strongly_fixed")
    return verdicts.universal_verdict(
        action.groupoid, witness,
        witness_note="an element has infinitely many minimal strongly fixed "
                     "paths (pump the cycle before the exit)",
        model_note="all minimal strongly fixed path sets are finite")


def check_evr(action):
    """Everyone fixing all paths strongly fixes some path: no kernel element
    is cut off from the units along fixed arrows."""
    dg = action.digraph
    witness = None
    stuck = dg.kernel - dg.can_reach_unit
    if stuck:
        witness = {"op": "fixes_all_paths", "element": min(stuck)}
    return verdicts.universal_verdict(
        action.groupoid, witness,
        witness_note="an element fixes every path at its source yet never "
                     "restricts to a unit",
        model_note="every all-path-fixing element strongly fixes a path")


def _closing_chain(graph, classes, base, limit):
    """The edges of the shortest entrance-free path at base, of at most
    limit edges, whose source is orbit-related to base; None if there is
    none.  Each vertex on such a path receives at most one edge, so the
    path is the unique chain of received edges out of base."""
    u, edges = base, []
    while len(edges) < limit and len(graph.received_by(u)) == 1:
        e = graph.received_by(u)[0]
        u = e.src
        edges.append(e.name)
        if len(graph.received_by(u)) < 2 and classes[u] == classes[base]:
            return edges
    return None


def check_cyc(action):
    """Every orbit-cycle has an entrance.

    An orbit-cycle is a non-empty path whose source and range lie in one
    orbit; paths up to |vertices| edges suffice (a longer entrance-free
    path repeats a base vertex, and the enclosed cycle is again
    entrance-free with orbit-related endpoints).  An entrance-free path is
    fixed by its base and its length, so one walk per base finds the
    shortest; the least (length, base) is the path_key-least witness.
    """
    graph, gpd = action.graph, action.groupoid
    classes = orbit_classes(gpd)
    witness, limit = None, len(graph.vertices)
    for base in sorted(graph.vertices):
        edges = _closing_chain(graph, classes, base, limit)
        if edges:
            witness = {"op": "has_entrance", "path": edges,
                       "src": graph.edge(edges[-1]).src, "rng": base}
            limit = len(edges) - 1
    return _orbit_scoped(
        gpd, witness,
        witness_note="an entrance-free path closes up to the orbit relation",
        model_note="every orbit-cycle has an entrance")


def check_sla(action):
    """All-path-fixing elements strongly fix every long enough path.

    Fails exactly when some such element can restrict, from a node on a
    directed cycle of its restriction digraph, to a non-unit: pumping the
    cycle produces arbitrarily long paths that are fixed but not strongly.
    The kernel is closed under restriction and all its arrows are fixed,
    so those cycle nodes are the digraph's cycle nodes inside the kernel.
    The witness is the least such element and its least such node.
    """
    gpd, dg = action.groupoid, action.digraph
    succ = dg.fixed
    bad = dg.kernel & dg.cyclic & dg.reaching(set(dg.arrows) - dg.units)
    starts = dg.kernel & dg.reaching(bad)
    witness = None
    if starts:
        g = min(starts)
        c = min(dg.reach([g]) & bad)
        node, word = act_mod._shortest_walk(succ, [c],
                                            lambda n: not gpd.is_unit(n))
        _, access = act_mod._shortest_walk(succ, [g], lambda n: n == c)
        witness = {"op": "restriction_digraph", "element": g,
                   "access": list(access),
                   "cycle": list(act_mod._cycle_word(succ, c)),
                   "to_nonunit": list(word), "nonunit": node}
    return verdicts.universal_verdict(
        gpd, witness,
        witness_note="pumping the cycle keeps a non-unit restriction in "
                     "reach at every depth",
        model_note="deep restrictions of all-path-fixing elements are units")


def check_rec(action):
    """No element fixes a path (vertex paths included) with a non-unit
    restriction; over a finite graph this is exactly the absence of
    non-unit isotropy among the represented elements."""
    gpd = action.groupoid
    witness = None
    for g in gpd.elements():
        if not gpd.is_unit(g) and gpd.src(g) == gpd.rng(g):
            witness = {"op": "restrict_path", "element": g,
                       "path": {"base": gpd.src(g), "edges": []}}
            break
    return verdicts.universal_verdict(
        gpd, witness,
        witness_note="a non-unit isotropy element fixes its vertex path "
                     "with itself as restriction",
        model_note="only units are isotropy among represented elements")


def _edges_out(graph):
    """The range of every edge, listed under its source."""
    out = {v: [] for v in graph.vertices}
    for e in graph.edges:
        out[e.src].append(e.rng)
    return out


def _invariant_closer(action):
    """invariant_closure for one action, with the orbit classes, their
    members, the edges by source and the received-edge counts built once."""
    graph = action.graph
    classes = orbit_classes(action.groupoid)
    members = {}
    for u in graph.vertices:
        members.setdefault(classes[u], []).append(u)
    ranges = _edges_out(graph)
    received = {u: len(graph.received_by(u)) for u in graph.vertices}

    def close(v):
        outside = dict(received)   # received edges whose source is outside

        def step(u):
            for w in ranges[u]:
                outside[w] -= 1
            return ([e.src for e in graph.received_by(u)] + members[classes[u]]
                    + [w for w in ranges[u] if not outside[w]])
        return frozenset(act_mod._closure([v], step))
    return close


def invariant_closure(action, v):
    """The smallest set containing v that is closed under following paths,
    under the orbit relation, and under saturation (a regular vertex all of
    whose received edges have sources inside joins, with its orbit)."""
    return _invariant_closer(action)(v)


def check_min(action):
    """The invariant closure of every vertex is everything."""
    graph = action.graph
    close = _invariant_closer(action)
    witness = None
    for v in sorted(graph.vertices):
        closure = close(v)
        if closure != set(graph.vertices):
            witness = {"op": "invariant_closure", "vertex": v,
                       "closure": sorted(closure)}
            break
    return _monotone_scoped(
        action.groupoid, witness,
        witness_note="a vertex has a proper invariant closure",
        model_note="every vertex generates the full vertex set")


def _entrance_cycle_base_points(action):
    """Vertices that are base points of some orbit-cycle with an entrance.

    A base point splits the cycle as a walk q -> x -> p with p and q in one
    orbit, total length >= 1, touching a vertex that receives two edges.
    below[x] holds the (vertex, touched, moved) states reachable from x,
    above[x] the (class(q), touched, moved) of every walk from some q into
    x; x is a base point when the two sides join on a class and together
    touch an entrance and move.
    """
    graph, gpd = action.graph, action.groupoid
    classes = orbit_classes(gpd)
    in2 = {v: len(graph.received_by(v)) >= 2 for v in graph.vertices}

    def step(state):
        (u, t, _) = state
        return ((e.src, t or in2[e.src], True) for e in graph.received_by(u))

    below = {v: act_mod._closure([(v, in2[v], False)], step)
             for v in graph.vertices}
    above = {v: set() for v in graph.vertices}
    for q in graph.vertices:
        for (x, t, m) in below[q]:
            above[x].add((classes[q], t, m))
    base = set()
    for x in graph.vertices:
        ends = {}
        for (p, t, m) in below[x]:
            ends.setdefault(classes[p], set()).add((t, m))
        if any((t1 or t2) and (m1 or m2) for (c, t1, m1) in above[x]
               for (t2, m2) in ends.get(c, ())):
            base.add(x)
    return base


def check_con(action):
    """Every vertex has a path into a base point of an orbit-cycle with an
    entrance.  One closure from the base points, along each edge from its
    source to its range, finds the vertices that do; the least vertex left
    outside is the witness."""
    graph = action.graph
    reach = act_mod._closure(_entrance_cycle_base_points(action),
                             _edges_out(graph).get)
    left = set(graph.vertices) - reach
    witness = None
    if left:
        witness = {"op": "path_reachable_vertices", "vertex": min(left)}
    return _monotone_scoped(
        action.groupoid, witness,
        witness_note="a vertex never reaches an orbit-cycle with an entrance",
        model_note="all vertices reach an orbit-cycle with an entrance")


def check_contracting(action):
    """Finite explicit groupoids are contracting outright (the nucleus is a
    subset of a finite element set); the notion presupposes a graph without
    sources, and a behavioral model cannot certify the global element set."""
    if action.groupoid.kind != "explicit":
        return requires_explicit(
            "contraction concerns the full element set; the model cannot "
            "certify it")
    srcs = action.graph.sources()
    if srcs:
        return holds("every restriction stays inside the finite element "
                     "set; the nucleus itself is only defined for graphs "
                     "without sources (here %r is a source)" % (srcs[0],))
    nuc = act_mod.nucleus(action)
    return holds("the nucleus has %d elements" % len(nuc))


BASE_CHECKS = [
    ("Fin", check_fin),
    ("Evr", check_evr),
    ("Cyc", check_cyc),
    ("Sla", check_sla),
    ("Rec", check_rec),
    ("Min", check_min),
    ("Con", check_con),
    ("PseudoFree", act_mod.pseudo_free),
    ("Faithful", act_mod.faithful),
    ("TightlyFaithful", act_mod.tightly_faithful),
    ("Contracting", check_contracting),
]


CONDITION_TEXT = {
    "Fin": "every element has finitely many minimal strongly fixed paths",
    "Evr": "every element fixing all paths at its source strongly fixes one",
    "Cyc": "every cycle up to the orbit relation passes an entrance",
    "Sla": "elements fixing all paths strongly fix all long enough paths",
    "Rec": "no non-unit restriction appears along a fixed path",
    "Min": "the invariant closure of every vertex is the whole vertex set",
    "Con": "every vertex reaches a base of an orbit-cycle with an entrance",
    "PseudoFree": "fixing an edge forces a unit restriction on it",
    "Faithful": "only units fix every path at their source",
    "TightlyFaithful": "the tight kernel contains only units",
    "Contracting": "restrictions eventually land in a finite set (nucleus)",
}


DERIVED_RULES = [
    ("Hausdorff", ("Fin",),
     "the boundary groupoid, its tight quotient and both cores are "
     "Hausdorff exactly when Fin holds"),
    ("TopFreeTight", ("Evr", "Cyc"),
     "the tight groupoid is topologically free exactly when Evr and Cyc hold"),
    ("TopFreeCore", ("Evr",),
     "the degree-zero core groupoid is topologically free exactly when Evr "
     "holds"),
    ("TopFreeUniversal", ("Evr", "Rec"),
     "the universal groupoid is topologically free exactly when Evr and Rec "
     "hold"),
    ("EffectiveS", ("Cyc", "Sla"),
     "the semigroup action on the boundary is effective exactly when Cyc "
     "and Sla hold"),
    ("EffectiveTight", ("Cyc", "Sla"),
     "the tight groupoid is effective exactly when Cyc and Sla hold (over a "
     "finite graph no vertex receives infinitely many edges, so the extra "
     "clause is vacuous)"),
    ("SimpleEssential", ("Evr", "Cyc", "Min"),
     "the essential algebra is simple exactly when Evr, Cyc and Min hold"),
    ("CartanTight", ("Fin", "Evr", "Cyc"),
     "the boundary diagonal is Cartan in the reduced tight algebra exactly "
     "when Fin, Evr and Cyc hold"),
    ("CartanToeplitz", ("Fin", "Evr", "Rec"),
     "the diagonal is Cartan in the reduced universal algebra and its cores "
     "exactly when Fin, Evr and Rec hold"),
    ("CartanCore", ("Fin", "Evr"),
     "the diagonal is Cartan in the reduced degree-zero cores of the tight "
     "algebra exactly when Fin and Evr hold"),
]


def combine(inputs, scope_mode="model"):
    """Conjunction of verdicts with honest scope propagation."""
    for (cid, v) in inputs:
        if v.status == verdicts.FAILS:
            w = {"failed_input": cid}
            if v.witness:
                w["witness"] = dict(v.witness)
            return fails(w, "input %s fails" % cid)
    for (cid, v) in inputs:
        if v.status == verdicts.REQUIRES_EXPLICIT:
            return requires_explicit("input %s is undecided: %s" % (cid, v.note))
    on_model = [cid for (cid, v) in inputs if v.status == verdicts.HOLDS_ON_MODEL]
    if on_model:
        if scope_mode == "strict":
            return requires_explicit(
                "inputs %s only hold on the model" % ", ".join(on_model))
        return holds_on_model("inputs %s hold on the model" % ", ".join(on_model))
    return holds("all inputs hold")


def run_report(action, name="", scope_mode="model", notes=()):
    base = {}
    for (cid, fn) in BASE_CHECKS:
        base[cid] = fn(action)
    derived = {}
    for (did, input_ids, rule) in DERIVED_RULES:
        v = combine([(cid, base[cid]) for cid in input_ids], scope_mode)
        derived[did] = {"verdict": v, "rule": rule, "inputs": list(input_ids)}
    extra = list(notes)
    if (derived["SimpleEssential"]["verdict"].status in
            (verdicts.HOLDS, verdicts.HOLDS_ON_MODEL)
            and base["Con"].status == verdicts.HOLDS):
        extra.append(
            "Con also holds, so the simple essential algebra is purely "
            "infinite")
    return Report(name, action.groupoid.kind, scope_mode, base, derived, extra)


class Report:
    def __init__(self, name, backend, scope_mode, base, derived, notes):
        self.name = name
        self.backend = backend
        self.scope_mode = scope_mode
        self.base = base
        self.derived = derived
        self.notes = list(notes)

    def to_json(self):
        conditions = {}
        for (cid, v) in sorted(self.base.items()):
            entry = v.to_json()
            entry["citation"] = CONDITION_TEXT[cid]
            conditions[cid] = entry
        derived = {}
        for (did, d) in sorted(self.derived.items()):
            entry = d["verdict"].to_json()
            entry["citation"] = d["rule"]
            entry["inputs"] = d["inputs"]
            derived[did] = entry
        return {
            "system": self.name,
            "backend": self.backend,
            "scope_mode": self.scope_mode,
            "conditions": conditions,
            "derived": derived,
            "notes": self.notes,
        }

    def to_text(self):
        lines = []
        title = self.name or "(unnamed system)"
        lines.append("system: %s  [backend=%s, scope=%s]"
                     % (title, self.backend, self.scope_mode))
        lines.append("")
        lines.append("conditions:")
        for (cid, _) in BASE_CHECKS:
            v = self.base[cid]
            lines.append("  %-16s %-16s %s" % (cid, v.status, v.note))
            if v.witness:
                lines.append("    witness: %s" % _fmt_witness(v.witness))
        lines.append("")
        lines.append("derived:")
        for (did, _inputs, _rule) in DERIVED_RULES:
            d = self.derived[did]
            v = d["verdict"]
            lines.append("  %-16s %-16s via %s" % (did, v.status,
                                                   "+".join(d["inputs"])))
            if v.witness:
                lines.append("    witness: %s" % _fmt_witness(v.witness))
            if v.note:
                lines.append("    note: %s" % v.note)
        if self.notes:
            lines.append("")
            lines.append("notes:")
            for n in self.notes:
                lines.append("  - %s" % n)
        return "\n".join(lines) + "\n"


def _fmt_witness(w):
    import json
    return json.dumps(w, sort_keys=True)
