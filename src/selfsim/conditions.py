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

import collections
import json

from . import actions as act_mod
from . import verdicts
from .verdicts import holds, fails, holds_on_model, requires_explicit


# -- scoping ----------------------------------------------------------------


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


def _closing_lengths(orb):
    """base -> the length of its closing chain, for each base that has one:
    the least k >= 1 such that k steps of u -> the source of the one edge
    u receives lead from base to a vertex that receives at most one edge
    and is orbit-related to base.

    The step is a function on the vertices receiving one edge, so its
    graph is a forest of in-trees, each hanging from a vertex outside its
    domain or from one of its cycles.  One depth-first walk per tree, away
    from its root, keeps per orbit class the depths of the vertices on the
    way down that receive at most one edge; a base's chain closes at the
    nearest of them in its class.  Below a cycle the chain goes round it,
    so that walk starts with one lap of the cycle on the stacks.
    """
    classes, sources = orb.classes, orb.sources
    step = {u: s[0] for (u, s) in sources.items() if len(s) == 1}
    below = {}
    for (u, w) in step.items():
        below.setdefault(w, []).append(u)
    roots = [(w, ()) for w in below if w not in step]
    seen = set()
    for u in step:
        trail = {}
        while u in step and u not in seen:
            seen.add(u)
            trail[u] = len(trail)
            u = step[u]
        if u in trail:
            roots.append((u, list(trail)[trail[u]:]))
    lengths = {}
    for (root, cycle) in roots:
        near = collections.defaultdict(list)   # class -> depths, nearest last
        for i in range(len(cycle), 0, -1):
            near[classes[cycle[i % len(cycle)]]].append(-i)
        work = [(root, 0)]
        while work:
            u, depth = work.pop()
            if u is None:               # leaving a vertex of class depth
                near[depth].pop()
                continue
            above = near[classes[u]]
            if u in step and above:
                lengths[u] = depth - above[-1]
            if len(sources[u]) < 2:
                above.append(depth)
                work.append((None, classes[u]))
            work.extend((w, depth + 1) for w in below.get(u, ()) if w != root)
    return lengths


def check_cyc(action):
    """Every orbit-cycle has an entrance.

    An orbit-cycle is a non-empty path whose source and range lie in one
    orbit; paths up to |vertices| edges suffice (a longer entrance-free
    path repeats a base vertex, and the enclosed cycle is again
    entrance-free with orbit-related endpoints).  An entrance-free path is
    fixed by its base and its length: each vertex on it but the last
    receives one edge, so it is the chain of received edges out of its
    base, and the shortest per base comes from one pass over the chains
    (_closing_lengths, never longer than |vertices|).  The least
    (length, base) is the path_key-least witness.
    """
    graph = action.graph
    lengths = _closing_lengths(action.orbits)
    witness = None
    if lengths:
        n, base = min((n, b) for (b, n) in lengths.items())
        u, edges = base, []
        for _ in range(n):
            e = graph.received_by(u)[0]
            u = e.src
            edges.append(e.name)
        witness = {"op": "has_entrance", "path": edges, "src": u, "rng": base}
    return _orbit_scoped(
        action.groupoid, witness,
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
    succ, kernel = dg.fixed, dg.kernel
    # fixed walks from the kernel stay inside it, so the kernel nodes that
    # reach a non-unit are those reaching one of kernel - units
    reach = kernel & dg.reaching(kernel - dg.units)
    bad = reach & dg.cyclic if reach else set()
    starts = kernel & dg.reaching(bad)
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
        m = gpd._elements[g]
        if m.src == m.rng and not gpd.is_unit(g):
            witness = {"op": "restrict_path", "element": g,
                       "path": {"base": m.src, "edges": []}}
            break
    return verdicts.universal_verdict(
        gpd, witness,
        witness_note="a non-unit isotropy element fixes its vertex path "
                     "with itself as restriction",
        model_note="only units are isotropy among represented elements")


def invariant_closure(action, v):
    """The smallest set containing v that is closed under following paths,
    under the orbit relation, and under saturation (a regular vertex all of
    whose received edges have sources inside joins, with its orbit)."""
    orb = action.orbits
    # per vertex, the received edges whose source is still outside
    outside = {u: len(s) for (u, s) in orb.sources.items()}

    def step(u):
        for w in orb.ranges[u]:
            outside[w] -= 1
        return (orb.sources[u] + orb.members[orb.classes[u]]
                + [w for w in orb.ranges[u] if not outside[w]])
    return frozenset(act_mod._closure([v], step))


def check_min(action):
    """The invariant closure of every vertex is everything.

    A closure holds the closure of every vertex it walks to, range to
    source, and every vertex walks into a sink component of that walk, so
    one closure per sink component finds the full ones.  The witness is
    the least vertex with a proper closure; a vertex walking into a full
    sink is full, so only the others are closed.
    """
    orb, everything = action.orbits, set(action.graph.vertices)
    full = set()
    for (i, comp) in enumerate(orb.components):
        if (all(orb.component[w] == i for u in comp for w in orb.sources[u])
                and invariant_closure(action, comp[0]) == everything):
            full.update(comp)
    witness = None
    for v in sorted(everything - act_mod._closure(full, orb.ranges.get)):
        closure = invariant_closure(action, v)
        if closure != everything:
            witness = {"op": "invariant_closure", "vertex": v,
                       "closure": sorted(closure)}
            break
    return _monotone_scoped(
        action.groupoid, witness,
        witness_note="a vertex has a proper invariant closure",
        model_note="every vertex generates the full vertex set")


def _entrance_cycle_base_points(action):
    """Vertices that are base points of some orbit-cycle with an entrance.

    A base point x splits the cycle as a walk q -> x -> p, range to
    source, with p and q in one orbit class, total length >= 1, touching a
    vertex that receives two edges.  Per class, one closure finds the
    (vertex, touched, moved) states walked to from the class and one the
    states walking back into it; x is a base point where two of them meet
    that together touch and move.  When the class lies inside one
    component of the walk, a walk from the class back into it stays in
    that component, so the class gives the whole component when it is
    cyclic and has a vertex receiving two edges, and nothing otherwise.
    """
    orb = action.orbits
    in2 = {v: len(s) >= 2 for (v, s) in orb.sources.items()}

    def step_along(succ):
        return lambda st: ((w, st[1] or in2[w], True) for w in succ[st[0]])

    base = set()
    for cls in orb.members.values():
        comps = {orb.component[v] for v in cls}
        if len(comps) == 1:
            comp = orb.components[comps.pop()]
            if (act_mod.on_cycle(orb.sources, comp)
                    and any(in2[v] for v in comp)):
                base.update(comp)
            continue
        seeds = [(v, in2[v], False) for v in cls]
        back = act_mod._closure(seeds, step_along(orb.ranges))
        ahead = act_mod._closure(seeds, step_along(orb.sources))
        # the walk back must touch where the walk ahead did not, and move
        base.update(x for (x, t, m) in ahead
                    if any((x, t2, m2) in back for t2 in {True, not t}
                           for m2 in {True, not m}))
    return base


def check_con(action):
    """Every vertex has a path into a base point of an orbit-cycle with an
    entrance.  One closure from the base points, along each edge from its
    source to its range, finds the vertices that do; the least vertex left
    outside is the witness."""
    reach = act_mod._closure(_entrance_cycle_base_points(action),
                             action.orbits.ranges.get)
    left = set(action.graph.vertices) - reach
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
    """The report, as the JSON document `selfsim report` prints: every base
    verdict with its condition's text, every derived verdict with its rule
    and inputs, and the system's notes plus the purely infinite note."""
    base = {cid: fn(action) for (cid, fn) in BASE_CHECKS}
    derived = {}
    for (did, input_ids, rule) in DERIVED_RULES:
        v = combine([(cid, base[cid]) for cid in input_ids], scope_mode)
        derived[did] = dict(v.to_json(), citation=rule, inputs=list(input_ids))
    extra = list(notes)
    if (derived["SimpleEssential"]["status"] in
            (verdicts.HOLDS, verdicts.HOLDS_ON_MODEL)
            and base["Con"].status == verdicts.HOLDS):
        extra.append(
            "Con also holds, so the simple essential algebra is purely "
            "infinite")
    return {
        "system": name,
        "backend": action.groupoid.kind,
        "scope_mode": scope_mode,
        "conditions": {cid: dict(v.to_json(), citation=CONDITION_TEXT[cid])
                       for (cid, v) in base.items()},
        "derived": derived,
        "notes": extra,
    }


def report_text(doc):
    """The text form of a run_report document, read from the document
    alone, so a report read back from its JSON renders the same."""
    lines = ["system: %s  [backend=%s, scope=%s]"
             % (doc["system"] or "(unnamed system)", doc["backend"],
                doc["scope_mode"]),
             "", "conditions:"]
    for (cid, _) in BASE_CHECKS:
        v = doc["conditions"][cid]
        lines.append("  %-16s %-16s %s" % (cid, v["status"], v["scope"]))
        if v["witness"]:
            lines.append("    witness: %s" % json.dumps(v["witness"],
                                                        sort_keys=True))
    lines += ["", "derived:"]
    for (did, _inputs, _rule) in DERIVED_RULES:
        v = doc["derived"][did]
        lines.append("  %-16s %-16s via %s" % (did, v["status"],
                                               "+".join(v["inputs"])))
        if v["witness"]:
            lines.append("    witness: %s" % json.dumps(v["witness"],
                                                        sort_keys=True))
        if v["scope"]:
            lines.append("    note: %s" % v["scope"])
    if doc["notes"]:
        lines += ["", "notes:"] + ["  - %s" % n for n in doc["notes"]]
    return "\n".join(lines) + "\n"
