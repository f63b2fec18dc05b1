"""Seeded generators for the benchmark's systems.

Every generator is a pure function of its parameters (and, for the
sampler, of the random.Random it is handed), so the same seed always
yields the same systems.  Systems are built through the public
constructors of selfsim and reach the program only as files written by
systems.save_system.
"""

import itertools

from selfsim import systems
from selfsim.actions import SelfSimilarAction
from selfsim.graphs import DirectedGraph
from selfsim.groupoids import (BehavioralModel, cyclic_group_table,
                               from_group_action, group_bundle)
from selfsim.twists import Twist


def _system(name, graph, gpd, edge_action, restriction, twist_edges=None):
    action = SelfSimilarAction(graph, gpd, edge_action, restriction)
    twist = None
    if twist_edges is not None:
        twist = Twist(action, group_entries=(), edge_entries=twist_edges)
    return systems.System(name, action, twist)


def zn_rotation(n):
    """One vertex, n loops, and Z_n rotating them.

    c^a·x_i = x_{i+a}; the restriction is the coboundary of the indicator
    of x_0, so its exponents are 0, 1 and n-1.
    """
    graph = DirectedGraph(["v"], [("x%d" % i, "v", "v") for i in range(n)])
    gpd = group_bundle(["v"], {"v": cyclic_group_table(n, prefix="c")})
    phi = [1 if i == 0 else 0 for i in range(n)]
    edge_action, restriction = {}, {}
    for a in range(n):
        for i in range(n):
            j = (i + a) % n
            edge_action[("c%d" % a, "x%d" % i)] = "x%d" % j
            restriction[("c%d" % a, "x%d" % i)] = "c%d" % ((phi[j] - phi[i]) % n)
    return _system("zn_rotation_%d" % n, graph, gpd, edge_action, restriction)


def ring(n_vertices):
    """n vertices in a ring, a self-loop at each, the trivial groupoid.

    Every vertex receives two edges, so every path has an entrance and
    Cyc holds by construction.
    """
    vs = ["r%d" % k for k in range(n_vertices)]
    edges = []
    for k in range(n_vertices):
        edges.append(("s%d" % k, vs[(k + 1) % n_vertices], vs[k]))
        edges.append(("l%d" % k, vs[k], vs[k]))
    graph = DirectedGraph(vs, edges)
    gpd = group_bundle(vs, {})
    edge_action, restriction = {}, {}
    for (name, src, rng) in edges:
        edge_action[(gpd.unit_at(rng), name)] = name
        restriction[(gpd.unit_at(rng), name)] = gpd.unit_at(src)
    return _system("ring_%d" % n_vertices, graph, gpd, edge_action,
                   restriction)


def cyclic_bundle(k, m, d, lam, t):
    """k vertices in a ring, d parallel edges between neighbours, Z_m at
    every vertex (d divides m).

    c^a at w_j shifts the parallel edges into w_j by a and restricts to
    c^(phi(i+a) - phi(i) + lam·a) at w_{j+1}, with phi = t·[i == 0]; the
    lam part makes restrictions cycle round the ring.
    """
    if m % d:
        raise ValueError("d must divide m")
    vs = ["w%d" % j for j in range(k)]
    edges = [("p%d_%d" % (j, i), vs[(j + 1) % k], vs[j])
             for j in range(k) for i in range(d)]
    graph = DirectedGraph(vs, edges)
    fibers = {vs[j]: cyclic_group_table(m, prefix="w%dc" % j)
              for j in range(k)}
    gpd = group_bundle(vs, fibers)
    phi = [t if i == 0 else 0 for i in range(d)]
    edge_action, restriction = {}, {}
    for j in range(k):
        nxt = (j + 1) % k
        for a in range(m):
            g = "w%dc%d" % (j, a)
            for i in range(d):
                i2 = (i + a) % d
                edge_action[(g, "p%d_%d" % (j, i))] = "p%d_%d" % (j, i2)
                r = (phi[i2] - phi[i] + lam * a) % m
                restriction[(g, "p%d_%d" % (j, i))] = "w%dc%d" % (nxt, r)
    name = "bundle_k%d_m%d_d%d_l%d_t%d" % (k, m, d, lam, t)
    return _system(name, graph, gpd, edge_action, restriction)


def transformation(k, m, d, c, s):
    """Transformation groupoid of Z_m rotating k vertices (k and d divide m).

    Edges t{v}_{i} run from u_{v+1} to u_v.  gamma@u_v sends t{v}_{i} to
    t{v+gamma}_{i+c·gamma} and restricts to (gamma·(1+k·s))@u_{v+1}; both
    maps are homomorphisms in gamma, so the product laws hold.
    """
    if m % k or m % d:
        raise ValueError("k and d must divide m")
    vs = ["u%d" % v for v in range(k)]
    group = ["z%d" % a for a in range(m)]
    gmul = {(group[a], group[b]): group[(a + b) % m]
            for a in range(m) for b in range(m)}
    vact = {(group[a], vs[v]): vs[(v + a) % k]
            for a in range(m) for v in range(k)}
    gpd = from_group_action(group, gmul, group[0], vs, vact)
    edges = [("t%d_%d" % (v, i), vs[(v + 1) % k], vs[v])
             for v in range(k) for i in range(d)]
    graph = DirectedGraph(vs, edges)
    edge_action, restriction = {}, {}
    for a in range(m):
        delta = (a * (1 + k * s)) % m
        for v in range(k):
            g = "%s@%s" % (group[a], vs[v])
            for i in range(d):
                e = "t%d_%d" % (v, i)
                edge_action[(g, e)] = "t%d_%d" % ((v + a) % k, (i + c * a) % d)
                restriction[(g, e)] = "%s@%s" % (group[delta], vs[(v + 1) % k])
    name = "trans_k%d_m%d_d%d_c%d_s%d" % (k, m, d, c, s)
    return _system(name, graph, gpd, edge_action, restriction)


def twisted_spoke(k, m, weights):
    """A hub loop plus k spokes, Z_m at the hub, trivial groups elsewhere,
    with a valid edge twist.

    Every hub element fixes every edge, recurses along the loop and dies
    along the spokes.  The edge phase of c^a on edge j is a·weights[j]/m,
    additive in a, so the twist is a cocycle compatible with the action
    (the group cocycle is trivial).  weights[0] is the loop's weight.
    twisted_spoke(2, 2, (0, 0, 1)) is the bundled twisted_three_spoke up
    to names.
    """
    if len(weights) != k + 1:
        raise ValueError("one weight for the loop and one per spoke")
    ws = ["s%d" % j for j in range(k)]
    vs = ["v"] + ws
    edges = [("e", "v", "v")] + [("e%d" % j, ws[j], "v") for j in range(k)]
    graph = DirectedGraph(vs, edges)
    gpd = group_bundle(vs, {"v": cyclic_group_table(m, prefix="h")})
    edge_action, restriction, twist = {}, {}, []
    for a in range(m):
        g = "h%d" % a
        for (j, (name, src, _)) in enumerate(edges):
            edge_action[(g, name)] = name
            restriction[(g, name)] = g if src == "v" else gpd.unit_at(src)
            num = (a * weights[j]) % m
            if num:
                twist.append((g, name, "%d/%d" % (num, m)))
    name = "spoke_k%d_m%d_w%s" % (k, m, "".join(str(x) for x in weights))
    return _system(name, graph, gpd, edge_action, restriction,
                   twist_edges=twist)


FLAG_NAMES = ("unit_reflecting", "element_complete", "orbit_complete")


def behavioral_chain(k, flags, recur):
    """A behavioral model on a chain of k vertices with two parallel edges
    into each non-final vertex.

    The non-unit state g_j swaps the two edges into b_j and restricts to
    g_{j+1} (recur) or to the unit; a second state f_j fixes both edges
    with unit restrictions.  flags is a triple of booleans in FLAG_NAMES
    order, so every scope path of the verdicts is reachable.
    """
    vs = ["b%d" % j for j in range(k)]
    edges = []
    for j in range(k - 1):
        edges.append(("q%d" % j, vs[j + 1], vs[j]))
        edges.append(("r%d" % j, vs[j + 1], vs[j]))
    graph = DirectedGraph(vs, edges)
    states = []
    for j in range(k):
        states.append(("1b%d" % j, vs[j], vs[j], True))
        states.append(("g%d" % j, vs[j], vs[j], False))
        states.append(("f%d" % j, vs[j], vs[j], False))
    gpd = BehavioralModel.from_states(vs, states, dict(zip(FLAG_NAMES, flags)))
    edge_action, restriction = {}, {}
    for j in range(k - 1):
        q, r = "q%d" % j, "r%d" % j
        unit_next = "1b%d" % (j + 1)
        for (e, swapped) in ((q, r), (r, q)):
            edge_action[("1b%d" % j, e)] = e
            restriction[("1b%d" % j, e)] = unit_next
            edge_action[("g%d" % j, e)] = swapped
            restriction[("g%d" % j, e)] = ("g%d" % (j + 1)) if recur else unit_next
            edge_action[("f%d" % j, e)] = e
            restriction[("f%d" % j, e)] = unit_next
    name = "behav_k%d_f%s_r%d" % (k, "".join(str(int(b)) for b in flags),
                                 int(recur))
    return _system(name, graph, gpd, edge_action, restriction)


# -- the rejection sampler (same algorithm as the test suite's) -----------


def _random_graph(rng, max_vertices, max_edges):
    nv = rng.randint(1, max_vertices)
    vertices = ["p", "q", "r"][:nv]
    ne = rng.randint(1, max_edges)
    edges = [("x%d" % k, rng.choice(vertices), rng.choice(vertices))
             for k in range(ne)]
    return DirectedGraph(vertices, edges)


def _source_preserving_permutations(graph, v):
    groups = {}
    for e in graph.received_by(v):
        groups.setdefault(e.src, []).append(e.name)
    pools = [list(itertools.permutations(names)) for names in groups.values()]
    out = []
    for combo in itertools.product(*pools):
        perm = {}
        for (names, image) in zip(groups.values(), combo):
            perm.update(dict(zip(names, image)))
        out.append(perm)
    return out


def random_action(rng, max_vertices=3, max_edges=4, max_group=4):
    """One rejection-sampled explicit self-similar action: a cyclic group at
    one hub vertex, generated by a source-preserving edge permutation with
    random restrictions, closed under the group law and kept only if the
    action laws hold."""
    while True:
        graph = _random_graph(rng, max_vertices, max_edges)
        nv = len(graph.vertices)
        hub = rng.choice(graph.vertices)
        order = rng.randint(1, max(1, max_group - (nv - 1)))
        gpd = group_bundle(graph.vertices,
                           {hub: cyclic_group_table(order, prefix="c")})
        perms = _source_preserving_permutations(graph, hub)
        perm = dict(rng.choice(perms)) if perms else {}

        edge_action, restriction = {}, {}
        for v in graph.vertices:
            u = gpd.unit_at(v)
            for e in graph.received_by(v):
                edge_action[(u, e.name)] = e.name
                restriction[(u, e.name)] = gpd.unit_at(e.src)
        ok = True
        if order > 1:
            gen = "c1"
            for e in graph.received_by(hub):
                edge_action[(gen, e.name)] = perm.get(e.name, e.name)
                restriction[(gen, e.name)] = rng.choice(
                    sorted(gpd.isotropy_at(e.src)))
            for k in range(2, order):
                g, prev = "c%d" % k, "c%d" % (k - 1)
                for e in graph.received_by(hub):
                    mid = edge_action[(prev, e.name)]
                    edge_action[(g, e.name)] = edge_action[(gen, mid)]
                    restriction[(g, e.name)] = gpd.mul(
                        restriction[(gen, mid)], restriction[(prev, e.name)])
            last = "c%d" % (order - 1)
            for e in graph.received_by(hub):
                mid = edge_action[(last, e.name)]
                if (edge_action[(gen, mid)] != e.name
                        or gpd.mul(restriction[(gen, mid)],
                                   restriction[(last, e.name)])
                        != gpd.unit_at(e.src)):
                    ok = False
                    break
        if not ok:
            continue
        action = SelfSimilarAction(graph, gpd, edge_action, restriction)
        if action.validate():
            continue
        return action


def sampled(rng, name):
    return systems.System(name, random_action(rng))


# -- corruption -------------------------------------------------------------

CORRUPTIONS = ("product", "inverse", "restriction")


def corrupt(system, kind, rng):
    """A copy of an explicit system with one table entry broken.

    Returns (system, expected): every string in expected must appear in
    the validator's problem list; for "inverse" the list is exactly
    expected.  The broken entry keeps its endpoints, so the structural
    checks pass and only the algebraic laws can catch it.
    """
    data = systems.system_to_json(system)   # fresh lists and dicts
    gpd = system.groupoid
    els = gpd.elements()

    def homset(src, rng_):
        return [x for x in els if gpd.src(x) == src and gpd.rng(x) == rng_]

    def order_at_least_3(g):
        return not gpd.is_unit(g) and gpd.inv(g) != g

    data["name"] = "%s_bad_%s" % (system.name, kind)
    if kind == "inverse":
        cands = [(g, h) for g in els if not gpd.is_unit(g)
                 for h in homset(gpd.rng(g), gpd.src(g)) if h != gpd.inv(g)]
        g, h = rng.choice(cands)
        data["groupoid"]["inv"][g] = h
        expected = ["groupoid: inverse of %r is wrong" % (g,)]
    elif kind == "product":
        cands = []
        for a in els:
            for b in els:
                if (gpd.is_unit(a) or gpd.is_unit(b)
                        or gpd.src(a) != gpd.rng(b) or gpd.inv(b) == a):
                    continue
                ab = gpd.mul(a, b)
                for c in homset(gpd.src(b), gpd.rng(a)):
                    if c not in (ab, a):
                        cands.append((a, b, c))
        a, b, c = rng.choice(cands)
        for row in data["groupoid"]["mul"]:
            if row[0] == a and row[1] == b:
                row[2] = c
        expected = ["groupoid: associativity fails on (%r, %r, %r)"
                    % (a, b, gpd.inv(b))]
    elif kind == "restriction":
        action = system.action
        cands = []
        for g in els:
            if not order_at_least_3(g):
                continue
            for e in system.graph.received_by(gpd.src(g)):
                r = action.restriction[(g, e.name)]
                for r2 in homset(gpd.src(r), gpd.rng(r)):
                    if r2 != r:
                        cands.append((g, e.name, r2))
        g, e, r2 = rng.choice(cands)
        for row in data["action"]["restriction"]:
            if row[0] == g and row[1] == e:
                row[2] = r2
        expected = ["(hg)|_e law fails at (%r, %r, %r)" % (gpd.inv(g), g, e)]
    else:
        raise ValueError("unknown corruption %r" % (kind,))
    return systems.system_from_json(data), expected
