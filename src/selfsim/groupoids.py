"""Finite groupoids over a vertex set, plus a partial behavioral backend.

Two backends share one surface, the accessors of the Groupoid base class:

* ExplicitGroupoid — full element set with multiplication and inverse
  tables.  mul(a, b) composes a after b and is defined iff src(a) = rng(b).
* BehavioralModel — finitely many named states with src/rng and a unit
  marking, no products.  It stands for a possibly infinite groupoid of
  which only the action-relevant behavior is known.  Three capability
  flags record what the model is asserted to reflect:

  - unit_reflecting: a state marked non-unit represents only non-unit
    elements (so failure witnesses hinging on non-unitness are sound);
  - element_complete: every element of the real groupoid behaves like
    one of the states (universally quantified "holds" answers are global);
  - orbit_complete: the states witness the full orbit relation on vertices.

Operations that genuinely need products raise RequiresExplicitError on a
behavioral model.
"""

import collections
from dataclasses import dataclass


class GroupoidError(ValueError):
    pass


class RequiresExplicitError(GroupoidError):
    """The operation needs multiplication, which a behavioral model lacks."""


@dataclass(frozen=True)
class GroupoidElement:
    name: str
    src: str
    rng: str


class Groupoid:
    """The accessors both backends share.  A backend keeps its members in
    self._elements (name -> GroupoidElement), fixed at construction, and
    calls them `member` ("element" or "state") in error messages."""

    member = "element"

    def __init__(self, vertices, members):
        """members: GroupoidElement records or rows that start (name, src,
        rng).  A name given twice is refused, where the dict would keep
        its last record silently."""
        self.vertices = tuple(vertices)
        members = [m if isinstance(m, GroupoidElement)
                   else GroupoidElement(*m[:3]) for m in members]
        self._elements = {m.name: m for m in members}
        if len(self._elements) < len(members):
            counts = collections.Counter(m.name for m in members)
            raise GroupoidError("'%ss' lists the name %r twice" % (
                self.member, next(g for (g, n) in counts.items() if n > 1)))
        self._sorted = tuple(sorted(self._elements))

    def elements(self):
        """The member names in sorted order, one tuple per groupoid."""
        return self._sorted

    def has_element(self, g):
        return g in self._elements

    def _get(self, g):
        try:
            return self._elements[g]
        except KeyError:
            raise GroupoidError("unknown %s %r" % (self.member, g))

    def src(self, g):
        return self._get(g).src

    def rng(self, g):
        return self._get(g).rng

    def nonunits(self):
        return tuple(g for g in self.elements() if not self.is_unit(g))

    def isotropy_at(self, v):
        return tuple(g for g in self.elements()
                     if self.src(g) == v and self.rng(g) == v)

    def orbit_pairs(self):
        """All (src, rng) pairs realized by elements."""
        return sorted({(self.src(g), self.rng(g)) for g in self.elements()})


class ExplicitGroupoid(Groupoid):
    kind = "explicit"
    # the full groupoid is known, so every capability flag holds
    unit_reflecting = element_complete = orbit_complete = True

    def __init__(self, vertices, elements, units, mul_table, inv_table):
        super().__init__(vertices, elements)
        self.units = dict(units)          # vertex -> unit element name
        self._mul = dict(mul_table)       # (a, b) -> ab, with src(a) = rng(b)
        self._inv = dict(inv_table)       # a -> a^{-1}
        self._generators = None           # generators(), once computed

    def unit_at(self, v):
        try:
            return self.units[v]
        except KeyError:
            raise GroupoidError("no unit at vertex %r" % (v,))

    def is_unit(self, g):
        el = self._get(g)
        return self.units.get(el.src) == g

    def mul(self, a, b):
        """a composed after b; defined iff src(a) = rng(b)."""
        if self.src(a) != self.rng(b):
            raise GroupoidError("elements %r and %r do not compose" % (a, b))
        try:
            return self._mul[(a, b)]
        except KeyError:
            raise GroupoidError("product (%r, %r) missing from table" % (a, b))

    def inv(self, g):
        self._get(g)
        try:
            return self._inv[g]
        except KeyError:
            raise GroupoidError("inverse of %r missing from table" % (g,))

    def generators(self):
        """S, a generating set under products: the units in vertex order,
        then each element, in elements() order, that is outside the closure
        of the generators before it.  The closure grows by right
        multiplication by the generators, O(|G|·|S|) products in all.  In a
        finite groupoid every inverse is a positive power, so S also
        generates G as a groupoid.

        Built on first use and kept.  It reads the product table directly,
        so call it only once that table is defined exactly on composable
        pairs (validate's table stage), and do not change the tables after.
        """
        if self._generators is None:
            mul, els = self._mul, self._elements
            gens, closed = [], set()
            gens_by_rng = collections.defaultdict(list)
            closed_by_src = collections.defaultdict(list)

            def adjoin(s):
                # The old closure was closed under right multiplication by
                # the old generators; x·s for x in it and s itself are what
                # s adds, and every new element is then multiplied on the
                # right by every generator once.
                gens.append(s)
                gens_by_rng[els[s].rng].append(s)
                frontier = [s] + [mul[(x, s)] for x in closed_by_src[els[s].rng]]
                while frontier:
                    x = frontier.pop()
                    if x in closed:
                        continue
                    closed.add(x)
                    closed_by_src[els[x].src].append(x)
                    frontier.extend(mul[(x, t)] for t in gens_by_rng[els[x].src])

            for v in self.vertices:
                adjoin(self.units[v])
            for g in self.elements():
                if g not in closed:
                    adjoin(g)
            self._generators = tuple(gens)
        return self._generators

    def by_range(self, keep=None):
        """range -> the elements with that range (those in keep, if
        given), in elements() order; [] at a range no element has.  It
        reads only the element records, so it also serves tables that were
        never validated."""
        out = collections.defaultdict(list)
        for g in self.elements():
            if keep is None or g in keep:
                out[self._elements[g].rng].append(g)
        return out

    def validate(self):
        """Problems with the tables, as strings; empty when they define a
        groupoid.  Stages, stopping after the first that finds any: the
        endpoints of elements and units; the product table is defined
        exactly on composable pairs, with the right endpoints; then the
        unit and inverse laws, inverses given for elements only, and
        associativity.

        Associativity goes through law_failures.  Lemma 1: the middles a
        with (xa)y = x(ay) for every composable x, y are closed under
        products.  For if a and b are such middles, then
            (x(ab))y = ((xa)b)y = (xa)(by) = x(a(by)) = x((ab)y).
        A unit middle u passes once the unit laws hold, since
        (xu)y = xy = x(uy), and so does a unit outer factor, since
        (ua)b = ab = u(ab), so the units pass when the unit and inverse
        stage finds nothing.
        """
        problems = []
        vset = set(self.vertices)
        for el in self._elements.values():
            if el.src not in vset:
                problems.append("element %r has unknown src %r" % (el.name, el.src))
            if el.rng not in vset:
                problems.append("element %r has unknown rng %r" % (el.name, el.rng))
        for v in self.vertices:
            u = self.units.get(v)
            if u is None:
                problems.append("no unit at vertex %r" % v)
                continue
            if u not in self._elements:
                problems.append("unit %r at %r is not an element" % (u, v))
                continue
            if self.src(u) != v or self.rng(u) != v:
                problems.append("unit %r at %r has src/rng elsewhere" % (u, v))
        if problems:
            return problems
        problems = self._table_problems()
        if problems:
            return problems
        els, mul, units = self._elements, self._mul, self.units
        for g in self.elements():
            eg = els[g]
            u_r, u_s = units[eg.rng], units[eg.src]
            if mul[(u_r, g)] != g or mul[(g, u_s)] != g:
                problems.append("units do not act as identities on %r" % g)
            gi = self._inv.get(g)
            egi = els.get(gi)
            if egi is None:
                problems.append("missing or unknown inverse for %r" % g)
            elif (egi.src != eg.rng or egi.rng != eg.src
                  or mul[(gi, g)] != u_s or mul[(g, gi)] != u_r):
                problems.append("inverse of %r is wrong" % g)
        problems += ["inverse given for unknown element %r" % g
                     for g in sorted(self._inv.keys() - self._elements.keys())]
        return problems + self.law_failures(self._associativity_failures,
                                            units_pass=not problems)

    def composable_pairs(self, middles, outer=None):
        """(a, b, ab) for every composable a and b with b in middles (and
        a in outer, if given), in elements() order of a and then of b.  It
        reads the product table directly, so the table must be defined on
        composable pairs."""
        els, mul = self._elements, self._mul
        mid_by_rng = self.by_range(middles)
        for a in self.elements():
            if outer is None or a in outer:
                for b in mid_by_rng[els[a].src]:
                    yield a, b, mul[(a, b)]

    def law_failures(self, scan, units_pass):
        """The failures of a law checked by middles, by Light's
        associativity test (Clifford and Preston, The Algebraic Theory of
        Semigroups I, §1.2).  scan(middles, outer) lists, in a fixed order,
        the failures of the law at every composable triple whose middle is
        in middles and whose outer factors are in outer (all of them when
        outer is None).  The law must be one whose passing middles are
        closed under products, as each caller's docstring proves.

        The closure of generators() under products is every element, so
        when every generator passes as a middle the law holds everywhere.
        When units_pass is true, the caller has proved that every triple
        with a unit as its middle or as an outer factor passes, so the
        scan takes only non-units in those places.  If it lists anything,
        the answer is the scan over every element, so the list is that of
        the full scan.
        """
        middles, outer = set(self.generators()), None
        if units_pass:
            units = set(self.units.values())
            middles -= units
            outer = self._elements.keys() - units
        if not scan(middles, outer):
            return []
        return scan(set(self.elements()), None)

    def _table_problems(self):
        """The table stage's problems, sorted by pair as a scan of every
        pair of elements would list them: one walk over the composable
        pairs finds each missing, unknown or misplaced product and counts
        the products present; the rest of the table, where an entry should
        not exist (its pair does not compose, or names a non-element), is
        read only when it holds more entries than that."""
        els, mul, found, present = self._elements, self._mul, [], 0
        by_rng = self.by_range()
        for a in self.elements():
            ea = els[a]
            for b in by_rng[ea.src]:
                ab = mul.get((a, b))
                eab = els.get(ab)
                if eab is not None and eab.src == els[b].src and eab.rng == ea.rng:
                    present += 1
                elif (a, b) not in mul:
                    found.append((a, b, "missing product (%r, %r)" % (a, b)))
                else:
                    present += 1
                    found.append((a, b, "product (%r, %r) = %r unknown" % (a, b, ab)
                                  if eab is None else
                                  "product (%r, %r) has wrong endpoints" % (a, b)))
        if len(mul) > present:
            found += [(a, b, "product (%r, %r) should not exist" % (a, b))
                      for (a, b) in mul if a not in els or b not in els
                      or els[a].src != els[b].rng]
        return [problem for (_, _, problem) in sorted(found)]

    def _associativity_failures(self, middles, outer=None):
        """One problem per composable (a, b, c) with b in middles, a and c
        in outer (if given) and (ab)c != a(bc), in sorted order.  Walks
        composable pairs only."""
        els, mul, out = self._elements, self._mul, []
        by_rng = self.by_range(outer)
        for (a, b, ab) in self.composable_pairs(middles, outer):
            for c in by_rng[els[b].src]:
                if mul[(ab, c)] != mul[(a, mul[(b, c)])]:
                    out.append("associativity fails on (%r, %r, %r)" % (a, b, c))
        return out


class BehavioralModel(Groupoid):
    kind = "behavioral"
    member = "state"

    def __init__(self, vertices, states, flags=None):
        """states: (name, src, rng, is_unit) rows; flags: a dict of the
        three capability flags, each False when absent.  unit_at(v) is the
        least unit state at v."""
        states = list(states)
        super().__init__(vertices, states)
        self._unit_names = {st[0] for st in states if st[3]}
        # the last write wins, so the least unit name at each vertex stays
        self._unit_at = {self._elements[name].src: name
                         for name in sorted(self._unit_names, reverse=True)}
        flags = flags or {}
        self.unit_reflecting = bool(flags.get("unit_reflecting", False))
        self.element_complete = bool(flags.get("element_complete", False))
        self.orbit_complete = bool(flags.get("orbit_complete", False))

    @classmethod
    def from_states(cls, vertices, states, flags=None):
        return cls(vertices, states, flags)

    def is_unit(self, g):
        self._get(g)
        return g in self._unit_names

    def unit_at(self, v):
        try:
            return self._unit_at[v]
        except KeyError:
            raise GroupoidError("no unit state at vertex %r" % (v,))

    def mul(self, a, b):
        raise RequiresExplicitError(
            "products are not available on a behavioral model")

    def inv(self, g):
        raise RequiresExplicitError(
            "inverses are not available on a behavioral model")

    def validate(self):
        problems = []
        vset = set(self.vertices)
        for st in self._elements.values():
            if st.src not in vset or st.rng not in vset:
                problems.append("state %r has unknown src/rng" % (st.name,))
        for u in self._unit_names:
            if self._elements[u].src != self._elements[u].rng:
                problems.append("unit state %r has src != rng" % (u,))
        units_here = collections.Counter(self._elements[u].src
                                         for u in self._unit_names)
        for v in self.vertices:
            if not units_here[v]:
                problems.append("no unit state at vertex %r" % (v,))
            elif units_here[v] > 1:
                problems.append("several unit states at vertex %r" % (v,))
        return problems


def _inverses(mul, unit):
    """a -> the first b, in the table's order, with ab = unit."""
    inv = {}
    for (a, b) in [pair for (pair, ab) in mul.items() if ab == unit]:
        inv.setdefault(a, b)
    return inv


def group_bundle(vertices, fibers):
    """Explicit groupoid with isotropy only.  fibers maps a vertex to a
    dict {"elements": [...], "unit": name, "mul": {(a, b): ab}} describing
    a finite group.  Vertices missing from fibers get the trivial group
    with unit named "1@<v>".  The bundle is judged as the explicit
    groupoid it abbreviates: an element name, or a product key, listed in
    two fibers is refused, and the elements of a fiber at a name that is
    not a vertex are kept, for validate to report their endpoints.  Each
    table is merged as given, so ExplicitGroupoid.validate judges it as
    it judges an explicit one.  The inverse of a is the first b, in its
    fiber's table order, with ab the unit.
    """
    elements, units, mul, inv, listed = [], {}, {}, {}, []
    for (v, fib) in {**dict.fromkeys(vertices), **fibers}.items():
        if fib is None:
            name = "1@%s" % v
            fib = {"elements": [name], "unit": name, "mul": {(name, name): name}}
        elements += [(a, v, v) for a in fib["elements"]]
        units[v] = fib["unit"]
        mul.update(fib["mul"])
        listed.append(fib["mul"])
        inv.update(_inverses(fib["mul"], fib["unit"]))
    gpd = ExplicitGroupoid(vertices, elements, units, mul, inv)
    if len(mul) < sum(map(len, listed)):
        counts = collections.Counter(key for table in listed for key in table)
        raise GroupoidError("two fibers' 'mul' list the key %r" % (
            next(key for (key, n) in counts.items() if n > 1),))
    return gpd


def cyclic_group_table(n, prefix=""):
    """Names "<prefix>0".."<prefix>n-1"; returns (elements, unit, mul)."""
    names = ["%s%d" % (prefix, k) for k in range(n)]
    mul = {(names[a], names[b]): names[(a + b) % n]
           for a in range(n) for b in range(n)}
    return {"elements": names, "unit": names[0], "mul": mul}


def from_group_action(group_elements, group_mul, group_unit, vertices, vertex_action):
    """Transformation groupoid of a finite group acting on the vertex set.

    Elements are pairs gamma@v with src v and rng gamma·v, composing by
    (gamma, delta·w)(delta, w) = (gamma·delta, w).  vertex_action maps
    (gamma, v) to gamma·v.  The laws are left to ExplicitGroupoid.validate.
    """
    def nm(gamma, v):
        return "%s@%s" % (gamma, v)

    group_inv = _inverses(group_mul, group_unit)
    elements, units, mul, inv = [], {}, {}, {}
    for gamma in group_elements:
        for v in vertices:
            elements.append((nm(gamma, v), v, vertex_action[(gamma, v)]))
            if gamma in group_inv:
                inv[nm(gamma, v)] = nm(group_inv[gamma], vertex_action[(gamma, v)])
    for v in vertices:
        units[v] = nm(group_unit, v)
    for gamma in group_elements:
        for delta in group_elements:
            for w in vertices:
                a = nm(gamma, vertex_action[(delta, w)])
                b = nm(delta, w)
                mul[(a, b)] = nm(group_mul[(gamma, delta)], w)
    return ExplicitGroupoid(vertices, elements, units, mul, inv)
