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
from typing import NamedTuple

from .graphs import first_repeat


# the row of a first factor with no entry in its table; never written
NO_ROW = {}


def _rows(table):
    """A table as rows, first -> {second: value}: rows (a dict of dicts)
    as given, or a dict (first, second) -> value or (first, second, value)
    triples grouped by first, in order, the last value of a key kept."""
    if isinstance(table, dict):
        if not table or isinstance(next(iter(table.values())), dict):
            return table
        table = [(a, b, v) for ((a, b), v) in table.items()]
    rows = {}
    for (a, b, v) in table:
        row = rows.get(a)
        if row is None:
            rows[a] = {b: v}
        else:
            row[b] = v
    return rows


class GroupoidError(ValueError):
    pass


class RequiresExplicitError(GroupoidError):
    """The operation needs multiplication, which a behavioral model lacks."""


class GroupoidElement(NamedTuple):
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
        its last record silently.  The vertices are kept sorted, as a
        graph keeps them."""
        self.vertices = tuple(sorted(vertices))
        members = [m if isinstance(m, GroupoidElement)
                   else GroupoidElement(*m[:3]) for m in members]
        self._elements = {m.name: m for m in members}
        if len(self._elements) < len(members):
            raise GroupoidError("'%ss' lists the name %r twice" % (
                self.member, first_repeat(m.name for m in members)))
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

    def isotropy_at(self, v):
        return tuple(g for g in self.elements()
                     if self.src(g) == v and self.rng(g) == v)

    def orbit_pairs(self):
        """The set of (src, rng) pairs realized by elements."""
        return {(m.src, m.rng) for m in self._elements.values()}


class ExplicitGroupoid(Groupoid):
    """A groupoid given by its element records and tables.  The product
    table is stored once, as rows a -> {b: ab}, built here from the rows,
    dict or triples given, and mul, validate and every scan read them."""

    kind = "explicit"
    # the full groupoid is known, so every capability flag holds
    unit_reflecting = element_complete = orbit_complete = True

    def __init__(self, vertices, elements, units, mul_table, inv_table):
        super().__init__(vertices, elements)
        self.units = dict(units)            # vertex -> unit element name
        self._mul_rows = _rows(mul_table)   # a -> {b: ab}, src(a) = rng(b)
        self._inv = dict(inv_table)         # a -> a^{-1}
        self._generators = None             # generators(), once computed
        self._by_range = None               # by_range(), once computed

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
            return self._mul_rows[a][b]
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

        Built on first use and kept.  It reads the product rows directly,
        so call it only once the table is defined exactly on composable
        pairs (validate's table stage).
        """
        if self._generators is None:
            rows, els = self._mul_rows, self._elements
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
                frontier = [s] + [rows[x][s] for x in closed_by_src[els[s].rng]]
                while frontier:
                    x = frontier.pop()
                    if x in closed:
                        continue
                    closed.add(x)
                    closed_by_src[els[x].src].append(x)
                    row = rows[x]
                    frontier.extend([row[t] for t in gens_by_rng[els[x].src]])

            for v in self.vertices:
                adjoin(self.units[v])
            for g in self.elements():
                if g not in closed:
                    adjoin(g)
            self._generators = tuple(gens)
        return self._generators

    def by_range(self, keep=None):
        """range -> its elements (those in keep, if given) in elements()
        order, at every vertex and range.  Built on the first call and kept,
        not to be changed: the commands that never validate never read it."""
        if self._by_range is None:
            self._by_range = {v: [] for v in self.vertices}
            for g in self._sorted:
                self._by_range.setdefault(self._elements[g].rng, []).append(g)
        if keep is None:
            return self._by_range
        return {r: [g for g in gs if g in keep]
                for (r, gs) in self._by_range.items()}

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

        Each stage after the first reads the element records and the rows
        directly, without the checked accessors, since the stages before
        it proved what it reads.
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
        els, rows, units = self._elements, self._mul_rows, self.units
        for g in self.elements():
            eg, row = els[g], rows[g]
            u_r, u_s = units[eg.rng], units[eg.src]
            if rows[u_r][g] != g or row[u_s] != g:
                problems.append("units do not act as identities on %r" % g)
            gi = self._inv.get(g)
            egi = els.get(gi)
            if egi is None:
                problems.append("missing or unknown inverse for %r" % g)
            elif (egi.src != eg.rng or egi.rng != eg.src
                  or rows[gi][g] != u_s or row[gi] != u_r):
                problems.append("inverse of %r is wrong" % g)
        problems += ["inverse given for unknown element %r" % g
                     for g in sorted(self._inv.keys() - self._elements.keys())]
        return problems + self.law_failures(self._associativity_failures,
                                            units_pass=not problems)

    def composable_pairs(self, middles, outer=None):
        """(a, b, ab) for every composable a and b with b in middles (and
        a in outer, if given), in elements() order of a and then of b.  It
        reads a's product row once, so the table must be defined on
        composable pairs."""
        els, rows = self._elements, self._mul_rows
        mid_by_rng = self.by_range(middles)
        for a in self.elements():
            if outer is None or a in outer:
                row = rows[a]
                for b in mid_by_rng[els[a].src]:
                    yield a, b, row[b]

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
        read only when it holds more entries than that.  The walk reads
        a's product row, which may be missing or partial."""
        els, rows, found, present = self._elements, self._mul_rows, [], 0
        by_rng = self.by_range()
        for a in self.elements():
            ea, row = els[a], rows.get(a, NO_ROW)
            for b in by_rng[ea.src]:
                ab = row.get(b)
                eab = els.get(ab)
                if eab is not None and eab.src == els[b].src and eab.rng == ea.rng:
                    present += 1
                elif b not in row:
                    found.append((a, b, "missing product (%r, %r)" % (a, b)))
                else:
                    present += 1
                    found.append((a, b, "product (%r, %r) = %r unknown" % (a, b, ab)
                                  if eab is None else
                                  "product (%r, %r) has wrong endpoints" % (a, b)))
        if sum(map(len, rows.values())) > present:
            found += [(a, b, "product (%r, %r) should not exist" % (a, b))
                      for (a, row) in rows.items() for b in row
                      if a not in els or b not in els or els[a].src != els[b].rng]
        return [problem for (_, _, problem) in sorted(found)]

    def _associativity_failures(self, middles, outer=None):
        """One problem per composable (a, b, c) with b in middles, a and c
        in outer (if given) and (ab)c != a(bc), in sorted order.  Walks
        composable pairs only: each middle's products bc are read once,
        then the rows of a and ab once per pair (a, b)."""
        els, rows, out = self._elements, self._mul_rows, []
        by_rng = self.by_range(outer)
        tails = {}
        for b in middles:
            row = rows[b]
            tails[b] = [(c, row[c]) for c in by_rng[els[b].src]]
        for (a, b, ab) in self.composable_pairs(middles, outer):
            row_a, row_ab = rows[a], rows[ab]
            for (c, bc) in tails[b]:
                if row_ab[c] != row_a[bc]:
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


def _inverses(rows, unit):
    """a -> the first b, in a's row, with ab = unit."""
    return {a: next(b for (b, ab) in row.items() if ab == unit)
            for (a, row) in rows.items() if unit in row.values()}


def group_bundle(vertices, fibers):
    """Explicit groupoid with isotropy only.  fibers maps a vertex to a
    dict {"elements": [...], "unit": name, "mul": table, in any form
    ExplicitGroupoid takes} describing a finite group.  Vertices missing
    from fibers get the trivial group with unit named "1@<v>".  The bundle
    is judged as the explicit groupoid it abbreviates: an element name, or
    a product key, listed in two fibers is refused, and the elements of a
    fiber at a name that is not a vertex are kept, for validate to report
    their endpoints.  Each table is merged as given, so validate judges it
    as it judges an explicit one.  The inverse of a is the first b, in a's
    row of its fiber's table, with ab the unit.
    """
    elements, units, rows, inv, listed = [], {}, {}, {}, []
    for (v, fib) in {**dict.fromkeys(vertices), **fibers}.items():
        if fib is None:
            name = "1@%s" % v
            fib = {"elements": [name], "unit": name, "mul": {name: {name: name}}}
        elements += [(a, v, v) for a in fib["elements"]]
        units[v] = fib["unit"]
        table = _rows(fib["mul"])
        for (a, row) in table.items():
            rows[a] = {**rows[a], **row} if a in rows else row
        listed.append(table)
        inv.update(_inverses(table, fib["unit"]))
    gpd = ExplicitGroupoid(vertices, elements, units, rows, inv)
    if (sum(map(len, rows.values()))
            < sum(len(row) for table in listed for row in table.values())):
        raise GroupoidError("two fibers' 'mul' list the key %r" % (
            first_repeat((a, b) for table in listed
                         for (a, row) in table.items() for b in row),))
    return gpd


def cyclic_group_table(n, prefix=""):
    """Names "<prefix>0".."<prefix>n-1"; returns a fiber, its table rows."""
    names = ["%s%d" % (prefix, k) for k in range(n)]
    mul = {names[a]: dict(zip(names, names[a:] + names[:a])) for a in range(n)}
    return {"elements": names, "unit": names[0], "mul": mul}


def from_group_action(group_elements, group_mul, group_unit, vertices, vertex_action):
    """Transformation groupoid of a finite group acting on the vertex set.

    Elements are pairs gamma@v with src v and rng gamma·v, composing by
    (gamma, delta·w)(delta, w) = (gamma·delta, w).  vertex_action maps
    (gamma, v) to gamma·v.  The laws are left to ExplicitGroupoid.validate.
    """
    def nm(gamma, v):
        return "%s@%s" % (gamma, v)

    group_rows = _rows(group_mul)
    group_inv = _inverses(group_rows, group_unit)
    elements, units, mul, inv = [], {}, [], {}
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
                mul.append((nm(gamma, vertex_action[(delta, w)]), nm(delta, w),
                            nm(group_rows[gamma][delta], w)))
    return ExplicitGroupoid(vertices, elements, units, mul, inv)
