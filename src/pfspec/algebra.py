"""Finite commutative monoids and semirings, and their localic presentations.

An ordered semiring is entered as point-level data: a poset of points with
monotone addition and multiplication tables and distinguished unit points.
Preimage along the point maps gives the frame maps of the corresponding
localic semiring; since the up-set functor is faithful on finite posets, the
comonoid diagrams commute at the frame level exactly when the semiring laws
hold pointwise.  Building a ``FiniteCommMonoid`` or ``FiniteCommSemiring``
is the one place those laws are checked (both monoid laws, annihilation and
distributivity); ``LocalicSemiringData`` takes the built algebra and checks
only what the locale adds, that the tables are monotone.  Each law is
decided on generators or covers, never on all triples: associativity by
Light's test on a generating set, distributivity on pairs of generators of
the two monoids, and monotonicity on the covering pairs of the points.  A
scan over all elements, pairs and triples runs only when a law fails, to
name the first failure, so the witnesses are those of the full scan.  The
opens are never built here: the opens oracle in ``spectrum`` verifies the
counit laws as SupMap equalities on the opens whenever they fit the caps.
The holoid classes that every stage of the spectrum reads are
``data.classes``, checked once, where they are built.
"""

from functools import cached_property
from itertools import product as iproduct
from operator import itemgetter

from .caps import DEFAULT_CAPS
from .errors import CapExceeded, LawViolation, NotDistributive, NotMonotone
from .locale import alexandrov
from .order import FinitePoset, bits, distributes, generators


class FiniteCommMonoid:
    def __init__(self, names, unit, mul):
        self.names = tuple(names)
        self.n = len(self.names)
        self.unit = unit
        self.mul_t = tuple(tuple(row) for row in mul)
        # with the unit, they generate the monoid; read by the semiring laws
        self.generators = _check_comm_monoid(self.names, self.unit, self.mul_t, "mul")

    def mul(self, a, b):
        return self.mul_t[a][b]

    def divisibility(self):
        """div[g] = bitmask of f with g | f, i.e. f = g*k for some k."""
        out = []
        for g in range(self.n):
            mask = 0
            for k in range(self.n):
                mask |= 1 << self.mul_t[g][k]
            out.append(mask)
        return tuple(out)

    def __repr__(self):
        return f"FiniteCommMonoid({','.join(self.names)})"


def _check_comm_monoid(names, unit, table, law):
    """Check that the tuple rows ``table`` are a commutative monoid with
    unit ``unit``; returns ``generators(table, unit)``.

    Associativity is decided by Light's test: the a with (xa)y = x(ay) for
    all x and y are closed under the product, for if a and b are such,
    (x.ab)y = (xa.b)y = xa.by = x(a.by) = x(ab.y).  The unit is one of them,
    so it suffices that the generators are.  For each, two n x n tables
    are compared whole: every row x read at the entries of row a, which
    gives x(ay), and the rows picked by the entries of row a, which gives
    the row of ax = xa.  When a law fails, the scan over all elements,
    pairs and triples names the first failure."""
    n = len(names)
    if len(table) != n or any(len(r) != n for r in table):
        raise LawViolation(f"{law} totality", "table shape")
    if table[unit] == tuple(range(n)) and tuple(zip(*table)) == table:
        gens = generators(table, unit)
        for a in gens:
            at_a = itemgetter(*table[a])
            if tuple(map(at_a, table)) != at_a(table):
                break
        else:
            return gens
    for a in range(n):
        if table[unit][a] != a:
            raise LawViolation(f"{law} unit", names[a])
        for b in range(a, n):
            if table[a][b] != table[b][a]:
                raise LawViolation(f"{law} commutativity", (names[a], names[b]))
    for a, b, c in iproduct(range(n), repeat=3):
        if table[table[a][b]][c] != table[a][table[b][c]]:
            raise LawViolation(f"{law} associativity", (names[a], names[b], names[c]))


class FiniteCommSemiring:
    def __init__(self, names, zero, one, add, mul):
        self.names = tuple(names)
        self.n = len(self.names)
        self.zero = zero
        self.one = one
        self.add_t = tuple(tuple(row) for row in add)
        add_gens = _check_comm_monoid(self.names, zero, self.add_t, "add")
        self.mul_monoid = FiniteCommMonoid(self.names, one, mul)
        self.mul_t = self.mul_monoid.mul_t
        # with both monoids and annihilation, generator pairs decide
        # distributivity (see ``distributes``)
        if all(row[zero] == zero for row in self.mul_t) and distributes(
            self.mul_t, self.mul_monoid.generators, self.add_t, add_gens
        ):
            return
        # a law fails: name the first failure
        for a in range(self.n):
            if self.mul_t[a][zero] != zero:
                raise LawViolation("annihilation", self.names[a])
            for b, c in iproduct(range(self.n), repeat=2):
                lhs = self.mul_t[a][self.add_t[b][c]]
                rhs = self.add_t[self.mul_t[a][b]][self.mul_t[a][c]]
                if lhs != rhs:
                    raise LawViolation(
                        "distributivity", (self.names[a], self.names[b], self.names[c])
                    )

    def add(self, a, b):
        return self.add_t[a][b]

    def mul(self, a, b):
        return self.mul_t[a][b]

    def __repr__(self):
        return f"FiniteCommSemiring({','.join(self.names)})"


def build_discrete_semiring(names, zero, one, add, mul):
    return FiniteCommSemiring(names, zero, one, add, mul)


def lattice_semiring(lat):
    """A bounded distributive lattice as a semiring: + is join, * is meet."""
    return FiniteCommSemiring(lat.names, lat.bottom, lat.top, lat.join_t, lat.meet_t)


class LocalicSemiringData:
    """A localic semiring (or, over a monoid, a localic monoid) on a finite
    locale, given by point-level data.

    ``algebra`` is a ``FiniteCommSemiring`` or ``FiniteCommMonoid`` on the
    locale's points, whose laws were checked when it was built.  Here only
    what depends on the locale is checked: the point names are the algebra's,
    and ``mul``/``add`` are monotone tables on the points, with unit points
    ``one_point`` and ``zero_point``.  The induced frame maps are the
    preimages; neither the opens nor those of the self-coproduct are
    materialized, all downstream computations work with the point tables
    directly.

    The pointwise laws imply the frame-level ones: the preimage of an up-set
    along a monotone map is an up-set, so each table gives a frame map, and
    preimage is faithful on finite posets, so a comonoid diagram commutes on
    opens exactly when it commutes on points.  For the counit,
    U -> {x : x.1 in U} is the identity on opens exactly when x.1 = x for
    every point x.
    """

    def __init__(self, locale, algebra, name=""):
        pts = locale.points
        if pts.names != algebra.names:
            raise LawViolation("order carrier", "point names differ from the algebra's names")
        self.locale = locale
        self.name = name
        if isinstance(algebra, FiniteCommSemiring):
            self.mul_monoid = algebra.mul_monoid
            self.add_t, self.zero_point = algebra.add_t, algebra.zero
        else:
            self.mul_monoid = algebra
            self.add_t = self.zero_point = None
        self.mul_t, self.one_point = self.mul_monoid.mul_t, self.mul_monoid.unit
        covers = pts.covers()
        _check_pointwise_monotone(pts, self.mul_t, "mul", covers)
        if self.add_t is not None:
            _check_pointwise_monotone(pts, self.add_t, "add", covers)

    def mul(self, a, b):
        return self.mul_t[a][b]

    def add(self, a, b):
        return self.add_t[a][b]

    @property
    def has_addition(self):
        return self.add_t is not None

    @cached_property
    def classes(self):
        """The holoid classes of the points, built and checked on first use."""
        return HoloidClasses(self)

    def is_discrete(self):
        pts = self.locale.points
        return all(pts.up[i] == 1 << i for i in range(pts.n))

    def __repr__(self):
        kind = "semiring" if self.has_addition else "monoid"
        return f"LocalicSemiringData({kind}, {self.locale.points.n} points)"


def _check_pointwise_monotone(pts, table, law, covers):
    """Check that each row of ``table`` is monotone on the points, on the
    covering pairs ``covers`` of ``pts``: a finite order is generated by its
    covers, so a row monotone on every b < b' with nothing between is
    monotone on every b <= b'.  When one is not, the scan over all pairs
    names the first failure."""
    up = pts.up
    if all(up[row[b]] >> row[c] & 1 for row in table for b, c in covers):
        return
    for a in range(pts.n):
        for b in range(pts.n):
            for b2 in bits(pts.up[b]):
                if not pts.leq(table[a][b], table[a][b2]):
                    raise NotMonotone(
                        (pts.names[a], pts.names[b], pts.names[b2]), law
                    )


def _absorb(data, mask):
    """The least monoid ideal over the down-set ``mask``: its down-closure
    together with v.r for each maximal v and every point r."""
    pts = data.locale.points
    absorbed = mask
    for v in pts.maximal(mask):
        trow = data.mul_t[v]
        for w in range(pts.n):
            absorbed |= 1 << trow[w]
    return pts.down_closure(absorbed)


class HoloidClasses:
    """The holoid classes of the points: ``holoid_quotient`` of the
    multiplicative monoid with the point order.

    ``cls_of[x]`` is the class of the point x, ``order`` the class order,
    ``members[c]`` the points of class c and ``mul_t`` the class product (a
    congruence, checked by ``holoid_quotient``).  Building them confirms,
    point by point, that the classes below the class of x make up
    ``_absorb`` of the down-set of x, or raises LawViolation naming the
    first point that fails.  Then the monoid ideals are the unions of class
    down-sets and the saturated opens, kept in ``saturation`` once built,
    the unions of class up-sets.

    With addition, an ideal is also such a union that holds the zero's class
    and, with classes c and e, the class of every sum of their members: the
    sum rows ``sums[c][e]``.

    Theorem: every class down-set is an ideal.  Proof: the down-set of the
    class of x is down(xR), the principal monoid ideal, by the check above.
    It holds x0 = 0, by annihilation.  For y <= xr and z <= xs, monotone
    addition and distributivity give y + z <= xr + xs = x(r + s).

    So ``bottom``, the least ideal, is the zero's class down-set, and the
    least ideal over a set of classes is the join of the class down-sets of
    its maximal classes, the principal ideals: Idl(R) reads that join off
    its listing, and ``ideal_sum``, the join of two ideals, needs no
    fixpoint loop and no points: it is read on the sum rows alone.
    """

    def __init__(self, data):
        self.mul_t, cls_of, self.order = holoid_quotient(data.mul_monoid, data.locale.points)
        self.cls_of = tuple(cls_of)
        k = self.order.n
        members = [0] * k
        for x, c in enumerate(cls_of):
            members[c] |= 1 << x
        self.members = tuple(members)
        pts = data.locale.points
        for x, c in enumerate(self.cls_of):
            if self.points(self.order.down[c]) != _absorb(data, pts.down[x]):
                raise LawViolation("holoid classes give the principal monoid ideals", pts.names[x])
        self.saturation = None
        if data.has_addition:
            sums = [[0] * k for _ in range(k)]
            for x, row in enumerate(data.add_t):
                srow = sums[cls_of[x]]
                for y, s in enumerate(row):
                    srow[cls_of[y]] |= 1 << cls_of[s]
            self.sums = tuple(map(tuple, sums))
            self.bottom = self.order.down[cls_of[data.zero_point]]

    def points(self, class_mask):
        members, out = self.members, 0
        for c in bits(class_mask):
            out |= members[c]
        return out

    def up_sets(self, caps):
        """The up-sets of the class order, as class masks; CapExceeded past
        ``caps.search_budget()`` of them."""
        budget = caps.search_budget()
        ups = self.order.up_sets(limit=budget)
        if ups is None:
            raise CapExceeded("saturated opens enumeration", f">{budget}", budget)
        return ups

    def ideal_sum(self, ideal, union):
        """I v J for the ideal I = ``ideal`` and an ideal J with I | J =
        ``union``: the class down-closure of I + J, which holds I | J (both
        hold 0) and, as addition is monotone, is closed under sums and
        products, so no fixpoint loop is needed.  It is read on the sum rows
        ``sums[e][c]`` of e in J outside I and c in I: a sum of two members
        of I stays in I, and one of two members of J in J."""
        sums, grown = self.sums, 0
        for e in bits(union & ~ideal):
            row = sums[e]
            for c in bits(ideal):
                grown |= row[c]
        return union | self.order.down_closure(grown)


def to_localic(algebra, order=None, caps=DEFAULT_CAPS, name=""):
    """Topologize a discrete semiring or monoid, or an ordered one when
    ``order`` is a poset on the same element names (operations must be
    monotone for it)."""
    if order is None:
        order = FinitePoset(algebra.names, [1 << i for i in range(algebra.n)])
    return LocalicSemiringData(alexandrov(order, caps), algebra, name=name)


def scott_localic_lattice(lat, caps=DEFAULT_CAPS, name=""):
    """A finite distributive lattice with its Scott topology, as a localic
    semiring: points are the lattice elements in their own order (Scott =
    Alexandrov on finite carriers), addition is join and multiplication meet.
    """
    try:
        semiring = lattice_semiring(lat)
    except LawViolation as exc:
        # join and meet are commutative monoids and the bottom annihilates,
        # so distributivity is the one semiring law a lattice can fail
        raise NotDistributive(exc.witness) from None
    return to_localic(semiring, FinitePoset(lat.names, lat.up), caps, name)


def holoid_quotient(monoid, order=None):
    """Quotient a commutative monoid by mutual divisibility.

    Returns (class table, surjection values, order poset): the quotient
    monoid is ``FiniteCommMonoid(order.names, surjection[unit], table)``,
    which carries the partial order [f] <= [g] iff g divides f (inclusion of
    principal monoid ideals), realizing the poset coinserter of the
    projection and multiplication concretely.  The congruence is checked
    here; the quotient's own validation runs only when it is built, so
    callers that read the classes skip it.

    With ``order``, a poset on the elements for which multiplication is
    monotone, g divides f when f <= g.k for some k.  That relation is the
    preorder generated by the order and xy <= x, and the result is its poset
    reflection.
    """
    div = monoid.divisibility()
    if order is not None:
        div = tuple(order.down_closure(d) for d in div)
    n = monoid.n
    classes = []
    cls_of = [None] * n
    for f in range(n):
        if cls_of[f] is not None:
            continue
        members = [
            g
            for g in range(n)
            if div[f] >> g & 1 and div[g] >> f & 1
        ]
        idx = len(classes)
        classes.append(members)
        for g in members:
            cls_of[g] = idx
    k = len(classes)
    reps = [members[0] for members in classes]
    # mutual divisibility is a monoid congruence; verified here
    table = [[None] * k for _ in range(k)]
    for i, ri in enumerate(reps):
        for j, rj in enumerate(reps):
            table[i][j] = cls_of[monoid.mul(ri, rj)]
            for a in classes[i]:
                for b in classes[j]:
                    if cls_of[monoid.mul(a, b)] != table[i][j]:
                        raise LawViolation(
                            "divisibility congruence",
                            (monoid.names[a], monoid.names[b]),
                        )
    up = []
    for i, ri in enumerate(reps):
        mask = 0
        for j, rj in enumerate(reps):
            # [ri] <= [rj] iff rj | ri
            if div[rj] >> ri & 1:
                mask |= 1 << j
        up.append(mask)
    order = FinitePoset([monoid.names[r] for r in reps], up)
    return tuple(map(tuple, table)), tuple(cls_of), order
