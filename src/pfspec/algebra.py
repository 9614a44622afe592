"""Finite commutative monoids and semirings, and their localic presentations.

An ordered semiring is entered as point-level data: a poset of points with
monotone addition and multiplication tables and distinguished unit points.
Preimage along the point maps gives the frame maps of the corresponding
localic semiring; since the up-set functor is faithful on finite posets, the
comonoid diagrams commute at the frame level exactly when the semiring laws
hold pointwise, which is what gets checked.  The opens are never built here:
the opens oracle in ``spectrum`` verifies the counit laws as SupMap
equalities on the opens whenever they fit the caps.
"""

from itertools import product as iproduct

from .caps import DEFAULT_CAPS
from .errors import LawViolation, NotDistributive, NotMonotone
from .locale import alexandrov
from .order import FinitePoset, bits, is_distributive


class FiniteCommMonoid:
    def __init__(self, names, unit, mul):
        self.names = tuple(names)
        self.n = len(self.names)
        self.unit = unit
        self.mul_t = tuple(tuple(row) for row in mul)
        _check_comm_monoid(self.names, self.unit, self.mul_t, "mul")

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
    n = len(names)
    if len(table) != n or any(len(r) != n for r in table):
        raise LawViolation(f"{law} totality", "table shape")
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
        self.mul_t = tuple(tuple(row) for row in mul)
        _check_comm_monoid(self.names, zero, self.add_t, "add")
        _check_comm_monoid(self.names, one, self.mul_t, "mul")
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

    def mult_monoid(self):
        return FiniteCommMonoid(self.names, self.one, self.mul_t)

    def add_monoid(self):
        return FiniteCommMonoid(self.names, self.zero, self.add_t)

    def __repr__(self):
        return f"FiniteCommSemiring({','.join(self.names)})"


def build_discrete_semiring(names, zero, one, add, mul):
    return FiniteCommSemiring(names, zero, one, add, mul)


class LocalicSemiringData:
    """A localic semiring (or, with ``add`` omitted, a localic monoid) on a
    finite locale, given by point-level data.

    ``mul``/``add`` are monotone binary tables on points; ``one_point`` and
    ``zero_point`` are the unit points.  The induced frame maps are the
    preimages; neither the opens nor those of the self-coproduct are
    materialized, all downstream computations work with the point tables
    directly.

    Only pointwise laws are checked, and they imply the frame-level ones:
    the preimage of an up-set along a monotone map is an up-set, so each
    table gives a frame map, and preimage is faithful on finite posets, so a
    comonoid diagram commutes on opens exactly when it commutes on points.
    For the counit, U -> {x : x.1 in U} is the identity on opens exactly
    when x.1 = x for every point x.
    """

    def __init__(self, locale, mul, one_point, add=None, zero_point=None, name=""):
        self.locale = locale
        self.name = name
        pts = locale.points
        self.mul_t = tuple(tuple(row) for row in mul)
        self.one_point = one_point
        self.add_t = None if add is None else tuple(tuple(row) for row in add)
        self.zero_point = zero_point
        _check_pointwise_monotone(pts, self.mul_t, "mul")
        self.mul_monoid = FiniteCommMonoid(pts.names, one_point, self.mul_t)
        if self.add_t is not None:
            if zero_point is None:
                raise LawViolation("additive unit", "zero point missing")
            _check_pointwise_monotone(pts, self.add_t, "add")
            _check_comm_monoid(pts.names, zero_point, self.add_t, "add")
            for a in range(pts.n):
                if self.mul_t[a][zero_point] != zero_point:
                    raise LawViolation("annihilation", pts.names[a])
                for b, c in iproduct(range(pts.n), repeat=2):
                    if (
                        self.mul_t[a][self.add_t[b][c]]
                        != self.add_t[self.mul_t[a][b]][self.mul_t[a][c]]
                    ):
                        raise LawViolation(
                            "distributivity",
                            (pts.names[a], pts.names[b], pts.names[c]),
                        )

    def mul(self, a, b):
        return self.mul_t[a][b]

    def add(self, a, b):
        return self.add_t[a][b]

    @property
    def has_addition(self):
        return self.add_t is not None

    def is_discrete(self):
        pts = self.locale.points
        return all(pts.up[i] == 1 << i for i in range(pts.n))

    def point_table(self):
        """Read back the discrete tables (inverse of to_localic on discrete
        input)."""
        return self.mul_t, self.add_t

    def __repr__(self):
        kind = "semiring" if self.has_addition else "monoid"
        return f"LocalicSemiringData({kind}, {self.locale.points.n} points)"


def _check_pointwise_monotone(pts, table, law):
    for a in range(pts.n):
        for b in range(pts.n):
            for b2 in bits(pts.up[b]):
                if not pts.leq(table[a][b], table[a][b2]):
                    raise NotMonotone(
                        (pts.names[a], pts.names[b], pts.names[b2]), law
                    )


def to_localic(semiring, order=None, caps=DEFAULT_CAPS, name=""):
    """Topologize a discrete semiring, or an ordered one when ``order`` is a
    poset on the same element names (operations must be monotone for it)."""
    if order is None:
        order = FinitePoset(semiring.names, [1 << i for i in range(semiring.n)])
    if tuple(order.names) != semiring.names:
        raise LawViolation("order carrier", "poset names differ from semiring names")
    loc = alexandrov(order, caps)
    data = LocalicSemiringData(
        loc,
        semiring.mul_t,
        semiring.one,
        add=semiring.add_t,
        zero_point=semiring.zero,
        name=name or getattr(semiring, "name", ""),
    )
    back_mul, back_add = data.point_table()
    for law, back, table in (("mul", back_mul, semiring.mul_t), ("add", back_add, semiring.add_t)):
        if back != table:
            pairs = iproduct(range(semiring.n), repeat=2)
            a, b = next((a, b) for a, b in pairs if back[a][b] != table[a][b])
            raise LawViolation(f"{law} table round-trip", (semiring.names[a], semiring.names[b]))
    return data


def monoid_to_localic(monoid, order=None, caps=DEFAULT_CAPS, name=""):
    if order is None:
        order = FinitePoset(monoid.names, [1 << i for i in range(monoid.n)])
    loc = alexandrov(order, caps)
    return LocalicSemiringData(loc, monoid.mul_t, monoid.unit, name=name)


def scott_localic_lattice(lat, caps=DEFAULT_CAPS, name=""):
    """A finite distributive lattice with its Scott topology, as a localic
    semiring: points are the lattice elements in their own order (Scott =
    Alexandrov on finite carriers), addition is join and multiplication meet.
    """
    flag, witness = is_distributive(lat)
    if not flag:
        raise NotDistributive(witness)
    pts = FinitePoset(lat.names, lat.up)
    loc = alexandrov(pts, caps)
    return LocalicSemiringData(
        loc,
        lat.meet_t,
        lat.top,
        add=lat.join_t,
        zero_point=lat.bottom,
        name=name,
    )


def holoid_quotient(monoid, order=None):
    """Quotient a commutative monoid by mutual divisibility.

    Returns (quotient monoid, surjection values, order poset): the quotient
    carries the partial order [f] <= [g] iff g divides f (inclusion of
    principal monoid ideals), realizing the poset coinserter of the
    projection and multiplication concretely.

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
    names = [monoid.names[r] for r in reps]
    quotient = FiniteCommMonoid(names, cls_of[monoid.unit], table)
    up = []
    for i, ri in enumerate(reps):
        mask = 0
        for j, rj in enumerate(reps):
            # [ri] <= [rj] iff rj | ri
            if div[rj] >> ri & 1:
                mask |= 1 << j
        up.append(mask)
    order = FinitePoset(names, up)
    surjection = tuple(cls_of)
    return quotient, surjection, order
