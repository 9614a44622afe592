"""Commutative quantales on finite suplattices.

A quantale here is a commutative monoid in the category of suplattices: a
complete lattice with a commutative, associative, unital multiplication that
preserves joins (including the empty one) in each argument.  Two-sided means
the unit is the top element; a frame is a two-sided quantale with idempotent
multiplication, and then the multiplication is forced to be meet.

Quotients are presented by nuclei (multiplicative closure operators); the
two-sided and localic reflections and the generated-congruence quotient all
reduce to a least nucleus, computed by ``order.least_fixpoint``, the repair
engine that also computes least closures.  The quotient lattice is read off
the fixed points by ``ClosureOperator.quotient``: meets carry over and the
join is j(a v b).

Every quantale whose carrier has at most ``FULL_CHECK_LIMIT`` elements is
validated against all the laws when it is constructed; the cubic law check
is skipped on larger carriers.
"""

from itertools import product as iproduct

from .caps import DEFAULT_CAPS
from .errors import LawViolation, NotTwoSided
from .order import ClosureOperator, least_fixpoint
from .suplattice import SupMap, all_supmaps

FULL_CHECK_LIMIT = 40  # carriers up to this size are validated on construction


class Quantale:
    def __init__(self, carrier, mult, unit):
        self.carrier = carrier
        self.mult_t = tuple(tuple(row) for row in mult)
        self.unit = unit
        if carrier.n <= FULL_CHECK_LIMIT:
            self.validate()

    def validate(self):
        lat = self.carrier
        names = lat.names
        n = lat.n
        if len(self.mult_t) != n or any(len(r) != n for r in self.mult_t):
            raise LawViolation("totality", "multiplication table")
        for a in range(n):
            for b in range(a, n):
                if self.mult_t[a][b] != self.mult_t[b][a]:
                    raise LawViolation("commutativity", (names[a], names[b]))
        for a in range(n):
            if self.mult_t[self.unit][a] != a:
                raise LawViolation("unit", names[a])
        for a, b, c in iproduct(range(n), repeat=3):
            if self.mult_t[self.mult_t[a][b]][c] != self.mult_t[a][self.mult_t[b][c]]:
                raise LawViolation("associativity", (names[a], names[b], names[c]))
        for a in range(n):
            if self.mult_t[a][lat.bottom] != lat.bottom:
                raise LawViolation("bilinearity (empty join)", names[a])
            for b in range(n):
                for c in range(b, n):
                    if (
                        self.mult_t[a][lat.join(b, c)]
                        != lat.join(self.mult_t[a][b], self.mult_t[a][c])
                    ):
                        raise LawViolation(
                            "bilinearity", (names[a], names[b], names[c])
                        )

    def mul(self, a, b):
        return self.mult_t[a][b]

    def mul_iter(self, items):
        out = self.unit
        for a in items:
            out = self.mult_t[out][a]
        return out

    @property
    def two_sided(self):
        return self.unit == self.carrier.top

    def is_idempotent(self):
        return all(self.mult_t[a][a] == a for a in range(self.carrier.n))

    def is_frame(self):
        return self.two_sided and all(
            self.mult_t[a][b] == self.carrier.meet(a, b)
            for a in range(self.carrier.n)
            for b in range(self.carrier.n)
        )

    def scalar(self, p, q):
        """Omega-scalar action p*q through the unique map Omega -> Q."""
        return q if p else self.carrier.bottom

    def __repr__(self):
        return f"Quantale({self.carrier.n} elements, unit={self.carrier.names[self.unit]})"


def frame_quantale(lat):
    """The frame ``lat`` as a quantale: multiplication is meet, unit is top."""
    return Quantale(lat, lat.meet_t, lat.top)


class QuantaleHom(SupMap):
    """A SupMap that also preserves multiplication and the unit."""

    def __init__(self, source_q, target_q, values):
        super().__init__(source_q.carrier, target_q.carrier, values)
        self.source_q = source_q
        self.target_q = target_q
        v = self.values
        if v[source_q.unit] != target_q.unit:
            raise LawViolation("unit preservation", source_q.carrier.names[source_q.unit])
        for a in range(source_q.carrier.n):
            for b in range(a, source_q.carrier.n):
                if v[source_q.mul(a, b)] != target_q.mul(v[a], v[b]):
                    raise LawViolation(
                        "multiplicativity",
                        (source_q.carrier.names[a], source_q.carrier.names[b]),
                    )


class Nucleus(ClosureOperator):
    """A closure operator j with j(a)j(b) <= j(ab); its fixed points carry
    the quotient quantale."""

    def __init__(self, quantale, values):
        super().__init__(quantale.carrier, values)
        self.quantale = quantale
        lat = quantale.carrier
        for a in range(lat.n):
            for b in range(a, lat.n):
                lhs = quantale.mul(self.values[a], self.values[b])
                if not lat.leq(lhs, self.values[quantale.mul(a, b)]):
                    raise LawViolation(
                        "nucleus multiplicativity", (lat.names[a], lat.names[b])
                    )


def quotient_by_nucleus(quantale, nucleus):
    """The quotient quantale on the fixed points of ``nucleus`` together with
    the surjection a -> j(a) as a QuantaleHom; the product of fixed points
    a, b is j(ab)."""
    qlat, onto = nucleus.quotient()
    fixed = nucleus.fixed_points()
    mult = tuple(tuple(onto[quantale.mul(a, b)] for b in fixed) for a in fixed)
    quotient = Quantale(qlat, mult, onto[quantale.unit])
    return quotient, QuantaleHom(quantale, quotient, onto)


def two_sided_reflection(quantale):
    """Largest two-sided quotient: fixed points of a -> a*top."""
    lat = quantale.carrier
    values = [quantale.mul(a, lat.top) for a in range(lat.n)]
    quotient, surjection = quotient_by_nucleus(quantale, Nucleus(quantale, values))
    assert quotient.two_sided
    return quotient, surjection


def least_nucleus(quantale, forcings):
    """Least nucleus j with a <= j(b) for every forcing pair (a, b): the
    least closure of ``order.least_fixpoint`` with the multiplicativity
    repair j(a)j(b) <= j(ab) added."""
    return Nucleus(quantale, least_fixpoint(quantale.carrier, forcings, quantale.mult_t))


def quotient_by(quantale, relations):
    """Quotient by the congruence generated by pairs (u, v) read as
    u <= j(v)."""
    return quotient_by_nucleus(quantale, least_nucleus(quantale, relations))


def localic_reflection(quantale):
    """Universal frame quotient of a two-sided quantale: the least nucleus
    with a <= j(a*a) for all a.

    The forcing a <= j(a*a) is equivalent, under two-sidedness, to forcing
    a/\\b <= j(a*b) for all pairs; the test suite checks both forcing sets
    produce the same nucleus on the catalog.
    """
    if not quantale.two_sided:
        raise NotTwoSided("localic reflection needs a two-sided quantale")
    forcings = [(a, quantale.mul(a, a)) for a in range(quantale.carrier.n)]
    quotient, surjection = quotient_by(quantale, forcings)
    assert quotient.is_frame()
    return quotient, surjection


def enumerate_homs(q1, q2, kind, caps=DEFAULT_CAPS):
    """All morphisms q1 -> q2 of the requested kind, canonically ordered.

    kinds: "sup" (join-preserving only), "quantale"/"two_sided" (SupMaps
    preserving multiplication and unit), "frame" (quantale homs that also
    preserve finite meets and top).
    """
    supmaps = all_supmaps(q1.carrier, q2.carrier, caps)
    if kind == "sup":
        return supmaps
    if kind not in ("quantale", "two_sided", "frame"):
        raise ValueError(f"unknown hom kind {kind!r}")
    out = []
    for f in supmaps:
        v = f.values
        if v[q1.unit] != q2.unit:
            continue
        if any(
            v[q1.mul(a, b)] != q2.mul(v[a], v[b])
            for a in range(q1.carrier.n)
            for b in range(a, q1.carrier.n)
        ):
            continue
        if kind == "frame":
            if v[q1.carrier.top] != q2.carrier.top:
                continue
            if any(
                v[q1.carrier.meet(a, b)] != q2.carrier.meet(v[a], v[b])
                for a in range(q1.carrier.n)
                for b in range(a, q1.carrier.n)
            ):
                continue
        out.append(QuantaleHom(q1, q2, v))
    return out
