"""Commutative quantales on finite suplattices.

A quantale here is a commutative monoid in the category of suplattices: a
complete lattice with a commutative, associative, unital multiplication that
preserves joins (including the empty one) in each argument.  Two-sided means
the unit is the top element; a frame is a two-sided quantale with idempotent
multiplication, and then the multiplication is forced to be meet.

Quotients are presented by nuclei (multiplicative closure operators), each
built from its fixed points as an ``order.ClosureOperator``: a meet-closed
set closed under c -> p, the largest x with cx <= p (Rosenthal, Quantales
and their Applications, 1990).  So the two-sided reflection is the closure
onto the a with a*top = a, which is a -> a*top, and a least nucleus is the
closure onto the elements its forcings allow.  The quotient lattice is read
off the fixed points by ``ClosureOperator.quotient``: meets carry over and
the join is j(a v b).

Every quantale is validated against all the laws when it is constructed,
and maps, homs and nuclei are checked when they are built.  A frame is
validated by a certificate: its unit is the top, its product the meet, and
its carrier has no splits, so is distributive by Birkhoff's criterion on J;
then every law holds.  The meet needs no check of its own, as a lattice's
tables are read off its order.  Each join law is decided on the
join-irreducibles J of the source: in a finite lattice every element is a
join of elements of J, so a join-preserving map is fixed by its values
there.

A hom is a quantale hom: a join-preserving map that also preserves the
product and the unit.  Between frames the product is the meet and the unit
the top, so the quantale homs are the frame homs.  ``enumerate_homs`` is
the search of ``suplattice.all_supmaps`` with the unit and product laws
added: it decides every hom law on J and returns each hom as its values
there, read by ``suplattice.j_evaluator``.  It states only the laws that
can fail, as ``spectrum`` does for anti-ideals:
into a frame, f(pq) = f(p)f(q) for p, q in J with pq the smaller of p and q
holds for every monotone map on J, since the product there is the meet, and
is omitted.
"""

from functools import reduce
from itertools import product as iproduct
from operator import getitem, itemgetter

from .caps import DEFAULT_CAPS
from .errors import LawViolation, NotTwoSided
from .order import ClosureOperator, monotone_search
from .suplattice import SupMap, j_evaluator, join_laws, join_witness


class Quantale:
    def __init__(self, carrier, mult, unit):
        self.carrier = carrier
        self.mult_t = tuple(tuple(row) for row in mult)
        self.unit = unit
        self.validate()

    def validate(self):
        """Check every law, raising LawViolation with a witness.

        A frame passes at once on its certificate: the unit is the top, the
        product table is the carrier's meet table, and ``splits()`` is
        empty.  Then the carrier is distributive by Birkhoff's criterion
        (``order.is_distributive``), so meet distributes over joins, and a
        meet is associative, commutative and unital with the top: every law
        below holds.  The tables are the order's bounds, as a ``Lattice`` is
        built from its order alone.  Any other quantale takes
        ``_check_laws``.
        """
        lat = self.carrier
        if not (self.unit == lat.top and self.mult_t == lat.meet_t and not lat.splits()):
            self._check_laws()

    def _check_laws(self):
        """After totality, commutativity and the unit, bilinearity is decided
        on rows c -> ac: the bottom's row is bottom, the row of each
        join-irreducible p preserves joins (``join_witness``), and each
        other row is the pointwise join of the rows of the two or more
        maximal join-irreducibles below it (``Lattice.j_rows``).  A
        pointwise join of join-preserving rows preserves joins, so every row
        does, and so by commutativity does every column.  Both sides of
        (pq)r = p(qr) then preserve joins in each argument, so it is checked
        for p, q in the join-irreducibles J and every r.  About n + 2|J|^2 whole rows are compared at C speed;
        when one differs, ``_literal_scan`` names the law and witness.
        """
        lat = self.carrier
        names = lat.names
        n = lat.n
        m = self.mult_t
        if len(m) != n or any(len(r) != n for r in m):
            raise LawViolation("totality", "multiplication table")
        if tuple(zip(*m)) != m:
            a, b = next((a, b) for a in range(n) for b in range(a, n) if m[a][b] != m[b][a])
            raise LawViolation("commutativity", (names[a], names[b]))
        if m[self.unit] != tuple(range(n)):
            a = next(a for a in range(n) if m[self.unit][a] != a)
            raise LawViolation("unit", names[a])
        ji = lat.join_irreducibles()
        joined = lambda r, s: tuple(map(getitem, itemgetter(*r)(lat.join_t), s))
        if (
            m[lat.bottom] != (lat.bottom,) * n
            or any(join_witness(lat, lat, m[p]) is not None for p in ji)
            or any(
                m[a] != reduce(joined, [m[ji[k]] for k in ks])
                for a, ks in enumerate(lat.j_rows()[0])
                if len(ks) > 1
            )
            or any(m[m[p][q]] != itemgetter(*m[q])(m[p]) for p in ji for q in ji)
        ):
            self._literal_scan()

    def _literal_scan(self):
        """Associativity over all triples, then the join laws over all
        elements: the first failure in this order is the one reported."""
        lat = self.carrier
        names = lat.names
        n = lat.n
        m = self.mult_t
        for a, b, c in iproduct(range(n), repeat=3):
            if m[m[a][b]][c] != m[a][m[b][c]]:
                raise LawViolation("associativity", (names[a], names[b], names[c]))
        for a in range(n):
            if m[a][lat.bottom] != lat.bottom:
                raise LawViolation("bilinearity (empty join)", names[a])
            for b in range(n):
                for c in range(b, n):
                    if m[a][lat.join(b, c)] != lat.join(m[a][b], m[a][c]):
                        raise LawViolation("bilinearity", (names[a], names[b], names[c]))

    def mul(self, a, b):
        return self.mult_t[a][b]

    @property
    def two_sided(self):
        return self.unit == self.carrier.top

    def is_frame(self):
        return self.two_sided and self.mult_t == self.carrier.meet_t

    def __repr__(self):
        return f"Quantale({self.carrier.n} elements, unit={self.carrier.names[self.unit]})"


def frame_quantale(lat):
    """The frame ``lat`` as a quantale: multiplication is meet, unit is top."""
    return Quantale(lat, lat.meet_t, lat.top)


class QuantaleHom(SupMap):
    """A SupMap that also preserves multiplication and the unit.

    f(pq) = f(p)f(q) is checked for p, q join-irreducible: both quantales
    are validated, so both sides preserve joins in each argument."""

    def __init__(self, source_q, target_q, values):
        super().__init__(source_q.carrier, target_q.carrier, values)
        v = self.values
        names = source_q.carrier.names
        if v[source_q.unit] != target_q.unit:
            raise LawViolation("unit preservation", names[source_q.unit])
        ji = source_q.carrier.join_irreducibles()
        for i, p in enumerate(ji):
            for q in ji[i:]:
                if v[source_q.mul(p, q)] != target_q.mul(v[p], v[q]):
                    raise LawViolation("multiplicativity", (names[p], names[q]))


class Nucleus(ClosureOperator):
    """The closure onto the meets of the elements in the bitmask ``allowed``
    (``ClosureOperator``), checked to be a nucleus: j(a)j(b) <= j(ab).  Its
    fixed points, a meet-closed set closed under c -> p, carry the quotient
    quantale.

    The law is checked as p j(b) <= j(pb) for p join-irreducible and every b,
    the same law for a closure (Rosenthal, Quantales and their
    Applications, 1990): joins over p <= a give a j(b) <= j(ab), so
    j(a)j(b) <= j(j(a)b) <= j(ab); and p j(b) <= j(p)j(b), so a failing
    (p, b) also witnesses the law.
    """

    def __init__(self, quantale, allowed):
        super().__init__(quantale.carrier, allowed)
        self.quantale = quantale
        lat = quantale.carrier
        j = self.values
        for p in lat.join_irreducibles():
            row = quantale.mult_t[p]
            for b in range(lat.n):
                if not lat.leq(row[j[b]], j[row[b]]):
                    raise LawViolation("nucleus multiplicativity", (lat.names[p], lat.names[b]))


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
    """Largest two-sided quotient: the closure onto the a with a*top = a.
    In a quantale that closure is a -> a*top, as a <= a*top = (a*top)*top
    and a <= x = x*top gives a*top <= x; so its unit is 1*top = top."""
    lat = quantale.carrier
    top_row = quantale.mult_t[lat.top]
    allowed = sum(1 << a for a in range(lat.n) if top_row[a] == a)
    return quotient_by_nucleus(quantale, Nucleus(quantale, allowed))


def least_nucleus(quantale, forcings):
    """Least nucleus j with a <= j(b) for every forcing pair (a, b).

    Its fixed points are the p with bc <= p => ac <= p for every forcing and
    every c in J: each fixed c -> p obeys the forcing, and these p are
    meet-closed and closed under c -> p.  J suffices, as products preserve
    joins.
    """
    lat = quantale.carrier
    up, m = lat.up, quantale.mult_t
    ji = lat.join_irreducibles()
    bad = 0
    for a, b in forcings:
        for c in ji:
            bad |= up[m[b][c]] & ~up[m[a][c]]
    return Nucleus(quantale, lat.full & ~bad)


def localic_reflection(quantale):
    """Universal frame quotient of a two-sided quantale, by its definition:
    the quotient by the least nucleus with a <= j(a*a), forced on J as
    products preserve joins, checked to be a frame.  Its fixed points are
    the semiprime p, where a*a <= p implies a <= p: a fixed p is, as
    a <= j(a*a) <= p, and a semiprime p is fixed, as (ac)(ac) <= (aa)c for
    c <= top = unit.  ``spectrum.radical_frame`` reads them off its
    listing; this is its test oracle."""
    if not quantale.two_sided:
        raise NotTwoSided("localic reflection needs a two-sided quantale")
    squares = [(p, quantale.mul(p, p)) for p in quantale.carrier.join_irreducibles()]
    quotient, surjection = quotient_by_nucleus(quantale, least_nucleus(quantale, squares))
    if not quotient.is_frame():
        raise LawViolation("localic reflection is a frame", repr(quotient))
    return quotient, surjection


def _hom_laws(q1, q2):
    """The hom laws on a monotone map g of the join-irreducibles J of q1
    into q2, as (scope, test) laws; ``scope`` masks the J that ``test(g)``
    reads, by ``suplattice.j_evaluator``.  The unit; f(pq) = f(p)f(q) for p,
    q in J, which by bilinearity decides every pair; and the join laws of
    ``suplattice.join_laws``, stated only at the splits of q1's carrier.

    The laws that every monotone g obeys are omitted, so the list holds only
    laws that can fail: when q2 is a frame, f(pq) = f(p)f(q) where pq = p
    with p <= q, or pq = q with q <= p (p = q when pp = p).  There the law
    reads g(p) = g(p) ^ g(q), as f(p) = g(p) for p in J, and a monotone g
    has g(p) <= g(q)."""
    src, tgt = q1.carrier, q2.carrier
    ji = src.join_irreducibles()
    below = src.j_below()
    value = j_evaluator(src, tgt)
    is_meet = q2.is_frame()
    laws = [(below[q1.unit], lambda g: value(g, q1.unit) == q2.unit)]
    for i, p in enumerate(ji):
        for j in range(i, len(ji)):
            q = ji[j]
            a = q1.mul(p, q)
            if is_meet and (a == p and src.leq(p, q) or a == q and src.leq(q, p)):
                continue
            laws.append((1 << i | 1 << j | below[a], lambda g, i=i, j=j, a=a: value(g, a) == q2.mult_t[g[i]][g[j]]))
    return laws + join_laws(src, tgt, value)


def enumerate_homs(q1, q2, caps=DEFAULT_CAPS):
    """All quantale homs q1 -> q2, each as the tuple of its values on the
    join-irreducibles J of q1, sorted.

    They are searched as monotone maps g on J by ``order.monotone_search``,
    with f(a) read by ``suplattice.j_evaluator``, so the empty join is kept;
    g must be monotone on J there, and each partial map of the search is, on
    the J it has assigned.  Each law of ``_hom_laws`` is judged once the
    elements of J it reads are assigned.  That list omits, for a frame q2,
    f(pq) = f(p)f(q) where pq is the smaller of p and q: there
    f(pq) = g(p) = g(p) ^ g(q) for every monotone g, so the omitted laws
    would prune nothing, and the homs, their order, the nodes tried and any
    CapExceeded are those of the full list.  The cap counts the values
    tried.
    """
    j_poset = q1.carrier.j_rows()[1]
    return sorted(monotone_search(j_poset, q2.carrier, _hom_laws(q1, q2), caps.search_budget(), "hom enumeration"))
