"""The spectrum pipeline for finite localic semirings and monoids.

Everything here runs on the holoid classes of the points, ``data.classes``,
built and checked once per object: the classes of mutual divisibility up to
the point order, in their order (``algebra.holoid_quotient``).  As they give
the principal monoid ideals, the frame of saturated opens is the up-set frame
of the class order, so the monoid side needs no frame and no dual basis.
Both quantales, Idl(R) and MM(R), are held as sets of classes and multiplied
on the class table (``_class_quantale``).  That is exact: the class product
is a congruence and monotone on the class order, so the convolution product
of two unions of class down-sets is the union of the class down-sets of the
class products.  Anti-ideals into a two-sided quantale are constant on the
classes, so they are searched as maps of classes.

The main path, ``radical_frame``, builds the spectrum of a semiring and of a
monoid by the same steps, and never the frame of opens (up to 2**|points|
elements):

* the quantic spectrum: for a semiring the quantale Idl(R) of ideals, the
  sets of classes reached from the least ideal by ideal sums (the
  down-closure of I + J, ``HoloidClasses.ideal_sum``) with class down-sets,
  each an ideal (``HoloidClasses``), joined as the least listed ideal above
  both, and with A.B the join of the principal ideals (ce) of the class
  products; for a monoid the quantale MM(R) of monoid ideals, the unions of
  class down-sets, with the class product,
* its localic reflection Rad(R), the semiprime elements of the listing,
* the universal element, one formula for both kinds: x -> the down-set of
  its class, which is the least (monoid) ideal holding x.  It is checked
  monotone on the classes and against the intersection of the listed
  elements that hold x,
* the points, the Omega-valued prime anti-ideals of the matching kind,
  read off the idempotent classes (``idempotent_points``) and checked
  against Rad(R).  The universal element is checked on the laws of
  ``_anti_ideal_laws`` with multiplicativity read at the generators of the
  multiplicative monoid (``_prime_at_generators``), and with no closure
  built; the list itself, which omits the laws every monotone class map
  obeys, is built only to name a failing law.

For a semiring, the monoid side is built where something reads it, by
representability and the opens oracle:

* the universal element of MM(R) is x -> the principal monoid ideal of x,
  the down-set of x's class (the all-down-sets quantale of overt weakly
  closed sublocales and its two-sided reflection are the test oracle);
  Idl(R) is its quotient by the least nucleus forcing the zero to the bottom
  and sums below joins, reached by ``monoid_collapse`` (the tests build that
  quotient as the oracle of the class route),
* the saturated replacement of a localic monoid, the holoid quotient monoid
  on the class order,
* representability and dualisability reports; ``universal_element``
  decides the Yoneda instance (the universal element is an anti-ideal into
  Idl(R)) on the laws ``anti_ideals`` searches with, read at generators, and
  ``saturated_replacement`` invariance on the replacement's own classes.

The frame of saturated opens itself (``saturation``) and its dual basis are
built only by ``dualisability_conditions`` and ``opens_oracle``, the dual
lattice only by ``opens_oracle`` (the basis's unit), and no dual basis of
the opens at all.  Elements of Q (x) O X are worked with as monotone maps
X -> Q.  Every check that needs the opens themselves sits in
``opens_oracle``, which builds them under the caps: the overtness and
counit laws, saturation as a closure on the opens, the duality of MM(R)
with the saturated frame (the unit, the complements of the saturated opens,
and the bi-ideal form of the universal element carried from the dual basis,
a TensorElement, cross-checked with the map form; the two agree because the
principal up-sets are join-prime in an up-set frame).
``pfspec verify`` and the tests run it.
"""

from collections import namedtuple
from itertools import chain, combinations_with_replacement, product as iproduct

from .algebra import FiniteCommMonoid, _absorb, to_localic
from .caps import DEFAULT_CAPS
from .errors import CapExceeded, LawViolation, NotSupercontinuous, NotTwoSided
from .order import (
    ClosureOperator,
    FinitePoset,
    bits,
    family_lattice,
    inclusion_up_sets,
    monotone_search,
)
from .quantale import Quantale, QuantaleHom, enumerate_homs, frame_quantale
from .suplattice import (
    SupMap,
    TensorElement,
    TensorSpace,
    dual_basis,
    j_evaluator,
    omega,
    supercontinuity_witness,
)


# ---------------------------------------------------------------------------
# saturation


SaturationData = namedtuple(
    "SaturationData",
    [
        "saturated",  # standalone frame of saturated opens, a Lattice
        "sat_masks",  # point-mask of each saturated open
    ],
)


def saturation(data, caps=DEFAULT_CAPS):
    """The frame of saturated opens, read off the holoid classes.

    An open U is saturated when xy in U implies x in U, so the saturated
    opens are the up-sets of the preorder generated by the point order and
    xy <= x, which puts f below g when f <= g.k for some k.  Its poset
    reflection is the class order; its up-sets, pulled back to the points,
    are the saturated opens, sorted by (size, mask) as the opens are.  The
    comultiplication preserves each s, (xz)(yw) in s implies xy in s: the
    complement of s is a union of class down-sets, each ``_absorb`` of a
    principal down-set by the class check, so it is closed under products;
    thus xy in s implies x in s, and (xz)(yw) = (xy)(zw).  The opens are
    never built: ``opens_oracle`` compares these masks with the fixed points
    of the closure U -> {x : exists y, xy in U} on them.  Only
    ``opens_oracle`` and ``dualisability_conditions`` build this frame; the
    classes keep it for a later call within its ``caps.search_budget()``.
    """
    classes = data.classes
    if classes.saturation is not None:
        budget = caps.search_budget()
        if len(classes.saturation.sat_masks) > budget:
            raise CapExceeded("saturated opens enumeration", f">{budget}", budget)
        return classes.saturation
    pts = data.locale.points
    masks = sorted(
        (classes.points(u) for u in classes.up_sets(caps)), key=lambda m: (m.bit_count(), m)
    )
    # the masks are unions of class up-sets by construction; opens_oracle
    # checks that their inclusion into the opens preserves joins
    saturated = family_lattice(masks, (pts.mask_name(m) for m in masks), caps=caps)
    classes.saturation = SaturationData(saturated, tuple(masks))
    return classes.saturation


def count_saturated_opens(data, caps=DEFAULT_CAPS):
    """The number of saturated opens, which is also the number of monoid
    ideals (their complements): the up-sets of the holoid order, counted
    without tabulating the frame."""
    return len(data.classes.up_sets(caps))


def is_deflationary(data):
    """Whether xy <= x for all points, so that every open is saturated."""
    pts = data.locale.points
    return all(pts.leq(data.mul(x, y), x) for x, y in iproduct(range(pts.n), repeat=2))


# ---------------------------------------------------------------------------
# monoid ideals


def _class_quantale(data, classes, class_masks, caps):
    """The quantale on ``class_masks``, down-sets of checked classes closed
    under intersection and holding every class down-set, ordered by
    inclusion and sorted by the (size, mask) of their point masks, with its
    universal element; returns (quantale, point masks, universal map).  The
    join of two members is the least member above both, and ``caps`` bound
    the tables (``family_lattice``).

    The universal element sends x to the down-set of its class, the
    principal (monoid) ideal of x, and the unit is that of one; a class
    down-set missing from ``class_masks`` raises LawViolation naming the
    class.  A.B is the join of the principal ideals (ce), c and e maximal in
    A and B, the convolution product on points: the class product is a
    congruence, monotone on the class order (``holoid_quotient``), and each
    class down-set is the principal monoid ideal of its points, as checked
    when the classes were built, so (c)(e) = (ce); each member is the join
    of the principal ideals of its maximal classes; and products preserve
    joins.  So the row of ``classes.mul_t`` of each maximal class c is read
    as principal ideals once, (c).B is the join of its entries at the
    maximal classes of B, table lookups only, and A.B the pointwise join of
    the rows (c).B over the maximal classes c of A; a member with a single
    maximal class takes its row as it is.
    """
    pts, down = data.locale.points, classes.order.down
    found = sorted(((classes.points(c), c) for c in class_masks), key=lambda mc: (mc[0].bit_count(), mc[0]))
    masks, cmasks = tuple(m for m, _ in found), [c for _, c in found]
    pos = {c: k for k, c in enumerate(cmasks)}
    principal = [pos.get(d) for d in down]
    if None in principal:
        raise LawViolation("principal ideals are listed", classes.order.names[principal.index(None)])
    lat = family_lattice(cmasks, (pts.mask_name(m) for m in masks), caps)
    join, bottom = lat.join_t, lat.bottom
    maximals = [classes.order.maximal(c) for c in cmasks]
    # (c).B for each maximal class c and each B
    per_class = {}
    for c in set(chain.from_iterable(maximals)):
        row = [principal[ce] for ce in classes.mul_t[c]]
        per_class[c] = out = []
        for me in maximals:
            v = row[me[0]] if me else bottom
            for e in me[1:]:
                v = join[v][row[e]]
            out.append(v)
    rows = []
    for mc in maximals:
        row = per_class[mc[0]] if mc else [bottom] * len(cmasks)
        for c in mc[1:]:
            row = [join[a][b] for a, b in zip(row, per_class[c])]
        rows.append(row)
    quantale = Quantale(lat, rows, principal[classes.cls_of[data.one_point]])
    return quantale, masks, tuple(principal[c] for c in classes.cls_of)


class MonoidIdealData(
    namedtuple(
        "MonoidIdealData",
        [
            "monoid_ideals",  # MM(R), a Quantale
            "ideal_masks",  # point-mask of each monoid ideal
            "universal_map",  # x -> the principal monoid ideal of x, its class down-set
        ],
    )
):
    __slots__ = ()

    @property
    def owc_lattice(self):
        # the only down-sets this stage materialises; read by bench/spans.py
        return self.monoid_ideals.carrier


def monoid_ideal_quantale(data, caps=DEFAULT_CAPS):
    """The quantale MM(R) of monoid ideals and its universal element, read
    off the checked holoid classes (``data.classes``).

    The monoid ideals are the unions of class down-sets, the complements of
    the saturated opens (the class up-sets), capped as the saturated opens
    are.  They are closed under unions, and ``_class_quantale`` gives them
    the convolution product from the class table; its unit is the top.  A
    product cannot fall outside them, as the class down-closure of any set
    is a monoid ideal.  The universal element sends x to the principal
    monoid ideal of x, the down-set of its class, as it does into Idl(R).
    Neither the saturated frame nor its dual basis is built:
    ``opens_oracle`` checks the duality with them.  The all-down-sets OWC quantale and its two-sided reflection
    give the same quantale; the tests use them as the oracle.
    """
    classes = data.classes
    every_class = (1 << classes.order.n) - 1
    down_sets = (every_class ^ u for u in classes.up_sets(caps))
    quantale, masks, universal = _class_quantale(data, classes, down_sets, caps)
    return MonoidIdealData(quantale, masks, universal)


# ---------------------------------------------------------------------------
# the ideal quantale


def _fixed_class_masks(classes, caps):
    """The ideals, as class masks: the least family that holds ``bottom``
    and, with each member a and each class c minimal outside a (the classes
    below c, c aside, all in a), the ideal sum of a and a | c.

    Each member is an ideal, as ``bottom`` and the class down-set of c are
    (``HoloidClasses``).  And every ideal I is a member: else I would hold a
    member a maximal in it, as it holds ``bottom``, and a class c minimal in
    I outside a, and the ideal sum of a and a | c, the least ideal over
    both, would be a larger member in I.  Every ideal sum counts against
    ``caps.search_budget()``, and past it CapExceeded("ideal enumeration",
    ...) is raised."""
    budget = caps.search_budget()
    full, down = classes.order.full, classes.order.down
    found = [classes.bottom]
    seen = set(found)
    tried = 0
    for a in found:
        for c in bits(full & ~a):
            if down[c] & ~a != 1 << c:
                continue
            tried += 1
            if tried > budget:
                raise CapExceeded("ideal enumeration", tried, budget)
            b = classes.ideal_sum(a, a | 1 << c)
            if b not in seen:
                seen.add(b)
                found.append(b)
    return found


def _ideal_witness(data, masks):
    """The first of ``masks`` in (size, mask) order that is not an ideal in
    the definitional sense (a monoid ideal, fixed by ``_absorb``, holding
    the zero point's closure and closed under sums), or None.  Every law is
    read at the maximal points v, w of the mask: it is a down-set when it
    holds the down-set of each v, and then, by monotone addition, closed
    under sums when it holds v + w.  Such a down-set is fixed by ``_absorb``
    when it holds vg for each generator g of the multiplicative monoid: the
    products v.g1...gk are then members by induction on k, as v.g1 lies
    below some maximal v' and v.g1.g2 <= v'g2 by monotone multiplication.
    The laws are folded into one mask, the points they need, and the mask
    fails when the fold leaves it: that is when one of the laws fails."""
    pts = data.locale.points
    zero, down, gens = pts.down[data.zero_point], pts.down, data.mul_monoid.generators
    mul_t, add_t = data.mul_t, data.add_t

    def fails(m):
        tops = pts.maximal(m)
        need = zero
        for v in tops:
            times, plus = mul_t[v], add_t[v]
            need |= down[v]
            for g in gens:
                need |= 1 << times[g]
            for w in tops:
                need |= 1 << plus[w]
        return need & ~m

    return min(filter(fails, masks), key=lambda m: (m.bit_count(), m), default=None)


IdealQuantaleData = namedtuple(
    "IdealQuantaleData",
    [
        "ideals",  # Idl(R), a Quantale
        "ideal_masks",  # point-mask of each element of Idl(R)
        "universal_map",  # x -> the principal ideal of x, its class down-set
    ],
)


def ideal_quantale(data, caps=DEFAULT_CAPS):
    """The quantale Idl(R) of overt weakly closed ideals, on the holoid
    classes, and its universal element.

    The ideals are listed as sets of checked classes by
    ``_fixed_class_masks``, the closure of ``bottom`` under ideal sums with
    class down-sets, and each is checked to be an ideal in the definitional
    sense.  ``_class_quantale`` orders them by inclusion, with meets the
    intersections and joins the least listed ideal above both, and gives
    them the product read off those joins, A.B the join of the principal
    ideals (ce) for c and e maximal in A and B, and the unit the down-set of
    the class of 1.
    The universal element sends x to the down-set of its class, an ideal by
    the theorem in ``HoloidClasses``.  This is the quotient of MM(R) by the
    least nucleus forcing the zero to the bottom and I (+~) J below I v J,
    which ``opens_oracle`` reaches with ``monoid_collapse``; neither the
    saturated frame nor MM(R) is built here.
    """
    if not data.has_addition:
        raise LawViolation("additive structure", "monoid-only data has no ideals")
    classes, pts = data.classes, data.locale.points
    fixed = _fixed_class_masks(classes, caps)
    witness = _ideal_witness(data, map(classes.points, fixed))
    if witness is not None:
        raise LawViolation("class closure gives ideals", pts.mask_name(witness))
    ideals, masks, universal = _class_quantale(data, classes, fixed, caps)
    return IdealQuantaleData(ideals, masks, universal)


def monoid_collapse(data, iq, mi):
    """The quotient MM(R) ->> Idl(R), as a QuantaleHom: a monoid ideal goes
    to the least ideal over it, the join in Idl(R) of the principal ideals
    of its classes, each looked up by its point mask in the listing."""
    classes, lat = data.classes, iq.ideals.carrier
    pos = {m: k for k, m in enumerate(iq.ideal_masks)}
    principal = [pos[classes.points(d)] for d in classes.order.down]
    values = [lat.join_iter(principal[c] for c, p in enumerate(classes.members) if p & m) for m in mi.ideal_masks]
    return QuantaleHom(mi.monoid_ideals, iq.ideals, values)


# ---------------------------------------------------------------------------
# quantale-valued prime anti-ideals


AntiIdealSet = namedtuple("AntiIdealSet", ["maps"])  # monotone maps points -> Q, as value tuples


def _anti_ideal_laws(data, classes, quantale, mode):
    """The prime anti-ideal conditions on a monotone map G of classes into
    the two-sided ``quantale``, as (name, scope, test) laws; ``scope`` is the
    bitmask of the classes that ``test(G)`` reads.  G(class of one) = 1 and
    G(c)G(e) = G(ce) for the class product ``classes.mul_t``; in semiring
    mode also G(class of zero) = 0 and G(s) <= G(c) v G(e) for each class s
    in the sum row ``classes.sums[c][e]``.

    The laws that every monotone G obeys are omitted, so the list holds only
    laws that can fail: additivity at s below c or e in the class order, as
    G(s) <= G(c); and, when the product of the quantale is its meet (a
    frame), multiplicativity where ce is c or e, as then c <= e and
    G(c) ^ G(e) = G(c)."""
    cls_of = classes.cls_of
    q_lat = quantale.carrier
    q_mul, q_join, q_up = quantale.mult_t, q_lat.join_t, q_lat.up
    down = classes.order.down
    is_meet = q_mul == q_lat.meet_t
    one = cls_of[data.one_point]
    laws = [("unit", 1 << one, lambda g: g[one] == quantale.unit)]
    if mode == "semiring":
        zero = cls_of[data.zero_point]
        laws.append(("zero", 1 << zero, lambda g: g[zero] == q_lat.bottom))
    for c, e in combinations_with_replacement(range(classes.order.n), 2):
        m = classes.mul_t[c][e]
        if not (is_meet and m in (c, e)):
            scope = 1 << c | 1 << e | 1 << m
            laws.append(("multiplicativity", scope, lambda g, c=c, e=e, m=m: q_mul[g[c]][g[e]] == g[m]))
        for s in bits(classes.sums[c][e] & ~down[c] & ~down[e]) if mode == "semiring" else ():
            scope = 1 << c | 1 << e | 1 << s
            laws.append(("additivity", scope, lambda g, c=c, e=e, s=s: q_up[g[s]] >> q_join[g[c]][g[e]] & 1))
    return laws


def anti_ideals(data, quantale, mode, caps=DEFAULT_CAPS):
    """All elements of Q (x) O R satisfying the prime anti-ideal conditions,
    as monotone maps g : points -> Q, in sorted order.

    The conditions are pointwise: g(one) = 1 and g(xy) = g(x)g(y); in
    semiring mode additionally g(zero) = 0 and g(x+y) <= g(x) v g(y).  For
    Q = Omega and a discrete semiring this is exactly: subsets u with 1 in u,
    0 not in u, xy in u iff x and y in u, and x+y in u implies x in u or
    y in u.  ``element_of_map`` gives the bi-ideal form of a map.

    The maps are searched on the checked holoid classes (``data.classes``).
    As Q is two-sided, x <= y.k gives g(x) <= g(y)g(k) <= g(y): g is a
    monotone map of classes, and every such map is one of points; the
    conditions on classes are ``_anti_ideal_laws`` (the class product is a
    congruence).  ``order.monotone_search`` builds only monotone maps, so
    the laws that list omits, which every monotone map obeys, would prune
    nothing: the maps and the nodes tried are those of the full list.  It
    checks each law once its classes are assigned and raises CapExceeded
    past ``caps.search_budget()`` values tried.  Into Omega it is the oracle
    of ``idempotent_points``, which reads the same points with no search.
    """
    if mode not in ("monoid", "semiring"):
        raise ValueError(f"unknown anti-ideal mode {mode!r}")
    if not quantale.two_sided:
        raise NotTwoSided("anti-ideals are valued in two-sided quantales")
    if mode == "semiring" and not data.has_addition:
        raise LawViolation("additive structure", "monoid-only data")
    classes = data.classes
    laws = [(scope, test) for _, scope, test in _anti_ideal_laws(data, classes, quantale, mode)]
    maps = monotone_search(classes.order, quantale.carrier, laws, caps.search_budget(), "anti-ideal enumeration")
    return AntiIdealSet(tuple(sorted(tuple(g[c] for c in classes.cls_of) for g in maps)))


def idempotent_points(data, mode):
    """The Omega-valued prime anti-ideals in ``mode``, as point masks in the
    order ``anti_ideals`` lists their value tuples, found with no search.

    Theorem: they are the up-sets of the idempotent classes p, in semiring
    mode those whose complement holds the zero's class and is sum-closed.
    Proof: G is monotone on the classes, so F = {c : G(c) = 1} is an up-set
    holding the class of one, with ce in F iff c and e are.  As ce <= c and
    the product is monotone, the product p of F is in F and below each member:
    F = up(p), p <= pp <= p.  Conversely, xy >= p iff x, y >= p, as pp = p
    and xy <= x.  Additivity binds only outside F, a down-set of points, so
    at its maximal points, as addition is monotone.  This is the
    finite semilattice decomposition of a commutative semigroup (Tamura and
    Kimura 1954; Clifford and Preston 1961)."""
    classes, pts = data.classes, data.locale.points
    order, cls_of = classes.order, classes.cls_of

    def is_point(p):
        # the sums of the top classes, ORed, leave ``out`` iff one of them does
        out = order.full & ~order.up[p]
        if not out >> cls_of[data.zero_point] & 1:
            return False
        tops = {cls_of[x] for x in pts.maximal(classes.points(out))}
        summed = 0
        for c in tops:
            row = classes.sums[c]
            for e in tops:
                summed |= row[e]
        return not summed & ~out

    ups = [order.up[p] for p in range(order.n) if classes.mul_t[p][p] == p and (mode == "monoid" or is_point(p))]
    # the n binary digits of m, bit 0 first, sort as the list of its n bits
    return tuple(sorted(map(classes.points, ups), key=lambda m: format(m, f"0{pts.n}b")[::-1]))


def element_of_map(quantale, locale, g):
    """The bi-ideal of Q (x) opens determined by a monotone map g on points:
    the pairs (q, U) with q below the meet of g over U."""
    q_lat = quantale.carrier
    space = TensorSpace((q_lat, locale.opens))
    mask = 0
    for u, umask in enumerate(locale.open_masks):
        m = q_lat.meet_iter(g[p] for p in bits(umask))
        for q in bits(q_lat.down[m]):
            mask |= 1 << space.index_of((q, u))
    return TensorElement(space, mask)


def map_of_element(locale, elem):
    """Inverse of element_of_map: evaluate fibers at minimal opens."""
    return tuple(
        elem.fiber_join(0, (locale.minimal_open_at(x),))
        for x in range(locale.points.n)
    )


# ---------------------------------------------------------------------------
# universal element and the radical frame


def _prime_at_generators(data, quantale, g, mode):
    """Whether the monotone class map ``g`` obeys every law of
    ``_anti_ideal_laws``, read as ``_checked_universal`` says: the unit, in
    semiring mode the zero, multiplicativity at the classes of the
    multiplicative generators, and additivity on every pair of classes, in
    one loop with no closure built."""
    classes, q_lat = data.classes, quantale.carrier
    cls_of, q_mul, q_up = classes.cls_of, quantale.mult_t, q_lat.up
    if g[cls_of[data.one_point]] != quantale.unit:
        return False
    if mode == "semiring" and g[cls_of[data.zero_point]] != q_lat.bottom:
        return False
    for c in {cls_of[x] for x in data.mul_monoid.generators}:
        times = q_mul[g[c]]
        if [times[v] for v in g] != [g[ce] for ce in classes.mul_t[c]]:
            return False
    if mode == "semiring":
        down = classes.order.down
        for c, srow in enumerate(classes.sums):
            joins, out = q_lat.join_t[g[c]], ~down[c]
            for e in range(c, len(srow)):
                for s in bits(srow[e] & out & ~down[e]):
                    if not q_up[g[s]] >> joins[g[e]] & 1:
                        return False
    return True


def _checked_universal(data, quantale, masks, g, mode):
    """The universal element g into the quantic spectrum ``quantale``, whose
    elements have the point masks ``masks``, checked.  Read at one member of
    each class, g must be monotone on the class order, as
    ``_anti_ideal_laws`` assumes; that is read on the lower covers, which
    generate the order.  Then g(x), the down-set of the class of x by
    ``_class_quantale``, must be the least element holding the point x,
    found independently as the intersection of the elements that hold x;
    the elements are unions of classes, so g is constant on the classes.
    Last, g is a prime anti-ideal in ``mode``: ``_prime_at_generators``
    reads the laws of ``_anti_ideal_laws`` with multiplicativity only at
    the classes of the generators of the multiplicative monoid.

    Theorem: a monotone map G of classes with G(one) = 1 is multiplicative
    when G(ce) = G(c)G(e) for each such class c and every class e.  Proof
    (Light's argument, as in ``algebra._check_comm_monoid``): the classes c
    with G(ce) = G(c)G(e) for every e hold the class of one, as 1 is the
    unit, and are closed under the class product: for c and c' among them,
    G(cc'e) = G(c)G(c'e) = G(c)G(c')G(e) = G(cc')G(e).  The point to class
    map is an onto monoid map, so the classes of the generators, with that
    of one, generate the class monoid, and every class is among them.

    When a check fails, its full scan runs: every comparable pair of
    classes, or every law of ``_anti_ideal_laws`` in order.  So a failure
    raises LawViolation naming the same two classes, point, or classes of
    the failing law as the full scans would."""
    classes = data.classes
    names, q_up = classes.order.names, quantale.carrier.up
    on_classes = [g[(m & -m).bit_length() - 1] for m in classes.members]
    lower_covers = classes.order.search_rows()[1]
    if not all(q_up[on_classes[c]] >> on_classes[d] & 1 for d, below in enumerate(lower_covers) for c in below):
        for c, above in enumerate(classes.order.up):
            for d in bits(above):
                if not q_up[on_classes[c]] >> on_classes[d] & 1:
                    raise LawViolation("universal element is monotone", (names[c], names[d]))
    pts = data.locale.points
    pos = {m: k for k, m in enumerate(masks)}
    # one pass over the members of each element, not a test of every pair
    least = [pts.full] * pts.n
    for m in masks:
        for x in bits(m):
            least[x] &= m
    for x in range(pts.n):
        if pos.get(least[x]) != g[x]:
            raise LawViolation("universal element is the least ideal at each point", pts.names[x])
    if not _prime_at_generators(data, quantale, on_classes, mode):
        for name, scope, test in _anti_ideal_laws(data, classes, quantale, mode):
            if not test(on_classes):
                raise LawViolation(f"universal element {name}", tuple(names[c] for c in bits(scope)))
    return g


def universal_element(data, iq):
    """The universal element of Idl(R) (x) O R, as a monotone map
    points -> Idl(R): ``iq.universal_map``, x -> the down-set of its class,
    checked as ``_checked_universal`` says.  Its bi-ideal form needs the
    opens; ``opens_oracle`` builds it and checks that the two forms agree.
    """
    return _checked_universal(data, iq.ideals, iq.ideal_masks, iq.universal_map, "semiring")


SpectrumResult = namedtuple(
    "SpectrumResult",
    [
        "data",  # the LocalicSemiringData
        "ideal_data",  # IdealQuantaleData or MonoidIdealData
        "ideals",  # the quantic spectrum, Idl(R) or MM(R)
        "radicals",  # Rad(R), a frame
        "universal_map",
        "points",  # open masks of the prime anti-ideals
        "point_poset",  # a FinitePoset
    ],
)


def radical_frame(data, caps=DEFAULT_CAPS):
    """The quantic spectrum, its localic reflection Rad(R), the universal
    element, and the points of the spectrum (prime anti-ideals, as opens of
    R), by the same steps for a semiring and for a monoid.

    The quantic spectrum is Idl(R) (``ideal_quantale``) when ``data`` has
    addition, else MM(R) (``monoid_ideal_quantale``), both read off the
    holoid classes; the universal element is checked by
    ``_checked_universal`` in the matching mode.  For a semiring no table
    here is larger than Idl(R), whatever the number of saturated opens.

    Rad(R), the localic reflection, is the frame of the semiprime p, with
    a*a <= p implying a <= p (``quantale.localic_reflection``).  Each element
    is a join of principal ideals and (x)(x) = (x*x), so they are the listed
    masks that hold x whenever they hold x*x.  If all are, Rad(R) is the
    quantic spectrum, checked to be a frame.

    The points, read off the idempotent classes (``idempotent_points``),
    are checked against Rad(R): a finite frame's points are its meet-prime
    p, the anti-ideal of p is {x : g(x) not <= p} (Rad(R) is the closure's
    image), and the lists must agree, or LawViolation names a point on one
    side only."""
    if data.has_addition:
        ideal_data, mode = ideal_quantale(data, caps), "semiring"
        quantic, g = ideal_data.ideals, universal_element(data, ideal_data)
    else:
        ideal_data, mode = monoid_ideal_quantale(data, caps), "monoid"
        quantic = ideal_data.monoid_ideals
        g = _checked_universal(data, quantic, ideal_data.ideal_masks, ideal_data.universal_map, mode)
    listed, pts = ideal_data.ideal_masks, data.locale.points
    squares = [(x, row[x]) for x, row in enumerate(data.mul_t) if row[x] != x]
    kept = [m for m in listed if all(m >> x & 1 or not m >> xx & 1 for x, xx in squares)]
    if len(kept) < len(listed):
        radicals = frame_quantale(family_lattice(kept, map(pts.mask_name, kept), caps))
    elif quantic.is_frame():
        radicals = quantic
    else:
        raise LawViolation("localic reflection is a frame", repr(quantic))
    masks, rad = idempotent_points(data, mode), radicals.carrier
    held = [listed[v] for v in g]
    # in a frame the meet-primes are the meet-irreducibles, the elements
    # that are not the meet of the elements strictly above them
    from_primes = sorted(
        sum(1 << x for x, h in enumerate(held) if h & ~kept[p])
        for p in range(rad.n)
        if rad.meet_iter(bits(rad.up[p] ^ 1 << p)) != p
    )
    if from_primes != sorted(masks):
        # a mask on one side only, else one that two primes share
        witness = min(set(from_primes) ^ set(masks), default=None)
        if witness is None:
            witness = max(from_primes, key=from_primes.count)
        raise LawViolation("points of Rad(R) are the prime anti-ideals", pts.mask_name(witness))
    point_poset = FinitePoset([pts.mask_name(m) for m in masks], inclusion_up_sets(masks))
    return SpectrumResult(data, ideal_data, quantic, radicals, g, masks, point_poset)


# ---------------------------------------------------------------------------
# the opens oracle


OpensCheck = namedtuple(
    "OpensCheck",
    [
        "monoid",  # the MonoidIdealData
        "closure",  # ClosureOperator onto the saturated opens: U -> {x : exists y, xy in U}
        "universal",  # TensorElement, bi-ideal form in Q (x) opens, Q = Idl(R) or MM(R)
    ],
)


def _counit_composite(data, table, unit_point):
    """(id (x) point-evaluation of the unit) o comultiplication, as a
    SupMap on opens: U -> {x : table[x][unit] in U}."""
    loc = data.locale
    values = []
    for m in loc.open_masks:
        out = 0
        for x in range(loc.points.n):
            if m >> table[x][unit_point] & 1:
                out |= 1 << x
        values.append(loc.open_index[out])
    return SupMap(loc.opens, loc.opens, values)


def opens_oracle(data, caps=DEFAULT_CAPS):
    """Every check that walks the whole frame of opens, which the pipeline
    itself never builds.

    On the opens of ``data.locale`` it checks, in this order:

    * overtness: positivity is left adjoint to !: Omega -> opens;
    * the counit laws as SupMap equalities on the opens;
    * the fixed points of U -> {x : exists y, xy in U} are exactly the
      saturated opens that ``saturation`` reads off the preorder on points,
      and the map is the ``ClosureOperator`` onto them.  A map is a closure
      operator exactly when it is the closure onto its own fixed points,
      and then its corestriction is left adjoint to the inclusion;
    * a down-set is a monoid ideal (fixed by absorption) exactly when its
      complement is a saturated open, and the unit of MM(R) is the
      complement of the bottom saturated open;
    * for a semiring, the principal monoid ideals collapse onto the
      universal element of the class route;
    * the universal element in bi-ideal form, carried from the unit of the
      dual basis of the saturated frame into Q (x) opens (Q = Idl(R) for a
      semiring, MM(R) for a monoid), agrees with the map form the pipeline
      computes.

    The opens are capped as ``FiniteLocale.opens`` says, and CapExceeded is
    raised before any of their tables is built.  A failed check raises
    LawViolation with a witness.
    """
    loc = data.locale
    pts = loc.points
    opens = loc.opens
    bang = SupMap(omega(), opens, [opens.bottom, opens.top])
    for a in range(opens.n):
        for p in range(2):
            if (loc.positivity(a) <= p) != opens.leq(a, bang(p)):
                raise LawViolation("positivity adjunction", (opens.names[a], p))
    ident = SupMap.identity(opens)
    counits = [("mul", data.mul_t, data.one_point)]
    if data.has_addition:
        counits.append(("add", data.add_t, data.zero_point))
    for law, table, unit in counits:
        composite = _counit_composite(data, table, unit)
        if composite != ident:
            witness = next(a for a in range(opens.n) if composite(a) != a)
            raise LawViolation(f"{law} counit on opens", opens.names[witness])

    sat = saturation(data, caps)
    values = []
    for mask in loc.open_masks:
        closed = 0
        for x in range(pts.n):
            row = data.mul_t[x]
            if any(mask >> row[y] & 1 for y in range(pts.n)):
                closed |= 1 << x
        values.append(loc.open_index[closed])
    fixed = [u for u, v in enumerate(values) if v == u]
    fixed_masks = tuple(loc.open_masks[i] for i in fixed)
    if fixed_masks != sat.sat_masks:
        witness = min(set(fixed_masks) ^ set(sat.sat_masks))
        raise LawViolation("saturated opens are the closure's fixed points", pts.mask_name(witness))
    closure = ClosureOperator(opens, sum(1 << u for u in fixed))
    if closure.values != tuple(values):
        witness = next(u for u, v in enumerate(values) if closure.values[u] != v)
        raise LawViolation("saturation is a closure", opens.names[witness])
    saturated = sat.saturated
    embed = SupMap(saturated, opens, fixed)

    full = pts.full
    sat_set = set(sat.sat_masks)
    for u in loc.open_masks:
        if (_absorb(data, full ^ u) == full ^ u) != (u in sat_set):
            raise LawViolation(
                "monoid ideals are the complements of the saturated opens", pts.mask_name(full ^ u)
            )
    mi = monoid_ideal_quantale(data, caps)
    mm = mi.monoid_ideals
    if full ^ mi.ideal_masks[mm.unit] != sat.sat_masks[saturated.bottom]:
        raise LawViolation("monoid-ideal/saturated duality", mm.carrier.names[mm.unit])

    basis = dual_basis(saturated, caps)
    if data.has_addition:
        # the principal monoid ideals collapse onto the class route's
        # universal element
        iq = ideal_quantale(data, caps)
        q, collapse = iq.ideals, monoid_collapse(data, iq, mi)
        g = _checked_universal(data, q, iq.ideal_masks, tuple(map(collapse, mi.universal_map)), "semiring")
        for x, v in enumerate(iq.universal_map):
            if g[x] != v:
                raise LawViolation("universal element through the monoid ideals", pts.names[x])
    else:
        q, collapse, g = mm, (lambda k: k), mi.universal_map
    mm_pos = {m: k for k, m in enumerate(mi.ideal_masks)}
    universal = basis.unit_element.map_through(
        (lambda c: collapse(mm_pos[full ^ sat.sat_masks[c]]), embed),
        TensorSpace((q.carrier, opens)),
    )
    if map_of_element(loc, universal) != g or element_of_map(q, loc, g) != universal:
        raise LawViolation("universal element map form", tuple(q.carrier.names[v] for v in g))
    return OpensCheck(mi, closure, universal)


# ---------------------------------------------------------------------------
# the saturated replacement of a localic monoid


def saturated_replacement(data, caps=DEFAULT_CAPS):
    """The localic monoid on the saturated frame, with the coreflected
    comultiplication extracted as a point-level operation.

    The saturated frame is the up-set frame of the checked class order
    (``data.classes``), so its points, the join-irreducible saturated opens,
    are the principal up-sets of the classes, and the coreflected
    comultiplication is the holoid quotient monoid.  The replacement is that
    monoid, built and validated here, on the class order.  Its own checked
    holoid classes must be the singletons, with the input's class order and
    product, or LawViolation names the first class where they are not; then
    its anti-ideals, searched on those classes, are the input's.  Returns
    (monoid data, point masks): the mask of class c is the points of the
    classes above c, the saturated open it stands for, for transporting
    anti-ideals along the inclusion.
    """
    classes = data.classes
    quotient = FiniteCommMonoid(classes.order.names, classes.cls_of[data.one_point], classes.mul_t)
    replacement = to_localic(quotient, classes.order, caps, f"saturated({data.name})")
    own = replacement.classes
    for c in range(classes.order.n):
        if own.cls_of[c] != c or own.order.up[c] != classes.order.up[c] or own.mul_t[c] != classes.mul_t[c]:
            raise LawViolation("saturated replacement is saturated", classes.order.names[c])
    return replacement, tuple(classes.points(u) for u in classes.order.up)


# ---------------------------------------------------------------------------
# representability


class RepresentabilityEntry(
    namedtuple(
        "RepresentabilityEntry",
        "quantale_name hom_count member_count all_images_members injective surjective",
    )
):
    __slots__ = ()

    def failure(self):
        """The first field that fails, or None."""
        if self.hom_count != self.member_count:
            return f"hom_count {self.hom_count} != member_count {self.member_count}"
        fields = ("all_images_members", "injective", "surjective")
        return next((field for field in fields if not getattr(self, field)), None)


def _entry(name, homs, value, universal, members):
    """The entry of one quantale: the images of the universal element under
    ``homs``, read by ``value``, against the enumerated anti-ideals
    ``members``."""
    images = [tuple(value(f, v) for v in universal) for f in homs]
    got, want = set(images), set(members.maps)
    return RepresentabilityEntry(
        name, len(homs), len(members.maps), got <= want, len(got) == len(images), got == want
    )


class RepresentabilityReport(namedtuple("RepresentabilityReport", "semiring_entries monoid_entries")):
    __slots__ = ()

    def failure(self):
        """The first failing entry, as "kind quantale: field" (kind semiring
        or monoid), or None."""
        for kind, entries in (("semiring", self.semiring_entries), ("monoid", self.monoid_entries)):
            for e in entries:
                field = e.failure()
                if field is not None:
                    return f"{kind} {e.quantale_name}: {field}"
        return None

    def ok(self):
        return self.failure() is None


def representability_check(data, quantale_catalog, caps=DEFAULT_CAPS):
    """Verify that homs out of Idl(R) (resp. the monoid ideals) classify
    semiring (resp. monoid) anti-ideals, for every quantale in the catalog.

    Each hom f, held on the join-irreducibles of its source, is sent to
    (f (x) id)(universal element), read by ``suplattice.j_evaluator`` at the
    universal element's values; the report records, per target quantale,
    that every image is an anti-ideal, that the map is injective, and that
    it is onto the enumerated anti-ideals.  Both universal elements and the
    saturated replacement come from the holoid classes, so neither the
    saturated frame nor its dual basis is built.

    The Yoneda instance (the universal element is an anti-ideal into Idl(R))
    and invariance under the saturated replacement are decided once, by
    ``universal_element`` and ``saturated_replacement``, which raise
    LawViolation if they fail; no anti-ideal search is run on either.
    """
    iq = ideal_quantale(data, caps)
    g_univ = universal_element(data, iq)
    mi = monoid_ideal_quantale(data, caps)
    saturated_replacement(data, caps)
    sides = (("semiring", iq.ideals, g_univ), ("monoid", mi.monoid_ideals, mi.universal_map))
    entries = {mode: [] for mode, _, _ in sides}
    for name, q in quantale_catalog:
        for mode, source, universal in sides:
            homs = enumerate_homs(source, q, caps)
            members = anti_ideals(data, q, mode, caps)
            entries[mode].append(_entry(name, homs, j_evaluator(source.carrier, q.carrier), universal, members))
    return RepresentabilityReport(entries["semiring"], entries["monoid"])


# ---------------------------------------------------------------------------
# dualisability conditions


class DualisabilityReport(
    namedtuple(
        "DualisabilityReport",
        [
            "basis_exists",  # saturated frame admits a dual basis
            "family_reconstructs",  # the basis families reconstruct saturated opens
            "pointwise_bound",  # u <= join of pi(V) over V meeting u, all opens
            "opens_supercontinuous",
        ],
    )
):
    __slots__ = ()

    def agree(self):
        return self.basis_exists == self.family_reconstructs == self.pointwise_bound


def dualisability_conditions(data, caps=DEFAULT_CAPS):
    """The three equivalent dualisability conditions, checked independently.

    pi(V) is the meet of the saturated opens met by V; the pointwise bound
    requires every open u below the join of pi(V) over the sublocales V
    meeting it.  pi is antitone in V, and a down-set V meeting u holds the
    principal down-set of some point x of u, which meets u too; so that join
    is the join of pi(down x) over the points x of u, and the bound is
    walked over opens and points, never over the down-sets.  The family
    condition uses the dual-basis families (irreducible saturated opens
    paired with the complements of their dual encodings).  The opens are
    supercontinuous when ``supercontinuity_witness``, the test of
    ``dual_basis``, finds no witness; no dual basis of them is built.
    On finite carriers all three hold whenever they are well-posed; the
    value is that each is computed from its own definition.
    """
    sat = saturation(data, caps)
    pts = data.locale.points
    loc = data.locale
    # pi at the principal down-set of each point
    pi = []
    for v in pts.down:
        acc = pts.full
        for s in sat.sat_masks:
            if v & s:
                acc &= s
        pi.append(acc)
    pointwise_bound = True
    for u in loc.open_masks:
        cover = 0
        for x in bits(u):
            cover |= pi[x]
        if u & ~cover:
            pointwise_bound = False
            break
    try:
        basis = dual_basis(sat.saturated, caps)
        basis_exists = True
    except NotSupercontinuous:
        basis_exists = False
        basis = None
    family_reconstructs = False
    if basis is not None:
        full = pts.full
        family_reconstructs = True
        for s_mask in sat.sat_masks:
            rebuilt = 0
            for k, p in enumerate(basis.irreducibles):
                w_mask = full ^ sat.sat_masks[basis.sigma_encodings[k]]
                if w_mask & s_mask:
                    rebuilt |= sat.sat_masks[p]
            if rebuilt != s_mask:
                family_reconstructs = False
                break
    opens_supercontinuous = supercontinuity_witness(loc.opens) is None
    report = DualisabilityReport(
        basis_exists, family_reconstructs, pointwise_bound, opens_supercontinuous
    )
    if opens_supercontinuous and not basis_exists:
        raise LawViolation("supercontinuous opens give a dualisable saturated frame", data.name)
    return report
