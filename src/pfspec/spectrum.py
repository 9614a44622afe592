"""The spectrum pipeline for finite localic semirings.

The main path, ``radical_frame``, runs on the holoid classes of the points:
the classes of mutual divisibility up to the point order, in their order
(``algebra.holoid_quotient``).  It builds neither the frame of opens (up to
2**|points| elements) nor the saturated frame and MM(R) (one element per
down-set of the classes):

* the quantale Idl(R) of ideals, on the fixed points of a closure on sets
  of classes listed by NextClosure, with the convolution product closed up;
  the radical frame is its localic reflection,
* the universal element, x -> the least ideal holding x, and
  quantale-valued prime anti-ideals, checked against the points of Rad(R).

The paper's other objects are built where something reads them: by the
monoid-kind spectrum, representability, dualisability and the opens oracle:

* the frame of saturated opens, the up-sets of the preorder generated by
  the point order and xy <= x,
* the quantale MM(R) of monoid ideals, read off the saturated opens as their
  complements, with the convolution product, and its duality with the
  saturated opens (the all-down-sets quantale of overt weakly closed
  sublocales and its two-sided reflection are the test oracle); Idl(R) is
  its quotient by the least nucleus forcing the zero to the bottom and sums
  below joins, reached by ``monoid_collapse`` (the tests build that quotient
  as the oracle of the class route),
* the universal element transported from the dual basis of the saturated
  frame, which must collapse onto the class route's,
* representability and dualisability reports.

Elements of Q (x) O X are worked with as monotone maps X -> Q.  Every check
that needs the opens themselves sits in ``opens_oracle``, which builds them
under the caps: the overtness and counit laws, saturation as a closure on
the opens, the complements of the saturated opens, and the bi-ideal form of
the universal element (a TensorElement), cross-checked with the map form;
the two agree because the principal up-sets are join-prime in an up-set
frame.  ``pfspec verify`` and the tests run it.
"""

from dataclasses import dataclass
from functools import cache
from itertools import chain, product as iproduct
from operator import or_

from .algebra import FiniteCommMonoid, LocalicSemiringData, holoid_quotient
from .caps import DEFAULT_CAPS
from .errors import CapExceeded, LawViolation, NotSupercontinuous, NotTwoSided
from .locale import locale_from_frame
from .order import (
    ClosureOperator,
    FinitePoset,
    Lattice,
    bits,
    family_lattice,
    monotone_search,
)
from .quantale import (
    Quantale,
    QuantaleHom,
    enumerate_homs,
    frame_quantale,
    localic_reflection,
)
from .suplattice import (
    SupMap,
    TensorElement,
    TensorSpace,
    dual_basis,
    omega,
)

@cache
def omega_quantale():
    return frame_quantale(omega())


# ---------------------------------------------------------------------------
# saturation


@dataclass
class SaturationData:
    data: LocalicSemiringData
    saturated: Lattice  # standalone frame of saturated opens
    sat_masks: tuple  # point-mask of each saturated open


def saturation(data, caps=DEFAULT_CAPS):
    """The frame of saturated opens, read off a preorder on the points.

    An open U is saturated when xy in U implies x in U, so the saturated
    opens are the up-sets of the preorder generated by the point order and
    xy <= x, which puts f below g when f <= g.k for some k.  Its poset
    reflection is the holoid quotient; the reflection's up-sets, pulled back
    to the points, are the saturated opens, sorted by (size, mask) as the
    opens are.  Each of them is checked to be preserved by the
    comultiplication, (xz)(yw) in s implies xy in s, on every input, through
    the equivalent xy in s implies x in s (``_comultiplication_witness``).
    The opens themselves are never built: ``opens_oracle`` compares these
    masks with the fixed points of the closure U -> {x : exists y, xy in U}
    on them.
    """
    pts = data.locale.points
    cls_of, order, ups = _holoid_up_sets(data, caps)
    members = [0] * order.n
    for x, c in enumerate(cls_of):
        members[c] |= 1 << x
    masks = sorted(
        (sum(members[c] for c in bits(u)) for u in ups), key=lambda m: (m.bit_count(), m)
    )
    saturated = family_lattice(masks, [pts.mask_name(m) for m in masks])
    # family_lattice already forces the subframe property: it indexes the
    # union and intersection of every pair of saturated masks
    witness = _comultiplication_witness(data, masks)
    if witness is not None:
        mask, *xyzw = witness
        raise LawViolation(
            "comultiplication preserves saturation",
            (pts.mask_name(mask), *(pts.names[p] for p in xyzw)),
        )
    return SaturationData(data, saturated, tuple(masks))


def _holoid_up_sets(data, caps):
    """The holoid class of each point, the holoid order and its up-sets, as
    class masks; CapExceeded past ``caps.search_budget()`` of them."""
    _, cls_of, order = holoid_quotient(data.mul_monoid, data.locale.points)
    budget = caps.search_budget()
    ups = order.up_sets(limit=budget)
    if ups is None:
        raise CapExceeded("saturated opens enumeration", f">{budget}", budget)
    return cls_of, order, ups


def count_saturated_opens(data, caps=DEFAULT_CAPS):
    """The number of saturated opens, which is also the number of monoid
    ideals (their complements): the up-sets of the holoid order, counted
    without tabulating the frame."""
    return len(_holoid_up_sets(data, caps)[2])


def is_deflationary(data):
    """Whether xy <= x for all points, so that every open is saturated."""
    pts = data.locale.points
    return all(pts.leq(data.mul(x, y), x) for x, y in iproduct(range(pts.n), repeat=2))


def _comultiplication_witness(data, masks):
    """The first mask s, in order, with the first points (x, y, z, w) such
    that (xz)(yw) is in s and xy is not, or None if every s obeys that law.

    Given the monoid laws, s obeys it exactly when xy in s implies x in s:
    (xz)(yw) = (xy)(zw) gives one direction, z = y = 1 the other.  That law
    is evaluated for all masks at once, on bitmasks over their indices:
    member[t] holds the k with t in masks[k], and mask k fails at (x, y)
    when member[xy] holds k and member[x] does not, n^2 steps whatever the
    number of masks.  The witness is searched literally, over quadruples, in
    the first failing mask only."""
    n = data.locale.points.n
    mul_t = data.mul_t
    member = [0] * n
    for k, s in enumerate(masks):
        for t in bits(s):
            member[t] |= 1 << k
    bad = 0
    for x, row in enumerate(mul_t):
        hit = 0
        for xy in row:
            hit |= member[xy]
        bad |= hit & ~member[x]
    if not bad:
        return None
    s = masks[(bad & -bad).bit_length() - 1]
    return s, *next(
        (x, y, z, w)
        for x, y, z, w in iproduct(range(n), repeat=4)
        if s >> mul_t[mul_t[x][z]][mul_t[y][w]] & 1 and not s >> mul_t[x][y] & 1
    )


# ---------------------------------------------------------------------------
# monoid ideals


def _owc_binop(points, masks, table):
    """Lift a monotone point operation to down-sets: V op W is the
    down-closure of the pointwise image.  Returns the table of result masks
    over ``masks``.

    The lift preserves unions in each argument, and a down-set is the union
    of the principal down-sets of its maximal points.  So V op W is the union,
    over the maximal v of V, of per_point[v][W], the union of down(v op w)
    over the maximal w of W: n point rows over ``masks``, then ORs of rows."""
    maximals = [points.maximal(m) for m in masks]
    per_point = {}
    for v in {v for mv in maximals for v in mv}:
        dv = [points.down[t] for t in table[v]]
        row = []
        for mw in maximals:
            acc = 0
            for w in mw:
                acc |= dv[w]
            row.append(acc)
        per_point[v] = row
    out = []
    for mv in maximals:
        row = (0,) * len(masks)
        for v in mv:
            row = tuple(map(or_, row, per_point[v]))
        out.append(row)
    return tuple(out)


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


@dataclass
class DualityReport:
    unit_matches: bool
    mult_transported: bool
    mult_witness: object = None

    def ok(self):
        return self.unit_matches and self.mult_transported


@dataclass
class MonoidIdealData:
    sat: SaturationData
    monoid_ideals: Quantale  # MM(R)
    ideal_masks: tuple  # point-mask of each monoid ideal
    duality: DualityReport

    @property
    def owc_lattice(self):
        # the only down-sets this stage materialises; read by bench/spans.py
        return self.monoid_ideals.carrier


def monoid_ideal_quantale(data, caps=DEFAULT_CAPS):
    """The quantale MM(R) of monoid ideals and its duality with saturated
    opens.

    The monoid ideals are read off the saturated opens: they are their
    complements, a family closed under union and intersection.  The product
    is the convolution product (down-closure of the pointwise product) and
    the unit is the top, the absorption of the unit point's closure.  Each
    product is looked up among the monoid ideals, and a miss raises; so the
    raw product is in the family, and its complement is the largest
    saturated open avoiding it.  The duality check confirms the unit, and
    the multiplication transport by checking once per monoid ideal that it
    is the least monoid ideal over itself (``_absorb``), which with the
    lookup makes the transport exact.  That every down-set fixed by
    a -> a.top is the complement of a saturated open needs all the opens;
    ``opens_oracle`` checks it.  The all-down-sets OWC quantale and its
    two-sided reflection give the same quantale; the tests use them as the
    oracle.
    """
    sat = saturation(data, caps)
    pts = data.locale.points
    full = pts.full
    ideal_masks = sorted((full ^ s for s in sat.sat_masks), key=lambda m: (m.bit_count(), m))
    pos = {m: k for k, m in enumerate(ideal_masks)}
    lat = family_lattice(ideal_masks, [pts.mask_name(m) for m in ideal_masks])
    products = _owc_binop(pts, ideal_masks, data.mul_t)
    mult = []
    for i, row in enumerate(products):
        for j, m in enumerate(row):
            if m not in pos:
                raise LawViolation("product of monoid ideals", (lat.names[i], lat.names[j]))
        mult.append([pos[m] for m in row])
    ideals_q = Quantale(lat, mult, lat.top)

    # duality with the saturated frame
    unit_matches = full ^ ideal_masks[ideals_q.unit] == sat.sat_masks[sat.saturated.bottom]
    mult_witness = next(
        (lat.names[k] for k, m in enumerate(ideal_masks) if _absorb(data, m) != m), None
    )
    report = DualityReport(unit_matches, mult_witness is None, mult_witness)
    if not report.ok():
        raise LawViolation("monoid-ideal/saturated duality", report)
    return MonoidIdealData(sat, ideals_q, tuple(ideal_masks), report)


# ---------------------------------------------------------------------------
# the ideal quantale


class HoloidClosure:
    """The least ideal over a set of holoid classes, on class bitmasks.

    The classes and their order are those of ``holoid_quotient`` with the
    point order, and the monoid ideals are the unions of down-sets of
    classes.  That is checked here on every input, point by point: the
    classes below the class of x make up ``_absorb`` of the down-set of x.
    An ideal is then such a union that holds the zero's class and, with any
    classes c and e, every class of a sum x + y for x in c and y in e.  The
    sum rows ``sums[c][e]`` hold those classes, read off the addition table
    once; ``close`` adds down-closures and sum rows until nothing changes.
    """

    def __init__(self, data):
        pts = data.locale.points
        _, cls_of, order = holoid_quotient(data.mul_monoid, pts)
        k = order.n
        members = [0] * k
        for x, c in enumerate(cls_of):
            members[c] |= 1 << x
        for x, c in enumerate(cls_of):
            below = 0
            for e in bits(order.down[c]):
                below |= members[e]
            if below != _absorb(data, pts.down[x]):
                raise LawViolation("holoid classes give the principal monoid ideals", pts.names[x])
        sums = [[0] * k for _ in range(k)]
        for x, row in enumerate(data.add_t):
            srow = sums[cls_of[x]]
            for y, s in enumerate(row):
                srow[cls_of[y]] |= 1 << cls_of[s]
        self.n = k
        self.cls_of = tuple(cls_of)
        self.members = tuple(members)
        self.down = order.down
        self.sums = sums
        self.bottom = self.close(0, 1 << cls_of[data.zero_point])

    def close(self, closed, extra):
        """The least set over closed v extra that is down-closed and closed
        under the sum rows, for ``closed`` already so (a fixed point of j,
        or 0): only the classes not yet in the set are down-closed and
        summed, against the whole set."""
        down, sums = self.down, self.sums
        new = extra & ~closed
        while new:
            grown = 0
            for c in bits(new):
                grown |= down[c]
            new = grown & ~closed
            closed |= new
            inside = list(bits(closed))
            grown = 0
            for c in bits(new):
                row = sums[c]
                for e in inside:
                    grown |= row[e]
            new = grown & ~closed
        return closed

    def least(self, point_mask):
        """j of the classes of the points of ``point_mask``: the least ideal
        holding them, as a class mask."""
        classes = 0
        for x in bits(point_mask):
            classes |= 1 << self.cls_of[x]
        return self.close(self.bottom, classes)

    def points(self, class_mask):
        out = 0
        for c in bits(class_mask):
            out |= self.members[c]
        return out


def _fixed_class_masks(j, caps):
    """The fixed points of j, in lectic order (NextClosure: Ganter, "Two
    basic algorithms in concept analysis", 1984).

    From a fixed point a, the next one is j(a below i, plus i) for the
    largest i not in a whose closure adds nothing below i.  A class whose
    down-closure already adds something below i is passed over without a
    closure.  Every class tried, closed or passed over, counts against
    ``caps.search_budget()``, and past it CapExceeded("ideal enumeration",
    ...) is raised; so the loop ends within the budget whatever j does."""
    budget = caps.search_budget()
    full = (1 << j.n) - 1
    a = j.bottom
    found = [a]
    tried = 0
    while a != full:
        for i in reversed(range(j.n)):
            if a >> i & 1:
                continue
            tried += 1
            if tried > budget:
                raise CapExceeded("ideal enumeration", tried, budget)
            low = (1 << i) - 1
            kept = a & low
            if j.down[i] & low & ~kept:
                continue
            # a is closed, so when nothing of it lies above i the closure
            # can start from it
            b = j.close(a if kept == a else j.bottom, kept | 1 << i)
            if b & low == kept:
                a = b
                break
        found.append(a)
    return found


def _ideal_witness(data, masks):
    """The first mask that is not an ideal in the definitional sense (a
    monoid ideal, fixed by ``_absorb``, holding the zero point's closure and
    closed under sums), or None.  By monotone addition a down-set is closed
    under sums when it holds v + w for its maximal points v, w."""
    pts = data.locale.points
    zero = pts.down[data.zero_point]
    for m in masks:
        tops = pts.maximal(m)
        if (
            zero & ~m
            or _absorb(data, m) != m
            or any(not m >> data.add_t[v][w] & 1 for v in tops for w in tops)
        ):
            return m
    return None


@dataclass
class IdealQuantaleData:
    ideals: Quantale  # Idl(R)
    ideal_masks: tuple  # point-mask of each element of Idl(R)
    closure: HoloidClosure
    class_index: dict  # class mask of each element -> its index

    def ideal_of(self, point_mask):
        """Index of the least ideal holding the points of ``point_mask``."""
        return self.class_index[self.closure.least(point_mask)]


def ideal_quantale(data, caps=DEFAULT_CAPS):
    """The quantale Idl(R) of overt weakly closed ideals, on the holoid
    classes.

    The ideals are the fixed points of the closure j on sets of classes
    (``HoloidClosure``), listed by ``_fixed_class_masks`` and sorted by the
    (size, mask) of their point masks; each is checked to be an ideal in the
    definitional sense.  Meets are intersections and the join is j(a v b).
    The product is j of the convolution product (``_owc_binop``) and the
    unit is j(class of 1).  This is the quotient of MM(R) by the least
    nucleus forcing the zero to the bottom and I (+~) J below I v J, which
    the monoid-kind callers still build and reach with ``monoid_collapse``;
    neither the saturated frame nor MM(R) is built here.
    """
    if not data.has_addition:
        raise LawViolation("additive structure", "monoid-only data has no ideals")
    pts = data.locale.points
    j = HoloidClosure(data)
    found = sorted(
        ((j.points(c), c) for c in _fixed_class_masks(j, caps)),
        key=lambda mc: (mc[0].bit_count(), mc[0]),
    )
    masks = tuple(m for m, _ in found)
    witness = _ideal_witness(data, masks)
    if witness is not None:
        raise LawViolation("class closure gives ideals", pts.mask_name(witness))
    cmasks = [c for _, c in found]
    pos = {c: k for k, c in enumerate(cmasks)}
    n = len(cmasks)
    up = [sum(1 << b for b, cb in enumerate(cmasks) if ca & cb == ca) for ca in cmasks]
    join_t = [[None] * n for _ in range(n)]
    for a, ca in enumerate(cmasks):
        for b in range(a, n):
            union = ca | cmasks[b]
            join_t[a][b] = join_t[b][a] = pos[union] if union in pos else pos[j.close(ca, union)]
    meet_t = tuple(tuple(pos[ca & cb] for cb in cmasks) for ca in cmasks)
    lat = Lattice([pts.mask_name(m) for m in masks], up, tuple(map(tuple, join_t)), meet_t, 0, n - 1)
    products = _owc_binop(pts, masks, data.mul_t)
    index = {m: pos[j.least(m)] for m in set(chain.from_iterable(products))}
    mult = [[index[m] for m in row] for row in products]
    ideals = Quantale(lat, mult, pos[j.least(1 << data.one_point)])
    return IdealQuantaleData(ideals, masks, j, pos)


def monoid_collapse(iq, mi):
    """The quotient MM(R) ->> Idl(R), k -> j(mask k), as a QuantaleHom."""
    return QuantaleHom(mi.monoid_ideals, iq.ideals, [iq.ideal_of(m) for m in mi.ideal_masks])


# ---------------------------------------------------------------------------
# quantale-valued prime anti-ideals


@dataclass
class AntiIdealSet:
    maps: tuple  # monotone maps points -> Q, as value tuples


def anti_ideals(data, quantale, mode, caps=DEFAULT_CAPS):
    """All elements of Q (x) O R satisfying the prime anti-ideal conditions,
    as monotone maps g : points -> Q, in sorted order.

    The conditions are pointwise: g(one) = 1 and g(xy) = g(x)g(y); in
    semiring mode additionally g(zero) = 0 and g(x+y) <= g(x) v g(y).  For
    Q = Omega and a discrete semiring this is exactly: subsets u with 1 in u,
    0 not in u, xy in u iff x and y in u, and x+y in u implies x in u or
    y in u.  ``element_of_map`` gives the bi-ideal form of a map.

    ``order.monotone_search`` assigns the points along a linear extension
    and checks each law as soon as its points are assigned: the unit (and
    zero) at once, the laws for x, y once x, y and xy (or x+y) are.  It raises
    CapExceeded once it has tried more values than ``caps.search_budget()``.
    """
    if mode not in ("monoid", "semiring"):
        raise ValueError(f"unknown anti-ideal mode {mode!r}")
    if not quantale.two_sided:
        raise NotTwoSided("anti-ideals are valued in two-sided quantales")
    if mode == "semiring" and not data.has_addition:
        raise LawViolation("additive structure", "monoid-only data")
    pts = data.locale.points
    q_lat = quantale.carrier
    q_mul, q_join, q_up = quantale.mult_t, q_lat.join_t, q_lat.up
    one, zero = data.one_point, data.zero_point
    laws = [(1 << one, lambda g: g[one] == quantale.unit)]
    if mode == "semiring":
        laws.append((1 << zero, lambda g: g[zero] == q_lat.bottom))
    for x in range(pts.n):
        for y in range(x, pts.n):
            m = data.mul_t[x][y]
            laws.append(
                (1 << x | 1 << y | 1 << m, lambda g, x=x, y=y, m=m: q_mul[g[x]][g[y]] == g[m])
            )
            if mode == "semiring":
                s = data.add_t[x][y]
                laws.append(
                    (
                        1 << x | 1 << y | 1 << s,
                        lambda g, x=x, y=y, s=s: q_up[g[s]] >> q_join[g[x]][g[y]] & 1,
                    )
                )
    maps = monotone_search(pts, q_lat, laws, caps.search_budget(), "anti-ideal enumeration")
    return AntiIdealSet(tuple(sorted(maps)))


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


def _monoid_universal_map(data, mi, basis):
    """The universal element for the monoid case, in map form: points -> MM.

    From ``basis``, the dual basis of the saturated frame: x goes to the join
    of the monoid ideals dual to the irreducible saturated opens containing x
    (the complements of their dual encodings)."""
    sat = mi.sat
    pts = data.locale.points
    mm_pos = {m: k for k, m in enumerate(mi.ideal_masks)}
    pieces = [
        (sat.sat_masks[p], mm_pos[pts.full ^ sat.sat_masks[c]])
        for p, c in zip(basis.irreducibles, basis.sigma_encodings)
    ]
    join_iter = mi.monoid_ideals.carrier.join_iter
    return tuple(join_iter(k for r, k in pieces if r >> x & 1) for x in range(pts.n))


def _checked_universal(data, iq, g):
    """The universal element g, checked: g(x) is the least ideal containing
    the point x, found independently as the intersection of the ideals that
    hold x, and the four anti-ideal conditions hold with Q = Idl(R).  A
    failure raises LawViolation."""
    lat = iq.ideals.carrier
    pts = data.locale.points
    pos = {m: k for k, m in enumerate(iq.ideal_masks)}
    for x in range(pts.n):
        least = pts.full
        for m in iq.ideal_masks:
            if m >> x & 1:
                least &= m
        if pos.get(least) != g[x]:
            raise LawViolation("universal element is the least ideal at each point", pts.names[x])
    if g[data.one_point] != iq.ideals.unit:
        raise LawViolation("universal element unit", pts.names[data.one_point])
    if g[data.zero_point] != lat.bottom:
        raise LawViolation("universal element zero", pts.names[data.zero_point])
    for x, y in iproduct(range(pts.n), repeat=2):
        if not lat.leq(g[data.add(x, y)], lat.join(g[x], g[y])):
            raise LawViolation("universal element additivity", (pts.names[x], pts.names[y]))
    for x, y in iproduct(range(pts.n), repeat=2):
        if iq.ideals.mul(g[x], g[y]) != g[data.mul(x, y)]:
            raise LawViolation("universal element multiplicativity", (pts.names[x], pts.names[y]))
    return g


def _least_ideals(data, iq):
    """g(x) = j(class of x), the least ideal holding x, for every point x."""
    return tuple(iq.ideal_of(1 << x) for x in range(data.locale.points.n))


def universal_element(data, iq):
    """The universal element of Idl(R) (x) O R, as a monotone map
    points -> Idl(R): g(x) = j(class of x), checked as
    ``_checked_universal`` says.  Its bi-ideal form needs the opens;
    ``opens_oracle`` builds it and checks that the two forms agree.
    """
    return _checked_universal(data, iq, _least_ideals(data, iq))


def _through_monoid_ideals(data, iq, mi, basis):
    """The collapse MM(R) ->> Idl(R), the monoid universal element from
    ``basis`` (the dual basis of the saturated frame) and its collapse g.

    g is checked as ``_checked_universal`` says and must equal the class
    route's j(class of x), or LawViolation names the first point where they
    differ."""
    collapse = monoid_collapse(iq, mi)
    g_monoid = _monoid_universal_map(data, mi, basis)
    g = _checked_universal(data, iq, tuple(collapse(v) for v in g_monoid))
    for x, v in enumerate(_least_ideals(data, iq)):
        if g[x] != v:
            raise LawViolation("universal element through the monoid ideals", data.locale.points.names[x])
    return collapse, g_monoid, g


@dataclass
class SpectrumResult:
    data: LocalicSemiringData
    ideal_data: IdealQuantaleData
    radicals: Quantale  # Rad(R), a frame
    radical_quotient: QuantaleHom  # Idl(R) ->> Rad(R)
    universal_map: tuple
    points: tuple  # open masks of the prime anti-ideals
    point_poset: FinitePoset

    @property
    def ideals(self):
        return self.ideal_data.ideals


def radical_frame(data, caps=DEFAULT_CAPS):
    """Idl(R), its localic reflection Rad(R), the universal element, and the
    points of the spectrum (prime anti-ideals, as opens of R).

    Idl(R) and the universal element come from the holoid classes
    (``ideal_quantale``, ``universal_element``): no table here is larger
    than Idl(R), whatever the number of saturated opens.

    The points are found by the anti-ideal search and checked against
    Rad(R): the points of a finite frame are its meet-prime elements p, and
    the anti-ideal of p is {x : rho(g(x)) not <= p}.  The two lists must
    agree, or LawViolation names a point on one side only."""
    iq = ideal_quantale(data, caps)
    radicals, rho = localic_reflection(iq.ideals)
    g = universal_element(data, iq)
    points_set = anti_ideals(data, omega_quantale(), "semiring", caps)
    pts = data.locale.points
    masks = tuple(
        sum(1 << x for x in range(pts.n) if m[x] == 1) for m in points_set.maps
    )
    rad = radicals.carrier
    rho_g = [rho(v) for v in g]
    # in a frame the meet-primes are the meet-irreducibles
    from_primes = sorted(
        sum(1 << x for x in range(pts.n) if not rad.leq(rho_g[x], p))
        for p in rad.opposite().join_irreducibles()
    )
    if from_primes != sorted(masks):
        # a mask on one side only, else one that two primes share
        witness = min(set(from_primes) ^ set(masks), default=None)
        if witness is None:
            witness = max(from_primes, key=from_primes.count)
        raise LawViolation("points of Rad(R) are the prime anti-ideals", pts.mask_name(witness))
    names = [pts.mask_name(m) for m in masks]
    up = [
        sum(1 << j for j, mj in enumerate(masks) if mi & mj == mi)
        for mi in masks
    ]
    point_poset = FinitePoset(names, up)
    return SpectrumResult(data, iq, radicals, rho, g, masks, point_poset)


# ---------------------------------------------------------------------------
# the opens oracle


@dataclass
class OpensCheck:
    monoid: MonoidIdealData
    closure: ClosureOperator  # U -> {x : exists y, xy in U} on the opens
    universal: TensorElement  # bi-ideal form in Q (x) opens, Q = Idl(R) or MM(R)


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
    * U -> {x : exists y, xy in U} is a closure operator whose fixed points
      are exactly the saturated opens that ``saturation`` reads off the
      preorder on points; the inclusion splits it, and the corestriction is
      a retraction and left adjoint to the inclusion;
    * a down-set is a monoid ideal (fixed by absorption) exactly when its
      complement is a saturated open;
    * the universal element in bi-ideal form, carried from the unit of the
      dual basis of the saturated frame into Q (x) opens (Q = Idl(R) for a
      semiring, the monoid ideals for a monoid), agrees with the map form
      the pipeline computes.

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
    closure = ClosureOperator(opens, values)
    fixed = closure.fixed_points()
    fixed_masks = tuple(loc.open_masks[i] for i in fixed)
    if fixed_masks != sat.sat_masks:
        witness = min(set(fixed_masks) ^ set(sat.sat_masks))
        raise LawViolation("saturated opens are the closure's fixed points", pts.mask_name(witness))
    saturated = sat.saturated
    embed = SupMap(saturated, opens, fixed)
    pos = {f: k for k, f in enumerate(fixed)}
    reflect = SupMap(opens, saturated, [pos[v] for v in values])
    for u in range(opens.n):
        if embed(reflect(u)) != values[u]:
            raise LawViolation("saturation splits", opens.names[u])
    for s in range(saturated.n):
        if reflect(embed(s)) != s:
            raise LawViolation("saturation retraction", saturated.names[s])
    for u in range(opens.n):
        for s in range(saturated.n):
            if saturated.leq(reflect(u), s) != opens.leq(u, embed(s)):
                raise LawViolation("saturation adjunction", (opens.names[u], saturated.names[s]))

    mi = monoid_ideal_quantale(data, caps)
    full = pts.full
    sat_set = set(sat.sat_masks)
    for u in loc.open_masks:
        if (_absorb(data, full ^ u) == full ^ u) != (u in sat_set):
            raise LawViolation(
                "monoid ideals are the complements of the saturated opens", pts.mask_name(full ^ u)
            )

    basis, duality = dual_basis(saturated, caps)
    if data.has_addition:
        iq = ideal_quantale(data, caps)
        q = iq.ideals
        collapse, _, g = _through_monoid_ideals(data, iq, mi, basis)
    else:
        q, collapse = mi.monoid_ideals, (lambda k: k)
        g = _monoid_universal_map(data, mi, basis)
    mm_pos = {m: k for k, m in enumerate(mi.ideal_masks)}
    universal = duality.unit_element.map_through(
        (lambda c: collapse(mm_pos[full ^ sat.sat_masks[c]]), embed),
        TensorSpace((q.carrier, opens)),
    )
    if map_of_element(loc, universal) != g or element_of_map(q, loc, g) != universal:
        raise LawViolation("universal element map form", tuple(q.carrier.names[v] for v in g))
    return OpensCheck(mi, closure, universal)


# ---------------------------------------------------------------------------
# the saturated replacement of a localic monoid


def saturated_replacement(sat, caps=DEFAULT_CAPS):
    """The localic monoid on the saturated frame, with the coreflected
    comultiplication extracted as a point-level operation.

    Returns (monoid data, point masks): point k of the new locale is the
    k-th join-irreducible saturated open; its mask in the original points is
    reported for transporting anti-ideals along the inclusion.
    """
    data = sat.data
    pts = data.locale.points
    sl = sat.saturated
    loc2, to_opens2, from_opens2 = locale_from_frame(sl, caps)
    ji = sl.join_irreducibles()
    sat_index = {m: k for k, m in enumerate(sat.sat_masks)}
    ji_masks = [sat.sat_masks[p] for p in ji]

    def least_saturated_over(point_mask):
        acc = pts.full
        for m in sat.sat_masks:
            if point_mask & ~m == 0:
                acc &= m
        return sat_index[acc]

    unit_sat = least_saturated_over(1 << data.one_point)
    times = [[None] * len(ji) for _ in range(len(ji))]
    ji_pos = {p: k for k, p in enumerate(ji)}
    for a, pa in enumerate(ji):
        for b, pb in enumerate(ji):
            prod_mask = 0
            for x in bits(ji_masks[a]):
                row = data.mul_t[x]
                for y in bits(ji_masks[b]):
                    prod_mask |= 1 << row[y]
            s = least_saturated_over(prod_mask)
            if s not in ji_pos:
                raise LawViolation(
                    "comultiplication stays in the irreducibles", (sl.names[pa], sl.names[pb])
                )
            times[a][b] = ji_pos[s]
    if unit_sat not in ji_pos:
        raise LawViolation("unit point has an irreducible saturation", sl.names[unit_sat])
    monoid = FiniteCommMonoid(loc2.points.names, ji_pos[unit_sat], times)
    replacement = LocalicSemiringData(loc2, monoid, name=f"saturated({data.name})")
    return replacement, tuple(ji_masks)


# ---------------------------------------------------------------------------
# representability


@dataclass
class RepresentabilityEntry:
    quantale_name: str
    hom_count: int
    member_count: int
    all_images_members: bool
    injective: bool
    surjective: bool

    def ok(self):
        return (
            self.all_images_members
            and self.injective
            and self.surjective
            and self.hom_count == self.member_count
        )


@dataclass
class RepresentabilityReport:
    semiring_entries: list
    monoid_entries: list
    invariance_entries: list
    yoneda_ok: bool

    def ok(self):
        return (
            all(e.ok() for e in self.semiring_entries)
            and all(e.ok() for e in self.monoid_entries)
            and all(flag for _, flag in self.invariance_entries)
            and self.yoneda_ok
        )


def representability_check(data, quantale_catalog, caps=DEFAULT_CAPS):
    """Verify that homs out of Idl(R) (resp. the monoid ideals) classify
    semiring (resp. monoid) anti-ideals, for every quantale in the catalog.

    Each hom f is sent to (f (x) id)(universal element); the report records,
    per target quantale, that every image is an anti-ideal, that the map is
    injective, and that it is onto the enumerated anti-ideals.  The monoid
    part also checks invariance under the saturated replacement.
    """
    iq = ideal_quantale(data, caps)
    mi = monoid_ideal_quantale(data, caps)
    basis, _ = dual_basis(mi.sat.saturated, caps)
    _, g_monoid, g_univ = _through_monoid_ideals(data, iq, mi, basis)
    replacement, ji_masks = saturated_replacement(mi.sat, caps)
    semiring_entries = []
    monoid_entries = []
    invariance_entries = []
    for name, q in quantale_catalog:
        homs = enumerate_homs(iq.ideals, q, "two_sided", caps)
        members = anti_ideals(data, q, "semiring", caps)
        images = [tuple(f(v) for v in g_univ) for f in homs]
        member_set = set(members.maps)
        semiring_entries.append(
            RepresentabilityEntry(
                name,
                len(homs),
                len(members.maps),
                all(im in member_set for im in images),
                len(set(images)) == len(images),
                set(images) == member_set,
            )
        )
        homs_m = enumerate_homs(mi.monoid_ideals, q, "two_sided", caps)
        members_m = anti_ideals(data, q, "monoid", caps)
        images_m = [tuple(f(v) for v in g_monoid) for f in homs_m]
        member_set_m = set(members_m.maps)
        monoid_entries.append(
            RepresentabilityEntry(
                name,
                len(homs_m),
                len(members_m.maps),
                all(im in member_set_m for im in images_m),
                len(set(images_m)) == len(images_m),
                set(images_m) == member_set_m,
            )
        )
        # anti-ideals of the saturated replacement transport bijectively
        members_r = anti_ideals(replacement, q, "monoid", caps)
        transported = set()
        for gr in members_r.maps:
            g = tuple(
                q.carrier.join_iter(
                    gr[k] for k, m in enumerate(ji_masks) if m >> x & 1
                )
                for x in range(data.locale.points.n)
            )
            transported.add(g)
        invariance_entries.append(
            (name, transported == member_set_m and len(members_r.maps) == len(members_m.maps))
        )
    # Yoneda instance: the identity hom corresponds to the universal element
    self_members = anti_ideals(data, iq.ideals, "semiring", caps)
    yoneda_ok = g_univ in set(self_members.maps)
    report = RepresentabilityReport(
        semiring_entries, monoid_entries, invariance_entries, yoneda_ok
    )
    return report


# ---------------------------------------------------------------------------
# dualisability conditions


@dataclass
class DualisabilityReport:
    basis_exists: bool  # saturated frame admits a dual basis
    family_reconstructs: bool  # the basis families reconstruct saturated opens
    pointwise_bound: bool  # u <= join of pi(V) over V meeting u, all opens
    opens_supercontinuous: bool

    def agree(self):
        return self.basis_exists == self.family_reconstructs == self.pointwise_bound


def dualisability_conditions(data, caps=DEFAULT_CAPS):
    """The three equivalent dualisability conditions, checked independently.

    pi(V) is the meet of the saturated opens met by V; the pointwise bound
    requires every open below the join of pi(V) over the sublocales meeting
    it.  The family condition uses the dual-basis families (irreducible
    saturated opens paired with the complements of their dual encodings).
    On finite carriers all three hold whenever they are well-posed; the
    value is that each is computed from its own definition.
    """
    sat = saturation(data, caps)
    pts = data.locale.points
    loc = data.locale
    dn_masks = pts.down_sets()
    pi = []
    for v in dn_masks:
        acc = pts.full
        for s in sat.sat_masks:
            if v & s:
                acc &= s
        pi.append(acc)
    pointwise_bound = True
    for u in loc.open_masks:
        cover = 0
        for k, v in enumerate(dn_masks):
            if v & u:
                cover |= pi[k]
        if u & ~cover:
            pointwise_bound = False
            break
    try:
        basis, _ = dual_basis(sat.saturated, caps)
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
    try:
        dual_basis(loc.opens, caps)
        opens_supercontinuous = True
    except NotSupercontinuous:
        opens_supercontinuous = False
    report = DualisabilityReport(
        basis_exists, family_reconstructs, pointwise_bound, opens_supercontinuous
    )
    if opens_supercontinuous and not basis_exists:
        raise LawViolation("supercontinuous opens give a dualisable saturated frame", data.name)
    return report
