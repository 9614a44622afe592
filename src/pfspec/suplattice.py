"""The symmetric monoidal category of finite suplattices.

A finite suplattice is a complete lattice whose morphisms (SupMap) preserve
all joins.  The tensor product L (x) M is carried by the bi-ideals of the
product carrier: subsets that are down-closed and closed under joins in each
coordinate with the others fixed.  The unit is the two-element lattice Omega.

Dualisability is decided through the totally-below relation; classically, on
finite carriers, supercontinuous = completely distributive = distributive,
and the equivalence with plain distributivity is asserted by the test suite
rather than assumed here.
"""

from functools import cache
from itertools import product as iproduct

from .caps import DEFAULT_CAPS
from .errors import CapExceeded, NotJoinPreserving, NotSupercontinuous
from .order import (
    Lattice,
    MonotoneMap,
    bits,
    build_poset,
    lattice_structure,
)


class SupMap(MonotoneMap):
    """A join-preserving map between lattices (it preserves bottom too)."""

    def __init__(self, source, target, values):
        values = tuple(values)
        if values[source.bottom] != target.bottom:
            raise NotJoinPreserving("empty join")
        for a in range(source.n):
            for b in range(a, source.n):
                if values[source.join(a, b)] != target.join(values[a], values[b]):
                    raise NotJoinPreserving((source.names[a], source.names[b]))
        super().__init__(source, target, values)


@cache
def omega():
    """The lattice of truth values: the 2-chain, tensor unit of Sup."""
    return lattice_structure(build_poset(["0", "1"], [("0", "1")]))


OMEGA_FALSE, OMEGA_TRUE = 0, 1


def scalar(lat, p, q):
    """Omega-scalar action on any lattice: 1*q = q, 0*q = bottom."""
    return q if p == OMEGA_TRUE else lat.bottom


def all_supmaps(source, target, caps=DEFAULT_CAPS):
    """Every SupMap source -> target, deduplicated, in canonical value order.

    A join-preserving map is determined by its values on join-irreducibles;
    candidate assignments are extended by joins and kept when the extension
    genuinely preserves joins (needed when the source is not distributive).
    """
    ji = source.join_irreducibles()
    total = target.n ** len(ji)
    if total > caps.search_budget():
        raise CapExceeded("supmap enumeration", total, caps.search_budget())
    seen = set()
    for assignment in iproduct(range(target.n), repeat=len(ji)):
        values = tuple(
            target.join_iter(
                assignment[k] for k, p in enumerate(ji) if source.leq(p, a)
            )
            for a in range(source.n)
        )
        if values in seen:
            continue
        ok = all(
            values[source.join(a, b)] == target.join(values[a], values[b])
            for a in range(source.n)
            for b in range(a, source.n)
        )
        if ok:
            seen.add(values)
    return [SupMap(source, target, v) for v in sorted(seen)]


# ---------------------------------------------------------------------------
# tensor products


class TensorSpace:
    """The product carrier underlying a tensor of lattices.

    Tuples of factor elements are flattened row-major; a tensor element is a
    bitmask over these tuples, kept in bi-ideal closed form.
    """

    def __init__(self, factors):
        if not factors:
            raise ValueError("tensor needs at least one factor")
        self.factors = tuple(factors)
        self.sizes = tuple(f.n for f in factors)
        self.ntuples = 1
        for s in self.sizes:
            self.ntuples *= s
        strides = []
        acc = self.ntuples
        for s in self.sizes:
            acc //= s
            strides.append(acc)
        self.strides = tuple(strides)
        self._zero_mask = None

    def index_of(self, tup):
        return sum(v * s for v, s in zip(tup, self.strides))

    def tuple_of(self, idx):
        out = []
        for k, s in enumerate(self.strides):
            out.append(idx // s % self.sizes[k])
        return tuple(out)

    def tuple_name(self, idx):
        t = self.tuple_of(idx)
        return "(" + ",".join(f.names[v] for f, v in zip(self.factors, t)) + ")"

    def closure(self, mask):
        """Least bi-ideal containing ``mask``.

        Iterates per coordinate: each fiber (one coordinate free, the others
        fixed) is replaced by the principal down-set of its join.  Every such
        step is forced by the bi-ideal laws, and the mask only grows, so the
        fixpoint is the least closure.  The empty fiber acquires the bottom
        element, which is why every bi-ideal contains all tuples with a zero
        coordinate.
        """
        changed = True
        while changed:
            changed = False
            for k, lat in enumerate(self.factors):
                stride = self.strides[k]
                size = self.sizes[k]
                block = stride * size
                for outer in range(0, self.ntuples, block):
                    for base in range(outer, outer + stride):
                        vals = [
                            v
                            for v in range(size)
                            if mask >> (base + v * stride) & 1
                        ]
                        m = lat.join_iter(vals)
                        fiber = 0
                        for v in bits(lat.down[m]):
                            fiber |= 1 << (base + v * stride)
                        if fiber | mask != mask:
                            mask |= fiber
                            changed = True
        return mask

    def zero_mask(self):
        if self._zero_mask is None:
            self._zero_mask = self.closure(0)
        return self._zero_mask

    def pure(self, tup):
        return TensorElement(self, self.closure(1 << self.index_of(tup)))

    def element(self, tuples):
        mask = 0
        for t in tuples:
            mask |= 1 << self.index_of(t)
        return TensorElement(self, self.closure(mask))

    def bottom_element(self):
        return TensorElement(self, self.zero_mask())


class TensorElement:
    """A bi-ideal of a TensorSpace, i.e. one element of the tensor lattice."""

    __slots__ = ("space", "mask")

    def __init__(self, space, mask):
        self.space = space
        self.mask = mask

    def members(self):
        return tuple(bits(self.mask))

    def leq(self, other):
        return self.mask & other.mask == self.mask

    def join(self, other):
        return TensorElement(self.space, self.space.closure(self.mask | other.mask))

    def meet(self, other):
        # intersection of bi-ideals is a bi-ideal
        return TensorElement(self.space, self.mask & other.mask)

    def fiber_join(self, coord, rest):
        """Join (in factor ``coord``) of the fiber over fixed ``rest`` values."""
        space = self.space
        lat = space.factors[coord]
        tup = list(rest[:coord]) + [0] + list(rest[coord:])
        vals = []
        for v in range(space.sizes[coord]):
            tup[coord] = v
            if self.mask >> space.index_of(tup) & 1:
                vals.append(v)
        return lat.join_iter(vals)

    def as_map(self):
        """For two factors: the fiber-top vector, index in factor 0 ->
        join (in factor 1) of the fiber; determines the element."""
        assert len(self.space.factors) == 2
        return tuple(
            self.fiber_join(1, (a,)) for a in range(self.space.sizes[0])
        )

    def map_through(self, fns, target_space):
        """Image under a tensor of maps, one per coordinate (index functions)."""
        out = 0
        for idx in bits(self.mask):
            t = self.space.tuple_of(idx)
            out |= 1 << target_space.index_of(tuple(f(v) for f, v in zip(fns, t)))
        return TensorElement(target_space, target_space.closure(out))

    def __eq__(self, other):
        return (
            isinstance(other, TensorElement)
            and self.space.factors == other.space.factors
            and self.mask == other.mask
        )

    def __hash__(self):
        return hash(self.mask)

    def __repr__(self):
        names = [self.space.tuple_name(i) for i in self.members()]
        return "TensorElement{" + ",".join(names) + "}"


class TensorLattice(Lattice):
    """The fully materialized tensor lattice: all bi-ideals ordered by
    inclusion.  Only available when the product carrier fits the cap."""

    def __init__(self, space, masks):
        self.space = space
        self.element_masks = tuple(masks)
        self.mask_index = {m: i for i, m in enumerate(masks)}
        names = [
            "{" + ",".join(space.tuple_name(i) for i in bits(m)) + "}" for m in masks
        ]
        up = [
            sum(1 << j for j, mj in enumerate(masks) if mi & mj == mi)
            for mi in masks
        ]
        # meets are intersections; joins are closures of unions
        join_t = []
        meet_t = []
        for mi in masks:
            jrow = []
            mrow = []
            for mj in masks:
                jrow.append(self.mask_index[space.closure(mi | mj)])
                mrow.append(self.mask_index[mi & mj])
            join_t.append(tuple(jrow))
            meet_t.append(tuple(mrow))
        bottom = self.mask_index[space.zero_mask()]
        top = self.mask_index[(1 << space.ntuples) - 1]
        Lattice.__init__(
            self, names, up, tuple(join_t), tuple(meet_t), bottom, top
        )

    def pure(self, tup):
        return self.mask_index[self.space.closure(1 << self.space.index_of(tup))]

    def element(self, index):
        return TensorElement(self.space, self.element_masks[index])

    def index_of_element(self, elem):
        return self.mask_index[elem.mask]

    def induce(self, fn, target):
        """The unique SupMap with induce(fn) o pure = fn, for ``fn`` a
        multilinear map given on index tuples.  Multilinearity and the
        universal property are verified."""
        space = self.space
        for k, lat in enumerate(space.factors):
            others = [range(s) for s in space.sizes]
            others[k] = [0]
            for rest in iproduct(*others):
                t = list(rest)
                t[k] = lat.bottom
                if fn(tuple(t)) != target.bottom:
                    raise NotJoinPreserving(("multilinear", tuple(t)))
            for t in iproduct(*(range(s) for s in space.sizes)):
                for b in range(space.sizes[k]):
                    tj = list(t)
                    tj[k] = lat.join(t[k], b)
                    tb = list(t)
                    tb[k] = b
                    if fn(tuple(tj)) != target.join(fn(t), fn(tuple(tb))):
                        raise NotJoinPreserving(("multilinear", t, b))
        values = [
            target.join_iter(fn(space.tuple_of(i)) for i in bits(m))
            for m in self.element_masks
        ]
        out = SupMap(self, target, values)
        for t in iproduct(*(range(s) for s in space.sizes)):
            assert out(self.pure(t)) == fn(t)
        return out


def tensor(factors, caps=DEFAULT_CAPS):
    """Materialize the tensor lattice of ``factors``.

    Enumerates all bi-ideals by closing the empty set and then repeatedly
    adjoining single tuples; elements come out sorted by (size, mask).
    """
    space = TensorSpace(factors)
    if space.ntuples > caps.max_tensor_carrier:
        raise CapExceeded("tensor carrier", space.ntuples, caps.max_tensor_carrier)
    seen = {space.zero_mask()}
    frontier = [space.zero_mask()]
    while frontier:
        mask = frontier.pop()
        for i in range(space.ntuples):
            if not mask >> i & 1:
                bigger = space.closure(mask | 1 << i)
                if bigger not in seen:
                    seen.add(bigger)
                    frontier.append(bigger)
    masks = sorted(seen, key=lambda m: (m.bit_count(), m))
    return TensorLattice(space, masks)


def tensor_map(maps, source, target):
    """The SupMap between materialized tensor lattices induced by a tuple of
    SupMaps acting coordinatewise (functoriality of the tensor)."""
    fns = [m.values.__getitem__ for m in maps]
    values = []
    for mask in source.element_masks:
        elem = TensorElement(source.space, mask).map_through(fns, target.space)
        values.append(target.index_of_element(elem))
    return SupMap(source, target, values)


# ---------------------------------------------------------------------------
# duals


def dual(lat, caps=DEFAULT_CAPS, verify=None):
    """The dual suplattice hom(L, Omega), realized as L with the opposite
    order: element c encodes the map a -> (a <= c is false).

    Returns (dual lattice, pairing) where pairing(c, a) gives the truth
    value.  When the carrier is small enough the bijection with the actual
    set of SupMaps L -> Omega is re-verified by enumerating all functions.
    """
    op = lat.opposite()

    def pairing(c, a):
        return OMEGA_FALSE if lat.leq(a, c) else OMEGA_TRUE

    if verify is None:
        verify = (1 << lat.n) * lat.n * lat.n <= caps.search_budget() * 16
    if verify:
        encodings = {
            tuple(pairing(c, a) for a in range(lat.n)) for c in range(lat.n)
        }
        supmaps = set()
        for mask in range(1 << lat.n):
            values = tuple(
                OMEGA_TRUE if mask >> a & 1 else OMEGA_FALSE for a in range(lat.n)
            )
            if values[lat.bottom] != OMEGA_FALSE:
                continue
            if all(
                values[lat.join(a, b)] == (values[a] or values[b])
                for a in range(lat.n)
                for b in range(a, lat.n)
            ):
                supmaps.add(values)
        assert supmaps == encodings, "dual encoding does not exhaust hom(L, Omega)"
    return op, pairing


def supmap_to_omega(lat, c):
    """The SupMap L -> Omega encoded by the dual element c."""
    return SupMap(
        lat,
        omega(),
        [OMEGA_FALSE if lat.leq(a, c) else OMEGA_TRUE for a in range(lat.n)],
    )


def dual_element_of(lat, supmap):
    """Inverse encoding: the join of the kernel of a SupMap L -> Omega."""
    return lat.join_iter(
        a for a in range(lat.n) if supmap(a) == OMEGA_FALSE
    )


# ---------------------------------------------------------------------------
# totally below and dual bases


def totally_below(lat):
    """The totally-below relation: rel[b] is the bitmask of a with a <<< b.

    a <<< b demands every subset S with join >= b to contain some s >= a.
    The admissible covers avoiding the up-set of a are closed downwards, so
    only the largest one matters: a <<< b iff join of {x : not a <= x} fails
    to dominate b.  The literal all-subsets evaluation is kept in
    totally_below_exhaustive as the oracle for this reduction.
    """
    best = [
        lat.join_mask(lat.full ^ lat.up[a]) for a in range(lat.n)
    ]
    rel = []
    for b in range(lat.n):
        mask = 0
        for a in range(lat.n):
            if not lat.leq(b, best[a]):
                mask |= 1 << a
        rel.append(mask)
    return tuple(rel)


def totally_below_exhaustive(lat, caps=DEFAULT_CAPS):
    """Brute-force totally-below over all 2**n subsets (capped)."""
    if 1 << lat.n > caps.search_budget():
        raise CapExceeded("subset enumeration", 1 << lat.n, caps.search_budget())
    rel = [lat.full for _ in range(lat.n)]
    for s in range(1 << lat.n):
        j = lat.join_mask(s)
        reached = lat.down_closure(s)
        for b in bits(lat.down[j]):
            rel[b] &= reached
    return tuple(rel)


def supercontinuity_witness(lat):
    """None when every a is the join of the elements totally below it,
    otherwise the smallest failing element."""
    rel = totally_below(lat)
    for b in range(lat.n):
        if lat.join_mask(rel[b]) != b:
            return b
    return None


class DualBasis:
    """Families (r_x) in L and (sigma_x) in hom(L, Omega), indexed by the
    join-irreducibles, reconstructing every element as
    a = join of sigma_x(a) * r_x."""

    def __init__(self, lattice, irreducibles, sigma_encodings):
        self.lattice = lattice
        self.irreducibles = tuple(irreducibles)
        self.sigma_encodings = tuple(sigma_encodings)

    def sigma(self, k, a):
        return (
            OMEGA_FALSE
            if self.lattice.leq(a, self.sigma_encodings[k])
            else OMEGA_TRUE
        )

    def reconstruct(self, a):
        lat = self.lattice
        return lat.join_iter(
            p
            for k, p in enumerate(self.irreducibles)
            if self.sigma(k, a) == OMEGA_TRUE
        )


class DualityData:
    """Unit and counit of the duality between L and its dual, with both
    triangle identities checked elementwise."""

    def __init__(self, lattice, dual_lattice, unit_element, evaluation):
        self.lattice = lattice
        self.dual_lattice = dual_lattice
        self.unit_element = unit_element  # TensorElement in dual (x) L
        self.evaluation = evaluation  # evaluation(a, c) in {0, 1}


def dual_basis(lat, caps=DEFAULT_CAPS):
    """Construct a dual basis for ``lat`` or raise NotSupercontinuous.

    The basis is indexed by join-irreducibles p with r_p = p and
    sigma_p(a) = [p <= a]; sigma_p is encoded by the dual element
    c_p = join of {a : p is not <= a}, which is a genuine SupMap exactly when
    p is join-prime.  Success is decided by the totally-below relation and
    the triangle identities are verified pointwise before returning.
    """
    w = supercontinuity_witness(lat)
    if w is not None:
        raise NotSupercontinuous(lat.names[w])
    ji = lat.join_irreducibles()
    encodings = [lat.join_mask(lat.full ^ lat.up[p]) for p in ji]
    # join-primeness of each p: p <= a iff a is not below c_p
    for k, p in enumerate(ji):
        for a in range(lat.n):
            assert lat.leq(p, a) == (not lat.leq(a, encodings[k]))
    basis = DualBasis(lat, ji, encodings)
    for a in range(lat.n):
        assert basis.reconstruct(a) == a, "dual basis fails to reconstruct"
    dual_lat, pairing = dual(lat, caps)
    space = TensorSpace((dual_lat, lat))
    unit_element = space.element(
        [(encodings[k], p) for k, p in enumerate(ji)]
    )

    def evaluation(a, c):
        return pairing(c, a)

    data = DualityData(lat, dual_lat, unit_element, evaluation)
    # triangle 1: (ev (x) L)(a (x) unit) = a, elementwise
    for a in range(lat.n):
        got = lat.join_iter(
            p
            for k, p in enumerate(ji)
            if evaluation(a, encodings[k]) == OMEGA_TRUE
        )
        assert got == a, "triangle identity (wire through L) fails"
    # triangle 2: (dual (x) ev)(unit (x) sigma) = sigma; joins in the dual
    # are meets of the encodings
    for c in range(lat.n):
        got = lat.meet_iter(
            encodings[k]
            for k, p in enumerate(ji)
            if evaluation(p, c) == OMEGA_TRUE
        )
        assert got == c, "triangle identity (wire through the dual) fails"
    return basis, data
