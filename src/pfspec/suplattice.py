"""The symmetric monoidal category of finite suplattices.

A finite suplattice is a complete lattice whose morphisms (SupMap) preserve
all joins.  The tensor product L (x) M is carried by the bi-ideals of the
product carrier: subsets that are down-closed and closed under joins in each
coordinate with the others fixed.  The unit is the two-element lattice Omega.
The dual hom(L, Omega) is L with the opposite order, built only where it is
read: ``DualBasis.unit_element`` builds ``lat.opposite()``, ``dual`` does not.

A SupMap is fixed by its values on the join-irreducibles J of its source, a
monotone map on J: ``j_evaluator`` reads it at every element, and
``join_laws`` are the join laws that such a map can fail, at the splits of
the source.  ``all_supmaps`` searches them with ``order.monotone_search``,
and the quantale homs of ``quantale.enumerate_homs`` are the same search
with the product and unit laws added.

Dualisability is decided through the totally-below relation; classically, on
finite carriers, supercontinuous = completely distributive = distributive,
and the equivalence with plain distributivity is asserted by the test suite
rather than assumed here.  The tensor's functoriality and universal
property, and totally-below over all subsets, are checked by the oracles in
``tests/reference.py``.
"""

from functools import cache, cached_property
from operator import itemgetter

from .caps import DEFAULT_CAPS
from .errors import CapExceeded, LawViolation, NotJoinPreserving, NotSupercontinuous
from .order import (
    Lattice,
    MonotoneMap,
    bits,
    build_poset,
    check_table_cap,
    inclusion_up_sets,
    lattice_structure,
    monotone_search,
)


class SupMap(MonotoneMap):
    """A join-preserving map between lattices (it preserves bottom too),
    checked by ``join_witness``; that makes it monotone, as a <= b gives
    f(b) = f(a v b) = f(a) v f(b)."""

    def _check_laws(self):
        witness = join_witness(self.source, self.target, self.values)
        if witness is not None:
            raise NotJoinPreserving(witness)


def join_witness(source, target, values):
    """None when the value table f has f(bottom) = bottom and
    f(p v c) = f(p) v f(c) for every join-irreducible p and every c, and so
    preserves all joins (a = p_1 v ... v p_k gives f(a v c) = f(a) v f(c)
    by induction on k); otherwise "empty join" or the first failing (p, c),
    as names.  The rows over c are compared at C speed."""
    if values[source.bottom] != target.bottom:
        return "empty join"
    through = itemgetter(*values)  # through(row) = (row[f(c)] for each c)
    for p in source.join_irreducibles():
        if itemgetter(*source.join_t[p])(values) != through(target.join_t[values[p]]):
            c = next(
                c
                for c in range(source.n)
                if values[source.join(p, c)] != target.join(values[p], values[c])
            )
            return source.names[p], source.names[c]
    return None


@cache
def omega():
    """The lattice of truth values: the 2-chain, tensor unit of Sup."""
    return lattice_structure(build_poset(["0", "1"], [("0", "1")]))


OMEGA_FALSE, OMEGA_TRUE = 0, 1


def j_evaluator(source, target):
    """value(g, a) = f(a) for a map f : source -> target held as its values
    g on the join-irreducibles J of source, at their positions in
    ``join_irreducibles()``: the join of g over the J below a.  g must be
    monotone on J, as a join-preserving map is; then that join is the join
    over the maximal J below a (``Lattice.j_rows``), usually one or two, and
    only those are read."""
    maximal, join_t, bottom = source.j_rows()[0], target.join_t, target.bottom

    def value(g, a):
        out = bottom
        for k in maximal[a]:
            out = join_t[out][g[k]]
        return out

    return value


def join_laws(source, target, value):
    """The join laws on a monotone map g of the J of source into target,
    read by ``value`` from ``j_evaluator``, as (scope, test) laws for
    ``order.monotone_search``; ``scope`` masks the J that ``test(g)`` reads.
    Read by ``value``, f sends the bottom to the bottom and f(a) is the join
    of g over J(a), the J below a, so f(p v c) = f(p) v f(c) holds for p in
    J wherever J(p v c) = J(p) | J(c), and then by induction on J below a
    so does f(a v c).  So the law is stated only at the other triples,
    ``Lattice.splits``, which a distributive source never has."""
    below = source.j_below()
    return [
        (below[a], lambda g, i=i, c=c, a=a: value(g, a) == target.join_t[g[i]][value(g, c)])
        for i, c, a in source.splits()
    ]


def all_supmaps(source, target, caps=DEFAULT_CAPS):
    """Every SupMap source -> target, sorted by value tuple.

    A join-preserving map is fixed by its monotone values on the
    join-irreducibles J, so the maps are searched as monotone maps on J by
    ``order.monotone_search`` under ``join_laws``, and each is read at every
    element by ``j_evaluator``.  Distinct maps on J read differently at J,
    so no map is found twice.  The cap counts the values tried.
    """
    value = j_evaluator(source, target)
    found = monotone_search(
        source.j_rows()[1], target, join_laws(source, target, value), caps.search_budget(), "supmap enumeration"
    )
    maps = sorted(tuple(value(g, a) for a in range(source.n)) for g in found)
    return [SupMap(source, target, v) for v in maps]


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

    def element(self, tuples):
        mask = 0
        for t in tuples:
            mask |= 1 << self.index_of(t)
        return TensorElement(self, self.closure(mask))


class TensorElement:
    """A bi-ideal of a TensorSpace, i.e. one element of the tensor lattice."""

    __slots__ = ("space", "mask")

    def __init__(self, space, mask):
        self.space = space
        self.mask = mask

    def members(self):
        return tuple(bits(self.mask))

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

    def __init__(self, space, masks, caps=DEFAULT_CAPS):
        check_table_cap(len(masks), caps)
        self.space = space
        self.element_masks = tuple(masks)
        self.mask_index = {m: i for i, m in enumerate(masks)}
        names = (
            "{" + ",".join(space.tuple_name(i) for i in bits(m)) + "}" for m in masks
        )
        # each fiber of a bi-ideal is a principal down-set, and so is each
        # fiber of an intersection of two: the bi-ideals are closed under
        # intersection, which is their meet, and their order fixes the rest
        super().__init__(names, inclusion_up_sets(masks))


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
    return TensorLattice(space, masks, caps)


# ---------------------------------------------------------------------------
# duals


def dual(lat, caps=DEFAULT_CAPS):
    """The pairing of L with its dual hom(L, Omega), L with the opposite
    order: element c encodes the map a -> (a <= c is false).

    Returns pairing, where pairing(c, a) gives the truth value.  The
    bijection with the SupMaps L -> Omega that ``all_supmaps`` lists under
    ``caps`` is re-verified on masks: c encodes the complement of its
    down-set, a map the elements it sends to true; a failure names the least
    value tuple on one side only.  For a distributive L the search on J
    tries about |L| maps.
    """

    def pairing(c, a):
        return OMEGA_FALSE if lat.leq(a, c) else OMEGA_TRUE

    encodings = {lat.full & ~lat.down[c] for c in range(lat.n)}
    supmaps = {sum(v << a for a, v in enumerate(f.values)) for f in all_supmaps(lat, omega(), caps)}
    if supmaps != encodings:
        witness = min(tuple(m >> a & 1 for a in range(lat.n)) for m in supmaps ^ encodings)
        raise LawViolation("dual encoding exhausts hom(L, Omega)", witness)
    return pairing


# ---------------------------------------------------------------------------
# totally below and dual bases


def totally_below(lat):
    """The totally-below relation: rel[b] is the bitmask of a with a <<< b.

    a <<< b demands every subset S with join >= b to contain some s >= a.
    The admissible covers avoiding the up-set of a are closed downwards, so
    only the largest one matters: a <<< b iff join of {x : not a <= x} fails
    to dominate b.  The tests check this reduction against the literal
    all-subsets evaluation.
    """
    best = [
        lat.join_mask(lat.full ^ lat.up[a]) for a in range(lat.n)
    ]
    # a <<< b iff b is not below best[a]
    with_best = [0] * lat.n
    for a, v in enumerate(best):
        with_best[v] |= 1 << a
    rel = []
    for b in range(lat.n):
        mask = 0
        for v in bits(lat.up[b]):
            mask |= with_best[v]
        rel.append(lat.full ^ mask)
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
    a = join of sigma_x(a) * r_x, with sigma_x encoded by an element c_x.

    The unit of the duality between L and its dual, L with the opposite
    order, is the bi-ideal of dual (x) L generated by the basis pairs
    (c_p, p); the counit is the pairing of ``dual``.  The dual lattice and
    the unit's closure cost |L|^2 each, so ``unit_element`` builds both on
    first access."""

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

    @cached_property
    def unit_element(self):
        """The unit as a TensorElement in dual (x) L."""
        space = TensorSpace((self.lattice.opposite(), self.lattice))
        return space.element(zip(self.sigma_encodings, self.irreducibles))


def dual_basis(lat, caps=DEFAULT_CAPS):
    """Construct the dual basis of ``lat`` or raise NotSupercontinuous.

    The basis is indexed by join-irreducibles p with r_p = p and
    sigma_p(a) = [p <= a]; sigma_p is encoded by the dual element
    c_p = join of {a : p is not <= a}, which is a genuine SupMap exactly when
    p is join-prime.  Success is decided by the totally-below relation, and
    both triangle identities are verified pointwise before returning: the
    one that wires through L is the reconstruction a = join of the p with
    sigma_p(a) true, the other is checked on the encodings.  No dual lattice
    is built here; ``DualBasis.unit_element`` builds it and the unit.
    """
    w = supercontinuity_witness(lat)
    if w is not None:
        raise NotSupercontinuous(lat.names[w])
    ji = lat.join_irreducibles()
    encodings = [lat.join_mask(lat.full ^ lat.up[p]) for p in ji]
    # join-primeness of each p: p <= a iff a is not below c_p
    for k, p in enumerate(ji):
        for a in range(lat.n):
            if lat.leq(p, a) == lat.leq(a, encodings[k]):
                raise LawViolation("join-primeness", (lat.names[p], lat.names[a]))
    basis = DualBasis(lat, ji, encodings)
    for a in range(lat.n):
        if basis.reconstruct(a) != a:
            raise LawViolation("dual basis reconstructs", lat.names[a])
    pairing = dual(lat, caps)
    # triangle 2: (dual (x) ev)(unit (x) sigma) = sigma; joins in the dual
    # are meets of the encodings
    for c in range(lat.n):
        got = lat.meet_iter(
            encodings[k]
            for k, p in enumerate(ji)
            if pairing(c, p) == OMEGA_TRUE
        )
        if got != c:
            raise LawViolation("triangle identity (wire through the dual)", lat.names[c])
    return basis
