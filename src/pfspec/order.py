"""Finite posets, lattices, monotone maps, adjoints and closure operators.

Elements are referenced by index into a fixed tuple of names; subsets of a
carrier are encoded as integer bitmasks.  Carriers stay small (a few hundred
elements at most), so dense order matrices and precomputed binary join/meet
tables are the right trade: every law check in the rest of the package is a
handful of table lookups.

Least closure operators and least nuclei (see ``quantale``) come from one
repair engine, ``least_fixpoint``.  The quotient by a closure operator is
built by ``ClosureOperator.quotient`` straight from its fixed points: meets
carry over and the join is j(a v b), so no least-upper-bound search is
needed.  ``lattice_structure`` does that search, for posets that arrive
without tables.  Quantales on carriers of at most ``FULL_CHECK_LIMIT``
(40) elements are validated on construction, as ``quantale`` explains.

All values are immutable after construction and safe to share.
"""

from itertools import product as iproduct

from .errors import (
    CycleError,
    DuplicateElement,
    LawViolation,
    NoAdjoint,
    NotALattice,
    NotMonotone,
)


def bits(mask):
    """Yield the indices of set bits, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class FinitePoset:
    """A finite poset: element names plus the full order relation.

    ``up[i]`` is the bitmask of elements >= i (reflexive); ``down[i]`` the
    bitmask of elements <= i.
    """

    def __init__(self, names, up):
        self.names = tuple(names)
        self.n = len(self.names)
        self.up = tuple(up)
        self.down = tuple(
            sum(1 << j for j in range(self.n) if self.up[j] >> i & 1)
            for i in range(self.n)
        )
        self.full = (1 << self.n) - 1
        self._index = {name: i for i, name in enumerate(self.names)}

    def index(self, name):
        return self._index[name]

    def leq(self, i, j):
        return bool(self.up[i] >> j & 1)

    def lt(self, i, j):
        return i != j and self.leq(i, j)

    def comparable(self, i, j):
        return self.leq(i, j) or self.leq(j, i)

    def opposite(self):
        return FinitePoset(self.names, self.down)

    def product(self, other):
        """Componentwise-ordered product; index of (i, j) is i*other.n + j."""
        names = tuple(
            f"({a},{b})" for a in self.names for b in other.names
        )
        up = []
        for i in range(self.n):
            for j in range(other.n):
                mask = 0
                for i2 in bits(self.up[i]):
                    for j2 in bits(other.up[j]):
                        mask |= 1 << (i2 * other.n + j2)
                up.append(mask)
        return FinitePoset(names, up)

    def up_closure(self, mask):
        out = 0
        for i in bits(mask):
            out |= self.up[i]
        return out

    def down_closure(self, mask):
        out = 0
        for i in bits(mask):
            out |= self.down[i]
        return out

    def is_up_set(self, mask):
        return self.up_closure(mask) == mask

    def is_down_set(self, mask):
        return self.down_closure(mask) == mask

    def maximal(self, mask):
        """Indices of elements of mask with nothing of mask strictly above."""
        return [i for i in bits(mask) if self.up[i] & mask == 1 << i]

    def minimal(self, mask):
        return [i for i in bits(mask) if self.down[i] & mask == 1 << i]

    def linear_extension(self):
        return sorted(range(self.n), key=lambda i: (self.down[i].bit_count(), i))

    def up_sets(self, limit=None):
        """All up-sets as bitmasks, sorted by (size, mask).

        Backtracks over a linear extension, so the cost is proportional to
        the output, not to 2**n.  ``limit`` bounds the number produced.
        """
        order = self.linear_extension()
        found = [0]
        # process elements from top of the extension downwards: adding a
        # lower element forces nothing (everything above was already decided)
        for i in reversed(order):
            extra = []
            need = self.up[i]
            for mask in found:
                if mask & need == need & ~(1 << i):
                    extra.append(mask | 1 << i)
            found.extend(extra)
            if limit is not None and len(found) > limit:
                return None
        return sorted(found, key=lambda m: (m.bit_count(), m))

    def down_sets(self, limit=None):
        ups = self.up_sets(limit)
        if ups is None:
            return None
        return sorted((self.full ^ m for m in ups), key=lambda m: (m.bit_count(), m))

    def covers(self):
        """Covering pairs (i, j) with i covered by j, in index order."""
        out = []
        for i in range(self.n):
            for j in bits(self.up[i] & ~(1 << i)):
                if self.up[i] & self.down[j] == (1 << i) | (1 << j):
                    out.append((i, j))
        return out

    def directed_subsets(self):
        """All directed subsets (every finite part has an upper bound inside).

        Exponential; used only as a brute-force oracle on tiny carriers.
        The empty set is not directed (it lacks an upper bound for itself).
        """
        out = []
        for mask in range(1, 1 << self.n):
            elems = list(bits(mask))
            ok = all(
                self.up[a] & self.up[b] & mask for a in elems for b in elems
            )
            if ok:
                out.append(mask)
        return out

    def mask_name(self, mask):
        return "{" + ",".join(self.names[i] for i in bits(mask)) + "}"

    def __eq__(self, other):
        return (
            isinstance(other, FinitePoset)
            and self.names == other.names
            and self.up == other.up
        )

    def __hash__(self):
        return hash((self.names, self.up))

    def __repr__(self):
        return f"FinitePoset({self.n} elements)"


def build_poset(elements, leq_pairs):
    """Reflexive-transitive closure of ``leq_pairs`` over ``elements``.

    Raises DuplicateElement for repeated names and CycleError when the
    closure violates antisymmetry.
    """
    names = list(elements)
    seen = set()
    for name in names:
        if name in seen:
            raise DuplicateElement(f"duplicate element {name!r}")
        seen.add(name)
    index = {name: i for i, name in enumerate(names)}
    n = len(names)
    up = [1 << i for i in range(n)]
    for a, b in leq_pairs:
        if a not in index or b not in index:
            missing = a if a not in index else b
            raise DuplicateElement(f"unknown element {missing!r} in relation")
        up[index[a]] |= 1 << index[b]
    changed = True
    while changed:
        changed = False
        for i in range(n):
            acc = up[i]
            for j in bits(up[i]):
                acc |= up[j]
            if acc != up[i]:
                up[i] = acc
                changed = True
    for i in range(n):
        for j in bits(up[i]):
            if j != i and up[j] >> i & 1:
                raise CycleError(f"{names[i]!r} and {names[j]!r} are mutually related")
    return FinitePoset(names, up)


class MonotoneMap:
    """A monotone map between posets, stored as a total value table."""

    def __init__(self, source, target, values):
        self.source = source
        self.target = target
        self.values = tuple(values)
        if len(self.values) != source.n:
            raise NotMonotone(None, "value table is not total")
        for i in range(source.n):
            for j in bits(source.up[i]):
                if not target.leq(self.values[i], self.values[j]):
                    raise NotMonotone(
                        (source.names[i], source.names[j]),
                        f"{target.names[self.values[i]]} vs {target.names[self.values[j]]}",
                    )

    def __call__(self, i):
        return self.values[i]

    @classmethod
    def identity(cls, poset):
        return cls(poset, poset, range(poset.n))

    def compose(self, other):
        """self after other."""
        return type(self)(
            other.source, self.target, [self.values[v] for v in other.values]
        )

    def is_surjective(self):
        return len(set(self.values)) == self.target.n

    def __eq__(self, other):
        return (
            isinstance(other, MonotoneMap)
            and self.source == other.source
            and self.target == other.target
            and self.values == other.values
        )

    def __hash__(self):
        return hash((id(self.source), id(self.target), self.values))

    def __repr__(self):
        pairs = ", ".join(
            f"{self.source.names[i]}->{self.target.names[v]}"
            for i, v in enumerate(self.values)
        )
        return f"<{type(self).__name__} {pairs}>"


class Lattice(FinitePoset):
    """A finite complete lattice: binary join/meet tables plus bottom and top.

    Arbitrary joins and meets fold over the binary tables; the empty join is
    the bottom and the empty meet the top, which is all finite completeness
    needs.
    """

    def __init__(self, names, up, join_table, meet_table, bottom, top):
        super().__init__(names, up)
        self.join_t = join_table
        self.meet_t = meet_table
        self.bottom = bottom
        self.top = top

    def join(self, i, j):
        return self.join_t[i][j]

    def meet(self, i, j):
        return self.meet_t[i][j]

    def join_iter(self, items):
        out = self.bottom
        for i in items:
            out = self.join_t[out][i]
        return out

    def meet_iter(self, items):
        out = self.top
        for i in items:
            out = self.meet_t[out][i]
        return out

    def join_mask(self, mask):
        return self.join_iter(bits(mask))

    def meet_mask(self, mask):
        return self.meet_iter(bits(mask))

    def join_irreducibles(self):
        """Elements that are not the join of the elements strictly below."""
        out = []
        for i in range(self.n):
            if i != self.bottom and self.join_mask(self.down[i] ^ (1 << i)) != i:
                out.append(i)
        return out

    def opposite(self):
        return Lattice(self.names, self.down, self.meet_t, self.join_t, self.top, self.bottom)


def lattice_structure(poset):
    """Tabulate binary joins and meets of ``poset``; error with a witness pair.

    A finite poset with all binary joins and meets plus a top and bottom is a
    complete lattice, so success here certifies completeness.
    """
    n = poset.n
    join_table = []
    for i in range(n):
        row = []
        for j in range(n):
            ub = poset.up[i] & poset.up[j]
            least = [k for k in bits(ub) if ub & ~poset.up[k] == 0]
            if len(least) != 1:
                raise NotALattice("join", (poset.names[i], poset.names[j]))
            row.append(least[0])
        join_table.append(tuple(row))
    meet_table = []
    for i in range(n):
        row = []
        for j in range(n):
            lb = poset.down[i] & poset.down[j]
            greatest = [k for k in bits(lb) if lb & ~poset.down[k] == 0]
            if len(greatest) != 1:
                raise NotALattice("meet", (poset.names[i], poset.names[j]))
            row.append(greatest[0])
        meet_table.append(tuple(row))
    bottoms = [i for i in range(n) if poset.up[i] == poset.full]
    tops = [i for i in range(n) if poset.down[i] == poset.full]
    if len(bottoms) != 1:
        raise NotALattice("join", ("empty", "empty"))
    if len(tops) != 1:
        raise NotALattice("meet", ("empty", "empty"))
    return Lattice(
        poset.names, poset.up, tuple(join_table), tuple(meet_table), bottoms[0], tops[0]
    )


def is_distributive(lat):
    """Brute-force distributivity over all triples; returns (flag, witness)."""
    for a, b, c in iproduct(range(lat.n), repeat=3):
        lhs = lat.meet(a, lat.join(b, c))
        rhs = lat.join(lat.meet(a, b), lat.meet(a, c))
        if lhs != rhs:
            return False, (lat.names[a], lat.names[b], lat.names[c])
    return True, None


def adjoints(f, side):
    """The right adjoint of a join-preserving map, or the left adjoint of a
    meet-preserving one.

    ``g = adjoints(f, "right")`` satisfies f(a) <= b iff a <= g(b); it is
    computed as g(b) = join of {a : f(a) <= b} and the adjunction law is
    re-verified before returning.  NoAdjoint (with a witness) signals that f
    fails the preservation the requested side needs.
    """
    src, tgt = f.source, f.target
    if not isinstance(src, Lattice) or not isinstance(tgt, Lattice):
        raise TypeError("adjoints requires lattice source and target")
    if side == "right":
        if f(src.bottom) != tgt.bottom:
            raise NoAdjoint("right", "empty join")
        for a, b in iproduct(range(src.n), repeat=2):
            if f(src.join(a, b)) != tgt.join(f(a), f(b)):
                raise NoAdjoint("right", (src.names[a], src.names[b]))
        values = [
            src.join_iter(a for a in range(src.n) if tgt.leq(f(a), b))
            for b in range(tgt.n)
        ]
        g = MonotoneMap(tgt, src, values)
        for a, b in iproduct(range(src.n), range(tgt.n)):
            assert tgt.leq(f(a), b) == src.leq(a, g(b))
        return g
    if side == "left":
        if f(src.top) != tgt.top:
            raise NoAdjoint("left", "empty meet")
        for a, b in iproduct(range(src.n), repeat=2):
            if f(src.meet(a, b)) != tgt.meet(f(a), f(b)):
                raise NoAdjoint("left", (src.names[a], src.names[b]))
        values = [
            src.meet_iter(a for a in range(src.n) if tgt.leq(b, f(a)))
            for b in range(tgt.n)
        ]
        g = MonotoneMap(tgt, src, values)
        for a, b in iproduct(range(src.n), range(tgt.n)):
            assert tgt.leq(b, f(a)) == src.leq(g(b), a)
        return g
    raise ValueError(f"side must be 'left' or 'right', got {side!r}")


class ClosureOperator:
    """An inflationary monotone idempotent map, validated at construction."""

    def __init__(self, carrier, values):
        self.carrier = carrier
        self.values = tuple(values)
        v = self.values
        for i in range(carrier.n):
            if not carrier.leq(i, v[i]):
                raise LawViolation("inflationary", carrier.names[i])
            if v[v[i]] != v[i]:
                raise LawViolation("idempotent", carrier.names[i])
            for j in bits(carrier.up[i]):
                if not carrier.leq(v[i], v[j]):
                    raise LawViolation("monotone", (carrier.names[i], carrier.names[j]))

    def __call__(self, i):
        return self.values[i]

    def fixed_points(self):
        return [i for i in range(self.carrier.n) if self.values[i] == i]

    def quotient(self):
        """The lattice of fixed points and, for each element a, the index of
        j(a) in it.

        The fixed points of a closure operator are closed under meets, so
        meets and the top carry over; the join of fixed points a, b is
        j(a v b) and the bottom is j(bottom).  No least-upper-bound search.
        """
        lat = self.carrier
        j = self.values
        fixed = self.fixed_points()
        pos = {e: k for k, e in enumerate(fixed)}
        fixed_mask = sum(1 << e for e in fixed)
        up = [sum(1 << pos[f] for f in bits(lat.up[e] & fixed_mask)) for e in fixed]
        join_t = tuple(tuple(pos[j[lat.join(a, b)]] for b in fixed) for a in fixed)
        meet_t = tuple(tuple(pos[lat.meet(a, b)] for b in fixed) for a in fixed)
        quotient = Lattice(
            [lat.names[e] for e in fixed], up, join_t, meet_t, pos[j[lat.bottom]], pos[lat.top]
        )
        return quotient, [pos[v] for v in j]

    def is_identity(self):
        return all(v == i for i, v in enumerate(self.values))

    def __eq__(self, other):
        return (
            isinstance(other, ClosureOperator)
            and self.carrier == other.carrier
            and self.values == other.values
        )

    def __hash__(self):
        return hash(self.values)


def family_lattice(masks, names):
    """Lattice on a family of bitmasks closed under union and intersection,
    ordered by inclusion.  Joins are unions and meets intersections, so the
    tables come from dictionary lookups instead of least-upper-bound searches.
    """
    masks = list(masks)
    pos = {m: i for i, m in enumerate(masks)}
    if len(pos) != len(masks):
        raise DuplicateElement("repeated mask in family")
    k = len(masks)
    up = [
        sum(1 << j for j, mj in enumerate(masks) if mi & mj == mi)
        for mi in masks
    ]
    join_t = []
    meet_t = []
    for mi in masks:
        jrow = []
        mrow = []
        for mj in masks:
            jrow.append(pos[mi | mj])
            mrow.append(pos[mi & mj])
        join_t.append(tuple(jrow))
        meet_t.append(tuple(mrow))
    bot_mask = masks[0]
    top_mask = masks[0]
    for m in masks:
        bot_mask &= m
        top_mask |= m
    return Lattice(
        tuple(names), up, tuple(join_t), tuple(meet_t), pos[bot_mask], pos[top_mask]
    )


def upset_lattice(poset, limit=None):
    """The frame of up-sets of ``poset``; returns (lattice, masks)."""
    masks = poset.up_sets(limit)
    if masks is None:
        return None, None
    return family_lattice(masks, [poset.mask_name(m) for m in masks]), masks


def downset_lattice(poset, limit=None):
    masks = poset.down_sets(limit)
    if masks is None:
        return None, None
    return family_lattice(masks, [poset.mask_name(m) for m in masks]), masks


def least_fixpoint(lat, forcings, mult=None):
    """Values of the least closure operator j on ``lat`` with a <= j(b) for
    each forcing pair (a, b); given the multiplication table ``mult`` of a
    quantale on ``lat``, of the least nucleus, which also has
    j(a)j(b) <= j(ab).

    This is the one repair engine behind least closures and least nuclei.
    Repairs run round-robin over all elements until a full pass changes
    nothing; the candidate table only ever grows inside a finite lattice, so
    the loop terminates, and every repair step is forced in any closure (or
    nucleus) satisfying the forcings, which gives minimality.
    """
    n = lat.n
    j = list(range(n))
    pairs = list(forcings)
    changed = True
    while changed:
        changed = False
        for a, b in pairs:
            new = lat.join(j[b], a)
            if new != j[b]:
                j[b] = new
                changed = True
        for x in range(n):
            for y in bits(lat.up[x] ^ (1 << x)):
                new = lat.join(j[y], j[x])
                if new != j[y]:
                    j[y] = new
                    changed = True
        for x in range(n):
            new = j[j[x]]
            if new != j[x]:
                j[x] = lat.join(j[x], new)
                changed = True
        if mult is None:
            continue
        for a in range(n):
            for b in range(a, n):
                target = mult[a][b]
                new = lat.join(j[target], mult[j[a]][j[b]])
                if new != j[target]:
                    j[target] = new
                    changed = True
    return j


def least_closure(lat, forcings):
    """Least closure operator j on ``lat`` with a <= j(b) for each pair (a, b).

    Returns (closure, lattice of fixed points, surjection a -> j(a)).
    """
    closure = ClosureOperator(lat, least_fixpoint(lat, forcings))
    quotient, onto = closure.quotient()
    return closure, quotient, MonotoneMap(lat, quotient, onto)
