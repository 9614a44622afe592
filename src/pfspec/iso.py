"""Isomorphism search for finite posets and lattices.

Every isomorphism claim in the package is backed by an exhibited bijection,
never a cardinality count.  The search backtracks over elements sorted by an
order-theoretic profile (degrees, covers, join-irreducibility), which prunes
hard enough for the carriers we meet (a few hundred elements).
"""


def _poset_profile(poset):
    covers_up = [0] * poset.n
    covers_dn = [0] * poset.n
    for i, j in poset.covers():
        covers_up[i] += 1
        covers_dn[j] += 1
    return [
        (
            poset.down[i].bit_count(),
            poset.up[i].bit_count(),
            covers_dn[i],
            covers_up[i],
        )
        for i in range(poset.n)
    ]


def find_poset_iso(a, b):
    """An order isomorphism a -> b as a value list, or None.

    For lattices this is enough: any order isomorphism preserves all joins
    and meets that exist.
    """
    if a.n != b.n:
        return None
    pa, pb = _poset_profile(a), _poset_profile(b)
    if sorted(pa) != sorted(pb):
        return None
    candidates = [
        [j for j in range(b.n) if pb[j] == pa[i]] for i in range(a.n)
    ]
    order = sorted(range(a.n), key=lambda i: (len(candidates[i]), i))
    assigned = [None] * a.n
    used = [False] * b.n

    def extend(k):
        if k == a.n:
            return True
        i = order[k]
        for j in candidates[i]:
            if used[j]:
                continue
            ok = True
            for i2 in order[:k]:
                j2 = assigned[i2]
                if a.leq(i, i2) != b.leq(j, j2) or a.leq(i2, i) != b.leq(j2, j):
                    ok = False
                    break
            if ok:
                assigned[i] = j
                used[j] = True
                if extend(k + 1):
                    return True
                assigned[i] = None
                used[j] = False
        return False

    if extend(0):
        return list(assigned)
    return None


def find_lattice_iso(a, b):
    iso = find_poset_iso(a, b)
    if iso is None:
        return None
    # sanity: joins and meets transported (implied by order iso)
    for i in range(a.n):
        for j in range(a.n):
            if iso[a.join(i, j)] != b.join(iso[i], iso[j]):
                return None
    return iso


def canonical_poset_code(poset):
    """A permutation-invariant encoding of the order relation (small n only)."""
    from itertools import permutations

    best = None
    idx = range(poset.n)
    for perm in permutations(idx):
        code = 0
        bit = 0
        for a in idx:
            for b in idx:
                if poset.leq(perm[a], perm[b]):
                    code |= 1 << bit
                bit += 1
        if best is None or code < best:
            best = code
    return best
