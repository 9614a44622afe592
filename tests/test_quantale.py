"""Quantale laws, nuclei, reflections, quotients, hom enumeration."""

from itertools import product

import pytest

from pfspec.caps import Caps
from pfspec.catalog import chain, powerset_lattice, quantale_catalog
from pfspec.errors import CapExceeded, LawViolation, NotTwoSided
from pfspec.order import bits
from pfspec.quantale import (
    Quantale,
    QuantaleHom,
    enumerate_homs,
    frame_quantale,
    least_nucleus,
    localic_reflection,
    two_sided_reflection,
)
from pfspec.suplattice import all_supmaps, j_evaluator
from reference import quotient_by


def idl_z4_quantale():
    # the 3-chain 0 < p < 1 with p*p = 0: the ideal quantale of Z/4
    return Quantale(chain(3), [[0, 0, 0], [0, 0, 1], [0, 1, 2]], 2)


def _is_idempotent(q):
    return all(q.mul(a, a) == a for a in range(q.carrier.n))


def test_frame_is_valid_two_sided_idempotent():
    q = frame_quantale(powerset_lattice(2))
    assert q.two_sided and _is_idempotent(q) and q.is_frame()


def test_idl_z4_is_two_sided_not_frame():
    q = idl_z4_quantale()
    assert q.two_sided and not _is_idempotent(q) and not q.is_frame()


def test_non_associative_rejected():
    c3 = chain(3)
    with pytest.raises(LawViolation) as exc:
        Quantale(c3, [[0, 0, 0], [0, 2, 1], [0, 1, 2]], 2)
    assert "associativity" in str(exc.value) or "bilinearity" in str(exc.value)


def test_scalar_action():
    # the Omega-scalar action p*q goes through the unique map Omega -> Q,
    # 0 -> bottom and 1 -> unit: 1*q = q and 0*q = bottom
    q = idl_z4_quantale()
    for a in range(q.carrier.n):
        assert q.mul(q.unit, a) == a
        assert q.mul(q.carrier.bottom, a) == q.carrier.bottom


# ---------------------------------------------------------------------------
# subset quantales for the reflection oracles


def _subset_quantale(names, unit_name, mul):
    """The powerset of a finite commutative monoid with elementwise product."""
    n = len(names)
    lat = powerset_lattice(n)
    # element index equals its subset bitmask by construction
    index = {x: i for i, x in enumerate(names)}
    table = []
    for s in range(1 << n):
        row = []
        for t in range(1 << n):
            prod = 0
            for a in bits(s):
                for b in bits(t):
                    prod |= 1 << index[mul(names[a], names[b])]
            row.append(prod)
        table.append(row)
    return Quantale(lat, table, 1 << index[unit_name])


def test_two_sided_reflection_nil_monoid():
    # {1, a, 0} with a*a = 0: fixed points of S -> S.M are the monoid ideals,
    # computed here directly over all 8 subsets as the oracle
    mul = {("1", "1"): "1", ("1", "a"): "a", ("1", "0"): "0",
           ("a", "a"): "0", ("a", "0"): "0", ("0", "0"): "0"}
    op = lambda x, y: mul.get((x, y)) or mul[(y, x)]
    q = _subset_quantale(["1", "a", "0"], "1", op)
    two, surj = two_sided_reflection(q)
    full = 7
    oracle = sorted(
        s for s in range(8) if q.mul(s, full) == s
    )
    assert [q.carrier.names[i] for i in oracle] == [
        two.carrier.names[i] for i in range(two.carrier.n)
    ]
    assert two.carrier.n == 4  # the 4-chain of monoid ideals
    assert all(two.carrier.leq(i, j) or two.carrier.leq(j, i)
               for i in range(4) for j in range(4))


def test_two_sided_reflection_group():
    q = _subset_quantale(["1", "a"], "1", lambda x, y: "1" if x == y else "a")
    two, surj = two_sided_reflection(q)
    assert two.carrier.n == 2  # {empty, M}
    assert two.two_sided


def test_two_sided_reflection_identity_on_two_sided():
    q = idl_z4_quantale()
    two, surj = two_sided_reflection(q)
    assert two.carrier.n == q.carrier.n
    assert surj.values == tuple(range(3))


def test_two_sided_reflection_idempotent():
    mul = {("1", "1"): "1", ("1", "a"): "a", ("1", "0"): "0",
           ("a", "a"): "0", ("a", "0"): "0", ("0", "0"): "0"}
    op = lambda x, y: mul.get((x, y)) or mul[(y, x)]
    q = _subset_quantale(["1", "a", "0"], "1", op)
    two, _ = two_sided_reflection(q)
    again, surj = two_sided_reflection(two)
    assert again.carrier.names == two.carrier.names


def test_localic_reflection_frame_identity():
    q = frame_quantale(powerset_lattice(2))
    r, rho = localic_reflection(q)
    assert r.carrier.n == q.carrier.n


def test_localic_reflection_idl_z4():
    # p <= j(p*p) = j(0) collapses {0, p}: the radical ideals of Z/4
    q = idl_z4_quantale()
    r, rho = localic_reflection(q)
    assert r.carrier.n == 2
    assert rho(0) == rho(1)


def test_localic_reflection_idl_z6_identity():
    # the ideal lattice of Z/6 is already a frame (6 squarefree)
    p2 = powerset_lattice(2)
    q = frame_quantale(p2)
    r, rho = localic_reflection(q)
    assert r.carrier.n == 4


def test_localic_reflection_requires_two_sided():
    q = _subset_quantale(["1", "a"], "1", lambda x, y: "1" if x == y else "a")
    with pytest.raises(NotTwoSided):
        localic_reflection(q)


def test_localic_reflection_output_is_frame():
    for _, q in quantale_catalog():
        r, _ = localic_reflection(q)
        assert r.is_frame()
        for a in range(r.carrier.n):
            assert r.mul(a, a) == a
            for b in range(r.carrier.n):
                assert r.mul(a, b) == r.carrier.meet(a, b)


def test_frame_reflection_forcing_equivalence():
    # forcing a <= j(a*a) produces the same nucleus as forcing
    # a/\b <= j(a*b) over all pairs (equivalent under two-sidedness)
    for _, q in quantale_catalog():
        n = q.carrier.n
        square = least_nucleus(q, [(a, q.mul(a, a)) for a in range(n)])
        pairs = least_nucleus(
            q,
            [
                (q.carrier.meet(a, b), q.mul(a, b))
                for a in range(n)
                for b in range(n)
            ],
        )
        assert square.values == pairs.values


def test_quotient_by_no_relations_identity():
    q = idl_z4_quantale()
    quotient, surj = quotient_by(q, [])
    assert quotient.carrier.n == q.carrier.n


def test_quotient_by_collapse_all():
    # forcing top <= j(bottom) collapses everything
    q = idl_z4_quantale()
    quotient, surj = quotient_by(q, [(q.carrier.top, q.carrier.bottom)])
    assert quotient.carrier.n == 1


def test_quotient_by_four_chain():
    # 4-chain monoid-ideal quantale; forcing level1 <= j(bottom) merges the
    # bottom two levels
    c4 = chain(4)
    q = frame_quantale(c4)
    quotient, surj = quotient_by(q, [(1, 0)])
    assert quotient.carrier.n == 3


def test_quotient_surjections_are_quantale_homs():
    q = idl_z4_quantale()
    for quotient, surj in [
        two_sided_reflection(q),
        localic_reflection(q),
        quotient_by(q, [(1, 0)]),
    ]:
        assert set(surj.values) == set(range(quotient.carrier.n))
        # QuantaleHom construction already verified hom laws; spot check
        assert surj(q.unit) == quotient.unit


# ---------------------------------------------------------------------------
# hom enumeration


def _expanded(q1, q2, homs):
    """Each hom held on J, expanded to every element of q1 and checked as a
    QuantaleHom: its value table."""
    value = j_evaluator(q1.carrier, q2.carrier)
    return [QuantaleHom(q1, q2, [value(f, a) for a in range(q1.carrier.n)]).values for f in homs]


def test_frame_homs_omega_to_lattice_unique():
    # between frames the quantale homs are the frame homs; Omega's one
    # join-irreducible is its top
    om = frame_quantale(chain(2))
    for lat in [chain(3), powerset_lattice(2)]:
        q = frame_quantale(lat)
        homs = enumerate_homs(om, q)
        assert homs == [(lat.top,)]
        assert _expanded(om, q, homs) == [(lat.bottom, lat.top)]


def test_supmaps_c2_to_c3():
    assert len(all_supmaps(chain(2), chain(3))) == 3


def test_two_sided_homs_idl_bool_to_omega():
    # Idl(B) is the 2-chain frame; unit and bottom are forced
    b = frame_quantale(chain(2))
    om = frame_quantale(chain(2))
    assert len(enumerate_homs(b, om)) == 1


def test_hom_enumeration_matches_brute_force():
    q1 = idl_z4_quantale()
    for _, q2 in quantale_catalog()[:4]:
        fast = set(_expanded(q1, q2, enumerate_homs(q1, q2)))
        brute = set()
        for values in product(range(q2.carrier.n), repeat=3):
            if values[0] != q2.carrier.bottom or values[2] != q2.unit:
                continue
            if any(
                values[q1.carrier.join(a, b)] != q2.carrier.join(values[a], values[b])
                for a in range(3)
                for b in range(3)
            ):
                continue
            if any(
                values[q1.mul(a, b)] != q2.mul(values[a], values[b])
                for a in range(3)
                for b in range(3)
            ):
                continue
            brute.add(values)
        assert fast == brute


def test_hom_search_cap_counts_the_nodes_reached():
    # C5frame into nilC5: only 0 and 1 are idempotent in nilC5, so
    # f(a) = f(a)f(a) prunes every other value as soon as it is tried; the
    # search stops at the 17th node past a budget of 16 and finishes within
    # 32 nodes, where all_supmaps would face 5^4 assignments
    c5, nil_c5 = dict(quantale_catalog())["C5frame"], dict(quantale_catalog())["nilC5"]
    with pytest.raises(CapExceeded) as exc:
        enumerate_homs(c5, nil_c5, Caps(max_exhaustive=4))
    assert (exc.value.what, exc.value.size, exc.value.cap) == ("hom enumeration", 17, 16)
    homs = enumerate_homs(c5, nil_c5, Caps(max_exhaustive=5))
    assert homs == [(0, 0, 0, 4), (0, 0, 4, 4), (0, 4, 4, 4), (4, 4, 4, 4)]
    assert _expanded(c5, nil_c5, homs) == [(0, 0, 0, 0, 4), (0, 0, 0, 4, 4), (0, 0, 4, 4, 4), (0, 4, 4, 4, 4)]


def test_reflection_universality_small():
    # every hom into a two-sided quantale factors uniquely through the
    # two-sided reflection
    mul = {("1", "1"): "1", ("1", "a"): "a", ("1", "0"): "0",
           ("a", "a"): "0", ("a", "0"): "0", ("0", "0"): "0"}
    op = lambda x, y: mul.get((x, y)) or mul[(y, x)]
    q = _subset_quantale(["1", "a", "0"], "1", op)
    two, surj = two_sided_reflection(q)
    for _, target in [("Omega", frame_quantale(chain(2))),
                      ("nilC3", quantale_catalog()[5][1])]:
        downstairs = _expanded(two, target, enumerate_homs(two, target))
        upstairs = _expanded(q, target, enumerate_homs(q, target))
        factored = {tuple(h[surj(a)] for a in range(q.carrier.n)) for h in downstairs}
        assert factored == set(upstairs)
        assert len(downstairs) == len(upstairs)


def test_validation_runs_on_every_carrier():
    # meet with the bottom as unit breaks the unit law; carriers of more
    # than 40 elements, which were once left unchecked, are checked too
    large = chain(41)
    with pytest.raises(LawViolation) as exc:
        Quantale(large, large.meet_t, large.bottom)
    assert "unit" in str(exc.value)
