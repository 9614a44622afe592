"""Quantale laws, nuclei, reflections, quotients, hom enumeration."""

from itertools import product

import pytest

from pfspec.catalog import chain, powerset_lattice, quantale_catalog
from pfspec.errors import LawViolation, NotTwoSided
from pfspec.order import bits
from pfspec.quantale import (
    FULL_CHECK_LIMIT,
    Quantale,
    enumerate_homs,
    frame_quantale,
    least_nucleus,
    localic_reflection,
    quotient_by,
    two_sided_reflection,
)


def idl_z4_quantale():
    # the 3-chain 0 < p < 1 with p*p = 0: the ideal quantale of Z/4
    return Quantale(chain(3), [[0, 0, 0], [0, 0, 1], [0, 1, 2]], 2)


def test_frame_is_valid_two_sided_idempotent():
    q = frame_quantale(powerset_lattice(2))
    assert q.two_sided and q.is_idempotent() and q.is_frame()


def test_idl_z4_is_two_sided_not_frame():
    q = idl_z4_quantale()
    assert q.two_sided and not q.is_idempotent() and not q.is_frame()


def test_non_associative_rejected():
    c3 = chain(3)
    with pytest.raises(LawViolation) as exc:
        Quantale(c3, [[0, 0, 0], [0, 2, 1], [0, 1, 2]], 2)
    assert "associativity" in str(exc.value) or "bilinearity" in str(exc.value)


def test_scalar_action():
    q = idl_z4_quantale()
    assert q.scalar(1, 1) == 1
    assert q.scalar(0, 1) == q.carrier.bottom


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
        assert surj.is_surjective()
        # QuantaleHom construction already verified hom laws; spot check
        assert surj(q.unit) == quotient.unit


# ---------------------------------------------------------------------------
# hom enumeration


def test_frame_homs_omega_to_lattice_unique():
    om = frame_quantale(chain(2))
    for lat in [chain(3), powerset_lattice(2)]:
        homs = enumerate_homs(om, frame_quantale(lat), "frame")
        assert len(homs) == 1
        h = homs[0]
        assert h(0) == lat.bottom and h(1) == lat.top


def test_supmaps_c2_to_c3():
    om = frame_quantale(chain(2))
    c3 = frame_quantale(chain(3))
    assert len(enumerate_homs(om, c3, "sup")) == 3


def test_two_sided_homs_idl_bool_to_omega():
    # Idl(B) is the 2-chain frame; unit and bottom are forced
    b = frame_quantale(chain(2))
    om = frame_quantale(chain(2))
    assert len(enumerate_homs(b, om, "two_sided")) == 1


def test_hom_enumeration_matches_brute_force():
    q1 = idl_z4_quantale()
    for _, q2 in quantale_catalog()[:4]:
        fast = {h.values for h in enumerate_homs(q1, q2, "two_sided")}
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
        downstairs = enumerate_homs(two, target, "quantale")
        upstairs = enumerate_homs(q, target, "quantale")
        factored = {tuple(h(surj(a)) for a in range(q.carrier.n)) for h in downstairs}
        assert factored == {h.values for h in upstairs}
        assert len(downstairs) == len(upstairs)


def test_validation_runs_up_to_the_full_check_limit():
    # meet with the bottom as unit breaks the unit law; only carriers of at
    # most FULL_CHECK_LIMIT elements are checked on construction
    small, large = chain(FULL_CHECK_LIMIT), chain(FULL_CHECK_LIMIT + 1)
    with pytest.raises(LawViolation) as exc:
        Quantale(small, small.meet_t, small.bottom)
    assert "unit" in str(exc.value)
    Quantale(large, large.meet_t, large.bottom)
