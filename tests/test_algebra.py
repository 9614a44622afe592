"""Semirings, localic presentations, the holoid quotient."""

import pytest

import pfspec.algebra
from pfspec.algebra import (
    FiniteCommMonoid,
    build_discrete_semiring,
    holoid_quotient,
    scott_localic_lattice,
    to_localic,
)
from pfspec.catalog import chain
from pfspec.errors import LawViolation, NotDistributive, NotMonotone
from pfspec.iso import find_poset_iso
from pfspec.order import build_poset
from pfspec.spectrum import _counit_composite
from pfspec.suplattice import SupMap
from reference import diamond_m3, monoid_catalog, semiring_catalog


def test_boolean_semiring_valid():
    b = build_discrete_semiring(["0", "1"], 0, 1, [[0, 1], [1, 1]], [[0, 0], [0, 1]])
    assert b.add(1, 1) == 1


def test_z4_valid():
    z4 = semiring_catalog()[1][1]
    assert z4.mul(2, 2) == 0


def test_distributivity_violation_witnessed():
    # corrupt Z/4 multiplication at 2*2: both monoid structures survive but
    # 2*(1+1) = 2 while 2*1 + 2*1 = 0
    add = [[(i + j) % 4 for j in range(4)] for i in range(4)]
    mul = [[(i * j) % 4 for j in range(4)] for i in range(4)]
    mul[2][2] = 2
    with pytest.raises(LawViolation) as exc:
        build_discrete_semiring(["0", "1", "2", "3"], 0, 1, add, mul)
    assert "distributivity" in str(exc.value)
    assert exc.value.witness == ("2", "1", "1")


def test_to_localic_discrete_roundtrip():
    for name, semiring in semiring_catalog():
        data = to_localic(semiring, name=name)
        assert data.mul_t == semiring.mul_t and data.add_t == semiring.add_t
        assert data.one_point == semiring.one and data.zero_point == semiring.zero
        assert data.is_discrete()


def test_to_localic_checks_no_law_of_a_built_semiring(monkeypatch):
    # the semiring laws are checked when the semiring is built, never again
    calls = []
    original = pfspec.algebra._check_comm_monoid
    monkeypatch.setattr(
        pfspec.algebra, "_check_comm_monoid", lambda *args: calls.append(args[3]) or original(*args)
    )
    add = [[(i + j) % 6 for j in range(6)] for i in range(6)]
    mul = [[i * j % 6 for j in range(6)] for i in range(6)]
    z6 = build_discrete_semiring([str(i) for i in range(6)], 0, 1, add, mul)
    assert calls == ["add", "mul"]
    to_localic(z6)
    assert calls == ["add", "mul"]


def test_to_localic_reversed_sierpinski():
    # multiplication is join, addition is meet, zero is the top point
    revs = build_discrete_semiring(["b", "t"], 1, 0, [[0, 0], [0, 1]], [[0, 1], [1, 1]])
    order = build_poset(["b", "t"], [("b", "t")])
    data = to_localic(revs, order=order)
    assert not data.is_discrete()
    assert data.zero_point == 1 and data.one_point == 0
    # the order must list the points under the semiring's names, in its order
    with pytest.raises(LawViolation) as exc:
        to_localic(revs, order=build_poset(["t", "b"], [("b", "t")]))
    assert exc.value.law == "order carrier"


def test_to_localic_non_monotone_rejected():
    # xor is a monoid on Z/2, but not monotone on the 2-chain
    xor = FiniteCommMonoid(["0", "1"], 0, [[0, 1], [1, 0]])
    order = build_poset(["0", "1"], [("0", "1")])
    with pytest.raises(NotMonotone):
        to_localic(xor, order=order)
    # as the addition of the field Z/2, under a monotone multiplication
    field = build_discrete_semiring(["0", "1"], 0, 1, xor.mul_t, [[0, 0], [0, 1]])
    with pytest.raises(NotMonotone) as exc:
        to_localic(field, order=order)
    assert str(exc.value).endswith(": add")


def test_counit_laws_as_supmap_equalities():
    data = to_localic(semiring_catalog()[1][1])  # Z4
    ident = SupMap.identity(data.locale.opens)
    assert _counit_composite(data, data.mul_t, data.one_point) == ident
    assert _counit_composite(data, data.add_t, data.zero_point) == ident


def test_scott_localic_lattice_c2_is_sierpinski():
    data = scott_localic_lattice(chain(2))
    assert data.locale.opens.n == 3
    assert data.zero_point == 0 and data.one_point == 1


def test_scott_localic_lattice_c3():
    data = scott_localic_lattice(chain(3))
    assert data.locale.points.n == 3
    assert data.mul(1, 2) == 1  # meet
    assert data.add(1, 2) == 2  # join


def test_scott_localic_lattice_m3_rejected():
    with pytest.raises(NotDistributive):
        scott_localic_lattice(diamond_m3())


# ---------------------------------------------------------------------------
# holoid quotient


def _quotient(monoid):
    """The quotient monoid, the surjection and the order."""
    table, surj, order = holoid_quotient(monoid)
    return FiniteCommMonoid(order.names, surj[monoid.unit], table), surj, order


def test_holoid_z2_trivial():
    z2 = FiniteCommMonoid(["1", "a"], 0, [[0, 1], [1, 0]])
    quotient, surj, order = _quotient(z2)
    assert quotient.n == 1


def test_holoid_nil2_three_chain():
    nil2 = FiniteCommMonoid(["1", "a", "0"], 0, [[0, 1, 2], [1, 2, 2], [2, 2, 2]])
    quotient, surj, order = _quotient(nil2)
    assert quotient.n == 3
    # divisibility order: 0 <= a <= 1
    zero, a, one = order.index("0"), order.index("a"), order.index("1")
    assert order.leq(zero, a) and order.leq(a, one)


def test_holoid_meet_monoid_is_identity():
    meet_c3 = FiniteCommMonoid(["1", "m", "0"], 0, [[0, 1, 2], [1, 1, 2], [2, 2, 2]])
    quotient, surj, order = _quotient(meet_c3)
    assert quotient.n == 3
    # g | f iff f <= g, so the divisibility order is the chain itself
    assert order.leq(order.index("0"), order.index("m"))
    assert order.leq(order.index("m"), order.index("1"))


@pytest.mark.parametrize("name,monoid", monoid_catalog())
def test_holoid_idempotent(name, monoid):
    q1, _, order1 = _quotient(monoid)
    q2, _, order2 = _quotient(q1)
    assert q1.n == q2.n
    assert find_poset_iso(order1, order2) is not None


@pytest.mark.parametrize("name,monoid", monoid_catalog())
def test_holoid_surjection_is_hom_and_order_reflecting(name, monoid):
    q, surj, order = _quotient(monoid)
    for a in range(monoid.n):
        for b in range(monoid.n):
            assert surj[monoid.mul(a, b)] == q.mul(surj[a], surj[b])
    div = monoid.divisibility()
    for a in range(monoid.n):
        for b in range(monoid.n):
            # [a] <= [b] iff b | a
            assert order.leq(surj[a], surj[b]) == bool(div[b] >> a & 1)


def test_holoid_congruence_is_checked():
    # with 1 <= a, multiplication by a is not monotone (a.a = 0 is not above
    # a), and the classes {1, a} and {0} are no congruence: a.a leaves the
    # class of 1.1
    nil2 = FiniteCommMonoid(["1", "a", "0"], 0, [[0, 1, 2], [1, 2, 2], [2, 2, 2]])
    with pytest.raises(LawViolation) as exc:
        holoid_quotient(nil2, build_poset(nil2.names, [("1", "a")]))
    assert (exc.value.law, exc.value.witness) == ("divisibility congruence", ("a", "a"))


def test_monoid_to_localic():
    for name, monoid in monoid_catalog():
        data = to_localic(monoid, name=name)
        assert not data.has_addition
        assert data.mul_t == monoid.mul_t
