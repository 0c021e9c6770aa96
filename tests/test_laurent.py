import pytest
from hypothesis import given, strategies as st

from floordiagrams.laurent import LaurentError, LaurentPoly, quantum_integer

polys = st.dictionaries(
    st.integers(min_value=-6, max_value=6),
    st.integers(min_value=-50, max_value=50),
    max_size=6,
).map(LaurentPoly)


def test_construction_drops_zeros():
    p = LaurentPoly({-1: 1, 0: 0, 3: 2})
    assert p.to_coeff_dict() == {-1: 1, 3: 2}


def test_construction_rejects_non_ints():
    with pytest.raises(LaurentError):
        LaurentPoly({0.5: 1})
    with pytest.raises(LaurentError):
        LaurentPoly({0: 1.5})
    # JSON coefficients are checked, not truncated by int()
    for coeff in (7.9, 7.0, True, "7"):
        with pytest.raises(LaurentError):
            LaurentPoly.from_json_dict({"0": coeff})


def test_zero_and_one():
    assert LaurentPoly.zero().is_zero
    assert not LaurentPoly.zero()
    assert LaurentPoly.one().to_coeff_dict() == {0: 1}
    assert LaurentPoly.one() * LaurentPoly({2: 7}) == LaurentPoly({2: 7})


@given(polys, polys)
def test_addition_commutes(p, q):
    assert p + q == q + p


@given(polys, polys, polys)
def test_addition_associates(p, q, r):
    assert (p + q) + r == p + (q + r)


@given(polys, polys, polys)
def test_multiplication_distributes(p, q, r):
    assert p * (q + r) == p * q + p * r


@given(polys, polys)
def test_multiplication_commutes(p, q):
    assert p * q == q * p


@given(polys)
def test_subtraction_and_negation(p):
    assert p - p == LaurentPoly.zero()
    assert -(-p) == p
    assert p + (-p) == LaurentPoly.zero()


@given(polys, st.integers(min_value=-9, max_value=9))
def test_int_scaling_matches_repeated_addition(p, n):
    total = LaurentPoly.zero()
    for _ in range(abs(n)):
        total = total + p
    if n < 0:
        total = -total
    assert n * p == total


@given(polys)
def test_evaluation_is_a_ring_map_at_both_points(p):
    q = LaurentPoly({0: 3, 1: -2})
    for q0 in (1, -1):
        assert (p + q).evaluate(q0) == p.evaluate(q0) + q.evaluate(q0)
        assert (p * q).evaluate(q0) == p.evaluate(q0) * q.evaluate(q0)


def test_evaluate_rejects_other_points_and_half_exponents():
    p = LaurentPoly({0: 1})
    with pytest.raises(LaurentError):
        p.evaluate(2)
    half = quantum_integer(2)
    assert half.evaluate(1) == 2
    with pytest.raises(LaurentError):
        half.evaluate(-1)


def test_pow():
    p = LaurentPoly({1: 1, 0: 1})
    assert p ** 0 == LaurentPoly.one()
    assert p ** 3 == p * p * p
    with pytest.raises(LaurentError):
        p ** -1


@given(polys)
def test_json_round_trip(p):
    assert LaurentPoly.from_json_dict(p.to_json_dict()) == p


def test_quantum_integer_values():
    assert quantum_integer(1) == LaurentPoly.one()
    assert quantum_integer(2).items_doubled() == ((-1, 1), (1, 1))
    assert quantum_integer(3) == LaurentPoly({-1: 1, 0: 1, 1: 1})
    with pytest.raises(LaurentError):
        quantum_integer(0)


@given(st.integers(min_value=1, max_value=40))
def test_quantum_integer_shape(n):
    qn = quantum_integer(n)
    assert qn.evaluate(1) == n
    assert qn.is_palindromic()
    assert len(qn.items_doubled()) == n
    # squares always have integer exponents: that's why multiplicities do
    assert (qn * qn).has_integer_exponents()


def test_quantum_square_at_minus_one():
    # [n]^2 at q=-1 is 0 for even n, 1 for odd n
    for n in range(1, 9):
        assert (quantum_integer(n) ** 2).evaluate(-1) == n % 2


def test_min_max_exponent():
    p = LaurentPoly({-3: 2, 5: 1})
    assert p.min_exponent() == -3
    assert p.max_exponent() == 5
    with pytest.raises(LaurentError):
        LaurentPoly.zero().min_exponent()
    with pytest.raises(LaurentError):
        quantum_integer(2).max_exponent()


def test_str_formatting():
    assert str(LaurentPoly.zero()) == "0"
    assert str(LaurentPoly({-1: 1, 0: 10, 1: 1})) == "q^-1 + 10 + q"
    assert str(LaurentPoly({2: -3})) == "-3q^2"
