import json

import pytest
from hypothesis import given, strategies as st

from floordiagrams.laurent import LaurentError, LaurentPoly, mul_add, quantum_square

polys = st.dictionaries(
    st.integers(min_value=-6, max_value=6),
    st.integers(min_value=-50, max_value=50),
    max_size=6,
).map(LaurentPoly)

# exponent maps with zero coefficients included
coeff_maps = st.dictionaries(
    st.integers(min_value=-9, max_value=9),
    st.integers(min_value=-5, max_value=5),
    max_size=6,
)


def _ref_nonzero(terms):
    return {e: c for e, c in terms.items() if c}


def _ref_add(f, g, sign=1):
    return _ref_nonzero({e: f.get(e, 0) + sign * g.get(e, 0) for e in f.keys() | g.keys()})


def _ref_mul(f, g):
    out = {}
    for e, c in f.items():
        for k, d in g.items():
            out[e + k] = out.get(e + k, 0) + c * d
    return _ref_nonzero(out)


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


def test_construction_rejects_bools():
    # bool is an int subclass, but from_json_dict refuses a JSON true, so the
    # constructor must not accept a map its own JSON form cannot be read from
    with pytest.raises(LaurentError):
        LaurentPoly({0: True})
    with pytest.raises(LaurentError):
        LaurentPoly({True: 2})


@given(
    st.dictionaries(
        st.one_of(st.integers(-9, 9), st.booleans()),
        st.one_of(st.integers(), st.booleans()),
        max_size=6,
    )
)
def test_every_accepted_map_survives_json(coeffs):
    try:
        p = LaurentPoly(coeffs)
    except LaurentError:
        return
    assert LaurentPoly.from_json_dict(json.loads(json.dumps(p.to_json_dict()))) == p


def test_from_json_dict_drops_zero_coefficients():
    p = LaurentPoly.from_json_dict({"-1": 1, "0": 0, "2": 3})
    assert p == LaurentPoly({-1: 1, 2: 3})
    assert p.to_json_dict() == {"-1": 1, "2": 3}
    assert not LaurentPoly.from_json_dict({"0": 0, "4": 0})


@pytest.mark.parametrize(
    "data, message",
    [
        ({"0": True}, "coefficients must be integers"),
        ({"0": 1, "1": 2.0}, "coefficients must be integers"),
        ({"0": "1"}, "coefficients must be integers"),
        ({"1": 1, "01": 5}, "two keys name the same exponent"),
    ],
)
def test_from_json_dict_refusals(data, message):
    with pytest.raises(LaurentError) as info:
        LaurentPoly.from_json_dict(data)
    assert str(info.value) == message


def test_from_json_dict_never_aliases_its_argument():
    # with or without a zero to drop, and with keys that are already ints
    for data, kept in (
        ({"0": 10, "1": 1}, {0: 10, 1: 1}),
        ({"0": 10, "1": 0}, {0: 10}),
        ({0: 10, 1: 1}, {0: 10, 1: 1}),
    ):
        p = LaurentPoly.from_json_dict(data)
        data.clear()
        assert p.to_coeff_dict() == kept


def test_zero_and_one():
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


def test_evaluate_rejects_other_points():
    p = LaurentPoly({0: 1})
    with pytest.raises(LaurentError):
        p.evaluate(2)


def test_pow():
    p = LaurentPoly({1: 1, 0: 1})
    assert p ** 0 == LaurentPoly.one()
    assert p ** 3 == p * p * p
    with pytest.raises(LaurentError):
        p ** -1


@given(polys)
def test_json_round_trip(p):
    assert LaurentPoly.from_json_dict(p.to_json_dict()) == p


def test_quantum_square_values():
    assert quantum_square(1) == LaurentPoly.one()
    assert quantum_square(2) == LaurentPoly({-1: 1, 0: 2, 1: 1})
    assert quantum_square(3) == LaurentPoly({-2: 1, -1: 2, 0: 3, 1: 2, 2: 1})
    for bad in (0, -1, 2.0):
        with pytest.raises(LaurentError):
            quantum_square(bad)


def test_quantum_square_matches_a_doubled_reference():
    for n in range(1, 41):
        # [n] has half-integer exponents for even n: build it with doubled
        # keys, square it, and halve the keys, which are all even
        doubled = _ref_mul(*[{e2: 1 for e2 in range(1 - n, n, 2)}] * 2)
        assert all(e2 % 2 == 0 for e2 in doubled)
        terms = quantum_square(n).to_coeff_dict()
        assert terms == {e2 // 2: c for e2, c in doubled.items()}
        assert terms == {-e: c for e, c in terms.items()}
        assert quantum_square(n).evaluate(1) == n * n


def test_quantum_square_at_minus_one():
    # [n]^2 at q=-1 is 0 for even n, 1 for odd n
    for n in range(1, 41):
        assert quantum_square(n).evaluate(-1) == n % 2


def test_str_formatting():
    assert str(LaurentPoly.zero()) == "0"
    assert str(LaurentPoly({-1: 1, 0: 10, 1: 1})) == "q^-1 + 10 + q"
    assert str(LaurentPoly({2: -3})) == "-3q^2"


@given(coeff_maps, coeff_maps, st.integers(min_value=-4, max_value=4))
def test_arithmetic_matches_a_plain_dict_reference(f, g, n):
    p, q = LaurentPoly(f), LaurentPoly(g)

    def terms(poly):
        out = poly.to_coeff_dict()
        assert list(out) == sorted(out)
        assert all(out.values())
        return out

    assert terms(p) == _ref_nonzero(f)
    assert terms(p + q) == _ref_add(f, g)
    assert terms(p - q) == _ref_add(f, g, -1)
    assert terms(-p) == _ref_add({}, f, -1)
    assert terms(p * q) == _ref_mul(f, g)
    assert terms(p * n) == terms(n * p) == _ref_nonzero({e: c * n for e, c in f.items()})
    power = {0: 1}
    for k in range(4):
        assert terms(p ** k) == power
        power = _ref_mul(power, f)
    into = {0: 1}
    assert mul_add(f, g.items(), n, into) is into
    assert _ref_nonzero(into) == _ref_add({0: 1}, _ref_mul(f, {e: c * n for e, c in g.items()}))


@given(coeff_maps)
def test_insertion_order_does_not_matter(f):
    p = LaurentPoly(f)
    q = LaurentPoly(dict(reversed(list(f.items()))))
    assert p == q
    assert hash(p) == hash(q)
    assert str(p) == str(q)
    assert repr(p) == repr(q)

