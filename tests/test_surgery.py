import pytest

from floordiagrams.surgery import (
    SurgeryError,
    binom,
    check_conjecture_quadric,
    check_increase,
    check_mainproof_coeffs,
    check_u_inversion,
    mainproof_coeff,
    mainproof_sum,
    quadric_rhs_terms,
    u_coeff,
    u_inversion_sum,
)


def test_binom_clamps_to_zero():
    assert binom(4, 2) == 6
    assert binom(4, -1) == 0
    assert binom(3, 5) == 0
    assert binom(-1, 0) == 0


def test_u_coefficients():
    assert u_coeff(0, 0) == 1
    assert u_coeff(5, 0) == 1
    assert u_coeff(0, 1) == -2
    assert u_coeff(1, 1) == -3
    assert u_coeff(2, 1) == -4
    assert u_coeff(0, 2) == 2
    assert u_coeff(2, 2) == 9
    with pytest.raises(SurgeryError):
        u_coeff(-1, 0)


def test_u_inversion():
    assert u_inversion_sum(0, 0) == 1
    assert u_inversion_sum(0, 1) == 0
    assert u_inversion_sum(1, 2) == 0
    report = check_u_inversion()
    assert report["passed"]
    assert report["checked"] == 13 * 13
    assert report["failures"] == []


def test_mainproof_coefficients():
    assert mainproof_coeff(0, 0, 0) == 1
    assert mainproof_coeff(1, 1, 0) == -2
    assert mainproof_coeff(2, 1, 0) == -1
    assert mainproof_sum(2, 1) == 0
    assert mainproof_sum(2, 2) == 4
    assert mainproof_sum(3, 3) == -8
    report = check_mainproof_coeffs()
    assert report["passed"]
    assert report["failures"] == []


def test_the_sums_are_their_stated_terms_summed():
    # the reference: every term as binom and (-1) ** k state it, past the
    # verify bound and where a binomial vanishes or b > l
    for m in range(16):
        for k in range(16):
            assert u_coeff(m, k) == (-1) ** k * (binom(m + k, m) + binom(m + k - 1, m))
        for n in range(-2, 16):
            terms = [u_coeff(m, k) * binom(m + 2 * n, n - k) for k in range(n + 1)]
            assert u_inversion_sum(m, n) == sum(terms)
    for l in range(-1, 16):
        for b in range(-1, l + 3):
            for beta in range(-1, b + 3):
                n, j = 2 * l - 2 * b, l - 2 * beta
                terms = [2 * (-1) ** k * binom(n, j - k) for k in range(1, l + 1)]
                assert mainproof_coeff(l, b, beta) == binom(n, j) + sum(terms)
            terms = [mainproof_coeff(l, b, beta) * binom(b, beta) for beta in range(b + 1)]
            assert mainproof_sum(l, b) == sum(terms)


# the Lagrangian sphere class (-1, 1) of the quadric's bidegree lattice
QH_SPHERE = (-1, 1)


def test_check_increase():
    report = check_increase({(2, 2): 1, (3, 1): -1}, QH_SPHERE)
    assert report["passed"]
    report = check_increase({(2, 2): 2, (3, 1): 1}, QH_SPHERE)
    assert not report["passed"]
    assert report["failures"][0]["class"] == [2, 2]
    # folded: values[d] + 2 sum_{k>=1} (-1)^k values[d - kS]
    report = check_increase({(2, 2): 1, (3, 1): 1}, QH_SPHERE)
    assert report["rows"][0] == {"class": [2, 2], "before": 1, "after": -1}
    report = check_increase({(2, 2): 6, (3, 1): 1, (1, 3): 1}, QH_SPHERE)
    assert [r["after"] for r in report["rows"]] == [-9, 4, 1]
    assert report["checked"] == 3
    # (3, 1) is missing from the middle of the range and counts as 0
    report = check_increase({(2, 2): 5, (4, 0): 1}, QH_SPHERE)
    assert report["rows"][0] == {"class": [2, 2], "before": 5, "after": 7}
    assert report["passed"]
    with pytest.raises(SurgeryError):
        check_increase({(2, 2): 1}, (0, 0))


def test_quadric_rhs_terms():
    assert quadric_rhs_terms(2, 2) == [
        {"k": 0, "coeff": 1, "bidegree": (4, 2)},
        {"k": 1, "coeff": -4, "bidegree": (5, 1)},
    ]
    terms = quadric_rhs_terms(3, 0)
    assert [(t["coeff"], t["bidegree"]) for t in terms] == [
        (1, (3, 3)),
        (-2, (4, 2)),
        (2, (5, 1)),
    ]
    with pytest.raises(SurgeryError):
        quadric_rhs_terms(0, 1)


def test_conjecture_genus_instances(table):
    for a, b, genus in [(1, 0, 0), (1, 3, 0), (2, 0, 1), (2, 2, 2), (3, 0, 4)]:
        report = check_conjecture_quadric(table, a, b, genus)
        assert report["passed"], (a, b, genus, report)
    # top genus on the even triangle: a single curve on both sides
    report = check_conjecture_quadric(table, 3, 0, 4)
    assert report["lhs"] == {"0": 1}


def test_conjecture_pair_instances(table):
    report = check_conjecture_quadric(table, 2, 2, 0, pairs=2)
    assert report["passed"]
    assert report["lhs"]["0"] == 176
    report = check_conjecture_quadric(table, 2, 0, 0, pairs=3)
    assert report["passed"]
    with pytest.raises(SurgeryError, match="genus 0"):
        check_conjecture_quadric(table, 2, 2, 1, pairs=1)
