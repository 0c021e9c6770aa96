"""Published counts on the plane, the quadric and F2, computed without the
engine: genus-0 counts by recursion, and curves with few nodes by closed
formulas and polynomiality in the degree."""

from fractions import Fraction
from functools import cache
from math import comb

import pytest

from floordiagrams.polygon import HPolygon


def kontsevich(d_max: int) -> list[int]:
    """N_1..N_d_max from Kontsevich's recursion for rational plane curves
    through 3d - 1 general points (index 0 is unused)."""
    n = [0, 1]
    for d in range(2, d_max + 1):
        n.append(
            sum(
                n[a] * n[d - a] * a * a * (d - a)
                * ((d - a) * comb(3 * d - 4, 3 * a - 2) - a * comb(3 * d - 4, 3 * a - 1))
                for a in range(1, d)
            )
        )
    return n


def test_kontsevich_recursion_gives_the_published_numbers():
    assert kontsevich(8)[1:] == [
        1, 1, 12, 620, 87304, 26312976, 14616808192, 13525751027392
    ]


@pytest.mark.parametrize("degree", range(1, 9))
def test_complex_count_matches_kontsevich(table, degree):
    assert table.gw_value(HPolygon.p2_triangle(degree), 0) == kontsevich(degree)[degree]


@pytest.mark.parametrize(
    "degree, welschinger",
    # Itenberg-Kharlamov-Shustin: totally real point configurations
    [(3, 8), (4, 240), (5, 18264), (6, 2845440), (7, 792731520), (8, 359935488000)],
)
def test_real_count_matches_welschinger(table, degree, welschinger):
    assert table.welschinger_value(HPolygon.p2_triangle(degree), 0) == welschinger


@cache
def quadric_count(a: int, b: int) -> int:
    """Rational curves of bidegree (a, b) on P^1 x P^1 through 2a + 2b - 1
    general points, by the Kontsevich-Manin recursion (arXiv:hep-th/9402147):
    WDVV with the two rulings D1, D2 (D1.D2 = 1) gives, with n and n1 the
    point counts of beta = (a, b) and beta1 = (a1, b1),
    N_beta = sum N_beta1 N_beta2 (beta1.beta2)
             [a1 b2 C(n - 3, n1 - 1) - a1 b1 C(n - 3, n1)]
    over the splittings beta = beta1 + beta2 into nonzero classes."""
    if a + b == 1:
        return 1
    n = 2 * a + 2 * b - 1
    total = 0
    for a1 in range(a + 1):
        for b1 in range(b + 1):
            a2, b2 = a - a1, b - b1
            if a1 + b1 and a2 + b2:
                n1 = 2 * a1 + 2 * b1 - 1
                total += (
                    quadric_count(a1, b1) * quadric_count(a2, b2) * (a1 * b2 + a2 * b1)
                    * (a1 * b2 * comb(n - 3, n1 - 1) - a1 * b1 * comb(n - 3, n1))
                )
    return total


def test_quadric_recursion_gives_the_published_numbers():
    assert [quadric_count(a, a) for a in range(1, 6)] == [1, 12, 3510, 6508640, 43628131782]
    assert [quadric_count(2, b) for b in range(1, 6)] == [1, 12, 96, 640, 3840]
    assert quadric_count(3, 5) == quadric_count(5, 3) == 1763415


@pytest.mark.parametrize(
    "a, b", [(a, b) for a in range(1, 8) for b in range(1, 9 - a)] + [(5, 5)]
)
def test_quadric_complex_count_matches_wdvv(table, a, b):
    assert table.gw_value(HPolygon.rectangle(a, b), 0) == quadric_count(a, b)


def f2_count(a: int, b: int) -> int:
    """Rational curves in the class a e + b f on the Hirzebruch surface F2
    (f a fiber, e the section of square 2) through 4a + 2b - 1 general
    points, by the formula of Abramovich-Bertram ("The formula 12 = 10 + 2 x 1
    and its generalizations") over the quadric counts of the deformation of
    F2 to P^1 x P^1, where a e + b f becomes bidegree (a + b, a): the sum over k
    of u(b, k) N_(a+b+k, a-k) with a - k >= 1, where
    u(b, k) = (-1)^k (C(b+k, b) + C(b+k-1, b)) and C(b-1, b) = 0."""
    return sum(
        (-1) ** k * (comb(b + k, b) + (comb(b + k - 1, b) if k else 0))
        * quadric_count(a + b + k, a - k)
        for k in range(a)
    )


def test_f2_formula_gives_the_published_numbers():
    # 12 = 10 + 2 x 1: N_(2,2) on the quadric against the class 2e on F2
    assert f2_count(2, 0) == 10
    assert [f2_count(1, b) for b in range(6)] == [1] * 6


@pytest.mark.parametrize(
    "a, b", [(a, b) for a in range(1, 5) for b in range(7 - a)] + [(5, 0)]
)
def test_f2_complex_count_matches_abramovich_bertram(table, a, b):
    assert table.gw_value(HPolygon.sigma2_trapezoid(a, b), 0) == f2_count(a, b)


# -- curves with delta nodes: genus = interior point count - delta -------------


def nodal_value(table, polygon, delta):
    """The refined invariant of the curves in polygon's class with delta nodes."""
    return table.refined_invariant(polygon, polygon.interior_lattice_count() - delta)


def plane_severi(d: int, delta: int) -> int:
    """Curves of degree d with delta nodes through the right number of general
    points, for delta <= 3; irreducible ones exactly when d >= delta + 2."""
    if delta == 1:
        return 3 * (d - 1) ** 2
    if delta == 2:
        return 3 * (d - 1) * (d - 2) * (3 * d * d - 3 * d - 11) // 2
    # Kleiman-Piene (arXiv:math/9903192)
    return (
        9 * d**6 - 54 * d**5 + 9 * d**4 + 423 * d**3 - 458 * d**2 - 829 * d + 1050
    ) // 2


@pytest.mark.parametrize(
    "delta, degree", [(delta, d) for delta in (1, 2, 3) for d in range(delta + 2, 11)]
)
def test_nodal_plane_count_matches_the_closed_formula(table, delta, degree):
    value = nodal_value(table, HPolygon.p2_triangle(degree), delta)
    assert value.evaluate(1) == plane_severi(degree, delta)


def one_nodal_count(polygon) -> int:
    """Degree of the discriminant of a smooth toric surface: 3 L^2 + 2 L.K + c_2,
    with L^2 the doubled area, L.K minus the boundary point count and c_2 the
    vertex count."""
    return 3 * polygon.area2 - 2 * polygon.boundary_lattice_count() + len(polygon.vertices)


# sigma2:a,0 is left out: the triangle's apex is the singular point of
# P(1,1,2), so c_2 is not the vertex count there, and the engine reads one
# less than the formula (10, 32, 66 against 11, 33, 67 for a = 2, 3, 4)
@pytest.mark.parametrize(
    "spec",
    [f"rect:{a},{b}" for a in range(2, 7) for b in range(2, 7)]
    + [f"sigma2:{a},{b}" for a in range(2, 5) for b in range(1, 4)],
)
def test_one_nodal_count_matches_the_discriminant_degree(table, spec):
    polygon = HPolygon.from_spec(spec)
    assert nodal_value(table, polygon, 1).evaluate(1) == one_nodal_count(polygon)


def lagrange(points, x) -> Fraction:
    """The value at x of the polynomial through points, in exact arithmetic."""
    total = Fraction(0)
    for i, (xi, yi) in enumerate(points):
        term = Fraction(yi)
        for j, (xj, _) in enumerate(points):
            if j != i:
                term *= Fraction(x - xj, xi - xj)
        total += term
    return total


@pytest.mark.parametrize(
    "delta, checked", [(1, range(6, 11)), (2, range(9, 12)), (3, range(12, 14))]
)
def test_refined_nodal_plane_coefficients_are_polynomial_in_the_degree(table, delta, checked):
    # Block-Goettsche (arXiv:1407.2901): each coefficient of the refined count
    # is a polynomial of degree 2 delta in d, so 2 delta + 1 degrees fix it
    fit = range(delta + 2, 3 * delta + 3)
    exponents = range(-delta, delta + 1)
    values = {
        d: nodal_value(table, HPolygon.p2_triangle(d), delta).to_coeff_dict()
        for d in (*fit, *checked)
    }
    assert all(set(value) <= set(exponents) for value in values.values())
    for exp in exponents:
        points = [(d, values[d].get(exp, 0)) for d in fit]
        assert [values[d].get(exp, 0) for d in checked] == [lagrange(points, d) for d in checked]
