"""Published genus-0 plane counts, computed without the engine."""

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
