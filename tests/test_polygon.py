from math import gcd

import pytest
from hypothesis import assume, given, strategies as st

from floordiagrams.polygon import HPolygon, PolygonError


def test_rectangle_constructor():
    r = HPolygon.rectangle(2, 3)
    assert r.vertices == ((0, 0), (2, 0), (2, 3), (0, 3))
    with pytest.raises(PolygonError):
        HPolygon.rectangle(0, 3)


def test_sigma2_constructor():
    t = HPolygon.sigma2_trapezoid(2, 1)
    assert t.vertices == ((0, 0), (5, 0), (1, 2), (0, 2))
    # b = 0 degenerates to a triangle
    assert HPolygon.sigma2_trapezoid(3, 0).vertices == ((0, 0), (6, 0), (0, 3))
    with pytest.raises(PolygonError):
        HPolygon.sigma2_trapezoid(0, 2)


def test_p2_constructor():
    assert HPolygon.p2_triangle(3).vertices == ((0, 0), (3, 0), (0, 3))


def test_from_spec():
    assert HPolygon.from_spec("rect:2,4") == HPolygon.rectangle(2, 4)
    assert HPolygon.from_spec("sigma2:2,2") == HPolygon.sigma2_trapezoid(2, 2)
    assert HPolygon.from_spec("p2:5") == HPolygon.p2_triangle(5)
    assert HPolygon.from_spec("rect:02,3") == HPolygon.rectangle(2, 3)
    # numbers are ASCII digits only: int() would also take the underscore,
    # spaces, signs and non-ASCII digits below
    for bad in (
        "rect:2", "p2:2,3", "hex:1,1", "rect:a,b", "", "rect:1_0,2", "rect: 2,2",
        "rect:2 ,2", "rect:2,+2", "p2:-3", "rect:\u0662,2", "p2:\u00b3", "rect:2,2\n",
        "rect:,2", "rect:2,", "p2:" + "9" * 5000,
    ):
        with pytest.raises(PolygonError, match="^bad polygon spec "):
            HPolygon.from_spec(bad)


def test_json_round_trip():
    p = HPolygon([(0, 2), (2, 0), (6, 0), (2, 2)])
    assert HPolygon.from_json_dict(p.to_json_dict()) == p


def test_normalization_translates_and_rotates_start():
    a = HPolygon([(5, 7), (7, 5), (11, 5), (7, 7)])
    b = HPolygon([(2, 0), (6, 0), (2, 2), (0, 2)])
    assert a == b
    assert a.vertices[0] == min(a.vertices)


def test_collinear_points_are_cleaned():
    assert HPolygon([(0, 0), (1, 0), (2, 0), (2, 2), (0, 2)]) == HPolygon.rectangle(2, 2)
    # a vertex that doubles back along its edge goes too
    assert HPolygon([(0, 0), (2, 0), (1, 0), (1, 1)]).vertices == ((0, 0), (1, 0), (1, 1))


def test_rejects_bad_input():
    with pytest.raises(PolygonError):
        HPolygon([(0, 0), (1, 0)])  # no area
    with pytest.raises(PolygonError):
        HPolygon([(0, 0), (2, 0), (2, 2), (1, 1), (0, 2)])  # reflex corner
    with pytest.raises(PolygonError):
        HPolygon([(0, 0), (1, 2), (0, 3)])  # edge (1,2) too steep
    # coordinates are refused, not truncated or parsed, whoever builds the polygon
    for bad in ((2.7, 0), (True, 0), ("2", "0"), (2, 0, 0)):
        with pytest.raises(PolygonError, match="is not a pair of integers"):
            HPolygon([(0, 0), bad, (0, 2)])


@pytest.mark.parametrize("vertices, message", [
    # the message names the full edge vector, not its primitive direction
    ([(0, 0), (2, 0), (0, 4)], "not h-transverse: edge direction (-2, 4)"),
    # of two steep edges, the first from the smallest vertex, whatever the input order
    ([(0, 4), (1, 2), (0, 0)], "not h-transverse: edge direction (1, 2)"),
    # neither convex nor h-transverse: convexity is checked first
    ([(0, 0), (4, 0), (1, 1), (0, 4)], "vertices do not bound a convex polygon"),
    ([(0, 0), (2, 0), (4, 0)], "polygon must have positive area"),
    # every turn is a left turn, but the loop winds twice
    ([(0, 1), (4, 0), (1, 3), (1, 1), (3, 1), (1, 2)], "vertices do not bound a convex polygon"),
])
def test_constructor_errors_and_their_order(vertices, message):
    with pytest.raises(PolygonError) as err:
        HPolygon(vertices)
    assert str(err.value) == message


def test_lattice_counts_small_cases():
    sq = HPolygon.rectangle(2, 2)
    assert sq.area2 == 8
    assert sq.boundary_lattice_count() == 8
    assert sq.interior_lattice_count() == 1
    assert sq.point_count(0) == 7
    tri = HPolygon.p2_triangle(3)
    assert tri.interior_lattice_count() == 1
    assert tri.point_count(1) == 9
    assert HPolygon.rectangle(3, 3).interior_lattice_count() == 4


@given(st.integers(min_value=1, max_value=6), st.integers(min_value=1, max_value=6))
def test_rectangle_counts_closed_form(a, b):
    r = HPolygon.rectangle(a, b)
    assert r.area2 == 2 * a * b
    assert r.boundary_lattice_count() == 2 * (a + b)
    assert r.interior_lattice_count() == (a - 1) * (b - 1)


def test_floor_profile():
    assert HPolygon.rectangle(3, 2).floor_profile() == (3, 3, 3)
    assert HPolygon.sigma2_trapezoid(2, 1).floor_profile() == (5, 3, 1)
    assert HPolygon.p2_triangle(3).floor_profile() == (3, 2, 1, 0)


def test_end_slopes():
    # trapezoid with a slanted ascending chain
    trap = HPolygon([(0, 2), (2, 0), (6, 0), (2, 2)])
    left, right = trap.end_slopes()
    assert left == (-1, -1)
    assert right == (2, 2)
    assert HPolygon.rectangle(2, 2).end_slopes() == ((0, 0), (0, 0))


def mirror_of(polygon):
    return HPolygon([(-x, y) for x, y in polygon.vertices])


def transpose_of(polygon):
    return HPolygon([(y, x) for x, y in polygon.vertices])


def test_transpose_and_reflection():
    assert transpose_of(HPolygon.rectangle(2, 4)) == HPolygon.rectangle(4, 2)
    sq = HPolygon.rectangle(2, 2)
    assert mirror_of(sq) == sq
    skew = HPolygon([(2, 0), (4, 0), (2, 2), (0, 2)])
    mirror = mirror_of(skew)
    assert mirror != skew
    assert mirror.vertices == ((0, 0), (2, 0), (4, 2), (2, 2))
    # both mirror images share one canonical key
    assert skew.canonical_key() == mirror.canonical_key() == mirror.vertices
    # transposes are deliberately kept distinct
    assert HPolygon.rectangle(2, 4).canonical_key() != HPolygon.rectangle(4, 2).canonical_key()


@st.composite
def h_transverse_rows(draw):
    """(left end, right end) of rows 0..h whose left ends step by rising
    amounts and right ends by falling ones, so both sides are convex chains
    of (a, 1) edges."""
    h = draw(st.integers(1, 6))
    left = sorted(draw(st.lists(st.integers(-3, 3), min_size=h, max_size=h)))
    right = sorted(draw(st.lists(st.integers(-3, 3), min_size=h, max_size=h)), reverse=True)
    rows = [(0, draw(st.integers(0, 6)))]
    for a, b in zip(left, right):
        rows.append((rows[-1][0] + a, rows[-1][1] + b))
    assume(all(lo <= hi for lo, hi in rows))
    return rows


def polygon_of_rows(rows):
    boundary = [(lo, y) for y, (lo, _) in enumerate(rows)][::-1]
    boundary += [(hi, y) for y, (_, hi) in enumerate(rows)]
    try:
        return HPolygon(boundary)
    except PolygonError:  # zero area
        assume(False)


@st.composite
def h_transverse_polygons(draw):
    return polygon_of_rows(draw(h_transverse_rows()))


def edges_of(polygon):
    """(start, end) of each edge, read from the vertex list."""
    vertices = polygon.vertices
    return list(zip(vertices, vertices[1:] + vertices[:1]))


def scanned_rows(polygon):
    """(least x, greatest x) of each lattice row, bottom to top, from testing
    every point of the bounding box against every edge of the vertex list."""
    edges, width = edges_of(polygon), max(x for x, _ in polygon.vertices)
    rows = []
    for y in range(polygon.height + 1):
        xs = [
            x for x in range(width + 1)
            if all((x1 - x0) * (y - y0) >= (y1 - y0) * (x - x0) for (x0, y0), (x1, y1) in edges)
        ]
        rows.append((xs[0], xs[-1]))
    return rows


def check_boundary_against_the_vertex_list(polygon):
    """floor_profile, end_slopes, edge_rays and boundary_lattice_count
    against values that read the vertex list, not the boundary steps."""
    rows = scanned_rows(polygon)
    assert polygon.floor_profile() == tuple(hi - lo for lo, hi in rows)
    # going up a row, the left end moves by its slope, the right end against it
    steps = list(zip(rows, rows[1:]))
    assert polygon.end_slopes() == (
        tuple(sorted(lo1 - lo0 for (lo0, _), (lo1, _) in steps)),
        tuple(sorted(hi0 - hi1 for (_, hi0), (_, hi1) in steps)),
    )
    edges, rays = edges_of(polygon), []
    for (x0, y0), (x1, y1) in edges:
        g = gcd(x1 - x0, y1 - y0)
        ray = ((y1 - y0) // g, (x0 - x1) // g)
        # outward: no vertex lies beyond the edge's line
        assert all(ray[0] * (x - x0) + ray[1] * (y - y0) <= 0 for x, y in polygon.vertices)
        rays.append(ray)
    assert polygon.edge_rays() == tuple(rays)
    on_boundary = {
        (x, y)
        for (x0, y0), (x1, y1) in edges
        for x in range(min(x0, x1), max(x0, x1) + 1)
        for y in range(min(y0, y1), max(y0, y1) + 1)
        if (x1 - x0) * (y - y0) == (y1 - y0) * (x - x0)
    }
    assert polygon.boundary_lattice_count() == len(on_boundary)


@given(h_transverse_rows())
def test_boundary_queries_match_the_drawn_rows_and_the_vertex_list(rows):
    polygon = polygon_of_rows(rows)
    assert polygon.floor_profile() == tuple(hi - lo for lo, hi in rows)
    check_boundary_against_the_vertex_list(polygon)


NAMED_FAMILIES = (
    [HPolygon.rectangle(a, b) for a in range(1, 6) for b in range(1, 6)]
    + [HPolygon.sigma2_trapezoid(a, b) for a in range(1, 5) for b in range(4)]
    + [HPolygon.p2_triangle(d) for d in range(1, 8)]
)


def test_boundary_queries_on_the_named_families_and_the_octagon(octagon):
    for polygon in NAMED_FAMILIES + [octagon]:
        check_boundary_against_the_vertex_list(polygon)


@given(h_transverse_polygons())
def test_canonical_key_is_the_smaller_of_the_two_mirror_images(polygon):
    assert polygon.canonical_key() == min(polygon.vertices, mirror_of(polygon).vertices)


def test_negative_edges():
    # second Hirzebruch trapezoid: the top edge is the -1 section's image
    trap = HPolygon([(0, 2), (2, 0), (6, 0), (2, 2)])
    rays = trap.edge_rays()
    negative = trap.negative_edges()
    assert [rays[i] for i in negative] == [(0, 1)]
    # rectangles have no negative divisors at all
    assert HPolygon.rectangle(3, 3).negative_edges() == ()
    # blocked pentagon: two -1 edges flanking the roomy corners
    pent = HPolygon([(0, 2), (2, 0), (4, 0), (2, 2), (0, 3)])
    assert len(pent.negative_edges()) == 2


def test_self_intersections():
    assert HPolygon.p2_triangle(2).self_intersections() == (1, 1, 1)
    assert HPolygon.rectangle(3, 3).self_intersections() == (0, 0, 0, 0)
    assert HPolygon.sigma2_trapezoid(2, 2).self_intersections() == (2, 0, -2, 0)
    # the even triangle's apex cone is singular: its two edges read None
    assert HPolygon.sigma2_trapezoid(2, 0).self_intersections() == (2, None, None)


def test_corner_cut_square():
    sq = HPolygon.rectangle(2, 2)
    assert sq.admissible_cut_corners() == sq.vertices
    for corner in sq.vertices:
        cut = sq.corner_cut(corner)
        assert cut.area2 == sq.area2 - 4
        assert cut.boundary_lattice_count() == 6
    assert sq.corner_cut((2, 2)) == HPolygon([(0, 0), (2, 0), (0, 2)])


def test_corner_cut_needs_room():
    thin = HPolygon.rectangle(5, 1)
    assert thin.admissible_cut_corners() == ()
    with pytest.raises(PolygonError, match="does not fit"):
        thin.corner_cut((0, 0))
    with pytest.raises(PolygonError, match="not a vertex"):
        HPolygon.rectangle(2, 2).corner_cut((1, 1))


def test_corner_cut_rejects_negative_divisor_corners():
    trap = HPolygon([(0, 2), (2, 0), (6, 0), (2, 2)])
    with pytest.raises(PolygonError, match="negative self-intersection"):
        trap.corner_cut((0, 2))
    with pytest.raises(PolygonError, match="negative self-intersection"):
        trap.corner_cut((2, 2))
    assert trap.admissible_cut_corners() == ((2, 0), (6, 0))
    assert trap.admissible_cuts() == tuple(
        (corner, trap.corner_cut(corner)) for corner in ((2, 0), (6, 0))
    )


def test_corner_cut_rejects_non_unimodular_corner():
    cone = HPolygon.sigma2_trapezoid(3, 0)  # apex (0,3) spans an index-2 cone
    with pytest.raises(PolygonError, match="unimodular"):
        cone.corner_cut((0, 3))


def test_corner_cut_refuses_zero_area_remainder():
    # the cut triangle is the whole conic: d - 2E has no curves, like any refused cut
    conic = HPolygon([(0, 0), (2, 0), (0, 2)])
    with pytest.raises(PolygonError, match="positive area"):
        conic.corner_cut((0, 0))
    assert conic.admissible_cut_corners() == ()


def test_blocked_hexagon_has_no_room():
    hexagon = HPolygon([(0, 2), (2, 0), (3, 0), (3, 1), (1, 3), (0, 3)])
    assert hexagon.admissible_cut_corners() == ()
    assert not hexagon.has_room_for_cut()
    assert hexagon.interior_lattice_count() == 2
    # blocked pentagon: room exists but only at negative-divisor corners
    pent = HPolygon([(0, 2), (2, 0), (4, 0), (2, 2), (0, 3)])
    assert pent.admissible_cut_corners() == ()
    assert pent.has_room_for_cut()


def room_refusal(polygon, i):
    """Why a depth-2 cut cannot sit at vertex i, from the two edge vectors
    alone: an edge of lattice length below 2, or a cone of index |det| / (lu lw)
    other than 1; None when it fits."""
    v, n = polygon.vertices[i], len(polygon.vertices)
    nxt, prv = polygon.vertices[(i + 1) % n], polygon.vertices[i - 1]
    u = (nxt[0] - v[0], nxt[1] - v[1])
    w = (prv[0] - v[0], prv[1] - v[1])
    lu, lw = gcd(*u), gcd(*w)
    if lu < 2 or lw < 2:
        return "does not fit"
    if abs(u[0] * w[1] - u[1] * w[0]) != lu * lw:
        return "not unimodular"
    return None


@given(h_transverse_polygons())
def test_corner_cut_refuses_exactly_the_corners_without_room(polygon):
    refusals = [room_refusal(polygon, i) for i in range(len(polygon.vertices))]
    for corner, want in zip(polygon.vertices, refusals):
        try:
            polygon.corner_cut(corner)
            got = None
        except PolygonError as err:
            got = next((r for r in ("does not fit", "not unimodular") if r in str(err)), None)
        assert got == want
    assert polygon.has_room_for_cut() == (None in refusals)


def test_small_del_pezzo_fans():
    assert HPolygon.p2_triangle(2).has_small_del_pezzo_fan()
    assert HPolygon.rectangle(2, 4).has_small_del_pezzo_fan()
    # plane blown up once (Hirzebruch-1 fan)
    assert HPolygon([(0, 2), (2, 0), (2, 4), (0, 4)]).has_small_del_pezzo_fan()
    # Hirzebruch-2 fan carries a -2 divisor
    assert not HPolygon.sigma2_trapezoid(2, 2).has_small_del_pezzo_fan()
    # singular cone over the even triangle
    assert not HPolygon.sigma2_trapezoid(2, 0).has_small_del_pezzo_fan()
    # six rays: degree 6, too big
    assert not HPolygon([(0, 2), (2, 0), (3, 0), (3, 1), (1, 3), (0, 3)]).has_small_del_pezzo_fan()


def test_immutability():
    sq = HPolygon.rectangle(2, 2)
    with pytest.raises(AttributeError):
        sq.vertices = ()


# values an HPolygon computes once and keeps; each reads its slots only
DERIVED = (
    ("canonical_key", ()),
    ("boundary_lattice_count", ()),
    ("self_intersections", ()),
    ("interior_lattice_count", ()),
    ("point_count", (2,)),
    ("negative_edges", ()),
    ("has_small_del_pezzo_fan", ()),
    ("admissible_cut_corners", ()),
)


def derived_values(polygon):
    values = [getattr(polygon, name)(*args) for name, args in DERIVED]
    return values + [polygon.area2, polygon.height]


@given(h_transverse_polygons())
def test_kept_values_equal_a_fresh_computation(polygon):
    # a fresh instance has filled no slot, so each of its values is computed
    # on the call; the kept values must match it on first and later calls,
    # on the polygon and on the cuts derived from it
    for _ in range(2):
        for shape in (polygon, *(cut for _, cut in polygon.admissible_cuts())):
            assert derived_values(shape) == derived_values(HPolygon(shape.vertices))
    edges = edges_of(polygon)
    assert polygon.area2 == sum(x0 * y1 - x1 * y0 for (x0, y0), (x1, y1) in edges)
    assert polygon.boundary_lattice_count() == sum(
        gcd(x1 - x0, y1 - y0) for (x0, y0), (x1, y1) in edges
    )


def test_each_value_is_computed_once_per_instance(monkeypatch):
    fills, rays = [], []
    keep, edge_rays = HPolygon._keep, HPolygon.edge_rays

    def counting_keep(self, slot, value):
        fills.append(slot)
        return keep(self, slot, value)

    def counting_rays(self):
        rays.append(self)
        return edge_rays(self)

    monkeypatch.setattr(HPolygon, "_keep", counting_keep)
    monkeypatch.setattr(HPolygon, "edge_rays", counting_rays)
    trap = HPolygon.sigma2_trapezoid(2, 2)
    # the area, steps, height and boundary count come on construction, without a fill
    assert fills == []
    for _ in range(3):
        derived_values(trap)
        trap.corner_cut((0, 0))
    assert sorted(fills) == ["_degrees", "_key"]
    assert rays == [trap]


def test_filled_slots_change_no_equality_or_immutability():
    full, bare = HPolygon.rectangle(2, 3), HPolygon.rectangle(2, 3)
    derived_values(full)
    assert full == bare and hash(full) == hash(bare) and repr(full) == repr(bare)
    assert len({full, bare}) == 1
    for attr in ("_key", "_steps", "_degrees", "_area2", "vertices"):
        with pytest.raises(AttributeError, match="immutable"):
            setattr(full, attr, None)
    assert derived_values(full) == derived_values(bare)


# -- shapes derived from known steps against the validating constructor -------


def facts(polygon):
    """What construction fills, slot by slot."""
    return (polygon.vertices, polygon.area2, polygon._steps, polygon.height,
            polygon.boundary_lattice_count())


CORNER_REFUSALS = {
    "does not fit": "cut of depth 2 does not fit at this corner",
    "not unimodular": "corner is not unimodular",
}


def cut_by_the_constructor(polygon, i):
    """The polygon a depth-2 cut at vertex i leaves, or the error text: the
    corner's refusals, then HPolygon of the vertex list with the corner
    replaced by the two points 2 lattice steps along its edges."""
    refusal = room_refusal(polygon, i)
    if refusal:
        return CORNER_REFUSALS[refusal]
    vertices, n = list(polygon.vertices), len(polygon.vertices)
    if {i, (i - 1) % n} & set(polygon.negative_edges()):
        return "corner touches a divisor of negative self-intersection"
    (x, y), ends = vertices[i], []
    for px, py in (vertices[i - 1], vertices[(i + 1) % n]):
        g = gcd(px - x, py - y)
        ends.append((x + 2 * (px - x) // g, y + 2 * (py - y) // g))
    try:
        return HPolygon(vertices[:i] + ends + vertices[i + 1:])
    except PolygonError as err:
        return str(err)


def check_cuts_against_the_constructor(polygon, depth):
    """corner_cut at every vertex, and its cuts' cuts down to depth, against
    cut_by_the_constructor: equal facts, or the same error text."""
    assert facts(polygon) == facts(HPolygon(polygon.vertices))
    for i, corner in enumerate(polygon.vertices):
        want = cut_by_the_constructor(polygon, i)
        try:
            got = polygon.corner_cut(corner)
        except PolygonError as err:
            assert str(err) == want, corner
            continue
        assert facts(got) == facts(want), corner
        if depth > 1:
            check_cuts_against_the_constructor(got, depth - 1)


NAMED_VERTICES = (
    [(HPolygon.rectangle(a, b), [(0, 0), (a, 0), (a, b), (0, b)])
     for a in range(1, 6) for b in range(1, 6)]
    + [(HPolygon.sigma2_trapezoid(a, b), [(0, 0), (2 * a + b, 0), (b, a), (0, a)])
       for a in range(1, 5) for b in range(4)]
    + [(HPolygon.p2_triangle(d), [(0, 0), (d, 0), (0, d)]) for d in range(1, 8)]
)


def test_named_shapes_and_their_cuts_equal_the_validating_constructor():
    for polygon, vertices in NAMED_VERTICES:
        assert facts(polygon) == facts(HPolygon(vertices))
        check_cuts_against_the_constructor(polygon, 3)
    # a size that is not an integer is refused by the vertex it lands in
    with pytest.raises(PolygonError, match=r"^vertex \(2\.5, 0\) is not a pair of integers$"):
        HPolygon.rectangle(2.5, 1)


@given(h_transverse_polygons())
def test_cuts_equal_the_validating_constructor(polygon):
    check_cuts_against_the_constructor(polygon, 3)
    assert polygon.admissible_cut_corners() == tuple(
        corner for i, corner in enumerate(polygon.vertices)
        if isinstance(cut_by_the_constructor(polygon, i), HPolygon)
    )
