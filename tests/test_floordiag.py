from collections import Counter, defaultdict
from itertools import combinations, combinations_with_replacement, permutations, product
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from floordiagrams import cli, floordiag
from floordiagrams.fixtures import reference_rows
from floordiagrams.floordiag import (
    MAX_HEIGHT,
    DiagramError,
    FloorDiagram,
    diagram_sum,
    diagram_terms,
    divergence_sequences,
    enumerate_diagrams,
    refined_invariant,
    refined_invariants,
)
from floordiagrams.invariants import CACHE_ENV_VAR
from floordiagrams.laurent import LaurentPoly
from floordiagrams.polygon import HPolygon, PolygonError


def automorphism_size(dia: FloorDiagram) -> int:
    """Relabelings of identical elevators and of the identical ends of one floor."""
    size = 1
    for count in (*Counter(dia.elevators).values(), *dia.bottom_ends, *dia.top_ends):
        size *= factorial(count)
    return size


def brute_force_markings(dia: FloorDiagram) -> int:
    """Count linear extensions of the explicit element and relation list, then
    divide out relabelings of identical elevators and identical ends.

    The count is a DP over the set of placed elements: an element may be
    placed next once all its predecessors are placed."""
    elements = [("F", k) for k in range(1, dia.floors + 1)]
    relations = [(("F", k), ("F", k + 1)) for k in range(1, dia.floors)]
    for idx, (i, j, w) in enumerate(dia.elevators):
        e = ("E", idx)
        elements.append(e)
        relations.append((("F", i), e))
        relations.append((e, ("F", j)))
    for f, count in enumerate(dia.bottom_ends, start=1):
        for c in range(count):
            b = ("B", f, c)
            elements.append(b)
            relations.append((b, ("F", f)))
    for f, count in enumerate(dia.top_ends, start=1):
        for c in range(count):
            t = ("T", f, c)
            elements.append(t)
            relations.append((("F", f), t))
    index = {e: i for i, e in enumerate(elements)}
    preds = [0] * len(elements)
    for a, b in relations:
        preds[index[b]] |= 1 << index[a]
    ways = [0] * (1 << len(elements))
    ways[0] = 1
    for placed, count in enumerate(ways):
        if not count:
            continue
        for i, need in enumerate(preds):
            if not placed >> i & 1 and need & placed == need:
                ways[placed | 1 << i] += count
    q, r = divmod(ways[-1], automorphism_size(dia))
    assert r == 0
    return q


def test_square_degree_one_one_diagrams():
    sq = HPolygon.rectangle(2, 2)
    diagrams = enumerate_diagrams(sq, 0)
    assert len(diagrams) == 3
    pairs = sorted(
        (str(d.refined_multiplicity()), d.marking_count()) for d in diagrams
    )
    assert pairs == [("1", 4), ("1", 4), ("q^-1 + 2 + q", 1)]
    assert refined_invariant(sq, 0) == LaurentPoly({-1: 1, 0: 10, 1: 1})


def test_diagram_bookkeeping():
    dia = FloorDiagram(2, ((1, 2, 2),), (2, 0), (0, 2))
    assert dia.genus == 0
    assert dia.element_count() == 7
    assert dia.is_connected()
    assert automorphism_size(dia) == 4
    broken = FloorDiagram(2, (), (2, 1), (1, 2))
    assert not broken.is_connected()
    doubled = FloorDiagram(2, ((1, 2, 1), (1, 2, 1)), (2, 0), (0, 2))
    assert doubled.genus == 1
    assert automorphism_size(doubled) == 8


def test_marking_count_against_brute_force():
    polys = [
        HPolygon.rectangle(2, 2),
        HPolygon.rectangle(3, 1),
        HPolygon.p2_triangle(2),
        HPolygon([(0, 2), (2, 0), (6, 0), (2, 2)]),
    ]
    checked = 0
    for poly in polys:
        for genus in (0, 1):
            for dia in enumerate_diagrams(poly, genus):
                if dia.element_count() <= 9:
                    assert dia.marking_count() == brute_force_markings(dia)
                    checked += 1
    assert checked >= 8


@st.composite
def small_diagrams(draw):
    """Floor diagrams, connected or not, with at most 7 elements and at most
    2 bottom and 2 top ends per floor."""
    floors = draw(st.integers(1, 4))
    budget = 7 - floors
    ends = []
    for _ in range(2 * floors):
        count = draw(st.integers(0, min(2, budget)))
        budget -= count
        ends.append(count)
    elevators = []
    if floors > 1:
        for _ in range(draw(st.integers(0, budget))):
            i = draw(st.integers(1, floors - 1))
            j = draw(st.integers(i + 1, floors))
            elevators.append((i, j, draw(st.integers(1, 2))))
    return FloorDiagram(
        floors, tuple(sorted(elevators)), tuple(ends[:floors]), tuple(ends[floors:])
    )


@settings(max_examples=150, deadline=None)
@given(small_diagrams())
def test_marking_count_matches_brute_force_on_random_diagrams(dia):
    assert dia.marking_count() == brute_force_markings(dia)


def test_marking_count_of_a_wide_floor_is_one_at_once():
    # one floor has two gaps, whatever the number of ends waiting in them
    assert FloorDiagram(1, (), (10**6,), (10**6,)).marking_count() == 1
    assert FloorDiagram(1, (), (10**30,), (0,)).marking_count() == 1


def test_divergence_sequences():
    # constant boundary slopes: a single forced assignment
    assert divergence_sequences(HPolygon.rectangle(2, 2)) == (((0, 0), 1),)
    assert divergence_sequences(HPolygon([(0, 2), (2, 0), (6, 0), (2, 2)])) == (
        ((1, 1), 1),
    )
    # mixed left slopes (-1, -1, 0, 0) spread over four floors: 6 orders
    tall = HPolygon([(0, 2), (2, 0), (2, 4), (0, 4)])
    seqs = divergence_sequences(tall)
    assert len(seqs) == 6
    assert sum(weight for _, weight in seqs) == 6
    assert all(sum(div) == -2 for div, _ in seqs)


def test_equivalent_polygons_same_counts():
    # four lattice-equivalent embeddings of one blown-up-plane class
    models = [
        HPolygon([(0, 2), (2, 0), (2, 4), (0, 4)]),
        HPolygon([(2, 0), (0, 2), (4, 2), (4, 0)]),  # the first, axes swapped
        HPolygon([(0, 2), (2, 0), (6, 0), (2, 2)]),
        HPolygon([(0, 2), (2, 0), (4, 0), (0, 4)]),
    ]
    g0 = LaurentPoly({-2: 1, -1: 12, 0: 70, 1: 12, 2: 1})
    g1 = LaurentPoly({-1: 2, 0: 16, 1: 2})
    for poly in models:
        assert refined_invariant(poly, 0) == g0
        assert refined_invariant(poly, 1) == g1
    skew = HPolygon([(2, 0), (4, 0), (2, 2), (0, 2)])
    assert refined_invariant(skew, 0) == refined_invariant(HPolygon.rectangle(2, 2), 0)


def test_genus_range():
    # above the interior point count nothing survives
    assert not enumerate_diagrams(HPolygon.rectangle(5, 1), 1)
    assert not refined_invariant(HPolygon.rectangle(5, 1), 1)
    # at the very top there is exactly one curve
    assert refined_invariant(HPolygon.rectangle(3, 3), 4) == LaurentPoly.one()
    assert not refined_invariant(HPolygon.rectangle(3, 3), 5)
    assert refined_invariant(HPolygon.p2_triangle(3), 1) == LaurentPoly.one()
    for route in (refined_invariant, enumerate_diagrams):
        with pytest.raises(DiagramError, match="genus must be >= 0"):
            route(HPolygon.rectangle(2, 2), -1)


def test_height_bound():
    # listing's marking walk recurses once per element, so 300 rows would
    # overflow the stack; the value route refuses the same heights
    for route in (refined_invariant, enumerate_diagrams):
        with pytest.raises(DiagramError, match=f"height 300 is above the bound of {MAX_HEIGHT}"):
            route(HPolygon.rectangle(1, 300), 0)
    assert refined_invariant(HPolygon.rectangle(1, MAX_HEIGHT), 0) == LaurentPoly.one()


def test_diagram_order_is_deterministic():
    first = enumerate_diagrams(HPolygon.rectangle(2, 3), 0)
    second = enumerate_diagrams(HPolygon.rectangle(2, 3), 0)
    assert first == second == tuple(sorted(first))


def brute_force_sequences(polygon) -> Counter:
    """Divergence sequences: every pair of orderings of the left and right slopes."""
    left, right = polygon.end_slopes()
    return Counter(
        tuple(a + b for a, b in zip(aseq, bseq))
        for aseq in set(permutations(left))
        for bseq in set(permutations(right))
    )


def brute_force_diagrams(polygon, genus: int) -> tuple[FloorDiagram, ...]:
    """Every connected (elevators, bottom ends, top ends) triple whose floors
    all satisfy the flow equation bot_k + in_k - top_k - out_k = div_k.

    Tries every placement of the bottom ends, every placement of the top ends
    and every multiset of genus + h - 1 elevators (i < j, w), for each
    divergence sequence.  Summing the flow equations of floors 1..k shows
    that the elevators crossing above floor k weigh sum(bot - top - div) over
    those floors, at most d_bottom - sum(div[:k]); every elevator (i, j, w)
    crosses above floor i, so that maximum over k < h bounds w."""
    widths = polygon.floor_profile()
    h, d_bottom, d_top = len(widths) - 1, widths[0], widths[-1]
    # (bottom ends, top ends) placements, keyed by bot_k - top_k on each floor
    placements = defaultdict(list)
    for bots in product(range(d_bottom + 1), repeat=h):
        for tops in product(range(d_top + 1), repeat=h):
            if sum(bots) == d_bottom and sum(tops) == d_top:
                placements[tuple(b - t for b, t in zip(bots, tops))].append((bots, tops))
    found = []
    for div, weight in brute_force_sequences(polygon).items():
        bound = max((d_bottom - sum(div[:k]) for k in range(1, h)), default=0)
        candidates = [
            (i, j, w)
            for i in range(1, h + 1)
            for j in range(i + 1, h + 1)
            for w in range(1, bound + 1)
        ]
        for elevs in combinations_with_replacement(candidates, genus + h - 1):
            out_minus_in = [0] * (h + 1)
            for i, j, w in elevs:
                out_minus_in[i] += w
                out_minus_in[j] -= w
            need = tuple(div[k - 1] + out_minus_in[k] for k in range(1, h + 1))
            for bots, tops in placements[need]:
                dia = FloorDiagram(h, elevs, bots, tops, div, weight)
                if dia.is_connected():
                    found.append(dia)
    return tuple(sorted(found))


def polygon_from_steps(bottom: int, left, right) -> HPolygon:
    """The polygon whose bottom row is 0..bottom and whose left and right
    sides move by the given steps per row, bottom to top."""
    xs = [(0, bottom)]
    for a, b in zip(left, right):
        xs.append((xs[-1][0] + a, xs[-1][1] + b))
    boundary = [(l, y) for y, (l, _) in enumerate(xs)][::-1]
    boundary += [(r, y) for y, (_, r) in enumerate(xs)]
    return HPolygon(boundary)


def row_widths(bottom: int, left, right) -> list[int]:
    """Row widths of polygon_from_steps(bottom, left, right), bottom to top."""
    return [bottom + sum(right[:k]) - sum(left[:k]) for k in range(len(left) + 1)]


def small_polygons() -> list[HPolygon]:
    """Every h-transverse polygon of height <= 3 and row widths <= 3 whose
    sides step by -1, 0 or 1 per row: left steps rise, right steps fall."""
    polys = {}
    for h, bottom in product((1, 2, 3), range(4)):
        for left in product((-1, 0, 1), repeat=h):
            for right in product((1, 0, -1), repeat=h):
                if list(left) != sorted(left) or list(right) != sorted(right, reverse=True):
                    continue
                if any(not 0 <= w <= 3 for w in row_widths(bottom, left, right)):
                    continue
                try:
                    poly = polygon_from_steps(bottom, left, right)
                except PolygonError:  # zero area
                    continue
                polys[poly.vertices] = poly
    return list(polys.values())


def test_enumeration_matches_brute_force():
    polys = small_polygons()
    assert len(polys) >= 30
    assert sum(len(brute_force_sequences(p)) > 1 for p in polys) >= 30  # mixed slopes
    diagrams = 0
    for poly in polys:
        for genus in range(poly.interior_lattice_count() + 1):
            expected = brute_force_diagrams(poly, genus)
            assert enumerate_diagrams(poly, genus) == expected, (poly, genus)
            diagrams += len(expected)
    assert diagrams > 1000


def enumerated_sum(polygon, genus: int) -> LaurentPoly:
    return diagram_sum(diagram_terms(polygon, genus))


def test_transfer_walk_matches_enumeration():
    cells = 0
    for poly in small_polygons():
        # one genus past the interior point count, where both must give 0
        for genus in range(poly.interior_lattice_count() + 2):
            assert refined_invariant(poly, genus) == enumerated_sum(poly, genus), (poly, genus)
            cells += 1
    assert cells == 940


@pytest.mark.parametrize(
    "spec",
    ["rect:1,7", "rect:2,5", "rect:2,6", "rect:3,4", "p2:5", "sigma2:2,2", "sigma2:3,0", "sigma2:3,1"],
)
def test_transfer_walk_matches_enumeration_on_tall_polygons(spec):
    # small_polygons stops at height 3 and width 3, but the walk's
    # connectivity bound weighs elevators still to come against the floors
    # left above, and only two of its polygons narrow by two per floor, which
    # the walk reflects upside down, as it does the trapezoids here
    poly = HPolygon.from_spec(spec)
    for genus in range(poly.interior_lattice_count() + 2):
        assert refined_invariant(poly, genus) == enumerated_sum(poly, genus), genus


def test_the_flip_is_a_shape_operation():
    # the walk turns a polygon upside down, (x, y) -> (x, h - y), by its
    # floor profile reversed and each side's end slopes negated and sorted
    specs = (
        [f"p2:{d}" for d in range(1, 7)]
        + [f"rect:{a},{b}" for a in range(1, 5) for b in range(1, 5)]
        + [f"sigma2:{a},{b}" for a in range(1, 5) for b in range(4) if a + b <= 6]
    )
    for poly in small_polygons() + [HPolygon.from_spec(spec) for spec in specs]:
        flipped = HPolygon([(x, poly.height - y) for x, y in poly.vertices])
        assert poly.floor_profile()[::-1] == flipped.floor_profile(), poly
        negated = tuple(tuple(sorted(-slope for slope in side)) for side in poly.end_slopes())
        assert negated == flipped.end_slopes(), poly


def test_a_flipped_walk_checks_no_polygon(capsys, monkeypatch):
    # sigma2:3,3 is walked upside down, and neither its named shape nor the
    # flip goes through the checking constructor
    built, init = [], HPolygon.__init__

    def counting_init(self, vertices):
        built.append(vertices)
        init(self, vertices)

    monkeypatch.setattr(HPolygon, "__init__", counting_init)
    monkeypatch.delenv(CACHE_ENV_VAR, raising=False)
    assert cli.main(["compute", "--polygon", "sigma2:3,3", "--genus", "0..4"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 5
    assert built == []


def mixed_slope_polygons():
    """Draws from every h-transverse polygon of height 2..4 and row widths
    <= 4 whose sides step by -2..2 per row, with more than one slope on some
    side.  They are listed up front: filtering random steps instead rejects
    so many draws that Hypothesis's filter_too_much health check fails the
    test on some seeds."""
    polys = []
    for h, bottom in product((2, 3, 4), range(4)):
        for left in combinations_with_replacement(range(-2, 3), h):
            for right in combinations_with_replacement(range(2, -3, -1), h):
                if len(set(left)) == len(set(right)) == 1:
                    continue
                if any(not 0 <= w <= 4 for w in row_widths(bottom, left, right)):
                    continue
                try:
                    polys.append(polygon_from_steps(bottom, left, right))
                except PolygonError:  # zero area
                    continue
    return st.sampled_from(polys)


@settings(max_examples=30, deadline=None)
@given(mixed_slope_polygons(), st.integers(0, 3))
def test_transfer_walk_matches_enumeration_on_random_polygons(poly, genus):
    assert len(divergence_sequences(poly)) > 1
    assert refined_invariant(poly, genus) == enumerated_sum(poly, genus)


def per_genus(polygon, genera) -> dict:
    return {genus: refined_invariant(polygon, genus) for genus in genera}


def test_joint_walk_matches_per_genus_walks():
    apexes = 0
    for poly in small_polygons():
        genera = range(poly.interior_lattice_count() + 2)
        assert refined_invariants(poly, genera) == per_genus(poly, genera), poly
        apexes += poly.floor_profile()[-1] == 0
    assert apexes == 65


@pytest.mark.parametrize("spec", ["p2:6", "sigma2:4,0"])
def test_joint_walk_gives_whole_columns(spec):
    poly = HPolygon.from_spec(spec)
    genera = range(poly.interior_lattice_count() + 1)
    column = refined_invariants(poly, genera)
    assert column == per_genus(poly, genera)
    assert column[genera[-1]] == LaurentPoly.one()
    # any subset of the column, in any order, takes the same values
    assert refined_invariants(poly, (3, 1)) == {1: column[1], 3: column[3]}
    assert refined_invariants(poly, ()) == {}


def short_polygons() -> list[HPolygon]:
    """Polygons of height 1 and 2: the walks that close at their initial
    state or right after floor 1."""
    specs = [f"rect:{a},1" for a in range(1, 7)] + [f"sigma2:1,{b}" for b in range(5)]
    specs += ["p2:1", "p2:2", "rect:4,2"]
    short = [poly for poly in small_polygons() if poly.height <= 2]
    return short + [HPolygon.from_spec(spec) for spec in specs]


def test_closing_step_matches_enumeration_on_short_polygons():
    polys = short_polygons()
    assert len(polys) == 118
    for poly in polys:
        genera = range(poly.interior_lattice_count() + 2)
        expected = {genus: enumerated_sum(poly, genus) for genus in genera}
        assert per_genus(poly, genera) == expected, poly
        assert refined_invariants(poly, genera) == expected, poly


def test_walk_returns_only_counts_in_its_span():
    # the closing step adds an emission only once it reaches lo
    for poly in short_polygons():
        widths, end_slopes = poly.floor_profile(), poly.end_slopes()
        base = widths[0] + poly.height - 1
        for genus in range(poly.interior_lattice_count() + 2):
            walked = floordiag._walk(widths, end_slopes, base + genus, base + genus)
            assert set(walked) <= {base + genus}


@pytest.fixture
def spans(monkeypatch) -> list:
    """The (lo, hi) of each _walk call, in order."""
    calls, walk = [], floordiag._walk

    def recorded(polygon, widths, lo, hi):
        calls.append((lo, hi))
        return walk(polygon, widths, lo, hi)

    monkeypatch.setattr(floordiag, "_walk", recorded)
    return calls


@pytest.mark.parametrize("spec", ["p2:1", "p2:2", "p2:4", "sigma2:2,0"])
def test_closing_step_of_a_joint_column(spec, spans):
    poly = HPolygon.from_spec(spec)
    genera = range(poly.interior_lattice_count() + 2)
    column = refined_invariants(poly, genera)
    base = poly.floor_profile()[0] + poly.height - 1
    # the genus past the interior count takes no walk
    assert spans == [(base, base + genera[-2])]
    assert column == {genus: enumerated_sum(poly, genus) for genus in genera}


def test_one_walk_per_run_of_genera(spans):
    poly = HPolygon.from_spec("rect:4,4")
    expected = per_genus(poly, (0, 1, 5, 6))
    spans.clear()
    assert refined_invariants(poly, (6, 0, 5, 1)) == expected
    # genus 0 labels 4 + 3 elements; one span over 0..6 would walk 2..4 too
    assert spans == [(7, 8), (12, 13)]
    # rect:2,2 has one interior point: the other 9 998 genera take no walk
    spans.clear()
    column = refined_invariants(HPolygon.from_spec("rect:2,2"), range(10**4))
    assert spans == [(3, 4)]
    assert sum(map(bool, column.values())) == 2


def test_a_joint_walk_keeps_only_the_terms_whose_count_is_in_reach(monkeypatch):
    # after each floor below h - 1, a term e*K + j of a state's sum stays only
    # while its final count lo + j can still be reached: labelled - lo <= j
    # <= labelled - need, need being the least count of the floor just taken
    events, gap_step, floor_step = [], floordiag._gap_step, floordiag._floor_step

    def gap(states, slopes):
        events.append(("gap", states))
        return gap_step(states, slopes)

    def floor(states, f, h, hi, need, slopes, K):
        events.append(("floor", (hi - K + 1, need, K)))
        return floor_step(states, f, h, hi, need, slopes, K)

    monkeypatch.setattr(floordiag, "_gap_step", gap)
    monkeypatch.setattr(floordiag, "_floor_step", floor)
    refined_invariants(HPolygon.from_spec("rect:4,4"), range(10))
    checked = 0
    for (kind, window), (next_kind, states) in zip(events, events[1:]):
        if kind == "floor" and next_kind == "gap":
            lo, need, K = window
            assert K == 10
            for (_, _, labelled, _, _), terms in states.items():
                assert terms
                for k in terms:
                    assert labelled - lo <= k % K <= labelled - need, (labelled, k)
                    checked += 1
    assert checked > 1000


def subsets_by_shape(monkeypatch, run) -> tuple:
    """(Counter of the inputs of the _subsets calls that run() makes, Counter
    of the distinct unplaced tuples of the gap steps' states plus the
    distinct placed tuples of the floor and closing steps' states)."""
    made, shapes, subsets = Counter(), {0: set(), 1: set()}, floordiag._subsets

    def counted(items):
        made[items] += 1
        return subsets(items)

    def watch(name, shape):
        step = getattr(floordiag, name)

        def watched(states, *args):
            shapes[shape].update(key[shape] for key in states)
            return step(states, *args)

        monkeypatch.setattr(floordiag, name, watched)

    monkeypatch.setattr(floordiag, "_subsets", counted)
    watch("_gap_step", 0)
    watch("_floor_step", 1)
    watch("_close_step", 1)
    run()
    return made, Counter(shapes[0]) + Counter(shapes[1])


@pytest.mark.parametrize("spec, per_step", [("rect:4,4", 145), ("p2:6", 292)])
def test_each_walk_step_enumerates_each_shape_once(spec, per_step, monkeypatch, cold_memos):
    # the placements of an unplaced tuple (_gap_picks) and the choices of a
    # placed tuple (_floor_picks) are process-wide memos: a walk lists each
    # distinct tuple's once over all its steps, where listing them once per
    # step took per_step, and a second walk lists none
    poly = HPolygon.from_spec(spec)
    made, shapes = subsets_by_shape(monkeypatch, lambda: refined_invariants(poly, (0,)))
    assert made == shapes
    assert sum(made.values()) < per_step
    again, _ = subsets_by_shape(monkeypatch, lambda: refined_invariants(poly, (0,)))
    assert not again


def test_verify_all_enumerates_each_shape_once(monkeypatch, capsys, cold_memos):
    # the dozens of walks of one request share the tables, where listing
    # them once per step took 717 enumerations of 17 distinct tuples
    monkeypatch.delenv(CACHE_ENV_VAR, raising=False)
    made, shapes = subsets_by_shape(monkeypatch, lambda: cli.main(["verify", "--suite", "all"]))
    assert made == shapes
    assert sum(made.values()) < 717


# sigma2:a,b with b > 0 narrows by two per floor and keeps a top row, so its
# runs are walked upside down with top ends
RUN_POLYGONS = (
    [f"rect:{a},{b}" for a in range(1, 5) for b in range(1, 5)]
    + [f"sigma2:{a},{b}" for a in range(1, 4) for b in range(4)]
    + ["octagon"]
)


@pytest.mark.parametrize("spec", RUN_POLYGONS)
def test_joint_walk_matches_per_genus_walks_on_every_run(spec, request):
    poly = request.getfixturevalue("octagon") if spec == "octagon" else HPolygon.from_spec(spec)
    genera = range(poly.interior_lattice_count() + 2)
    single = per_genus(poly, genera)
    for lo, hi in combinations(genera, 2):
        run = range(lo, hi + 1)
        assert refined_invariants(poly, run) == {g: single[g] for g in run}, (lo, hi)


def test_memos_carry_no_state_from_one_walk_to_the_next(octagon, cold_memos, monkeypatch):
    # the walk's tables outlive it, so they must hold nothing of the walk
    # that filled them: the values are the same with the memos warm from
    # every polygon before as with the memos cleared before each polygon,
    # and each entry is what a fresh call on its arguments gives
    specs = RUN_POLYGONS + sorted({row.spec() for row in reference_rows()})
    polygons = [octagon if s == "octagon" else HPolygon.from_spec(s) for s in specs]
    memos = {name: f for name, f in vars(floordiag).items() if hasattr(f, "cache_clear")}
    calls = defaultdict(set)
    for name, memo in memos.items():
        def recorded(*args, name=name, memo=memo):
            calls[name].add(args)
            return memo(*args)

        recorded.cache_clear = memo.cache_clear
        monkeypatch.setattr(floordiag, name, recorded)

    def values(clear):
        out = []
        for poly in polygons:
            clear()
            out.append(refined_invariants(poly, range(poly.interior_lattice_count() + 1)))
        return out

    warm = values(lambda: None)
    assert {"_emitted", "_floor_picks", "_gap_picks", "_merged", "_slope_moves"} <= set(calls)
    for name, args in calls.items():
        for arg in args:
            assert memos[name](*arg) == memos[name].__wrapped__(*arg), (name, arg)
    assert values(cold_memos) == warm


def test_walk_refuses_a_sum_that_the_labelled_factorial_does_not_divide(monkeypatch, cold_memos):
    # a wrong factor: the constant term of every emission's factor one too large
    emissions = floordiag._emissions

    def wrong(*args):
        return tuple(
            (counts, n, tuple((x, d + (x == 0)) for x, d in mult))
            for counts, n, mult in emissions(*args)
        )

    monkeypatch.setattr(floordiag, "_emissions", wrong)
    with pytest.raises(DiagramError, match=r"^walk sum \d+ is not a multiple of 5! = 120$"):
        refined_invariant(HPolygon.from_spec("p2:3"), 0)


def test_height_one_walk_takes_no_factorial_of_the_width(monkeypatch, cold_memos):
    # the one floor takes its bottom ends in any order, so the count is 1
    # however wide the strip, and needs no factorial of its width
    factorial = floordiag.factorial

    def bounded(n):
        if n > 100:
            raise AssertionError(f"factorial({n}) asked for")
        return factorial(n)

    monkeypatch.setattr(floordiag, "factorial", bounded)
    assert refined_invariants(HPolygon.rectangle(10**6, 1), [0]) == {0: LaurentPoly.one()}


def apex_polygons():
    """Draws from every h-transverse polygon of height 1..4 and row widths
    <= 4 whose top row is one point and whose sides step by -2..2 per row,
    listed up front as in mixed_slope_polygons."""
    polys = []
    for h in (1, 2, 3, 4):
        for left in combinations_with_replacement(range(-2, 3), h):
            for right in combinations_with_replacement(range(2, -3, -1), h):
                # the bottom width that closes the top row; widths are
                # concave in the row, so every row between is wider than 0
                bottom = sum(left) - sum(right)
                if bottom > 0 and max(row_widths(bottom, left, right)) <= 4:
                    polys.append(polygon_from_steps(bottom, left, right))
    return st.sampled_from(polys)


@settings(max_examples=30, deadline=None)
@given(apex_polygons())
def test_joint_walk_matches_per_genus_walks_on_random_apex_polygons(poly):
    assert poly.floor_profile()[-1] == 0
    genera = range(poly.interior_lattice_count() + 2)
    assert refined_invariants(poly, genera) == per_genus(poly, genera)


def test_transfer_walk_matches_enumeration_on_the_benchmark_octagon(octagon):
    # the one benchmark input whose slope-move table branches: 19 divergence
    # sequences share each walk
    assert len(divergence_sequences(octagon)) == 19
    walks = per_genus(octagon, range(8))
    for genus, value in walks.items():
        assert value == diagram_sum(diagram_terms(octagon, genus)), genus
    assert walks[6] == LaurentPoly.one() and not walks[7]
    assert refined_invariants(octagon, range(4)) == {g: walks[g] for g in range(4)}
