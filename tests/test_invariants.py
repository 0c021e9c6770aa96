import json

import pytest

from floordiagrams.invariants import (
    CACHE_ENV_VAR,
    ENGINE_VERSION,
    InvariantError,
    InvariantKey,
    InvariantTable,
    StuckError,
    max_pairs,
)
from floordiagrams.laurent import LaurentPoly
from floordiagrams.polygon import HPolygon
from test_floordiag import small_polygons

HEXAGON = HPolygon([(0, 2), (2, 0), (3, 0), (3, 1), (1, 3), (0, 3)])
PENTAGON = HPolygon([(0, 2), (2, 0), (4, 0), (2, 2), (0, 3)])


def test_key_validation():
    sq = HPolygon.rectangle(2, 2)
    with pytest.raises(InvariantError, match=">= 0"):
        InvariantKey.make(sq, -1, 0)
    with pytest.raises(InvariantError, match="genus 0"):
        InvariantKey.make(sq, 1, 1)  # pairs refine genus zero only
    with pytest.raises(InvariantError, match="exceeds"):
        InvariantKey.make(sq, 0, 4)  # only 3 pairs fit among 7 points
    key = InvariantKey.make(sq, 0, 3)
    assert key.polygon == sq.vertices


def test_max_pairs():
    assert max_pairs(HPolygon.rectangle(2, 2)) == 3
    assert max_pairs(HPolygon.rectangle(2, 4)) == 5
    assert max_pairs(HPolygon.rectangle(5, 1)) == 5
    assert max_pairs(HPolygon.p2_triangle(4)) == 5


def test_one_pair_on_the_square(table):
    value = table.refined_descendant(HPolygon.rectangle(2, 2), 1)
    assert value == LaurentPoly({-1: 1, 0: 8, 1: 1})
    rec = table.record(HPolygon.rectangle(2, 2), 0, 1)
    assert rec.value == value
    assert rec.extrapolated is False


def test_pair_columns_on_thin_polygons(table):
    # no interior points anywhere in the recursion: the count stays 1
    for spec in ("rect:5,1", "rect:3,1", "sigma2:1,3", "sigma2:1,5"):
        poly = HPolygon.from_spec(spec)
        for s in range(1, max_pairs(poly) + 1):
            assert table.refined_descendant(poly, s) == LaurentPoly.one()


def test_even_triangle_pair_column(table):
    tri = HPolygon.sigma2_trapezoid(2, 0)
    assert table.refined_descendant(tri, 3) == LaurentPoly({-1: 1, 0: 2, 1: 1})
    assert table.welschinger_value(tri, 3) == 0
    assert table.gw_value(tri, genus=0) == 10


def test_corner_choice_does_not_matter(table):
    values = table.descendant_value_set(HPolygon.sigma2_trapezoid(2, 2), 2)
    assert len(values) == 1
    assert values[0].coefficient(0) == 176


def test_sweeps_share_the_tables_memo(monkeypatch):
    rect = HPolygon.rectangle(2, 4)
    table = InvariantTable()
    both = table.descendant_value_set(rect, 2)
    one = InvariantTable().descendant_value_set(rect, 1)
    expanded, children = [], InvariantTable._children

    def recording_children(self, polygon, every=False):
        expanded.append(polygon)
        return children(self, polygon, every)

    monkeypatch.setattr(InvariantTable, "_children", recording_children)
    # the s = 2 sweep went through s = 1, so neither expands a node again
    assert table.descendant_value_set(rect, 1) == one
    assert table.descendant_value_set(rect, 2) == both
    assert expanded == []


def test_stuck_recursion_raises(table):
    with pytest.raises(InvariantError, match="no corner has room"):
        table.refined_descendant(HPolygon.rectangle(3, 3), 3)
    with pytest.raises(InvariantError, match="negative self-intersection"):
        table.refined_descendant(HPolygon.sigma2_trapezoid(3, 0), 3)
    # the error names the polygon the walk actually stops at
    with pytest.raises(InvariantError, match=r"\(3, 1\), \(1, 3\)"):
        table.refined_descendant(HPolygon.rectangle(3, 3), 4)


def test_pair_step_searches_each_polygon_once(monkeypatch):
    table, searched = InvariantTable(), []
    admissible_cuts = HPolygon.admissible_cuts

    def counting_cuts(polygon):
        searched.append(polygon)
        return admissible_cuts(polygon)

    monkeypatch.setattr(HPolygon, "admissible_cuts", counting_cuts)
    rect = HPolygon.rectangle(2, 4)
    table.refined_descendant(rect, 5)
    table.descendant_value_set(rect, 5)
    table.recursion_trace(rect, 5)
    assert searched and len(searched) == len(set(searched))
    # a stuck polygon is searched once too, and raises on every call
    errors = []
    for _ in range(2):
        with pytest.raises(StuckError) as err:
            table.refined_descendant(HPolygon.rectangle(3, 3), 3)
        errors.append((str(err.value), searched[-1]))
    assert errors[0] == errors[1]
    assert searched.count(errors[0][1]) == 1


def test_a_stuck_key_raises_again_without_computing_or_caching(tmp_path, monkeypatch):
    path = tmp_path / "cache.jsonl"
    table = InvariantTable(cache_path=str(path))

    def cached_keys():
        entries = map(json.loads, path.read_text().splitlines())
        return [InvariantKey(tuple(map(tuple, e["polygon"])), e["genus"], e["pairs"]) for e in entries]

    rect = HPolygon.rectangle(3, 3)
    with pytest.raises(StuckError) as first:
        table.refined_descendant(rect, 3)
    assert isinstance(first.value, InvariantError)
    # only the records that were computed reach the cache, none of the stuck keys
    keys = cached_keys()
    assert sorted(keys) == sorted(key for key, _ in table.items())
    assert InvariantKey.make(rect, 0, 3) not in keys

    def never_called(*args):
        raise AssertionError("recomputed a stuck key")

    monkeypatch.setattr(InvariantTable, "_compute", never_called)
    with pytest.raises(StuckError) as again:
        table.refined_descendant(rect, 3)
    assert str(again.value) == str(first.value)
    assert cached_keys() == keys


def test_a_key_stuck_below_the_asked_one_keeps_its_error(monkeypatch):
    # rect:3,3 sticks at s = 3: asked at s = 5, the stuck key is met while
    # the column below is filled, and the asked key is memoized with its error
    rect = HPolygon.rectangle(3, 3)
    with pytest.raises(StuckError) as below:
        InvariantTable().refined_descendant(rect, 3)
    table = InvariantTable()
    with pytest.raises(StuckError) as first:
        table.refined_descendant(rect, 5)

    def never_called(*args):
        raise AssertionError("recomputed a stuck key")

    monkeypatch.setattr(InvariantTable, "_compute", never_called)
    with pytest.raises(StuckError) as again:
        table.refined_descendant(rect, 5)
    assert str(first.value) == str(again.value) == str(below.value)


def test_stuck_polygons_are_the_known_blockers(table):
    assert HEXAGON.admissible_cut_corners() == ()
    assert HEXAGON.interior_lattice_count() > 0
    assert PENTAGON.admissible_cut_corners() == ()
    assert PENTAGON.interior_lattice_count() > 0


def test_recursion_trace_success(table):
    trace = table.recursion_trace(HPolygon.rectangle(2, 2), 1)
    assert trace["pairs"] == 1
    assert trace["value"] == {"-1": 1, "0": 8, "1": 1}
    assert trace["corner"] == [0, 0]
    assert len(trace["children"]) == 2
    assert all("value" in child for child in trace["children"])


def test_recursion_trace_stuck(table):
    trace = table.recursion_trace(HPolygon.rectangle(3, 3), 3)
    assert "error" in trace and "value" not in trace
    # every node on the chain down to the blocked hexagon carries the error
    errors = []
    stack = [trace]
    while stack:
        cur = stack.pop()
        if "error" in cur:
            errors.append(cur)
        stack.extend(cur.get("children", ()))
    assert len(errors) >= 3
    hexagon = [list(v) for v in HEXAGON.vertices]
    assert any(
        node["polygon"] == hexagon and "no corner has room" in node["error"]
        for node in errors
    )


def test_recursion_trace_expands_each_pair_once(table):
    trace = table.recursion_trace(HPolygon.p2_triangle(5), 7)
    assert trace["pairs"] == 7 and "error" in trace
    seen, repeats = [], []
    stack = [trace]
    while stack:
        node = stack.pop()
        key = (HPolygon(node["polygon"]).canonical_key(), node["pairs"])
        if node.get("repeat"):
            assert "children" not in node
            repeats.append(key)
        else:
            seen.append(key)
        stack.extend(node.get("children", ()))
    assert len(seen) == len(set(seen))
    assert repeats and set(repeats) <= set(seen)


def test_recursion_trace_of_a_cut_that_leaves_no_area(table):
    # the cut would remove the whole conic, so d - 2E is an empty count
    trace = table.recursion_trace(HPolygon([(2, 0), (2, 2), (0, 2)]), 1)
    assert trace["corner"] is None
    assert len(trace["children"]) == 1
    assert trace["children"][0]["pairs"] == 0
    assert trace["value"] == trace["children"][0]["value"]


def test_extrapolated_flags(table):
    expectations = [
        ("rect:2,2", 1, False),
        ("rect:2,2", 2, False),
        ("rect:2,4", 5, False),
        ("rect:3,3", 2, False),
        ("sigma2:2,0", 1, True),
        ("sigma2:2,2", 2, True),
    ]
    for spec, s, flag in expectations:
        poly = HPolygon.from_spec(spec)
        table.refined_descendant(poly, s)
        assert table.record(poly, 0, s).extrapolated is flag, spec


def test_cache_round_trip(tmp_path):
    path = tmp_path / "cache.jsonl"
    first = InvariantTable(cache_path=str(path))
    value = first.refined_descendant(HPolygon.rectangle(2, 2), 1)
    stats = first.cache_stats()
    assert stats["records"] == 3
    assert stats["stale_lines"] == 0
    second = InvariantTable(cache_path=str(path))
    assert second.cache_stats()["records"] == 3
    assert second.refined_descendant(HPolygon.rectangle(2, 2), 1) == value


def test_cache_rejects_conflicts(tmp_path):
    path = tmp_path / "cache.jsonl"
    table = InvariantTable(cache_path=str(path))
    table.refined_invariant(HPolygon.rectangle(2, 2), 0)
    line = json.loads(path.read_text().splitlines()[0])
    line["coeffs"] = {"0": 5}
    with path.open("a") as fh:
        fh.write(json.dumps(line) + "\n")
    with pytest.raises(InvariantError, match="conflicting"):
        InvariantTable(cache_path=str(path))


def test_cache_verification_catches_tampering(tmp_path):
    path = tmp_path / "cache.jsonl"
    table = InvariantTable(cache_path=str(path))
    table.refined_invariant(HPolygon.rectangle(2, 2), 0)
    lines = [json.loads(l) for l in path.read_text().splitlines()]
    lines[0]["coeffs"]["0"] = 999
    path.write_text("".join(json.dumps(l) + "\n" for l in lines))
    with pytest.raises(InvariantError, match="verification failed"):
        InvariantTable(cache_path=str(path), verify_cache=True)


def test_table_ignores_the_cache_env_var(tmp_path, monkeypatch):
    # the CLI resolves the variable; a table built without a path has no cache
    path = tmp_path / "env.jsonl"
    InvariantTable(cache_path=str(path)).refined_invariant(HPolygon.rectangle(2, 2), 0)
    before = path.read_text()
    monkeypatch.setenv(CACHE_ENV_VAR, str(path))
    table = InvariantTable()
    assert table.cache_stats() == {
        "path": None, "records": 0, "stale_lines": 0, "torn_lines": 0,
    }
    table.refined_invariant(HPolygon.rectangle(2, 3), 0)
    assert path.read_text() == before


def test_cache_skips_stale_engine_lines(tmp_path):
    path = tmp_path / "cache.jsonl"
    table = InvariantTable(cache_path=str(path))
    table.refined_invariant(HPolygon.rectangle(2, 2), 0)
    line = json.loads(path.read_text().splitlines()[0])
    assert line["engine"] == ENGINE_VERSION
    line["engine"] = "0.0.0"
    path.write_text(json.dumps(line) + "\n")
    fresh = InvariantTable(cache_path=str(path))
    stats = fresh.cache_stats()
    assert stats["records"] == 0
    assert stats["stale_lines"] == 1


def _populated(path):
    """A cache file at path holding the four records of rect:2,2 --pairs 0..1
    and p2:3 g=0, and the table that wrote them."""
    table = InvariantTable(cache_path=str(path))
    table.refined_descendant(HPolygon.rectangle(2, 2), 1)
    table.refined_invariant(HPolygon.p2_triangle(3), 0)
    return table


def _loaded(path) -> tuple:
    table = InvariantTable(cache_path=str(path))
    stats = table.cache_stats()
    del stats["path"]
    return table.items(), stats


def test_key_keeps_its_repr_equality_and_hash():
    # cache errors print the key, and the table hashes it on every lookup
    key = InvariantKey.make(HPolygon.rectangle(1, 2), 0, 1)
    assert repr(key) == (
        "InvariantKey(polygon=((0, 0), (1, 0), (1, 2), (0, 2)), genus=0, pairs=1)"
    )
    assert key == InvariantKey(((0, 0), (1, 0), (1, 2), (0, 2)), 0, 1)
    assert key != InvariantKey(key.polygon, 1, 0)
    assert hash(key) == hash((key.polygon, key.genus, key.pairs))
    assert {key: 1}[InvariantKey.make(HPolygon.rectangle(1, 2), 0, 1)] == 1


def test_cache_with_crlf_line_ends_loads_like_lf(tmp_path):
    path = tmp_path / "cache.jsonl"
    _populated(path)
    lf = _loaded(path)
    assert lf[1] == {"records": 4, "stale_lines": 0, "torn_lines": 0}
    path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
    assert _loaded(path) == lf


def test_cache_skips_blank_and_whitespace_lines(tmp_path):
    path = tmp_path / "cache.jsonl"
    _populated(path)
    expected = _loaded(path)
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("\n" + lines[0] + "   \n\t\n" + "".join(lines[1:]) + " \t \n")
    assert _loaded(path) == expected
    # skipped lines still count toward the line number an error names
    with path.open("a") as fh:
        fh.write("[]\n")
    with pytest.raises(InvariantError, match=f"malformed cache line {len(lines) + 5} of"):
        InvariantTable(cache_path=str(path))


def test_cache_whitespace_tail_is_neither_torn_nor_malformed(tmp_path):
    path = tmp_path / "cache.jsonl"
    _populated(path)
    expected = _loaded(path)
    with path.open("a") as fh:
        fh.write("  \t")
    assert _loaded(path) == expected
    # the next append starts after the blanks, which the next load skips
    table = InvariantTable(cache_path=str(path))
    table.refined_invariant(HPolygon.rectangle(1, 1), 0)
    assert path.read_text().splitlines()[-1].startswith('  \t{"engine"')
    assert _loaded(path)[1] == {"records": 5, "stale_lines": 0, "torn_lines": 0}


def test_cache_duplicates_conflict_only_on_a_different_value(tmp_path):
    path = tmp_path / "cache.jsonl"
    _populated(path)
    expected = _loaded(path)
    entry = json.loads(path.read_text().splitlines()[0])
    assert entry["polygon"] == [[0, 0], [2, 0], [2, 2], [0, 2]]
    entry["coeffs"]["5"] = 0  # an explicit zero names the same value
    with path.open("a") as fh:
        fh.write(json.dumps(entry) + "\n")
    assert _loaded(path) == expected
    entry["coeffs"]["5"] = 1
    with path.open("a") as fh:
        fh.write(json.dumps(entry) + "\n")
    key = "InvariantKey(polygon=((0, 0), (2, 0), (2, 2), (0, 2)), genus=0, pairs=0)"
    with pytest.raises(InvariantError) as info:
        InvariantTable(cache_path=str(path))
    assert str(info.value) == f"conflicting cache entries for {key}"


def test_cache_torn_multibyte_tail_is_cut_at_its_byte_offset(tmp_path):
    path = tmp_path / "cache.jsonl"
    _populated(path)
    good = path.read_bytes()
    path.write_bytes(good + '{"engine": "\u00e9'.encode("utf-8"))
    table = InvariantTable(cache_path=str(path))
    assert table.cache_stats()["torn_lines"] == 1
    table.refined_invariant(HPolygon.rectangle(1, 1), 0)
    text = path.read_bytes()
    assert text.startswith(good) and text.count(b"\n") == good.count(b"\n") + 1
    assert json.loads(text[len(good):])["polygon"] == [[0, 0], [1, 0], [1, 1], [0, 1]]
    assert _loaded(path)[1] == {"records": 5, "stale_lines": 0, "torn_lines": 0}


def test_genus_values_delegate_to_diagrams(table):
    cubic = table.refined_invariant(HPolygon.p2_triangle(3), 0)
    assert cubic == LaurentPoly({-1: 1, 0: 10, 1: 1})
    assert table.gw_value(HPolygon.p2_triangle(3), genus=0) == 12
    assert table.welschinger_value(HPolygon.p2_triangle(3), 0) == 8


def test_a_record_does_not_depend_on_what_the_table_saw_first(tmp_path):
    # an extrapolated pair value can depend on the cut corner, and so on
    # which mirror image the recursion runs: a record keys the polygon as
    # given, so a table that holds the mirror image's record first does not
    # serve it, and a cache written from both images verifies
    path = tmp_path / "cache.jsonl"
    both = InvariantTable(cache_path=str(path))
    cells = 0
    for polygon in small_polygons():
        mirror = HPolygon([(-x, y) for x, y in polygon.vertices])
        if mirror == polygon:
            continue
        for pairs in range(1, max_pairs(polygon) + 1):
            try:
                fresh = InvariantTable().record(polygon, 0, pairs)
            except StuckError:
                break
            for seen in (InvariantTable(), both):
                try:
                    seen.record(mirror, 0, pairs)
                except StuckError:
                    pass
                assert seen.record(polygon, 0, pairs) == fresh, (polygon, pairs)
            cells += 1
    assert cells == 368
    InvariantTable(cache_path=str(path), verify_cache=True)
