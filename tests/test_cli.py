import csv
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from floordiagrams import cli, floordiag, surgery
from floordiagrams.invariants import (
    CACHE_ENV_VAR,
    ENGINE_VERSION,
    MAX_HEIGHT,
    InvariantError,
    InvariantKey,
    InvariantTable,
    max_pairs,
)
from floordiagrams.fixtures import reference_rows
from floordiagrams.polygon import HPolygon

SRC = Path(__file__).resolve().parents[1] / "src"


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_compute_text(capsys):
    code, out, _ = run(capsys, "compute", "--polygon", "rect:2,2")
    assert code == 0
    assert "rect:2,2 g=0 s=0: q^-1 + 10 + q" in out
    code, out, _ = run(capsys, "compute", "--polygon", "sigma2:1,7")
    assert code == 0
    assert "sigma2:1,7 g=0 s=0: 1" in out
    code, out, _ = run(capsys, "compute", "--polygon", "p2:1")
    assert code == 0
    assert "p2:1 g=0 s=0: 1" in out


def test_compute_out_of_memory_exits_2(capsys, monkeypatch):
    # a wide polygon can exhaust memory in the walk; that is not a check
    # that disagreed (exit 1) and must not end in a traceback
    def exhausted(*args):
        raise MemoryError

    monkeypatch.setattr(floordiag, "_walk", exhausted)
    code, out, err = run(capsys, "compute", "--polygon", "rect:2,2")
    assert (code, out, err) == (2, "", "error: out of memory\n")


def test_compute_out_of_memory_in_a_joint_walk_exits_2(capsys, monkeypatch):
    # a run of genera on a polygon with top ends keys its terms by genus too
    step = floordiag._close_step

    def exhausted(*args):
        if args[5] > 1:  # K, the genera of the run
            raise MemoryError
        return step(*args)

    monkeypatch.setattr(floordiag, "_close_step", exhausted)
    code, out, err = run(capsys, "compute", "--polygon", "rect:4,3", "--genus", "0..2")
    assert (code, out, err) == (2, "", "error: out of memory\n")


def test_compute_out_of_memory_in_the_closing_step_exits_2(capsys, monkeypatch):
    # rect:2,2 has two floors: its walk's one floor step is the closing one
    def exhausted(*args):
        raise MemoryError

    monkeypatch.setattr(floordiag, "_close_step", exhausted)
    monkeypatch.setattr(floordiag, "_floor_step", None)
    code, out, err = run(capsys, "compute", "--polygon", "rect:2,2")
    assert (code, out, err) == (2, "", "error: out of memory\n")


def test_compute_tallest_allowed_polygon(capsys):
    # a bidegree (1, b) class carries exactly one rational curve
    spec = f"rect:1,{MAX_HEIGHT}"
    code, out, _ = run(capsys, "compute", "--polygon", spec)
    assert code == 0
    assert out == f"{spec} g=0 s=0: 1\n"


def test_compute_huge_genus_is_zero_at_once(capsys):
    # nothing in the walk may scale with the genus: no state gets past the
    # first floor, so the answer is 0 without any factorial of the genus
    genus = "99999999999999999999"
    code, out, _ = run(capsys, "compute", "--polygon", "p2:3", "--genus", genus)
    assert code == 0
    assert out == f"p2:3 g={genus} s=0: 0\n"


@pytest.mark.parametrize("emit", ["text", "json"])
def test_compute_huge_genus_range_is_refused(capsys, emit):
    # every genus above the interior point count (1 for p2:3) is 0
    span = "0..1000000000000"
    code, out, err = run(capsys, "compute", "--polygon", "p2:3", "--genus", span, "--emit", emit)
    assert (code, out) == (2, "")
    assert err == (
        f"error: genus range {span} ends above 1, the interior lattice point "
        "count of p2:3; every genus above it is 0\n"
    )
    code, out, _ = run(capsys, "compute", "--polygon", "p2:3", "--genus", "0..1")
    assert (code, out) == (0, "p2:3 g=0 s=0: q^-1 + 10 + q\np2:3 g=1 s=0: 1\n")


def test_compute_huge_pairs_range_is_refused_at_once(capsys):
    code, out, err = run(capsys, "compute", "--polygon", "p2:3", "--pairs", "0..1000000000000")
    assert (code, out) == (2, "")
    assert err.startswith("error: pairs = 1000000000000 exceeds half the point count")


def test_compute_pairs_deeper_than_the_stack_exit_2(capsys):
    # one floor 2000 wide admits 2000 pairs, each a level of the recursion
    code, out, err = run(capsys, "compute", "--polygon", "rect:2000,1", "--pairs", "1500")
    assert (code, out) == (2, "")
    limit = sys.getrecursionlimit()
    assert err == f"error: request nests deeper than the stack limit of {limit} calls\n"
    # a range fills the column from below, one level at a time
    code, out, _ = run(capsys, "compute", "--polygon", "rect:2000,1", "--pairs", "0..1500")
    assert (code, out.splitlines()[-1]) == (0, "rect:2000,1 g=0 s=1500: 1")


WALKS = [
    # rows that narrow by two or more per floor are walked upside down
    ("sigma2:3,3", "0", [(3, 5, 7, 9)]),
    ("sigma2:4,0", "1", [(0, 2, 4, 6, 8)]),
    # a run of genera too, in one walk with the top ends it then has,
    ("sigma2:3,3", "0..2", [(3, 5, 7, 9)]),
    # unless one walk serves the column of a polygon whose top row is a point
    ("sigma2:4,0", "0..3", [(8, 6, 4, 2, 0)]),
    # P^2 narrows by one per floor
    ("p2:5", "0..6", [(5, 4, 3, 2, 1, 0)]),
    ("p2:6", "0", [(6, 5, 4, 3, 2, 1, 0)]),
    # one walk serves each run of genera on every polygon
    ("rect:4,3", "0..2", [(4, 4, 4, 4)]),
    ("octagon", "0..3", [(2, 4, 4, 2)]),
]


def polygon_args(spec: str, octagon, tmp_path) -> tuple:
    """The compute arguments that name the polygon; the benchmark's octagon
    goes through a polygon file."""
    if spec != "octagon":
        return ("--polygon", spec)
    path = tmp_path / "octagon.json"
    path.write_text(json.dumps({"vertices": [list(v) for v in octagon.vertices]}))
    return ("--polygon-file", str(path))


@pytest.mark.parametrize(
    "spec, span, walks", WALKS, ids=[f"{spec}-{span}-{len(w)}" for spec, span, w in WALKS]
)
def test_compute_genus_column_walks(capsys, monkeypatch, tmp_path, octagon, spec, span, walks):
    # the widths each walk receives, bottom row first
    calls = []
    walk = floordiag._walk

    def counting_walk(*args):
        calls.append(args)
        return walk(*args)

    monkeypatch.setattr(floordiag, "_walk", counting_walk)
    where = polygon_args(spec, octagon, tmp_path)
    code, _, _ = run(capsys, "compute", *where, "--genus", span)
    assert code == 0
    assert [widths for widths, *_ in calls] == walks


@pytest.mark.parametrize("spec, top", [("p2:5", 6), ("sigma2:3,0", 2), ("rect:3,3", 4)])
def test_compute_genus_range_matches_single_requests(capsys, tmp_path, spec, top):
    # the cache holds genus 1 already, so the range appends around it
    single, joint = tmp_path / "single.jsonl", tmp_path / "joint.jsonl"
    for path in (single, joint):
        run(capsys, "--cache", str(path), "compute", "--polygon", spec, "--genus", "1")
    for emit in ("text", "csv", "json"):
        outs = []
        for genus in range(top + 1):
            code, out, err = run(
                capsys, "--cache", str(single), "compute", "--polygon", spec,
                "--genus", str(genus), "--emit", emit,
            )
            assert (code, err) == (0, "")
            outs.append(out)
        code, out, err = run(
            capsys, "--cache", str(joint), "compute", "--polygon", spec,
            "--genus", f"0..{top}", "--emit", emit,
        )
        assert (code, err) == (0, "")
        if emit == "text":
            assert out == "".join(outs)
        elif emit == "csv":
            header = "polygon,genus,s,exponent,coefficient\n"
            assert out == header + "".join(o.removeprefix(header) for o in outs)
        else:
            results = [r for o in outs for r in json.loads(o)["results"]]
            payload = {"engine": ENGINE_VERSION, "results": results}
            assert out == json.dumps(payload, indent=2, sort_keys=True) + "\n"
        assert joint.read_bytes() == single.read_bytes()


def test_compute_octagon_genus_range_matches_single_requests(capsys, tmp_path, octagon):
    # one walk with top ends serves the run; 19 divergence sequences share it
    where = polygon_args("octagon", octagon, tmp_path)
    results = []
    for genus in range(4):
        code, out, err = run(capsys, "compute", *where, "--genus", str(genus), "--emit", "json")
        assert (code, err) == (0, "")
        results += json.loads(out)["results"]
    code, out, err = run(capsys, "compute", *where, "--genus", "0..3", "--emit", "json")
    assert (code, err) == (0, "")
    payload = {"engine": ENGINE_VERSION, "results": results}
    assert out == json.dumps(payload, indent=2, sort_keys=True) + "\n"


def test_compute_extrapolated_marker(capsys):
    code, out, _ = run(capsys, "compute", "--polygon", "sigma2:2,0", "--pairs", "1")
    assert code == 0
    assert "[extrapolated]" in out
    code, out, _ = run(capsys, "compute", "--polygon", "rect:2,2", "--pairs", "1")
    assert code == 0
    assert "[extrapolated]" not in out


def test_compute_json(capsys):
    code, out, _ = run(
        capsys, "compute", "--polygon", "rect:2,2", "--emit", "json"
    )
    assert code == 0
    payload = json.loads(out)
    (result,) = payload["results"]
    assert result["invariant"] == {"-1": 1, "0": 10, "1": 1}
    assert result["vertices"] == [[0, 0], [2, 0], [2, 2], [0, 2]]
    assert result["extrapolated"] is False


# -- the indented JSON writer ---------------------------------------------------

# quotes, backslashes, control and non-ASCII characters, lone surrogates too
_TEXT = st.text(st.one_of(
    st.sampled_from('"\\/\x00\x1f\x7f\n\t\u00e9\u2028\U0001f600'),
    st.characters(exclude_categories=()),
), max_size=6)
_JSON_VALUES = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), st.integers(-(2**200), 2**200), _TEXT),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(_TEXT, children, max_size=4),
    ),
    max_leaves=24,
)


@settings(max_examples=200, deadline=None)
@given(_JSON_VALUES)
def test_the_indented_writer_is_json_dumps(value):
    assert cli._indented_json(value) == json.dumps(value, indent=2, sort_keys=True)


@pytest.mark.parametrize("value", (
    1.5, [0.0], {"a": {1, 2}}, frozenset(), {1: "a"}, {"a": {None: 1}}, [{True: 1}], {b"a": 1},
))
def test_the_indented_writer_refuses_what_the_cli_never_emits(value):
    # json.dumps prints some of these (a float, an int key as a string): a
    # payload that holds one fails loudly instead of printing other bytes
    with pytest.raises(TypeError):
        cli._indented_json(value)


def test_every_indented_payload_of_the_workloads_is_json_dumps(monkeypatch, tmp_path, workloads):
    # every --emit json request and every stuck trace of the benchmark's
    # set-ups and passes, with the cache files they run against
    writer, payloads = cli._indented_json, []

    def recording(value):
        payloads.append(value)
        return writer(value)

    monkeypatch.setattr(cli, "_indented_json", recording)
    octagon = tmp_path / "octagon.json"
    octagon.write_text(json.dumps({"vertices": workloads.OCTAGON_VERTICES}), encoding="utf-8")
    for workload in workloads.WORKLOADS.values():
        cache = tmp_path / f"{workload.name}.jsonl"
        for request in workload.populate + workload.requests:
            before = len(payloads)
            with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
                cli.main(list(request.resolve(str(octagon), str(cache))))
            emits = request.emit == "json" or request.kind == "stuck"
            assert (len(payloads) > before) == emits, request.label()
    assert len(payloads) > 40
    for value in payloads:
        assert writer(value) == json.dumps(value, indent=2, sort_keys=True)


def test_compute_csv(capsys):
    code, out, _ = run(
        capsys, "compute", "--polygon", "rect:2,2", "--genus", "0..1", "--emit", "csv"
    )
    assert code == 0
    # the label holds a comma, so it is quoted and every row has five fields
    assert out == (
        "polygon,genus,s,exponent,coefficient\n"
        '"rect:2,2",0,0,-1,1\n'
        '"rect:2,2",0,0,0,10\n'
        '"rect:2,2",0,0,1,1\n'
        '"rect:2,2",1,0,0,1\n'
    )
    rows = list(csv.DictReader(io.StringIO(out)))
    assert rows[-1] == {
        "polygon": "rect:2,2", "genus": "1", "s": "0", "exponent": "0", "coefficient": "1",
    }
    # a label without a comma is written as it was
    code, out, _ = run(capsys, "compute", "--polygon", "p2:3", "--genus", "1", "--emit", "csv")
    assert (code, out) == (0, "polygon,genus,s,exponent,coefficient\np2:3,1,0,0,1\n")


def test_compute_list_diagrams(capsys):
    code, out, _ = run(
        capsys, "compute", "--polygon", "rect:2,2", "--list-diagrams"
    )
    assert code == 0
    diagram_lines = [l for l in out.splitlines() if "elevators=" in l]
    assert len(diagram_lines) == 3
    assert any("multiplicity=q^-1 + 2 + q" in l for l in diagram_lines)
    code, out, _ = run(
        capsys,
        "compute", "--polygon", "rect:2,2", "--list-diagrams", "--emit", "json",
    )
    payload = json.loads(out)
    assert len(payload["results"][0]["diagrams"]) == 3


@pytest.mark.parametrize("width", [250, 1000, 10**30])
def test_compute_lists_a_wide_polygon_of_one_floor(capsys, tmp_path, width):
    # the rectangles by name, the widest as a triangle from a file; its
    # one diagram's marking count loops over the two gaps of the floor
    if width < 10**30:
        label, where = f"rect:{width},1", ("--polygon", f"rect:{width},1")
        top = width
    else:
        label = tmp_path / "triangle.json"
        label.write_text(json.dumps({"vertices": [[0, 0], [width, 0], [0, 1]]}))
        where, top = ("--polygon-file", str(label)), 0
    code, out, err = run(capsys, "compute", *where, "--list-diagrams")
    assert (code, err) == (0, "")
    assert out.splitlines() == [
        f"{label} g=0 s=0: 1",
        f"  elevators=[] bottom=[{width}] top=[{top}] div=[{width - top}] multiplicity=1 "
        "markings=1 orderings=1",
    ]


def test_compute_list_diagrams_evaluates_each_cell_once(capsys, tmp_path, monkeypatch):
    calls = {"enumerate": 0, "markings": 0}
    enumerate_diagrams = floordiag.enumerate_diagrams
    marking_count = floordiag.FloorDiagram.marking_count

    def counting_enumerate(*args):
        calls["enumerate"] += 1
        return enumerate_diagrams(*args)

    def counting_markings(self):
        calls["markings"] += 1
        return marking_count(self)

    monkeypatch.setattr(floordiag, "enumerate_diagrams", counting_enumerate)
    monkeypatch.setattr(floordiag.FloorDiagram, "marking_count", counting_markings)
    path = tmp_path / "cache.jsonl"
    code, out, _ = run(
        capsys, "--cache", str(path), "compute", "--polygon", "rect:2,2", "--list-diagrams"
    )
    assert code == 0
    assert out.splitlines()[0] == "rect:2,2 g=0 s=0: q^-1 + 10 + q"
    assert calls == {"enumerate": 1, "markings": 3}
    # a listed cell is its diagram sum and is not written to the cache
    assert not path.exists()


def test_compute_list_diagrams_refuses_csv_before_any_work(capsys, tmp_path, monkeypatch):
    # CSV rows hold values only, so a listing would be dropped without a word
    def refuse(*args):
        raise AssertionError("a refused request built a polygon")

    monkeypatch.setattr(cli, "_load_polygon", refuse)
    cache = tmp_path / "cache.jsonl"
    code, out, err = run(
        capsys, "--cache", str(cache), "compute", "--polygon", "p2:3", "--genus", "0..1",
        "--list-diagrams", "--emit", "csv",
    )
    assert (code, out) == (2, "")
    assert err == "error: --list-diagrams has no CSV form: use --emit text or --emit json\n"
    assert not cache.exists()


@pytest.mark.parametrize(
    "spec", ["rect:1_0,2", "rect: 2,2", "rect:2,+2", "rect:\u0662,2", "rect:2,2 ", "p2:-3"]
)
def test_compute_polygon_spec_takes_only_ascii_digits(capsys, spec):
    # int() would read each of these as a number
    code, out, err = run(capsys, "compute", "--polygon", spec)
    assert (code, out, err) == (2, "", f"error: bad polygon spec {spec!r}\n")


@pytest.mark.parametrize(
    "option, text",
    [("--genus", "1_0"), ("--genus", " 2"), ("--genus", "+1"), ("--genus", "\u0662"),
     ("--genus", "0..\u0663"), ("--genus", "1 "), ("--pairs", "0_0"), ("--pairs", "0..+1")],
)
def test_compute_spans_take_only_ascii_digits(capsys, option, text):
    # int() would read each of these as a number: "1_0" as genus 10
    code, out, err = run(capsys, "compute", "--polygon", "rect:3,3", option, text)
    assert (code, out) == (2, "")
    assert err == f"error: bad {option} {text!r}: expected N or A..B with 0 <= A <= B\n"


def test_compute_polygon_file(capsys, tmp_path):
    spec = tmp_path / "poly.json"
    spec.write_text(json.dumps({"vertices": [[0, 0], [2, 0], [2, 2], [0, 2]]}))
    code, out, _ = run(
        capsys, "compute", "--polygon-file", str(spec), "--emit", "json"
    )
    assert code == 0
    assert json.loads(out)["results"][0]["invariant"] == {"-1": 1, "0": 10, "1": 1}


def test_compute_usage_errors(capsys, tmp_path, monkeypatch):
    cases = [
        ("compute", "--polygon", "hex:1,1"),
        ("compute",),
        ("compute", "--polygon", "rect:2,2", "--genus", "2..1"),
        ("compute", "--polygon", "rect:2,2", "--genus", "1", "--pairs", "1"),
        ("compute", "--polygon", "rect:2,2", "--pairs", "1", "--list-diagrams"),
    ]
    spec = tmp_path / "poly.json"
    spec.write_text(json.dumps({"vertices": [[0, 0], [1, 0], [1, 1], [0, 1]]}))
    cases.append(("compute", "--polygon", "rect:2,2", "--polygon-file", str(spec)))
    for argv in cases:
        code, _, err = run(capsys, *argv)
        assert code == 2, argv
        assert "error:" in err
    # a malformed span names its option and the accepted forms in one line
    for option, text in (
        ("--genus", "abc"), ("--genus", "1.."), ("--genus", "1..2..3"), ("--pairs", "x"),
    ):
        code, out, err = run(capsys, "compute", "--polygon", "rect:2,2", option, text)
        assert (code, out) == (2, ""), text
        assert err == f"error: bad {option} {text!r}: expected N or A..B with 0 <= A <= B\n"
    # a malformed polygon file is named in one stderr line, never truncated to ints
    for data, problem in (
        ({"corners": [[0, 0], [1, 0], [0, 1]]}, '"vertices" list'),
        ([[0, 0], [1, 0], [0, 1]], '"vertices" list'),
        ({"vertices": 5}, '"vertices" list'),
        ({"vertices": [[0, 0], [2.7, 0], [0, 2.9]]}, "vertex [2.7, 0]"),
        ({"vertices": [[0, 0], [True, 0], [0, 1]]}, "vertex [True, 0]"),
        ({"vertices": [[0, 0], [1, 0, 0], [0, 1]]}, "vertex [1, 0, 0]"),
        # every turn is a left turn, but the loop winds twice
        ({"vertices": [[0, 1], [4, 0], [1, 3], [1, 1], [3, 1], [1, 2]]},
         "vertices do not bound a convex polygon"),
        ('{"rows": [', f"malformed JSON in {spec}"),
    ):
        spec.write_text(data if isinstance(data, str) else json.dumps(data))
        code, out, err = run(capsys, "compute", "--polygon-file", str(spec))
        assert code == 2, data
        assert out == ""
        assert err.startswith("error: ") and problem in err, data
        assert len(err.splitlines()) == 1, data
    # an out-of-range pair count is refused before any record: no trace, no cache line
    cache = tmp_path / "cache.jsonl"
    for argv in (
        ("compute", "--polygon", "rect:2,2", "--pairs", "9"),
        ("--cache", str(cache), "compute", "--polygon", "rect:2,2", "--pairs", "0..9"),
    ):
        code, _, err = run(capsys, *argv)
        assert code == 2, argv
        assert err.splitlines() == [err.rstrip("\n")], argv
        assert "exceeds half the point count" in err
    assert not cache.exists()
    # a polygon too tall to enumerate is refused by the key gate, before any work
    monkeypatch.setattr(HPolygon, "floor_profile", _never_called)
    monkeypatch.setattr(InvariantTable, "_compute", _never_called)
    for spec_text, height in (("p2:99999999999", 99999999999), ("rect:1,1200", 1200)):
        argv = ("--cache", str(cache), "compute", "--polygon", spec_text)
        code, out, err = run(capsys, *argv)
        assert code == 2, argv
        assert out == ""
        assert err.startswith("error: ") and len(err.splitlines()) == 1, argv
        assert f"height {height}, above the bound of {MAX_HEIGHT}" in err
    assert not cache.exists()


def _never_called(*args):
    raise AssertionError("computed a value for a refused request")


def test_compute_stuck_reports_trace(capsys):
    code, out, err = run(
        capsys, "compute", "--polygon", "rect:3,3", "--pairs", "3"
    )
    assert code == 2
    assert "pair recursion is stuck" in err
    trace = json.loads(err[err.index("{"):])
    assert trace["pairs"] == 3
    assert "error" in trace
    assert trace["children"]


def test_compute_stuck_writes_only_the_requested_cache(capsys, tmp_path, monkeypatch):
    env_cache = tmp_path / "env.jsonl"
    monkeypatch.setenv(CACHE_ENV_VAR, str(env_cache))
    code, _, err = run(
        capsys,
        "--cache", str(tmp_path / "flag.jsonl"),
        "compute", "--polygon", "rect:3,3", "--pairs", "3",
    )
    assert code == 2
    assert "pair recursion is stuck" in err
    assert not env_cache.exists()


def test_appendix_full(capsys):
    code, out, _ = run(capsys, "appendix")
    assert code == 1
    assert "52/60 rows match" in out
    statuses = [l.split()[0] for l in out.splitlines() if l and not l.startswith(" ")]
    assert statuses.count("mismatch") == 2
    assert statuses.count("stuck") == 6
    assert statuses.count("match") == 52


def test_appendix_genus_only(capsys):
    code, out, _ = run(capsys, "appendix", "--genus-only")
    assert code == 0
    assert "34/34 rows match" in out


def test_appendix_json(capsys):
    code, out, _ = run(capsys, "appendix", "--genus-only", "--emit", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    assert payload["matched"] == payload["total"] == 34


def test_appendix_alt_fixture_diff(capsys, tmp_path):
    fixture = {
        "rows": [
            {"surface": "QH", "a": 1, "b": 1, "genus": 0, "pairs": 0, "coeffs": {"0": 1}},
            {"surface": "QH", "a": 2, "b": 2, "genus": 0, "pairs": 0,
             "coeffs": {"-1": 1, "0": 11, "1": 1}},
        ]
    }
    path = tmp_path / "tables.json"
    path.write_text(json.dumps(fixture))
    code, out, _ = run(capsys, "appendix", "--fixtures", str(path), "--emit", "json")
    assert code == 1
    payload = json.loads(out)
    assert payload["matched"] == 1 and payload["total"] == 2
    (bad,) = [r for r in payload["rows"] if r["status"] == "mismatch"]
    assert bad["diff"] == {"0": {"expected": 11, "computed": 10}}


GOOD_ROW = {"surface": "QH", "a": 2, "b": 2, "genus": 0, "pairs": 0, "coeffs": {"0": 10}}


@pytest.mark.parametrize(
    "fixture",
    [
        {"rows": [{**GOOD_ROW, "a": 2.9}]},
        {"rows": [{**GOOD_ROW, "pairs": True}]},
        {"rows": [{**GOOD_ROW, "genus": -1}]},
        {"rows": [{**GOOD_ROW, "a": 0}]},
        {"rows": [GOOD_ROW, {**GOOD_ROW, "b": 0}]},
        {"rows": [{k: v for k, v in GOOD_ROW.items() if k != "b"}]},
        {"rows": [{**GOOD_ROW, "surface": "P2"}]},
        {"rows": [{**GOOD_ROW, "coeffs": [10]}]},
        {"rows": [{**GOOD_ROW, "coeffs": {"0": 10.0}}]},
        {"rows": [GOOD_ROW, {**GOOD_ROW, "coeffs": {"0": 10, "-0": 1}}]},
        {"rows": [[2, 2]]},
        [GOOD_ROW],
        {"rows": {"0": GOOD_ROW}},
        '{"rows": [',
    ],
    ids=[
        "float-a",
        "bool-pairs",
        "negative-genus",
        "zero-a",
        "zero-b-rectangle",
        "missing-field",
        "unknown-surface",
        "list-coeffs",
        "float-coefficient",
        "colliding-exponents",
        "row-not-an-object",
        "top-level-list",
        "rows-not-a-list",
        "truncated-file",
    ],
)
def test_appendix_malformed_fixture(capsys, tmp_path, fixture):
    path = tmp_path / "tables.json"
    path.write_text(fixture if isinstance(fixture, str) else json.dumps(fixture))
    code, out, err = run(capsys, "appendix", "--fixtures", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and str(path) in err
    assert len(err.splitlines()) == 1
    if isinstance(fixture, dict) and isinstance(fixture["rows"], list):
        assert f"malformed row {len(fixture['rows'])} of {path}" in err


@pytest.mark.parametrize(
    "row, reason",
    [
        ({**GOOD_ROW, "genus": 1, "pairs": 1}, "conjugate pairs only refine genus 0"),
        ({**GOOD_ROW, "pairs": 9}, "pairs = 9 exceeds half the point count of "),
        ({**GOOD_ROW, "b": 70}, "has height 70, above the bound of 64"),
    ],
    ids=["pairs-above-genus-0", "too-many-pairs", "too-tall"],
)
@pytest.mark.parametrize("command", [("appendix",), ("verify", "--suite", "all")])
def test_inadmissible_golden_row_exits_2_before_any_record(capsys, tmp_path, row, reason, command):
    # such a row asks for no cell at all, so it is refused like a bad compute
    # request rather than replayed as stuck; the first one refused is named
    path = tmp_path / "tables.json"
    path.write_text(json.dumps({"rows": [GOOD_ROW, row, {**GOOD_ROW, "b": 71}]}))
    cache = tmp_path / "cache.jsonl"
    code, out, err = run(capsys, "--cache", str(cache), *command, "--fixtures", str(path))
    label = f"rect:{row['a']},{row['b']} g={row['genus']} s={row['pairs']}"
    assert (code, out) == (2, "")
    assert err.startswith(f"error: golden row {label}: ") and reason in err
    assert len(err.splitlines()) == 1
    assert not cache.exists()


def test_verify_single_identities(capsys):
    for name in ("u-inversion", "main-proof"):
        code, out, _ = run(capsys, "verify", "--identity", name)
        assert code == 0
        assert f"pass  {name}" in out


def test_verify_identity_suite(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "identities")
    assert code == 0
    for name in cli.IDENTITIES:
        assert f"pass  {name}" in out
    assert "3 skipped" in out


def _reaches(spec, pairs, target) -> bool:
    """Whether the pair recursion of spec at pairs, on a table of its own,
    gets stuck or searches target for a cut."""
    stack = [InvariantTable().recursion_trace(HPolygon.from_spec(spec), pairs)]
    while stack:
        node = stack.pop()
        if "error" in node or node["pairs"] and HPolygon(node["polygon"]).canonical_key() == target:
            return True
        stack.extend(node.get("children", ()))
    return False


def test_verify_skips_what_the_recursion_cannot_reach(capsys, monkeypatch):
    # one more stuck polygon, two cuts below sigma2:2,2: the instances and
    # the column that reach it are found at run time, with no list edited
    target = HPolygon([(0, 2), (4, 0), (6, 0), (2, 2)])
    assert target.interior_lattice_count() > 0
    key = target.canonical_key()

    def instance_reaches(a, b, genus, pairs):
        specs = [f"sigma2:{a},{b}"]
        specs += ["rect:%d,%d" % t["bidegree"] for t in surgery.quadric_rhs_terms(a, b)]
        return pairs > 0 and any(_reaches(spec, pairs, key) for spec in specs)

    stuck = [cell for cell in cli.CONJECTURE_INSTANCES if instance_reaches(*cell)]
    column = {}
    for spec in cli.MONOTONE_COLUMNS:
        top = max_pairs(HPolygon.from_spec(spec))
        column[spec] = next((s for s in range(top + 1) if _reaches(spec, s, key)), top + 1)
    assert [cell for cell in stuck if cell[:2] == (2, 2)] == [(2, 2, 0, s) for s in (3, 4, 5)]
    assert {(3, 0, 0, s) for s in (3, 4, 5)} <= set(stuck)
    assert (column["sigma2:2,2"], column["rect:3,3"]) == (3, 3)

    cuts = HPolygon.admissible_cuts
    monkeypatch.setattr(
        HPolygon, "admissible_cuts", lambda p: () if p.canonical_key() == key else cuts(p)
    )
    code, out, _ = run(
        capsys, "verify", "--identity", "conj-quadric", "--identity", "monotone-s",
        "--emit", "json",
    )
    assert code == 0
    conjecture, monotone = json.loads(out)["reports"]
    skipped = [(i["a"], i["b"], i["genus"], i["pairs"]) for i in conjecture["skipped"]]
    assert skipped == stuck
    assert conjecture["checked"] == len(cli.CONJECTURE_INSTANCES) - len(skipped)
    assert monotone["checked"] == sum(column.values())


def test_appendix_reports_only_a_stuck_cell_as_stuck(capsys, monkeypatch):
    # any other InvariantError from a row is an error of the request, not a
    # row the recursion cannot reach
    row = reference_rows()[0]
    polygon = HPolygon.from_spec(row.spec())
    record = InvariantTable.record

    def failing_record(self, shape, genus, pairs):
        if (shape, genus, pairs) == (polygon, row.genus, row.pairs):
            raise InvariantError("not a stuck cell")
        return record(self, shape, genus, pairs)

    monkeypatch.setattr(InvariantTable, "record", failing_record)
    code, out, err = run(capsys, "appendix")
    assert (code, out, err) == (2, "", "error: not a stuck cell\n")


@pytest.mark.parametrize("argv", [("appendix",), ("verify", "--identity", "conj-quadric")])
def test_a_request_builds_each_golden_polygon_once(capsys, monkeypatch, argv):
    if argv[0] == "appendix":
        rows = reference_rows()
        shapes = {(row.surface, row.a, row.b) for row in rows}
        assert (len(rows), len(shapes)) == (60, 18)
    else:
        shapes = set()
        for a, b, _, _ in cli.CONJECTURE_INSTANCES:
            shapes.add(("Sigma2", a, b))
            shapes.update(("QH", *t["bidegree"]) for t in surgery.quadric_rhs_terms(a, b))
    built = []
    for name in ("rectangle", "sigma2_trapezoid"):

        def counting(cls, a, b, make=getattr(HPolygon, name), name=name):
            built.append((name, a, b))
            return make(a, b)

        monkeypatch.setattr(HPolygon, name, classmethod(counting))
    run(capsys, *argv)
    assert len(built) == len(set(built)) == len(shapes)


def test_verify_all_builds_each_named_polygon_once(capsys, monkeypatch):
    built = []
    for name in ("rectangle", "sigma2_trapezoid", "p2_triangle"):

        def counting(cls, *args, make=getattr(HPolygon, name), name=name):
            built.append((name, *args))
            return make(*args)

        monkeypatch.setattr(HPolygon, name, classmethod(counting))
    run(capsys, "verify", "--suite", "all")
    assert len(built) == len(set(built))
    # symmetry still evaluates both embeddings of each shape
    assert {("rectangle", a, b) for a, b in cli.SYMMETRY_SHAPES} <= set(built)
    assert {("rectangle", b, a) for a, b in cli.SYMMETRY_SHAPES} <= set(built)


def test_verify_all_builds_one_table(capsys, monkeypatch):
    monkeypatch.delenv(CACHE_ENV_VAR, raising=False)
    counts = {"tables": 0, "computed": 0}
    init, compute = InvariantTable.__init__, InvariantTable._compute

    def counting_init(self, *args, **kwargs):
        counts["tables"] += 1
        init(self, *args, **kwargs)

    def counting_compute(self, *args, **kwargs):
        counts["computed"] += 1
        return compute(self, *args, **kwargs)

    monkeypatch.setattr(InvariantTable, "__init__", counting_init)
    monkeypatch.setattr(InvariantTable, "_compute", counting_compute)
    code, _, _ = run(capsys, "verify", "--suite", "all")
    assert code == 1
    assert counts["tables"] == 1
    # a record keys the polygon as given, so eight mirror twins of the
    # recursion are computed on their own
    assert counts["computed"] == 164


@pytest.mark.parametrize(
    "argv",
    [("compute", "--polygon", "p2:6", "--pairs", "8"), ("verify", "--suite", "all")],
    ids=["stuck-compute", "verify-all"],
)
def test_a_request_computes_each_key_at_most_once(capsys, monkeypatch, argv):
    # a stuck key raises again from the table's memo instead of recomputing
    # the chain below it, for the trace and for every later lookup
    monkeypatch.delenv(CACHE_ENV_VAR, raising=False)
    keys, compute = [], InvariantTable._compute

    def recording_compute(self, polygon, genus, pairs):
        keys.append(InvariantKey.make(polygon, genus, pairs))
        return compute(self, polygon, genus, pairs)

    monkeypatch.setattr(InvariantTable, "_compute", recording_compute)
    run(capsys, *argv)
    assert keys and len(keys) == len(set(keys))


def test_verify_all_prints_appendix_then_identities(capsys, monkeypatch):
    monkeypatch.delenv(CACHE_ENV_VAR, raising=False)
    code, out, _ = run(capsys, "verify", "--suite", "all")
    assert code == 1
    _, appendix_out, _ = run(capsys, "appendix")
    _, identities_out, _ = run(capsys, "verify", "--suite", "identities")
    assert out == appendix_out + identities_out


def test_verify_json(capsys):
    code, out, _ = run(capsys, "verify", "--identity", "u-inversion", "--emit", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    assert payload["reports"][0]["identity"] == "u-inversion"


def test_verify_conj_quadric_fails_on_a_wrong_cached_trapezoid(capsys, tmp_path):
    # the trapezoid side of the instance (a, b) = (1, 0), g=0, s=0 is 1, not 2
    key = InvariantKey.make(HPolygon.from_spec("sigma2:1,0"), 0, 0)
    entry = {
        "engine": ENGINE_VERSION,
        "polygon": [list(v) for v in key.polygon],
        "genus": key.genus,
        "pairs": key.pairs,
        "coeffs": {"0": 2},
        "extrapolated": False,
    }
    path = tmp_path / "cache.jsonl"
    path.write_text(json.dumps(entry) + "\n")
    code, out, _ = run(capsys, "--cache", str(path), "verify", "--identity", "conj-quadric")
    assert code == 1
    assert "FAIL  conj-quadric" in out
    assert "'a': 1, 'b': 0, 'genus': 0, 'pairs': 0, 'passed': False, 'lhs': {'0': 2}" in out


def test_verify_needs_a_selection(capsys):
    # exactly one of --suite and --identity, refused by the parser
    for argv in ((), ("--suite", "identities", "--identity", "u-inversion")):
        with pytest.raises(SystemExit) as exit_info:
            cli.main(["verify", *argv])
        assert exit_info.value.code == 2
        assert "error:" in capsys.readouterr().err


def test_verify_suite_appendix_is_gone(capsys):
    # `appendix` prints the same replay
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["verify", "--suite", "appendix"])
    assert exit_info.value.code == 2
    assert "invalid choice: 'appendix'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "selection", [("--identity", "u-inversion"), ("--suite", "identities")]
)
def test_verify_fixtures_needs_suite_all(capsys, tmp_path, selection):
    # only --suite all replays a table; the file is refused before it is read
    missing = tmp_path / "missing.json"
    code, out, err = run(capsys, "verify", *selection, "--fixtures", str(missing))
    assert code == 2
    assert out == ""
    assert err == "error: --fixtures only applies to --suite all\n"


def test_every_identity_reports_its_name_and_passes_when_nothing_failed(table):
    for name in cli.IDENTITIES:
        report = cli.IDENTITY_CHECKS[name](table)
        assert report["identity"] == name
        assert report["passed"] == (report["failures"] == [])
        assert report["checked"] > 0


def test_verify_reports_a_failing_identity(capsys, monkeypatch):
    monkeypatch.setattr(surgery, "u_inversion_sum", lambda m, n: 7)
    code, out, _ = run(capsys, "verify", "--identity", "u-inversion")
    assert code == 1
    lines = out.splitlines()
    assert lines[0] == "FAIL  u-inversion (169 checked)"
    assert lines[1] == "      {'m': 0, 'n': 0, 'got': 7, 'want': 1}"
    assert len(lines) == 1 + 169
    failure = surgery.check_u_inversion()["failures"][-1]
    assert list(failure) == ["m", "n", "got", "want"]


def test_the_corner_sweep_sees_every_corner(capsys, monkeypatch):
    # give one independence case a second cut whose value differs from the
    # first's: the polygon itself, one pair lower
    spec, _ = cli.INDEPENDENCE_CASES[0]
    shape = HPolygon.from_spec(spec)
    want = InvariantTable().record(shape, 0, 1)
    cuts = HPolygon.admissible_cuts

    def two_cuts(polygon):
        found = cuts(polygon)
        if polygon.canonical_key() == shape.canonical_key():
            return found + ((found[0][0], polygon),)
        return found

    monkeypatch.setattr(HPolygon, "admissible_cuts", two_cuts)
    table = InvariantTable()
    assert len(table.descendant_value_set(shape, 1)) == 2
    # the recursion still cuts at the first corner only
    assert table.record(shape, 0, 1) == want
    code, out, _ = run(capsys, "verify", "--identity", "cut-independence", "--emit", "json")
    assert code == 1
    (report,) = json.loads(out)["reports"]
    assert report["failures"] and {f["polygon"] for f in report["failures"]} == {spec}


def test_cache_cli_flow(capsys, tmp_path):
    path = str(tmp_path / "cache.jsonl")
    code, _, _ = run(capsys, "--cache", path, "compute", "--polygon", "rect:2,2", "--pairs", "0..1")
    assert code == 0
    code, out, _ = run(capsys, "--cache", path, "cache", "stats")
    assert code == 0
    stats = json.loads(out)
    assert stats["records"] == 3 and stats["stale_lines"] == 0
    code, out, _ = run(capsys, "--cache", path, "cache", "verify")
    assert code == 0
    assert json.loads(out)["passed"] is True
    # flip a stored coefficient: verification must fail
    with open(path) as fh:
        lines = [json.loads(l) for l in fh]
    lines[0]["coeffs"]["0"] = 12345
    with open(path, "w") as fh:
        for line in lines:
            fh.write(json.dumps(line) + "\n")
    code, out, _ = run(capsys, "--cache", path, "cache", "verify")
    assert code == 1
    assert json.loads(out)["passed"] is False
    code, out, _ = run(capsys, "--cache", path, "cache", "clear")
    assert code == 0
    assert not os.path.exists(path)


def test_cache_zero_area_lines_of_earlier_builds_are_stale(capsys, tmp_path):
    # earlier builds recorded a cut leaving no area under a "degenerate" polygon
    path = tmp_path / "cache.jsonl"
    code, first, _ = run(capsys, "--cache", str(path), "compute", "--polygon", "rect:2,2", "--pairs", "0..1")
    assert code == 0
    lines = path.read_text().splitlines()
    lines.insert(1, json.dumps({
        "engine": ENGINE_VERSION, "polygon": "degenerate", "genus": 0, "pairs": 0,
        "coeffs": {}, "extrapolated": False,
    }))
    path.write_text("\n".join(lines) + "\n")
    before = path.read_text()
    code, out, err = run(capsys, "--cache", str(path), "compute", "--polygon", "rect:2,2", "--pairs", "0..1")
    assert (code, out, err) == (0, first, "")
    assert path.read_text() == before  # every cell was served from the cache
    code, out, _ = run(capsys, "--cache", str(path), "cache", "stats")
    assert code == 0
    stats = json.loads(out)
    assert stats["records"] == len(lines) - 1 and stats["stale_lines"] == 1
    code, out, _ = run(capsys, "--cache", str(path), "cache", "verify")
    assert code == 0
    assert json.loads(out)["passed"] is True


GEOMETRY_LINES = (
    '{"engine": "0.1.0", "polygon": [[0, 0], [4, 0], [1, 1], [0, 4]], "genus": 0, '
    '"pairs": 0, "coeffs": {"0": 1}, "extrapolated": false}\n',
    '{"engine": "0.1.0", "polygon": [[0, 1], [4, 0], [1, 3], [1, 1], [3, 1], [1, 2]], '
    '"genus": 0, "pairs": 0, "coeffs": {"0": 1}, "extrapolated": false}\n',
)


@pytest.mark.parametrize(
    "bad_line",
    [
        # cut short like a torn last line, but followed by its newline
        '{"engine": "0.1.0", "polygon": [[0, 0], [1\n',
        '{"engine": "0.1.0", "polygon": [[0, 0], [1, 0], [1, 1], [0, 1]], "genus": 0}\n',
        '[1, 2, 3]\n',
        '{"engine": "0.1.0", "polygon": [[0, 0], [2, 0], [2, 2], [0, 2]], "genus": true, '
        '"pairs": 0, "coeffs": {"0": 1}, "extrapolated": "no"}\n',
        '{"engine": "0.1.0", "polygon": [[0, 0], [2, 0], [2, 2], [0, 2]], "genus": 1, '
        '"pairs": 0, "coeffs": {"0": 7.9}, "extrapolated": false}\n',
        '{"engine": "0.1.0", "polygon": [[0, 0], [2, 0], [2, 2], [0, 2]], "genus": 0, '
        '"pairs": -1, "coeffs": {"0": 1}, "extrapolated": false}\n',
        '{"engine": "0.1.0", "polygon": [[0, 0], [2, 0], [2, 2], [0, 2]], "genus": 1, '
        '"pairs": 0, "coeffs": {"0": 1}, "extrapolated": 0}\n',
        '{"engine": "0.1.0", "polygon": [[0, 0], [2.0, 0], [2, 2], [0, 2]], "genus": 1, '
        '"pairs": 0, "coeffs": {"0": 1}, "extrapolated": false}\n',
        # "1" and "01" name one exponent; the last key used to win
        '{"engine": "0.1.0", "polygon": [[0, 0], [2, 0], [2, 2], [0, 2]], "genus": 0, '
        '"pairs": 0, "coeffs": {"-1": 1, "0": 10, "1": 1, "01": 5}, "extrapolated": false}\n',
        '{"engine": "0.1.0", "polygon": [[0, 0, 0], [2, 0, 0], [2, 2, 0]], "genus": 0, '
        '"pairs": 0, "coeffs": {"0": 1}, "extrapolated": false}\n',
        *GEOMETRY_LINES,
    ],
    ids=[
        "cut-short-line",
        "missing-field",
        "not-an-object",
        "bool-genus",
        "float-coefficient",
        "negative-pairs",
        "int-extrapolated",
        "float-vertex",
        "colliding-exponents",
        "three-coordinate-vertex",
        "non-convex-polygon",
        "doubly-wound-polygon",
    ],
)
def test_cache_malformed_line(capsys, tmp_path, bad_line):
    path = tmp_path / "cache.jsonl"
    code, _, _ = run(capsys, "--cache", str(path), "compute", "--polygon", "rect:1,2")
    assert code == 0
    with path.open("a") as fh:
        fh.write(bad_line)
    where = f"line 2 of {path}"
    requests = [("compute", "--polygon", "rect:1,2"), ("cache", "stats")]
    if bad_line in GEOMETRY_LINES:
        requests = []  # every request reloads the cache; only `cache verify` builds polygons
    for argv in requests:
        code, out, err = run(capsys, "--cache", str(path), *argv)
        assert code == 2, argv
        assert out == ""
        assert err.startswith("error: malformed cache") and where in err, argv
        assert len(err.splitlines()) == 1
    code, out, _ = run(capsys, "--cache", str(path), "cache", "verify")
    assert code == 1
    report = json.loads(out)
    assert report["passed"] is False and where in report["error"]


SQUARE = '"polygon": [[0, 0], [2, 0], [2, 2], [0, 2]]'


@pytest.mark.parametrize(
    "fields, message",
    [
        (f'{SQUARE}, "coeffs": [1, 2]', "coeffs must be a JSON object"),
        ('"polygon": 7, "coeffs": {"0": 1}', "polygon must be a list of [x, y] integer pairs"),
        (
            '"polygon": [[0, 0], 5, [2, 2], [0, 2]], "coeffs": {"0": 1}',
            "polygon must be a list of [x, y] integer pairs",
        ),
        (
            '"polygon": [[0, 0, 7], [2, 0], [0, 2]], "coeffs": {"0": 1}',
            "polygon must be a list of [x, y] integer pairs",
        ),
    ],
    ids=["list-coeffs", "int-polygon", "int-vertex", "triple-vertex"],
)
def test_cache_wrong_shapes_name_the_field(capsys, tmp_path, fields, message):
    path = tmp_path / "cache.jsonl"
    code, _, _ = run(capsys, "--cache", str(path), "compute", "--polygon", "rect:1,2")
    assert code == 0
    with path.open("a") as fh:
        fh.write(f'{{"engine": "0.1.0", {fields}, "genus": 0, "pairs": 0, "extrapolated": false}}\n')
    expected = f"error: malformed cache line 2 of {path}: {message}\n"
    for argv in (("compute", "--polygon", "rect:1,2"), ("cache", "stats")):
        assert run(capsys, "--cache", str(path), *argv) == (2, "", expected)


@pytest.mark.parametrize("kind", ["cache", "polygon-file", "fixtures"])
def test_input_that_is_not_utf8_names_its_file(capsys, tmp_path, kind):
    path = tmp_path / "input"
    if kind == "cache":
        # far more than one read buffer, so the line number must count them all
        code, _, _ = run(capsys, "--cache", str(path), "compute", "--polygon", "rect:1,2")
        assert code == 0
        line = path.read_bytes()
        path.write_bytes(line * 999 + b"\xff\xfe\n" + line)
        expected = f"error: malformed cache line 1000 of {path}: not UTF-8\n"
        requests = [("--cache", str(path), "compute", "--polygon", "rect:1,2"),
                    ("--cache", str(path), "cache", "stats")]
    else:
        data = b'{"vertices": [[0, 0], [1, 0], [0, 1]], "note": "\xff\xfe"}'
        path.write_bytes(data)
        expected = f"error: not UTF-8: byte {data.index(0xff)} of {path}\n"
        requests = [("compute", "--polygon-file", str(path))]
        if kind == "fixtures":
            requests = [("appendix", "--fixtures", str(path)),
                        ("verify", "--suite", "all", "--fixtures", str(path))]
    for argv in requests:
        assert run(capsys, *argv) == (2, "", expected), argv
    if kind == "cache":
        code, out, _ = run(capsys, "--cache", str(path), "cache", "verify")
        assert code == 1
        assert json.loads(out)["error"] == expected[len("error: "):-1]


def test_malformed_cache_exits_2_under_python_O(tmp_path):
    # python -O strips assert statements; the load checks must not rest on one
    path = tmp_path / "cache.jsonl"
    InvariantTable(cache_path=str(path)).refined_invariant(HPolygon.rectangle(1, 2), 0)
    with path.open("a") as fh:
        fh.write(f'{{"engine": "0.1.0", {SQUARE}, "genus": 0, "pairs": 0, '
                 '"coeffs": {"0": 7.9}, "extrapolated": false}\n')
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop(CACHE_ENV_VAR, None)
    done = subprocess.run(
        [sys.executable, "-O", "-m", "floordiagrams.cli", "--cache", str(path),
         "compute", "--polygon", "rect:1,2"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr == (
        f"error: malformed cache line 2 of {path}: coefficients must be integers\n"
    )


def test_cache_skips_a_torn_last_line(capsys, tmp_path):
    # a crash mid-append leaves a last line without its newline
    path = tmp_path / "cache.jsonl"
    code, first, _ = run(capsys, "--cache", str(path), "compute", "--polygon", "rect:1,2")
    assert code == 0
    good = path.read_text()
    for fragment in ('{"engine": "0.1.0", "polygon": [[0, 0], [1', good.strip()):
        path.write_text(good + fragment)
        code, out, err = run(capsys, "--cache", str(path), "compute", "--polygon", "rect:1,2")
        assert (code, out, err) == (0, first, "")
        assert path.read_text() == good + fragment  # served from the cache
        code, out, _ = run(capsys, "--cache", str(path), "cache", "stats")
        assert code == 0
        assert json.loads(out) == {
            "path": str(path), "records": 1, "stale_lines": 0, "torn_lines": 1,
        }
        # the next append replaces the fragment with a whole line
        code, _, _ = run(capsys, "--cache", str(path), "compute", "--polygon", "rect:2,2")
        assert code == 0
        lines = path.read_text().splitlines(keepends=True)
        assert lines[0] == good and len(lines) == 2 and lines[1].endswith("\n")
        code, out, _ = run(capsys, "--cache", str(path), "cache", "verify")
        assert code == 0
        assert json.loads(out) == {
            "path": str(path), "records": 2, "stale_lines": 0, "torn_lines": 0, "passed": True,
        }


def test_cache_env_var(capsys, tmp_path, monkeypatch):
    path = str(tmp_path / "cache.jsonl")
    monkeypatch.setenv(CACHE_ENV_VAR, path)
    code, _, _ = run(capsys, "compute", "--polygon", "rect:2,2")
    assert code == 0
    code, out, _ = run(capsys, "cache", "stats")
    assert code == 0
    assert json.loads(out)["records"] == 1
    # a tampered cache the variable selects is checked against fresh values,
    # not against a second load of itself
    with open(path) as fh:
        text = fh.read()
    assert '"0": 10' in text
    with open(path, "w") as fh:
        fh.write(text.replace('"0": 10', '"0": 11'))
    code, out, _ = run(capsys, "cache", "verify")
    assert code == 1
    report = json.loads(out)
    assert report["passed"] is False and "verification failed" in report["error"]


def test_cache_needs_a_path(capsys, monkeypatch):
    monkeypatch.delenv(CACHE_ENV_VAR, raising=False)
    code, _, err = run(capsys, "cache", "stats")
    assert code == 2
    assert CACHE_ENV_VAR in err
