import json

import pytest

from floordiagrams import cli, floordiag, surgery
from floordiagrams.invariants import (
    CACHE_ENV_VAR,
    ENGINE_VERSION,
    MAX_HEIGHT,
    InvariantKey,
    InvariantTable,
)
from floordiagrams.polygon import HPolygon


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


@pytest.mark.parametrize("spec, span, walks", [("p2:5", "0..6", 1), ("rect:4,3", "0..2", 3)])
def test_compute_genus_column_walks(capsys, monkeypatch, spec, span, walks):
    # a polygon whose top row is one point takes one walk for the column
    calls = []
    walk = floordiag._walk

    def counting_walk(*args):
        calls.append(args)
        return walk(*args)

    monkeypatch.setattr(floordiag, "_walk", counting_walk)
    code, _, _ = run(capsys, "compute", "--polygon", spec, "--genus", span)
    assert code == 0
    assert len(calls) == walks


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


def test_compute_csv(capsys):
    code, out, _ = run(
        capsys, "compute", "--polygon", "rect:2,2", "--genus", "0..1", "--emit", "csv"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "polygon,genus,s,exponent,coefficient"
    assert "rect:2,2,0,0,-1,1" in lines
    assert "rect:2,2,0,0,0,10" in lines
    assert "rect:2,2,1,0,0,1" in lines


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
    # a malformed polygon file is named in one stderr line, never truncated to ints
    for data, problem in (
        ({"corners": [[0, 0], [1, 0], [0, 1]]}, '"vertices" list'),
        ([[0, 0], [1, 0], [0, 1]], '"vertices" list'),
        ({"vertices": 5}, '"vertices" list'),
        ({"vertices": [[0, 0], [2.7, 0], [0, 2.9]]}, "vertex [2.7, 0]"),
        ({"vertices": [[0, 0], [True, 0], [0, 1]]}, "vertex [True, 0]"),
        ({"vertices": [[0, 0], [1, 0, 0], [0, 1]]}, "vertex [1, 0, 0]"),
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
    assert counts["computed"] <= 172


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
    import os

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
    '{"engine": "0.1.0", "polygon": [[0, 0, 0], [2, 0, 0], [2, 2, 0]], "genus": 0, '
    '"pairs": 0, "coeffs": {"0": 1}, "extrapolated": false}\n',
    '{"engine": "0.1.0", "polygon": [[0, 0], [4, 0], [1, 1], [0, 4]], "genus": 0, '
    '"pairs": 0, "coeffs": {"0": 1}, "extrapolated": false}\n',
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
