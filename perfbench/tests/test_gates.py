"""Self-tests of the benchmark: its gates fail wrong answers, its counts repeat.

    python3 -m pytest -q perfbench/tests

About a minute; the census test alone computes p2:7 g=0 (about 20 s).
"""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import gates  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

DECLARED = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def result_lines(capsys):
    lines = capsys.readouterr().out.splitlines()
    return json.loads(lines[-2])["detail"], json.loads(lines[-1])


def test_parse_poly_text():
    assert gates.parse_poly_text("q^-1 + 10 + q") == {"-1": 1, "0": 10, "1": 1}
    assert gates.parse_poly_text("-2q^-3 + 5 - q^3") == {"-3": -2, "0": 5, "3": -1}
    assert gates.parse_poly_text("0") == {}


def test_published_constant_rejects_a_wrong_count(monkeypatch):
    expected = gates.load_expected()
    request = workloads.compute("p2:5", "0", emit="json")
    cell = expected["cells"]["p2:5 g=0 s=0"]
    out = json.dumps(
        {"results": [{"genus": 0, "pairs": 0, "invariant": cell["coeffs"], "extrapolated": False}]}
    )
    assert gates.check(request, 0, out, "", expected) == []
    monkeypatch.setitem(gates.KONTSEVICH, "p2:5", 87305)
    assert any("want 87305" in e for e in gates.check(request, 0, out, "", expected))


def test_wrong_exit_code_and_missing_blocking_message_fail():
    expected = gates.load_expected()
    request = workloads.stuck("rect:3,3", "3")
    assert gates.check(request, 0, "", "", expected)
    assert gates.check(request, 2, "", "error: something else\n{}", expected)


def test_tampered_expectation_fails_the_run(tmp_path, monkeypatch, capsys):
    expected = gates.load_expected()
    expected["cells"]["rect:2,4 g=0 s=3"]["coeffs"]["0"] += 1
    tampered = tmp_path / "expected.json"
    tampered.write_text(json.dumps(expected))
    monkeypatch.setattr(gates, "EXPECTED_PATH", tampered)
    code = run.main(["--workload", "pair-columns", "--seed", "3", "--seconds", "1", "--trace", "0"])
    detail, result = result_lines(capsys)
    assert code == 1
    assert result["correct"] is False
    # the tampered cell is answered once per pass
    assert result["failed"] == detail["passes"]
    assert detail["fail_ratio"] == result["failed"] / result["attempted"] > 0
    assert set(result["metrics"]) == {m["name"] for m in DECLARED["end_to_end"]}


def test_traced_counts_repeat_across_runs_and_seeds(capsys):
    counts = []
    for seed in (1, 2):
        code = run.main(["--workload", "pair-columns", "--seed", str(seed), "--seconds", "1", "--trace", "1"])
        detail, result = result_lines(capsys)
        assert code == 0 and result["correct"], detail["failures"]
        assert set(result["metrics"]) == {m["name"] for m in DECLARED["per_layer"]}
        counts.append(
            {k: v["value"] for k, v in result["metrics"].items() if v["unit"] != "s"}
        )
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        assert detail["accounted_s"] == pytest.approx(metrics["trace.wall_s"], rel=1e-6)
    assert counts[0] == counts[1]


def test_census():
    """Diagram counts of the cells too heavy for a timed pass, and N_7."""
    cli, modules = run.import_engine()
    floordiag = sys.modules["floordiagrams.floordiag"]
    polygon = sys.modules["floordiagrams.polygon"].HPolygon
    tracer = Tracer()
    tracer.install(modules)
    try:
        code, out, _ = run.call(cli, ["compute", "--polygon", "p2:7", "--emit", "json"])
        floordiag.enumerate_diagrams(polygon.rectangle(5, 5), 0)
        floordiag.enumerate_diagrams(polygon.sigma2_trapezoid(4, 2), 0)
        floordiag.divergence_sequences(polygon(workloads.OCTAGON_VERTICES))
    finally:
        tracer.uninstall()
    assert code == 0
    (cell,) = gates.parse_compute("json", out).values()
    assert gates.published_errors("p2:7", 0, 0, cell["coeffs"]) == []
    assert gates.check_census(tracer.census) == []
    assert gates.census_summary(tracer.census) == {
        "p2:7 g=0 diagrams": [16807],
        "rect:5,5 g=0 diagrams": [15750],
        "sigma2:4,2 g=0 diagrams": [2500],
        "octagon sequences": [19],
    }
