import importlib.util
import json
import pathlib
import subprocess
import sys
import types

import pytest

SCRIPTS = pathlib.Path(__file__).resolve().parent.parent / "scripts"


def test_identity_checks_localizes_the_disputed_cells():
    done = subprocess.run(
        [sys.executable, str(SCRIPTS / "identity_checks.py")],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert "(3,0) g=0 s=5: trapezoid row" in done.stdout
    assert "the engine computes rect:2,4 s=5 as" in done.stdout


def load_ab_pairs():
    spec = importlib.util.spec_from_file_location("ab_pairs", SCRIPTS / "ab_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_ab_pairs_statistics():
    ab = load_ab_pairs()
    assert ab.quartiles([4.0, 1.0, 3.0, 2.0, 5.0]) == (2.0, 3.0, 4.0)
    assert ab.quartiles([7.0]) == (7.0, 7.0, 7.0)
    parent = [10, 11, 12, 13, 14] * 2  # quartiles 11 and 13, median 12
    assert ab.quartiles(parent) == (11, 12, 13)
    # a tie counts for neither side
    assert ab.pairs_won(parent, [10] * 10, "lower") == 8
    assert ab.pairs_won(parent, [10] * 10, "higher") == 0
    assert ab.gain_claimed(parent, [9] * 10, "lower")
    assert ab.gain_claimed(parent, [9] * 9 + [15], "lower")  # 9 of 10 won
    assert not ab.gain_claimed(parent, [9] * 8 + [15] * 2, "lower")  # 8 of 10 won
    # every pair won, but the medians lie only 0.5 apart, inside the spread of 2
    assert not ab.gain_claimed(parent, [p - 0.5 for p in parent], "lower")
    assert ab.gain_claimed([-p for p in parent], [-9] * 10, "higher")
    assert not ab.gain_claimed(parent, [9] * 10, "higher")


def test_ab_pairs_report_names_each_metric_with_both_sides():
    ab = load_ab_pairs()
    metrics = [{"name": "wall_s", "better": "lower"}, {"name": "peak_rss_mb", "better": "lower"}]
    parent = [{"wall_s": 0.2, "peak_rss_mb": 20.0}, {"wall_s": 0.3, "peak_rss_mb": 20.0}]
    change = [{"wall_s": 0.1, "peak_rss_mb": 20.0}, {"wall_s": 0.1, "peak_rss_mb": 21.0}]
    wall, rss = ab.report("pair-columns", metrics, parent, change)
    assert wall.split() == ["pair-columns", "wall_s", "0.25", "[0.225,", "0.275]",
                            "0.1", "[0.1,", "0.1]", "2/2", "gain"]
    assert rss.split()[-1] == "0/2"


def test_ab_pairs_runs_each_side_with_an_empty_bytecode_cache(monkeypatch, tmp_path):
    # a __pycache__ left in one tree would spare only that side its compile
    ab = load_ab_pairs()
    prefixes = []

    def fake_run(argv, cwd, env, **kwargs):
        prefix = pathlib.Path(env["PYTHONPYCACHEPREFIX"])
        assert prefix.is_dir() and not any(prefix.iterdir())
        prefixes.append(prefix)
        result = {"metrics": {"wall_s": {"value": 0.1}}, "correct": True}
        return subprocess.CompletedProcess(argv, 0, stdout=json.dumps(result) + "\n", stderr="")

    monkeypatch.setattr(ab.subprocess, "run", fake_run)
    for tree in (tmp_path / "parent", ab.ROOT):
        assert ab.run_once(tree, "warm-cache", 1, 1) == {"wall_s": 0.1, "correct": True}
    assert prefixes[0] != prefixes[1]
    assert not any(prefix.exists() for prefix in prefixes)


@pytest.mark.parametrize(
    "argv, names",
    [(["--pairs", "0"], ["--pairs must be at least 1, not 0"]),
     # the choices are the workloads that BENCHMARK.json declares
     (["--workload", "bogus"], ["bogus", "warm-cache", "pair-columns", "plane-genus", "wide-ends"])],
    ids=["no-pairs", "unknown-workload"],
)
def test_ab_pairs_refuses_bad_arguments_before_exporting(capsys, monkeypatch, argv, names):
    ab = load_ab_pairs()

    def never_called(*args):
        raise AssertionError("exported the parent for a bad request")

    monkeypatch.setattr(ab, "export", never_called)
    with pytest.raises(SystemExit) as done:
        ab.main(["HEAD", *argv])
    assert done.value.code == 2
    err = capsys.readouterr().err.splitlines()[-1]
    assert all(name in err for name in names), err


@pytest.fixture
def walk_ab():
    """scripts/walk_ab.py, loaded as a module; the floordiagrams and
    workloads modules it imports afresh are put back afterwards."""
    def ours(name):
        return name.partition(".")[0] in ("floordiagrams", "workloads")

    saved = {name: module for name, module in sys.modules.items() if ours(name)}
    spec = importlib.util.spec_from_file_location("walk_ab", SCRIPTS / "walk_ab.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    yield module
    for name in [name for name in sys.modules if ours(name)]:
        del sys.modules[name]
    sys.modules.update(saved)


def test_walk_ab_records_times_and_compares_walks(walk_ab, tmp_path):
    engine = walk_ab.load_engine(SCRIPTS.parent / "src")
    w = walk_ab.workloads()
    # rect:2,2 g=0 comes from the set-up's cache, so only g=1 is asked for;
    # p2:3 asks for its column in one call, twice; verify's symmetry check,
    # through its own binding, makes one call per embedding of 7 rectangles
    populate = w.cached((w.compute("rect:2,2", "0"),))
    requests = w.cached((w.compute("rect:2,2", "0..1"),)) + (w.compute("p2:3", "0..1"),) * 2
    requests += (w.Request("verify", ("verify", "--identity", "symmetry")),)
    cells = walk_ab.record_calls(engine, requests, populate, tmp_path)
    cells, symmetry = cells[:2], cells[2:]
    assert cells == [
        (((0, 0), (2, 0), (2, 2), (0, 2)), (1,)),
        (((0, 0), (3, 0), (0, 3)), (0, 1)),
    ]
    assert len(symmetry) == 14
    assert symmetry[:2] == [
        (((0, 0), (1, 0), (1, 2), (0, 2)), (0,)),
        (((0, 0), (2, 0), (2, 1), (0, 1)), (0,)),
    ]
    best, mismatched = walk_ab.time_cells({"parent": engine, "change": engine}, cells, 2)
    assert mismatched == []
    assert all(set(times) == set(cells) for times in best.values())
    # a side that finds nothing differs on every cell
    nothing = types.SimpleNamespace(refined_invariants=lambda *cell: {})
    empty = types.SimpleNamespace(polygon=engine.polygon, floordiag=nothing)
    assert walk_ab.time_cells({"parent": engine, "change": empty}, cells, 1)[1] == cells
    # every timed run starts from cleared memos
    runs = []

    def walk(*cell):
        runs.append("walk")
        return {}

    memo = types.SimpleNamespace(cache_clear=lambda: runs.append("clear"))
    walks = types.SimpleNamespace(memo=memo, refined_invariants=walk)
    walk_ab.time_cells({"change": types.SimpleNamespace(polygon=engine.polygon, floordiag=walks)},
                       cells, 2)
    assert runs == ["clear", "walk"] * 4
    line = walk_ab.report("wide-ends", cells, {"parent": dict.fromkeys(cells, 0.002),
                                               "change": dict.fromkeys(cells, 0.001)})
    assert line.split() == ["wide-ends", "2", "cells", "parent", "4.00", "ms",
                            "change", "2.00", "ms", "ratio", "0.500"]
