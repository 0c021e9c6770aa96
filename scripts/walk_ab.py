"""A/B of the transfer walk alone: a parent commit against the working tree.

    python3 scripts/walk_ab.py PARENT [--workload NAME ...] [--repeats 7]
                               [--workdir DIR]

Runs each benchmark workload's requests once through the working tree's CLI,
in process, and records the `floordiag.refined_invariants(polygon, genera)`
calls they make (set-up requests excluded; a cached request sees the set-up's
cache, as in perfbench/run.py).  A call, not a `_walk`, is the unit, as the
two trees may split the same genera into different walks.  It then exports
the committed files of PARENT with `git archive`, as scripts/ab_pairs.py
does, loads both trees' packages in this one process and runs every distinct
recorded call on both, interleaved, keeping each side's best CPU time of the
repeats.  Before each timed run it clears every memo of that side's floordiag
(each function with a cache_clear), so the ratio compares cold walks, as a
one-shot CLI process makes them.  The values must be equal.
It prints each workload's cells, the summed best times and their ratio, and
exits 1 if any value differs.
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import io
import json
import os
import shutil
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import process_time

sys.path.insert(0, str(Path(__file__).resolve().parent))
from ab_pairs import ROOT, export  # noqa: E402


def load_engine(src: Path):
    """The floordiagrams package under src/, imported afresh.  A package
    loaded before keeps working on its own modules, but the last one loaded
    owns the name, which the CLI's data files are found by."""
    for name in [n for n in sys.modules if n.partition(".")[0] == "floordiagrams"]:
        del sys.modules[name]
    sys.path.insert(0, str(src))
    try:
        importlib.import_module("floordiagrams.cli")
    finally:
        sys.path.remove(str(src))
    return sys.modules["floordiagrams"]


def record_calls(engine, requests, populate, workdir: Path) -> list:
    """The distinct (vertices, genera) of the refined_invariants calls that
    the requests make, in first-call order, after the populating requests
    have written their cache; inputs are written under workdir."""
    octagon = workdir / "octagon.json"
    pristine, live = workdir / "pristine.jsonl", workdir / "cache.jsonl"
    octagon.write_text(json.dumps({"vertices": workloads().OCTAGON_VERTICES}), encoding="utf-8")
    original, cells = engine.floordiag.refined_invariants, {}
    # the modules that call it by name, through their own binding
    owners = [m for m in list(sys.modules.values())
              if getattr(m, "refined_invariants", None) is original]

    def run(request, cache: Path):
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            try:
                engine.cli.main(list(request.resolve(str(octagon), str(cache))))
            except SystemExit:
                pass

    def recorded(polygon, genera):
        cells.setdefault((polygon.vertices, tuple(genera)), None)
        return original(polygon, genera)

    for request in populate:
        run(request, pristine)
    for module in owners:
        module.refined_invariants = recorded
    try:
        for request in requests:
            if request.cached:  # every cached request sees the set-up's file
                shutil.copyfile(pristine, live)
            run(request, live)
    finally:
        for module in owners:
            module.refined_invariants = original
    return list(cells)


def time_cells(engines: dict, cells, repeats: int):
    """({side: {cell: best CPU seconds}}, cells whose values differ between
    the sides): every cell runs on every side in turn, repeats times, the
    sides' order alternating, each run from cold memos.  The garbage
    collector is off meanwhile, as in timeit: a collection would bill one
    side for the garbage of both."""
    best = {side: {} for side in engines}
    mismatched = []
    gc.collect()
    gc.disable()
    try:
        for cell in cells:
            vertices, genera = cell
            values = {}
            for rep in range(repeats):
                for side in list(engines)[:: 1 if rep % 2 == 0 else -1]:
                    engine = engines[side]
                    polygon = engine.polygon.HPolygon(vertices)
                    for memo in vars(engine.floordiag).values():
                        if hasattr(memo, "cache_clear"):
                            memo.cache_clear()
                    start = process_time()
                    value = engine.floordiag.refined_invariants(polygon, genera)
                    spent = process_time() - start
                    best[side][cell] = min(best[side].get(cell, spent), spent)
                    values[side] = {k: v.to_coeff_dict() for k, v in value.items()}
            if len({repr(v) for v in values.values()}) > 1:
                mismatched.append(cell)
    finally:
        gc.enable()
    return best, mismatched


def report(workload: str, cells, best: dict) -> str:
    """One line: the workload, its cells and each side's summed best time,
    then the ratio of the last side to the first."""
    totals = {side: sum(times[cell] for cell in cells) for side, times in best.items()}
    first, *_, last = totals.values()
    sides = "  ".join(f"{side} {total * 1e3:8.2f} ms" for side, total in totals.items())
    ratio = f"{last / first:.3f}" if first else "-"
    return f"{workload:13s} {len(cells):4d} cells  {sides}  ratio {ratio}"


def workloads():
    """perfbench/workloads.py, the benchmark's request lists."""
    path = ROOT / "perfbench" / "workloads.py"
    if "workloads" not in sys.modules:
        spec = importlib.util.spec_from_file_location("workloads", path)
        module = importlib.util.module_from_spec(spec)
        sys.modules["workloads"] = module
        spec.loader.exec_module(module)
    return sys.modules["workloads"]


def main(argv=None) -> int:
    catalogue = workloads().WORKLOADS
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="git revision to compare against")
    parser.add_argument("--workload", action="append", choices=list(catalogue),
                        help="default: every workload")
    parser.add_argument("--repeats", type=int, default=7, help="runs per cell and side")
    parser.add_argument("--workdir", default=None, help="where the parent is unpacked")
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    names = args.workload or list(catalogue)
    os.environ.pop("FLOORDIAGRAMS_CACHE", None)
    failed = 0
    with tempfile.TemporaryDirectory(dir=args.workdir) as scratch:
        engines = {
            "parent": load_engine(export(args.parent, Path(scratch)) / "src"),
            "change": load_engine(ROOT / "src"),
        }
        for name in names:
            workload = catalogue[name]
            workdir = Path(scratch) / name
            workdir.mkdir()
            cells = record_calls(engines["change"], workload.requests, workload.populate, workdir)
            best, mismatched = time_cells(engines, cells, args.repeats)
            for cell in mismatched:
                print(f"{name}: values differ on refined_invariants{cell}")
            failed += len(mismatched)
            print(report(name, cells, best), flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
