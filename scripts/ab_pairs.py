"""A/B pairs of benchmark runs: a parent commit against the working tree.

    python3 scripts/ab_pairs.py PARENT [--pairs 10] [--workload NAME ...]
                                [--seconds 25] [--seed 1] [--workdir DIR]

Exports the committed files of PARENT (any git revision) with `git archive`
into a temporary directory, so the repository's own git state is left
untouched, then runs `perfbench/run.py --trace 0` there and in the working
tree, once each per pair, each run with an empty bytecode cache of its own.
Pairs alternate which side runs first.  For every workload and every
end-to-end metric in BENCHMARK.json it prints each side's median and
quartiles, the pairs the working tree won (ties count for neither), and
whether a gain may be claimed: at least nine tenths of the pairs won, and
the medians differing by more than the parent's interquartile range.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def quartiles(values) -> tuple[float, float, float]:
    """(first quartile, median, third quartile) of values."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def pairs_won(parent, change, better: str) -> int:
    """Pairs in which the change reads strictly better than the parent."""
    if better == "lower":
        return sum(c < p for p, c in zip(parent, change))
    return sum(c > p for p, c in zip(parent, change))


def gain_claimed(parent, change, better: str) -> bool:
    """The claim rule: at least 9 of 10 pairs won, and the medians apart by
    more than the parent's interquartile range, in the better direction."""
    q1, parent_median, q3 = quartiles(parent)
    gain = parent_median - statistics.median(change)
    if better == "higher":
        gain = -gain
    return 10 * pairs_won(parent, change, better) >= 9 * len(parent) and gain > q3 - q1


def run_once(tree: Path, workload: str, seed: int, seconds: int) -> dict:
    """One benchmark run in tree: {metric: value}, plus "correct".

    Bytecode goes to a new, empty PYTHONPYCACHEPREFIX, so every run compiles
    the package afresh and a __pycache__ left in either tree is never read.
    """
    with tempfile.TemporaryDirectory() as pycache:
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "0"],
            cwd=tree, capture_output=True, text=True,
            env={**os.environ, "PYTHONPYCACHEPREFIX": pycache},
        )
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"no result from {tree} on {workload}: {done.stderr.strip()}")
    result = json.loads(lines[-1])
    values = {name: m["value"] for name, m in result["metrics"].items()}
    values["correct"] = done.returncode == 0 and result["correct"]
    return values


def export(revision: str, into: Path) -> Path:
    """The committed files of revision, unpacked under into."""
    archive = into / "parent.tar"
    subprocess.run(["git", "archive", "--output", str(archive), revision], cwd=ROOT, check=True)
    tree = into / "parent"
    tree.mkdir()
    subprocess.run(["tar", "-xf", str(archive), "-C", str(tree)], check=True)
    return tree


def report(workload: str, metrics, parent_runs, change_runs) -> list[str]:
    lines = []
    for metric in metrics:
        name, better = metric["name"], metric["better"]
        parent = [run[name] for run in parent_runs]
        change = [run[name] for run in change_runs]
        sides = ["%.4g [%.4g, %.4g]" % (m, q1, q3)
                 for q1, m, q3 in (quartiles(parent), quartiles(change))]
        verdict = "gain" if gain_claimed(parent, change, better) else ""
        lines.append(
            f"{workload:13s} {name:15s} {sides[0]:28s} {sides[1]:28s} "
            f"{pairs_won(parent, change, better):>3d}/{len(parent)} {verdict}"
        )
    return lines


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="git revision to compare against")
    parser.add_argument("--pairs", type=int, default=10, help="at least 1")
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in bench["workloads"]],
                        help="default: every workload")
    parser.add_argument("--seconds", type=int, default=None,
                        help="run length (default: run_seconds from BENCHMARK.json)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workdir", default=None, help="where the parent is unpacked")
    args = parser.parse_args(argv)
    # refused here, before the parent is exported: no pair leaves no median
    if args.pairs < 1:
        parser.error(f"--pairs must be at least 1, not {args.pairs}")
    seconds = args.seconds or bench["run_seconds"]
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    print(f"{'workload':13s} {'metric':15s} {'parent median [q1, q3]':28s} "
          f"{'change median [q1, q3]':28s} won")
    failed = 0
    with tempfile.TemporaryDirectory(dir=args.workdir) as scratch:
        parent_tree = export(args.parent, Path(scratch))
        for workload in workloads:
            runs = {parent_tree: [], ROOT: []}
            for index in range(args.pairs):
                order = (parent_tree, ROOT) if index % 2 == 0 else (ROOT, parent_tree)
                for tree in order:
                    runs[tree].append(run_once(tree, workload, args.seed, seconds))
            for tree, side in ((parent_tree, "parent"), (ROOT, "change")):
                bad = sum(not run["correct"] for run in runs[tree])
                if bad:
                    failed += bad
                    print(f"{workload}: {bad} of {args.pairs} {side} runs failed their gates")
            print("\n".join(report(workload, bench["end_to_end"], runs[parent_tree], runs[ROOT])),
                  flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
