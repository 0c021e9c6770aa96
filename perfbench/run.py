"""Benchmark of the floordiagrams CLI: closed-loop workloads, value-gated.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The package is imported from the checkout's ``src/`` and nowhere else.  Each
request is one in-process call to ``floordiagrams.cli.main(argv)``, made one
after another by a single thread, with stdout and stderr captured; every call
builds its own InvariantTable, as a separate CLI invocation would.  A pass
runs the workload's request list once in a seed-drawn order; passes repeat
until ``--seconds`` have elapsed and at least MIN_PASSES have run.  Every
answer goes through ``gates.check``.

With ``--trace 0`` the last stdout line carries the end-to-end metrics, each
time rescaled to the reference machine speed (see ``speed.py``; the raw
values are in the detail line).  With ``--trace 1`` untraced and traced
passes alternate and it carries the per-layer metrics of the median traced
pass, rescaled the same way.  The line before the result is a detail record (pass
and sample counts, the tail percentile, fail_ratio, failures).  The exit
code is 0 only when every answer passed its gates.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import gates
import workloads
from speed import Clock
from tracer import LAYERS, Tracer, median_pass, write_spans

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench"

MIN_PASSES = 5
MIN_TRACED_PASSES = 2
SETUP_RUNS = 3
# no pass starts after this many seconds, so a run ends well within 180 s
HARD_STOP_S = 120.0
TAIL_LADDER = (50, 75, 80, 90, 95, 98, 99)


class EngineMissing(RuntimeError):
    pass


def import_engine():
    """Import floordiagrams afresh from ROOT/src; returns (cli module, all its modules)."""
    src = str(ROOT / "src")
    if sys.path[0] != src:
        sys.path.insert(0, src)
    for name in [n for n in sys.modules if n.partition(".")[0] == "floordiagrams"]:
        del sys.modules[name]
    try:
        cli = importlib.import_module("floordiagrams.cli")
    except ImportError as err:
        raise EngineMissing(f"cannot import floordiagrams from {src}: {err}") from None
    package_dir = Path(sys.modules["floordiagrams"].__file__).resolve().parent
    if package_dir.parent != Path(src):
        raise EngineMissing(f"floordiagrams was imported from {package_dir}, not {src}")
    modules = [m for n, m in sys.modules.items() if n.partition(".")[0] == "floordiagrams"]
    return cli, modules


def call(cli, argv):
    """One CLI request: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a crash fails this request, not the run
            code = None
            err.write(f"{type(exc).__name__}: {exc}")
    return code, out.getvalue(), err.getvalue()


@dataclass
class Inputs:
    order: tuple
    argvs: list
    pristine: Path
    live: Path
    pristine_size: int


def set_up(workload, seed, workdir: Path, cli):
    """Write the workload's inputs under workdir: the polygon file and, for
    warm-cache, the populated cache.  Returns the inputs and the outcomes of
    the populating requests."""
    workdir.mkdir(parents=True)
    octagon = workdir / "octagon.json"
    octagon.write_text(json.dumps({"vertices": workloads.OCTAGON_VERTICES}), encoding="utf-8")
    pristine, live = workdir / "pristine.jsonl", workdir / "cache.jsonl"
    populated = [
        (req, call(cli, req.resolve(str(octagon), str(pristine)))) for req in workload.populate
    ]
    if workload.populate:
        shutil.copyfile(pristine, live)
    order = workload.pass_order(seed)
    argvs = [req.resolve(str(octagon), str(live)) for req in order]
    size = pristine.stat().st_size if workload.populate else 0
    return Inputs(order, argvs, pristine, live, size), populated


def run_pass(cli, inputs: Inputs, tracer=None, clock=None):
    """One pass: per-request (start, end) times and (code, stdout, stderr)."""
    gc.collect()
    times, outcomes = [], []
    for index, (req, argv) in enumerate(zip(inputs.order, inputs.argvs)):
        if clock is not None:
            clock.maybe_calibrate()
        if req.cached and inputs.live.stat().st_size != inputs.pristine_size:
            # a miss appended: every cached request sees the same warm file,
            # so counts do not depend on the order the seed draws
            shutil.copyfile(inputs.pristine, inputs.live)
        if tracer is not None:
            tracer.request = index
        start = perf_counter()
        outcomes.append(call(cli, argv))
        times.append((start, perf_counter()))
    return times, outcomes


class Checker:
    def __init__(self, expected):
        self.expected = expected
        self.attempted = 0
        self.failures = []

    def judge(self, requests, outcomes):
        for req, (code, out, err) in zip(requests, outcomes):
            self.attempted += 1
            errors = gates.check(req, code, out, err, self.expected)
            if errors:
                self.failures.append({"request": req.label(), "errors": errors[:5]})

    def fail(self, what, errors):
        """A failed check of the traced run itself, counted like a request."""
        self.attempted += 1
        self.failures.append({"request": what, "errors": errors[:5]})


def percentile(values, p):
    xs = sorted(values)
    k = (len(xs) - 1) * p / 100
    lo = int(k)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (k - lo)


def tail_percentile(samples: int) -> float:
    """Highest ladder percentile with at least ten samples beyond it."""
    return max(p for p in TAIL_LADDER if samples * (100 - p) / 100 >= 10 or p == 50)


def unit_of(name: str) -> str:
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith("_mb"):
        return "MB"
    return "count"


def summarize(passes, latency_of, tail_p):
    """wall_s, request_p50_s and request_tail_s over passes of (start, end) times."""
    walls = [sum(latency_of(a, b) for a, b in times) for times in passes]
    latencies = [latency_of(a, b) for times in passes for a, b in times]
    return {
        "wall_s": statistics.median(walls),
        "request_p50_s": statistics.median(latencies),
        "request_tail_s": percentile(latencies, tail_p),
    }


def measure(cli, inputs, checker, seconds, clock):
    passes = []
    started = perf_counter()
    while len(passes) < MIN_PASSES or perf_counter() - started < seconds:
        if perf_counter() - started > HARD_STOP_S:
            break
        times, outcomes = run_pass(cli, inputs, clock=clock)
        checker.judge(inputs.order, outcomes)
        passes.append(times)
    clock.calibrate()
    tail_p = tail_percentile(len(inputs.order) * MIN_PASSES)
    metrics = summarize(passes, clock.rescale, tail_p)
    detail = {
        "passes": len(passes),
        "requests_per_pass": len(inputs.order),
        "samples": len(inputs.order) * len(passes),
        "tail_percentile": tail_p,
        "raw": summarize(passes, lambda a, b: b - a, tail_p),
    }
    return metrics, detail


def measure_traced(cli, modules, inputs, checker, seconds, clock, spans_path):
    """Alternate untraced and traced passes; per-layer metrics of the median
    traced pass.  Each pass's times are rescaled by one factor, its rescaled
    wall over its raw wall, so the layers still add up to the pass."""
    tracer = Tracer()
    untraced, passes = [], []
    started = perf_counter()
    while len(passes) < MIN_TRACED_PASSES or perf_counter() - started < seconds:
        if perf_counter() - started > HARD_STOP_S:
            break
        times, outcomes = run_pass(cli, inputs, clock=clock)
        checker.judge(inputs.order, outcomes)
        untraced.append(times)
        tracer.start_pass()
        tracer.install(modules)
        try:
            times, outcomes = run_pass(cli, inputs, tracer, clock)
        finally:
            tracer.uninstall()
        checker.judge(inputs.order, outcomes)
        for _, out, err in outcomes:
            tracer.count["cli.stdout_bytes"] += len(out.encode())
            tracer.count["cli.stderr_bytes"] += len(err.encode())
        passes.append(
            {
                "times": times,
                "inside_cli": tracer.outer_s["cli.main"],
                "counts": tracer.counts(),
                "layer_times": tracer.times(),
                "spans": tracer.spans,
                "census": tracer.census,
            }
        )
    clock.calibrate()
    for other in passes[1:]:
        if other["counts"] != passes[0]["counts"]:
            diff = sorted(k for k, v in other["counts"].items() if passes[0]["counts"][k] != v)
            checker.fail("traced pass counts", [f"counts differ between passes: {diff}"])
    for entry in passes:
        errors = gates.check_census(entry["census"])
        if errors:
            checker.fail("diagram census", errors)

    def rescaled_wall(times):
        return sum(clock.rescale(a, b) for a, b in times)

    chosen = passes[median_pass([rescaled_wall(p["times"]) for p in passes])]
    raw_wall = sum(b - a for a, b in chosen["times"])
    factor = rescaled_wall(chosen["times"]) / raw_wall
    untraced_wall = statistics.median(rescaled_wall(times) for times in untraced)
    metrics = dict(chosen["counts"])
    metrics.update({k: v * factor for k, v in chosen["layer_times"].items()})
    metrics.update(
        {
            "bench.harness_s": (raw_wall - chosen["inside_cli"]) * factor,
            "trace.wall_s": raw_wall * factor,
            "trace.untraced_wall_s": untraced_wall,
            "trace.overhead_s": raw_wall * factor - untraced_wall,
        }
    )
    layer_sum = sum(metrics[f"{layer}.self_s"] for layer in LAYERS)
    write_spans(chosen["spans"], spans_path)
    detail = {
        "traced_passes": len(passes),
        "untraced_passes": len(untraced),
        "layer_self_sum_s": layer_sum,
        "accounted_s": layer_sum + metrics["bench.harness_s"],
        "raw_traced_wall_s": raw_wall,
        "census": gates.census_summary(chosen["census"]),
        "spans_file": str(spans_path.relative_to(ROOT)),
    }
    return metrics, detail


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    workload = workloads.WORKLOADS[args.workload]
    os.environ.pop("FLOORDIAGRAMS_CACHE", None)
    try:
        import_engine()
    except EngineMissing as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    checker = Checker(gates.load_expected())
    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=OUT_DIR))
    try:
        clock = Clock()
        setup_times = []
        for rep in range(SETUP_RUNS):
            clock.calibrate()
            start = perf_counter()
            cli, modules = import_engine()
            inputs, populated = set_up(workload, args.seed, workdir / f"setup{rep}", cli)
            setup_times.append((start, perf_counter()))
            checker.judge([r for r, _ in populated], [o for _, o in populated])
        if args.trace:
            spans_path = OUT_DIR / f"spans-{workload.name}-{args.seed}.jsonl"
            metrics, detail = measure_traced(
                cli, modules, inputs, checker, args.seconds, clock, spans_path
            )
        else:
            metrics, detail = measure(cli, inputs, checker, args.seconds, clock)
            metrics["setup_s"] = statistics.median(clock.rescale(a, b) for a, b in setup_times)
            metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            detail["raw"]["setup_s"] = statistics.median(b - a for a, b in setup_times)
            detail["kernel_s"] = clock.kernel_s()
            detail["kernel_runs"] = len(clock.samples)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    failed = len(checker.failures)
    detail.update(
        {
            "workload": workload.name,
            "seed": args.seed,
            "setup_runs": SETUP_RUNS,
            "fail_ratio": failed / checker.attempted,
            "failures": checker.failures[:10],
        }
    )
    print(json.dumps({"detail": detail}, sort_keys=True))
    result = {
        "correct": not checker.failures,
        "attempted": checker.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
