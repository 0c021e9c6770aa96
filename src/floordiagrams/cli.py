"""Command-line front end for the floor-diagram engine.

Four subcommands: `compute` evaluates invariants for one polygon over genus
and pair ranges, `verify` runs the identity suites, `appendix` replays every
golden table row and diffs it against the engine, and `cache` inspects or
clears the on-disk JSONL store.

Exit codes are a stable contract: 0 success / all checks pass, 1 a check ran
and disagreed, 2 usage error (bad spec, inadmissible request, a value the
recursion cannot reach, or a request too large for the memory or the stack
at hand).
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from functools import cache
from json.encoder import encode_basestring_ascii

from .fixtures import read_json, reference_rows
from .floordiag import diagram_sum, diagram_terms
from .invariants import (
    CACHE_ENV_VAR,
    ENGINE_VERSION,
    InvariantError,
    InvariantKey,
    InvariantRecord,
    InvariantTable,
    StuckError,
    max_pairs,
)
from .polygon import HPolygon, PolygonError
from . import surgery

# conjecture instances (a, b, genus, pairs); verify skips those the pair
# recursion cannot reach, and the acceptance suite checks them all on the
# golden tables
CONJECTURE_INSTANCES = tuple(
    [(1, b, 0, 0) for b in range(6)]
    + [(2, 0, 1, 0)]
    + [(2, 0, 0, s) for s in range(4)]
    + [(2, 2, g, 0) for g in (1, 2, 3)]
    + [(2, 2, 0, s) for s in range(6)]
    + [(3, 0, g, 0) for g in (1, 2, 3, 4)]
    + [(3, 0, 0, s) for s in range(6)]
)

# each column runs s = 0 .. max_pairs, or up to its first stuck s
MONOTONE_COLUMNS = ("rect:2,2", "rect:2,4", "rect:3,3", "sigma2:2,0", "sigma2:2,2", "p2:3", "p2:4")

SYMMETRY_SHAPES = ((1, 2), (1, 3), (1, 4), (1, 5), (1, 6), (2, 3), (2, 4))

INDEPENDENCE_CASES = (
    ("rect:2,2", 2),
    ("rect:2,4", 2),
    ("rect:3,3", 2),
    ("sigma2:2,2", 2),
    ("p2:3", 2),
    ("p2:4", 2),
)


def _indented_json(value) -> str:
    """json.dumps(value, indent=2, sort_keys=True), byte for byte, for dicts
    with str keys, lists, tuples, str, int, bool and None, else TypeError;
    json.dumps runs the indented form in pure Python, about twice as slow."""

    def write(value, indent):
        kind = type(value)
        if kind is str:
            return encode_basestring_ascii(value)
        if kind is int:
            return int.__repr__(value)
        if kind is bool or value is None:
            return "null" if value is None else "true" if value else "false"
        inner = indent + "  "
        if kind is dict:  # the key's encoding refuses a non-str key
            items = [
                f"{encode_basestring_ascii(key)}: {write(value[key], inner)}" for key in sorted(value)
            ]
            return "{" + inner + ("," + inner).join(items) + indent + "}" if value else "{}"
        if kind is list or kind is tuple:
            items = [write(item, inner) for item in value]
            return "[" + inner + ("," + inner).join(items) + indent + "]" if value else "[]"
        raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")

    return write(value, "\n")


def _parse_span(text: str, option: str) -> range:
    """Parse "3" or "0..5", the value of option, into an inclusive integer range."""
    lo, sep, hi = text.partition("..")
    # ASCII digits only: int() would also take "1_0", " 2", "+2" and "٢"
    if all(part.isascii() and part.isdigit() for part in (lo, hi if sep else lo)):
        try:
            start = int(lo)
            stop = int(hi) if sep else start
            if start <= stop:
                return range(start, stop + 1)
        except ValueError:  # past int()'s limit on digits
            pass
    raise ValueError(f"bad {option} {text!r}: expected N or A..B with 0 <= A <= B")


def _load_polygon(args):
    if bool(args.polygon) == bool(args.polygon_file):
        raise ValueError("need exactly one of --polygon or --polygon-file")
    if args.polygon:
        return HPolygon.from_spec(args.polygon), args.polygon
    return HPolygon.from_json_dict(read_json(args.polygon_file)), args.polygon_file


def _diagram_payload(dia, multiplicity, markings) -> dict:
    return {
        "floors": dia.floors,
        "elevators": [list(e) for e in dia.elevators],
        "bottom_ends": list(dia.bottom_ends),
        "top_ends": list(dia.top_ends),
        "divergences": list(dia.divergences),
        "slope_orderings": dia.assignments,
        "multiplicity": multiplicity.to_json_dict(),
        "markings": markings,
    }


def run_compute(args) -> int:
    if args.list_diagrams and args.emit == "csv":
        raise ValueError("--list-diagrams has no CSV form: use --emit text or --emit json")
    polygon, label = _load_polygon(args)
    genus_span = _parse_span(args.genus, "--genus")
    pairs_span = _parse_span(args.pairs, "--pairs")
    if args.list_diagrams and pairs_span[-1] > 0:
        raise ValueError("--list-diagrams only applies to pairs = 0")
    # refuse an inadmissible span before any record is computed or cached
    InvariantKey.make(polygon, genus_span[-1], pairs_span[-1])
    # every genus above the interior point count is 0; a single genus says
    # so at once, but a range that long would only print zeros
    if genus_span[0] < genus_span[-1] > polygon.interior_lattice_count():
        raise ValueError(
            f"genus range {args.genus} ends above {polygon.interior_lattice_count()}, "
            f"the interior lattice point count of {label}; every genus above it is 0"
        )
    table = InvariantTable(cache_path=args.cache)
    cells = []  # (genus, pairs, record, diagram terms)
    if args.list_diagrams:
        for genus in genus_span:
            # a pairs = 0 record is exactly this sum and never extrapolated
            terms = diagram_terms(polygon, genus)
            cells.append((genus, 0, InvariantRecord(diagram_sum(terms), False), terms))
    elif pairs_span == range(1):
        recs = table.genus_records(polygon, genus_span)
        cells = [(genus, 0, rec, ()) for genus, rec in zip(genus_span, recs)]
    else:
        # InvariantKey.make above refused any genus but 0 once pairs > 0
        for pairs in pairs_span:
            try:
                rec = table.record(polygon, 0, pairs)
            except StuckError as err:
                err.trace = table.recursion_trace(polygon, pairs_span[-1])
                raise
            cells.append((0, pairs, rec, ()))
    if args.emit == "json":
        results = []
        for genus, pairs, rec, terms in cells:
            entry = {
                "polygon": label,
                "vertices": [list(v) for v in polygon.vertices],
                "genus": genus,
                "pairs": pairs,
                "invariant": rec.value.to_json_dict(),
                "extrapolated": rec.extrapolated,
            }
            if args.list_diagrams:
                entry["diagrams"] = [_diagram_payload(*term) for term in terms]
            results.append(entry)
        print(_indented_json({"engine": ENGINE_VERSION, "results": results}))
    elif args.emit == "csv":
        # quoted only where needed: a label such as "rect:2,2" holds a comma
        rows = csv.writer(sys.stdout, lineterminator="\n")
        rows.writerow(("polygon", "genus", "s", "exponent", "coefficient"))
        for genus, pairs, rec, _ in cells:
            for exp, coeff in rec.value.to_coeff_dict().items():
                rows.writerow((label, genus, pairs, exp, coeff))
    else:
        for genus, pairs, rec, terms in cells:
            flag = "  [extrapolated]" if rec.extrapolated else ""
            print(f"{label} g={genus} s={pairs}: {rec.value}{flag}")
            for dia, multiplicity, markings in terms:
                print(
                    f"  elevators={[list(e) for e in dia.elevators]} "
                    f"bottom={list(dia.bottom_ends)} top={list(dia.top_ends)} "
                    f"div={list(dia.divergences)} multiplicity={multiplicity} "
                    f"markings={markings} orderings={dia.assignments}"
                )
    return 0


def _admitted(table, rows) -> tuple:
    """The golden rows, once each is known to be an admissible request: an
    inadmissible row is refused like a bad request, before any record is
    computed, and not replayed as stuck."""
    for row in rows:
        try:
            InvariantKey.make(table.polygon(row.spec()), row.genus, row.pairs)
        except InvariantError as err:
            raise InvariantError(f"golden row {row.label()}: {err}") from None
    return rows


def _plan(table, rows, instances=()):
    """Fill the pairs = 0 cells that the golden rows and the conjecture
    instances will read, before any of them runs: one genus_records call
    per polygon, so one walk per run of its genera.  A cell with pairs > 0
    is at genus 0, where its polygon's pair column starts."""
    cells: dict[str, set] = {}
    for row in rows:
        cells.setdefault(row.spec(), set()).add(row.genus)
    for a, b, genus, _ in instances:
        trapezoid, terms = surgery.quadric_specs(a, b)
        for spec in (trapezoid, *(spec for _, spec in terms)):
            cells.setdefault(spec, set()).add(genus)
    for spec, genera in cells.items():
        table.genus_records(table.polygon(spec), sorted(genera))


def _replay(table, rows, emit: str) -> int:
    """Replay golden rows against table, print the report, return its exit code."""
    report = []
    for row in rows:
        entry = {"row": row.label(), "expected": row.value.to_json_dict()}
        try:
            rec = table.record(table.polygon(row.spec()), row.genus, row.pairs)
        except StuckError as err:
            entry["status"] = "stuck"
            entry["error"] = str(err)
        else:
            want = entry["expected"]
            have = entry["computed"] = rec.value.to_json_dict()
            entry["extrapolated"] = rec.extrapolated
            if rec.value == row.value:
                entry["status"] = "match"
            else:
                entry["status"] = "mismatch"
                entry["diff"] = {
                    exp: {"expected": want.get(exp, 0), "computed": have.get(exp, 0)}
                    for exp in sorted(want.keys() | have.keys(), key=int)
                    if want.get(exp, 0) != have.get(exp, 0)
                }
        report.append(entry)
    report.sort(key=lambda entry: entry["row"])
    bad = [e for e in report if e["status"] != "match"]
    payload = {
        "engine": ENGINE_VERSION,
        "rows": report,
        "matched": len(report) - len(bad),
        "total": len(report),
        "passed": not bad,
    }
    if emit == "json":
        print(_indented_json(payload))
    else:
        for entry in report:
            line = f"{entry['status']:8s} {entry['row']}"
            if entry.get("extrapolated"):
                line += "  [extrapolated]"
            print(line)
            if entry["status"] == "mismatch":
                for exp, d in entry["diff"].items():
                    print(f"    q^{exp}: expected {d['expected']}, computed {d['computed']}")
            elif entry["status"] == "stuck":
                print(f"    {entry['error']}")
        print(f"{payload['matched']}/{payload['total']} rows match")
    return 0 if payload["passed"] else 1


def run_appendix(args) -> int:
    rows = reference_rows(args.fixtures)
    if args.genus_only:
        rows = tuple(r for r in rows if r.pairs == 0)
    table = InvariantTable(cache_path=args.cache)
    rows = _admitted(table, rows)
    _plan(table, rows)
    return _replay(table, rows, args.emit)


def _check_symmetry(table) -> dict:
    # the table keys each embedding as given, so rect:a,b and rect:b,a are
    # two records, each walked on its own or read from the cache
    failures = []
    checked = 0
    for a, b in SYMMETRY_SHAPES:
        rect = table.polygon(f"rect:{a},{b}")
        genera = range(rect.interior_lattice_count() + 1)
        left = table.genus_records(rect, genera)
        right = table.genus_records(table.polygon(f"rect:{b},{a}"), genera)
        checked += len(genera)
        failures += [
            {"shape": [a, b], "genus": g}
            for g, one, other in zip(genera, left, right)
            if one.value != other.value
        ]
    return surgery.identity_report("symmetry", checked, failures)


def _check_monotone(table) -> dict:
    failures = []
    checked = 0
    for spec in MONOTONE_COLUMNS:
        shape, prev = table.polygon(spec), None
        for s in range(max_pairs(shape) + 1):
            try:
                coeffs = table.refined_descendant(shape, s).to_coeff_dict()
            except StuckError:
                break
            checked += 1
            if any(c < 0 for c in coeffs.values()):
                failures.append({"polygon": spec, "s": s, "reason": "negative coefficient"})
            if prev is not None:
                for exp, c in coeffs.items():
                    if c > prev.get(exp, 0):
                        failures.append(
                            {"polygon": spec, "s": s, "exponent": exp, "reason": "increase"}
                        )
            prev = coeffs
    return surgery.identity_report("monotone-s", checked, failures)


def _check_independence(table) -> dict:
    failures = []
    checked = 0
    for spec, pairs in INDEPENDENCE_CASES:
        shape = table.polygon(spec)
        for s in range(1, min(pairs, max_pairs(shape)) + 1):
            checked += 1
            values = table.descendant_value_set(shape, s)
            if len(values) != 1:
                failures.append(
                    {"polygon": spec, "s": s, "values": [v.to_json_dict() for v in values]}
                )
    return surgery.identity_report("cut-independence", checked, failures)


def _check_conjecture(table) -> dict:
    instances, skipped = [], []
    for a, b, g, s in CONJECTURE_INSTANCES:
        try:
            instances.append(surgery.check_conjecture_quadric(table, a, b, g, s))
        except StuckError:
            skipped.append(dict(a=a, b=b, genus=g, pairs=s, reason="pair recursion stuck"))
    failures = [i for i in instances if not i["passed"]]
    return surgery.identity_report(
        "conj-quadric", len(instances), failures, instances=instances, skipped=skipped
    )


# name -> check(table); the table builds each named polygon once
IDENTITY_CHECKS = {
    "u-inversion": lambda table: surgery.check_u_inversion(),
    "main-proof": lambda table: surgery.check_mainproof_coeffs(),
    "conj-quadric": _check_conjecture,
    "symmetry": _check_symmetry,
    "monotone-s": _check_monotone,
    "cut-independence": _check_independence,
}
IDENTITIES = tuple(IDENTITY_CHECKS)


def run_verify(args) -> int:
    if args.fixtures and args.suite != "all":
        raise ValueError("--fixtures only applies to --suite all")
    table = InvariantTable(cache_path=args.cache)
    # the rows are checked before any identity computes a record
    rows = _admitted(table, reference_rows(args.fixtures)) if args.suite == "all" else None
    names = args.identity or IDENTITIES
    _plan(table, rows or (), CONJECTURE_INSTANCES if "conj-quadric" in names else ())
    reports = [IDENTITY_CHECKS[name](table) for name in names]
    appendix_exit = 0 if rows is None else _replay(table, rows, args.emit)
    payload = {
        "engine": ENGINE_VERSION,
        "reports": reports,
        "passed": all(r["passed"] for r in reports),
    }
    if args.emit == "json":
        print(_indented_json(payload))
    else:
        for report in reports:
            mark = "pass" if report["passed"] else "FAIL"
            extras = ""
            if report.get("skipped"):
                extras = f", {len(report['skipped'])} skipped"
            print(f"{mark}  {report['identity']} ({report['checked']} checked{extras})")
            for failure in report["failures"]:
                print(f"      {failure}")
    if not payload["passed"] or appendix_exit:
        return 1
    return 0


def run_cache(args) -> int:
    path = args.cache
    if not path:
        raise ValueError(f"no cache path: pass --cache or set {CACHE_ENV_VAR}")
    if args.action == "clear":
        if os.path.exists(path):
            os.remove(path)
        print(json.dumps({"path": path, "cleared": True}))
        return 0
    if args.action == "verify":
        try:
            table = InvariantTable(cache_path=path, verify_cache=True)
        except InvariantError as err:
            print(json.dumps({"path": path, "passed": False, "error": str(err)}))
            return 1
        stats = table.cache_stats()
        stats["passed"] = True
        print(json.dumps(stats, sort_keys=True))
        return 0
    table = InvariantTable(cache_path=path)
    print(json.dumps(table.cache_stats(), sort_keys=True))
    return 0


@cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: building costs about 15 parses."""
    parser = argparse.ArgumentParser(
        prog="floordiagrams",
        description="Exact refined curve counts on h-transverse polygons.",
    )
    parser.add_argument(
        "--cache",
        default=None,
        help=f"JSONL cache path (default: ${CACHE_ENV_VAR} if set)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    compute = sub.add_parser("compute", help="evaluate invariants for one polygon")
    compute.add_argument("--polygon", help='named spec: "rect:a,b", "sigma2:a,b", "p2:d"')
    compute.add_argument("--polygon-file", help='JSON file {"vertices": [[x,y],...]}')
    compute.add_argument("--genus", default="0", help='genus or inclusive range "a..b"')
    compute.add_argument("--pairs", default="0", help='conjugate pairs or range "a..b"')
    compute.add_argument("--emit", choices=("text", "json", "csv"), default="text")
    compute.add_argument(
        "--list-diagrams",
        action="store_true",
        help="dump every diagram with multiplicity and marking count",
    )
    compute.set_defaults(func=run_compute)

    verify = sub.add_parser("verify", help="run identity suites")
    selection = verify.add_mutually_exclusive_group(required=True)
    selection.add_argument("--identity", action="append", choices=IDENTITIES)
    selection.add_argument("--suite", choices=("identities", "all"))
    verify.add_argument("--fixtures", help="alternative golden-table JSON file")
    verify.add_argument("--emit", choices=("text", "json"), default="text")
    verify.set_defaults(func=run_verify)

    appendix = sub.add_parser("appendix", help="replay the golden tables")
    appendix.add_argument("--fixtures", help="alternative golden-table JSON file")
    appendix.add_argument(
        "--genus-only",
        action="store_true",
        help="only rows with pairs = 0 (direct floor-diagram counts)",
    )
    appendix.add_argument("--emit", choices=("text", "json"), default="text")
    appendix.set_defaults(func=run_appendix)

    cache = sub.add_parser("cache", help="inspect or clear the JSONL cache")
    cache.add_argument("action", choices=("stats", "verify", "clear"))
    cache.set_defaults(func=run_cache)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # resolved once here: every table gets this path and reads no environment
    args.cache = args.cache or os.environ.get(CACHE_ENV_VAR)
    try:
        return args.func(args)
    except MemoryError:
        # matched first and reported after the handler, which frees the
        # request's frames: an allocation while they hold the memory (the
        # handler's print, or the tuple of another clause) can spin for minutes
        pass
    except RecursionError:  # one level per polygon of a chain of corner cuts
        print(f"error: request nests deeper than the stack limit of "
              f"{sys.getrecursionlimit()} calls", file=sys.stderr)
        return 2
    except InvariantError as err:
        print(f"error: {err}", file=sys.stderr)
        if err.trace is not None:
            print(_indented_json(err.trace), file=sys.stderr)
        return 2
    except (PolygonError, ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    print("error: out of memory", file=sys.stderr)
    return 2


if __name__ == "__main__":
    raise SystemExit(main())
