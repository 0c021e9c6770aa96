"""Value gates: judge each CLI answer without trusting the engine under test.

Two sources of truth are checked independently of each other:

* published constants (Kontsevich N_d at q=1, Welschinger W_d at q=-1, the
  p2:5 pair column, the appendix status counts, the exit-code contract) and
  palindromy of every value, all hard-coded here;
* ``expected.json``, the exact coefficient maps the seed engine produced for
  every cell the workloads touch (``record_expected.py`` writes it).

Outputs are parsed from the text, JSON and CSV the CLI prints; nothing here
imports floordiagrams.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

EXPECTED_PATH = Path(__file__).with_name("expected.json")

KONTSEVICH = {"p2:4": 620, "p2:5": 87304, "p2:6": 26312976, "p2:7": 14616808192}
WELSCHINGER = {"p2:4": 240, "p2:5": 18264, "p2:6": 2845440}
P2_5_PAIR_COLUMN = {0: 18264, 1: 9096, 2: 4272, 3: 1872}

APPENDIX_TOTAL = 60
APPENDIX_MATCHED = 52
APPENDIX_MISMATCH = frozenset({"rect:2,4 g=0 s=5", "sigma2:2,2 g=0 s=5"})
APPENDIX_STUCK = frozenset(
    f"{shape} g=0 s={s}" for shape in ("rect:3,3", "sigma2:3,0") for s in (3, 4, 5)
)

# genus-0 diagram counts and divergence-sequence counts, keyed by the
# polygon's normalized vertices (counterclockwise from the smallest vertex)
DIAGRAM_COUNTS = {
    "p2:5": (((0, 0), (5, 0), (0, 5)), 125),
    "p2:6": (((0, 0), (6, 0), (0, 6)), 1296),
    "p2:7": (((0, 0), (7, 0), (0, 7)), 16807),
    "rect:5,5": (((0, 0), (5, 0), (5, 5), (0, 5)), 15750),
    "sigma2:4,2": (((0, 0), (10, 0), (2, 4), (0, 4)), 2500),
}
SEQUENCE_COUNTS = {
    "octagon": (((0, 1), (1, 0), (3, 0), (4, 1), (4, 2), (3, 3), (1, 3), (0, 2)), 19),
}

STUCK_PREFIX = "error: pair recursion is stuck on HPolygon("

_TEXT_LINE = re.compile(r"^(.*) g=(\d+) s=(\d+): (.*?)(  \[extrapolated\])?$")
_ROW_LINE = re.compile(r"^(match|mismatch|stuck)\s+(.*?)(  \[extrapolated\])?$")
_SUMMARY = re.compile(r"^(\d+)/(\d+) rows match$")
_IDENTITY_LINE = re.compile(r"^(pass|FAIL)  (\S+) \(")


def load_expected(path=None) -> dict:
    with open(path or EXPECTED_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def span(text: str) -> range:
    lo, sep, hi = text.partition("..")
    return range(int(lo), int(hi if sep else lo) + 1)


def cell_label(polygon: str, genus: int, pairs: int) -> str:
    return f"{polygon} g={genus} s={pairs}"


def stuck_label(request) -> str:
    return f"{request.polygon} s={request.pairs}"


# -- parsing ----------------------------------------------------------------


def parse_poly_text(text: str) -> dict[str, int]:
    """Coefficient map of a polynomial as LaurentPoly.__str__ prints it."""
    if text == "0":
        return {}
    tokens = text.split(" ")
    first = tokens[0]
    terms = [("-", first[1:]) if first.startswith("-") else ("+", first)]
    terms += list(zip(tokens[1::2], tokens[2::2]))
    out: dict[str, int] = {}
    for sign, body in terms:
        head, q, exp = body.partition("q")
        if q:
            coeff = int(head) if head else 1
            exponent = int(exp[1:]) if exp else 1
        else:
            coeff, exponent = int(body), 0
        out[str(exponent)] = coeff if sign == "+" else -coeff
    return out


def parse_compute(emit: str, out: str) -> dict[tuple[int, int], dict]:
    """(genus, pairs) -> {"coeffs": ..., "extrapolated": bool or None}."""
    cells: dict[tuple[int, int], dict] = {}
    if emit == "json":
        for entry in json.loads(out)["results"]:
            cells[(entry["genus"], entry["pairs"])] = {
                "coeffs": entry["invariant"],
                "extrapolated": entry["extrapolated"],
            }
    elif emit == "csv":
        lines = out.splitlines()
        if not lines or lines[0] != "polygon,genus,s,exponent,coefficient":
            raise ValueError("missing CSV header")
        for line in lines[1:]:
            _, genus, pairs, exp, coeff = line.rsplit(",", 4)
            cell = cells.setdefault((int(genus), int(pairs)), {"coeffs": {}})
            cell["coeffs"][exp] = int(coeff)
            cell["extrapolated"] = None
    else:
        for line in out.splitlines():
            match = _TEXT_LINE.match(line)
            if not match:
                raise ValueError(f"unparsed line {line!r}")
            cells[(int(match[2]), int(match[3]))] = {
                "coeffs": parse_poly_text(match[4]),
                "extrapolated": bool(match[5]),
            }
    return cells


def parse_appendix(emit: str, out: str) -> tuple[dict[str, dict], int, int]:
    """Row label -> {"status", "computed"}, and the matched/total summary."""
    if emit == "json":
        payload = json.loads(out)
        rows = {
            r["row"]: {"status": r["status"], "computed": r.get("computed")}
            for r in payload["rows"]
        }
        return rows, payload["matched"], payload["total"]
    rows, matched, total = {}, -1, -1
    for line in out.splitlines():
        if line.startswith("    "):
            continue
        summary = _SUMMARY.match(line)
        if summary:
            matched, total = int(summary[1]), int(summary[2])
            continue
        row = _ROW_LINE.match(line)
        if row:
            rows[row[2]] = {"status": row[1], "computed": None}
    return rows, matched, total


# -- checks -----------------------------------------------------------------


def _at(coeffs: dict[str, int], q: int) -> int:
    return sum(c * q ** (int(e) % 2) for e, c in coeffs.items())


def published_errors(polygon: str, genus: int, pairs: int, coeffs: dict) -> list[str]:
    errors = []
    if genus == 0 and pairs == 0 and polygon in KONTSEVICH:
        if _at(coeffs, 1) != KONTSEVICH[polygon]:
            errors.append(f"N at q=1 is {_at(coeffs, 1)}, want {KONTSEVICH[polygon]}")
    if genus == 0 and pairs == 0 and polygon in WELSCHINGER:
        if _at(coeffs, -1) != WELSCHINGER[polygon]:
            errors.append(f"W at q=-1 is {_at(coeffs, -1)}, want {WELSCHINGER[polygon]}")
    if polygon == "p2:5" and genus == 0 and pairs in P2_5_PAIR_COLUMN:
        if _at(coeffs, -1) != P2_5_PAIR_COLUMN[pairs]:
            errors.append(
                f"pair column at q=-1 is {_at(coeffs, -1)}, want {P2_5_PAIR_COLUMN[pairs]}"
            )
    return errors


def _palindromic(coeffs: dict[str, int]) -> bool:
    return all(coeffs.get(str(-int(e)), 0) == c for e, c in coeffs.items())


def check_compute(request, out: str, expected: dict) -> list[str]:
    cells = parse_compute(request.emit, out)
    want_keys = {(g, s) for g in span(request.genus) for s in span(request.pairs)}
    errors = []
    # CSV prints no rows for a zero value, so its cells may be a subset
    if set(cells) != want_keys and not (request.emit == "csv" and set(cells) < want_keys):
        errors.append(f"cells {sorted(cells)} != {sorted(want_keys)}")
    for genus, pairs in sorted(want_keys):
        label = cell_label(request.polygon, genus, pairs)
        got = cells.get((genus, pairs), {"coeffs": {}, "extrapolated": None})
        coeffs = got["coeffs"]
        want = expected["cells"].get(label)
        if want is None:
            errors.append(f"{label}: no expected value")
            continue
        if coeffs != want["coeffs"]:
            errors.append(f"{label}: {coeffs} != {want['coeffs']}")
        if got["extrapolated"] is not None and got["extrapolated"] != want["extrapolated"]:
            errors.append(f"{label}: extrapolated flag {got['extrapolated']}")
        if not _palindromic(coeffs):
            errors.append(f"{label}: not palindromic")
        errors += [f"{label}: {e}" for e in published_errors(request.polygon, genus, pairs, coeffs)]
    return errors


def check_stuck(request, err: str, expected: dict) -> list[str]:
    first, _, rest = err.partition("\n")
    errors = []
    want = expected["stuck"].get(stuck_label(request))
    if not first.startswith(STUCK_PREFIX):
        errors.append(f"no blocking-polygon message: {first[:120]!r}")
    elif first != want:
        errors.append(f"blocking message {first[:120]!r} != {str(want)[:120]!r}")
    try:
        trace = json.loads(rest)
    except ValueError:
        errors.append("recursion trace is not JSON")
    else:
        if trace.get("pairs") != max(span(request.pairs)):
            errors.append(f"trace root has pairs {trace.get('pairs')}")
    return errors


def check_appendix(emit: str, out: str, expected: dict) -> list[str]:
    rows, matched, total = parse_appendix(emit, out)
    errors = []
    if (matched, total) != (APPENDIX_MATCHED, APPENDIX_TOTAL):
        errors.append(f"appendix {matched}/{total}, want {APPENDIX_MATCHED}/{APPENDIX_TOTAL}")
    if set(rows) != set(expected["appendix"]):
        errors.append(f"appendix has {len(rows)} rows, want {len(expected['appendix'])}")
    for label, row in sorted(rows.items()):
        want = "mismatch" if label in APPENDIX_MISMATCH else "stuck" if label in APPENDIX_STUCK else "match"
        if row["status"] != want:
            errors.append(f"{label}: status {row['status']}, want {want}")
        recorded = expected["appendix"].get(label, {})
        if row["computed"] is not None and row["computed"] != recorded.get("computed"):
            errors.append(f"{label}: computed {row['computed']} != {recorded.get('computed')}")
    return errors


def check_verify(request, out: str, expected: dict) -> list[str]:
    identity_lines = []
    rest = []
    for line in out.splitlines():
        (identity_lines if _IDENTITY_LINE.match(line) else rest).append(line)
    errors = []
    if identity_lines != expected["identities"]:
        errors.append(f"identity reports {identity_lines} != {expected['identities']}")
    if any(not line.startswith("pass") for line in identity_lines):
        errors.append("an identity failed")
    if request.argv[2] == "all":
        errors += check_appendix("text", "\n".join(rest), expected)
    return errors


EXIT_CODES = {"compute": 0, "stuck": 2, "appendix": 1}


def check(request, code, out: str, err: str, expected: dict) -> list[str]:
    """Every way this answer differs from what the gates require."""
    if request.kind == "verify":
        want_code = 1 if request.argv[2] == "all" else 0
    else:
        want_code = EXIT_CODES[request.kind]
    if code != want_code:
        return [f"exit code {code}, want {want_code}: {err[:200]!r}"]
    try:
        if request.kind == "stuck":
            return (["stuck request wrote to stdout"] if out else []) + check_stuck(
                request, err, expected
            )
        if err:
            return [f"unexpected stderr {err[:200]!r}"]
        if request.kind == "compute":
            return check_compute(request, out, expected)
        if request.kind == "appendix":
            return check_appendix(request.emit, out, expected)
        return check_verify(request, out, expected)
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unparseable output: {exc!r}"]


def check_census(census) -> list[str]:
    """Compare the diagram and sequence counts a traced pass saw with the known ones."""
    errors = []
    for name, (vertices, want) in DIAGRAM_COUNTS.items():
        seen = census["diagrams"].get((vertices, 0))
        if seen and seen != {want}:
            errors.append(f"{name} g=0: {sorted(seen)} diagrams, want {want}")
    for name, (vertices, want) in SEQUENCE_COUNTS.items():
        seen = census["sequences"].get(vertices)
        if seen and seen != {want}:
            errors.append(f"{name}: {sorted(seen)} divergence sequences, want {want}")
    return errors


def census_summary(census) -> dict[str, list[int]]:
    """The known counts a traced pass saw, by polygon name."""
    out = {}
    for name, (vertices, _) in DIAGRAM_COUNTS.items():
        if (vertices, 0) in census["diagrams"]:
            out[f"{name} g=0 diagrams"] = sorted(census["diagrams"][(vertices, 0)])
    for name, (vertices, _) in SEQUENCE_COUNTS.items():
        if vertices in census["sequences"]:
            out[f"{name} sequences"] = sorted(census["sequences"][vertices])
    return out
