"""The CLI's exit-code contract, drawn from its grammar.

Every request exits 0, 1 or 2 and lets no exception escape.  On exit 2
stdout is empty and stderr is one line holding "error:": the CLI's own
"error: ..." or argparse's "floordiagrams ...: error: ..." after its usage
lines.  The one exception is a stuck pair recursion, whose "error: pair
recursion is stuck ..." line is followed by the recursion trace as JSON.
"""

import io
import json
import os
import re
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from floordiagrams import cli
from floordiagrams.invariants import CACHE_ENV_VAR, ENGINE_VERSION

SRC = Path(__file__).resolve().parents[1] / "src"


def _cache_line(polygon, coeffs, engine=ENGINE_VERSION, genus=0):
    return json.dumps({"engine": engine, "polygon": polygon, "genus": genus, "pairs": 0,
                       "coeffs": coeffs, "extrapolated": False}) + "\n"


SQUARE = [[0, 0], [1, 0], [1, 1], [0, 1]]
GOOD_ROW = {"surface": "QH", "a": 2, "b": 2, "genus": 0, "pairs": 0,
            "coeffs": {"-1": 1, "0": 10, "1": 1}}

# the input files a request can name, as "@kind:name" tokens; "missing" and
# "no-dir" name no file, "dir" the request's directory
FILES = {
    "polygon": {
        "square": json.dumps({"vertices": [[0, 0], [2, 0], [2, 2], [0, 2]]}),
        "wide-triangle": json.dumps({"vertices": [[0, 0], [10**30, 0], [0, 1]]}),
        "tall-triangle": json.dumps({"vertices": [[0, 0], [1, 0], [0, 10**30]]}),
        "truncated": '{"vertices": [[0, 0], ',
        "not-utf8": b'{"vertices": [[0, 0], [1, 0], [0, 1]]}\xff',
        "no-vertices": '{"points": [[0, 0], [1, 0], [0, 1]]}',
        "top-level-list": "[[0, 0], [1, 0], [0, 1]]",
        "floats": '{"vertices": [[0, 0], [1.5, 0], [0, 1]]}',
        "bools": '{"vertices": [[0, 0], [true, 0], [0, 1]]}',
        "strings": '{"vertices": [["0", "0"], [1, 0], [0, 1]]}',
        "triples": '{"vertices": [[0, 0, 0], [1, 0, 0], [0, 1, 0]]}',
        "huge-digits": '{"vertices": [[0, 0], [' + "9" * 5000 + ", 0], [0, 1]]}",
        "empty": "",
    },
    "cache": {
        "good": _cache_line(SQUARE, {"0": 1}),
        "wrong-value": _cache_line(SQUARE, {"0": 2}),
        "stale": _cache_line(SQUARE, {"0": 1}, engine="0.0.0"),
        "not-json": "{not json\n",
        "wrong-types": _cache_line(SQUARE, {"0": 1}, genus="0"),
        "not-convex": _cache_line([[0, 0], [2, 0], [1, 1], [2, 2], [0, 2]], {"0": 1}),
        "conflict": _cache_line(SQUARE, {"0": 1}) + _cache_line(SQUARE, {"0": 2}),
        "torn": _cache_line(SQUARE, {"0": 1}) + '{"engine": "',
        "not-utf8": _cache_line(SQUARE, {"0": 1}).encode() + b"\xff\n",
        "empty": "",
    },
    "fixtures": {
        "good": json.dumps({"rows": [GOOD_ROW]}),
        "wrong-value": json.dumps({"rows": [{**GOOD_ROW, "coeffs": {"0": 11}}]}),
        "stuck": json.dumps({"rows": [{**GOOD_ROW, "a": 3, "b": 3, "pairs": 3}]}),
        "inadmissible": json.dumps({"rows": [{**GOOD_ROW, "pairs": 9}]}),
        "float-a": json.dumps({"rows": [{**GOOD_ROW, "a": 2.5}]}),
        "truncated": '{"rows": [',
        "not-utf8": b'{"rows": []}\xff',
    },
}
PATHS = ("missing", "no-dir", "dir")

# sizes are bounded where a request would run without end, which no exit
# code can show: a polygon of width N above one floor (rect:100,2 fills any
# memory), a pairs range up to N on a polygon of width N, and long genus
# ranges on large polygons (p2:64 --genus 0..99).  So a wide polygon has one
# floor and small spans, and a tall one is refused for its height.
WIDE = ("250", "1000", str(10**30), "9" * 5000)
TALL = ("65", str(10**30))
SMALL = st.integers(0, 6).map(str)
NUMBERS = st.sampled_from([str(n) for n in range(7)] + ["9" * 30, "9" * 5000])


def _file(kind):
    return st.sampled_from(sorted(FILES[kind]) + list(PATHS)).map(lambda name: f"@{kind}:{name}")


SMALL_SPECS = (
    st.builds("rect:{},{}".format, st.integers(1, 3), st.integers(1, 3))
    | st.builds("sigma2:{},{}".format, st.integers(1, 2), st.integers(0, 3))
    | st.builds("p2:{}".format, st.integers(1, 4))
)
LARGE_SPECS = (
    st.builds("rect:{},1".format, st.sampled_from(WIDE))
    | st.builds("sigma2:1,{}".format, st.sampled_from(WIDE))
    | st.builds("rect:{},{}".format, st.integers(1, 3), st.sampled_from(TALL))
    | st.builds("sigma2:{},{}".format, st.sampled_from(TALL), st.integers(0, 3))
    | st.builds("p2:{}".format, st.sampled_from(TALL))
)
BAD_SPECS = st.sampled_from(
    ("hex:1,1", "rect:", "rect:2", "rect:2,2,2", "", "p2:", ":", "RECT:2,2", "rect:2;2",
     "rect:0,2", "sigma2:0,1", "p2:0")
)


def _mutate(text, how):
    """text with one of the edits that int() or a careless parser would let pass."""
    digits = [i for i, ch in enumerate(text) if ch.isdigit()]
    if how == "non-ascii" and digits:
        return text[: digits[0]] + "٢" + text[digits[0] + 1 :]
    if how == "underscore" and digits:
        return text[: digits[0] + 1] + "_" + text[digits[0] + 1 :]
    if how == "sign":
        return "+" + text
    if how == "space":
        return text + " "
    if how == "reverse" and ".." in text:
        lo, _, hi = text.partition("..")
        return f"{hi}..{lo}"
    return text


def _span(huge):
    numbers = NUMBERS if huge else SMALL
    return numbers | st.builds("{}..{}".format, numbers, SMALL)


@st.composite
def _compute(draw):
    where = draw(st.sampled_from(("spec",) * 4 + ("large", "bad", "file", "drawn", "both",
                                                   "none")))
    small = where in ("spec", "bad", "drawn", "none")  # huge spans are refused there
    argv = ["compute"]
    if where in ("spec", "both"):
        argv += ["--polygon", draw(SMALL_SPECS)]
    elif where == "large":
        argv += ["--polygon", draw(LARGE_SPECS)]
    elif where == "bad":
        argv += ["--polygon", draw(BAD_SPECS)]
    if where in ("file", "both"):
        argv += ["--polygon-file", draw(_file("polygon"))]
    elif where == "drawn":
        argv += ["--polygon-file", "@polygon:drawn"]
    for option in ("--genus", "--pairs"):
        if draw(st.booleans()):
            argv += [option, draw(_span(huge=small))]
    if draw(st.booleans()):
        argv += ["--emit", draw(st.sampled_from(("text", "json", "csv")))]
    if draw(st.booleans()):
        argv.append("--list-diagrams")
    return argv


@st.composite
def _verify(draw):
    argv = ["verify"]
    for name in draw(st.lists(st.sampled_from(cli.IDENTITIES), max_size=2)):
        argv += ["--identity", name]
    if draw(st.booleans()):
        argv += ["--suite", draw(st.sampled_from(("identities", "all")))]
    if draw(st.booleans()):
        argv += ["--fixtures", draw(_file("fixtures"))]
    if draw(st.booleans()):
        argv += ["--emit", draw(st.sampled_from(("text", "json")))]
    return argv


@st.composite
def _appendix(draw):
    argv = ["appendix"]
    if draw(st.booleans()):
        argv += ["--fixtures", draw(_file("fixtures"))]
    if draw(st.booleans()):
        argv.append("--genus-only")
    if draw(st.booleans()):
        argv += ["--emit", draw(st.sampled_from(("text", "json")))]
    return argv


COMMANDS = (
    _compute()
    | _verify()
    | _appendix()
    | st.builds(lambda action: ["cache", action], st.sampled_from(("stats", "verify", "clear")))
)
EDITS = st.tuples(
    st.sampled_from(("non-ascii", "underscore", "sign", "space", "reverse", "drop", "repeat",
                     "insert", "none")),
    st.integers(0, 20),
    st.sampled_from(("--bogus", "-x", "extra", "--emit", "--", "--cache", "compute")),
)


@st.composite
def argument_vectors(draw):
    argv = draw(COMMANDS)
    if draw(st.integers(0, 2)) == 0:
        argv = ["--cache", draw(_file("cache"))] + argv
    for how, at, token in draw(st.just(()) | st.lists(EDITS, min_size=1, max_size=2)):
        if not argv:
            break
        at %= len(argv)
        if how == "drop":
            del argv[at]
        elif how == "repeat":
            argv.insert(at, argv[at])
        elif how == "insert":
            argv.insert(at, token)
        else:
            argv[at] = _mutate(argv[at], how)
    return argv


DRAWN_POLYGONS = st.lists(st.lists(st.integers(-1, 4), min_size=2, max_size=2), max_size=6)


def _resolve(argv, folder: Path, drawn) -> list:
    """argv with each "@kind:name" token replaced by a path under folder,
    where the file it names is written first; an edited name names no file."""
    out = []
    for token in argv:
        kind, sep, name = token[1:].partition(":")
        if not (token.startswith("@") and sep):
            out.append(token)
            continue
        path = folder / f"{kind}-{name}"
        if name == "dir":
            path = folder
        elif name == "no-dir":
            path = folder / "no-dir" / kind
        elif name == "drawn" or name in FILES.get(kind, ()):
            data = json.dumps({"vertices": drawn}) if name == "drawn" else FILES[kind][name]
            if isinstance(data, str):
                path.write_text(data, encoding="utf-8")
            else:
                path.write_bytes(data)
        out.append(str(path))
    return out


def _call(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def check_contract(code, out, err):
    assert code in (0, 1, 2), (code, err)
    if code == 2:
        assert out == ""
        lines = err.splitlines()
        if err.startswith("error: pair recursion is stuck"):
            json.loads(err.partition("\n")[2])
        elif lines and lines[-1].startswith("error: "):
            assert len(lines) == 1, err
        else:
            assert lines and re.match(r"floordiagrams( \w+)?: error: ", lines[-1]), err
            assert all("error:" not in line for line in lines[:-1]), err


@settings(
    max_examples=200,
    deadline=5000,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(argv=argument_vectors(), drawn=DRAWN_POLYGONS)
# a one-floor polygon thousands of units wide: its marking count once
# recursed once per end
@example(argv=["compute", "--polygon", "rect:1000,1", "--list-diagrams"], drawn=[])
@example(argv=["compute", "--polygon-file", "@polygon:wide-triangle", "--list-diagrams"],
         drawn=[])
@example(argv=["compute", "--polygon", f"rect:{10**30},1", "--pairs", "999"], drawn=[])
def test_every_request_keeps_the_exit_code_contract(argv, drawn):
    with tempfile.TemporaryDirectory() as folder, pytest.MonkeyPatch.context() as patch:
        patch.delenv(CACHE_ENV_VAR, raising=False)
        # an edited token can be a relative path: it lands in folder too
        patch.chdir(folder)
        check_contract(*_call(_resolve(argv, Path(folder), drawn)))


@pytest.mark.parametrize(
    "argv",
    [
        ["compute", "--polygon", "rect:250,1", "--list-diagrams"],
        ["compute", "--polygon", "rect:3,3", "--pairs", "3"],
        ["compute", "--polygon-file", "@polygon:floats"],
        ["--cache", "@cache:not-utf8", "compute", "--polygon", "rect:1,2"],
        ["compute", "--polygon", "rect:2,2", "--genus", "٢"],
    ],
    ids=["wide-listing", "stuck-trace", "float-vertex", "cache-not-utf8", "non-ascii-genus"],
)
def test_requests_keep_the_contract_under_python_O(tmp_path, argv):
    # python -O strips assert statements: the same request answers the same
    argv = _resolve(argv, tmp_path, [])
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop(CACHE_ENV_VAR, None)
    done = subprocess.run(
        [sys.executable, "-O", "-m", "floordiagrams.cli", *argv],
        capture_output=True, text=True, env=env, timeout=60,
    )
    check_contract(done.returncode, done.stdout, done.stderr)
    assert (done.returncode, done.stdout, done.stderr) == _call(argv)
