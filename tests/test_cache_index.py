"""The cache's line pattern against the full parse of every line.

A cache load indexes a line in the exact form the engine writes by its key
text and decodes its value on the first lookup; any other line is parsed in
full at load.  These tests check that the two paths cannot disagree: a line
the pattern accepts decodes to what the full parse gives, and a whole file
loads, answers and fails as it does when every line is parsed in full.
"""

import importlib.util
import io
import json
import os
import re
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from floordiagrams import cli, invariants
from floordiagrams.invariants import InvariantError, InvariantTable, StuckError
from floordiagrams.polygon import HPolygon
from test_floordiag import small_polygons

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
# a pattern that matches no line, so the load parses every line in full
NEVER = re.compile(r"(?!)")


def _write_cache(path, requests):
    for argv in requests:
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            cli.main(["--cache", str(path), *argv])


def _engine_lines() -> list[str]:
    """Lines the engine writes: pair columns, genus sweeps and extrapolated
    pair records, with negative exponents and both flag values."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cache.jsonl"
        _write_cache(path, (
            ["compute", "--polygon", "rect:2,2", "--pairs", "0..2"],
            ["compute", "--polygon", "p2:4", "--genus", "0..2"],
            ["compute", "--polygon", "sigma2:2,1", "--pairs", "0..3"],
        ))
        return path.read_text(encoding="utf-8").splitlines()


ENGINE_LINES = _engine_lines()


def test_the_engine_lines_cover_both_flags_and_negative_exponents():
    assert all(invariants._CACHE_LINE.fullmatch(line) for line in ENGINE_LINES)
    assert any('"extrapolated": true' in line for line in ENGINE_LINES)
    assert any('"extrapolated": false' in line for line in ENGINE_LINES)
    assert any('"-1": ' in line for line in ENGINE_LINES)


def _respaced(line: str) -> str:
    return json.dumps(json.loads(line), separators=(",", ":"))


def _with_coeffs(line: str, coeffs: dict) -> str:
    entry = json.loads(line)
    entry["coeffs"] = coeffs
    return json.dumps(entry)


# -- mutations of engine-written lines ----------------------------------------


def _splice(draw, line, pattern, make):
    """line with one drawn match of pattern replaced by make(match text)."""
    spans = [m.span() for m in re.finditer(pattern, line)]
    if not spans:
        return line
    start, end = draw(st.sampled_from(spans))
    return line[:start] + make(line[start:end]) + line[end:]


@st.composite
def _mutation(draw, line):
    kind = draw(st.sampled_from((
        "digit", "minus-zero", "leading-zero", "arabic-digit", "reorder", "spacing",
        "duplicate-key", "flag-number", "long-number", "engine", "degenerate", "crlf",
        "truncate",
    )))
    if kind == "digit":
        digit = draw(st.sampled_from("0123456789"))
        return _splice(draw, line, "[0-9]", lambda _: digit)
    if kind == "minus-zero":
        return _splice(draw, line, "-?[0-9]+", lambda _: "-0")
    if kind == "leading-zero":
        return _splice(draw, line, "[0-9]+", lambda digits: "0" + digits)
    if kind == "arabic-digit":
        return _splice(draw, line, "[0-9]", lambda _: "\u0662")
    if kind in ("reorder", "degenerate"):
        try:
            entry = json.loads(line)
        except ValueError:
            return line
        if type(entry) is not dict:
            return line
        if kind == "degenerate":
            return json.dumps({**entry, "polygon": "degenerate"})
        order = draw(st.permutations(list(entry)))
        return json.dumps({field: entry[field] for field in order})
    if kind == "spacing":
        gap = draw(st.sampled_from(("", "  ", "\t", " \t")))
        return _splice(draw, line, "[,:] ", lambda sep: sep[0] + gap)
    if kind == "duplicate-key":
        exponent = draw(st.sampled_from(("0", "1", "-1", "01", "-0", "+1", " 1")))
        coeff = draw(st.integers(-3, 3))
        return line.replace('"coeffs": {', f'"coeffs": {{"{exponent}": {coeff}, ', 1)
    if kind == "flag-number":
        return line.replace("true", "1").replace("false", "0")
    if kind == "long-number":
        digits = draw(st.sampled_from((638, 639, 640, 5000)))
        return _splice(draw, line, "(?<=: )-?[0-9]+(?=[,}])", lambda _: "9" * digits)
    if kind == "engine":
        version = draw(st.sampled_from(("0.0.9", "0.1.1", "0.1.0 ")))
        return line.replace(invariants.ENGINE_VERSION, version, 1)
    if kind == "crlf":
        return line + "\r"
    return line[:draw(st.integers(0, len(line)))]


@st.composite
def mutated_lines(draw):
    line = draw(st.sampled_from(ENGINE_LINES))
    for _ in range(draw(st.integers(1, 3))):
        line = draw(_mutation(line))
    return line


@st.composite
def cache_files(draw):
    """Text of a cache file: engine lines, duplicated or mutated, and blanks."""
    lines = draw(st.lists(
        st.one_of(st.sampled_from(ENGINE_LINES), mutated_lines(), st.sampled_from(("", " \t"))),
        min_size=1, max_size=8,
    ))
    text = "\n".join(lines)
    return text if draw(st.booleans()) else text + "\n"


# -- the two paths agree ------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(mutated_lines())
def test_a_line_the_pattern_accepts_decodes_as_its_full_parse(line):
    line = line.strip()
    match = invariants._CACHE_LINE.fullmatch(line)
    if match is None:
        return
    key, rec = invariants._parse_cache_line(line)
    assert invariants._key_of(match["key"]) == key
    assert InvariantTable()._key_text(key) == match["key"]
    decoded = invariants._decoded(match)
    assert decoded == rec and type(decoded.extrapolated) is bool


def _coeffs_text(text: str) -> str:
    return re.sub(r'"coeffs": \{[^}]*\}', lambda _: f'"coeffs": {text}', ENGINE_LINES[0])


@pytest.mark.parametrize("line", (
    _coeffs_text('{"0": ' + "9" * 5000 + "}"),  # past the digit limit
    _coeffs_text('{"0": ' + "9" * 640 + "}"),
    _coeffs_text('{"1": 1, "01": 2}'),  # two keys for one exponent
    _coeffs_text('{"-0": 1}'),
    _coeffs_text('{"\u0662": 1}'),  # an Arabic-Indic two
    _coeffs_text('{"0": 01}'),
    ENGINE_LINES[0].replace("[0, 0]", "[-0, 0]", 1),
    ENGINE_LINES[0].replace('"genus": 0', '"genus": 00', 1),
    ENGINE_LINES[0].replace("false", "0").replace("true", "1"),
    ENGINE_LINES[0].replace(", ", ",", 1),
    ENGINE_LINES[0].replace(invariants.ENGINE_VERSION, "0.0.9", 1),
))
def test_the_pattern_refuses_what_the_writer_never_writes(line):
    assert line != ENGINE_LINES[0]
    assert invariants._CACHE_LINE.fullmatch(line) is None


def test_the_longest_number_the_pattern_accepts_decodes_at_the_lowest_digit_limit():
    line = _with_coeffs(ENGINE_LINES[0], {"0": int("9" * 639)})
    match = invariants._CACHE_LINE.fullmatch(line)
    assert match is not None
    assert invariants._CACHE_LINE.fullmatch(line.replace("9" * 639, "9" * 640)) is None
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        assert invariants._decoded(match) == invariants._parse_cache_line(line)[1]
    finally:
        sys.set_int_max_str_digits(limit)


def _outcome(path, text, requests):
    """What loading a cache file holding text gives: the table's records and
    stats, or its error, then each CLI request's exit code, stdout and stderr,
    and the file's bytes after them."""
    path.write_text(text, encoding="utf-8", newline="")
    try:
        table = InvariantTable(cache_path=str(path))
        loaded = (table.items(), table.cache_stats())
    except InvariantError as err:
        loaded = str(err)
    answers = []
    for argv in requests:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(["--cache", str(path), *argv])
        answers.append((code, out.getvalue(), err.getvalue()))
    return loaded, answers, path.read_bytes()


FILE_REQUESTS = (
    ["cache", "stats"],
    ["compute", "--polygon", "rect:2,2", "--pairs", "0..2"],
    ["compute", "--polygon", "p2:4", "--genus", "0..2", "--emit", "json"],
)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(cache_files())
def test_a_cache_file_loads_and_answers_as_when_every_line_is_parsed(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cache.jsonl"
        indexed = _outcome(path, text, FILE_REQUESTS)
        with mock.patch.object(invariants, "_CACHE_LINE", NEVER):
            parsed = _outcome(path, text, FILE_REQUESTS)
    assert indexed == parsed


# -- the pattern is the writer's line ----------------------------------------


def _warm_cache_populate() -> list[list[str]]:
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    with mock.patch.dict(sys.modules, {spec.name: workloads}):  # its dataclasses look it up
        spec.loader.exec_module(workloads)
    populate = workloads.WORKLOADS["warm-cache"].populate
    return [list(request.resolve("", "{cache}"))[2:] for request in populate]


def test_every_line_the_engine_writes_takes_the_indexed_path(tmp_path):
    path = tmp_path / "cache.jsonl"
    _write_cache(path, _warm_cache_populate())
    table = InvariantTable(cache_path=str(path))
    polygons = small_polygons()
    for polygon in polygons:
        for pairs in range(min(2, invariants.max_pairs(polygon)) + 1):
            try:
                table.record(polygon, 0, pairs)
            except StuckError:
                break
        table.record(polygon, 1, 0)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert len(lines) > len(polygons)
    assert [line for line in lines if not invariants._CACHE_LINE.fullmatch(line)] == []
    verified = _verified(path)
    # no line takes the full parse, and each reads back as the writer stored
    # it; a verifying load, which builds every polygon and recomputes, ends
    # as it does with the full parse in place
    with mock.patch.object(invariants, "_parse_cache_line", None):
        reread = InvariantTable(cache_path=str(path))
        assert _verified(path) == verified
    assert dict(reread.items()) == dict(table.items())
    if not isinstance(verified, str):
        assert dict(verified) == dict(table.items())


def _verified(path):
    """The records of a verifying load of the cache file, or its error."""
    try:
        return InvariantTable(cache_path=str(path), verify_cache=True).items()
    except InvariantError as err:
        return str(err)


def test_a_cache_the_engine_wrote_verifies(tmp_path):
    # an extrapolated pair value can depend on the cut corner: the mirror
    # image gives q^-2 + 6q^-1 + 18 + 6q + q^2 where this one gives 20, so
    # the line keys the image the engine computed, which verifying rebuilds
    path = tmp_path / "cache.jsonl"
    polygon = HPolygon([(0, 2), (2, 0), (4, 0), (1, 3)])
    assert polygon.vertices != polygon.canonical_key()
    InvariantTable(cache_path=str(path)).record(polygon, 0, 1)
    InvariantTable(cache_path=str(path), verify_cache=True)


def _old_line(key, rec) -> str:
    """The line the writer wrote as json.dumps of one dict of its fields."""
    return json.dumps({
        "engine": invariants.ENGINE_VERSION,
        "polygon": [list(v) for v in key.polygon],
        "genus": key.genus,
        "pairs": key.pairs,
        "coeffs": rec.value.to_json_dict(),
        "extrapolated": rec.extrapolated,
    })


def test_the_writer_writes_json_dumps_of_the_fields_in_order(tmp_path):
    # files written by either form of the writer are interchangeable
    path = tmp_path / "cache.jsonl"
    path.write_text("".join(line + "\n" for line in ENGINE_LINES), encoding="utf-8")
    # above the interior point count the value is the zero polynomial; the
    # library writes it, the CLI refuses to ask for it
    InvariantTable(cache_path=str(path)).record(HPolygon.p2_triangle(3), 2, 0)
    lines = path.read_text(encoding="utf-8").splitlines()
    records = InvariantTable(cache_path=str(path)).items()
    assert {rec.extrapolated for _, rec in records} == {False, True}
    assert any(rec.value.to_json_dict() == {} for _, rec in records)
    assert any(min(rec.value.to_coeff_dict(), default=0) < 0 for _, rec in records)
    assert lines == [_old_line(key, rec) for key, rec in records]


def test_a_respaced_twin_of_an_engine_file_verifies_alike(tmp_path):
    # the twin takes the full parse on every line, the engine file none
    engine, twin = tmp_path / "engine.jsonl", tmp_path / "twin.jsonl"
    engine.write_text("".join(line + "\n" for line in ENGINE_LINES), encoding="utf-8")
    twin.write_text("".join(_respaced(line) + "\n" for line in ENGINE_LINES), encoding="utf-8")
    tables = [InvariantTable(cache_path=str(path), verify_cache=True) for path in (engine, twin)]
    assert tables[0].items() == tables[1].items()
    stats = [{**table.cache_stats(), "path": None} for table in tables]
    assert stats[0] == stats[1] and stats[0]["records"] == len(ENGINE_LINES)


@pytest.mark.parametrize("span", (["--genus", "0..3"], ["--pairs", "0..5"]))
def test_a_warm_request_leaves_the_cache_file_as_it_was(tmp_path, capsys, span):
    path = tmp_path / "cache.jsonl"
    argv = ["--cache", str(path), "compute", "--polygon", "p2:4", *span]
    assert cli.main(argv) == 0
    cold = capsys.readouterr()
    written = path.read_bytes()
    assert cli.main(argv) == 0
    assert capsys.readouterr() == cold
    assert path.read_bytes() == written


# -- conflicts and the order of errors ----------------------------------------


@pytest.mark.parametrize("respaced_first", (False, True))
def test_a_respaced_line_conflicts_with_a_canonical_one(tmp_path, respaced_first):
    path = tmp_path / "cache.jsonl"
    canonical = ENGINE_LINES[0]
    other = _respaced(_with_coeffs(canonical, {"0": 7}))
    assert invariants._CACHE_LINE.fullmatch(canonical)
    assert not invariants._CACHE_LINE.fullmatch(other)
    lines = [other, canonical] if respaced_first else [canonical, other]
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    key = invariants._parse_cache_line(canonical)[0]
    with pytest.raises(InvariantError) as info:
        InvariantTable(cache_path=str(path))
    assert str(info.value) == f"conflicting cache entries for {key}"


@pytest.mark.parametrize("respaced_first", (False, True))
def test_an_explicit_zero_duplicate_does_not_conflict(tmp_path, respaced_first):
    path = tmp_path / "cache.jsonl"
    canonical = ENGINE_LINES[0]
    key, rec = invariants._parse_cache_line(canonical)
    zero = _with_coeffs(canonical, {**rec.value.to_json_dict(), "9": 0})
    for other in (zero, _respaced(zero)):
        lines = [other, canonical] if respaced_first else [canonical, other]
        path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        table = InvariantTable(cache_path=str(path))
        assert table.items() == ((key, rec),)
        assert table.cache_stats()["records"] == 1


@pytest.mark.parametrize("verify", (False, True))
def test_of_two_bad_lines_the_error_names_the_first(tmp_path, verify):
    path = tmp_path / "cache.jsonl"
    good = ENGINE_LINES[0]
    # a line in the engine's form whose polygon is not convex: only a
    # verifying load builds the polygon, so only it finds the line bad
    concave = json.loads(good)
    concave["polygon"] = [[0, 0], [2, 0], [1, 1], [2, 2], [0, 2]]
    concave = json.dumps(concave)
    assert invariants._CACHE_LINE.fullmatch(concave)
    with pytest.raises(ValueError):
        HPolygon(json.loads(concave)["polygon"])
    lines = [good, concave, "[]", _respaced(_with_coeffs(good, {"0": 7})), "{"]
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    with pytest.raises(InvariantError) as info:
        InvariantTable(cache_path=str(path), verify_cache=verify)
    assert str(info.value).startswith(f"malformed cache line {2 if verify else 3} of {path}: ")


# -- the scan against a loop over the split lines -----------------------------


def _load_line_by_line(self):
    """InvariantTable._load_cache as one loop over the file's text split at
    each newline, stripping and matching line by line: the reference that
    the one-scan load must agree with, records, counts and errors alike."""
    index = self._index
    with open(self._cache_path, encoding="utf-8") as handle:
        try:
            lines = handle.read().split("\n")
        except UnicodeDecodeError as err:
            number = err.object.count(b"\n", 0, err.start) + 1
            raise InvariantError(
                f"malformed cache line {number} of {self._cache_path}: not UTF-8"
            ) from None
        tail = lines.pop()
        if tail.strip():
            self._torn_cache_lines += 1
            end = os.fstat(handle.fileno()).st_size
            self._torn = (end - len(tail.encode("utf-8")), end)
    for number, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            entry = invariants._CACHE_LINE.fullmatch(line)
            if entry is not None:
                text = entry["key"]
            else:
                parsed = invariants._parse_cache_line(line)
                if parsed is None:
                    self._stale_cache_lines += 1
                    continue
                key, entry = parsed
                text = self._key_text(key)
            if self._verify_cache:
                HPolygon(invariants._key_of(text).polygon)
        except ValueError as err:
            raise InvariantError(
                f"malformed cache line {number} of {self._cache_path}: {err}"
            ) from None
        known = index.get(text)
        if known is not None and invariants._decoded(known).value != invariants._decoded(entry).value:
            raise InvariantError(f"conflicting cache entries for {invariants._key_of(text)}")
        index[text] = entry
    if self._verify_cache:
        scratch = InvariantTable()
        for key, rec in self.items():
            fresh = scratch.record(HPolygon(key.polygon), key.genus, key.pairs)
            if fresh.value != rec.value:
                raise InvariantError(
                    f"cache verification failed for {key}: "
                    f"{rec.value.to_json_dict()} cached, "
                    f"{fresh.value.to_json_dict()} recomputed"
                )


def _variants(line: str) -> tuple[str, ...]:
    """line, and the forms of it a scan line by line must treat alike: CRLF,
    padded, stale, with a 640-digit or a -0 number, or respaced to conflict."""
    return (
        line,
        line + "\r",
        " \t" + line + "  ",
        "\x0c" + line + "\x1f",
        line.replace(invariants.ENGINE_VERSION, "0.0.9", 1),
        re.sub("(?<=: )[1-9][0-9]*(?=[,}])", "9" * 640, line, count=1),
        re.sub("(?<=: )[1-9][0-9]*(?=[,}])", "-0", line, count=1),
        _respaced(_with_coeffs(line, {"0": 7})),
    )


@st.composite
def mixed_cache_files(draw):
    """Engine lines mixed with their variants, blanks and malformed lines,
    each ending in a newline but the last, which may be torn."""
    pool = [variant for line in ENGINE_LINES for variant in _variants(line)]
    lines = draw(st.lists(
        st.one_of(
            st.sampled_from(ENGINE_LINES),
            st.sampled_from(pool),
            st.sampled_from(("", " ", "\t\r", "{", "[]", "\x85")),
        ),
        min_size=1, max_size=10,
    ))
    text = "".join(line + "\n" for line in lines)
    tail = draw(st.sampled_from(("", "", ENGINE_LINES[0][:40], " \t", ENGINE_LINES[-1])))
    return text + tail


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(mixed_cache_files())
def test_the_scan_loads_and_answers_as_a_loop_over_the_lines(text):
    requests = FILE_REQUESTS + (["cache", "verify"],)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cache.jsonl"
        scanned = _outcome(path, text, requests)
        with mock.patch.object(InvariantTable, "_load_cache", _load_line_by_line):
            looped = _outcome(path, text, requests)
    assert scanned == looped


@pytest.mark.parametrize("bad", ("{", "[]", "  {\r", "-0", _respaced(ENGINE_LINES[1])[:-1]))
def test_an_error_names_the_line_the_loop_names(tmp_path, bad):
    path = tmp_path / "cache.jsonl"
    lines = [ENGINE_LINES[0] + "\r", " ", bad, ENGINE_LINES[1], "{"]
    text = "".join(line + "\n" for line in lines)
    outcomes = []
    for load in (InvariantTable._load_cache, _load_line_by_line):
        with mock.patch.object(InvariantTable, "_load_cache", load):
            outcomes.append(_outcome(path, text, FILE_REQUESTS))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][0].startswith(f"malformed cache line 3 of {path}: ")


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.one_of(cache_files(), mixed_cache_files()))
def test_the_scan_loads_and_answers_as_when_every_line_is_parsed(text):
    # the scan's engine branch and the stripped line's match both disabled,
    # so every line takes _parse_cache_line
    every_line_parsed = {"_CACHE_LINE": NEVER, "_SCAN": re.compile(r"(?P<other>[^\n]*)\n")}
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cache.jsonl"
        scanned = _outcome(path, text, FILE_REQUESTS)
        with mock.patch.multiple(invariants, **every_line_parsed):
            parsed = _outcome(path, text, FILE_REQUESTS)
    assert scanned == parsed
