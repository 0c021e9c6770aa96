"""Invariant tables keyed by (polygon, genus, conjugate pair count).

The pair count s refines genus-0 values: s = 0 is the plain refined count,
and each extra pair is removed through the blow-up recursion

    value(polygon, s) = value(polygon, s-1) - 2 * value(corner_cut(polygon), s-1).

Cutting a corner of depth 2 models the class d - 2E after blowing up a toric
fixed point.  When no corner admits the cut there are two cases.  If the
polygon has no interior lattice points the class d - 2E has negative
arithmetic genus, so it carries no curves and the correction term vanishes.
Otherwise the class is nonempty but none of its curves are reachable by a
toric-fixed-point cut (every candidate corner either lacks room or sits on a
divisor of negative self-intersection, where the fixed point is not a generic
point of the surface); the recursion is stuck and we raise StuckError rather
than return a wrong value.
"""

from __future__ import annotations

import json
import os
import re
from typing import NamedTuple

from .floordiag import MAX_HEIGHT, refined_invariant as _direct_invariant, refined_invariants
from .laurent import LaurentPoly
from .polygon import HPolygon

ENGINE_VERSION = "0.1.0"
CACHE_ENV_VAR = "FLOORDIAGRAMS_CACHE"  # read by the CLI; a table uses the path it is given


class InvariantError(ValueError):
    """A request the tables cannot answer.

    trace holds the recursion trace of the failed request once a caller that
    wants to report it has built one.
    """

    trace: dict | None = None


class StuckError(InvariantError):
    """A value the pair recursion cannot reach; see _stuck_error."""


def _stuck_error(polygon) -> StuckError:
    """Error for a nonempty class d - 2E that no corner cut reaches."""
    if polygon.has_room_for_cut():
        detail = (
            "every corner with room for a depth-2 cut touches a divisor of "
            "negative self-intersection"
        )
    else:
        detail = "no corner has room for a depth-2 cut"
    return StuckError(
        f"pair recursion is stuck on {polygon!r}: the class d - 2E is "
        f"nonempty but {detail}"
    )


def max_pairs(polygon) -> int:
    """Largest admissible pair count: half the genus-0 point count."""
    return polygon.point_count(0) // 2


class InvariantKey(NamedTuple):
    """Table key; its polygon part is the vertex tuple of the polygon as given."""

    polygon: tuple
    genus: int
    pairs: int

    @classmethod
    def make(cls, polygon, genus: int, pairs: int) -> "InvariantKey":
        if genus < 0 or pairs < 0:
            raise InvariantError("genus and pairs must be >= 0")
        if pairs > 0 and genus != 0:
            raise InvariantError("conjugate pairs only refine genus 0")
        # refused here too, so a request fails before any record is computed
        if polygon.height > MAX_HEIGHT:
            raise InvariantError(
                f"{polygon!r} has height {polygon.height}, above the bound of {MAX_HEIGHT}"
            )
        if pairs > max_pairs(polygon):
            raise InvariantError(
                f"pairs = {pairs} exceeds half the point count of {polygon!r}"
            )
        return cls(polygon.vertices, genus, pairs)


class InvariantRecord(NamedTuple):
    value: LaurentPoly
    extrapolated: bool


_FIELDS = ("polygon", "genus", "pairs", "coeffs", "extrapolated")


# The line _append_cache writes: json.dumps of the engine version and _FIELDS
# in that order, with its default separators, with holes for the key text and
# the json.dumps of coeffs and flag.  _CACHE_LINE is its pattern, each hole
# replaced by the pattern of what fills it.  A line it matches is valid by
# construction: integers are canonical (no leading zeros, no -0, so two
# exponent keys never name one exponent) and shorter than 640 digits, the
# lowest int_max_str_digits limit, so decoding it later cannot fail.  [0-9],
# because \d also matches non-ASCII digits.
_TEMPLATE = '{"engine": "' + ENGINE_VERSION + '", "polygon": %s, "coeffs": %s, "extrapolated": %s}'
_NATURAL = r"(?:0|[1-9][0-9]{0,638})"
_INTEGER = r"(?:0|-?[1-9][0-9]{0,638})"
_VERTEX = rf"\[{_INTEGER}, {_INTEGER}\]"
_TERM = rf'"{_INTEGER}": {_INTEGER}'
_CACHE_LINE = re.compile(re.escape(_TEMPLATE) % (
    rf'(?P<key>\[{_VERTEX}(?:, {_VERTEX})*\], "genus": {_NATURAL}, "pairs": {_NATURAL})',
    rf"(?P<coeffs>\{{(?:{_TERM}(?:, {_TERM})*)?\}})",
    "(?P<flag>true|false)",
))
# one line of a cache file and its newline: an engine line, or any other,
# which the load strips, matches again and, failing that, parses in full
_SCAN = re.compile(rf"(?:{_CACHE_LINE.pattern}|(?P<other>[^\n]*))\n")


def _decoded(entry) -> InvariantRecord:
    """The record of a cache index entry: a line _CACHE_LINE matched, or the
    record _parse_cache_line already decoded."""
    if type(entry) is InvariantRecord:
        return entry
    coeffs = LaurentPoly.from_json_dict(json.loads(entry["coeffs"]))
    return InvariantRecord(coeffs, entry["flag"] == "true")


def _key_of(text: str) -> InvariantKey:
    """Inverse of InvariantTable._key_text."""
    entry = json.loads('{"polygon": ' + text + "}")
    return InvariantKey(tuple(map(tuple, entry["polygon"])), entry["genus"], entry["pairs"])


def _parse_cache_line(line: str):
    """(key, record) stored on a line _CACHE_LINE does not match (stale,
    hand-spaced or malformed), or None for a stale line: one of another
    engine version, or a zero-area cut remainder written by an earlier build."""
    entry = json.loads(line)
    if type(entry) is not dict:
        raise ValueError("not a JSON object")
    if entry.get("engine") != ENGINE_VERSION or entry.get("polygon") == "degenerate":
        return None
    missing = [field for field in _FIELDS if field not in entry]
    if missing:
        raise ValueError(f"missing {', '.join(missing)}")
    polygon, genus, pairs, coeffs, extrapolated = (entry[field] for field in _FIELDS)
    # type and shape checks only: a bool, a float or a string would compare
    # equal to, or be coerced into, a valid field and serve a wrong answer
    if type(genus) is not int or type(pairs) is not int or genus < 0 or pairs < 0:
        raise ValueError("genus and pairs must be integers >= 0")
    if type(extrapolated) is not bool:
        raise ValueError("extrapolated must be true or false")
    if type(polygon) is not list or any(type(v) is not list or len(v) != 2 for v in polygon):
        raise ValueError("polygon must be a list of [x, y] integer pairs")
    if any(type(c) is not int for v in polygon for c in v):
        raise ValueError("polygon coordinates must be integers")
    if type(coeffs) is not dict:
        raise ValueError("coeffs must be a JSON object")
    return (
        InvariantKey(tuple(map(tuple, polygon)), genus, pairs),
        InvariantRecord(LaurentPoly.from_json_dict(coeffs), extrapolated),
    )


class InvariantTable:
    """Memoized store of refined invariants with an optional JSONL cache at
    cache_path; no cache path means none, whatever the environment says.

    Loading is one scan of the file's lines.  A line in the exact form
    _append_cache writes is only indexed by its key text; its value is
    decoded when a lookup first reads it.  Any other line (stale, spaced
    differently or malformed) is parsed in full at load, so every error
    names its line.  With verify_cache each entry's polygon is built from
    its key text at its line, and every record is then recomputed.

    Each record carries an extrapolated flag: True when some recursion step
    was taken at a polygon whose toric surface is not a smooth del Pezzo of
    degree >= 7, i.e. beyond the range where the blow-up recursion is backed
    by direct diagram counts.
    """

    def __init__(self, cache_path: str | None = None, verify_cache: bool = False):
        self._records: dict[InvariantKey, InvariantRecord] = {}
        self._stuck: dict[InvariantKey, str] = {}  # raised again, never cached
        self._cache_path = cache_path
        self._verify_cache = verify_cache
        self._stale_cache_lines = 0
        self._torn_cache_lines = 0
        self._torn: tuple[int, int] | None = None  # byte span of a torn last line
        self._cuts: dict[HPolygon, tuple] = {}
        self._sweeps: dict[tuple, tuple[LaurentPoly, ...]] = {}  # descendant_value_set's memo
        self._polygons: dict[str, HPolygon] = {}
        # the cache by key text, in file order: a matched line or a decoded record
        self._index: dict[str, re.Match | InvariantRecord] = {}
        self._polygon_texts: dict[tuple, str] = {}
        if self._cache_path and os.path.exists(self._cache_path):
            self._load_cache()

    # -- public API --------------------------------------------------------

    def polygon(self, spec: str) -> HPolygon:
        """The polygon of a named spec, built once per table, so once per request."""
        if spec not in self._polygons:
            self._polygons[spec] = HPolygon.from_spec(spec)
        return self._polygons[spec]

    def refined_invariant(self, polygon, genus: int) -> LaurentPoly:
        return self.record(polygon, genus, 0).value

    def refined_descendant(self, polygon, pairs: int) -> LaurentPoly:
        return self.record(polygon, 0, pairs).value

    def gw_value(self, polygon, genus: int) -> int:
        """Count of complex curves: the refined value at q = 1."""
        return self.refined_invariant(polygon, genus).evaluate(1)

    def welschinger_value(self, polygon, pairs: int) -> int:
        """Signed real count with the given conjugate pairs: value at q = -1."""
        return self.refined_descendant(polygon, pairs).evaluate(-1)

    def record(self, polygon, genus: int, pairs: int) -> InvariantRecord:
        key = InvariantKey.make(polygon, genus, pairs)
        rec = self._known(key)
        if rec is not None:
            return rec
        if key in self._stuck:
            raise StuckError(self._stuck[key])
        try:
            rec = self._compute(polygon, genus, pairs)
        except StuckError as err:
            self._stuck[key] = str(err)
            raise
        self._records[key] = rec
        self._append_cache(key, rec)
        return rec

    def genus_records(self, polygon, genera) -> list[InvariantRecord]:
        """The pairs = 0 records of the genera, an ascending sequence, in
        order.  Memoized and cached ones are reused; the rest come from one
        refined_invariants call, one walk per run of consecutive missing
        genera, and are stored and appended in ascending genus order."""
        keys = [InvariantKey.make(polygon, genus, 0) for genus in genera]
        missing = [key.genus for key in keys if self._known(key) is None]
        if missing:
            values = refined_invariants(polygon, missing)
            for key in keys:
                if key.genus in values:
                    rec = self._records[key] = InvariantRecord(values[key.genus], False)
                    self._append_cache(key, rec)
        return [self._records[key] for key in keys]

    def items(self):
        """Every record: the cached ones in file order, each decoded now if no
        lookup has read it yet, then the ones computed here."""
        records = {key: self._known(key) for key in map(_key_of, self._index)}
        records.update(self._records)
        return tuple(records.items())

    # -- computation ---------------------------------------------------------

    def _children(self, polygon, every: bool = False):
        """The (corner, polygon) children of a pair-recursion node, each one
        pair lower: the polygon itself with corner None, then its cut at the
        first admissible corner, or with every at each one.

        No cut follows when no corner admits one and the polygon has no
        interior lattice points: d - 2E then has negative arithmetic genus,
        so the correction term is an empty count.  Raises StuckError when the
        class is nonempty.  The search runs once per table and polygon, and
        only after the first child is read, so its record comes first.
        """
        yield None, polygon
        options = self._cuts.get(polygon)
        if options is None:
            options = self._cuts[polygon] = polygon.admissible_cuts()
        if not options and polygon.interior_lattice_count() > 0:
            raise _stuck_error(polygon)
        yield from options if every else options[:1]

    def _compute(self, polygon, genus: int, pairs: int) -> InvariantRecord:
        if pairs == 0:
            return InvariantRecord(_direct_invariant(polygon, genus), False)
        # the polygon's own column is filled from its lowest missing pair
        # count up, so the recursion nests once per polygon, not per pair
        low = pairs - 1
        while low and self._known(InvariantKey(polygon.vertices, 0, low - 1)) is None:
            low -= 1
        for s in range(low, pairs - 1):
            self.record(polygon, 0, s)
        children = self._children(polygon)
        full = self.record(next(children)[1], 0, pairs - 1)
        value = full.value
        extrapolated = not polygon.has_small_del_pezzo_fan() or full.extrapolated
        for _, cut in children:
            sub = self.record(cut, 0, pairs - 1)
            value = value - 2 * sub.value
            extrapolated = extrapolated or sub.extrapolated
        return InvariantRecord(value, extrapolated)

    def descendant_value_set(self, polygon, pairs: int) -> tuple[LaurentPoly, ...]:
        """Every value reachable by varying the cut corner at every step.

        The recursion claims corner independence, so this should always be a
        single value; the sweep is what the independence test runs.  Its
        memo on (polygon, pairs) is the table's, so a sweep reuses the
        values of every earlier one.
        """
        memo = self._sweeps

        def sweep(poly, s) -> tuple[LaurentPoly, ...]:
            key = (poly, s)
            try:
                return memo[key]
            except KeyError:
                pass
            if s == 0:
                out = (self.refined_invariant(poly, 0),)
            else:
                children = self._children(poly, every=True)
                base = sweep(next(children)[1], s - 1)
                values = {v_full - 2 * v_cut for _, cut in children
                          for v_full in base for v_cut in sweep(cut, s - 1)}
                out = tuple(sorted(values, key=lambda p: tuple(p.to_coeff_dict().items()))) or base
            memo[key] = out
            return out

        return sweep(polygon, pairs)

    def recursion_trace(self, polygon, pairs: int) -> dict:
        """Unfolding of the recursion, for mismatch and blockage reports.

        Each node holds the polygon, its pair count and its value or error.
        Above pairs = 0 it also holds the cut "corner" (None when the
        correction term is an empty count) and "children": the same polygon
        and its cut, one pair lower.  The walk is memoized on (polygon,
        pairs): only the first occurrence of a key is expanded, and later
        ones are "repeat" nodes without children.  A blocked node, where
        no corner admits the cut of a nonempty class, ends its branch.
        """
        visited: set[tuple] = set()

        def walk(poly, s) -> dict:
            node = {"polygon": [list(v) for v in poly.vertices], "pairs": s}
            key = (poly, s)
            if key in visited:
                node["repeat"] = True
                return node
            visited.add(key)
            try:
                rec = self.record(poly, 0, s)
            except StuckError as err:
                node["error"] = str(err)
            else:
                node["value"] = rec.value.to_json_dict()
                node["extrapolated"] = rec.extrapolated
            if s == 0:
                return node
            try:
                children = list(self._children(poly))
            except StuckError:
                return node
            node["corner"] = children[-1][0] and list(children[-1][0])
            node["children"] = [walk(child, s - 1) for _, child in children]
            return node

        return walk(polygon, pairs)

    # -- cache ---------------------------------------------------------------

    def _key_text(self, key: InvariantKey) -> str:
        """The text a cache line written for key holds from its polygon up to
        its pair count; the polygon part is built once per table."""
        try:
            polygon = self._polygon_texts[key.polygon]
        except KeyError:
            polygon = self._polygon_texts[key.polygon] = json.dumps([list(v) for v in key.polygon])
        return f'{polygon}, "genus": {key.genus}, "pairs": {key.pairs}'

    def _known(self, key: InvariantKey) -> InvariantRecord | None:
        """The record of key this table has read or computed, else the
        cache's, decoded and memoized on its first read; None if neither
        holds it."""
        rec = self._records.get(key)
        if rec is None and self._index:
            entry = self._index.get(self._key_text(key))
            if entry is not None:
                rec = self._records[key] = _decoded(entry)
        return rec

    def _load_cache(self):
        index = self._index
        with open(self._cache_path, encoding="utf-8") as handle:
            try:
                content = handle.read()
            except UnicodeDecodeError as err:
                # err.object holds the whole file: read() decodes it at once
                number = err.object.count(b"\n", 0, err.start) + 1
                raise InvariantError(
                    f"malformed cache line {number} of {self._cache_path}: not UTF-8"
                ) from None
            end = content.rfind("\n") + 1
            tail = content[end:]
            if tail.strip():
                # only the last line can lack its newline: a crash cut it
                # short, so it is skipped, and the next append cuts it off
                self._torn_cache_lines += 1
                size = os.fstat(handle.fileno()).st_size
                self._torn = (size - len(tail.encode("utf-8")), size)
        verify, match = self._verify_cache, _CACHE_LINE.fullmatch
        for found in _SCAN.finditer(content, 0, end):
            line = found["other"]
            if line is not None:
                line = line.strip()
                if not line:
                    continue
            try:
                entry = found if line is None else match(line)
                if entry is not None:
                    text = entry["key"]
                else:
                    parsed = _parse_cache_line(line)
                    if parsed is None:
                        self._stale_cache_lines += 1
                        continue
                    key, entry = parsed
                    text = self._key_text(key)
                if verify:  # a polygon that is not convex fails at its line
                    HPolygon(_key_of(text).polygon)
            except ValueError as err:  # the shape checks leave no TypeError
                number = content.count("\n", 0, found.start()) + 1
                raise InvariantError(
                    f"malformed cache line {number} of {self._cache_path}: {err}"
                ) from None
            known = index.get(text)
            if known is not None and _decoded(known).value != _decoded(entry).value:
                raise InvariantError(f"conflicting cache entries for {_key_of(text)}")
            index[text] = entry
        if verify:
            scratch = InvariantTable()
            for key, rec in self.items():
                fresh = scratch.record(HPolygon(key.polygon), key.genus, key.pairs)
                if fresh.value != rec.value:
                    raise InvariantError(
                        f"cache verification failed for {key}: "
                        f"{rec.value.to_json_dict()} cached, "
                        f"{fresh.value.to_json_dict()} recomputed"
                    )

    def _append_cache(self, key: InvariantKey, rec: InvariantRecord):
        if not self._cache_path:
            return
        with open(self._cache_path, "a", encoding="utf-8") as handle:
            if self._torn and handle.tell() == self._torn[1]:
                # left in place, the fragment would become a malformed line
                # that is no longer the last one
                handle.truncate(self._torn[0])
            self._torn = None
            handle.write(_TEMPLATE % (self._key_text(key), json.dumps(rec.value.to_json_dict()),
                                      json.dumps(rec.extrapolated)) + "\n")

    def cache_stats(self) -> dict:
        return {
            "path": self._cache_path,
            "records": len(self.items()),
            "stale_lines": self._stale_cache_lines,
            "torn_lines": self._torn_cache_lines,
        }
