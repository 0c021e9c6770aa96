"""Loader for the golden reference tables shipped with the package."""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources

from .laurent import LaurentPoly

SURFACES = ("QH", "Sigma2")
_FIELDS = ("surface", "a", "b", "genus", "pairs", "coeffs")


@dataclass(frozen=True)
class ReferenceRow:
    surface: str
    a: int
    b: int
    genus: int
    pairs: int
    value: LaurentPoly

    def spec(self) -> str:
        return surface_spec(self.surface, self.a, self.b)

    def label(self) -> str:
        return f"{self.spec()} g={self.genus} s={self.pairs}"


def surface_spec(surface: str, a: int, b: int) -> str:
    """The named spec of the class (a, b): "rect:a,b" on QH, "sigma2:a,b" on Sigma2."""
    return f"{'rect' if surface == 'QH' else 'sigma2'}:{a},{b}"


def read_json(path: str):
    """Parse a JSON file; a syntax error or a byte that is not UTF-8 is a
    ValueError that names the file."""
    with open(path, encoding="utf-8") as handle:
        try:
            return json.load(handle)
        except json.JSONDecodeError as err:
            raise ValueError(f"malformed JSON in {path}: {err}") from None
        except UnicodeDecodeError as err:
            raise ValueError(f"not UTF-8: byte {err.start} of {path}") from None


def _load(path: str | None = None) -> dict:
    if path is not None:
        return read_json(path)
    ref = resources.files(__package__).joinpath("data/appendix_tables.json")
    return json.loads(ref.read_text(encoding="utf-8"))


def _row(raw) -> ReferenceRow:
    """One golden row from its JSON object; ValueError says what is wrong."""
    if not isinstance(raw, dict):
        raise ValueError("not a JSON object")
    missing = [field for field in _FIELDS if field not in raw]
    if missing:
        raise ValueError(f"missing {', '.join(missing)}")
    if raw["surface"] not in SURFACES:
        raise ValueError(f"unknown surface {raw['surface']!r}")
    # a bool or a float would pass int() and replay another cell
    a, b, genus, pairs = (raw[field] for field in _FIELDS[1:5])
    if any(type(x) is not int for x in (a, b, genus, pairs)):
        raise ValueError("a, b, genus and pairs must be integers")
    least_b = 1 if raw["surface"] == "QH" else 0  # rect:a,0 has no area
    if a < 1 or b < least_b or genus < 0 or pairs < 0:
        raise ValueError(f"needs a >= 1, b >= {least_b}, genus >= 0 and pairs >= 0")
    if not isinstance(raw["coeffs"], dict):
        raise ValueError("coeffs must be a JSON object")
    value = LaurentPoly.from_json_dict(raw["coeffs"])
    return ReferenceRow(raw["surface"], a, b, genus, pairs, value)


def reference_rows(path: str | None = None) -> tuple[ReferenceRow, ...]:
    """All golden rows, optionally from an alternative fixture file."""
    data = _load(path)
    where = path if path is not None else "bundled tables"
    if not isinstance(data, dict) or not isinstance(data.get("rows"), list):
        raise ValueError(f"{where}: expected a JSON object with a rows list")
    rows = []
    for number, raw in enumerate(data["rows"], start=1):
        try:
            rows.append(_row(raw))
        except ValueError as err:
            raise ValueError(f"malformed row {number} of {where}: {err}") from None
    return tuple(rows)


def reference_value(surface: str, a: int, b: int, genus: int, pairs: int = 0,
                    path: str | None = None) -> LaurentPoly:
    for row in reference_rows(path):
        if (row.surface, row.a, row.b, row.genus, row.pairs) == (
            surface, a, b, genus, pairs,
        ):
            return row.value
    raise KeyError(f"no reference row for {surface} ({a},{b}) g={genus} s={pairs}")
