import importlib
import json
import shutil
import sys
from pathlib import Path

import pytest

from floordiagrams import fixtures
from floordiagrams.fixtures import SURFACES, reference_rows, reference_value
from floordiagrams.invariants import InvariantError
from floordiagrams.laurent import LaurentPoly
from floordiagrams.polygon import HPolygon

# cells where the engine provably disagrees with the stored tables
DIVERGING = {
    ("QH", 2, 4, 0, 5): 40,  # stored central coefficient is 36
    ("Sigma2", 2, 2, 0, 5): 36,  # stored central coefficient is 32
}
# cells whose pair recursion hits a polygon without an admissible corner
STUCK = {
    ("QH", 3, 3, 0, 3),
    ("QH", 3, 3, 0, 4),
    ("QH", 3, 3, 0, 5),
    ("Sigma2", 3, 0, 0, 3),
    ("Sigma2", 3, 0, 0, 4),
    ("Sigma2", 3, 0, 0, 5),
}


def test_row_count_and_shape():
    rows = reference_rows()
    assert len(rows) == 60
    assert {r.surface for r in rows} == set(SURFACES)
    for row in rows:
        assert row.genus >= 0 and row.pairs >= 0
        assert not (row.genus and row.pairs)
        coeffs = row.value.to_coeff_dict()
        assert coeffs == {-e: c for e, c in coeffs.items()}
        assert f"g={row.genus}" in row.label()
        assert f"s={row.pairs}" in row.label()


def test_polygons_match_surfaces():
    for row in reference_rows():
        poly = HPolygon.from_spec(row.spec())
        if row.surface == "QH":
            assert poly == HPolygon.rectangle(row.a, row.b)
        else:
            assert poly == HPolygon.sigma2_trapezoid(row.a, row.b)


def test_reference_value_lookup():
    assert reference_value("QH", 1, 1, 0) == LaurentPoly.one()
    assert reference_value("Sigma2", 2, 0, 0, pairs=3) == LaurentPoly(
        {-1: 1, 0: 2, 1: 1}
    )
    with pytest.raises(KeyError):
        reference_value("QH", 9, 9, 0)


def test_alternate_path_loading(tmp_path):
    rows = reference_rows()
    copy = tmp_path / "tables.json"
    import importlib.resources as resources

    with resources.files("floordiagrams").joinpath("data/appendix_tables.json").open() as fh:
        copy.write_text(fh.read())
    assert reference_rows(path=str(copy)) == rows
    assert reference_value("QH", 1, 1, 0, path=str(copy)) == LaurentPoly.one()


def test_bundled_tables_come_from_the_loading_package(tmp_path, monkeypatch):
    # a copy of the package under another name (vendored, say) reads its own
    # data file, cut here to its first row
    copy = tmp_path / "vendored_floordiagrams"
    shutil.copytree(Path(fixtures.__file__).parent, copy,
                    ignore=shutil.ignore_patterns("__pycache__"))
    tables = copy / "data" / "appendix_tables.json"
    data = json.loads(tables.read_text(encoding="utf-8"))
    tables.write_text(json.dumps({**data, "rows": data["rows"][:1]}), encoding="utf-8")
    monkeypatch.syspath_prepend(str(tmp_path))
    try:
        vendored = importlib.import_module("vendored_floordiagrams.fixtures")
        assert len(vendored.reference_rows()) == 1
    finally:
        for name in [n for n in sys.modules if n.partition(".")[0] == copy.name]:
            del sys.modules[name]
    assert len(reference_rows()) == 60


def test_engine_agrees_except_known_cells(table):
    matched = 0
    diverged = {}
    stuck = set()
    for row in reference_rows():
        key = (row.surface, row.a, row.b, row.genus, row.pairs)
        poly = HPolygon.from_spec(row.spec())
        try:
            if row.pairs:
                got = table.refined_descendant(poly, row.pairs)
            else:
                got = table.refined_invariant(poly, row.genus)
        except InvariantError:
            stuck.add(key)
            continue
        if got == row.value:
            matched += 1
        else:
            diverged[key] = got.coefficient(0)
    assert matched == 52
    assert stuck == STUCK
    assert diverged == DIVERGING
