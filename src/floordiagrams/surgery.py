"""Transfer coefficients and identity checks for surgery along spheres.

The coefficient u(m, k) = (-1)^k (C(m+k, m) + C(m+k-1, m)) rewrites counts on
a surface carrying a (-2)-sphere S against counts on the surface where S has
been smoothed away: classes d - 2E on a blow-up expand through classes
d - k E', and summing a row of u's against a table of numbers is what the
quadric expansion below does.  The folded transform along the sphere class
itself lives in check_increase, which checks values a caller supplies.
"""

from __future__ import annotations

from math import comb

from .fixtures import surface_spec
from .laurent import LaurentPoly


class SurgeryError(ValueError):
    pass


def binom(n: int, k: int) -> int:
    """Binomial coefficient that is zero outside 0 <= k <= n."""
    if k < 0 or n < 0 or k > n:
        return 0
    return comb(n, k)


def u_coeff(m: int, k: int) -> int:
    """Transfer coefficient u(m, k) = (-1)^k (C(m+k, m) + C(m+k-1, m))."""
    if m < 0 or k < 0:
        raise SurgeryError("u_coeff needs m >= 0 and k >= 0")
    value = comb(m + k, m) + (comb(m + k - 1, m) if k else 0)
    return -value if k % 2 else value


# -- identity checks ---------------------------------------------------------

# the coefficient identities are checked for every index up to this bound
BOUND = 12


def u_inversion_sum(m: int, n: int) -> int:
    """sum_{k=0}^{n} u(m, k) C(m + 2n, n - k); equals 1 at n = 0, else 0."""
    return sum(u_coeff(m, k) * comb(m + 2 * n, n - k) for k in range(n + 1))


def identity_report(identity: str, checked: int, failures: list, **extra) -> dict:
    """The report of one identity check; it passes when nothing failed."""
    return {
        "identity": identity,
        **extra,
        "checked": checked,
        "failures": failures,
        "passed": not failures,
    }


def check_u_inversion() -> dict:
    """Verify the inversion identity for all 0 <= m, n <= BOUND."""
    cases = [(m, n) for m in range(BOUND + 1) for n in range(BOUND + 1)]
    failures = [
        {"m": m, "n": n, "got": got, "want": want}
        for m, n in cases
        if (got := u_inversion_sum(m, n)) != (want := 1 if n == 0 else 0)
    ]
    return identity_report("u-inversion", len(cases), failures, max_m=BOUND, max_n=BOUND)


def mainproof_coeff(l: int, b: int, beta: int) -> int:
    """Folded coefficient C(2l-2b, l-2beta) + 2 sum_{k>=1} (-1)^k C(2l-2b, l-k-2beta)."""
    n, j = 2 * l - 2 * b, l - 2 * beta
    total = binom(n, j)
    # only the k with 0 <= j - k <= n have a nonzero binomial
    for k in range(max(1, j - n), min(l, j) + 1):
        term = 2 * comb(n, j - k)
        total += -term if k % 2 else term
    return total


def mainproof_sum(l: int, b: int) -> int:
    return sum(mainproof_coeff(l, b, beta) * comb(b, beta) for beta in range(b + 1))


def check_mainproof_coeffs() -> dict:
    """Verify sum_beta coeff * C(b, beta) is 0 for l > b and (-2)^l for l = b <= BOUND."""
    cases = [(l, b) for l in range(BOUND + 1) for b in range(l + 1)]
    failures = [
        {"l": l, "b": b, "got": got, "want": want}
        for l, b in cases
        if (got := mainproof_sum(l, b)) != (want := (-2) ** l if l == b else 0)
    ]
    return identity_report("main-proof", len(cases), failures, max_l=BOUND)


def check_increase(values, sphere) -> dict:
    """Check |folded transform| >= |value| class by class.

    values maps class tuples to integers, and a class missing from it counts
    as 0.  The folded transform along the (-2)-class sphere S groups each
    class with its reflection partner: values[d] + 2 sum_{k>=1} (-1)^k
    values[d - kS].

    It checks the values a caller supplies: no verify identity runs it, and
    the engine does not confirm the inequality.  Fed the engine's own
    rect:a,b Welschinger values (q = -1) along a + b = 4, 6 and 8, at s = 0
    and at s = 1, with S = (1, -1), it reports 1, 1, 2, 2, 3 and 3 failures.
    """
    if not any(sphere):
        raise SurgeryError("sphere class must be nonzero")
    pivot = next(i for i, x in enumerate(sphere) if x)
    rows, failures = [], []
    for d in sorted(values):
        # every k >= 1 with d - kS in values is at most top
        top = max((d[pivot] - e[pivot]) // sphere[pivot] for e in values)
        after = values[d] + 2 * sum(
            (-1) ** k * values.get(tuple(x - k * s for x, s in zip(d, sphere)), 0)
            for k in range(1, top + 1)
        )
        row = {"class": list(d), "before": values[d], "after": after}
        rows.append(row)
        if abs(after) < abs(values[d]):
            failures.append(row)
    return identity_report("increase", len(rows), failures, rows=rows)


# -- the quadric-degeneration identity ----------------------------------------

def quadric_rhs_terms(a: int, b: int):
    """Classes and weights on the quadric side: u(b, k) times bidegree (a+b+k, a-k)."""
    if a < 1 or b < 0:
        raise SurgeryError("needs a >= 1 and b >= 0")
    terms = []
    for k in range(a + 1):
        m, n = a + b + k, a - k
        if n < 1:
            break
        terms.append({"k": k, "coeff": u_coeff(b, k), "bidegree": (m, n)})
    return terms


def check_conjecture_quadric(table, a: int, b: int, genus: int, pairs: int = 0) -> dict:
    """Compare the trapezoid invariant with its u-weighted quadric expansion.

    table is an InvariantTable, which builds each polygon once; the
    rectangle terms are looked up before the trapezoid.  Equality of both
    Laurent polynomials is the conjecture instance, reported as
    `verify --identity conj-quadric` prints it.
    """
    if pairs and genus:
        raise SurgeryError("conjugate pairs only refine genus 0")
    rhs = LaurentPoly.zero()
    for term in quadric_rhs_terms(a, b):
        polygon = table.polygon(surface_spec("QH", *term["bidegree"]))
        rhs = rhs + term["coeff"] * table.record(polygon, genus, pairs).value
    lhs = table.record(table.polygon(surface_spec("Sigma2", a, b)), genus, pairs).value
    return {
        "a": a,
        "b": b,
        "genus": genus,
        "pairs": pairs,
        "passed": lhs == rhs,
        "lhs": lhs.to_json_dict(),
        "rhs": rhs.to_json_dict(),
    }
