"""Transfer coefficients and class transforms for surgery along spheres.

The coefficient u(m, k) = (-1)^k (C(m+k, m) + C(m+k-1, m)) rewrites counts on
a surface carrying a (-2)-sphere S against counts on the surface where S has
been smoothed away: classes d - 2E on a blow-up expand through classes
d - k E', and summing a row of u's against a table of numbers is what the
sphere transform and the quadric expansion below do.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from math import comb

from .laurent import LaurentPoly
from .polygon import HPolygon


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
    return (-1) ** k * (binom(m + k, m) + binom(m + k - 1, m))


@dataclass(frozen=True)
class ClassLattice:
    """Finite-rank lattice of curve classes with an integer intersection form."""

    gram: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        n = len(self.gram)
        if any(len(row) != n for row in self.gram):
            raise SurgeryError("gram matrix must be square")
        for i in range(n):
            for j in range(n):
                if self.gram[i][j] != self.gram[j][i]:
                    raise SurgeryError("gram matrix must be symmetric")

    @property
    def rank(self) -> int:
        return len(self.gram)

    def _check(self, v):
        if len(v) != self.rank:
            raise SurgeryError(f"class {v!r} has wrong rank")
        return tuple(int(x) for x in v)

    def pairing(self, u, v) -> int:
        u = self._check(u)
        v = self._check(v)
        return sum(
            u[i] * self.gram[i][j] * v[j]
            for i in range(self.rank)
            for j in range(self.rank)
        )

    def require_sphere(self, s):
        """A Lagrangian sphere class must square to -2."""
        if self.pairing(s, s) != -2:
            raise SurgeryError(f"{s!r} is not a (-2)-class")
        return self._check(s)

    def require_exceptional(self, e):
        if self.pairing(e, e) != -1:
            raise SurgeryError(f"{e!r} is not a (-1)-class")
        return self._check(e)

    def reflect(self, s, d):
        """Reflection of d in the hyperplane of the (-2)-class s: d + (d.s) s."""
        s = self.require_sphere(s)
        d = self._check(d)
        t = self.pairing(d, s)
        return tuple(d[i] + t * s[i] for i in range(self.rank))


class NumberTable:
    """Table of integers indexed by class tuples.

    Missing keys read as zero; every such read is recorded, and strict mode
    raises instead.  This keeps finite tables honest when a transform reaches
    past their edge.
    """

    def __init__(self, entries, strict: bool = False):
        self.entries = {tuple(k): int(v) for k, v in dict(entries).items()}
        self.strict = strict
        self.missing_reads: list[tuple] = []

    def __getitem__(self, key) -> int:
        key = tuple(key)
        try:
            return self.entries[key]
        except KeyError:
            if self.strict:
                raise SurgeryError(f"missing class {key!r} in strict table") from None
            self.missing_reads.append(key)
            warnings.warn(f"table read of missing class {key!r} treated as 0")
            return 0

    def support(self):
        return tuple(sorted(self.entries))

    def __contains__(self, key) -> bool:
        return tuple(key) in self.entries


def lagrangian_transform(table, lattice, sphere, d, mode: str = "folded") -> int:
    """Count transform along a Lagrangian sphere of class S.

    folded (default): T(d) + 2 * sum_{k >= 1} (-1)^k T(d - kS), grouping each
    class with its reflection partner.  full: the two-sided alternating sum
    sum_{k in Z} (-1)^k T(d - kS).  On tables closed under the reflection
    d -> d + (d.S) S the two agree.
    """
    sphere = lattice.require_sphere(sphere)
    d = lattice._check(d)
    if mode not in ("folded", "full"):
        raise SurgeryError(f"unknown mode {mode!r}")

    def shifted(k):
        return tuple(d[i] - k * sphere[i] for i in range(lattice.rank))

    ks = _support_shifts(table, d, sphere)
    if mode == "folded":
        k_hi = max((k for k in ks if k > 0), default=0)
        total = table[d] if (0 in ks or k_hi) else 0
        for k in range(1, k_hi + 1):
            total += 2 * (-1) ** k * table[shifted(k)]
        return total
    if not ks:
        return 0
    return sum((-1) ** k * table[shifted(k)] for k in range(min(ks), max(ks) + 1))


def _support_shifts(table, d, sphere):
    """Sorted k with d - k*sphere in the table support."""
    hits = set()
    pivot = next(i for i, s in enumerate(sphere) if s != 0)
    for key in table.support():
        num = d[pivot] - key[pivot]
        if num % sphere[pivot]:
            continue
        k = num // sphere[pivot]
        if all(key[i] == d[i] - k * sphere[i] for i in range(len(d))):
            hits.add(k)
    return sorted(hits)


# -- identity checks ---------------------------------------------------------


def u_inversion_sum(m: int, n: int) -> int:
    """sum_{k=0}^{n} u(m, k) C(m + 2n, n - k); equals 1 at n = 0, else 0."""
    return sum(u_coeff(m, k) * binom(m + 2 * n, n - k) for k in range(n + 1))


def check_u_inversion(max_m: int = 12, max_n: int = 12) -> dict:
    """Verify the inversion identity for all 0 <= m, n <= the bounds."""
    failures = []
    checked = 0
    for m in range(max_m + 1):
        for n in range(max_n + 1):
            got = u_inversion_sum(m, n)
            want = 1 if n == 0 else 0
            checked += 1
            if got != want:
                failures.append({"m": m, "n": n, "got": got, "want": want})
    return {
        "identity": "u-inversion",
        "max_m": max_m,
        "max_n": max_n,
        "checked": checked,
        "failures": failures,
        "passed": not failures,
    }


def mainproof_coeff(l: int, b: int, beta: int) -> int:
    """Folded coefficient C(2l-2b, l-2beta) + 2 sum_{k>=1} (-1)^k C(2l-2b, l-k-2beta)."""
    total = binom(2 * l - 2 * b, l - 2 * beta)
    for k in range(1, l + 1):
        total += 2 * (-1) ** k * binom(2 * l - 2 * b, l - k - 2 * beta)
    return total


def mainproof_sum(l: int, b: int) -> int:
    return sum(mainproof_coeff(l, b, beta) * binom(b, beta) for beta in range(b + 1))


def check_mainproof_coeffs(max_l: int = 12) -> dict:
    """Verify sum_beta coeff * C(b, beta) is 0 for l > b and (-2)^l for l = b."""
    failures = []
    checked = 0
    for l in range(max_l + 1):
        for b in range(l + 1):
            got = mainproof_sum(l, b)
            want = (-2) ** l if l == b else 0
            checked += 1
            if got != want:
                failures.append({"l": l, "b": b, "got": got, "want": want})
    return {
        "identity": "main-proof",
        "max_l": max_l,
        "checked": checked,
        "failures": failures,
        "passed": not failures,
    }


def check_increase(table, lattice, sphere) -> dict:
    """Check |folded transform| >= |table value| class by class."""
    sphere = lattice.require_sphere(sphere)
    failures = []
    rows = []
    for d in table.support():
        before = table[d]
        after = lagrangian_transform(table, lattice, sphere, d)
        rows.append({"class": list(d), "before": before, "after": after})
        if abs(after) < abs(before):
            failures.append({"class": list(d), "before": before, "after": after})
    return {
        "identity": "increase",
        "rows": rows,
        "failures": failures,
        "passed": not failures,
    }


# -- the quadric-degeneration identity ----------------------------------------

QH_LATTICE = ClassLattice(((0, 1), (1, 0)))
QH_SPHERE = (-1, 1)


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


def check_conjecture_quadric(table, a: int, b: int, genus: int, pairs: int = 0,
                             lhs: LaurentPoly | None = None) -> dict:
    """Compare the trapezoid invariant with its u-weighted quadric expansion.

    table is an InvariantTable.  The left side defaults to the engine's own
    value on the trapezoid; pass lhs to compare against reference data
    instead.  Equality of both Laurent polynomials is the conjecture instance.
    """
    if pairs and genus:
        raise SurgeryError("conjugate pairs only refine genus 0")
    terms = quadric_rhs_terms(a, b)
    rhs = LaurentPoly.zero()
    detail = []
    for term in terms:
        m, n = term["bidegree"]
        rect = HPolygon.rectangle(m, n)
        if pairs == 0:
            value = table.refined_invariant(rect, genus)
        else:
            value = table.refined_descendant(rect, pairs)
        rhs = rhs + term["coeff"] * value
        detail.append(
            {
                "k": term["k"],
                "coeff": term["coeff"],
                "bidegree": list(term["bidegree"]),
                "value": value.to_json_dict(),
            }
        )
    if lhs is None:
        trap = HPolygon.sigma2_trapezoid(a, b)
        if pairs:
            lhs = table.refined_descendant(trap, pairs)
        else:
            lhs = table.refined_invariant(trap, genus)
    return {
        "identity": "conj-quadric",
        "a": a,
        "b": b,
        "genus": genus,
        "pairs": pairs,
        "lhs": lhs.to_json_dict(),
        "rhs": rhs.to_json_dict(),
        "terms": detail,
        "passed": lhs == rhs,
    }
