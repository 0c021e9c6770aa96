"""Exact Laurent polynomials in one variable q with integer exponents.

Every invariant computed by this package lives here: integer coefficients of
arbitrary size and integer exponents, because every refined multiplicity is
a product of squared quantum integers [w]^2 (see quantum_square).  Terms are
type-checked only where they come in from outside; arithmetic results are
ints by construction and skip the check.
"""

from __future__ import annotations

from typing import Iterable, Mapping

_INT = frozenset((int,))


class LaurentError(ValueError):
    pass


def _checked(items: Iterable[tuple[int, int]]) -> dict[int, int]:
    """Nonzero terms of outside (exponent, coefficient) pairs; both must be ints."""
    terms = {}
    for e, c in items:
        if type(e) is not int or type(c) is not int:
            raise LaurentError("exponents and coefficients must be ints")
        if c:
            terms[e] = c
    return terms


def mul_add(terms: dict, factor: Iterable[tuple[int, int]], ways: int, into: dict) -> dict:
    """Adds terms * factor * ways into `into` and returns it; terms and into
    are {exponent: coefficient} dicts, factor (exponent, coefficient) pairs."""
    for f, d in factor:
        d *= ways
        for e, c in terms.items():
            into[e + f] = into.get(e + f, 0) + c * d
    return into


class LaurentPoly:
    """Immutable integer Laurent polynomial.

    Construct from a mapping of exponents to coefficients, e.g.
    ``LaurentPoly({-1: 1, 0: 10, 1: 1})`` for q^-1 + 10 + q.
    """

    __slots__ = ("_terms",)

    def __init__(self, coeffs: Mapping[int, int] | None = None):
        self._terms = _checked(coeffs.items()) if coeffs else {}

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return _from_terms({})

    @classmethod
    def one(cls) -> "LaurentPoly":
        return _from_terms({0: 1})

    # -- inspection ---------------------------------------------------------

    def items_doubled(self) -> tuple[tuple[int, int], ...]:
        """Sorted (2 * exponent, coefficient) pairs; the benchmark's tracer
        (perfbench/tracer.py) counts terms with it, nothing in the package."""
        return tuple(sorted((2 * e, c) for e, c in self._terms.items()))

    def coefficient(self, exponent: int) -> int:
        """Coefficient of q^exponent."""
        return self._terms.get(exponent, 0)

    def __bool__(self) -> bool:
        return bool(self._terms)

    # -- ring operations ----------------------------------------------------

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        return _sum(self, other, 1)

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return _sum(self, other, -1)

    def __neg__(self) -> "LaurentPoly":
        return _from_terms({e: -c for e, c in self._terms.items()})

    def __mul__(self, other):
        if isinstance(other, int):
            return _from_terms({e: c * other for e, c in self._terms.items()})
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return _from_terms(mul_add(self._terms, other._terms.items(), 1, {}))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "LaurentPoly":
        if not isinstance(n, int) or n < 0:
            raise LaurentError("only nonnegative integer powers")
        out = LaurentPoly.one()
        for _ in range(n):
            out = out * self
        return out

    # -- evaluation ---------------------------------------------------------

    def evaluate(self, q0: int) -> int:
        """Evaluate at q0 in {1, -1}."""
        if q0 == 1:
            return sum(self._terms.values())
        if q0 == -1:
            return sum(-c if e % 2 else c for e, c in self._terms.items())
        raise LaurentError("evaluation only supported at q0 = 1 or -1")

    # -- serialization ------------------------------------------------------

    def to_coeff_dict(self) -> dict[int, int]:
        """Mapping of exponents to coefficients, in ascending exponent order."""
        return dict(sorted(self._terms.items()))

    def to_json_dict(self) -> dict[str, int]:
        """JSON form: exponent strings to coefficients, e.g. {"-1":1,"0":10,"1":1}."""
        return {str(e): c for e, c in self.to_coeff_dict().items()}

    @classmethod
    def from_json_dict(cls, data: Mapping[str, int]) -> "LaurentPoly":
        """Inverse of to_json_dict; a coefficient that is not a JSON integer
        (a float, a bool, a string) is an error, not truncated, and so are two
        keys that name one exponent ("1" and "01"), not one of them dropped."""
        if not _INT.issuperset(map(type, data.values())):
            raise LaurentError("coefficients must be integers")
        terms = {int(e): c for e, c in data.items()}
        if len(terms) != len(data):
            raise LaurentError("two keys name the same exponent")
        return _from_terms(terms)

    # -- dunder plumbing ----------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def __repr__(self) -> str:
        return f"LaurentPoly({self.to_coeff_dict()!r})"

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        chunks = []
        for e, c in sorted(self._terms.items()):
            mag = abs(c)
            if e == 0:
                body = str(mag)
            else:
                head = "" if mag == 1 else str(mag)
                body = f"{head}q" if e == 1 else f"{head}q^{e}"
            if not chunks:
                chunks.append(body if c > 0 else f"-{body}")
            else:
                chunks.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(chunks)


def _from_terms(terms: dict[int, int]) -> LaurentPoly:
    """LaurentPoly over int terms built in this module; drops zeros, checks nothing."""
    p = LaurentPoly.__new__(LaurentPoly)
    p._terms = {e: c for e, c in terms.items() if c}
    return p


def _sum(p: LaurentPoly, other, sign: int):
    """p + sign * other, or NotImplemented when other is not a LaurentPoly."""
    if not isinstance(other, LaurentPoly):
        return NotImplemented
    terms = dict(p._terms)
    for e, c in other._terms.items():
        terms[e] = terms.get(e, 0) + sign * c
    return _from_terms(terms)


def quantum_square(n: int) -> LaurentPoly:
    """The squared symmetrized q-integer [n]^2 = sum over |e| < n of (n - |e|) q^e,
    where [n] = q^{(n-1)/2} + q^{(n-3)/2} + ... + q^{-(n-1)/2}.

    Has 2n - 1 terms, is palindromic, and evaluates to n^2 at q = 1.
    """
    if not isinstance(n, int) or n <= 0:
        raise LaurentError("quantum square needs a positive integer")
    return _from_terms({e: n - abs(e) for e in range(1 - n, n)})
