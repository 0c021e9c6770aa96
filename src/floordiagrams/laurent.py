"""Exact Laurent polynomials in one variable q with half-integer exponents.

Every invariant computed by this package lives here: integer coefficients of
arbitrary size, exponents in (1/2)Z.  Exponents are stored doubled internally
(q^{1/2} has key 1, q^{-3} has key -6) so all arithmetic stays in plain ints.
Terms are type-checked only where they come in from outside; arithmetic
results are ints by construction and skip the check.
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
        if not isinstance(e, int) or not isinstance(c, int):
            raise LaurentError("exponents and coefficients must be ints")
        if c:
            terms[e] = c
    return terms


class LaurentPoly:
    """Immutable integer Laurent polynomial, possibly with half-integer exponents.

    Construct from a mapping of *integer* exponents to coefficients, e.g.
    ``LaurentPoly({-1: 1, 0: 10, 1: 1})`` for q^-1 + 10 + q.  Half-integer
    exponents only arise through :func:`quantum_integer` and products thereof;
    use :meth:`from_doubled` to build them directly.
    """

    __slots__ = ("_terms",)

    def __init__(self, coeffs: Mapping[int, int] | None = None):
        terms = _checked(coeffs.items()) if coeffs else {}
        self._terms = {2 * e: c for e, c in terms.items()}

    @classmethod
    def from_doubled(cls, doubled: Mapping[int, int]) -> "LaurentPoly":
        """Build from a mapping of doubled exponents (key 1 means q^{1/2})."""
        return _from_terms(_checked(doubled.items()))

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return _from_terms({})

    @classmethod
    def one(cls) -> "LaurentPoly":
        return _from_terms({0: 1})

    # -- inspection ---------------------------------------------------------

    def items_doubled(self) -> tuple[tuple[int, int], ...]:
        """Sorted (doubled exponent, coefficient) pairs."""
        return tuple(sorted(self._terms.items()))

    def coefficient(self, exponent: int) -> int:
        """Coefficient of q^exponent for an integer exponent."""
        return self._terms.get(2 * exponent, 0)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def has_integer_exponents(self) -> bool:
        return all(e2 % 2 == 0 for e2 in self._terms)

    # -- ring operations ----------------------------------------------------

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        terms = dict(self._terms)
        for e2, c in other._terms.items():
            terms[e2] = terms.get(e2, 0) + c
        return _from_terms(terms)

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        terms = dict(self._terms)
        for e2, c in other._terms.items():
            terms[e2] = terms.get(e2, 0) - c
        return _from_terms(terms)

    def __neg__(self) -> "LaurentPoly":
        return _from_terms({e2: -c for e2, c in self._terms.items()})

    def __mul__(self, other):
        if isinstance(other, int):
            return _from_terms({e2: c * other for e2, c in self._terms.items()})
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        terms: dict[int, int] = {}
        for e2, c in self._terms.items():
            for f2, d in other._terms.items():
                k = e2 + f2
                terms[k] = terms.get(k, 0) + c * d
        return _from_terms(terms)

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
        """Evaluate at q0 in {1, -1}.

        At q0 = 1 any exponents are fine (the square roots are 1 as well).
        At q0 = -1 half-integer exponents have no integer value and are
        rejected.
        """
        if q0 == 1:
            return sum(self._terms.values())
        if q0 == -1:
            if not self.has_integer_exponents():
                raise LaurentError("cannot evaluate half-integer exponents at -1")
            return sum(c * (-1) ** ((e2 // 2) % 2) for e2, c in self._terms.items())
        raise LaurentError("evaluation only supported at q0 = 1 or -1")

    # -- serialization ------------------------------------------------------

    def to_coeff_dict(self) -> dict[int, int]:
        """Mapping of integer exponents to coefficients; rejects half-integers."""
        if not self.has_integer_exponents():
            raise LaurentError("half-integer exponents cannot be exported")
        return {e2 // 2: c for e2, c in sorted(self._terms.items())}

    def to_json_dict(self) -> dict[str, int]:
        """JSON form: exponent strings to coefficients, e.g. {"-1":1,"0":10,"1":1}."""
        return {str(e): c for e, c in self.to_coeff_dict().items()}

    @classmethod
    def from_json_dict(cls, data: Mapping[str, int]) -> "LaurentPoly":
        """Inverse of to_json_dict; a coefficient that is not a JSON integer
        (a float, a bool, a string) is an error, not truncated."""
        if not _INT.issuperset(map(type, data.values())):
            raise LaurentError("coefficients must be integers")
        return _from_terms({2 * int(e): c for e, c in data.items()})

    # -- dunder plumbing ----------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def __repr__(self) -> str:
        return f"LaurentPoly.from_doubled({dict(self.items_doubled())!r})"

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        chunks = []
        for e2, c in self.items_doubled():
            mag = abs(c)
            if e2 == 0:
                body = str(mag)
            else:
                exp = str(e2 // 2) if e2 % 2 == 0 else f"{e2}/2"
                head = "" if mag == 1 else str(mag)
                body = f"{head}q^{exp}" if exp != "1" else f"{head}q"
            if not chunks:
                chunks.append(body if c > 0 else f"-{body}")
            else:
                chunks.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(chunks)


def _from_terms(terms: dict[int, int]) -> LaurentPoly:
    """LaurentPoly over int terms built in this module; drops zeros, checks nothing."""
    p = LaurentPoly.__new__(LaurentPoly)
    p._terms = {e2: c for e2, c in terms.items() if c}
    return p


def quantum_integer(n: int) -> LaurentPoly:
    """The symmetrized q-integer [n]: q^{(n-1)/2} + q^{(n-3)/2} + ... + q^{-(n-1)/2}.

    Has n terms, is palindromic, and evaluates to n at q = 1.
    """
    if not isinstance(n, int) or n <= 0:
        raise LaurentError("quantum integer needs a positive integer")
    return _from_terms({e2: 1 for e2 in range(-(n - 1), n, 2)})
