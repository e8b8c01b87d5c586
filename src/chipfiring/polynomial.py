"""Exact integer Laurent polynomials in one variable y.

Coefficients are arbitrary-precision integers; exponents may be negative.
Values are immutable and kept in canonical form (no zero coefficients).
"""

from __future__ import annotations

from fractions import Fraction

from .errors import PoleError


class LaurentPolynomial:
    __slots__ = ("_terms",)

    def __init__(self, terms=None):
        data: dict[int, int] = {}
        if terms:
            items = terms.items() if isinstance(terms, dict) else terms
            for exp, coeff in items:
                exp = int(exp)
                coeff = int(coeff)
                if coeff:
                    data[exp] = data.get(exp, 0) + coeff
                    if not data[exp]:
                        del data[exp]
        object.__setattr__(self, "_terms", data)

    # ------------------------------------------------------------ constructors
    @classmethod
    def zero(cls) -> "LaurentPolynomial":
        return cls()

    @classmethod
    def one(cls) -> "LaurentPolynomial":
        return cls({0: 1})

    @classmethod
    def y(cls, exp: int = 1) -> "LaurentPolynomial":
        return cls({exp: 1})

    @classmethod
    def geometric(cls, length: int) -> "LaurentPolynomial":
        """1 + y + ... + y^(length-1); the zero polynomial for length 0."""
        if length < 0:
            raise ValueError("geometric length must be nonnegative")
        return cls({e: 1 for e in range(length)})

    # ----------------------------------------------------------------- queries
    @property
    def terms(self) -> tuple[tuple[int, int], ...]:
        """(exponent, coefficient) pairs with ascending exponents."""
        return tuple(sorted(self._terms.items()))

    def coefficient(self, exp: int) -> int:
        return self._terms.get(exp, 0)

    @property
    def is_zero(self) -> bool:
        return not self._terms

    @property
    def is_polynomial(self) -> bool:
        """True when no exponent is negative."""
        return not self._terms or min(self._terms) >= 0

    # --------------------------------------------------------------- operators
    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = LaurentPolynomial({0: other})
        if not isinstance(other, LaurentPolynomial):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        # a constant equals its integer, so it hashes as that integer
        return hash(self._terms.get(0, 0) if self._terms.keys() <= {0} else self.terms)

    def __bool__(self):
        return bool(self._terms)

    def __add__(self, other) -> "LaurentPolynomial":
        if isinstance(other, int):
            other = LaurentPolynomial({0: other})
        merged = dict(self._terms)
        for e, c in other._terms.items():
            merged[e] = merged.get(e, 0) + c
        return LaurentPolynomial(merged)

    __radd__ = __add__

    def __neg__(self) -> "LaurentPolynomial":
        return LaurentPolynomial({e: -c for e, c in self._terms.items()})

    def __sub__(self, other) -> "LaurentPolynomial":
        if isinstance(other, int):
            other = LaurentPolynomial({0: other})
        return self + (-other)

    def __rsub__(self, other) -> "LaurentPolynomial":
        return (-self) + other

    def __mul__(self, other) -> "LaurentPolynomial":
        if isinstance(other, int):
            return LaurentPolynomial({e: c * other for e, c in self._terms.items()})
        out: dict[int, int] = {}
        for e1, c1 in self._terms.items():
            for e2, c2 in other._terms.items():
                e = e1 + e2
                out[e] = out.get(e, 0) + c1 * c2
        return LaurentPolynomial(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "LaurentPolynomial":
        if n < 0:
            raise ValueError("negative powers are not defined for Laurent polynomials")
        result = LaurentPolynomial.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def shift(self, k: int) -> "LaurentPolynomial":
        """Multiply by y^k (k may be negative)."""
        return LaurentPolynomial({e + k: c for e, c in self._terms.items()})

    # -------------------------------------------------------------- evaluation
    def eval(self, y0) -> Fraction:
        """Exact value at a rational point; zero is a pole when exponents are negative."""
        y0 = Fraction(y0)
        if y0 == 0 and not self.is_polynomial:
            raise PoleError("evaluation at 0 with negative exponents")
        return sum((c * y0**e for e, c in self._terms.items()), Fraction(0))

    # ------------------------------------------------------------- rendering
    def to_text(self) -> str:
        if not self._terms:
            return "0"
        return " + ".join(f"{c}*y^{e}" for e, c in self.terms)

    def to_json_dict(self) -> dict:
        return {"terms": [[e, c] for e, c in self.terms]}

    def __repr__(self):
        return f"LaurentPolynomial({self.to_text()!r})"
