"""Exact sparse polynomials in the formal variables t and q.

The distributions computed elsewhere reach coefficients of order
2^n * n!, so everything here is plain Python integer arithmetic and
nothing ever rounds.  ``BiPoly`` is the ring element; ``Series`` is a
q-truncated view used for the infinite-product identities.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Union


class BiPoly:
    """Sparse integer polynomial in t and q.

    Terms are stored as a dict mapping ``(t_exp, q_exp)`` to a nonzero
    integer coefficient; exponents are nonnegative.  Instances are
    treated as immutable: every operation returns a fresh polynomial in
    canonical form (no zero coefficients stored).
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Union[Mapping, Iterable, None] = None):
        data = terms.items() if isinstance(terms, Mapping) else (terms or ())
        clean: dict[tuple[int, int], int] = {}
        for (t_exp, q_exp), coeff in data:
            if not (isinstance(t_exp, int) and isinstance(q_exp, int) and isinstance(coeff, int)):
                raise TypeError("exponents and coefficients must be ints")
            if t_exp < 0 or q_exp < 0:
                raise ValueError(f"negative exponent in term t^{t_exp}*q^{q_exp}")
            if coeff:
                key = (t_exp, q_exp)
                total = clean.get(key, 0) + coeff
                if total:
                    clean[key] = total
                else:
                    del clean[key]
        self._terms = clean

    @classmethod
    def zero(cls) -> "BiPoly":
        return cls()

    @classmethod
    def one(cls) -> "BiPoly":
        return cls({(0, 0): 1})

    @classmethod
    def term(cls, coeff: int, t: int = 0, q: int = 0) -> "BiPoly":
        return cls({(t, q): coeff})

    def items(self) -> list[tuple[tuple[int, int], int]]:
        """Terms sorted by (t-exponent, q-exponent)."""
        return sorted(self._terms.items())

    def coeff(self, t: int = 0, q: int = 0) -> int:
        return self._terms.get((t, q), 0)

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    @property
    def q_degree(self) -> int:
        return max((b for _, b in self._terms), default=0)

    @property
    def t_degree(self) -> int:
        return max((a for a, _ in self._terms), default=0)

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = BiPoly({(0, 0): other})
        if not isinstance(other, BiPoly):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def __add__(self, other):
        if isinstance(other, int):
            other = BiPoly({(0, 0): other})
        if not isinstance(other, BiPoly):
            return NotImplemented
        out = dict(self._terms)
        for key, c in other._terms.items():
            total = out.get(key, 0) + c
            if total:
                out[key] = total
            else:
                out.pop(key, None)
        result = BiPoly.__new__(BiPoly)
        result._terms = out
        return result

    __radd__ = __add__

    def __mul__(self, other):
        if isinstance(other, int):
            other = BiPoly({(0, 0): other})
        if not isinstance(other, BiPoly):
            return NotImplemented
        out: dict[tuple[int, int], int] = {}
        for (a1, b1), c1 in self._terms.items():
            for (a2, b2), c2 in other._terms.items():
                key = (a1 + a2, b1 + b2)
                total = out.get(key, 0) + c1 * c2
                if total:
                    out[key] = total
                else:
                    del out[key]
        result = BiPoly.__new__(BiPoly)
        result._terms = out
        return result

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("exponent must be a nonnegative int")
        out = BiPoly.one()
        for _ in range(exponent):
            out = out * self
        return out

    def eval_t(self, value: int) -> "BiPoly":
        """Substitute an integer in {-1, 0, 1} for t; the result is q-only."""
        if value not in (-1, 0, 1):
            raise ValueError("t substitution is supported for -1, 0 and 1 only")
        return BiPoly(((0, b), -c if value == -1 and a % 2 else c)
                      for (a, b), c in self._terms.items() if value or not a)

    def div_int(self, k: int) -> "BiPoly":
        """Divide every coefficient by k, exactly."""
        out = {}
        for key, c in self._terms.items():
            quo, rem = divmod(c, k)
            if rem:
                raise ValueError(f"coefficient {c} is not divisible by {k}")
            out[key] = quo
        return BiPoly(out)

    def shift_q(self, k: int) -> "BiPoly":
        """Multiply by q^k."""
        if k < 0:
            raise ValueError("shift must be nonnegative")
        return BiPoly({(a, b + k): c for (a, b), c in self._terms.items()})

    def div_exact_q(self, divisor: "BiPoly") -> "BiPoly":
        """Long division by a t-free polynomial; the remainder must vanish."""
        if self.t_degree or divisor.t_degree:
            raise ValueError("q-division is defined for t-free polynomials")
        if divisor.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        if self.is_zero():
            return BiPoly.zero()
        num = [0] * (self.q_degree + 1)
        for (_, b), c in self._terms.items():
            num[b] = c
        den = [0] * (divisor.q_degree + 1)
        for (_, b), c in divisor._terms.items():
            den[b] = c
        lead = den[-1]
        quot = [0] * (len(num) - len(den) + 1)
        if len(quot) == 0 and any(num):
            raise ValueError("nonzero remainder: divisor degree exceeds dividend")
        for i in range(len(quot) - 1, -1, -1):
            c = num[i + len(den) - 1]
            q, rem = divmod(c, lead)
            if rem:
                raise ValueError("division is not exact over the integers")
            quot[i] = q
            if q:
                for j, d in enumerate(den):
                    num[i + j] -= q * d
        if any(num):
            raise ValueError("nonzero remainder in polynomial division")
        return BiPoly({(0, i): c for i, c in enumerate(quot) if c})

    def to_triples(self) -> list[list[int]]:
        """Machine form: [t-exp, q-exp, coeff] triples sorted by exponents."""
        return [[a, b, c] for (a, b), c in self.items()]

    @classmethod
    def from_triples(cls, triples) -> "BiPoly":
        return cls(((a, b), c) for a, b, c in triples)

    def render(self) -> str:
        """Human form: terms sorted by (t-exp, q-exp), e.g. ``1 + 2*q + t*q^3``."""
        if not self._terms:
            return "0"
        parts = []
        for (a, b), c in self.items():
            factors = []
            if a:
                factors.append("t" if a == 1 else f"t^{a}")
            if b:
                factors.append("q" if b == 1 else f"q^{b}")
            if abs(c) != 1 or not factors:
                factors.insert(0, str(abs(c)))
            text = "*".join(factors)
            if not parts:
                parts.append(text if c > 0 else f"-{text}")
            else:
                parts.append(("+ " if c > 0 else "- ") + text)
        return " ".join(parts)

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return f"<BiPoly {self.render()}>"


def q_number(m: int) -> BiPoly:
    """The q-analogue of m: 1 + q + ... + q^(m-1)."""
    if m < 1:
        raise ValueError("q-number needs a positive argument")
    return BiPoly({(0, k): 1 for k in range(m)})


def q_factorial(m: int) -> BiPoly:
    """Product of the q-numbers 1..m, with the empty product equal to 1."""
    if m < 0:
        raise ValueError("q-factorial needs a nonnegative argument")
    out = BiPoly.one()
    for k in range(2, m + 1):
        out = out * q_number(k)
    return out


class Series:
    """Power series in q truncated at a fixed degree.

    Wraps a t-free BiPoly whose coefficients are exact for q-exponents
    up to ``degree``; higher terms are dropped on construction and by
    every arithmetic operation.
    """

    __slots__ = ("poly", "degree")

    def __init__(self, poly: BiPoly, degree: int):
        if degree < 0:
            raise ValueError("truncation degree must be nonnegative")
        if poly.t_degree:
            raise ValueError("series coefficients must be t-free")
        self.poly = BiPoly({(0, b): c for (_, b), c in poly._terms.items() if b <= degree})
        self.degree = degree

    def _coerce(self, other) -> "Series":
        if isinstance(other, Series):
            return other
        if isinstance(other, int):
            other = BiPoly({(0, 0): other})
        if isinstance(other, BiPoly):
            return Series(other, self.degree)
        raise TypeError(f"cannot combine Series with {type(other).__name__}")

    def __add__(self, other):
        other = self._coerce(other)
        return Series(self.poly + other.poly, min(self.degree, other.degree))

    __radd__ = __add__

    def __mul__(self, other):
        other = self._coerce(other)
        return Series(self.poly * other.poly, min(self.degree, other.degree))

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if not isinstance(other, Series):
            return NotImplemented
        return self.degree == other.degree and self.poly == other.poly

    def __hash__(self) -> int:
        return hash((self.poly, self.degree))

    def coeff(self, k: int) -> int:
        if k > self.degree:
            raise ValueError(f"coefficient of q^{k} is beyond the truncation degree")
        return self.poly.coeff(0, k)

    def render(self) -> str:
        return f"{self.poly.render()} + O(q^{self.degree + 1})"

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return f"<Series {self.render()}>"


def geometric_series(h: int, degree: int) -> Series:
    """Expansion of 1 / (1 - q^h) up to the truncation degree."""
    if h < 1:
        raise ValueError("geometric series needs a positive step")
    return Series(BiPoly({(0, k * h): 1 for k in range(degree // h + 1)}), degree)
