"""Exact sparse polynomials in the formal variables t and q.

The distributions computed elsewhere reach coefficients of order
2^n * n!, so everything here is plain Python integer arithmetic and
nothing ever rounds.  ``BiPoly`` is the ring element; ``Series`` is a
q-truncated view used for the infinite-product identities.  Products of
runs, the polynomials 1 + x + ... + x^(m-1) in a monomial x = t^a q^b
that make up the hook-length closed forms, are taken on a packed form:
one int per polynomial.  The one quotient among the closed forms,
[n]! / prod [h_u], is a packed exact division too: one integer division
of two packed products, so no polynomial is ever divided term by term.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Mapping
from typing import Union


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
    def _trusted(cls, terms: dict[tuple[int, int], int]) -> "BiPoly":
        """The polynomial of a dict the library built itself, kept as is:
        its exponents are nonnegative ints and its coefficients nonzero
        ints, so the checks of the constructor are skipped."""
        result = cls.__new__(cls)
        result._terms = terms
        return result

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
    def t_degree(self) -> int:
        return max((a for a, _ in self._terms), default=0)

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = BiPoly({(0, 0): other})
        if not isinstance(other, BiPoly):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        # a constant equals its int, so it hashes like it
        if self._terms.keys() <= {(0, 0)}:
            return hash(self.coeff())
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
        return BiPoly._trusted(out)

    __radd__ = __add__

    def __mul__(self, other):
        if isinstance(other, int):
            return BiPoly._trusted({key: c * other for key, c in self._terms.items()}
                                   if other else {})
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
        return BiPoly._trusted(out)

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

    def shift_q(self, k: int) -> "BiPoly":
        """Multiply by q^k."""
        if not isinstance(k, int):
            raise TypeError("the shift must be an int")
        if k < 0:
            raise ValueError("shift must be nonnegative")
        return BiPoly._trusted({(a, b + k): c for (a, b), c in self._terms.items()})

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
    return BiPoly._trusted({(0, k): 1 for k in range(m)})


def q_factorial(m: int) -> BiPoly:
    """Product of the q-numbers 1..m, with the empty product equal to 1."""
    if m < 0:
        raise ValueError("q-factorial needs a nonnegative argument")
    return _product(1, [(0, 1, k) for k in range(2, m + 1)])


class Series:
    """Power series in q truncated at a fixed degree.

    Wraps a t-free BiPoly whose coefficients are exact for q-exponents
    up to ``degree``; higher terms are dropped on construction.
    """

    __slots__ = ("poly", "degree")

    def __init__(self, poly: BiPoly, degree: int):
        if degree < 0:
            raise ValueError("truncation degree must be nonnegative")
        if poly.t_degree:
            raise ValueError("series coefficients must be t-free")
        self.poly = BiPoly._trusted({key: c for key, c in poly._terms.items()
                                     if key[1] <= degree})
        self.degree = degree

    def __eq__(self, other) -> bool:
        if not isinstance(other, Series):
            return NotImplemented
        return self.degree == other.degree and self.poly == other.poly

    def __hash__(self) -> int:
        return hash((self.poly, self.degree))

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
    return Series(BiPoly._trusted({(0, k * h): 1 for k in range(degree // h + 1)}), degree)


# ---------------------------------------------------------------------------
# the packed form: products of runs, polynomials with coefficients 0 and 1

def _decode(value: int, k: int, width: int, t_off: int = 0, q_off: int = 0) -> BiPoly:
    """The polynomial packed in a nonnegative int: the k-bit slot
    a*width + b holds the coefficient of t^(a + t_off) q^(b + q_off).
    A filled slot whose exponent would be negative raises ValueError."""
    slot = (1 << k) - 1
    out: dict[tuple[int, int], int] = {}
    # shifting the whole int once per slot costs time quadratic in its
    # length, so it is halved until a piece holds at most 16 slots
    pieces = [(value, 0, -(-value.bit_length() // k))]
    while pieces:
        bits, index, count = pieces.pop()
        if count > 16:
            half = count // 2
            for piece in ((bits >> k * half, index + half, count - half),
                          (bits & ((1 << k * half) - 1), index, half)):
                if piece[0]:
                    pieces.append(piece)
            continue
        while bits:
            c = bits & slot
            if c:
                a, b = divmod(index, width)
                a += t_off
                b += q_off
                if a < 0 or b < 0:
                    raise ValueError(f"negative exponent in term t^{a}*q^{b}")
                out[(a, b)] = c
            bits >>= k
            index += 1
    return BiPoly._trusted(out)


def _packed(value: int, runs: list, k: int, width: int, keep: int | None = None) -> int:
    """value times the runs, each packed with k-bit slots in rows of width
    slots (t^a q^b in the slot a * width + b); with keep, the product is
    cut to its bits at every step."""
    for a, b, m in runs:
        s = k * (a * width + b)
        # a q-run is a repunit quotient in base 2^s; a t-run is too wide to
        # divide fast, and a (0, 0, m) run is the constant m
        value *= (((1 << m * s) - 1) // ((1 << s) - 1) if a == 0 < b
                  else sum(1 << j * s for j in range(m)))
        if keep is not None:
            value &= keep
    return value


def _product(scale: int, runs: list, degree: int | None = None,
             over: list = ()) -> Union[BiPoly, Series]:
    """scale times the product of the runs; with a degree, the Series
    truncated there; with runs ``over`` (and no degree), the exact
    quotient by their product.  A run (a, b, m) is the sum of
    (t^a q^b)^j over j < m: [m] is (0, 1, m), 1 + t^a q^b is (a, b, 2)
    and the truncated 1 / (1 - q^h) is (0, h, degree // h + 1).

    No coefficient of the product exceeds scale times every m, and its
    q-degree is the sum of every b * (m - 1), so each run is packed with
    slots of that bound's bit length in rows longer than that degree,
    t^a q^b in the slot a * width + b, multiplied as an int and decoded
    once.  A truncated product has t-free runs and one row, cut after
    the slot of the degree at every step.

    The quotient is one integer division of the packed product by the
    packed t-free divisor, in the same slots.  The divisor's runs have
    nonnegative coefficients and constant term 1, so no coefficient of
    an exact quotient with nonnegative coefficients exceeds one of the
    product and the slots hold it.  Any other divisor raises ValueError:
    the remainder is nonzero, or the quotient's slots carried into each
    other and the coefficient sums (the values at q = 1) do not multiply
    back.
    """
    top = scale * math.prod(m for _, _, m in runs)
    k = max(top.bit_length(), 1)
    width = 1 + (sum(b * (m - 1) for _, b, m in runs) if degree is None else degree)
    value = _packed(scale, runs, k, width, None if degree is None else (1 << k * width) - 1)
    if over:
        value, rem = divmod(value, _packed(1, over, k, width))
    poly = _decode(value, k, width)
    if over and (rem or sum(poly._terms.values()) * math.prod(m for _, _, m in over) != top):
        raise ValueError("the runs over do not divide the product")
    return poly if degree is None else Series(poly, degree)
