"""Exact Hilbert series arithmetic: integer Laurent polynomials, rational
series with denominators kept as products of (1 - t^d) factors, Hilbert-Samuel
multiplicities, and the exact quotient H_M / H_R of a finite-length module's
series by a ring's series.

Everything here is exact integer arithmetic; complex evaluation of the
resulting polynomials happens in fp and models.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .errors import InexactDivisionError, StructureError
from .ideals import (
    GradedLengthTable,
    RingPresentation,
    buchberger,
    initial_ideal,
    series_expansion,
    staircase_numerator,
)


class LaurentPolynomialZ:
    """A Laurent polynomial with arbitrary-precision integer coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Mapping):
        clean = {}
        for e, c in coeffs.items():
            if not isinstance(e, int):
                raise StructureError(f"exponent {e!r} is not an integer")
            if c:
                clean[e] = c
        object.__setattr__(self, "coeffs", clean)

    def __setattr__(self, name, value):
        raise AttributeError("LaurentPolynomialZ is immutable")

    @classmethod
    def zero(cls) -> "LaurentPolynomialZ":
        return cls({})

    @classmethod
    def one(cls) -> "LaurentPolynomialZ":
        return cls({0: 1})

    @classmethod
    def one_minus_power(cls, d: int) -> "LaurentPolynomialZ":
        """The factor 1 - t^d."""
        if d == 0:
            return cls.zero()
        return cls({0: 1, d: -1})

    def is_zero(self) -> bool:
        return not self.coeffs

    def coefficient(self, e: int) -> int:
        return self.coeffs.get(e, 0)

    @property
    def degree(self) -> int:
        if not self.coeffs:
            raise StructureError("zero polynomial has no degree")
        return max(self.coeffs)

    @property
    def valuation(self) -> int:
        if not self.coeffs:
            raise StructureError("zero polynomial has no valuation")
        return min(self.coeffs)

    def items_sorted(self):
        return sorted(self.coeffs.items())

    def __add__(self, other: "LaurentPolynomialZ") -> "LaurentPolynomialZ":
        res = dict(self.coeffs)
        for e, c in other.coeffs.items():
            res[e] = res.get(e, 0) + c
        return LaurentPolynomialZ(res)

    def __neg__(self) -> "LaurentPolynomialZ":
        return LaurentPolynomialZ({e: -c for e, c in self.coeffs.items()})

    def __sub__(self, other: "LaurentPolynomialZ") -> "LaurentPolynomialZ":
        return self + (-other)

    def __mul__(self, other: "LaurentPolynomialZ") -> "LaurentPolynomialZ":
        res: dict = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = e1 + e2
                res[e] = res.get(e, 0) + c1 * c2
        return LaurentPolynomialZ(res)

    def value_at_one(self) -> int:
        return sum(self.coeffs.values())

    def divide_exact(self, divisor: "LaurentPolynomialZ") -> "LaurentPolynomialZ":
        """Exact quotient by integer synthetic division from the top degree down.

        Raises InexactDivisionError at the first nonzero remainder, including a
        coefficient that the divisor's leading coefficient does not divide.
        """
        if divisor.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        if self.is_zero():
            return LaurentPolynomialZ.zero()
        low = divisor.valuation
        top = divisor.degree - low
        lead = divisor.coeffs[divisor.degree]
        terms = [(e - low, c) for e, c in divisor.coeffs.items()]
        work = _dense(self)
        if len(work) <= top:
            raise InexactDivisionError("quotient would not be a Laurent polynomial")
        quot = [0] * (len(work) - top)
        for i in range(len(quot) - 1, -1, -1):
            c, r = divmod(work[i + top], lead)
            if r:
                raise InexactDivisionError("division left a nonzero remainder")
            if c:
                quot[i] = c
                for k, dc in terms:
                    work[i + k] -= c * dc
        if any(work):
            raise InexactDivisionError("division left a nonzero remainder")
        shift = self.valuation - low
        return LaurentPolynomialZ({i + shift: c for i, c in enumerate(quot)})

    def __eq__(self, other) -> bool:
        return isinstance(other, LaurentPolynomialZ) and self.coeffs == other.coeffs

    __hash__ = None

    def __repr__(self) -> str:
        if not self.coeffs:
            return "LaurentPolynomialZ(0)"
        parts = []
        for e, c in self.items_sorted():
            if e == 0:
                parts.append(f"{c}")
            else:
                parts.append(f"{c}*t^{e}")
        return "LaurentPolynomialZ(" + " + ".join(parts) + ")"


def _dense(poly: LaurentPolynomialZ):
    """Coefficient list from valuation to degree."""
    v, d = poly.valuation, poly.degree
    out = [0] * (d - v + 1)
    for e, c in poly.coeffs.items():
        out[e - v] = c
    return out


@dataclass(frozen=True)
class HilbertSeries:
    """A rational function numerator / prod(1 - t^d) over the integers.

    Denominator factors are kept as a multiset of positive degrees and never
    expanded in the representation.
    """

    numerator: LaurentPolynomialZ
    denominator_degrees: tuple = ()

    def __post_init__(self):
        degs = tuple(sorted(self.denominator_degrees))
        for d in degs:
            if not isinstance(d, int) or d < 1:
                raise StructureError(f"denominator degree {d!r} must be a positive integer")
        object.__setattr__(self, "denominator_degrees", degs)

    def denominator_polynomial(self) -> LaurentPolynomialZ:
        """The expanded product of the (1 - t^d) factors."""
        out = LaurentPolynomialZ.one()
        for d in self.denominator_degrees:
            out = out * LaurentPolynomialZ.one_minus_power(d)
        return out

    def equal_as_rational(self, other: "HilbertSeries") -> bool:
        """Exact equality of rational functions by cross multiplication."""
        left = self.numerator * other.denominator_polynomial()
        right = other.numerator * self.denominator_polynomial()
        return left == right

    def series_coefficients(self, up_to: int) -> list:
        """Power-series expansion coefficients for degrees 0..up_to.

        Requires the numerator to have no negative exponents.
        """
        if min(self.numerator.coeffs, default=0) < 0:
            raise StructureError("series expansion needs a numerator without negative exponents")
        return series_expansion(self.numerator.coeffs, self.denominator_degrees, up_to)


def series_of_table(table: GradedLengthTable) -> HilbertSeries:
    """The (polynomial) Hilbert series of a finite-length graded quotient."""
    return HilbertSeries(LaurentPolynomialZ(dict(table.lengths)), ())


def series_of_ring(ring: RingPresentation) -> HilbertSeries:
    """Exact Hilbert series of the presented ring.

    For a free weighted polynomial ring this is 1 / prod(1 - t^w).  With
    relations, the numerator is the inclusion-exclusion generating numerator
    of the initial ideal of the relations, which leaves the Hilbert function
    unchanged.
    """
    weights = tuple(ring.grading.weights)
    if not ring.relations:
        return HilbertSeries(LaurentPolynomialZ.one(), weights)
    basis = buchberger(list(ring.relations))
    M = initial_ideal(basis)
    if M.is_unit:
        return HilbertSeries(LaurentPolynomialZ.zero(), weights)
    numerator = staircase_numerator(M, ring.grading)
    return HilbertSeries(LaurentPolynomialZ(numerator), weights)


def hilbert_samuel(series: HilbertSeries):
    """Krull dimension and Hilbert-Samuel multiplicity from a Hilbert series.

    Factors (1 - t) are stripped from the numerator exactly; if v of them come
    out and there are D denominator factors of degrees d_i, the dimension is
    D - v and the multiplicity is Q(1) / prod(d_i) with Q the stripped
    numerator, returned as an exact Fraction.
    """
    num = series.numerator
    if num.is_zero():
        return 0, Fraction(0)
    one_minus_t = LaurentPolynomialZ.one_minus_power(1)
    vanish = 0
    while True:
        try:
            num = num.divide_exact(one_minus_t)
            vanish += 1
        except InexactDivisionError:
            break
    dimension = len(series.denominator_degrees) - vanish
    if dimension < 0:
        raise StructureError(
            "numerator vanishes at t=1 to higher order than the denominator; not a Hilbert series"
        )
    denom = 1
    for d in series.denominator_degrees:
        denom *= d
    return dimension, Fraction(num.value_at_one(), denom)


def chi_series(h_m: HilbertSeries, h_r: HilbertSeries) -> LaurentPolynomialZ:
    """The exact quotient H_M / H_R as a Laurent polynomial.

    With H = N / prod(1 - t^d) on both sides this is one division,
    (N_M * D_R) / (N_R * D_M).  When M has a finite graded free resolution
    over R, this is the alternating sum of its graded Betti numbers.  A
    quotient that is not a Laurent polynomial raises InexactDivisionError
    rather than truncating.
    """
    numerator = h_m.numerator * h_r.denominator_polynomial()
    return numerator.divide_exact(h_r.numerator * h_m.denominator_polynomial())
