"""Exact Hilbert series arithmetic: integer Laurent polynomials, multiplied
only by (1 - t^d) factors and divided only exactly, rational series with
denominators kept as products of (1 - t^d) factors, Hilbert-Samuel
multiplicities, and the exact quotient H_M / H_R of a finite-length module's
series by a ring's series.

Everything here is exact integer arithmetic; complex evaluation of the
resulting polynomials happens in fp and models.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, repeat
from math import comb
from typing import Mapping

from .errors import InexactDivisionError, StructureError
from .ideals import (
    GradedLengthTable,
    RingPresentation,
    buchberger,
    initial_ideal,
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
            if not isinstance(c, int):
                raise StructureError(f"coefficient {c!r} is not an integer")
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

    def is_zero(self) -> bool:
        return not self.coeffs

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

    def times_one_minus(self, degrees) -> "LaurentPolynomialZ":
        """This polynomial times prod(1 - t^d) over d in degrees.

        A degree that is not a positive integer raises StructureError.
        """
        return _times_one_minus(self, positive_degrees(degrees, "factor degree"))

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


def positive_degrees(degrees, what: str, error=StructureError, at_least_one=False) -> tuple:
    """``degrees`` as a tuple of positive integers (a bool is not one).

    Otherwise raises ``error``: "need at least one <what>" for an empty
    sequence when ``at_least_one`` is set, and "<what> <d> must be a
    positive integer" for the first degree d that is not one.
    """
    degrees = tuple(degrees)
    if at_least_one and not degrees:
        raise error(f"need at least one {what}")
    for d in degrees:
        if isinstance(d, bool) or not isinstance(d, int) or d < 1:
            raise error(f"{what} {d!r} must be a positive integer")
    return degrees


def _times_one_minus(poly: LaurentPolynomialZ, degrees: tuple) -> LaurentPolynomialZ:
    """poly * prod(1 - t^d) for checked positive degrees d.

    Each factor is one shifted subtraction on the dense coefficient list.
    """
    if poly.is_zero():
        return poly
    work = _dense(poly)
    for d in degrees:
        shifted = chain(repeat(0, d), work)
        work = [a - b for a, b in zip(chain(work, repeat(0, d)), shifted)]
    # a Betti polynomial is sparse: skip the zeros before building a dict
    return LaurentPolynomialZ({e: c for e, c in enumerate(work, poly.valuation) if c})


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
        degs = positive_degrees(self.denominator_degrees, "denominator degree")
        object.__setattr__(self, "denominator_degrees", tuple(sorted(degs)))


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

    Write the numerator as t^val * P(t) and P = (1 - t)^v * Q with Q(1) != 0.
    The Taylor coefficients of P at t = 1 are the exact sums
    S_k = sum of c_e * C(e - val, k): S_k = 0 for k < v and S_v = (-1)^v Q(1).
    With D denominator factors of degrees d_i, the dimension is D - v and the
    multiplicity is Q(1) / prod(d_i), returned as an exact Fraction.
    """
    num = series.numerator
    if num.is_zero():
        return 0, Fraction(0)
    val = num.valuation
    vanish, s_k = 0, num.value_at_one()
    while not s_k:
        vanish += 1
        s_k = sum(c * comb(e - val, vanish) for e, c in num.coeffs.items())
    dimension = len(series.denominator_degrees) - vanish
    if dimension < 0:
        raise StructureError(
            "numerator vanishes at t=1 to higher order than the denominator; not a Hilbert series"
        )
    denom = 1
    for d in series.denominator_degrees:
        denom *= d
    return dimension, Fraction((-1) ** vanish * s_k, denom)


def chi_series(h_m: HilbertSeries, h_r: HilbertSeries) -> LaurentPolynomialZ:
    """The exact quotient H_M / H_R as a Laurent polynomial.

    With H = N / prod(1 - t^d) on both sides this is (N_M * D_R) / (N_R * D_M):
    two times_one_minus products and one division.  When M has a finite graded
    free resolution over R, this is the alternating sum of its graded Betti
    numbers.  A quotient that is not a Laurent polynomial raises
    InexactDivisionError rather than truncating.  A divisor of 1, as for a
    finite-length M over a ring with numerator 1, skips the division.
    """
    numerator = _times_one_minus(h_m.numerator, h_r.denominator_degrees)
    divisor = _times_one_minus(h_r.numerator, h_m.denominator_degrees)
    if divisor == LaurentPolynomialZ.one():
        return numerator
    return numerator.divide_exact(divisor)
