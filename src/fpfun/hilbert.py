"""Exact Hilbert series arithmetic: integer Laurent polynomials, multiplied
only by (1 - t^d) factors and divided only exactly, rational series with
denominators kept as products of (1 - t^d) factors, Hilbert-Samuel
multiplicities, and the exact quotient H_M / H_R of a finite-length module's
series by a ring's series, taken on the terms of the two numerators.

Everything here is exact integer arithmetic; complex evaluation of the
resulting polynomials happens in fp and models.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, compress, count, groupby, repeat
from math import comb
from operator import ne, sub
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
        work = [0] * (self.degree - self.valuation + 1)
        for e, c in self.coeffs.items():
            work[e - self.valuation] = c
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
    """poly * prod(1 - t^d) for checked positive degrees d."""
    coeffs = poly.coeffs
    for d in degrees:
        coeffs = _shift_subtract(coeffs, d)
    return LaurentPolynomialZ(coeffs)


def _shift_subtract(coeffs: Mapping, d: int) -> dict:
    """The terms of coeffs * (1 - t^d): each term, less its copy shifted up by d."""
    out = dict(coeffs)
    for e, c in coeffs.items():
        out[e + d] = out.get(e + d, 0) - c
    return {e: c for e, c in out.items() if c}


def _over_one_minus(coeffs: Mapping, d: int) -> dict:
    """The terms of coeffs / (1 - t^d), some of them 0: a running sum along
    each residue class mod d.

    The quotient's coefficient at e is the sum of the coefficients at e,
    e - d, e - 2d, ...; the partial sum at each term fills the exponents of
    its class up to the class's next term.  The quotient is a Laurent
    polynomial exactly when every class sums to 0; otherwise
    InexactDivisionError is raised.
    """
    out = {}
    # the exponents of each class in ascending order, as the sort is stable
    for _, exps in groupby(sorted(sorted(coeffs), key=d.__rmod__), d.__rmod__):
        exps = list(exps)
        sums = list(accumulate(map(coeffs.__getitem__, exps)))
        if sums[-1]:
            raise InexactDivisionError(f"the quotient by 1 - t^{d} is not a Laurent polynomial")
        out.update(zip(exps, sums))
        for i in compress(count(), map(ne, map(sub, exps[1:], exps), repeat(d))):
            if sums[i]:
                out.update(dict.fromkeys(range(exps[i] + d, exps[i + 1], d), sums[i]))
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
    """The Hilbert series of a finite-length graded quotient, as the table's
    numerator over the (1 - t^w) factors of its weights."""
    return HilbertSeries(LaurentPolynomialZ(table.numerator), table.weights)


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

    With H = N / prod(1 - t^d) on both sides this is (N_M * D_R) / (N_R * D_M).
    The (1 - t^d) factors the two sides share cancel; N_M is multiplied by
    each factor left in D_R, one shift-subtract on its terms, divided exactly
    by N_R unless N_R is 1, and divided by each factor left in D_M, one
    running sum per residue class mod d.  Every step works on the terms, so
    the cost follows the sizes of the numerators and the quotient, never a
    dense range of degrees.  When M has a finite graded free resolution over
    R, this is the alternating sum of its graded Betti numbers.  A quotient
    that is not a Laurent polynomial raises InexactDivisionError rather than
    truncating.
    """
    by_m, by_r = Counter(h_m.denominator_degrees), Counter(h_r.denominator_degrees)
    coeffs = h_m.numerator.coeffs
    for d in (by_r - by_m).elements():
        coeffs = _shift_subtract(coeffs, d)
    if h_r.numerator != LaurentPolynomialZ.one():
        coeffs = LaurentPolynomialZ(coeffs).divide_exact(h_r.numerator).coeffs
    for d in (by_m - by_r).elements():
        coeffs = _over_one_minus(coeffs, d)
    return LaurentPolynomialZ(coeffs)
