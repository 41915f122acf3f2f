"""Exponential-polynomial models sum_k c_k exp(-i r_k y) / (iy)^d with stable
evaluation at the removable singularity, and the closed-form constructors:
finite projective dimension from alternating Betti sums, parameter ideals and
dimension one through the same builder with the Koszul numerator, and the
dimension-two formula driven by Harder-Narasimhan slope/rank data.

Coefficients and frequencies are exact rationals, so the vanishing check at
the origin is exact and models compare with zero tolerance.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational
from typing import Sequence

from .errors import ModelConstructionError
from .hilbert import LaurentPolynomialZ, positive_degrees

# Inside this radius the numerator is evaluated by its Taylor expansion; the
# direct quotient loses about |y|^(-d) ulp to cancellation outside it.
_TAYLOR_RADIUS = 1e-3
_TAYLOR_TERMS = 14


def _rational(value, what: str) -> Fraction:
    if isinstance(value, (Rational, str)):
        return Fraction(value)
    raise ModelConstructionError(f"{what} {value!r} must be an exact rational")


@dataclass(frozen=True)
class ExponentialPolynomialModel:
    """Terms (c_k, r_k) representing sum_k c_k exp(-i r_k y) / (iy)^d.

    Coefficients and frequencies are exact rationals (stored as Fractions;
    floats and complex numbers are refused).  Construction merges equal
    frequencies, drops zero terms, and checks that the numerator vanishes at
    y = 0 to order at least d, i.e. sum_k c_k r_k^m = 0 for every m < d.

    Every closed form this package constructs fits this shape, but whether
    every limit function does is an open question: treat the class as a
    hypothesis space, not a guaranteed normal form, and validate candidate
    models against the level sequence (see the compare command).
    """

    d: int
    terms: tuple

    def __post_init__(self):
        if not isinstance(self.d, int) or self.d < 0:
            raise ModelConstructionError("pole order must be a non-negative integer")
        merged: dict = {}
        for c, rho in self.terms:
            rho = _rational(rho, "frequency")
            merged[rho] = merged.get(rho, 0) + _rational(c, "coefficient")
        terms = tuple((c, rho) for rho, c in sorted(merged.items()) if c)
        object.__setattr__(self, "terms", terms)
        for m in range(self.d):
            moment = sum(c * r ** m for c, r in terms)
            if moment != 0:
                raise ModelConstructionError(
                    f"numerator moment of order {m} is {moment}, not 0; "
                    f"the model would not be holomorphic at the origin"
                )

    def numerator_taylor(self, count: int) -> list:
        """Complex Taylor coefficients of the numerator around y = 0."""
        return [
            complex(float(sum(c * r ** m for c, r in self.terms)))
            * (-1j) ** m
            / math.factorial(m)
            for m in range(count)
        ]

    def taylor_coefficients(self, count: int) -> list:
        """Taylor coefficients of the model itself (after dividing by (iy)^d)."""
        nums = self.numerator_taylor(self.d + count)
        return [nums[self.d + k] / 1j ** self.d for k in range(count)]

    def value_at_zero(self) -> complex:
        return self.taylor_coefficients(1)[0]

    def to_json_dict(self) -> dict:
        return {
            "d": self.d,
            "terms": [
                {"c_re": float(c), "c_im": 0.0, "rho_num": r.numerator, "rho_den": r.denominator}
                for c, r in self.terms
            ],
        }


def eval_model(model: ExponentialPolynomialModel, y: complex) -> complex:
    """Evaluate the model anywhere, including across the removable singularity.

    Outside the branch radius the quotient is computed directly; inside it the
    numerator's Taylor expansion (14 terms past the order-d zero) is used, so
    the two branches agree to better than 1e-9 at the seam.  A value that
    overflows (large |Im y|) raises OverflowError instead of returning inf/nan.
    """
    y = complex(y)
    if abs(y) > _TAYLOR_RADIUS:
        num = 0j
        for c, r in model.terms:
            num += complex(c) * cmath.exp(-1j * float(r) * y)
        value = num / (1j * y) ** model.d
        if not cmath.isfinite(value):
            raise OverflowError(f"model value at y={y} is not finite")
        return value
    coeffs = model.taylor_coefficients(_TAYLOR_TERMS)
    total = 0j
    power = 1.0 + 0j
    for a in coeffs:
        total += a * power
        power *= y
    return total


def model_hsop(ring_multiplicity, degrees: Sequence[int]) -> ExponentialPolynomialModel:
    """Model e_R * prod_j (1 - exp(-i d_j y)) / (iy)^d for a parameter ideal.

    This is the finite projective dimension model of the Koszul numerator
    prod_j (1 - t^(d_j)), the denominator of H_S for the parameter subring S,
    expanded by LaurentPolynomialZ.times_one_minus.
    Its value at the origin is d_1 * ... * d_d * e_R, the Hilbert-Kunz
    multiplicity of an ideal generated by a homogeneous system of parameters
    of these degrees.
    """
    e = Fraction(ring_multiplicity)
    if e <= 0:
        raise ModelConstructionError("ring multiplicity must be positive")
    degrees = positive_degrees(
        degrees, "parameter degree", ModelConstructionError, at_least_one=True
    )
    koszul = LaurentPolynomialZ.one().times_one_minus(degrees)
    return model_finite_pd(e, koszul, len(degrees))


def model_dim_one(ring_multiplicity, h: int) -> ExponentialPolynomialModel:
    """Model e_R * (1 - exp(-i h y)) / (iy) for one-dimensional problems.

    h is the least degree of a homogeneous element of the ideal; the model is
    the parameter-ideal model of the single degree h.  The formula is proved
    over an algebraically closed coefficient field; for other inputs it is
    offered as a candidate and should be validated against the level-n
    sequence.
    """
    e = Fraction(ring_multiplicity)
    if e <= 0:
        raise ModelConstructionError("ring multiplicity must be positive")
    if not isinstance(h, int) or h < 1:
        raise ModelConstructionError("element degree h must be a positive integer")
    return model_hsop(e, (h,))


def model_finite_pd(
    ring_multiplicity, betti: LaurentPolynomialZ, d: int
) -> ExponentialPolynomialModel:
    """Model e_R * sum_j B(j) exp(-iyj) / (iy)^d from alternating Betti sums.

    Requires the Betti polynomial to vanish at t = 1 to order d; violations
    surface as a construction error.
    """
    e = Fraction(ring_multiplicity)
    if e <= 0:
        raise ModelConstructionError("ring multiplicity must be positive")
    terms = tuple((e * c, Fraction(j)) for j, c in betti.items_sorted())
    return ExponentialPolynomialModel(d, terms)


@dataclass(frozen=True)
class HNData:
    """Slope/rank data of the strong Harder-Narasimhan filtration of a syzygy
    sheaf: the inputs of the dimension-two closed form.

    ``factors`` lists (normalized slope, rank) with strictly decreasing
    slopes; the ranks must sum to rank_s and the slope-weighted rank sum must
    equal -delta_r.
    """

    delta_r: int
    rank_s: int
    factors: tuple

    def __post_init__(self):
        if not isinstance(self.delta_r, int) or self.delta_r < 1:
            raise ModelConstructionError("delta_r must be a positive integer")
        if not isinstance(self.rank_s, int) or self.rank_s < 1:
            raise ModelConstructionError("rank_s must be a positive integer")
        factors = tuple((_rational(mu, "frequency"), r) for mu, r in self.factors)
        object.__setattr__(self, "factors", factors)
        if not factors:
            raise ModelConstructionError("need at least one Harder-Narasimhan factor")
        for _, r in factors:
            if not isinstance(r, int) or r < 1:
                raise ModelConstructionError("factor ranks must be positive integers")
        slopes = [mu for mu, _ in factors]
        if any(a <= b for a, b in zip(slopes, slopes[1:])):
            raise ModelConstructionError("violated relation: slopes must be strictly decreasing")
        rank_sum = sum(r for _, r in factors)
        if rank_sum != self.rank_s:
            raise ModelConstructionError(
                f"violated relation: sum of factor ranks = {_shown(rank_sum)} "
                f"!= rank_s = {_shown(self.rank_s)}"
            )
        weighted = sum(mu * r for mu, r in factors)
        if weighted != -self.delta_r:
            raise ModelConstructionError(
                f"violated relation: sum of mu_s * r_s = {_shown(weighted)} "
                f"!= -delta_r = {_shown(-self.delta_r)}"
            )


def _shown(x) -> str:
    """str(x), or a placeholder for a number str() refuses (over 4300 digits)."""
    try:
        return str(x)
    except ValueError:
        return "<over 4300 digits>"


def model_from_hn(data: HNData) -> ExponentialPolynomialModel:
    """Dimension-two model from Harder-Narasimhan data:

    delta_r * (1 - (1 + rank_s) exp(-iy) + sum_s r_s exp(-iy (1 - mu_s/delta_r)))
    divided by (iy)^2, with frequencies kept as exact rationals.
    """
    terms = [
        (Fraction(data.delta_r), Fraction(0)),
        (-Fraction(data.delta_r) * (1 + data.rank_s), Fraction(1)),
    ]
    for mu, r in data.factors:
        terms.append((Fraction(data.delta_r) * r, 1 - mu / data.delta_r))
    return ExponentialPolynomialModel(2, tuple(terms))


def models_equal(a: ExponentialPolynomialModel, b: ExponentialPolynomialModel, tol=0) -> bool:
    """Structural equality: the pole orders match and, frequency by frequency,
    the coefficients differ by at most tol (exact equality when tol is 0).
    """
    if a.d != b.d:
        return False
    ta = {r: c for c, r in a.terms}
    tb = {r: c for c, r in b.terms}
    return all(abs(ta.get(r, 0) - tb.get(r, 0)) <= tol for r in ta.keys() | tb.keys())
