"""Frobenius-Poincare functions of graded problems.

For a problem (R, I) with dimension d, level n, and q = p^n, the level-n
function is

    F_n(y) = q^(-d) * sum_j  ell_j * exp(-i*y*j/q)

with ell_j the exact graded lengths of R/I^[q].  The sequence F_n converges
uniformly on compact sets to an entire function; this module evaluates F_n,
estimates the limit with a geometric tail bound fitted from successive
differences, and exposes the exact-integer quantities behind it: Hilbert-Kunz
multiplicities, power-series moment estimators, and alternating Betti
polynomials obtained through the Hilbert-series quotient identity.

Every sum of exp(-i*y*j/q) terms over a table (F_n, the density quadrature,
betti_limit_check and cm_chi_eval) goes through one blocked kernel,
``_phase_sum``, which needs far fewer exponentials than one per entry and
rounds less than one running sum.  A sum that is not finite raises
OverflowError.  Measured, cm_chi_eval is within 1.0e-14 relative of
F_n(y) * prod(q (1 - z^d_i) / (d_i iy)) on the built-in problems at q = 256
and 16384 for |y| >= 0.5.
"""

from __future__ import annotations

import cmath
import math
import threading
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from operator import mul
from typing import Iterable, Mapping, Sequence

from .errors import EvaluationDomainError, StructureError
from .hilbert import (
    HilbertSeries,
    LaurentPolynomialZ,
    chi_series,
    hilbert_samuel,
    series_of_ring,
    series_of_table,
)
from .ideals import (
    GradedLengthTable,
    HomogeneousIdeal,
    RingPresentation,
    check_ideal_in_ring,
    graded_lengths,
)

# Entries per block of _phase_sum: one inner product of this length, one
# anchor.  64 is slower; 256 is hardly faster and rounds more on small tables.
_BLOCK = 128


class ProblemSpec:
    """A graded ring, a finite-colength homogeneous ideal, and a dimension.

    The dimension defaults to the Krull dimension of the ring read off its
    Hilbert series; ``dim_override`` substitutes any non-negative integer for
    the normalization exponent.  The ring's Hilbert series and its
    Hilbert-Samuel data are computed once; length tables are cached per level.
    The caches allow concurrent reads with insert-once writes.
    """

    def __init__(self, ring: RingPresentation, ideal: HomogeneousIdeal, dim_override=None):
        check_ideal_in_ring(ring, ideal)
        if dim_override is not None and (not isinstance(dim_override, int) or dim_override < 0):
            raise StructureError("dim_override must be a non-negative integer")
        self.ring = ring
        self.ideal = ideal
        self.dim_override = dim_override
        self._tables: dict = {}
        self._lock = threading.Lock()
        self._ring_series = None
        self._samuel = None

    @property
    def prime(self) -> int:
        return self.ring.field.p

    def _once(self, name: str, compute):
        """The attribute ``name``, computed on first use and kept (insert-once)."""
        value = getattr(self, name)
        if value is None:
            value = compute()
            with self._lock:
                if getattr(self, name) is None:
                    setattr(self, name, value)
                value = getattr(self, name)
        return value

    def ring_series(self) -> HilbertSeries:
        return self._once("_ring_series", lambda: series_of_ring(self.ring))

    def _hilbert_samuel(self) -> tuple:
        return self._once("_samuel", lambda: hilbert_samuel(self.ring_series()))

    @property
    def ring_dimension(self) -> int:
        return self._hilbert_samuel()[0]

    @property
    def ring_multiplicity(self) -> Fraction:
        return self._hilbert_samuel()[1]

    @property
    def dimension(self) -> int:
        if self.dim_override is not None:
            return self.dim_override
        return self.ring_dimension

    def table(self, n: int) -> GradedLengthTable:
        """The exact graded length table at level n (cached, insert-once)."""
        hit = self._tables.get(n)
        if hit is not None:
            return hit
        computed = graded_lengths(self.ring, self.ideal, n)
        with self._lock:
            return self._tables.setdefault(n, computed)


@dataclass(frozen=True)
class LimitEstimate:
    """A limit value with a fitted geometric tail bound.

    ``error_bound`` is D * p^(-n_used) * p/(p-1), where D is the largest
    observed p^m * |F_{m+1} - F_m| at this point for m < n_used; the observed
    successive differences are kept for diagnostics.
    """

    value: complex
    n_used: int
    error_bound: float
    cauchy_constants: tuple
    differences: tuple


def fn_eval(problem: ProblemSpec, n: int, y: complex) -> complex:
    """Evaluate the level-n normalized Hilbert series at the complex point y.

    The coefficients stay exact integers; complex arithmetic enters only in
    the final sum, which ``_phase_sum`` takes in blocks.  At y = 0 the value
    is the exact rational q^(-d) * total length, converted at the boundary.
    A sum that is not finite raises OverflowError.
    """
    table = problem.table(n)
    d = problem.dimension
    q = problem.prime ** n
    if y == 0:
        return complex(float(Fraction(table.total(), q ** d)))
    lengths = table.lengths
    total = _phase_sum(list(lengths), lengths.values(), -1j * complex(y) / q)
    return total / q ** d


def _phase_sum(degrees: Sequence[int], values: Iterable, w: complex) -> complex:
    """sum(v * exp(w * j)) over integer degrees j and the values v paired with them.

    The degrees must ascend, as the keys of a GradedLengthTable do; ``values``
    is read once, in step with them.  The entries go in blocks of _BLOCK.  A
    block whose degrees run consecutively from a is one inner product of its
    values with the powers exp(w * r), times the anchor exp(w * a); a block
    with gaps takes exp(w * (j - a)) per entry.  Exponents are exact
    integers times w, and each power and anchor is its own exponential.  The
    powers stop at the span of the degrees, so a short table never forms
    exp(w * r) past its last degree.  The rounding error is about
    (_BLOCK + N/_BLOCK) * u * sum(|terms|) for N entries, against
    N * u * sum(|terms|) for one running sum.  A total that is not finite
    raises OverflowError.
    """
    if not degrees:
        return 0j
    count = len(degrees)
    span = min(_BLOCK, degrees[-1] - degrees[0] + 1)
    powers = [cmath.exp(w * r) for r in range(span)]
    values = iter(values)
    total = 0j
    for start in range(0, count, _BLOCK):
        size = min(_BLOCK, count - start)
        a = degrees[start]
        if degrees[start + size - 1] - a < size:
            phases = powers
        else:
            phases = [cmath.exp(w * (j - a)) for j in degrees[start:start + size]]
        # phases holds at least size entries, so islice ends the inner product
        total += cmath.exp(w * a) * sum(map(mul, phases, islice(values, size)), 0j)
    if not cmath.isfinite(total):
        raise OverflowError(f"phase sum with w={w} is not finite")
    return total


def _interval_step(u: complex) -> complex:
    """exp(-iu) - 1 as -2i * sin(u/2) * exp(-iu/2), without cancellation."""
    return -2j * cmath.sin(u / 2) * cmath.exp(-0.5j * u)


def hk_multiplicity(problem: ProblemSpec, n: int) -> Fraction:
    """The exact rational q^(-d) * length of R/I^[q] at level n."""
    q = problem.prime ** n
    return Fraction(problem.table(n).total(), q ** problem.dimension)


def fp_limit(problem: ProblemSpec, y_grid: Sequence[complex], n_max: int) -> dict:
    """Estimate the limit function on a grid of points.

    Returns, per point, the level-n_max value together with a tail bound of
    the geometric Cauchy form fitted from the observed successive differences
    at that point.  Requires n_max >= 2.
    """
    if n_max < 2:
        raise StructureError("n_max must be at least 2 to fit a tail bound")
    p = problem.prime
    out = {}
    for y in y_grid:
        values = [fn_eval(problem, m, y) for m in range(n_max + 1)]
        diffs = [abs(values[m + 1] - values[m]) for m in range(n_max)]
        fitted = max((p ** m * diffs[m] for m in range(n_max)), default=0.0)
        bound = fitted * p ** (-n_max) * p / (p - 1)
        ratio = 0.0
        for m in range(3, n_max - 1):
            if diffs[m] > 1e-300:
                ratio = max(ratio, diffs[m + 1] / diffs[m])
        out[y] = LimitEstimate(
            value=values[n_max],
            n_used=n_max,
            error_bound=bound,
            cauchy_constants=(fitted, ratio),
            differences=tuple(diffs),
        )
    return out


def series_coefficient_estimate(problem: ProblemSpec, m: int, n: int) -> complex:
    """Level-n estimate of the m-th power series coefficient at the origin.

    The estimator is (-i)^m / m! * q^(-(d+m)) * sum_j j^m ell_j; the moment
    sum is an exact integer, so the value lies exactly on the ray (-i)^m * R+.
    """
    if m < 0:
        raise StructureError("coefficient order must be non-negative")
    table = problem.table(n)
    q = problem.prime ** n
    d = problem.dimension
    moment = table.moment(m)
    magnitude = Fraction(moment, q ** (d + m) * math.factorial(m))
    return (-1j) ** m * float(magnitude)


def betti_alternating_polynomial(
    problem: ProblemSpec, hsop_degrees: Sequence[int], n: int
) -> LaurentPolynomialZ:
    """Alternating graded Betti sums over the parameter subring, per degree.

    With S the polynomial subring on a homogeneous system of parameters of
    degrees hsop_degrees, the polynomial sum_j B(j, n) t^j is the exact
    quotient H_{R/I^[q]}(t) / H_S(t); the division is exact because H_S is
    1 / prod(1 - t^d).
    """
    degrees = _checked_degrees(hsop_degrees)
    hsop_series = HilbertSeries(LaurentPolynomialZ.one(), degrees)
    return chi_series(series_of_table(problem.table(n)), hsop_series)


@dataclass(frozen=True)
class BettiCheckReport:
    """Per-point deviation between the Betti form and the direct evaluation."""

    n: int
    deviations: Mapping
    max_deviation: float


def betti_limit_check(
    problem: ProblemSpec,
    hsop_degrees: Sequence[int],
    y_grid: Sequence[complex],
    n_max: int,
) -> BettiCheckReport:
    """Check the Betti-number form of F_n against fn_eval on a grid.

    The level-n expressions B_n(z) / prod(q (1 - z^d)) with z = exp(-iy/q)
    and fn_eval(n, y) are equal by an exact rational-function identity, so
    the deviation measures floating-point error.  Each factor 1 - z^d comes
    from the cancellation-free interval step and B_n(z) from the blocked
    phase sum, which keeps the deviation near the rounding of F_n for
    |y| >= 1e-3.  Below that, cancellation inside B_n(z) itself dominates:
    B_n has the order-d zero of prod(1 - z^d) at z = 1 and terms of size
    ell_j.
    """
    degrees = _checked_degrees(hsop_degrees)
    betti = betti_alternating_polynomial(problem, degrees, n_max)
    terms = betti.items_sorted()
    exponents = [j for j, _ in terms]
    coefficients = [c for _, c in terms]
    q = problem.prime ** n_max
    deviations = {}
    for y in y_grid:
        if y == 0:
            raise EvaluationDomainError("betti_limit_check needs nonzero grid points")
        u = complex(y) / q
        denom = 1.0 + 0j
        for d in degrees:
            denom *= -q * _interval_step(d * u)
        lhs = _phase_sum(exponents, coefficients, -1j * u) / denom
        deviations[y] = abs(lhs - fn_eval(problem, n_max, y))
    return BettiCheckReport(
        n=n_max,
        deviations=deviations,
        max_deviation=max(deviations.values(), default=0.0),
    )


def cm_chi_eval(problem: ProblemSpec, hsop_degrees: Sequence[int], n: int, y: complex) -> complex:
    """Level-n Koszul-homology form of the function for Cohen-Macaulay rings.

    Returns B_n(z) / (prod(d_i) * (iy)^d) at z = exp(-iy/q), with B_n from
    ``betti_alternating_polynomial`` summed by the blocked phase sum.  When the
    hsop is a regular sequence, H_{R/(hsop)} = prod(1 - t^d_i) * H_R and B_n is
    chi(R/(hsop), R/I^[q]), so this is the chi form; the caller asserts it.
    """
    if y == 0:
        raise EvaluationDomainError("the chi form has a pole at y = 0; use the series path")
    degrees = _checked_degrees(hsop_degrees)
    terms = betti_alternating_polynomial(problem, degrees, n).items_sorted()
    w = -1j * complex(y) / problem.prime ** n
    total = _phase_sum([j for j, _ in terms], [c for _, c in terms], w)
    return total / (math.prod(degrees) * (1j * complex(y)) ** len(degrees))


def _checked_degrees(hsop_degrees: Sequence[int]) -> tuple:
    degrees = tuple(hsop_degrees)
    if not degrees:
        raise StructureError("need at least one parameter degree")
    for d in degrees:
        if not isinstance(d, int) or d < 1:
            raise StructureError(f"parameter degree {d!r} must be a positive integer")
    return degrees
