"""Frobenius-Poincare functions of graded problems.

For a problem (R, I) with dimension d, level n, and q = p^n, the level-n
function is

    F_n(y) = q^(-d) * sum_j  ell_j * exp(-i*y*j/q)

with ell_j the exact graded lengths of R/I^[q].  The sequence F_n converges
uniformly on compact sets to an entire function; this module evaluates F_n,
estimates the limit with a geometric tail estimate (not a bound) fitted from
successive differences, and exposes the exact-integer quantities behind it:
Hilbert-Kunz multiplicities, power-series moment estimators, and alternating
Betti polynomials obtained through the Hilbert-series quotient identity
from each level's exact staircase numerator.

Every level table carries its exact Hilbert numerator N_n over the ring's
weights w, so with z = exp(-iy/q)

    F_n(y) = q^(-d) * N_n(z) / prod_w (1 - z^w),

and N_n has 3 to 6 terms on the built-in problems.  ``_numerator_sum``
evaluates that rational form in Python-int fixed point from the exact
w = -iy/q, with as many bits as its cancellation near the roots of unity
takes, and rounds once: F_n over a ring with relations, the density
transform and the B_n(z) / prod(1 - z^d) of cm_chi_eval.  Over a
relation-free ring, F_n is level 0's value times one closed-form factor
per variable (Kunz's flatness, ``_fn_levels``): 2 sines and 2 exponentials
per variable, point and level, for any n, where that product is finite;
the numerator sum takes every other point.  ``_direct_sum``, one
exponential per term per point added exactly by math.fsum, takes that
level 0 and is the independent reference: the density bridge's transform,
the level-sum self check and the Betti polynomial of betti_limit_check.
A sum that is not finite raises OverflowError, naming it.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from operator import attrgetter, mul
from typing import Mapping, Sequence

from .errors import EvaluationDomainError, StructureError
from .hilbert import (
    HilbertSeries,
    LaurentPolynomialZ,
    chi_series,
    hilbert_samuel,
    positive_degrees,
    series_of_ring,
    series_of_table,
)
from .ideals import (
    GradedLengthTable,
    HomogeneousIdeal,
    RingPresentation,
    check_ideal_in_ring,
    graded_lengths,
    insert_once,
)


class ProblemSpec:
    """A graded ring, a finite-colength homogeneous ideal, and a dimension.

    The dimension defaults to the Krull dimension of the ring read off its
    Hilbert series; ``dim_override`` substitutes any non-negative integer for
    the normalization exponent.  The ring's Hilbert series and its
    Hilbert-Samuel data are computed once; length tables are cached per level,
    and over a ring with relations the FrobeniusChain store keeps the
    relations' reduced basis and each level's Frobenius normal forms.
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
        self._derived: dict = {}
        self._levels: dict = {}

    @property
    def prime(self) -> int:
        return self.ring.field.p

    def ring_series(self) -> HilbertSeries:
        return insert_once(self._derived, "series", lambda: series_of_ring(self.ring))

    def _hilbert_samuel(self) -> tuple:
        return insert_once(self._derived, "samuel", lambda: hilbert_samuel(self.ring_series()))

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
        return insert_once(self._tables, n,
                           lambda: graded_lengths(self.ring, self.ideal, n, self._levels))


@dataclass(frozen=True)
class LimitEstimate:
    """A limit value with a fitted geometric tail estimate.

    ``error_bound`` is D * p^(-n_used) * p/(p-1), where D is the largest
    observed p^m * |F_{m+1} - F_m| at this point for m < n_used; the observed
    successive differences are kept for diagnostics.  It is an estimate, not
    a bound: on parameter23 at n_used = 8 and y = 0.5+1i, 2+1i, 1+10i, 0.5+3i
    and 1+30i the proved closed form deviates by 1.003 to 1.106 times it.
    """

    value: complex
    n_used: int
    error_bound: float
    cauchy_constants: tuple
    differences: tuple


def fn_eval(problem: ProblemSpec, n: int, y: complex) -> complex:
    """Evaluate the level-n normalized Hilbert series at the complex point y.

    Over a ring with relations, ``_numerator_sum`` takes it from the
    level's exact Hilbert numerator in integer fixed point, rounded once.
    Over a relation-free ring it is level 0's per-term sum times one closed
    form factor per variable (``_fn_levels``), reading the tables of levels
    n and 0 alone, or the numerator sum where that is not finite.  At y = 0
    the value is the exact rational q^(-d) * total length, converted at the
    boundary; one that is not finite raises the numerator sum's OverflowError.
    """
    return _fn_levels(problem, [y], [problem.table(n)])[0][0]


def _fn_levels(problem: ProblemSpec, ys: Sequence[complex], tables: Sequence) -> list:
    """F_n at each point of ys, one list per level table in ``tables``.

    The caller looks the tables up first, so a level over the budget is
    refused before any sum; a point y = 0 takes its level's exact total,
    read only there.  Over a ring with relations each level sums its
    numerator (``_numerator_sum``).  Over a relation-free ring with weights
    w_1..w_m, Frobenius is flat (Kunz, Amer. J. Math. 91, 1969), so
    H_{S/I^[q]}(t) = H_{S/I}(t^q) prod_i sum_{a<q} t^(a w_i), and F_n(y) =
    q^(m-d) F_0(y) prod_i G_q(w_i y)/q, G_q(u) = sum_{a<q} exp(-iau/q), d
    the dimension (``dim_override`` too): F_0 is summed once per point and
    ``_times_geometric`` multiplies in the factors; no level reads another
    level's value.  It takes a point only where |y| >= 2e-290 (below, h/q
    may be subnormal) and F_0 and the product come out finite without
    raising; any other point takes the level's numerator sum, the only
    source of the OverflowError naming level n and w = -iy/q."""
    d, weights = problem.dimension, problem.ring.grading.weights
    points = [complex(y) for y in ys if y != 0]
    bases = [None] * len(points)
    if points and not problem.ring.relations:
        lengths = problem.table(0).lengths
        for i, y in enumerate(points):
            if abs(y) >= 2e-290:
                try:
                    bases[i] = _direct_sum(lengths, -1j * y)
                except OverflowError:
                    pass
    out = []
    for table in tables:
        n, q = table.n, problem.prime ** table.n
        scale, values = q ** (len(weights) - d), []
        for base, y in zip(bases, points):
            value = math.nan
            if base is not None:
                try:
                    value = _times_geometric(base * scale, y, weights, q) if n else base * scale
                except (OverflowError, ValueError):
                    pass
            if not cmath.isfinite(value):
                value = _numerator_sum(table.numerator, table.weights, y, n, q, q ** d)
            values.append(value)
        at = iter(values)
        out.append([next(at) if y != 0 else complex(float(Fraction(table.total(), q ** d)))
                    for y in ys])
    return out


def _times_geometric(value: complex, y: complex, weights: Sequence[int], q: int) -> complex:
    """value * prod_w G_q(wy) / q, each factor multiplied in as
    sin(h) / (q sin(h/q)) * exp(-ih), then exp(ih/q), with h = wy/2: 2 sines
    and 2 exponentials per weight for any q.  The growth exp(Im h - Im h/q)
    of the two phases is split between them, half with each.  At p = 2
    every argument is exact; at odd p the exact residual of Re h/q goes
    into sin(h/q), whose zeros would lose its bits.  It may overflow or
    lose a subnormal h/q; ``_fn_levels`` routes those points elsewhere."""
    last = None
    for weight in weights:
        if weight != last:  # a repeated weight reuses its factor
            h, last = y * (weight / 2), weight
            a, b = h.real, h.imag
            s, t = a / q, b / q
            z, grow = complex(s, t), (b - t) / 2
            sine = cmath.sin(z)
            if q & (q - 1):  # a/q = s + residual
                sine += float(Fraction(a) / q - Fraction(s)) * cmath.cos(z)
            first = cmath.sin(h) / (q * sine) * cmath.exp(complex(grow, -a))
            second = cmath.exp(complex(grow, s))
        value *= first
        value *= second
    return value


def _numerator_sum(
    terms: Mapping, weights: Sequence[int], y: complex, level: int, q: int, scale: int
) -> complex:
    """sum(c z^e) / (scale prod(1 - z^w)) over the items e -> c of ``terms``
    and the ``weights``, at z = exp(-iy/q) for y != 0: q^-d F_n from level
    n's Hilbert numerator.  From w = -iy/q, read exactly from y, all is
    Python-int fixed point at ``bits`` bits, rounded once at the end.  With
    zeta = z, or 1/z where |z| > 1 (1 - z^w = -z^w (1 - zeta^w)), no power
    zeta^g from the dominant exponent exceeds 1; ``_power`` takes them and
    ``_exp`` the power of z pulled out.  The sums lose the bits of the
    factors' zeros, of order len(weights) at z = 1 and near other roots of
    unity, and of a zero of F: ``bits`` starts at base = 64 + bitlen(sum|c|)
    + bitlen(max g) plus (len(weights) + 1) * bitlen(1/|w|), and grows until
    the numerator and the factors' product keep base bits; the one factor
    more keeps Im F, of order |y| |F| >= |w| |F| at tiny |y|, which that
    check on magnitudes would not see.  A degree or coefficient that is not
    an integer raises StructureError; a y or a value that is not finite,
    OverflowError.
    """
    items = sorted(terms.items())
    if not all(isinstance(v, int) for item in items for v in item):
        raise StructureError("the numerator sum needs integer exponents and coefficients")
    try:  # w = (wr + i wi) / den exactly
        (wr, dr), (wi, di) = y.imag.as_integer_ratio(), (-y.real).as_integer_ratio()
    except (OverflowError, ValueError):
        raise _not_finite(f"numerator sum at level {level}", -1j * y / q) from None
    den = max(dr, di)  # both powers of two
    wr, wi, den = wr * den // dr, wi * den // di, den * q
    flip = wr > 0  # |z| > 1: sum from the top exponent down in zeta = 1/z
    items = [(e, c) for e, c in (items[::-1] if flip else items) if c]
    if not items:
        return 0j
    origin, m, sigma = items[0][0], len(weights), -1 if flip else 1
    items = [(abs(e - origin), c) for e, c in items]
    base = 64 + sum(abs(c) for _, c in items).bit_length() + items[-1][0].bit_length()
    bits = base
    if weights or wr or wi:  # at y = 0 over weights, a pole: ZeroDivisionError
        bits += (m + 1) * ((den // (abs(wr) + abs(wi))).bit_length() + 2)
    while True:
        one = 1 << bits
        a, b, x = _exp(sigma * wr, sigma * wi, den, bits)
        powers = [(a >> -x - bits, b >> -x - bits)]  # zeta
        acc, gap, nr, ni = (one, 0), 0, 0, 0
        for g, c in items:
            acc, gap = _power(powers, g - gap, bits, acc), g
            nr, ni = nr + c * acc[0], ni + c * acc[1]
        dr, di = 1, 0  # the product of the factors 1 - zeta^w, at m * bits bits
        for w in weights:
            fr, fi = _power(powers, w, bits, (one, 0))
            dr, di = dr * (one - fr) + di * fi, di * (one - fr) - dr * fi
        kept = min(max(abs(nr), abs(ni)).bit_length(),
                   max(abs(dr), abs(di)).bit_length() - (m - 1) * bits)
        if kept >= base:
            break
        bits += base - kept + 8
    # z^P in front: P = origin, or origin - sum(weights) and the sign (-1)^m where zeta = 1/z
    power = origin - sum(weights) if flip else origin
    pr, pi, x = _exp(power * wr, power * wi, den, 64)
    if flip and m % 2:
        pr, pi = -pr, -pi
    nr, ni = nr * dr + ni * di, ni * dr - nr * di  # N conj(D)
    nr, ni = pr * nr - pi * ni, pr * ni + pi * nr
    den = (dr * dr + di * di) * scale
    shift = max(abs(nr), abs(ni)).bit_length() - den.bit_length() - 64  # a quotient near 2^64
    if shift > 0:
        den <<= shift
    else:
        nr, ni = nr << -shift, ni << -shift
    x += (m - 1) * bits + shift
    try:
        return complex(math.ldexp(nr / den, x), math.ldexp(ni / den, x))
    except OverflowError:
        raise _not_finite(f"numerator sum at level {level}", -1j * y / q) from None


def _exp(re: int, im: int, den: int, bits: int) -> tuple:
    """(a, b, x) with (a + ib) 2^x = exp((re + i im) / den) to 2^-bits,
    relative: the Taylor series at the argument halved k times to below
    2^-8, squared k times, each square cut back to bits + k + 8 bits and
    its binary exponent kept in x, so no size overflows."""
    k = (((abs(re) + abs(im)) << 8) // den).bit_length()
    work = bits + k + 8
    xr, xi = (re << work) // (den << k), (im << work) // (den << k)
    sr, si, tr, ti, j = 1 << work, 0, 1 << work, 0, 1
    while abs(tr) + abs(ti) > 2:  # a floored term below 2^-work ends at 0 or -1
        tr, ti = ((tr * xr - ti * xi) >> work) // j, ((tr * xi + ti * xr) >> work) // j
        sr, si, j = sr + tr, si + ti, j + 1
    x = -work
    for _ in range(k):
        sr, si = sr * sr - si * si, 2 * sr * si
        shift = max(abs(sr), abs(si)).bit_length() - work
        sr, si, x = sr >> shift, si >> shift, 2 * x + shift
    return sr, si, x


def _power(powers: list, g: int, bits: int, acc: tuple) -> tuple:
    """acc * zeta^g in fixed point by binary powering, from powers = [zeta,
    zeta^2, zeta^4, ...], which it extends as g needs."""
    for i in range(g.bit_length()):
        if i == len(powers):
            a, b = powers[-1]
            powers.append(((a * a - b * b) >> bits, (2 * a * b) >> bits))
        if g >> i & 1:
            (a, b), (c, d) = acc, powers[i]
            acc = ((a * c - b * d) >> bits, (a * d + b * c) >> bits)
    return acc


def _direct_sum(terms: Mapping, w: complex) -> complex:
    """sum(v * exp(w * j)) over the items j -> v of ``terms``, term by term.

    One cmath.exp per term, and math.fsum adds the real parts and the
    imaginary parts exactly, so past each term's own few-ulp rounding the sum
    rounds once, whatever the signs and gaps of the integer terms.  It is
    the independent reference: the bridge's transform, the Frobenius
    product's check and the Betti polynomial of betti_limit_check; a
    table's lengths iterate its run in place, skipping its gaps.  A sum
    that is not finite raises OverflowError.
    """
    try:
        parts = list(map(mul, terms.values(), map(cmath.exp, map(mul, repeat(w), terms))))
        total = complex(*(math.fsum(map(attrgetter(part), parts)) for part in ("real", "imag")))
    except OverflowError:
        raise _not_finite("direct sum", w) from None
    if not cmath.isfinite(total):
        raise _not_finite("direct sum", w)
    return total


def _not_finite(what: str, w: complex) -> OverflowError:
    return OverflowError(f"{what} with w={w} is not finite")


def _interval_ratio(u: complex) -> complex:
    """(exp(-iu) - 1) / (-iu), the interval factor, without cancellation or
    underflow: exp(-iu/2) * sin(u/2) / (u/2) while |Im u| < 1, which is 1
    at u = 0 and keeps the -u/2 imaginary part at any tiny |u|, and directly
    past that, where sin(u/2) alone would overflow first as Im u -> -inf.
    At complex u with |u/2| < 1/2, sin(h)/h is its Taylor series through
    h^16, whose tail is below 1e-22 there: the complex division errs by a
    few ulp of 1 in its imaginary part, which left the ratio's imaginary
    part, of order |u|, off by about 1e-16 / |u| of itself."""
    if abs(u.imag) >= 1:
        return (cmath.exp(-1j * u) - 1) / (-1j * u)
    half = u / 2
    if not half.imag or abs(half) >= 0.5:
        return cmath.exp(-1j * half) * (cmath.sin(half) / half if half else 1)
    square, sinc = half * half, 1
    for k in range(16, 0, -2):  # 1 - h^2 / (2 * 3) (1 - h^2 / (4 * 5) (...)), by Horner
        sinc = 1 - square * sinc / (k * (k + 1))
    return cmath.exp(-1j * half) * sinc


def hk_multiplicity(problem: ProblemSpec, n: int) -> Fraction:
    """The exact rational q^(-d) * length of R/I^[q] at level n."""
    q = problem.prime ** n
    return Fraction(problem.table(n).total(), q ** problem.dimension)


def fp_limit(problem: ProblemSpec, y_grid: Sequence[complex], n_max: int) -> dict:
    """Estimate the limit function on a grid of points.

    Returns, per point, the level-n_max value together with a tail estimate
    of the geometric Cauchy form fitted from the observed successive
    differences at that point (see LimitEstimate).  Requires n_max >= 2.
    The tables of levels 0..n_max are looked up first, so a level over the
    budget is refused before any sum, and each value of ``_fn_levels`` is
    fn_eval's at that point and level, bit for bit.  An empty grid returns
    {} and builds no level table.
    """
    if n_max < 2:
        raise StructureError("n_max must be at least 2 to fit a tail bound")
    y_grid = list(y_grid)
    if not y_grid:
        return {}
    p = problem.prime
    levels = _fn_levels(problem, y_grid, [problem.table(m) for m in range(n_max + 1)])
    out = {}
    for y, values in zip(y_grid, zip(*levels)):
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
    quotient H_{R/I^[q]}(t) / H_S(t) = N_n(t) * prod(1 - t^d) / prod(1 - t^w),
    with N_n the level's staircase numerator over the ring's weights w
    (``series_of_table``).  chi_series cancels the factors d and w share and
    works on the terms of N_n, so the cost follows the sizes of N_n and B_n,
    not of the level table.
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
    the deviation measures floating-point error.  Each factor q (1 - z^d)
    is i d y times the interval ratio at d y / q, B_n(z) comes from the
    direct per-term sum, one exponential per term of B_n, and F_n from
    ``_fn_levels`` at level n for the whole grid, fn_eval's path: the
    numerator sum over a ring with relations, and over a relation-free
    ring level 0's value times Kunz's closed-form factors where those are
    finite, else the numerator sum; so the check compares either with an
    independent sum, which a numerator sum on both sides would not be.  The
    deviation stays near the rounding of F_n for |y| >= 1e-3.  Below that,
    cancellation inside B_n(z) itself dominates: B_n has the order-d zero of
    prod(1 - z^d) at z = 1 and terms of size ell_j.
    """
    degrees = _checked_degrees(hsop_degrees)
    terms = betti_alternating_polynomial(problem, degrees, n_max).coeffs
    y_grid = list(y_grid)
    if any(y == 0 for y in y_grid):
        raise EvaluationDomainError("betti_limit_check needs nonzero grid points")
    q = problem.prime ** n_max
    us = [complex(y) / q for y in y_grid]
    deviations = {}
    (fns,) = _fn_levels(problem, y_grid, [problem.table(n_max)])
    for y, u, fn in zip(y_grid, us, fns):
        denom = 1.0 + 0j
        for d in degrees:
            denom *= 1j * d * y * _interval_ratio(d * u)
        deviations[y] = abs(_direct_sum(terms, -1j * u) / denom - fn)
    return BettiCheckReport(
        n=n_max,
        deviations=deviations,
        max_deviation=max(deviations.values(), default=0.0),
    )


def cm_chi_eval(
    problem: ProblemSpec,
    hsop_degrees: Sequence[int],
    y_grid: Sequence[complex],
    n: int,
) -> dict:
    """Level-n Koszul-homology form of the function for Cohen-Macaulay rings.

    Maps each grid point y to B_n(z) / (prod(d_i) * (iy)^d) at z = exp(-iy/q),
    with B_n from ``betti_alternating_polynomial``, built once for the grid.
    At each point ``_numerator_sum`` takes q^-d * B_n(z) / prod(1 - z^d_i) in
    integer fixed point, which absorbs the order-d zero that B_n shares with
    the product at z = 1, and each factor q (1 - z^d_i) / (d_i iy) is the
    interval ratio at d_i y / q, so tiny |y| keeps the relative accuracy of
    larger ones.  When the hsop is a regular sequence, H_{R/(hsop)} =
    prod(1 - t^d_i) * H_R and B_n is chi(R/(hsop), R/I^[q]), so this is the
    chi form; the caller asserts it.
    """
    degrees = _checked_degrees(hsop_degrees)
    terms = betti_alternating_polynomial(problem, degrees, n).coeffs
    y_grid = list(y_grid)
    if any(y == 0 for y in y_grid):
        raise EvaluationDomainError("the chi form has a pole at y = 0; use the series path")
    q = problem.prime ** n
    return {
        y: _numerator_sum(terms, degrees, complex(y), n, q, q ** len(degrees)) * math.prod(
            _interval_ratio(d * complex(y) / q) for d in degrees)
        for y in y_grid
    }


def _checked_degrees(hsop_degrees: Sequence[int]) -> tuple:
    return positive_degrees(hsop_degrees, "parameter degree", at_least_one=True)
