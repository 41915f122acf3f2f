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

Sums of exp(-i*y*j/q) terms over a level table (F_n over a ring with
relations, and the density transforms) go through the kernel
``_phase_sums``, which serves them from block moments cached on the table,
each span built once by Horner's rule and none coarser than the table's own
span.  Over a relation-free ring, F_n above level 0 is level 0's sum times
one Frobenius factor per level (Kunz's flatness; ``_fn_levels``), p
exponentials per variable, point and level, and no moment is built.
``_direct_sum`` takes everything else, one exponential per term per point
added exactly by math.fsum: the kernel's span-1 points, the density
bridge's reference and the Betti polynomial B_n of betti_limit_check and
cm_chi_eval, which comes from the level's staircase numerator, not its
table (3 or 4 terms on the built-in problems).
A sum or product that is not finite raises OverflowError.
Measured, cm_chi_eval is within 5.3e-15 relative of F_n(y) *
prod(q (1 - z^d_i) / (d_i iy)) on the built-in problems at q = 256 and
16384 for |y| >= 0.5.
"""

from __future__ import annotations

import cmath
import math
import sys
import threading
from array import array
from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from operator import add, attrgetter, mul
from typing import Iterable, Mapping, Sequence

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
    LengthRun,
    RingPresentation,
    check_ideal_in_ring,
    graded_lengths,
)

# A table's span, the coarsest any of its points takes, is the largest power of
# two at most its extent over _BLOCKS, so a level-14 table of 82k degrees has
# 80 blocks of 1024; each span a point takes is built once by Horner's rule.
_BLOCKS = 64
# A block's binomial series stops where its tail is at most 2^-_TAIL_BITS
# times the sum of its values.
_TAIL_BITS = 56
# A point's span keeps rho = span * |exp(w) - 1| at most this: K stays 15
# and the error bound below 1e-14, and a table span of q/16 serves |y| <= 9.
_RHO = 9 / 16
# The machine word of the packed columns.
_WORD = "I"
_WORD_BYTES = array(_WORD).itemsize
_WORD_BITS = 8 * _WORD_BYTES


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

    The coefficients stay exact integers; complex arithmetic enters only in
    the final sum.  Over a ring with relations, ``_phase_sums`` takes it from
    the level's exact block moments.  Over a relation-free ring, level 0 is
    its table's sum and level n >= 1 is that value times one Frobenius factor
    per level (``_fn_levels``), reading the tables of levels 0 and n alone; no
    block moment is built.  At y = 0 the value is the exact rational q^(-d) *
    total length, converted at the boundary.  A sum or product that is not
    finite raises OverflowError.
    """
    return _fn_values(problem, n, [y])[0]


def _fn_values(problem: ProblemSpec, n: int, ys: Sequence[complex]) -> list:
    """F_n at each point of ys (``_fn_levels`` at level n alone)."""
    (values,) = _fn_levels(problem, ys, n, n)
    return values


def _fn_levels(problem: ProblemSpec, ys: Sequence[complex], first: int, last: int):
    """F_m at each point of ys, one list per level m from first to last.

    Every level looks its own table up first, so a level over the budget is
    refused whichever path takes its values, and y = 0 takes the exact
    total.  Over a ring with relations a level sums its table through
    ``_phase_sums``, whose moments serve every later call.  Over a
    relation-free ring S, Frobenius is flat (Kunz, Amer. J. Math. 91, 1969),
    so H_{S/I^[pq]}(t) = H_{S/I^[q]}(t^p) * prod_i sum_{a<p} t^(a w_i) for
    the weights w_i: level 0 sums its table, and F_m(y) = F_(m-1)(y) *
    ``_frobenius_factor`` / p^d at level m >= 1, d the problem's dimension
    (``dim_override`` too), carried up from level 0 in that order, reading
    table 0 and no other level below first.  A value at level m depends only
    on the problem, m and the point, so each is bit-identical to fn_eval at
    that point alone, whatever came before.
    """
    points = [complex(y) for y in ys if y != 0]
    values = None
    for m in range(first, last + 1):
        table = problem.table(m)
        q = problem.prime ** m
        scale = q ** problem.dimension
        if not points:
            values = []
        elif m == 0 or problem.ring.relations:
            values = [s / scale for s in _phase_sums(table, [-1j * y / q for y in points])]
        elif values is None:  # the first level asked for is above 0
            values = _fn_values(problem, 0, points)
            values = _frobenius_steps(problem, values, points, range(1, m + 1))
        else:
            values = _frobenius_steps(problem, values, points, (m,))
        at = iter(values)
        yield [
            next(at) if y != 0 else complex(float(Fraction(table.total(), scale))) for y in ys
        ]


def _frobenius_steps(problem: ProblemSpec, values: list, points: list, levels) -> list:
    """F_m at each of the points, from values = F_(m-1) there, for each m of
    levels in turn, over a relation-free ring; a value that is not finite
    raises OverflowError, naming w = -iy/p^m."""
    weights, p = problem.ring.grading.weights, problem.prime
    scale = p ** problem.dimension
    for m in levels:
        q = p ** m
        stepped = []
        for value, y in zip(values, points):
            w = -1j * y / q
            try:
                value = value * (_frobenius_factor(weights, p, w) / scale)
            except OverflowError:
                raise _not_finite(w) from None
            if not cmath.isfinite(value):
                raise _not_finite(w)
            stepped.append(value)
        values = stepped
    return values


def _frobenius_factor(weights: Sequence[int], p: int, w: complex) -> complex:
    """prod over the weights of sum(exp(a * weight * w) for a < p): p^d times
    F_m / F_(m-1) at w = -iy/p^m, one exponential per term.  Its rounding is
    a few ulps of sum(|terms|), and the product of the terms' moduli over
    the levels is sum(|terms|) of the level sum, so the carried value keeps
    an error that scales with sum(|terms|), as the kernel's does."""
    factor = 1
    for weight in weights:
        factor *= sum(cmath.exp(a * weight * w) for a in range(p))
    return factor


def _phase_sums(table: GradedLengthTable, ws: Iterable[complex]) -> list:
    """sum(v * exp(w * j)) over the lengths j -> v of ``table``, for each w in ws.

    Blocks of ``span`` consecutive degrees run from degree 0 over the
    table's dense run of lengths, read in place, a gap in the run counting
    as 0.  With delta = exp(w) - 1, taken from sinh without cancellation,
    the block from degree a sums to

        exp(w a) * sum_r v_(a+r) (1 + delta)^r = exp(w a) * sum_k delta^k B_k,
        B_k = sum_r C(r, k) v_(a+r),

    and the B_k are non-negative integers that do not depend on w.  The
    table's ``phase_moments`` caches them by span, as float rows, with
    insert-once writes, so fn_eval, fp_limit and the density transforms
    share one build per span.  The table's constructor has refused degrees
    that are not non-negative integers; a build that meets a negative
    length, or a length that is not an integer, raises StructureError.

    A point takes the largest power-of-two span with span * |delta| <= 9/16,
    capped at the table's span (``_table_span``), and so reads 1.8 to 3.6
    times |w| N blocks for N degrees, and never fewer than the table's span
    reads, _BLOCKS to 2 * _BLOCKS.  ``_Moments`` builds the moments at each
    span a point takes by Horner's rule, once per span; no span above the
    table's is built.  The span depends only on the table and w, and a
    span's moments only on the span, so a grid value is bit-identical to
    the same point alone, whatever was served before.  Span 1, which a
    table of fewer than 2 * _BLOCKS degrees always takes, is ``_direct_sum``.

    With u = 2^-53, a build rounds each B_k once, to within u of it
    relative.  The series stops where its tail is at most 2^-56 * sum(v)
    over the block; a step of the complex Horner rule in delta costs at
    most (1 + sqrt(5)) u; and sum_k |delta|^k B_k <= e^(9/16) * sum(v).  So
    a block sum is within about (1 + 3.3 K) u e^(9/16) sum(v) of exact, under
    9.9e-15 * sum(v), and the anchor products and the final sum add about
    (N/span) * u * sum(|terms|).  Measured against a per-term fsum, the
    worst error is 1.27e-15 * sum(|terms|) on parameter23, cusp,
    weighted_plane and three_generator at levels 0 to 14 and |y| from 1e-12
    to 40.  A w, anchor, block sum or total that is not finite raises
    OverflowError.
    """
    ws = list(ws)
    terms = table.lengths
    if not terms or not ws:
        return [0j] * len(ws)
    cap = _table_span(len(terms.run))
    out = []
    for w in ws:
        try:
            if not cmath.isfinite(w):
                raise OverflowError
            delta = 2 * cmath.sinh(w / 2) * cmath.exp(w / 2)
            span = cap
            while span > 1 and not span * abs(delta) <= _RHO:  # a nan delta too
                span //= 2
            if span == 1:
                total = _direct_sum(terms, w)
            else:
                total = _moments_at(table, span).value(w, delta)
        except OverflowError:
            raise _not_finite(w) from None
        if not cmath.isfinite(total):
            raise _not_finite(w)
        out.append(total)
    return out


def _direct_sum(terms: Mapping, w: complex) -> complex:
    """sum(v * exp(w * j)) over the items j -> v of ``terms``, term by term.

    One cmath.exp per term, and math.fsum adds the real parts and the
    imaginary parts exactly, so past each term's own few-ulp rounding the sum
    rounds once, whatever the signs and gaps of the integer terms.  It sums
    the Betti polynomials, the kernel's span-1 points and the bridge's
    reference transform; a table's lengths iterate its run in place,
    skipping its gaps.  A sum that is not finite raises OverflowError.
    """
    try:
        parts = list(map(mul, terms.values(), map(cmath.exp, map(mul, repeat(w), terms))))
        total = complex(*(math.fsum(map(attrgetter(part), parts)) for part in ("real", "imag")))
    except OverflowError:
        raise _not_finite(w) from None
    if not cmath.isfinite(total):
        raise _not_finite(w)
    return total


def _moments_at(table: GradedLengthTable, span: int) -> _Moments:
    """The moments of the table's lengths at span, built once and kept in
    its cache."""
    moments = table.phase_moments
    packed = moments.get(span)
    if packed is None:
        try:
            packed = _Moments(table.lengths, span)
        except (TypeError, AttributeError):  # a degree or length that is not an integer
            raise _not_integers() from None
        packed = moments.setdefault(span, packed)
    return packed


def _table_span(extent: int) -> int:
    """The largest power of two at most extent / _BLOCKS, and at least 1."""
    return 1 << max(0, (extent // _BLOCKS).bit_length() - 1)


def _order(rho: float) -> int:
    """The least K with sum(rho^k / k! for k > K) <= 2^-_TAIL_BITS."""
    k, term = 0, rho  # term = rho^(k+1) / (k+1)!, and the tail is below term / (1 - rho/(k+2))
    while term > math.ldexp(1 - rho / (k + 2), -_TAIL_BITS):
        k += 1
        term *= rho / (k + 1)
    return k


# The most moments a span needs: 15 at rho = 9/16.
_MAX_ORDER = _order(_RHO)


class _Moments:
    """The binomial moments B_k, k <= K, of the blocks of span degrees, one
    row of per-block floats per k; K = min(15, span - 1).

    ``starts`` holds the first degree of each block, b * span for block b,
    and rows[k][b] is B_k of block b.  The blocks cover the table's run,
    which the last one may overhang; _columns counts the overhang as 0.  The
    build rounds each exact moment once, to within u = 2^-53 of it relative.
    """

    __slots__ = ("span", "starts", "rows")

    def __init__(self, lengths: LengthRun, span: int):
        self.span = span
        self.starts = range(0, -(-len(lengths.run) // span) * span, span)
        order = min(_MAX_ORDER, span - 1)
        # the largest moment is at most C(span - 1, min(K, (span - 1) // 2)) * sum(v)
        largest = math.comb(span - 1, min(order, (span - 1) // 2)) * sum(lengths.run)
        slot = max(1, -(-largest.bit_length() // _WORD_BITS))  # a word for all zeros too
        # Horner in (1 + x) from the top offset down: after offset r,
        # acc[k] = sum(C(r' - r, k) * column r' for r' >= r)
        acc = [0] * (order + 1)
        for column in _columns(lengths.run, span, slot):
            for k in range(order, 0, -1):
                acc[k] += acc[k - 1]
            acc[0] += column
        width = slot * _WORD_BYTES
        size = width * len(self.starts)
        self.rows = []
        for packed in acc:
            data = packed.to_bytes(size, "little")
            self.rows.append(array("d", [
                float(int.from_bytes(data[i : i + width], "little")) for i in range(0, size, width)
            ]))

    def value(self, w: complex, delta: complex) -> complex:
        """The sum of the blocks at w, with delta = exp(w) - 1."""
        rows = self.rows[: _order(self.span * abs(delta)) + 1]
        sums = rows.pop()
        for row in reversed(rows):
            sums = list(map(add, map(mul, sums, repeat(delta)), row))
        anchors = map(cmath.exp, map(mul, repeat(w), self.starts))
        return sum(map(mul, sums, anchors), 0j)


def _columns(run: list, span: int, slot: int):
    """The packed columns of the blocks' values, read in place from the
    table's run, from offset span - 1 down to 0.

    Column r is the sum over blocks b of the value at b * span + r times
    2^(slot words * b), a degree past the run counting as 0.  One buffer
    serves every column, so only one column is held at a time.
    """
    part, words = _words(run)
    blocks = -(-len(run) // span)
    part.frombytes(bytes((blocks * span - len(run)) * words * part.itemsize))
    if sys.byteorder == "big":
        part.byteswap()  # so that every word reads little-endian in the columns
    column = array(_WORD, bytes(slot * blocks * part.itemsize))
    for r in reversed(range(span)):
        for i in range(words):
            column[i::slot] = part[r * words + i::span * words]
        yield int.from_bytes(column, "little")


def _words(dense: list) -> tuple:
    """(part, words): non-negative integers in ``words`` machine words each,
    least significant first, as many as the largest value needs; a negative
    value raises StructureError."""
    try:
        return array(_WORD, dense), 1
    except OverflowError:  # a value wider than one word, or a negative one
        if min(dense) < 0:
            raise StructureError("the phase-sum kernel needs non-negative lengths") from None
        words = -(-max(dense).bit_length() // _WORD_BITS)
        mask = (1 << _WORD_BITS) - 1
        shifts = range(0, words * _WORD_BITS, _WORD_BITS)
        return array(_WORD, [v >> k & mask for v in dense for k in shifts]), words


def _not_integers() -> StructureError:
    return StructureError("the phase-sum kernel needs integer degrees and lengths")


def _not_finite(w: complex) -> OverflowError:
    return OverflowError(f"phase sum with w={w} is not finite")


def _interval_step(u: complex) -> complex:
    """exp(-iu) - 1 as -2i * sin(u/2) * exp(-iu/2), without cancellation."""
    return -2j * cmath.sin(u / 2) * cmath.exp(-0.5j * u)


def hk_multiplicity(problem: ProblemSpec, n: int) -> Fraction:
    """The exact rational q^(-d) * length of R/I^[q] at level n."""
    q = problem.prime ** n
    return Fraction(problem.table(n).total(), q ** problem.dimension)


def fp_limit(problem: ProblemSpec, y_grid: Sequence[complex], n_max: int) -> dict:
    """Estimate the limit function on a grid of points.

    Returns, per point, the level-n_max value together with a tail estimate
    of the geometric Cauchy form fitted from the observed successive
    differences at that point (see LimitEstimate).  Requires n_max >= 2.
    The levels come from one pass of ``_fn_levels``, which over a
    relation-free ring carries one Frobenius product per point from level 0,
    and each value is fn_eval's at that point and level, bit for bit.  An
    empty grid returns {} and builds no level table.
    """
    if n_max < 2:
        raise StructureError("n_max must be at least 2 to fit a tail bound")
    y_grid = list(y_grid)
    if not y_grid:
        return {}
    p = problem.prime
    levels = list(_fn_levels(problem, y_grid, 0, n_max))
    out = {}
    for i, y in enumerate(y_grid):
        values = [level[i] for level in levels]
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
    the deviation measures floating-point error.  Each factor 1 - z^d comes
    from the cancellation-free interval step and B_n(z) from the direct
    per-term sum, one exponential per term of B_n, while F_n comes from
    fn_eval's path for the whole grid: the phase-sum kernel over a ring with
    relations, and over a relation-free ring the Frobenius product carried
    from level 0's sum; so the check compares either with an independent
    sum.  The deviation stays near the rounding of F_n for |y| >= 1e-3.
    Below that, cancellation inside B_n(z) itself dominates: B_n has the
    order-d zero of prod(1 - z^d) at z = 1 and terms of size ell_j.
    """
    degrees = _checked_degrees(hsop_degrees)
    terms = betti_alternating_polynomial(problem, degrees, n_max).coeffs
    y_grid = list(y_grid)
    if any(y == 0 for y in y_grid):
        raise EvaluationDomainError("betti_limit_check needs nonzero grid points")
    q = problem.prime ** n_max
    us = [complex(y) / q for y in y_grid]
    deviations = {}
    for y, u, fn in zip(y_grid, us, _fn_values(problem, n_max, y_grid)):
        denom = 1.0 + 0j
        for d in degrees:
            denom *= -q * _interval_step(d * u)
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
    with B_n from ``betti_alternating_polynomial``, built once for the grid
    and summed at each point by the direct per-term sum, one exponential per
    term of B_n.  When the hsop is a
    regular sequence, H_{R/(hsop)} = prod(1 - t^d_i) * H_R and B_n is
    chi(R/(hsop), R/I^[q]), so this is the chi form; the caller asserts it.
    """
    degrees = _checked_degrees(hsop_degrees)
    terms = betti_alternating_polynomial(problem, degrees, n).coeffs
    y_grid = list(y_grid)
    if any(y == 0 for y in y_grid):
        raise EvaluationDomainError("the chi form has a pole at y = 0; use the series path")
    q, scale = problem.prime ** n, math.prod(degrees)
    return {
        y: _direct_sum(terms, -1j * complex(y) / q) / (scale * (1j * complex(y)) ** len(degrees))
        for y in y_grid
    }


def _checked_degrees(hsop_degrees: Sequence[int]) -> tuple:
    return positive_degrees(hsop_degrees, "parameter degree", at_least_one=True)
