"""Hilbert-Kunz density function samples and their holomorphic Fourier
transforms.

The level-n density sample is the step function g_n(x) = q^(1-d) * ell_j on
[j/q, (j+1)/q), read in place from the level's exact length table.  Its
Fourier transform relates to the level-n function by the exact identity
gn_hat(y) = F_n(y) * (1 - exp(-iy/q)) / (iy/q).  quadrature_fourier
integrates each 1/q interval of the samples, taking the sum of
ell_j * exp(-iyj/q) from the level's exact Hilbert numerator
(fp._numerator_sum), and gn_fourier_exact scales fn_eval; both take the
interval factor (exp(-iy/q) - 1) / (-iy/q) from one helper,
fp._interval_ratio, that keeps tiny |y| accurate and, at odd p, the
factor's zeros at y = 2 pi k q.  Over a relation-free ring fn_eval is
level 0's sum times Kunz's closed-form factors, and over a complete
intersection (the cusps) a product of interval ratios, with no numerator
sum, so on those rings their gap measures the numerator sum against an
independent route.  The bridge checks the numerator sum on every ring:
direct_fourier is the same transform with the
sum taken term by term over the table (fp._direct_sum, one exponential per
entry), and the bridge gap is its distance from quadrature_fourier.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import EvaluationDomainError
from .fp import ProblemSpec, _direct_sum, _finite, _interval_ratio, _numerator_sum, fn_eval
from .ideals import GradedLengthTable


@dataclass(frozen=True)
class DensityTable:
    """Samples x = j/q -> g_n(x) = q^(1-d) * ell_j, all exact rationals, read
    in place from the dense run of the level's own length table ``table``,
    whose entry j is ell_j; nothing is copied."""

    table: GradedLengthTable
    d: int

    @property
    def q(self) -> int:
        return self.table.p ** self.table.n

    @property
    def entries(self):
        """The pairs (j, ell_j) of the nonzero lengths in ascending j: a view
        of the table's run, whose ``len`` counts the nonzero degrees."""
        return self.table.lengths.items()

    def value_at_index(self, j: int) -> Fraction:
        return Fraction(self.table.lengths.get(j, 0), self.q ** (self.d - 1))

    def value_at(self, x) -> Fraction:
        """Step-function value g_n(x) = q^(1-d) * ell_floor(x*q)."""
        j = int(Fraction(x) * self.q) if Fraction(x) >= 0 else -1
        return self.value_at_index(j)

    def samples(self):
        """Pairs (x, g_n(x)) over the nonzero support, exact."""
        q = self.q
        scale = q ** (self.d - 1)
        return [(Fraction(j, q), Fraction(ell, scale)) for j, ell in self.entries]

    def mass(self) -> Fraction:
        """Exact integral of the step function; equals F_n(0)."""
        return Fraction(self.table.total(), self.q ** self.d)

    def support_right_endpoint(self) -> Fraction:
        return Fraction(self.table.max_degree + 1, self.q)


def density_table(problem: ProblemSpec, n: int) -> DensityTable:
    """Exact density samples at level n; defined for dimension d >= 1 only."""
    d = problem.dimension
    if d < 1:
        raise EvaluationDomainError(
            "density samples need dimension at least 1; a zero-dimensional problem "
            "concentrates at the origin and has no function-valued density"
        )
    return DensityTable(problem.table(n), d)


def gn_fourier_exact(problem: ProblemSpec, n: int, y: complex) -> complex:
    """Closed form of the transform of g_n: F_n(y) * (1 - exp(-iy/q)) / (iy/q).

    fn_eval weights each ell_j by q^(-d); over a relation-free ring it is
    level 0's sum times Kunz's closed-form factors, and over a complete
    intersection a product of interval ratios, with no numerator sum.
    The factor comes from the shared interval ratio, which is 1 at y = 0, so
    the transform there is F_n(0).
    One that is not finite raises OverflowError.
    """
    q = problem.prime ** n
    return _finite(fn_eval(problem, n, y) * _interval_ratio(complex(y), q),
                   f"transform at level {n}", -1j * (complex(y) / q))


def quadrature_fourier(table: DensityTable, y: complex) -> complex:
    """Integrate g_n(x) * exp(-iyx) over each interval [j/q, (j+1)/q).

    Each interval contributes its sample q^(1-d) * ell_j times
    exp(-iyj/q) * (exp(-iy/q) - 1) / (-iy).  The sum of ell_j * exp(-iyj/q)
    times q^(1-d) is the level table's exact Hilbert numerator over its
    weights, summed by fp._numerator_sum, and the interval factor is the
    shared interval ratio at y/q, divided by q.  The y -> 0 limit branch
    returns the step function's mass.  A sum or a transform that is not
    finite raises OverflowError.
    """
    level, q = table.table, table.q
    return _transform(table, y, lambda y: _numerator_sum(
        level.numerator, level.weights, y, level.n, q, q ** (table.d - 1)))


def direct_fourier(table: DensityTable, y: complex) -> complex:
    """quadrature_fourier with the sum of ell_j * exp(-iyj/q) taken term by
    term over the level table (fp._direct_sum), not from its numerator: the
    bridge's reference."""
    q = table.q
    return _transform(table, y, lambda y: _direct_sum(table.table.lengths, -1j * y / q)
                      / q ** (table.d - 1))


def _transform(table: DensityTable, y: complex, level_sum) -> complex:
    """The transform at y from level_sum(y), the sum of q^(1-d) * ell_j * exp(-iyj/q)."""
    if y == 0:
        return complex(float(table.mass()))
    q = table.q
    return _finite(level_sum(complex(y)) * _interval_ratio(complex(y), q) / q,
                   f"transform at level {table.table.n}", -1j * (complex(y) / q))
