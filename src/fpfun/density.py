"""Hilbert-Kunz density function samples and their holomorphic Fourier
transforms.

The level-n density sample is the step function g_n(x) = q^(1-d) * ell_j on
[j/q, (j+1)/q), read in place from the level's exact length table.  Its
Fourier transform relates to the level-n function by the exact identity
gn_hat(y) = F_n(y) * (1 - exp(-iy/q)) / (iy/q).  quadrature_fourier
integrates each 1/q interval of the samples, taking the sum of
ell_j * exp(-iyj/q) from the phase-sum kernel (fp._phase_sums), and
gn_fourier_exact scales fn_eval; both take the interval factor
exp(-iy/q) - 1 from one cancellation-free step that keeps tiny |y|
accurate.  Over a ring with relations fn_eval reads the same kernel sum, so
the two differ only in where a scale factor is applied; over a
relation-free ring fn_eval is the Frobenius product that fp._fn_levels
carries up from level 0, so their gap measures the kernel against it.  The
bridge checks the kernel on every ring: direct_fourier is the same
transform with that sum taken term by term (fp._direct_sum, one exponential
per entry), and the bridge gap is its distance from quadrature_fourier.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import EvaluationDomainError
from .fp import ProblemSpec, _direct_sum, _interval_step, _phase_sums, fn_eval
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

    fn_eval weights each ell_j by q^(-d), and over a relation-free ring
    takes the Frobenius product, with no kernel sum; the factor comes from
    the shared interval step.  At y = 0 the transform equals F_n(0) exactly.
    """
    if y == 0:
        return fn_eval(problem, n, 0)
    u = complex(y) / problem.prime ** n
    return fn_eval(problem, n, y) * _interval_step(u) / (-1j * u)


def quadrature_fourier(table: DensityTable, y: complex) -> complex:
    """Integrate g_n(x) * exp(-iyx) over each interval [j/q, (j+1)/q).

    Each interval contributes its sample q^(1-d) * ell_j times
    exp(-iyj/q) * (exp(-iy/q) - 1) / (-iy).  The kernel sums the integers
    ell_j * exp(-iyj/q) over the level table, the factor
    q^(1-d) is applied once to that sum, and the interval factor comes from
    the shared interval step.  The y -> 0 limit branch returns the step
    function's mass.  A sum that is not finite raises OverflowError.
    """
    return _transform(table, y, lambda w: _phase_sums(table.table, [w])[0])


def direct_fourier(table: DensityTable, y: complex) -> complex:
    """quadrature_fourier with the sum of ell_j * exp(-iyj/q) taken term by
    term (fp._direct_sum), not from the block moments: the bridge's reference."""
    return _transform(table, y, lambda w: _direct_sum(table.table.lengths, w))


def _transform(table: DensityTable, y: complex, phase_sum) -> complex:
    """The transform at y from phase_sum(w), the sum of ell_j * exp(w j)."""
    if y == 0:
        return complex(float(table.mass()))
    y = complex(y)
    q = table.q
    total = phase_sum(-1j * y / q) / q ** (table.d - 1)
    return total * _interval_step(y / q) / (-1j * y)
