import cmath
import random
from fractions import Fraction

import pytest

from fpfun.errors import EvaluationDomainError, InexactDivisionError, StructureError
from fpfun.hilbert import (
    HilbertSeries,
    LaurentPolynomialZ,
    chi_polynomial,
    chi_series,
    eval_series,
    hilbert_samuel,
    series_of_ring,
    series_of_table,
)
from fpfun.ideals import GradedLengthTable


def lp(coeffs):
    return LaurentPolynomialZ(coeffs)


ONE = LaurentPolynomialZ.one()


class TestLaurentPolynomial:
    def test_mul(self):
        a = lp({0: 1, 1: 1})
        assert a * a == lp({0: 1, 1: 2, 2: 1})

    def test_negative_exponents(self):
        a = lp({-2: 3, 1: 1})
        assert (a * lp({2: 1})) == lp({0: 3, 3: 1})

    def test_divide_exact(self):
        num = lp({0: 1, 2: -2, 4: 1})  # (1 - t^2)^2
        q = num.divide_exact(lp({0: 1, 2: -1}))
        assert q == lp({0: 1, 2: -1})

    def test_divide_inexact_raises(self):
        with pytest.raises(InexactDivisionError):
            lp({0: 1, 1: 1}).divide_exact(lp({0: 1, 1: -1}))

    def test_divide_laurent_shift(self):
        num = lp({-1: 1, 0: -1})  # t^-1 (1 - t)
        q = num.divide_exact(lp({0: 1, 1: -1}))
        assert q == lp({-1: 1})

    def test_divide_non_unit_leading_coefficient(self):
        assert lp({0: 2, 1: 4, 2: -6}).divide_exact(lp({0: 1, 1: 3})) == lp({0: 2, 1: -2})
        with pytest.raises(InexactDivisionError):
            lp({0: 1, 1: 1}).divide_exact(lp({0: 1, 1: 2}))  # quotient 1/2

    def test_divide_by_longer_polynomial_raises(self):
        with pytest.raises(InexactDivisionError, match="not be a Laurent polynomial"):
            lp({0: 1, 1: 1}).divide_exact(lp({0: 1, 3: -1}))

    def test_divide_exact_random_products(self):
        rng = random.Random(11)
        for _ in range(300):
            a = lp({rng.randint(-3, 6): rng.randint(-5, 5) for _ in range(rng.randint(1, 6))})
            span = rng.randint(1, 4)
            b = lp({k: rng.randint(-3, 3) for k in range(1, span)})
            b = b + lp({0: rng.choice((-2, -1, 1, 2)), span: rng.choice((-3, -2, -1, 1, 2, 3))})
            b = b * lp({rng.randint(-2, 2): 1})
            assert (a * b).divide_exact(b) == a
            # b has two or more terms, so no nonzero monomial is a multiple of it
            with pytest.raises(InexactDivisionError):
                (a * b + lp({rng.randint(-5, 8): 1})).divide_exact(b)

    def test_evaluate(self):
        a = lp({0: 1, 3: 2})
        assert a.evaluate(0.5) == pytest.approx(1.25)


class TestSeriesOfRing:
    def test_standard_plane(self, plane):
        h = series_of_ring(plane.ring)
        assert h.numerator == ONE
        assert h.denominator_degrees == (1, 1)

    def test_cusp_complete_intersection_numerator(self, cusp):
        h = series_of_ring(cusp.ring)
        assert h.numerator == lp({0: 1, 6: -1})
        assert h.denominator_degrees == (2, 3)

    def test_one_variable_weighted(self):
        from fpfun.algebra import Grading, PrimeField
        from fpfun.ideals import RingPresentation

        for delta in (1, 2, 7):
            ring = RingPresentation(PrimeField(2), Grading((delta,)), (), ("X",))
            h = series_of_ring(ring)
            assert h.numerator == ONE
            assert h.denominator_degrees == (delta,)
            # graded pieces sit exactly at multiples of delta
            coeffs = h.series_coefficients(3 * delta)
            expected = [1 if j % delta == 0 else 0 for j in range(3 * delta + 1)]
            assert coeffs == expected


class TestSeriesOfTable:
    def test_transcription(self):
        t = GradedLengthTable(1, 2, {0: 1, 1: 2, 2: 1})
        assert series_of_table(t).numerator == lp({0: 1, 1: 2, 2: 1})

    def test_point(self):
        t = GradedLengthTable(0, 2, {0: 1})
        assert series_of_table(t).numerator == ONE

    def test_cusp_table(self, cusp):
        h = series_of_table(cusp.table(1))
        assert h.numerator == lp({0: 1, 2: 1, 3: 1, 5: 1})
        assert h.denominator_degrees == ()


class TestHilbertSamuel:
    def test_standard_plane(self):
        h = HilbertSeries(ONE, (1, 1))
        assert hilbert_samuel(h) == (2, Fraction(1))

    def test_cusp(self):
        h = HilbertSeries(lp({0: 1, 6: -1}), (2, 3))
        assert hilbert_samuel(h) == (1, Fraction(1))

    def test_weighted_plane(self):
        h = HilbertSeries(ONE, (2, 3))
        assert hilbert_samuel(h) == (2, Fraction(1, 6))

    def test_finite_length(self):
        h = HilbertSeries(lp({0: 1, 1: 2, 2: 1}), ())
        assert hilbert_samuel(h) == (0, Fraction(4))

    def test_parameter_multiplicity_identity(self, suite_problems):
        # Hilbert-Kunz multiplicity of a parameter ideal = d_1...d_d * e_R
        from fpfun.fp import hk_multiplicity

        for name in ("plane", "cusp", "weighted_plane"):
            problem, hsop = suite_problems[name]
            d, e = hilbert_samuel(series_of_ring(problem.ring))
            assert d == len(hsop), name
            product = Fraction(1)
            for deg in hsop:
                product *= deg
            for n in range(4):
                assert hk_multiplicity(problem, n) == product * e, name


class TestChiSeries:
    def test_koszul_square(self):
        h_m = HilbertSeries(lp({0: 1, 1: 2, 2: 1}), ())
        h_r = HilbertSeries(ONE, (1, 1))
        chi = chi_series(h_m, HilbertSeries.one(), h_r)
        assert chi.denominator_degrees == ()
        assert chi.numerator == lp({0: 1, 2: -2, 4: 1})

    def test_module_equals_ring(self, cusp):
        h_r = series_of_ring(cusp.ring)
        chi = chi_series(h_r, HilbertSeries.one(), h_r)
        assert chi.numerator == ONE
        assert chi.denominator_degrees == ()

    def test_koszul_pair_of_powers(self):
        # quotient by (X^d1, Y^d2) against the standard plane
        for d1, d2 in ((1, 1), (2, 3), (3, 4)):
            table = {}
            for a in range(d1):
                for b in range(d2):
                    table[a + b] = table.get(a + b, 0) + 1
            h_m = HilbertSeries(lp(table), ())
            chi = chi_series(h_m, HilbertSeries.one(), HilbertSeries(ONE, (1, 1)))
            expected = lp({0: 1, d1: -1}) * lp({0: 1, d2: -1})
            assert chi.numerator == expected

    def test_chi_polynomial(self):
        h_m = HilbertSeries(lp({0: 1, 1: 2, 2: 1}), ())
        chi = chi_polynomial(h_m, HilbertSeries.one(), HilbertSeries(ONE, (1, 1)))
        assert chi == lp({0: 1, 2: -2, 4: 1})

    def test_chi_polynomial_rejects_a_remaining_denominator(self):
        with pytest.raises(StructureError):
            chi_polynomial(HilbertSeries(ONE, (2,)), HilbertSeries.one(), HilbertSeries.one())

    def test_inexact_division_raises(self):
        h_m = HilbertSeries(lp({0: 1, 1: 1}), ())
        h_r = HilbertSeries(lp({0: 1, 1: 1, 2: 1}), ())
        with pytest.raises(InexactDivisionError):
            chi_series(h_m, HilbertSeries.one(), h_r)


class TestEvalSeries:
    def test_polynomial_at_zero(self):
        assert eval_series(HilbertSeries(lp({0: 1, 1: 1}), ()), 0) == 1

    def test_geometric(self):
        assert eval_series(HilbertSeries(ONE, (1,)), 0.5) == pytest.approx(2.0)

    def test_against_series_expansion(self, cusp):
        h = series_of_ring(cusp.ring)
        z = 0.5
        coeffs = h.series_coefficients(60)
        oracle = sum(c * z ** j for j, c in enumerate(coeffs))
        assert abs(eval_series(h, z) - oracle) <= 1e-12

    def test_domain_error_outside_disk(self):
        h = HilbertSeries(ONE, (1,))
        with pytest.raises(EvaluationDomainError):
            eval_series(h, 1.0)
        with pytest.raises(EvaluationDomainError):
            eval_series(h, 1.2j)
        # polynomial numerators evaluate anywhere
        assert eval_series(HilbertSeries(lp({0: 1, 1: 1}), ()), 3.0) == 4.0

    def test_reduce_preserves_value(self, cusp):
        rng = random.Random(21)
        h = series_of_ring(cusp.ring)
        reduced = h.reduce()
        assert reduced.denominator_degrees != h.denominator_degrees
        for _ in range(20):
            r = rng.uniform(0, 0.85)
            theta = rng.uniform(0, 6.28318)
            z = r * cmath.exp(1j * theta)
            assert abs(eval_series(h, z) - eval_series(reduced, z)) <= 1e-10


class TestRationalEquality:
    def test_cross_multiplication(self):
        a = HilbertSeries(lp({0: 1, 6: -1}), (2, 3))
        b = a.reduce()
        assert a.equal_as_rational(b)
        c = HilbertSeries(lp({0: 1, 5: -1}), (2, 3))
        assert not a.equal_as_rational(c)
