import math
import random
from fractions import Fraction

import pytest

from fpfun import selfcheck
from fpfun.errors import InexactDivisionError, StructureError
from fpfun.fp import betti_alternating_polynomial
from fpfun.hilbert import (
    HilbertSeries,
    LaurentPolynomialZ,
    chi_series,
    hilbert_samuel,
    series_of_ring,
    series_of_table,
)
from fpfun.ideals import (
    GradedLengthTable,
    enumeration_oracle,
    series_expansion,
    staircase_numerator,
)
from fpfun.selfcheck import random_zero_dimensional_monomial_ideal


def lp(coeffs):
    return LaurentPolynomialZ(coeffs)


ONE = LaurentPolynomialZ.one()


def schoolbook(a, b):
    """Reference product: the double loop over both coefficient dicts."""
    out = {}
    for e1, c1 in a.coeffs.items():
        for e2, c2 in b.coeffs.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return lp(out)


def plus(a, b):
    out = dict(a.coeffs)
    for e, c in b.coeffs.items():
        out[e] = out.get(e, 0) + c
    return lp(out)


def one_minus(*degrees):
    """prod(1 - t^d) by the reference product."""
    out = ONE
    for d in degrees:
        out = schoolbook(out, lp({0: 1, d: -1}))
    return out


class TestLaurentPolynomial:
    def test_times_one_minus(self):
        a = lp({0: 1, 1: 1})
        assert a.times_one_minus((1,)) == lp({0: 1, 2: -1})
        assert ONE.times_one_minus((1, 1)) == lp({0: 1, 1: -2, 2: 1})
        assert a.times_one_minus(()) == a

    def test_negative_exponents(self):
        a = lp({-2: 3, 1: 1})
        assert a.times_one_minus((2,)) == lp({-2: 3, 0: -3, 1: 1, 3: -1})

    def test_times_one_minus_matches_schoolbook(self):
        rng = random.Random(1313)
        for _ in range(400):
            low = rng.randint(-6, 4)
            a = lp({e: rng.randint(-4, 4) for e in range(low, low + rng.randint(0, 7))})
            degrees = [rng.randint(1, 5) for _ in range(rng.randint(0, 4))]
            if degrees and rng.random() < 0.3:
                degrees.append(degrees[0])
            assert a.times_one_minus(degrees) == schoolbook(a, one_minus(*degrees)), (a, degrees)
        zero = LaurentPolynomialZ.zero()
        assert zero.times_one_minus((1, 1, 3)) == zero
        assert zero.times_one_minus(()) == zero

    def test_times_one_minus_refuses_non_positive_degrees(self):
        for bad in (0, -1, 1.5):
            with pytest.raises(StructureError, match="positive integer"):
                ONE.times_one_minus((1, bad))
            with pytest.raises(StructureError, match="positive integer"):
                LaurentPolynomialZ.zero().times_one_minus((bad,))

    def test_times_one_minus_refuses_a_boolean_degree(self):
        with pytest.raises(StructureError, match="^factor degree True must be a positive integer$"):
            ONE.times_one_minus((1, True))

    def test_series_refuses_a_boolean_denominator_degree(self):
        for bad in (True, 0):
            message = f"^denominator degree {bad} must be a positive integer$"
            with pytest.raises(StructureError, match=message):
                HilbertSeries(ONE, (2, bad))

    def test_non_integer_coefficient_refused(self):
        for bad in (0.5, 1.0, Fraction(1, 2), "1", None):
            with pytest.raises(StructureError, match="coefficient"):
                lp({0: 1, 3: bad})

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
            ends = {0: rng.choice((-2, -1, 1, 2)), span: rng.choice((-3, -2, -1, 1, 2, 3))}
            b = plus(b, lp(ends))
            b = schoolbook(b, lp({rng.randint(-2, 2): 1}))
            assert schoolbook(a, b).divide_exact(b) == a
            # b has two or more terms, so no nonzero monomial is a multiple of it
            with pytest.raises(InexactDivisionError):
                plus(schoolbook(a, b), lp({rng.randint(-5, 8): 1})).divide_exact(b)


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
            coeffs = series_expansion(h.numerator.coeffs, h.denominator_degrees, 3 * delta)
            expected = [1 if j % delta == 0 else 0 for j in range(3 * delta + 1)]
            assert coeffs == expected

    def test_many_leading_terms(self):
        # F_2[x,y,z,w]/(x,y,z)^6: the relations have 28 leading terms, w
        # stays free, and 56 monomials in x, y, z have degree below 6
        from fpfun.algebra import Grading, Polynomial, PrimeField
        from fpfun.ideals import RingPresentation

        field, grading = PrimeField(2), Grading((1, 1, 1, 1))
        relations = tuple(
            Polynomial(field, grading, {(a, b, 6 - a - b, 0): 1})
            for a in range(7) for b in range(7 - a)
        )
        ring = RingPresentation(field, grading, relations, ("x", "y", "z", "w"))
        assert len(relations) == 28
        assert hilbert_samuel(series_of_ring(ring)) == (1, Fraction(56))


class TestSeriesOfTable:
    def test_transcription(self):
        # a table built without a numerator is its own numerator over ()
        t = GradedLengthTable(1, 2, {0: 1, 1: 2, 2: 1})
        assert series_of_table(t) == HilbertSeries(lp({0: 1, 1: 2, 2: 1}), ())

    def test_weights_need_their_numerator(self):
        with pytest.raises(StructureError, match="needs their numerator"):
            GradedLengthTable(1, 2, {0: 1, 1: 2, 2: 1}, weights=(1, 1))

    def test_point(self):
        t = GradedLengthTable(0, 2, {0: 1})
        assert series_of_table(t).numerator == ONE

    def test_cusp_table(self, cusp):
        # the table 1 + t^2 + t^3 + t^5 = (1 - t^4)(1 - t^6) / ((1 - t^2)(1 - t^3)),
        # kept as the level's staircase numerator over the ring's weights
        h = series_of_table(cusp.table(1))
        assert h.numerator == lp({0: 1, 4: -1, 6: -1, 10: 1})
        assert h.denominator_degrees == (2, 3)
        assert series_expansion(h.numerator.coeffs, h.denominator_degrees, 10) == [
            1, 0, 1, 1, 0, 1, 0, 0, 0, 0, 0
        ]


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

    def test_random_series(self):
        # t^s (1 - t)^v Q / prod(1 - t^d) with Q(1) != 0 has dimension len(d) - v
        # and multiplicity Q(1) / prod(d); v > len(d) is not a Hilbert series.
        rng = random.Random(1010)
        for _ in range(500):
            degrees = tuple(rng.randint(1, 4) for _ in range(rng.randint(0, 4)))
            q = lp({})
            while q.value_at_one() == 0:
                q = lp({e: rng.randint(-5, 5) for e in range(rng.randint(1, 5))})
            v = rng.randint(0, 5)
            numerator = schoolbook(lp({rng.randint(-3, 3): 1}), q)
            numerator = schoolbook(numerator, one_minus(*[1] * v))
            series = HilbertSeries(numerator, degrees)
            if v > len(degrees):
                with pytest.raises(StructureError):
                    hilbert_samuel(series)
            else:
                expected = Fraction(q.value_at_one(), math.prod(degrees))
                assert hilbert_samuel(series) == (len(degrees) - v, expected)

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
        assert chi_series(h_m, h_r) == lp({0: 1, 2: -2, 4: 1})

    def test_module_equals_ring(self, cusp):
        h_r = series_of_ring(cusp.ring)
        assert chi_series(h_r, h_r) == ONE

    def test_koszul_pair_of_powers(self):
        # quotient by (X^d1, Y^d2) against the standard plane
        for d1, d2 in ((1, 1), (2, 3), (3, 4)):
            table = {}
            for a in range(d1):
                for b in range(d2):
                    table[a + b] = table.get(a + b, 0) + 1
            h_m = HilbertSeries(lp(table), ())
            chi = chi_series(h_m, HilbertSeries(ONE, (1, 1)))
            expected = one_minus(d1, d2)
            assert chi == expected

    def test_chi_polynomial(self):
        h_m = HilbertSeries(lp({0: 1, 1: 2, 2: 1}), ())
        chi = chi_series(h_m, HilbertSeries(ONE, (1, 1)))
        assert chi == lp({0: 1, 2: -2, 4: 1})

    def test_divisor_one_takes_no_division(self, monkeypatch):
        def refuse(self, divisor):
            raise AssertionError("division by 1")

        h_m = HilbertSeries(lp({0: 1, 1: 2, 2: 1}), ())
        monkeypatch.setattr(LaurentPolynomialZ, "divide_exact", refuse)
        assert chi_series(h_m, HilbertSeries(ONE, (1, 1))) == lp({0: 1, 2: -2, 4: 1})

    def test_chi_polynomial_rejects_a_remaining_denominator(self):
        with pytest.raises(InexactDivisionError):
            chi_series(HilbertSeries(ONE, (2,)), HilbertSeries(ONE, ()))

    def test_inexact_division_raises(self):
        h_m = HilbertSeries(lp({0: 1, 1: 1}), ())
        h_r = HilbertSeries(lp({0: 1, 1: 1, 2: 1}), ())
        with pytest.raises(InexactDivisionError):
            chi_series(h_m, h_r)

    def test_artinian_quotient_is_the_staircase_numerator(self):
        # For S/M with M an m-primary monomial ideal, H_{S/M} / H_S is the
        # inclusion-exclusion numerator of the staircase, counted here by the
        # box-walk oracle on one side and by staircase_numerator on the other.
        rng = random.Random(808)
        for _ in range(200):
            ideal, grading = random_zero_dimensional_monomial_ideal(rng)
            table = enumeration_oracle(ideal, grading)
            h_m = HilbertSeries(lp(table), ())
            h_s = HilbertSeries(ONE, grading.weights)
            expected = lp(staircase_numerator(ideal, grading))
            assert chi_series(h_m, h_s) == expected, (ideal.generators, grading.weights)



def dense_times_one_minus(poly, degrees):
    """Reference product: one shifted subtraction per factor on the dense
    coefficient list from the valuation to the degree."""
    if poly.is_zero():
        return poly
    work = [poly.coeffs.get(e, 0) for e in range(poly.valuation, poly.degree + 1)]
    for d in degrees:
        work = [a - b for a, b in zip(work + [0] * d, [0] * d + work)]
    return lp({e: c for e, c in enumerate(work, poly.valuation) if c})


def dense_chi(h_m, h_r):
    """Reference quotient (N_M * D_R) / (N_R * D_M): two dense products and
    one divide_exact, skipped when the divisor is 1."""
    numerator = dense_times_one_minus(h_m.numerator, h_r.denominator_degrees)
    divisor = dense_times_one_minus(h_r.numerator, h_m.denominator_degrees)
    if divisor == ONE:
        return numerator
    return numerator.divide_exact(divisor)


def outcome(quotient, h_m, h_r):
    """The quotient's coefficients, or the name of the error it raised."""
    try:
        return quotient(h_m, h_r).coeffs
    except (InexactDivisionError, ZeroDivisionError) as exc:
        return type(exc).__name__


class TestSparseQuotient:
    def test_artinian_quotients_match_the_dense_reference(self):
        # the quotients of test_artinian_quotient_is_the_staircase_numerator,
        # with the module's series as its table over () and as its staircase
        # numerator over the weights
        rng = random.Random(808)
        for _ in range(200):
            ideal, grading = random_zero_dimensional_monomial_ideal(rng)
            h_s = HilbertSeries(ONE, grading.weights)
            for h_m in (HilbertSeries(lp(enumeration_oracle(ideal, grading)), ()),
                        HilbertSeries(lp(staircase_numerator(ideal, grading)), grading.weights)):
                assert chi_series(h_m, h_s) == dense_chi(h_m, h_s), (ideal.generators, grading.weights)

    def test_cusp_leaves_a_division_by_one_minus_t_cubed(self, cusp):
        # weights (2, 3) against the parameter degree 2: (1 - t^2) cancels
        # and the numerator is divided by 1 - t^3; the reference takes the
        # table itself, as B_n was taken before tables carried a numerator
        hsop = HilbertSeries(ONE, (2,))
        for n in range(11):
            table = cusp.table(n)
            h_m = series_of_table(table)
            assert h_m.denominator_degrees == (2, 3)
            expected = dense_chi(HilbertSeries(lp(dict(table.lengths)), ()), hsop)
            assert chi_series(h_m, hsop) == expected == dense_chi(h_m, hsop), n

    def test_random_quotients_match_the_dense_reference(self):
        # N_M = A * N_R * prod(D_M) gives the quotient A * prod(D_R); one
        # extra term makes it inexact, and both sides must then raise
        rng = random.Random(1919)
        rings = (ONE, lp({0: 1, 6: -1}), lp({0: 1, 1: 1}), lp({0: 2, 3: -1}))
        for k in range(300):
            a = lp({rng.randint(-3, 8): rng.randint(-4, 4) for _ in range(rng.randint(0, 5))})
            d_m = tuple(rng.randint(1, 4) for _ in range(rng.randint(0, 3)))
            d_r = tuple(rng.randint(1, 4) for _ in range(rng.randint(0, 3)))
            n_r = rng.choice(rings)
            n_m = schoolbook(schoolbook(a, n_r), one_minus(*d_m))
            if k % 2:
                n_m = plus(n_m, lp({rng.randint(-4, 12): rng.choice((-1, 1))}))
            h_m, h_r = HilbertSeries(n_m, d_m), HilbertSeries(n_r, d_r)
            expected = outcome(dense_chi, h_m, h_r)
            assert outcome(chi_series, h_m, h_r) == expected, (n_m, d_m, n_r, d_r)
            if not k % 2:
                assert expected == schoolbook(a, one_minus(*d_r)).coeffs

    def test_zero_ring_numerator(self):
        h_m = HilbertSeries(lp({0: 1, 1: 1}), (1,))
        for h_r in (HilbertSeries(lp({}), ()), HilbertSeries(lp({}), (2,))):
            assert outcome(chi_series, h_m, h_r) == "ZeroDivisionError"

    def test_parameter23_level_14_builds_nothing_dense(self, parameter23, monkeypatch):
        # B_14 = (1 - t^{2q})(1 - t^{3q}) with q = 16384, from a 4-term
        # numerator: no polynomial above 16 terms and no divide_exact
        parameter23.table(14)
        init = LaurentPolynomialZ.__init__
        sizes = []

        def recording(self, coeffs):
            sizes.append(len(coeffs))
            init(self, coeffs)

        def refuse(self, divisor):
            raise AssertionError("divide_exact called")

        monkeypatch.setattr(LaurentPolynomialZ, "__init__", recording)
        monkeypatch.setattr(LaurentPolynomialZ, "divide_exact", refuse)
        q = 2**14
        betti = betti_alternating_polynomial(parameter23, (1, 1), 14)
        assert betti == schoolbook(lp({0: 1, 2 * q: -1}), lp({0: 1, 3 * q: -1}))
        assert sizes and max(sizes) <= 16

    @pytest.mark.parametrize("name", ["parameter23", "cusp", "weighted_plane"])
    def test_level_14_takes_no_division(self, name, suite_problems, monkeypatch):
        # the three problems of the limit_eval benchmark workload, at its level
        problem, hsop = suite_problems[name]
        problem.table(14)
        init = LaurentPolynomialZ.__init__

        def small(self, coeffs):
            assert len(coeffs) <= 16, "a dense polynomial was built"
            init(self, coeffs)

        def refuse(self, divisor):
            raise AssertionError("divide_exact called")

        monkeypatch.setattr(LaurentPolynomialZ, "__init__", small)
        monkeypatch.setattr(LaurentPolynomialZ, "divide_exact", refuse)
        assert betti_alternating_polynomial(problem, hsop, 14).value_at_one() == 0


class TestIdentityCheck:
    def test_divides_on_every_suite_problem(self, monkeypatch):
        # where the suite's parameter degrees are the ring's weights, B_n is
        # the staircase numerator itself, so the self test's identity check
        # adds degrees (1, 2) there, and every suite problem meets a B_n
        # other than its numerator
        divided, calls, levels = set(), [], set()
        build = selfcheck.betti_alternating_polynomial

        def recording(problem, hsop, n):
            betti = build(problem, hsop, n)
            calls.append(hsop)
            levels.add(n)
            if betti != lp(dict(problem.table(n).numerator)):
                divided.add(problem)
            return betti

        monkeypatch.setattr(selfcheck, "betti_alternating_polynomial", recording)
        assert selfcheck.check_ab_identity(levels=2) == len(calls) == 4 * 9
        assert calls.count((1, 2)) == 4 * 4 and len(divided) == 5
        assert levels == {0, 1, 2, 8}
        levels.clear()
        assert selfcheck.check_ab_identity(levels=0, deep=3) == 2 * 9 and levels == {0, 3}
