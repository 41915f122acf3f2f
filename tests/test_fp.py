import cmath
import math
import random
from fractions import Fraction

import pytest

from fpfun import fp
from fpfun.algebra import Grading, PrimeField, parse_polynomial
from fpfun.errors import EvaluationDomainError, StructureError
from fpfun.fp import (
    ProblemSpec,
    _interval_step,
    _phase_sum,
    betti_alternating_polynomial,
    betti_limit_check,
    cm_chi_eval,
    fn_eval,
    fp_limit,
    hk_multiplicity,
    series_coefficient_estimate,
)
from fpfun.hilbert import HilbertSeries, LaurentPolynomialZ, series_of_table
from fpfun.ideals import HomogeneousIdeal, RingPresentation
from fpfun.suite import parameter_problem

GRID = (0.5, 1.0, 2.0, 4.0)


def product_model(y, degrees):
    out = 1.0 + 0j
    for d in degrees:
        out *= (1 - cmath.exp(-1j * d * y)) / (1j * d * y)
    return out


class TestFnEval:
    def test_value_at_zero_is_one_for_regular(self, plane):
        for n in range(6):
            v = fn_eval(plane, n, 0)
            assert v == 1.0 + 0j

    def test_level_one_formula(self, plane):
        for y in GRID:
            expected = (1 + 2 * cmath.exp(-1j * y / 2) + cmath.exp(-1j * y)) / 4
            assert abs(fn_eval(plane, 1, y) - expected) <= 1e-14

    def test_three_generator_value_at_zero(self, three_generator):
        for n in range(5):
            assert fn_eval(three_generator, n, 0) == 4.0 + 0j

    def test_conjugate_symmetry(self, suite_problems):
        for name, (problem, _) in suite_problems.items():
            for n in (2, 5, 8):
                for y in GRID:
                    left = fn_eval(problem, n, -y)
                    right = fn_eval(problem, n, y).conjugate()
                    assert abs(left - right) <= 1e-12, (name, n, y)

    def test_zero_value_equals_hk_exactly(self, suite_problems):
        for name, (problem, _) in suite_problems.items():
            for n in range(4):
                v = fn_eval(problem, n, 0)
                assert v.imag == 0.0
                assert v.real == float(hk_multiplicity(problem, n)), name

    def test_complex_argument(self, plane):
        v = fn_eval(plane, 4, 1 + 0.5j)
        assert v.imag != 0  # loses conjugate symmetry off the real axis


class TestHkMultiplicity:
    def test_regular_is_one(self, plane):
        for n in range(11):
            assert hk_multiplicity(plane, n) == 1

    def test_parameter_ideal(self):
        for a in (1, 2, 3):
            for b in (1, 2, 3):
                problem = parameter_problem(a, b)
                for n in range(5):
                    assert hk_multiplicity(problem, n) == a * b

    def test_three_generator(self, three_generator):
        for n in range(6):
            assert hk_multiplicity(three_generator, n) == 4

    def test_cusp(self, cusp):
        for n in range(6):
            assert hk_multiplicity(cusp, n) == 2


class TestFpLimit:
    def test_plane_product_formula(self, plane):
        estimates = fp_limit(plane, GRID, 10)
        for y in GRID:
            target = product_model(y, (1, 1))
            assert abs(estimates[y].value - target) <= 5e-3

    def test_zero_point_exact(self, plane):
        est = fp_limit(plane, [0.0], 4)[0.0]
        assert est.value == 1.0 + 0j
        assert est.error_bound == 0.0

    def test_cusp_dimension_one_formula(self, cusp):
        estimates = fp_limit(cusp, [2.0], 8)
        target = (1 - cmath.exp(-4j)) / 2j
        assert abs(estimates[2.0].value - target) <= 1e-2

    def test_bound_dominates_tail(self, suite_problems):
        # the fitted geometric bound must cover the distance to a deeper level
        for name, (problem, _) in suite_problems.items():
            estimates = fp_limit(problem, GRID, 7)
            for y in GRID:
                deeper = fn_eval(problem, 10, y)
                assert abs(estimates[y].value - deeper) <= estimates[y].error_bound * 1.05 + 1e-12, (
                    name,
                    y,
                )

    def test_requires_two_levels(self, plane):
        with pytest.raises(StructureError):
            fp_limit(plane, GRID, 1)

    def test_cauchy_decay_ratio(self, suite_problems):
        # successive sup-differences decay like 1/p once m >= 3
        for name, (problem, _) in suite_problems.items():
            p = problem.prime
            n_max = 9
            values = {y: [fn_eval(problem, m, y) for m in range(n_max + 1)] for y in GRID}
            sups = [
                max(abs(values[y][m + 1] - values[y][m]) for y in GRID)
                for m in range(n_max)
            ]
            for m in range(3, n_max - 1):
                if sups[m] > 1e-14:
                    assert sups[m + 1] / sups[m] <= 1 / p + 0.2, (name, m)

    def test_dim_override_above_dimension_decays_to_zero(self, plane):
        inflated = ProblemSpec(plane.ring, plane.ideal, dim_override=3)
        values = [abs(fn_eval(inflated, n, 1.0)) for n in range(8)]
        assert values[7] <= values[3] / 8
        assert values[7] <= 0.02


class TestSeriesCoefficients:
    def test_zeroth_moment_is_multiplicity(self, suite_problems):
        for name, (problem, _) in suite_problems.items():
            for n in (0, 2, 4):
                a0 = series_coefficient_estimate(problem, 0, n)
                assert a0 == complex(float(hk_multiplicity(problem, n))), name

    def test_plane_first_moment(self, plane):
        a1 = series_coefficient_estimate(plane, 1, 10)
        assert abs(a1 - (-1j)) <= 2e-2

    def test_values_on_ray(self, suite_problems):
        # exact integer moments: the estimate lies exactly on the ray (-i)^m R+
        for name, (problem, _) in suite_problems.items():
            for m in range(4):
                v = series_coefficient_estimate(problem, m, 3)
                ray = (-1j) ** m
                # v / ray must be a non-negative real
                ratio = v / ray
                assert ratio.imag == 0.0, name
                assert ratio.real >= 0.0, name

    def test_moments_are_nonnegative_integers(self, suite_problems):
        for name, (problem, _) in suite_problems.items():
            t = problem.table(3)
            for m in range(3):
                value = t.moment(m)
                assert isinstance(value, int) and value >= 0, name


class TestBettiAlternatingPolynomial:
    def test_plane_level_one(self, plane):
        betti = betti_alternating_polynomial(plane, (1, 1), 1)
        assert betti == LaurentPolynomialZ({0: 1, 2: -2, 4: 1})

    def test_plane_general_level_is_frobenius_twist(self, plane):
        for n in (2, 3, 5):
            q = 2 ** n
            betti = betti_alternating_polynomial(plane, (1, 1), n)
            assert betti == LaurentPolynomialZ({0: 1, q: -2, 2 * q: 1})

    def test_cusp_level_structure(self, cusp):
        # table factors as (sum_{a<q} t^{2a})(1 + t^3), so the Betti
        # polynomial against S = k[X] is (1 - t^{2q})(1 + t^3)
        for n in (1, 2, 4):
            q = 2 ** n
            expected = LaurentPolynomialZ({0: 1, 2 * q: -1}) * LaurentPolynomialZ({0: 1, 3: 1})
            assert betti_alternating_polynomial(cusp, (2,), n) == expected

    def test_weighted_plane_twist(self, weighted_plane):
        for n in (1, 2, 3):
            q = 2 ** n
            expected = LaurentPolynomialZ({0: 1, 2 * q: -1}) * LaurentPolynomialZ(
                {0: 1, 3 * q: -1}
            )
            assert betti_alternating_polynomial(weighted_plane, (2, 3), n) == expected

    def test_value_at_one_vanishes(self, suite_problems):
        for name, (problem, hsop) in suite_problems.items():
            betti = betti_alternating_polynomial(problem, hsop, 1)
            assert betti.value_at_one() == 0, name

    def test_exact_identity_series_of_table(self, suite_problems):
        # H_{R/I^[q]} = H_S * Betti polynomial as exact rational functions
        for name, (problem, hsop) in suite_problems.items():
            for n in range(4):
                betti = betti_alternating_polynomial(problem, hsop, n)
                lhs = series_of_table(problem.table(n))
                rhs = HilbertSeries(betti, tuple(hsop))
                assert lhs.equal_as_rational(rhs), (name, n)


class TestBettiLimitCheck:
    def test_identity_isolates_rounding(self, suite_problems):
        for name, (problem, hsop) in suite_problems.items():
            report = betti_limit_check(problem, hsop, GRID, 8)
            assert report.max_deviation <= 1e-10, name

    def test_fine_structure_instance(self):
        problem = parameter_problem(3, 4)
        report = betti_limit_check(problem, (1, 1), GRID, 8)
        assert report.max_deviation <= 1e-10

    def test_zero_rejected(self, plane):
        with pytest.raises(EvaluationDomainError):
            betti_limit_check(plane, (1, 1), [0.0], 4)

    def test_large_level_small_y(self, parameter23):
        # q = 16384: a factor 1 - z**d formed from z loses about q/|y| ulps
        report = betti_limit_check(parameter23, (1, 1), (1e-3, 0.01, 0.5, 2 + 1j), 14)
        assert report.max_deviation <= 1e-10, report.deviations


def reference_phase_sum(degrees, values, w):
    """Per-term c * exp(w * j), summed exactly by parts with math.fsum."""
    terms = [c * cmath.exp(w * j) for j, c in zip(degrees, values)]
    return complex(math.fsum(t.real for t in terms), math.fsum(t.imag for t in terms))


def phase_sum_tolerance(degrees, values, w):
    return 1e-14 * math.fsum(abs(c) * math.exp(w.real * j) for j, c in zip(degrees, values))


def even_weight_table(n):
    """Level-n lengths of F_2[X, Y] with weights (2, 4), I = (X, Y): no odd degree."""
    field, grading = PrimeField(2), Grading((2, 4))
    gens = tuple(parse_polynomial(s, ("X", "Y"), field, grading) for s in ("X", "Y"))
    ring = RingPresentation(field, grading, (), ("X", "Y"))
    return ProblemSpec(ring, HomogeneousIdeal(gens)).table(n).lengths


# |y| from 1e-12 to 8, and Im y from -40 to 40; each w is -iy/q for the table's q
PHASE_POINTS = (1e-12, 1e-6, 1e-3, 0.5, 2.0, -8.0, 1 - 40j, 1 - 2j, 1 + 2j, 1 + 40j)


class TestPhaseSum:
    def check(self, lengths, q):
        degrees, values = list(lengths), list(lengths.values())
        for y in PHASE_POINTS:
            w = -1j * complex(y) / q
            got = _phase_sum(degrees, iter(values), w)
            want = reference_phase_sum(degrees, values, w)
            assert abs(got - want) <= phase_sum_tolerance(degrees, values, w), (y, got, want)

    def test_contiguous_table(self, parameter23):
        self.check(parameter23.table(14).lengths, 2 ** 14)

    def test_table_with_gaps(self, cusp):
        lengths = cusp.table(14).lengths
        assert len(lengths) < max(lengths) + 1
        self.check(lengths, 2 ** 14)

    def test_every_odd_degree_missing(self):
        lengths = even_weight_table(10)
        assert all(j % 2 == 0 for j in lengths) and len(lengths) > 1000
        self.check(lengths, 2 ** 10)

    def test_random_sparse_signed(self):
        rng = random.Random(6)
        degrees = sorted(rng.sample(range(200_000), 5000))
        lengths = {j: rng.choice((-1, 1)) * rng.randint(1, 10 ** 6) for j in degrees}
        self.check(lengths, 2 ** 14)

    def test_single_entry_and_empty(self):
        self.check({37: 5}, 64)
        self.check({-3: 2}, 8)
        assert _phase_sum([], iter(()), -0.5j) == 0j

    def test_short_table_never_forms_powers_past_its_span(self):
        # exp(128 * 6) overflows, but a one-entry table only needs exp(0)
        assert _phase_sum([0], [1], 6 - 1j) == 1
        assert _phase_sum([0, 1], [1, 1], 6 - 1j) == 1 + cmath.exp(6 - 1j)

    def test_non_finite_total_raises(self):
        with pytest.raises(OverflowError):
            _phase_sum([0, 1, 2], [1e308, 1e308, 1e308], 0j)


class TestCmChiEval:
    def test_exact_rearrangement_of_fn(self, plane):
        for n in (2, 5, 8):
            q = 2 ** n
            values = cm_chi_eval(plane, (1, 1), GRID, n)
            assert list(values) == list(GRID)
            for y in GRID:
                z = cmath.exp(-1j * y / q)
                correction = (q * (1 - z)) ** 2 / (1j * y) ** 2
                rhs = fn_eval(plane, n, y) * correction
                assert abs(values[y] - rhs) <= 1e-12

    @pytest.mark.parametrize("name, hsop", [("parameter23", (1, 1)), ("cusp", (2,))])
    def test_deep_level_matches_fn_relative(self, request, name, hsop):
        # B_n(z) / (prod d_i (iy)^d) = F_n(y) * prod q (1 - z^d_i) / (d_i iy)
        # exactly, so the two sides differ only by rounding
        problem = request.getfixturevalue(name)
        q = 2 ** 14
        grid = (0.5 + 2j, 2 + 1j, 1 + 3j, 8.0)
        values = cm_chi_eval(problem, hsop, grid, 14)
        for y in grid:
            rhs = fn_eval(problem, 14, y)
            for d in hsop:
                rhs *= -q * _interval_step(d * y / q) / (d * 1j * y)
            assert abs(values[y] - rhs) <= 1e-13 * abs(rhs)

    def test_converges_to_product_formula(self, plane):
        target = product_model(1.0, (1, 1))
        value = cm_chi_eval(plane, (1, 1), [1.0], 10)[1.0]
        assert abs(value - target) <= 5e-3

    def test_weighted_parameters(self, weighted_plane):
        # general correction factor: prod_i q (1 - z^{d_i}) / (i d_i y) -> 1
        target = product_model(1.0, (2, 3)) * 6 * Fraction(1, 6)
        value = cm_chi_eval(weighted_plane, (2, 3), [1.0], 10)[1.0]
        assert abs(value - complex(target)) <= 5e-3

    def test_cusp_dimension_one(self, cusp):
        target = (1 - cmath.exp(-2j)) / 1j
        value = cm_chi_eval(cusp, (2,), [1.0], 10)[1.0]
        assert abs(value - target) <= 1e-2

    def test_zero_is_domain_error(self, plane):
        with pytest.raises(EvaluationDomainError):
            cm_chi_eval(plane, (1, 1), [1.0, 0], 4)

    def test_builds_b_n_once_per_grid(self, parameter23, monkeypatch):
        calls = []

        def counting(*args):
            calls.append(args)
            return betti_alternating_polynomial(*args)

        monkeypatch.setattr(fp, "betti_alternating_polynomial", counting)
        grid = (0.5, 1.0, 2 + 1j, 4.0, 8.0)
        values = cm_chi_eval(parameter23, (1, 1), grid, 6)
        assert len(calls) == 1 and list(values) == list(grid)
        report = betti_limit_check(parameter23, (1, 1), grid, 6)
        assert len(calls) == 2 and list(report.deviations) == list(grid)


class TestProblemSpec:
    def test_dimension_defaults_to_ring_dimension(self, suite_problems):
        expected = {
            "plane": 2,
            "parameter23": 2,
            "three_generator": 2,
            "cusp": 1,
            "weighted_plane": 2,
        }
        for name, (problem, _) in suite_problems.items():
            assert problem.dimension == expected[name], name

    def test_table_cache_returns_same_object(self, plane):
        assert plane.table(3) is plane.table(3)

    def test_mismatched_ideal_rejected(self, plane, cusp):
        with pytest.raises(StructureError):
            ProblemSpec(plane.ring, cusp.ideal)

    def test_concurrent_table_fill(self, three_generator):
        import threading

        problem = ProblemSpec(three_generator.ring, three_generator.ideal)
        results = []

        def worker():
            results.append(problem.table(4))

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert all(r is results[0] for r in results)
