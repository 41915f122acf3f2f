import cmath
import math
import random
from fractions import Fraction
from itertools import accumulate
from operator import mul

import pytest

from fpfun import fp
from fpfun.density import density_table, gn_fourier_exact, quadrature_fourier
from fpfun.algebra import Grading, PrimeField, parse_polynomial
from fpfun.errors import EvaluationDomainError, StructureError
from fpfun.fp import (
    ProblemSpec,
    _interval_step,
    _phase_sums,
    betti_alternating_polynomial,
    betti_limit_check,
    cm_chi_eval,
    fn_eval,
    fp_limit,
    hk_multiplicity,
    series_coefficient_estimate,
)
from fpfun.hilbert import LaurentPolynomialZ
from fpfun.ideals import GradedLengthTable, HomogeneousIdeal, RingPresentation, series_expansion
from fpfun.suite import cusp_problem, parameter_problem

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

    def test_empty_grid_builds_no_table(self):
        # level 18 of parameter23 is past the table budget, yet nothing is asked
        problem = parameter_problem(2, 3)
        assert fp_limit(problem, [], 40) == {}
        assert problem._tables == {}

    @pytest.mark.parametrize("name", ["parameter23", "cusp"])
    def test_grid_values_equal_single_points(self, request, name):
        # One packing per level serves the whole grid, and every level value
        # is still the one-point fn_eval bit for bit.
        problem = request.getfixturevalue(name)
        grid = [0.5, 2 + 1j, 1 - 30j, 0, 7.25 - 0.5j]
        estimates = fp_limit(problem, grid, 8)
        for y in grid:
            values = [fn_eval(problem, m, y) for m in range(9)]
            assert estimates[y].value == values[8]
            assert estimates[y].differences == tuple(abs(b - a) for a, b in zip(values, values[1:]))

    def test_origin_packs_nothing(self, plane, monkeypatch):
        def refuse(*args):
            raise AssertionError("phase sum at y = 0")

        monkeypatch.setattr(fp, "_phase_sums", refuse)
        assert fn_eval(plane, 6, 0) == 1
        assert fp_limit(plane, [0], 6)[0].value == 1

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
            expected = LaurentPolynomialZ({0: 1, 3: 1, 2 * q: -1, 2 * q + 3: -1})
            assert betti_alternating_polynomial(cusp, (2,), n) == expected

    def test_weighted_plane_twist(self, weighted_plane):
        for n in (1, 2, 3):
            q = 2 ** n
            expected = LaurentPolynomialZ({0: 1, 2 * q: -1, 3 * q: -1, 5 * q: 1})
            assert betti_alternating_polynomial(weighted_plane, (2, 3), n) == expected

    def test_value_at_one_vanishes(self, suite_problems):
        for name, (problem, hsop) in suite_problems.items():
            betti = betti_alternating_polynomial(problem, hsop, 1)
            assert betti.value_at_one() == 0, name

    def test_level_fourteen_pins(self, suite_problems):
        q = 2**14
        pins = {
            "plane": {0: 1, q: -2, 2 * q: 1},
            "parameter23": {0: 1, 2 * q: -1, 3 * q: -1, 5 * q: 1},
            "cusp": {0: 1, 3: 1, 2 * q: -1, 2 * q + 3: -1},
            "weighted_plane": {0: 1, 2 * q: -1, 3 * q: -1, 5 * q: 1},
        }
        for name, expected in pins.items():
            problem, hsop = suite_problems[name]
            betti = betti_alternating_polynomial(problem, hsop, 14)
            assert betti == LaurentPolynomialZ(expected), name

    def test_exact_identity_series_of_table(self, suite_problems):
        # H_{R/I^[q]} = H_S * Betti polynomial, read in the division direction:
        # B / prod(1 - t^d) expands to the level table, past B's degree and
        # the table's top degree plus sum(d), so no prefix match can pass
        for name, (problem, hsop) in suite_problems.items():
            for n in range(4):
                betti = betti_alternating_polynomial(problem, hsop, n)
                lengths = problem.table(n).lengths
                top = max(betti.degree, max(lengths) + sum(hsop))
                assert betti.valuation >= 0, (name, n)
                expanded = series_expansion(betti.coeffs, hsop, top)
                assert expanded == [lengths.get(j, 0) for j in range(top + 1)], (name, n)


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

    @pytest.mark.parametrize("degrees, message", [
        ((), "^need at least one parameter degree$"),
        ((1, True), "^parameter degree True must be a positive integer$"),
        ((1, 0), "^parameter degree 0 must be a positive integer$"),
    ])
    def test_parameter_degrees_checked(self, plane, degrees, message):
        for call in (lambda: betti_alternating_polynomial(plane, degrees, 2),
                     lambda: betti_limit_check(plane, degrees, [1.0], 2),
                     lambda: cm_chi_eval(plane, degrees, [1.0], 2)):
            with pytest.raises(StructureError, match=message):
                call()

    def test_large_level_small_y(self, parameter23):
        # q = 16384: a factor 1 - z**d formed from z loses about q/|y| ulps
        report = betti_limit_check(parameter23, (1, 1), (1e-3, 0.01, 0.5, 2 + 1j), 14)
        assert report.max_deviation <= 1e-10, report.deviations

    def test_grid_equals_single_points(self, parameter23):
        grid = (0.5, 2 + 1j, 1 - 30j, 7.25 - 0.5j)
        report = betti_limit_check(parameter23, (1, 1), grid, 8)
        values = cm_chi_eval(parameter23, (1, 1), grid, 8)
        for y in grid:
            assert report.deviations[y] == betti_limit_check(parameter23, (1, 1), [y], 8).deviations[y]
            assert values[y] == cm_chi_eval(parameter23, (1, 1), [y], 8)[y]


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
PHASE_POINTS = (
    1e-12, 1e-6, 1e-3, 0.5, 1.0, 2.0, 4.0, -8.0, 8 + 1j, 1 - 40j, 1 - 2j, 1 + 2j, 1 + 40j,
    0.5 + 3j, 1 + 30j, 0.640625 + 0.734375j,
)


# Large |Im y| at small q: the phases of one block span many binary orders
LARGE_IM_POINTS = (1 + 30j, 1 - 30j, 1 - 40j, 0.5 + 3j, 1 + 10j)


def kernel_sum(terms, w):
    """The phase-sum kernel at one point, on a fresh table of the terms."""
    return _phase_sums(GradedLengthTable(0, 2, terms), [w])[0]


class TestPhaseSum:
    def check(self, lengths, q, points=PHASE_POINTS, phase_sum=kernel_sum):
        degrees, values = list(lengths), list(lengths.values())
        for y in points:
            w = -1j * complex(y) / q
            got = phase_sum(dict(zip(degrees, values)), w)
            want = reference_phase_sum(degrees, values, w)
            assert abs(got - want) <= phase_sum_tolerance(degrees, values, w), (y, got, want)

    # levels 9 to 14: table spans 16 to 1024, and a point takes its table's
    # span or a finer one
    def test_contiguous_table(self, parameter23, three_generator):
        for problem in (parameter23, three_generator):
            for n in range(9, 15):
                lengths = problem.table(n).lengths
                assert len(lengths) == max(lengths) - min(lengths) + 1
                self.check(lengths, 2 ** n)

    def test_table_with_gaps(self, cusp, weighted_plane):
        for problem in (cusp, weighted_plane):
            for n in range(9, 15):
                lengths = problem.table(n).lengths
                assert len(lengths) < max(lengths) - min(lengths) + 1
                self.check(lengths, 2 ** n)

    def test_every_odd_degree_missing(self):
        lengths = even_weight_table(10)
        assert all(j % 2 == 0 for j in lengths) and len(lengths) > 1000
        self.check(lengths, 2 ** 10)

    def test_random_sparse_signed(self):
        # a Betti polynomial's shape: the direct sum, not the kernel, takes it
        rng = random.Random(6)
        degrees = sorted(rng.sample(range(200_000), 5000))
        lengths = {j: rng.choice((-1, 1)) * rng.randint(1, 10 ** 6) for j in degrees}
        self.check(lengths, 2 ** 14, phase_sum=fp._direct_sum)

    def test_single_entry_and_empty(self):
        self.check({37: 5}, 64)
        self.check({-3: 2}, 8, phase_sum=fp._direct_sum)
        assert kernel_sum({}, -0.5j) == 0j
        assert fp._direct_sum({}, -0.5j) == 0j

    def test_all_zero_lengths(self):
        # the build takes one machine word per slot even when every moment is 0
        assert kernel_sum({0: 0, 600: 0}, -0.5j / 256) == 0

    def test_short_table_never_forms_powers_past_its_span(self):
        # exp(128 * 6) overflows, but a one-entry table only needs exp(0)
        assert kernel_sum({0: 1}, 6 - 1j) == 1
        assert kernel_sum({0: 1, 1: 1}, 6 - 1j) == 1 + cmath.exp(6 - 1j)

    def test_non_finite_total_raises(self):
        with pytest.raises(OverflowError):
            kernel_sum(dict.fromkeys([0, 1, 2], 10 ** 308), 0j)

    @pytest.mark.parametrize("name", ["parameter23", "cusp", "weighted_plane"])
    def test_small_levels_at_large_imaginary_parts(self, request, name):
        problem = request.getfixturevalue(name)
        for n in range(9):
            self.check(problem.table(n).lengths, 2 ** n, LARGE_IM_POINTS)

    def test_values_past_one_machine_word(self):
        rng = random.Random(7)
        degrees = sorted(rng.sample(range(3000), 700))
        self.check({j: 2 ** 64 for j in degrees}, 256)
        self.check({j: 2 ** 130 + rng.randint(0, 10 ** 6) for j in degrees}, 256)
        # signed values, as in a Betti polynomial, go to the direct sum
        for signed in ({j: rng.choice((-1, 1)) * 2 ** 130 for j in degrees},
                       {j: rng.choice((-1, 1)) * rng.randint(1, 2 ** 70) for j in degrees}):
            self.check(signed, 256, phase_sum=fp._direct_sum)

    def test_extreme_real_part_keeps_the_scale_in_range(self):
        # At w = -10 the smallest phase of a block is about 2^-1832, and at
        # w = 5.5 the largest is about 2^1008: a scale that gave either end 56
        # bits would leave the float range, yet both sums are finite.
        for size, w in ((300, -10), (300, -10 + 3j), (128, 5.5)):
            degrees = list(range(size))
            values = [1 + j % 7 for j in degrees]
            got = kernel_sum(dict(zip(degrees, values)), w)
            want = reference_phase_sum(degrees, values, w)
            assert abs(got - want) <= phase_sum_tolerance(degrees, values, w), (w, got, want)

    @pytest.mark.parametrize(
        "degrees, values, w",
        [
            ([0, 1], [1, 1], 800),  # a phase
            ([0, 1000], [1, 1], 5),  # an anchor
            ([0, 1, 2], [10 ** 308] * 3, 0j),  # a block sum
            ([0, 128], [10 ** 308, 10 ** 308], 0j),  # the total of finite blocks
            ([0, 1], [1, 1], complex("nan")),  # w itself
            ([0, 1], [1, 1], complex(0, math.inf)),
            (list(range(4000)), [1] * 4000, 0.2),  # an anchor past block 1775 of span 2
            (list(range(300)), [10 ** 308] * 300, 1e-6j),  # a block moment built at span 4
        ],
    )
    def test_every_non_finite_path_raises_one_message(self, degrees, values, w):
        with pytest.raises(OverflowError, match=r"^phase sum with w=.* is not finite$"):
            kernel_sum(dict(zip(degrees, values)), w)

    def test_no_points_and_no_entries(self):
        assert _phase_sums(GradedLengthTable(0, 2, {0: 1, 1: 1}), []) == []
        assert _phase_sums(GradedLengthTable(0, 2, {}), [1j, 2j]) == [0j, 0j]


def direct_moments(terms, span, order):
    """rows[k][b] = B_k = sum_r C(r, k) v_(a + r) exactly, for k <= order and
    the blocks b of span degrees from degree 0, block b from degree a."""
    blocks = -(-(max(terms) + 1) // span)
    values = [terms.get(i, 0) for i in range(blocks * span)]
    rows, column = [], [1] * span  # column[r] = C(r, k)
    for _ in range(order + 1):
        rows.append([sum(map(mul, column, values[b * span : (b + 1) * span])) for b in range(blocks)])
        column = [0, *accumulate(column[:-1])]
    return rows


def counting_builds(monkeypatch):
    """Replace the moment builder by one that records (terms, span) per
    Horner build."""
    builds = []

    class Counting(fp._Moments):
        __slots__ = ()

        def __init__(self, terms, span):
            builds.append((terms, span))
            super().__init__(terms, span)

    monkeypatch.setattr(fp, "_Moments", Counting)
    return builds


class TestPhaseMoments:
    def check_packed(self, terms, span):
        # the build is exact up to one rounding of each moment
        moments = fp._Moments(terms, span)
        exact = direct_moments(terms, span, min(15, span - 1))
        assert list(moments.starts) == list(range(0, len(exact[0]) * span, span))
        assert [row.tolist() for row in moments.rows] == [list(map(float, row)) for row in exact]

    def test_series_order_at_the_largest_rho(self):
        assert fp._order(fp._RHO) == fp._order(9 / 16) == 15
        assert fp._order(0.5) == 15
        assert fp._order(0.0) == 0

    def test_random_signed_gapped_and_multi_word(self):
        # the kernel takes level tables only, so every value is non-negative
        rng = random.Random(11)
        for size, extent, magnitude, span in (
            (300, 400, 10 ** 6, 16),  # nearly dense
            (200, 4000, 2 ** 40, 8),  # gapped, values past one word
            (150, 3000, 2 ** 130, 32),  # several words per value
        ):
            degrees = sorted(rng.sample(range(0, extent + 50), size))
            terms = GradedLengthTable(0, 2, {j: rng.randint(1, magnitude) for j in degrees})
            self.check_packed(terms.lengths, span)

    def test_level_table(self, cusp):
        lengths = cusp.table(10).lengths
        self.check_packed(lengths, fp._table_span(max(lengths) - min(lengths) + 1))

    def test_point_reads_few_blocks(self, parameter23, monkeypatch):
        # at q = 16384 the table span is 1024 (80 blocks), and y = 1, y = 8 and
        # y = 8 + 1i (|y| = 8.06) all take it: no point reads fewer blocks than
        # its table's span, and span * |delta| <= 9/16 keeps |y| <= 9 on it
        assert fp._table_span(len(parameter23.table(14).lengths.run)) == 1024
        served = []
        value = fp._Moments.value

        def counting(self, w, delta):
            served.append(len(self.starts))
            return value(self, w, delta)

        monkeypatch.setattr(fp._Moments, "value", counting)
        for y in (1.0, 8.0, 8 + 1j):
            served.clear()
            _phase_sums(parameter23.table(14), [-1j * y / 2 ** 14])
            assert served == [80], (y, served)

    def test_one_build_per_level_for_every_caller(self, monkeypatch):
        # the cusp has a relation, so every caller sums its tables through the
        # kernel (a relation-free ring takes the Frobenius product instead)
        builds = counting_builds(monkeypatch)
        # a first one-point fn_eval builds the moments once, at the table span
        for n in (7, 8, 9):
            problem = cusp_problem()
            table = problem.table(n)
            builds.clear()
            fn_eval(problem, n, 1.5 + 0.25j)
            assert [span for _, span in builds] == [fp._table_span(len(table.lengths.run))]
            assert list(table.phase_moments) == [span for _, span in builds]
        builds.clear()
        problem = cusp_problem()
        grid = [0.5, 2 + 1j, 7.25 - 0.5j, 8 + 1j]
        fp_limit(problem, grid, 8)
        table = density_table(problem, 8)
        for y in grid:
            gn_fourier_exact(problem, 8, y)
            quadrature_fourier(table, y)
        betti_limit_check(problem, (2,), grid, 8)
        # level 8 has 514 degrees, so its table span is 8; every grid point
        # takes it, and no span above it is built or cached
        table = problem.table(8)
        assert fp._table_span(len(table.lengths.run)) == 8
        assert [span for terms, span in builds if terms is table.lengths] == [8]
        assert list(table.phase_moments) == [8]
        # and every level the limit reads builds its table span alone, or
        # nothing where the span is 1 and the direct sum takes every point
        for n in range(9):
            lengths = problem.table(n).lengths
            span = fp._table_span(len(lengths.run))
            assert [s for terms, s in builds if terms is lengths] == ([span] if span > 1 else [])

    def test_values_do_not_depend_on_earlier_points(self):
        # at q = 256 the table span is 16; in the kernel the points take spans
        # 16, 8, 1, 16, 16, 4, 16 and 16, and a fresh table serves each point
        # alone; fn_eval takes the Frobenius product on this relation-free ring
        points = [0.5, 10 + 1j, 100.0, 1e-6, 3 - 2j, 30.0, 0.05, 2.0]

        def serve(order, problem):
            table = density_table(problem, 8)
            return {
                y: (fn_eval(problem, 8, y), _phase_sums(table.table, [-1j * y / 256])[0],
                    quadrature_fourier(table, y))
                for y in order
            }

        values = [serve(order, parameter_problem(2, 3)) for order in (points, points[::-1])]
        alone = {}
        for y in points:
            alone.update(serve([y], parameter_problem(2, 3)))
        assert values[0] == values[1] == alone


def non_monomial_problem():
    """F_3[X, Y] standard graded, I = (X + Y, XY): not a monomial ideal."""
    field, grading = PrimeField(3), Grading((1, 1))
    gens = tuple(parse_polynomial(s, ("X", "Y"), field, grading) for s in ("X + Y", "X*Y"))
    ring = RingPresentation(field, grading, (), ("X", "Y"))
    return ProblemSpec(ring, HomogeneousIdeal(gens))


class TestFrobeniusProduct:
    """Over a relation-free ring, F_n above level 0 is level 0's sum times one
    Frobenius factor per level, within 1e-14 * sum|terms| of the per-term
    reference."""

    def check(self, problem, n, value, y, rounded_exponents=False):
        lengths = problem.table(n).lengths
        q = problem.prime ** n
        scale = q ** problem.dimension
        degrees, values = list(lengths), list(lengths.values())
        w = -1j * complex(y) / q
        want = reference_phase_sum(degrees, values, w) / scale
        tolerance = phase_sum_tolerance(degrees, values, w)
        if rounded_exponents:
            # at p = 3, w = -iy/q is rounded, and a term's exponent w * j is
            # off by |w j| ulps in the reference and in the product alike
            tolerance += 4 * 2 ** -53 * math.fsum(
                abs(c) * math.exp(w.real * j) * abs(w * j) for j, c in zip(degrees, values)
            )
        assert abs(value - want) <= tolerance / scale, (n, y)

    @pytest.mark.parametrize("name", ["parameter23", "weighted_plane", "plane", "three_generator"])
    def test_levels_up_to_fourteen(self, request, name):
        problem = request.getfixturevalue(name)
        for n in range(15):
            for y in PHASE_POINTS:
                self.check(problem, n, fn_eval(problem, n, y), y)

    def test_non_monomial_ideal(self):
        # measured, the worst error is 1.3 times the exponents' share of the
        # tolerance, at y = 1 + 40i and level 3
        problem = non_monomial_problem()
        for n in range(4):
            for y in PHASE_POINTS:
                self.check(problem, n, fn_eval(problem, n, y), y, rounded_exponents=True)

    def test_reads_levels_zero_and_n_alone(self, monkeypatch):
        # a cold fn_eval builds the level's own table first, for its budget
        # check and its value at y = 0, then level 0's, which the product
        # starts from
        built = []
        graded_lengths = fp.graded_lengths

        def recording(ring, ideal, n):
            built.append(n)
            return graded_lengths(ring, ideal, n)

        monkeypatch.setattr(fp, "graded_lengths", recording)
        fn_eval(parameter_problem(2, 3), 14, 1.5 + 0.25j)
        assert built == [14, 0]

    def test_dim_override(self, plane, parameter23):
        # each factor is scaled by p^-d with the overridden d
        for problem, d in ((plane, 3), (plane, 0), (parameter23, 1)):
            inflated = ProblemSpec(problem.ring, problem.ideal, dim_override=d)
            for n in range(12):
                for y in PHASE_POINTS:
                    self.check(inflated, n, fn_eval(inflated, n, y), y)

    def test_builds_no_moments(self, monkeypatch):
        builds = counting_builds(monkeypatch)
        problem = parameter_problem(2, 3)
        grid = [0.5, 2 + 1j, 7.25 - 0.5j, 8 + 1j]
        fn_eval(problem, 14, 1.5 + 0.25j)
        fp_limit(problem, grid, 14)
        betti_limit_check(problem, (1, 1), grid, 14)
        for y in grid:
            gn_fourier_exact(problem, 14, y)
        assert builds == []
        assert not any(problem.table(n).phase_moments for n in range(15))

    def test_non_finite_product_raises(self, parameter23):
        # at y = 1 + 145i F_4 is finite and F_6 is not; the error names
        # level 6's w = -iy/64
        y = 1 + 145j
        assert cmath.isfinite(fn_eval(parameter23, 4, y))
        message = r"^phase sum with w=\(2\.265625-0\.015625j\) is not finite$"
        with pytest.raises(OverflowError, match=message):
            fn_eval(parameter23, 6, y)

    def test_finite_past_an_overflowing_level_sum(self, plane):
        # at y = 1 + 354.5i the level-10 sum reaches about e^710 before the
        # q^-2 scale, so the kernel overflows, but F_10 is finite
        y, q = 1 + 354.5j, 2 ** 10
        table = plane.table(10)
        w = -1j * y / q
        with pytest.raises(OverflowError, match=r"^phase sum with w=.* is not finite$"):
            _phase_sums(table, [w])
        # the per-term sum rescaled by exp(-w J), J the top degree, stays finite
        top = table.max_degree
        degrees, values = [j - top for j in table.lengths], list(table.lengths.values())
        anchor = cmath.exp(w * top) / q ** 2
        want = reference_phase_sum(degrees, values, w) * anchor
        got = fn_eval(plane, 10, y)
        assert cmath.isfinite(got) and cmath.isfinite(want)
        assert abs(got - want) <= phase_sum_tolerance(degrees, values, w) * abs(anchor), (got, want)


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
