import cmath
import math
import os
import random
from decimal import Context, Decimal, localcontext
from fractions import Fraction

import pytest

from fpfun import fp
from fpfun.density import density_table, gn_fourier_exact, quadrature_fourier
from fpfun.algebra import Grading, PrimeField, parse_polynomial
from fpfun.errors import EvaluationDomainError, StructureError
from fpfun.fp import (
    ProblemSpec,
    _interval_ratio,
    betti_alternating_polynomial,
    betti_limit_check,
    cm_chi_eval,
    fn_eval,
    fp_limit,
    hk_multiplicity,
    series_coefficient_estimate,
)
from fpfun.hilbert import LaurentPolynomialZ
from fpfun.ideals import HomogeneousIdeal, RingPresentation, series_expansion
from fpfun.problems import load_problem_file, problem_file_from_dict
from fpfun.suite import cusp_problem, parameter_problem

GRID = (0.5, 1.0, 2.0, 4.0)
PROBLEMS = os.path.join(os.path.dirname(__file__), os.pardir, "problems")


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

    def test_origin_packs_nothing(self, plane, cusp, monkeypatch):
        # y = 0 takes the exact total and reaches no sum: plane's levels go
        # through the level-0 direct sum and the closed-form Frobenius
        # factors, the cusp's through the numerator sum
        def nonzero_only(original, at):
            def checked(*args):
                assert args[at] != 0, f"{original.__name__} at y = 0"
                return original(*args)

            return checked

        monkeypatch.setattr(fp, "_numerator_sum", nonzero_only(fp._numerator_sum, 2))
        monkeypatch.setattr(fp, "_direct_sum", nonzero_only(fp._direct_sum, 1))
        monkeypatch.setattr(fp, "_times_geometric", nonzero_only(fp._times_geometric, 1))
        for problem in (plane, cusp):
            exact = float(hk_multiplicity(problem, 6))
            assert fn_eval(problem, 6, 0) == exact
            limit = fp_limit(problem, [0, 1 + 1j], 6)
            assert limit[0].value == exact
            assert limit[1 + 1j].value == fn_eval(problem, 6, 1 + 1j)

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
    """Level-n table of F_2[X, Y] with weights (2, 4), I = (X, Y): no odd degree."""
    field, grading = PrimeField(2), Grading((2, 4))
    gens = tuple(parse_polynomial(s, ("X", "Y"), field, grading) for s in ("X", "Y"))
    ring = RingPresentation(field, grading, (), ("X", "Y"))
    return ProblemSpec(ring, HomogeneousIdeal(gens)).table(n)


def fermat_cubic(p):
    """x^3 + y^3 + z^3 over F_p with I = (x, y, z)."""
    return problem_file_from_dict({
        "prime": p,
        "variables": [{"name": v, "degree": 1} for v in "xyz"],
        "relations": ["x^3 + y^3 + z^3"],
        "ideal": ["x", "y", "z"],
    }).to_problem()


# |y| from 1e-12 to 8, and Im y from -40 to 40; each w is -iy/q for the table's q
PHASE_POINTS = (
    1e-12, 1e-6, 1e-3, 0.5, 1.0, 2.0, 4.0, -8.0, 8 + 1j, 1 - 40j, 1 - 2j, 1 + 2j, 1 + 40j,
    0.5 + 3j, 1 + 30j, 0.640625 + 0.734375j,
)


# Large |Im y| at small q: the terms of one level span many binary orders
LARGE_IM_POINTS = (1 + 30j, 1 - 30j, 1 - 40j, 0.5 + 3j, 1 + 10j)


def numerator_sum(lengths, y, q):
    """The numerator sum at one point of lengths taken as their own numerator
    over no weights, as a table built by hand has them."""
    return fp._numerator_sum(lengths, (), complex(y), 0, q, 1)


def sum_at(lengths, w):
    """numerator_sum at w = -iy/q with q = 1."""
    return numerator_sum(lengths, 1j * w, 1)


def direct_sum(lengths, y, q):
    return fp._direct_sum(lengths, -1j * complex(y) / q)


class TestPhaseSum:
    def check(self, lengths, q, points=PHASE_POINTS, phase_sum=numerator_sum):
        degrees, values = list(lengths), list(lengths.values())
        for y in points:
            w = -1j * complex(y) / q
            got = phase_sum(lengths, y, q)
            want = reference_phase_sum(degrees, values, w)
            assert abs(got - want) <= phase_sum_tolerance(degrees, values, w), (y, got, want)

    def check_table(self, table, points=PHASE_POINTS):
        # the level's sum from its Hilbert numerator over the ring's weights
        def table_sum(lengths, y, q):
            return fp._numerator_sum(table.numerator, table.weights, complex(y), table.n, q, 1)

        self.check(table.lengths, table.p ** table.n, points, table_sum)

    # levels 9 to 14: a numerator of 3 or 4 terms against up to 82k degrees
    def test_contiguous_table(self, parameter23, three_generator):
        for problem in (parameter23, three_generator):
            for n in range(9, 15):
                lengths = problem.table(n).lengths
                assert len(lengths) == max(lengths) - min(lengths) + 1
                self.check_table(problem.table(n))

    def test_table_with_gaps(self, cusp, weighted_plane):
        for problem in (cusp, weighted_plane):
            for n in range(9, 15):
                lengths = problem.table(n).lengths
                assert len(lengths) < max(lengths) - min(lengths) + 1
                self.check_table(problem.table(n))

    def test_every_odd_degree_missing(self):
        table = even_weight_table(10)
        assert all(j % 2 == 0 for j in table.lengths) and len(table.lengths) > 1000
        self.check_table(table)

    def test_random_sparse_signed(self):
        # a Betti polynomial's shape, which both sums take
        rng = random.Random(6)
        degrees = sorted(rng.sample(range(200_000), 5000))
        lengths = {j: rng.choice((-1, 1)) * rng.randint(1, 10 ** 6) for j in degrees}
        for phase_sum in (numerator_sum, direct_sum):
            self.check(lengths, 2 ** 14, phase_sum=phase_sum)

    def test_single_entry_and_empty(self):
        self.check({37: 5}, 64)
        for phase_sum in (numerator_sum, direct_sum):
            self.check({-3: 2}, 8, phase_sum=phase_sum)
        assert sum_at({}, -0.5j) == 0j
        assert fp._direct_sum({}, -0.5j) == 0j

    def test_all_zero_lengths(self):
        assert sum_at({0: 0, 600: 0}, -0.5j / 256) == 0

    def test_short_table_never_forms_powers_past_its_span(self):
        # exp(128 * 6) overflows, but a one-entry table only needs exp(0)
        assert sum_at({0: 1}, 6 - 1j) == 1
        want = 1 + cmath.exp(6 - 1j)
        assert abs(sum_at({0: 1, 1: 1}, 6 - 1j) - want) <= 2 ** -52 * abs(want)

    def test_non_finite_total_raises(self):
        with pytest.raises(OverflowError):
            sum_at(dict.fromkeys([0, 1, 2], 10 ** 308), 0j)

    @pytest.mark.parametrize("name", ["parameter23", "cusp", "weighted_plane"])
    def test_small_levels_at_large_imaginary_parts(self, request, name):
        problem = request.getfixturevalue(name)
        for n in range(9):
            self.check_table(problem.table(n), LARGE_IM_POINTS)

    def test_values_past_one_machine_word(self):
        rng = random.Random(7)
        degrees = sorted(rng.sample(range(3000), 700))
        self.check({j: 2 ** 64 for j in degrees}, 256)
        self.check({j: 2 ** 130 + rng.randint(0, 10 ** 6) for j in degrees}, 256)
        # signed values, as in a Betti polynomial
        for signed in ({j: rng.choice((-1, 1)) * 2 ** 130 for j in degrees},
                       {j: rng.choice((-1, 1)) * rng.randint(1, 2 ** 70) for j in degrees}):
            for phase_sum in (numerator_sum, direct_sum):
                self.check(signed, 256, phase_sum=phase_sum)

    def test_extreme_real_part_keeps_the_scale_in_range(self):
        # At w = -10 the smallest term is about 2^-4300, and at w = 5.5 the
        # largest is about 2^1008: both sums are finite.
        for size, w in ((300, -10), (300, -10 + 3j), (128, 5.5)):
            degrees = list(range(size))
            values = [1 + j % 7 for j in degrees]
            got = sum_at(dict(zip(degrees, values)), w)
            want = reference_phase_sum(degrees, values, w)
            assert abs(got - want) <= phase_sum_tolerance(degrees, values, w), (w, got, want)

    @pytest.mark.parametrize(
        "degrees, values, w",
        [
            ([0, 1], [1, 1], 800),
            ([0, 1000], [1, 1], 5),
            ([0, 1, 2], [10 ** 308] * 3, 0j),
            ([0, 128], [10 ** 308, 10 ** 308], 0j),
            ([0, 1], [1, 1], complex("nan")),  # w itself
            ([0, 1], [1, 1], complex(0, math.inf)),
            (list(range(4000)), [1] * 4000, 0.2),
            (list(range(300)), [10 ** 308] * 300, 1e-6j),
        ],
    )
    def test_every_non_finite_path_raises_one_message(self, degrees, values, w):
        with pytest.raises(OverflowError, match=r"^numerator sum at level 0 with w=.* is not finite$"):
            sum_at(dict(zip(degrees, values)), w)

    def test_no_points_and_no_entries(self):
        assert sum_at({}, 1j) == sum_at({}, 2j) == 0j
        assert fp_limit(cusp_problem(), [], 8) == {}


# Pi to 84 digits, for the 60-digit reference below.
PI = Decimal(
    "3.14159265358979323846264338327950288419716939937510582097494459230781640628620899863"
)


def decimal_level_sum(lengths, y, q, scale):
    """sum(v * exp(w * j)) / scale over the items j -> v of lengths at
    w = -iy/q, each exp(w * j) taken directly at 60 digits: exp of its real
    part, and the Taylor series of cos and sin at its imaginary part
    reduced to [-pi, pi]."""
    with localcontext(Context(prec=60)):
        wr, wi = Decimal(y.imag) / q, Decimal(-y.real) / q
        re = im = Decimal(0)
        for j, v in lengths.items():
            theta = (wi * j).remainder_near(2 * PI)
            parts, term, k = [0, 0], Decimal(1), 0
            while abs(term) > Decimal("1e-62"):
                parts[k % 2] += term if k % 4 < 2 else -term
                k, term = k + 1, term * theta / (k + 1)
            size = v * (wr * j).exp()
            re, im = re + size * parts[0], im + size * parts[1]
        return complex(re / scale, im / scale)


class TestNumeratorSumAccuracy:
    """F_n from its numerator, within 4e-15 * |F_n| of the dense table summed
    at 60 digits with no code of the evaluator."""

    def check(self, problem, levels, points=PHASE_POINTS):
        for n in levels:
            table, q = problem.table(n), problem.prime ** n
            scale = q ** problem.dimension
            for y in points:
                want = decimal_level_sum(table.lengths, complex(y), q, scale)
                got = fp._numerator_sum(table.numerator, table.weights, complex(y), n, q, scale)
                assert abs(got - want) <= 4e-15 * abs(want), (n, y, got, want)

    def test_cusp(self, cusp):
        # the suite's ring with relations, whose F_n is this sum at every level
        self.check(cusp, range(11))

    def test_fermat_cubic(self):
        self.check(fermat_cubic(2), range(8))

    @pytest.mark.parametrize("name", ["plane", "parameter23", "three_generator", "weighted_plane"])
    def test_relation_free_levels(self, request, name):
        # every level of quadrature_fourier
        self.check(request.getfixturevalue(name), range(6))

    def test_near_other_roots_of_unity(self, cusp):
        # the factor 1 - z^2 vanishes at y/q = pi, 1 - z^3 at 2pi/3, and F_0 =
        # 1 + z^3 at pi too: the numerator loses the bits of each zero
        for n in range(4):
            points = [u * 2 ** n for u in (math.pi, 2 * math.pi / 3, math.pi + 1e-9, -math.pi)]
            self.check(cusp, [n], points)

    def test_tiny_points_keep_the_imaginary_part(self, cusp):
        # Im F_n is about |y| times Re F_n, so below |y| = 1e-20 the sum needs
        # one more factor 1/|w| of bits than its magnitude alone asks for
        cusp3 = load_problem_file(os.path.join(PROBLEMS, "cusp3.json")).to_problem()
        for problem in (cusp, cusp3):
            for n in range(4):
                table, q = problem.table(n), problem.prime ** n
                for y in (1e-20, 1e-30, 1e-100, 1e-300):
                    want = fp._direct_sum(table.lengths, -1j * y / q) / q ** problem.dimension
                    got = fn_eval(problem, n, y)
                    assert abs(got.real - want.real) <= 4e-16 * abs(want.real), (n, y)
                    assert abs(got.imag - want.imag) <= 4e-16 * abs(want.imag), (n, y)

    def test_finite_where_the_numerator_terms_overflow(self, cusp):
        # at y = 1 + 150i N_0's top term z^8 is about e^1200, past the float
        # range, yet F_0 = 1 + z^3 is about -2.68e195 and F_1 about -2.90e162
        y = 1 + 150j
        for n, real in ((0, -2.68e195), (1, -2.90e162)):
            table, q = cusp.table(n), 2 ** n
            want = fp._direct_sum(table.lengths, -1j * y / q) / q
            got = fn_eval(cusp, n, y)
            assert abs(got.real / real - 1) < 0.01
            assert abs(got - want) <= 1e-14 * abs(want), (n, got, want)


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

        def recording(ring, ideal, n, *levels):
            built.append(n)
            return graded_lengths(ring, ideal, n, *levels)

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

    def test_takes_no_numerator_sum(self, monkeypatch):
        levels = []
        numerator_sum = fp._numerator_sum

        def recording(terms, weights, y, level, q, scale=1):
            levels.append(level)
            return numerator_sum(terms, weights, y, level, q, scale)

        monkeypatch.setattr(fp, "_numerator_sum", recording)
        problem = parameter_problem(2, 3)
        grid = [0.5, 2 + 1j, 7.25 - 0.5j, 8 + 1j]
        fn_eval(problem, 14, 1.5 + 0.25j)
        fp_limit(problem, grid, 14)
        betti_limit_check(problem, (1, 1), grid, 14)
        for y in grid:
            gn_fourier_exact(problem, 14, y)
        assert levels == []

    def test_hard_points_take_the_numerator_sum(self, plane, weighted_plane):
        # where the closed form cannot go, F_n is the level's numerator sum bit
        # for bit: at 1 - 1500i sin(wy/2) overflows though F_n is of order
        # q^-d, and at 1e-310 y/q may be subnormal
        line = problem_file_from_dict(
            {"prime": 2, "variables": [{"name": "X", "degree": 1}], "ideal": ["X"]}
        ).to_problem()
        for problem in (plane, weighted_plane, line):
            for n in range(1, 8):
                table, q = problem.table(n), problem.prime ** n
                for y in (1 - 1500j, 1e-310):
                    want = fp._numerator_sum(table.numerator, table.weights, y, n, q,
                                             q ** problem.dimension)
                    assert fn_eval(problem, n, y) == want, (n, y)
        # on the line F_2(1 + 1000i) is about e^750, and the numerator sum says so
        with pytest.raises(OverflowError, match=r"^numerator sum at level 2 with w=\(250-0\.25j\)"):
            fn_eval(line, 2, 1 + 1000j)

    def test_non_finite_product_raises(self, parameter23):
        # at y = 1 + 145i F_4 is finite and F_6 is not; the product overflows,
        # and the numerator sum it falls back to names level 6's w = -iy/64
        y = 1 + 145j
        assert cmath.isfinite(fn_eval(parameter23, 4, y))
        message = r"^numerator sum at level 6 with w=\(2\.265625-0\.015625j\) is not finite$"
        with pytest.raises(OverflowError, match=message):
            fn_eval(parameter23, 6, y)

    def test_finite_past_an_overflowing_level_sum(self, plane):
        # at y = 1 + 354.5i the level-10 sum reaches about e^710 before the
        # q^-2 scale, so the per-term sum overflows, but F_10 is finite, and
        # both the product and the numerator sum return it
        y, q = 1 + 354.5j, 2 ** 10
        table = plane.table(10)
        w = -1j * y / q
        with pytest.raises(OverflowError, match=r"^direct sum with w=.* is not finite$"):
            fp._direct_sum(table.lengths, w)
        # the per-term sum rescaled by exp(-w J), J the top degree, stays finite
        top = table.max_degree
        degrees, values = [j - top for j in table.lengths], list(table.lengths.values())
        anchor = cmath.exp(w * top) / q ** 2
        want = reference_phase_sum(degrees, values, w) * anchor
        tolerance = phase_sum_tolerance(degrees, values, w) * abs(anchor)
        for got in (fn_eval(plane, 10, y),
                    fp._numerator_sum(table.numerator, table.weights, y, 10, q, q ** 2)):
            assert cmath.isfinite(got) and cmath.isfinite(want)
            assert abs(got - want) <= tolerance, (got, want)

    def test_finite_where_the_factor_ratio_overflows(self):
        # over F_2[X] with I = (X), F_1 at 1 + 1000i is (1 + z)/2 with |z| = e^500,
        # and F_2 at 1 + 900i about e^675: exp(-iu) - 1 alone overflows at
        # u = 1000i, yet the sines and phases, multiplied in by halves, do not
        field, grading = PrimeField(2), Grading((1,))
        ring = RingPresentation(field, grading, (), ("X",))
        line = ProblemSpec(ring, HomogeneousIdeal((parse_polynomial("X", ("X",), field, grading),)))
        for n, y in ((1, 1 + 1000j), (2, 1 + 900j)):
            value = fn_eval(line, n, y)
            assert cmath.isfinite(value)
            self.check(line, n, value, y)
        want = 6.158840271963417e216 - 3.3645897751238223e216j
        assert abs(fn_eval(line, 1, 1 + 1000j) - want) <= 1e-15 * abs(want)

    def test_large_negative_imaginary_parts(self, plane, weighted_plane):
        # |z| < 1 keeps F_n of order q^-d however negative Im y is, while
        # sin(wy/2) alone overflows past |Im y| = 1420 / w
        for problem in (plane, weighted_plane):
            for n in (1, 3, 10):
                for y in (0.3 - 800j, 1 - 1500j, 2 - 30000j):
                    self.check(problem, n, fn_eval(problem, n, y), y)

    def test_odd_p_near_roots_of_unity(self):
        # at y = 2 pi k q every factor sum_a z^(aw) has all its terms at 1,
        # and sin(h) / sin(h/q) is a ratio of two small numbers; h/q is
        # rounded at p = 3, and its residual keeps the ratio's bits
        for problem in (parameter_problem(1, 1, p=3), non_monomial_problem()):
            for n in (1, 2, 3):
                table, q = problem.table(n), 3 ** n
                for k in (1, 3):
                    for offset in (0, 1e-9, 1e-4, 1e-2):
                        y = 2 * math.pi * q * k + offset
                        want = decimal_level_sum(table.lengths, complex(y), q, q * q)
                        size = math.fsum(table.lengths.values()) / q ** 2
                        assert abs(fn_eval(problem, n, y) - want) <= 1e-14 * size, (n, k, offset)

    def test_subnormal_points(self, plane):
        # below |y| = 2e-290, h/q may be subnormal; each factor is
        # 1 - ih(q-1)/q to far below a rounding
        q = 2 ** 14
        for y in (1e-310, 1e-320):
            value = fn_eval(plane, 14, y)
            assert value.real == 1
            assert abs(value.imag + y * (q - 1) / q) <= 2 ** -1070

    @pytest.mark.parametrize(
        "name, levels",
        [("plane", 10), ("parameter23", 10), ("three_generator", 10), ("weighted_plane", 10),
         ("non_monomial", 6)],
    )
    def test_lengths_scale_by_q_to_the_m(self, request, name, levels):
        # Kunz's identity at t = 1: the length of S/I^[q] is q^m times that
        # of S/I over m variables, so F_n(0) is ell_0 q^(m - d), exactly
        problem = non_monomial_problem() if name == "non_monomial" else request.getfixturevalue(name)
        m, d = len(problem.ring.grading.weights), problem.dimension
        total = problem.table(0).total()
        for n in range(levels + 1):
            q = problem.prime ** n
            assert problem.table(n).total() == total * q ** m
            assert fn_eval(problem, n, 0) == Fraction(total * q ** m, q ** d)


class TestIntervalRatio:
    def test_series_at_small_u_and_the_direct_form_past_it(self):
        # (exp(-iu) - 1) / (-iu) = sum_k (-iu)^k / (k+1)!: at real u each
        # part keeps its relative accuracy, so the -u/2 imaginary part stays
        # at any tiny u; complex u, like any complex product, is accurate
        # relative to the modulus; the two forms meet at |Im u| = 1
        assert _interval_ratio(0j) == 1
        for u in (1e-300, 1e-200 + 1e-200j, 1e-160, 1e-20, 1e-6 - 3e-7j, 1e-3j, -0.25):
            series = sum((-1j * u) ** k / math.factorial(k + 1) for k in range(12))
            got = _interval_ratio(complex(u))
            assert abs(got - series) <= 1e-15 * abs(series), u
            if not complex(u).imag:
                assert abs(got.real - series.real) <= 1e-15 * abs(series.real), u
                assert abs(got.imag - series.imag) <= 1e-15 * abs(series.imag), u
        for u in (0.5 + 0.999j, 0.5 + 1.001j, 3 - 0.5j, 2 - 40j, 2 + 40j):
            direct = (cmath.exp(-1j * u) - 1) / (-1j * u)
            assert abs(_interval_ratio(u) - direct) <= 2e-15 * abs(direct), u

    @pytest.mark.parametrize("u", [
        1e-6 - 3e-7j, 1e-9 + 1e-9j, 3e-5 + 2e-5j, 1e-3j, 2e-8 + 1e-3j, 0.3 + 0.2j,
        -0.7 - 0.6j, 0.99 + 0.1j, 1e-200 + 1e-200j,
    ])
    def test_complex_u_accurate_part_by_part(self, u):
        # the exact sum_k (-iu)^k / (k+1)! at u's own binary value, in
        # Fractions, rounded once; each part of the ratio keeps its own
        # relative accuracy, as at real u
        a, b = Fraction(u.real), Fraction(u.imag)
        term, total = (Fraction(1), Fraction(0)), [Fraction(1), Fraction(0)]
        for k in range(1, 40):  # (-iu) = b - ia
            term = ((term[0] * b + term[1] * a) / (k + 1), (term[1] * b - term[0] * a) / (k + 1))
            total = [total[0] + term[0], total[1] + term[1]]
        got = _interval_ratio(u)
        assert abs(got.real - float(total[0])) <= 4e-16 * abs(float(total[0])), u
        assert abs(got.imag - float(total[1])) <= 4e-16 * abs(float(total[1])), u

    def test_real_u_takes_the_sine_ratio(self):
        for u in (1e-300, 1e-160, 1e-20, 1e-6, 0.25, -0.25, 1.0, 1.999, -3.0, 50.0):
            half = complex(u) / 2
            assert _interval_ratio(complex(u)) == cmath.exp(-1j * half) * (cmath.sin(half) / half)


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
        # exactly, so the two sides differ only by rounding, down to tiny |y|
        # where B_n(z) itself nearly vanishes
        problem = request.getfixturevalue(name)
        q = 2 ** 14
        grid = (0.5 + 2j, 2 + 1j, 1 + 3j, 8.0, 1e-6, 1e-12)
        values = cm_chi_eval(problem, hsop, grid, 14)
        for y in grid:
            rhs = fn_eval(problem, 14, y)
            for d in hsop:
                rhs *= _interval_ratio(d * y / q)
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
