import cmath
import random
from fractions import Fraction

import pytest

from fpfun.errors import ModelConstructionError
from fpfun.fp import fp_limit, hk_multiplicity, series_coefficient_estimate
from fpfun.hilbert import LaurentPolynomialZ
from fpfun.models import (
    ExponentialPolynomialModel,
    HNData,
    eval_model,
    model_dim_one,
    model_finite_pd,
    model_from_hn,
    model_hsop,
    models_equal,
)

GRID = (0.5, 1.0, 2.0, 4.0)


def series_oracle(model, y, terms=200):
    """Sum cos/sin Taylor series in exact rational arithmetic (real y only).

    Independent of the model's own evaluation paths; with 200 terms the
    truncation tail is far below double precision for |rho * y| <= 30.
    """
    y_exact = Fraction(y)
    num_re = Fraction(0)
    num_im = Fraction(0)
    for c, rho in model.terms:
        x = rho * y_exact
        cos_x = Fraction(0)
        sin_x = Fraction(0)
        power = Fraction(1)  # x^m / m!
        for m in range(terms):
            if m % 4 == 0:
                cos_x += power
            elif m % 4 == 1:
                sin_x += power
            elif m % 4 == 2:
                cos_x -= power
            else:
                sin_x -= power
            power = power * x / (m + 1)
        c = Fraction(c)
        # exp(-i x) = cos x - i sin x
        num_re += c * cos_x
        num_im -= c * sin_x
    # divide by (iy)^d, with i^d cycling through 1, i, -1, -i
    y_pow = y_exact ** model.d
    re, im = num_re / y_pow, num_im / y_pow
    for _ in range(model.d):
        re, im = im, -re  # divide by i
    return complex(float(re), float(im))


class TestEvalModel:
    def test_one_variable_value_at_origin(self):
        model = model_dim_one(1, 1)  # (1 - e^{-iy}) / (iy)
        assert abs(eval_model(model, 0) - 1) <= 1e-15

    def test_plane_product_value_at_origin(self):
        model = model_hsop(1, (1, 1))
        assert abs(eval_model(model, 0) - 1) <= 1e-15

    def test_branches_agree_at_the_seam(self):
        # the Taylor branch and the direct quotient must describe the same
        # function: compare them at common points on both sides of the radius
        for model in (
            model_hsop(1, (1, 1)),
            model_dim_one(1, 2),
            model_hsop(Fraction(1, 6), (2, 3)),
        ):
            for y in (1e-3 * 1.0001, 1e-3 * 0.9999, -1e-3 * 0.9999):
                direct = 0j
                for c, rho in model.terms:
                    direct += complex(c) * cmath.exp(-1j * float(rho) * y)
                direct /= (1j * y) ** model.d
                assert abs(eval_model(model, y) - direct) <= 1e-9

    def test_seam_jump_matches_function_increment(self):
        # crossing the radius changes the value only by the true increment
        # F'(y) * delta_y ~ 2e-7, never by a branch artifact
        for model in (model_hsop(1, (1, 1)), model_dim_one(1, 2)):
            for eps_sign in (1, -1):
                a = eval_model(model, eps_sign * 1e-3 * 1.0001)
                b = eval_model(model, eps_sign * 1e-3 * 0.9999)
                assert abs(a - b) <= 1e-6

    def test_against_series_oracle(self):
        rng = random.Random(13)
        models = [
            model_hsop(1, (1, 1)),
            model_hsop(Fraction(1, 6), (2, 3)),
            model_dim_one(1, 2),
            model_from_hn(HNData(1, 1, ((Fraction(-1), 1),))),
        ]
        for model in models:
            for _ in range(20):
                y = rng.uniform(-5.0, 5.0)
                if abs(y) < 0.01:
                    y += 0.5
                lhs = eval_model(model, y)
                rhs = series_oracle(model, y)
                assert abs(lhs - rhs) <= 1e-9

    def test_complex_arguments(self):
        model = model_hsop(1, (1, 1))
        y = 2 + 1j
        direct = (1 - cmath.exp(-1j * y)) ** 2 / (1j * y) ** 2
        assert abs(eval_model(model, y) - direct) <= 1e-12


class TestModelHsop:
    def test_standard_plane_terms(self):
        model = model_hsop(1, (1, 1))
        assert model.d == 2
        assert dict((r, c) for c, r in model.terms) == {
            Fraction(0): 1,
            Fraction(1): -2,
            Fraction(2): 1,
        }

    def test_one_variable_power(self):
        # ideal (X^t) in a weight-delta one-variable ring
        delta, t = 2, 3
        model = model_hsop(Fraction(1, delta), (delta * t,))
        y = 1.7
        expected = (1 - cmath.exp(-1j * delta * t * y)) / (1j * delta * y)
        assert abs(eval_model(model, y) - expected) <= 1e-12

    def test_value_at_zero_is_parameter_multiplicity(self):
        for e_r, degrees in ((1, (1, 1)), (Fraction(1, 6), (2, 3)), (2, (1, 2, 3))):
            model = model_hsop(e_r, degrees)
            expected = Fraction(e_r)
            for d in degrees:
                expected *= d
            assert abs(eval_model(model, 0) - float(expected)) <= 1e-12

    def test_equals_finite_pd_of_koszul_numerator(self):
        rng = random.Random(29)
        for _ in range(300):
            e = Fraction(rng.randint(1, 9), rng.randint(1, 9))
            degrees = tuple(rng.randint(1, 6) for _ in range(rng.randint(1, 4)))
            # prod (1 - t^d) expanded over subsets of the degrees
            koszul = {}
            for mask in range(1 << len(degrees)):
                chosen = [d for i, d in enumerate(degrees) if mask >> i & 1]
                koszul[sum(chosen)] = koszul.get(sum(chosen), 0) + (-1) ** len(chosen)
            a = model_hsop(e, degrees)
            b = model_finite_pd(e, LaurentPolynomialZ(koszul), len(degrees))
            assert (a.d, a.terms) == (b.d, b.terms)

    def test_rejects_bad_inputs_in_order(self):
        for args, message in (
            ((0, ()), "ring multiplicity"),
            ((1, ()), "at least one parameter degree"),
            ((1, (2, 0, -1)), "parameter degree 0 "),
            ((1, (2, 1.0)), "parameter degree 1.0 "),
            ((1, (2, True)), "parameter degree True "),
        ):
            with pytest.raises(ModelConstructionError, match=message):
                model_hsop(*args)

    def test_matches_plane_limit(self, plane):
        model = model_hsop(1, (1, 1))
        estimates = fp_limit(plane, GRID, 10)
        for y in GRID:
            est = estimates[y]
            assert abs(eval_model(model, y) - est.value) <= est.error_bound + 1e-6


class TestModelDimOne:
    def test_cusp_match(self, cusp):
        model = model_dim_one(1, 2)
        estimates = fp_limit(cusp, GRID, 10)
        for y in GRID:
            est = estimates[y]
            assert abs(eval_model(model, y) - est.value) <= est.error_bound + 1e-6

    def test_value_at_zero(self):
        assert abs(eval_model(model_dim_one(Fraction(3, 2), 4), 0) - 6.0) <= 1e-12

    def test_rejects_bad_inputs(self):
        with pytest.raises(ModelConstructionError, match="ring multiplicity"):
            model_dim_one(0, 2)
        with pytest.raises(ModelConstructionError, match="element degree h"):
            model_dim_one(1, 0)
        with pytest.raises(ModelConstructionError, match="ring multiplicity"):
            model_dim_one(-1, 0)

    def test_equals_single_degree_hsop(self):
        rng = random.Random(31)
        for _ in range(300):
            e = Fraction(rng.randint(1, 9), rng.randint(1, 9))
            h = rng.randint(1, 12)
            a = model_dim_one(e, h)
            b = model_hsop(e, (h,))
            assert (a.d, a.terms) == (b.d, b.terms) == (1, ((e, 0), (-e, h)))


class TestModelFinitePd:
    def test_three_generator_model(self, three_generator):
        betti = LaurentPolynomialZ({0: 1, 2: -2, 4: 1})
        model = model_finite_pd(1, betti, 2)
        # equals (1 - e^{-2iy})^2 / (iy)^2
        for y in GRID:
            direct = (1 - cmath.exp(-2j * y)) ** 2 / (1j * y) ** 2
            assert abs(eval_model(model, y) - direct) <= 1e-12
        estimates = fp_limit(three_generator, GRID, 10)
        for y in GRID:
            est = estimates[y]
            assert abs(eval_model(model, y) - est.value) <= est.error_bound + 1e-6

    def test_pair_of_powers_form(self):
        d1, d2 = 3, 4
        betti = LaurentPolynomialZ({0: 1, d1: -1, d2: -1, d1 + d2: 1})
        model = model_finite_pd(1, betti, 2)
        y = 1.3
        direct = (
            1
            - cmath.exp(-1j * y * d1)
            - cmath.exp(-1j * y * d2)
            + cmath.exp(-1j * y * (d1 + d2))
        ) / (1j * y) ** 2
        assert abs(eval_model(model, y) - direct) <= 1e-12

    def test_value_at_zero_is_multiplicity(self, three_generator):
        betti = LaurentPolynomialZ({0: 1, 2: -2, 4: 1})
        model = model_finite_pd(1, betti, 2)
        assert abs(eval_model(model, 0) - float(hk_multiplicity(three_generator, 6))) <= 1e-12

    def test_vanishing_order_enforced(self):
        with pytest.raises(ModelConstructionError):
            model_finite_pd(1, LaurentPolynomialZ({0: 1, 2: -2}), 2)
        with pytest.raises(ModelConstructionError):
            model_finite_pd(1, LaurentPolynomialZ({0: 1, 1: -1}), 2)


class TestModelFromHn:
    def test_plane_case_equals_hsop_model(self):
        hn = model_from_hn(HNData(1, 1, ((Fraction(-1), 1),)))
        hsop = model_hsop(1, (1, 1))
        assert models_equal(hn, hsop, 0)

    def test_invalid_rank_sum(self):
        with pytest.raises(ModelConstructionError, match="rank"):
            HNData(1, 2, ((Fraction(-1), 1),))

    def test_invalid_slope_sum(self):
        with pytest.raises(ModelConstructionError, match="mu_s"):
            HNData(1, 1, ((Fraction(-2), 1),))

    def test_sums_too_long_to_print(self):
        # str() refuses a number of over 4300 digits; the relation is still named
        big = 10 ** 5000
        with pytest.raises(ModelConstructionError, match=r"ranks = <over 4300 digits> != rank_s = 1$"):
            HNData(1, 1, ((Fraction(-1), big),))
        with pytest.raises(ModelConstructionError, match=r"r_s = <over 4300 digits> != -delta_r = -1$"):
            HNData(1, 1, ((Fraction(big), 1),))

    def test_slopes_must_decrease(self):
        with pytest.raises(ModelConstructionError, match="decreasing"):
            HNData(2, 2, ((Fraction(-1), 1), (Fraction(-1), 1)))

    def test_value_at_zero_real_positive(self):
        data = HNData(2, 2, ((Fraction(-1, 2), 1), (Fraction(-3, 2), 1)))
        model = model_from_hn(data)
        v = eval_model(model, 0)
        assert abs(v.imag) <= 1e-12
        assert v.real > 0

    def test_two_step_filtration_frequencies(self):
        data = HNData(2, 2, ((Fraction(-1, 2), 1), (Fraction(-3, 2), 1)))
        model = model_from_hn(data)
        freqs = sorted(r for _, r in model.terms)
        assert freqs == [Fraction(0), Fraction(1), Fraction(5, 4), Fraction(7, 4)]


class TestModelsEqual:
    def test_reflexive(self):
        m = model_hsop(1, (1, 2))
        assert models_equal(m, m, 0)

    def test_commutative_degrees(self):
        assert models_equal(model_hsop(1, (1, 2)), model_hsop(1, (2, 1)), 0)

    def test_distinguishes_different_formulas(self):
        assert not models_equal(model_dim_one(1, 2), model_dim_one(1, 3), 1e-9)
        assert not models_equal(model_hsop(1, (1, 1)), model_dim_one(1, 1), 0)

    def test_tolerance_on_float_coefficients(self):
        # coefficients are exact rationals only; a tolerance compares them
        for c in (1.0, 1.0 + 1e-12, float("nan"), 0.5 + 0j, 1j):
            with pytest.raises(ModelConstructionError, match="coefficient .* exact rational"):
                ExponentialPolynomialModel(0, ((c, Fraction(1)),))
        a = ExponentialPolynomialModel(0, ((Fraction(1, 10 ** 12), Fraction(1)),))
        b = ExponentialPolynomialModel(0, ())
        assert models_equal(a, b, 1e-9)
        assert not models_equal(a, b, 1e-15)


class TestModelInvariant:
    def test_constructor_checks_moments_exactly(self):
        with pytest.raises(ModelConstructionError):
            ExponentialPolynomialModel(1, ((Fraction(1), Fraction(0)),))
        ExponentialPolynomialModel(
            1, ((Fraction(1), Fraction(0)), (Fraction(-1), Fraction(5)))
        )

    def test_terms_are_fractions(self):
        m = ExponentialPolynomialModel(1, ((1, 0), ("-1", "5/2"), (True, 7), (-1, 7)))
        assert m.terms == ((Fraction(1), Fraction(0)), (Fraction(-1), Fraction(5, 2)))
        assert all(type(c) is Fraction and type(r) is Fraction for c, r in m.terms)

    def test_merging_equal_frequencies(self):
        m = ExponentialPolynomialModel(
            0, ((Fraction(1), Fraction(1, 2)), (Fraction(2), Fraction(1, 2)))
        )
        assert m.terms == ((Fraction(3), Fraction(1, 2)),)

    def test_taylor_matches_moment_estimates(self, plane):
        model = model_hsop(1, (1, 1))
        coeffs = model.taylor_coefficients(3)
        n = 10
        q = 2 ** n
        for m in range(3):
            est = series_coefficient_estimate(plane, m, n)
            assert abs(coeffs[m] - est) <= 4 * (m + 1) / q


class TestSerialization:
    def test_round_trip(self):
        # to_json_dict writes c_re = float(c), c_im = 0.0 and the exact frequency
        model = model_from_hn(HNData(2, 2, ((Fraction(-1, 2), 1), (Fraction(-3, 2), 1))))
        assert model.to_json_dict() == {
            "d": 2,
            "terms": [
                {"c_re": 2.0, "c_im": 0.0, "rho_num": 0, "rho_den": 1},
                {"c_re": -6.0, "c_im": 0.0, "rho_num": 1, "rho_den": 1},
                {"c_re": 2.0, "c_im": 0.0, "rho_num": 5, "rho_den": 4},
                {"c_re": 2.0, "c_im": 0.0, "rho_num": 7, "rho_den": 4},
            ],
        }
        model = model_hsop(Fraction(1, 6), (2, 3))
        data = model.to_json_dict()
        assert [(t["c_re"], t["c_im"]) for t in data["terms"]] == [
            (float(c), 0.0) for c, _ in model.terms
        ]
        assert data["terms"][0]["c_re"] == 0.16666666666666666
        assert [Fraction(t["rho_num"], t["rho_den"]) for t in data["terms"]] == [
            r for _, r in model.terms
        ]
