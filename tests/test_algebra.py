import random

import pytest

from fpfun.algebra import (
    Grading,
    Polynomial,
    PrimeField,
    _heap_key,
    format_polynomial,
    monomial_lcm,
    normal_form,
    parse_polynomial,
    weighted_degree,
)
from fpfun.errors import ParseError, StructureError

F2 = PrimeField(2)
STD2 = Grading((1, 1))
W23 = Grading((2, 3))


def poly(text, field=F2, grading=STD2, names=("X", "Y")):
    return parse_polynomial(text, names, field, grading)


class TestPrimeField:
    def test_rejects_composite(self):
        with pytest.raises(StructureError):
            PrimeField(6)
        with pytest.raises(StructureError):
            PrimeField(1)

    def test_accepts_large_prime(self):
        PrimeField(1000003)
        PrimeField(2 ** 61 - 1)

    def test_rejects_strong_pseudoprime_to_bases_up_to_37(self):
        # 399165290221 * 798330580441 passes Miller-Rabin at every base 2..37
        with pytest.raises(StructureError):
            PrimeField(318665857834031151167461)

    def test_rejects_characteristics_no_fixed_bases_certify(self):
        with pytest.raises(StructureError, match="below 3317044064679887385961981"):
            PrimeField(3317044064679887385961981)


class TestWeightedDegree:
    def test_empty_monomial(self):
        assert weighted_degree((0, 0), STD2) == 0

    def test_sum_of_weights(self):
        assert weighted_degree((1, 1), W23) == 5

    def test_hand_sum(self):
        assert weighted_degree((3, 2), W23) == 12

    def test_length_mismatch(self):
        with pytest.raises(StructureError):
            weighted_degree((1, 2, 3), W23)


class TestMonomialLcm:
    def test_disjoint_supports(self):
        assert monomial_lcm((2, 0), (0, 2)) == (2, 2)

    def test_componentwise_max(self):
        assert monomial_lcm((1, 3), (2, 1)) == (2, 3)

    def test_idempotent(self):
        assert monomial_lcm((4, 1), (4, 1)) == (4, 1)

    def test_length_mismatch(self):
        with pytest.raises(StructureError):
            monomial_lcm((1,), (1, 2))


def greater(grading, a, b):
    """Whether x^a leads x^b: the least heap key is the leading monomial."""
    return _heap_key(a, grading.weights) < _heap_key(b, grading.weights)


class TestTermOrder:
    def test_degree_dominates(self):
        assert greater(STD2, (2, 1), (1, 1))

    def test_standard_grevlex_tie(self):
        # degree ties break reverse lexicographically, last variable smallest
        assert greater(STD2, (2, 0), (1, 1))  # X^2 > XY
        assert greater(STD2, (1, 1), (0, 2))  # XY > Y^2

    def test_weighted_tie(self):
        # both have weighted degree 6; grevlex pushes the last variable down
        assert greater(W23, (3, 0), (0, 2))  # X^3 > Y^2

    def test_total_and_multiplicative(self):
        rng = random.Random(99)
        for _ in range(300):
            nvars = rng.randint(1, 4)
            weights = tuple(rng.randint(1, 3) for _ in range(nvars))
            a = tuple(rng.randint(0, 5) for _ in range(nvars))
            b = tuple(rng.randint(0, 5) for _ in range(nvars))
            c = tuple(rng.randint(0, 5) for _ in range(nvars))
            if a == b:
                continue
            assert _heap_key(a, weights) != _heap_key(b, weights)
            ac = tuple(x + y for x, y in zip(a, c))
            bc = tuple(x + y for x, y in zip(b, c))
            assert (_heap_key(a, weights) < _heap_key(b, weights)) == (
                _heap_key(ac, weights) < _heap_key(bc, weights)
            )


class TestPolynomial:
    def test_zero_coefficients_dropped(self):
        f = Polynomial(F2, STD2, {(1, 0): 2, (0, 1): 1})
        assert f.terms == {(0, 1): 1}

    def test_add_cancels(self):
        f = poly("X + Y")
        assert (f + f).is_zero()

    def test_homogeneous_degree(self):
        assert poly("X^2 + X*Y").homogeneous_degree() == 2
        assert poly("Y^2 - X^3", grading=W23).homogeneous_degree() == 6
        with pytest.raises(StructureError):
            poly("X + Y^2").homogeneous_degree()

    def test_frobenius_power(self):
        f = poly("Y^2 - X^3", grading=W23)
        g = f.frobenius_power(4)
        assert g.terms == {(0, 8): 1, (12, 0): 1}

    def test_field_mismatch(self):
        f = poly("X")
        g = parse_polynomial("X", ("X", "Y"), PrimeField(3), STD2)
        with pytest.raises(StructureError):
            f + g


class TestNormalForm:
    def test_exact_divisor(self):
        assert normal_form(poly("X^2"), [poly("X^2")]).is_zero()

    def test_single_division_step(self):
        f = poly("Y^2 - X^3", grading=W23)
        r = normal_form(f, [poly("X", grading=W23)])
        assert r == poly("Y^2", grading=W23)

    def test_unit_ideal(self):
        one = poly("1")
        for text in ("X^3 + X*Y", "Y", "1"):
            assert normal_form(poly(text), [one]).is_zero()

    def test_membership_and_idempotence_random(self):
        rng = random.Random(7)
        f3 = PrimeField(3)
        texts = ["X^2 + 2*X*Y", "Y^2", "X*Y + Y^2", "X^3"]
        divisors = [parse_polynomial(t, ("X", "Y"), f3, STD2) for t in texts[:3]]
        for _ in range(20):
            terms = {
                (rng.randint(0, 3), rng.randint(0, 3)): rng.randint(1, 2) for _ in range(4)
            }
            f = Polynomial(f3, STD2, terms)
            r = normal_form(f, divisors)
            assert normal_form(f - r, divisors).is_zero()
            assert normal_form(r, divisors) == r

    def test_empty_divisors_rejected(self):
        with pytest.raises(StructureError):
            normal_form(poly("X"), [])

    def test_kernel_heap_order_is_descending_term_order(self):
        # normal_form and Buchberger pop terms in ascending heap form; that
        # must be descending weighted grevlex order, written out here from its
        # definition, with products adding up.
        from functools import cmp_to_key

        from fpfun.algebra import _from_heap_terms, _heap_terms

        rng = random.Random(11)
        for _ in range(100):
            nvars = rng.randint(1, 4)
            grading = Grading(tuple(rng.randint(1, 3) for _ in range(nvars)))

            def grevlex(a, b):
                # > 0 when x^a > x^b: larger degree, else the last differing
                # exponent is smaller in a
                da, db = weighted_degree(a, grading), weighted_degree(b, grading)
                if da != db:
                    return da - db
                diff = [x - y for x, y in zip(a, b) if x != y]
                return -diff[-1] if diff else 0

            def heap_form(e):
                return next(iter(_heap_terms(Polynomial(F2, grading, {e: 1}))))

            terms = {tuple(rng.randint(0, 4) for _ in range(nvars)): 1 for _ in range(6)}
            heap = _heap_terms(Polynomial(F2, grading, terms))
            descending = sorted(terms, key=cmp_to_key(grevlex), reverse=True)
            assert [m[:0:-1] for m in sorted(heap)] == descending
            assert _from_heap_terms(heap) == terms
            a, b = rng.choice(sorted(terms)), rng.choice(sorted(terms))
            product = tuple(x + y for x, y in zip(a, b))
            assert heap_form(product) == tuple(x + y for x, y in zip(heap_form(a), heap_form(b)))

    def test_list_order_decides_remainder(self):
        # The divisors are not a Groebner basis, so the remainder depends on
        # which divisor acts first: the first in list order whose leading term
        # divides the largest remaining term.
        f5, std3, names = PrimeField(5), Grading((1, 1, 1)), ("x", "y", "z")

        def p5(text):
            return parse_polynomial(text, names, f5, std3)

        def remainder(f, divisors):
            return format_polynomial(normal_form(f, divisors), names)

        f = p5("x*y^2 - x*z^2")
        g1, g2 = p5("x*y + z^2"), p5("y^2 - z^2")
        assert remainder(f, [g1, g2]) == "4*x*z^2 + 4*y*z^2"
        assert remainder(f, [g2, g1]) == "0"

        # A non-monic divisor is scaled first; every order of three divisors.
        f = p5("x^2*y + 3*x*y^2 + y*z^2")
        g1, g2, g3 = p5("2*x*y + z^2"), p5("x^2 - y*z"), p5("y^2 + x*z")
        expected = [
            ([g1, g2, g3], "2*x*z^2 + 2*y*z^2"),
            ([g1, g3, g2], "2*x*z^2 + 2*y*z^2"),
            ([g2, g1, g3], "4*x*z^2 + 2*y*z^2"),
            ([g2, g3, g1], "4*x*z^2 + 3*y*z^2"),
            ([g3, g1, g2], "2*x*z^2 + 3*y*z^2"),
            ([g3, g2, g1], "4*x*z^2 + 3*y*z^2"),
        ]
        for divisors, text in expected:
            assert remainder(f, divisors) == text


class TestParser:
    def test_basic_terms(self):
        f = poly("X^2 + X*Y")
        assert f.terms == {(2, 0): 1, (1, 1): 1}

    def test_coefficients_reduced_mod_p(self):
        f = poly("2*X + 3*Y")
        assert f.terms == {(0, 1): 1}

    def test_minus_in_characteristic_two(self):
        assert poly("Y^2 - X^3", grading=W23) == poly("Y^2 + X^3", grading=W23)

    def test_whitespace_insignificant(self):
        assert poly(" X ^ 2+ X * Y ") == poly("X^2+X*Y")

    def test_leading_minus(self):
        f = parse_polynomial("-X + Y", ("X", "Y"), PrimeField(5), STD2)
        assert f.terms == {(1, 0): 4, (0, 1): 1}

    def test_repeated_variable_factors(self):
        assert poly("X*X*Y") == poly("X^2*Y")

    def test_constants(self):
        assert poly("1").terms == {(0, 0): 1}
        assert poly("2").is_zero()

    def test_unknown_variable(self):
        with pytest.raises(ParseError):
            poly("X + Z")

    def test_bad_character(self):
        with pytest.raises(ParseError):
            poly("X + (Y)")

    def test_trailing_operator(self):
        with pytest.raises(ParseError):
            poly("X +")

    def test_empty(self):
        with pytest.raises(ParseError):
            poly("   ")

    def test_format_round_trip(self):
        rng = random.Random(11)
        f5 = PrimeField(5)
        for _ in range(25):
            terms = {
                (rng.randint(0, 4), rng.randint(0, 4)): rng.randint(1, 4)
                for _ in range(rng.randint(1, 5))
            }
            f = Polynomial(f5, STD2, terms)
            text = format_polynomial(f, ("X", "Y"))
            assert parse_polynomial(text, ("X", "Y"), f5, STD2) == f
