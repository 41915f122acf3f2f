import random

import pytest

from fpfun.algebra import (
    Grading,
    Polynomial,
    PrimeField,
    TermOrder,
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

    @pytest.mark.parametrize("p", [2, 3, 5, 97])
    def test_axioms_random(self, p):
        rng = random.Random(1234 + p)
        field = PrimeField(p)
        for _ in range(50):
            a, b, c = (rng.randrange(p) for _ in range(3))
            assert field.add(field.add(a, b), c) == field.add(a, field.add(b, c))
            assert field.mul(field.mul(a, b), c) == field.mul(a, field.mul(b, c))
            if a:
                assert field.mul(a, field.inv(a)) == 1
            # Frobenius additivity
            assert field.pow(field.add(a, b), p) == field.add(field.pow(a, p), field.pow(b, p))


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


class TestTermOrder:
    def test_degree_dominates(self):
        order = TermOrder(STD2)
        assert order.greater((2, 1), (1, 1))

    def test_standard_grevlex_tie(self):
        # degree ties break reverse lexicographically, last variable smallest
        order = TermOrder(STD2)
        assert order.greater((2, 0), (1, 1))  # X^2 > XY
        assert order.greater((1, 1), (0, 2))  # XY > Y^2

    def test_weighted_tie(self):
        order = TermOrder(W23)
        # both have weighted degree 6; grevlex pushes the last variable down
        assert order.greater((3, 0), (0, 2))  # X^3 > Y^2

    def test_total_and_multiplicative(self):
        rng = random.Random(99)
        for _ in range(300):
            nvars = rng.randint(1, 4)
            grading = Grading(tuple(rng.randint(1, 3) for _ in range(nvars)))
            order = TermOrder(grading)
            a = tuple(rng.randint(0, 5) for _ in range(nvars))
            b = tuple(rng.randint(0, 5) for _ in range(nvars))
            c = tuple(rng.randint(0, 5) for _ in range(nvars))
            if a == b:
                continue
            assert order.key(a) != order.key(b)
            ac = tuple(x + y for x, y in zip(a, c))
            bc = tuple(x + y for x, y in zip(b, c))
            assert (order.key(a) < order.key(b)) == (order.key(ac) < order.key(bc))


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

    def test_monic(self):
        f3 = PrimeField(3)
        f = parse_polynomial("2*X^2 + Y^2", ("X", "Y"), f3, STD2)
        order = TermOrder(STD2)
        m = f.monic(order)
        assert m.leading_coefficient(order) == 1
        assert m.terms[(0, 2)] == 2  # 2 * inv(2) = 1, tail scaled by inv(2) = 2


class TestNormalForm:
    def test_exact_divisor(self):
        order = TermOrder(STD2)
        assert normal_form(poly("X^2"), [poly("X^2")], order).is_zero()

    def test_single_division_step(self):
        order = TermOrder(W23)
        f = poly("Y^2 - X^3", grading=W23)
        r = normal_form(f, [poly("X", grading=W23)], order)
        assert r == poly("Y^2", grading=W23)

    def test_unit_ideal(self):
        order = TermOrder(STD2)
        one = Polynomial.constant(F2, STD2, 1)
        for text in ("X^3 + X*Y", "Y", "1"):
            assert normal_form(poly(text), [one], order).is_zero()

    def test_membership_and_idempotence_random(self):
        rng = random.Random(7)
        order = TermOrder(STD2)
        f3 = PrimeField(3)
        texts = ["X^2 + 2*X*Y", "Y^2", "X*Y + Y^2", "X^3"]
        divisors = [parse_polynomial(t, ("X", "Y"), f3, STD2) for t in texts[:3]]
        for _ in range(20):
            terms = {
                (rng.randint(0, 3), rng.randint(0, 3)): rng.randint(1, 2) for _ in range(4)
            }
            f = Polynomial(f3, STD2, terms)
            r = normal_form(f, divisors, order)
            assert normal_form(f - r, divisors, order).is_zero()
            assert normal_form(r, divisors, order) == r

    def test_empty_divisors_rejected(self):
        with pytest.raises(StructureError):
            normal_form(poly("X"), [], TermOrder(STD2))

    def test_kernel_heap_order_is_descending_term_order(self):
        # normal_form and Buchberger pop terms in ascending heap form; that
        # must be descending TermOrder.key order, with products adding up.
        from fpfun.algebra import _from_heap_terms, _heap_terms

        rng = random.Random(11)
        for _ in range(100):
            nvars = rng.randint(1, 4)
            grading = Grading(tuple(rng.randint(1, 3) for _ in range(nvars)))
            order = TermOrder(grading)

            def heap_form(e):
                return next(iter(_heap_terms(Polynomial(F2, grading, {e: 1}), grading.weights)))

            terms = {tuple(rng.randint(0, 4) for _ in range(nvars)): 1 for _ in range(6)}
            heap = _heap_terms(Polynomial(F2, grading, terms), grading.weights)
            assert [m[:0:-1] for m in sorted(heap)] == order.sorted_descending(terms)
            assert _from_heap_terms(heap) == terms
            a, b = rng.choice(sorted(terms)), rng.choice(sorted(terms))
            product = tuple(x + y for x, y in zip(a, b))
            assert heap_form(product) == tuple(x + y for x, y in zip(heap_form(a), heap_form(b)))

    def test_list_order_decides_remainder(self):
        # The divisors are not a Groebner basis, so the remainder depends on
        # which divisor acts first: the first in list order whose leading term
        # divides the largest remaining term.
        f5, std3, names = PrimeField(5), Grading((1, 1, 1)), ("x", "y", "z")
        order = TermOrder(std3)

        def p5(text):
            return parse_polynomial(text, names, f5, std3)

        def remainder(f, divisors):
            return format_polynomial(normal_form(f, divisors, order), names)

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
