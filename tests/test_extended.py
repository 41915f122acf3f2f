"""Cross-cutting checks on harder instances: odd characteristic, non-monomial
generators over relations, three variables, a reducible ring, rank-oracle
agreement for the full pipeline with relations and weights, and the reduced
bases of the Frobenius normal forms against the raw bracket powers."""

import cmath
from fractions import Fraction

import pytest

from fpfun import ideals
from fpfun.algebra import Grading, PrimeField, normal_form, parse_polynomial
from fpfun.fp import ProblemSpec, fn_eval, hk_multiplicity
from fpfun.hilbert import LaurentPolynomialZ, hilbert_samuel, series_of_ring
from fpfun.ideals import (
    HomogeneousIdeal,
    RingPresentation,
    bracket_power,
    buchberger,
    graded_lengths,
    initial_ideal,
    macaulay_rank_oracle,
)
from fpfun.suite import plane_problem


def build(prime, names, degrees, relations, gens, dim_override=None):
    field = PrimeField(prime)
    grading = Grading(tuple(degrees))
    rel = tuple(parse_polynomial(s, names, field, grading) for s in relations)
    ideal = tuple(parse_polynomial(s, names, field, grading) for s in gens)
    ring = RingPresentation(field, grading, rel, tuple(names))
    return ProblemSpec(ring, HomogeneousIdeal(ideal), dim_override=dim_override)


@pytest.fixture(scope="module")
def cusp_p3_nonmonomial():
    # in the ring Y^2 = X^3, so the generator equals 2 X^3 and has degree 6
    return build(3, ("X", "Y"), (2, 3), ("Y^2 - X^3",), ("X^3 + Y^2",))


@pytest.fixture(scope="module")
def reducible_ring():
    # two relations, not a complete intersection; components of dimensions 2 and 1
    return build(2, ("X", "Y", "Z"), (1, 1, 1), ("X*Y", "X*Z"), ("X", "Y", "Z"))


@pytest.fixture(scope="module")
def space_p3():
    return build(3, ("X", "Y", "Z"), (1, 1, 1), (), ("X", "Y", "Z"))


class TestOddCharacteristicCusp:
    def test_multiplicity_is_generator_degree(self, cusp_p3_nonmonomial):
        problem = cusp_p3_nonmonomial
        assert problem.dimension == 1
        assert problem.ring_multiplicity == 1
        for n in range(4):
            assert hk_multiplicity(problem, n) == 6

    def test_pipeline_agrees_with_rank_oracle(self, cusp_p3_nonmonomial):
        problem = cusp_p3_nonmonomial
        for n in (0, 1):
            q = 3 ** n
            powered = [g.frobenius_power(q) for g in problem.ideal.generators]
            table = problem.table(n)
            for j in range(table.max_degree + 3):
                assert table.lengths.get(j, 0) == macaulay_rank_oracle(
                    problem.ring, powered, j
                ), (n, j)

    def test_dimension_one_form(self, cusp_p3_nonmonomial):
        problem = cusp_p3_nonmonomial
        for y in (0.5, 1.0, 2.0):
            target = (1 - cmath.exp(-6j * y)) / (1j * y)
            assert abs(fn_eval(problem, 7, y) - target) <= 5e-3


class TestReducibleRing:
    def test_hilbert_series_and_dimension(self, reducible_ring):
        series = series_of_ring(reducible_ring.ring)
        assert series.numerator == LaurentPolynomialZ({0: 1, 2: -2, 3: 1})
        assert hilbert_samuel(series) == (2, Fraction(1))

    def test_exact_lengths(self, reducible_ring):
        # standard monomials split into the X-line and the YZ-plane
        for n in range(5):
            q = 2 ** n
            assert reducible_ring.table(n).total() == q * q + q - 1

    def test_top_component_dominates_the_limit(self, reducible_ring):
        for y in (1.0, 2.0):
            target = ((1 - cmath.exp(-1j * y)) / (1j * y)) ** 2
            assert abs(fn_eval(reducible_ring, 8, y) - target) <= 1e-2


class TestThreeVariablesOddCharacteristic:
    def test_regular_multiplicity(self, space_p3):
        for n in range(4):
            assert hk_multiplicity(space_p3, n) == 1

    def test_triple_product_form(self, space_p3):
        for y in (1.0, 3.0):
            target = ((1 - cmath.exp(-1j * y)) / (1j * y)) ** 3
            assert abs(fn_eval(space_p3, 6, y) - target) <= 5e-3


class TestNonReducedRing:
    def test_nilpotents_scale_the_top_component(self):
        # F2[X,Y]/(X^2) has one minimal prime with local length 2, so the
        # limit doubles the line's function and the multiplicity is 2
        problem = build(2, ("X", "Y"), (1, 1), ("X^2",), ("Y",))
        assert problem.dimension == 1
        assert problem.ring_multiplicity == 2
        for n in range(4):
            assert hk_multiplicity(problem, n) == 2
        for y in (1.0, 2.0):
            target = 2 * (1 - cmath.exp(-1j * y)) / (1j * y)
            assert abs(fn_eval(problem, 8, y) - target) <= 1e-4


class TestOneVariableFamily:
    def test_weighted_power_ideal(self):
        # weight delta, ideal (X^t): multiplicity t, frequency delta * t
        for delta, t, p in ((1, 1, 2), (2, 3, 2), (3, 2, 3)):
            problem = build(p, ("X",), (delta,), (), (f"X^{t}",))
            assert problem.ring_multiplicity == Fraction(1, delta)
            for n in range(3):
                assert hk_multiplicity(problem, n) == t
            for y in (1.0, 3.0):
                target = (1 - cmath.exp(-1j * delta * t * y)) / (1j * delta * y)
                assert abs(fn_eval(problem, 8, y) - target) <= 5e-3


class TestSupportBoundConstant:
    def test_stated_constant_dominates(self, suite_problems):
        # C = (largest level-zero pure-power exponent + 1) * sum of weights
        for name, (problem, _) in suite_problems.items():
            polys = list(problem.ring.relations) + list(problem.ideal.generators)
            lead = initial_ideal(buchberger(polys))
            bounds = lead.pure_power_bounds(problem.ring.grading.var_count)
            c = (max(bounds) + 1) * sum(problem.ring.grading.weights)
            for n in range(5):
                table = problem.table(n)
                assert table.max_degree < c * problem.prime ** n, (name, n)


def frobenius_route(problem, n):
    """The reduced basis graded_lengths takes over a ring with relations."""
    relations = buchberger(problem.ring.relations).elements
    return buchberger([*relations, *ideals._frobenius_normal_forms(problem.ideal, relations, n)])


def raw_route(problem, n):
    """Buchberger on the relations plus the raw bracket powers g^q."""
    return buchberger([*problem.ring.relations, *bracket_power(problem.ideal, n).generators])


CUSP = (2, ("X", "Y"), (2, 3), ("Y^2 - X^3",))
FERMAT = (("x", "y", "z"), (1, 1, 1), ("x^3 + y^3 + z^3",), ("x", "y", "z"))


class TestFrobeniusNormalForms:
    @pytest.mark.parametrize("args, top", [
        ((*CUSP, ("X",)), 14),
        ((3, ("X", "Y"), (2, 3), ("Y^2 - X^3",), ("X^3 + Y^2",)), 8),
        ((2, *FERMAT), 7),
        ((5, *FERMAT), 3),
        ((*CUSP, ("X", "Y^2 - X^3")), 6),
    ], ids=["cusp", "cusp3", "fermat-p2", "fermat-p5", "cusp-with-its-relation"])
    def test_reduced_basis_equals_the_raw_bracket_powers(self, args, top):
        problem = build(*args)
        for n in range(top + 1):
            assert frobenius_route(problem, n) == raw_route(problem, n), n

    @pytest.mark.parametrize("name", ["reducible_ring", "cusp_p3_nonmonomial"])
    def test_fixtures(self, request, name):
        problem = request.getfixturevalue(name)
        for n in range(6):
            assert frobenius_route(problem, n) == raw_route(problem, n), n

    def test_graded_lengths_takes_the_normal_forms(self, monkeypatch):
        # h_14 of X on the cusp is X^q mod Y^2 - X^3, which the raw power
        # reaches by 5461 division steps; the relation's own h_n is 0 and dropped
        problem = build(*CUSP, ("X", "Y^2 - X^3"))
        relation = problem.ring.relations[0]
        inputs = []

        def recording(gens):
            inputs.append(tuple(gens))
            return buchberger(gens)

        monkeypatch.setattr(ideals, "buchberger", recording)
        q = 2 ** 14
        table = graded_lengths(problem.ring, problem.ideal, 14)
        basis = buchberger([relation]).elements
        h = normal_form(problem.ideal.generators[0].frobenius_power(q), basis)
        assert inputs == [(relation,), (*basis, h)]
        assert h.single_exponent() == (1, 2 * (q // 3))
        cusp = build(*CUSP, ("X",))
        assert table == graded_lengths(cusp.ring, cusp.ideal, 14)
