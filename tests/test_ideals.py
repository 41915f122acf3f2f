import random
from pathlib import Path

import pytest

from fpfun.algebra import (
    Grading,
    Polynomial,
    PrimeField,
    TermOrder,
    format_polynomial,
    parse_polynomial,
)
from fpfun.errors import ColengthError, StructureError
from fpfun.ideals import (
    MAX_TABLE_ENTRIES,
    GradedLengthTable,
    HomogeneousIdeal,
    MonomialIdeal,
    RingPresentation,
    bracket_power,
    buchberger,
    enumeration_oracle,
    graded_lengths,
    initial_ideal,
    macaulay_rank_oracle,
    monomials_of_degree,
    staircase_degree_counts,
)
from fpfun.problems import load_problem_file
from fpfun.selfcheck import (
    check_groebner_vs_rank,
    check_monomial_oracles,
    random_zero_dimensional_monomial_ideal,
)

PROBLEMS = Path(__file__).resolve().parents[1] / "problems"
F2 = PrimeField(2)
STD2 = Grading((1, 1))
W23 = Grading((2, 3))


def poly(text, field=F2, grading=STD2, names=("X", "Y")):
    return parse_polynomial(text, names, field, grading)


def ideal(*texts, field=F2, grading=STD2):
    return HomogeneousIdeal(tuple(poly(t, field, grading) for t in texts))


def table_dict(t: GradedLengthTable):
    return dict(t.lengths)


class TestBracketPower:
    def test_definition_on_generators(self):
        powered = bracket_power(ideal("X", "Y"), 1)
        assert [g.terms for g in powered.generators] == [{(2, 0): 1}, {(0, 2): 1}]

    def test_scale_exponents_by_four(self):
        powered = bracket_power(ideal("X^2", "X*Y", "Y^3"), 2)
        assert [g.terms for g in powered.generators] == [
            {(8, 0): 1},
            {(4, 4): 1},
            {(0, 12): 1},
        ]

    def test_level_zero_identity(self):
        i = ideal("X^2", "Y^3")
        assert bracket_power(i, 0) is i

    def test_frobenius_twist_of_binomial(self):
        powered = bracket_power(ideal("Y^2 - X^3", grading=W23), 1)
        assert powered.generators[0].terms == {(0, 4): 1, (6, 0): 1}


class TestBuchberger:
    def test_monomial_input_is_its_own_basis(self):
        order = TermOrder(STD2)
        basis = buchberger([poly("X^2"), poly("Y^3")], order)
        assert {format_polynomial(g, ("X", "Y")) for g in basis.elements} == {"X^2", "Y^3"}

    def test_spair_reduces_through_divisor(self):
        # classic check: the only S-polynomial X*Y^3 reduces to 0 by Y^2
        order = TermOrder(STD2)
        basis = buchberger([poly("X^2 + X*Y"), poly("Y^2")], order)
        assert initial_ideal(basis).generators == ((0, 2), (2, 0))

    def test_cusp_relation_with_pure_power(self):
        # weights (2,3): X^3 and Y^2 have equal degree and grevlex picks X^3,
        # so the reduced basis refines the input
        order = TermOrder(W23)
        basis = buchberger([poly("Y^2 - X^3", grading=W23), poly("X^4", grading=W23)], order)
        texts = [format_polynomial(g, ("X", "Y")) for g in basis.elements]
        assert texts == ["X^3 + Y^2", "X*Y^2", "Y^4"]
        assert initial_ideal(basis).generators == ((0, 4), (1, 2), (3, 0))

    def test_all_spolynomials_reduce_to_zero(self):
        from fpfun.algebra import normal_form
        from fpfun.ideals import spolynomial

        rng = random.Random(5)
        for p in (2, 3):
            field = PrimeField(p)
            grading = Grading((1, 1, 1))
            order = TermOrder(grading)
            gens = []
            for _ in range(2):
                terms = {}
                degree = rng.randint(1, 3)
                for e in monomials_of_degree(grading, degree):
                    c = rng.randrange(p)
                    if c:
                        terms[e] = c
                if terms:
                    gens.append(Polynomial(field, grading, terms))
            if not gens:
                continue
            basis = buchberger(gens, order)
            for i in range(len(basis.elements)):
                for j in range(i):
                    s = spolynomial(basis.elements[i], basis.elements[j], order)
                    if not s.is_zero():
                        assert normal_form(s, list(basis.elements), order).is_zero()

    def test_rejects_non_homogeneous(self):
        with pytest.raises(StructureError):
            buchberger([poly("X + Y^2")], TermOrder(STD2))

    def test_input_order_does_not_change_reduced_basis(self):
        # The reduced basis is unique; a pair criterion that skips a needed
        # S-polynomial makes the result depend on the processing order.
        rng = random.Random(2024)
        for _ in range(100):
            p = rng.choice((2, 3, 5))
            field = PrimeField(p)
            grading = Grading(tuple(rng.choice((1, 2, 3)) for _ in range(4)))
            order = TermOrder(grading)
            gens = []
            count = rng.randint(3, 5)
            while len(gens) < count:
                monomials = monomials_of_degree(grading, rng.randint(2, 4))
                terms = {e: rng.randrange(p) for e in rng.sample(monomials, min(3, len(monomials)))}
                f = Polynomial(field, grading, terms)
                if not f.is_zero():
                    gens.append(f)
            expected = buchberger(gens, order).elements
            for _ in range(3):
                rng.shuffle(gens)
                assert buchberger(gens, order).elements == expected

    def test_fermat_cubic_at_q_625_matches_rank_oracle(self):
        field, grading, names = PrimeField(5), Grading((1, 1, 1)), ("x", "y", "z")
        ring = RingPresentation(
            field, grading, (parse_polynomial("x^3 + y^3 + z^3", names, field, grading),), names
        )
        powered = bracket_power(HomogeneousIdeal(tuple(
            parse_polynomial(v, names, field, grading) for v in names
        )), 4)
        basis = buchberger(list(ring.relations) + list(powered.generators), ring.term_order)
        lead = initial_ideal(basis)
        assert lead.pure_power_bounds(3) == [3, 625, 625]
        for degree in range(13):
            standard = sum(
                1 for e in monomials_of_degree(grading, degree) if not lead.contains_monomial(e)
            )
            assert standard == macaulay_rank_oracle(ring, powered.generators, degree), degree


class TestInitialIdeal:
    def test_monomial_basis(self):
        order = TermOrder(STD2)
        basis = buchberger([poly("X^2"), poly("Y^2")], order)
        assert initial_ideal(basis).generators == ((0, 2), (2, 0))

    def test_unit_marker(self):
        order = TermOrder(STD2)
        basis = buchberger([poly("1")], order)
        lead = initial_ideal(basis)
        assert lead.is_unit

    def test_minimalization(self):
        lead = MonomialIdeal.from_exponents([(2, 0), (2, 1), (0, 3), (1, 3)])
        assert lead.generators == ((0, 3), (2, 0))


class TestGradedLengths:
    def test_plane_level_one(self, plane):
        t = graded_lengths(plane.ring, plane.ideal, 1)
        assert table_dict(t) == {0: 1, 1: 2, 2: 1}
        assert t.max_degree == 2

    def test_cusp_level_one(self, cusp):
        t = graded_lengths(cusp.ring, cusp.ideal, 1)
        assert table_dict(t) == {0: 1, 2: 1, 3: 1, 5: 1}

    def test_three_generator_total(self, three_generator):
        t = graded_lengths(three_generator.ring, three_generator.ideal, 1)
        assert t.total() == 16

    def test_proper_ideal_has_length_one_in_degree_zero(self, suite_problems):
        for name, (problem, _) in suite_problems.items():
            t = problem.table(2)
            assert t.lengths[0] == 1, name

    def test_unit_ideal_empty_table(self):
        t = graded_lengths(
            RingPresentation(F2, STD2, (), ("X", "Y")), ideal("1"), 1
        )
        assert table_dict(t) == {}
        assert t.max_degree == -1

    def test_level_over_table_budget_refused(self, plane):
        # q = 2^30: refused before any count table is allocated
        with pytest.raises(StructureError, match="over the budget"):
            graded_lengths(plane.ring, plane.ideal, 30)

    def test_problem_files_fit_the_table_budget(self):
        for path in sorted(PROBLEMS.glob("*.json")):
            pf = load_problem_file(str(path))
            table = pf.to_problem().table(pf.n_max)
            assert table.max_degree < MAX_TABLE_ENTRIES, path.name

    def test_colength_failure_names_variable(self):
        ring = RingPresentation(F2, STD2, (), ("X", "Y"))
        with pytest.raises(ColengthError) as err:
            graded_lengths(ring, ideal("X"), 1)
        assert err.value.variable == "Y"

    def test_support_bound(self, suite_problems):
        # max_degree < C * p^n with C from the level-zero pure powers
        for name, (problem, _) in suite_problems.items():
            t0 = problem.table(0)
            c = (t0.max_degree + 2) * sum(problem.ring.grading.weights)
            for n in range(4):
                t = problem.table(n)
                assert t.max_degree < c * problem.prime ** n, name


class TestFrobeniusScaling:
    def test_composition_of_bracket_powers(self):
        i = ideal("X^2", "X*Y", "Y^3")
        ring = RingPresentation(F2, STD2, (), ("X", "Y"))
        for a, b in ((1, 1), (1, 2), (2, 1)):
            left = graded_lengths(ring, bracket_power(i, a), b)
            right = graded_lengths(ring, i, a + b)
            assert table_dict(left) == table_dict(right)


class TestDirectSumAdditivity:
    def test_tables_convolve_over_variable_blocks(self):
        # disjoint variable blocks: the staircase factors, so tables convolve
        fx = PrimeField(2)
        one_var = Grading((1,))
        ring_x = RingPresentation(fx, one_var, (), ("X",))
        ring_y = RingPresentation(fx, one_var, (), ("Y",))
        ring_xy = RingPresentation(fx, STD2, (), ("X", "Y"))
        ix = HomogeneousIdeal((parse_polynomial("X^2", ("X",), fx, one_var),))
        iy = HomogeneousIdeal((parse_polynomial("Y^3", ("Y",), fx, one_var),))
        ixy = ideal("X^2", "Y^3")
        for n in range(3):
            tx = table_dict(graded_lengths(ring_x, ix, n))
            ty = table_dict(graded_lengths(ring_y, iy, n))
            txy = table_dict(graded_lengths(ring_xy, ixy, n))
            conv = {}
            for j1, c1 in tx.items():
                for j2, c2 in ty.items():
                    conv[j1 + j2] = conv.get(j1 + j2, 0) + c1 * c2
            assert conv == txy


class TestEnumerationOracle:
    def test_maximal_ideal(self):
        m = MonomialIdeal.from_exponents([(1, 0), (0, 1)])
        assert enumeration_oracle(m, STD2) == {0: 1}

    def test_squares(self):
        m = MonomialIdeal.from_exponents([(2, 0), (0, 2)])
        assert enumeration_oracle(m, STD2) == {0: 1, 1: 2, 2: 1}

    def test_one_variable_powers(self):
        for delta in (1, 2, 5):
            m = MonomialIdeal.from_exponents([(3,)])
            assert enumeration_oracle(m, Grading((delta,))) == {0: 1, delta: 1, 2 * delta: 1}

    def test_unbounded_staircase_rejected(self):
        m = MonomialIdeal.from_exponents([(1, 0)])
        with pytest.raises(ColengthError):
            enumeration_oracle(m, STD2)


class TestMacaulayRankOracle:
    def test_squares_degree_two(self):
        ring = RingPresentation(F2, STD2, (), ("X", "Y"))
        assert macaulay_rank_oracle(ring, [poly("X^2"), poly("Y^2")], 2) == 1

    def test_zero_ideal_full_count(self):
        ring = RingPresentation(F2, STD2, (), ("X", "Y"))
        for j in range(6):
            assert macaulay_rank_oracle(ring, [], j) == j + 1

    def test_mixed_generators(self):
        ring = RingPresentation(F2, STD2, (), ("X", "Y"))
        assert macaulay_rank_oracle(ring, [poly("X^2 + X*Y"), poly("Y^2")], 2) == 1

    def test_relations_folded_in(self, cusp):
        # graded dimensions of the cusp ring itself: 1, 0, 1, 1, 1, ...
        dims = [macaulay_rank_oracle(cusp.ring, [], j) for j in range(8)]
        assert dims == [1, 0, 1, 1, 1, 1, 1, 1]


class TestOracleAgreement:
    def test_random_monomial_ideals(self):
        rng = random.Random(20260808)
        check_monomial_oracles(rng, count=60)

    def test_random_homogeneous_ideals(self):
        rng = random.Random(4711)
        check_groebner_vs_rank(rng, count=12, max_degree=10)

    def test_random_zero_dimensional_generator_caps(self):
        rng = random.Random(3)
        for _ in range(50):
            ideal_, grading = random_zero_dimensional_monomial_ideal(rng)
            assert len(ideal_.generators) <= 6
            assert all(
                all(e <= 6 for e in g) for g in ideal_.generators
            )
            bounds = ideal_.pure_power_bounds(grading.var_count)
            assert all(b is not None for b in bounds)


class TestStaircaseFallback:
    def test_many_generators_use_enumeration(self):
        # 13 generators exceeds the subset cap; the box walk must take over
        rng = random.Random(8)
        grading = Grading((1, 1, 1))
        exps = [(4, 0, 0), (0, 4, 0), (0, 0, 4)]
        while len(exps) < 13:
            e = (rng.randint(0, 3), rng.randint(0, 3), rng.randint(0, 3))
            if any(e) and e not in exps:
                exps.append(e)
        m = MonomialIdeal.from_exponents(exps)
        bounds = m.pure_power_bounds(3)
        top = sum((b - 1) * w for b, w in zip(bounds, grading.weights))
        counts = staircase_degree_counts(m, grading, top)
        oracle = enumeration_oracle(m, grading)
        assert {j: c for j, c in enumerate(counts) if c} == oracle
