import itertools
import random
import tracemalloc
from pathlib import Path

import pytest

from fpfun.algebra import (
    Grading,
    Polynomial,
    PrimeField,
    format_polynomial,
    parse_polynomial,
)
from fpfun import ideals
from fpfun.density import density_table
from fpfun.errors import ColengthError, StructureError
from fpfun.ideals import (
    _SUBSET_CAP,
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
    series_expansion,
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
        basis = buchberger([poly("X^2"), poly("Y^3")])
        assert {format_polynomial(g, ("X", "Y")) for g in basis.elements} == {"X^2", "Y^3"}

    def test_spair_reduces_through_divisor(self):
        # classic check: the only S-polynomial X*Y^3 reduces to 0 by Y^2
        basis = buchberger([poly("X^2 + X*Y"), poly("Y^2")])
        assert initial_ideal(basis).generators == ((0, 2), (2, 0))

    def test_cusp_relation_with_pure_power(self):
        # weights (2,3): X^3 and Y^2 have equal degree and grevlex picks X^3,
        # so the reduced basis refines the input
        basis = buchberger([poly("Y^2 - X^3", grading=W23), poly("X^4", grading=W23)])
        texts = [format_polynomial(g, ("X", "Y")) for g in basis.elements]
        assert texts == ["X^3 + Y^2", "X*Y^2", "Y^4"]
        assert initial_ideal(basis).generators == ((0, 4), (1, 2), (3, 0))

    def test_all_spolynomials_reduce_to_zero(self):
        # The returned basis holds the generators and meets Buchberger's
        # criterion: every S-pair reduces to zero, checked with the kernel.
        # Three or four generators per draw give bases with pairs whose leads
        # share a variable, which the coprime-lead criterion cannot skip.
        from fpfun.algebra import _heap_terms, _lcm, _monic_reducer, _reduce, _spolynomial

        grading = Grading((1, 1, 1))
        rweights = grading.weights[::-1]
        shared_pairs = 0
        for seed in range(4):
            rng = random.Random(seed)
            for p in (2, 3):
                field = PrimeField(p)
                gens = []
                for _ in range(rng.randint(3, 4)):
                    terms = {}
                    for e in monomials_of_degree(grading, rng.randint(1, 3)):
                        c = rng.randrange(p)
                        if c:
                            terms[e] = c
                    if terms:
                        gens.append(Polynomial(field, grading, terms))
                reducers = [_monic_reducer(_heap_terms(g), p) for g in buchberger(gens).elements]
                for g in gens:
                    assert _reduce(_heap_terms(g), reducers, p) == {}
                for i in range(len(reducers)):
                    for j in range(i):
                        a, b = reducers[i][0], reducers[j][0]
                        shared_pairs += any(x and y for x, y in zip(a[1:], b[1:]))
                        s = _spolynomial(reducers[i], reducers[j], _lcm(a, b, rweights), p)
                        assert _reduce(s, reducers, p) == {}
        assert shared_pairs > 0

    def test_rejects_non_homogeneous(self):
        with pytest.raises(StructureError):
            buchberger([poly("X + Y^2")])

    def test_rejects_mixed_fields_or_gradings(self):
        # The term order comes from the generators' grading, so they must share it.
        f3 = PrimeField(3)
        over_f3 = parse_polynomial("2*Y", ("X", "Y"), f3, STD2)
        with pytest.raises(StructureError, match="different fields or gradings"):
            buchberger([poly("X"), over_f3])
        with pytest.raises(StructureError, match="different fields or gradings"):
            buchberger([poly("X"), poly("Y", grading=W23)])

    def test_input_order_does_not_change_reduced_basis(self):
        # The reduced basis is unique; a pair criterion that skips a needed
        # S-polynomial makes the result depend on the processing order.
        rng = random.Random(2024)
        for _ in range(100):
            p = rng.choice((2, 3, 5))
            field = PrimeField(p)
            grading = Grading(tuple(rng.choice((1, 2, 3)) for _ in range(4)))
            gens = []
            count = rng.randint(3, 5)
            while len(gens) < count:
                monomials = monomials_of_degree(grading, rng.randint(2, 4))
                terms = {e: rng.randrange(p) for e in rng.sample(monomials, min(3, len(monomials)))}
                f = Polynomial(field, grading, terms)
                if not f.is_zero():
                    gens.append(f)
            expected = buchberger(gens).elements
            for _ in range(3):
                rng.shuffle(gens)
                assert buchberger(gens).elements == expected

    def test_fermat_cubic_at_q_625_matches_rank_oracle(self):
        field, grading, names = PrimeField(5), Grading((1, 1, 1)), ("x", "y", "z")
        ring = RingPresentation(
            field, grading, (parse_polynomial("x^3 + y^3 + z^3", names, field, grading),), names
        )
        powered = bracket_power(HomogeneousIdeal(tuple(
            parse_polynomial(v, names, field, grading) for v in names
        )), 4)
        basis = buchberger(list(ring.relations) + list(powered.generators))
        lead = initial_ideal(basis)
        assert lead.pure_power_bounds(3) == [3, 625, 625]
        for degree in range(13):
            standard = sum(
                1 for e in monomials_of_degree(grading, degree) if not lead.contains_monomial(e)
            )
            assert standard == macaulay_rank_oracle(ring, powered.generators, degree), degree


class TestInitialIdeal:
    def test_monomial_basis(self):
        basis = buchberger([poly("X^2"), poly("Y^2")])
        assert initial_ideal(basis).generators == ((0, 2), (2, 0))

    def test_unit_marker(self):
        basis = buchberger([poly("1")])
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

    def test_groebner_level_refused_before_buchberger(self, monkeypatch):
        # Fermat cubic, p = 2, q = 2^20: in(x^3 + y^3 + z^3) has a pure power
        # of one variable only, so the other two need degrees up to q - 1
        field, grading, names = PrimeField(2), Grading((1, 1, 1)), ("x", "y", "z")
        relation = parse_polynomial("x^3 + y^3 + z^3", names, field, grading)
        ring = RingPresentation(field, grading, (relation,), names)
        maximal = HomogeneousIdeal(tuple(parse_polynomial(v, names, field, grading) for v in names))
        inputs = []

        def recording(gens):
            inputs.append(tuple(gens))
            return buchberger(gens)

        monkeypatch.setattr(ideals, "buchberger", recording)
        with pytest.raises(StructureError, match="at least 2097151 degrees, over the budget"):
            graded_lengths(ring, maximal, 20)
        assert inputs == [(relation,)]
        inputs.clear()
        assert graded_lengths(ring, maximal, 2).total() == 36
        assert len(inputs) == 1 and len(inputs[0]) == 4

    def test_table_floor_never_refuses_a_level_that_fits(self, monkeypatch):
        field, grading, names = PrimeField(2), Grading((1, 1, 1)), ("x", "y", "z")
        fermat = RingPresentation(
            field, grading, (parse_polynomial("x^3 + y^3 + z^3", names, field, grading),), names
        )
        cases = [
            (fermat, HomogeneousIdeal(tuple(
                parse_polynomial(v, names, field, grading) for v in names
            ))),
            (RingPresentation(F2, STD2, (), ("X", "Y")), ideal("X + Y", "X*Y")),
            (RingPresentation(F2, W23, (poly("Y^2 + X^3", grading=W23),), ("X", "Y")),
             ideal("X", grading=W23)),
        ]
        for ring, I in cases:
            for n in range(5):
                polys = list(ring.relations) + list(bracket_power(I, n).generators)
                bounds = initial_ideal(buchberger(polys)).pure_power_bounds(ring.grading.var_count)
                need = sum((b - 1) * w for b, w in zip(bounds, ring.grading.weights)) + 1
                for budget in range(1, need + 3):
                    monkeypatch.setattr(ideals, "MAX_TABLE_ENTRIES", budget)
                    try:
                        graded_lengths(ring, I, n)
                    except StructureError as exc:
                        assert need > budget, (n, budget, str(exc))
                    else:
                        assert need <= budget

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


class TestLengthRun:
    """A table keeps its lengths as one dense run behind a read-only mapping view."""

    def test_level_table_equals_the_dict_built_table(self, suite_problems):
        for name, (problem, _) in suite_problems.items():
            for n in (0, 3, 8):
                table = problem.table(n)
                plain = dict(table.lengths)
                built = GradedLengthTable(n, problem.prime, plain)
                assert table == built and built == table, (name, n)
                assert table.lengths == plain and plain == table.lengths, (name, n)
                assert list(table.lengths.items()) == sorted(plain.items()), (name, n)
                changed = {**plain, table.max_degree: plain[table.max_degree] + 1}
                assert table.lengths != changed and changed != table.lengths, (name, n)
                assert table != GradedLengthTable(n, problem.prime, changed), (name, n)

    def test_lengths_count_nonzero_degrees_only(self, weighted_plane):
        # the benchmark's tracer counts len(table.lengths) and len(entries)
        table = weighted_plane.table(14)
        assert (len(table.lengths), table.max_degree + 1) == (81914, 81916)
        assert len(density_table(weighted_plane, 14).entries) == 81914
        assert len(list(table.lengths)) == len(list(table.lengths.values())) == 81914
        assert 1 not in table.lengths and table.lengths.get(1, 0) == 0

    def test_mapping_reads(self):
        table = GradedLengthTable(3, 2, {1: 2, 3: 5, 4: 0, 8: 1})
        lengths = table.lengths
        assert list(lengths) == [1, 3, 8]
        assert list(lengths.items()) == [(1, 2), (3, 5), (8, 1)]
        assert list(lengths.values()) == [2, 5, 1]
        assert lengths[3] == 5 and 3 in lengths and 4 not in lengths
        for outside in (-1, 0, 2, 4, 9, 100, 0.5, "x"):
            assert lengths.get(outside) is None and lengths.get(outside, 0) == 0, outside
        with pytest.raises(KeyError):
            lengths[4]
        assert (table.max_degree, table.total(), table.moment(1), table.moment(2)) == (8, 8, 25, 111)
        assert table.items_sorted() == [(1, 2), (3, 5), (8, 1)]
        assert table == GradedLengthTable(3, 2, {1: 2, 3: 5, 8: 1})

    @pytest.mark.parametrize("lengths", [{}, {0: 0, 600: 0}])
    def test_empty_table(self, lengths):
        table = GradedLengthTable(1, 2, lengths)
        assert len(table.lengths) == 0 and not table.lengths and table.lengths == {}
        assert list(table.lengths) == [] and table.lengths.run == []
        assert (table.max_degree, table.total(), table.moment(2)) == (-1, 0, 0)
        assert table == GradedLengthTable(1, 2, {})

    def test_run_is_trimmed_in_place(self):
        run = [0, 0, 3, 0, 0, 1, 0]
        lengths = ideals.LengthRun(run)
        assert lengths.run is run and run == [0, 0, 3, 0, 0, 1]
        assert lengths == {2: 3, 5: 1}
        table = GradedLengthTable(1, 2, {0: 0, 2: 3, 3: 0, 5: 1, 9: 0})
        assert table.lengths.run == [0, 0, 3, 0, 0, 1]
        assert ideals.LengthRun([0, 0, 0]).run == []

    def test_table_over_the_budget_refused_before_allocating(self):
        # an extent of 2^20 + 1; a run of it would take 8 MiB
        tracemalloc.start()
        try:
            with pytest.raises(StructureError, match=(
                f"^level 8 needs a length table of {MAX_TABLE_ENTRIES + 1} degrees, "
                f"over the budget of {MAX_TABLE_ENTRIES}$"
            )):
                GradedLengthTable(8, 2, {0: 1, 1 << 20: 1})
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize("lengths", [{-1: 1, 1 << 19: 1}, {-3: 0, 0: 1}])
    def test_negative_degree_refused_before_allocating(self, lengths):
        # the run is indexed by degree from 0; a run to degree 2^19 would take 4 MiB
        tracemalloc.start()
        try:
            with pytest.raises(StructureError, match="^a length table's degrees must be non-negative$"):
                GradedLengthTable(8, 2, lengths)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize("lengths", [{1: 1, 2.0: 1}, {0: 1, "1": 1}, {None: 1}])
    def test_degrees_that_are_not_integers_refused(self, lengths):
        with pytest.raises(StructureError, match="^a length table's degrees must be integers$"):
            GradedLengthTable(1, 2, lengths)

    @pytest.mark.parametrize("name", ["parameter23", "weighted_plane"])
    def test_level_table_footprint(self, suite_problems, name):
        # one list slot and one int per degree: under 40 bytes per degree,
        # where a dict of the nonzero degrees kept about 91
        problem = suite_problems[name][0]
        graded_lengths(problem.ring, problem.ideal, 2)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            table = graded_lengths(problem.ring, problem.ideal, 14)
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert kept <= 48 * (table.max_degree + 1), kept / (table.max_degree + 1)


def expands_to_lengths(table: GradedLengthTable) -> bool:
    """The table's numerator over its weights expands to its lengths, read
    past the numerator's degree and the table's top plus sum(weights), where
    a match is equality of rational functions."""
    top = max(max(table.numerator, default=0), table.max_degree + sum(table.weights))
    expanded = series_expansion(table.numerator, table.weights, top)
    return expanded == [table.lengths.get(j, 0) for j in range(top + 1)]


class TestLevelNumerator:
    def test_problem_files_every_level(self):
        for path in sorted(PROBLEMS.glob("*.json")):
            pf = load_problem_file(str(path))
            problem = pf.to_problem()
            for n in range(pf.n_max + 1):
                table = problem.table(n)
                assert table.weights == problem.ring.grading.weights, (path.name, n)
                assert expands_to_lengths(table), (path.name, n)
                assert table.lengths.run[0] == 1, (path.name, n)  # the run starts at degree 0

    def test_random_monomial_ideals_on_both_sides_of_the_subset_cap(self):
        # even draws have at most _SUBSET_CAP generators (lcm lattice), odd
        # draws more (box walk, whose numerator comes from the counts); the
        # mixed monomials of total degree 4 are an antichain, and pure powers
        # of degree 5..7 keep every one of them minimal
        rng = random.Random(1914)
        mixed = [e for e in itertools.product(range(4), repeat=3) if sum(e) == 4]
        for k in range(200):
            many = k % 2
            count = rng.randint(_SUBSET_CAP - 2, len(mixed)) if many else rng.randint(0, _SUBSET_CAP - 3)
            powers = [tuple(rng.randint(5, 7) * (i == j) for i in range(3)) for j in range(3)]
            exps = rng.sample(mixed, count) + powers
            assert (len(exps) > _SUBSET_CAP) == bool(many)
            grading = Grading(tuple(rng.choice((1, 1, 2, 3)) for _ in range(3)))
            ring = RingPresentation(F2, grading, (), ("X", "Y", "Z"))
            gens = HomogeneousIdeal(tuple(Polynomial(F2, grading, {e: 1}) for e in exps))
            table = graded_lengths(ring, gens, 0)
            assert table.lengths == enumeration_oracle(MonomialIdeal.from_exponents(exps), grading)
            assert expands_to_lengths(table), (grading.weights, exps)
            assert table.lengths.run[0] == 1, (grading.weights, exps)

    def test_unit_ideal_has_numerator_zero(self):
        t = graded_lengths(RingPresentation(F2, STD2, (), ("X", "Y")), ideal("1"), 1)
        assert (t.numerator, t.weights) == ({}, (1, 1))


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

    def test_rank_mod_2_matches_span_size(self):
        # Over GF(2), rows of rank k span exactly 2^k distinct XOR combinations.
        rng = random.Random(2)
        for _ in range(300):
            ncols = rng.randint(1, 10)
            rows = [[rng.randrange(2) for _ in range(ncols)] for _ in range(rng.randint(1, 8))]
            span = {(0,) * ncols}
            for row in rows:
                span |= {tuple(a ^ b for a, b in zip(v, row)) for v in span}
            assert 2 ** ideals._rank_mod_p(rows, 2) == len(span)


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


def above_cap_ideals():
    """(grading, ideal, pure powers) with more minimal generators than the
    subset cap.  The mixed monomials of total degree 4 are an antichain, and
    pure powers of degree 5..7 keep every one of them minimal."""
    rng = random.Random(8)
    mixed = [e for e in itertools.product(range(4), repeat=3) if sum(e) == 4]
    for weights in ((1, 1, 1), (1, 2, 3), (3, 1, 2)):
        for _ in range(4):
            powers = [tuple(rng.randint(5, 7) * (i == k) for i in range(3)) for k in range(3)]
            exps = rng.sample(mixed, rng.randint(_SUBSET_CAP - 2, len(mixed))) + powers
            m = MonomialIdeal.from_exponents(exps)
            assert len(m.generators) == len(exps) > _SUBSET_CAP
            yield Grading(weights), m, powers


class TestStaircaseFallback:
    def test_many_generators_use_enumeration(self):
        # more minimal generators than the subset cap, so the box walk takes
        # over; checked against a brute-force count over the same box
        for grading, m, powers in above_cap_ideals():
            weights, exps = grading.weights, m.generators
            bounds = [max(g[i] for g in powers) for i in range(3)]
            top = sum((b - 1) * w for b, w in zip(bounds, weights))
            brute = [0] * (top + 1)
            for e in itertools.product(*(range(b) for b in bounds)):
                if not any(all(a <= b for a, b in zip(g, e)) for g in exps):
                    brute[sum(a * w for a, w in zip(e, weights))] += 1
            assert staircase_degree_counts(m, grading, top)[1] == brute, (weights, exps)

    def test_unbounded_staircase_above_the_cap_takes_the_lattice(self):
        # x^a * y^(12-a) for a <= 12 and no power of z: more generators than
        # the cap and no bounding box, so the lcm lattice counts the
        # staircase; checked against a brute-force count through degree 20
        grading, top = Grading((1, 1, 1)), 20
        exps = [(a, 12 - a, 0) for a in range(13)]
        m = MonomialIdeal.from_exponents(exps)
        assert len(m.generators) == 13 > _SUBSET_CAP
        brute = [0] * (top + 1)
        for e in itertools.product(range(top + 1), repeat=3):
            if sum(e) <= top and not any(all(a <= b for a, b in zip(g, e)) for g in exps):
                brute[sum(e)] += 1
        numerator, counts = staircase_degree_counts(m, grading, top)
        assert counts == brute
        assert series_expansion(numerator, grading.weights, top) == brute

    def test_lattice_numerator_equals_the_box_walk(self):
        # above the cap the table's numerator comes from the box walk's
        # counts; the lcm lattice takes it from the generators alone, here
        # on the ideals above and on the 37 generators of a Fermat cubic level
        field, grading = PrimeField(5), Grading((1, 1, 1))
        names = ("x", "y", "z")
        cubic = parse_polynomial("x^3 + y^3 + z^3", names, field, grading)
        variables = HomogeneousIdeal(tuple(parse_polynomial(v, names, field, grading) for v in names))
        fermat = initial_ideal(buchberger([cubic, *bracket_power(variables, 3).generators]))
        assert len(fermat.generators) == 37
        cases = [(g, m) for g, m, _ in above_cap_ideals()] + [(grading, fermat)]
        for grading, m in cases:
            top = sum((b - 1) * w for b, w in zip(m.pure_power_bounds(3), grading.weights))
            box = staircase_degree_counts(m, grading, top)[0]
            assert ideals.staircase_numerator(m, grading) == box, m.generators
