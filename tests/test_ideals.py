import hashlib
import itertools
import math
import random
import time
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
from fpfun.fp import ProblemSpec
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
from fpfun import selfcheck
from fpfun.selfcheck import (
    SelfCheckFailure,
    check_groebner_vs_rank,
    check_monomial_oracles,
    check_series_expansion,
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
        # the relations' reduced basis, then it with the three Frobenius normal forms
        assert len(inputs) == 2 and inputs[0] == (relation,) and len(inputs[1]) == 4

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


@pytest.fixture(scope="module")
def level_cases():
    """(name, problem, top level): every problems/*.json to its n_max, the cusp
    to 14, and the Fermat cubic over F_2 to 7 and over F_5 to 3."""
    cases = []
    for path in sorted(PROBLEMS.glob("*.json")):
        pf = load_problem_file(str(path))
        cases.append((path.stem, pf.to_problem(), 14 if path.stem == "cusp" else pf.n_max))
    names = ("x", "y", "z")
    for p, top in ((2, 7), (5, 3)):
        field, grading = PrimeField(p), Grading((1, 1, 1))
        cubic = parse_polynomial("x^3 + y^3 + z^3", names, field, grading)
        maximal = tuple(parse_polynomial(v, names, field, grading) for v in names)
        ring = RingPresentation(field, grading, (cubic,), names)
        cases.append((f"fermat{p}", ProblemSpec(ring, HomogeneousIdeal(maximal)), top))
    return cases


def table_digest(table: GradedLengthTable) -> str:
    """A digest of a level table's run, numerator and total."""
    key = repr((table.lengths.run, sorted(table.numerator.items()), table.total()))
    return hashlib.sha256(key.encode()).hexdigest()[:16]


# table_digest of every level of level_cases, taken with the running-sum
# expansion: the closed form must give every table bit for bit
PINNED_DIGESTS = {
    "artinian": (
        "9ef2d8c0b098949b 93f025fed1405e95 93f025fed1405e95 93f025fed1405e95 93f025fed1405e95"
    ).split(),
    "cusp": (
        "cdc8975dc82fc4a1 5173ac6ed54648e0 92e4abc0d84d3711 34a6aa1fec7f1221 4bb31664c9d2885b "
        "93776f9532defe6e a54518c23675f166 85f989e9794cd7a4 f7fbb265b40417cd a03531b2ab66e24d "
        "ab8c2861e23f75f8 aab684ecdacf818b 7d5d05356034f7da 54161a767a59b139 37c43524b83ed386"
    ).split(),
    "cusp3": (
        "61f1dcc2223db9eb ab9fbe9730d06d0d bda3605b34ccbbf1 63f09a7ab8db7410 738c8485a05565b8 "
        "33b4cd1f349d512d 8ad64d97423ffe63 14c2a761c588b2dd"
    ).split(),
    "parameter23": (
        "259c5a95758df8c3 071f6c27837bfc8d 8e83b650f070aabc b0f6efa02039d182 2ae0fe4a75345be2 "
        "88838839c64d7152 c5e63893fca8c48f 865482209b6dfb7d bd43044a17dca35f"
    ).split(),
    "plane": (
        "31004704425cf89d aa4116885fe42c6a 0e6ab80c5b85cecf 751dac1a0e8f26a1 baef8f00cbf2fa4b "
        "75914edeaff322e0 3966ba3ac85c879a 462e1451f2ad471d 8043acfdbb5cc918 c8ef1409b979ea5f "
        "f4bd66d33a8db37a"
    ).split(),
    "three_generator": (
        "aa4116885fe42c6a 0e6ab80c5b85cecf 751dac1a0e8f26a1 baef8f00cbf2fa4b 75914edeaff322e0 "
        "3966ba3ac85c879a 462e1451f2ad471d 8043acfdbb5cc918 c8ef1409b979ea5f f4bd66d33a8db37a "
        "03fc355afefaa1c8"
    ).split(),
    "weighted_plane": (
        "20141ba1a12173a7 5173ac6ed54648e0 63eb17e8400f9087 df12849eba343df1 3ab4c99f09823d52 "
        "6257811a601ece05 21e8768aa222fa18 ed1853ad190928ca b5d559d1dbdd0491 4b820c0b4d3d3745 "
        "71c5b835527eb7d4"
    ).split(),
    "fermat2": (
        "5220c47cf4da45cf 97fe6d2dd76a0f05 a7dca4e044c6bcf4 b7537720f09a12c8 f6ef0afe707b8a63 "
        "00aff69077e49bf8 3d03561974980c71 ad8b0d128b2f6c4d"
    ).split(),
    "fermat5": (
        "5220c47cf4da45cf 7e66192fb83113cd a9a9292e73dffeca 997f2dd08953a26d"
    ).split(),
}

# The deepest level of each case that the oracles check in well under a second.
ORACLE_TOP = {"artinian": 4, "cusp": 7, "cusp3": 3, "parameter23": 5, "plane": 7,
              "three_generator": 5, "weighted_plane": 7, "fermat2": 3, "fermat5": 1}


class TestPinnedLevelTables:
    def test_every_table_equals_its_pinned_digest(self, level_cases):
        for name, problem, top in level_cases:
            digests = [table_digest(problem.table(n)) for n in range(top + 1)]
            assert digests == PINNED_DIGESTS[name], name

    def test_tables_equal_the_oracles_where_they_reach(self, level_cases):
        # enumeration of the staircase box for monomial problems, Macaulay
        # ranks of the relations and raw bracket powers otherwise, read one
        # degree past the table's top
        for name, problem, _ in level_cases:
            ring = problem.ring
            for n in range(ORACLE_TOP[name] + 1):
                table = problem.table(n)
                gens = bracket_power(problem.ideal, n).generators
                polys = (*ring.relations, *gens)
                if all(f.is_monomial() for f in polys):
                    lead = MonomialIdeal.from_exponents(f.single_exponent() for f in polys)
                    assert table.lengths == enumeration_oracle(lead, ring.grading), (name, n)
                else:
                    ranks = [macaulay_rank_oracle(ring, gens, j)
                             for j in range(table.max_degree + 2)]
                    assert ranks == [table.lengths.get(j, 0) for j in range(len(ranks))], (name, n)


def running_sums(numerator, degrees, up_to) -> list:
    """The reference expansion of numerator(t) / prod(1 - t^w): the
    recurrence c_j += c_(j-w), one weight at a time."""
    out = [0] * (up_to + 1)
    for e, c in numerator.items():
        if e <= up_to:
            out[e] = c
    for w in degrees:
        for j in range(w, up_to + 1):
            out[j] += out[j - w]
    return out


def random_numerator(rng, up_to) -> dict:
    """Up to six terms, some past up_to and some with coefficient 0."""
    return {rng.randint(0, up_to + 25): rng.randint(-5, 5) for _ in range(rng.randint(0, 6))}


class TestSeriesExpansion:
    def test_random_numerators_equal_the_running_sums(self):
        rng = random.Random(3030)
        for _ in range(3000):
            degrees = [rng.randint(1, 7) for _ in range(rng.randint(0, 4))]
            if len(degrees) > 1 and rng.random() < 0.3:
                degrees[1] = degrees[0]  # a repeated weight
            up_to = rng.randint(-1, 90)
            numerator = random_numerator(rng, up_to)
            expected = running_sums(numerator, degrees, up_to)
            assert series_expansion(numerator, degrees, up_to) == expected, (numerator, degrees, up_to)

    @pytest.mark.parametrize("degrees", [
        (5, 7), (7, 5), (5, 7, 1), (7, 5, 6, 4), (2, 2), (3, 3, 3), (1, 1, 1, 1), (6, 4), (4, 6, 6),
    ])
    def test_lcm_up_to_35_and_repeated_weights(self, degrees):
        assert math.lcm(*degrees[:2]) <= 35
        rng = random.Random(sum(degrees))
        for up_to in (-1, 0, 1, 34, 35, 36, 140, 1000):
            for _ in range(40):
                numerator = random_numerator(rng, up_to)
                expected = running_sums(numerator, degrees, up_to)
                assert series_expansion(numerator, degrees, up_to) == expected, (numerator, up_to)

    @pytest.mark.parametrize("degrees", [(), (3,), (2, 3), (2, 3, 1)])
    def test_short_and_empty_ranges(self, degrees):
        assert series_expansion({0: 1, 4: -2}, degrees, -1) == []
        assert series_expansion({0: 3, 4: -2}, degrees, 0) == [3]
        assert series_expansion({1: 5}, degrees, 0) == [0]
        assert series_expansion({}, degrees, 5) == [0] * 6
        assert series_expansion({0: 0, 2: 0, 9: 4}, degrees, 8) == [0] * 9

    def test_large_coprime_weights_cost_no_more_than_the_running_sums(self):
        # over both of (999, 1000) each term would spread onto up to 999 * 1000
        # exponents, over twice the time of the running sums here, so the
        # closed form takes the first weight only and runs well under them
        up_to, times = 300_000, []
        q = up_to // 1999
        numerator = {0: 1, 999 * q: -1, 1000 * q: -1, 1999 * q: 1}
        for expand in (running_sums, series_expansion, running_sums, series_expansion):
            start = time.perf_counter()
            out = expand(numerator, (999, 1000), up_to)
            times.append(time.perf_counter() - start)
        assert out == running_sums(numerator, (999, 1000), up_to)
        assert min(times[1::2]) < min(times[::2]), times

    def test_selfcheck_equals_the_running_sums(self):
        assert check_series_expansion(random.Random(9)) == 300

    def test_selfcheck_catches_a_wrong_expansion(self, monkeypatch):
        # a last coefficient lost: the draws with up_to >= 0 and a nonzero
        # coefficient at the top see it
        original = selfcheck.series_expansion
        monkeypatch.setattr(selfcheck, "series_expansion",
                            lambda *args: [*original(*args)[:-1], 0][: args[2] + 1])
        with pytest.raises(SelfCheckFailure, match="differs from the running sums"):
            check_series_expansion(random.Random(9))


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
            assert table.total() == sum(table.lengths.values()), (grading.weights, exps)

    def test_unit_ideal_has_numerator_zero(self):
        t = graded_lengths(RingPresentation(F2, STD2, (), ("X", "Y")), ideal("1"), 1)
        assert (t.numerator, t.weights) == ({}, (1, 1))

    def test_total_from_the_numerator(self, level_cases):
        # total() reads (-1)^m N^(m)(1) / (m! prod w) off the numerator; the
        # sum of the dense run is the check
        for name, problem, top in level_cases:
            for n in range(top + 1):
                table = problem.table(n)
                assert table.total() == sum(table.lengths.values()), (name, n)
        hand = GradedLengthTable(3, 2, {0: 1, 2: 5, 7: 2})
        assert hand.numerator is hand.lengths and hand.total() == 8


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

    def test_random_ideals_over_relations(self):
        # graded_lengths' basis over one or two relations at levels 1 and 2
        rng = random.Random(4712)
        assert check_groebner_vs_rank(rng, count=0, relation_count=12) == 12

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
