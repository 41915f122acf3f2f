"""Verification suite: one test per acceptance criterion, each printing a
PASS/FAIL line (run with -s to see them on success).

Run: pytest tests/test_acceptance.py -v -s
"""

import cmath
import random
import time
from fractions import Fraction

from fpfun.density import density_table, direct_fourier, quadrature_fourier
from fpfun.errors import ModelConstructionError
from fpfun.fp import (
    betti_alternating_polynomial,
    fn_eval,
    hk_multiplicity,
    series_coefficient_estimate,
)
from fpfun.hilbert import (
    LaurentPolynomialZ,
    chi_series,
    hilbert_samuel,
    series_of_ring,
    series_of_table,
)
from fpfun.ideals import MonomialIdeal, bracket_power, enumeration_oracle, series_expansion
from fpfun.models import HNData, eval_model, model_from_hn, model_hsop, models_equal
from fpfun.problems import problem_file_from_dict
from fpfun.selfcheck import check_groebner_vs_rank, check_monomial_oracles
from fpfun.suite import parameter_problem

GRID = (0.5, 1.0, 2.0, 4.0)


def report(number, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number:2d} {name}: {status} {detail}".rstrip())
    assert ok, f"criterion {number} ({name}) failed: {detail}"


def monomial_bracket_ideal(problem, n):
    powered = bracket_power(problem.ideal, n)
    return MonomialIdeal.from_exponents(
        g.single_exponent() for g in powered.generators
    )


def test_criterion_01_regular_ring_hk(plane):
    start = time.time()
    values = [hk_multiplicity(plane, n) for n in range(11)]
    ok = all(v == 1 for v in values)
    report(1, "regular-ring-hk", ok, f"values={set(values)} elapsed={time.time()-start:.2f}s")


def test_criterion_02_parameter_ideal_multiplicities():
    start = time.time()
    bad = []
    for a in (1, 2, 3):
        for b in (1, 2, 3):
            problem = parameter_problem(a, b)
            for n in range(9):
                if hk_multiplicity(problem, n) != a * b:
                    bad.append((a, b, n))
    report(2, "parameter-ideal-hk", not bad, f"failures={bad} elapsed={time.time()-start:.2f}s")


def test_criterion_03_product_formula_convergence(plane):
    start = time.time()
    worst = 0.0
    for y in GRID:
        target = ((1 - cmath.exp(-1j * y)) / (1j * y)) ** 2
        worst = max(worst, abs(fn_eval(plane, 10, y) - target))
    report(
        3,
        "product-formula-convergence",
        worst <= 5e-3,
        f"max_deviation={worst:.3e} tol=5e-3 elapsed={time.time()-start:.2f}s",
    )


def test_criterion_04_finite_pd_closed_form(three_generator):
    start = time.time()
    # enumeration oracle first: tables and the multiplicity
    oracle_ok = True
    for n in range(4):
        lead = monomial_bracket_ideal(three_generator, n)
        counted = enumeration_oracle(lead, three_generator.ring.grading)
        oracle_ok = oracle_ok and counted == dict(three_generator.table(n).lengths)
        oracle_ok = oracle_ok and sum(counted.values()) == 4 * 4 ** n
    betti = chi_series(
        series_of_table(three_generator.table(0)),
        series_of_ring(three_generator.ring),
    )
    betti_ok = betti == LaurentPolynomialZ({0: 1, 2: -2, 4: 1})
    hk_ok = all(hk_multiplicity(three_generator, n) == 4 for n in range(9))
    worst = 0.0
    for y in GRID:
        target = (1 - cmath.exp(-2j * y)) ** 2 / (1j * y) ** 2
        worst = max(worst, abs(fn_eval(three_generator, 10, y) - target))
    ok = oracle_ok and betti_ok and hk_ok and worst <= 1e-2
    report(
        4,
        "finite-pd-closed-form",
        ok,
        f"oracle={oracle_ok} betti={betti_ok} hk={hk_ok} max_deviation={worst:.3e} "
        f"tol=1e-2 elapsed={time.time()-start:.2f}s",
    )


def test_criterion_05_dimension_one_formula(cusp):
    start = time.time()
    dim, mult = hilbert_samuel(series_of_ring(cusp.ring))
    samuel_ok = (dim, mult) == (1, Fraction(1))
    worst = 0.0
    for y in GRID:
        target = (1 - cmath.exp(-2j * y)) / (1j * y)
        worst = max(worst, abs(fn_eval(cusp, 10, y) - target))
    ok = samuel_ok and worst <= 1e-2
    report(
        5,
        "dimension-one-formula",
        ok,
        f"hilbert_samuel=({dim},{mult}) max_deviation={worst:.3e} tol=1e-2 "
        f"elapsed={time.time()-start:.2f}s",
    )


def test_criterion_06_exact_hilbert_betti_identity(suite_problems):
    start = time.time()
    bad = []
    for name, (problem, hsop) in suite_problems.items():
        for n in range(7):
            # B / prod(1 - t^d) expands to the table past both top degrees
            betti = betti_alternating_polynomial(problem, hsop, n)
            lengths = problem.table(n).lengths
            top = max(betti.degree, max(lengths) + sum(hsop))
            expanded = series_expansion(betti.coeffs, hsop, top)
            if betti.valuation < 0 or expanded != [lengths.get(j, 0) for j in range(top + 1)]:
                bad.append((name, n))
    report(
        6,
        "exact-hilbert-betti-identity",
        not bad,
        f"checked=35 failures={bad} elapsed={time.time()-start:.2f}s",
    )


def test_criterion_07_density_bridge(suite_problems, plane):
    start = time.time()
    worst = 0.0
    exact_zero_ok = True
    for name, (problem, _) in suite_problems.items():
        for n in range(9):
            table = density_table(problem, n)
            exact_zero_ok = exact_zero_ok and table.mass() == hk_multiplicity(problem, n)
            for y in GRID:
                gap = abs(direct_fourier(table, y) - quadrature_fourier(table, y))
                worst = max(worst, gap)
    # tent profile at n = 8, checked pointwise at sample points and midpoints
    q = 2 ** 8
    tent_table = density_table(plane, 8)
    tent_worst = 0.0
    for j in range(2 * q):
        g = float(tent_table.value_at_index(j))
        for x in (j / q, (j + 0.5) / q):
            tent_worst = max(tent_worst, abs(g - min(x, 2 - x)))
    ok = worst <= 1e-10 and exact_zero_ok and tent_worst <= 2 ** -7
    report(
        7,
        "density-bridge",
        ok,
        f"max_bridge_gap={worst:.2e} zero_exact={exact_zero_ok} "
        f"tent_deviation={tent_worst:.4f} tol=2^-7 elapsed={time.time()-start:.2f}s",
    )


def test_criterion_08_moment_coefficient_estimator(plane):
    start = time.time()
    a0 = series_coefficient_estimate(plane, 0, 10)
    a0_ok = a0 == 1 + 0j
    a1 = series_coefficient_estimate(plane, 1, 10)
    gap = abs(a1 - (-1j))
    ok = a0_ok and gap <= 2e-2
    report(
        8,
        "moment-coefficient-estimator",
        ok,
        f"a0={a0} a1_gap={gap:.3e} tol=2e-2 elapsed={time.time()-start:.2f}s",
    )


def test_criterion_09_hn_evaluator():
    start = time.time()
    hn_model = model_from_hn(HNData(delta_r=1, rank_s=1, factors=((Fraction(-1), 1),)))
    equal_ok = models_equal(hn_model, model_hsop(1, (1, 1)), 0)
    try:
        HNData(delta_r=1, rank_s=1, factors=((Fraction(-2), 1),))
        rejected = False
    except ModelConstructionError:
        rejected = True
    ok = equal_ok and rejected
    report(
        9,
        "hn-evaluator",
        ok,
        f"models_equal={equal_ok} invalid_rejected={rejected} elapsed={time.time()-start:.2f}s",
    )


def test_criterion_10_oracle_suites():
    start = time.time()
    rng = random.Random(20260808)
    monomial_count = check_monomial_oracles(rng, count=200)
    groebner_count = check_groebner_vs_rank(rng, count=50, max_degree=12)
    # 50 standard-graded ideals and 25 weighted ones
    ok = monomial_count == 200 and groebner_count == 75
    report(
        10,
        "oracle-suites",
        ok,
        f"monomial_ideals={monomial_count} homogeneous_ideals={groebner_count} "
        f"elapsed={time.time()-start:.2f}s",
    )


def test_criterion_11_symmetry_and_decay(suite_problems):
    start = time.time()
    sym_worst = 0.0
    ratio_bad = []
    for name, (problem, _) in suite_problems.items():
        p = problem.prime
        for n in (2, 5, 8):
            for y in GRID:
                sym_worst = max(
                    sym_worst,
                    abs(fn_eval(problem, n, -y) - fn_eval(problem, n, y).conjugate()),
                )
        n_max = 10
        values = {y: [fn_eval(problem, m, y) for m in range(n_max + 1)] for y in GRID}
        sups = [
            max(abs(values[y][m + 1] - values[y][m]) for y in GRID) for m in range(n_max)
        ]
        for m in range(3, n_max - 1):
            if sups[m] > 1e-14 and sups[m + 1] / sups[m] > 1 / p + 0.2:
                ratio_bad.append((name, m, sups[m + 1] / sups[m]))
    ok = sym_worst <= 1e-12 and not ratio_bad
    report(
        11,
        "symmetry-and-decay",
        ok,
        f"symmetry_gap={sym_worst:.2e} ratio_failures={ratio_bad} "
        f"elapsed={time.time()-start:.2f}s",
    )


def fermat_cubic(p):
    """x^3 + y^3 + z^3 over F_p with I = (x, y, z)."""
    return problem_file_from_dict({
        "prime": p,
        "variables": [{"name": v, "degree": 1} for v in "xyz"],
        "relations": ["x^3 + y^3 + z^3"],
        "ideal": ["x", "y", "z"],
    }).to_problem()


def test_criterion_12_fermat_cubic_hk_function_p5():
    start = time.time()
    problem = fermat_cubic(5)
    totals = {n: problem.table(n).total() for n in (1, 2, 3)}
    expected = {n: (9 * 25 ** n - 5) // 4 for n in totals}
    report(
        12,
        "fermat-cubic-hk-p5",
        totals == expected,
        f"totals={totals} expected={expected} elapsed={time.time()-start:.2f}s",
    )


def test_criterion_13_fermat_cubic_hk_function_p2():
    start = time.time()
    problem = fermat_cubic(2)
    totals = {n: problem.table(n).total() for n in range(2, 7)}
    expected = {n: 9 * 4 ** n // 4 for n in totals}
    report(
        13,
        "fermat-cubic-hk-p2",
        totals == expected,
        f"totals={totals} expected={expected} elapsed={time.time()-start:.2f}s",
    )


def test_criterion_14_fermat_cubic_hn_model():
    # The syzygy bundle of (x, y, z) on the Fermat cubic is strongly
    # semistable of rank 2 and slope -3/2.
    start = time.time()
    problem = fermat_cubic(2)
    model = model_from_hn(HNData(delta_r=3, rank_s=2, factors=((Fraction(-3, 2), 2),)))
    points = GRID + (1.0 + 0.5j, 2.0 - 1.0j)
    worst = max(abs(fn_eval(problem, 7, y) - eval_model(model, y)) for y in points)
    report(
        14,
        "fermat-cubic-hn-model",
        worst <= 2e-3,
        f"max_deviation={worst:.2e} tol=2e-3 n=7 elapsed={time.time()-start:.2f}s",
    )
