"""Seeded random property suites shared by the CLI self test and the test
suite: term-order laws, division correctness, the two oracle-agreement
campaigns (staircase vs enumeration, Groebner vs Macaulay rank), the
Hilbert-series/Betti identity, the Fourier bridge and the Frobenius
product."""

from __future__ import annotations

import math
import random

from .algebra import Grading, Polynomial, PrimeField, _heap_key, normal_form
from .fp import _direct_sum, betti_alternating_polynomial, fn_eval, fp_limit, hk_multiplicity
from .density import density_table, direct_fourier, quadrature_fourier
from .ideals import (
    MonomialIdeal,
    RingPresentation,
    buchberger,
    enumeration_oracle,
    initial_ideal,
    macaulay_rank_oracle,
    monomials_of_degree,
    series_expansion,
    staircase_degree_counts,
)
from .suite import standard_problems

DEFAULT_SEED = 74025
# The evaluation points of the Fourier bridge and the Frobenius product checks.
_POINTS = (0.5, 1.0, 2.0, 4.0, -1.0, 1.0 + 0.5j)


class SelfCheckFailure(AssertionError):
    """A property suite found a mismatch."""


def _require(condition, message):
    if not condition:
        raise SelfCheckFailure(message)


def check_monomial_order(rng: random.Random, trials=200) -> int:
    """Totality and multiplicativity of the kernel's weighted grevlex key."""
    checks = 0
    for _ in range(trials):
        nvars = rng.randint(1, 4)
        weights = tuple(rng.randint(1, 3) for _ in range(nvars))
        a = tuple(rng.randint(0, 5) for _ in range(nvars))
        b = tuple(rng.randint(0, 5) for _ in range(nvars))
        c = tuple(rng.randint(0, 5) for _ in range(nvars))
        if a != b:
            ka, kb = _heap_key(a, weights), _heap_key(b, weights)
            _require(ka != kb, f"distinct monomials tie: {a} {b}")
            ac = tuple(x + y for x, y in zip(a, c))
            bc = tuple(x + y for x, y in zip(b, c))
            _require(
                (ka < kb) == (_heap_key(ac, weights) < _heap_key(bc, weights)),
                f"order is not multiplicative at {a}, {b}, {c}",
            )
            checks += 2
    return checks


def _random_grading(rng, weighted) -> Grading:
    """One to three variables, of weight 1 or, when weighted, of weights from (1, 2, 3)."""
    nvars = rng.randint(1, 3)
    if weighted:
        return Grading(tuple(rng.choice((1, 2, 3)) for _ in range(nvars)))
    return Grading((1,) * nvars)


def _random_homogeneous(rng, field, grading, low, high) -> Polynomial:
    """A random nonzero form of a degree in low..high that has monomials."""
    degree = rng.choice([d for d in range(low, high + 1) if monomials_of_degree(grading, d)])
    monomials = monomials_of_degree(grading, degree)
    while True:
        terms = {}
        for e in monomials:
            c = rng.randrange(field.p)
            if c:
                terms[e] = c
        if terms:
            return Polynomial(field, grading, terms)


def check_division(rng: random.Random, trials=40) -> int:
    """f - normal_form(f, G) re-divides to zero; the remainder is a fixed point.

    ``trials`` draws use standard gradings; ``trials // 2`` more draws use
    weights from (1, 2, 3).
    """
    checks = 0
    for weighted in [False] * trials + [True] * (trials // 2):
        p = rng.choice((2, 3, 5))
        field = PrimeField(p)
        grading = _random_grading(rng, weighted)
        divisors = [
            _random_homogeneous(rng, field, grading, 1, 3)
            for _ in range(rng.randint(1, 3))
        ]
        f = _random_homogeneous(rng, field, grading, 1, 4)
        r = normal_form(f, divisors)
        _require(
            normal_form(f - r, divisors).is_zero(),
            "f - normal_form(f, G) does not reduce to zero",
        )
        _require(normal_form(r, divisors) == r, "normal form is not idempotent")
        checks += 2
    return checks


def random_zero_dimensional_monomial_ideal(rng: random.Random):
    """A random zero-dimensional monomial ideal in <=4 variables.

    Generators are capped at 6 with exponents at most 6; a pure power of each
    variable guarantees the finite staircase.
    """
    nvars = rng.randint(1, 4)
    grading = Grading(tuple(rng.choice((1, 1, 2, 3)) for _ in range(nvars)))
    exps = []
    for i in range(nvars):
        e = [0] * nvars
        e[i] = rng.randint(1, 6)
        exps.append(tuple(e))
    for _ in range(rng.randint(0, 6 - nvars)):
        exps.append(tuple(rng.randint(0, 6) for _ in range(nvars)))
    exps = [e for e in exps if any(e)]
    return MonomialIdeal.from_exponents(exps), grading


def check_monomial_oracles(rng: random.Random, count=200) -> int:
    """Staircase counting agrees with exhaustive enumeration, exactly."""
    for k in range(count):
        ideal, grading = random_zero_dimensional_monomial_ideal(rng)
        bounds = ideal.pure_power_bounds(grading.var_count)
        max_degree = sum((b - 1) * w for b, w in zip(bounds, grading.weights))
        _, counted = staircase_degree_counts(ideal, grading, max_degree)
        table = {j: c for j, c in enumerate(counted) if c}
        oracle = enumeration_oracle(ideal, grading)
        _require(
            table == oracle,
            f"staircase/enumeration mismatch on ideal #{k}: {ideal.generators}",
        )
    return count


def check_groebner_vs_rank(rng: random.Random, count=50, max_degree=12) -> int:
    """Graded dimensions from the initial ideal match the Macaulay rank oracle.

    ``count`` ideals use standard gradings over F_2 and F_3; ``count // 2``
    more use weights from (1, 2, 3) over F_2, F_3 and F_5.  Returns the
    number of ideals checked.
    """
    draws = [False] * count + [True] * (count // 2)
    for k, weighted in enumerate(draws):
        p = rng.choice((2, 3, 5) if weighted else (2, 3))
        field = PrimeField(p)
        grading = _random_grading(rng, weighted)
        ring = RingPresentation(field, grading)
        gens = [
            _random_homogeneous(rng, field, grading, 1, 4)
            for _ in range(rng.randint(1, 3))
        ]
        basis = buchberger(gens)
        lead = initial_ideal(basis)
        for degree in range(max_degree + 1):
            standard = sum(
                1 for e in monomials_of_degree(grading, degree) if not lead.contains_monomial(e)
            )
            ranked = macaulay_rank_oracle(ring, gens, degree)
            _require(
                standard == ranked,
                f"Groebner/rank mismatch for ideal #{k} (p={p}, weights "
                f"{grading.weights}) at degree {degree}: {standard} vs {ranked}",
            )
    return len(draws)


def check_ab_identity(levels=4, deep=8) -> int:
    """Each suite Betti polynomial B expands, as B / prod(1 - t^d), to its table,
    at levels 0..levels and at level ``deep``; at level 8 every suite table
    has over 100 times the terms of the staircase numerator that B is built from.

    This division direction shares no code with the quotient that builds B.  The
    expansion runs past B's degree and past the table's top plus sum(d): a match
    there is equality of rational functions, while a prefix would miss a lost top term.
    Where the suite's parameter degrees equal the ring's weights, the quotient
    cancels every factor and B is the staircase numerator itself, so those
    problems are also checked with parameter degrees (1, 2), where it divides.
    """
    cases = []
    for name, (problem, hsop) in standard_problems().items():
        cases.append((name, problem, hsop))
        if sorted(hsop) == sorted(problem.ring.grading.weights):
            cases.append((name, problem, (1, 2)))
    checks = 0
    for name, problem, hsop in cases:
        for n in (*range(levels + 1), deep):
            betti = betti_alternating_polynomial(problem, hsop, n)
            table = problem.table(n)
            run = table.lengths.run
            top = max(betti.degree, table.max_degree + sum(hsop))
            dense = run + [0] * (top + 1 - len(run))
            _require(
                betti.valuation >= 0 and series_expansion(betti.coeffs, hsop, top) == dense,
                f"Hilbert-series/Betti identity failed on {name!r} with hsop {hsop} at n={n}",
            )
            checks += 1
    return checks


def check_fourier_bridge(levels=3) -> int:
    """The kernel's interval quadrature is within 1e-10 of the transform summed
    term by term, at levels 0..levels and at level 8: a table of fewer than 128
    (2 * fp._BLOCKS) degrees takes the direct sum at every point, and level 8
    is where every suite table reaches the kernel's blocks."""
    checks = 0
    for name, (problem, _) in standard_problems().items():
        for n in (*range(levels + 1), 8):
            table = density_table(problem, n)
            _require(
                table.mass() == hk_multiplicity(problem, n),
                f"density mass differs from the level-{n} multiplicity on {name!r}",
            )
            for y in _POINTS:
                gap = abs(direct_fourier(table, y) - quadrature_fourier(table, y))
                _require(
                    gap <= 1e-10,
                    f"Fourier bridge gap {gap} on {name!r} at n={n}, y={y}",
                )
                checks += 1
    return checks


def check_frobenius_product(levels=8) -> int:
    """On every relation-free suite problem, F_n at levels 0..levels is within
    1e-14 * sum(|terms|) of the level sum taken term by term (fp._direct_sum),
    and, when levels >= 2 (fp_limit fits its tail from three levels),
    fp_limit's value at the top level is fn_eval's, bit for bit.  Above
    level 0, F_n is the Frobenius product that the loop of fp._fn_levels
    carries up from level 0's sum, for one level (fn_eval) or for all of
    them (fp_limit)."""
    checks = 0
    for name, (problem, _) in standard_problems().items():
        if problem.ring.relations:
            continue
        for n in range(levels + 1):
            lengths = problem.table(n).lengths
            q = problem.prime ** n
            scale = q ** problem.dimension
            for y in _POINTS:
                w = -1j * y / q
                gap = abs(fn_eval(problem, n, y) - _direct_sum(lengths, w) / scale)
                size = math.fsum(v * math.exp(w.real * j) for j, v in lengths.items()) / scale
                _require(
                    gap <= 1e-14 * size,
                    f"Frobenius product off by {gap / size} of sum|terms| on {name!r} "
                    f"at n={n}, y={y}",
                )
                checks += 1
        if levels < 2:
            continue
        limits = fp_limit(problem, _POINTS, levels)
        for y in _POINTS:
            _require(
                limits[y].value == fn_eval(problem, levels, y),
                f"fp_limit differs from fn_eval on {name!r} at n={levels}, y={y}",
            )
            checks += 1
    return checks


def run_all(seed=DEFAULT_SEED):
    """Run every suite; returns (name, checks) pairs or raises SelfCheckFailure."""
    rng = random.Random(seed)
    return [
        ("term-order", check_monomial_order(rng)),
        ("division", check_division(rng)),
        ("staircase-vs-enumeration", check_monomial_oracles(rng)),
        ("groebner-vs-macaulay-rank", check_groebner_vs_rank(rng)),
        ("hilbert-betti-identity", check_ab_identity()),
        ("fourier-bridge", check_fourier_bridge()),
        ("frobenius-product", check_frobenius_product(levels=10)),
    ]
