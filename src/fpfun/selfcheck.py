"""Seeded random property suites shared by the CLI self test and the test
suite: term-order laws, division correctness, the two oracle-agreement
campaigns (staircase vs enumeration, Groebner vs Macaulay rank), the
Hilbert-series/Betti identity, the Fourier bridge, F_n against its
level sum taken term by term, and the series expansion against the
running-sum recurrence."""

from __future__ import annotations

import math
import random

from .algebra import Grading, Polynomial, PrimeField, _heap_key, normal_form
from .fp import _direct_sum, betti_alternating_polynomial, fn_eval, fp_limit, hk_multiplicity
from .density import density_table, direct_fourier, quadrature_fourier
from .ideals import (
    FrobeniusChain,
    HomogeneousIdeal,
    MonomialIdeal,
    RingPresentation,
    bracket_power,
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
# The evaluation points of the Fourier bridge and the level-sum checks; the
# level sums add two that the closed form hands to the numerator sum: above
# level 0 sin(wy/2) overflows at 1 - 1500i, and 1e-300 is below 2e-290.
_POINTS = (0.5, 1.0, 2.0, 4.0, -1.0, 1.0 + 0.5j)
_LEVEL_SUM_POINTS = (*_POINTS, 1 - 1500j, 1e-300)


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


def check_groebner_vs_rank(rng: random.Random, count=50, max_degree=12, relation_count=0) -> int:
    """Graded dimensions from the initial ideal match the Macaulay rank oracle.

    ``count`` ideals use standard gradings over F_2 and F_3; ``count // 2``
    more use weights from (1, 2, 3) over F_2, F_3 and F_5.  ``relation_count``
    more draw a ring with one or two relations over F_2 or F_3, standard and
    weighted in turn, and check the basis graded_lengths takes at levels 1
    and 2 (the relations' reduced basis and the Frobenius normal forms of the
    generators) against the rank oracle on the relations plus the raw bracket
    powers.  Returns the number of ideals checked.
    """
    draws = [False] * count + [True] * (count // 2)
    for k, weighted in enumerate(draws):
        p = rng.choice((2, 3, 5) if weighted else (2, 3))
        field = PrimeField(p)
        grading = _random_grading(rng, weighted)
        ring = RingPresentation(field, grading)
        gens = _random_generators(rng, field, grading)
        _require_ranks(ring, gens, buchberger(gens), max_degree, f"ideal #{k}")
    for k in range(relation_count):
        p = rng.choice((2, 3))
        field = PrimeField(p)
        grading = _random_grading(rng, k % 2)
        relations = _random_generators(rng, field, grading, most=2, high=3)
        ring = RingPresentation(field, grading, relations)
        ideal = HomogeneousIdeal(_random_generators(rng, field, grading, high=3))
        chain = FrobeniusChain(ring, ideal)
        for n in (1, 2):
            route = buchberger([*chain.relations, *chain.forms(n)])
            raw = bracket_power(ideal, n).generators
            _require_ranks(ring, raw, route, max_degree, f"ideal #{k} over relations at n={n}")
    return len(draws) + relation_count


def _random_generators(rng, field, grading, most=3, high=4) -> tuple:
    """One to ``most`` random forms of degrees 1 to ``high``."""
    return tuple(
        _random_homogeneous(rng, field, grading, 1, high) for _ in range(rng.randint(1, most))
    )


def _require_ranks(ring, gens, basis, max_degree, label):
    """The standard monomials of ``basis`` number, in each degree up to
    max_degree, what the rank oracle leaves of the ring over ``gens``."""
    lead, grading = initial_ideal(basis), ring.grading
    for degree in range(max_degree + 1):
        standard = sum(
            1 for e in monomials_of_degree(grading, degree) if not lead.contains_monomial(e)
        )
        ranked = macaulay_rank_oracle(ring, gens, degree)
        _require(
            standard == ranked,
            f"Groebner/rank mismatch for {label} (p={ring.field.p}, weights "
            f"{grading.weights}) at degree {degree}: {standard} vs {ranked}",
        )


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
    """The interval quadrature from each level's Hilbert numerator is within
    1e-10 of the transform summed term by term over its table, at levels
    0..levels and at level 8, where every suite table has over 100 times the
    terms of its numerator."""
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


def check_level_sums(levels=8) -> int:
    """On every suite problem, F_n at levels 0..levels is within
    1e-14 * sum(|terms|) of the level sum taken term by term (fp._direct_sum),
    and, when levels >= 2 (fp_limit fits its tail from three levels),
    fp_limit's value at the top level is fn_eval's, bit for bit.  F_n is the
    numerator sum over the cusp's relation and, over the relation-free
    rings, level 0's sum times Kunz's closed-form factors, or the numerator
    sum at the points past the closed form's reach."""
    checks = 0
    for name, (problem, _) in standard_problems().items():
        for n in range(levels + 1):
            lengths = problem.table(n).lengths
            q = problem.prime ** n
            scale = q ** problem.dimension
            for y in _LEVEL_SUM_POINTS:
                w = -1j * y / q
                gap = abs(fn_eval(problem, n, y) - _direct_sum(lengths, w) / scale)
                size = math.fsum(v * math.exp(w.real * j) for j, v in lengths.items()) / scale
                _require(
                    gap <= 1e-14 * size,
                    f"F_n off by {gap / size} of sum|terms| on {name!r} at n={n}, y={y}",
                )
                checks += 1
        if levels < 2:
            continue
        limits = fp_limit(problem, _LEVEL_SUM_POINTS, levels)
        for y in _LEVEL_SUM_POINTS:
            _require(
                limits[y].value == fn_eval(problem, levels, y),
                f"fp_limit differs from fn_eval on {name!r} at n={levels}, y={y}",
            )
            checks += 1
    return checks


def check_series_expansion(rng: random.Random, count=300) -> int:
    """series_expansion equals the recurrence c_j += c_(j-w), one weight at a
    time, on random sparse numerators over 0 to 4 weights from 1 to 7, with
    zero coefficients and exponents past up_to among them, and up_to from -1."""
    for k in range(count):
        degrees = [rng.randint(1, 7) for _ in range(rng.randint(0, 4))]
        up_to = rng.randint(-1, 80)
        numerator = {rng.randint(0, 90): rng.randint(-4, 4) for _ in range(rng.randint(0, 6))}
        expected = [0] * (up_to + 1)
        for e, c in numerator.items():
            if e <= up_to:
                expected[e] = c
        for w in degrees:
            for j in range(w, up_to + 1):
                expected[j] += expected[j - w]
        _require(
            series_expansion(numerator, degrees, up_to) == expected,
            f"series expansion #{k} of {numerator} over {degrees} to {up_to} "
            "differs from the running sums",
        )
    return count


def run_all(seed=DEFAULT_SEED):
    """Run every suite; returns (name, checks) pairs or raises SelfCheckFailure."""
    rng = random.Random(seed)
    return [
        ("term-order", check_monomial_order(rng)),
        ("division", check_division(rng)),
        ("staircase-vs-enumeration", check_monomial_oracles(rng)),
        ("groebner-vs-macaulay-rank", check_groebner_vs_rank(rng, relation_count=20)),
        ("hilbert-betti-identity", check_ab_identity()),
        ("fourier-bridge", check_fourier_bridge()),
        ("level-sums", check_level_sums(levels=10)),
        ("series-expansion", check_series_expansion(rng)),
    ]
