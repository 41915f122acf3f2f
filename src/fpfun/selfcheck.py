"""Seeded random property suites shared by the CLI self test and the test
suite: field axioms, term-order laws, division correctness, and the two
oracle-agreement campaigns (staircase vs enumeration, Groebner vs Macaulay
rank)."""

from __future__ import annotations

import random

from .algebra import Grading, Polynomial, PrimeField, _heap_key, normal_form
from .fp import betti_alternating_polynomial, hk_multiplicity
from .density import density_table, gn_fourier_exact, quadrature_fourier
from .hilbert import HilbertSeries, series_of_table
from .ideals import (
    MonomialIdeal,
    RingPresentation,
    buchberger,
    enumeration_oracle,
    initial_ideal,
    macaulay_rank_oracle,
    monomials_of_degree,
    staircase_degree_counts,
)
from .suite import standard_problems

DEFAULT_SEED = 74025


class SelfCheckFailure(AssertionError):
    """A property suite found a mismatch."""


def _require(condition, message):
    if not condition:
        raise SelfCheckFailure(message)


def check_field_axioms(rng: random.Random, primes=(2, 3, 5, 97), samples=40) -> int:
    """Associativity, inverses, and Frobenius additivity on random samples."""
    checks = 0
    for p in primes:
        field = PrimeField(p)
        for _ in range(samples):
            a, b, c = (rng.randrange(p) for _ in range(3))
            _require(
                field.add(field.add(a, b), c) == field.add(a, field.add(b, c)),
                f"associativity failed in F_{p}",
            )
            if a:
                _require(field.mul(a, field.inv(a)) == 1, f"inverse failed for {a} in F_{p}")
            frob = field.pow(field.add(a, b), p)
            _require(
                frob == field.add(field.pow(a, p), field.pow(b, p)),
                f"Frobenius additivity failed in F_{p}",
            )
            checks += 3
    return checks


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
        counted = staircase_degree_counts(ideal, grading, max_degree)
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


def check_ab_identity(levels=4) -> int:
    """series_of_table equals H_S times the Betti polynomial, exactly."""
    checks = 0
    for name, (problem, hsop) in standard_problems().items():
        for n in range(levels + 1):
            betti = betti_alternating_polynomial(problem, hsop, n)
            lhs = series_of_table(problem.table(n))
            rhs = HilbertSeries(betti, tuple(hsop))
            _require(
                lhs.equal_as_rational(rhs),
                f"Hilbert-series/Betti identity failed on {name!r} at n={n}",
            )
            checks += 1
    return checks


def check_fourier_bridge(levels=3, tol=1e-10) -> int:
    """The closed-form transform and interval quadrature agree everywhere."""
    grid = (0.5, 1.0, 2.0, 4.0, -1.0, 1.0 + 0.5j)
    checks = 0
    for name, (problem, _) in standard_problems().items():
        for n in range(levels + 1):
            table = density_table(problem, n)
            _require(
                table.mass() == hk_multiplicity(problem, n),
                f"density mass differs from the level-{n} multiplicity on {name!r}",
            )
            for y in grid:
                gap = abs(gn_fourier_exact(problem, n, y) - quadrature_fourier(table, y))
                _require(
                    gap <= tol,
                    f"Fourier bridge gap {gap} on {name!r} at n={n}, y={y}",
                )
                checks += 1
    return checks


def run_all(seed=DEFAULT_SEED, quick=False):
    """Run every suite; returns (name, checks) pairs or raises SelfCheckFailure."""
    rng = random.Random(seed)
    scale = 0.1 if quick else 1.0
    results = []
    results.append(("field-axioms", check_field_axioms(rng, samples=max(4, int(40 * scale)))))
    results.append(("term-order", check_monomial_order(rng, trials=max(20, int(200 * scale)))))
    results.append(("division", check_division(rng, trials=max(5, int(40 * scale)))))
    results.append(
        ("staircase-vs-enumeration", check_monomial_oracles(rng, count=max(20, int(200 * scale))))
    )
    results.append(
        ("groebner-vs-macaulay-rank", check_groebner_vs_rank(rng, count=max(5, int(50 * scale))))
    )
    results.append(("hilbert-betti-identity", check_ab_identity(levels=2 if quick else 4)))
    results.append(("fourier-bridge", check_fourier_bridge(levels=2 if quick else 3)))
    return results
