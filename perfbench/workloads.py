"""Tasks and exact output checks of the benchmark workloads.

A task has a ``work`` part, which calls fpfun's public library functions and
is timed, and a ``check`` part, which compares the output with an oracle that
uses no fpfun code and is not timed.  Oracle data is computed when the tasks
are built, before any timing starts.

fpfun is reached through its modules at call time (``fp.fn_eval``, not a
name imported once), so the tracer's rebinding of module attributes covers
the benchmark's own calls as well as fpfun's internal ones.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from fpfun import density, fp, models

# Stated tolerances.  HN_TOL: the level-n_max values of the Fermat cubic
# against model_from_hn (largest deviation seen: 4e-4 at p=2, n=7).
# LIMIT_TOL: the level-14 values against the proved models (largest seen:
# 7.5e-3, parameter23 at y = 0.5+1i).  BRIDGE_TOL and BETTI_TOL are the
# documented floating-point contracts of the density bridge and of
# betti_limit_check.
HN_TOL = 2e-3
LIMIT_TOL = 2e-2
BRIDGE_TOL = 1e-10
BETTI_TOL = 1e-9


@dataclass(frozen=True)
class Task:
    """One unit of checked work on one problem file."""

    name: str
    problem: str
    work: Callable  # ProblemSpec -> output; timed
    check: Callable  # output -> None when correct, else a message; not timed


def series_coefficients(numerator: dict, denominators, up_to: int) -> list:
    """Coefficients 0..up_to of numerator(t) / prod(1 - t^d), as integers."""
    out = [0] * (up_to + 1)
    for e, c in numerator.items():
        if e <= up_to:
            out[e] += c
    for d in denominators:
        for j in range(d, up_to + 1):
            out[j] += out[j - d]
    return out


def times_one_minus(poly: dict, k: int) -> dict:
    """poly(t) * (1 - t^k) for a sparse integer polynomial."""
    out = dict(poly)
    for e, c in poly.items():
        out[e + k] = out.get(e + k, 0) - c
    return {e: c for e, c in out.items() if c}


def nonzero(coeffs: list) -> dict:
    return {j: c for j, c in enumerate(coeffs) if c}


def check_lengths(table, expected: dict):
    if table.lengths == expected:
        return None
    j = min(j for j in set(table.lengths) | set(expected) if table.lengths.get(j) != expected.get(j))
    return f"level {table.n}: length at degree {j} is {table.lengths.get(j, 0)}, expected {expected.get(j, 0)}"


def check_total(table, expected: int):
    total = sum(table.lengths.values())
    if total == expected:
        return None
    return f"level {table.n}: total length {total}, expected {expected}"


def _max_gap(pairs, tol: float, what: str):
    worst = max(pairs, key=lambda item: item[1])
    if worst[1] <= tol:
        return None
    return f"{what} {worst[1]:.3e} at y={worst[0]} exceeds {tol:g}"


# -- cubic_groebner --------------------------------------------------------


def fermat_total(p: int, n: int) -> int:
    """Known Hilbert-Kunz function of the Fermat cubic with I = (x, y, z)."""
    q = p ** n
    if p == 2:
        return (1, 8)[n] if n < 2 else 9 * q * q // 4
    return (9 * q * q - 5) // 4


def _hn_model(hn: dict):
    factors = tuple((Fraction(mu), r) for mu, r in hn["factors"])
    return models.model_from_hn(models.HNData(hn["delta_r"], hn["rank"], factors))


def fermat_tasks(entry: dict, pf) -> list:
    name, p, n_max, grid = entry["problem"], pf.prime, pf.n_max, pf.y_grid
    tasks = [
        Task(f"{name}/table/{n}", name,
             lambda s, n=n: s.table(n),
             lambda t, n=n: check_total(t, fermat_total(p, n)))
        for n in range(n_max + 1)
    ]

    def limit(s):
        hk = fp.hk_multiplicity(s, n_max)
        estimates = fp.fp_limit(s, grid, n_max)
        model = _hn_model(pf.hn)
        return hk, [(y, abs(models.eval_model(model, y) - estimates[y].value)) for y in grid]

    def check_limit(out):
        hk, deviations = out
        expected = Fraction(fermat_total(p, n_max), p ** (2 * n_max))
        if hk != expected:
            return f"hk_multiplicity {hk}, expected {expected}"
        return _max_gap(deviations, HN_TOL, "HN model deviation")

    tasks.append(Task(f"{name}/limit", name, limit, check_limit))
    return tasks


# -- monomial_staircase ----------------------------------------------------


def staircase_level0(exponents, weights) -> dict:
    """Standard monomials of a monomial ideal by weighted degree, by brute force."""
    bounds = [max(e[i] for e in exponents) for i in range(len(weights))]
    counts: dict = {}
    for cell in itertools.product(*(range(b) for b in bounds)):
        if not any(all(c >= g for c, g in zip(cell, e)) for e in exponents):
            d = sum(c * w for c, w in zip(cell, weights))
            counts[d] = counts.get(d, 0) + 1
    return counts


def monomial_expected(level0: dict, weights, q: int) -> dict:
    """H_{R/I^[q]}(t) = H_{R/I}(t^q) * prod (1 - t^(q w)) / (1 - t^w), per degree."""
    numerator = {j * q: c for j, c in level0.items()}
    for w in weights:
        numerator = times_one_minus(numerator, q * w)
    top = max(level0) * q + sum(q * w for w in weights)
    return nonzero(series_coefficients(numerator, weights, top))


def monomial_tasks(entry: dict, pf) -> list:
    name, weights = entry["problem"], pf.variable_degrees
    level0 = staircase_level0(entry["exponents"], weights)
    tasks = []
    for n in range(pf.n_max + 1):
        expected = monomial_expected(level0, weights, pf.prime ** n)
        tasks.append(Task(f"{name}/table/{n}", name,
                          lambda s, n=n: s.table(n),
                          lambda t, e=expected: check_lengths(t, e)))
    return tasks


# -- limit_eval ------------------------------------------------------------


def complete_intersection_expected(entry: dict, weights, q: int) -> dict:
    numerator = {0: 1}
    for a in entry["ideal_degrees"]:
        numerator = times_one_minus(numerator, q * a)
    for b in entry["relation_degrees"]:
        numerator = times_one_minus(numerator, b)
    return nonzero(series_coefficients(numerator, weights, max(numerator)))


def complete_intersection_hk(entry: dict, weights) -> tuple:
    """(ring multiplicity, Hilbert-Kunz multiplicity), exact."""
    e_ring = Fraction(1)
    for b in entry["relation_degrees"]:
        e_ring *= b
    for w in weights:
        e_ring /= w
    hk = e_ring
    for a in entry["ideal_degrees"]:
        hk *= a
    return e_ring, hk


def _points(raw) -> list:
    return [complex(re, im) for re, im in raw]


def limit_tasks(entry: dict, pf) -> list:
    name, p, n_max, grid = entry["problem"], pf.prime, pf.n_max, pf.y_grid
    weights = pf.variable_degrees
    degrees, hsop = entry["ideal_degrees"], entry["hsop_degrees"]
    bridge_points, betti_points = _points(entry["bridge_points"]), _points(entry["betti_points"])
    expected = [complete_intersection_expected(entry, weights, p ** n) for n in range(n_max + 1)]
    e_ring, hk = complete_intersection_hk(entry, weights)

    def check_tables(tables):
        for table, lengths in zip(tables, expected):
            message = check_lengths(table, lengths)
            if message:
                return message
        return None

    def check_origin(out):
        at_zero, multiplicity = out
        if multiplicity != hk or at_zero != complex(float(hk)):
            return f"F(0)={at_zero}, hk_multiplicity={multiplicity}, expected {hk}"
        return None

    def limit(s):
        estimates = fp.fp_limit(s, grid, n_max)
        if entry["model"] == "hsop":
            model = models.model_hsop(e_ring, degrees)
        else:
            model = models.model_dim_one(e_ring, degrees[0])
        return [(y, abs(models.eval_model(model, y) - estimates[y].value)) for y in grid]

    def bridge(s):
        table = density.density_table(s, n_max)
        return [(y, abs(density.gn_fourier_exact(s, n_max, y) - density.quadrature_fourier(table, y)))
                for y in bridge_points]

    def betti(s):
        report = fp.betti_limit_check(s, hsop, betti_points, n_max)
        return list(report.deviations.items())

    return [
        Task(f"{name}/tables", name,
             lambda s: [s.table(n) for n in range(n_max + 1)], check_tables),
        Task(f"{name}/origin", name,
             lambda s: (fp.fn_eval(s, n_max, 0), fp.hk_multiplicity(s, n_max)), check_origin),
        Task(f"{name}/mass", name,
             lambda s: density.density_table(s, n_max).mass(),
             lambda mass: None if mass == hk else f"density mass {mass}, expected {hk}"),
        Task(f"{name}/limit", name, limit,
             lambda out: _max_gap(out, LIMIT_TOL, "model deviation")),
        Task(f"{name}/bridge", name, bridge,
             lambda out: _max_gap(out, BRIDGE_TOL, "bridge gap")),
        Task(f"{name}/betti", name, betti,
             lambda out: _max_gap(out, BETTI_TOL, "Betti deviation")),
    ]


_BUILDERS = {
    "fermat_cubic": fermat_tasks,
    "monomial": monomial_tasks,
    "complete_intersection": limit_tasks,
}


def build_tasks(manifest: dict, problem_files: dict) -> list:
    """All tasks of one pass, in order; problem_files maps name -> ProblemFile."""
    tasks = []
    for entry in manifest["tasks"]:
        tasks.extend(_BUILDERS[entry["kind"]](entry, problem_files[entry["problem"]]))
    return tasks
