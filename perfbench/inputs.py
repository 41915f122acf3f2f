"""Seeded inputs for the fpfun benchmark.

``generate(workload, seed, out_dir)`` writes the problem files fpfun reads and
a ``manifest.json`` that holds what only the benchmark needs: which problem
file each task uses, the extra evaluation points and the data of the exact
oracles.  The same seed always gives byte-identical files.

Grid points lie on the 1/64 lattice, so their decimal form is exact.  Every
grid keeps clear of tiny |y| and of large |Im y|: two numeric defects of fpfun
live there and are not covered by this benchmark.  ``quadrature_fourier``
loses digits as y -> 0, and ``LimitEstimate.error_bound`` is not a true bound
once Im y grows.  At q = 16384 the first defect already reaches |y| ~ 1: with
Im y > 0 the step-function integral grows like exp(x Im y), and the bridge
gap passed its 1e-10 contract at y = 0.640625+0.734375i (1.11e-10).  The
bridge points therefore keep Re y >= 1.5 and |Im y| <= 0.5, where the gap
stayed below 6e-12; the other grids use Re y in [0.5, 8], |Im y| <= 1.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

WORKLOADS = ("cubic_groebner", "monomial_staircase", "limit_eval")

# Harder-Narasimhan data of the syzygy bundle of (x, y, z) on the Fermat
# cubic: strongly semistable of slope -3/2 and rank 2.
HN_CUBIC = {"delta_r": 3, "rank": 2, "factors": [["-3/2", 2]]}

# Generator counts of the monomial ideals: both sides of the switch between
# the subset walk (at most 12 generators) and box enumeration (13 or more).
MONOMIAL_GEN_COUNTS = tuple(range(4, 21))
# Every generator has this total degree, so any set of them is an antichain;
# 21 monomials of degree 5 in three variables allow up to 20 generators.
MONOMIAL_DEGREE = 5


def _point(rng: random.Random, re_lo: float, re_hi: float, im_max: float) -> list:
    re = rng.randint(int(re_lo * 64), int(re_hi * 64)) / 64
    im = rng.randint(-int(im_max * 64), int(im_max * 64)) / 64
    return [re, im]


def _grid(rng: random.Random, count: int, re_lo: float, re_hi: float, im_max: float) -> list:
    return [_point(rng, re_lo, re_hi, im_max) for _ in range(count)]


def _variables(names, weights) -> list:
    return [{"name": n, "degree": w} for n, w in zip(names, weights)]


def _monomial(exps, names) -> str:
    factors = [n if e == 1 else f"{n}^{e}" for n, e in zip(names, exps) if e]
    return "*".join(factors)


def cubic_groebner(rng: random.Random):
    """Fermat cubic a*x^3 + b*y^3 + c*z^3 with I = (x, y, z), at p = 5 and p = 2.

    Scaling a variable and reordering the variables are graded automorphisms
    (every element of F_5 is a cube), so the exact answers do not depend on
    the seed; only the path the Groebner computation takes does.
    """
    problems, tasks = {}, []
    for prime, n_max in ((5, 3), (2, 7)):
        names = ["x", "y", "z"]
        rng.shuffle(names)
        coeffs = [rng.randint(1, prime - 1) for _ in names]
        cubic = " + ".join(f"{c}*{v}^3" for c, v in zip(coeffs, names))
        ideal = list(names)
        rng.shuffle(ideal)
        name = f"fermat_p{prime}"
        problems[name] = {
            "prime": prime,
            "variables": _variables(names, (1, 1, 1)),
            "relations": [cubic],
            "ideal": ideal,
            "options": {"n_max": n_max, "y_grid": _grid(rng, 4, 0.5, 4.0, 0.5), "hn": HN_CUBIC},
        }
        tasks.append({"problem": name, "kind": "fermat_cubic"})
    return problems, tasks


def monomial_staircase(rng: random.Random):
    """m-primary monomial ideals in three weighted variables, levels up to q = 8."""
    names = ["x", "y", "z"]
    d = MONOMIAL_DEGREE
    pure = [(d, 0, 0), (0, d, 0), (0, 0, d)]
    mixed = [(a, b, d - a - b) for a in range(d + 1) for b in range(d + 1 - a)]
    mixed = [e for e in mixed if e not in pure]
    problems, tasks = {}, []
    for count in MONOMIAL_GEN_COUNTS:
        weights = [rng.choice((1, 2, 3)) for _ in names]
        gens = pure + sorted(rng.sample(mixed, count - len(pure)))
        name = f"monomial_g{count:02d}"
        problems[name] = {
            "prime": 2,
            "variables": _variables(names, weights),
            "relations": [],
            "ideal": [_monomial(e, names) for e in gens],
            "options": {"n_max": 3},
        }
        tasks.append({"problem": name, "kind": "monomial", "exponents": [list(e) for e in gens]})
    return problems, tasks


# Complete intersections with proved closed forms.  The ideal generators (of
# degrees a) and the relations (of degrees b) are regular sequences, so
#   H_{R/I^[q]}(t) = prod (1 - t^(q*a)) * prod (1 - t^b) / prod (1 - t^w)
# with w the variable weights.  The model is model_hsop over the degrees a,
# or model_dim_one with h = a[0]; hsop gives the parameter degrees used by
# betti_limit_check.
_LIMIT_PROBLEMS = (
    ("parameter23", (1, 1), [], ["X^2", "Y^3"], (2, 3), (), "hsop", (1, 1)),
    ("cusp", (2, 3), ["Y^2 - X^3"], ["X"], (2,), (6,), "dim1", (2,)),
    ("weighted_plane", (2, 3), [], ["X", "Y"], (2, 3), (), "hsop", (2, 3)),
)


def limit_eval(rng: random.Random):
    """Three problems with proved closed forms, evaluated at p = 2, n_max = 14."""
    problems, tasks = {}, []
    for name, weights, relations, ideal, a, b, model, hsop in _LIMIT_PROBLEMS:
        problems[name] = {
            "prime": 2,
            "variables": _variables(("X", "Y"), weights),
            "relations": relations,
            "ideal": ideal,
            "options": {"n_max": 14, "y_grid": _grid(rng, 32, 0.5, 8.0, 1.0)},
        }
        tasks.append({
            "problem": name,
            "kind": "complete_intersection",
            "ideal_degrees": list(a),
            "relation_degrees": list(b),
            "model": model,
            "hsop_degrees": list(hsop),
            "bridge_points": _grid(rng, 8, 1.5, 8.0, 0.5),
            "betti_points": _grid(rng, 4, 0.5, 8.0, 1.0),
        })
    return problems, tasks


_GENERATORS = {
    "cubic_groebner": cubic_groebner,
    "monomial_staircase": monomial_staircase,
    "limit_eval": limit_eval,
}


def _dump(obj) -> str:
    return json.dumps(obj, indent=1, sort_keys=True) + "\n"


def generate(workload: str, seed: int, out_dir: Path) -> Path:
    """Write the workload's problem files and manifest; return the manifest path."""
    problems, tasks = _GENERATORS[workload](random.Random(f"{workload}:{seed}"))
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, data in problems.items():
        (out_dir / f"{name}.json").write_text(_dump(data), encoding="utf-8")
    manifest = {"workload": workload, "seed": seed, "tasks": tasks}
    path = out_dir / "manifest.json"
    path.write_text(_dump(manifest), encoding="utf-8")
    return path
