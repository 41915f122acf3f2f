"""Batch front door: parse problem files, run computations, emit plot-ready
tables and machine-readable reports.

Commands: hk, eval, closed, compare, density, selftest.  Each command computes
an ``Output`` once; ``write`` renders it as csv, json or text.
Exit codes: 0 ok, 2 parse error, 3 colength or invariant error, 4 comparison
failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import nullcontext
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .density import density_table, direct_fourier, quadrature_fourier
from .errors import (
    ColengthError,
    EvaluationDomainError,
    InexactDivisionError,
    ModelConstructionError,
    ParseError,
    StructureError,
)
from .fp import ProblemSpec, fp_limit, hk_multiplicity
from .hilbert import chi_series, series_of_table
from .models import (
    HNData,
    eval_model,
    model_dim_one,
    model_finite_pd,
    model_from_hn,
    model_hsop,
)
from .problems import ProblemFile, _is_int, load_problem_file, parse_y_grid
from .selfcheck import SelfCheckFailure, run_all

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_INVARIANT = 3
EXIT_COMPARISON = 4

_COMPARISON_SLACK = 1e-6


# -- rendering ----------------------------------------------------------------


@dataclass
class Output:
    """A command's result as raw values, rendered by ``write``.

    ``rows`` are the csv rows under ``columns``; in text format they are csv
    too, or ``column=value`` pairs when ``labelled``.  ``doc`` is the json
    document.  ``report`` lines follow the rows in text format.  ``side`` lines
    accompany csv output on stderr, or on stdout when the rows go to ``--out``
    and ``side_to_stdout`` is set.  A report or side line is a
    ``(template, *values)`` tuple, or a dict written as one line of JSON.
    """

    columns: tuple = ()
    rows: Sequence = ()
    doc: dict | None = None
    report: Sequence = ()
    side: Sequence = ()
    side_to_stdout: bool = False
    labelled: bool = False
    code: int = EXIT_OK


def _f(x) -> float:
    x = float(x)
    return 0.0 if x == 0.0 else x  # normalize -0.0


def _cell(x) -> str:
    if isinstance(x, bool):
        return "1" if x else "0"
    if isinstance(x, float):
        return format(_f(x), ".17g")
    return str(x)


def _json(x):
    """Normalize floats and write Fractions as strings, recursively."""
    if isinstance(x, float):
        return _f(x)
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, dict):
        return {k: _json(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_json(v) for v in x]
    return x


def _line(item) -> str:
    if isinstance(item, dict):
        return json.dumps(_json(item))
    template, *values = item
    return template.format(*map(_cell, values))


def _records(keys, rows) -> list:
    return [dict(zip(keys, row)) for row in rows]


def write(output: Output, fmt: str, out_path: str | None) -> None:
    """Render ``output`` in ``fmt`` to ``out_path`` (stdout if None), then its side lines."""
    if fmt == "json":
        lines = [json.dumps(_json(output.doc), indent=2)]
    elif fmt == "text" and output.labelled:
        lines = [
            " ".join(f"{c}={_cell(v)}" for c, v in zip(output.columns, row))
            for row in output.rows
        ]
    else:
        lines = [",".join(output.columns)] if output.columns else []
        lines += [",".join(map(_cell, row)) for row in output.rows]
    if fmt == "text":
        lines += map(_line, output.report)
    target = nullcontext(sys.stdout) if out_path is None else open(out_path, "w", encoding="utf-8")
    with target as handle:
        handle.writelines(line + "\n" for line in lines)
    if fmt == "csv" and output.side:
        to_stdout = out_path is not None and output.side_to_stdout
        (sys.stdout if to_stdout else sys.stderr).writelines(
            _line(item) + "\n" for item in output.side
        )


# -- model construction -------------------------------------------------------


def build_model(method: str, pf: ProblemFile, problem: ProblemSpec, hn_json: str | None):
    """Construct the closed-form model named by ``method`` for this problem.

    Returns ``(model, betti)``; ``betti`` is the alternating Betti polynomial
    behind the finite-pd model and None for the other methods.
    """
    if method == "hsop":
        degrees = tuple(g.homogeneous_degree() for g in problem.ideal.generators)
        if len(degrees) != problem.ring_dimension:
            raise StructureError(
                f"hsop method needs exactly dim(R) = {problem.ring_dimension} generators, "
                f"got {len(degrees)}"
            )
        return model_hsop(problem.ring_multiplicity, degrees), None
    if method == "dim1":
        if problem.ring_dimension != 1:
            raise StructureError("dim1 method applies to one-dimensional rings only")
        h = min(g.homogeneous_degree() for g in problem.ideal.generators)
        return model_dim_one(problem.ring_multiplicity, h), None
    if method == "finite-pd":
        betti = chi_series(series_of_table(problem.table(0)), problem.ring_series())
        model = model_finite_pd(problem.ring_multiplicity, betti, problem.ring_dimension)
        return model, betti
    if method == "hn":
        data = None
        if hn_json is not None:
            try:
                data = json.loads(hn_json)
            except ValueError as exc:  # JSONDecodeError, or an integer too long to read
                raise ParseError(f"invalid --hn-json: {getattr(exc, 'msg', exc)}")
        elif pf.hn is not None:
            data = pf.hn
        if data is None:
            raise ParseError("method hn needs --hn-json or options.hn in the problem file")
        return model_from_hn(_hn_from_dict(data)), None
    raise ParseError(f"unknown method {method!r}")


def _hn_from_dict(data: dict) -> HNData:
    try:
        delta_r = data["delta_r"]
        rank_s = data["rank"]
        raw_factors = data["factors"]
    except (KeyError, TypeError) as exc:
        raise ParseError(f"hn data needs delta_r, rank, factors: {exc}")
    if not (_is_int(delta_r) and _is_int(rank_s)):
        raise ParseError(
            f"hn delta_r and rank must be JSON integers, got {delta_r!r} and {rank_s!r}"
        )
    if not isinstance(raw_factors, list):
        raise ParseError(f"hn factors must be a list, got {raw_factors!r}")
    factors = []
    for item in raw_factors:
        if isinstance(item, dict):
            mu, r = item.get("mu"), item.get("rank")
        elif isinstance(item, (list, tuple)) and len(item) == 2:
            mu, r = item
        else:
            raise ParseError(f"cannot read hn factor {item!r}")
        if not _is_int(r):
            raise ParseError(f"cannot read hn factor {item!r}: rank must be a JSON integer")
        try:
            factors.append((Fraction(str(mu)), r))
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"cannot read hn factor {item!r}: {exc}")
    return HNData(delta_r=delta_r, rank_s=rank_s, factors=tuple(factors))


# -- commands -----------------------------------------------------------------


def cmd_hk(args) -> Output:
    pf = load_problem_file(args.file)
    n_top = _level(args.n, pf, "--n")
    problem = pf.to_problem()
    values = [hk_multiplicity(problem, n) for n in range(n_top + 1)]
    stable_from = n_top
    while stable_from > 0 and values[stable_from - 1] == values[n_top]:
        stable_from -= 1
    columns = ("n", "q", "length", "hk")
    rows = [
        (n, problem.prime ** n, str(problem.table(n).total()), v) for n, v in enumerate(values)
    ]
    if stable_from < n_top or n_top == 0:
        report = [("stable value {} from n={}", values[n_top], stable_from)]
    else:
        report = [("no stabilization observed up to n={}", n_top)]
    doc = {
        "levels": _records(columns, rows),
        "stable_from": stable_from,
        "stable_value": values[n_top],
    }
    return Output(columns, rows, doc, report=report, labelled=True)


def _level(value, pf: ProblemFile, flag: str) -> int:
    """The level given by ``flag``, or the problem file's n_max without it."""
    if value is None:
        return pf.n_max
    if value < 0:
        raise ParseError(f"{flag} must be non-negative")
    return value


def _resolve_grid(args, pf: ProblemFile):
    if getattr(args, "y_grid", None):
        try:
            spec = json.loads(args.y_grid)
        except json.JSONDecodeError:
            spec = _parse_grid_shorthand(args.y_grid)
        except ValueError as exc:  # an integer too long to read
            raise ParseError(f"cannot read y grid: {exc}")
        return parse_y_grid(spec)
    return pf.y_grid


def _parse_grid_shorthand(text: str):
    # lo:hi:count on the real axis
    parts = text.split(":")
    if len(parts) != 3:
        raise ParseError(
            f"cannot read y grid {text!r}; use JSON or the lo:hi:count shorthand"
        )
    try:
        return {"re_min": float(parts[0]), "re_max": float(parts[1]), "count": int(parts[2])}
    except ValueError as exc:
        raise ParseError(f"cannot read y grid {text!r}: {exc}")


def _limits(problem: ProblemSpec, grid, n_max: int) -> list:
    """(y, LimitEstimate) for each grid point in grid order, repeats included."""
    estimates = fp_limit(problem, grid, n_max)
    return [(y, estimates[y]) for y in grid]


def _point(keys, row, est) -> dict:
    """A json point: the row under keys, with the estimate's tail-fit diagnostics."""
    return dict(zip(keys, row), differences=est.differences,
                cauchy_constants=est.cauchy_constants)


def cmd_eval(args) -> Output:
    pf = load_problem_file(args.file)
    n_max = _level(args.n_max, pf, "--n-max")
    problem = pf.to_problem()
    limits = _limits(problem, _resolve_grid(args, pf), n_max)
    rows = [
        (y.real, y.imag, n_max, est.value.real, est.value.imag, est.error_bound)
        for y, est in limits
    ]
    keys = ("y_re", "y_im", "f_re", "f_im", "err_bound")
    points = [_point(keys, row[:2] + row[3:], est) for row, (_, est) in zip(rows, limits)]
    columns = ("y_re", "y_im", "n", "F_re", "F_im", "err_bound")
    return Output(columns, rows, {"n": n_max, "points": points})


def cmd_closed(args) -> Output:
    pf = load_problem_file(args.file)
    problem = pf.to_problem()
    model, betti = build_model(args.method, pf, problem, args.hn_json)
    grid = _resolve_grid(args, pf)
    value0 = model.value_at_zero()
    summary = {
        "method": args.method,
        "model": model.to_json_dict(),
        "value_at_zero": {"re": value0.real, "im": value0.imag},
    }
    if betti is not None:
        summary["betti"] = [[j, c] for j, c in betti.items_sorted()]
    rows = []
    for y in grid:
        v = eval_model(model, y)
        rows.append((y.real, y.imag, v.real, v.imag))
    doc = dict(summary, samples=_records(("y_re", "y_im", "f_re", "f_im"), rows))
    return Output(("y_re", "y_im", "model_re", "model_im"), rows, doc, side=[summary])


def cmd_compare(args) -> Output:
    pf = load_problem_file(args.file)
    n_max = _level(args.n_max, pf, "--n-max")
    problem = pf.to_problem()
    model, _ = build_model(args.method, pf, problem, args.hn_json)
    limits = _limits(problem, _resolve_grid(args, pf), n_max)
    rows = []
    worst_dev = 0.0
    all_ok = True
    for y, est in limits:
        mval = eval_model(model, y)
        dev = abs(est.value - mval)
        ok = dev <= est.error_bound + _COMPARISON_SLACK
        worst_dev = max(worst_dev, dev)
        all_ok = all_ok and ok
        row = (y.real, y.imag, est.value.real, est.value.imag, mval.real, mval.imag)
        rows.append(row + (dev, est.error_bound, ok))
    keys = ("y_re", "y_im", "f_re", "f_im", "model_re", "model_im", "deviation", "bound", "ok")
    doc = {
        "method": args.method,
        "n": n_max,
        "points": [_point(keys, row, est) for row, (_, est) in zip(rows, limits)],
        "max_deviation": worst_dev,
        "pass": all_ok,
    }
    columns = ("y_re", "y_im", "F_re", "F_im", "model_re", "model_im", "deviation", "bound", "ok")
    return Output(
        columns,
        rows,
        doc,
        report=[("max_deviation={} result={}", worst_dev, "PASS" if all_ok else "FAIL")],
        code=EXIT_OK if all_ok else EXIT_COMPARISON,
    )


def cmd_density(args) -> Output:
    pf = load_problem_file(args.file)
    n = _level(args.n, pf, "--n")
    problem = pf.to_problem()
    table = density_table(problem, n)
    grid = _resolve_grid(args, pf)
    q = table.q
    scale = q ** (table.d - 1)
    rows = [(j / q, ell / scale, j, str(ell)) for j, ell in table.entries]
    mass = table.mass()
    hk = hk_multiplicity(problem, n)
    side = [("gn_hat_zero={} F_n_zero={} equal={}", mass, hk, str(mass == hk))]
    worst = 0.0
    for y in grid:
        if y == 0:
            continue
        gap = abs(direct_fourier(table, y) - quadrature_fourier(table, y))
        worst = max(worst, gap)
        side.append(("y={}+{}i bridge_gap={}", y.real, y.imag, gap))
    side.append(("max_bridge_gap={}", worst))
    doc = {
        "n": n,
        "d": table.d,
        "rows": _records(("x", "g", "j", "ell"), rows),
        "gn_hat_zero": mass,
        "max_bridge_gap": worst,
    }
    return Output(("x", "g_n_of_x", "j", "ell_j"), rows, doc, side=side, side_to_stdout=True)


def cmd_selftest(args) -> Output:
    try:
        results = run_all()
    except SelfCheckFailure as exc:
        return Output(report=[("FAIL {}", exc)], code=EXIT_INVARIANT)
    return Output(report=[("ok {} ({} checks)", name, count) for name, count in results])


# -- entry point --------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fpfun",
        description=(
            "Frobenius-Poincare functions of graded rings over prime fields: "
            "exact length tables, limits with error bounds, closed-form models, "
            "and Hilbert-Kunz density data."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, n_flag=False, n_max_flag=False, method_flag=False, grid_flag=True):
        p.add_argument("--file", required=True, help="problem file (JSON)")
        if n_flag:
            p.add_argument("--n", type=int, default=None, help="level n (default: options.n_max)")
        if n_max_flag:
            p.add_argument(
                "--n-max", dest="n_max", type=int, default=None,
                help="largest level used for the limit estimate",
            )
        if method_flag:
            p.add_argument(
                "--method", required=True, choices=("hsop", "dim1", "finite-pd", "hn")
            )
            p.add_argument("--hn-json", dest="hn_json", default=None,
                           help="Harder-Narasimhan data as JSON (method hn)")
        if grid_flag:
            p.add_argument("--y-grid", dest="y_grid", default=None,
                           help="JSON y grid or lo:hi:count shorthand")
        p.add_argument("--out", default=None, help="write the main output to this file")

    p_hk = sub.add_parser("hk", help="Hilbert-Kunz multiplicities across levels 0..n")
    common(p_hk, n_flag=True, grid_flag=False)
    p_hk.add_argument("--format", choices=("text", "csv", "json"), default="text")
    p_hk.set_defaults(func=cmd_hk)

    p_eval = sub.add_parser("eval", help="evaluate the level-n_max function on a grid")
    common(p_eval, n_max_flag=True)
    p_eval.add_argument("--format", choices=("csv", "json"), default="csv")
    p_eval.set_defaults(func=cmd_eval)

    p_closed = sub.add_parser("closed", help="construct a closed-form model and sample it")
    common(p_closed, method_flag=True)
    p_closed.add_argument("--format", choices=("csv", "json"), default="json")
    p_closed.set_defaults(func=cmd_closed)

    p_cmp = sub.add_parser("compare", help="compare the limit estimate against a model")
    common(p_cmp, n_max_flag=True, method_flag=True)
    p_cmp.add_argument("--format", choices=("text", "csv", "json"), default="text")
    p_cmp.set_defaults(func=cmd_compare)

    p_den = sub.add_parser("density", help="density samples and the Fourier bridge check")
    common(p_den, n_flag=True)
    p_den.add_argument("--format", choices=("csv", "json"), default="csv")
    p_den.set_defaults(func=cmd_density)

    p_self = sub.add_parser("selftest", help="run the property and oracle suites")
    p_self.set_defaults(func=cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        output = args.func(args)
        write(output, getattr(args, "format", "text"), getattr(args, "out", None))
        return output.code
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except OverflowError as exc:
        print(f"error: floating-point overflow ({exc})", file=sys.stderr)
        return EXIT_INVARIANT
    except (
        ColengthError,
        StructureError,
        EvaluationDomainError,
        InexactDivisionError,
        ModelConstructionError,
        SelfCheckFailure,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVARIANT


def run():
    sys.exit(main())
