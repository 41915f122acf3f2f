"""Span tracing of fpfun's layers from outside the program.

``Tracer.install`` rebinds the public functions of each layer, in every fpfun
module that holds them, to wrappers that record a span (name, start, end,
parent span, task) and update counts.  Rebinding module attributes, rather
than wrapping only the benchmark's own references, means nested calls inside
fpfun (``graded_lengths`` -> ``buchberger`` -> ``normal_form``) are recorded
too.  Spans and counts stay in memory; ``dump`` writes them out at the end.

A layer's self time is its span's duration minus the time covered by its
direct child spans.
"""

from __future__ import annotations

import json
import statistics
import sys
from time import perf_counter

from fpfun import algebra, density, fp, hilbert, ideals, models, problems


def _normal_form(tr, args, result):
    tr.add("algebra.normal_form.zero", result.is_zero())


def _buchberger(tr, args, result):
    tr.top("ideals.buchberger.basis_max", len(result.elements))


def _staircase_counts(tr, args, result):
    tr.top("ideals.staircase.min_gens_max", len(args[0].generators))


def _staircase_numerator(tr, args, result):
    tr.add("ideals.staircase_numerator.terms", len(result))


def _graded_lengths(tr, args, result):
    tr.add("ideals.graded_lengths.entries", len(result.lengths))


def _fn_eval(tr, args, result):
    problem, n, y = args
    if y != 0:
        # The table is cached by now; the original method records no span.
        tr.add("fp.fn_eval.terms", len(tr.originals["fp.table"](problem, n).lengths))


def _quadrature(tr, args, result):
    table, y = args
    if y != 0:
        tr.add("density.quadrature_fourier.terms", len(table.entries))


# (span name, owner, attribute, count hook).  The owner is a module, whose
# function is rebound in every fpfun module that imported it, or a class,
# whose method is replaced.
LAYERS = (
    ("algebra.normal_form", algebra, "normal_form", _normal_form),
    ("ideals.buchberger", ideals, "buchberger", _buchberger),
    ("ideals.staircase_degree_counts", ideals, "staircase_degree_counts", _staircase_counts),
    ("ideals.staircase_numerator", ideals, "staircase_numerator", _staircase_numerator),
    ("ideals.graded_lengths", ideals, "graded_lengths", _graded_lengths),
    ("fp.table", fp.ProblemSpec, "table", None),
    ("fp.ProblemSpec.ring_series", fp.ProblemSpec, "ring_series", None),
    ("fp.fn_eval", fp, "fn_eval", _fn_eval),
    ("fp.fp_limit", fp, "fp_limit", None),
    ("density.quadrature_fourier", density, "quadrature_fourier", _quadrature),
    ("density.gn_fourier_exact", density, "gn_fourier_exact", None),
    ("hilbert.chi_series", hilbert, "chi_series", None),
    ("hilbert.divide_exact", hilbert.LaurentPolynomialZ, "divide_exact", None),
    ("hilbert.series_of_ring", hilbert, "series_of_ring", None),
    ("models.eval_model", models, "eval_model", None),
    ("problems.load_problem_file", problems, "load_problem_file", None),
)

# The per-layer metrics, by name and unit, in the order they are reported.
# ``self_s`` is a layer's self time and ``s`` its inclusive time, per pass;
# ``calls`` counts spans.  normal_form ``zero_frac``: calls that returned
# zero.  graded_lengths ``entries``: nonzero table entries returned.
# fn_eval ``terms`` and quadrature_fourier ``terms``: table entries summed,
# one complex exponential each.  table ``miss_frac``: calls that computed the
# table.  divide_exact ``fail_frac``: calls that raised InexactDivisionError.
METRICS = (
    ("algebra.normal_form.self_s", "s"),
    ("algebra.normal_form.calls", "count"),
    ("algebra.normal_form.zero_frac", "ratio"),
    ("ideals.buchberger.self_s", "s"),
    ("ideals.buchberger.calls", "count"),
    ("ideals.buchberger.basis_max", "count"),
    ("ideals.staircase_degree_counts.self_s", "s"),
    ("ideals.staircase_degree_counts.calls", "count"),
    ("ideals.staircase.min_gens_max", "count"),
    ("ideals.staircase_numerator.terms", "count"),
    ("ideals.graded_lengths.s", "s"),
    ("ideals.graded_lengths.calls", "count"),
    ("ideals.graded_lengths.entries", "count"),
    ("fp.table.calls", "count"),
    ("fp.table.miss_frac", "ratio"),
    ("fp.fn_eval.self_s", "s"),
    ("fp.fn_eval.calls", "count"),
    ("fp.fn_eval.terms", "count"),
    ("fp.fp_limit.s", "s"),
    ("density.quadrature_fourier.self_s", "s"),
    ("density.quadrature_fourier.calls", "count"),
    ("density.quadrature_fourier.terms", "count"),
    ("density.gn_fourier_exact.self_s", "s"),
    ("hilbert.chi_series.self_s", "s"),
    ("hilbert.divide_exact.self_s", "s"),
    ("hilbert.divide_exact.calls", "count"),
    ("hilbert.divide_exact.fail_frac", "ratio"),
    ("hilbert.series_of_ring.s", "s"),
    ("models.eval_model.self_s", "s"),
    ("models.eval_model.calls", "count"),
    ("problems.load_problem_file.s", "s"),
    ("fp.ProblemSpec.ring_series.s", "s"),
    ("trace.overhead_s", "s"),
)

# Spans of the set-up phase give these metrics; every other metric comes from
# the traced passes.
SETUP_METRICS = ("hilbert.series_of_ring", "problems.load_problem_file", "fp.ProblemSpec.ring_series")


class Tracer:
    """In-memory spans and counts for the fpfun layers listed in LAYERS."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, task, raised]
        self.task = "setup"
        self.counts: dict = {}
        self.originals: dict = {}
        self._stack: list = []
        self._bindings: list = []  # (namespace owner, attribute, original)

    def add(self, key: str, amount) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def top(self, key: str, value) -> None:
        self.counts[key] = max(self.counts.get(key, 0), value)

    def _wrap(self, name, fn, hook):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.task, False]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                span[5] = True
                raise
            finally:
                span[2] = perf_counter()
                stack.pop()
            if hook is not None:
                hook(self, args, result)
            return result

        return traced

    def install(self) -> None:
        fpfun_modules = [m for k, m in sys.modules.items() if k == "fpfun" or k.startswith("fpfun.")]
        for name, owner, attr, hook in LAYERS:
            original = getattr(owner, attr)
            self.originals[name] = original
            wrapper = self._wrap(name, original, hook)
            holders = [owner] if isinstance(owner, type) else [
                m for m in fpfun_modules if vars(m).get(attr) is original
            ]
            for holder in holders:
                setattr(holder, attr, wrapper)
                self._bindings.append((holder, attr, original))

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._bindings):
            setattr(holder, attr, original)
        self._bindings = []

    def summarize(self, task_prefix: str) -> dict:
        """name -> {calls, s, self_s, raised} over spans whose task starts with the prefix."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict = {}
        for i, (name, start, end, _, task, raised) in enumerate(self.spans):
            if not task.startswith(task_prefix):
                continue
            entry = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "raised": 0})
            entry["calls"] += 1
            entry["s"] += end - start
            entry["self_s"] += end - start - child[i]
            entry["raised"] += raised
        return out

    def table_misses(self, task_prefix: str) -> int:
        """ProblemSpec.table calls that had to compute the table."""
        return sum(
            1
            for name, _, _, parent, task, _ in self.spans
            if name == "ideals.graded_lengths" and parent >= 0
            and self.spans[parent][0] == "fp.table" and task.startswith(task_prefix)
        )

    def dump(self, path, extra: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, **extra}, fh)


def _frac(part, whole) -> float:
    return part / whole if whole else 0.0


def pass_metrics(tracer: Tracer, task_prefix: str, counts: dict) -> dict:
    """Per-layer metrics of one traced pass (without the set-up metrics)."""
    spans = tracer.summarize(task_prefix)

    def stat(name, key):
        return spans.get(name, {}).get(key, 0.0 if key in ("s", "self_s") else 0)

    nf_calls = stat("algebra.normal_form", "calls")
    table_calls = stat("fp.table", "calls")
    div_calls = stat("hilbert.divide_exact", "calls")
    return {
        "algebra.normal_form.self_s": stat("algebra.normal_form", "self_s"),
        "algebra.normal_form.calls": nf_calls,
        "algebra.normal_form.zero_frac": _frac(counts.get("algebra.normal_form.zero", 0), nf_calls),
        "ideals.buchberger.self_s": stat("ideals.buchberger", "self_s"),
        "ideals.buchberger.calls": stat("ideals.buchberger", "calls"),
        "ideals.buchberger.basis_max": counts.get("ideals.buchberger.basis_max", 0),
        "ideals.staircase_degree_counts.self_s": stat("ideals.staircase_degree_counts", "self_s"),
        "ideals.staircase_degree_counts.calls": stat("ideals.staircase_degree_counts", "calls"),
        "ideals.staircase.min_gens_max": counts.get("ideals.staircase.min_gens_max", 0),
        "ideals.staircase_numerator.terms": counts.get("ideals.staircase_numerator.terms", 0),
        "ideals.graded_lengths.s": stat("ideals.graded_lengths", "s"),
        "ideals.graded_lengths.calls": stat("ideals.graded_lengths", "calls"),
        "ideals.graded_lengths.entries": counts.get("ideals.graded_lengths.entries", 0),
        "fp.table.calls": table_calls,
        "fp.table.miss_frac": _frac(tracer.table_misses(task_prefix), table_calls),
        "fp.fn_eval.self_s": stat("fp.fn_eval", "self_s"),
        "fp.fn_eval.calls": stat("fp.fn_eval", "calls"),
        "fp.fn_eval.terms": counts.get("fp.fn_eval.terms", 0),
        "fp.fp_limit.s": stat("fp.fp_limit", "s"),
        "density.quadrature_fourier.self_s": stat("density.quadrature_fourier", "self_s"),
        "density.quadrature_fourier.calls": stat("density.quadrature_fourier", "calls"),
        "density.quadrature_fourier.terms": counts.get("density.quadrature_fourier.terms", 0),
        "density.gn_fourier_exact.self_s": stat("density.gn_fourier_exact", "self_s"),
        "hilbert.chi_series.self_s": stat("hilbert.chi_series", "self_s"),
        "hilbert.divide_exact.self_s": stat("hilbert.divide_exact", "self_s"),
        "hilbert.divide_exact.calls": div_calls,
        "hilbert.divide_exact.fail_frac": _frac(stat("hilbert.divide_exact", "raised"), div_calls),
        "models.eval_model.self_s": stat("models.eval_model", "self_s"),
        "models.eval_model.calls": stat("models.eval_model", "calls"),
    }


def layer_metrics(tracer: Tracer, per_pass: list, overhead_s: float) -> dict:
    """Per-layer metrics of a traced run, with units.

    Times are medians over the traced passes (``per_pass`` holds the
    pass_metrics of each); counts come from the first pass, as every pass
    does the same work.  The set-up metrics come from the set-up spans.
    """
    values = {}
    for name, unit in METRICS:
        if name in per_pass[0]:
            column = [m[name] for m in per_pass]
            values[name] = statistics.median(column) if unit == "s" else column[0]
    setup = tracer.summarize("setup")
    for span in SETUP_METRICS:
        values[f"{span}.s"] = setup.get(span, {}).get("s", 0.0)
    values["trace.overhead_s"] = overhead_s
    return {name: {"value": values[name], "unit": unit} for name, unit in METRICS}


def counts_repeat(per_pass: list) -> bool:
    """Whether every traced pass gave the same counts and ratios."""
    names = [n for n, unit in METRICS if unit != "s" and n in per_pass[0]]
    return all(m[n] == per_pass[0][n] for m in per_pass for n in names)
