"""One workload process: set up fpfun on the generated problem files, then run
timed passes over the workload's tasks.

Started by run.py, one single-threaded process per workload.  It prints
``ready`` once its inputs are ready (the end of set-up) and, unless
``--setup-only`` is given, one JSON line with the results of its passes.

Each pass starts from fresh ProblemSpec objects, so every pass computes every
table once.  A pass's time is the sum of the timed ``work`` calls; checks run
outside it.  With ``--trace 1`` the first half of the budget runs untraced
passes and the second half traced ones, and the traced-minus-untraced median
pass time is the tracing overhead.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import signal
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

# A task running longer than this is stopped and counted as failed.
TASK_LIMIT_S = 60


class TaskTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise TaskTimeout(f"took longer than {TASK_LIMIT_S} s")


def import_fpfun():
    """Import fpfun from this checkout's sources and nowhere else."""
    sys.path.insert(0, str(SRC))
    import fpfun

    if Path(fpfun.__file__).resolve().parent != SRC / "fpfun":
        raise ImportError(f"fpfun was imported from {fpfun.__file__}, not from {SRC}")


def run_pass(tasks, specs, label, fp, tracer=None) -> dict:
    """Run every task once on fresh ProblemSpecs; return per-task times and failures."""
    fresh = {}
    results = []
    total = 0.0
    for task in tasks:
        spec = fresh.get(task.problem)
        if spec is None:
            base = specs[task.problem]
            spec = fresh[task.problem] = fp.ProblemSpec(base.ring, base.ideal, dim_override=base.dim_override)
        if tracer is not None:
            tracer.task = f"{label}/{task.name}"
        signal.alarm(TASK_LIMIT_S)
        start = perf_counter()
        try:
            output = task.work(spec)
        except Exception as exc:
            elapsed = perf_counter() - start
            signal.alarm(0)
            message = f"raised {type(exc).__name__}: {exc}"
        else:
            elapsed = perf_counter() - start
            signal.alarm(0)
            try:
                message = task.check(output)
            except Exception as exc:
                message = f"check raised {type(exc).__name__}: {exc}"
        total += elapsed
        results.append([task.name, elapsed, message])
    return {"label": label, "seconds": total, "tasks": results}


def run_passes(tasks, specs, budget, label, fp, tracer=None, counts=None) -> list:
    """Passes until the next one would end past the budget; at least one."""
    passes = []
    start = perf_counter()
    while True:
        gc.collect()
        if tracer is not None:
            tracer.counts = {}
        began = perf_counter()
        passes.append(run_pass(tasks, specs, f"{label}{len(passes)}", fp, tracer))
        if counts is not None:
            counts.append((f"{passes[-1]['label']}/", tracer.counts))
        last = perf_counter() - began
        if perf_counter() - start + last > budget:
            return passes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--manifest", required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-out")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import_fpfun()
    from fpfun import fp, problems

    import spans
    import workloads

    tracer = spans.Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    manifest_path = Path(args.manifest)
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    names = [entry["problem"] for entry in manifest["tasks"]]
    files = {n: problems.load_problem_file(str(manifest_path.parent / f"{n}.json")) for n in names}
    specs = {n: pf.to_problem() for n, pf in files.items()}
    for spec in specs.values():
        spec.ring_series()
    print("ready", flush=True)
    if args.setup_only:
        return 0
    if tracer is not None:
        tracer.uninstall()

    tasks = workloads.build_tasks(manifest, files)
    signal.signal(signal.SIGALRM, _alarm)
    budget = args.seconds / 2 if tracer is not None else args.seconds
    untraced = run_passes(tasks, specs, budget, "u", fp)
    result = {"passes": untraced, "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    if tracer is not None:
        counts: list = []
        tracer.install()
        traced = run_passes(tasks, specs, budget, "t", fp, tracer, counts)
        tracer.uninstall()
        overhead = statistics.median(p["seconds"] for p in traced) - statistics.median(
            p["seconds"] for p in untraced
        )
        per_pass = [spans.pass_metrics(tracer, prefix, c) for prefix, c in counts]
        result["traced_passes"] = traced
        result["layers"] = spans.layer_metrics(tracer, per_pass, overhead)
        result["counts_repeat"] = spans.counts_repeat(per_pass)
        if args.trace_out:
            tracer.dump(args.trace_out, {"pass_counts": counts, "passes": untraced + traced})
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
