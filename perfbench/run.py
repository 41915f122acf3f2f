"""fpfun benchmark: seeded workloads, exact output checks, end-to-end and
per-layer metrics.

Run from the root of a checkout (standard library only, nothing to build):

    python3 perfbench/run.py --workload cubic_groebner --seed 1 --seconds 30 --trace 0

Workloads (see BENCHMARK.json for why each was chosen):

- ``cubic_groebner``: Fermat cubic, p=5 levels 0..3 and p=2 levels 0..7;
  Groebner bases plus box staircase counts.
- ``monomial_staircase``: m-primary monomial ideals with 4..20 generators at
  p=2 up to q=8; staircase counting only, no Groebner basis.
- ``limit_eval``: three complete intersections with proved closed forms at
  p=2, n_max=14; level evaluation, limits, density transforms, Betti check.

The inputs are generated from ``--seed`` into ``perfbench/out/``; fpfun reads
only the generated problem files.  Every output is checked against an exact
oracle (workloads.py); a failed check counts in ``failed`` and never stops
the run.  The grids stay away from tiny |y| and large |Im y|, where fpfun has
known numeric defects that this benchmark does not cover (see inputs.py).

``--trace 0`` reports the end-to-end metrics: ``wall_s``, the median time of
one pass over the workload's tasks; ``setup_s``, the median over several
fresh processes of the time from process start until the problem files are
loaded and the ring series computed; ``peak_rss_mb`` of the workload process.
``--trace 1`` reports the per-layer metrics of spans.py from a traced run,
together with the tracing overhead.  Lines before the last describe the run;
the last line is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.  With ``--trace 1`` the spans go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402

# Fresh processes whose set-up time is measured; setup_s is their median.
SETUP_SAMPLES = 11
# The run ends within this many seconds of its start, whatever the workload does.
DEADLINE_S = 170


class BenchError(Exception):
    pass


def _ready(proc) -> None:
    line = proc.stdout.readline()
    if line.strip() != "ready":
        proc.kill()
        proc.wait()
        raise BenchError(f"workload process failed during set-up (exit {proc.returncode})")


def setup_time(cmd) -> float:
    """Seconds from starting a set-up-only process until its inputs are ready."""
    start = monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    _ready(proc)
    elapsed = monotonic() - start
    proc.communicate()
    if proc.returncode:
        raise BenchError(f"set-up process exited with {proc.returncode}")
    return elapsed


def run_workload(cmd, deadline: float):
    """Start the workload process; return (set-up seconds, its JSON result)."""
    start = monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    _ready(proc)
    ready = monotonic() - start
    try:
        stdout, _ = proc.communicate(timeout=max(1.0, deadline - monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("workload process passed the run deadline and was stopped")
    if proc.returncode:
        raise BenchError(f"workload process exited with {proc.returncode}")
    return ready, json.loads(stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="fpfun benchmark")
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    began = monotonic()

    if not (ROOT / "src" / "fpfun" / "__init__.py").is_file():
        print(f"error: no fpfun sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    out_dir = HERE / "out" / f"{args.workload}-s{args.seed}"
    manifest = inputs.generate(args.workload, args.seed, out_dir)
    worker = [sys.executable, str(HERE / "worker.py"), "--manifest", str(manifest)]
    setup_only = worker + ["--setup-only"]
    trace_out = out_dir / "trace.json"
    try:
        # The first start also compiles fpfun's bytecode cache; it is not timed.
        setup_time(setup_only)
        # Half the set-up samples come before the workload process and half
        # after it, so setup_s does not rest on the machine's speed at one moment.
        samples = [setup_time(setup_only) for _ in range(SETUP_SAMPLES // 2)]
        ready, result = run_workload(
            worker + ["--seconds", str(args.seconds), "--trace", str(args.trace), "--trace-out", str(trace_out)],
            began + DEADLINE_S,
        )
        samples += [ready] + [setup_time(setup_only) for _ in range(SETUP_SAMPLES // 2)]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    (out_dir / "result.json").write_text(json.dumps({"setup_samples": samples, **result}), encoding="utf-8")

    runs = result["passes"] + result.get("traced_passes", [])
    attempted = sum(len(p["tasks"]) for p in runs)
    failures = [(p["label"], name, msg) for p in runs for name, _, msg in p["tasks"] if msg]
    for label, name, msg in failures[:20]:
        print(f"FAILED {label} {name}: {msg}")
    wall = [p["seconds"] for p in result["passes"]]
    print(f"workload {args.workload} seed {args.seed}: {len(wall)} untraced passes, {attempted} tasks")
    print("pass wall_s: " + ", ".join(f"{w:.3f}" for w in wall))
    print("setup_s samples: " + ", ".join(f"{s:.4f}" for s in samples))
    end_to_end = {
        "wall_s": {"value": statistics.median(wall), "unit": "s"},
        "setup_s": {"value": statistics.median(samples), "unit": "s"},
        "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
        "fail_frac": {"value": len(failures) / attempted, "unit": "ratio"},
    }
    shown = dict(end_to_end)
    if args.trace:
        print(f"traced passes: {len(result['traced_passes'])}; counts repeat across them: {result['counts_repeat']}")
        print(f"spans written to {trace_out.relative_to(ROOT)}")
        shown.update(result["layers"])
    for name, m in shown.items():
        print(f"  {name:42s} {m['value']:.6g} {m['unit']}")
    # fail_frac is 0 whenever the run is correct, so it travels as "failed"
    # and "attempted" rather than as a metric.
    metrics = result["layers"] if args.trace else {k: v for k, v in end_to_end.items() if k != "fail_frac"}
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
