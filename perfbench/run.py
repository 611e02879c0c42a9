"""Closed-loop benchmark of the haan solvers.

One client solves a seeded corpus, one instance after another, and checks
every result against a reference that no solver produced. Run it from the
root of a checkout:

    python3 perfbench/run.py --workload sweep-small --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` makes a traced
run and prints the per-layer metrics. The last line of stdout is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``. Workloads, metrics and their intent are described in
README.md beside this file.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

WORKLOAD_NAMES = ("sweep-small", "vcxp-cover", "halfsep-guess")

# Set-up is timed in fresh processes, several per run; the median is reported.
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60.0

# No case is started later than this after launch, so a slow program still
# ends the run well within three minutes.
RUN_CAP_S = 140.0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true",
                        help="set up once, print 'ready' and exit (timed by the parent run)")
    return parser.parse_args(argv)


def probe_setup_seconds(workload: str, seed: int) -> float:
    """Seconds from spawning a fresh interpreter until it is ready to make
    its first timed solve: imports, corpus, warm-up solve."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
            "--seed", str(seed), "--seconds", "0", "--probe"]
    start = time.perf_counter()
    with subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.stdout.read()
            code = proc.wait(timeout=PROBE_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"set-up probe failed with exit code {code}")
    return elapsed


def main(argv=None) -> int:
    launched = time.monotonic()
    args = parse_args(argv)
    if not (SRC / "haan" / "__init__.py").is_file():
        print(f"perfbench: no haan sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import haan

    if not Path(haan.__file__).resolve().is_relative_to(SRC):
        print(f"perfbench: haan imported from {haan.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from bench import Bench, BenchError, counts, end_to_end, pass_seconds, per_layer
    from tracing import Tracer
    from yardstick import NOMINAL_S

    bench = Bench(args.workload, args.seed)
    if args.probe:
        bench.setup()
        print("ready", flush=True)
        return 0

    stop_at = launched + RUN_CAP_S
    tracer = Tracer() if args.trace else None
    setup_samples = [] if args.trace else [
        probe_setup_seconds(args.workload, args.seed) for _ in range(SETUP_PROBES)]
    try:
        if tracer is None:
            bench.setup()
        else:
            with tracer.active():
                bench.setup()
        bench.prepare_references()
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    notes = []
    if tracer is None:
        reps = bench.measure(args.seconds, stop_at)
        scale = bench.yard.scale()
        metrics, n_calls = end_to_end(bench.cases, reps, scale)
        metrics["setup_s"] = (statistics.median(setup_samples), "s")
        metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
        notes.append(f"solve_ms percentiles over {n_calls} distinct solver calls, "
                     "each the median of its repetitions")
        notes.append(f"solve times are scaled by {scale:.4f}: the nominal {NOMINAL_S * 1e3:g} ms "
                     f"over the median of {len(bench.yard.seconds)} yardstick batches")
        notes.append(f"one corpus pass took {pass_seconds(reps):.4f} s unscaled")
        notes.append(f"setup_s is the median of {SETUP_PROBES} fresh-process set-ups")
    else:
        origin = time.perf_counter()
        untraced, reps = bench.measure(args.seconds, stop_at, tracer)
        metrics = per_layer(tracer, reps, untraced)
        span_file = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.tsv"
        tracer.dump(span_file, origin)
        notes.append(f"untraced pass {pass_seconds(untraced):.3f} s, traced pass "
                     f"{pass_seconds(reps):.3f} s")
        reps = [u + t for u, t in zip(untraced, reps)]
        notes.append(f"{len(tracer.spans)} spans written to {span_file.relative_to(ROOT)}; "
                     "per-layer figures are per corpus pass")
    attempted, failures, wrong = counts(bench.cases, reps)
    for failure in failures[:20]:
        print(f"FAILED {failure}")
    for note in notes:
        print(f"note: {note}")
    print(f"note: {len(bench.cases)} cases, {attempted} solver calls attempted")
    result = {
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
