"""Benchmark of the mcident pipeline.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout: the package is imported from its
`src/` directory, with BLAS pinned to one thread. The run makes its inputs
from the seed, sets them up several times (the median is `setup_s`), then
runs whole rounds of the workload until the next round would end after
`--seconds`. Every round times the same operations. Throughput and latency
come from each operation's median time over the run, every call's time put
on the scale of the host at its usual speed by a reference computation timed
around it (see scaled_medians). The last line of standard output is one
JSON object with `correct`, `attempted`, `failed` and `metrics`: the
end-to-end metrics with `--trace 0`, the per-layer metrics of a traced run
with `--trace 1`. Raw figures, and the spans of a traced run, go to
perfbench/results/.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

# One BLAS thread; set before numpy is first imported, in import_package().
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5
# Fastest time of workloads.reference() on the measuring machine (2 CPUs,
# Python 3.11, numpy 2.4) when nothing else slowed it down: the time of one
# reference computation on the scale that the timings are reported in.
REFERENCE_S = 0.0108

END_TO_END = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("throughput_per_s", "1/s"),
    ("latency_s", "s"),
]


# Times `import mcident` (with numpy and scipy) in a fresh interpreter.
IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "t = time.perf_counter(); import mcident; print(time.perf_counter() - t)")


def import_package() -> None:
    """Import mcident from the checkout's src/."""
    sys.path.insert(0, str(SRC))
    import mcident  # noqa: F401  (imports every module of the package)

    where = Path(mcident.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise ImportError(f"mcident was imported from {where}, not from {SRC}")


def import_seconds() -> float:
    """Import time of the package in a fresh interpreter."""
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)],
                          capture_output=True, text=True, check=True, timeout=120)
    return float(proc.stdout.split()[-1])


def scaled_medians(rounds: list) -> dict:
    """Each operation's median time over the run, every call's time first put
    on the scale of the host at its usual speed.

    On a shared host the other tenants slow every call down, by up to two
    times, for stretches of seconds to minutes. The reference computation
    timed just before and just after each call slows down with them. A
    call's time is therefore multiplied by REFERENCE_S over the mean of
    those two reference times, and what is left is the program's own cost.
    """
    per_op: dict[str, list[float]] = {}
    for rnd in rounds:
        for op, seconds, reference_s in rnd.times:
            per_op.setdefault(op, []).append(seconds * REFERENCE_S / reference_s)
    return {op: statistics.median(times) for op, times in per_op.items()}


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="smallest inputs of each workload, for the benchmark's own tests")
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    return args


def run(args) -> dict:
    """One run of a workload; returns the result object and writes raw figures."""
    import_package()
    sys.path.insert(0, str(HERE))
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}; "
                         f"choose from {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload](tiny=args.tiny)

    import_times, setup_times = [], []
    for _ in range(SETUP_REPEATS):
        import_times.append(import_seconds())
        start = time.perf_counter()
        workload.setup(args.seed)
        setup_times.append(time.perf_counter() - start)

    # Not timed: loads what the program's first calls load lazily.
    workload.warm_up()

    tracer = tracing.Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    rounds = []
    traced = []
    watch = workloads.Stopwatch()
    start = time.perf_counter()
    try:
        while True:
            # A traced run traces every other round; the rounds between give
            # the untraced figure that the tracing overhead is measured against.
            trace_this = tracer is not None and len(rounds) % 2 == 0
            watch.tracer = tracer if trace_this else None
            t = time.perf_counter()
            rnd = workload.run_round(len(rounds), watch)
            rnd.wall_s = time.perf_counter() - t
            rounds.append(rnd)
            traced.append(trace_this)
            elapsed = time.perf_counter() - start
            typical = statistics.median(x.wall_s for x in rounds)
            if elapsed + typical > args.seconds:
                break
    finally:
        problems = workload.finish()
        if tracer is not None:
            tracer.uninstall()
    measured_s = time.perf_counter() - start

    problems = [p for rnd in rounds for p in rnd.problems] + problems
    failures = [f for rnd in rounds for f in rnd.failures]
    attempted = sum(rnd.attempted for rnd in rounds)
    failed = sum(rnd.failed for rnd in rounds)
    op_times = scaled_medians(rounds)

    if tracer is None:
        values = {
            "setup_s": statistics.median(import_times) + statistics.median(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            # One round's work over the time of its operations.
            "throughput_per_s":
                workload.units_per_round / sum(op_times.values()) if op_times else 0.0,
            "latency_s": workload.latency(op_times) if op_times else 0.0,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    else:
        busy = [sum(seconds * REFERENCE_S / ref for _, seconds, ref in rnd.times)
                for rnd in rounds]
        on = [b for b, t in zip(busy, traced) if t]
        off = [b for b, t in zip(busy, traced) if not t]
        overhead = statistics.median(on) / statistics.median(off) - 1.0 if off else 0.0
        values = tracing.layer_metrics(tracer.spans, sum(traced), overhead)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit, _ in tracing.PER_LAYER}

    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    results = workloads.RESULTS
    results.mkdir(exist_ok=True)
    raw = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "tiny": args.tiny, "measured_s": measured_s,
        "import_times_s": import_times, "setup_times_s": setup_times,
        "operation_times_s": op_times,
        "rounds": [{"wall_s": rnd.wall_s, "times_s": rnd.times,
                    "traced": t}
                   for rnd, t in zip(rounds, traced)],
        "failures": failures, "problems": problems, "result": result,
    }
    (results / f"{args.workload}.json").write_text(json.dumps(raw, indent=1))
    if tracer is not None:
        tracer.write(results / f"{args.workload}.trace.json",
                     {"workload": args.workload, "seed": args.seed, "traced_rounds": sum(traced)})
    for f in failures[:20]:
        print(f"failed: {f}", file=sys.stderr)
    for p in problems[:20]:
        print(f"problem: {p}", file=sys.stderr)
    return result


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        result = run(args)
    except ImportError as exc:
        print(f"cannot run the benchmark: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
