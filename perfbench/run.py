"""The ctfm-lab benchmark: seeded workloads, end-to-end metrics, traced layers.

Run from the repository root:

    python3 perfbench/run.py --workload analysis-sweep --seed 1 --seconds 30 --trace 0

One process, one closed-loop caller: each op starts when the previous one
has finished and been checked.  ``--trace 0`` measures the end-to-end
metrics with tracing off.  ``--trace 1`` alternates an untraced and a traced
op on the same input and reports per-op layer metrics, with the tracing
overhead as traced minus untraced median op latency; its spans are written
to ``.perfbench_out/`` when the run ends.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
are a readable report.  The package is imported from ``src/`` next to this
directory, never from an installed copy.
"""

import os

# Pin every BLAS/OpenMP pool to one thread before numpy is first imported.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

WORKLOAD_NAMES = ("compare-paper", "analysis-sweep", "receiver-long")

# setup_s is the median over this many fresh interpreters.
SETUP_LAUNCHES = 5
SETUP_TIMEOUT_S = 60
# The tail percentile keeps at least this many samples above it.
TAIL_SAMPLES_ABOVE = 10
# Op failures whose traceback or check messages are echoed to stderr.
REPORTED_FAILURES = 5

# The result's metrics.  latency_s.tail, artifact_mb_per_op and error_rate
# are printed in the report only: the tail's run-to-run spread on a shared
# machine exceeds any bound worth gating on, artifact size is 0 on two
# workloads, and the error rate is 0 when the program is correct and is
# carried by the result's attempted and failed counts.
END_TO_END = (
    ("setup_s", "s"),
    ("latency_s.p50", "s"),
    ("throughput_samples_per_s", "samples/s"),
    ("peak_rss_mb", "MiB"),
)


class HarnessError(Exception):
    """The benchmark could not run; no result is printed."""


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def import_package():
    """Import ctfm_lab from this checkout's src/ and return the modules used."""
    if not (SRC / "ctfm_lab" / "__init__.py").is_file():
        raise HarnessError(f"no ctfm_lab package under {SRC}")
    sys.path.insert(0, str(SRC))
    import numpy

    import ctfm_lab

    where = Path(ctfm_lab.__file__).resolve().parent
    if where != (SRC / "ctfm_lab").resolve():
        raise HarnessError(f"ctfm_lab was imported from {where}, not from {SRC}")
    import tracing
    import workloads

    return numpy, tracing, workloads


class Runner:
    """Runs ops in a closed loop and keeps every outcome."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.reports: list[str] = []
        self.counts: Counter = Counter()

    def op(self, i: int, tracer=None) -> float:
        """Run and check op ``i``; returns its latency in seconds."""
        failure = None
        # A collection here, not one the harness's own garbage triggers inside
        # the next op, keeps the collector's work per op the same.
        gc.collect()
        span = tracer.begin_op(i) if tracer else None
        start = time.perf_counter()
        try:
            result = self.workload.run(i)
        except (Exception, SystemExit) as exc:  # cli exits 2 or 3 on errors
            failure = "".join(traceback.format_exception(exc)).rstrip()
        end = time.perf_counter()
        if tracer:
            tracer.end_op(span, start, end, failure is not None)
        if failure is None:
            try:
                problems, counts = self.workload.check(i, result)
            except Exception as exc:  # output too malformed to check
                problems, counts = [f"output check raised {exc!r}"], {}
            if problems:
                failure = "; ".join(problems)
            self.counts.update(counts)
            if tracer:
                tracer.counts.update(counts)
        self.attempted += 1
        if failure is not None:
            self.failed += 1
            if len(self.reports) < REPORTED_FAILURES:
                self.reports.append(f"op {i} failed: {failure}")
        return end - start


def measure_setup(workload) -> list[float]:
    """Wall time of fresh interpreters that import ctfm_lab and load the first config."""
    code, argv, stdin_text = workload.setup_probe()
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(SETUP_LAUNCHES):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", code, *argv],
            input=stdin_text,
            capture_output=True,
            text=True,
            env=env,
            cwd=ROOT,
            timeout=SETUP_TIMEOUT_S,
        )
        times.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise HarnessError(f"set-up launch exited {proc.returncode}: {proc.stderr.strip()}")
    return times


def closed_loop(runner, seconds: float, tracer=None):
    """Whole passes over the input pool until ``seconds`` have passed.

    The first pass is the warm-up: it is checked but not timed, and lets
    lazy imports, FFT plans and allocator pools settle for every input.
    Stopping only at whole passes keeps the input mix identical from run to
    run.  With a tracer, each input runs once untraced and once traced, the
    order alternating so that neither side always follows the other.
    """
    pool = runner.workload.pool_size
    for i in range(pool):
        runner.op(i)
    gc.freeze()  # long-lived objects so far stay out of later collections
    latencies, samples = [], 0
    start = time.perf_counter()
    i = pool
    while True:
        if tracer and i % 2:
            traced_op(runner, i, tracer)
        latencies.append(runner.op(i))
        if tracer and not i % 2:
            traced_op(runner, i, tracer)
        samples += runner.workload.samples(i)
        if (i + 1) % pool == 0 and time.perf_counter() - start >= seconds:
            return latencies, samples
        i += 1


def traced_op(runner, i: int, tracer) -> None:
    tracer.install()
    try:
        runner.op(i, tracer)
    finally:
        tracer.uninstall()


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples above) of the highest nearest-rank
    percentile that keeps TAIL_SAMPLES_ABOVE samples above it; the maximum
    when there are too few samples for that."""
    ordered = sorted(latencies)
    rank = len(ordered) - TAIL_SAMPLES_ABOVE
    if rank < 1:
        rank = len(ordered)
    return ordered[rank - 1], 100.0 * rank / len(ordered), len(ordered) - rank


def metadata(args, numpy) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "closed_loop_callers": 1,
    }


def end_to_end(runner, latencies, samples) -> tuple[dict, list[str]]:
    setup = measure_setup(runner.workload)
    n = len(latencies)
    tail_value, tail_pct, above = tail(latencies)
    values = {
        "setup_s": statistics.median(setup),
        "latency_s.p50": statistics.median(latencies),
        "throughput_samples_per_s": samples / sum(latencies),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    warmup = runner.attempted - n
    files = runner.counts.get("cli.files_written", 0)
    artifact_mb = runner.counts.get("cli.bytes_written", 0) / 1e6 / runner.attempted
    report = [
        ("setup_s", values["setup_s"], "s", f"median of {len(setup)} launches"),
        ("latency_s.p50", values["latency_s.p50"], "s", f"n={n} ops"),
        ("latency_s.tail", tail_value, "s", f"p{tail_pct:.2f}, {above} samples above, n={n}"),
        ("throughput_samples_per_s", values["throughput_samples_per_s"], "samples/s", ""),
        ("peak_rss_mb", values["peak_rss_mb"], "MiB", ""),
        ("artifact_mb_per_op", artifact_mb, "MB", f"{files / runner.attempted:g} files per op"),
        ("error_rate", runner.failed / runner.attempted, "1",
         f"{runner.failed} of {runner.attempted} ops, {warmup} warm-up"),
    ]
    lines = [f"{name:<28} {value:.6g} {unit}  {note}".rstrip() for name, value, unit, note in report]
    return values, lines


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        numpy, tracing, workloads = import_package()
    except (HarnessError, ImportError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    meta = metadata(args, numpy)
    work = OUT_DIR / f"work-{os.getpid()}"
    try:
        runner = Runner(workloads.WORKLOADS[args.workload](args.seed, ROOT, work))
        tracer = tracing.Tracer() if args.trace else None
        latencies, samples = closed_loop(runner, args.seconds, tracer)
        problems = []
        if tracer:
            layer, problems = tracer.summary(statistics.median(latencies))
            units = {name: unit for name, unit, _ in tracing.per_layer_metrics()}
            metrics = {name: {"value": layer[name], "unit": units[name]} for name in units}
            lines = [f"{name:<48} {layer[name]:.6g} {unit}" for name, unit in units.items()]
            spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
            tracer.write(spans_path, meta)
            lines.append(f"spans: {len(tracer.spans)} written to {spans_path.relative_to(ROOT)}")
        else:
            values, lines = end_to_end(runner, latencies, samples)
            metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    except HarnessError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for report in runner.reports + problems:
        print(f"perfbench: {report}", file=sys.stderr)
    print("# " + json.dumps(meta))
    for line in lines:
        print(line)
    correct = runner.failed == 0 and not problems
    print(json.dumps({
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
