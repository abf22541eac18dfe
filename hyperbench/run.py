"""hyperlog benchmark: one workload, one seed, one closed-loop client.

Run from the root of a hyperlog checkout (the directory holding ``src/``
and ``configs/``):

    python3 hyperbench/run.py --workload eval-deep --seed 1 --seconds 45 --trace 0

``--trace 0`` times tasks with tracing off and prints the end-to-end
metrics; ``--trace 1`` runs a fixed list of tasks, the workload's first
``TRACE_CYCLES`` cycles, each once traced and once untraced, and prints
the per-layer metrics derived from the spans (it does not read
``--seconds``).  The last line of
standard output is one JSON object; the lines before it start with ``#``
and describe the environment and the run.  See NOTES.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

NPROC = len(os.sched_getaffinity(0))
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# One BLAS thread, set before anything imports numpy: the client is a single
# closed loop, the integrator's products are small (7 x 2047), and on a
# 2-core machine a second BLAS thread made eval-deep slower (0.82 s against
# 0.69 s median task) and 2.5x slower still whenever the other core was busy.
for _var in BLAS_VARS:
    os.environ[_var] = "1"

import workloads  # noqa: E402  (imports numpy, so after the cap)
from workloads import Outcome  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_PROBES = 5
# Throughput is the median over windows of at least this much task time, so
# that a stall of the shared machine moves one window, not the whole run.
WINDOW_S = 5.0
# Task time between two timings of the workload's reference kernel.
MARK_S = 0.5
EXIT_USAGE = 2
EXIT_SETUP_FAILED = 3


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-probe", action="store_true",
        help="only set up the workload (used to time set-up in a fresh process)",
    )
    return parser.parse_args(argv)


def _checkout_root():
    root = os.getcwd()
    needed = [
        os.path.join(root, "src", "hyperlog", "__init__.py"),
        os.path.join(root, "configs", "counterexample.yaml"),
        os.path.join(root, "configs", "polylog.yaml"),
    ]
    missing = [p for p in needed if not os.path.isfile(p)]
    return root, missing


def _setup(workload_cls, root, workdir):
    """Import the program, load or generate configs, run the warm-up task."""
    workload = workload_cls(root, workdir)
    workload.setup()
    task = workload.warmup_task()
    prepared = workload.prepare(task)
    outcome = workload.check(task, prepared, workload.run(prepared))
    if not outcome.ok:
        raise RuntimeError(f"warm-up task failed its oracle: {outcome.note}")
    return workload


def _time_setup(args, workload_cls):
    """Median wall time of fresh processes that only set up the workload,
    each scaled by the reference kernel timed right after it (see
    Loop.window_scales); returns (scaled, unscaled) medians."""
    times = []
    scaled = []
    for _ in range(SETUP_PROBES):
        cmd = [
            sys.executable, os.path.join(HERE, "run.py"), "--setup-probe",
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", "0",
        ]
        start = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
        times.append(time.perf_counter() - start)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise RuntimeError(f"set-up probe exited {proc.returncode}")
        scaled.append(times[-1] * workload_cls.REFERENCE_S / _time_reference(workload_cls.reference))
    return statistics.median(scaled), statistics.median(times)


def _time_reference(kernel):
    """Median of three timings of a reference kernel, in seconds."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


class Loop:
    """Closed loop: the next task starts when the previous one returns.

    With ``calibrate``, the workload's reference kernel is timed before the
    first task and after each MARK_S of task time, outside the task timings.
    """

    def __init__(self, workload, tracer=None, calibrate=False):
        self.workload = workload
        self.tracer = tracer
        self.calibrate = calibrate
        self.latencies = []
        self.strata = []
        self.outcomes = []
        self.cycle_ends = []  # task count after each whole cycle
        self.marks = []  # (tasks done, reference kernel seconds)
        self.busy = 0.0
        self._marked_busy = 0.0

    def _mark(self):
        self.marks.append((len(self.latencies), _time_reference(self.workload.reference)))
        self._marked_busy = self.busy

    def run_task(self, task):
        prepared = self.workload.prepare(task)
        tracer = self.tracer
        if tracer is not None:
            tracer.attach(len(self.latencies))
        start = time.perf_counter()
        try:
            result = self.workload.run(prepared)
        except Exception:  # a task that raises counts as failed; keep going
            result = None
            note = traceback.format_exc(limit=3)
        elapsed = time.perf_counter() - start
        if tracer is not None:
            tracer.detach()
        self.busy += elapsed
        self.latencies.append(elapsed)
        self.strata.append(task.stratum)
        if result is not None:
            try:
                outcome = self.workload.check(task, prepared, result)
            except Exception:  # malformed output fails the oracle
                note = traceback.format_exc(limit=3)
                result = None
        if result is None:
            outcome = Outcome(False, note=note)
        if tracer is not None:
            tracer.counts["cli.output_bytes"] += outcome.output_bytes
        if not outcome.ok:
            sys.stderr.write(f"# task {len(self.latencies) - 1} failed: {task!r}: {outcome.note}\n")
        self.outcomes.append(outcome)
        if self.calibrate and self.busy - self._marked_busy >= MARK_S:
            self._mark()

    def run_for(self, cycles, seconds):
        """Run whole cycles of tasks until the summed task time reaches
        ``seconds``."""
        if self.calibrate and not self.marks:
            self._mark()
        while self.busy < seconds or not self.latencies:
            for task in next(cycles):
                self.run_task(task)
            self.cycle_ends.append(len(self.latencies))

    def windows(self):
        """(start, end) task ranges of consecutive whole cycles holding at
        least WINDOW_S of task time, a short remainder joining the last."""
        ends = []
        start = busy = 0
        for end in self.cycle_ends:
            busy += sum(self.latencies[start:end])
            start = end
            if busy >= WINDOW_S:
                ends.append(end)
                busy = 0
        if not ends:
            ends.append(len(self.latencies))
        else:
            ends[-1] = len(self.latencies)
        return list(zip([0] + ends[:-1], ends))

    def window_scales(self, windows):
        """Per window, the workload's REFERENCE_S over the median reference
        time measured at and between its ends: the factor that turns the
        window's task time into task time on the baseline machine."""
        scales = []
        for start, end in windows:
            times = [t for done, t in self.marks if start <= done <= end]
            scales.append(self.workload.REFERENCE_S / statistics.median(times))
        return scales

    def window_rates(self, windows, scales):
        """(passed tasks per second, coefficients per second) of each window,
        task time scaled by the window's factor."""
        rates = []
        for (start, end), scale in zip(windows, scales):
            passed = [o for o in self.outcomes[start:end] if o.ok]
            busy = sum(self.latencies[start:end]) * scale
            rates.append((len(passed) / busy, sum(o.coeffs for o in passed) / busy))
        return rates

    def stratified_median_latency(self, windows, scales):
        """Median over strata of each stratum's median task latency, each
        latency scaled by its window's factor, so that the draws inside a
        stratum do not decide which task sits mid-run."""
        by_stratum = {}
        for (start, end), scale in zip(windows, scales):
            for k in range(start, end):
                by_stratum.setdefault(self.strata[k], []).append(self.latencies[k] * scale)
        return statistics.median(statistics.median(v) for v in by_stratum.values())


def _summary(loops):
    outcomes = [o for loop in loops for o in loop.outcomes]
    failed = sum(1 for o in outcomes if not o.ok)
    worst = max((o.err_over_tol for o in outcomes), default=0.0)
    return len(outcomes), failed, worst


def _tail(latencies):
    """(percentile, value) of the highest percentile with at least ten
    samples beyond it, or None when the run has too few tasks."""
    n = len(latencies)
    if n < 11:
        return None
    return int(100 * (n - 10) / n), sorted(latencies)[n - 11]


def _env_line():
    import numpy

    return (
        f"# env nproc={NPROC} python={platform.python_version()} numpy={numpy.__version__} "
        f"blas_threads={os.environ['OPENBLAS_NUM_THREADS']}"
    )


def main(argv=None):
    args = _parse_args(argv)
    root, missing = _checkout_root()
    if missing:
        sys.stderr.write(
            "hyperbench: run from the root of a hyperlog checkout; missing "
            + ", ".join(missing) + "\n"
        )
        return EXIT_USAGE
    if args.workload not in workloads.WORKLOADS:
        sys.stderr.write(f"hyperbench: unknown workload {args.workload!r}\n")
        return EXIT_USAGE
    sys.path.insert(0, os.path.join(root, "src"))
    workload_cls = workloads.WORKLOADS[args.workload]
    work_root = os.path.join(root, ".hyperbench")
    workdir = os.path.join(work_root, f"run-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        if args.setup_probe:
            _setup(workload_cls, root, workdir)
            return 0
        return _benchmark(args, workload_cls, root, workdir, work_root)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(work_root)  # only when no trace was left in it
        except OSError:
            pass


def _benchmark(args, workload_cls, root, workdir, work_root):
    try:
        setup_s, setup_unscaled = (None, None) if args.trace else _time_setup(args, workload_cls)
        workload = _setup(workload_cls, root, workdir)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        sys.stderr.write(f"hyperbench: set-up failed: {exc}\n")
        return EXIT_SETUP_FAILED
    print(_env_line())
    cycles = workload.cycles(args.seed)

    if not args.trace:
        loop = Loop(workload, calibrate=True)
        loop.run_for(cycles, args.seconds)
        attempted, failed, worst = _summary([loop])
        windows = loop.windows()
        scales = loop.window_scales(windows)
        rates = loop.window_rates(windows, scales)
        metrics = {
            "setup_s": (setup_s, "s"),
            "tasks_per_s": (statistics.median(r[0] for r in rates), "1/s"),
            "task_p50_ms": (loop.stratified_median_latency(windows, scales) * 1e3, "ms"),
            "coeffs_per_s": (statistics.median(r[1] for r in rates), "1/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        ones = [1.0] * len(windows)
        raw = loop.window_rates(windows, ones)
        tail = _tail(loop.latencies)
        tail_txt = f"p{tail[0]}={tail[1] * 1e3:.1f}ms" if tail else "n/a (too few tasks)"
        print(
            f"# run workload={args.workload} seed={args.seed} tasks={attempted} "
            f"busy_s={loop.busy:.3f} windows={len(windows)} failed_frac={failed / attempted:.4g} "
            f"max_err_over_tol={worst:.4g} task_tail_ms {tail_txt} (unscaled)"
        )
        print(
            f"# unscaled setup_s={setup_unscaled:.6g} "
            f"tasks_per_s={statistics.median(r[0] for r in raw):.6g} "
            f"task_p50_ms={loop.stratified_median_latency(windows, ones) * 1e3:.6g} "
            f"coeffs_per_s={statistics.median(r[1] for r in raw):.6g} "
            f"reference_ms={statistics.median(t for _, t in loop.marks) * 1e3:.4g} "
            f"(baseline {workload.REFERENCE_S * 1e3:g}) marks={len(loop.marks)}"
        )
        print("# window_scales " + " ".join(f"{x:.3f}" for x in scales))
    else:
        import tracing

        # A fixed number of whole cycles, so that the per-layer figures
        # depend on the seed and the program, not on --seconds or the
        # machine's speed.  Each task runs once traced and once untraced,
        # alternating which goes first, so that the two sides see the same
        # inputs and the same machine conditions.
        replay = [task for _ in range(workload.TRACE_CYCLES) for task in next(cycles)]
        tracer = tracing.Tracer()
        traced = Loop(workload, tracer)
        untraced = Loop(workload)
        for k, task in enumerate(replay):
            pair = (traced, untraced) if k % 2 == 0 else (untraced, traced)
            for loop in pair:
                loop.run_task(task)
        os.makedirs(work_root, exist_ok=True)
        trace_path = os.path.join(work_root, f"trace-{args.workload}-seed{args.seed}.json")
        tracer.dump(trace_path)
        metrics = tracing.layer_metrics(tracer, traced.busy, untraced.busy)
        attempted, failed, worst = _summary([untraced, traced])
        metrics["oracle.max_err_over_tol"] = (worst, "ratio")
        print(
            f"# trace workload={args.workload} seed={args.seed} tasks={len(replay)} "
            f"spans={len(tracer.spans)} file={trace_path}"
        )

    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value:.6g} {unit}")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
