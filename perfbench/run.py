"""lflow benchmark: one workload per invocation, one JSON result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; lflow is imported from ./src. The workloads
are in perfbench/workloads.py. Why they were chosen, what each metric
means, and which layer metric should move which end-to-end metric are in
perfbench/design.json.

A run builds the workload's inputs from the seed, times that set-up in
fresh interpreters, then repeats passes of the workload's fixed job list
back to back until S seconds have passed (at least one pass).

--trace 0 reports the end-to-end metrics. A job's time is its wall time
scaled by the machine speed sampled while it ran (see `SpeedProbe`), and
each job counts with its median over the passes. --trace 1 alternates an
untraced and a traced pass. It reports the per-layer metrics of the
traced passes, the degrade time of a traced set-up and the tracing
overhead, and writes every span to perfbench/_out/.

Both modes check the outputs, including that every pass, traced or not,
repeats the first bit for bit. They print a record line with the
machine, the computed working set, raw wall times and every failed
check, and then the result as the last line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The exit code is 0 when every check passed, 1 when one failed, and 2 on
a usage error or when lflow cannot be imported from ./src.
"""

from __future__ import annotations

import argparse
import bisect
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "_out"
SETUP_REPEATS = 5
PROBE_INTERVAL_S = 0.05
PROBE_LOOP = 4000
PROBE_FFTS = 2
PROBE_PAD_S = 0.12
# A probe sample on the machine of design.json "machine" when uncontended:
# normalized times are in that machine's milliseconds.
PROBE_NOMINAL_MS = 0.3

# Pinned before numpy loads, here and in the set-up probes.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1", "LFLOW_THREADS": "1"}

END_TO_END_UNITS = {
    "setup_s": "s", "runs_per_s": "1/s", "run_ms_p50": "ms", "run_ms_p90": "ms",
    "us_per_nfe": "us", "nfe_total": "count", "psnr_db_mean": "dB",
    "peak_rss_mb": "MB",
}


def per_layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_bytes_computed") or name.endswith("bytes_written"):
        return "bytes"
    if name.endswith(("_frac", "_ratio", "_per_nfe", "_per_solve")):
        return "ratio"
    return "count"


SETUP_PROBE = """
import sys, time
start = time.perf_counter()
sys.path[:0] = sys.argv[1:3]
import workloads
wl = workloads.make(sys.argv[3], int(sys.argv[4]), sys.argv[5])
wl.setup()
print(time.perf_counter() - start)
"""


def measure_setup(workload: str, seed: int, out_dir: Path) -> list[float]:
    """Import plus input generation in fresh interpreters, SETUP_REPEATS times."""
    env = dict(os.environ, **THREAD_ENV)
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, str(ROOT / "src"), str(BENCH_DIR),
             workload, str(seed), str(out_dir)],
            env=env, capture_output=True, text=True, timeout=120, check=True)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile (numpy's default method)."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


class SpeedProbe:
    """Samples machine speed on a wall-clock timer, during jobs too.

    On a shared 2-vCPU VM the speed of the same code drifts by 30-40% over
    seconds to minutes (design.json "noise"). Every PROBE_INTERVAL_S a
    SIGALRM handler times a fixed kernel, a 4000-step Python loop and two
    64x64 FFT round trips, and logs the geometric mean of the two times.
    The kernel runs no lflow code, so no change to lflow can move it.
    `snapshot()` returns (time, seconds spent in the handler so far); the
    snapshots before and after a job delimit it.
    """

    def __init__(self):
        import numpy as np

        self.fft = np.fft
        self.field = np.random.default_rng(0).normal(size=(64, 64))
        self.times: list[float] = []
        self.samples: list[float] = []
        self.spent = 0.0

    def _on_alarm(self, _signum, _frame) -> None:
        start = time.perf_counter()
        acc = 0
        for i in range(PROBE_LOOP):
            acc += i * i
        mid = time.perf_counter()
        for _ in range(PROBE_FFTS):
            self.fft.ifft2(self.fft.fft2(self.field))
        end = time.perf_counter()
        self.times.append(start)
        self.samples.append(math.sqrt((mid - start) * (end - mid)) * 1e3)
        self.spent += end - start

    def snapshot(self) -> tuple[float, float]:
        return time.perf_counter(), self.spent

    def speed(self, start: float, end: float) -> float:
        """Mean sample within PROBE_PAD_S of the interval [start, end]."""
        lo = bisect.bisect_left(self.times, start - PROBE_PAD_S)
        hi = bisect.bisect_right(self.times, end + PROBE_PAD_S)
        return statistics.fmean(self.samples[lo:hi] or self.samples[max(lo - 1, 0):lo + 1])

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)


def normalized_ms(passes, tails, probe: SpeedProbe) -> list[float]:
    """Per job, the median over passes of its time at nominal probe speed.

    A job's wall time, less the time the probe handler took inside it, is
    scaled by PROBE_NOMINAL_MS over the mean probe sample around the job.
    tails[p] is the snapshot after pass p.
    """
    per_pass = []
    for jobs, tail in zip(passes, tails):
        snaps = [j.probe for j in jobs] + [tail]
        per_pass.append([
            (j.ms - (after[1] - before[1]) * 1e3) * PROBE_NOMINAL_MS
            / probe.speed(before[0], after[0])
            for j, before, after in zip(jobs, snaps, snaps[1:])])
    return [statistics.median(times) for times in zip(*per_pass)]


def end_to_end(passes, tails, probe, setup_times) -> dict[str, float]:
    times = normalized_ms(passes, tails, probe)
    first = passes[0]
    return {
        "setup_s": statistics.median(setup_times),
        "runs_per_s": len(times) / (sum(times) / 1e3),
        "run_ms_p50": percentile(times, 50),
        "run_ms_p90": percentile(times, 90),
        "us_per_nfe": sum(times) * 1e3 / sum(j.nfe for j in first),
        "nfe_total": sum(j.nfe for j in first),
        "psnr_db_mean": statistics.fmean([j.psnr_db for j in first if j.status == "ok"]
                                         or [0.0]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def job_checks(passes) -> list[str]:
    """Status, NFE accounting (adaptive Heun everywhere) and repeatability.

    Every pass of a run has the same inputs, traced or not, so each job
    must give bit-identical outputs and NFE on every pass.
    """
    failures = []
    for jobs in passes:
        for j, ref in zip(jobs, passes[0]):
            if j.status != "ok":
                failures.append(f"{j.name}: status {j.status}")
            if j.accepted >= 0 and j.nfe != 2 * j.accepted + j.rejected:
                failures.append(f"{j.name}: nfe {j.nfe} != 2*{j.accepted} + {j.rejected}")
            if (j.digest, j.nfe) != (ref.digest, ref.nfe):
                failures.append(f"{j.name}: output or NFE differs between passes")
    return failures


def machine_record() -> dict:
    import numpy as np

    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            caches[f"L{level}"] = size
    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(), "cpu": cpu, "caches": caches,
        "python": platform.python_version(), "numpy": np.__version__, "blas": blas,
        "threads": {k: os.environ.get(k) for k in THREAD_ENV},
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    os.environ.update(THREAD_ENV)
    if not (ROOT / "src" / "lflow" / "__init__.py").is_file():
        print(f"error: lflow sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]
    import lflow
    import workloads
    from tracer import Tracer

    if Path(lflow.__file__).resolve().parent != ROOT / "src" / "lflow":
        print(f"error: imported lflow from {lflow.__file__}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; expected one of "
              f"{workloads.WORKLOADS}", file=sys.stderr)
        return 2
    out_dir = OUT_DIR / args.workload
    (out_dir / "setup").mkdir(parents=True, exist_ok=True)

    wl = workloads.make(args.workload, args.seed, str(out_dir))
    wl.setup()
    setup_times = measure_setup(args.workload, args.seed, out_dir / "setup")

    failures = []
    passes, tails = [], []
    with SpeedProbe() as probe:
        start = time.perf_counter()
        if not args.trace:
            while not passes or time.perf_counter() - start < args.seconds:
                passes.append(wl.run_pass(probe.snapshot))
                tails.append(probe.snapshot())
        else:
            tracer = Tracer()
            mark = tracer.mark()
            with tracer.installed(lflow):
                workloads.make(args.workload, args.seed, str(out_dir / "setup")).setup()
            degrade_ms = tracer.layer_metrics(mark)["tasks.degrade.incl_ms"]
            traced, traced_tails, layers = [], [], []
            while not passes or time.perf_counter() - start < args.seconds:
                passes.append(wl.run_pass(probe.snapshot))
                tails.append(probe.snapshot())
                mark = tracer.mark()
                with tracer.installed(lflow):
                    traced.append(wl.run_pass(probe.snapshot))
                traced_tails.append(probe.snapshot())
                layers.append(tracer.layer_metrics(mark))
                nfe = sum(j.nfe for j in traced[-1])
                if layers[-1]["guidance.velocity.calls"] != nfe:
                    failures.append(f"{layers[-1]['guidance.velocity.calls']} velocity "
                                    f"calls in a traced pass with NFE {nfe}")
    if not args.trace:
        measured = passes
        metrics = end_to_end(passes, tails, probe, setup_times)
        units = END_TO_END_UNITS
    else:
        for n, a, r in tracer.trajectories:
            if n != 2 * a + r:
                failures.append(f"traced run: nfe {n} != 2*{a} + {r}")
        tracer.write(out_dir / "spans.npz")
        measured = passes + traced
        metrics = {name: (statistics.median(m[name] for m in layers)
                          if name.endswith("_ms") else layers[0][name])
                   for name in layers[0]}
        metrics["tasks.degrade.incl_ms"] = degrade_ms
        metrics["trace.overhead_frac"] = (sum(normalized_ms(traced, traced_tails, probe))
                                          / sum(normalized_ms(passes, tails, probe)) - 1.0)
        units = {name: per_layer_unit(name) for name in metrics}
    failures += job_checks(measured) + wl.verify(passes)

    jobs = [j for p in measured for j in p]
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "machine": machine_record(),
        "working_set_computed": wl.working_set(),
        "passes": len(passes), "jobs_per_pass": len(passes[0]),
        "timed_jobs": sum(len(p) for p in passes),
        "wall_ms_median": [statistics.median(t) for t in
                           zip(*([j.ms for j in p] for p in passes))],
        "probe_samples": len(probe.samples),
        "probe_ms_median": statistics.median(probe.samples),
        "setup_s_samples": setup_times,
        "failed_frac": sum(j.status != "ok" for j in jobs) / len(jobs),
        "checks_failed": failures,
        **wl.summary(passes),
    }
    print(json.dumps({"record": record}))
    result = {
        "correct": not failures,
        "attempted": len(jobs),
        "failed": sum(j.status != "ok" for j in jobs),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
