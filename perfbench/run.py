"""Seeded closed-loop benchmark of ``slotauction``.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  One client runs one op at a time; the next
op starts when the last one returns.  Every op's output is checked against
the recorded reference before the result is reported; a mismatch aborts the
run with a non-zero exit and no result line.

``--trace 0`` prints the end-to-end metrics, with every time scaled to the
reference machine speed measured by an interleaved calibration kernel (see
``calibration.py``).  ``--trace 1`` runs each op
twice, untraced then traced, prints the per-layer metrics from the spans of
the traced copy plus the tracing overhead, and writes the spans to
``perfbench/.spans/<workload>-seed<seed>.npz``.  The last line of standard
output is the result object; the line before it records the environment.
"""

from __future__ import annotations

import os

# Pin the numeric libraries to one thread before numpy can load.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
# Traced runs leave their spans here, one archive per workload and seed.
SPANS_DIR = HERE / ".spans"

# At least this many ops per timed run, so that ten lie beyond p90.
MIN_OPS = 100
# Set-up (generation plus warm-up) is repeated and its median reported.
SETUP_REPEATS = 5
# A run stops starting ops after this long, whatever --seconds says.
HARD_STOP_S = 150.0
# Seconds between moves of the process to the next CPU (see CpuRotation).
ROTATE_S = 2.0

END_TO_END = {
    "ops_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "ok_share": "share",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _environment(numpy_version: str) -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "loadavg_1m": os.getloadavg()[0],
        "threads": {v: os.environ[v] for v in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def _percentile(values: list[float], q: float) -> float:
    import numpy as np

    return float(np.percentile(values, q))


def _timed(workload, key):
    """Run one op; returns (seconds, its raw output or None when it
    failed)."""
    from workloads import FAILURES

    start = perf_counter()
    try:
        raw = workload.run(key)
    except FAILURES:
        return perf_counter() - start, None
    return perf_counter() - start, raw


class CpuRotation:
    """Moves the process to the next CPU it may use every ROTATE_S seconds,
    between ops.

    On a shared machine each CPU's speed drifts by up to ~1.7x for seconds
    at a time, independently of the others, and the scheduler keeps a busy
    process on one CPU.  Rotating makes a run sample every CPU instead of
    one CPU's drift.  Moving costs a cold cache and a CPU that may have to
    speed up again, so it happens seconds apart, not every op.
    """

    def __init__(self) -> None:
        self.allowed = sorted(os.sched_getaffinity(0))
        self._order = itertools.cycle(self.allowed)
        self._moved = float("-inf")

    def step(self) -> None:
        now = perf_counter()
        if now - self._moved >= ROTATE_S:
            os.sched_setaffinity(0, {next(self._order)})
            self._moved = now

    def restore(self) -> None:
        os.sched_setaffinity(0, self.allowed)


def _gate(workload, key, raw) -> None:
    """Check one op's output against the reference; raises GateError."""
    workload.check(key, workload.result(key, raw))


def measure(workload, seed: int, seconds: float):
    """Closed loop until ``seconds`` of op time and MIN_OPS ops, stopping
    only at the end of one of the workload's cycles."""
    from calibration import Calibration

    starts, durations, completed = [], [], 0
    cpus = CpuRotation()
    calibration = Calibration(workload.calibrated)
    started = perf_counter()
    try:
        for key in workload.schedule(seed):
            cpus.step()
            starts.append(perf_counter())
            elapsed, raw = _timed(workload, key)
            durations.append(elapsed)
            calibration.after_op(elapsed)
            if raw is not None:
                _gate(workload, key, raw)
                completed += 1
            if (len(durations) % workload.cycle == 0
                    and len(durations) >= MIN_OPS and sum(durations) >= seconds):
                break
            if perf_counter() - started > HARD_STOP_S:
                break
    finally:
        cpus.restore()
    return starts, durations, completed, calibration


def measure_traced(workload, seed: int, seconds: float):
    """Each op untraced, then traced on the same CPU; stops after
    ``seconds`` of op time."""
    from layers import SIZES
    from spans import GATE, OP, Tracer

    tracer = Tracer()
    plain, traced, completed = [], [], 0
    cpus = CpuRotation()
    started = perf_counter()
    try:
        for op_id, key in enumerate(workload.schedule(seed)):
            cpus.step()
            elapsed, raw = _timed(workload, key)
            if raw is not None:
                _gate(workload, key, raw)
            plain.append(elapsed)

            tracer.current_op = op_id
            tracer.install(SIZES)
            try:
                elapsed, raw = tracer.span(OP, _timed, workload, key)
                if raw is not None:
                    tracer.span(GATE, _gate, workload, key, raw)
                    completed += 1
            finally:
                tracer.uninstall()
            traced.append(elapsed)
            if sum(plain) + sum(traced) >= seconds:
                break
            if perf_counter() - started > HARD_STOP_S:
                break
    finally:
        cpus.restore()
    return tracer, plain, traced, completed


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "slotauction" / "__init__.py").is_file():
        print(f"error: no slotauction sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))

    import_start = perf_counter()
    import numpy  # noqa: F401
    import slotauction  # noqa: F401
    from workloads import WORKLOADS
    import_s = perf_counter() - import_start

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from"
              f" {sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    with tempfile.TemporaryDirectory(prefix=".work-", dir=HERE) as tmp:
        setups = []
        for _ in range(SETUP_REPEATS):
            start = perf_counter()
            workload = WORKLOADS[args.workload](Path(tmp))
            workload.prepare()
            for key in workload.warmup_keys():
                _elapsed, raw = _timed(workload, key)
                if raw is not None:
                    _gate(workload, key, raw)
            setups.append(perf_counter() - start)
        setup_s = import_s + statistics.median(setups)
        seed = args.seed % 2**64  # numpy seeds must be non-negative

        if args.trace:
            from layers import per_layer

            tracer, plain, traced, completed = measure_traced(
                workload, seed, args.seconds)
            attempted = len(traced)
            metrics = per_layer(tracer, plain, traced)
            SPANS_DIR.mkdir(exist_ok=True)
            tracer.dump(SPANS_DIR / f"{args.workload}-seed{args.seed}.npz")
        else:
            starts, durations, completed, calibration = measure(
                workload, seed, args.seconds)
            attempted = len(durations)
            scaled = calibration.scaled(starts, durations)
            values = {
                "ops_per_s": completed / float(scaled.sum()),
                "op_ms_p50": 1000.0 * _percentile(scaled, 50),
                "op_ms_p90": 1000.0 * _percentile(scaled, 90),
                "ok_share": completed / attempted,
                "setup_s": setup_s * calibration.scale,
                "peak_rss_mb":
                    resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            metrics = {name: {"value": values[name], "unit": unit}
                       for name, unit in END_TO_END.items()}

    env = _environment(numpy.__version__)
    env.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
               trace=args.trace, import_s=import_s, setup_repeats_s=setups)
    if not args.trace:
        env.update(calibration_scale=calibration.scale,
                   calibration_samples=len(calibration.samples),
                   unscaled={"ops_per_s": completed / sum(durations),
                             "op_ms_p50": 1000.0 * _percentile(durations, 50),
                             "op_ms_p90": 1000.0 * _percentile(durations, 90),
                             "setup_s": setup_s})
    print(json.dumps({"env": env}))
    print(json.dumps({"correct": True, "attempted": attempted,
                      "failed": attempted - completed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
