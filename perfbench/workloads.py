"""The four benchmark workloads: inputs, one op, and the output gate.

Every workload draws its inputs from a fixed pool of instances; a pool key
names one instance and the reference file holds the output recorded for it.
``--seed`` picks the order in which a run walks its pool, and a timed run
only stops after walking its pool a whole number of times, so every run does
the same mix of work and the seed changes the order; instance-to-instance
cost differences (up to 3x) would otherwise move a run's figures by which
instances it drew.  Ops call ``slotauction`` through module attributes at call time,
so the tracer's swapped-in wrappers are the ones that run.
"""

from __future__ import annotations

import contextlib
import csv
import io
import itertools
import json
from pathlib import Path

import numpy as np

import slotauction.cli as sa_cli
import slotauction.core as sa_core
import slotauction.distributions as sa_dist
import slotauction.linfrac as sa_linfrac
import slotauction.mechanisms as sa_mech
import slotauction.mnl_wdp as sa_mnl

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# Only these count as failed ops; any other exception is a benchmark error.
FAILURES = (sa_linfrac.SimplexError, sa_core.SizeGuardError)

ABS_TOL = 1e-9


class GateError(Exception):
    """An op's output does not match the recorded reference."""


def _close(name: str, got, want, tol: float = ABS_TOL) -> None:
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    if got.shape != want.shape or not np.all(np.abs(got - want) <= tol):
        raise GateError(f"{name}: got {got.tolist()}, reference {want.tolist()}")


def _same(name: str, got, want) -> None:
    if got != want:
        raise GateError(f"{name}: got {got!r}, reference {want!r}")


class Workload:
    """One closed-loop workload.  Subclasses define the pool, the op and
    the gate; ``schedule(seed)`` yields pool keys forever."""

    name = ""
    # Whether op times are scaled by the calibration kernel (calibration.py).
    calibrated = True

    def __init__(self, workdir: Path) -> None:
        self.workdir = workdir
        self._reference: dict | None = None

    @property
    def reference(self) -> dict:
        if self._reference is None:
            path = REFERENCE_DIR / f"{self.name}.json"
            self._reference = json.loads(path.read_text())["outputs"]
        return self._reference

    def pool(self) -> list[str]:
        raise NotImplementedError

    @property
    def cycle(self) -> int:
        """A timed run only stops after a whole number of cycles of this
        many ops: one walk through the pool."""
        return len(self.pool())

    def prepare(self) -> None:
        """Generate every pool input (part of set-up)."""

    def schedule(self, seed: int):
        keys = self.pool()
        order = np.random.default_rng([seed, 7]).permutation(len(keys))
        return itertools.cycle([keys[i] for i in order])

    def warmup_keys(self) -> list[str]:
        return self.pool()[:1]

    def run(self, key: str):
        """One op: the timed call into the library."""
        raise NotImplementedError

    def result(self, key: str, raw):
        """What the gate compares: ``run``'s return value as JSON-able data
        (untimed)."""
        return raw

    def check(self, key: str, out) -> None:
        """Raise GateError unless ``out`` matches the reference for ``key``."""
        raise NotImplementedError


# ---------------------------------------------------------------------------
# mnl_ladder: exact MNL winner determination through the LP.
# ---------------------------------------------------------------------------

# Ops per ladder cycle and pool size per rung.  The mix puts the median
# inside the 20x10 rung and p90 inside the 30x15 rung, away from the
# boundaries between rungs, while 40x20 and 50x25 take most of the time.
# 50x25 is kept although the LP hits its pivot cap there on most instances:
# the failure shows in ok_share with its full wall time.
LADDER = (  # (n, m, ops per cycle, pool size)
    (10, 5, 4, 4),
    (20, 10, 60, 60),
    (30, 15, 9, 9),
    (40, 20, 1, 8),
    (50, 25, 1, 8),
)
# A rung with one op per cycle walks its pool in a fixed order, so every run
# of the same length sees the same 40x20 and 50x25 instances: one such op is
# up to a quarter of a run, and 50x25 ones fail or succeed by instance.


def ladder_cycle() -> list[tuple[int, int]]:
    """One cycle of rungs, each rung's ops spread evenly over the cycle."""
    slots = [((j + 0.5) / count, n, m)
             for n, m, count, _pool in LADDER for j in range(count)]
    return [(n, m) for _pos, n, m in sorted(slots)]


class MnlLadder(Workload):
    name = "mnl_ladder"
    cycle = len(ladder_cycle())  # the big rungs' pools span several cycles
    calibrated = False  # dense LP ops do not drift with the kernel

    def pool(self) -> list[str]:
        return [f"{n}x{m}/{t}" for n, m, _c, size in LADDER for t in range(size)]

    def prepare(self) -> None:
        self.inputs = {}
        for key in self.pool():
            shape, t = key.split("/")
            n, m = map(int, shape.split("x"))
            rng = np.random.default_rng([1, n, m, int(t)])
            p = rng.uniform(0.01, 0.5, (n, m))
            bids = rng.uniform(0.1, 10.0, n)
            inst = sa_core.Instance(n=n, m=m, k=m, p=p, model=sa_core.MNL)
            self.inputs[key] = (inst, bids)

    def schedule(self, seed: int):
        orders = {}
        for n, m, count, size in LADDER:
            perm = np.random.default_rng([seed, n, m]).permutation(size)
            orders[(n, m)] = itertools.cycle(
                range(size) if count == 1 else perm.tolist())
        for n, m in itertools.cycle(ladder_cycle()):
            yield f"{n}x{m}/{next(orders[(n, m)])}"

    def warmup_keys(self) -> list[str]:
        return ["10x5/0", "20x10/0"]

    def run(self, key: str):
        inst, bids = self.inputs[key]
        return sa_mnl.solve_mnl_wdp(inst, bids)

    def result(self, key: str, raw):
        return {
            "allocation": sorted(raw.allocation.assignment.items()),
            "objective": raw.objective,
            "ctrs": raw.ctrs.tolist(),
        }

    def check(self, key: str, out) -> None:
        ref = self.reference[key]
        if ref["status"] == "ok":
            _same(f"{key} allocation", [list(ij) for ij in out["allocation"]],
                  ref["allocation"])
            _close(f"{key} objective", out["objective"], ref["objective"])
            _close(f"{key} ctrs", out["ctrs"], ref["ctrs"])
        # The LP's objective must equal the independent parametric search.
        inst, bids = self.inputs[key]
        cross = sa_mnl.dinkelbach_check(inst, bids).objective
        if abs(out["objective"] - cross) > 1e-9 * max(1.0, abs(cross)):
            raise GateError(
                f"{key}: LP objective {out['objective']!r} != parametric"
                f" search {cross!r}")


# ---------------------------------------------------------------------------
# cascade_auction: revenue mechanism with the audited greedy bucket solver.
# ---------------------------------------------------------------------------

# Instance costs differ up to 10x and form clusters, one per instance, in a
# run's sorted op times.  With an odd pool, p50 and p90 of whole walks fall
# inside one instance's cluster; with 32, p50 fell on the boundary between
# two instances 7% apart and flipped between them from run to run.
CASCADE_POOL = 33
CASCADE_GRID = 1024
CASCADE_VMAX = 10.0


class CascadeAuction(Workload):
    name = "cascade_auction"

    def pool(self) -> list[str]:
        return [str(t) for t in range(CASCADE_POOL)]

    def prepare(self) -> None:
        self.inputs = {}
        for key in self.pool():
            rng = np.random.default_rng([2, int(key)])
            n = int(rng.integers(8, 25))
            m = int(rng.integers(4, 9))
            k = int(rng.integers(3, min(6, m) + 1))
            p = rng.uniform(0.01, 1.0, (n, m))
            values = rng.uniform(0.0, CASCADE_VMAX, n)
            inst = sa_core.Instance(n=n, m=m, k=k, p=p, model=sa_core.CASCADE)
            dists = [sa_dist.Uniform(0.0, CASCADE_VMAX)] * n
            self.inputs[key] = (inst, values, dists)

    def run(self, key: str):
        inst, values, dists = self.inputs[key]
        solver = sa_mech.greedy_cascade_solver(
            np.random.default_rng([2, int(key), 1]))
        return sa_mech.myerson(inst, values, dists, solver,
                               grid_size=CASCADE_GRID)

    def result(self, key: str, raw):
        return {
            "allocation": sorted(raw.augmented.allocation.assignment.items()),
            "rank": sorted(raw.augmented.permutation.rank.items()),
            "ctrs": raw.ctrs.tolist(),
            "payments": raw.payments.tolist(),
            "utilities": raw.utilities.tolist(),
        }

    def check(self, key: str, out) -> None:
        ref = self.reference[key]
        _same(f"{key} allocation", [list(ij) for ij in out["allocation"]],
              ref["allocation"])
        _same(f"{key} rank", [list(jr) for jr in out["rank"]], ref["rank"])
        _close(f"{key} ctrs", out["ctrs"], ref["ctrs"])
        _close(f"{key} payments", out["payments"], ref["payments"])
        _, values, _ = self.inputs[key]
        pay = np.asarray(out["payments"])
        surplus = values * np.asarray(out["ctrs"])
        if np.any(np.asarray(out["utilities"]) < -ABS_TOL):
            raise GateError(f"{key}: negative utility {out['utilities']}")
        if np.any(pay < 0.0) or np.any(pay > surplus + ABS_TOL):
            raise GateError(f"{key}: payments {pay.tolist()} outside [0, v*pi]")


# ---------------------------------------------------------------------------
# The two CLI workloads run ``slotauction.cli.main`` in process.
# ---------------------------------------------------------------------------


def run_cli(argv: list[str]) -> int:
    """Call the CLI entry point with its stdout captured; returns the exit
    code."""
    with contextlib.redirect_stdout(io.StringIO()):
        return sa_cli.main(argv)


SIM_POOL = 32
SIM_INSTANCES = 16
SIM_SAMPLES = 32


class CliSimulate(Workload):
    name = "cli_simulate"

    def pool(self) -> list[str]:
        return [str(t) for t in range(SIM_POOL)]

    def prepare(self) -> None:
        for f in range(SIM_INSTANCES):
            rng = np.random.default_rng([3, f])
            inst = {"n": 4, "m": 3, "k": 2, "model": "cascade",
                    "p": rng.uniform(0.01, 1.0, (4, 3)).tolist()}
            (self.workdir / f"sim_instance_{f}.json").write_text(json.dumps(inst))
        (self.workdir / "sim_dist.json").write_text(
            json.dumps({"family": "uniform", "a": 0.0, "b": 1.0}))

    def run(self, key: str):
        instance = self.workdir / f"sim_instance_{int(key) % SIM_INSTANCES}.json"
        return run_cli([
            "simulate", "--instance", str(instance),
            "--dist", str(self.workdir / "sim_dist.json"),
            "--samples", str(SIM_SAMPLES), "--seed", key,
            "--mechanism", "both", "--out", str(self.workdir / "sim_out.csv"),
        ])

    def result(self, key: str, raw):
        text = (self.workdir / "sim_out.csv").read_text() if raw == 0 else ""
        return {"exit": raw, "rows": list(csv.reader(io.StringIO(text)))}

    def check(self, key: str, out) -> None:
        ref = self.reference[key]
        _same(f"{key} exit code", out["exit"], 0)
        rows, want = out["rows"], ref["rows"]
        _same(f"{key} header", rows[:1], want[:1])
        _same(f"{key} row count", len(rows), len(want))
        for got, exp in zip(rows[1:], want[1:]):
            _same(f"{key} row labels", [got[0], got[1], got[4]],
                  [exp[0], exp[1], exp[4]])
            _close(f"{key} row {got[:2]}", [float(got[2]), float(got[3])],
                   [float(exp[2]), float(exp[3])])


# A run attempts at least MIN_OPS (100) audits, and these take longer than
# --seconds, so a run walks this pool exactly once.
AUDIT_POOL = 100


class CliAudit(Workload):
    name = "cli_audit"

    def pool(self) -> list[str]:
        return [str(t) for t in range(AUDIT_POOL)]

    def run(self, key: str):
        return run_cli(["audit", "--seed", key,
                        "--out", str(self.workdir / "audit_out.csv")])

    def result(self, key: str, raw):
        text = (self.workdir / "audit_out.csv").read_text() if raw == 0 else ""
        return {"exit": raw, "histogram": text}

    def check(self, key: str, out) -> None:
        ref = self.reference[key]
        _same(f"{key} exit code", out["exit"], 0)
        _same(f"{key} ratio histogram", out["histogram"], ref["histogram"])


WORKLOADS = {w.name: w for w in (MnlLadder, CascadeAuction, CliSimulate, CliAudit)}
