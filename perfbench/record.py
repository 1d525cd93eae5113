"""Record the reference outputs the benchmark's gate compares against.

Run from the repository root, at the commit whose outputs are the
reference:

    python3 perfbench/record.py [workload ...]

It runs every pool key of each named workload (all four by default) once and
writes ``perfbench/reference/<workload>.json``.  Set-up is as in a
benchmark run.  Re-record only when an output change is intended.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from workloads import FAILURES, WORKLOADS  # noqa: E402


def _commit() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=HERE.parent, capture_output=True,
            text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def record(name: str) -> None:
    with tempfile.TemporaryDirectory(dir=HERE) as tmp:
        workload = WORKLOADS[name](Path(tmp))
        workload.prepare()
        outputs = {}
        started = time.perf_counter()
        for key in workload.pool():
            try:
                raw = workload.run(key)
            except FAILURES as exc:
                outputs[key] = {"status": "failed", "error": type(exc).__name__}
                continue
            outputs[key] = {"status": "ok", **workload.result(key, raw)}
        workload._reference = json.loads(json.dumps(outputs))
        for key, ref in outputs.items():  # the gate must accept its own record
            if ref["status"] == "ok":
                workload.check(key, workload.result(key, workload.run(key)))
        elapsed = time.perf_counter() - started
    path = HERE / "reference" / f"{name}.json"
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(
        {"commit": _commit(), "workload": name, "outputs": outputs},
        separators=(",", ":")) + "\n")
    failed = sum(r["status"] != "ok" for r in outputs.values())
    print(f"{name}: {len(outputs)} keys, {failed} failed, {elapsed:.1f} s")


if __name__ == "__main__":
    for workload_name in sys.argv[1:] or list(WORKLOADS):
        record(workload_name)
