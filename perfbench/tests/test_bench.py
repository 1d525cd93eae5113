"""Self-tests of the benchmark itself (not of slotauction).

    python3 -m pytest perfbench/tests -q

They run every workload at its shortest length, so they take about half a
minute.
"""

from __future__ import annotations

import copy
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
from calibration import LOCAL_WINDOW_S, REFERENCE_S, Calibration  # noqa: E402
from layers import SELF_TIME_TOLERANCE, per_layer  # noqa: E402
from spans import LAYERS  # noqa: E402
from workloads import WORKLOADS, GateError  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


def _result(capsys) -> dict:
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_shortest_run_emits_every_declared_metric(workload, trace, capsys,
                                                  monkeypatch):
    monkeypatch.setattr(run, "MIN_OPS", 2)
    assert run.main(["--workload", workload, "--seed", "3", "--seconds", "0",
                     "--trace", str(trace)]) == 0
    result = _result(capsys)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert {name: body["unit"] for name, body in result["metrics"].items()} \
        == {m["name"]: m["unit"] for m in declared}
    for body in result["metrics"].values():
        assert isinstance(body["value"], float)


def test_workload_names_match_the_declaration():
    assert sorted(w["name"] for w in DECLARED["workloads"]) == sorted(WORKLOADS)


def _nudge(workload, key: str, ref: dict) -> dict:
    """The reference for ``key`` with one recorded number moved by 1e-6."""
    ref = copy.deepcopy(ref)
    if workload == "mnl_ladder":
        ref["objective"] += 1e-6
    elif workload == "cascade_auction":
        ref["payments"][0] += 1e-6
    elif workload == "cli_simulate":
        ref["rows"][1][3] = repr(float(ref["rows"][1][3]) + 1e-6)
    else:
        header, first, rest = ref["histogram"].split("\n", 2)
        cells = first.split(",")
        cells[1] = repr(float(cells[1]) + 1e-6)
        ref["histogram"] = "\n".join([header, ",".join(cells), rest])
    return ref


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_reference_nudged_by_1e_6_fails_the_gate(workload, tmp_path):
    bench = WORKLOADS[workload](tmp_path)
    bench.prepare()
    key = next(k for k in bench.pool() if bench.reference[k]["status"] == "ok")
    out = bench.result(key, bench.run(key))
    bench.check(key, out)
    bench.reference[key] = _nudge(workload, key, bench.reference[key])
    with pytest.raises(GateError):
        bench.check(key, out)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_self_times_add_up_to_traced_op_time(workload, tmp_path):
    bench = WORKLOADS[workload](tmp_path)
    bench.prepare()
    tracer, plain, traced, _completed = run.measure_traced(bench, 5, 0.5)
    values = {k: v["value"] for k, v in per_layer(tracer, plain, traced).items()}
    layers_ms = sum(values[f"{layer}.self_ms_per_op"]
                    for layer in ("bench",) + LAYERS)
    wall_ms = values["trace.op_ms_per_op"]
    assert layers_ms == pytest.approx(wall_ms, rel=SELF_TIME_TOLERANCE)


def test_calibration_scales_each_op_by_the_kernel_time_near_it():
    calibration = Calibration(True)
    # The kernel ran at half the reference speed early on, at full speed
    # later; an op far from every sample falls back to the run's mean.
    calibration.times = [0.0, 1.0, 100.0, 101.0]
    calibration.samples = [2 * REFERENCE_S] * 2 + [REFERENCE_S] * 2
    starts = [0.5, 100.5, 50.0 + LOCAL_WINDOW_S]
    scaled = calibration.scaled(starts, [0.2, 0.2, 0.2])
    assert scaled == pytest.approx([0.1, 0.2, 0.2 / 1.5])
    assert calibration.scale == pytest.approx(1 / 1.5)
    disabled = Calibration(False)
    disabled.after_op(1.0)
    assert disabled.samples == [] and disabled.scale == 1.0
    assert disabled.scaled(starts, [0.2, 0.2, 0.2]).tolist() == [0.2] * 3
