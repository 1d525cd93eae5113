"""Per-layer metrics reduced from the spans of a traced run.

Times are self times (span duration minus the spans it directly contains),
averaged over the traced ops.  ``bench`` is the benchmark's own root span
around each op, so the layer self times of an op add up to its traced wall
time.  Counts marked ``count.computed`` are derived from input sizes, not
observed inside the program.
"""

from __future__ import annotations

import statistics
from math import comb, factorial

from spans import GATE, LAYERS, OP

# Layer self times of a traced op must add up to its wall time within this
# share (checked by the self-tests).
SELF_TIME_TOLERANCE = 0.02

LADDER_SIZES = ("10x5", "20x10", "30x15", "40x20", "50x25")

PER_LAYER = {
    **{f"{layer}.self_ms_per_op": "ms" for layer in ("bench",) + LAYERS},
    "linfrac.solve_lp.calls_per_op": "count",
    "linfrac.solve_lp.self_ms_per_op": "ms",
    "linfrac.build_charnes_cooper.self_ms_per_op": "ms",
    "linfrac.recover_allocation.self_ms_per_op": "ms",
    **{f"linfrac.solve_lp.ms_p50.{size}": "ms" for size in LADDER_SIZES},
    "linfrac.tableau_cells_per_call": "count.computed",
    "mnl_wdp.solve_mnl_wdp.self_ms_per_op": "ms",
    "mnl_wdp.dinkelbach_check.ms_per_call": "ms",
    "mnl_wdp.dinkelbach_iterations_per_call": "count",
    "mnl_wdp.max_weight_matching.ms_per_call": "ms",
    "cascade_wdp.bucketize.calls_per_op": "count",
    "cascade_wdp.bucketize.self_ms_per_op": "ms",
    "cascade_wdp.greedy_bucket.calls_per_op": "count",
    "cascade_wdp.greedy_bucket.self_ms_per_op": "ms",
    "cascade_wdp.ptas_restricted_welfare.self_ms_per_op": "ms",
    "cascade_wdp.exact_budgeted_matching.calls_per_op": "count",
    "cascade_wdp.exact_budgeted_matching.self_ms_per_op": "ms",
    "cascade_wdp.restricted_ctr.self_ms_per_op": "ms",
    "oracle.brute_force_wdp_cascade.calls_per_op": "count",
    "oracle.brute_force_wdp_cascade.self_ms_per_op": "ms",
    "oracle.enumerate_matchings.self_ms_per_op": "ms",
    "oracle.matchings_per_call": "count.computed",
    "mechanisms.solver_calls_per_op": "count",
    "mechanisms.solver_calls_per_payment": "count",
    "mechanisms.audit_solver_calls_per_op": "count",
    "mechanisms.handle.self_ms_per_op": "ms",
    "mechanisms.myerson.self_ms_per_op": "ms",
    "mechanisms.vcg.self_ms_per_op": "ms",
    "mechanisms.monotone_grid_sum.self_ms_per_op": "ms",
    "core.cascade_ctr.calls_per_op": "count",
    "core.cascade_ctr.self_ms_per_op": "ms",
    "core.mnl_ctr.self_ms_per_op": "ms",
    "core.objects_per_op": "count",
    "core.construct.self_ms_per_op": "ms",
    "distributions.sample.self_ms_per_op": "ms",
    "distributions.is_regular.self_ms_per_op": "ms",
    "distributions.virtual_value.calls_per_op": "count",
    "trace.ops": "count",
    "trace.op_ms_per_op": "ms",
    "trace.overhead_share": "share",
}


def lp_size(arguments) -> tuple[str, int]:
    """The LP's ladder label "<n>x<m>" and its phase-1 tableau size: n + m + 2
    rows plus the objective row, by n*m + 1 variables, n + m + 1 slacks, one
    artificial and the right-hand side."""
    n, m = arguments["lp"].shape
    return f"{n}x{m}", (n + m + 3) * (n * m + n + m + 4)


def matchings(arguments) -> int:
    """Matchings an oracle enumerates: at most k edges between the candidate
    advertisers and the m positions."""
    inst, active = arguments["inst"], arguments.get("active")
    c = inst.n if active is None else len(active)
    return sum(comb(c, t) * comb(inst.m, t) * factorial(t)
               for t in range(min(inst.k, c, inst.m) + 1))


ORACLES = ("oracle.enumerate_matchings", "oracle.brute_force_wdp_mnl",
           "oracle.brute_force_wdp_cascade", "oracle.brute_force_restricted")
# Span name -> function of the call's bound arguments, kept per call.
SIZES = {"linfrac.solve_lp": lp_size, **{name: matchings for name in ORACLES}}


def per_layer(tracer, plain: list[float], traced: list[float]) -> dict:
    """Reduce a traced run to the PER_LAYER metrics."""
    names = [tracer.names[i] for i in tracer.name]
    parent = tracer.parent
    own = tracer.self_times()
    total = len(names)

    # Root kind (op or gate) and the nearest pricing/audit ancestor.
    root = [""] * total
    within = [""] * total
    for i in range(total):
        p = parent[i]
        if p < 0:
            root[i] = names[i]
        else:
            root[i] = root[p]
            pn = names[p]
            within[i] = pn if pn in ("mechanisms.monotone_grid_sum",
                                     "mechanisms.monotonicity_audit") \
                else within[p]

    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    layer_s: dict[str, float] = {}
    gate_calls: dict[str, list[float]] = {}
    grid_probes = audit_probes = 0
    for i in range(total):
        name = names[i]
        if root[i] == GATE:
            gate_calls.setdefault(name, []).append(tracer.end[i] - tracer.start[i])
            continue
        if root[i] != OP:
            continue
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + own[i]
        layer = name.split(".", 1)[0]
        layer_s[layer] = layer_s.get(layer, 0.0) + own[i]
        if name == "mechanisms.handle":
            grid_probes += within[i] == "mechanisms.monotone_grid_sum"
            audit_probes += within[i] == "mechanisms.monotonicity_audit"

    ops = len(traced)
    values = {f"{layer}.self_ms_per_op": 1000.0 * layer_s.get(layer, 0.0) / ops
              for layer in ("bench",) + LAYERS}
    for metric in PER_LAYER:  # "<span name>.calls_per_op" / ".self_ms_per_op"
        span, _, kind = metric.rpartition(".")
        if kind == "calls_per_op":
            values[metric] = calls.get(span, 0) / ops
        elif kind == "self_ms_per_op" and metric not in values:
            values[metric] = 1000.0 * self_s.get(span, 0.0) / ops

    lp_ms: dict[str, list[float]] = {}
    cells, oracle_counts = [], []
    for i, size in tracer.args.items():
        if root[i] != OP:
            continue
        if names[i] == "linfrac.solve_lp":
            shape, tableau = size
            lp_ms.setdefault(shape, []).append(
                1000.0 * (tracer.end[i] - tracer.start[i]))
            cells.append(tableau)
        elif names[i] in ORACLES:
            oracle_counts.append(size)
    for shape in LADDER_SIZES:
        samples = lp_ms.get(shape)
        values[f"linfrac.solve_lp.ms_p50.{shape}"] = \
            statistics.median(samples) if samples else 0.0
    values["linfrac.tableau_cells_per_call"] = _mean(cells)
    values["oracle.matchings_per_call"] = _mean(oracle_counts)

    checks = gate_calls.get("mnl_wdp.dinkelbach_check", [])
    values["mnl_wdp.dinkelbach_check.ms_per_call"] = 1000.0 * _mean(checks)
    matchings_in_checks = gate_calls.get("mnl_wdp.max_weight_matching", [])
    values["mnl_wdp.dinkelbach_iterations_per_call"] = (
        len(matchings_in_checks) / len(checks) if checks else 0.0)
    values["mnl_wdp.max_weight_matching.ms_per_call"] = \
        1000.0 * _mean(matchings_in_checks)

    values["mechanisms.solver_calls_per_op"] = calls.get("mechanisms.handle", 0) / ops
    payments = calls.get("mechanisms.monotone_grid_sum", 0)
    values["mechanisms.solver_calls_per_payment"] = (
        grid_probes / payments if payments else 0.0)
    values["mechanisms.audit_solver_calls_per_op"] = audit_probes / ops
    values["core.objects_per_op"] = calls.get("core.construct", 0) / ops

    values["trace.ops"] = float(ops)
    values["trace.op_ms_per_op"] = 1000.0 * sum(traced) / ops
    values["trace.overhead_share"] = sum(traced) / sum(plain) - 1.0
    return {name: {"value": values[name], "unit": unit}
            for name, unit in PER_LAYER.items()}


def _mean(xs) -> float:
    return sum(xs) / len(xs) if xs else 0.0
