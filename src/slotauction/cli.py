"""Batch experiment harness.

Commands:
  solve      run one winner-determination algorithm on an instance + bids
  mechanism  run vcg or myerson once, write payments/utilities CSV
  simulate   Monte Carlo over sampled value profiles, write per-sample CSV
  audit      property sweep over random instances with the checks of
             slotauction.properties; on a violation, one JSON line per
             violation to stderr and exit 3

Every flag can also be supplied through a JSON config file (--config);
command-line flags win.  All randomness flows from --seed, and each
simulation sample derives its own stream from (seed, sample index), so
identical configs give byte-identical outputs.

``--algorithm`` picks the ``SOLVERS`` entry for the instance's model;
omitted, it is ``dinkelbach`` (MNL) or ``brute`` (cascade, exhaustive, at
most 36 cells) for every command.  ``mechanism`` and ``simulate`` need an
entry with a solver handle: ``dinkelbach``, ``brute`` (cascade) or
``greedy``, the monotone bucket greedy seeded by --seed, which vcg refuses.

Every file read is JSON of the types it documents, by one rule,
``core.json_fits``: a bool or a string is not a number.

Exit codes:
  0  ok
  1  usage error: flags, config, a file unreadable or not JSON (a key
     repeated within one object included), values that are not n finite
     numbers, a --dist file that is not of JSON objects, a seed below 0
  2  solver or validation error, a ``core.SlotauctionError``: a malformed
     or invalid instance or distribution, an input above a size guard (a
     grid above 2^53 included)
  3  audit failure
  4  internal error: any other exception, reported with its traceback
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import sys
import traceback
from typing import Sequence

import numpy as np

from . import cascade_wdp, core, mechanisms, mnl_wdp, oracle, properties
from .core import (
    CASCADE,
    Instance,
    MNL,
    SlotauctionError,
    ValidationError,
    json_fits,
    welfare,
)
from .distributions import ValueDistribution, dist_from_dict, sample
from .mnl_wdp import solve_mnl_lp, solve_mnl_wdp

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_SOLVER = 2
EXIT_AUDIT = 3
EXIT_INTERNAL = 4

MECHANISMS = ("vcg", "myerson")
# simulate prices at most this many samples per block.  Smaller blocks ran
# slower, larger ones hold more outcomes at once (2x1, 60,000 samples of
# both mechanisms: ~75 MB peak RSS at 1,024, ~125 MB at 8,192).
SAMPLE_BLOCK = 1024


class UsageError(Exception):
    pass


# Every flag once: config key -> (type, default, help).  The table builds the
# parser, the allowed config keys, the defaults and the command-line
# overrides.  A config value must already have the flag's JSON type.
_FLAGS = {
    "instance": (str, None, "instance JSON path"),
    "values": (str, None, "values JSON path (array of floats)"),
    "dist": (str, None, "distribution config JSON path"),
    "algorithm": (str, None, "lp | dinkelbach | greedy | ptas | brute;"
                  " default: dinkelbach on mnl, brute on cascade"),
    "mechanism": (str, "both", "vcg | myerson | both"),
    "epsilon": (float, 0.1, "ptas and audit accuracy, in (0, 1)"),
    "grid": (int, 1024, "myerson envelope grid size"),
    "samples": (int, 1000, "simulate: number of value profiles"),
    "seed": (int, 0, "seed of every random draw"),
    "out": (str, None, "output path (JSON or CSV)"),
    "planted_bug": (bool, False, "audit: swap in the broken fixture solver"),
}


@functools.cache  # one per process; parse_args keeps no state between calls
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="slotauction",
        description="Position-auction winner determination and mechanisms.",
    )
    parser.add_argument("command",
                        choices=["solve", "mechanism", "simulate", "audit"])
    parser.add_argument("--config", help="JSON file with flag defaults")
    for key, (kind, _default, text) in _FLAGS.items():
        options = ({"action": "store_true", "default": None} if kind is bool
                   else {"type": kind})
        parser.add_argument("--" + key.replace("_", "-"), help=text, **options)
    return parser


def _read_json(path: str):
    """The JSON in the file at ``path``; an object naming a key twice is a
    ``UsageError``, where ``json.load`` alone would keep the last value."""

    def unique_keys(pairs: list[tuple[str, object]]) -> dict:
        obj = dict(pairs)
        if len(obj) < len(pairs):
            keys = [key for key, _value in pairs]
            twice = next(key for key in obj if keys.count(key) > 1)
            raise UsageError(f"key {twice!r} appears twice in {path}")
        return obj

    with open(path) as fh:
        return json.load(fh, object_pairs_hook=unique_keys)


def _merge_config(args: argparse.Namespace) -> dict:
    merged = {key: default for key, (_kind, default, _text) in _FLAGS.items()}
    if args.config:
        raw = _read_json(args.config)
        if not isinstance(raw, dict):
            raise UsageError("config must be a JSON object")
        for key, value in raw.items():
            if key not in _FLAGS:
                raise UsageError(f"unknown config key {key!r}")
            kind = _FLAGS[key][0]
            if not json_fits(kind, value):
                raise UsageError(
                    f"config key {key!r} needs a {kind.__name__},"
                    f" got {value!r}")
            merged[key] = kind(value)
    for key in _FLAGS:
        if getattr(args, key) is not None:
            merged[key] = getattr(args, key)
    if not 0.0 < merged["epsilon"] < 1.0:
        raise UsageError(f"epsilon must lie in (0, 1), got {merged['epsilon']}")
    for key, least in (("samples", 1), ("grid", 1), ("seed", 0)):
        if merged[key] < least:
            raise UsageError(
                f"{key} must be at least {least}, got {merged[key]}")
    return merged


def _load_instance(cfg: dict) -> Instance:
    if not cfg["instance"]:
        raise UsageError("--instance is required for this command")
    return core.instance_from_dict(_read_json(cfg["instance"]))


def _load_values(cfg: dict, n: int) -> np.ndarray:
    if not cfg["values"]:
        raise UsageError("--values is required for this command")
    raw = _read_json(cfg["values"])
    if not (json_fits(list, raw) and all(json_fits(float, v) for v in raw)):
        raise UsageError(f"values must be an array of numbers, got {raw!r}")
    vals = np.array(raw, dtype=float)
    if vals.shape != (n,):
        raise UsageError(f"expected {n} values, got shape {vals.shape}")
    if not np.all(np.isfinite(vals)):
        raise UsageError(f"values must be finite, got {vals.tolist()}")
    return vals


def _load_dists(cfg: dict, n: int) -> list[ValueDistribution]:
    if not cfg["dist"]:
        raise UsageError("--dist is required for this command")
    raw = _read_json(cfg["dist"])
    if json_fits(dict, raw):
        raw = [raw] * n
    if not (json_fits(list, raw) and all(json_fits(dict, d) for d in raw)):
        raise UsageError("distributions must be an object or a list of them")
    if len(raw) != n:
        raise UsageError(f"expected 1 or {n} distributions, got {len(raw)}")
    return [dist_from_dict(d) for d in raw]


def _emit(text: str, path: str | None) -> None:
    if path:
        with open(path, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _csv_writer(buf: io.StringIO):
    return csv.writer(buf, quoting=csv.QUOTE_MINIMAL, lineterminator="\r\n")


def _csv_text(header: Sequence[str], rows: list[Sequence]) -> str:
    buf = io.StringIO()
    writer = _csv_writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _mnl(result) -> tuple:
    chi = core.AugmentedAllocation.from_pairs(result.allocation.pairs())
    return chi, result.ctrs, result.objective


def _cascade(inst: Instance, bids: np.ndarray, chi, objective=None) -> tuple:
    pi = core.cascade_ctr(inst, chi)
    objective = welfare(bids, pi) if objective is None else objective
    return chi, pi, objective


def _ptas(inst: Instance, bids: np.ndarray, cfg: dict) -> tuple:
    alloc = cascade_wdp.ptas_restricted_welfare(inst, bids, cfg["epsilon"])
    perm = cascade_wdp.optimal_permutation(alloc, bids)
    return _cascade(inst, bids, core.AugmentedAllocation(alloc, perm))


def _greedy(inst: Instance, bids: np.ndarray, cfg: dict) -> tuple:
    rng = np.random.default_rng(cfg["seed"])
    chi = cascade_wdp.combined_cascade_solver(inst, bids, rng)
    return _cascade(inst, bids, chi)


# (algorithm, model) -> (route, handle).  route(inst, bids, cfg) gives solve's
# rendered allocation, CTRs and objective; handle(cfg) builds the SolverHandle
# of mechanism and simulate, or is None.  Names are looked up at call time, so
# patched module attributes take effect.  brute keeps the oracle's objective.
SOLVERS = {
    ("lp", MNL): (lambda inst, bids, cfg: _mnl(solve_mnl_lp(inst, bids)),
                  None),
    ("dinkelbach", MNL): (
        lambda inst, bids, cfg: _mnl(solve_mnl_wdp(inst, bids)),
        lambda cfg: mechanisms.exact_mnl_solver()),
    ("brute", MNL): (
        lambda inst, bids, cfg: _mnl(oracle.brute_force_wdp_mnl(inst, bids)),
        None),
    ("greedy", CASCADE): (
        _greedy,
        lambda cfg: mechanisms.greedy_cascade_solver(
            np.random.default_rng(cfg["seed"]))),
    ("ptas", CASCADE): (_ptas, None),
    ("brute", CASCADE): (
        lambda inst, bids, cfg: _cascade(
            inst, bids, *oracle.brute_force_wdp_cascade(inst, bids)),
        lambda cfg: mechanisms.brute_cascade_solver()),
}
DEFAULT_ALGORITHM = {MNL: "dinkelbach", CASCADE: "brute"}


def _solver(cfg: dict, inst: Instance) -> tuple[str, tuple]:
    """The ``SOLVERS`` entry --algorithm names for the instance's model; if
    the flag is omitted, the model's default."""
    name = cfg["algorithm"] or DEFAULT_ALGORITHM[inst.model]
    if (name, inst.model) in SOLVERS:
        return name, SOLVERS[name, inst.model]
    if any(algo == name for algo, _model in SOLVERS):
        raise ValidationError(f"algorithm {name!r} does not solve"
                              f" {inst.model!r} instances")
    raise UsageError(f"unknown algorithm {name!r}")


def cmd_solve(cfg: dict) -> int:
    inst = _load_instance(cfg)
    bids = _load_values(cfg, inst.n)
    algorithm, (route, _handle) = _solver(cfg, inst)
    chi, pi, objective = route(inst, bids, cfg)
    report = {
        "algorithm": algorithm,
        "allocation": {str(i): j for i, j in chi.allocation.pairs()},
        "sigma": {str(j): r for j, r in sorted(chi.permutation.rank.items())},
        "pi": list(np.asarray(pi, dtype=float)),
        "objective": float(objective),
    }
    _emit(json.dumps(report, indent=2, sort_keys=True) + "\n", cfg["out"])
    return EXIT_OK


def _run_mechanism(
    name: str, inst: Instance, profiles: np.ndarray,
    dists: list[ValueDistribution] | None, cfg: dict,
) -> list[mechanisms.MechanismOutcome]:
    """The outcome of mechanism ``name`` at each of ``profiles``, from one
    ``vcg_rows`` or ``myerson_rows`` call over a new handle (the greedy one
    draws from --seed afresh)."""
    algorithm, (_route, handle) = _solver(cfg, inst)
    if handle is None:
        ready = [f"{a} ({m})" for (a, m), (_r, h) in SOLVERS.items() if h]
        raise UsageError(f"algorithm {algorithm!r} has no solver handle;"
                         f" entries with one: {', '.join(ready)}")
    if name == "vcg":
        return mechanisms.vcg_rows(inst, profiles, handle(cfg))
    return mechanisms.myerson_rows(inst, profiles, dists, handle(cfg),
                                   cfg["grid"])


def cmd_mechanism(cfg: dict) -> int:
    inst = _load_instance(cfg)
    values = _load_values(cfg, inst.n)
    name = cfg["mechanism"]
    if name not in MECHANISMS:
        raise UsageError("mechanism command needs --mechanism vcg|myerson")
    dists = _load_dists(cfg, inst.n) if name == "myerson" else None
    outcome, = _run_mechanism(name, inst, values[None], dists, cfg)
    rows = [
        [i, repr(float(values[i])), repr(float(outcome.ctrs[i])),
         repr(float(outcome.payments[i])), repr(float(outcome.utilities[i]))]
        for i in range(inst.n)
    ]
    _emit(
        _csv_text(["advertiser", "value", "ctr", "payment", "utility"], rows),
        cfg["out"],
    )
    return EXIT_OK


def cmd_simulate(cfg: dict) -> int:
    inst = _load_instance(cfg)
    dists = _load_dists(cfg, inst.n)
    which = cfg["mechanism"]
    names = list(MECHANISMS) if which == "both" else [which]
    if any(n not in MECHANISMS for n in names):
        raise UsageError(f"unknown mechanism {which!r}")

    text = io.StringIO()
    writer = _csv_writer(text)
    writer.writerow(["sample", "mechanism", "welfare", "revenue", "seed"])
    totals = {n: [] for n in names}
    revenues = {n: [] for n in names}
    # Samples are priced a block at a time, each mechanism reading a whole
    # block's rows in batches, and a block's vcg rows (n x m cells, n per
    # sample) fit one mnl_wdp.ROW_CELLS chunk: 1,024 samples at desk scale,
    # 16 at 50x25, 1 at 100x100.  Outcomes go once their block's welfare
    # and revenue are taken, on arrays.
    block = min(SAMPLE_BLOCK,
                max(1, mnl_wdp.ROW_CELLS // (inst.n * inst.n * inst.m)))
    for lo in range(0, cfg["samples"], block):
        samples = range(lo, min(lo + block, cfg["samples"]))
        profiles = []
        for s in samples:
            rng = np.random.default_rng([cfg["seed"], s])
            profiles.append(np.array([sample(d, rng) for d in dists]))
        values = np.array(profiles)
        for name in names:
            outcomes = _run_mechanism(name, inst, values, dists, cfg)
            ctrs = np.array([outcome.ctrs for outcome in outcomes])
            paid = np.array([outcome.payments for outcome in outcomes])
            # one dot product per row, as core.welfare takes it
            totals[name] += (values[:, None, :]
                             @ ctrs[:, :, None])[:, 0, 0].tolist()
            revenues[name] += paid.sum(axis=1).tolist()
        writer.writerows([s, name, repr(totals[name][s]),
                          repr(revenues[name][s]), cfg["seed"]]
                         for s in samples for name in names)

    def _stderr(series):
        if len(series) < 2:
            return 0.0
        return float(np.std(series, ddof=1) / math.sqrt(len(series)))

    for name in names:
        writer.writerow(["mean", name, repr(float(np.mean(totals[name]))),
                         repr(float(np.mean(revenues[name]))), cfg["seed"]])
        writer.writerow(["stderr", name, repr(_stderr(totals[name])),
                         repr(_stderr(revenues[name])), cfg["seed"]])
    _emit(text.getvalue(), cfg["out"])
    return EXIT_OK


def cmd_audit(cfg: dict) -> int:
    """Monotonicity sweeps plus the cascade welfare bounds of
    :mod:`slotauction.properties` on random instances.  Writes the measured
    ratios as a histogram; stops after the first trial with a violated
    property, prints each violation as one JSON line to stderr and exits 3."""
    rng = np.random.default_rng(cfg["seed"])
    eps = cfg["epsilon"]
    failures: list[str] = []
    ratio_rows: list[tuple[str, float]] = []

    def record(kind: str, ratios: list[float], violation: str | None) -> None:
        ratio_rows.extend((kind, ratio) for ratio in ratios)
        if violation is not None:
            failures.append(violation)

    mnl_solver = mechanisms.exact_mnl_solver()
    if cfg["planted_bug"]:
        mnl_solver = mechanisms.threshold_dropping_solver(mnl_solver, 5.0)
    sweep = np.linspace(0.25, 10.0, 8)
    for _ in range(20):
        inst = properties.random_instance(rng, MNL, 4, 4)
        bids = rng.uniform(0.1, 10.0, inst.n)
        failures += properties.monotonicity(mnl_solver, inst, bids, sweep)
        if failures:
            break

    if not failures:
        for _ in range(20):
            inst = properties.random_instance(rng, CASCADE, 4, 4)
            values = rng.uniform(0.1, 10.0, inst.n)
            record("restricted_over_cascade",
                   *properties.sandwich(inst, values))
            _chi_opt, opt = oracle.brute_force_wdp_cascade(inst, values)
            if opt > 0:
                out = cascade_wdp.ptas_restricted_welfare(inst, values, eps)
                ratio, violation = properties.restricted_search(
                    inst, values, out, eps, opt)
                record("ptas_over_opt", [ratio], violation)
                ratio, violation = properties.bucket_average(inst, values, opt)
                record("bucket_avg_over_opt", [ratio], violation)
            if failures:
                break

    if cfg["out"]:
        _emit(_csv_text(["ratio", "bin_lo", "bin_hi", "count"],
                        _histogram_rows(ratio_rows)), cfg["out"])
    if failures:
        print("\n".join(failures), file=sys.stderr)
        return EXIT_AUDIT
    print("audit clean")
    return EXIT_OK


def _histogram_rows(ratio_rows: list[tuple[str, float]]) -> list[Sequence]:
    """Bin the collected ratios (width 0.25, range [0, 4.25)) per kind."""
    edges = [0.25 * b for b in range(18)]
    counts: dict[tuple[str, int], int] = {}
    for kind, value in ratio_rows:
        x = min(max(value, 0.0), edges[-1] - 1e-12)
        b = int(x / 0.25)
        counts[(kind, b)] = counts.get((kind, b), 0) + 1
    return [
        [kind, repr(edges[b]), repr(edges[b + 1]), counts[(kind, b)]]
        for kind, b in sorted(counts)
    ]


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit:
        return EXIT_USAGE
    try:
        cfg = _merge_config(args)
        handler = {
            "solve": cmd_solve,
            "mechanism": cmd_mechanism,
            "simulate": cmd_simulate,
            "audit": cmd_audit,
        }[args.command]
        return handler(cfg)
    except (UsageError, OSError, json.JSONDecodeError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SlotauctionError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except Exception:
        print("internal error:", file=sys.stderr)
        traceback.print_exc(file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
