"""The paper's guarantees as checks, each written once for the CLI's
``audit`` command and the test suites, plus the random instances they run on.

A check returns ``None`` when its guarantee holds and otherwise a violation:
one JSON line naming the property, with the instance (in
``core.instance_to_dict`` form) and values that reproduce it.  The welfare
checks also return the ratio they measured.  Two checks cover a whole
instance at once: ``sandwich`` every matching, returning the ratios up to
the first violation, and ``monotonicity`` every advertiser, returning a
list of violations.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .cascade_wdp import (
    Bucket,
    budgeted_ctr,
    combined_cascade_candidates,
    greedy_bucket,
    optimal_permutation,
    restricted_ctr,
    sorted_view,
)
from .core import (
    Allocation,
    AugmentedAllocation,
    CASCADE,
    Instance,
    MNL,
    bid_vector,
    cascade_ctr,
    instance_to_dict,
    require_valid,
    welfare,
)
from . import oracle
from .mechanisms import SolverHandle, audit_drops

TOL = 1e-9
# Restricted welfare is at most this many times cascade welfare.
SANDWICH_FACTOR = 4.0
# Rates are drawn from U(0.01, high); MNL instances reject rates near 1.
_P_HIGH = {MNL: 0.95, CASCADE: 1.0}

Checked = tuple[float, str | None]


def random_instance(
    rng: np.random.Generator, model: str, nmax: int, mmax: int
) -> Instance:
    """Draw n in [1, nmax], m in [1, mmax], k in [1, m] and then the rate
    matrix, in that order, so a seed always yields the same instance."""
    n = int(rng.integers(1, nmax + 1))
    m = int(rng.integers(1, mmax + 1))
    k = int(rng.integers(1, m + 1))
    p = rng.uniform(0.01, _P_HIGH[model], (n, m))
    return Instance(n=n, m=m, k=k, p=p, model=model)


def _violation(name: str, inst: Instance, values, **detail) -> str:
    return json.dumps({"property": name, "instance": instance_to_dict(inst),
                       "values": [float(v) for v in values], **detail},
                      sort_keys=True)


def cascade_welfare(inst: Instance, alloc: Allocation, values) -> float:
    """Cascade welfare of ``alloc`` rendered in decreasing value order, the
    best rendering order for a fixed matching."""
    require_valid(inst, CASCADE)
    values = bid_vector(inst, values)
    chi = AugmentedAllocation(alloc, optimal_permutation(alloc, values))
    return welfare(values, cascade_ctr(inst, chi))


def sandwich(inst: Instance, values) -> tuple[list[float], str | None]:
    """Every matching's restricted welfare w_r lies between its cascade
    welfare w and ``SANDWICH_FACTOR`` (4) times w; a matching's ratio is
    w_r / w (1 when w is 0).

    The matchings are the oracle's table rows, in its order, scored at
    once: cascade and truncated rates by the value-order recurrences of
    ``cascade_welfare`` and ``restricted_ctr``, welfare by one dot product
    per row, as ``core.welfare`` takes it.  Returns the ratios up to and
    including the first violating matching, and its violation (None if
    there is none).  Like ``restricted_ctr``, a second truncated advertiser
    among those matchings raises ``RuntimeError``."""
    table, values = oracle._matchings(inst, CASCADE, values)
    rates = table.rates(inst.p)
    rows = rates.shape[0]
    ctrs, granted = np.zeros(rates.shape), np.zeros(rates.shape)
    survive, headroom = np.ones(rows), np.ones(rows)
    discounted = np.zeros(rows, dtype=np.intp)
    # An unmatched advertiser has rate 0.0: no CTR, no grant, no change.
    for i in sorted_view(values):
        p = rates[:, i]
        ctrs[:, i] = survive * p
        survive = survive * (1.0 - p)
        granted[:, i] = grant = np.minimum(p, headroom)
        headroom = headroom - grant
        discounted += (0.0 < grant) & (grant < p)
    # (1 x n) @ (n x 1) per row is numpy's dot, as in core.welfare
    w = (ctrs[:, None, :] @ values[:, None])[:, 0, 0]
    w_r = (granted[:, None, :] @ values[:, None])[:, 0, 0]
    ratios = np.divide(w_r, w, out=np.ones(rows), where=w > 0)
    fails = np.flatnonzero(
        ~((w - TOL <= w_r) & (w_r <= SANDWICH_FACTOR * w + TOL)))
    checked = fails[0] + 1 if fails.size else rows
    if (discounted[:checked] > 1).any():
        raise RuntimeError("truncation hit more than one advertiser")
    if not fails.size:
        return ratios.tolist(), None
    r = fails[0]
    return ratios[:checked].tolist(), _violation(
        "sandwich", inst, values,
        allocation=Allocation(dict(table.pairs[r])).pairs(),
        welfare=float(w[r]), restricted_welfare=float(w_r[r]))


def restricted_search(
    inst: Instance, values, alloc: Allocation, eps: float, opt: float
) -> Checked:
    """``alloc``, the restricted-welfare search's output at accuracy
    ``eps``, has cascade welfare of at least (1 - eps)/4 of the cascade
    optimum ``opt``; the ratio is welfare / opt (1 when opt is 0)."""
    w = cascade_welfare(inst, alloc, values)
    ratio = w / opt if opt > 0 else 1.0
    if w >= (1.0 - eps) / 4.0 * opt - TOL:
        return ratio, None
    return ratio, _violation("restricted_search", inst, values, eps=eps,
                             allocation=alloc.pairs(), welfare=w,
                             optimum=opt)


def bucket_average(inst: Instance, values, opt: float) -> Checked:
    """Cascade welfare averaged over every bucket's greedy outcome is at
    least opt / (28 log2(4m)) for the cascade optimum ``opt``; the ratio is
    average / opt (1 when opt is 0)."""
    avg = float(np.mean([welfare(values, cascade_ctr(inst, c))
                         for c in combined_cascade_candidates(inst, values)]))
    ratio = avg / opt if opt > 0 else 1.0
    if avg >= opt / (28.0 * math.log2(4 * inst.m)) - TOL:
        return ratio, None
    return ratio, _violation("bucket_average", inst, values, average=avg,
                             optimum=opt)


def greedy_bucket_constants(
    inst: Instance, values, bucket: Bucket
) -> str | None:
    """The greedy outcome of ``bucket`` has base welfare (raw matched rates)
    of at least 1/2 of the best base welfare of any matching of at most
    ``bucket.cap`` of the bucket's edges, found by enumeration, and cascade
    welfare of at least 1/14 of its own base welfare."""
    require_valid(inst, CASCADE)
    values = bid_vector(inst, values)
    chi = greedy_bucket(bucket, values)
    cascade = welfare(values, cascade_ctr(inst, chi))
    base = welfare(values, budgeted_ctr(inst, chi.allocation))
    p = np.zeros_like(inst.p)
    for i, j, pij in bucket.edges:
        p[i, j] = pij
    capped = Instance(n=inst.n, m=inst.m, k=bucket.cap, p=p, model=CASCADE)
    best_base = max(welfare(values, budgeted_ctr(capped, alloc))
                    for alloc in oracle.enumerate_matchings(capped))
    if base >= 0.5 * best_base - TOL and cascade >= base / 14.0 - TOL:
        return None
    return _violation("greedy_bucket_constants", inst, values,
                      bucket=bucket.index, cap=bucket.cap,
                      allocation=chi.allocation.pairs(), base_welfare=base,
                      cascade_welfare=cascade, best_base_welfare=best_base)


def monotonicity(
    solver: SolverHandle, inst: Instance, bids, grid
) -> list[str]:
    """Every advertiser's CTR never falls along its own bid ``grid``, the
    others bidding ``bids``: one violation per advertiser with a drop, in
    advertiser order, its ``drop`` as
    :func:`slotauction.mechanisms.monotonicity_audit` reports it.  The
    sweeps are read by :func:`slotauction.mechanisms.audit_drops`."""
    grid = [float(g) for g in grid]
    return [_violation("monotonicity", inst, bids, advertiser=int(i),
                       grid=grid, drop=drop)
            for i, drop in audit_drops(solver, inst, bids, grid)
            if drop is not None]
