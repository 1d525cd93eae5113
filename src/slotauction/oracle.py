"""Brute-force reference solvers, valid at desk scale only.

Every optimizer in this package is cross-checked against exhaustive
enumeration here.  Guards are hard errors, never silent truncation.  The
inner loops work on raw advertiser->position dicts and precomputed rows so
the oracles stay usable inside Monte Carlo payment sweeps.
"""

from __future__ import annotations

import itertools
from typing import Iterator

import numpy as np

from .core import (
    Allocation,
    AugmentedAllocation,
    CASCADE,
    Instance,
    MNL,
    Permutation,
    SizeGuardError,
    ValidationError,
    cascade_ctr,
    mnl_ctr,
    require_valid,
    welfare,
)
from .cascade_wdp import optimal_permutation, restricted_ctr, sorted_view
from .mnl_wdp import WdpResult

# Acceptance packs draw n, m up to 6, so the guard admits 36 edges.
MAX_CELLS = 36


def _guard(inst: Instance) -> None:
    if inst.n * inst.m > MAX_CELLS:
        raise SizeGuardError(
            f"{inst.n}x{inst.m} exceeds the exhaustive-search guard"
            f" ({MAX_CELLS} cells)"
        )


def _matchings_raw(
    inst: Instance, candidates: list[int]
) -> Iterator[dict[int, int]]:
    """Yield every feasible matching once, as a reused scratch dict.

    Recursion runs positions ascending and advertisers ascending so the
    stream order is deterministic and failures are reproducible.  Callers
    must copy a dict before keeping it.
    """
    k = inst.k
    m = inst.m

    def recurse(j: int, used: dict[int, int]) -> Iterator[dict[int, int]]:
        if j == m:
            yield used
            return
        yield from recurse(j + 1, used)  # position j left empty
        if len(used) < k:
            for i in candidates:
                if i not in used:
                    used[i] = j
                    yield from recurse(j + 1, used)
                    del used[i]

    yield from recurse(0, {})


def enumerate_matchings(
    inst: Instance, active: set[int] | None = None
) -> Iterator[Allocation]:
    """Yield every feasible matching exactly once, in a deterministic order.
    ``active`` optionally restricts which advertisers may be matched."""
    require_valid(inst)
    _guard(inst)
    candidates = list(range(inst.n)) if active is None else sorted(active)
    for raw in _matchings_raw(inst, candidates):
        yield Allocation(dict(raw))


def brute_force_wdp_mnl(inst: Instance, bids) -> WdpResult:
    """Exact argmax of the bid-weighted MNL click-through over all matchings.
    Rendering order is irrelevant under MNL, so only matchings vary."""
    require_valid(inst)
    _guard(inst)
    if inst.model != MNL:
        raise ValidationError("expected an MNL instance")
    bids = np.asarray(bids, dtype=float)
    expo = np.exp(inst.log_odds())
    weighted = bids[:, None] * expo

    best_obj = 0.0
    best: dict[int, int] = {}
    for raw in _matchings_raw(inst, list(range(inst.n))):
        num = 0.0
        den = 1.0
        for i, j in raw.items():
            num += weighted[i, j]
            den += expo[i, j]
        obj = float(num / den)
        if obj > best_obj + 1e-15:
            best_obj = obj
            best = dict(raw)
    alloc = Allocation(best)
    return WdpResult(
        allocation=alloc, objective=best_obj, ctrs=mnl_ctr(inst, alloc)
    )


def brute_force_wdp_cascade(
    inst: Instance,
    values,
    paranoid: bool = False,
    active: set[int] | None = None,
) -> tuple[AugmentedAllocation, float]:
    """Exact cascade-welfare maximum over all matchings.

    By default each matching is rendered in decreasing order of matched
    value, which is welfare-maximal for a fixed matching.  ``paranoid``
    re-derives that by enumerating every permutation of matched positions.
    """
    require_valid(inst)
    _guard(inst)
    if inst.model != CASCADE:
        raise ValidationError("expected a cascade instance")
    values = np.asarray(values, dtype=float)
    candidates = list(range(inst.n)) if active is None else sorted(active)

    if paranoid:
        return _cascade_paranoid(inst, values, candidates)

    order = sorted_view(values)
    p = inst.p
    best_w = 0.0
    best: dict[int, int] = {}
    for raw in _matchings_raw(inst, candidates):
        survive = 1.0
        w = 0.0
        for i in order:
            j = raw.get(i)
            if j is None:
                continue
            pij = p[i, j]
            w += values[i] * pij * survive
            survive *= 1.0 - pij
        if w > best_w + 1e-15:
            best_w = float(w)
            best = dict(raw)
    alloc = Allocation(best)
    chi = AugmentedAllocation(alloc, optimal_permutation(alloc, values))
    return chi, best_w


def _cascade_paranoid(inst, values, candidates):
    empty = AugmentedAllocation(Allocation({}), Permutation({}))
    best: tuple[AugmentedAllocation, float] = (empty, 0.0)
    for raw in _matchings_raw(inst, candidates):
        alloc = Allocation(dict(raw))
        positions = list(alloc.assignment.values())
        for perm in itertools.permutations(positions):
            sigma = Permutation({j: r + 1 for r, j in enumerate(perm)})
            chi = AugmentedAllocation(alloc, sigma)
            w = welfare(values, cascade_ctr(inst, chi))
            if w > best[1] + 1e-15:
                best = (chi, w)
    return best


def brute_force_restricted(inst: Instance, values) -> tuple[Allocation, float]:
    """Exact maximum of the truncated no-cascade welfare over all matchings."""
    require_valid(inst)
    _guard(inst)
    if inst.model != CASCADE:
        raise ValidationError("expected a cascade instance")
    values = np.asarray(values, dtype=float)
    order = sorted_view(values)
    p = inst.p

    best_w = 0.0
    best: dict[int, int] = {}
    for raw in _matchings_raw(inst, list(range(inst.n))):
        headroom = 1.0
        w = 0.0
        for i in order:
            j = raw.get(i)
            if j is None:
                continue
            grant = min(p[i, j], headroom)
            w += values[i] * grant
            headroom -= grant
        if w > best_w + 1e-15:
            best_w = float(w)
            best = dict(raw)
    alloc = Allocation(best)
    return alloc, welfare(values, restricted_ctr(inst, alloc, values))
