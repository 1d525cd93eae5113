"""Cascade-model welfare machinery and approximation algorithms.

Exact cascade winner determination is combinatorial, so this module works
through two standard relaxations of the realized welfare:

* restricted welfare: no cascading, but per-advertiser rates are truncated
  so the running total (taken in decreasing-value order) never passes 1.
  For any matching it sandwiches the true cascade welfare within a factor
  of 4, and it can be searched to within (1 - eps) by guessing which single
  advertiser gets truncated and by how much, then solving a budget-capped
  matching for each guess (``ptas_restricted_welfare``).
* base welfare: raw sum of matched standalone rates, no truncation at all.
  Splitting edges into dyadic CTR buckets and running a cardinality-capped
  greedy matching per bucket gives a per-bucket constant factor, and picking
  a bucket uniformly at random costs only a log(m) factor overall while
  keeping every advertiser's click-through rate monotone in its own value
  (``combined_cascade_solver``).

The greedy path deliberately renders positions in the order edges were
picked, not in value order: re-sorting would break monotonicity, which the
payment rules in :mod:`slotauction.mechanisms` rely on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    Allocation,
    AugmentedAllocation,
    CASCADE,
    CtrVector,
    Instance,
    Permutation,
    SizeGuardError,
    ValidationError,
    require_valid,
    welfare,
)

# Cumulative float dust from the truncation recurrence; see zero_suppress.
ZERO_CTR_TOL = 1e-12
MAX_EXACT_EDGES = 24


def sorted_view(values) -> list[int]:
    """Advertiser indices in decreasing value order, ties index-ascending."""
    values = np.asarray(values, dtype=float)
    return sorted(range(values.shape[0]), key=lambda i: (-values[i], i))


def optimal_permutation(alloc: Allocation, values) -> Permutation:
    """Rank matched positions by their matched advertiser's value, highest
    first (ties by advertiser index).  For a fixed matching this rendering
    order maximizes cascade welfare: swapping any adjacent out-of-order pair
    changes welfare by a positive multiple of the value difference."""
    values = np.asarray(values, dtype=float)
    matched = sorted(
        alloc.assignment.items(), key=lambda ij: (-values[ij[0]], ij[0])
    )
    return Permutation({j: r + 1 for r, (_, j) in enumerate(matched)})


def restricted_ctr(inst: Instance, alloc: Allocation, values) -> CtrVector:
    """Truncated no-cascade rates, evaluated in decreasing-value order:
    each matched advertiser keeps min(p, headroom) where headroom is one
    minus everything granted so far.  At most one advertiser can end up
    strictly truncated yet positive; the guessing step of the PTAS depends
    on it, so a second one raises RuntimeError (a bug, not bad input)."""
    require_valid(inst)
    if inst.model != CASCADE:
        raise ValidationError("restricted rates are a cascade-model notion")
    values = np.asarray(values, dtype=float)
    pi = np.zeros(inst.n)
    headroom = 1.0
    discounted = 0
    for i in sorted_view(values):
        j = alloc.position_of(i)
        if j is None:
            continue
        raw = inst.p[i, j]
        grant = min(raw, headroom)
        pi[i] = grant
        headroom -= grant
        if 0.0 < grant < raw:
            discounted += 1
    if discounted > 1:
        raise RuntimeError("truncation hit more than one advertiser")
    return pi


def budgeted_ctr(inst: Instance, alloc: Allocation) -> CtrVector:
    """Raw matched standalone rates (no truncation, no cascading).  The sum
    may exceed 1; pairing with values gives the base welfare."""
    require_valid(inst)
    if inst.model != CASCADE:
        raise ValidationError("base rates are a cascade-model notion")
    pi = np.zeros(inst.n)
    for i, j in alloc.assignment.items():
        pi[i] = inst.p[i, j]
    return pi


def zero_suppress(inst: Instance, alloc: Allocation, values) -> Allocation:
    """Unmatch every advertiser whose truncated rate is zero.

    This never changes any truncated rate or the restricted welfare; it just
    normalizes the matching so untruncated advertisers keep their raw rates.
    Zero is tested up to ZERO_CTR_TOL because the truncation recurrence
    accumulates ~1e-17 of float dust on the headroom.
    """
    pi = restricted_ctr(inst, alloc, values)
    return Allocation(
        {i: j for i, j in alloc.assignment.items() if pi[i] > ZERO_CTR_TOL}
    )


def exact_budgeted_matching(
    inst: Instance, values, scaled_p: np.ndarray, budget: float = 1.0,
    cap: int | None = None,
) -> Allocation:
    """Maximize sum of v_i * scaled_p[i, j] over matchings whose matched
    scaled rates total at most ``budget``, with at most ``cap`` edges.

    Exhaustive branch-and-bound over matchings; fine at desk scale, guarded
    at MAX_EXACT_EDGES positive-weight edges.  Stands in for a polynomial
    approximation scheme behind the same interface.
    """
    require_valid(inst)
    values = np.asarray(values, dtype=float)
    scaled_p = np.asarray(scaled_p, dtype=float)
    cap = inst.k if cap is None else min(cap, inst.k)

    edges = [
        (i, j)
        for i in range(inst.n)
        for j in range(inst.m)
        if values[i] * scaled_p[i, j] > 0.0
    ]
    if len(edges) > MAX_EXACT_EDGES:
        raise SizeGuardError(
            f"{len(edges)} edges exceed the exact-search guard"
            f" ({MAX_EXACT_EDGES}); reduce the instance or use the greedy path"
        )

    by_adv: dict[int, list[int]] = {}
    for i, j in edges:
        by_adv.setdefault(i, []).append(j)
    # Branch on advertisers in decreasing best-edge weight for tight bounds.
    advs = sorted(
        by_adv,
        key=lambda i: -max(values[i] * scaled_p[i, j] for j in by_adv[i]),
    )
    best_w = {i: max(values[i] * scaled_p[i, j] for j in by_adv[i]) for i in advs}
    suffix_bound = [0.0] * (len(advs) + 1)
    for t in range(len(advs) - 1, -1, -1):
        suffix_bound[t] = suffix_bound[t + 1] + best_w[advs[t]]

    best = {"welfare": 0.0, "assignment": {}}

    def recurse(t: int, used_pos: set[int], spent: float, gained: float,
                chosen: dict[int, int]) -> None:
        if gained > best["welfare"] + 1e-15:
            best["welfare"] = gained
            best["assignment"] = dict(chosen)
        if t == len(advs) or gained + suffix_bound[t] <= best["welfare"] + 1e-15:
            return
        i = advs[t]
        recurse(t + 1, used_pos, spent, gained, chosen)  # skip advertiser i
        if len(chosen) >= cap:
            return
        for j in by_adv[i]:
            cost = scaled_p[i, j]
            if j in used_pos or spent + cost > budget + 1e-9:
                continue
            used_pos.add(j)
            chosen[i] = j
            recurse(t + 1, used_pos, spent + cost, gained + values[i] * cost,
                    chosen)
            del chosen[i]
            used_pos.remove(j)

    recurse(0, set(), 0.0, 0.0, {})
    return Allocation(best["assignment"])


def ptas_restricted_welfare(inst: Instance, values, eps: float) -> Allocation:
    """Search restricted welfare to within a (1 - eps) factor.

    At most one advertiser is truncated in any matching, so the search
    guesses that advertiser k and a discount level alpha on a grid of
    eps/2 steps, scales row k's rates by alpha, solves the budget-capped
    matching for the guess, and keeps whichever candidate scores best under
    the true (unscaled) restricted welfare.
    """
    require_valid(inst)
    if inst.model != CASCADE:
        raise ValidationError("the restricted-welfare search is cascade-only")
    if not 0.0 < eps < 1.0:
        raise ValidationError(f"eps must lie in (0, 1), got {eps}")
    values = np.asarray(values, dtype=float)

    grid = [g * eps / 2.0 for g in range(1, int(2.0 / eps + 1e-12) + 1)]
    if not grid or grid[-1] < 1.0 - 1e-12:
        grid.append(1.0)

    best_alloc = Allocation({})
    best_welfare = 0.0
    for k in range(inst.n):
        for alpha in grid:
            scaled = np.array(inst.p)
            scaled[k] *= alpha
            cand = exact_budgeted_matching(
                inst, values, scaled, budget=1.0, cap=inst.k
            )
            w = welfare(values, restricted_ctr(inst, cand, values))
            if w > best_welfare + 1e-15:
                best_welfare = w
                best_alloc = cand
    return best_alloc


@dataclass(frozen=True)
class Bucket:
    """Edges whose standalone CTR falls in one dyadic range.

    Bucket ``index`` (1-based) holds rates in (2^-index, 2^-(index-1)];
    the last bucket sweeps up everything at or below its threshold.  ``cap``
    bounds how many edges the per-bucket greedy may take.
    """

    index: int
    edges: tuple[tuple[int, int, float], ...]
    cap: int


def bucket_count(m: int) -> int:
    return max(1, math.ceil(math.log2(4 * m)))


def bucketize(inst: Instance) -> list[Bucket]:
    """Partition positive-CTR edges into dyadic buckets.

    The count is ceil(log2(4m)), which reduces to the usual log2(4m) when m
    is a power of two; the thresholds generalize directly and the last
    bucket still sits at or below 1/(2m).
    """
    require_valid(inst)
    if inst.model != CASCADE:
        raise ValidationError("bucketization is a cascade-model notion")
    count = bucket_count(inst.m)
    edges: list[list[tuple[int, int, float]]] = [[] for _ in range(count)]
    for i in range(inst.n):
        for j in range(inst.m):
            p = float(inst.p[i, j])
            if p <= 0.0:
                continue
            # Smallest level with p > 2^-level, clipped to the last bucket;
            # dyadic powers are exact floats so boundaries land exactly.
            level = 1
            while level < count and p <= 2.0 ** -level:
                level += 1
            edges[level - 1].append((i, j, p))
    return [
        Bucket(
            index=level,
            edges=tuple(edges[level - 1]),
            cap=min(2 ** level, inst.m, inst.k),
        )
        for level in range(1, count + 1)
    ]


def greedy_bucket(bucket: Bucket, values) -> AugmentedAllocation:
    """Greedy maximal matching inside one bucket, heaviest edges first.

    Edges are scanned by weight v_i * p descending with the deterministic
    lexicographic (advertiser, position) tie-break; an edge is taken when
    both endpoints are free, and the scan stops at the bucket cap.  Matched
    positions are rendered in the order edges were taken.
    """
    values = np.asarray(values, dtype=float)
    ranked = sorted(
        bucket.edges, key=lambda e: (-values[e[0]] * e[2], e[0], e[1])
    )
    assignment: dict[int, int] = {}
    rank: dict[int, int] = {}
    used_pos: set[int] = set()
    for i, j, _p in ranked:
        if i in assignment or j in used_pos:
            continue
        assignment[i] = j
        used_pos.add(j)
        rank[j] = len(rank) + 1
        if len(assignment) >= bucket.cap:
            break
    return AugmentedAllocation(Allocation(assignment), Permutation(rank))


def combined_cascade_candidates(
    inst: Instance, values
) -> list[AugmentedAllocation]:
    """Deterministic variant: the greedy outcome of every bucket, in bucket
    order, empty buckets included.  Exact-expectation tests average these."""
    return [greedy_bucket(b, values) for b in bucketize(inst)]


def combined_cascade_solver(
    inst: Instance, values, rng: np.random.Generator
) -> AugmentedAllocation:
    """Run the per-bucket greedy everywhere and return one bucket's outcome,
    chosen uniformly at random among buckets that have edges at all.

    Which buckets have edges depends only on the CTR matrix, never on
    values, so the mixture inherits the per-bucket monotonicity of each
    advertiser's click-through rate in its own value.
    """
    buckets = bucketize(inst)
    candidates = combined_cascade_candidates(inst, values)
    populated = [c for b, c in zip(buckets, candidates) if b.edges]
    if not populated:
        return AugmentedAllocation(Allocation({}), Permutation({}))
    return populated[int(rng.integers(len(populated)))]
