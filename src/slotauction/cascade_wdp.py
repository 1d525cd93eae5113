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

The bucket path works on arrays, because envelope pricing probes it hundreds
of times per auction: ``bucket_levels`` computes every edge's dyadic level
once per instance, and one greedy scan (``greedy_picks``) serves
``greedy_bucket``, both ``combined_cascade_*`` functions and the mechanisms'
greedy solver, which build frozen outcome objects only for what they return.
``OwnBidCurves`` reuses the same take rule to give each advertiser's mixture
CTR as an exact function of its own bid (its critical values, in the sense
of Lehmann, O'Callaghan and Shoham), so the mechanisms audit and price the
greedy without re-solving it per bid.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from typing import NamedTuple

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
    bid_vector,
    check_feasible,
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


def _values_cover(advertisers, values) -> np.ndarray:
    """``values`` as a float array, checked to have an entry for every one
    of ``advertisers``."""
    values = np.asarray(values, dtype=float)
    if values.ndim != 1:
        raise ValidationError(
            f"values of shape {values.shape}, expected a vector")
    for i in advertisers:
        if not 0 <= i < values.shape[0]:
            raise ValidationError(
                f"advertiser {i} has no value among {values.shape[0]}")
    return values


def optimal_permutation(alloc: Allocation, values) -> Permutation:
    """Rank matched positions by their matched advertiser's value, highest
    first (ties by advertiser index).  For a fixed matching this rendering
    order maximizes cascade welfare: swapping any adjacent out-of-order pair
    changes welfare by a positive multiple of the value difference.

    A matched advertiser outside ``0..len(values) - 1`` raises
    ``ValidationError``; surplus values cannot be detected without an
    instance."""
    values = _values_cover(alloc.assignment, values)
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
    require_valid(inst, CASCADE)
    values = bid_vector(inst, values)
    check_feasible(inst, alloc)
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
    require_valid(inst, CASCADE)
    check_feasible(inst, alloc)
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
    values = bid_vector(inst, values)
    scaled_p = np.asarray(scaled_p, dtype=float)
    if scaled_p.shape != inst.p.shape:
        raise ValidationError(
            f"scaled rates of shape {scaled_p.shape}, expected {inst.p.shape}")
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
    the true (unscaled) restricted welfare.  Alpha = 1 scales no row, so that
    guess is solved once, for k = 0.
    """
    require_valid(inst, CASCADE)
    if not 0.0 < eps < 1.0:
        raise ValidationError(f"eps must lie in (0, 1), got {eps}")
    values = bid_vector(inst, values)

    grid = [g * eps / 2.0 for g in range(1, int(2.0 / eps + 1e-12) + 1)]
    if not grid or grid[-1] < 1.0 - 1e-12:
        grid.append(1.0)

    best_alloc = Allocation({})
    best_welfare = 0.0
    for k in range(inst.n):
        for alpha in grid:
            if alpha == 1.0 and k > 0:
                continue  # unscaled: the same candidate as k = 0 gave
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


def _bucket_caps(inst: Instance) -> dict[int, int]:
    """How many edges the greedy may take in each bucket level."""
    return {
        level: min(2 ** level, inst.m, inst.k)
        for level in range(1, bucket_count(inst.m) + 1)
    }


def bucket_levels(inst: Instance) -> np.ndarray:
    """The bucket level of every edge: 0 where p is 0, otherwise the
    smallest level L with p > 2^-L, clipped to ``bucket_count(m)``.

    The dyadic thresholds are exact floats, so counting the ones p sits at
    or below lands every boundary exactly.  Instances are frozen, so the
    read-only matrix is computed once per instance.
    """
    require_valid(inst, CASCADE)
    levels = getattr(inst, "_bucket_levels", None)
    if levels is not None:
        return levels
    thresholds = np.ldexp(1.0, -np.arange(1, bucket_count(inst.m)))
    levels = 1 + (inst.p[:, :, None] <= thresholds).sum(axis=2)
    levels[inst.p <= 0.0] = 0
    levels.flags.writeable = False
    object.__setattr__(inst, "_bucket_levels", levels)
    return levels


def bucketize(inst: Instance) -> list[Bucket]:
    """Partition positive-CTR edges into dyadic buckets, each bucket's
    edges in row-major order.

    The count is ceil(log2(4m)), which reduces to the usual log2(4m) when m
    is a power of two; the thresholds generalize directly and the last
    bucket still sits at or below 1/(2m).
    """
    levels = bucket_levels(inst)
    buckets = []
    for level, cap in _bucket_caps(inst).items():
        ii, jj = np.nonzero(levels == level)
        edges = zip(ii.tolist(), jj.tolist(), inst.p[ii, jj].tolist())
        buckets.append(Bucket(index=level, edges=tuple(edges), cap=cap))
    return buckets


def _scan_order(ii, jj, weights, lv) -> np.ndarray:
    """The greedy's scan order over edge arrays: bucket level ascending,
    then weight v_i * p descending, ties by (advertiser, position)."""
    return np.lexsort((jj, ii, -weights, lv))


def _level_starts(lv: np.ndarray) -> list[int]:
    """Bounds of the runs of equal levels in a level-sorted array."""
    return [0, *(np.flatnonzero(np.diff(lv)) + 1).tolist(), len(lv)]


def _take_free_pairs(ii, jj, lo: int, hi: int, cap: int,
                     skip: int = -1) -> list[int]:
    """Scan edges lo..hi-1, already in scan order, and return the indices of
    those taken: an edge is taken when neither its advertiser nor its
    position is used yet, and the scan stops after ``cap`` takes.  Edges of
    advertiser ``skip`` are passed over, as if it were absent."""
    taken: list[int] = []
    used_adv = {skip}
    used_pos: set[int] = set()
    for t in range(lo, hi):
        i, j = ii[t], jj[t]
        if i in used_adv or j in used_pos:
            continue
        taken.append(t)
        used_adv.add(i)
        used_pos.add(j)
        if len(taken) >= cap:
            break
    return taken


def _greedy_scan(
    ii, jj, pp, lv, values, caps
) -> dict[int, list[tuple[int, int]]]:
    """The greedy matching inside every bucket that has edges, given as
    arrays: edge t joins advertiser ii[t] and position jj[t] at rate pp[t]
    and lies in bucket level lv[t]; ``caps`` maps a level to its cap.

    Within a bucket, edges are scanned by weight v_i * p descending with the
    deterministic lexicographic (advertiser, position) tie-break; an edge is
    taken when both endpoints are free, and the scan stops at the cap.
    Returns each populated level's pairs in the order taken, levels
    ascending.
    """
    if len(lv) == 0:
        return {}
    order = _scan_order(ii, jj, values[ii] * pp, lv)
    lv = lv[order]
    starts = _level_starts(lv)
    ii, jj, lv = ii[order].tolist(), jj[order].tolist(), lv.tolist()
    picks = {}
    for lo, hi in zip(starts, starts[1:]):
        taken = _take_free_pairs(ii, jj, lo, hi, caps[lv[lo]])
        picks[lv[lo]] = [(ii[t], jj[t]) for t in taken]
    return picks


def greedy_picks(
    inst: Instance, levels: np.ndarray, values
) -> dict[int, list[tuple[int, int]]]:
    """Run the per-bucket greedy over a level matrix (``bucket_levels``,
    possibly with rows zeroed to leave advertisers out): each populated
    level's matched pairs in the order taken, levels ascending."""
    require_valid(inst, CASCADE)
    values = bid_vector(inst, values)
    ii, jj = np.nonzero(levels)
    return _greedy_scan(
        ii, jj, inst.p[ii, jj], levels[ii, jj], values, _bucket_caps(inst)
    )


def bucket_mixture(terms):
    """The uniform average over populated buckets, summed in level order:
    one rule for the solver's CTR vectors and the curve's scalars."""
    total = terms[0]
    for term in terms[1:]:
        total = total + term
    return total / len(terms)


@dataclass(frozen=True)
class _OthersScan:
    """One bucket's greedy over the other advertisers, cut at the cap: each
    pick's scan key (-weight, advertiser), the pick index at which each
    position became used, and the survival product before each pick."""

    cap: int
    keys: list[tuple[float, int]]
    used_at: dict[int, int]
    survive: list[float]


class _Run(NamedTuple):
    """One bucket's slice lo..hi of the template's sorted edges, the rows
    with edges in it, and the template's greedy scan there."""

    lo: int
    hi: int
    rows: set[int]
    scan: _OthersScan


class OwnBidCurves:
    """Every advertiser's mixture CTR under the bucket greedy as an exact
    function of its own bid, all other bids fixed at ``bids``.

    Inside a bucket, the greedy with advertiser i present scans exactly like
    the greedy without i until i takes an edge, so one scan of the others
    per bucket prices every own bid: edge (i, j) at bid b is reached after
    the picks whose scan key (-w, advertiser) sorts before (-b * p_ij, i),
    and i takes its first edge, in (-b * p_ij, j) order, whose position is
    still free while the pick count is below the cap.  Its CTR there is the
    survival product of the picks before it times p_ij, as in
    ``core.cascade_rates``.  Which buckets are populated depends only on
    which rows bid above 0.

    The template's edges are sorted and scanned once.  Advertiser i's own
    row is left out of a bucket's scan by rescanning only the buckets where
    the template's greedy picked it; elsewhere its edges were passed over
    and the template's scan already is the others' scan.
    """

    def __init__(self, inst: Instance, bids) -> None:
        self._levels = bucket_levels(inst)
        self.inst = inst
        self.bids = bid_vector(inst, bids)
        self._caps = _bucket_caps(inst)
        ii, jj = np.nonzero(
            np.where((self.bids > 0.0)[:, None], self._levels, 0))
        pp, lv = inst.p[ii, jj], self._levels[ii, jj]
        weights = self.bids[ii] * pp
        order = _scan_order(ii, jj, weights, lv)
        self._ii, self._jj = ii[order].tolist(), jj[order].tolist()
        self._pp, self._w = pp[order].tolist(), weights[order].tolist()
        lv = lv[order]
        starts = _level_starts(lv)
        self._runs: dict[int, _Run] = {}
        for lo, hi in zip(starts[:-1], starts[1:]):
            if lo < hi:
                level = int(lv[lo])
                self._runs[level] = _Run(lo, hi, set(self._ii[lo:hi]),
                                         self._scan(lo, hi, level))

    def _scan(self, lo: int, hi: int, level: int,
              skip: int = -1) -> _OthersScan:
        cap = self._caps[level]
        taken = _take_free_pairs(self._ii, self._jj, lo, hi, cap, skip)
        survive = [1.0]
        for t in taken:
            survive.append(survive[-1] * (1.0 - self._pp[t]))
        return _OthersScan(
            cap=cap,
            keys=[(-self._w[t], self._ii[t]) for t in taken],
            used_at={self._jj[t]: q for q, t in enumerate(taken)},
            survive=survive,
        )

    def of(self, i: int):
        """Advertiser i's curve: own bid -> (mixture CTR, number of
        populated buckets the solver draws its sampled outcome from)."""
        own_levels, own_p = self._levels[i], self.inst.p[i]
        without, buckets = 0, []
        for level, cap in self._caps.items():
            js = np.flatnonzero(own_levels == level)
            own = sorted(zip(own_p[js].tolist(), js.tolist()),
                         key=lambda pj: (-pj[0], pj[1]))
            run = self._runs.get(level)
            if run is not None and len(run.rows) > (i in run.rows):
                without += 1  # someone other than i has edges here
                scan = run.scan
                if any(adv == i for _w, adv in scan.keys):
                    scan = self._scan(run.lo, run.hi, level, skip=i)
            elif own:
                scan = _OthersScan(cap, [], {}, [1.0])
            else:
                continue
            buckets.append((scan, own))

        def ctr(b: float) -> tuple[float, int]:
            if not b > 0.0:
                return 0.0, without
            if not buckets:
                return 0.0, 0
            return bucket_mixture(
                [_first_take(scan, own, i, b) for scan, own in buckets]
            ), len(buckets)

        return ctr


def _first_take(scan: _OthersScan, own, i: int, b: float) -> float:
    """Advertiser i's CTR in one bucket at own bid b: ``own`` lists its
    (p, position) edges there sorted by (-p, position).  Equal weights b * p
    share a scan rank, and among them the lower position comes first."""
    t = 0
    while t < len(own):
        wb = b * own[t][0]
        c = bisect_left(scan.keys, (-wb, i))
        if c >= scan.cap:
            return 0.0
        best = None
        while t < len(own) and b * own[t][0] == wb:
            p, j = own[t]
            if scan.used_at.get(j, c) >= c and (best is None or j < best[1]):
                best = (p, j)
            t += 1
        if best is not None:
            return scan.survive[c] * best[0]
    return 0.0


def greedy_bucket(bucket: Bucket, values) -> AugmentedAllocation:
    """Greedy maximal matching inside one bucket, heaviest edges first (the
    scan of ``greedy_picks``).  Matched positions are rendered in the order
    edges were taken.

    An edge advertiser outside ``0..len(values) - 1`` raises
    ``ValidationError``; surplus values cannot be detected without an
    instance."""
    values = _values_cover((i for i, _j, _p in bucket.edges), values)
    if not bucket.edges:
        return AugmentedAllocation.from_pairs([])
    ii, jj, pp = (np.array(column) for column in zip(*bucket.edges))
    picks = _greedy_scan(
        ii, jj, pp, np.full(len(ii), bucket.index),
        values, {bucket.index: bucket.cap},
    )
    return AugmentedAllocation.from_pairs(picks[bucket.index])


def combined_cascade_candidates(
    inst: Instance, values
) -> list[AugmentedAllocation]:
    """Deterministic variant: the greedy outcome of every bucket, in bucket
    order, empty buckets included.  Exact-expectation tests average these."""
    picks = greedy_picks(inst, bucket_levels(inst), values)
    return [
        AugmentedAllocation.from_pairs(picks.get(level, []))
        for level in range(1, bucket_count(inst.m) + 1)
    ]


def combined_cascade_solver(
    inst: Instance, values, rng: np.random.Generator
) -> AugmentedAllocation:
    """Run the per-bucket greedy everywhere and return one bucket's outcome,
    chosen uniformly at random among buckets that have edges at all.

    Which buckets have edges depends only on the CTR matrix, never on
    values, so the mixture inherits the per-bucket monotonicity of each
    advertiser's click-through rate in its own value.
    """
    populated = list(greedy_picks(inst, bucket_levels(inst), values).values())
    if not populated:
        return AugmentedAllocation.from_pairs([])
    return AugmentedAllocation.from_pairs(
        populated[int(rng.integers(len(populated)))]
    )
