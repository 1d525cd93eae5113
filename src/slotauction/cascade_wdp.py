"""Cascade-model welfare machinery and approximation algorithms.

Exact cascade winner determination is combinatorial, so this module works
through two standard relaxations of the realized welfare:

* restricted welfare: no cascading, but per-advertiser rates are truncated
  so the running total (taken in decreasing-value order) never passes 1.
  For any matching it sandwiches the true cascade welfare within a factor
  of 4, and it can be searched to within (1 - eps) by guessing which single
  advertiser gets truncated and by how much, then solving a budget-capped
  matching for each guess (``ptas_restricted_welfare``), all guesses at
  once on the oracle's matching table, up to its 36-cell guard.
* base welfare: raw sum of matched standalone rates, no truncation at all.
  Splitting edges into dyadic CTR buckets and running a cardinality-capped
  greedy matching per bucket gives a per-bucket constant factor, and picking
  a bucket uniformly at random costs only a log(m) factor overall while
  keeping every advertiser's click-through rate monotone in its own value
  (``greedy_outcome``).

The greedy path deliberately renders positions in the order edges were
picked, not in value order: re-sorting would break monotonicity, which the
payment rules in :mod:`slotauction.mechanisms` rely on.

The bucket path works on arrays, because envelope pricing probes it hundreds
of times per auction: ``bucket_levels`` computes every edge's dyadic level
once per instance, and ``_scan_edges`` holds the greedy's one bid rule
(advertisers valued at most 0 never win) and its one scan order.  One
greedy scan over those edges (``greedy_picks``) serves ``greedy_bucket``,
``combined_cascade_candidates`` and ``greedy_outcome``, the one sampled
outcome, with its one random draw, behind both ``combined_cascade_solver``
and the mechanisms' greedy handle; all build frozen outcome objects only for
what they return.  ``OwnBidCurves`` reads its edges through ``_scan_edges``
too and reuses the same take rule to give each advertiser's mixture
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
    cascade_rates,
    check_feasible,
    require_valid,
    welfare,
)

# Cumulative float dust from the truncation recurrence; see zero_suppress.
ZERO_CTR_TOL = 1e-12
# Rates the restricted-welfare search scores at once: 8 MB per temporary.
SCORE_BLOCK = 1 << 20
# The restricted-welfare search's guard on guesses x (table rows + 64): a
# row scores in ~0.13 us, and the 64 rows are a margin for each guess's own
# cost, ~0.3 us and ~100 B (1x1, 400k guesses: 0.11 s, 68 MB peak).  6x6,
# k = 6 counts ~16M at eps = 0.01 (~2 s, 2 vCPUs); 1x1 admits ~0.5M guesses.
PTAS_SCORES = 1 << 25


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
    scaled rates total at most ``budget``, with at most ``cap`` edges, each
    of positive weight v_i * scaled_p[i, j].  Exhaustive over the oracle's
    matching table, with its tie rule and its size guard; the one-guess
    case of ``ptas_restricted_welfare``'s search.
    """
    from . import oracle  # oracle imports this module

    table, values = oracle._matchings(inst, None, values)
    scaled_p = np.asarray(scaled_p, dtype=float)
    if scaled_p.shape != inst.p.shape:
        raise ValidationError(
            f"scaled rates of shape {scaled_p.shape}, expected {inst.p.shape}")
    cap = inst.k if cap is None else min(cap, inst.k)
    scores = _budgeted_scores(
        table, values, table.rates(scaled_p)[None], budget, cap)
    return Allocation(dict(table.pairs[oracle._first_best_rows(scores)[0]]))


def _budgeted_scores(table, values, rates: np.ndarray, budget: float,
                     cap: int) -> np.ndarray:
    """Per guess g and table row, the row's weight sum v_i * rates[g] if
    its rates total at most ``budget`` + 1e-9, it has at most ``cap``
    edges and each weighs more than 0; otherwise -inf, which never beats."""
    matched = table.positions >= 0
    weight = table.weights(values, rates)
    feasible = ((rates.sum(axis=2) <= budget + 1e-9)
                & ~(matched & ~(weight > 0.0)).any(axis=2)
                & (matched.sum(axis=1) <= cap))
    return np.where(feasible, weight.sum(axis=2), -np.inf)


def ptas_restricted_welfare(inst: Instance, values, eps: float) -> Allocation:
    """Search restricted welfare to within a (1 - eps) factor.

    At most one advertiser is truncated in any matching, so the search
    guesses that advertiser k and a discount level alpha on a grid of
    eps/2 steps, scales row k's rates by alpha, solves the budget-capped
    matching for the guess, and keeps whichever candidate scores best under
    the true (unscaled) restricted welfare.  Alpha = 1 scales no row, so
    that guess is made once, for k = 0.  All guesses are scored on one
    matching table (``SCORE_BLOCK`` rates at a time), as
    ``exact_budgeted_matching`` scores one.  A search past ``PTAS_SCORES``
    raises ``SizeGuardError`` before any guess is made.
    """
    from . import oracle  # oracle imports this module

    if not 0.0 < eps < 1.0:
        raise ValidationError(f"eps must lie in (0, 1), got {eps}")
    table, values = oracle._matchings(inst, CASCADE, values)
    guesses = inst.n * (2.0 / eps + 1.0)  # a float: inf, not an overflow
    if guesses * (len(table) + 64) > PTAS_SCORES:
        raise SizeGuardError(
            f"eps = {eps} makes ~{guesses:.3g} guesses on {len(table)} table"
            f" rows, past the restricted-search guard ({PTAS_SCORES} scores)")

    grid = np.arange(1, int(2.0 / eps + 1e-12) + 1) * eps / 2.0
    if not grid.size or grid[-1] < 1.0 - 1e-12:
        grid = np.append(grid, 1.0)
    # every (k, alpha) guess, k-major, alpha = 1 for k = 0 only
    every_k = np.repeat(np.arange(inst.n), grid.size)
    every_alpha = np.tile(grid, inst.n)
    once = (every_alpha != 1.0) | (every_k == 0)
    every_k, every_alpha = every_k[once], every_alpha[once]
    rates = table.rates(inst.p)
    block = max(1, SCORE_BLOCK // rates.size)
    picks = []
    for lo in range(0, every_k.size, block):
        ks, alphas = every_k[lo:lo + block], every_alpha[lo:lo + block]
        stack = np.repeat(rates[None], len(ks), axis=0)
        stack[np.arange(len(ks)), :, ks] *= alphas[:, None]
        scores = _budgeted_scores(table, values, stack, 1.0, inst.k)
        picks.extend(oracle._first_best_rows(scores).tolist())

    def scored():
        yield 0.0, Allocation({})
        for row in dict.fromkeys(picks):  # a repeated pick scores the same
            cand = Allocation(dict(table.pairs[row]))
            yield welfare(values, restricted_ctr(inst, cand, values)), cand

    return oracle._first_best(scored())[0]


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


def _scan_edges(ii, jj, pp, lv, values):
    """The edges the greedy scans, in its scan order: edge t joins
    advertiser ii[t] and position jj[t] at rate pp[t] in bucket level lv[t].

    The bid rule: an edge whose advertiser is valued at most 0 is left out,
    so such an advertiser never wins and a bucket holding only such edges
    is not populated.  The rest sort by level ascending, then weight
    v_i * p descending, ties by (advertiser, position).  Returns the sorted
    advertisers, positions, rates and weights as lists, and each populated
    level's (lo, hi) slice of them, levels ascending.
    """
    keep = values[ii] > 0.0
    ii, jj, pp, lv = ii[keep], jj[keep], pp[keep], lv[keep]
    weights = values[ii] * pp
    order = np.lexsort((jj, ii, -weights, lv))
    lv = lv[order]
    bounds = [0, *(np.flatnonzero(np.diff(lv)) + 1).tolist(), len(lv)]
    runs = {int(lv[lo]): (lo, hi)
            for lo, hi in zip(bounds, bounds[1:]) if lo < hi}
    return (ii[order].tolist(), jj[order].tolist(), pp[order].tolist(),
            weights[order].tolist(), runs)


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
    """The greedy matching inside every populated bucket, over the edge
    arrays of ``_scan_edges``; ``caps`` maps a level to its cap.

    Within a bucket, edges are scanned in ``_scan_edges`` order; an edge is
    taken when both endpoints are free, and the scan stops at the cap.
    Returns each populated level's pairs in the order taken, levels
    ascending.
    """
    ii, jj, _pp, _w, runs = _scan_edges(ii, jj, pp, lv, values)
    return {
        level: [(ii[t], jj[t])
                for t in _take_free_pairs(ii, jj, lo, hi, caps[level])]
        for level, (lo, hi) in runs.items()
    }


def greedy_picks(inst: Instance, values) -> dict[int, list[tuple[int, int]]]:
    """Run the per-bucket greedy on ``inst``: each populated level's matched
    pairs in the order taken, levels ascending."""
    levels = bucket_levels(inst)
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

    The template's edges are sorted (by ``_scan_edges``, so rows bidding at
    most 0 are left out) and scanned once.  Advertiser i's own
    row is left out of a bucket's scan by rescanning only the buckets where
    the template's greedy picked it; elsewhere its edges were passed over
    and the template's scan already is the others' scan.
    """

    def __init__(self, inst: Instance, bids) -> None:
        self._levels = bucket_levels(inst)
        self._p = inst.p
        self._caps = _bucket_caps(inst)
        ii, jj = np.nonzero(self._levels)
        self._ii, self._jj, self._pp, self._w, runs = _scan_edges(
            ii, jj, inst.p[ii, jj], self._levels[ii, jj],
            bid_vector(inst, bids))
        self._runs = {
            level: _Run(lo, hi, set(self._ii[lo:hi]), self._scan(lo, hi, level))
            for level, (lo, hi) in runs.items()
        }

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
        own_levels, own_p = self._levels[i], self._p[i]
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
    scan of ``greedy_picks``, with its bid rule).  Matched positions are
    rendered in the order edges were taken.

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
    return AugmentedAllocation.from_pairs(picks.get(bucket.index, []))


def combined_cascade_candidates(
    inst: Instance, values
) -> list[AugmentedAllocation]:
    """Deterministic variant: the greedy outcome of every bucket, in bucket
    order, empty buckets included.  Exact-expectation tests average these."""
    picks = greedy_picks(inst, values)
    return [
        AugmentedAllocation.from_pairs(picks.get(level, []))
        for level in range(1, bucket_count(inst.m) + 1)
    ]


def greedy_outcome(
    inst: Instance, values, rng: np.random.Generator
) -> tuple[AugmentedAllocation, CtrVector]:
    """The bucket greedy's outcome: one populated bucket's picks, drawn
    uniformly via ``rng`` and rendered in pick order, and the uniform
    mixture of every populated bucket's cascade CTRs, which takes no draw.
    With no populated bucket: no allocation, zero CTRs and no draw.

    Which buckets are populated depends only on the CTR matrix and on which
    values are positive, so the mixture inherits the per-bucket
    monotonicity of each advertiser's click-through rate in its own value.
    """
    picks = list(greedy_picks(inst, values).values())
    if not picks:
        return AugmentedAllocation.from_pairs([]), np.zeros(inst.n)
    mixture = bucket_mixture(
        [cascade_rates(inst.p, pairs, inst.n) for pairs in picks])
    pick = picks[int(rng.integers(len(picks)))]
    return AugmentedAllocation.from_pairs(pick), mixture


def combined_cascade_solver(
    inst: Instance, values, rng: np.random.Generator
) -> AugmentedAllocation:
    """The allocation of ``greedy_outcome``: one populated bucket's greedy
    outcome, chosen uniformly at random."""
    return greedy_outcome(inst, values, rng)[0]
