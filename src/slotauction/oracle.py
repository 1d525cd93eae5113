"""Brute-force reference solvers, valid at desk scale only.

Every optimizer in this package is cross-checked against exhaustive
enumeration here.  Guards are hard errors, never silent truncation.

All oracles walk one memoized table per (n, m, k, active advertisers).  A
row gives each advertiser's position, or -1 if unmatched.  Rows come in a
fixed order: positions ascending, each one first left empty, then given to
the free active advertisers in ascending order; the first row is the empty
matching.  Ties follow one rule: the first row whose score beats the
running best, starting from the empty matching's 0.0, by more than 1e-15.

``BruteOwnBidCurves`` scores a table on arrays, with the cascade oracle's
own arithmetic, to give each advertiser's CTR as an exact function of its
own bid; the mechanisms price the brute handle from it without re-solving.
"""

from __future__ import annotations

import functools
import itertools
import math
from bisect import bisect_left
from typing import Iterator, NamedTuple

import numpy as np

from .core import (
    Allocation, AugmentedAllocation, CASCADE, Instance, MNL, Permutation,
    SizeGuardError, ValidationError, bid_vector, cascade_ctr, mnl_ctr,
    require_valid, welfare,
)
from .cascade_wdp import optimal_permutation, restricted_ctr, sorted_view
from .mnl_wdp import WdpResult

# Acceptance packs draw n, m up to 6, so the guard admits 36 edges.
MAX_CELLS = 36
# A 6x6 table holds 13 327 rows (~1.4 MB), so the cache stays under ~45 MB.
TABLE_CACHE = 32


@functools.lru_cache(maxsize=TABLE_CACHE)
def _matching_table(n: int, m: int, k: int, active: tuple[int, ...]):
    """Every matching of ``active`` (sorted) as rows; the active set is
    checked here, so a cached table is one that passed."""
    if not set(active).issubset(range(n)):
        raise ValidationError(
            f"active advertisers {list(active)} outside 0..{n - 1}")
    rows: list[tuple[int, ...]] = []
    row = [-1] * n

    def fill(j: int, used: int) -> None:
        if j == m:
            rows.append(tuple(row))
            return
        fill(j + 1, used)  # position j left empty
        if used < k:
            for i in active:
                if row[i] < 0:
                    row[i] = j
                    fill(j + 1, used + 1)
                    row[i] = -1

    fill(0, 0)
    return tuple(rows)


def _matchings(inst: Instance, model, values, active):
    """The entry check every oracle makes; returns the matching table and
    the values as an array (None when no values are given)."""
    require_valid(inst, model)
    if inst.n * inst.m > MAX_CELLS:
        raise SizeGuardError(
            f"{inst.n}x{inst.m} exceeds the exhaustive-search guard"
            f" ({MAX_CELLS} cells)"
        )
    if values is not None:
        values = bid_vector(inst, values)
    key = range(inst.n) if active is None else sorted({*active})
    return _matching_table(inst.n, inst.m, inst.k, tuple(key)), values


def _first_best(scored):
    """From an iterator of (score, candidate) pairs whose first candidate
    is the empty matching, the first pair beating the running best by more
    than 1e-15; the running best starts at 0.0."""
    _, best = next(scored)
    best_score = 0.0
    for score, candidate in scored:
        if score > best_score + 1e-15:
            best_score, best = score, candidate
    return best, best_score


def _allocation(row: tuple[int, ...]) -> Allocation:
    """A table row as an Allocation, pairs in position order."""
    pairs = sorted((j, i) for i, j in enumerate(row) if j >= 0)
    return Allocation({i: j for j, i in pairs})


def enumerate_matchings(
    inst: Instance, active: set[int] | None = None
) -> Iterator[Allocation]:
    """Yield every feasible matching exactly once, in the table's order.
    ``active`` optionally restricts which advertisers may be matched."""
    rows, _ = _matchings(inst, None, None, active)
    for row in rows:
        yield _allocation(row)


def brute_force_wdp_mnl(inst: Instance, bids) -> WdpResult:
    """Exact argmax of the bid-weighted MNL click-through over all matchings.
    Rendering order is irrelevant under MNL, so only matchings vary."""
    rows, bids = _matchings(inst, MNL, bids, None)
    expo = np.exp(inst.log_odds())
    weighted = (bids[:, None] * expo).tolist()
    expo = expo.tolist()

    def scored():
        for row in rows:
            num, den = 0.0, 1.0
            for j, i in sorted((j, i) for i, j in enumerate(row) if j >= 0):
                num += weighted[i][j]
                den += expo[i][j]
            yield num / den, row

    row, objective = _first_best(scored())
    alloc = _allocation(row)
    return WdpResult(
        allocation=alloc, objective=objective, ctrs=mnl_ctr(inst, alloc)
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
    re-derives that by scoring every permutation of matched positions.
    """
    rows, values = _matchings(inst, CASCADE, values, active)
    if paranoid:
        return _first_best(_every_rendering(inst, values, rows))
    order = sorted_view(values)
    p, v = inst.p.tolist(), values.tolist()

    def scored():
        for row in rows:
            w, survive = 0.0, 1.0
            for i in order:
                j = row[i]
                if j < 0:
                    continue
                pij = p[i][j]
                w += v[i] * pij * survive
                survive *= 1.0 - pij
            yield w, row

    row, best_w = _first_best(scored())
    alloc = _allocation(row)
    chi = AugmentedAllocation(alloc, optimal_permutation(alloc, values))
    return chi, best_w


def _turn(survive, weight, p):
    """One advertiser's turn in ``scored()``'s recurrence above, on every
    row at once: the term ``weight * survive`` that ``w`` adds, and the
    survival after it.  On rows where the advertiser is unmatched, weight
    and p are 0.0, so the term is 0.0 and the survival is unchanged."""
    return weight * survive, survive * (1.0 - p)


class _Segment(NamedTuple):
    """Every row's recurrence around advertiser i for one place of i in
    value order: the welfare and survival before i, the terms after it,
    and i's CTR."""

    prefix: np.ndarray
    survive: np.ndarray
    tail: list[np.ndarray]
    ctr: list[float]


class BruteOwnBidCurves:
    """Every advertiser's CTR under ``brute_force_wdp_cascade`` over the
    advertisers bidding above 0, as the mechanisms' brute handle solves it,
    as an exact function of its own bid, all other bids fixed at ``bids``.

    At own bid b <= 0 advertiser i is never matched.  At any b > 0 the
    active set is the template's positive bidders plus i, so one matching
    table serves every such b.  Value order puts i where (-b, i) falls among
    the others' (-v_t, t), which leaves at most n segments.  Within one, each
    row's welfare is a b-free prefix, then ``w += (b * p_ij) * survive``,
    then b-free terms added in turn: the same IEEE operations in the same
    order as the full solve, so the same first-better rule picks the same
    row, and i's CTR there is its survival times p_ij, as in
    ``core.cascade_rates``.  Segments are scored lazily, on every row at once.

    A NaN among ``bids`` raises ``ValidationError``: with one, the solver's
    value sort is no order, and its outcome no function of the bids.
    """

    def __init__(self, inst: Instance, bids) -> None:
        require_valid(inst, CASCADE)
        self.inst = inst
        self.bids = bid_vector(inst, bids)
        v = self.bids.tolist()
        if any(x != x for x in v):
            raise ValidationError(f"bids must not be NaN, got {v}")
        self._positive = {t for t in range(inst.n) if v[t] > 0.0}
        self._keys = sorted((-v[t], t) for t in self._positive)
        self._columns: dict[tuple[int, ...], tuple] = {}
        self._table(self._positive)  # the oracle's checks, before any work

    def _table(self, active: set[int]):
        """Per advertiser, over the rows of ``active``'s matching table:
        the template's weight v_t * p and p, both 0.0 where unmatched, and
        whether it is matched."""
        key = tuple(sorted(active))
        if key not in self._columns:
            rows, values = _matchings(self.inst, CASCADE, self.bids, key)
            pos = np.array(rows).T
            matched = pos >= 0
            p = np.where(
                matched, self.inst.p[np.arange(self.inst.n)[:, None], pos], 0.0)
            # Never v * 0.0 off the matched rows, which is nan at v = inf.
            weight = np.multiply(values[:, None], p, out=np.zeros(p.shape),
                                 where=matched)
            self._columns[key] = weight, p, matched
        return self._columns[key]

    def of(self, i: int):
        """Advertiser i's curve: own bid -> CTR."""
        weight, p, matched = self._table(self._positive | {i})
        keys = [key for key in self._keys if key[1] != i]
        others = [t for _, t in keys]
        own_p, own_matched = p[i], matched[i]
        segments: dict[int, _Segment] = {}

        def segment(c: int) -> _Segment:
            w, survive = np.zeros(own_p.shape), np.ones(own_p.shape)
            for t in others[:c]:
                term, survive = _turn(survive, weight[t], p[t])
                w = w + term
            own = survive
            _, survive = _turn(own, own_p, own_p)  # i's term waits for b
            tail = []
            for t in others[c:]:
                term, survive = _turn(survive, weight[t], p[t])
                tail.append(term)
            return _Segment(w, own, tail, (own * own_p).tolist())

        def ctr(b: float) -> float:
            if not b > 0.0:
                return 0.0
            c = bisect_left(keys, (-b, i))
            seg = segments.get(c) or segments.setdefault(c, segment(c))
            weight_b = b * own_p
            if b == math.inf:  # inf * 0.0 is nan off the matched rows
                weight_b[~own_matched] = 0.0
            w = seg.prefix + weight_b * seg.survive
            for term in seg.tail:
                w += term
            row, _w = _first_best(zip(w.tolist(), itertools.count()))
            return seg.ctr[row]

        return ctr


def _every_rendering(inst, values, rows):
    """(welfare, chi) for every rendering order of every row."""
    for row in rows:
        alloc = _allocation(row)
        for perm in itertools.permutations(alloc.assignment.values()):
            sigma = Permutation({j: r + 1 for r, j in enumerate(perm)})
            chi = AugmentedAllocation(alloc, sigma)
            yield welfare(values, cascade_ctr(inst, chi)), chi


def brute_force_restricted(inst: Instance, values) -> tuple[Allocation, float]:
    """Exact maximum of the truncated no-cascade welfare over all matchings."""
    rows, values = _matchings(inst, CASCADE, values, None)
    order = sorted_view(values)
    p, v = inst.p.tolist(), values.tolist()

    def scored():
        for row in rows:
            w, headroom = 0.0, 1.0
            for i in order:
                j = row[i]
                if j < 0:
                    continue
                grant = min(p[i][j], headroom)
                w += v[i] * grant
                headroom -= grant
            yield w, row

    alloc = _allocation(_first_best(scored())[0])
    return alloc, welfare(values, restricted_ctr(inst, alloc, values))
