"""Brute-force reference solvers, valid at desk scale only.

Every optimizer in this package is cross-checked against exhaustive
enumeration here.  Guards are hard errors, never silent truncation.

All oracles walk one memoized table per (n, m, k).  A row gives each
advertiser's position, or -1 if unmatched.  Rows come in a fixed order:
positions ascending, each one first left empty, then given to the free
advertisers in ascending order; the first row is the empty matching.  Ties
follow one rule, written once in ``_first_best``: the first row whose score
beats the running best (from the empty matching's 0.0) by more than
``TIE_MARGIN``.

``brute_solve_rows`` scores one table on arrays for many bid rows at once,
with the cascade oracle's own arithmetic.  It is the brute handle, whose
``solve`` is its one-row case, and renders a pick only when asked.
"""

from __future__ import annotations

import functools
import itertools
from typing import Iterator

import numpy as np

from .core import (
    Allocation, AugmentedAllocation, CASCADE, Instance, MNL, SizeGuardError,
    bid_rows, bid_vector, mnl_ctr, require_valid, welfare,
)
from .cascade_wdp import (
    SCORE_BLOCK, optimal_permutation, restricted_ctr, sorted_view,
)
from .mnl_wdp import WdpResult

# Acceptance packs draw n, m up to 6, so the guard admits 36 edges.
MAX_CELLS = 36
# One table per (n, m, k); 6x6's 13 327 rows take ~3.1 MB: cache < 100 MB.
TABLE_CACHE = 32
# A candidate replaces the best so far only if it scores more than this above.
TIE_MARGIN = 1e-15


class _Table(tuple):
    """A matching table's rows, with views of them cached on first use."""

    @functools.cached_property
    def pairs(self) -> list[tuple[tuple[int, int], ...]]:
        """Each row's (advertiser, position) pairs in position order, rows
        sharing one tuple per pair (~1.1 MB at 6x6)."""
        shared: dict[tuple[int, int], tuple[int, int]] = {}
        return [tuple(shared.setdefault((i, j), (i, j)) for j, i in sorted(
                    (j, i) for i, j in enumerate(row) if j >= 0))
                for row in self]

    @functools.cached_property
    def positions(self) -> np.ndarray:
        """The rows as a read-only int array, shared by every caller."""
        positions = np.array(self, dtype=np.intp)
        positions.flags.writeable = False
        return positions

    def rates(self, p: np.ndarray) -> np.ndarray:
        """Per row and advertiser, p at its position, 0.0 if unmatched."""
        pos = self.positions
        return np.where(pos >= 0, p[np.arange(p.shape[0]), pos], 0.0)

    def weights(self, values: np.ndarray, rates: np.ndarray) -> np.ndarray:
        """v_i * rates, 0.0 where unmatched: never v * 0.0, which is nan at
        v = +-inf."""
        return np.multiply(values, rates, out=np.zeros(rates.shape),
                           where=self.positions >= 0)


@functools.lru_cache(maxsize=TABLE_CACHE)
def _matching_table(n: int, m: int, k: int) -> _Table:
    """Every matching of n advertisers to m positions, at most k edges."""
    rows: list[tuple[int, ...]] = []
    row = [-1] * n

    def fill(j: int, used: int) -> None:
        if j == m:
            rows.append(tuple(row))
            return
        fill(j + 1, used)  # position j left empty
        if used < k:
            for i in range(n):
                if row[i] < 0:
                    row[i] = j
                    fill(j + 1, used + 1)
                    row[i] = -1

    fill(0, 0)
    return _Table(rows)


def _matchings(inst: Instance, model, values):
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
    return _matching_table(inst.n, inst.m, inst.k), values


def _first_best(scored):
    """From an iterator of (score, candidate) pairs whose first candidate
    is the empty matching, the first pair beating the running best by more
    than ``TIE_MARGIN``; the running best starts at 0.0."""
    _, best = next(scored)
    best_score = 0.0
    for score, candidate in scored:
        if score > best_score + TIE_MARGIN:
            best_score, best = score, candidate
    return best, best_score


def _first_best_rows(scores: np.ndarray) -> np.ndarray:
    """The index ``_first_best`` picks in each row of a 2-D score array
    without NaN.

    Each row's first maximum over indices 1.. beats every earlier score by
    more than ``TIE_MARGIN`` unless some score lies below it but within the
    margin, so it is the pick if it beats 0.0 + TIE_MARGIN, else index 0 is.
    Only rows with such a near-tie are scanned, by ``_first_best`` itself."""
    if scores.shape[1] < 2:
        return np.zeros(scores.shape[0], dtype=np.intp)
    rest = scores[:, 1:]
    first = rest.argmax(axis=1)
    top = rest[np.arange(rest.shape[0]), first][:, None]
    best = np.where(top[:, 0] > 0.0 + TIE_MARGIN, first + 1, 0)
    near = ((rest < top) & ~(top > rest + TIE_MARGIN)).any(axis=1)
    for r in np.flatnonzero(near).tolist():
        best[r] = _first_best(zip(scores[r].tolist(), itertools.count()))[0]
    return best


def enumerate_matchings(inst: Instance) -> Iterator[Allocation]:
    """Yield every feasible matching exactly once, in the table's order."""
    table, _ = _matchings(inst, None, None)
    for pairs in table.pairs:
        yield Allocation(dict(pairs))


def brute_force_wdp_mnl(inst: Instance, bids) -> WdpResult:
    """Exact argmax of the bid-weighted MNL click-through over all matchings.
    Rendering order is irrelevant under MNL, so only matchings vary."""
    table, bids = _matchings(inst, MNL, bids)
    expo = np.exp(inst.log_odds())
    weighted = (bids[:, None] * expo).tolist()
    expo = expo.tolist()

    def scored():
        for pairs in table.pairs:
            num, den = 0.0, 1.0
            for i, j in pairs:
                num += weighted[i][j]
                den += expo[i][j]
            yield num / den, pairs

    pairs, objective = _first_best(scored())
    alloc = Allocation(dict(pairs))
    return WdpResult(
        allocation=alloc, objective=objective, ctrs=mnl_ctr(inst, alloc)
    )


def brute_force_wdp_cascade(inst: Instance, values
                            ) -> tuple[AugmentedAllocation, float]:
    """Exact cascade-welfare maximum over all matchings.  Each matching is
    rendered in decreasing order of matched value, which is welfare-maximal
    for a fixed matching."""
    table, values = _matchings(inst, CASCADE, values)
    order = sorted_view(values)
    p, v = inst.p.tolist(), values.tolist()

    def scored():
        for r, row in enumerate(table):
            w, survive = 0.0, 1.0
            for i in order:
                j = row[i]
                if j < 0:
                    continue
                pij = p[i][j]
                w += v[i] * pij * survive
                survive *= 1.0 - pij
            yield w, r

    r, best_w = _first_best(scored())
    alloc = Allocation(dict(table.pairs[r]))
    chi = AugmentedAllocation(alloc, optimal_permutation(alloc, values))
    return chi, best_w


def brute_solve_rows(inst: Instance, rows):
    """``brute_force_wdp_cascade`` at each row of ``rows`` (R x n, R >= 0)
    from one matching table, as ``(ctrs, outcome)``: R x n CTRs, bit-equal
    to ``core.cascade_ctr``'s at the oracle's outcome, and ``outcome(r)``,
    ``==`` that outcome at row r, built when called.  The brute handle's
    ``solve_rows``.

    Each row scores the table with ``brute_force_wdp_cascade``'s recurrence
    in its own value order.  A bid <= 0 comes after every positive one there
    and adds a term of at most 0 (or NaN), so a table row matching such bids
    scores at most what the same row without them scores; that row comes
    earlier in the table, so the tie rule never picks it: no pick matches a
    bid <= 0.  A NaN score (+-inf * 0.0) becomes -inf, which never beats
    the running best, as NaN never does in the scalar loop.  Rows are scored
    ``SCORE_BLOCK`` rates at a time; CTRs are then taken at the picked rows
    only, rated as ``core.cascade_ctr`` does.
    """
    table, _ = _matchings(inst, CASCADE, None)
    rows = bid_rows(inst, rows)
    rates = table.rates(inst.p)
    by_advertiser, matched = rates.T, table.positions.T >= 0
    # value order, as sorted_view: decreasing bid, ties index-ascending
    order = np.argsort(-rows, axis=1, kind="stable")
    ranked = np.take_along_axis(rows, order, axis=1)
    block = max(1, SCORE_BLOCK // rates.size)
    picks = np.empty(rows.shape[0], dtype=np.intp)
    with np.errstate(invalid="ignore", over="ignore"):
        for lo in range(0, rows.shape[0], block):
            at = slice(lo, lo + block)
            w = np.zeros((order[at].shape[0], rates.shape[0]))
            survive = np.ones(w.shape)
            for t in range(inst.n):
                # advertiser i's turn on every table row; where i is
                # unmatched its weight and rate are 0.0, which adds 0.0 and
                # leaves the survival as it is
                i = order[at, t]
                weight = np.multiply(ranked[at, t, None], by_advertiser[i],
                                     out=np.zeros(w.shape), where=matched[i])
                w = w + weight * survive
                survive = survive * (1.0 - by_advertiser[i])
            w[np.isnan(w)] = -np.inf
            picks[at] = _first_best_rows(w)
    # core.cascade_rates at each picked row, which matches no bid <= 0
    p = np.take_along_axis(rates[picks], order, axis=1)
    ranked_ctrs = np.zeros(p.shape)
    survive = np.ones(p.shape[0])
    for t in range(inst.n):
        ranked_ctrs[:, t] = survive * p[:, t]
        survive = survive * (1.0 - p[:, t])
    ctrs = np.empty(p.shape)
    np.put_along_axis(ctrs, order, ranked_ctrs, axis=1)

    def outcome(r: int) -> AugmentedAllocation:
        alloc = Allocation(dict(table.pairs[picks[r]]))
        return AugmentedAllocation(alloc, optimal_permutation(alloc, rows[r]))

    return ctrs, outcome


def brute_force_restricted(inst: Instance, values) -> tuple[Allocation, float]:
    """Exact maximum of the truncated no-cascade welfare over all matchings."""
    table, values = _matchings(inst, CASCADE, values)
    order = sorted_view(values)
    p, v = inst.p.tolist(), values.tolist()

    def scored():
        for r, row in enumerate(table):
            w, headroom = 0.0, 1.0
            for i in order:
                j = row[i]
                if j < 0:
                    continue
                grant = min(p[i][j], headroom)
                w += v[i] * grant
                headroom -= grant
            yield w, r

    alloc = Allocation(dict(table.pairs[_first_best(scored())[0]]))
    return alloc, welfare(values, restricted_ctr(inst, alloc, values))
