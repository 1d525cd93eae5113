"""Exact winner determination under the MNL user model.

The bid-weighted MNL objective is a ratio of two affine functions of the
matching.  Newton-Dinkelbach parametric search maximizes it: given a guess
lam of the optimal ratio, the max-weight matching with at most K edges under
edge weights (b_i - lam) * exp(rho_ij) either certifies lam optimal or has a
strictly higher ratio, which becomes the next guess.  Radzik (1992) bounds
the number of such steps strongly polynomially for 0/1 linear-fractional
problems.

* ``solve_mnl_wdp`` is the production solver, the one-row case of
  ``solve_mnl_wdp_rows``, which runs the ratio loop on arrays for many bid
  vectors of one instance at once over ``capped_matching``: a dense
  successive-shortest-path kernel (Jonker-Volgenant, 1987, but
  label-correcting: Bellman-Ford relaxations vectorized over numpy arrays,
  no node potentials).
* ``solve_mnl_lp`` is the paper's Charnes-Cooper linear program, solved by
  a one-phase Bland simplex from the LP's own vertex (see ``linfrac``) and
  kept as a cross-check.  It accepts at most ``linfrac.MAX_LP_CELLS``
  positive-bid advertiser x position cells and raises ``SizeGuardError``
  above that, before any tableau is built.
* Both routes read bids through ``core.mnl_bids`` and CTRs through
  ``core.match_ctrs``, so they accept the same bids and price a matching
  to the same bit.
* ``dinkelbach_check`` and the dict-based ``max_weight_matching`` are an
  independent loop-by-loop reference that shares no code with either route;
  past the LP's range they are the only cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    Allocation,
    CtrVector,
    Instance,
    MNL,
    SizeGuardError,
    ValidationError,
    bid_vector,
    match_ctrs,
    mnl_bids,
    mnl_ctr,
    require_valid,
)
from .linfrac import (
    MAX_LP_CELLS,
    build_charnes_cooper,
    recover_allocation,
    solve_lp,
)

DINKELBACH_TOL = 1e-12
DINKELBACH_MAX_ITER = 100
# Path gains and label improvements at or below this are rounding noise.
MATCH_TOL = 1e-12
# Cells of the block-diagonal union one ``capped_matching`` call matches at
# once; longer stacks go in chunks.  Per row, unions of 8k-32k cells solve
# 2.5-10x faster than one row at a time from 4x4 to 50x25; 300k, no faster.
STACK_CELLS = 1 << 15
# Cells of R x n x m weights one ``solve_mnl_wdp_rows`` step holds at once
# (8 MB of floats); more rows go in chunks.
ROW_CELLS = 1 << 20


@dataclass(frozen=True)
class WdpResult:
    """An optimal matching with its bid-weighted objective and realized CTRs."""

    allocation: Allocation
    objective: float
    ctrs: CtrVector


def _result(bids: np.ndarray, alloc: Allocation, pi: np.ndarray) -> WdpResult:
    """``alloc`` with its CTRs and sum_i b_i pi_i over matched advertisers:
    ``bids @ pi`` to the last bit, but an unmatched -inf counts 0, not NaN."""
    return WdpResult(alloc, float(np.where(pi > 0.0, bids, 0.0) @ pi), pi)


def solve_mnl_wdp(inst: Instance, bids) -> WdpResult:
    """Maximize sum_i b_i pi_i(x) over feasible matchings, exactly.

    Newton-Dinkelbach from lam = 0: take the ``capped_matching`` of the
    weights (b_i - lam) * exp(rho_ij) with cap K, move lam to that
    matching's ratio sum b_i x e^rho / (1 + sum x e^rho), and stop once lam
    rises by no more than DINKELBACH_TOL; the last matching is returned.
    This is the one-row case of ``solve_mnl_wdp_rows``.

    Advertisers with non-positive bids are never matched: matching them
    can only dilute the shared MNL denominator, and as lam >= 0 their
    weights are non-positive, i.e. no edge.  Bids whose weights overflow,
    +inf included, raise ``ValidationError`` (see ``solve_mnl_wdp_rows``).

    Ties: when several matchings are optimal, the one returned is the one
    the kernel's lowest-index rule picks at the last step (see
    ``capped_matching``).  An advertiser whose bid equals the optimal ratio
    leaves the ratio unchanged either way and is left out: at the last step
    its weights are zero, and a zero weight is no edge.
    """
    match = solve_mnl_wdp_rows(inst, [bids])[0]
    rows = np.flatnonzero(match >= 0)
    alloc = Allocation(dict(zip(rows.tolist(), match[rows].tolist())))
    return _result(np.asarray(bids, float), alloc, match_ctrs(inst, match))


def solve_mnl_wdp_rows(inst: Instance, bid_rows) -> np.ndarray:
    """The matching ``solve_mnl_wdp`` picks for each row of ``bid_rows``,
    as an R x n array: ``match[r, i]`` is advertiser i's position or -1.

    All unsettled rows take each Newton-Dinkelbach step at once: one
    ``capped_matching`` call on their stacked weights, whose blocks are
    matched exactly as alone, then every row's lam, its numerator and
    denominator summed sequentially in advertiser order.  A row settles once
    its lam rises by no more than DINKELBACH_TOL.  No step reads another
    row, so a row's matching is the same in any stack, and rows are solved
    in chunks of as many as keep the stacked weights within ``ROW_CELLS``
    cells (one row at least).

    The bids are ``core.mnl_bids`` of ``bid_rows``: a bid <= 0 has no
    edge at lam >= 0, and a row whose weights, gains or ratios can overflow
    raises ``ValidationError`` naming the advertiser that takes it there.
    """
    pos = mnl_bids(inst, bid_rows)
    per = max(1, ROW_CELLS // (inst.n * inst.m))
    if len(pos) > per:  # mnl_bids leaves checked rows as they are
        return np.concatenate([solve_mnl_wdp_rows(inst, pos[lo:lo + per])
                               for lo in range(0, len(pos), per)])
    expo = np.exp(inst.log_odds())
    match = np.full(pos.shape, -1, dtype=np.intp)
    live = np.flatnonzero(pos.any(axis=1))
    b, lam = pos[live], np.zeros(live.size)
    for _ in range(DINKELBACH_MAX_ITER):
        if not live.size:
            break
        step = capped_matching(  # b <= lam: no edge, so 0, never overflowing
            np.maximum(b - lam[:, None], 0.0)[:, :, None] * expo, inst.k)
        e = np.where(step >= 0, expo[np.arange(inst.n), step], 0.0)
        new_lam = (np.cumsum(b * e, axis=1)[:, -1]
                   / (1.0 + np.cumsum(e, axis=1)[:, -1]))
        done = new_lam - lam <= DINKELBACH_TOL
        match[live[done]] = step[done]
        live, b, lam = live[~done], b[~done], new_lam[~done]
    if live.size:
        raise RuntimeError("parametric search did not settle in"
                           f" {DINKELBACH_MAX_ITER} steps")
    return match


def capped_matching(weights, k: int) -> np.ndarray:
    """Maximum-weight bipartite matching with at most ``k`` edges.

    ``weights`` is a dense n x m array; ``weights[i, j] > 0`` is an edge
    between row i and column j, a non-positive or NaN entry is no edge, and
    +inf raises ``ValidationError``.  Returns ``match`` of length n:
    ``match[i]`` is the column matched to row i, or -1.

    ``weights`` may also be a stack of L such arrays (L x n x m); then
    ``match`` is L x n and row l equals ``capped_matching(weights[l], k)``.
    The stack is matched in chunks of as many blocks as keep the chunk's
    block-diagonal union, c n x c m with no edge between blocks, within
    ``STACK_CELLS`` cells (one block at least), and each step adds one best
    path per block.  No path crosses from one block into another, so every
    block gets exactly the labels, predecessors and tie picks it would get
    alone, in whichever chunk.  (An infinite weight would make an infinite
    label, and inf + -inf is NaN even off the block; hence the +inf check.)

    Each step adds one best-gain augmenting path.  The matching after t
    steps is a maximum-weight matching of cardinality t, and gains never
    grow from one step to the next, so stopping at the cap or at the first
    gain of at most MATCH_TOL is exact.

    Ties go to the lowest index: a column's label moves only to a strictly
    better row, the lowest-numbered among equals, and the path ends at the
    lowest-numbered free column of maximal gain within its block.
    """
    stack = np.asarray(weights, dtype=float)
    if (stack == np.inf).any():
        raise ValidationError("matching weights must be below +inf")
    if stack.ndim == 3 and len(stack) > 1:
        per = max(1, math.isqrt(STACK_CELLS // max(1, stack[0].size)))
        if len(stack) > per:
            return np.concatenate([capped_matching(stack[lo:lo + per], k)
                                   for lo in range(0, len(stack), per)])
    blocks, n, m = stack.shape if stack.ndim == 3 else (1, *stack.shape)
    at = np.arange(blocks)
    # w: the block-diagonal union; block l owns rows l*n.. and columns l*m..
    w = np.zeros((blocks * n, blocks * m))
    w.reshape(blocks, n, blocks, m)[at, :, at, :] = stack.reshape(
        blocks, n, m)
    # open_w[i, j]: weight gained by entering edge (i, j) from row i; -inf
    # for no edge and for the matched edge of row i.
    open_w = np.where(w > 0.0, w, -np.inf)
    match = np.full(blocks * n, -1, dtype=np.intp)
    row_of = np.full(blocks * m, -1, dtype=np.intp)
    # Free rows of the blocks still gaining: where each label pass starts.
    start = np.ones(blocks * n, dtype=bool)
    dist_r = np.empty(blocks * m)
    pred_r = np.empty(blocks * m, dtype=np.intp)
    for _ in range(min(k, n, m)):
        _labels(w, open_w, row_of, start, dist_r, pred_r)
        gain = np.where(row_of < 0, dist_r, -np.inf).reshape(blocks, m)
        rows, cols = [], []
        for l, end in enumerate(gain.argmax(axis=1).tolist()):
            if gain[l, end] > MATCH_TOL:
                _trace(pred_r, match, l * m + end, n, rows, cols)
            else:  # no gain now, so none later: block l is done
                start[l * n:(l + 1) * n] = False
        if not rows:
            break
        rows, cols = np.array(rows), np.array(cols)
        old = match[rows]
        was = old >= 0
        left, old = rows[was], old[was]
        open_w[left, old] = w[left, old]
        open_w[rows, cols] = -np.inf
        match[rows] = cols
        row_of[cols] = rows
        start[rows] = False
    # Back to each block's own column numbers.
    np.remainder(match, max(m, 1), out=match, where=match >= 0)
    return match.reshape(stack.shape[:-1])


def _labels(w, open_w, row_of, start, dist_r, pred_r):
    """Fill ``dist_r`` and ``pred_r`` with every column's best gain and
    predecessor row over augmenting paths from the rows in ``start``.

    Bellman-Ford label correcting over the alternating graph: a round
    relaxes, in one numpy step, every unmatched edge out of the rows whose
    label rose in the round before, and then carries each improved matched
    column's label back to its row.  The matching has maximum weight for
    its size, so the graph has no positive cycle and the labels settle
    within n + m rounds.
    """
    n, m = w.shape
    cols = np.arange(m)
    dist_l = np.where(start, 0.0, -np.inf)
    dist_r.fill(-np.inf)
    pred_r.fill(-1)
    rows = np.flatnonzero(start)
    for _ in range(n + m + 1):
        if rows.size == 0:
            break
        cand = dist_l[rows, None] + open_w[rows]
        arg = cand.argmax(axis=0)
        best = cand[arg, cols]
        better = np.flatnonzero(best > dist_r + MATCH_TOL)
        if better.size == 0:
            break
        dist_r[better] = best[better]
        pred_r[better] = rows[arg[better]]
        back = better[row_of[better] >= 0]
        rows = row_of[back]
        dist_l[rows] = dist_r[back] - w[rows, back]
        rows.sort()
    else:
        raise RuntimeError("augmenting-path labels did not settle")


def _trace(pred_r, match, end, n, rows, cols):
    """Append to ``rows`` and ``cols`` the augmenting path that ends at
    column ``end``, traced back through ``pred_r`` to a free row; ``n``
    bounds its length."""
    j = end
    for _ in range(n + 1):
        i = int(pred_r[j])
        rows.append(i)
        cols.append(j)
        j = int(match[i])
        if j < 0:
            return
    raise RuntimeError("augmenting-path reconstruction cycled")


def solve_mnl_lp(inst: Instance, bids) -> WdpResult:
    """The paper's exact route: the Charnes-Cooper LP, by dense simplex.

    Kept as the cross-check of ``solve_mnl_wdp``.  Both read the bids
    through ``core.mnl_bids``, so they accept and reject the same bids.
    Advertisers whose bid is then 0 are excluded up front (``solve_mnl_wdp``
    never matches them either), which also keeps the LP's b >= 0, b != 0
    precondition satisfied.  Raises ``SizeGuardError`` before building the
    tableau when the positive bidders times the positions exceed
    ``linfrac.MAX_LP_CELLS``.  Under ties it returns the optimal vertex
    Bland's rule reaches, which may differ from ``solve_mnl_wdp``'s.
    """
    bids = mnl_bids(inst, [bids])[0]
    keep = np.flatnonzero(bids > 0.0).tolist()
    if not keep:
        return WdpResult(Allocation({}), 0.0, np.zeros(inst.n))
    cells = len(keep) * inst.m
    if cells > MAX_LP_CELLS:
        raise SizeGuardError(
            f"MNL LP on {len(keep)} positive bidders x {inst.m} positions ="
            f" {cells} cells exceeds the limit of {MAX_LP_CELLS}"
        )

    sub = Instance(
        n=len(keep), m=inst.m, k=inst.k, p=inst.p[keep, :], model=MNL
    )
    lp = build_charnes_cooper(sub, bids[keep])
    sub_alloc = recover_allocation(solve_lp(lp))
    alloc = Allocation({keep[i]: j for i, j in sub_alloc.assignment.items()})
    return _result(bids, alloc, mnl_ctr(inst, alloc))


def dinkelbach_check(inst: Instance, bids) -> WdpResult:
    """Solve the same problem by parametric search, avoiding the LP entirely.

    Repeatedly: given a payoff guess lam, find the max-weight matching under
    edge weights (b_i - lam) * exp(rho_ij) with non-positive weights dropped
    and at most K edges, then move lam to the matched ratio
    sum b_i x e^rho / (1 + sum x e^rho).  The guess increases strictly until
    it fixes at the optimum, which happens after finitely many steps.
    """
    require_valid(inst, MNL)
    bids = bid_vector(inst, bids)
    keep = np.flatnonzero(bids > 0.0).tolist()
    if not keep:
        return WdpResult(Allocation({}), 0.0, np.zeros(inst.n))
    expo = np.exp(inst.log_odds())

    lam = 0.0
    alloc = Allocation({})
    for _ in range(DINKELBACH_MAX_ITER):
        weights = {}
        for i in keep:
            for j in range(inst.m):
                w = (bids[i] - lam) * expo[i, j]
                if w > 0.0:
                    weights[(i, j)] = w
        matching = max_weight_matching(weights, cap=inst.k)
        num = sum(bids[i] * expo[i, j] for i, j in matching.items())
        den = 1.0 + sum(expo[i, j] for i, j in matching.items())
        new_lam = num / den
        if new_lam - lam <= DINKELBACH_TOL:
            alloc = Allocation(matching)
            break
        lam = new_lam
        alloc = Allocation(matching)
    else:
        raise RuntimeError(
            f"parametric search did not settle in {DINKELBACH_MAX_ITER} steps"
        )
    return _result(bids, alloc, mnl_ctr(inst, alloc))


# ---------------------------------------------------------------------------
# Max-weight bipartite matching under a cardinality cap, by repeated
# best-gain augmenting paths.  Each augmentation yields the optimal matching
# of its cardinality, so stopping at the first non-positive gain (or at the
# cap) is exact.  Deliberately shares nothing with the simplex path.
# ---------------------------------------------------------------------------

NEG_INF = float("-inf")


def max_weight_matching(
    weights: dict[tuple[int, int], float], cap: int
) -> dict[int, int]:
    """Return the advertiser->position map of a maximum-weight matching with
    at most ``cap`` edges.  ``weights`` must carry positive weights only."""
    match_l: dict[int, int] = {}
    match_r: dict[int, int] = {}
    for _ in range(cap):
        gain, path = _best_augmenting_path(weights, match_l, match_r)
        if gain <= 1e-12 or not path:
            break
        for i, j in path:
            match_l[i] = j
            match_r[j] = i
    return dict(match_l)


def _best_augmenting_path(weights, match_l, match_r):
    lefts = {i for i, _ in weights}
    rights = {j for _, j in weights}
    dist_l = {i: (0.0 if i not in match_l else NEG_INF) for i in lefts}
    dist_r = {j: NEG_INF for j in rights}
    pred_r: dict[int, int] = {}

    for _ in range(len(lefts) + len(rights) + 1):
        changed = False
        for (i, j), w in weights.items():
            if match_l.get(i) == j:
                continue
            cand = dist_l[i] + w
            if cand > dist_r[j] + 1e-12:
                dist_r[j] = cand
                pred_r[j] = i
                changed = True
        for i, j in match_l.items():
            cand = dist_r[j] - weights[(i, j)]
            if cand > dist_l[i] + 1e-12:
                dist_l[i] = cand
                changed = True
        if not changed:
            break

    free_rights = [j for j in rights if j not in match_r]
    if not free_rights:
        return 0.0, []
    end = max(free_rights, key=lambda j: dist_r[j])
    if dist_r[end] == NEG_INF:
        return 0.0, []

    path = []
    seen = set()
    cur = end
    while True:
        if cur in seen:
            raise RuntimeError("augmenting-path reconstruction cycled")
        seen.add(cur)
        i = pred_r[cur]
        path.append((i, cur))
        if i not in match_l:
            break
        cur = match_l[i]
    return dist_r[end], path
