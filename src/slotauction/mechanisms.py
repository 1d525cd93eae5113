"""Truthful mechanisms on top of the winner-determination solvers.

VCG maximizes welfare with an exact solver and charges each advertiser the
externality it imposes: one solve for the outcome, and one leave-one-out
row per allocated advertiser, read in one batch (see below); an advertiser
left unallocated imposes none and pays 0.  The revenue mechanism solves
winner determination with virtual values as bids, excludes advertisers whose
virtual value is non-positive, and prices by the envelope rule

    t_i = v_i * y_i(v) - integral_0^{v_i} y_i(z, v_-i) dz,

where y_i is advertiser i's click probability as a function of its own
report.  The integral is a right-endpoint Riemann sum on a uniform grid:
for a monotone allocation curve the right endpoints over-count the integral,
so payments err on the low side, keeping individual rationality exact and
conceding only an O(v_max / grid_size) incentive slack.

Exact solvers are monotone automatically; approximate ones are admitted
only after a monotonicity audit.

Both the audit and the envelope sum need one advertiser's CTR at many own
bids, and :func:`_reader` is the one code that reads a handle for them.
It takes points (template, advertiser, own bid), a list per call, to the
handle's ``curves`` (the greedy: exact own-bid curves whose reads make the
random draws one ``solve`` per point would), else to :func:`_solve_rows`:
the exact handles' ``solve_rows`` (their ``solve`` is its one-row case),
else one ``solve`` per row (the planted-bug fixture).  It gives a block's
CTRs in one call and each row's outcome only when asked, so no read builds
an allocation.  The audit reads
every advertiser's sweep of an instance in one call, :func:`_grid_sums`
the envelope points of a block of payers in one call per round, and
``vcg_rows`` every leave-one-out row in one.  Over an exact handle a read
also gives each point's line in its own bid, and envelope spans are cut
where lines meet, so a step costs about four reads.  The grid point of
that cut is guessed from the payer's inverse virtual value and checked,
for every span of a round, in one :func:`_bids_at` call; only spans the
guess misses are bisected.  All paths give the same CTRs and outcomes,
and the greedy the same random draws.
"""

from __future__ import annotations

import numbers
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cache, cached_property, partial
from itertools import groupby
from operator import itemgetter
from typing import Callable, Iterator

import numpy as np

from .core import (
    AugmentedAllocation,
    CtrVector,
    Instance,
    SizeGuardError,
    SlotauctionError,
    ValidationError,
    bid_rows,
    bid_vector,
    match_ctrs,
    positive_int,
    require_valid,
)
from .cascade_wdp import OwnBidCurves, greedy_outcome
from .distributions import ValueDistribution, is_regular
from .mnl_wdp import solve_mnl_wdp_rows
from .oracle import brute_solve_rows

EXACT_MNL = "exact_mnl"
BRUTE_CASCADE = "brute_cascade"
GREEDY_CASCADE = "greedy_cascade"
PLANTED_BUG = "planted_bug"

DEFAULT_GRID_SIZE = 1024
# Grid points g * step are exact floats up to 2^53; the walk's spans int64.
MAX_GRID_SIZE = 2 ** 53
MONOTONE_TOL = 1e-9

SolveFn = Callable[[Instance, np.ndarray], tuple[AugmentedAllocation, CtrVector]]
# (inst, bids) -> ([(advertiser, own bid), ...] -> [CTR, ...]): SolverHandle
CurvesFn = Callable[[Instance, np.ndarray],
                    Callable[[list[tuple[int, float]]], list[float]]]
# ([CTR y, ...], [intercept c, ...] or None): lines y * b + c in an own bid.
Lines = tuple[list[float], list[float] | None]
# [(template, advertiser, own bid), ...] -> Lines: see _reader.
ReadFn = Callable[[list[tuple[int, int, float]]], Lines]
# (inst, bid_rows) -> (R x n CTRs, row -> outcome): SolverHandle
SolveRowsFn = Callable[[Instance, np.ndarray],
                       tuple[np.ndarray, Callable[[int], AugmentedAllocation]]]
# (bid_before, bid_after, ctr_before, ctr_after): see monotonicity_audit.
Drop = tuple[float, float, float, float]


class IrregularDistributionError(SlotauctionError, ValueError):
    """Virtual values decrease somewhere; ironing is out of scope here."""


def _clip_dust(payments: np.ndarray, tol: float = 1e-9) -> np.ndarray:
    """``payments`` with sub-tolerance negative entries (leave-one-out
    subtraction dust) zeroed out; anything genuinely negative stays visible."""
    return np.where((-tol < payments) & (payments < 0.0), 0.0, payments)


def _finite_rows(inst: Instance, value_rows) -> np.ndarray:
    """``value_rows`` as ``core.bid_rows`` checks them, every value finite."""
    values = bid_rows(inst, value_rows)
    finite = np.isfinite(values).all(axis=1)
    if not finite.all():
        raise ValidationError(
            f"values must be finite, got {values[finite.argmin()].tolist()}")
    return values


class NonMonotoneSolverError(SlotauctionError, ValueError):
    """An approximate solver failed its monotonicity audit."""


@dataclass(frozen=True)
class SolverHandle:
    """A winner-determination routine plus what kind of guarantee it carries.

    ``solve(inst, bids)`` must never allocate an advertiser whose bid is
    non-positive, must be deterministic in its reported CTR curve, and for
    the greedy cascade kind the CTRs are the uniform average over the
    per-bucket outcomes (the sampled allocation is representative only).

    ``curves(inst, bids)``, when set, builds a reader for the bid template
    ``bids``: ``curves(inst, bids)(points)`` takes a list of (advertiser i,
    own bid b) and returns i's CTR at b for each point, the others fixed at
    ``bids``, bit-equal to what ``solve`` reports.  A randomized handle's
    reader makes, in each call, the random draws one ``solve`` per point
    would, in order.  A reader may keep ``bids``; :func:`_reader`, its one
    caller, passes a private copy and builds at most one reader per
    template, and nothing is kept between audit or pricing calls.  Only the
    greedy cascade handle sets it.

    ``solve_rows(inst, bid_rows)``, when set, returns ``(ctrs, outcome)``
    from one batched solve: ``ctrs`` is an R x n array, one row per row of
    ``bid_rows`` (0 x n for none), bit-equal to the CTRs ``solve`` reports
    at those bids, and ``outcome(r)`` is ``==`` the ``AugmentedAllocation``
    ``solve`` returns at row r, built only when called (by the first read
    of a mechanism outcome's ``augmented``).  Every read of a handle
    without ``curves`` goes through it.  Only the exact handles set it,
    and an exact handle is its ``solve_rows``, ``solve`` the one-row case:
    the exact MNL handle's is one ``solve_mnl_wdp_rows`` call and
    ``core.match_ctrs`` of its matchings, the brute cascade handle's
    ``oracle.brute_solve_rows``, which scores one table for every row.
    """

    solve: SolveFn
    kind: str
    curves: CurvesFn | None = None
    solve_rows: SolveRowsFn | None = None

    @property
    def is_exact(self) -> bool:
        return self.kind in (EXACT_MNL, BRUTE_CASCADE)


@dataclass(frozen=True)
class MechanismOutcome:
    """One profile's CTRs, payments and utilities, and ``augmented``, the
    allocation and its ranking, built from the handle's outcome on first
    read (over an exact handle, ``outcome(r)`` of its ``solve_rows``)."""

    payments: np.ndarray
    ctrs: CtrVector
    utilities: np.ndarray
    _outcome: Callable[[], AugmentedAllocation] = field(repr=False,
                                                        compare=False)

    @cached_property
    def augmented(self) -> AugmentedAllocation:
        return self._outcome()


def _exact(kind: str, solve_rows: SolveRowsFn) -> SolverHandle:
    """An exact handle whose ``solve`` is ``solve_rows``' one-row case."""

    def solve(inst: Instance, bids: np.ndarray):
        ctrs, outcome = solve_rows(inst, bid_vector(inst, bids)[None])
        return outcome(0), ctrs[0]

    return SolverHandle(solve=solve, kind=kind, solve_rows=solve_rows)


def exact_mnl_solver() -> SolverHandle:
    def solve_rows(inst: Instance, bid_rows: np.ndarray):
        match = solve_mnl_wdp_rows(inst, bid_rows)
        return match_ctrs(inst, match), lambda r: (
            AugmentedAllocation.from_pairs(
                [(i, j) for i, j in enumerate(match[r].tolist()) if j >= 0]))

    return _exact(EXACT_MNL, solve_rows)


def brute_cascade_solver() -> SolverHandle:
    """Exhaustive cascade search over the advertisers bidding above 0:
    ``oracle.brute_solve_rows``."""
    return _exact(BRUTE_CASCADE, brute_solve_rows)


def greedy_cascade_solver(rng: np.random.Generator) -> SolverHandle:
    """Randomized bucket solver wrapped for mechanism use: ``solve`` is
    :func:`~slotauction.cascade_wdp.greedy_outcome` drawing from ``rng``,
    whose CTRs are the deterministic uniform mixture over populated buckets
    and whose allocation is one sampled bucket's outcome.

    Its ``curves`` builds one :class:`~slotauction.cascade_wdp.OwnBidCurves`
    per reader.  Each read makes the draws of one ``solve`` per point, in
    order, as one ``rng.integers`` call over the points' bucket counts:
    numpy draws an array of bounds as it draws each alone, and a count of 1
    draws nothing.  So ``rng`` ends in the same state either way."""

    def curves(inst: Instance, bids: np.ndarray):
        of = cache(OwnBidCurves(inst, bids).of)

        def read(points: list[tuple[int, float]]) -> list[float]:
            ctrs, counts = [], []
            for i, b in points:
                value, populated = of(i)(b)
                ctrs.append(float(value))
                if populated:
                    counts.append(populated)
            if counts:
                rng.integers(counts)
            return ctrs

        return read

    return SolverHandle(solve=partial(greedy_outcome, rng=rng),
                        kind=GREEDY_CASCADE, curves=curves)


def threshold_dropping_solver(
    base: SolverHandle, threshold: float = 5.0
) -> SolverHandle:
    """Diagnostic fixture with a planted monotonicity bug: once the highest
    bid passes ``threshold``, that bidder is dropped before solving.  The
    audit must catch it; never use for payments.  Its kind is not exact
    whatever ``base`` is, so ``vcg`` refuses it and ``myerson`` audits it."""

    def solve(inst: Instance, bids: np.ndarray):
        require_valid(inst)
        bids = bid_vector(inst, bids).copy()
        top = int(np.argmax(bids))
        if bids[top] > threshold:
            bids[top] = 0.0
        return base.solve(inst, bids)

    return SolverHandle(solve=solve, kind=PLANTED_BUG)


def vcg(inst: Instance, values, solver: SolverHandle) -> MechanismOutcome:
    """Welfare-maximizing auction with externality payments.

    t_i = (others' best welfare with i's bid zeroed)
        - (others' welfare at the chosen allocation),
    which is non-negative and never exceeds v_i * pi_i.  An advertiser not
    allocated pays 0 and is not re-solved: the optimum without it is the
    same optimum, so it imposes no externality (Clarke, 1971); nor does
    one placed where its CTR is 0.  The one-profile case of
    :func:`vcg_rows`, so whether or not the handle has ``solve_rows``, the
    leave-one-out CTRs are those ``solve`` reports.
    """
    return vcg_rows(inst, [values], solver)[0]


def vcg_rows(inst: Instance, value_rows, solver: SolverHandle
             ) -> list[MechanismOutcome]:
    """:func:`vcg` at each profile of ``value_rows``: every profile's
    CTRs from one :func:`_solve_rows` call, every profile's leave-one-out
    rows read in one more, and every payment as one batched dot product of
    the others' values with their CTRs, with and without the payer."""
    require_valid(inst)
    if not solver.is_exact:
        raise NonMonotoneSolverError(
            "externality payments require an exact solver"
        )
    values = _finite_rows(inst, value_rows)
    if np.any(values < 0.0):
        raise ValidationError("values must be non-negative")
    ctrs, outcome = _solve_rows(solver, inst, values)
    # (profile, advertiser) of each leave-one-out row: the allocated ones
    s_of, i_of = np.nonzero(ctrs != 0.0)
    rows = values[s_of]
    rows[np.arange(s_of.size), i_of] = 0.0
    # each row's others, ascending: t, or t + 1 from the payer on
    others = np.arange(inst.n - 1) + (np.arange(inst.n - 1) >= i_of[:, None])
    v = np.take_along_axis(rows, others, axis=1)[:, None, :]
    pi_wo, pi = (np.take_along_axis(x, others, axis=1)[:, :, None]
                 for x in (_solve_rows(solver, inst, rows)[0], ctrs[s_of]))
    payments = np.zeros(values.shape)
    payments[s_of, i_of] = _clip_dust((v @ pi_wo - v @ pi)[:, 0, 0])
    return _outcomes(values, ctrs, payments, outcome)


def _outcomes(values, ctrs, payments, outcome) -> list[MechanismOutcome]:
    """One outcome per row, its allocation built by ``outcome`` on read."""
    utilities = values * ctrs - payments
    return [MechanismOutcome(paid, pi, u, partial(outcome, s))
            for s, (pi, paid, u) in enumerate(zip(ctrs, payments, utilities))]


def _solve_rows(solver: SolverHandle, inst: Instance, bid_rows: np.ndarray
                ) -> tuple[np.ndarray, Callable[[int], AugmentedAllocation]]:
    """What ``solve`` returns at each row of ``bid_rows``, as ``solve_rows``
    returns it: the handle's ``solve_rows`` in one call if it has it, else
    one ``solve`` per row, stacked."""
    if solver.solve_rows is not None:
        return solver.solve_rows(inst, bid_rows)
    solved = [solver.solve(inst, bids) for bids in bid_rows]
    ctrs = np.array([pi for _chi, pi in solved], dtype=float)
    return ctrs.reshape(-1, inst.n), lambda r: solved[r][0]


def _reader(solver: SolverHandle, inst: Instance, templates) -> ReadFn:
    """The one way a handle is read: ``read(points)`` gives, for each point
    (template index t, advertiser i, own bid b), the CTR ``solve`` reports
    for i at row t of ``templates`` with i bidding b, and over an exact
    handle the intercept of that row's line (:func:`_lines`), else None.

    A handle with ``curves`` is read through one reader per template, built
    from a private copy on its first read; each run of points on one
    template is one reader call.  Any other handle answers each ``read`` in
    one :func:`_solve_rows` call, whose outcomes it never builds."""
    templates = np.array(templates, dtype=float).reshape(-1, inst.n)
    if solver.curves is not None:
        curve = cache(lambda t: solver.curves(inst, templates[t]))

        def read(points):
            return [ctr for t, run in groupby(points, itemgetter(0))
                    for ctr in curve(t)([(i, b) for _t, i, b in run])], None

        return read

    def read(points):
        ii = [i for _t, i, _b in points]
        rows = templates[[t for t, _i, _b in points]]
        rows[np.arange(len(points)), ii] = [b for _t, _i, b in points]
        return _lines(rows, _solve_rows(solver, inst, rows)[0], ii,
                      solver.is_exact)

    return read


def _lines(rows: np.ndarray, ctrs: np.ndarray, ii, exact: bool) -> Lines:
    """CTR y = pi_i and intercept c = sum_{j != i} b_j pi_j of each row r,
    for i = ``ii[r]``: the row's outcome is worth y * b + c when i bids b.
    An exact maximizer's best objective is the maximum of such lines, and
    its CTR their slope (Milgrom and Segal, 2002); a handle that is not
    ``exact`` gets no intercepts (None)."""
    at = np.arange(len(ii))
    if not exact:
        return ctrs[at, ii].tolist(), None
    welfare = rows * ctrs
    welfare[at, ii] = 0.0
    return ctrs[at, ii].tolist(), welfare.sum(axis=1).tolist()


def _bids_at(kinds: list[ValueDistribution], which: np.ndarray,
            v: np.ndarray) -> np.ndarray:
    """The bid of each report ``v[k]`` valued by ``kinds[which[k]]``: its
    virtual value, at least 0, from one ``virtual_values`` call per
    distribution.  Reports below the support can never win (-inf), and
    above it no hazard mass is left, so phi continues as the identity."""
    phi = np.array(v, dtype=float)
    for d, dist in enumerate(kinds):
        mine = which == d  # broadcasts along v's rows
        inside = mine & (dist.lo <= phi) & (phi <= dist.hi)
        phi[mine & (phi < dist.lo)] = -np.inf
        phi[inside] = dist.virtual_values(phi[inside])
    return np.maximum(phi, 0.0)


def _values_at(kinds: list[ValueDistribution], which: np.ndarray,
               b: np.ndarray) -> np.ndarray:
    """A guess at the smallest report valued by ``kinds[which[k]]`` whose
    bid (:func:`_bids_at`) reaches ``b[k]``, NaN where its distribution has
    none: one ``inverse_virtual_values`` call per distribution."""
    v = np.full(len(b), np.nan)
    for d, dist in enumerate(kinds):
        mine = which == d
        v[mine] = dist.inverse_virtual_values(b[mine])
    return v


def myerson(
    inst: Instance,
    values,
    dists: list[ValueDistribution],
    solver: SolverHandle,
    grid_size: int = DEFAULT_GRID_SIZE,
) -> MechanismOutcome:
    """Revenue-maximizing auction via virtual-value winner determination.

    Advertisers with non-positive virtual value are excluded (the standard
    reserve behavior; the solvers assume non-negative bids anyway).  The
    envelope integral uses a ``grid_size``-point right-endpoint sum, so the
    mechanism is individually rational exactly and incentive compatible up
    to roughly v_max / grid_size.  The one-profile case of
    :func:`myerson_rows`.
    """
    return myerson_rows(inst, [values], dists, solver, grid_size)[0]


def myerson_rows(
    inst: Instance,
    value_rows,
    dists: list[ValueDistribution],
    solver: SolverHandle,
    grid_size: int = DEFAULT_GRID_SIZE,
) -> list[MechanismOutcome]:
    """:func:`myerson` at each profile of ``value_rows``.

    A handle that is not exact is audited, solved and read one profile at a
    time, as one :func:`myerson` call each, since each profile is audited
    before its outcome is drawn.  An exact handle solves every profile in
    one ``solve_rows`` call, and the envelope points of every payer of every
    profile are read by :func:`_grid_sums`, one reader call per round.
    """
    require_valid(inst)
    values = _finite_rows(inst, value_rows)
    if len(dists) != inst.n:
        raise ValidationError(
            f"expected {inst.n} distributions, got {len(dists)}")
    if not all(isinstance(dist, ValueDistribution) for dist in dists):
        raise ValidationError(f"dists must be ValueDistributions: {dists!r}")
    grid_size = _grid_size(grid_size)
    for dist in dists:
        if not is_regular(dist):
            raise IrregularDistributionError(
                "virtual values decrease on the check grid; ironing is not"
                " supported"
            )
    if solver.is_exact:
        return _priced(inst, values, dists, solver, grid_size)
    outcomes = []
    for row in values:
        _audit_or_raise(solver, inst, row)
        outcomes += _priced(inst, row[None], dists, solver, grid_size)
    return outcomes


def _priced(inst: Instance, values: np.ndarray,
            dists: list[ValueDistribution], solver: SolverHandle,
            grid_size: int) -> list[MechanismOutcome]:
    """The body of :func:`myerson_rows`, on checked inputs (R x n values):
    every profile solved at its virtual values in one :func:`_solve_rows`
    call, then every payment from one :func:`_grid_sums` walk over every
    payer's envelope, v * pi - step * area on arrays."""
    kinds = list(dict.fromkeys(dists))  # equal distributions go together
    which = np.array([kinds.index(d) for d in dists])
    virtual = _bids_at(kinds, which, values)
    ctrs, outcome = _solve_rows(solver, inst, virtual)

    # A monotone curve below a zero endpoint integrates to 0: no payment.
    # (profile, advertiser) of each payer, and its grid step
    s_of, i_of = np.nonzero((ctrs > 0.0) & (values > 0.0))
    steps = values[s_of, i_of] / grid_size
    read = _reader(solver, inst, virtual)

    def bids(k, g):  # payer k's own bid at its grid point g, on arrays
        return _bids_at(kinds, which[i_of[k]], g * steps[k])

    def guess(k, b):  # payer k's grid position where its bid reaches b
        return _values_at(kinds, which[i_of[k]], b) / steps[k]

    def envelope(points):  # (payer, grid point) -> its line and bid there
        k, g = np.array(points, dtype=np.intp).reshape(-1, 2).T
        own = bids(k, g).tolist()
        return *read(list(zip(s_of[k].tolist(), i_of[k].tolist(), own))), own

    tops = _lines(virtual[s_of], ctrs[s_of], i_of, solver.is_exact)
    areas = np.array(_grid_sums(envelope, tops, grid_size, bids, guess),
                     dtype=float)
    payments = np.zeros(values.shape)
    payments[s_of, i_of] = _clip_dust(
        values[s_of, i_of] * ctrs[s_of, i_of] - steps * areas)
    return _outcomes(values, ctrs, payments, outcome)


def _grid_sums(read: Callable[[list[tuple[int, int]]], tuple],
               tops: tuple[list[float | None], list[float] | None],
               grid_size: int, bids: Callable | None = None,
               guess: Callable | None = None) -> list[float]:
    """:func:`monotone_grid_sum` of each curve k, whose values (y) and
    intercepts (c, or None) at grid points g are ``read([(k, g), ...])``'s,
    and at ``grid_size`` ``tops``' for curve k, unless its y there is None.
    A read that gives intercepts also gives, third, the own bids it read at.

    Each curve's spans are walked one round at a time, each round's new span
    ends, of every curve, in one ``read`` call: a span (lo, hi) whose ends
    read equal, or are adjacent, is settled, and any other splits into
    (lo, cut) and (cut + 1, hi) (:func:`_cuts`; ``bids(k, g)`` gives curve
    k's own bids at grid points g, on arrays, and ``guess(k, b)`` a grid
    position where its bid reaches b).  Then :func:`_midpoint_sum` sums each
    curve as the midpoint recursion would, bit for bit: a curve cut only at
    midpoints was read wherever the recursion reads, and a non-decreasing
    curve's reads settle it at every grid point."""
    ends = [{} if y is None else {grid_size: y} for y in tops[0]]
    curves = np.arange(len(ends))
    lines = tops[1] and [  # each end's intercept and own bid
        {grid_size: end} for end in zip(tops[1], bids(
            curves, np.full(len(ends), grid_size)).tolist())]
    spans = [(k, 1, grid_size) for k in curves.tolist()]
    while spans:
        new = list(dict.fromkeys((k, g) for k, lo, hi in spans
                                 for g in (lo, hi) if g not in ends[k]))
        ys, *cs_bs = read(new) if new else ((),)
        for (k, g), y in zip(new, ys):
            ends[k][g] = y
        if lines:
            for (k, g), c, b in zip(new, *cs_bs):
                lines[k][g] = c, b
        spans = [(k, lo, hi) for k, lo, hi in spans
                 if ends[k][lo] != ends[k][hi] and lo + 1 < hi]
        spans = [half for (k, lo, hi), cut in zip(
                     spans, _cuts(spans, ends, lines, bids, guess))
                 for half in ((k, lo, cut), (k, cut + 1, hi))]
    return [_midpoint_sum(read_at, grid_size) for read_at in ends]


def _cuts(spans: list[tuple[int, int, int]], ends: list[dict[int, float]],
          lines: list[dict[int, tuple[float, float]]] | None,
          bids: Callable, guess: Callable | None = None) -> list[int]:
    """Where each span (k, lo, hi) splits: after its midpoint, or if its
    ends read lines (``lines``: each end's intercept and own bid) with
    y_lo < y_hi and bids b_lo < b_hi, after the last grid point g whose bid
    is at most b* = (c_hi - c_lo) / (y_lo - y_hi), where the lines meet
    (Eisner and Severance, 1976): bids(g) <= b* < bids(g + 1).  b* is
    clamped into [b_lo, b_hi), so float dust cannot walk a run of equal
    bids, which read equal, a point a round.

    ``guess(k, b*)`` (NaN: none) names g directly: ``floor`` of the
    position of the smallest value whose virtual value reaches b*, clipped
    into [lo, hi - 1].  Every span's guess is checked in one ``bids`` call
    on g and g + 1, and the spans it misses are bisected over ``bids``.
    Bids of a regular distribution do not fall as g grows, so at most one
    g passes the check, and both ways give the same cut."""
    mids = [(lo + hi) // 2 for _k, lo, hi in spans]
    if not (lines and spans):
        return mids
    k, lo, hi = np.array(spans).T
    y_lo, c_lo, b_lo, y_hi, c_hi, b_hi = np.array(
        [(ends[j][a], *lines[j][a], ends[j][z], *lines[j][z])
         for j, a, z in spans]).T
    at = np.clip((c_hi - c_lo) / (y_lo - y_hi), b_lo,
                 np.nextafter(b_hi, -np.inf))
    meet = (b_lo < b_hi) & (y_lo < y_hi)  # else the midpoint: no search
    hi = np.where(meet, hi, lo + 1)
    g = np.floor(guess(k, at)) if guess else np.full(len(k), np.nan)
    known = meet & ~np.isnan(g)
    if known.any():
        g = np.clip(np.where(known, g, lo), lo, hi - 1).astype(np.intp)
        pair = bids(np.concatenate([k, k]), np.concatenate([g, g + 1]))
        hit = known & (pair[:len(g)] <= at) & (at < pair[len(g):])
        lo, hi = np.where(hit, g, lo), np.where(hit, g + 1, hi)
    mid = (lo + hi) // 2
    while np.any(hi - lo > 1):  # bids(lo) <= at < bids(hi)
        below = bids(k, mid) <= at
        lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
        mid = (lo + hi) // 2
    return np.where(meet, lo, mids).tolist()


def _midpoint_sum(read_at: dict[int, float], grid_size: int) -> float:
    """The midpoint recursion's sum over 1..grid_size of the step function
    whose value at g is ``read_at``'s at the largest point read at or below
    g; :func:`_grid_sums` reads 1 and ``grid_size``."""
    at = sorted(read_at)

    def tree(lo, hi, a, z):  # the sum over lo..hi, a read at lo, z at hi
        if a == z:
            return (hi - lo + 1) * a
        if lo + 1 >= hi:
            return a + z
        mid = (lo + hi) // 2
        return (tree(lo, mid, a, read_at[at[bisect_right(at, mid) - 1]])
                + tree(mid + 1, hi, read_at[at[bisect_right(at, mid + 1) - 1]],
                       z))

    return tree(1, grid_size, read_at[1], read_at[grid_size])


def monotone_grid_sum(
    curve: Callable[[int], float], grid_size: int, hi_value: float | None = None
) -> float:
    """Sum curve(1) + ... + curve(grid_size) for a non-decreasing curve,
    given curve(grid_size) as ``hi_value`` if known.

    Identical by construction to evaluating every grid point, but equal
    endpoint values pin every point between them, so the number of curve
    evaluations scales with the number of level changes, not the grid size.
    The one-curve case of :func:`_grid_sums`.
    """
    return _grid_sums(lambda points: ([curve(g) for _k, g in points], None),
                      ([hi_value], None), _grid_size(grid_size))[0]


def _grid_size(grid_size) -> int:
    """``grid_size`` as an int, a positive integer up to ``MAX_GRID_SIZE``."""
    if positive_int("grid_size", grid_size) > MAX_GRID_SIZE:
        raise SizeGuardError(f"grid_size {grid_size} exceeds the 2^53 guard")
    return int(grid_size)


def monotonicity_audit(
    solver: SolverHandle, inst: Instance, bids_template, i: int, grid
) -> Drop | None:
    """Sweep advertiser ``i``'s bid upward along ``grid`` and report the
    first click-through rate that falls below the sweep's running maximum
    by more than the tolerance, if any.

    Returns None on a clean sweep, else (bid_before, bid_after, ctr_before,
    ctr_after), where ctr_before is the running maximum and bid_before the
    last bid that reached it.  Exact solvers pass by optimality;
    approximate solvers must earn it.  The one-advertiser case of
    :func:`audit_drops`.
    """
    return next(audit_drops(solver, inst, bids_template, grid, [i]))[1]


def audit_drops(
    solver: SolverHandle, inst: Instance, bids_template, grid,
    advertisers=None,
) -> Iterator[tuple[int, Drop | None]]:
    """``(i, monotonicity_audit(solver, inst, bids_template, i, grid))``
    for each of ``advertisers`` in turn (default: all).

    On the first read, every advertiser's sweep is read in one call of the
    handle's :func:`_reader`, in advertiser then bid order: one
    :func:`_solve_rows` call, or, over the greedy, one reader call that
    draws as one ``solve`` per sweep bid would.
    """
    require_valid(inst)
    advertisers = range(inst.n) if advertisers is None else list(advertisers)
    for i in advertisers:  # ints, numpy's too, but no bools
        if isinstance(i, bool) or not (isinstance(i, numbers.Integral)
                                       and 0 <= i < inst.n):
            raise ValidationError(
                f"advertiser {i!r} is no integer in 0..{inst.n - 1}")
    grid = sorted(float(g) for g in grid)
    read = _reader(solver, inst, [bid_vector(inst, bids_template)])
    ctrs = read([(0, i, b) for i in advertisers for b in grid])[0]
    for s, i in enumerate(advertisers):
        yield i, _first_drop(grid, ctrs[s * len(grid):(s + 1) * len(grid)])


def _first_drop(grid: list[float], ctrs: list[float]) -> Drop | None:
    """The audit's drop rule over CTRs read along the sorted ``grid``."""
    top_bid, top_pi = None, -np.inf
    for b, pi_i in zip(grid, ctrs):
        if pi_i < top_pi - MONOTONE_TOL:
            return (top_bid, b, top_pi, pi_i)
        if pi_i >= top_pi:
            top_bid, top_pi = b, pi_i
    return None


def _audit_or_raise(solver: SolverHandle, inst: Instance, values) -> None:
    values = np.asarray(values, dtype=float)
    top = max(1.0, float(values.max(initial=0.0)) * 2.0)
    grid = np.linspace(0.0, top, 9)
    for i, hit in audit_drops(solver, inst, values, grid):
        if hit is not None:
            raise NonMonotoneSolverError(
                f"solver CTR for advertiser {i} drops from {hit[2]:.6g} to"
                f" {hit[3]:.6g} as its bid moves {hit[0]:.6g} -> {hit[1]:.6g}"
            )
