"""Truthful mechanisms on top of the winner-determination solvers.

VCG maximizes welfare with an exact solver and charges each advertiser the
externality it imposes (n + 1 solver calls).  The revenue mechanism solves
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
bids.  A handle whose ``curves`` is set (``greedy_cascade_solver``'s and
``brute_cascade_solver``'s) answers those from exact own-bid curves, built
once per call of the audit or the pricing, from a copy of its bid template.
The exact MNL handle has ``ctr_rows`` instead: the
audit solves every advertiser's sweep of an instance through it in one
batched call of the solver itself.  Every other handle (the planted-bug
fixture) and the exact MNL handle's envelope sum are probed with one
``solve`` per bid.  All paths give the same CTRs, and for a randomized
handle (the greedy) the same random draws; the outcome itself always comes
from one real ``solve``.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterable, Iterator

import numpy as np

from .core import (
    AugmentedAllocation,
    CASCADE,
    CtrVector,
    Instance,
    Permutation,
    SlotauctionError,
    ValidationError,
    bid_vector,
    cascade_ctr,
    require_valid,
)
from .cascade_wdp import OwnBidCurves, greedy_outcome
from .distributions import ValueDistribution, is_regular
from .mnl_wdp import match_ctrs, solve_mnl_wdp, solve_mnl_wdp_rows
from .oracle import BruteOwnBidCurves, brute_force_wdp_cascade

EXACT_MNL = "exact_mnl"
BRUTE_CASCADE = "brute_cascade"
GREEDY_CASCADE = "greedy_cascade"

DEFAULT_GRID_SIZE = 1024
MONOTONE_TOL = 1e-9

SolveFn = Callable[[Instance, np.ndarray], tuple[AugmentedAllocation, CtrVector]]
# (inst, bids) -> advertiser i -> (own bid -> CTR): see SolverHandle.
CurvesFn = Callable[[Instance, np.ndarray],
                    Callable[[int], Callable[[float], float]]]
CtrRowsFn = Callable[[Instance, np.ndarray], np.ndarray]
# (bid_before, bid_after, ctr_before, ctr_after): see monotonicity_audit.
Drop = tuple[float, float, float, float]


class IrregularDistributionError(SlotauctionError, ValueError):
    """Virtual values decrease somewhere; ironing is out of scope here."""


def _clip_dust(payment: float, tol: float = 1e-9) -> float:
    """Zero out sub-tolerance negative payments (leave-one-out subtraction
    dust); anything genuinely negative stays visible."""
    return 0.0 if -tol < payment < 0.0 else payment


def _finite_values(inst: Instance, values) -> np.ndarray:
    values = bid_vector(inst, values)
    if not np.all(np.isfinite(values)):
        raise ValidationError(f"values must be finite, got {values.tolist()}")
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
    ``bids``: ``curves(inst, bids)(i)`` is advertiser i's CTR as a function
    of its own bid, the others fixed at ``bids``, bit-equal to what
    ``solve`` reports and, for a randomized handle, consuming the same random
    draws.  A reader may keep ``bids``, so callers pass a copy.  The audit
    and the envelope pricing each build one reader per call and read it in
    place of one ``solve`` per bid; nothing is kept between calls.  The
    greedy and brute cascade handles set it; the exact MNL handle and
    ``threshold_dropping_solver`` do not.

    ``ctr_rows(inst, bid_rows)``, when set, returns an R x n array, one row
    per row of ``bid_rows`` (0 x n for none): the CTRs ``solve`` reports at
    those bids, bit-equal.  The audit reads every advertiser's sweep from it
    in one call when the handle has no ``curves``.  Only the exact MNL
    handle sets it: ``mnl_wdp.match_ctrs`` of ``solve_mnl_wdp_rows``, the
    CTRs ``solve_mnl_wdp`` takes from its one row, with no allocation per
    row.
    """

    solve: SolveFn
    kind: str
    curves: CurvesFn | None = None
    ctr_rows: CtrRowsFn | None = None

    @property
    def is_exact(self) -> bool:
        return self.kind in (EXACT_MNL, BRUTE_CASCADE)


@dataclass(frozen=True)
class MechanismOutcome:
    augmented: AugmentedAllocation
    payments: np.ndarray
    ctrs: CtrVector
    utilities: np.ndarray


def exact_mnl_solver() -> SolverHandle:
    def solve(inst: Instance, bids: np.ndarray):
        result = solve_mnl_wdp(inst, bids)
        sigma = Permutation(
            {j: r + 1 for r, (_, j) in enumerate(result.allocation.pairs())}
        )
        return AugmentedAllocation(result.allocation, sigma), result.ctrs

    def ctr_rows(inst: Instance, bid_rows: np.ndarray) -> np.ndarray:
        return match_ctrs(inst, solve_mnl_wdp_rows(inst, bid_rows))

    return SolverHandle(solve=solve, kind=EXACT_MNL, ctr_rows=ctr_rows)


def brute_cascade_solver() -> SolverHandle:
    """Exhaustive cascade search over the advertisers bidding above 0.

    Its ``curves`` builds one
    :class:`~slotauction.oracle.BruteOwnBidCurves` per reader."""

    def solve(inst: Instance, bids: np.ndarray):
        require_valid(inst, CASCADE)
        bids = bid_vector(inst, bids)
        active = {i for i in range(inst.n) if bids[i] > 0.0}
        chi, _w = brute_force_wdp_cascade(inst, bids, active=active)
        return chi, cascade_ctr(inst, chi)

    def curves(inst: Instance, bids: np.ndarray):
        return BruteOwnBidCurves(inst, bids).of

    return SolverHandle(solve=solve, kind=BRUTE_CASCADE, curves=curves)


def greedy_cascade_solver(rng: np.random.Generator) -> SolverHandle:
    """Randomized bucket solver wrapped for mechanism use: ``solve`` is
    :func:`~slotauction.cascade_wdp.greedy_outcome` drawing from ``rng``,
    whose CTRs are the deterministic uniform mixture over populated buckets
    and whose allocation is one sampled bucket's outcome.

    Its ``curves`` builds one
    :class:`~slotauction.cascade_wdp.OwnBidCurves` per reader and replays
    the draw ``solve`` would make at each bid read, so ``rng`` ends in the
    same state either way."""

    def curves(inst: Instance, bids: np.ndarray):
        of = OwnBidCurves(inst, bids).of

        def reader(i: int):
            own_bid = of(i)

            def ctr(b: float) -> float:
                value, populated = own_bid(b)
                if populated:
                    rng.integers(populated)
                return float(value)

            return ctr

        return reader

    return SolverHandle(solve=partial(greedy_outcome, rng=rng),
                        kind=GREEDY_CASCADE, curves=curves)


def threshold_dropping_solver(
    base: SolverHandle, threshold: float = 5.0
) -> SolverHandle:
    """Diagnostic fixture with a planted monotonicity bug: once the highest
    bid passes ``threshold``, that bidder is dropped before solving.  The
    audit must catch it; never use for payments."""

    def solve(inst: Instance, bids: np.ndarray):
        require_valid(inst)
        bids = bid_vector(inst, bids).copy()
        top = int(np.argmax(bids))
        if bids[top] > threshold:
            bids[top] = 0.0
        return base.solve(inst, bids)

    return SolverHandle(solve=solve, kind=base.kind)


def vcg(inst: Instance, values, solver: SolverHandle) -> MechanismOutcome:
    """Welfare-maximizing auction with externality payments.

    t_i = (others' best welfare with i's bid zeroed)
        - (others' welfare at the chosen allocation),
    which is non-negative and never exceeds v_i * pi_i.  An advertiser
    valued 0 and not allocated pays 0 and is not re-solved; every other
    advertiser costs one ``solve``, whether or not the handle has
    ``ctr_rows``.
    """
    require_valid(inst)
    if not solver.is_exact:
        raise NonMonotoneSolverError(
            "externality payments require an exact solver"
        )
    values = _finite_values(inst, values)
    if np.any(values < 0.0):
        raise ValidationError("values must be non-negative")
    chi, pi = solver.solve(inst, values)
    payments = np.zeros(inst.n)
    for i in range(inst.n):
        if values[i] == 0.0 and pi[i] == 0.0:
            continue
        without = values.copy()
        without[i] = 0.0
        _chi_wo, pi_wo = solver.solve(inst, without)
        others = np.arange(inst.n) != i
        payments[i] = _clip_dust(
            float(values[others] @ pi_wo[others] - values[others] @ pi[others])
        )
    utilities = values * pi - payments
    return MechanismOutcome(
        augmented=chi, payments=payments, ctrs=pi, utilities=utilities
    )


def _virtual_or_excluded(dist: ValueDistribution, v: float) -> float:
    """Virtual value extended off-support: reports below the support can
    never win (treated as -inf) and reports above it have no hazard mass
    left, so phi continues as the identity."""
    if v < dist.lo:
        return float("-inf")
    if v > dist.hi:
        return float(v)
    return dist.virtual_value(v)


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
    to roughly v_max / grid_size.
    """
    require_valid(inst)
    values = _finite_values(inst, values)
    if len(dists) != inst.n:
        raise ValidationError(
            f"expected {inst.n} distributions, got {len(dists)}")
    if not (isinstance(grid_size, numbers.Real) and grid_size >= 1
            and float(grid_size).is_integer()):
        raise ValidationError(
            f"grid_size must be a positive integer, got {grid_size!r}")
    grid_size = int(grid_size)
    for dist in dists:
        if not is_regular(dist):
            raise IrregularDistributionError(
                "virtual values decrease on the check grid; ironing is not"
                " supported"
            )
    if not solver.is_exact:
        _audit_or_raise(solver, inst, values)

    base_bids = np.maximum(
        [_virtual_or_excluded(dists[t], float(values[t])) for t in range(inst.n)],
        0.0,
    )

    chi, pi = solver.solve(inst, base_bids)

    # A monotone curve below a zero endpoint integrates to 0: no payment.
    payers = [i for i in range(inst.n) if pi[i] > 0.0 and values[i] > 0.0]
    ctr_of = _own_bid_reader(solver, inst, base_bids) if payers else None
    payments = np.zeros(inst.n)
    for i in payers:
        step = values[i] / grid_size
        ctr_at = ctr_of(i)

        def curve(g: int, _i=i, _step=step, _ctr_at=ctr_at) -> float:
            return _ctr_at(
                max(_virtual_or_excluded(dists[_i], g * _step), 0.0))

        area = step * monotone_grid_sum(curve, grid_size, hi_value=float(pi[i]))
        payments[i] = _clip_dust(values[i] * pi[i] - area)
    utilities = values * pi - payments
    return MechanismOutcome(
        augmented=chi, payments=payments, ctrs=pi, utilities=utilities
    )


def monotone_grid_sum(
    curve: Callable[[int], float], grid_size: int, hi_value: float | None = None
) -> float:
    """Sum curve(1) + ... + curve(grid_size) for a non-decreasing curve.

    Identical by construction to evaluating every grid point, but equal
    endpoint values pin every point between them, so the number of curve
    evaluations scales with the number of level changes, not the grid size.
    """
    cache: dict[int, float] = {}

    def at(g: int) -> float:
        if g not in cache:
            cache[g] = curve(g)
        return cache[g]

    if hi_value is not None:
        cache[grid_size] = hi_value

    def span(lo: int, hi: int) -> float:
        if at(lo) == at(hi):
            return (hi - lo + 1) * at(lo)
        if lo + 1 == hi:
            return at(lo) + at(hi)
        mid = (lo + hi) // 2
        return span(lo, mid) + span(mid + 1, hi)

    if grid_size == 1:
        return at(1)
    return span(1, grid_size)


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
    for each of ``advertisers`` in turn (default: all), read lazily.

    A handle with ``ctr_rows`` and no ``curves`` answers every advertiser's
    sweep in one call, on the first read.  Any other handle is read one
    advertiser and one bid at a time, in order, through one reader built on
    the first read, and stops being read at an advertiser's first drop, so a
    randomized curve draws exactly as one ``monotonicity_audit`` per
    advertiser would.
    """
    require_valid(inst)
    advertisers = range(inst.n) if advertisers is None else list(advertisers)
    for i in advertisers:
        if not 0 <= i < inst.n:
            raise ValidationError(f"advertiser {i} outside 0..{inst.n - 1}")
    grid = sorted(float(g) for g in grid)
    template = bid_vector(inst, bids_template)
    if solver.curves is None and solver.ctr_rows is not None:
        rows = np.tile(template, (len(advertisers), len(grid), 1))
        for s, i in enumerate(advertisers):
            rows[s, :, i] = grid
        ctrs = solver.ctr_rows(inst, rows.reshape(-1, inst.n)).reshape(
            rows.shape)
        for s, i in enumerate(advertisers):
            yield i, _first_drop(grid, ctrs[s, :, i].tolist())
    else:
        ctr_of = _own_bid_reader(solver, inst, template)
        for i in advertisers:
            yield i, _first_drop(grid, map(ctr_of(i), grid))


def _first_drop(grid: list[float], ctrs: Iterable[float]) -> Drop | None:
    """The audit's drop rule over CTRs read along the sorted ``grid``; it
    stops reading ``ctrs`` at the first drop."""
    top_bid, top_pi = None, -np.inf
    for b, pi_i in zip(grid, ctrs):
        if pi_i < top_pi - MONOTONE_TOL:
            return (top_bid, b, top_pi, pi_i)
        if pi_i >= top_pi:
            top_bid, top_pi = b, pi_i
    return None


def _own_bid_reader(
    solver: SolverHandle, inst: Instance, bids_template
) -> Callable[[int], Callable[[float], float]]:
    """i -> advertiser i's reported CTR as a function of its own bid, the
    others bidding ``bids_template``: the handle's ``curves``, built once,
    when it has them, else one ``solve`` per bid."""
    # A copy: a reader may keep it, and the probe writes own bids into it.
    template = bid_vector(inst, bids_template).copy()
    if solver.curves is not None:
        return solver.curves(inst, template)

    def of(i: int) -> Callable[[float], float]:
        bids = template.copy()

        def probe(b: float) -> float:
            bids[i] = b
            _chi, pi = solver.solve(inst, bids)
            return float(pi[i])

        return probe

    return of


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
