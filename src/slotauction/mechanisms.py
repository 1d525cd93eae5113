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
bids.  A handle whose ``curve`` is set (``greedy_cascade_solver``'s and
``brute_cascade_solver``'s) answers those from an exact own-bid curve built
once per bid template; every other handle (exact MNL, the planted-bug
fixture) is probed with one ``solve`` per bid.  Both paths give the same
CTRs, and for a randomized handle (the greedy) the same random draws; the
outcome itself always comes from one real ``solve``.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import (
    AugmentedAllocation,
    CASCADE,
    CtrVector,
    Instance,
    Permutation,
    ValidationError,
    bid_vector,
    cascade_ctr,
    cascade_rates,
    require_valid,
)
from .cascade_wdp import (
    OwnBidCurves,
    bucket_levels,
    bucket_mixture,
    greedy_picks,
)
from .distributions import ValueDistribution, is_regular
from .mnl_wdp import solve_mnl_wdp
from .oracle import BruteOwnBidCurves, brute_force_wdp_cascade

EXACT_MNL = "exact_mnl"
BRUTE_CASCADE = "brute_cascade"
GREEDY_CASCADE = "greedy_cascade"

DEFAULT_GRID_SIZE = 1024
MONOTONE_TOL = 1e-9

SolveFn = Callable[[Instance, np.ndarray], tuple[AugmentedAllocation, CtrVector]]
CurveFn = Callable[[Instance, np.ndarray, int], Callable[[float], float]]


class IrregularDistributionError(ValueError):
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


class NonMonotoneSolverError(ValueError):
    """An approximate solver failed its monotonicity audit."""


@dataclass(frozen=True)
class SolverHandle:
    """A winner-determination routine plus what kind of guarantee it carries.

    ``solve(inst, bids)`` must never allocate an advertiser whose bid is
    non-positive, must be deterministic in its reported CTR curve, and for
    the greedy cascade kind the CTRs are the uniform average over the
    per-bucket outcomes (the sampled allocation is representative only).

    ``curve(inst, bids, i)``, when set, returns advertiser i's CTR as a
    function of its own bid, the others fixed at ``bids``: bit-equal to what
    ``solve`` reports and, for a randomized handle, consuming the same random
    draws.  The audit and the envelope pricing read it in place of one
    ``solve`` per bid.  The greedy and brute cascade handles set it; the
    exact MNL handle and ``threshold_dropping_solver`` do not.
    """

    solve: SolveFn
    kind: str
    curve: CurveFn | None = None

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

    return SolverHandle(solve=solve, kind=EXACT_MNL)


def _per_template(build):
    """``build(inst, bids)``, kept until a call brings another instance or
    other bids: one bid template serves every advertiser's curve.  It is
    built from a copy, so a caller who edits its bids in place gets a new
    one."""
    cached: list = []

    def get(inst: Instance, bids: np.ndarray):
        if not (cached and cached[0].inst is inst
                and np.array_equal(cached[0].bids, bids)):
            cached[:] = [build(inst, np.array(bids, dtype=float))]
        return cached[0]

    return get


def brute_cascade_solver() -> SolverHandle:
    """Exhaustive cascade search over the advertisers bidding above 0.

    Its ``curve`` reads :class:`~slotauction.oracle.BruteOwnBidCurves`,
    built once per bid template."""

    def solve(inst: Instance, bids: np.ndarray):
        require_valid(inst, CASCADE)
        bids = bid_vector(inst, bids)
        active = {i for i in range(inst.n) if bids[i] > 0.0}
        chi, _w = brute_force_wdp_cascade(inst, bids, active=active)
        return chi, cascade_ctr(inst, chi)

    template = _per_template(BruteOwnBidCurves)

    def curve(inst: Instance, bids: np.ndarray, i: int):
        return template(inst, bids).of(i)

    return SolverHandle(solve=solve, kind=BRUTE_CASCADE, curve=curve)


def greedy_cascade_solver(rng: np.random.Generator) -> SolverHandle:
    """Randomized bucket solver wrapped for mechanism use: CTRs are the
    deterministic uniform mixture over populated buckets, and the returned
    allocation is one bucket's outcome sampled via ``rng``.  Advertisers
    bidding at most 0 are left out of every bucket.

    Its ``curve`` reads :class:`~slotauction.cascade_wdp.OwnBidCurves`,
    built once per bid template, and replays the draw ``solve`` would make
    at each bid, so ``rng`` ends in the same state either way."""

    def solve(inst: Instance, bids: np.ndarray):
        levels = bucket_levels(inst)
        bids = bid_vector(inst, bids)
        active = bids > 0.0
        levels = np.where(active[:, None], levels, 0)
        picks = list(
            greedy_picks(inst, levels, np.where(active, bids, 0.0)).values()
        )
        if not picks:
            return AugmentedAllocation.from_pairs([]), np.zeros(inst.n)
        mixture = bucket_mixture(
            [cascade_rates(inst.p, pairs, inst.n) for pairs in picks]
        )
        pick = picks[int(rng.integers(len(picks)))]
        return AugmentedAllocation.from_pairs(pick), mixture

    template = _per_template(OwnBidCurves)

    def curve(inst: Instance, bids: np.ndarray, i: int):
        own_bid = template(inst, bids).of(i)

        def ctr(b: float) -> float:
            value, populated = own_bid(b)
            if populated:
                rng.integers(populated)
            return float(value)

        return ctr

    return SolverHandle(solve=solve, kind=GREEDY_CASCADE, curve=curve)


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
    which is non-negative and never exceeds v_i * pi_i.
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

    payments = np.zeros(inst.n)
    for i in range(inst.n):
        if pi[i] <= 0.0 or values[i] <= 0.0:
            continue  # monotone curve below a zero endpoint integrates to 0
        step = values[i] / grid_size
        ctr_at = _own_bid_ctr(solver, inst, base_bids, i)

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
) -> tuple[float, float, float, float] | None:
    """Sweep advertiser ``i``'s bid upward along ``grid`` and report the
    first click-through rate that falls below the sweep's running maximum
    by more than the tolerance, if any.

    Returns None on a clean sweep, else (bid_before, bid_after, ctr_before,
    ctr_after), where ctr_before is the running maximum and bid_before the
    last bid that reached it.  Exact solvers pass by optimality;
    approximate solvers must earn it.
    """
    require_valid(inst)
    if not 0 <= i < inst.n:
        raise ValidationError(f"advertiser {i} outside 0..{inst.n - 1}")
    ctr_at = _own_bid_ctr(solver, inst, bids_template, i)
    top_bid, top_pi = None, -np.inf
    for b in sorted(float(g) for g in grid):
        pi_i = ctr_at(b)
        if pi_i < top_pi - MONOTONE_TOL:
            return (top_bid, b, top_pi, pi_i)
        if pi_i >= top_pi:
            top_bid, top_pi = b, pi_i
    return None


def _own_bid_ctr(
    solver: SolverHandle, inst: Instance, bids_template, i: int
) -> Callable[[float], float]:
    """Advertiser i's reported CTR as a function of its own bid, the others
    bidding ``bids_template``: read from the handle's curve when it has
    one, else probed with one ``solve`` per bid."""
    # A copy: the probe writes bid i into it, and a curve may keep it.
    bids = bid_vector(inst, bids_template).copy()
    if solver.curve is not None:
        return solver.curve(inst, bids, i)

    def probe(b: float) -> float:
        bids[i] = b
        _chi, pi = solver.solve(inst, bids)
        return float(pi[i])

    return probe


def _audit_or_raise(solver: SolverHandle, inst: Instance, values) -> None:
    values = np.asarray(values, dtype=float)
    top = max(1.0, float(values.max(initial=0.0)) * 2.0)
    grid = np.linspace(0.0, top, 9)
    for i in range(inst.n):
        hit = monotonicity_audit(solver, inst, values, i, grid)
        if hit is not None:
            raise NonMonotoneSolverError(
                f"solver CTR for advertiser {i} drops from {hit[2]:.6g} to"
                f" {hit[3]:.6g} as its bid moves {hit[0]:.6g} -> {hit[1]:.6g}"
            )
