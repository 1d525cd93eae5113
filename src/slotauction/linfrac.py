"""Linear-fractional winner determination as a linear program.

The bid-weighted MNL objective is a ratio of two affine functions of the
matching variables.  Substituting y_ij = x_ij / D and z = 1 / D, where D is
the common denominator 1 + sum of matched exp(rho) (the odds ``inst.odds``),
turns the ratio into a linear objective over a polytope whose rows mirror
the matching constraints scaled by z, plus one normalization equality tying
y and z together.  Any basic optimal solution has z > 0 and y / z integral,
so the winning matching is read off directly.

The solver is an in-house dense-tableau simplex with Bland's anti-cycling
pivot rule, chosen for guaranteed termination and determinism over speed.
It needs no phase 1: y = 0, z = 1 is a vertex of every such LP, so it starts
from the slacks of the ``<=`` rows plus z and only improves the objective.
The LP is bounded (every row keeps y <= z and the equality row bounds z by
1), so every solve ends optimal; a ratio test with no leaving row can only
come from a hand-built ``LpProblem`` and raises ``SimplexError``.
A dense pivot costs the whole tableau, so this LP is the cross-check of the
production MNL solver (``mnl_wdp.solve_mnl_wdp``), not the solver itself,
and ``mnl_wdp.solve_mnl_lp`` accepts at most ``MAX_LP_CELLS`` advertiser x
position cells: larger inputs raise ``SizeGuardError`` before a tableau is
built.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    Allocation, Instance, MNL, SlotauctionError, ValidationError, bid_vector,
    mnl_bids, require_valid,
)

FEAS_TOL = 1e-9
INTEGRALITY_TOL = 1e-6
MAX_PIVOTS = 20_000
# Largest advertiser x position count the MNL LP route accepts
# (``mnl_wdp.solve_mnl_lp`` counts positive bidders only).  Every pivot costs
# the whole dense tableau; see the README for the measurement behind this
# value.
MAX_LP_CELLS = 3200


class SimplexError(SlotauctionError, RuntimeError):
    """The solver hit a numerical failure or iteration cap; never silent."""


@dataclass(frozen=True)
class LpProblem:
    """max c'v subject to a v <= rhs on every row but the last, the
    normalization row a v == rhs, and all variables >= 0.

    Variables are ordered y_00, ..., y_{n-1,m-1}, z (so nvars = n*m + 1 with
    ``shape`` = (n, m)).  As in every Charnes-Cooper LP, y = 0 must be
    feasible with z > 0, which ``solve_lp`` starts from: z has a positive
    coefficient in the equality row and one <= 0 in every other row, and no
    right-hand side is negative.
    """

    c: np.ndarray
    a: np.ndarray
    rhs: np.ndarray
    shape: tuple[int, int]

    def __post_init__(self) -> None:
        c = np.asarray(self.c, dtype=float)
        a = np.atleast_2d(np.asarray(self.a, dtype=float))
        rhs = np.asarray(self.rhs, dtype=float)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "rhs", rhs)
        n, m = self.shape
        if c.shape != (n * m + 1,):
            raise ValidationError(
                f"objective has {c.shape[0]} coefficients, expected {n * m + 1}"
            )
        if a.shape != (rhs.shape[0], c.shape[0]) or not rhs.shape[0]:
            raise ValidationError("inconsistent LP dimensions")
        if not a[-1, -1] > 0.0 or (a[:-1, -1] > 0.0).any():
            raise ValidationError("z needs a positive coefficient in the"
                                  " equality row and one <= 0 in the others")
        if not (rhs >= 0.0).all():
            raise ValidationError("right-hand sides must be non-negative")


@dataclass(frozen=True)
class LpSolution:
    y: np.ndarray
    z: float
    objective: float


def build_charnes_cooper(inst: Instance, bids) -> LpProblem:
    """Assemble the transformed LP for an MNL instance and bid vector.

    Rows, in ``LpProblem``'s layout: per-advertiser sum_j y_ij <= z,
    per-position sum_i y_ij <= z, the cardinality row sum y <= K z, and
    last the normalization sum y_ij exp(rho_ij) + z = 1.  Objective:
    sum b_i y_ij exp(rho_ij), with exp(rho) read as ``inst.odds`` and the
    bids of ``core.mnl_bids``, which rejects bids that overflow.
    """
    require_valid(inst, MNL)
    bids = bid_vector(inst, bids)
    if np.any(bids < 0.0):
        raise ValidationError("bids must be non-negative")
    if not np.any(bids > 0.0):
        raise ValidationError("bids must not be all zero")

    n, m = inst.n, inst.m
    cells = np.arange(n * m)

    c = np.zeros(n * m + 1)
    c[:-1] = (mnl_bids(inst, [bids])[0][:, None] * inst.odds).ravel()

    a = np.zeros((n + m + 2, n * m + 1))
    a[cells // m, cells] = 1.0  # advertiser rows
    a[n + cells % m, cells] = 1.0  # position rows
    a[: n + m, -1] = -1.0
    a[n + m, :-1] = 1.0  # the cardinality row
    a[n + m, -1] = -float(inst.k)
    a[-1, :-1] = inst.odds.ravel()  # the normalization equality
    a[-1, -1] = 1.0
    rhs = np.zeros(n + m + 2)
    rhs[-1] = 1.0
    return LpProblem(c=c, a=a, rhs=rhs, shape=(n, m))


def solve_lp(lp: LpProblem) -> LpSolution:
    """Solve to a basic optimal solution, or raise ``SimplexError``: at the
    pivot cap, on an unbounded (hand-built) LP, or when the basis breaks a
    constraint by more than FEAS_TOL."""
    x, objective = _simplex(lp)
    if not _constraints_satisfied(lp, x):
        raise SimplexError("optimal basis violates constraints beyond tolerance")
    n, m = lp.shape
    return LpSolution(
        y=x[: n * m].reshape(n, m), z=float(x[-1]), objective=objective
    )


def _constraints_satisfied(lp: LpProblem, x: np.ndarray) -> bool:
    lhs = lp.a @ x
    return bool((lhs[:-1] <= lp.rhs[:-1] + FEAS_TOL).all()
                and abs(lhs[-1] - lp.rhs[-1]) <= FEAS_TOL
                and (x >= -FEAS_TOL).all())


def recover_allocation(sol: LpSolution) -> Allocation:
    """Map an optimal (y, z) back to the integral matching x = y / z.

    Every entry of y / z must sit within INTEGRALITY_TOL of 0 or 1; a basic
    solution always does, so a miss signals a non-vertex point and is raised
    rather than rounded over.
    """
    if sol.z <= FEAS_TOL:
        raise SimplexError(f"z-degenerate solution (z={sol.z})")
    x = sol.y / sol.z
    assignment: dict[int, int] = {}
    for i in range(x.shape[0]):
        for j in range(x.shape[1]):
            v = x[i, j]
            if abs(v) <= INTEGRALITY_TOL:
                continue
            if abs(v - 1.0) <= INTEGRALITY_TOL:
                if i in assignment:
                    raise SimplexError(f"advertiser {i} matched twice")
                assignment[i] = j
            else:
                raise SimplexError(f"non-integral entry x[{i},{j}] = {v}")
    return Allocation(assignment)


# ---------------------------------------------------------------------------
# Dense simplex, Bland's rule, from the problem's own vertex.
#
# Tableau layout: row 0 holds reduced costs and (negated) objective value in
# the last column; rows 1.. hold B^{-1}A | B^{-1}b.  Maximization form.
# ---------------------------------------------------------------------------


def _simplex(lp: LpProblem):
    """Bland's rule from the basis of the ``<=`` rows' slacks plus z.

    z enters on the equality row by one forced pivot; ``LpProblem``'s checks
    keep every right-hand side non-negative through it, so the start is a
    feasible vertex and Bland's rule terminates from it (Bland, 1977).
    """
    nrows, nvars = lp.a.shape
    ncols = nvars + nrows - 1  # one slack per '<=' row
    tab = np.zeros((nrows + 1, ncols + 1))
    tab[1:, :nvars] = lp.a
    tab[1:, -1] = lp.rhs
    tab[1:nrows, nvars:ncols] = np.eye(nrows - 1)
    basis = np.append(np.arange(nvars, ncols), nvars - 1)  # z on the equality
    _pivot(tab, nrows, nvars - 1)

    cost = np.zeros(ncols)
    cost[:nvars] = lp.c
    tab[0, :-1] = cost - cost[basis] @ tab[1:, :-1]
    tab[0, -1] = -float(cost[basis] @ tab[1:, -1])
    _iterate(tab, basis)
    x = np.zeros(ncols)
    x[basis] = tab[1:, -1]
    return x[:nvars], float(-tab[0, -1])


def _iterate(tab, basis):
    for _ in range(MAX_PIVOTS):
        red = tab[0, :-1]
        enter_candidates = np.flatnonzero(red > FEAS_TOL)
        if enter_candidates.size == 0:
            return
        enter = int(enter_candidates[0])  # Bland: smallest improving index
        col = tab[1:, enter]
        positive = np.flatnonzero(col > FEAS_TOL)
        if positive.size == 0:
            raise SimplexError(
                f"no leaving row for column {enter}: the LP is unbounded")
        ratios = tab[1:, -1][positive] / col[positive]
        best = ratios.min()
        ties = positive[ratios <= best + 1e-12]
        leave_row = int(ties[np.argmin(basis[ties])])  # Bland tie-break
        _pivot(tab, leave_row + 1, enter)
        basis[leave_row] = enter
    raise SimplexError(f"pivot cap {MAX_PIVOTS} exceeded")


def _pivot(tab, row, col):
    tab[row] /= tab[row, col]
    factors = tab[:, col].copy()
    factors[row] = 0.0
    tab -= np.outer(factors, tab[row])
