"""Linear-fractional winner determination as a linear program.

The bid-weighted MNL objective is a ratio of two affine functions of the
matching variables.  Substituting y_ij = x_ij / D and z = 1 / D, where D is
the common denominator 1 + sum of matched exp(log-odds), turns the ratio
into a linear objective over a polytope whose rows mirror the matching
constraints scaled by z, plus one normalization equality tying y and z
together.  Any basic optimal solution has z > 0 and y / z integral, so the
winning matching is read off directly.

The solver is an in-house dense-tableau two-phase simplex with Bland's
anti-cycling pivot rule, chosen for guaranteed termination and determinism
over speed.  Its pivot count grows steeply with size, so this LP is the
cross-check of the production MNL solver (``mnl_wdp.solve_mnl_wdp``), not
the solver itself, and ``mnl_wdp.solve_mnl_lp`` accepts at most
``MAX_LP_CELLS`` advertiser x position cells: larger inputs raise
``SizeGuardError`` before a tableau is built, instead of running into the
pivot cap mid-solve.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    Allocation, Instance, MNL, SlotauctionError, ValidationError, bid_vector,
    require_valid,
)

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

FEAS_TOL = 1e-9
INTEGRALITY_TOL = 1e-6
MAX_PIVOTS = 20_000
# Largest advertiser x position count the MNL LP route accepts
# (``mnl_wdp.solve_mnl_lp`` counts positive bidders only).  Bland pivots grow
# steeply with size; see the README for the measurement behind this value.
MAX_LP_CELLS = 800


class SimplexError(SlotauctionError, RuntimeError):
    """The solver hit a numerical failure or iteration cap; never silent."""


@dataclass(frozen=True)
class LpProblem:
    """max c'v subject to row constraints, all variables >= 0.

    Variables are ordered y_00, ..., y_{n-1,m-1}, z (so nvars = n*m + 1 with
    ``shape`` = (n, m)).  ``senses`` holds "<=" or "==" per row; exactly one
    row is an equality (the normalization row).
    """

    c: np.ndarray
    a: np.ndarray
    rhs: np.ndarray
    senses: tuple[str, ...]
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
        if a.shape != (rhs.shape[0], c.shape[0]) or len(self.senses) != a.shape[0]:
            raise ValidationError("inconsistent LP dimensions")
        if any(s not in ("<=", "==") for s in self.senses):
            raise ValidationError("row senses must be '<=' or '=='")
        if sum(s == "==" for s in self.senses) != 1:
            raise ValidationError("expected exactly one equality row")


@dataclass(frozen=True)
class LpSolution:
    y: np.ndarray
    z: float
    objective: float
    status: str


def build_charnes_cooper(inst: Instance, bids) -> LpProblem:
    """Assemble the transformed LP for an MNL instance and bid vector.

    Rows: per-advertiser sum_j y_ij <= z, per-position sum_i y_ij <= z,
    the cardinality row sum y <= K z, and the normalization
    sum y_ij exp(rho_ij) + z = 1.  Objective: sum b_i y_ij exp(rho_ij).
    """
    require_valid(inst, MNL)
    bids = bid_vector(inst, bids)
    if np.any(bids < 0.0):
        raise ValidationError("bids must be non-negative")
    if not np.any(bids > 0.0):
        raise ValidationError("bids must not be all zero")

    n, m = inst.n, inst.m
    nvars = n * m + 1
    expo = np.exp(inst.log_odds())  # n x m, finite because p < 1

    c = np.zeros(nvars)
    c[: n * m] = (bids[:, None] * expo).ravel()

    rows, rhs, senses = [], [], []
    for i in range(n):
        row = np.zeros(nvars)
        row[i * m : (i + 1) * m] = 1.0
        row[-1] = -1.0
        rows.append(row)
        rhs.append(0.0)
        senses.append("<=")
    for j in range(m):
        row = np.zeros(nvars)
        row[j : n * m : m] = 1.0
        row[-1] = -1.0
        rows.append(row)
        rhs.append(0.0)
        senses.append("<=")
    row = np.ones(nvars)
    row[-1] = -float(inst.k)
    rows.append(row)
    rhs.append(0.0)
    senses.append("<=")
    row = np.zeros(nvars)
    row[: n * m] = expo.ravel()
    row[-1] = 1.0
    rows.append(row)
    rhs.append(1.0)
    senses.append("==")

    return LpProblem(
        c=c,
        a=np.vstack(rows),
        rhs=np.array(rhs),
        senses=tuple(senses),
        shape=(n, m),
    )


def solve_lp(lp: LpProblem) -> LpSolution:
    """Solve to a basic optimal solution, or report infeasible/unbounded."""
    status, x, objective = _two_phase_simplex(lp.c, lp.a, lp.rhs, lp.senses)
    n, m = lp.shape
    if status != OPTIMAL:
        return LpSolution(
            y=np.zeros((n, m)), z=0.0, objective=float("nan"), status=status
        )
    resid_ok = _constraints_satisfied(lp, x)
    if not resid_ok:
        raise SimplexError("optimal basis violates constraints beyond tolerance")
    return LpSolution(
        y=x[: n * m].reshape(n, m), z=float(x[-1]), objective=objective,
        status=OPTIMAL,
    )


def _constraints_satisfied(lp: LpProblem, x: np.ndarray) -> bool:
    lhs = lp.a @ x
    for k, sense in enumerate(lp.senses):
        if sense == "<=" and lhs[k] > lp.rhs[k] + FEAS_TOL:
            return False
        if sense == "==" and abs(lhs[k] - lp.rhs[k]) > FEAS_TOL:
            return False
    return bool(np.all(x >= -FEAS_TOL))


def recover_allocation(sol: LpSolution) -> Allocation:
    """Map an optimal (y, z) back to the integral matching x = y / z.

    Every entry of y / z must sit within INTEGRALITY_TOL of 0 or 1; a basic
    solution always does, so a miss signals a non-vertex point and is raised
    rather than rounded over.
    """
    if sol.status != OPTIMAL:
        raise SimplexError(f"cannot recover from status {sol.status!r}")
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
# Dense two-phase simplex, Bland's rule.
#
# Tableau layout: row 0 holds reduced costs and (negated) objective value in
# the last column; rows 1.. hold B^{-1}A | B^{-1}b.  Maximization form.
# ---------------------------------------------------------------------------


def _two_phase_simplex(c, a, rhs, senses):
    nrows, nvars = a.shape
    a = a.copy()
    rhs = rhs.copy()
    senses = list(senses)
    for r in range(nrows):
        if rhs[r] < 0.0:
            a[r] *= -1.0
            rhs[r] *= -1.0
            senses[r] = {"<=": ">=", ">=": "<=", "==": "=="}[senses[r]]

    n_slack = sum(s == "<=" for s in senses)
    n_surplus = sum(s == ">=" for s in senses)
    n_art = sum(s in (">=", "==") for s in senses)
    ncols = nvars + n_slack + n_surplus + n_art

    body = np.zeros((nrows, ncols + 1))
    body[:, :nvars] = a
    body[:, -1] = rhs
    basis = np.empty(nrows, dtype=int)
    slack_at = nvars
    art_at = nvars + n_slack + n_surplus
    art_cols = []
    for r, sense in enumerate(senses):
        if sense == "<=":
            body[r, slack_at] = 1.0
            basis[r] = slack_at
            slack_at += 1
        elif sense == ">=":
            body[r, slack_at] = -1.0
            slack_at += 1
            body[r, art_at] = 1.0
            basis[r] = art_at
            art_cols.append(art_at)
            art_at += 1
        else:
            body[r, art_at] = 1.0
            basis[r] = art_at
            art_cols.append(art_at)
            art_at += 1

    tab = np.zeros((nrows + 1, ncols + 1))
    tab[1:] = body

    if art_cols:
        cost1 = np.zeros(ncols)
        cost1[art_cols] = -1.0  # maximize -(sum of artificials)
        _load_objective(tab, basis, cost1)
        status = _iterate(tab, basis)
        if status != OPTIMAL:  # phase 1 is always bounded
            raise SimplexError("phase-1 simplex failed to terminate")
        if tab[0, -1] > FEAS_TOL:  # artificials stuck positive: max < 0
            return INFEASIBLE, None, float("nan")
        tab, basis, ncols = _drop_artificials(tab, basis, set(art_cols), nvars, ncols)

    cost2 = np.zeros(ncols)
    cost2[:nvars] = c
    _load_objective(tab, basis, cost2)
    status = _iterate(tab, basis)
    if status == UNBOUNDED:
        return UNBOUNDED, None, float("nan")
    x = np.zeros(ncols)
    x[basis] = tab[1:, -1]
    return OPTIMAL, x[:nvars], float(-tab[0, -1])


def _load_objective(tab, basis, cost):
    """Row 0 := reduced costs of ``cost`` w.r.t. the current basis."""
    tab[0, :-1] = cost - cost[basis] @ tab[1:, :-1]
    tab[0, -1] = -float(cost[basis] @ tab[1:, -1])


def _iterate(tab, basis):
    for _ in range(MAX_PIVOTS):
        red = tab[0, :-1]
        enter_candidates = np.flatnonzero(red > FEAS_TOL)
        if enter_candidates.size == 0:
            return OPTIMAL
        enter = int(enter_candidates[0])  # Bland: smallest improving index
        col = tab[1:, enter]
        positive = np.flatnonzero(col > FEAS_TOL)
        if positive.size == 0:
            return UNBOUNDED
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


def _drop_artificials(tab, basis, art_cols, nvars, ncols):
    """Pivot leftover artificial basics out; drop rows proven redundant."""
    keep_rows = list(range(1, tab.shape[0]))
    for r in range(1, tab.shape[0]):
        if basis[r - 1] not in art_cols:
            continue
        row = tab[r, :-1]
        pivot_candidates = [
            j for j in range(ncols)
            if j not in art_cols and abs(row[j]) > FEAS_TOL
        ]
        if pivot_candidates:
            j = pivot_candidates[0]
            _pivot(tab, r, j)
            basis[r - 1] = j
        else:
            keep_rows.remove(r)  # all-zero over real columns: redundant row
    keep_cols = [j for j in range(ncols) if j not in art_cols] + [ncols]
    new_tab = tab[np.ix_([0] + keep_rows, keep_cols)].copy()
    col_map = {old: new for new, old in enumerate(keep_cols[:-1])}
    new_basis = np.array(
        [col_map[basis[r - 1]] for r in keep_rows], dtype=int
    )
    return new_tab, new_basis, ncols - len(art_cols)
