"""Domain model for position auctions over a click-through-rate matrix.

An auction instance has ``n`` advertisers, ``m`` positions, a cap ``K`` on the
number of filled positions, and a matrix ``p`` of standalone click-through
rates: ``p[i, j]`` is the probability that advertiser ``i``'s creative is
clicked when rendered in position ``j`` with no other creative shown.

Two user-behavior models turn a (partial) matching of advertisers to
positions into realized click-through rates:

* ``mnl``: the user weighs all shown creatives simultaneously; each matched
  creative is clicked with probability proportional to its odds exp(rho) =
  p / (1 - p), over one plus the total odds.  Rendering order is irrelevant.
* ``cascade``: the user scans positions in a chosen rendering order and
  leaves after the first click, so each creative's rate is discounted by the
  no-click probabilities of everything rendered before it.

All indices are 0-based.  Types are immutable after construction and all
operations are pure functions, so concurrent read access is safe.
"""

from __future__ import annotations

import functools
import numbers
import sys
from dataclasses import dataclass, field

import numpy as np

MNL = "mnl"
CASCADE = "cascade"

# Realized per-advertiser click probabilities are plain length-n arrays.
CtrVector = np.ndarray


class SlotauctionError(Exception):
    """Base of every error the library raises on purpose; the CLI reports
    each as a solver error (exit 2), anything else as a bug."""


class ValidationError(SlotauctionError, ValueError):
    """An instance or input violates a documented invariant."""


class InfeasibleAllocationError(SlotauctionError, ValueError):
    """An allocation does not fit the instance it is evaluated against."""


class SizeGuardError(SlotauctionError, ValueError):
    """An exhaustive computation was asked to run beyond desk scale."""


@dataclass(frozen=True)
class Instance:
    """An auction instance: dimensions, standalone CTRs, behavior model.

    ``p`` is copied to a read-only float array; it is the single source of
    truth, and :attr:`odds` is derived from it on first read.
    """

    n: int
    m: int
    k: int
    p: np.ndarray
    model: str

    def __post_init__(self) -> None:
        arr = np.array(self.p, dtype=float)
        arr.flags.writeable = False
        object.__setattr__(self, "p", arr)

    @functools.cached_property
    def odds(self) -> np.ndarray:
        """Read-only p / (1 - p), exp(rho) in every MNL route; inf at p = 1."""
        with np.errstate(divide="ignore"):
            odds = self.p / (1.0 - self.p)
        odds.flags.writeable = False
        return odds


@dataclass(frozen=True)
class Allocation:
    """A partial matching of advertisers to positions.

    Stored sparsely as advertiser -> position, since matchings carry at most
    ``K`` pairs and every algorithm iterates matched pairs.  The empty
    allocation is feasible and yields zero click-through everywhere.
    """

    assignment: dict[int, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        positions = list(self.assignment.values())
        if len(set(positions)) != len(positions):
            raise ValidationError("allocation assigns a position twice")
        object.__setattr__(self, "assignment", dict(self.assignment))

    def pairs(self) -> list[tuple[int, int]]:
        """Matched (advertiser, position) pairs, advertiser-ascending."""
        return sorted(self.assignment.items())

    @property
    def size(self) -> int:
        return len(self.assignment)

    def position_of(self, advertiser: int) -> int | None:
        return self.assignment.get(advertiser)


@dataclass(frozen=True)
class Permutation:
    """Rendering order of the matched positions.

    ``rank`` maps each matched position to a rank in ``1..t``; unmatched
    positions carry no rank (they are rendered after everything ranked).
    """

    rank: dict[int, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        ranks = sorted(self.rank.values())
        if ranks != list(range(1, len(self.rank) + 1)):
            raise ValidationError("ranks must be a bijection onto 1..t")
        object.__setattr__(self, "rank", dict(self.rank))

    def order(self) -> list[int]:
        """Positions sorted by rank (first rendered first)."""
        return sorted(self.rank, key=self.rank.__getitem__)


@dataclass(frozen=True)
class AugmentedAllocation:
    """A matching together with a rendering order of its matched positions."""

    allocation: Allocation
    permutation: Permutation

    def __post_init__(self) -> None:
        matched = set(self.allocation.assignment.values())
        if set(self.permutation.rank) != matched:
            raise ValidationError(
                "permutation must rank exactly the matched positions"
            )

    @classmethod
    def from_pairs(cls, pairs) -> AugmentedAllocation:
        """The matching of (advertiser, position) ``pairs``, rendered in the
        order listed."""
        return cls(
            Allocation(dict(pairs)),
            Permutation({j: r + 1 for r, (_i, j) in enumerate(pairs)}),
        )


def validate_instance(inst: Instance) -> str | None:
    """Return None when every instance invariant holds, else the first
    violated invariant as a message."""
    if inst.model not in (MNL, CASCADE):
        return f"unknown behavior model {inst.model!r}"
    for name in ("n", "m", "k"):
        value = getattr(inst, name)
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            return f"{name} must be an integer, got {value!r}"
    if inst.n < 1 or inst.m < 1:
        return "n and m must be at least 1"
    if not 1 <= inst.k <= inst.m:
        return f"K={inst.k} out of bounds (need 1 <= K <= m={inst.m})"
    if inst.p.shape != (inst.n, inst.m):
        return f"CTR matrix shape {inst.p.shape} != ({inst.n}, {inst.m})"
    if not np.all(np.isfinite(inst.p)):
        return "CTR out of range: non-finite entry"
    if np.any(inst.p < 0.0) or np.any(inst.p > 1.0):
        return "CTR out of range: entries must lie in [0, 1]"
    # Log-odds blow up as p -> 1; keep a safety margin for LP scaling.
    if inst.model == MNL and np.any(inst.p > 1.0 - 1e-9):
        return "infinite log-odds: MNL requires p < 1 strictly"
    return None


def require_valid(inst: Instance, model: str | None = None) -> None:
    """Raise ``ValidationError`` unless every instance invariant holds and,
    when ``model`` is given, the instance uses that behavior model."""
    # Instances are frozen and p is read-only, so one successful check
    # holds for the instance's lifetime; hot paths re-enter constantly.
    if not getattr(inst, "_validated", False):
        msg = validate_instance(inst)
        if msg is not None:
            raise ValidationError(msg)
        object.__setattr__(inst, "_validated", True)
    if model is not None and inst.model != model:
        raise ValidationError(
            f"expected a {model!r} instance, got {inst.model!r}")


def bid_vector(inst: Instance, values) -> np.ndarray:
    """``values`` as a float array of one entry per advertiser, none NaN:
    solvers sort by value, and NaN has no place in that order (+-inf do).
    """
    values = np.asarray(values, dtype=float)
    if values.shape != (inst.n,):
        raise ValidationError(
            f"expected {inst.n} values, got shape {values.shape}")
    if np.count_nonzero(np.isnan(values)):
        raise ValidationError(f"values must not be NaN, got {values.tolist()}")
    return values


def bid_rows(inst: Instance, rows) -> np.ndarray:
    """``rows`` as an R x n float array (R >= 0; ``[]`` is 0 x n), none NaN:
    ``bid_vector``'s check on every row at once.  Ragged rows, a wrong
    width or a NaN raise ``ValidationError``."""
    try:
        rows = np.array(rows, dtype=float)
    except ValueError as exc:  # ragged rows, or entries that are no numbers
        raise ValidationError(f"bad bid rows: {exc}") from None
    if rows.shape == (0,):
        rows = rows.reshape(0, inst.n)
    if rows.ndim != 2 or rows.shape[1] != inst.n:
        raise ValidationError(
            f"expected rows of {inst.n} values, got shape {rows.shape}")
    nan = np.isnan(rows).any(axis=1)
    if nan.any():
        r = int(nan.argmax())
        raise ValidationError(
            f"values must not be NaN, got {rows[r].tolist()} in row {r}")
    return rows


def check_feasible(inst: Instance, alloc: Allocation) -> None:
    """Raise unless ``alloc`` is a feasible matching for ``inst``."""
    require_valid(inst)
    if alloc.size > inst.k:
        raise InfeasibleAllocationError(
            f"{alloc.size} matched pairs exceed K={inst.k}"
        )
    for i, j in alloc.assignment.items():
        if not (0 <= i < inst.n and 0 <= j < inst.m):
            raise InfeasibleAllocationError(f"pair ({i}, {j}) out of range")


def mnl_ctr(inst: Instance, alloc: Allocation) -> CtrVector:
    """Click-through rates when the user considers all shown ads at once.

    pi_i = x_ij * exp(rho_ij) / (1 + sum over matched pairs of exp(rho)),
    with rho the log-odds of the standalone CTR.  A lone matched ad recovers
    its standalone rate exactly; unmatched advertisers get 0.
    """
    require_valid(inst, MNL)
    check_feasible(inst, alloc)
    match = np.full(inst.n, -1, dtype=np.intp)
    match[list(alloc.assignment)] = list(alloc.assignment.values())
    return match_ctrs(inst, match)


def match_ctrs(inst: Instance, match: np.ndarray) -> np.ndarray:
    """MNL CTRs of matching rows (position or -1 per advertiser): matched
    ``odds`` over 1 plus their sequential sum in advertiser order, on any
    Python (from 3.12 ``sum()`` compensates).  Unvalidated; callers check
    the instance and the matching."""
    odds = np.where(match >= 0, inst.odds[np.arange(inst.n), match], 0.0)
    return odds / (1.0 + np.cumsum(odds, axis=-1)[..., -1:])


def mnl_bids(inst: Instance, rows) -> np.ndarray:
    """Bid rows as the exact MNL solvers weigh them: an R x n array in
    which every bid below 0, and every bid of an advertiser whose rates are
    all 0, is 0 (neither has an edge, and zeroed neither -inf nor such a
    +inf makes a NaN).

    At most k advertisers are matched at once, so the sum of a row's k
    largest bid times largest odds bounds every weight and ratio; where it
    overflows (+inf bids too), ``ValidationError`` names the advertiser
    that takes it there.
    """
    require_valid(inst, MNL)
    rows = bid_rows(inst, rows)
    top = inst.odds.max(axis=1)
    pos = np.where(top > 0.0, np.maximum(rows, 0.0), 0.0)
    with np.errstate(over="ignore"):
        load = pos * top
        order = np.argsort(-load, axis=1, kind="stable")[:, :inst.k]
        bad = np.argwhere(~np.isfinite(np.cumsum(
            np.take_along_axis(load, order, axis=1), axis=1)))
    if bad.size:
        r, i = int(bad[0, 0]), int(order[tuple(bad[0])])
        raise ValidationError(
            f"bid {rows.item(r, i)!r} of advertiser {i} takes the MNL"
            " weights past the float range")
    return pos


def cascade_ctr(inst: Instance, chi: AugmentedAllocation) -> CtrVector:
    """Click-through rates when the user scans slots in rendering order and
    leaves at the first click: each matched ad keeps its standalone rate
    times the product of (1 - p) over everything rendered before it."""
    require_valid(inst, CASCADE)
    check_feasible(inst, chi.allocation)
    by_position = {j: i for i, j in chi.allocation.assignment.items()}
    return cascade_rates(
        inst.p, [(by_position[j], j) for j in chi.permutation.order()], inst.n
    )


def cascade_rates(p: np.ndarray, pairs, n: int) -> CtrVector:
    """The cascade recurrence on arrays: ``pairs`` lists matched
    (advertiser, position) pairs in rendering order, and each advertiser
    keeps p[i, j] times the no-click probability of everything before it.
    Unvalidated; callers check the instance and the matching."""
    pi = np.zeros(n)
    survive = 1.0
    for i, j in pairs:
        pij = p[i, j]
        pi[i] = survive * pij
        survive *= 1.0 - pij
    return pi


def welfare(values, pi: CtrVector) -> float:
    """Value-weighted total click-through, sum_i v_i * pi_i."""
    values = np.asarray(values, dtype=float)
    pi = np.asarray(pi, dtype=float)
    if values.shape != pi.shape:
        raise ValidationError(
            f"length mismatch: {values.shape} values vs {pi.shape} rates"
        )
    return float(values @ pi)


def json_fits(kind: type, value) -> bool:
    """Whether a parsed JSON value has type ``kind``: bools are neither
    ints nor floats, and ints are also floats if a float can hold them."""
    if isinstance(value, bool):
        return kind is bool
    if kind is float and isinstance(value, int):
        return abs(value) <= sys.float_info.max
    return isinstance(value, kind)


def positive_int(name: str, value) -> int:
    """``value`` as an int, if it is a positive integral real, no bool."""
    if isinstance(value, bool) or not (
            isinstance(value, numbers.Real) and value >= 1
            and value % 1 == 0):  # exact for ints past the float range
        raise ValidationError(
            f"{name} must be a positive integer, got {value!r}")
    return int(value)


def instance_from_dict(data: dict) -> Instance:
    """Build an Instance from the JSON schema
    {"n":int,"m":int,"k":int,"model":"mnl"|"cascade","p":[[float]]}; any
    other JSON type, or rows of unequal length, is a ValidationError."""
    if not json_fits(dict, data):
        raise ValidationError("malformed instance: not a JSON object")
    for key, kind in (("n", int), ("m", int), ("k", int), ("model", str),
                      ("p", list)):
        if key not in data:
            raise ValidationError(f"malformed instance: missing {key!r}")
        if not json_fits(kind, data[key]):
            raise ValidationError(f"malformed instance: {key!r} must be of"
                                  f" type {kind.__name__}, got {data[key]!r}")
    p = data["p"]
    if not all(json_fits(list, row) and len(row) == len(p[0])
               and all(json_fits(float, x) for x in row) for row in p):
        raise ValidationError(
            "malformed instance: 'p' needs rows of numbers of equal length")
    inst = Instance(n=data["n"], m=data["m"], k=data["k"], p=p,
                    model=data["model"].lower())
    require_valid(inst)
    return inst


def instance_to_dict(inst: Instance) -> dict:
    require_valid(inst)
    return {
        "n": int(inst.n),
        "m": int(inst.m),
        "k": int(inst.k),
        "model": inst.model,
        "p": inst.p.tolist(),
    }
