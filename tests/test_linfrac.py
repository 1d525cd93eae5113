import numpy as np
import pytest

from slotauction.core import Instance, MNL, ValidationError, mnl_bids
from slotauction.linfrac import (
    LpProblem,
    LpSolution,
    SimplexError,
    build_charnes_cooper,
    recover_allocation,
    solve_lp,
)
from slotauction.mnl_wdp import solve_mnl_wdp
from slotauction.oracle import brute_force_wdp_mnl
from conftest import rand_bids, rand_mnl_instance


def lone_ad(p=0.5):
    return Instance(n=1, m=1, k=1, p=[[p]], model=MNL)


def test_problem_shape_one_by_one():
    lp = build_charnes_cooper(lone_ad(), [1.0])
    assert lp.c.shape == (2,)
    assert lp.a.shape == (4, 2)
    assert lp.rhs.tolist() == [0.0, 0.0, 0.0, 1.0]


def test_problem_shape_two_by_two():
    inst = Instance(n=2, m=2, k=2, p=np.full((2, 2), 0.5), model=MNL)
    lp = build_charnes_cooper(inst, [1.0, 2.0])
    assert lp.c.shape == (5,)
    assert lp.a.shape == (6, 5)


def test_all_zero_bids_rejected():
    inst = Instance(n=2, m=2, k=1, p=np.full((2, 2), 0.5), model=MNL)
    with pytest.raises(ValidationError):
        build_charnes_cooper(inst, [0.0, 0.0])
    with pytest.raises(ValidationError):
        build_charnes_cooper(inst, [1.0, -0.5])


def row_by_row_charnes_cooper(inst, bids):
    """The builder as it appended rows one at a time: advertiser rows,
    position rows, the cardinality row, then the normalization equality."""
    n, m = inst.n, inst.m
    nvars = n * m + 1
    expo = np.exp(inst.log_odds())
    c = np.zeros(nvars)
    c[: n * m] = (mnl_bids(inst, [bids])[0][:, None] * expo).ravel()
    rows, rhs = [], []
    for i in range(n):
        row = np.zeros(nvars)
        row[i * m : (i + 1) * m] = 1.0
        row[-1] = -1.0
        rows.append(row)
        rhs.append(0.0)
    for j in range(m):
        row = np.zeros(nvars)
        row[j : n * m : m] = 1.0
        row[-1] = -1.0
        rows.append(row)
        rhs.append(0.0)
    row = np.ones(nvars)
    row[-1] = -float(inst.k)
    rows.append(row)
    rhs.append(0.0)
    row = np.zeros(nvars)
    row[: n * m] = expo.ravel()
    row[-1] = 1.0
    rows.append(row)
    rhs.append(1.0)
    return c, np.vstack(rows), np.array(rhs)


def test_block_layout_equals_the_row_by_row_builder():
    rng = np.random.default_rng(28)
    for t in range(200):
        n, m = (int(x) for x in rng.integers(1, 8, size=2))
        k = int(rng.integers(1, m)) if m > 1 and t % 2 else m  # k < m half
        p = rng.uniform(0.01, 0.9, (n, m)) * (rng.random((n, m)) < 0.6)
        bids = rng.uniform(0.0, 5.0, n) * (rng.random(n) < 0.7)
        bids[int(rng.integers(n))] = 1.0  # never all zero
        inst = Instance(n=n, m=m, k=k, p=p, model=MNL)
        lp = build_charnes_cooper(inst, bids)
        for got, want in zip((lp.c, lp.a, lp.rhs),
                             row_by_row_charnes_cooper(inst, bids)):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()


def test_hand_two_variable_lp():
    # maximize y subject to y <= z, 2y + z = 1 -> y = z = 1/3
    lp = LpProblem(
        c=np.array([1.0, 0.0]),
        a=np.array([[1.0, -1.0], [2.0, 1.0]]),
        rhs=np.array([0.0, 1.0]),
        shape=(1, 1),
    )
    sol = solve_lp(lp)
    assert sol.y[0, 0] == pytest.approx(1 / 3, abs=1e-9)
    assert sol.z == pytest.approx(1 / 3, abs=1e-9)


def test_lone_ad_lp_matches_standalone_rate():
    sol = solve_lp(build_charnes_cooper(lone_ad(), [1.0]))
    assert sol.objective == pytest.approx(0.5, abs=1e-9)
    assert sol.y[0, 0] == pytest.approx(0.5, abs=1e-9)
    assert sol.z == pytest.approx(0.5, abs=1e-9)
    assert recover_allocation(sol).assignment == {0: 0}


def test_zero_objective_still_feasible():
    lp = build_charnes_cooper(lone_ad(), [1.0])
    zeroed = LpProblem(c=np.zeros_like(lp.c), a=lp.a, rhs=lp.rhs,
                       shape=lp.shape)
    sol = solve_lp(zeroed)
    assert sol.objective == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("a,rhs", [
    # y + z >= 3 clashes with 2y + z = 1: a negative right-hand side
    ([[-1.0, -1.0], [2.0, 1.0]], [-3.0, 1.0]),
    # y + z <= 1: y = 0 needs z <= 1 here, which 2y + z = 2 breaks
    ([[1.0, 1.0], [2.0, 1.0]], [1.0, 2.0]),
    # z must carry the equality row for the start vertex y = 0, z > 0
    ([[1.0, -1.0], [2.0, 0.0]], [0.0, 1.0]),
], ids=["negative-rhs", "positive-z-in-le-row", "no-z-in-equality"])
def test_problems_without_the_start_vertex_are_rejected(a, rhs):
    with pytest.raises(ValidationError, match="z needs|non-negative"):
        LpProblem(c=np.array([1.0, 0.0]), a=np.array(a), rhs=np.array(rhs),
                  shape=(1, 1))


def test_unbounded_lp_reported():
    # nothing constrains the first variable; a Charnes-Cooper LP bounds
    # every y by z, so only a hand-built LP gets here
    lp = LpProblem(
        c=np.array([1.0, 0.0, 0.0]),
        a=np.array([[0.0, 1.0, 1.0]]),
        rhs=np.array([1.0]),
        shape=(1, 2),
    )
    with pytest.raises(SimplexError, match="unbounded"):
        solve_lp(lp)


def test_recover_needs_positive_z():
    degenerate = LpSolution(y=np.zeros((1, 1)), z=0.0, objective=0.0)
    with pytest.raises(SimplexError, match="z-degenerate"):
        recover_allocation(degenerate)


def test_recover_empty_allocation_when_y_zero():
    sol = LpSolution(y=np.zeros((2, 2)), z=1.0, objective=0.0)
    assert recover_allocation(sol).assignment == {}


def test_recover_flags_fractional_entries():
    sol = LpSolution(y=np.array([[0.25]]), z=0.5, objective=0.1)
    with pytest.raises(SimplexError, match="non-integral"):
        recover_allocation(sol)


def test_two_by_two_recovery_matches_brute_force():
    inst = Instance(n=2, m=2, k=2, p=[[0.8, 0.5], [0.5, 0.2]], model=MNL)
    sol = solve_lp(build_charnes_cooper(inst, [1.0, 1.0]))
    alloc = recover_allocation(sol)
    assert alloc.assignment == {0: 0, 1: 1}
    brute = brute_force_wdp_mnl(inst, [1.0, 1.0])
    assert sol.objective == pytest.approx(brute.objective, abs=1e-9)


def test_simplex_is_deterministic():
    inst = Instance(n=3, m=3, k=2, p=np.full((3, 3), 0.4), model=MNL)
    lp = build_charnes_cooper(inst, [1.0, 1.0, 1.0])
    first = solve_lp(lp)
    second = solve_lp(lp)
    np.testing.assert_array_equal(first.y, second.y)
    assert first.z == second.z


def test_random_instances_recover_integral_and_optimal():
    rng = np.random.default_rng(21)
    for _ in range(60):
        inst = rand_mnl_instance(rng, nmax=5, mmax=5)
        bids = rand_bids(rng, inst.n)
        sol = solve_lp(build_charnes_cooper(inst, bids))
        alloc = recover_allocation(sol)  # raises if fractional
        assert alloc.size <= inst.k
        brute = brute_force_wdp_mnl(inst, bids)
        assert sol.objective == pytest.approx(brute.objective, abs=1e-6)
        # continuous rates and bids: the optimum is unique, so every route
        # returns the same matching
        assert alloc == brute.allocation == solve_mnl_wdp(inst, bids).allocation
