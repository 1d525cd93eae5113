import numpy as np
import pytest

from slotauction.cascade_wdp import bucket_count
from slotauction.core import CASCADE, Instance, MNL, ValidationError
from slotauction.distributions import Exponential, Uniform
from slotauction.mechanisms import (
    IrregularDistributionError,
    NonMonotoneSolverError,
    SolverHandle,
    brute_cascade_solver,
    exact_mnl_solver,
    greedy_cascade_solver,
    monotone_grid_sum,
    monotonicity_audit,
    myerson,
    threshold_dropping_solver,
    vcg,
)
from conftest import (
    rand_bids,
    rand_cascade_instance,
    rand_mnl_instance,
    tie_heavy_cascade_case,
)
from test_distributions import bimodal_fixture


def textbook_slot(n=2):
    """n bidders, one certain-click slot, cascade model."""
    return Instance(n=n, m=1, k=1, p=np.ones((n, 1)), model=CASCADE)


# ----------------------------------------------------------------------- vcg


def test_vcg_single_advertiser_pays_nothing():
    inst = Instance(n=1, m=1, k=1, p=[[0.5]], model=MNL)
    out = vcg(inst, [4.0], exact_mnl_solver())
    assert out.payments[0] == 0.0
    assert out.utilities[0] == pytest.approx(2.0)


def test_vcg_charges_displaced_welfare():
    inst = Instance(n=2, m=1, k=1, p=[[0.5], [0.5]], model=MNL)
    out = vcg(inst, [2.0, 1.0], exact_mnl_solver())
    assert out.augmented.allocation.assignment == {0: 0}
    np.testing.assert_allclose(out.payments, [0.5, 0.0], atol=1e-9)


def test_vcg_identical_twins_pay_each_others_contribution():
    inst = Instance(n=2, m=1, k=1, p=[[0.6], [0.6]], model=MNL)
    out = vcg(inst, [3.0, 3.0], exact_mnl_solver())
    winner = next(iter(out.augmented.allocation.assignment))
    # the twin would have produced exactly the same welfare
    assert out.payments[winner] == pytest.approx(3.0 * 0.6, abs=1e-9)
    assert out.utilities[winner] == pytest.approx(0.0, abs=1e-9)


def test_vcg_rejects_non_exact_solver():
    inst = rand_cascade_instance(np.random.default_rng(1))
    greedy = greedy_cascade_solver(np.random.default_rng(0))
    with pytest.raises(NonMonotoneSolverError):
        vcg(inst, np.ones(inst.n), greedy)


def test_mechanisms_reject_non_finite_values():
    inst = textbook_slot()
    dists = [Uniform(0.0, 1.0)] * 2
    for bad in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ValidationError):
            vcg(inst, [bad, 0.7], brute_cascade_solver())
        with pytest.raises(ValidationError):
            myerson(inst, [bad, 0.7], dists, brute_cascade_solver())


def test_mechanisms_reject_wrong_length_values():
    inst = textbook_slot(3)
    dists = [Uniform(0.0, 1.0)] * 3
    with pytest.raises(ValidationError):
        myerson(inst, [0.9, 0.7], dists, brute_cascade_solver())
    with pytest.raises(ValidationError):
        myerson(inst, [0.9, 0.7, 0.5, 0.3], dists,
                greedy_cascade_solver(np.random.default_rng(0)))
    with pytest.raises(ValidationError):
        vcg(inst, [[0.9, 0.7, 0.5]], brute_cascade_solver())


def test_vcg_truthful_on_random_instances():
    rng = np.random.default_rng(107)
    solver = exact_mnl_solver()
    for _ in range(8):
        inst = rand_mnl_instance(rng, nmax=4, mmax=4)
        values = rand_bids(rng, inst.n)
        truthful = vcg(inst, values, solver)
        assert np.all(truthful.payments >= 0.0)
        assert np.all(truthful.utilities >= -1e-9)
        for i in range(inst.n):
            for lie in rng.uniform(0.01, 10.0, 4):
                bids = values.copy()
                bids[i] = lie
                outcome = vcg(inst, bids, solver)
                lie_utility = values[i] * outcome.ctrs[i] - outcome.payments[i]
                assert lie_utility <= truthful.utilities[i] + 1e-9


# ------------------------------------------------------------ virtual values


# -------------------------------------------------------------------- grids


def test_monotone_grid_sum_equals_naive_sum():
    rng = np.random.default_rng(109)
    for _ in range(40):
        size = int(rng.integers(1, 600))
        jumps = sorted(rng.uniform(0, size, size=int(rng.integers(0, 5))))
        levels = np.cumsum(rng.uniform(0, 1, size=len(jumps) + 1))

        def curve(g: int) -> float:
            level = 0
            for t, jump in enumerate(jumps):
                if g > jump:
                    level = t + 1
            return float(levels[level])

        naive = sum(curve(g) for g in range(1, size + 1))
        assert monotone_grid_sum(curve, size) == pytest.approx(naive, rel=1e-12)


# ------------------------------------------------------------------- myerson


def test_myerson_single_bidder_converges_to_reserve():
    inst = textbook_slot(1)
    payments = {}
    for grid in (512, 1024, 4096):
        out = myerson(inst, [0.75], [Uniform(0.0, 1.0)],
                      brute_cascade_solver(), grid_size=grid)
        assert out.ctrs[0] == pytest.approx(1.0)
        payments[grid] = out.payments[0]
        assert abs(out.payments[0] - 0.5) <= 0.75 / grid
    assert abs(payments[4096] - 0.5) < abs(payments[512] - 0.5) + 1e-12


def test_myerson_below_reserve_unallocated():
    out = myerson(textbook_slot(1), [0.4], [Uniform(0.0, 1.0)],
                  brute_cascade_solver(), grid_size=512)
    assert out.ctrs[0] == 0.0
    assert out.payments[0] == 0.0


def test_myerson_two_bidders_price_at_second_or_reserve():
    inst = textbook_slot(2)
    dists = [Uniform(0.0, 1.0)] * 2
    out = myerson(inst, [0.9, 0.7], dists, brute_cascade_solver(), 2048)
    assert out.ctrs[0] == pytest.approx(1.0)
    assert abs(out.payments[0] - 0.7) <= 0.9 / 2048
    out = myerson(inst, [0.9, 0.3], dists, brute_cascade_solver(), 2048)
    assert abs(out.payments[0] - 0.5) <= 0.9 / 2048
    assert out.payments[1] == 0.0


def test_myerson_grid_size_must_be_integral():
    inst, values = textbook_slot(2), [0.9, 0.7]
    dists = [Uniform(0.0, 1.0)] * 2
    want = myerson(inst, values, dists, brute_cascade_solver(), 8).payments
    for grid in (np.int64(8), 8.0):
        got = myerson(inst, values, dists, brute_cascade_solver(), grid)
        assert np.array_equal(got.payments, want)
    for grid in (2.5, 1.5, 0.0, float("nan"), float("inf"), "8"):
        with pytest.raises(ValidationError):
            myerson(inst, values, dists, brute_cascade_solver(), grid)


def test_myerson_is_individually_rational():
    rng = np.random.default_rng(113)
    inst = textbook_slot(3)
    dists = [Uniform(0.0, 1.0)] * 3
    for _ in range(25):
        values = rng.uniform(0.0, 1.0, 3)
        out = myerson(inst, values, dists, brute_cascade_solver(), 256)
        assert np.all(out.payments >= 0.0)
        assert np.all(out.payments <= values * out.ctrs + 1e-12)


def test_myerson_rejects_irregular_distribution():
    inst = textbook_slot(1)
    with pytest.raises(IrregularDistributionError):
        myerson(inst, [1.0], [bimodal_fixture()], brute_cascade_solver(), 128)


def test_myerson_audits_approximate_solvers():
    inst = rand_cascade_instance(np.random.default_rng(3), nmax=3, mmax=3)
    values = np.full(inst.n, 2.0)
    dists = [Exponential(1.0)] * inst.n
    broken = threshold_dropping_solver(
        greedy_cascade_solver(np.random.default_rng(0)), threshold=1.0
    )
    with pytest.raises(NonMonotoneSolverError):
        myerson(inst, values, dists, broken, grid_size=64)
    # the honest greedy passes the same audit
    honest = greedy_cascade_solver(np.random.default_rng(0))
    out = myerson(inst, values, dists, honest, grid_size=64)
    assert np.all(out.payments >= 0.0)


def test_myerson_mnl_route_works_end_to_end():
    inst = Instance(n=2, m=2, k=2, p=[[0.6, 0.3], [0.4, 0.2]], model=MNL)
    out = myerson(inst, [0.9, 0.8], [Uniform(0.0, 1.0)] * 2,
                  exact_mnl_solver(), grid_size=256)
    assert np.all(out.payments >= 0.0)
    assert np.all(out.utilities >= -1e-9)


def test_myerson_epsilon_ic_shrinks_with_grid():
    inst = textbook_slot(2)
    dists = [Uniform(0.0, 1.0)] * 2
    values = np.array([0.83, 0.61])
    misreports = np.linspace(0.01, 1.0, 64)
    gains = {}
    for grid in (256, 512):
        truthful = myerson(inst, values, dists, brute_cascade_solver(), grid)
        base = values * truthful.ctrs - truthful.payments
        worst = 0.0
        for i in range(2):
            for lie in misreports:
                reported = values.copy()
                reported[i] = lie
                out = myerson(inst, reported, dists,
                              brute_cascade_solver(), grid)
                utility = values[i] * out.ctrs[i] - out.payments[i]
                worst = max(worst, utility - base[i])
        gains[grid] = worst
        assert worst <= 1.0 / grid + 1e-9
    assert gains[512] <= gains[256] + 1e-12


# ---------------------------------------------------------------- audit tool


def test_audit_passes_exact_solver():
    rng = np.random.default_rng(127)
    inst = rand_mnl_instance(rng, nmax=4, mmax=4)
    bids = rand_bids(rng, inst.n)
    grid = np.linspace(0.25, 10.0, 10)
    for i in range(inst.n):
        assert monotonicity_audit(exact_mnl_solver(), inst, bids, i, grid) is None


def test_audit_passes_greedy_cascade():
    rng = np.random.default_rng(131)
    solver = greedy_cascade_solver(np.random.default_rng(0))
    grid = np.linspace(0.25, 10.0, 10)
    for _ in range(10):
        inst = rand_cascade_instance(rng, nmax=4, mmax=4)
        bids = rand_bids(rng, inst.n, top=5.0)
        for i in range(inst.n):
            assert monotonicity_audit(solver, inst, bids, i, grid) is None


def _object_path_greedy_solve(inst, bids, rng):
    """The greedy solver as it was before the array kernel, kept as the
    reference: a masked instance, a level loop per edge, a sorted scan per
    bucket building frozen outcomes, and the cascade recurrence per outcome.
    """
    clipped = np.where(bids > 0.0, bids, 0.0)
    p = np.where((clipped > 0.0)[:, None], inst.p, 0.0)
    count = bucket_count(inst.m)
    buckets = [[] for _ in range(count)]
    for i in range(inst.n):
        for j in range(inst.m):
            pij = float(p[i, j])
            if pij <= 0.0:
                continue
            level = 1
            while level < count and pij <= 2.0 ** -level:
                level += 1
            buckets[level - 1].append((i, j, pij))
    populated = []
    for level, edges in enumerate(buckets, start=1):
        if not edges:
            continue
        cap = min(2 ** level, inst.m, inst.k)
        assignment, rank = {}, {}
        for i, j, _p in sorted(
            edges, key=lambda e: (-clipped[e[0]] * e[2], e[0], e[1])
        ):
            if i in assignment or j in rank:
                continue
            assignment[i] = j
            rank[j] = len(rank) + 1
            if len(assignment) >= cap:
                break
        populated.append((assignment, rank))
    if not populated:
        return {}, {}, np.zeros(inst.n)
    ctrs = []
    for assignment, _rank in populated:
        pi, survive = np.zeros(inst.n), 1.0
        for i, j in assignment.items():  # insertion order is rank order
            pi[i] = survive * p[i, j]
            survive *= 1.0 - p[i, j]
        ctrs.append(pi)
    assignment, rank = populated[int(rng.integers(len(populated)))]
    return assignment, rank, np.mean(ctrs, axis=0)


def test_greedy_solver_equals_object_path():
    rng = np.random.default_rng(89)
    for case in range(200):
        inst, bids = tie_heavy_cascade_case(rng)
        solver_rng = np.random.default_rng(case)
        solver = greedy_cascade_solver(solver_rng)
        reference_rng = np.random.default_rng(case)
        for sweep in range(3):
            bids = bids if sweep == 0 else rng.permutation(bids)
            chi, ctrs = solver.solve(inst, bids)
            assignment, rank, expected = _object_path_greedy_solve(
                inst, bids, reference_rng)
            assert chi.allocation.assignment == assignment
            assert chi.permutation.rank == rank
            assert np.array_equal(ctrs, expected)
        assert (solver_rng.bit_generator.state
                == reference_rng.bit_generator.state)


def _curve_test_bids(inst, values, i):
    """Own bids for advertiser i: non-positive, a few fixed ones, every
    other advertiser's bid, and every exact tie point v_k p_kl / p_ij.  The
    subnormal bids round distinct rates to equal weights, so i's own edges
    tie and the lower position must win."""
    bids = {-1.0, 0.0, 5e-324, 1e-320, 0.5, 1.0, 2.0}
    for k in range(inst.n):
        if k == i:
            continue
        bids.add(float(values[k]))
        if values[k] <= 0.0:
            continue
        for j in np.flatnonzero(inst.p[i] > 0.0):
            bids.update((values[k] * inst.p[k] / inst.p[i, j]).tolist())
    return sorted(bids)


def test_greedy_curve_equals_probes():
    rng = np.random.default_rng(137)
    for case in range(200):
        inst, values = tie_heavy_cascade_case(rng)
        curve_rng = np.random.default_rng(case)
        handle = greedy_cascade_solver(curve_rng)
        probe_rng = np.random.default_rng(case)
        probe = greedy_cascade_solver(probe_rng)
        for i in range(inst.n):
            ctr_at = handle.curve(inst, values, i)
            for b in _curve_test_bids(inst, values, i):
                bids = values.copy()
                bids[i] = b
                _chi, pi = probe.solve(inst, bids)
                assert ctr_at(b) == pi[i], (case, i, b)
                assert (curve_rng.bit_generator.state
                        == probe_rng.bit_generator.state), (case, i, b)


def _auction_cases(rng):
    """cascade_auction-shaped instances alternating with tie-heavy ones."""
    for case in range(60):
        if case % 2:
            inst, values = tie_heavy_cascade_case(rng)
            values = np.abs(values)
            yield inst, values, [Uniform(0.0, 5.0)] * inst.n
            continue
        n, m = int(rng.integers(8, 25)), int(rng.integers(4, 9))
        inst = Instance(n=n, m=m, k=int(rng.integers(3, min(6, m) + 1)),
                        p=rng.uniform(0.01, 1.0, (n, m)), model=CASCADE)
        yield inst, rng.uniform(0.0, 10.0, n), [Uniform(0.0, 10.0)] * n


def test_myerson_over_curve_equals_probe_path():
    rng = np.random.default_rng(139)
    for case, (inst, values, dists) in enumerate(_auction_cases(rng)):
        curve_rng = np.random.default_rng(case)
        handle = greedy_cascade_solver(curve_rng)
        probe_rng = np.random.default_rng(case)
        probed = greedy_cascade_solver(probe_rng)
        probed = SolverHandle(solve=probed.solve, kind=probed.kind)
        fast = myerson(inst, values, dists, handle, grid_size=256)
        slow = myerson(inst, values, dists, probed, grid_size=256)
        assert (fast.augmented.allocation.assignment
                == slow.augmented.allocation.assignment)
        assert fast.augmented.permutation.rank == slow.augmented.permutation.rank
        assert np.array_equal(fast.ctrs, slow.ctrs)
        assert np.array_equal(fast.payments, slow.payments)
        assert curve_rng.bit_generator.state == probe_rng.bit_generator.state


def _brute_curve_test_bids(values, i):
    """Own bids for advertiser i: non-positive, a tiny positive one, every
    other advertiser's value and its float neighbours, where i's place in
    value order changes, and one above every value."""
    bids = {-1.0, 0.0, 1e-300, float(np.max(values)) + 1.0}
    for k in range(len(values)):
        if k != i:
            v = float(values[k])
            bids.update((v, np.nextafter(v, -np.inf), np.nextafter(v, np.inf)))
    return sorted(float(b) for b in bids)


def test_brute_curve_equals_probes():
    rng = np.random.default_rng(149)
    handle = brute_cascade_solver()
    cases = 0
    while cases < 300:
        inst, values = tie_heavy_cascade_case(rng)
        if inst.n * inst.m > 36:  # the oracle's size guard
            continue
        cases += 1
        for i in range(inst.n):
            ctr_at = handle.curve(inst, values, i)
            for b in _brute_curve_test_bids(values, i):
                bids = values.copy()
                bids[i] = b
                _chi, pi = handle.solve(inst, bids)
                assert ctr_at(b) == pi[i], (cases, i, b)


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_brute_curve_equals_probes_at_infinite_bids():
    rng = np.random.default_rng(163)
    handle = brute_cascade_solver()
    for case in range(100):
        inst, values = tie_heavy_cascade_case(rng)
        if inst.n * inst.m > 36:
            continue
        if case % 2:  # someone else bids inf
            values[rng.integers(inst.n)] = np.inf
        for i in range(inst.n):
            ctr_at = handle.curve(inst, values, i)
            for b in (1.0, np.inf):
                bids = values.copy()
                bids[i] = b
                _chi, pi = handle.solve(inst, bids)
                assert ctr_at(b) == pi[i], (case, i, b)


def test_brute_curve_rejects_a_nan_template():
    inst = Instance(n=3, m=1, k=1, p=np.ones((3, 1)), model=CASCADE)
    handle = brute_cascade_solver()
    with pytest.raises(ValidationError):
        handle.curve(inst, np.array([1.0, np.nan, 2.0]), 0)
    assert handle.curve(inst, np.array([1.0, 3.0, 2.0]), 0)(np.nan) == 0.0


def _float_bits(x: float) -> int:
    return int(np.float64(x).view(np.int64))


def _adjacent_steps(ctr_at, bids):
    """Pairs of adjacent floats between which the curve changes value, one
    per change between consecutive ``bids`` (all positive), found by
    bisection over the floats' bit patterns, which order positive floats."""
    for a, z in zip(bids, bids[1:]):
        below = ctr_at(a)
        if below == ctr_at(z):
            continue
        lo, hi = _float_bits(a), _float_bits(z)
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if ctr_at(float(np.int64(mid).view(np.float64))) == below:
                lo = mid
            else:
                hi = mid
        yield tuple(float(np.int64(t).view(np.float64)) for t in (lo, hi))


def test_brute_curve_steps_at_the_probes_last_bit():
    """Random rates and values make every welfare sum round, so a curve
    that rounded in another order than the solver would step one float
    early or late somewhere; probe both floats at every step."""
    rng = np.random.default_rng(157)
    handle = brute_cascade_solver()
    steps = 0
    for _ in range(200):
        n, m = int(rng.integers(2, 5)), int(rng.integers(1, 4))
        inst = Instance(n=n, m=m, k=int(rng.integers(1, m + 1)),
                        p=rng.uniform(0.01, 1.0, (n, m)), model=CASCADE)
        values = rng.uniform(0.0, 1.0, n)
        for i in range(n):
            ctr_at = handle.curve(inst, values, i)
            grid = {*np.geomspace(1e-3, 4.0, 24).tolist(),
                    *np.delete(values, i).tolist()}
            for pair in _adjacent_steps(ctr_at, sorted(grid)):
                for b in pair:
                    bids = values.copy()
                    bids[i] = b
                    _chi, pi = handle.solve(inst, bids)
                    assert ctr_at(b) == pi[i], (inst, values, i, b)
                    steps += 1
    assert steps > 1000


def _brute_auction_cases(rng):
    """cli_simulate-shaped 4x3 instances, then the textbook 2x1 slot of
    c10 with its uniform values."""
    for _ in range(40):
        inst = Instance(n=4, m=3, k=2, p=rng.uniform(0.01, 1.0, (4, 3)),
                        model=CASCADE)
        yield inst, rng.uniform(0.0, 1.0, 4), [Uniform(0.0, 1.0)] * 4
    for _ in range(200):
        yield textbook_slot(), rng.uniform(0.0, 1.0, 2), [Uniform(0.0, 1.0)] * 2


def test_myerson_over_brute_curve_equals_probe_path():
    rng = np.random.default_rng(151)
    handle = brute_cascade_solver()
    probed = SolverHandle(solve=handle.solve, kind=handle.kind)
    for inst, values, dists in _brute_auction_cases(rng):
        fast = myerson(inst, values, dists, handle)
        slow = myerson(inst, values, dists, probed)
        assert (fast.augmented.allocation.assignment
                == slow.augmented.allocation.assignment)
        assert fast.augmented.permutation.rank == slow.augmented.permutation.rank
        assert np.array_equal(fast.ctrs, slow.ctrs)
        assert np.array_equal(fast.payments, slow.payments)


def test_curves_only_on_the_greedy_and_brute_handles():
    greedy = greedy_cascade_solver(np.random.default_rng(0))
    brute = brute_cascade_solver()
    assert greedy.curve is not None and brute.curve is not None
    assert threshold_dropping_solver(greedy).curve is None
    assert threshold_dropping_solver(brute).curve is None
    assert exact_mnl_solver().curve is None


def test_curves_follow_bids_edited_in_place():
    inst = Instance(n=2, m=1, k=1, p=[[0.5], [0.5]], model=CASCADE)
    for handle in (greedy_cascade_solver(np.random.default_rng(0)),
                   brute_cascade_solver()):
        bids = np.array([1.0, 2.0])
        assert handle.curve(inst, bids, 0)(1.5) == 0.0
        bids[1] = 1.0
        assert handle.curve(inst, bids, 0)(1.5) == 0.5


def test_planted_bug_over_brute_is_probed():
    inst = Instance(n=2, m=1, k=1, p=[[0.5], [0.5]], model=CASCADE)
    brute = brute_cascade_solver()
    calls = []

    def counted(inst, bids):
        calls.append(1)
        return brute.solve(inst, bids)

    broken = threshold_dropping_solver(
        SolverHandle(solve=counted, kind=brute.kind, curve=brute.curve),
        threshold=0.5)
    values = np.array([0.9, 0.6])
    myerson(inst, values, [Uniform(0.0, 1.0)] * 2, broken)
    assert len(calls) > 1  # the outcome's solve, then one probe per bid
    hit = monotonicity_audit(
        broken, inst, np.array([0.2, 0.1]), 0, [0.3, 0.4, 0.6])
    assert hit == (0.4, 0.6, 0.5, 0.0)
    assert monotonicity_audit(
        brute, inst, np.array([0.2, 0.1]), 0, [0.3, 0.4, 0.6]) is None


def test_audit_catches_planted_bug():
    inst = Instance(n=2, m=1, k=1, p=[[0.5], [0.5]], model=MNL)
    broken = threshold_dropping_solver(exact_mnl_solver(), threshold=5.0)
    hit = monotonicity_audit(
        broken, inst, np.array([1.0, 0.5]), 0, np.linspace(1.0, 10.0, 10)
    )
    assert hit is not None
    b_lo, b_hi, pi_lo, pi_hi = hit
    assert pi_hi < pi_lo
    assert b_hi > 5.0
