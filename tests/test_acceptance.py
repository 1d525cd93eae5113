"""Acceptance suite: one test per release criterion, one printed line each.

Run with `pytest tests/test_acceptance.py -v -s` to watch the lines stream;
the whole suite is seeded and deterministic.
"""

import functools
import itertools

import numpy as np

from slotauction.core import (
    AugmentedAllocation,
    CASCADE,
    Instance,
    Permutation,
    cascade_ctr,
    welfare,
)
from slotauction.cascade_wdp import (
    bucketize,
    combined_cascade_candidates,
    greedy_bucket,
    optimal_permutation,
    ptas_restricted_welfare,
    restricted_ctr,
    sorted_view,
)
from slotauction.distributions import Uniform, sample
from slotauction.linfrac import build_charnes_cooper, recover_allocation, solve_lp
from slotauction.mechanisms import (
    brute_cascade_solver,
    exact_mnl_solver,
    myerson,
    myerson_rows,
)
from slotauction.mnl_wdp import dinkelbach_check, solve_mnl_wdp
from slotauction.oracle import (
    brute_force_restricted,
    brute_force_wdp_cascade,
    brute_force_wdp_mnl,
    enumerate_matchings,
)
from slotauction.properties import (
    bucket_average,
    cascade_welfare,
    greedy_bucket_constants,
    monotonicity,
    restricted_search,
    sandwich,
)
from slotauction.cli import main as cli_main
from conftest import rand_allocation, rand_bids, rand_cascade_instance, rand_mnl_instance


def criterion(number: int, label: str):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"FAIL {number:02d} {label}")
                raise
            print(f"PASS {number:02d} {label}")

        return wrapper

    return decorate


@criterion(1, "lp integrality and agreement with the exhaustive solver")
def test_c01_lp_integrality_and_exactness():
    rng = np.random.default_rng(1001)
    for _ in range(200):
        inst = rand_mnl_instance(rng, nmax=6, mmax=6)
        bids = rand_bids(rng, inst.n, top=10.0)
        sol = solve_lp(build_charnes_cooper(inst, bids))
        assert sol.z > 1e-6
        fractional = sol.y / sol.z
        rounded = np.round(fractional)
        assert np.all(np.abs(fractional - rounded) <= 1e-6)
        assert np.all((rounded == 0.0) | (rounded == 1.0))
        alloc = recover_allocation(sol)
        assert alloc.size <= inst.k
        brute = brute_force_wdp_mnl(inst, bids)
        assert abs(sol.objective - brute.objective) <= 1e-6
        lp_result = solve_mnl_wdp(inst, bids)
        dk_result = dinkelbach_check(inst, bids)
        assert abs(lp_result.objective - brute.objective) <= 1e-6
        assert abs(lp_result.objective - dk_result.objective) <= 1e-6


@criterion(2, "exact-solver click-through monotone in own bid")
def test_c02_exact_solver_monotonicity():
    solver = exact_mnl_solver()
    # (seed, instances, largest n and m, own-bid grid)
    sweeps = [(1002, 100, 6, np.linspace(0.1, 10.0, 16)),
              (17, 15, 4, np.linspace(0.25, 10.0, 8)),
              (127, 1, 4, np.linspace(0.25, 10.0, 10))]
    for seed, count, size, grid in sweeps:
        rng = np.random.default_rng(seed)
        for _ in range(count):
            inst = rand_mnl_instance(rng, nmax=size, mmax=size)
            bids = rand_bids(rng, inst.n, top=10.0)
            violations = monotonicity(solver, inst, bids, grid)
            assert violations == [], violations


@criterion(3, "value-sorted rendering order is never beaten")
def test_c03_optimal_permutation():
    rng = np.random.default_rng(1003)
    for _ in range(100):
        inst = rand_cascade_instance(rng, nmax=4, mmax=5)
        values = rng.uniform(0.0, 10.0, inst.n)
        for alloc in enumerate_matchings(inst):
            sorted_w = cascade_welfare(inst, alloc, values)
            positions = list(alloc.assignment.values())
            for perm in itertools.permutations(positions):
                sigma = Permutation({j: r + 1 for r, j in enumerate(perm)})
                w = welfare(
                    values,
                    cascade_ctr(inst, AugmentedAllocation(alloc, sigma)),
                )
                assert w <= sorted_w + 1e-12


@criterion(4, "restricted welfare sandwiches cascade welfare within 4x")
def test_c04_restricted_welfare_sandwich():
    rng = np.random.default_rng(1004)
    for _ in range(500):
        inst = rand_cascade_instance(rng, nmax=5, mmax=5)
        values = rng.uniform(0.0, 10.0, inst.n)
        alloc = rand_allocation(rng, inst)
        _ratios, violation = sandwich(inst, values)  # every matching
        assert violation is None, violation
        chi = AugmentedAllocation(alloc, optimal_permutation(alloc, values))
        pi = cascade_ctr(inst, chi)
        pi_r = restricted_ctr(inst, alloc, values)
        order = sorted_view(values)
        cascade_prefix = np.cumsum(pi[order])
        restricted_prefix = np.cumsum(pi_r[order])
        assert np.all(cascade_prefix <= restricted_prefix + 1e-12)
        assert np.all(restricted_prefix <= 1.0 + 1e-12)


@criterion(5, "restricted-welfare search within (1 - eps) of optimal")
def test_c05_ptas_guarantee():
    rng = np.random.default_rng(1005)
    for _ in range(100):
        inst = rand_cascade_instance(rng, nmax=4, mmax=4)
        values = rng.uniform(0.1, 10.0, inst.n)
        _opt_alloc, opt_restricted = brute_force_restricted(inst, values)
        _chi, opt_cascade = brute_force_wdp_cascade(inst, values)
        for eps in (0.1, 0.25):
            out = ptas_restricted_welfare(inst, values, eps)
            w_r = welfare(values, restricted_ctr(inst, out, values))
            assert w_r >= (1.0 - eps) * opt_restricted - 1e-9
            _ratio, violation = restricted_search(
                inst, values, out, eps, opt_cascade)
            assert violation is None, violation


@criterion(6, "per-bucket greedy holds its constant factors")
def test_c06_greedy_bucket_constants():
    rng = np.random.default_rng(1006)
    for _ in range(100):
        n = int(rng.integers(1, 5))
        m = int(rng.integers(1, 5))
        k = int(rng.integers(1, m + 1))
        level = int(rng.integers(1, 4))
        lo, hi = 2.0 ** -level, 2.0 ** -(level - 1)
        p = rng.uniform(lo + 1e-9, hi, size=(n, m))
        inst = Instance(n=n, m=m, k=k, p=p, model=CASCADE)
        values = rng.uniform(0.1, 10.0, n)

        populated = [b for b in bucketize(inst) if b.edges]
        assert len(populated) == 1
        violation = greedy_bucket_constants(inst, values, populated[0])
        assert violation is None, violation
        # and therefore a 1/28 share of the bucket's cascade optimum
        chi = greedy_bucket(populated[0], values)
        greedy_cascade = welfare(values, cascade_ctr(inst, chi))
        _chi_opt, opt_cascade = brute_force_wdp_cascade(inst, values)
        assert greedy_cascade >= opt_cascade / 28.0 - 1e-9


@criterion(7, "uniform-bucket average clears the logarithmic bound")
def test_c07_random_bucket_expectation():
    rng = np.random.default_rng(1007)
    for _ in range(100):
        inst = rand_cascade_instance(rng, nmax=4, mmax=8)
        values = rng.uniform(0.1, 10.0, inst.n)
        _chi, opt = brute_force_wdp_cascade(inst, values)
        _ratio, violation = bucket_average(inst, values, opt)
        assert violation is None, violation


@criterion(8, "greedy click-through monotone per bucket and in mixture")
def test_c08_greedy_monotonicity():
    rng = np.random.default_rng(1008)
    violations = 0
    for _ in range(100):
        inst = rand_cascade_instance(rng, nmax=4, mmax=4)
        values = rng.uniform(0.1, 10.0, inst.n)
        n_buckets = len(bucketize(inst))
        for i in range(inst.n):
            last_each = [-np.inf] * n_buckets
            last_mix = -np.inf
            for v in np.linspace(0.1, 10.0, 16):
                swept = values.copy()
                swept[i] = v
                pis = [
                    cascade_ctr(inst, c)[i]
                    for c in combined_cascade_candidates(inst, swept)
                ]
                for b, pi in enumerate(pis):
                    if pi < last_each[b] - 1e-9:
                        violations += 1
                    last_each[b] = max(last_each[b], pi)
                mix = float(np.mean(pis))
                if mix < last_mix - 1e-9:
                    violations += 1
                last_mix = max(last_mix, mix)
    assert violations == 0


@criterion(9, "vcg payments are truthful, non-negative, rational")
def test_c09_vcg_truthfulness():
    rng = np.random.default_rng(1009)
    for _ in range(50):
        inst = rand_mnl_instance(rng, nmax=5, mmax=5)
        values = rand_bids(rng, inst.n, top=10.0)
        truthful = solve_mnl_wdp(inst, values)
        for i in range(inst.n):
            without = values.copy()
            without[i] = 0.0
            pi_wo = solve_mnl_wdp(inst, without).ctrs
            others = np.arange(inst.n) != i
            others_best = float(values[others] @ pi_wo[others])
            payment = others_best - float(
                values[others] @ truthful.ctrs[others]
            )
            assert payment >= -1e-9
            truthful_utility = values[i] * truthful.ctrs[i] - payment
            assert truthful_utility >= -1e-9
            for lie in np.linspace(0.5, 10.0, 20):
                swept = values.copy()
                swept[i] = lie
                lied = solve_mnl_wdp(inst, swept)
                lie_payment = others_best - float(
                    values[others] @ lied.ctrs[others]
                )
                lie_utility = values[i] * lied.ctrs[i] - lie_payment
                assert lie_utility <= truthful_utility + 1e-9


def _textbook_revenue_by_quadrature(points: int = 2000) -> float:
    """Independent oracle for the two-bidder unit-slot revenue: integrate
    max(reserve, runner-up) over the winning region on a midpoint grid."""
    grid = (np.arange(points) + 0.5) / points
    v1, v2 = np.meshgrid(grid, grid, indexing="ij")
    winner = np.maximum(v1, v2)
    runner = np.minimum(v1, v2)
    revenue = np.where(winner > 0.5, np.maximum(0.5, runner), 0.0)
    return float(revenue.mean())


@criterion(10, "revenue mechanism reproduces the textbook two-bidder case")
def test_c10_myerson_textbook():
    inst = Instance(n=2, m=1, k=1, p=np.ones((2, 1)), model=CASCADE)
    dists = [Uniform(0.0, 1.0), Uniform(0.0, 1.0)]
    solver = brute_cascade_solver()
    grid_size = 1024

    closed_form = 5.0 / 12.0
    assert abs(_textbook_revenue_by_quadrature() - closed_form) < 1e-4

    rng = np.random.default_rng(1010)
    samples, block = 100_000, 10_000
    total_revenue = 0.0
    for _ in range(samples // block):
        profiles = [np.array([sample(dists[0], rng), sample(dists[1], rng)])
                    for _ in range(block)]
        outs = myerson_rows(inst, profiles, dists, solver, grid_size=grid_size)
        for values, out in zip(profiles, outs):
            top = int(np.argmax(values))
            if values[top] > 0.5:
                assert out.ctrs[top] == 1.0 and out.ctrs[1 - top] == 0.0
                expected_payment = max(0.5, float(values[1 - top]))
                assert abs(out.payments[top] - expected_payment) \
                    <= 1.0 / grid_size + 1e-12
                total_revenue += float(out.payments.sum())
            else:
                assert np.all(out.ctrs == 0.0)
                assert np.all(out.payments == 0.0)
    mc_revenue = total_revenue / samples
    assert abs(mc_revenue - closed_form) <= 0.01

    # the truth-telling slack halves (within 20%) as the grid doubles
    gain_by_grid = {}
    for gsize in (512, 1024):
        rng = np.random.default_rng(1042)
        gains = []
        for _ in range(12):
            values = rng.uniform(0.05, 1.0, 2)
            truthful = myerson(inst, values, dists, solver, grid_size=gsize)
            base = values * truthful.ctrs - truthful.payments
            for i in range(2):
                best = 0.0
                lies = np.tile(values, (48, 1))
                lies[:, i] = np.linspace(0.05, 1.0, 48)
                for out in myerson_rows(inst, lies, dists, solver,
                                        grid_size=gsize):
                    utility = values[i] * out.ctrs[i] - out.payments[i]
                    best = max(best, utility - base[i])
                assert best <= 1.0 / gsize + 1e-9
                gains.append(best)
        gain_by_grid[gsize] = float(np.mean(gains))
    assert gain_by_grid[1024] > 0.0
    ratio = gain_by_grid[512] / gain_by_grid[1024]
    assert 1.6 <= ratio <= 2.4


@criterion(11, "simulation reruns are byte-identical")
def test_c11_simulation_determinism(tmp_path):
    import json

    inst_path = tmp_path / "inst.json"
    inst_path.write_text(json.dumps(
        {"n": 2, "m": 1, "k": 1, "model": "cascade", "p": [[1.0], [1.0]]}
    ))
    dist_path = tmp_path / "dist.json"
    dist_path.write_text(json.dumps({"family": "uniform", "a": 0, "b": 1}))
    outputs = []
    for run in range(2):
        out = tmp_path / f"run{run}.csv"
        code = cli_main([
            "simulate", "--instance", str(inst_path), "--dist",
            str(dist_path), "--samples", "100", "--seed", "3", "--grid",
            "512", "--mechanism", "both", "--out", str(out),
        ])
        assert code == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
    assert len(outputs[0]) > 0
