import itertools

import numpy as np
import pytest

from slotauction.core import (
    Allocation,
    AugmentedAllocation,
    CASCADE,
    Instance,
    Permutation,
    SizeGuardError,
    ValidationError,
    cascade_ctr,
    welfare,
)
from slotauction.cascade_wdp import (
    Bucket,
    bucket_count,
    bucket_levels,
    bucketize,
    budgeted_ctr,
    combined_cascade_candidates,
    combined_cascade_solver,
    exact_budgeted_matching,
    greedy_bucket,
    optimal_permutation,
    ptas_restricted_welfare,
    restricted_ctr,
    sorted_view,
    zero_suppress,
)
from slotauction.oracle import (
    brute_force_restricted,
    brute_force_wdp_cascade,
    enumerate_matchings,
)
from slotauction.properties import (
    bucket_average,
    cascade_welfare,
    greedy_bucket_constants,
    restricted_search,
)
from conftest import (
    rand_allocation,
    rand_cascade_instance,
    tie_heavy_cascade_case,
)


# --------------------------------------------------------------- permutation


def test_optimal_permutation_sorts_by_value():
    perm = optimal_permutation(Allocation({0: 1, 1: 0}), [3.0, 5.0])
    assert perm.rank == {0: 1, 1: 2}


def test_optimal_permutation_tie_breaks_by_advertiser_index():
    perm = optimal_permutation(Allocation({0: 7, 1: 2}), [1.0, 1.0])
    assert perm.rank == {7: 1, 2: 2}


def test_permutation_and_greedy_need_a_value_per_advertiser():
    for alloc in (Allocation({2: 0}), Allocation({-1: 0})):
        with pytest.raises(ValidationError):
            optimal_permutation(alloc, [1.0, 2.0])
    for i in (2, -1):
        bucket = Bucket(index=1, edges=((0, 0, 0.5), (i, 1, 0.5)), cap=2)
        with pytest.raises(ValidationError):
            greedy_bucket(bucket, [1.0, 2.0])
    with pytest.raises(ValidationError):
        optimal_permutation(Allocation({0: 0}), 1.0)


def test_sorted_permutation_never_beaten_by_any_order():
    rng = np.random.default_rng(31)
    for _ in range(40):
        inst = rand_cascade_instance(rng, nmax=4, mmax=4)
        values = rng.uniform(0.0, 5.0, inst.n)
        alloc = rand_allocation(rng, inst)
        best = cascade_welfare(inst, alloc, values)
        for perm in itertools.permutations(alloc.assignment.values()):
            sigma = Permutation({j: r + 1 for r, j in enumerate(perm)})
            w = welfare(
                values, cascade_ctr(inst, AugmentedAllocation(alloc, sigma))
            )
            assert w <= best + 1e-12


# ---------------------------------------------------------- restricted rates


def test_restricted_truncates_second_ad():
    inst = Instance(n=2, m=2, k=2, p=np.full((2, 2), 0.8), model=CASCADE)
    pi = restricted_ctr(inst, Allocation({0: 0, 1: 1}), [1.0, 1.0])
    np.testing.assert_allclose(pi, [0.8, 0.2])


def test_restricted_single_ad_untouched():
    inst = Instance(n=1, m=1, k=1, p=[[0.73]], model=CASCADE)
    pi = restricted_ctr(inst, Allocation({0: 0}), [2.0])
    assert pi[0] == pytest.approx(0.73)


def test_restricted_prefix_sums_bounded():
    rng = np.random.default_rng(37)
    for _ in range(60):
        inst = rand_cascade_instance(rng)
        values = rng.uniform(0.0, 5.0, inst.n)
        alloc = rand_allocation(rng, inst)
        pi = restricted_ctr(inst, alloc, values)
        order = sorted_view(values)
        running = np.cumsum(pi[order])
        assert np.all(pi >= 0.0)
        assert np.all(running <= 1.0 + 1e-12)
        # the restricted-welfare search relies on at most one partial grant
        partial = [i for i, j in alloc.assignment.items()
                   if 0.0 < pi[i] < inst.p[i, j]]
        assert len(partial) <= 1


def test_budgeted_rates_are_raw_sums():
    inst = Instance(n=2, m=2, k=2, p=np.full((2, 2), 0.8), model=CASCADE)
    pi = budgeted_ctr(inst, Allocation({0: 0, 1: 1}))
    np.testing.assert_allclose(pi, [0.8, 0.8])
    assert pi.sum() == pytest.approx(1.6)
    assert budgeted_ctr(inst, Allocation({})).sum() == 0.0


def test_budgeted_equals_restricted_when_total_fits():
    rng = np.random.default_rng(41)
    found = 0
    while found < 25:
        inst = rand_cascade_instance(rng, nmax=4, mmax=4)
        values = rng.uniform(0.1, 5.0, inst.n)
        alloc = rand_allocation(rng, inst)
        pb = budgeted_ctr(inst, alloc)
        if pb.sum() > 1.0:
            continue
        found += 1
        np.testing.assert_allclose(pb, restricted_ctr(inst, alloc, values))


# -------------------------------------------------------------- zero suppress


def test_zero_suppress_drops_fully_truncated_tail():
    inst = Instance(n=3, m=3, k=3, p=np.diag([0.7, 0.3, 0.5]), model=CASCADE)
    alloc = Allocation({0: 0, 1: 1, 2: 2})
    out = zero_suppress(inst, alloc, [3.0, 2.0, 1.0])
    assert out.assignment == {0: 0, 1: 1}


def test_zero_suppress_noop_when_nothing_truncated():
    inst = Instance(n=2, m=2, k=2, p=np.full((2, 2), 0.3), model=CASCADE)
    alloc = Allocation({0: 0, 1: 1})
    assert zero_suppress(inst, alloc, [1.0, 2.0]).assignment == alloc.assignment


def test_zero_suppress_preserves_restricted_welfare():
    rng = np.random.default_rng(43)
    for _ in range(60):
        inst = rand_cascade_instance(rng)
        values = rng.uniform(0.0, 5.0, inst.n)
        alloc = rand_allocation(rng, inst)
        before = restricted_ctr(inst, alloc, values)
        out = zero_suppress(inst, alloc, values)
        after = restricted_ctr(inst, out, values)
        np.testing.assert_allclose(after, before, atol=1e-9)
        assert welfare(values, after) == pytest.approx(
            welfare(values, before), abs=1e-9
        )


# ----------------------------------------------------- exact budgeted search


def test_single_edge_is_taken():
    inst = Instance(n=1, m=1, k=1, p=[[0.9]], model=CASCADE)
    out = exact_budgeted_matching(inst, [1.0], inst.p)
    assert out.assignment == {0: 0}


def test_conflicting_edges_prefer_heavier():
    inst = Instance(n=2, m=1, k=1, p=[[0.9], [0.6]], model=CASCADE)
    out = exact_budgeted_matching(inst, [1.0, 1.0], inst.p)
    assert out.assignment == {0: 0}


def test_exact_budgeted_matches_enumeration():
    rng = np.random.default_rng(47)
    for _ in range(40):
        inst = rand_cascade_instance(rng, nmax=3, mmax=3)
        values = rng.uniform(0.1, 5.0, inst.n)
        got = exact_budgeted_matching(inst, values, inst.p)
        got_value = welfare(values, budgeted_ctr(inst, got))
        assert budgeted_ctr(inst, got).sum() <= 1.0 + 1e-9
        best = 0.0
        for alloc in enumerate_matchings(inst):
            pb = budgeted_ctr(inst, alloc)
            if pb.sum() <= 1.0 + 1e-9:
                best = max(best, welfare(values, pb))
        assert got_value == pytest.approx(best, abs=1e-9)


def test_exact_budgeted_size_guard():
    inst = Instance(n=5, m=6, k=6, p=np.full((5, 6), 0.5), model=CASCADE)
    with pytest.raises(SizeGuardError):
        exact_budgeted_matching(inst, np.ones(5), inst.p)


@pytest.mark.parametrize("length", [1, 2, 4])
def test_restricted_entry_points_check_the_value_count(length):
    inst = Instance(n=3, m=2, k=2, p=np.full((3, 2), 0.5), model=CASCADE)
    values = [5.0] * length
    with pytest.raises(ValidationError):
        restricted_ctr(inst, Allocation({1: 0}), values)
    with pytest.raises(ValidationError):
        ptas_restricted_welfare(inst, values, 0.25)
    with pytest.raises(ValidationError):
        exact_budgeted_matching(inst, values, inst.p)


# --------------------------------------------------- restricted-welfare PTAS


def test_ptas_exact_when_budget_slack():
    # total rate under the best matching stays below 1, so the undiscounted
    # guess already recovers the optimum
    inst = Instance(n=2, m=2, k=2, p=np.full((2, 2), 0.3), model=CASCADE)
    values = [3.0, 1.0]
    out = ptas_restricted_welfare(inst, values, eps=0.25)
    w = welfare(values, restricted_ctr(inst, out, values))
    _, opt = brute_force_restricted(inst, values)
    assert w == pytest.approx(opt, abs=1e-9)


def test_ptas_two_ads_hits_full_unit_mass():
    inst = Instance(n=2, m=2, k=2, p=np.full((2, 2), 0.8), model=CASCADE)
    out = ptas_restricted_welfare(inst, [1.0, 1.0], eps=0.1)
    w = welfare([1.0, 1.0], restricted_ctr(inst, out, [1.0, 1.0]))
    assert w == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("eps", [0.1, 0.25])
def test_ptas_ratio_on_random_instances(eps):
    rng = np.random.default_rng(53)
    for _ in range(25):
        inst = rand_cascade_instance(rng, nmax=3, mmax=3)
        values = rng.uniform(0.1, 5.0, inst.n)
        out = ptas_restricted_welfare(inst, values, eps)
        w = welfare(values, restricted_ctr(inst, out, values))
        _, opt = brute_force_restricted(inst, values)
        assert w >= (1.0 - eps) * opt - 1e-9
        _, opt_cascade = brute_force_wdp_cascade(inst, values)
        _ratio, violation = restricted_search(
            inst, values, out, eps, opt_cascade)
        assert violation is None, violation


def test_ptas_solves_the_unscaled_guess_once(monkeypatch):
    import slotauction.cascade_wdp as cascade_wdp

    inst = Instance(n=3, m=2, k=2, p=np.full((3, 2), 0.6), model=CASCADE)
    want = ptas_restricted_welfare(inst, [3.0, 2.0, 1.0], 0.25)
    calls = []

    def counted(inst, values, scaled_p, **kwargs):
        calls.append(scaled_p)
        return exact_budgeted_matching(inst, values, scaled_p, **kwargs)

    monkeypatch.setattr(cascade_wdp, "exact_budgeted_matching", counted)
    got = ptas_restricted_welfare(inst, [3.0, 2.0, 1.0], 0.25)
    assert got == want
    assert len(calls) == 3 * 8 - 2  # 8 alphas per advertiser, one is 1.0
    assert sum(np.array_equal(p, inst.p) for p in calls) == 1


def test_ptas_rejects_bad_eps():
    inst = Instance(n=1, m=1, k=1, p=[[0.3]], model=CASCADE)
    for eps in (0.0, 1.0, -0.2):
        with pytest.raises(ValidationError):
            ptas_restricted_welfare(inst, [1.0], eps)


def test_scaled_candidates_stay_below_restricted_welfare():
    # whenever a candidate respects the scaled budget, its scaled welfare
    # cannot exceed the true restricted welfare of the same matching
    rng = np.random.default_rng(59)
    eps = 0.25
    grid = [g * eps / 2 for g in range(1, int(2 / eps) + 1)]
    for _ in range(10):
        inst = rand_cascade_instance(rng, nmax=3, mmax=3)
        values = rng.uniform(0.1, 5.0, inst.n)
        for k in range(inst.n):
            for alpha in grid + [1.0]:
                scaled = np.array(inst.p)
                scaled[k] *= alpha
                cand = exact_budgeted_matching(inst, values, scaled)
                spent = sum(
                    scaled[i, j] for i, j in cand.assignment.items()
                )
                assert spent <= 1.0 + 1e-9
                scaled_welfare = sum(
                    values[i] * scaled[i, j]
                    for i, j in cand.assignment.items()
                )
                true_restricted = welfare(
                    values, restricted_ctr(inst, cand, values)
                )
                assert scaled_welfare <= true_restricted + 1e-9


# ------------------------------------------------------------------- buckets


def test_bucket_thresholds_for_two_positions():
    inst = Instance(
        n=3, m=2, k=2, p=[[0.9, 0.0], [0.3, 0.0], [0.2, 0.0]], model=CASCADE
    )
    buckets = bucketize(inst)
    assert bucket_count(2) == 3 and len(buckets) == 3
    assert [b.index for b in buckets] == [1, 2, 3]
    assert [e[2] for e in buckets[0].edges] == [0.9]
    assert [e[2] for e in buckets[1].edges] == [0.3]
    assert [e[2] for e in buckets[2].edges] == [0.2]


def test_certain_clicks_land_in_first_bucket():
    inst = Instance(n=2, m=2, k=2, p=np.ones((2, 2)), model=CASCADE)
    buckets = bucketize(inst)
    assert len(buckets[0].edges) == 4
    assert all(not b.edges for b in buckets[1:])


def test_buckets_partition_positive_edges():
    rng = np.random.default_rng(61)
    for _ in range(30):
        inst = rand_cascade_instance(rng)
        buckets = bucketize(inst)
        seen = [e[:2] for b in buckets for e in b.edges]
        assert len(seen) == len(set(seen))
        positives = {
            (i, j)
            for i in range(inst.n)
            for j in range(inst.m)
            if inst.p[i, j] > 0
        }
        assert set(seen) == positives
        for b in buckets:
            hi = 2.0 ** -(b.index - 1)
            for _i, _j, p in b.edges:
                assert p <= hi + 1e-15
                if b.index < len(buckets):
                    assert p > 2.0 ** -b.index


def _loop_level(p, count):
    """The per-edge level loop bucket_levels replaced, kept as reference."""
    if p <= 0.0:
        return 0
    level = 1
    while level < count and p <= 2.0 ** -level:
        level += 1
    return level


def test_bucket_levels_match_the_level_loop_at_every_boundary():
    for m in (1, 2, 3, 5, 8, 16, 100):
        count = bucket_count(m)
        probes = [0.0, 1.0, np.nextafter(1.0, 0.0)]
        for t in range(1, count + 3):
            x = 2.0 ** -t
            probes += [x, np.nextafter(x, 0.0), np.nextafter(x, 1.0)]
        p = np.zeros((len(probes), m))
        p[:, m - 1] = probes
        inst = Instance(n=len(probes), m=m, k=1, p=p, model=CASCADE)
        expected = [[_loop_level(x, count) for x in row] for row in p]
        assert bucket_levels(inst).tolist() == expected


def test_combined_candidates_equal_greedy_of_each_bucket():
    rng = np.random.default_rng(83)
    for _ in range(200):
        inst, values = tie_heavy_cascade_case(rng)
        expected = [greedy_bucket(b, values) for b in bucketize(inst)]
        assert combined_cascade_candidates(inst, values) == expected


def test_bucket_caps_respect_global_limit():
    inst = Instance(n=6, m=4, k=2, p=np.full((6, 4), 0.9), model=CASCADE)
    for b in bucketize(inst):
        assert b.cap == min(2 ** b.index, inst.m, inst.k)


# -------------------------------------------------------------------- greedy


def test_greedy_takes_heaviest_and_skips_conflicts():
    bucket = Bucket(index=1, edges=((0, 0, 0.9), (1, 0, 0.6)), cap=2)
    chi = greedy_bucket(bucket, [1.0, 1.0])
    assert chi.allocation.assignment == {0: 0}
    assert chi.permutation.rank == {0: 1}


def test_greedy_empty_bucket():
    chi = greedy_bucket(Bucket(index=2, edges=(), cap=4), [1.0])
    assert chi.allocation.assignment == {}


def test_greedy_cardinality_stop():
    bucket = Bucket(index=1, edges=((0, 0, 0.9), (1, 1, 0.8)), cap=1)
    chi = greedy_bucket(bucket, [1.0, 1.0])
    assert chi.allocation.assignment == {0: 0}


def test_greedy_sigma_follows_insertion_order():
    bucket = Bucket(index=1, edges=((0, 3, 0.6), (1, 1, 0.9)), cap=2)
    chi = greedy_bucket(bucket, [1.0, 1.0])
    assert chi.permutation.rank == {1: 1, 3: 2}


def test_combined_expectation_averages_buckets():
    inst = Instance(
        n=3, m=2, k=2, p=[[0.9, 0.0], [0.3, 0.0], [0.2, 0.0]], model=CASCADE
    )
    values = np.ones(3)
    cands = combined_cascade_candidates(inst, values)
    welfares = [welfare(values, cascade_ctr(inst, c)) for c in cands]
    np.testing.assert_allclose(welfares, [0.9, 0.3, 0.2])
    assert np.mean(welfares) == pytest.approx((0.9 + 0.3 + 0.2) / 3)


def test_combined_single_populated_bucket_is_certain():
    inst = Instance(n=1, m=2, k=1, p=[[0.9, 0.8]], model=CASCADE)
    rng = np.random.default_rng(0)
    for _ in range(10):
        chi = combined_cascade_solver(inst, [1.0], rng)
        assert chi.allocation.assignment == {0: 0}


def test_combined_no_edges_yields_empty():
    inst = Instance(n=1, m=1, k=1, p=[[0.0]], model=CASCADE)
    chi = combined_cascade_solver(inst, [1.0], np.random.default_rng(1))
    assert chi.allocation.assignment == {}


def test_bucket_average_clears_logarithmic_bound():
    rng = np.random.default_rng(67)
    for _ in range(25):
        inst = rand_cascade_instance(rng, nmax=4, mmax=6)
        values = rng.uniform(0.1, 5.0, inst.n)
        _, opt = brute_force_wdp_cascade(inst, values)
        _ratio, violation = bucket_average(inst, values, opt)
        assert violation is None, violation


def _check_greedy_bucket_constants(seed):
    rng = np.random.default_rng(seed)
    for _ in range(30):
        inst = rand_cascade_instance(rng, nmax=4, mmax=4)
        values = rng.uniform(0.1, 5.0, inst.n)
        for bucket in bucketize(inst):
            if bucket.edges:
                violation = greedy_bucket_constants(inst, values, bucket)
                assert violation is None, violation


def test_greedy_base_welfare_two_approximation():
    _check_greedy_bucket_constants(71)


def test_greedy_cascade_within_constant_of_its_base():
    _check_greedy_bucket_constants(73)


def test_greedy_per_bucket_ctr_monotone_in_own_value():
    rng = np.random.default_rng(79)
    for _ in range(15):
        inst = rand_cascade_instance(rng, nmax=4, mmax=4)
        values = rng.uniform(0.1, 5.0, inst.n)
        for i in range(inst.n):
            last = None
            for v in np.linspace(0.25, 10.0, 8):
                vv = values.copy()
                vv[i] = v
                cands = combined_cascade_candidates(inst, vv)
                pis = [cascade_ctr(inst, c)[i] for c in cands]
                if last is not None:
                    for prev, cur in zip(last, pis):
                        assert cur >= prev - 1e-9
                last = pis
