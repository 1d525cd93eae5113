import itertools
import json
import math

import numpy as np
import pytest

import slotauction.cascade_wdp as cascade_wdp
import slotauction.oracle as oracle
import slotauction.properties as properties

from slotauction.core import (
    Allocation,
    AugmentedAllocation,
    CASCADE,
    Instance,
    MNL,
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
    greedy_outcome,
    optimal_permutation,
    ptas_restricted_welfare,
    restricted_ctr,
    sorted_view,
    zero_suppress,
)
from slotauction.mechanisms import greedy_cascade_solver
from slotauction.oracle import (
    brute_force_restricted,
    brute_force_wdp_cascade,
    enumerate_matchings,
)
from slotauction.properties import (
    bucket_average,
    cascade_welfare,
    greedy_bucket_constants,
    random_instance,
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


def _sandwich_case(rng, case):
    """An instance up to 4x4 and its values; every third case has
    quarter-step rates and values from {0, 0.5, 1, 2}, so welfare ties, is
    zero, or survives no certain click."""
    if case % 3:
        inst = random_instance(rng, CASCADE, 4, 4)
        return inst, rng.uniform(0.1, 10.0, inst.n)
    n, m = int(rng.integers(1, 5)), int(rng.integers(1, 5))
    inst = Instance(n=n, m=m, k=int(rng.integers(1, m + 1)),
                    p=rng.integers(0, 5, (n, m)) / 4.0, model=CASCADE)
    return inst, rng.choice([0.0, 0.5, 1.0, 2.0], n)


def _scalar_sandwich(inst, values):
    """Per matching, in the oracle's order: (matching, cascade welfare,
    restricted welfare, ratio), one matching at a time."""
    out = []
    for alloc in enumerate_matchings(inst):
        w = cascade_welfare(inst, alloc, values)
        w_r = welfare(values, restricted_ctr(inst, alloc, values))
        out.append((alloc, w, w_r, w_r / w if w > 0 else 1.0))
    return out


def test_table_sandwich_equals_the_scalar_formula():
    rng = np.random.default_rng(151)
    rows = 0
    for case in range(450):
        inst, values = _sandwich_case(rng, case)
        ratios, violation = properties.sandwich(inst, values)
        assert violation is None
        assert ratios == [ratio for *_, ratio in
                          _scalar_sandwich(inst, values)], case
        rows += len(ratios)
    assert rows > 9_000


def test_table_sandwich_stops_at_the_first_violation(monkeypatch):
    # At factor 1.1 some matchings violate: the ratios run up to and
    # including the first of them, and its violation names it.
    factor, tol = 1.1, properties.TOL
    monkeypatch.setattr(properties, "SANDWICH_FACTOR", factor)
    rng = np.random.default_rng(157)
    cut = 0
    for case in range(150):
        inst, values = _sandwich_case(rng, case)
        scalar = _scalar_sandwich(inst, values)
        bad = [t for t, (_a, w, w_r, _r) in enumerate(scalar)
               if not w - tol <= w_r <= factor * w + tol]
        ratios, violation = properties.sandwich(inst, values)
        if not bad:
            assert violation is None and len(ratios) == len(scalar)
            continue
        first = bad[0]
        assert len(ratios) == first + 1
        assert ratios == [ratio for *_, ratio in scalar[:first + 1]]
        alloc, w, w_r, _ratio = scalar[first]
        found = json.loads(violation)
        assert found["allocation"] == [list(ij) for ij in alloc.pairs()]
        assert (found["welfare"], found["restricted_welfare"]) == (w, w_r)
        cut += first + 1 < len(scalar)
    assert cut > 20


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
        _assert_budgeted_optimum(inst, values)


def _assert_budgeted_optimum(inst, values):
    got = exact_budgeted_matching(inst, values, inst.p)
    assert budgeted_ctr(inst, got).sum() <= 1.0 + 1e-9
    best = 0.0
    for alloc in enumerate_matchings(inst):
        pb = budgeted_ctr(inst, alloc)
        if pb.sum() <= 1.0 + 1e-9:
            best = max(best, welfare(values, pb))
    assert welfare(values, budgeted_ctr(inst, got)) == pytest.approx(
        best, abs=1e-9)


def _no_table(*args):
    raise AssertionError("a matching table was built past the size guard")


def test_exact_budgeted_size_guard(monkeypatch):
    # The oracle's guard counts cells, however few edges weigh above 0,
    # and fires before any table is built.
    monkeypatch.setattr(oracle, "_matching_table", _no_table)
    dense = Instance(n=6, m=7, k=7, p=np.full((6, 7), 0.5), model=CASCADE)
    sparse_p = np.zeros((6, 7))
    sparse_p[0, :] = 0.5  # 7 positive edges
    sparse = Instance(n=6, m=7, k=7, p=sparse_p, model=CASCADE)
    for inst in (dense, sparse):
        with pytest.raises(SizeGuardError):
            exact_budgeted_matching(inst, np.ones(6), inst.p)
        with pytest.raises(SizeGuardError):
            ptas_restricted_welfare(inst, np.ones(6), 0.1)


def test_exact_budgeted_solves_five_by_six():
    rng = np.random.default_rng(61)
    for _ in range(3):
        inst = Instance(n=5, m=6, k=int(rng.integers(1, 7)),
                        p=rng.uniform(0.01, 0.6, (5, 6)), model=CASCADE)
        _assert_budgeted_optimum(inst, rng.uniform(0.1, 5.0, 5))


def _reference_budgeted(inst, values, scaled_p, budget=1.0, cap=None):
    """An independent branch-and-bound for ``exact_budgeted_matching``:
    advertisers by decreasing best edge weight, each first skipped, then
    given its positive-weight edges in position order, pruned by the sum of
    the remaining best weights; first better by more than 1e-15 wins."""
    values = np.asarray(values, dtype=float)
    cap = inst.k if cap is None else min(cap, inst.k)
    by_adv = {}
    for i in range(inst.n):
        for j in range(inst.m):
            if values[i] * scaled_p[i, j] > 0.0:
                by_adv.setdefault(i, []).append(j)
    best_w = {i: max(values[i] * scaled_p[i, j] for j in js)
              for i, js in by_adv.items()}
    advs = sorted(by_adv, key=lambda i: -best_w[i])
    suffix = [0.0] * (len(advs) + 1)
    for t in range(len(advs) - 1, -1, -1):
        suffix[t] = suffix[t + 1] + best_w[advs[t]]
    best = {"welfare": 0.0, "assignment": {}}

    def recurse(t, used, spent, gained, chosen):
        if gained > best["welfare"] + 1e-15:
            best["welfare"] = gained
            best["assignment"] = dict(chosen)
        if t == len(advs) or gained + suffix[t] <= best["welfare"] + 1e-15:
            return
        i = advs[t]
        recurse(t + 1, used, spent, gained, chosen)
        if len(chosen) >= cap:
            return
        for j in by_adv[i]:
            cost = scaled_p[i, j]
            if j in used or spent + cost > budget + 1e-9:
                continue
            used.add(j)
            chosen[i] = j
            recurse(t + 1, used, spent + cost, gained + values[i] * cost,
                    chosen)
            del chosen[i]
            used.remove(j)

    recurse(0, set(), 0.0, 0.0, {})
    return Allocation(best["assignment"])


def _reference_ptas(inst, values, eps):
    """``ptas_restricted_welfare``'s guess loop, one reference
    branch-and-bound per guess."""
    values = np.asarray(values, dtype=float)
    grid = [g * eps / 2.0 for g in range(1, int(2.0 / eps + 1e-12) + 1)]
    if not grid or grid[-1] < 1.0 - 1e-12:
        grid.append(1.0)
    best_alloc, best_welfare = Allocation({}), 0.0
    for k in range(inst.n):
        for alpha in grid:
            if alpha == 1.0 and k > 0:
                continue
            scaled = np.array(inst.p)
            scaled[k] *= alpha
            cand = _reference_budgeted(inst, values, scaled)
            w = welfare(values, restricted_ctr(inst, cand, values))
            if w > best_welfare + 1e-15:
                best_welfare, best_alloc = w, cand
    return best_alloc


def _budgeted_case(rng, tie_heavy):
    """An input both searches accept: at most 36 cells and at most 24
    positive-weight edges, with zero and negative values, zero rates, a cap
    that may lie below k and budgets other than 1."""
    while True:
        if tie_heavy:
            inst, values = tie_heavy_cascade_case(rng)
        else:
            inst = random_instance(rng, CASCADE, 4, 4)
            values = rng.uniform(0.1, 10.0, inst.n)
            values[rng.random(inst.n) < 0.2] = rng.choice([0.0, -1.0])
        scaled = inst.p * np.where(rng.random(inst.p.shape) < 0.2, 0.0,
                                   rng.choice([1.0, 0.5, 0.3], inst.p.shape))
        edges = int((values[:, None] * scaled > 0.0).sum())
        if inst.n * inst.m <= oracle.MAX_CELLS and edges <= 24:
            budget = float(rng.choice([1.0, 0.5, 1.7]))
            cap = int(rng.integers(1, inst.k + 2))
            return inst, values, scaled, budget, cap


def _gain(values, scaled, alloc):
    return math.fsum(values[i] * scaled[i, j]
                     for i, j in alloc.assignment.items())


@pytest.mark.parametrize("tie_heavy", [False, True])
def test_exact_budgeted_equals_the_reference_search(tie_heavy):
    """Audit-shaped inputs get the reference's allocation.  Tie-heavy ones
    too, except on ties, where the table search takes the first row in the
    oracle's table order and the reference its first in search order: the
    two picks are then both feasible and equal in gain to within the tie
    rule's 1e-15 plus the rounding of their sums."""
    rng = np.random.default_rng(67 + tie_heavy)
    ties = 0
    for _ in range(500):
        inst, values, scaled, budget, cap = _budgeted_case(rng, tie_heavy)
        want = _reference_budgeted(inst, values, scaled, budget, cap)
        got = exact_budgeted_matching(inst, values, scaled, budget, cap)
        if got == want:
            continue
        assert tie_heavy, (inst, values, scaled, budget, cap)
        ties += 1
        assert got.size <= cap
        assert sum(scaled[i, j] for i, j in got.assignment.items()) \
            <= budget + 1e-9
        assert all(values[i] * scaled[i, j] > 0.0
                   for i, j in got.assignment.items())
        g, w = _gain(values, scaled, got), _gain(values, scaled, want)
        assert abs(g - w) <= 1e-15 * (1.0 + abs(w)), (g, w)
    assert ties < 50


def _audit_ptas_inputs(seed):
    """The instances and values ``cli audit --seed`` hands to
    ``ptas_restricted_welfare``, by replaying its draws: 20 MNL instances
    with bids, then 20 cascade instances with values (the audit skips those
    with a zero cascade optimum, which never occur at these draws)."""
    rng = np.random.default_rng(seed)
    for _ in range(20):
        inst = random_instance(rng, MNL, 4, 4)
        rng.uniform(0.1, 10.0, inst.n)
    for _ in range(20):
        inst = random_instance(rng, CASCADE, 4, 4)
        yield inst, rng.uniform(0.1, 10.0, inst.n)


def test_ptas_equals_the_reference_on_audit_seeds():
    for seed in range(20):
        for inst, values in _audit_ptas_inputs(seed):
            assert (ptas_restricted_welfare(inst, values, 0.1)
                    == _reference_ptas(inst, values, 0.1)), seed


def test_audit_ptas_inputs_replay_the_audit(monkeypatch, capsys):
    from slotauction import cli

    seen = []

    def recorded(inst, values, eps):
        seen.append((inst.p, np.asarray(values)))
        return ptas(inst, values, eps)

    ptas = cascade_wdp.ptas_restricted_welfare
    monkeypatch.setattr(cascade_wdp, "ptas_restricted_welfare", recorded)
    assert cli.main(["audit", "--seed", "3"]) == 0
    replayed = list(_audit_ptas_inputs(3))
    assert len(seen) == len(replayed) == 20
    for (p, values), (inst, want) in zip(seen, replayed):
        assert np.array_equal(p, inst.p) and np.array_equal(values, want)


def test_first_best_rows_equals_first_best():
    """The array pick is what a sequential ``_first_best`` scan picks: on
    scores that climb in steps below the 1e-15 margin, so that the maximum
    is not the pick; on rows that never beat (-inf) or reach +inf; on
    continuous scores, exact ties and rows without a near-tie."""
    rng = np.random.default_rng(71)
    # 1 + 3 ulp does not beat 1.0 by 1e-15 and 1 + 6 ulp does, though it is
    # within 1e-15 of 1 + 3 ulp: a search kept to rows within 1e-15 of the
    # maximum would pick 1 + 3 ulp
    ulp = 2.0 ** -52
    chains = [[0.0, 1.0, 1.0 + 3 * ulp, 1.0 + 6 * ulp]]
    for _ in range(300):
        rows = int(rng.integers(1, 40))
        steps = rng.choice([0.0, 0.4e-15, 0.6e-15, 1.1e-15, 0.3], rows)
        scores = rng.choice([1.0, 2.0], rows) + np.cumsum(steps)
        scores[rng.random(rows) < 0.2] = -np.inf
        scores[rng.random(rows) < 0.1] = 0.0
        chains.append(scores.tolist())
    for _ in range(100):
        rows = int(rng.integers(1, 40))
        continuous = rng.uniform(-1.0, 3.0, rows)
        tied = rng.choice([-1.0, 0.0, 1e-15, 1.0, 2.0], rows)
        infinite = np.where(rng.random(rows) < 0.3,
                            rng.choice([np.inf, -np.inf], rows), continuous)
        # distinct and 0.1 apart: the first maximum is the pick
        spaced = rng.permutation(rows) * 0.1 - 0.5
        chains += [continuous.tolist(), tied.tolist(), infinite.tolist(),
                   spaced.tolist()]
    for length in {len(c) for c in chains}:
        block = np.array([c for c in chains if len(c) == length])
        got = oracle._first_best_rows(block)
        for row, pick in zip(block, got):
            want, _ = oracle._first_best(zip(row.tolist(), itertools.count()))
            assert pick == want, row.tolist()
    assert oracle._first_best_rows(np.array(chains[:1])).tolist() == [3]
    assert oracle._first_best_rows(np.ones((3, 1))).tolist() == [0, 0, 0]
    assert oracle._first_best_rows(np.ones((0, 4))).shape == (0,)


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
    inst = Instance(n=3, m=2, k=2, p=np.full((3, 2), 0.6), model=CASCADE)
    want = ptas_restricted_welfare(inst, [3.0, 2.0, 1.0], 0.25)
    stacks = []
    scored = cascade_wdp._budgeted_scores

    def recorded(table, values, rates, budget, cap):
        stacks.append(rates.copy())
        return scored(table, values, rates, budget, cap)

    monkeypatch.setattr(cascade_wdp, "_budgeted_scores", recorded)
    got = ptas_restricted_welfare(inst, [3.0, 2.0, 1.0], 0.25)
    assert got == want
    guesses = np.concatenate(stacks)
    assert len(guesses) == 3 * 8 - 2  # 8 alphas per advertiser, one is 1.0
    table = oracle._matching_table(3, 2, 2)
    unscaled = table.rates(inst.p)
    assert sum(np.array_equal(g, unscaled) for g in guesses) == 1


@pytest.mark.parametrize("n,m", [(5, 5), (6, 5), (6, 6)])
def test_ptas_runs_up_to_six_by_six(n, m):
    rng = np.random.default_rng(73 + n * m)
    inst = Instance(n=n, m=m, k=int(rng.integers(1, m + 1)),
                    p=rng.uniform(0.01, 1.0, (n, m)), model=CASCADE)
    values = rng.uniform(0.1, 10.0, n)
    out = ptas_restricted_welfare(inst, values, 0.1)
    _, opt = brute_force_restricted(inst, values)
    assert welfare(values, restricted_ctr(inst, out, values)) \
        >= 0.9 * opt - 1e-9


def test_ptas_guard_refuses_a_tiny_eps_before_any_guess(monkeypatch):
    """About n * 2 / eps guesses, each scored on every table row: 6x6 at
    k = 6 is admitted at eps = 0.01 and refused at 1e-3, 1e-9 and 5e-324
    (where 2 / eps overflows), before any guess is scored; a 1x1 table is
    refused at 5e-324 too."""
    rng = np.random.default_rng(79)
    inst = Instance(n=6, m=6, k=6, p=rng.uniform(0.01, 1.0, (6, 6)),
                    model=CASCADE)
    values = rng.uniform(0.1, 10.0, 6)
    scored = []

    def flat_scores(table, values, rates, budget, cap):
        scored.append(len(rates))
        return np.zeros(rates.shape[:2])

    monkeypatch.setattr(cascade_wdp, "_budgeted_scores", flat_scores)
    assert ptas_restricted_welfare(inst, values, 0.01) == Allocation({})
    assert sum(scored) == 6 * 200 - 5
    del scored[:]
    tiny = Instance(n=1, m=1, k=1, p=[[0.5]], model=CASCADE)
    for case, eps in ((inst, 1e-3), (inst, 1e-9), (inst, 5e-324),
                      (tiny, 5e-324)):
        with pytest.raises(SizeGuardError, match="restricted-search guard"):
            ptas_restricted_welfare(case, values[:case.n], eps)
    assert scored == []


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


def _scan_without_bid_rule(inst, values):
    """The greedy's scan with no bid rule, edge by edge: per populated
    bucket level, ascending, edges by weight v_i * p descending, ties by
    (advertiser, position), each taken while both its ends are free, until
    the level's cap."""
    levels = bucket_levels(inst)
    picks = {}
    for level in range(1, bucket_count(inst.m) + 1):
        ii, jj = np.nonzero(levels == level)
        if not len(ii):
            continue
        cap = min(2 ** level, inst.m, inst.k)
        taken, used_i, used_j = [], set(), set()
        for _w, i, j in sorted(zip((-(values[ii] * inst.p[ii, jj])).tolist(),
                                   ii.tolist(), jj.tolist())):
            if len(taken) < cap and i not in used_i and j not in used_j:
                taken.append((i, j))
                used_i.add(i)
                used_j.add(j)
        picks[level] = taken
    return picks


def _cut_trailing_non_positive(picks, values):
    """Each level's picks with its trailing picks valued at most 0 cut, and
    levels left empty dropped.  Weight sorts descending, so those picks
    come last: none is left in the middle."""
    cut = {}
    for level, taken in picks.items():
        taken = list(taken)
        while taken and values[taken[-1][0]] <= 0.0:
            taken.pop()
        assert all(values[i] > 0.0 for i, _j in taken)
        if taken:
            cut[level] = taken
    return cut


def test_every_greedy_caller_applies_the_bid_rule():
    """On the tie-heavy pool, every greedy caller's picks are the scan
    without a bid rule, less each bucket's trailing non-positive picks; the
    sampled outcome draws among the buckets left populated."""
    rng = np.random.default_rng(191)
    changed = 0
    for case in range(600):
        inst, values = tie_heavy_cascade_case(rng)
        before = _scan_without_bid_rule(inst, values)
        want = _cut_trailing_non_positive(before, values)
        changed += want != before
        assert cascade_wdp.greedy_picks(inst, values) == want
        assert combined_cascade_candidates(inst, values) == [
            AugmentedAllocation.from_pairs(want.get(level, []))
            for level in range(1, bucket_count(inst.m) + 1)]
        for bucket in bucketize(inst):
            assert greedy_bucket(bucket, values) == \
                AugmentedAllocation.from_pairs(want.get(bucket.index, []))
        draw = np.random.default_rng(case)
        populated = [AugmentedAllocation.from_pairs(pairs)
                     for pairs in want.values()]
        chi = (populated[int(draw.integers(len(populated)))] if populated
               else AugmentedAllocation.from_pairs([]))
        rates = [cascade_ctr(inst, c) for c in populated] or [np.zeros(inst.n)]
        mixture = sum(rates[1:], rates[0]) / len(rates)
        for solve in (
            lambda r: (combined_cascade_solver(inst, values, r), mixture),
            lambda r: greedy_outcome(inst, values, r),
            lambda r: greedy_cascade_solver(r).solve(inst, values),
        ):
            got_rng = np.random.default_rng(case)
            got, ctrs = solve(got_rng)
            assert got == chi and np.array_equal(ctrs, mixture), case
            assert (got_rng.bit_generator.state
                    == draw.bit_generator.state), case
    assert changed > 150


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
