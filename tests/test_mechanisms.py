import json
from collections import Counter

import numpy as np
import pytest

from slotauction import mechanisms
from slotauction.cascade_wdp import bucket_count
from slotauction.core import (
    AugmentedAllocation,
    CASCADE,
    Instance,
    MNL,
    Permutation,
    SizeGuardError,
    ValidationError,
    cascade_ctr,
)
from slotauction.distributions import (
    CustomDistribution,
    Exponential,
    TruncatedNormal,
    Uniform,
)
from slotauction.mechanisms import (
    MAX_GRID_SIZE,
    IrregularDistributionError,
    NonMonotoneSolverError,
    SolverHandle,
    audit_drops,
    brute_cascade_solver,
    exact_mnl_solver,
    greedy_cascade_solver,
    monotone_grid_sum,
    monotonicity_audit,
    myerson,
    threshold_dropping_solver,
    vcg,
)
from slotauction.mnl_wdp import solve_mnl_wdp
from slotauction.oracle import brute_force_wdp_cascade
from slotauction.properties import monotonicity
from conftest import (
    rand_bids,
    rand_cascade_instance,
    rand_mnl_instance,
    tie_heavy_cascade_case,
)
from test_distributions import bimodal_fixture
from test_mnl_wdp import _tie_heavy_stack


def textbook_slot(n=2):
    """n bidders, one certain-click slot, cascade model."""
    return Instance(n=n, m=1, k=1, p=np.ones((n, 1)), model=CASCADE)


def _standalone_solve(inst, bids):
    """What an exact handle's ``solve`` returns, by one-row routes its
    ``solve_rows`` does not share: ``brute_force_wdp_cascade`` and
    ``cascade_ctr`` on a cascade instance, ``solve_mnl_wdp`` rendered in
    advertiser order on an MNL one."""
    if inst.model == CASCADE:
        chi, _w = brute_force_wdp_cascade(inst, bids)
        return chi, cascade_ctr(inst, chi)
    result = solve_mnl_wdp(inst, bids)
    sigma = Permutation(
        {j: r + 1 for r, (_i, j) in enumerate(result.allocation.pairs())})
    return AugmentedAllocation(result.allocation, sigma), result.ctrs


def _standalone(handle):
    """An exact ``handle``'s kind over ``_standalone_solve`` alone, so that
    it is read one standalone solve per row."""
    return SolverHandle(solve=_standalone_solve, kind=handle.kind)


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


def _clip_dust(payment, tol=1e-9):
    """One payment as the mechanisms clip it: sub-tolerance negative
    leave-one-out dust becomes 0.0, anything else stays."""
    return 0.0 if -tol < payment < 0.0 else payment


def _vcg_loop(inst, values, solver):
    """Reference VCG: one ``solve`` for the outcome and one more per
    advertiser not both valued 0 and unallocated; (chi, ctrs, payments).
    Over ``_standalone`` handles it shares no code with the handles'
    ``solve_rows``."""
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
    return chi, pi, payments


def test_vcg_rows_equal_the_per_advertiser_loop():
    """``vcg_rows`` over 1-3 profiles per instance, read through each
    handle's ``solve_rows`` and through one ``solve`` per row, equals the
    reference loop: allocation, rendering, CTRs, payments and utilities.
    Half the instances are tie-heavy cascade ones under the brute handle,
    half MNL under the exact handle; values repeat or are 0."""
    rng = np.random.default_rng(2027)
    brute, exact = brute_cascade_solver(), exact_mnl_solver()
    instances = 0
    while instances < 2000:
        if instances % 2:
            inst, solver = rand_mnl_instance(rng, nmax=4, mmax=3), exact
        else:
            inst, _values = tie_heavy_cascade_case(rng)
            solver = brute
            if inst.n * inst.m > 16:
                continue
        instances += 1
        profiles = [np.where(rng.random(inst.n) < 0.5,
                             rng.choice([0.0, 0.5, 1.0, 2.0], inst.n),
                             rng.uniform(0.0, 5.0, inst.n))
                    for _ in range(int(rng.integers(1, 4)))]
        want = [_vcg_loop(inst, values, _standalone(solver))
                for values in profiles]
        per_row = SolverHandle(solve=solver.solve, kind=solver.kind)
        for handle in (solver, per_row):
            got = mechanisms.vcg_rows(inst, profiles, handle)
            assert len(got) == len(profiles)
            for values, outcome, (chi, pi, payments) in zip(
                    profiles, got, want):
                assert outcome.augmented == chi
                assert np.array_equal(outcome.ctrs, pi)
                assert np.array_equal(outcome.payments, payments)
                assert np.array_equal(outcome.utilities,
                                      values * pi - payments)
    assert mechanisms.vcg_rows(inst, [], solver) == []


def _clarke_case(rng, case):
    """One seeded ``vcg_rows`` call on an exact handle: MNL at 100x40,
    50x25 (one profile each) and 20x10 (two profiles) first, then MNL on
    even cases and brute cascade on odd ones, n from 1 to 12, 1-5
    profiles; tie-heavy (p and values on quarter steps) when case % 4 >= 2,
    else a fifth of the values 0."""
    big = [(100, 40, 1), (50, 25, 1)] + [(20, 10, 2)] * 4
    if case < len(big):
        (n, m, rows), model = big[case], MNL
    else:
        model = (MNL, CASCADE)[case % 2]
        n = int(rng.integers(1, 13))
        m = int(rng.integers(1, min(5, 36 // n) + 1))
        rows = int(rng.integers(1, 6))
    k = m if case < len(big) else int(rng.integers(1, m + 1))
    if case % 4 >= 2:
        p = rng.choice([0.25, 0.5] + [0.0, 0.75, 1.0] * (model == CASCADE),
                       (n, m))
        profiles = rng.choice([0.0, 0.25, 0.5, 0.75, 1.0, 1.0], (rows, n))
    else:
        p = rng.uniform(0.01, 1.0 if model == CASCADE else 0.5, (n, m))
        profiles = np.where(rng.random((rows, n)) < 0.2, 0.0,
                            rng.uniform(0.0, 2.0, (rows, n)))
    handle = exact_mnl_solver() if model == MNL else brute_cascade_solver()
    return Instance(n=n, m=m, k=k, p=p, model=model), profiles, handle


def test_clarke_pivot_prices_as_every_valued_row():
    """``vcg_rows`` solves a leave-one-out row only for advertisers with a
    CTR (the Clarke pivot).  Its payments, CTRs and utilities are byte for
    byte those of the rule before it, which re-solved every advertiser
    valued or allocated, ``(values != 0) | (ctrs != 0)``, with the payment
    loop of ``test_array_payments_equal_the_per_payer_loops``: over 3,000+
    seeded profiles on both exact handles (``_clarke_case``).  So every
    unallocated advertiser that rule re-solved paid exactly 0 there."""
    rng = np.random.default_rng(2707)
    profiles = skipped = 0
    for case in range(1100):
        inst, values, handle = _clarke_case(rng, case)
        got = mechanisms.vcg_rows(inst, values, handle)
        ctrs = mechanisms._solve_rows(handle, inst, values)[0]
        s_of, i_of = np.nonzero((values != 0.0) | (ctrs != 0.0))
        rows = values[s_of]
        rows[np.arange(s_of.size), i_of] = 0.0
        want = np.zeros(values.shape)
        for s, i, pi_wo in zip(s_of, i_of,
                               mechanisms._solve_rows(handle, inst, rows)[0]):
            v, pi, others = values[s], ctrs[s], np.arange(inst.n) != i
            want[s, i] = _clip_dust(
                float(v[others] @ pi_wo[others] - v[others] @ pi[others]))
        for v, pi, paid, outcome in zip(values, ctrs, want, got, strict=True):
            assert outcome.ctrs.tobytes() == pi.tobytes(), case
            assert outcome.payments.tobytes() == paid.tobytes(), case
            assert outcome.utilities.tobytes() == (v * pi - paid).tobytes()
        profiles += len(values)
        skipped += np.count_nonzero(ctrs[s_of, i_of] == 0.0)
    assert profiles >= 3000 and skipped > 10_000


def _payment_case(rng, case):
    """One seeded call's input on an exact handle: MNL on even cases, brute
    cascade on odd ones, n from 1 to 12 (1 in every fifth pair of cases),
    at most 36 cells; tie-heavy (dyadic rates, repeated values and zeros)
    when case % 4 >= 2; 1-3 profiles, a mix of dists, grid 1 to 1024."""
    model = (MNL, CASCADE)[case % 2]
    n = 1 if case % 10 < 2 else int(rng.integers(1, 13))
    m = int(rng.integers(1, min(5, 36 // n) + 1))
    k = int(rng.integers(1, m + 1))
    rows = int(rng.integers(1, 4))
    if case % 4 >= 2:
        p = rng.choice([0.125, 0.25, 0.5] + [0.0, 1.0] * (model == CASCADE),
                       (n, m))
        profiles = rng.choice([0.0, 0.5, 1.0, 1.0, 2.0], (rows, n))
    else:
        p = rng.uniform(0.01, 1.0 if model == CASCADE else 0.5, (n, m))
        profiles = rng.uniform(0.0, 2.0, (rows, n))
    kinds = [Uniform(0.0, 2.0), Exponential(1.0),
             TruncatedNormal(1.0, 1.0, 0.0, 2.0)]
    dists = [kinds[int(rng.integers(3))] for _ in range(n)]
    handle = exact_mnl_solver() if model == MNL else brute_cascade_solver()
    return (Instance(n=n, m=m, k=k, p=p, model=model), profiles, dists,
            handle, int(rng.choice([1, 7, 64, 1024])))


def test_array_payments_equal_the_per_payer_loops(monkeypatch):
    """``vcg_rows`` and ``myerson_rows`` payments and utilities are bit for
    bit those of the per-payer loops they replace, on the same CTRs and
    envelope areas, over 600 seeded calls on the exact MNL and brute
    handles (n = 1, whose payers have no others, included).  Leave-one-out
    CTRs are nudged down by 1e-12 or 1e-3, or read as the outcome's CTRs
    less 1e-12 (a solve that kept the outcome), and envelope areas raised to
    grid * top CTR or past it, so payments come out as 0.0, as sub-tolerance
    dust that is clipped, and as genuinely negative values that stay.  As in
    ``vcg_rows``, only allocated advertisers (CTR not 0) have a leave-one-out
    row; every other advertiser pays 0."""
    rng = np.random.default_rng(2503)
    solves, areas, pricing = [], [], [None]
    solve_rows, grid_sums = mechanisms._solve_rows, mechanisms._grid_sums

    def nudged_solve_rows(solver, inst, bid_rows):
        ctrs, outcome = solve_rows(solver, inst, bid_rows)
        if pricing[0] == "vcg" and len(solves) == 1:  # leave-one-out rows
            ctrs = ctrs * (1.0 - rng.choice([0.0, 0.0, 1e-12, 1e-3],
                                            ctrs.shape))
            # a quarter read as a solve that kept the outcome, less dust
            (_values, kept_ctrs), = solves
            s_of = np.nonzero(kept_ctrs != 0.0)[0]
            same = rng.random(len(ctrs)) < 0.25
            ctrs[same] = kept_ctrs[s_of[same]] * (1.0 - 1e-12)
        solves.append((bid_rows, ctrs))
        return ctrs, outcome

    def nudged_grid_sums(read, tops, grid_size, *cut_by):
        got = grid_sums(read, tops, grid_size, *cut_by)
        flat = [grid_size * y for y in tops[0]]  # a constant curve's area
        pick = rng.integers(0, 3, len(got))
        areas[:] = [(a, f, f + a)[c] for a, f, c in zip(got, flat, pick)]
        return list(areas)

    monkeypatch.setattr(mechanisms, "_solve_rows", nudged_solve_rows)
    monkeypatch.setattr(mechanisms, "_grid_sums", nudged_grid_sums)
    kept = Counter()
    for case in range(600):
        inst, profiles, dists, handle, grid = _payment_case(rng, case)
        values = np.array(profiles, dtype=float)

        del solves[:]
        pricing[0] = "vcg"
        got = mechanisms.vcg_rows(inst, profiles, handle)
        (_values, ctrs), (_rows, wo) = solves[:2]
        want = np.zeros(values.shape)
        s_of, i_of = np.nonzero(ctrs != 0.0)
        for s, i, pi_wo in zip(s_of, i_of, wo, strict=True):
            v, pi, others = values[s], ctrs[s], np.arange(inst.n) != i
            raw = float(v[others] @ pi_wo[others] - v[others] @ pi[others])
            want[s, i] = _clip_dust(raw)
            kept[raw < 0.0, want[s, i] < 0.0, inst.n == 1] += 1
        for v, pi, paid, outcome in zip(values, ctrs, want, got, strict=True):
            assert outcome.payments.tobytes() == paid.tobytes(), case
            assert outcome.utilities.tobytes() == (v * pi - paid).tobytes()

        del solves[:]
        pricing[0] = "myerson"
        got = mechanisms.myerson_rows(inst, profiles, dists, handle, grid)
        (_virtual, ctrs), = solves[:1]
        want = np.zeros(values.shape)
        s_of, i_of = np.nonzero((ctrs > 0.0) & (values > 0.0))
        steps = values[s_of, i_of] / grid
        for s, i, step, area in zip(s_of, i_of, steps.tolist(), areas,
                                    strict=True):
            raw = values[s, i] * ctrs[s, i] - step * area
            want[s, i] = _clip_dust(raw)
            kept[raw < 0.0, want[s, i] < 0.0, inst.n == 1] += 1
        for v, pi, paid, outcome in zip(values, ctrs, want, got, strict=True):
            assert outcome.payments.tobytes() == paid.tobytes(), case
            assert outcome.utilities.tobytes() == (v * pi - paid).tobytes()
    # (raw payment negative, kept negative, n == 1) -> payments seen
    assert kept[True, False, False] > 30  # dust clipped to 0.0
    assert kept[True, True, False] > 100  # genuinely negative, kept
    assert kept[False, False, True] > 50
    assert kept[False, False, False] > 1000


def _float_bits(x):
    return np.asarray(x, dtype=float).view(np.int64)


def _bits_float(bits):
    return np.asarray(bits, dtype=np.int64).view(np.float64)


def _own_bid_rows(values, who, bids):
    """``values`` once per entry of ``who``, with advertiser who[r]'s bid
    set to bids[r]."""
    rows = np.tile(values, (len(who), 1))
    rows[np.arange(len(who)), who] = bids
    return rows


def _adjacent_steps(handle, inst, values, grids):
    """(advertiser, below, above): for each advertiser i and each pair of
    consecutive bids of grids[i] (all positive) between which i's CTR
    changes, a pair of adjacent floats between which it changes, found by
    bisection over the floats' bit patterns, which order positive floats.
    Each bisection step reads every pair's midpoint in one ``solve_rows``
    call of ``handle``."""

    def ctrs(who, bids):
        return _batched_ctrs(handle, inst, _own_bid_rows(values, who, bids))[
            np.arange(len(who)), who]

    who = np.repeat(np.arange(inst.n), [len(grid) for grid in grids])
    bids = np.concatenate(grids)
    at = ctrs(who, bids)
    steps = np.flatnonzero((who[1:] == who[:-1]) & (at[1:] != at[:-1]))
    who, below = who[steps], at[steps]
    lo, hi = _float_bits(bids[steps]), _float_bits(bids[steps + 1])
    while True:
        live = np.flatnonzero(hi - lo > 1)
        if not live.size:
            return who, _bits_float(lo), _bits_float(hi)
        mid = lo[live] + (hi[live] - lo[live]) // 2
        same = ctrs(who[live], _bits_float(mid)) == below[live]
        lo[live[same]], hi[live[~same]] = mid[same], mid[~same]


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


def _solved_rows(inst, rows):
    """The CTRs of ``_standalone_solve`` at each row of ``rows``."""
    return np.array([_standalone_solve(inst, bids)[1] for bids in rows])


def _batched_ctrs(handle, inst, rows):
    """The CTRs of ``handle.solve_rows``, whose outcomes it never builds."""
    return handle.solve_rows(inst, rows)[0]


def test_brute_solve_rows_ctrs_equal_solves():
    """The CTRs of the brute handle's ``solve_rows`` are those of
    ``brute_force_wdp_cascade`` and ``cascade_ctr`` row by row, bit-equal
    (``_solved_rows``): on tie-heavy rates with bids 0, negative and
    +-inf, k < m included, and on no rows, which give 0 x n; at own bids on
    the float neighbours of the others' values; at own bids 1 and +inf,
    with and without another +inf bidder; and on both floats of every step
    of an advertiser's CTR in its own bid, where rounding in another order
    than the solver would step one float early or late.  A NaN row raises
    ``ValidationError``.  Some blocks have an advertiser bidding <= 0 in
    every row, whom no pick matches."""
    handle = brute_cascade_solver()
    rng = np.random.default_rng(431)
    checked = fewer_slots = never_positive = 0
    while checked < 600:
        inst, values = tie_heavy_cascade_case(rng)
        if inst.n * inst.m > 20:
            continue
        rows = np.tile(values, (int(rng.integers(1, 6)), 1))
        special = rng.choice([0.0, -1.0, np.inf, -np.inf], rows.shape)
        rows = np.where(rng.random(rows.shape) < 0.3, special, rows)
        want = _solved_rows(inst, rows)
        assert np.array_equal(_batched_ctrs(handle, inst, rows), want), rows
        assert _batched_ctrs(handle, inst, np.empty((0, inst.n))).shape \
            == (0, inst.n)
        checked += 1
        fewer_slots += inst.k < inst.m
        never_positive += bool((rows <= 0.0).all(axis=0).any())
    assert fewer_slots > 100 and never_positive > 100, never_positive

    rng = np.random.default_rng(149)
    cases = 0
    while cases < 300:
        inst, values = tie_heavy_cascade_case(rng)
        if inst.n * inst.m > 36:  # the oracle's size guard
            continue
        cases += 1
        grids = [_brute_curve_test_bids(values, i) for i in range(inst.n)]
        rows = _own_bid_rows(
            values, np.repeat(np.arange(inst.n), [len(g) for g in grids]),
            np.concatenate(grids))
        assert np.array_equal(_batched_ctrs(handle, inst, rows),
                              _solved_rows(inst, rows)), cases

    rng = np.random.default_rng(163)
    for case in range(100):
        inst, values = tie_heavy_cascade_case(rng)
        if inst.n * inst.m > 36:
            continue
        if case % 2:  # someone else bids inf
            values[rng.integers(inst.n)] = np.inf
        rows = _own_bid_rows(values, np.repeat(np.arange(inst.n), 2),
                             np.tile([1.0, np.inf], inst.n))
        assert np.array_equal(_batched_ctrs(handle, inst, rows),
                              _solved_rows(inst, rows)), case

    rng = np.random.default_rng(157)
    steps = 0
    for _ in range(200):
        n, m = int(rng.integers(2, 5)), int(rng.integers(1, 4))
        inst = Instance(n=n, m=m, k=int(rng.integers(1, m + 1)),
                        p=rng.uniform(0.01, 1.0, (n, m)), model=CASCADE)
        values = rng.uniform(0.0, 1.0, n)
        grids = [sorted({*np.geomspace(1e-3, 4.0, 24).tolist(),
                         *np.delete(values, i).tolist()}) for i in range(n)]
        who, below, above = _adjacent_steps(handle, inst, values, grids)
        rows = _own_bid_rows(values, np.concatenate([who, who]),
                             np.concatenate([below, above]))
        assert np.array_equal(_batched_ctrs(handle, inst, rows),
                              _solved_rows(inst, rows)), inst
        steps += len(rows)
    assert steps > 1000

    inst = Instance(n=3, m=1, k=1, p=np.ones((3, 1)), model=CASCADE)
    with pytest.raises(ValidationError):
        handle.solve_rows(inst, [[1.0, 3.0, 2.0], [1.0, np.nan, 2.0]])


def test_solve_rows_equal_solves():
    """Each exact handle's ``solve_rows`` returns, row by row, what
    ``_standalone_solve`` returns: CTRs, and the allocation and permutation
    of each row's ``outcome``, read last row first, ``==``.  On tie-heavy
    pools whose rows hold zero and negative bids and differ in their
    positive bidders, and on no rows, which give 0 x n CTRs."""
    rng = np.random.default_rng(197)
    checked, mixed = Counter(), 0
    while min(checked[MNL], checked[CASCADE]) < 300:
        if rng.random() < 0.5:
            handle, (inst, rows) = exact_mnl_solver(), _tie_heavy_stack(rng)
        else:
            handle = brute_cascade_solver()
            inst, values = tie_heavy_cascade_case(rng)
            if inst.n * inst.m > 20:
                continue
            rows = np.tile(values, (int(rng.integers(1, 7)), 1))
            rows = np.where(rng.random(rows.shape) < 0.3,
                            rng.choice([-1.0, 0.0, 0.5, 2.0], rows.shape), rows)
        ctrs, outcome = handle.solve_rows(inst, rows)
        assert ctrs.shape == rows.shape
        for r in reversed(range(len(rows))):
            chi, (want_chi, want_pi) = (outcome(r),
                                        _standalone_solve(inst, rows[r]))
            assert chi.allocation == want_chi.allocation, (inst, rows[r])
            assert chi.permutation == want_chi.permutation, (inst, rows[r])
            assert np.array_equal(ctrs[r], want_pi), (inst, rows[r])
        assert _batched_ctrs(handle, inst, np.empty((0, inst.n))).shape \
            == (0, inst.n)
        checked[inst.model] += 1
        mixed += len({tuple(row > 0.0) for row in rows}) > 1
    assert mixed > 200


def test_exact_solve_equals_the_standalone_route():
    """Each exact handle's ``solve``, the one-row case of its
    ``solve_rows``, returns what ``_standalone_solve`` returns: allocation
    and permutation ``==``, CTRs to the byte.  On tie-heavy draws with bids
    of 0, negative and +-inf; an MNL +inf bid overflows, and both routes
    raise ``ValidationError`` on it."""
    rng = np.random.default_rng(211)
    checked, overflows = Counter(), 0
    while min(checked[MNL], checked[CASCADE]) < 500:
        if rng.random() < 0.5:
            handle, (inst, rows) = exact_mnl_solver(), _tie_heavy_stack(rng)
            bids = rows[0]
        else:
            handle = brute_cascade_solver()
            inst, bids = tie_heavy_cascade_case(rng)
            if inst.n * inst.m > 20:
                continue
        bids = np.where(rng.random(inst.n) < 0.2,
                        rng.choice([0.0, -1.0, np.inf, -np.inf], inst.n), bids)
        checked[inst.model] += 1
        if inst.model == MNL and np.isposinf(bids).any():
            for solve in (handle.solve, _standalone_solve):
                with pytest.raises(ValidationError):
                    solve(inst, bids)
            overflows += 1
            continue
        (chi, pi), (want_chi, want_pi) = (handle.solve(inst, bids),
                                          _standalone_solve(inst, bids))
        assert chi.allocation == want_chi.allocation, (inst, bids)
        assert chi.permutation == want_chi.permutation, (inst, bids)
        assert pi.dtype == want_pi.dtype and pi.shape == want_pi.shape
        assert pi.tobytes() == want_pi.tobytes(), (inst, bids)
    assert overflows > 20


def test_envelope_bids_follow_the_off_support_rule():
    """``_bids_at`` is ``max(phi(v), 0)`` on the support, 0 below it (where
    phi is -inf) and v above it, per each report's distribution; a vector
    of distribution indices broadcasts along rows of reports."""
    kinds = [Uniform(0.5, 2.0), Exponential(1.0), Uniform(-3.0, -2.0)]
    which = np.array([0, 0, 0, 0, 1, 1, 2])
    v = np.array([0.25, 0.5, 1.5, 3.0, 0.3, 2.5, -1.0])
    uniform, exponential = kinds[0].virtual_value, kinds[1].virtual_value
    want = [0.0, 0.0, uniform(1.5), 3.0, 0.0, exponential(2.5), 0.0]
    assert mechanisms._bids_at(kinds, which, v).tolist() == want
    rows = np.array([[0.25, 2.0, 0.3, 2.5], [1.5, 7.0, 0.0, 9.0]])
    got = mechanisms._bids_at(kinds[:2], np.array([0, 0, 1, 1]), rows)
    assert got.tolist() == [[0.0, uniform(2.0), 0.0, exponential(2.5)],
                            [uniform(1.5), 7.0, 0.0, exponential(9.0)]]


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


def _recursive_grid_sum(curve, grid_size, hi_value=None):
    """The closure recursion ``monotone_grid_sum`` was before it became a
    walk by depth, kept here as its reference."""
    cache = {} if hi_value is None else {grid_size: hi_value}

    def at(g):
        if g not in cache:
            cache[g] = curve(g)
        return cache[g]

    def span(lo, hi):
        if at(lo) != at(hi) and lo + 1 < hi:
            mid = (lo + hi) // 2
            return span(lo, mid) + span(mid + 1, hi)
        if at(lo) == at(hi):
            return (hi - lo + 1) * at(lo)
        return at(lo) + at(hi)

    return at(1) if grid_size == 1 else span(1, grid_size)


def _step_curve(rng, size):
    """A random non-decreasing step curve on 1..size with 0-6 steps at
    non-dyadic levels, so a reordered addition shows in the last bit."""
    jumps = np.sort(rng.integers(1, size + 1, int(rng.integers(0, 7))))
    levels = np.cumsum(rng.uniform(0.0, 1.0, len(jumps) + 1) / 3.0)
    return lambda g: float(levels[np.searchsorted(jumps, g, side="right")])


def test_monotone_grid_sum_equals_the_recursion_bit_for_bit():
    """The walk by depth sums as the recursion did, to the last bit, with
    and without the top value given, one curve at a time and many in one
    walk, in at most ceil(log2 grid) + 1 reads."""
    rng = np.random.default_rng(197)
    for size in (1, 2, 3, 7, 1000, 1024):
        curves = [_step_curve(rng, size) for _ in range(40)]
        want = [_recursive_grid_sum(curve, size) for curve in curves]
        assert [monotone_grid_sum(curve, size) for curve in curves] == want
        tops = [curve(size) if k % 2 else None
                for k, curve in enumerate(curves)]
        assert [monotone_grid_sum(curve, size, top) for curve, top
                in zip(curves, tops)] == want
        reads = []

        def read(points):  # values with no line: midpoint cuts
            reads.append(points)
            return [curves[k](g) for k, g in points], None

        assert mechanisms._grid_sums(read, (tops, None), size) == want
        assert len(reads) <= int(np.ceil(np.log2(size))) + 1


def test_monotone_grid_sum_checks_grid_size():
    reads = []

    def curve(g):
        reads.append(g)
        return float(g)

    for bad in (0, -3, 2.5, 0.0, float("nan"), float("inf"), "8", None):
        with pytest.raises(ValidationError):
            monotone_grid_sum(curve, bad)
    # past 2^53 grid points are no longer exact floats, and near 2^63 the
    # span arithmetic overflows int64: refused before any read
    for bad in (MAX_GRID_SIZE + 1, 2 ** 62, 2 ** 63 - 1, 10 ** 20, 10 ** 400):
        with pytest.raises(SizeGuardError):
            monotone_grid_sum(curve, bad)
    assert reads == []
    for size in (4, 4.0, np.int64(4)):
        assert monotone_grid_sum(curve, size) == 10.0
    assert MAX_GRID_SIZE == 2 ** 53
    assert monotone_grid_sum(lambda g: float(g > 2 ** 52),
                             MAX_GRID_SIZE) == 2.0 ** 52


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
    for grid in (2.5, 1.5, 0.0, float("nan"), float("inf"), "8", True,
                 np.True_):
        with pytest.raises(ValidationError):
            myerson(inst, values, dists, brute_cascade_solver(), grid)
    for grid in (MAX_GRID_SIZE + 1, 2 ** 63 - 1, 10 ** 20, 10 ** 400):
        with pytest.raises(SizeGuardError):
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


def test_myerson_rejects_dists_that_are_not_distributions():
    """A ``dists`` entry that is not a ``ValueDistribution`` raises
    ``ValidationError``, not an ``AttributeError``, before any solve."""
    inst = Instance(n=3, m=2, k=2, p=np.full((3, 2), 0.5), model=CASCADE)
    solves, batches = [], []
    handle = _read_counted(brute_cascade_solver(), solves, [], batches)
    for dists in ([1, 2, 3], [Uniform(0.0, 1.0), None, Uniform(0.0, 1.0)],
                  ["uniform"] * 3):
        with pytest.raises(ValidationError, match="ValueDistribution"):
            myerson(inst, [1.0, 2.0, 3.0], dists, handle)
        with pytest.raises(ValidationError, match="ValueDistribution"):
            mechanisms.myerson_rows(inst, [[1.0, 2.0, 3.0]], dists, handle)
    assert not solves and not batches


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
    """The greedy's ``curves`` reader, read one point per call or all points
    in one call, gives the CTRs one ``solve`` per point reports and leaves
    the generator where those solves leave theirs."""
    rng = np.random.default_rng(137)
    for case in range(200):
        inst, values = tie_heavy_cascade_case(rng)
        points = [(i, b) for i in range(inst.n)
                  for b in _curve_test_bids(inst, values, i)]
        probe_rng = np.random.default_rng(case)
        probe = greedy_cascade_solver(probe_rng)
        want, states = [], []
        for i, b in points:
            bids = values.copy()
            bids[i] = b
            want.append(probe.solve(inst, bids)[1][i])
            states.append(probe_rng.bit_generator.state)
        alone_rng = np.random.default_rng(case)
        read = greedy_cascade_solver(alone_rng).curves(inst, values)
        for point, ctr, state in zip(points, want, states):
            assert read([point]) == [ctr], (case, point)
            assert alone_rng.bit_generator.state == state, (case, point)
        batch_rng = np.random.default_rng(case)
        read = greedy_cascade_solver(batch_rng).curves(inst, values)
        assert read(points) == want, case
        assert batch_rng.bit_generator.state == states[-1], case


def test_rng_draws_an_array_of_bounds_as_scalar_draws():
    """The greedy reader draws for a batch of points with one
    ``rng.integers(counts)`` call.  That leaves the generator where one
    scalar draw per count does, and a count of 1 draws nothing."""
    seeds = np.random.default_rng(181)
    for case in range(300):
        batched = np.random.default_rng(case)
        scalar = np.random.default_rng(case)
        for _ in range(int(seeds.integers(1, 4))):
            counts = seeds.integers(1, 13, int(seeds.integers(1, 30))).tolist()
            got = batched.integers(counts)
            assert got.tolist() == [int(scalar.integers(c)) for c in counts]
            assert batched.bit_generator.state == scalar.bit_generator.state
    ones = np.random.default_rng(0)
    state = ones.bit_generator.state
    ones.integers([1, 1, 1])
    assert ones.bit_generator.state == state


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
    """The brute handle's envelope reads through its ``solve_rows`` price as
    one standalone solve per point read does."""
    rng = np.random.default_rng(151)
    handle = brute_cascade_solver()
    probed = _standalone(handle)
    for inst, values, dists in _brute_auction_cases(rng):
        fast = myerson(inst, values, dists, handle)
        slow = myerson(inst, values, dists, probed)
        assert (fast.augmented.allocation.assignment
                == slow.augmented.allocation.assignment)
        assert fast.augmented.permutation.rank == slow.augmented.permutation.rank
        assert np.array_equal(fast.ctrs, slow.ctrs)
        assert np.array_equal(fast.payments, slow.payments)


def _seeded_handles():
    """(model, make) per handle under test: make(seed) builds a fresh
    handle and returns it with the generator it draws from, if any."""

    def greedy(seed):
        rng = np.random.default_rng(seed)
        return greedy_cascade_solver(rng), rng

    def planted(base):
        def make(seed):
            handle, rng = base(seed)
            return threshold_dropping_solver(handle, 2.0), rng
        return make

    def exact(seed):
        return exact_mnl_solver(), None

    def brute(seed):
        return brute_cascade_solver(), None

    return [(MNL, exact), (CASCADE, brute), (CASCADE, greedy),
            (MNL, planted(exact)), (CASCADE, planted(brute)),
            (CASCADE, planted(greedy))]


def _priced_or_error(price):
    """``price()``, or the message of the ``NonMonotoneSolverError`` it
    raises."""
    try:
        return price()
    except NonMonotoneSolverError as exc:
        return str(exc)


def test_myerson_rows_equals_one_call_per_profile():
    """``myerson_rows`` over 0-4 profiles equals one ``myerson`` call per
    profile, in turn, on one handle: outcome, CTRs, payments and
    utilities, or the audit's error.  Over the exact MNL, brute and greedy
    handles and the planted-bug fixture over each; the greedy's generator
    ends each prefix of the profiles in the state it ends the calls in."""
    rng = np.random.default_rng(173)
    factories = _seeded_handles()
    paid = errors = 0
    for case in range(210):
        model, make = factories[case % len(factories)]
        inst = (rand_mnl_instance(rng, nmax=4, mmax=3) if model == MNL
                else rand_cascade_instance(rng, nmax=4, mmax=3))
        dists = [Uniform(0.0, 3.0)] * inst.n
        grid = int(rng.choice([1, 2, 7, 64, 256]))
        profiles = [np.where(rng.random(inst.n) < 0.2, 0.0,
                             rng.uniform(0.0, 3.0, inst.n))
                    for _ in range(int(rng.integers(0, 5)))]
        one, one_rng = make(case)
        want, states = [], []
        for values in profiles:
            want.append(_priced_or_error(
                lambda: myerson(inst, values, dists, one, grid)))
            states.append(one_rng and one_rng.bit_generator.state)
            if isinstance(want[-1], str):
                errors += 1
                break
        for end in range(len(want) + 1):
            batched, batched_rng = make(case)
            got = _priced_or_error(lambda: mechanisms.myerson_rows(
                inst, profiles[:end], dists, batched, grid))
            if end and batched_rng is not None:
                assert batched_rng.bit_generator.state == states[end - 1]
            if end and isinstance(want[end - 1], str):
                assert got == want[end - 1], case
                continue
            assert len(got) == end
            for outcome, expected in zip(got, want):
                assert outcome.augmented == expected.augmented, case
                assert np.array_equal(outcome.ctrs, expected.ctrs), case
                assert np.array_equal(outcome.payments, expected.payments)
                assert np.array_equal(outcome.utilities, expected.utilities)
        paid += sum(np.count_nonzero(out.payments) for out in want
                    if not isinstance(out, str))
    assert paid > 100 and errors > 3


def _read_counted(base, solves, reads, batches):
    """``base`` counting its ``solve`` calls in ``solves``, with each
    ``solve_rows`` call in ``batches`` as (its row count, the rows whose
    outcome was built, in call order), and tagging each call of a
    ``curves`` reader with the ``solve`` calls so far."""

    def solve(inst, bids):
        solves.append(1)
        return base.solve(inst, bids)

    if base.curves is None:
        def solve_rows(inst, rows):
            ctrs, outcome = base.solve_rows(inst, rows)
            built = []
            batches.append((len(rows), built))

            def counted(r):
                built.append(r)
                return outcome(r)

            return ctrs, counted

        return SolverHandle(solve=solve, kind=base.kind,
                            solve_rows=solve_rows)

    def curves(inst, bids):
        read = base.curves(inst, bids)

        def counted(points):
            reads.append(len(solves))
            return read(points)

        return counted

    return SolverHandle(solve=solve, kind=base.kind, curves=curves)


def test_myerson_rows_reads_one_depth_per_solve_rows_call():
    """Over an exact handle, one ``myerson_rows`` call solves every profile
    in one ``solve_rows`` call, one row each, then makes at most
    ceil(log2 grid) + 1 more calls, whatever the number of profiles and
    payers.  It builds no outcome; reading each profile's ``augmented``,
    twice, builds the first call's outcome once per profile.  Over the
    greedy, each profile is solved by one ``solve``, audited in one reader
    call and priced in at most that many.  Either way it prices as one
    ``myerson`` call per profile."""
    rng = np.random.default_rng(179)
    paid = 0
    makers = ((exact_mnl_solver, MNL), (brute_cascade_solver, CASCADE),
              (lambda: greedy_cascade_solver(np.random.default_rng(5)),
               CASCADE))
    for make, model in makers:
        for grid in (1, 2, 3, 64, 1000, 1024):
            solves, reads, batches = [], [], []
            counted = _read_counted(make(), solves, reads, batches)
            inst = (rand_mnl_instance(rng, nmax=4, mmax=3) if model == MNL
                    else rand_cascade_instance(rng, nmax=4, mmax=3))
            dists = [Uniform(0.0, 2.0)] * inst.n
            profiles = [rng.uniform(0.0, 2.0, inst.n) for _ in range(6)]
            got = mechanisms.myerson_rows(inst, profiles, dists, counted,
                                          grid)
            depths = int(np.ceil(np.log2(grid))) + 1
            if counted.is_exact:
                assert not solves
                assert all(not built for _rows, built in batches)
                for outcome in got + got:
                    assert outcome.augmented is not None
                assert batches[0] == (len(profiles),
                                      list(range(len(profiles))))
                assert len(batches) - 1 <= depths
                assert all(not built for _rows, built in batches[1:])
            else:
                assert len(solves) == len(profiles) and not batches
                # Reads tagged s follow the s-th solve: its profile's
                # pricing and the next profile's audit.
                assert max(Counter(reads).values()) <= depths + 1
            one = make()
            for values, outcome in zip(profiles, got):
                want = myerson(inst, values, dists, one, grid)
                assert np.array_equal(outcome.payments, want.payments)
                paid += np.count_nonzero(want.payments)
    assert paid > 30


def _recorded(base, solved, batches):
    """``base`` recording each ``solve`` as (bids, outcome) in ``solved``,
    and each ``solve_rows`` call in ``batches`` as (its rows, the outcomes
    it built, as {row: outcome})."""

    def solve(inst, bids):
        out = base.solve(inst, bids)
        solved.append((np.array(bids, dtype=float), out[0]))
        return out

    def solve_rows(inst, rows):
        ctrs, outcome = base.solve_rows(inst, rows)
        built = {}
        batches.append((np.array(rows, dtype=float), built))

        def counted(r):
            built[r] = outcome(r)
            return built[r]

        return ctrs, counted

    return SolverHandle(solve=solve, kind=base.kind, curves=base.curves,
                        solve_rows=base.solve_rows and solve_rows)


def test_outcomes_are_built_on_read():
    """``vcg_rows`` and ``myerson_rows`` build no outcome of an exact
    handle's ``solve_rows`` until ``augmented`` is read, then each once
    however often it is read, ``==`` what ``solve`` returns at the
    profile's bids (its values for vcg, virtual values for myerson).  Over
    the greedy and the planted bug over brute, which solve each profile in
    the call, it is that solve's outcome, and reading it leaves the greedy's
    generator where the call left it."""
    rng = np.random.default_rng(2511)

    def greedy():
        gen = np.random.default_rng(int(rng.integers(1 << 30)))
        return greedy_cascade_solver(gen), gen

    makers = [(MNL, lambda: (exact_mnl_solver(), None)),
              (CASCADE, lambda: (brute_cascade_solver(), None)),
              (CASCADE, greedy),
              (CASCADE, lambda: (threshold_dropping_solver(
                  brute_cascade_solver(), 2.0), None))]
    dists = [Uniform(0.0, 1.0)] * 6
    built_any = 0
    for case in range(160):
        model, make = makers[case % 4]
        inst = (rand_mnl_instance(rng, nmax=6, mmax=3) if model == MNL
                else rand_cascade_instance(rng, nmax=5, mmax=3))
        profiles = rng.uniform(0.0, 1.0, (int(rng.integers(1, 4)), inst.n))
        virtual = np.maximum(2.0 * profiles - 1.0, 0.0)
        for price, bids in (("vcg", profiles), ("myerson", virtual)):
            handle, gen = make()
            if price == "vcg" and not handle.is_exact:
                continue
            solved, batches = [], []
            counted = _recorded(handle, solved, batches)
            got = (mechanisms.vcg_rows(inst, profiles, counted)
                   if price == "vcg" else mechanisms.myerson_rows(
                       inst, profiles, dists[:inst.n], counted, 64))
            assert all(not built for _rows, built in batches), case
            state = gen and gen.bit_generator.state
            for s, outcome in enumerate(got):
                chi = outcome.augmented
                assert outcome.augmented is chi
                if handle.is_exact:
                    rows, built = batches[0]
                    assert np.array_equal(rows[s], bids[s])
                    assert list(built) == list(range(s + 1)), case
                    assert chi == _standalone_solve(inst, bids[s])[0], case
                    built_any += bool(chi.allocation.assignment)
                elif gen is not None:  # the greedy: one solve per profile
                    assert len(solved) == len(got), case
                    assert np.array_equal(solved[s][0], bids[s])
                    assert chi is solved[s][1], case
                else:
                    assert any(chi is out for _bids, out in solved), case
                    assert chi == make()[0].solve(inst, bids[s])[0], case
            assert all(not built for _rows, built in batches[1:]), case
            if gen is not None:
                assert gen.bit_generator.state == state, case
    assert built_any > 50


def _midpoint_grid_sums(read, tops, grid_size, bids=None, guess=None):
    """``mechanisms._grid_sums`` as it was before its cuts followed lines:
    every span splits at its midpoint, one read per depth, and each tree is
    summed bottom-up from the halves its walk recorded.  It ignores the
    intercepts that ``read`` and ``tops`` give, the bids ``read`` gives,
    ``bids`` and ``guess``."""
    ends = [{} if top is None else {grid_size: top} for top in tops[0]]
    spans = [(k, 1, grid_size) for k in range(len(ends))]
    depths = []  # per depth: each span's (first child, or None; sum if leaf)
    while spans:
        new = list(dict.fromkeys((k, g) for k, lo, hi in spans
                                 for g in (lo, hi) if g not in ends[k]))
        for (k, g), value in zip(new, read(new)[0] if new else ()):
            ends[k][g] = value
        nodes, below = [], []
        for k, lo, hi in spans:
            at_lo, at_hi = ends[k][lo], ends[k][hi]
            if at_lo == at_hi:
                nodes.append((None, (hi - lo + 1) * at_lo))
            elif lo + 1 >= hi:
                nodes.append((None, at_lo + at_hi))
            else:
                mid = (lo + hi) // 2
                nodes.append((len(below), None))
                below += [(k, lo, mid), (k, mid + 1, hi)]
        depths.append(nodes)
        spans = below
    sums = []
    for nodes in reversed(depths):
        sums = [total if c is None else sums[c] + sums[c + 1]
                for c, total in nodes]
    return sums


def _envelope_case(rng, case):
    """One seeded ``myerson_rows`` call on an exact handle: MNL on even
    cases, brute cascade on odd ones; tie-heavy (dyadic rates, repeated
    values) when case % 4 >= 2.  Uniform, exponential, truncated normal or
    mixed values, and grids 1, 2, 3, 7, 256 and 1024, in turn."""
    model = (MNL, CASCADE)[case % 2]
    n, m = int(rng.integers(1, 5)), int(rng.integers(1, 4))
    k = int(rng.integers(1, m + 1))
    if case % 4 >= 2:
        p = rng.choice([0.125, 0.25, 0.5] + [0.0, 1.0] * (model == CASCADE),
                       (n, m))
        profiles = rng.choice([0.0, 0.5, 1.0, 1.0, 2.0, 2.0], (2, n))
    else:
        p = rng.uniform(0.01, 1.0 if model == CASCADE else 0.5, (n, m))
        profiles = rng.uniform(0.0, 3.0, (int(rng.integers(1, 3)), n))
    kinds = [Uniform(0.0, 3.0), Exponential(1.0),
             TruncatedNormal(1.0, 1.0, 0.0, 3.0)]
    mix = case // 2 % 4
    dists = [kinds[int(rng.integers(3)) if mix == 3 else mix]
             for _ in range(n)]
    grid = (1, 2, 3, 7, 256, 1024)[case // 8 % 6]
    handle = exact_mnl_solver() if model == MNL else brute_cascade_solver()
    return (Instance(n=n, m=m, k=k, p=p, model=model), list(profiles),
            dists, handle, grid)


def test_envelope_walk_prices_as_the_midpoint_walk(monkeypatch):
    """Cuts where the lines meet read other points than the midpoint walk,
    but price the same: payments and CTRs ``==`` on 1,000 seeded
    ``myerson_rows`` calls over the exact MNL and brute handles, half of
    them tie-heavy."""
    rng = np.random.default_rng(241)
    cases = [_envelope_case(rng, case) for case in range(1000)]
    got = [mechanisms.myerson_rows(*case) for case in cases]
    monkeypatch.setattr(mechanisms, "_grid_sums", _midpoint_grid_sums)
    paid = 0
    for case, outcomes in zip(cases, got):
        for outcome, want in zip(outcomes, mechanisms.myerson_rows(*case),
                                 strict=True):
            assert np.array_equal(outcome.ctrs, want.ctrs), case
            assert np.array_equal(outcome.payments, want.payments), case
            paid += np.count_nonzero(want.payments)
    assert paid > 1000


def _envelope_reads(monkeypatch, make, pool, grid=1024):
    """Over ``pool`` of (instance, profiles, dists), one ``myerson_rows``
    call each on a fresh ``make()``: the points read per payer, and the
    ``solve_rows`` calls of each call after its outcome block."""
    per_payer, after = [], []
    reader = mechanisms._reader

    def counted(solver, inst, templates):
        read = reader(solver, inst, templates)

        def read_counted(points):
            seen.update((t, i) for t, i, _b in points)
            return read(points)

        return read_counted

    monkeypatch.setattr(mechanisms, "_reader", counted)
    for inst, profiles, dists in pool:
        seen, batches = Counter(), []
        handle = _read_counted(make(), [], [], batches)
        mechanisms.myerson_rows(inst, profiles, dists, handle, grid)
        per_payer += seen.values()
        after.append(len(batches) - 1)
    return per_payer, after


def test_envelope_reads_few_points_per_payer(monkeypatch):
    """Lines place each step in O(1) reads: the median payer reads at most
    8 points, and the median ``myerson_rows`` call makes at most 5
    ``solve_rows`` calls after its outcome block, on a brute pool shaped
    like the benchmark's ``simulate`` (4x3, k = 2, U(0, 1)) and on MNL
    pools at 4x3 and 10x5."""
    rng = np.random.default_rng(243)

    def pool(model, n, m, k, top, size):
        return [(Instance(n=n, m=m, k=k, p=rng.uniform(0.01, top, (n, m)),
                          model=model),
                 list(rng.uniform(0.0, 1.0, (8, n))), [Uniform(0.0, 1.0)] * n)
                for _ in range(size)]

    for make, cases in ((brute_cascade_solver, pool(CASCADE, 4, 3, 2, 1.0, 12)),
                        (exact_mnl_solver, pool(MNL, 4, 3, 3, 0.5, 12)),
                        (exact_mnl_solver, pool(MNL, 10, 5, 3, 0.5, 4))):
        per_payer, after = _envelope_reads(monkeypatch, make, cases)
        assert len(per_payer) > 30
        assert np.median(per_payer) <= 8
        assert np.median(after) <= 5


def test_envelope_guesses_replace_the_bisection(monkeypatch):
    """Over uniform (a = 0 and a > 0) and exponential values, whose guesses
    land, a ``myerson_rows`` call makes two ``_bids_at`` calls per round
    (the points read, then every cut's check) and two more (the profiles'
    bids and the top ends'), where a bisection makes about ten per round;
    the truncated normal, which has no guess, still bisects."""
    rng = np.random.default_rng(2713)
    counts = Counter()
    bids_at, reader = mechanisms._bids_at, mechanisms._reader

    def counted_bids(*args):
        counts["bids"] += 1
        return bids_at(*args)

    def counted_reader(solver, inst, templates):
        read = reader(solver, inst, templates)

        def read_counted(points):
            counts["rounds"] += 1
            return read(points)

        return read_counted

    monkeypatch.setattr(mechanisms, "_bids_at", counted_bids)
    monkeypatch.setattr(mechanisms, "_reader", counted_reader)
    for dists, top, guesses in (
            ([Uniform(0.0, 1.0)] * 4, 1.0, True),
            ([Uniform(2.0, 12.0), Exponential(0.25)] * 2, 12.0, True),
            ([TruncatedNormal(1.0, 1.0, 0.0, 3.0)] * 4, 3.0, False)):
        counts.clear()
        for make, model in ((brute_cascade_solver, CASCADE),
                            (exact_mnl_solver, MNL)):
            for _ in range(6):
                inst = Instance(n=4, m=3, k=2, model=model,
                                p=rng.uniform(0.01, 0.5, (4, 3)))
                mechanisms.myerson_rows(inst, rng.uniform(0.0, top, (8, 4)),
                                        dists, make(), 1024)
        assert counts["rounds"] > 30
        assert (counts["bids"] <= 2 * counts["rounds"] + 2 * 12) == guesses


def test_envelope_clamps_float_dust_below_the_lowest_bid(monkeypatch):
    """A payer whose lowest step sits just above bid 0: a free slot below
    every other bidder, taken at any positive bid.  Half the grid bids 0
    under U(0, 1), and equal bids read equal, so the walk crosses the
    zero-bid run in one round: at most 4 reader calls after the outcome
    block at grid 1024.  There the intercepts are equal and b* = -0.0;
    where they differ by float dust, b* = -2.2e-16 is clamped to bid(lo) =
    0 and crosses the run in one round too, not one point per round."""
    inst = Instance(n=3, m=3, k=3, p=[[0.3, 0.7, 0.0], [0.6, 0.1, 0.0],
                                      [0.0, 0.0, 0.4]], model=CASCADE)
    dists = [Uniform(0.0, 1.0)] * 3
    batches = []
    handle = _read_counted(brute_cascade_solver(), [], [], batches)
    got = myerson(inst, [0.9, 0.8, 0.7], dists, handle, 1024)
    assert got.ctrs[2] > 0.0 and len(batches) - 1 <= 4
    monkeypatch.setattr(mechanisms, "_grid_sums", _midpoint_grid_sums)
    want = myerson(inst, [0.9, 0.8, 0.7], dists, brute_cascade_solver(), 1024)
    assert np.array_equal(got.payments, want.payments)
    monkeypatch.undo()

    def bids(k, g):  # U(0, 1) virtual values of v = 1: 0 up to g = 512
        return np.maximum(2.0 * (g / 1024) - 1.0, 0.0)

    reads = []
    top = (0.5, np.nextafter(0.5, 1.0))  # so b* = -2.2e-16

    def read(points):
        reads.append(points)
        own = bids(None, np.array([g for _k, g in points])).tolist()
        lines = [(0.0, 0.5) if b == 0.0 else top for b in own]
        return [y for y, _c in lines], [c for _y, c in lines], own

    tops = ([top[0]], [top[1]])
    got = mechanisms._grid_sums(read, tops, 1024, bids)
    assert reads == [[(0, 1)], [(0, 512), (0, 513)]]
    assert got == _midpoint_grid_sums(read, tops, 1024)


def test_envelope_cuts_fall_back_to_the_midpoint():
    """A span whose ends have equal bids, or whose CTR falls (y_lo > y_hi),
    splits at its midpoint: with lines, the walk reads what it reads with
    none, and sums the same."""

    def walk(curve, bids, lines):
        reads = []

        def read(points):
            reads.append(points)
            ys = [curve(g) for _k, g in points]
            own = bids(None, np.array([g for _k, g in points])).tolist()
            return ys, [1.0 - y for y in ys] if lines else None, own

        tops = ([curve(1024)], [1.0 - curve(1024)] if lines else None)
        return mechanisms._grid_sums(read, tops, 1024, bids), reads

    def flat(k, g):  # every grid point bids 1
        return np.ones(len(g))

    def rising(k, g):
        return g / 1024.0

    for curve, bids in ((lambda g: 0.5 if g >= 700 else 0.0, flat),
                        (lambda g: 0.0 if g >= 300 else 0.5, rising)):
        assert walk(curve, bids, True) == walk(curve, bids, False)


def test_guessed_cuts_equal_the_bisection():
    """``_cuts`` with each payer's guess (``_values_at`` over
    ``inverse_virtual_values``, floored to a grid point) cuts every seeded
    span where its bisection alone cuts: uniform values with a = 0 and
    a > 0, exponential values, a truncated normal and a custom
    distribution (no guess); b* on the zero-bid plateau, inside the
    support, past its upper end (where bids are the values) and outside
    the span's bids (clamped); and spans that fall back to the midpoint.
    A round whose payers all have a guess is settled by one ``bids`` call;
    any other costs at most that one call more than the bisection."""
    rng = np.random.default_rng(2711)
    square = Uniform(0.0, 4.0)  # as a triple: a regular custom family
    kinds = [Uniform(0.0, 1.0), Uniform(2.0, 12.0), Exponential(1.0),
             Exponential(0.25), TruncatedNormal(1.0, 1.0, 0.0, 3.0),
             CustomDistribution(square.cdf, square.pdf, square.quantile,
                                0.0, 4.0)]
    tops = np.array([1.3, 15.0, 5.0, 20.0, 3.9, 4.0])
    calls = Counter()
    for case in range(300):
        which = rng.integers(0, 4 if case % 3 else len(kinds), 16)
        values = rng.uniform(0.0, tops[which])
        steps = values / int(rng.choice([7, 64, 1000, 1024]))

        def bids(k, g, _which=which, _steps=steps):
            return mechanisms._bids_at(kinds, _which[k], g * _steps[k])

        def guess(k, b, _which=which, _steps=steps):
            return mechanisms._values_at(kinds, _which[k], b) / _steps[k]

        spans, ends, lines = [], [], []
        for k in range(len(values)):
            lo = int(rng.integers(1, values[k] / steps[k] - 1))
            hi = int(rng.integers(lo + 2, values[k] / steps[k] + 1))
            b_lo, b_hi = bids(np.array([k, k]), np.array([lo, hi])).tolist()
            at = rng.choice([-0.1, 0.0, b_lo - 0.1, b_hi + 0.1,
                             *rng.uniform(b_lo, b_hi, 4)])
            y_lo, y_hi = (0.25, 0.75) if rng.random() < 0.9 else (0.5, 0.25)
            c_lo = float(rng.uniform(0.0, 2.0))
            spans.append((k, lo, hi))
            ends.append({lo: y_lo, hi: y_hi})
            lines.append({lo: (c_lo, b_lo),
                          hi: (c_lo + at * (y_lo - y_hi), b_hi)})
        counted = {}
        for name, by in (("guess", guess), ("bisection", None)):
            def spied(k, g, _bids=bids, _name=(name, case % 3 > 0)):
                calls[_name] += 1
                return _bids(k, g)
            counted[name] = mechanisms._cuts(spans, ends, lines, spied, by)
        assert counted["guess"] == counted["bisection"], case
    # (search, every family guesses) -> bids calls: one per such round
    assert calls["guess", True] == 200 < calls["bisection", True] / 5
    assert calls["guess", False] <= calls["bisection", False] + 100


def test_curves_only_on_the_greedy_handle():
    greedy = greedy_cascade_solver(np.random.default_rng(0))
    brute = brute_cascade_solver()
    assert greedy.curves is not None and brute.curves is None
    assert threshold_dropping_solver(greedy).curves is None
    assert threshold_dropping_solver(brute).curves is None
    assert exact_mnl_solver().curves is None


def _spied(handle, readers):
    """``handle`` with its ``curves``, keeping every reader it builds."""

    def curves(inst, bids):
        readers.append(handle.curves(inst, bids))
        return readers[-1]

    return SolverHandle(solve=handle.solve, kind=handle.kind, curves=curves)


def test_readers_ignore_template_edits_after_build():
    """``audit_drops`` builds its reader on the first read, from a copy of
    the template, so editing the template in place afterwards changes
    nothing the reader gives."""
    inst = Instance(n=2, m=1, k=1, p=[[0.5], [0.5]], model=CASCADE)
    handle = greedy_cascade_solver(np.random.default_rng(0))
    readers = []
    bids = np.array([0.0, 2.0])
    drops = audit_drops(_spied(handle, readers), inst, bids, [1.5], [1, 0])
    assert next(drops) == (1, None)
    bids[1] = 1.0
    assert list(drops) == [(0, None)]
    assert len(readers) == 1
    assert readers[0]([(0, 1.5)]) == [0.0]  # advertiser 1 still bids 2.0
    read = handle.curves(inst, np.array([0.0, 1.0]))
    assert read([(0, 1.5), (1, 1.0), (0, 0.5)]) == [0.5, 0.5, 0.0]


def test_reader_equals_one_solve_per_point():
    """``_reader`` over every handle kind, on interleaved templates, gives
    the CTR one ``solve`` per point reports (over an exact handle, one
    ``_standalone_solve``), and over the greedy leaves the generator where
    those solves leave it."""
    rng = np.random.default_rng(191)
    for case in range(60):
        model, make = _seeded_handles()[case % 6]
        inst = (rand_mnl_instance(rng, nmax=4, mmax=3) if model == MNL
                else rand_cascade_instance(rng, nmax=4, mmax=3))
        templates = rng.uniform(0.0, 3.0, (3, inst.n))
        points = [(int(rng.integers(3)), int(rng.integers(inst.n)),
                   float(rng.choice([0.0, rng.uniform(0.0, 3.0)])))
                  for _ in range(int(rng.integers(0, 12)))]
        probe, probe_rng = make(case)
        solve = _standalone_solve if probe.is_exact else probe.solve
        want = []
        for t, i, b in points:
            bids = templates[t].copy()
            bids[i] = b
            want.append(float(solve(inst, bids)[1][i]))
        handle, handle_rng = make(case)
        read = mechanisms._reader(handle, inst, templates)
        templates[:] = -1.0  # the reader keeps its own copy
        assert read(points)[0] == want, case
        if handle_rng is not None:
            assert (handle_rng.bit_generator.state
                    == probe_rng.bit_generator.state), case


def _counted_builds(monkeypatch, builds):
    """Count every ``OwnBidCurves`` the handles build, by class name."""
    cls = mechanisms.OwnBidCurves

    def counted(inst, bids):
        builds.append(cls.__name__)
        return cls(inst, bids)

    monkeypatch.setattr(mechanisms, "OwnBidCurves", counted)


def test_one_reader_per_template_per_call(monkeypatch):
    """``myerson`` over the greedy builds one reader for its audit (on the
    values) and one for its pricing (on the virtual values) if anyone pays;
    over the exact brute handle, which has no ``curves``, none.
    ``audit_drops`` builds one over the greedy, none over the brute."""
    builds = []
    _counted_builds(monkeypatch, builds)
    rng = np.random.default_rng(167)
    for inst, values, dists in _auction_cases(rng):
        greedy = greedy_cascade_solver(np.random.default_rng(0))
        del builds[:]
        out = myerson(inst, values, dists, greedy, grid_size=64)
        payers = bool(np.any((out.ctrs > 0.0) & (values > 0.0)))
        assert builds == ["OwnBidCurves"] * (1 + payers)
        del builds[:]
        list(audit_drops(greedy, inst, values, [0.5, 1.0, 2.0]))
        assert builds == ["OwnBidCurves"]
    paid = 0
    for inst, values, dists in _brute_auction_cases(rng):
        brute = brute_cascade_solver()
        del builds[:]
        out = myerson(inst, values, dists, brute, grid_size=64)
        payers = bool(np.any((out.ctrs > 0.0) & (values > 0.0)))
        assert builds == []
        paid += payers
        list(audit_drops(brute, inst, values, [0.5, 1.0, 2.0]))
        assert builds == []
    assert paid > 100


def test_planted_bug_over_brute_is_probed():
    """The planted bug over the brute handle is audited one ``solve`` per
    sweep bid, and the audit raises before anything is priced."""
    inst = Instance(n=2, m=1, k=1, p=[[0.5], [0.5]], model=CASCADE)
    brute = brute_cascade_solver()
    calls = []

    def counted(inst, bids):
        calls.append(1)
        return brute.solve(inst, bids)

    broken = threshold_dropping_solver(
        SolverHandle(solve=counted, kind=brute.kind), threshold=0.5)
    values = np.array([0.9, 0.6])
    with pytest.raises(NonMonotoneSolverError):
        myerson(inst, values, [Uniform(0.0, 1.0)] * 2, broken)
    assert len(calls) == 2 * 9  # each advertiser's 9 audit bids, no outcome
    hit = monotonicity_audit(
        broken, inst, np.array([0.2, 0.1]), 0, [0.3, 0.4, 0.6])
    assert hit == (0.4, 0.6, 0.5, 0.0)
    assert monotonicity_audit(
        brute, inst, np.array([0.2, 0.1]), 0, [0.3, 0.4, 0.6]) is None


def test_planted_bug_over_an_exact_base_is_not_exact():
    """Over either exact base the planted-bug fixture is not exact:
    ``vcg`` refuses it and ``myerson`` audits it and raises, where the
    honest base charges the top bidder."""
    values, dists = [9.0, 1.0], [Uniform(0.0, 10.0)] * 2
    for base, model in ((exact_mnl_solver(), MNL),
                        (brute_cascade_solver(), CASCADE)):
        inst = Instance(n=2, m=1, k=1, p=[[0.5], [0.5]], model=model)
        broken = threshold_dropping_solver(base, threshold=5.0)
        assert base.is_exact and not broken.is_exact
        with pytest.raises(NonMonotoneSolverError):
            vcg(inst, values, broken)
        with pytest.raises(NonMonotoneSolverError):
            myerson(inst, values, dists, broken)
        assert myerson(inst, values, dists, base).payments[0] > 0.0


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


def _dropping_rows(handle, threshold):
    """``solve_rows`` with ``threshold_dropping_solver``'s planted bug: in
    each row, a top bid above ``threshold`` is zeroed before solving."""

    def solve_rows(inst, rows):
        rows = np.array(rows, dtype=float)
        top = rows.argmax(axis=1)
        hit = np.flatnonzero(rows[np.arange(len(rows)), top] > threshold)
        rows[hit, top[hit]] = 0.0
        return handle.solve_rows(inst, rows)

    return solve_rows


def _counted(handle, calls):
    """``handle`` without ``solve_rows``, counting its ``solve`` calls."""

    def solve(inst, bids):
        calls.append(1)
        return handle.solve(inst, bids)

    return SolverHandle(solve=solve, kind=handle.kind)


def test_audit_through_solve_rows_equals_probes():
    exact = exact_mnl_solver()
    broken = threshold_dropping_solver(exact, threshold=5.0)
    assert exact.solve_rows is not None and broken.solve_rows is None
    # (batched handle, its reference): the reference's probes take the
    # standalone route
    pairs = [
        (exact, _standalone(exact)),
        (SolverHandle(solve=broken.solve, kind=broken.kind,
                      solve_rows=_dropping_rows(exact, 5.0)),
         threshold_dropping_solver(_standalone(exact), threshold=5.0)),
    ]
    rng = np.random.default_rng(71)
    grid = np.linspace(0.25, 10.0, 8)
    drops = 0
    for _ in range(40):
        inst = rand_mnl_instance(rng, nmax=4, mmax=4)
        bids = rng.uniform(0.1, 10.0, inst.n)
        for i in range(inst.n):
            rows = np.tile(bids, (len(grid), 1))
            rows[:, i] = grid
            assert np.array_equal(_batched_ctrs(exact, inst, rows),
                                  _solved_rows(inst, rows))
        for batched, base in pairs:
            # per advertiser, by a handle built from solve and kind only
            calls, each = [], []
            probe_only = _counted(base, calls)
            for i in range(inst.n):
                each.append(monotonicity_audit(
                    probe_only, inst, bids, i, grid[::-1]))
                assert monotonicity_audit(
                    batched, inst, bids, i, grid[::-1]) == each[-1]
            assert list(audit_drops(batched, inst, bids, grid[::-1])) \
                == list(enumerate(each))
            # the probe-only handle over every advertiser at once: same
            # drops, from one solve per sweep bid, as one advertiser at a
            # time
            probes = len(calls)
            assert list(audit_drops(probe_only, inst, bids, grid)) \
                == list(enumerate(each))
            assert len(calls) == 2 * probes
            violations = monotonicity(batched, inst, bids, grid)
            assert [json.loads(v)["drop"] for v in violations] \
                == [list(hit) for hit in each if hit is not None]
            drops += sum(hit is not None for hit in each)
    assert drops > 10


def test_audit_drops_checks_advertisers():
    inst = Instance(n=2, m=1, k=1, p=[[0.5], [0.5]], model=MNL)
    for handle in (exact_mnl_solver(),
                   threshold_dropping_solver(exact_mnl_solver())):
        for bad in (2, -1, 1.5, 1.0, True, np.True_, "1", None):
            with pytest.raises(ValidationError):
                next(audit_drops(handle, inst, [1.0, 1.0], [1.0], [0, bad]))
            with pytest.raises(ValidationError):
                monotonicity_audit(handle, inst, [1.0, 1.0], bad, [1.0])
        assert list(audit_drops(handle, inst, [1.0, 1.0], [1.0], [])) == []
        assert [i for i, _drop in audit_drops(
            handle, inst, [1.0, 1.0], [1.0], [np.int64(1), 0])] == [1, 0]
