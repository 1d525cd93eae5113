import functools
import json
import operator
import re
from pathlib import Path

import numpy as np
import pytest

import slotauction.mnl_wdp as mnl_wdp
from slotauction.core import (
    Allocation,
    Instance,
    MNL,
    SizeGuardError,
    ValidationError,
    instance_from_dict,
    mnl_ctr,
)
from slotauction.linfrac import MAX_LP_CELLS, build_charnes_cooper
from slotauction.mechanisms import exact_mnl_solver, vcg
from slotauction.mnl_wdp import (
    DINKELBACH_TOL,
    WdpResult,
    capped_matching,
    dinkelbach_check,
    max_weight_matching,
    solve_mnl_lp,
    solve_mnl_wdp,
    solve_mnl_wdp_rows,
)
from slotauction.oracle import brute_force_wdp_mnl
from conftest import rand_bids, rand_mnl_instance


def test_lone_ad():
    inst = Instance(n=1, m=1, k=1, p=[[0.5]], model=MNL)
    result = solve_mnl_wdp(inst, [1.0])
    assert result.allocation.assignment == {0: 0}
    assert result.objective == pytest.approx(0.5, abs=1e-9)


def test_zero_bid_yields_empty_allocation():
    inst = Instance(n=1, m=1, k=1, p=[[0.5]], model=MNL)
    result = solve_mnl_wdp(inst, [0.0])
    assert result.allocation.assignment == {}
    assert result.objective == 0.0


def test_single_slot_goes_to_higher_bid():
    inst = Instance(n=2, m=1, k=1, p=[[0.5], [0.5]], model=MNL)
    result = solve_mnl_wdp(inst, [2.0, 1.0])
    assert result.allocation.assignment == {0: 0}
    assert result.objective == pytest.approx(1.0, abs=1e-9)


def test_negative_bidders_are_excluded_not_fatal():
    inst = Instance(n=2, m=2, k=2, p=np.full((2, 2), 0.5), model=MNL)
    result = solve_mnl_wdp(inst, [-3.0, 1.0])
    assert 0 not in result.allocation.assignment
    assert result.ctrs[0] == 0.0


def test_objective_consistent_with_ctrs():
    rng = np.random.default_rng(3)
    for _ in range(30):
        inst = rand_mnl_instance(rng, nmax=5, mmax=5)
        bids = rand_bids(rng, inst.n)
        result = solve_mnl_wdp(inst, bids)
        recomputed = float(bids @ mnl_ctr(inst, result.allocation))
        assert result.objective == pytest.approx(recomputed, abs=1e-9)


def test_dinkelbach_lone_ad_converges_immediately():
    inst = Instance(n=1, m=1, k=1, p=[[0.5]], model=MNL)
    result = dinkelbach_check(inst, [1.0])
    assert result.objective == pytest.approx(0.5, abs=1e-9)
    assert result.allocation.assignment == {0: 0}


def test_dinkelbach_agrees_with_lp_on_random_pack():
    rng = np.random.default_rng(5)
    for _ in range(60):
        inst = rand_mnl_instance(rng, nmax=5, mmax=5)
        bids = rand_bids(rng, inst.n)
        lp = solve_mnl_wdp(inst, bids)
        dk = dinkelbach_check(inst, bids)
        assert lp.objective == pytest.approx(dk.objective, abs=1e-6)


def test_symmetric_ties_agree_on_value():
    inst = Instance(n=3, m=2, k=2, p=np.full((3, 2), 0.4), model=MNL)
    bids = [2.0, 2.0, 2.0]
    lp = solve_mnl_wdp(inst, bids)
    dk = dinkelbach_check(inst, bids)
    brute = brute_force_wdp_mnl(inst, bids)
    assert lp.objective == pytest.approx(brute.objective, abs=1e-9)
    assert dk.objective == pytest.approx(brute.objective, abs=1e-9)
    assert lp.allocation.size == min(3, 2, 2)
    assert dk.allocation.size == min(3, 2, 2)


def test_bid_scaling_scales_objective():
    rng = np.random.default_rng(9)
    inst = rand_mnl_instance(rng, nmax=4, mmax=4)
    bids = rand_bids(rng, inst.n)
    base = solve_mnl_wdp(inst, bids)
    for lam in (0.5, 3.0):
        scaled = solve_mnl_wdp(inst, lam * bids)
        assert scaled.objective == pytest.approx(lam * base.objective,
                                                 rel=1e-9)


def test_ties_follow_the_documented_rule():
    inst = Instance(n=3, m=2, k=2, p=np.full((3, 2), 0.4), model=MNL)
    bids = np.array([2.0, 2.0, 2.0])
    assert solve_mnl_wdp(inst, bids).allocation.assignment == {0: 0, 1: 1}
    first = vcg(inst, bids, exact_mnl_solver())
    again = vcg(inst, bids, exact_mnl_solver())
    assert np.array_equal(first.payments, again.payments)
    assert np.array_equal(first.ctrs, again.ctrs)


def test_bid_equal_to_the_optimal_ratio_is_left_out():
    # Alone, advertiser 0 earns 2 * 1/2 = 1; adding advertiser 1 (bid 1)
    # gives (2 + 1) / 3 = 1 as well, so the bid equals the optimal ratio.
    inst = Instance(n=2, m=2, k=2, p=np.full((2, 2), 0.5), model=MNL)
    result = solve_mnl_wdp(inst, [2.0, 1.0])
    assert result.allocation.assignment == {0: 0}
    assert result.objective == 1.0


def _repro(seed, n=50, m=25):
    """k = m, p ~ U(0.01, 0.5), bids ~ U(0.1, 10), as the benchmark's MNL
    ladder draws them."""
    rng = np.random.default_rng(seed)
    p = rng.uniform(0.01, 0.5, (n, m))
    bids = rng.uniform(0.1, 10, n)
    return Instance(n=n, m=m, k=m, p=p, model=MNL), bids


def test_lp_route_guard_fires_before_the_tableau(monkeypatch):
    inst, bids = _repro(0, 200, 25)
    assert inst.n * inst.m > MAX_LP_CELLS

    def no_tableau(*_args):
        raise AssertionError("tableau built past the size guard")

    monkeypatch.setattr(mnl_wdp, "build_charnes_cooper", no_tableau)
    with pytest.raises(SizeGuardError):
        solve_mnl_lp(inst, bids)
    assert solve_mnl_wdp(inst, bids).allocation.size > 0


def test_lp_route_guard_counts_positive_bidders_only():
    inst, bids = _repro(0, 200, 25)
    assert inst.n * inst.m > MAX_LP_CELLS
    bids[8:] = 0.0  # 8 x 25 cells remain
    lp = solve_mnl_lp(inst, bids)
    assert lp.allocation == solve_mnl_wdp(inst, bids).allocation
    assert max(lp.allocation.assignment) < 8


def test_lp_route_is_exact_at_its_size_limit():
    """80x40 is MAX_LP_CELLS: Bland's rule from the LP's own vertex reaches
    the production solver's matching in a few hundred pivots."""
    inst, bids = _repro(0, 80, 40)
    assert inst.n * inst.m == MAX_LP_CELLS
    lp = solve_mnl_lp(inst, bids)
    got = solve_mnl_wdp(inst, bids)
    assert lp.allocation == got.allocation
    assert lp.objective == got.objective


def test_production_matches_lp_route():
    rng = np.random.default_rng(41)
    cases = []
    for _ in range(40):
        inst = rand_mnl_instance(rng, nmax=6, mmax=6)
        cases.append((inst, rand_bids(rng, inst.n)))
    cases += [_repro(seed, 20, 10) for seed in range(3)]
    cases += [_repro(seed, 30, 15) for seed in range(2)]
    for inst, bids in cases:
        lp = solve_mnl_lp(inst, bids)
        got = solve_mnl_wdp(inst, bids)
        assert got.allocation == lp.allocation
        assert got.objective == lp.objective


@pytest.mark.parametrize("n,m,seed", [(100, 40, 0), (100, 40, 1),
                                      (100, 40, 2), (200, 50, 0)],
                         ids=["100x40-0", "100x40-1", "100x40-2", "200x50-0"])
def test_production_matches_parametric_reference_past_lp_range(n, m, seed):
    assert n * m > MAX_LP_CELLS
    inst, bids = _repro(seed, n, m)
    got = solve_mnl_wdp(inst, bids)
    ref = dinkelbach_check(inst, bids)
    assert got.allocation == ref.allocation
    # the reference sums the CTRs in its own pair order: last-bit differences
    assert got.objective == pytest.approx(ref.objective, rel=1e-12)


def _brute_matching(weights, cap):
    """Max-weight matching by enumerating edge subsets (tiny graphs only)."""
    edges = list(weights)
    best = 0.0
    for mask in range(1 << len(edges)):
        chosen = [edges[t] for t in range(len(edges)) if mask >> t & 1]
        if len(chosen) > cap:
            continue
        if len({i for i, _ in chosen}) < len(chosen):
            continue
        if len({j for _, j in chosen}) < len(chosen):
            continue
        best = max(best, sum(weights[e] for e in chosen))
    return best


def _dense_capped_matching(weights, cap):
    """``capped_matching`` behind the dict interface of the reference."""
    n = 1 + max((i for i, _ in weights), default=-1)
    m = 1 + max((j for _, j in weights), default=-1)
    dense = np.zeros((n, m))
    for (i, j), w in weights.items():
        dense[i, j] = w
    match = capped_matching(dense, cap)
    return {i: int(j) for i, j in enumerate(match) if j >= 0}


KERNELS = pytest.mark.parametrize(
    "kernel", [max_weight_matching, _dense_capped_matching],
    ids=["max_weight_matching", "capped_matching"])


@KERNELS
def test_max_weight_matching_matches_enumeration(kernel):
    rng = np.random.default_rng(23)
    for _ in range(80):
        n = int(rng.integers(1, 5))
        m = int(rng.integers(1, 5))
        cap = int(rng.integers(1, m + 1))
        weights = {}
        for i in range(n):
            for j in range(m):
                if rng.random() < 0.7:
                    weights[(i, j)] = float(rng.uniform(0.05, 4.0))
        got = kernel(weights, cap)
        assert len(got) <= cap
        assert len(set(got.values())) == len(got)
        value = sum(weights[(i, j)] for i, j in got.items())
        assert value == pytest.approx(_brute_matching(weights, cap), abs=1e-9)


@KERNELS
def test_max_weight_matching_respects_cap(kernel):
    weights = {(0, 0): 1.0, (1, 1): 0.9, (2, 2): 0.8}
    assert kernel(weights, 1) == {0: 0}
    got = kernel(weights, 2)
    assert len(got) == 2 and got[0] == 0 and got[1] == 1


def _tie_heavy_stack(rng):
    """A quarter-step MNL instance, k often below m, and 1-8 bid rows drawn
    from a few repeated levels, zero and negative ones included."""
    n = int(rng.integers(1, 9))
    m = int(rng.integers(1, 7))
    k = int(rng.integers(1, m + 1))
    p = rng.integers(1, 4, (n, m)) / 4.0
    inst = Instance(n=n, m=m, k=k, p=p, model=MNL)
    levels = [-1.0, 0.0, 0.25, 0.5, 1.0, 2.0, 2.0, 3.0]
    return inst, rng.choice(levels, (int(rng.integers(1, 9)), n))


def _one_row_loop(inst, bids):
    """The Dinkelbach loop one row at a time on the positive bidders' rows
    only, as ``solve_mnl_wdp`` ran before it was batched."""
    bids = np.asarray(bids, dtype=float)
    keep = np.flatnonzero(bids > 0.0)
    if keep.size == 0:
        return WdpResult(Allocation({}), 0.0, np.zeros(inst.n))
    b = bids[keep]
    expo = np.exp(inst.log_odds()[keep])
    lam = 0.0
    for _ in range(100):
        match = capped_matching((b - lam)[:, None] * expo, inst.k)
        rows = np.flatnonzero(match >= 0)
        e = expo[rows, match[rows]]
        new_lam = float(b[rows] @ e) / (1.0 + float(e.sum()))
        if new_lam - lam <= DINKELBACH_TOL:
            break
        lam = new_lam
    else:
        raise AssertionError("reference loop did not settle")
    alloc = Allocation(dict(zip(keep[rows].tolist(), match[rows].tolist())))
    # mnl_ctr's arithmetic, its sum taken sequentially in advertiser order
    odds = {i: inst.p[i, j] / (1.0 - inst.p[i, j])
            for i, j in sorted(alloc.assignment.items())}
    total = 1.0 + functools.reduce(operator.add, odds.values(), 0.0)
    pi = np.zeros(inst.n)
    for i, w in odds.items():
        pi[i] = w / total
    return mnl_wdp._result(bids, alloc, pi)


def test_solves_and_ctr_rows_equal_the_recorded_pack():
    """Recorded outputs on a seeded pack: ``solve_mnl_wdp``'s allocation,
    objective and CTRs on random, tie-heavy (quarter-step rates, repeated,
    zero and negative bids) and wide instances (16 to 20 matched), and the
    exact MNL handle's ``solve_rows`` CTRs on audit-shaped stacks, where each
    advertiser's bid in turn runs along the audit grid.  Each must come out
    ``==``."""
    pack = json.loads((Path(__file__).parent
                       / "mnl_solve_pack.json").read_text())
    assert sum(len(c["allocation"]) >= 16 for c in pack["solves"]) >= 20
    for case in pack["solves"]:
        inst = instance_from_dict(case["instance"])
        got = solve_mnl_wdp(inst, case["bids"])
        assert got.allocation.pairs() == [tuple(ij)
                                          for ij in case["allocation"]]
        assert repr(got.objective) == case["objective"]
        assert got.ctrs.tolist() == case["ctrs"]
    solve_rows = exact_mnl_solver().solve_rows
    for case in pack["ctr_rows"]:
        inst = instance_from_dict(case["instance"])
        rows = np.tile(case["template"], (inst.n, len(case["grid"]), 1))
        for i in range(inst.n):
            rows[i, :, i] = case["grid"]
        got, _outcome = solve_rows(inst, rows.reshape(-1, inst.n))
        assert got.tolist() == case["ctr_rows"]


def _allocation(match):
    """The ``Allocation`` of one row of ``solve_mnl_wdp_rows``."""
    return Allocation({i: int(j) for i, j in enumerate(match) if j >= 0})


def test_batched_rows_equal_one_solve_per_row(monkeypatch):
    stacks = []

    def recording(weights, k):
        stacks.append(np.shape(weights)[0])
        return capped_matching(weights, k)

    monkeypatch.setattr(mnl_wdp, "capped_matching", recording)
    solve_rows = exact_mnl_solver().solve_rows
    rng = np.random.default_rng(61)
    staggered = 0
    for _ in range(300):
        inst, rows = _tie_heavy_stack(rng)
        stacks.clear()
        got = solve_mnl_wdp_rows(inst, rows)
        # the stack shrank but stayed non-empty: rows settled at different
        # Dinkelbach steps within one batch
        staggered += any(0 < b < a for a, b in zip(stacks, stacks[1:]))
        assert got.shape == (len(rows), inst.n)
        ctrs, _outcome = solve_rows(inst, rows)
        assert ctrs.shape == got.shape
        for match, ctr, bids in zip(got, ctrs, rows):
            alone = solve_mnl_wdp(inst, bids)
            ref = _one_row_loop(inst, bids)
            assert _allocation(match) == alone.allocation == ref.allocation
            assert alone.objective == ref.objective
            assert np.array_equal(ctr, alone.ctrs)
            assert np.array_equal(alone.ctrs, ref.ctrs)
    assert staggered > 20
    one = Instance(n=1, m=1, k=1, p=[[0.5]], model=MNL)
    assert solve_mnl_wdp_rows(one, np.empty((0, 1))).shape == (0, 1)
    assert solve_rows(one, np.empty((0, 1)))[0].shape == (0, 1)


def test_stacked_matching_equals_one_call_per_block():
    rng = np.random.default_rng(67)
    levels = np.array([-1.0, 0.0, 0.0, 0.25, 0.5, 0.5, 1.0, 1.75])
    for _ in range(300):
        blocks = int(rng.integers(1, 7))
        n = int(rng.integers(1, 7))
        m = int(rng.integers(1, 6))
        k = int(rng.integers(1, m + 1))
        stack = rng.choice(levels, (blocks, n, m))
        stack[rng.integers(blocks)] = rng.choice([-2.0, -0.5, 0.0], (n, m))
        got = capped_matching(stack, k)
        assert got.shape == (blocks, n)
        for block, row in zip(stack, got):
            assert np.array_equal(row, capped_matching(block, k))


def test_chunked_stacks_equal_one_union(monkeypatch):
    """Under small cell budgets a stack is matched in several chunks, and
    ``solve_mnl_wdp_rows`` solves its rows in several chunks; the
    matchings, and every batched solve built on them, are ``==`` those of
    the whole stack matched as one union."""
    rng = np.random.default_rng(73)
    solve_rows = exact_mnl_solver().solve_rows
    cases = []
    for _ in range(150):
        blocks, n = int(rng.integers(2, 9)), int(rng.integers(1, 7))
        m = int(rng.integers(1, 6))
        k = int(rng.integers(1, m + 1))
        stack = rng.choice([-1.0, 0.0, 0.25, 0.5, 0.5, 1.0, 1.75],
                           (blocks, n, m))
        inst, rows = _tie_heavy_stack(rng)
        cases.append((stack, k, capped_matching(stack, k), inst, rows,
                      solve_mnl_wdp_rows(inst, rows),
                      solve_rows(inst, rows)[0]))
    chunks = []

    def counted(stack, k):
        chunks.append(len(stack))
        return capped_matching(stack, k)

    monkeypatch.setattr(mnl_wdp, "capped_matching", counted)
    for budget in (1, 20, 90):
        monkeypatch.setattr(mnl_wdp, "STACK_CELLS", budget)
        monkeypatch.setattr(mnl_wdp, "ROW_CELLS", budget)
        for stack, k, whole, inst, rows, solved, ctrs in cases:
            chunks.clear()
            got = capped_matching(stack, k)
            assert got.shape == whole.shape and np.array_equal(got, whole)
            n, m = stack.shape[1:]
            per = max(1, int(np.sqrt(budget // (n * m))))
            assert chunks == ([min(per, len(stack) - lo)
                               for lo in range(0, len(stack), per)]
                              if per < len(stack) else [])
            got = solve_mnl_wdp_rows(inst, rows)
            assert got.shape == solved.shape and np.array_equal(got, solved)
            assert np.array_equal(solve_rows(inst, rows)[0], ctrs)


def test_infinite_weights_and_bids_are_rejected():
    with pytest.raises(ValidationError):
        capped_matching(np.array([[1.0, np.inf]]), 1)
    with pytest.raises(ValidationError):
        capped_matching(np.ones((2, 2, 2)) * [[[1.0], [np.inf]]], 2)
    inst = Instance(n=2, m=1, k=1, p=[[0.5], [0.5]], model=MNL)
    with pytest.raises(ValidationError):
        solve_mnl_wdp(inst, [np.inf, 1.0])


def test_bids_whose_weights_overflow_are_rejected_by_name():
    """A finite bid times its odds, or the k largest such products of a
    row summed, past the float range: rejected before any matching, naming
    the bid."""
    inst = Instance(n=2, m=2, k=2, p=np.full((2, 2), 0.9), model=MNL)
    for bids, i in (([1e308, 1.0], 0), ([1.0, 1.5e307 * 9.0], 1),
                    ([1.5e307, 1.5e307], 1), ([np.inf, 1.0], 0)):
        named = re.escape(f"bid {bids[i]!r} of advertiser {i} ")
        with pytest.raises(ValidationError, match=named):
            solve_mnl_wdp(inst, bids)
        with pytest.raises(ValidationError, match=named):
            solve_mnl_wdp_rows(inst, [[1.0, 2.0], bids])


def test_bids_that_cannot_overflow_are_solved():
    """Only the k largest bid-times-odds products of a row can be matched
    at once, and weights below lam are no edge: none of these overflows."""
    inst = Instance(n=2, m=2, k=2, p=np.full((2, 2), 0.9), model=MNL)
    big = solve_mnl_wdp(inst, [1e306, 1.0])
    assert big.allocation.assignment == {0: 0}
    assert big.objective == 1e306 * 0.9
    # two weights of 1.35e308 each, but k = 1 matches only one of them
    one = Instance(n=2, m=1, k=1, p=[[0.9], [0.9]], model=MNL)
    got = solve_mnl_wdp(one, [1.5e307, 1.5e307])
    assert got.allocation.assignment == {0: 0}
    assert repr(got.objective) == "1.3499999999999999e+307"
    assert got.ctrs.tolist() == [0.9, 0.0]
    assert solve_mnl_wdp_rows(one, [[1.5e307, 1.5e307]]).tolist() == [[0, -1]]
    # an advertiser with no odds anywhere has no edge, whatever its bid
    zero = Instance(n=2, m=2, k=2, p=[[0.0, 0.0], [0.5, 0.2]], model=MNL)
    got = solve_mnl_wdp(zero, [np.inf, 1.0])
    assert got.allocation.assignment == {1: 0}
    assert got.objective == 0.5 and got.ctrs.tolist() == [0.0, 0.5]
    # lam = 5e299 less a bid of 1, times odds of 1e9: below -1e308, no edge
    steep = Instance(n=2, m=1, k=1, p=[[0.5], [1 - 1e-9]], model=MNL)
    got = solve_mnl_wdp(steep, [1e300, 1.0])
    assert got.allocation.assignment == {0: 0}
    assert got.objective == 1e300 * 0.5


def test_exact_routes_accept_and_reject_the_same_bids():
    """Both exact routes, and the LP's own builder, read bids through
    ``core.mnl_bids``: an overflowing bid is rejected by each with the same
    message, and +inf on an advertiser with no odds is zeroed by each,
    never multiplied."""
    inst = Instance(n=2, m=2, k=2, p=np.full((2, 2), 0.9), model=MNL)
    messages = set()
    for solve in (solve_mnl_wdp, solve_mnl_lp, build_charnes_cooper):
        with pytest.raises(ValidationError, match="past the float range") as err:
            solve(inst, [1e308, 1.0])
        messages.add(str(err.value))
    assert len(messages) == 1
    zero = Instance(n=2, m=2, k=2, p=[[0.0, 0.0], [0.5, 0.4]], model=MNL)
    wdp, lp = (solve(zero, [np.inf, 1.0])
               for solve in (solve_mnl_wdp, solve_mnl_lp))
    assert wdp.allocation.assignment == lp.allocation.assignment == {1: 0}
    assert wdp.objective == lp.objective == 0.5
    assert wdp.ctrs.tolist() == lp.ctrs.tolist() == [0.0, 0.5]


def test_minus_infinite_bid_is_never_matched_nor_counted():
    inst = Instance(n=2, m=1, k=1, p=[[0.3], [0.4]], model=MNL)
    for solve in (solve_mnl_wdp, dinkelbach_check):
        result = solve(inst, [-np.inf, 1.0])
        assert result.allocation.assignment == {1: 0}
        assert result.objective == 0.4
