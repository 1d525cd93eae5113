import itertools

import numpy as np
import pytest

from slotauction.cascade_wdp import sorted_view
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
from slotauction.oracle import (
    MAX_CELLS,
    _matching_table,
    brute_force_restricted,
    brute_force_wdp_cascade,
    brute_force_wdp_mnl,
    enumerate_matchings,
)
from conftest import rand_bids, rand_cascade_instance, tie_heavy_cascade_case


def count(inst):
    return sum(1 for _ in enumerate_matchings(inst))


def test_matching_counts():
    assert count(Instance(1, 1, 1, [[0.5]], MNL)) == 2
    flat = np.full((2, 2), 0.5)
    assert count(Instance(2, 2, 2, flat, MNL)) == 7
    assert count(Instance(2, 2, 1, flat, MNL)) == 5


def test_matchings_are_distinct_and_feasible():
    inst = Instance(3, 3, 2, np.full((3, 3), 0.5), MNL)
    seen = set()
    for alloc in enumerate_matchings(inst):
        key = frozenset(alloc.assignment.items())
        assert key not in seen
        seen.add(key)
        assert alloc.size <= inst.k
    assert len(seen) == count(inst)


def test_size_guard_is_hard():
    inst = Instance(7, 6, 6, np.full((7, 6), 0.5), MNL)
    with pytest.raises(SizeGuardError):
        next(iter(enumerate_matchings(inst)))


def test_mnl_brute_lone_ad():
    inst = Instance(1, 1, 1, [[0.5]], MNL)
    result = brute_force_wdp_mnl(inst, [2.0])
    assert result.allocation.assignment == {0: 0}
    assert result.objective == pytest.approx(1.0)


def test_mnl_brute_empty_when_bids_nonpositive():
    inst = Instance(2, 2, 2, np.full((2, 2), 0.5), MNL)
    result = brute_force_wdp_mnl(inst, [0.0, -1.0])
    assert result.allocation.assignment == {}
    assert result.objective == 0.0


def test_cascade_brute_single_ad():
    inst = Instance(1, 1, 1, [[0.6]], CASCADE)
    chi, w = brute_force_wdp_cascade(inst, [3.0])
    assert chi.allocation.assignment == {0: 0}
    assert w == pytest.approx(1.8)


def test_cascade_two_ads_cascading_welfare():
    inst = Instance(2, 2, 2, [[0.5, 0.5], [0.4, 0.4]], CASCADE)
    chi, w = brute_force_wdp_cascade(inst, [1.0, 1.0])
    # both matched, better ad first: 0.5 + 0.5 * 0.4
    assert w == pytest.approx(0.5 + 0.5 * 0.4)


def test_paranoid_mode_agrees_with_sorted_mode():
    """Rendering each matching in value order loses no welfare against
    scoring every rendering order of every matching."""
    rng = np.random.default_rng(83)
    for _ in range(30):
        inst = rand_cascade_instance(rng, nmax=3, mmax=3)
        values = rand_bids(rng, inst.n, top=5.0)
        _, sorted_w = brute_force_wdp_cascade(inst, values)
        _, paranoid_w = _reference_paranoid(inst, values)
        assert abs(sorted_w - paranoid_w) <= 1e-12


def test_restricted_brute_single_ad():
    inst = Instance(1, 1, 1, [[0.6]], CASCADE)
    alloc, w = brute_force_restricted(inst, [3.0])
    assert alloc.assignment == {0: 0}
    assert w == pytest.approx(1.8)


def test_oracles_invariant_to_index_relabeling():
    rng = np.random.default_rng(89)
    inst = rand_cascade_instance(rng, nmax=4, mmax=4)
    values = rand_bids(rng, inst.n, top=5.0)
    _, w = brute_force_wdp_cascade(inst, values)
    perm = rng.permutation(inst.n)
    shuffled = Instance(
        n=inst.n, m=inst.m, k=inst.k, p=inst.p[perm, :], model=CASCADE
    )
    _, w_shuffled = brute_force_wdp_cascade(shuffled, values[perm])
    assert w == pytest.approx(w_shuffled, abs=1e-12)


def test_model_mismatch_is_validation_error():
    mnl = Instance(1, 1, 1, [[0.5]], MNL)
    cascade = Instance(1, 1, 1, [[0.5]], CASCADE)
    with pytest.raises(ValidationError):
        brute_force_wdp_mnl(cascade, [1.0])
    with pytest.raises(ValidationError):
        brute_force_wdp_cascade(mnl, [1.0])
    with pytest.raises(ValidationError):
        brute_force_restricted(mnl, [1.0])


@pytest.mark.parametrize("length", [2, 4])
def test_value_count_must_match_advertisers(length):
    cascade = Instance(3, 2, 2, np.full((3, 2), 0.5), CASCADE)
    mnl = Instance(3, 2, 2, np.full((3, 2), 0.5), MNL)
    values = [1.0] * length
    with pytest.raises(ValidationError):
        brute_force_wdp_cascade(cascade, values)
    with pytest.raises(ValidationError):
        brute_force_restricted(cascade, values)
    with pytest.raises(ValidationError):
        brute_force_wdp_mnl(mnl, values)


# The search as it was written before the matching table: a recursive
# generator over one reused advertiser -> position dict, and one
# best-so-far loop per oracle.  The table and the tie rule must reproduce
# it exactly.

def _reference_matchings(n, m, k, candidates):
    def recurse(j, used):
        if j == m:
            yield used
            return
        yield from recurse(j + 1, used)
        if len(used) < k:
            for i in candidates:
                if i not in used:
                    used[i] = j
                    yield from recurse(j + 1, used)
                    del used[i]

    yield from recurse(0, {})


def _reference_mnl(inst, bids):
    bids = np.asarray(bids, dtype=float)
    expo = np.exp(inst.log_odds())
    weighted = bids[:, None] * expo
    best_obj, best = 0.0, {}
    for raw in _reference_matchings(inst.n, inst.m, inst.k, range(inst.n)):
        num, den = 0.0, 1.0
        for i, j in raw.items():
            num += weighted[i, j]
            den += expo[i, j]
        obj = float(num / den)
        if obj > best_obj + 1e-15:
            best_obj, best = obj, dict(raw)
    return best, best_obj


def _reference_cascade(inst, values, candidates):
    order, p = sorted_view(values), inst.p
    best_w, best = 0.0, {}
    for raw in _reference_matchings(inst.n, inst.m, inst.k, candidates):
        survive, w = 1.0, 0.0
        for i in order:
            j = raw.get(i)
            if j is None:
                continue
            pij = p[i, j]
            w += values[i] * pij * survive
            survive *= 1.0 - pij
        if w > best_w + 1e-15:
            best_w, best = float(w), dict(raw)
    return best, best_w


def _reference_paranoid(inst, values):
    empty = AugmentedAllocation(Allocation({}), Permutation({}))
    best = (empty, 0.0)
    for raw in _reference_matchings(inst.n, inst.m, inst.k, range(inst.n)):
        alloc = Allocation(dict(raw))
        for perm in itertools.permutations(alloc.assignment.values()):
            sigma = Permutation({j: r + 1 for r, j in enumerate(perm)})
            chi = AugmentedAllocation(alloc, sigma)
            w = welfare(values, cascade_ctr(inst, chi))
            if w > best[1] + 1e-15:
                best = (chi, w)
    return best


def _reference_restricted(inst, values):
    order, p = sorted_view(values), inst.p
    best_w, best = 0.0, {}
    for raw in _reference_matchings(inst.n, inst.m, inst.k, range(inst.n)):
        headroom, w = 1.0, 0.0
        for i in order:
            j = raw.get(i)
            if j is None:
                continue
            grant = min(p[i, j], headroom)
            w += values[i] * grant
            headroom -= grant
        if w > best_w + 1e-15:
            best_w, best = float(w), dict(raw)
    return best


def _items(alloc):
    return list(alloc.assignment.items())


def test_table_order_equals_the_recursive_generator():
    for n in range(1, MAX_CELLS + 1):
        for m in range(1, MAX_CELLS // n + 1):
            for k in range(1, m + 1):
                expected = [
                    tuple(raw.get(i, -1) for i in range(n))
                    for raw in _reference_matchings(n, m, k, range(n))
                ]
                assert list(_matching_table(n, m, k)) == expected


def test_oracles_equal_the_reference_loops():
    """Two thirds of the cases are tie-heavy; draws above the guard check
    that it still raises.  The cascade oracle over every advertiser is also
    checked against the reference over the positive bidders, on the drawn
    values and with some set to +-inf.  The streamed order is compared up to
    16 cells and the welfare against every rendering order up to 9, which
    keeps the test to a few seconds."""
    rng, infs = np.random.default_rng(409), np.random.default_rng(419)
    compared = tie_heavy = 0
    for case in range(1200):
        if case % 3:
            inst, values = tie_heavy_cascade_case(rng)
        else:
            inst = rand_cascade_instance(rng)
            values = rand_bids(rng, inst.n, top=5.0)
        if inst.n * inst.m > MAX_CELLS:
            with pytest.raises(SizeGuardError):
                brute_force_wdp_cascade(inst, values)
            continue
        compared += 1
        tie_heavy += bool(case % 3)

        best, best_w = _reference_cascade(inst, values, range(inst.n))
        chi, w = brute_force_wdp_cascade(inst, values)
        assert _items(chi.allocation) == list(best.items()), case
        assert w == best_w, case
        # over every advertiser the oracle picks what the reference picks
        # over the positive bidders alone, with +-inf bids too: no pick
        # matches a bid <= 0, as brute_solve_rows' tie argument says
        infinite = np.where(infs.random(inst.n) < 0.3,
                            infs.choice([np.inf, -np.inf], inst.n), values)
        for row in (values, infinite):
            with np.errstate(invalid="ignore"):  # +-inf * 0.0, inf - inf
                best, best_w = _reference_cascade(
                    inst, row, np.flatnonzero(row > 0.0).tolist())
            chi, w = brute_force_wdp_cascade(inst, row)
            assert _items(chi.allocation) == list(best.items()), (case, row)
            assert w == best_w, (case, row)

        if inst.n * inst.m <= 16:
            streamed = [_items(a) for a in enumerate_matchings(inst)]
            assert streamed == [
                list(raw.items()) for raw in _reference_matchings(
                    inst.n, inst.m, inst.k, range(inst.n))
            ], case

        alloc, w = brute_force_restricted(inst, values)
        assert _items(alloc) == list(
            _reference_restricted(inst, values).items()), case

        if inst.n * inst.m <= 9:
            _chi, w = brute_force_wdp_cascade(inst, values)
            _ref_chi, ref_w = _reference_paranoid(inst, values)
            assert abs(w - ref_w) <= 1e-12, case

        mnl = Instance(inst.n, inst.m, inst.k,
                       np.clip(inst.p, 0.01, 0.6), MNL)
        result = brute_force_wdp_mnl(mnl, values)
        best, best_obj = _reference_mnl(mnl, values)
        assert _items(result.allocation) == list(best.items()), case
        assert result.objective == best_obj, case
    assert compared >= 1000 and 2 * tie_heavy >= compared


def test_infinite_values_stay_accepted():
    # NaN is rejected (no order); +-inf are ordered, so the oracles take them
    inst = Instance(3, 2, 2, np.full((3, 2), 0.5), CASCADE)
    chi, w = brute_force_wdp_cascade(inst, [np.inf, 1.0, -np.inf])
    assert chi.allocation.position_of(0) is not None and w == np.inf
    alloc, _w = brute_force_restricted(inst, [1.0, np.inf, 2.0])
    assert alloc.position_of(1) is not None
