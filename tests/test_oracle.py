import numpy as np
import pytest

from slotauction.core import (
    CASCADE,
    Instance,
    MNL,
    SizeGuardError,
    ValidationError,
)
from slotauction.oracle import (
    brute_force_restricted,
    brute_force_wdp_cascade,
    brute_force_wdp_mnl,
    enumerate_matchings,
)
from conftest import rand_bids, rand_cascade_instance


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


def test_active_filter_restricts_advertisers():
    inst = Instance(3, 2, 2, np.full((3, 2), 0.5), MNL)
    for alloc in enumerate_matchings(inst, active={1}):
        assert set(alloc.assignment) <= {1}


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
    rng = np.random.default_rng(83)
    for _ in range(30):
        inst = rand_cascade_instance(rng, nmax=3, mmax=3)
        values = rand_bids(rng, inst.n, top=5.0)
        _, sorted_w = brute_force_wdp_cascade(inst, values)
        _, paranoid_w = brute_force_wdp_cascade(inst, values, paranoid=True)
        assert sorted_w == pytest.approx(paranoid_w, abs=1e-12)


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
