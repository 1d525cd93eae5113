import json
import sys
import warnings

import numpy as np
import pytest

from slotauction.core import (
    Allocation,
    AugmentedAllocation,
    CASCADE,
    Instance,
    InfeasibleAllocationError,
    MNL,
    Permutation,
    ValidationError,
    bid_rows,
    bid_vector,
    cascade_ctr,
    check_feasible,
    instance_from_dict,
    instance_to_dict,
    mnl_ctr,
    require_valid,
    validate_instance,
    welfare,
)
from slotauction import mnl_wdp
from slotauction.cascade_wdp import (
    budgeted_ctr,
    exact_budgeted_matching,
    greedy_picks,
    ptas_restricted_welfare,
    restricted_ctr,
)
from slotauction.mechanisms import (
    brute_cascade_solver,
    exact_mnl_solver,
    greedy_cascade_solver,
    monotonicity_audit,
    vcg,
)
from slotauction.mnl_wdp import dinkelbach_check, solve_mnl_lp, solve_mnl_wdp
from slotauction.oracle import (
    brute_force_restricted,
    brute_force_wdp_cascade,
    brute_force_wdp_mnl,
)
from conftest import rand_cascade_instance, rand_mnl_instance, rand_allocation


def test_validate_minimal_instance_ok():
    inst = Instance(n=1, m=1, k=1, p=[[0.5]], model=MNL)
    assert validate_instance(inst) is None


def test_validate_ctr_out_of_range():
    inst = Instance(n=1, m=1, k=1, p=[[1.2]], model=MNL)
    assert "out of range" in validate_instance(inst)


def test_validate_mnl_rejects_certain_click():
    inst = Instance(n=1, m=1, k=1, p=[[1.0]], model=MNL)
    assert "log-odds" in validate_instance(inst)
    # the same matrix is fine under the cascade model
    assert validate_instance(Instance(1, 1, 1, [[1.0]], CASCADE)) is None


def test_validate_k_bounds():
    assert "K=2" in validate_instance(Instance(1, 1, 2, [[0.5]], MNL))
    assert "K=0" in validate_instance(Instance(1, 1, 0, [[0.5]], MNL))


@pytest.mark.parametrize("model", [CASCADE, MNL])
@pytest.mark.parametrize("name, dims", [
    ("k", {"n": 2, "m": 2, "k": 1.5}),
    ("n", {"n": 2.0, "m": 2, "k": 1}),
    ("m", {"n": 2, "m": 2.0, "k": 1}),
    ("k", {"n": 2, "m": 2, "k": np.float64(1.0)}),
    ("n", {"n": True, "m": 2, "k": 1}),
    ("k", {"n": 2, "m": 2, "k": True}),
], ids=["k-1.5", "n-2.0", "m-2.0", "k-float64", "n-True", "k-True"])
def test_instance_dimensions_must_be_integers(model, name, dims):
    """n, m and k must be integers, no bool: a fractional k would let the
    oracle match more pairs than ``check_feasible`` allows, and on MNL a
    float n or k reaches numpy as an index.  Both ``require_valid`` and the
    solvers refuse them."""
    rows = int(dims["n"])
    p = np.full((rows, int(dims["m"])), 0.4)
    solve = brute_force_wdp_cascade if model == CASCADE else solve_mnl_wdp
    match = f"{name} must be an integer"
    with pytest.raises(ValidationError, match=match):
        require_valid(Instance(**dims, p=p, model=model))
    with pytest.raises(ValidationError, match=match):
        solve(Instance(**dims, p=p, model=model), [1.0] * rows)


def test_numpy_integer_dimensions_stay_accepted():
    p, bids = [[0.5, 0.4], [0.4, 0.5]], [1.0, 2.0]
    wide = (np.int64(2), np.int32(2), np.int8(1))
    assert brute_force_wdp_cascade(Instance(*wide, p, CASCADE), bids) \
        == brute_force_wdp_cascade(Instance(2, 2, 1, p, CASCADE), bids)
    got = solve_mnl_wdp(Instance(*wide, p, MNL), bids)
    want = solve_mnl_wdp(Instance(2, 2, 1, p, MNL), bids)
    assert (got.allocation, got.objective) == (want.allocation, want.objective)


def test_allocation_rejects_position_reuse():
    with pytest.raises(ValidationError):
        Allocation({0: 1, 1: 1})


def test_check_feasible_enforces_cap_and_range():
    inst = Instance(n=2, m=2, k=1, p=[[0.5, 0.5]] * 2, model=MNL)
    with pytest.raises(InfeasibleAllocationError):
        check_feasible(inst, Allocation({0: 0, 1: 1}))
    with pytest.raises(InfeasibleAllocationError):
        check_feasible(inst, Allocation({0: 5}))


def test_permutation_must_be_contiguous_ranks():
    with pytest.raises(ValidationError):
        Permutation({3: 1, 4: 3})
    assert Permutation({3: 2, 4: 1}).order() == [4, 3]


def test_augmented_allocation_domains_must_match():
    with pytest.raises(ValidationError):
        AugmentedAllocation(Allocation({0: 0}), Permutation({1: 1}))


def test_mnl_lone_ad_recovers_standalone_rate():
    inst = Instance(n=1, m=1, k=1, p=[[0.5]], model=MNL)
    pi = mnl_ctr(inst, Allocation({0: 0}))
    assert pi[0] == pytest.approx(0.5, abs=1e-12)


def test_mnl_two_symmetric_ads_split_to_thirds():
    inst = Instance(n=2, m=2, k=2, p=[[0.5, 0.5]] * 2, model=MNL)
    pi = mnl_ctr(inst, Allocation({0: 0, 1: 1}))
    np.testing.assert_allclose(pi, [1 / 3, 1 / 3])


def test_mnl_two_by_two_example():
    # odds are 4 and 0.25, so rates are 4/5.25 and 0.25/5.25
    inst = Instance(n=2, m=2, k=2, p=[[0.8, 0.5], [0.5, 0.2]], model=MNL)
    pi = mnl_ctr(inst, Allocation({0: 0, 1: 1}))
    np.testing.assert_allclose(pi, [4 / 5.25, 0.25 / 5.25], atol=1e-12)


def test_mnl_total_rate_stays_below_one():
    rng = np.random.default_rng(7)
    for _ in range(50):
        inst = rand_mnl_instance(rng)
        alloc = rand_allocation(rng, inst)
        pi = mnl_ctr(inst, alloc)
        assert pi.sum() < 1.0
        for i in range(inst.n):
            if alloc.position_of(i) is None:
                assert pi[i] == 0.0


def test_mnl_newcomer_dilutes_incumbents():
    inst = Instance(n=2, m=2, k=2, p=[[0.6, 0.6], [0.3, 0.3]], model=MNL)
    before = mnl_ctr(inst, Allocation({0: 0}))
    after = mnl_ctr(inst, Allocation({0: 0, 1: 1}))
    assert after[0] < before[0]


def test_cascade_lone_ad_no_discount():
    inst = Instance(n=1, m=1, k=1, p=[[0.5]], model=CASCADE)
    chi = AugmentedAllocation(Allocation({0: 0}), Permutation({0: 1}))
    assert cascade_ctr(inst, chi)[0] == pytest.approx(0.5)


def test_cascade_order_matters():
    inst = Instance(n=2, m=2, k=2, p=[[0.5, 0.0], [0.0, 0.4]], model=CASCADE)
    alloc = Allocation({0: 0, 1: 1})
    first = AugmentedAllocation(alloc, Permutation({0: 1, 1: 2}))
    np.testing.assert_allclose(cascade_ctr(inst, first), [0.5, 0.2])
    swapped = AugmentedAllocation(alloc, Permutation({0: 2, 1: 1}))
    np.testing.assert_allclose(cascade_ctr(inst, swapped), [0.3, 0.4])


def test_cascade_total_rate_at_most_one():
    rng = np.random.default_rng(11)
    for _ in range(50):
        inst = rand_cascade_instance(rng)
        alloc = rand_allocation(rng, inst)
        ranks = {j: r + 1 for r, j in enumerate(alloc.assignment.values())}
        chi = AugmentedAllocation(alloc, Permutation(ranks))
        pi = cascade_ctr(inst, chi)
        assert np.all(pi >= 0.0)
        assert pi.sum() <= 1.0 + 1e-12


def test_cascade_relabeling_permutes_consistently():
    rng = np.random.default_rng(13)
    inst = rand_cascade_instance(rng, nmax=4, mmax=4)
    alloc = Allocation({i: i for i in range(min(inst.n, inst.m, inst.k))})
    positions = list(alloc.assignment.values())
    base = None
    for shift in range(len(positions)):
        rolled = positions[shift:] + positions[:shift]
        chi = AugmentedAllocation(
            alloc, Permutation({j: r + 1 for r, j in enumerate(rolled)})
        )
        pi = cascade_ctr(inst, chi)
        assert pi.sum() <= 1.0 + 1e-12
        if base is None:
            base = pi
        elif shift and len(positions) > 1:
            assert not np.allclose(pi, base) or np.allclose(
                inst.p, inst.p[0, 0]
            )


def test_welfare_is_dot_product():
    assert welfare([2.0, 1.0], [0.5, 0.2]) == pytest.approx(1.2)
    assert welfare([1.0, 1.0], [0.8, 0.16]) == pytest.approx(0.96)
    assert welfare([5.0, 3.0], [0.0, 0.0]) == 0.0


def test_welfare_length_mismatch():
    with pytest.raises(ValidationError):
        welfare([1.0], [0.5, 0.5])


def test_empty_allocation_is_feasible_and_worthless():
    inst = Instance(n=2, m=2, k=2, p=[[0.5, 0.5]] * 2, model=MNL)
    pi = mnl_ctr(inst, Allocation({}))
    assert welfare([3.0, 4.0], pi) == 0.0


def test_instance_json_round_trip():
    inst = Instance(n=2, m=3, k=2, p=np.full((2, 3), 0.25), model=CASCADE)
    again = instance_from_dict(instance_to_dict(inst))
    assert again.n == 2 and again.m == 3 and again.k == 2
    assert again.model == CASCADE
    np.testing.assert_array_equal(again.p, inst.p)


def test_instance_to_dict_writes_json_for_numpy_dimensions():
    inst = Instance(n=np.int64(2), m=np.int64(3), k=np.int64(2),
                    p=np.full((2, 3), 0.25), model=CASCADE)
    again = instance_from_dict(json.loads(json.dumps(instance_to_dict(inst))))
    assert (again.n, again.m, again.k) == (2, 3, 2)
    np.testing.assert_array_equal(again.p, inst.p)


def test_instance_from_dict_validates():
    with pytest.raises(ValidationError):
        instance_from_dict({"n": 1, "m": 1, "k": 1, "model": "mnl",
                            "p": [[1.0]]})
    with pytest.raises(ValidationError):
        instance_from_dict({"n": 1, "m": 1, "model": "mnl", "p": [[0.5]]})
    # Each change below is a JSON type the schema does not allow; a reader
    # that converted it would build a different auction than the file's.
    base = {"n": 3, "m": 2, "k": 2, "model": "cascade",
            "p": [[0.5, 0.4], [0.3, 0.2], [0.1, 0.6]]}
    assert instance_from_dict(base).k == 2
    for change in ({"n": 3.9}, {"k": 1.7}, {"k": True}, {"m": "2"},
                   {"p": [[0.5, "0.8"], [0.3, 0.2], [0.1, 0.6]]},
                   {"p": [[0.5, True], [0.3, 0.2], [0.1, 0.6]]},
                   {"p": [[0.5, 0.4], [0.3], [0.1, 0.6]]}):
        with pytest.raises(ValidationError, match="malformed instance"):
            instance_from_dict({**base, **change})
    with pytest.raises(ValidationError, match="malformed instance"):
        instance_from_dict(list(base.values()))


def test_instance_matrix_is_read_only():
    inst = Instance(n=1, m=1, k=1, p=[[0.5]], model=MNL)
    with pytest.raises(ValueError):
        inst.p[0, 0] = 0.9


# -------------------------------------------------------------- entry check

_CERTAIN_MNL = Instance(2, 2, 2, [[1.0, 0.5], [0.5, 0.5]], MNL)
_MNL3 = Instance(3, 2, 2, np.full((3, 2), 0.5), MNL)
_CASCADE3 = Instance(3, 2, 2, np.full((3, 2), 0.5), CASCADE)
_CAPPED = Instance(2, 2, 1, np.full((2, 2), 0.5), CASCADE)
_CASES = {
    "solve_mnl_wdp-certain-click":
        (ValidationError, lambda: solve_mnl_wdp(_CERTAIN_MNL, [1.0, 1.0])),
    "solve_mnl_lp-certain-click":
        (ValidationError, lambda: solve_mnl_lp(_CERTAIN_MNL, [1.0, 1.0])),
    "dinkelbach_check-certain-click":
        (ValidationError, lambda: dinkelbach_check(_CERTAIN_MNL, [1.0, 1.0])),
    "vcg-certain-click": (ValidationError, lambda: vcg(
        _CERTAIN_MNL, [1.0, 1.0], exact_mnl_solver())),
    "dinkelbach_check-2-bids":
        (ValidationError, lambda: dinkelbach_check(_MNL3, [1.0] * 2)),
    "dinkelbach_check-4-bids":
        (ValidationError, lambda: dinkelbach_check(_MNL3, [1.0] * 4)),
    "restricted_ctr-out-of-range": (InfeasibleAllocationError, lambda:
        restricted_ctr(_CAPPED, Allocation({0: 5}), [1.0, 1.0])),
    "restricted_ctr-over-cap": (InfeasibleAllocationError, lambda:
        restricted_ctr(_CAPPED, Allocation({0: 0, 1: 1}), [1.0, 1.0])),
    "budgeted_ctr-out-of-range": (InfeasibleAllocationError, lambda:
        budgeted_ctr(_CAPPED, Allocation({0: 5}))),
    "budgeted_ctr-over-cap": (InfeasibleAllocationError, lambda:
        budgeted_ctr(_CAPPED, Allocation({0: 0, 1: 1}))),
    "brute_cascade_solver-short-bids": (ValidationError, lambda:
        brute_cascade_solver().solve(_CASCADE3, np.ones(2))),
    "exact_budgeted_matching-scaled-shape": (ValidationError, lambda:
        exact_budgeted_matching(_CAPPED, [1.0, 1.0], np.ones((2, 1)))),
    "monotonicity_audit-advertiser-n": (ValidationError, lambda:
        monotonicity_audit(exact_mnl_solver(), _MNL3, np.ones(3), 3, [1.0])),
    "greedy_picks-mnl": (ValidationError, lambda:
        greedy_picks(_MNL3, np.ones(3))),
}
# NaN has no place in a value order, so every oracle, search and solver
# handle that sorts by value rejects it.
_NAN = [1.0, np.nan, 2.0]
_CASES.update({
    "ptas_restricted_welfare-nan": (ValidationError, lambda:
        ptas_restricted_welfare(_CASCADE3, _NAN, 0.1)),
    "exact_budgeted_matching-nan": (ValidationError, lambda:
        exact_budgeted_matching(_CASCADE3, _NAN, _CASCADE3.p)),
    "brute_force_wdp_cascade-nan": (ValidationError, lambda:
        brute_force_wdp_cascade(_CASCADE3, _NAN)),
    "brute_force_restricted-nan": (ValidationError, lambda:
        brute_force_restricted(_CASCADE3, _NAN)),
    "brute_force_wdp_mnl-nan": (ValidationError, lambda:
        brute_force_wdp_mnl(_MNL3, _NAN)),
    "brute_cascade_solver-nan": (ValidationError, lambda:
        brute_cascade_solver().solve(_CASCADE3, np.array(_NAN))),
    "greedy_cascade_solver-nan": (ValidationError, lambda:
        greedy_cascade_solver(np.random.default_rng(0)).solve(
            _CASCADE3, np.array(_NAN))),
    "solve_mnl_wdp-nan": (ValidationError, lambda:
        solve_mnl_wdp(_MNL3, _NAN)),
    # finite, but bid times odds overflows
    "solve_mnl_wdp-overflow": (ValidationError, lambda:
        solve_mnl_wdp(Instance(2, 2, 2, np.full((2, 2), 0.9), MNL),
                      [1e308, 1.0])),
})


@pytest.mark.parametrize("case", list(_CASES))
def test_entry_points_check_their_input_before_any_work(case, monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("work started before the entry check")

    for kernel in ("capped_matching", "build_charnes_cooper",
                   "max_weight_matching"):
        monkeypatch.setattr(mnl_wdp, kernel, no_work)
    error, call = _CASES[case]
    with pytest.raises(error):
        call()


def test_bid_vector_rejects_nan_only_and_never_warns():
    inst = Instance(3, 1, 1, [[0.5]] * 3, CASCADE)
    big = sys.float_info.max
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for values in ([1e308, -1e308, 1.0], [big, big, -big],
                       [np.inf, -np.inf, 0.0], [5e-324, -0.0, 1.0]):
            assert bid_vector(inst, values).tolist() == values
        for values in ([np.nan, 1.0, 1.0], [1e308, np.inf, np.nan]):
            with pytest.raises(ValidationError):
                bid_vector(inst, values)


def _row_readers():
    """Every reader of bid rows: ``bid_rows`` and the two batched solvers
    that read through it."""
    mnl = Instance(3, 1, 1, [[0.5]] * 3, MNL)
    cascade = Instance(3, 1, 1, [[0.5]] * 3, CASCADE)
    return [(cascade, bid_rows), (mnl, mnl_wdp.solve_mnl_wdp_rows),
            (cascade, brute_cascade_solver().solve_rows)]


def test_bid_rows_take_any_number_of_rows():
    inst = Instance(3, 1, 1, [[0.5]] * 3, CASCADE)
    for rows in ([], np.empty((0, 3)), [[1.0, 2.0, 3.0]],
                 np.arange(12.0).reshape(4, 3), [[np.inf, -np.inf, 0.0]]):
        got = bid_rows(inst, rows)
        assert got.dtype == float and got.shape == (len(rows), 3)
        assert got.tolist() == np.asarray(rows, dtype=float).tolist()


def test_bid_rows_reject_a_wrong_width():
    for inst, read in _row_readers():
        for rows in ([[1.0, 2.0]], [[1.0, 2.0, 3.0, 4.0]], np.empty((0, 2)),
                     [1.0, 2.0, 3.0], [[[1.0, 2.0, 3.0]]], 1.0):
            with pytest.raises(ValidationError):
                read(inst, rows)


def test_bid_rows_reject_ragged_rows():
    for inst, read in _row_readers():
        for rows in ([[1.0, 2.0, 3.0], [1.0, 2.0]],
                     [[1.0, 2.0, 3.0], [1.0, [2.0], 3.0]]):
            with pytest.raises(ValidationError):
                read(inst, rows)


def test_bid_rows_reject_nan():
    for inst, read in _row_readers():
        for rows in ([[1.0, 2.0, np.nan]], [[1.0, 2.0, 3.0], [np.nan] * 3]):
            with pytest.raises(ValidationError):
                read(inst, rows)


def test_model_mismatch_is_reported_ahead_of_the_size_guard():
    big = Instance(7, 7, 7, np.full((7, 7), 0.5), MNL)
    with pytest.raises(ValidationError):
        brute_force_wdp_cascade(big, np.ones(7))
