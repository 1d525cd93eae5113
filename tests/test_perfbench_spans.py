"""The benchmark's span tracer (``perfbench/spans.py``) patches the package
by name and rebuilds every traced solver handle from its ``solve`` and
``kind`` alone.  A rename, or a handle field without a default, would break
only traced benchmark runs, so this suite loads the tracer from its path and
checks both against the package."""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from slotauction import core, distributions, mechanisms
from slotauction.core import CASCADE, Instance, MNL

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"

# Arguments for each traced handle factory, and the model its handle solves.
FACTORY_ARGS = {
    "exact_mnl_solver": ((), MNL),
    "brute_cascade_solver": ((), CASCADE),
    "greedy_cascade_solver": ((np.random.default_rng(0),), CASCADE),
    "threshold_dropping_solver": ((mechanisms.exact_mnl_solver(),), MNL),
}


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_exists(spans):
    for layer, names in spans.FUNCTIONS.items():
        module = importlib.import_module(f"slotauction.{layer}")
        for name in names:
            assert callable(getattr(module, name, None)), f"{layer}.{name}"
    for name in spans.HANDLE_FACTORIES:
        assert callable(getattr(mechanisms, name, None)), name
    for name in spans.CORE_OBJECTS:
        assert isinstance(getattr(core, name, None), type), name
    assert callable(distributions.ValueDistribution.virtual_value)


def test_rebuilt_handles_still_solve(spans):
    rng = np.random.default_rng(7)
    for name in spans.HANDLE_FACTORIES:
        args, model = FACTORY_ARGS[name]
        handle = getattr(mechanisms, name)(*args)
        rebuilt = mechanisms.SolverHandle(solve=handle.solve, kind=handle.kind)
        inst = Instance(3, 2, 2, rng.uniform(0.1, 0.9, (3, 2)), model)
        bids = rng.uniform(0.5, 2.0, 3)
        _chi, want = handle.solve(inst, bids)
        _chi, got = rebuilt.solve(inst, bids)
        assert np.array_equal(got, want), name
        assert rebuilt.is_exact == handle.is_exact


def test_rebuilt_handles_price_as_their_curves(spans):
    """Traced runs drop ``curve`` and price by probing; the outcome must be
    the one untraced runs get from the curve, so both pass the same gate."""
    rng = np.random.default_rng(11)
    inst = Instance(4, 3, 2, rng.uniform(0.01, 1.0, (4, 3)), CASCADE)
    values = rng.uniform(0.0, 1.0, 4)
    dists = [distributions.Uniform(0.0, 1.0)] * 4
    with_curve = 0
    for name in spans.HANDLE_FACTORIES:
        args, model = FACTORY_ARGS[name]
        if getattr(mechanisms, name)(*args).curve is None:
            continue
        with_curve += 1
        # Each outcome gets a fresh handle, so the greedy's generator
        # starts from the same seed for both.
        handle = getattr(mechanisms, name)(*_fresh(args))
        probed = getattr(mechanisms, name)(*_fresh(args))
        rebuilt = mechanisms.SolverHandle(solve=probed.solve, kind=probed.kind)
        fast = mechanisms.myerson(inst, values, dists, handle)
        slow = mechanisms.myerson(inst, values, dists, rebuilt)
        assert (fast.augmented.allocation.assignment
                == slow.augmented.allocation.assignment), name
        assert (fast.augmented.permutation.rank
                == slow.augmented.permutation.rank), name
        assert np.array_equal(fast.payments, slow.payments), name
        assert np.array_equal(fast.ctrs, slow.ctrs), name
    assert with_curve == 2


def _fresh(args):
    """The factory arguments with any generator replaced by a new one
    seeded 0, as ``FACTORY_ARGS`` seeds it."""
    return tuple(np.random.default_rng(0)
                 if isinstance(a, np.random.Generator) else a for a in args)
