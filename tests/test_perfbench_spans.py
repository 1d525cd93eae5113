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
