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

from slotauction import cli, core, distributions, mechanisms
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
    """Traced runs drop ``curves`` and ``solve_rows`` and price by one
    solve per row; the outcomes must be the ones untraced runs get from
    them, so both pass the same gate.  Each handle with either field prices
    an instance of its model: ``myerson``, and ``myerson_rows`` and (exact
    handles) ``vcg_rows`` over a block of profiles, zero values included."""
    rng = np.random.default_rng(11)
    values = rng.uniform(0.0, 1.0, 4)
    block = np.where(rng.random((5, 4)) < 0.2, 0.0, rng.random((5, 4)))
    dists = [distributions.Uniform(0.0, 1.0)] * 4
    with_curve = 0
    for name in spans.HANDLE_FACTORIES:
        args, model = FACTORY_ARGS[name]
        handle = getattr(mechanisms, name)(*args)
        if handle.curves is None and handle.solve_rows is None:
            continue
        with_curve += 1
        inst = Instance(4, 3, 2, rng.uniform(0.01, 0.99, (4, 3)), model)
        runs = [lambda h: [mechanisms.myerson(inst, values, dists, h)],
                lambda h: mechanisms.myerson_rows(inst, block, dists, h)]
        if handle.is_exact:
            runs.append(lambda h: mechanisms.vcg_rows(inst, block, h))
        for run in runs:
            # Each run gets fresh handles, so the greedy's generator
            # starts from the same seed for both.
            probed = getattr(mechanisms, name)(*_fresh(args))
            rebuilt = mechanisms.SolverHandle(solve=probed.solve,
                                              kind=probed.kind)
            fast = run(getattr(mechanisms, name)(*_fresh(args)))
            slow = run(rebuilt)
            assert len(fast) == len(slow)
            for got, want in zip(fast, slow):
                assert got.augmented == want.augmented, name
                assert np.array_equal(got.payments, want.payments), name
                assert np.array_equal(got.ctrs, want.ctrs), name
    assert with_curve == 3


def test_cli_solver_table_is_traced(spans, tmp_path):
    """The CLI's solver table looks library names up at call time, so the
    tracer's patched attributes record spans for every route it takes."""
    inst = tmp_path / "inst.json"
    vals = tmp_path / "vals.json"
    dist = tmp_path / "dist.json"
    vals.write_text("[0.6, 0.3, 0.9]")
    dist.write_text('{"family": "uniform", "a": 0, "b": 1}')
    p = [[0.8, 0.4], [0.5, 0.3], [0.6, 0.2]]
    runs = [  # (model, argv, span that must be recorded)
        ("cascade", ["mechanism", "--mechanism", "myerson", "--grid", "16"],
         "mechanisms.handle"),
        ("cascade", ["mechanism", "--mechanism", "myerson", "--grid", "16",
                     "--algorithm", "greedy"], "mechanisms.handle"),
        ("mnl", ["solve", "--algorithm", "dinkelbach"],
         "mnl_wdp.solve_mnl_wdp"),
    ]
    for model, argv, span in runs:
        inst.write_text(
            f'{{"n": 3, "m": 2, "k": 2, "model": "{model}", "p": {p}}}')
        tracer = spans.Tracer()
        tracer.install()
        try:
            code = cli.main([*argv, "--instance", str(inst), "--values",
                             str(vals), "--dist", str(dist),
                             "--out", str(tmp_path / "out")])
        finally:
            tracer.uninstall()
        assert code == cli.EXIT_OK, argv
        recorded = {tracer.names[i] for i in tracer.name}
        assert span in recorded, (argv, sorted(recorded))


def _fresh(args):
    """The factory arguments with any generator replaced by a new one
    seeded 0, as ``FACTORY_ARGS`` seeds it."""
    return tuple(np.random.default_rng(0)
                 if isinstance(a, np.random.Generator) else a for a in args)
