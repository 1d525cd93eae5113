import csv
import importlib
import json
import pkgutil
from pathlib import Path

import numpy as np
import pytest

import slotauction
import slotauction.cli as cli
import slotauction.mechanisms as mechanisms
import slotauction.mnl_wdp as mnl_wdp
import slotauction.oracle as oracle
from slotauction.core import CASCADE, MNL, SlotauctionError, instance_from_dict
from slotauction.mechanisms import (
    exact_mnl_solver,
    monotonicity_audit,
    threshold_dropping_solver,
)
from slotauction.cli import (
    EXIT_AUDIT,
    EXIT_INTERNAL,
    EXIT_OK,
    EXIT_SOLVER,
    EXIT_USAGE,
    main,
)


def write_json(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.fixture
def lone_ad_files(tmp_path):
    inst = write_json(
        tmp_path / "inst.json",
        {"n": 1, "m": 1, "k": 1, "model": "mnl", "p": [[0.5]]},
    )
    vals = write_json(tmp_path / "vals.json", [1.0])
    return inst, vals


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_solve_lone_ad_lp(tmp_path, lone_ad_files):
    inst, vals = lone_ad_files
    out = tmp_path / "out.json"
    code = main(["solve", "--instance", inst, "--values", vals,
                 "--algorithm", "lp", "--out", str(out)])
    assert code == EXIT_OK
    report = json.loads(out.read_text())
    assert report["objective"] == pytest.approx(0.5, abs=1e-9)
    assert report["allocation"] == {"0": 0}


def test_solve_unknown_algorithm_is_usage_error(lone_ad_files):
    inst, vals = lone_ad_files
    assert main(["solve", "--instance", inst, "--values", vals,
                 "--algorithm", "quantum"]) == EXIT_USAGE


def test_solve_missing_instance_is_usage_error(tmp_path):
    vals = write_json(tmp_path / "v.json", [1.0])
    assert main(["solve", "--values", vals, "--algorithm", "lp"]) == EXIT_USAGE


def test_solve_model_mismatch_is_solver_error(tmp_path):
    inst = write_json(
        tmp_path / "inst.json",
        {"n": 1, "m": 1, "k": 1, "model": "cascade", "p": [[0.5]]},
    )
    vals = write_json(tmp_path / "v.json", [1.0])
    assert main(["solve", "--instance", inst, "--values", vals,
                 "--algorithm", "lp"]) == EXIT_SOLVER


def test_solve_routes_lp_through_its_size_guard(tmp_path, capsys):
    rng = np.random.default_rng(0)
    inst = write_json(
        tmp_path / "inst.json",
        {"n": 200, "m": 25, "k": 25, "model": "mnl",
         "p": rng.uniform(0.01, 0.5, (200, 25)).tolist()},
    )
    vals = write_json(tmp_path / "v.json", rng.uniform(0.1, 10, 200).tolist())
    assert main(["solve", "--instance", inst, "--values", vals,
                 "--algorithm", "lp"]) == EXIT_SOLVER
    assert "exceeds the limit" in capsys.readouterr().err
    out = tmp_path / "out.json"
    assert main(["solve", "--instance", inst, "--values", vals,
                 "--algorithm", "dinkelbach", "--out", str(out)]) == EXIT_OK
    assert json.loads(out.read_text())["allocation"]


def test_unexpected_exception_is_internal_error(monkeypatch, capsys,
                                                lone_ad_files):
    def broken(inst, bids):
        raise RuntimeError("kernel bug")

    monkeypatch.setattr(cli, "solve_mnl_wdp", broken)
    inst, vals = lone_ad_files
    assert main(["solve", "--instance", inst, "--values", vals,
                 "--algorithm", "dinkelbach"]) == EXIT_INTERNAL
    err = capsys.readouterr().err
    assert "Traceback" in err and "RuntimeError: kernel bug" in err
    assert "solver error" not in err


def test_malformed_inputs_are_usage_errors(tmp_path, lone_ad_files, capsys):
    inst, vals = lone_ad_files
    bad_vals = write_json(tmp_path / "bad.json", ["one"])
    assert main(["solve", "--instance", inst, "--values", bad_vals,
                 "--algorithm", "lp"]) == EXIT_USAGE
    bad_cfg = write_json(tmp_path / "cfg.json", {"seed": "one"})
    assert main(["solve", "--config", bad_cfg]) == EXIT_USAGE
    bad_dist = write_json(tmp_path / "dist.json", [1.0])
    assert main(["mechanism", "--instance", inst, "--values", vals,
                 "--dist", bad_dist, "--mechanism", "myerson"]) == EXIT_USAGE
    assert main(["solve", "--instance", str(tmp_path), "--values", vals,
                 "--algorithm", "lp"]) == EXIT_USAGE
    # values must be JSON numbers that a float holds: no strings or bools
    inst3 = write_json(tmp_path / "inst3.json", {
        "n": 3, "m": 1, "k": 1, "model": "mnl", "p": [[0.5], [0.4], [0.3]]})
    for raw in (["0.6", 0.3, True], [10**400, 0.3, 0.2]):
        coerced = write_json(tmp_path / "coerced.json", raw)
        assert main(["solve", "--instance", inst3,
                     "--values", coerced]) == EXIT_USAGE
    number_dist = write_json(tmp_path / "dist.json", 5)
    assert main(["mechanism", "--instance", inst, "--values", vals,
                 "--dist", number_dist, "--mechanism", "myerson"]
                ) == EXIT_USAGE
    # a key given twice in one object, at any depth of any file read, is
    # refused rather than resolved to its last value
    twice = tmp_path / "twice.json"
    dist = write_json(tmp_path / "uniform.json",
                      {"family": "uniform", "a": 0, "b": 1})
    for text, flag, key in [
        ('{"n": 1, "m": 1, "k": 1, "k": 2, "model": "mnl", "p": [[0.5]]}',
         "--instance", "k"),
        ('{"seed": 1, "seed": 2}', "--config", "seed"),
        ('[{"x": 1, "x": 1}]', "--values", "x"),
        ('[{"family": "uniform", "a": 0, "b": 1, "b": 2}]', "--dist", "b"),
    ]:
        twice.write_text(text)
        files = {"--instance": inst, "--values": vals, "--dist": dist,
                 flag: str(twice)}
        argv = ["mechanism", "--mechanism", "myerson"]
        for option, file in files.items():
            argv += [option, file]
        capsys.readouterr()
        assert main(argv) == EXIT_USAGE, flag
        err = capsys.readouterr().err
        assert f"key {key!r} appears twice in {twice}" in err, err


def test_negative_values_are_solver_error(tmp_path, lone_ad_files):
    inst, _vals = lone_ad_files
    vals = write_json(tmp_path / "neg.json", [-1.0])
    assert main(["mechanism", "--instance", inst, "--values", vals,
                 "--mechanism", "vcg"]) == EXIT_SOLVER


def test_non_finite_values_are_usage_errors(tmp_path):
    inst = write_json(
        tmp_path / "inst.json",
        {"n": 2, "m": 1, "k": 1, "model": "cascade", "p": [[1.0], [1.0]]},
    )
    dist = write_json(tmp_path / "dist.json",
                      {"family": "uniform", "a": 0, "b": 1})
    runs = [
        (["mechanism", "--mechanism", "vcg"], float("nan")),
        (["mechanism", "--mechanism", "myerson", "--dist", dist],
         float("inf")),
        (["solve", "--algorithm", "greedy"], float("nan")),
    ]
    for argv, bad in runs:
        vals = write_json(tmp_path / "vals.json", [bad, 0.7])
        assert main([*argv, "--instance", inst, "--values", vals]) \
            == EXIT_USAGE, argv


def _entries(model):
    return [algo for algo, entry_model in cli.SOLVERS if entry_model == model]


def test_solve_algorithms_agree_on_fixture_pack(tmp_path):
    """Every MNL entry of the solver table is exact."""
    rng = np.random.default_rng(5)
    for t in range(5):
        n, m = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        inst = write_json(
            tmp_path / f"i{t}.json",
            {"n": n, "m": m, "k": int(rng.integers(1, m + 1)), "model": "mnl",
             "p": rng.uniform(0.05, 0.9, (n, m)).tolist()},
        )
        vals = write_json(tmp_path / f"v{t}.json",
                          rng.uniform(0.1, 5.0, n).tolist())
        objs = {}
        for algo in _entries(MNL):
            out = tmp_path / f"o{t}{algo}.json"
            assert main(["solve", "--instance", inst, "--values", vals,
                         "--algorithm", algo, "--out", str(out)]) == EXIT_OK
            objs[algo] = json.loads(out.read_text())["objective"]
        for algo, objective in objs.items():
            assert objective == pytest.approx(objs["brute"], abs=1e-6), algo


def test_solve_cascade_algorithms(tmp_path):
    inst = write_json(
        tmp_path / "inst.json",
        {"n": 2, "m": 2, "k": 2, "model": "cascade",
         "p": [[0.8, 0.4], [0.5, 0.3]]},
    )
    vals = write_json(tmp_path / "vals.json", [2.0, 1.0])
    results = {}
    for algo in _entries(CASCADE):
        out = tmp_path / f"{algo}.json"
        assert main(["solve", "--instance", inst, "--values", vals,
                     "--algorithm", algo, "--seed", "1",
                     "--out", str(out)]) == EXIT_OK
        results[algo] = json.loads(out.read_text())["objective"]
    for algo, objective in results.items():
        assert results["brute"] >= objective - 1e-9, algo


def test_solve_greedy_never_allocates_a_non_positive_value(tmp_path):
    inst = write_json(
        tmp_path / "inst.json",
        {"n": 2, "m": 2, "k": 2, "model": "cascade",
         "p": [[0.6, 0.3], [0.5, 0.4]]},
    )
    vals = write_json(tmp_path / "vals.json", [1.0, -1.0])
    out = tmp_path / "out.json"
    for seed in range(20):
        assert main(["solve", "--instance", inst, "--values", vals,
                     "--algorithm", "greedy", "--seed", str(seed),
                     "--out", str(out)]) == EXIT_OK
        report = json.loads(out.read_text())
        assert report["allocation"] in ({"0": 0}, {"0": 1}), seed
        assert report["objective"] > 0.0, seed


def test_solve_greedy_reports_are_unchanged_on_positive_values(tmp_path):
    """Recorded reports of ``solve --algorithm greedy`` on a seeded pack of
    tie-heavy instances with every value above 0, where the bid rule leaves
    every edge in: each must come out byte for byte."""
    pack = json.loads((Path(__file__).parent
                       / "greedy_solve_pack.json").read_text())
    out = tmp_path / "out.json"
    for case in pack:
        assert min(case["values"]) > 0.0
        inst = write_json(tmp_path / "inst.json", case["instance"])
        vals = write_json(tmp_path / "vals.json", case["values"])
        assert main(["solve", "--instance", inst, "--values", vals,
                     "--algorithm", "greedy", "--seed", str(case["seed"]),
                     "--out", str(out)]) == EXIT_OK
        assert out.read_text() == case["report"], case["seed"]


def test_solve_without_algorithm_runs_the_model_default(tmp_path):
    vals = write_json(tmp_path / "vals.json", [2.0, 1.0])
    for model, default in (("mnl", "dinkelbach"), ("cascade", "brute")):
        inst = write_json(
            tmp_path / f"{model}.json",
            {"n": 2, "m": 2, "k": 2, "model": model,
             "p": [[0.8, 0.4], [0.5, 0.3]]},
        )
        outs = []
        for extra in ([], ["--algorithm", default]):
            out = tmp_path / f"{model}{len(outs)}.json"
            assert main(["solve", "--instance", inst, "--values", vals,
                         "--out", str(out), *extra]) == EXIT_OK
            outs.append(out.read_bytes())
        assert json.loads(outs[0])["algorithm"] == default
        assert outs[0] == outs[1]


def test_solve_ptas_up_to_the_oracle_guard(tmp_path, monkeypatch, capsys):
    rng = np.random.default_rng(5)
    inst = write_json(
        tmp_path / "inst.json",
        {"n": 5, "m": 5, "k": 4, "model": "cascade",
         "p": rng.uniform(0.01, 1.0, (5, 5)).tolist()},
    )
    vals = write_json(tmp_path / "vals.json", rng.uniform(0.1, 10, 5).tolist())
    results = {}
    for algo in ("ptas", "brute"):
        out = tmp_path / f"{algo}.json"
        assert main(["solve", "--instance", inst, "--values", vals,
                     "--algorithm", algo, "--out", str(out)]) == EXIT_OK
        results[algo] = json.loads(out.read_text())["objective"]
    assert results["ptas"] <= results["brute"] + 1e-9
    assert results["ptas"] >= (1.0 - 0.1) / 4.0 * results["brute"] - 1e-9

    big = write_json(
        tmp_path / "big.json",
        {"n": 7, "m": 6, "k": 6, "model": "cascade",
         "p": rng.uniform(0.01, 1.0, (7, 6)).tolist()},
    )
    vals = write_json(tmp_path / "vals7.json", [1.0] * 7)

    def no_work(*args):
        raise AssertionError("a matching table was built past the guard")

    monkeypatch.setattr(oracle, "_matching_table", no_work)
    capsys.readouterr()
    assert main(["solve", "--instance", big, "--values", vals,
                 "--algorithm", "ptas"]) == EXIT_SOLVER
    assert "exhaustive-search guard" in capsys.readouterr().err


def test_solve_ptas_refuses_a_tiny_epsilon(tmp_path, capsys):
    """An epsilon whose guesses overflow an int exits 2 at the ptas guard,
    not 4 on an ``OverflowError``."""
    inst = write_json(
        tmp_path / "inst.json",
        {"n": 2, "m": 2, "k": 2, "model": "cascade",
         "p": [[0.5, 0.3], [0.4, 0.25]]},
    )
    vals = write_json(tmp_path / "vals.json", [1.0, 2.0])
    for eps in ("5e-324", "1e-9"):
        capsys.readouterr()
        assert main(["solve", "--instance", inst, "--values", vals,
                     "--algorithm", "ptas", "--epsilon", eps]) == EXIT_SOLVER
        assert "restricted-search guard" in capsys.readouterr().err


def test_mechanism_vcg_csv(tmp_path):
    inst = write_json(
        tmp_path / "inst.json",
        {"n": 2, "m": 1, "k": 1, "model": "mnl", "p": [[0.5], [0.5]]},
    )
    vals = write_json(tmp_path / "vals.json", [2.0, 1.0])
    out = tmp_path / "mech.csv"
    assert main(["mechanism", "--instance", inst, "--values", vals,
                 "--mechanism", "vcg", "--out", str(out)]) == EXIT_OK
    rows = read_csv(out)
    assert rows[0] == ["advertiser", "value", "ctr", "payment", "utility"]
    assert float(rows[1][3]) == pytest.approx(0.5, abs=1e-9)
    assert float(rows[2][3]) == 0.0


def test_mechanism_myerson_csv(tmp_path):
    inst = write_json(
        tmp_path / "inst.json",
        {"n": 2, "m": 1, "k": 1, "model": "cascade", "p": [[1.0], [1.0]]},
    )
    vals = write_json(tmp_path / "vals.json", [0.9, 0.7])
    dist = write_json(tmp_path / "dist.json",
                      {"family": "uniform", "a": 0, "b": 1})
    out = tmp_path / "mech.csv"
    assert main(["mechanism", "--instance", inst, "--values", vals,
                 "--dist", dist, "--mechanism", "myerson", "--grid", "1024",
                 "--out", str(out)]) == EXIT_OK
    rows = read_csv(out)
    assert abs(float(rows[1][3]) - 0.7) <= 0.9 / 1024


@pytest.mark.parametrize("algo, model", [
    key for key, (_route, handle) in cli.SOLVERS.items() if handle])
def test_mechanism_myerson_runs_every_entry_with_a_handle(tmp_path, algo,
                                                          model):
    rng = np.random.default_rng(8)
    inst = write_json(
        tmp_path / "inst.json",
        {"n": 4, "m": 3, "k": 2, "model": model,
         "p": rng.uniform(0.05, 0.9, (4, 3)).tolist()},
    )
    values = rng.uniform(0.0, 1.0, 4)
    vals = write_json(tmp_path / "vals.json", values.tolist())
    dist = write_json(tmp_path / "dist.json",
                      {"family": "uniform", "a": 0, "b": 1})
    out = tmp_path / "mech.csv"
    assert main(["mechanism", "--instance", inst, "--values", vals,
                 "--dist", dist, "--mechanism", "myerson", "--grid", "64",
                 "--algorithm", algo, "--out", str(out)]) == EXIT_OK
    rows = read_csv(out)[1:]
    assert len(rows) == 4
    for v, row in zip(values, rows):
        ctr, payment = float(row[2]), float(row[3])
        assert 0.0 <= payment <= v * ctr + 1e-9, row


@pytest.mark.parametrize("command", ["mechanism", "simulate"])
def test_mechanisms_reject_an_algorithm_they_cannot_run(tmp_path, capsys,
                                                        command):
    dist = write_json(tmp_path / "dist.json",
                      {"family": "uniform", "a": 0, "b": 1})
    vals = write_json(tmp_path / "vals.json", [0.5, 0.25])
    with_handle = ("entries with one: dinkelbach (mnl), greedy (cascade),"
                   " brute (cascade)")
    runs = [  # (model, algorithm, exit code, stderr text)
        ("mnl", "quantum", EXIT_USAGE, "unknown algorithm 'quantum'"),
        ("cascade", "quantum", EXIT_USAGE, "unknown algorithm 'quantum'"),
        ("mnl", "lp", EXIT_USAGE, with_handle),
        ("mnl", "brute", EXIT_USAGE, with_handle),
        ("cascade", "ptas", EXIT_USAGE, with_handle),
        ("mnl", "greedy", EXIT_SOLVER, "does not solve 'mnl' instances"),
        ("cascade", "lp", EXIT_SOLVER, "does not solve 'cascade' instances"),
        ("cascade", "dinkelbach", EXIT_SOLVER, "does not solve 'cascade'"),
    ]
    for model, algo, code, text in runs:
        inst = write_json(
            tmp_path / "inst.json",
            {"n": 2, "m": 1, "k": 1, "model": model, "p": [[0.5], [0.5]]},
        )
        assert main([command, "--instance", inst, "--dist", dist,
                     "--values", vals, "--mechanism", "myerson",
                     "--samples", "2", "--algorithm", algo,
                     "--out", str(tmp_path / "o.csv")]) == code, (model, algo)
        assert text in capsys.readouterr().err, (model, algo)
    assert not (tmp_path / "o.csv").exists()


def test_greedy_auction_from_the_cli_at_20x8(tmp_path, capsys):
    rng = np.random.default_rng(20)
    inst = write_json(
        tmp_path / "inst.json",
        {"n": 20, "m": 8, "k": 8, "model": "cascade",
         "p": rng.uniform(0.01, 1.0, (20, 8)).tolist()},
    )
    vals = write_json(tmp_path / "vals.json", rng.uniform(0, 1, 20).tolist())
    dist = write_json(tmp_path / "dist.json",
                      {"family": "uniform", "a": 0, "b": 1})
    args = ["simulate", "--instance", inst, "--dist", dist, "--samples", "5",
            "--seed", "3", "--algorithm", "greedy", "--mechanism", "myerson"]
    outs = []
    for run in range(2):
        out = tmp_path / f"sim{run}.csv"
        assert main([*args, "--out", str(out)]) == EXIT_OK
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    assert len(read_csv(tmp_path / "sim0.csv")) == 1 + 5 + 2

    mech = ["mechanism", "--instance", inst, "--values", vals,
            "--dist", dist, "--out", str(tmp_path / "mech.csv")]
    assert main([*mech, "--algorithm", "greedy",
                 "--mechanism", "myerson"]) == EXIT_OK
    # the default cascade route is exhaustive and guarded at 36 cells
    assert main([*mech, "--mechanism", "myerson"]) == EXIT_SOLVER
    assert "exhaustive-search guard" in capsys.readouterr().err
    # externality payments need an exact solver; the greedy is not one
    assert main([*mech, "--algorithm", "greedy",
                 "--mechanism", "vcg"]) == EXIT_SOLVER
    assert "externality payments require an exact solver" \
        in capsys.readouterr().err


def test_simulate_deterministic_and_welfare_ordered(tmp_path):
    inst = write_json(
        tmp_path / "inst.json",
        {"n": 2, "m": 1, "k": 1, "model": "cascade", "p": [[1.0], [1.0]]},
    )
    dist = write_json(tmp_path / "dist.json",
                      {"family": "uniform", "a": 0, "b": 1})
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["simulate", "--instance", inst, "--dist", dist, "--samples", "50",
            "--seed", "7", "--grid", "256", "--mechanism", "both"]
    assert main(args + ["--out", str(out1)]) == EXIT_OK
    assert main(args + ["--out", str(out2)]) == EXIT_OK
    assert out1.read_bytes() == out2.read_bytes()

    rows = read_csv(out1)
    assert rows[0] == ["sample", "mechanism", "welfare", "revenue", "seed"]
    by_sample = {}
    for row in rows[1:]:
        if not row[0].isdigit():
            continue  # mean/stderr summary rows
        by_sample.setdefault(row[0], {})[row[1]] = float(row[2])
    for sample_id, entry in by_sample.items():
        assert entry["vcg"] >= entry["myerson"] - 1e-12, sample_id


@pytest.mark.parametrize("algorithm", ["brute", "lp", "dinkelbach"])
def test_mnl_bids_past_the_float_range_exit_2(tmp_path, capsys, algorithm):
    """On the MNL smoke instance, bids of 1e308 take the MNL weights past
    the float range: every exact MNL route, the brute oracle too, reads
    bids through ``core.mnl_bids``, exits 2 and names advertiser 0, rather
    than printing an infinite objective, which is no JSON."""
    inst = write_json(tmp_path / "inst.json", {
        "n": 3, "m": 2, "k": 2, "model": "mnl",
        "p": [[0.5, 0.3], [0.4, 0.25], [0.6, 0.1]]})
    vals = write_json(tmp_path / "vals.json", [1e308, 1e308, 1e308])
    code = main(["solve", "--instance", inst, "--values", vals,
                 "--algorithm", algorithm])
    assert code == EXIT_SOLVER
    assert "advertiser 0" in capsys.readouterr().err


@pytest.mark.parametrize("block", [None, 1, 200])
def test_simulate_equals_the_recorded_pack(tmp_path, monkeypatch, block):
    """Recorded ``simulate`` CSVs, byte for byte: brute vcg and myerson at
    4x3, brute vcg at 6x6, c11's certain-click tie instance, MNL vcg over
    dinkelbach, greedy myerson, MNL myerson over dinkelbach at 10x5,
    brute vcg and myerson at 12x3 (more than 8 advertisers, where numpy's
    pairwise sums change order), and MNL vcg and myerson at 20x10 (at most
    10 of 20 advertisers allocated; Uniform(2, 12) values, whose support
    starts above 0).  Also with samples priced in blocks of one or a few
    samples, and the brute rows scored a few at a time."""
    if block is not None:
        monkeypatch.setattr(cli, "SAMPLE_BLOCK", block)
        monkeypatch.setattr(oracle, "SCORE_BLOCK", block)
    pack = json.loads((Path(__file__).parent
                       / "simulate_pack.json").read_text())
    assert len(pack) == 8
    out = tmp_path / "out.csv"
    for case in pack:
        inst = write_json(tmp_path / "inst.json", case["instance"])
        dist = write_json(tmp_path / "dist.json", case["dist"])
        assert main(["simulate", "--instance", inst, "--dist", dist,
                     *case["flags"], "--out", str(out)]) == EXIT_OK
        assert out.read_bytes() == case["csv"].encode(), case["name"]


def test_simulate_blocks_follow_the_instance(tmp_path, monkeypatch):
    """``simulate`` prices at most ``mnl_wdp.ROW_CELLS // (n * n * m)``
    samples per block, so a block's vcg rows fit one
    ``solve_mnl_wdp_rows`` chunk; the CSV is that of one block."""
    case = next(c for c in json.loads((Path(__file__).parent
                                      / "simulate_pack.json").read_text())
                if c["instance"]["model"] == "mnl")
    inst = write_json(tmp_path / "inst.json", case["instance"])
    dist = write_json(tmp_path / "dist.json", case["dist"])
    args = ["simulate", "--instance", inst, "--dist", dist, "--algorithm",
            "dinkelbach", "--mechanism", "both", "--samples", "20",
            "--seed", "11", "--grid", "64"]
    sizes = {"vcg_rows": [], "myerson_rows": []}
    for name, seen in sizes.items():
        def spied(inst, value_rows, *rest, _run=getattr(mechanisms, name),
                  _seen=seen):
            _seen.append(len(value_rows))
            return _run(inst, value_rows, *rest)
        monkeypatch.setattr(mechanisms, name, spied)
    assert main([*args, "--out", str(tmp_path / "one.csv")]) == EXIT_OK
    assert sizes == {"vcg_rows": [20], "myerson_rows": [20]}
    for seen in sizes.values():
        seen.clear()
    monkeypatch.setattr(mnl_wdp, "ROW_CELLS", 6 * 6 * 3 * 3)
    assert main([*args, "--out", str(tmp_path / "three.csv")]) == EXIT_OK
    assert sizes == {"vcg_rows": [3] * 6 + [2], "myerson_rows": [3] * 6 + [2]}
    assert ((tmp_path / "three.csv").read_bytes()
            == (tmp_path / "one.csv").read_bytes())


def test_simulate_rejects_non_positive_samples_and_grid(tmp_path, capsys):
    inst = write_json(
        tmp_path / "inst.json",
        {"n": 1, "m": 1, "k": 1, "model": "cascade", "p": [[1.0]]},
    )
    dist = write_json(tmp_path / "dist.json",
                      {"family": "uniform", "a": 0, "b": 1})
    base = ["simulate", "--instance", inst, "--dist", dist,
            "--mechanism", "myerson", "--out", str(tmp_path / "s.csv")]
    for flag, bad in (("--samples", "0"), ("--samples", "-3"),
                      ("--grid", "0"), ("--grid", "-1")):
        assert main([*base, flag, bad]) == EXIT_USAGE, (flag, bad)
        assert "usage error" in capsys.readouterr().err
    assert not (tmp_path / "s.csv").exists()


def test_negative_seed_is_usage_error(tmp_path, capsys):
    """A seed below 0, from the flag or from a config file, exits 1 before
    any draw, on every command that draws: numpy refuses negative seeds."""
    inst = write_json(
        tmp_path / "inst.json",
        {"n": 2, "m": 1, "k": 1, "model": "cascade", "p": [[0.5], [0.5]]},
    )
    dist = write_json(tmp_path / "dist.json",
                      {"family": "uniform", "a": 0, "b": 1})
    vals = write_json(tmp_path / "vals.json", [0.5, 0.25])
    out = str(tmp_path / "o.csv")
    negative = write_json(tmp_path / "cfg.json", {"seed": -1})
    runs = [
        ["simulate", "--instance", inst, "--dist", dist, "--samples", "2",
         "--seed", "-1"],
        ["simulate", "--instance", inst, "--dist", dist, "--samples", "2",
         "--config", negative],
        ["simulate", "--instance", inst, "--dist", dist, "--samples", "2",
         "--algorithm", "greedy", "--mechanism", "myerson", "--seed", "-1"],
        ["mechanism", "--instance", inst, "--dist", dist, "--values", vals,
         "--algorithm", "greedy", "--mechanism", "myerson", "--seed", "-7"],
        ["audit", "--seed", "-1"],
        ["audit", "--config", negative],
    ]
    for argv in runs:
        assert main([*argv, "--out", out]) == EXIT_USAGE, argv
        assert "seed must be at least 0, got -" in capsys.readouterr().err
    assert not (tmp_path / "o.csv").exists()


@pytest.mark.parametrize("algo", ["brute", "greedy"])
def test_grid_above_two_to_the_53_exits_2(tmp_path, capsys, algo):
    """A grid of 2^53 prices within the grid's slack; one point more, or a
    grid past int64, exits 2 at the grid guard, before any solve."""
    inst = write_json(
        tmp_path / "inst.json",
        {"n": 2, "m": 1, "k": 1, "model": "cascade", "p": [[1.0], [1.0]]},
    )
    vals = write_json(tmp_path / "vals.json", [0.9, 0.7])
    dist = write_json(tmp_path / "dist.json",
                      {"family": "uniform", "a": 0, "b": 1})
    base = ["mechanism", "--instance", inst, "--values", vals, "--dist", dist,
            "--mechanism", "myerson", "--algorithm", algo]
    out = tmp_path / "mech.csv"
    assert main([*base, "--grid", str(2 ** 53), "--out", str(out)]) == EXIT_OK
    assert abs(float(read_csv(out)[1][3]) - 0.7) <= 1e-12
    out.unlink()
    for grid in (2 ** 53 + 1, 2 ** 63 - 1, 10 ** 20, 10 ** 400):
        assert main([*base, "--grid", str(grid),
                     "--out", str(out)]) == EXIT_SOLVER, grid
        assert "exceeds the 2^53 guard" in capsys.readouterr().err
    assert not out.exists()


def test_simulate_different_seed_changes_output(tmp_path):
    inst = write_json(
        tmp_path / "inst.json",
        {"n": 1, "m": 1, "k": 1, "model": "cascade", "p": [[1.0]]},
    )
    dist = write_json(tmp_path / "dist.json",
                      {"family": "uniform", "a": 0, "b": 1})
    outs = []
    for seed in ("1", "2"):
        out = tmp_path / f"s{seed}.csv"
        assert main(["simulate", "--instance", inst, "--dist", dist,
                     "--samples", "20", "--seed", seed, "--grid", "64",
                     "--mechanism", "myerson", "--out", str(out)]) == EXIT_OK
        outs.append(out.read_bytes())
    assert outs[0] != outs[1]


def test_config_file_with_cli_override(tmp_path, lone_ad_files):
    inst, vals = lone_ad_files
    out = tmp_path / "cfg_out.json"
    cfg = write_json(
        tmp_path / "cfg.json",
        {"instance": inst, "values": vals, "algorithm": "brute",
         "out": str(out)},
    )
    # config alone runs brute; the flag flips it to lp
    assert main(["solve", "--config", cfg]) == EXIT_OK
    assert json.loads(out.read_text())["algorithm"] == "brute"
    assert main(["solve", "--config", cfg, "--algorithm", "lp"]) == EXIT_OK
    assert json.loads(out.read_text())["algorithm"] == "lp"


def test_main_calls_parse_alone_on_one_parser(monkeypatch):
    """The parser is built once per process, and each ``main`` call parses
    its own argv: flags, a bad one included, leave no value or default to
    the next call."""
    seen = []
    for command in ("cmd_simulate", "cmd_audit"):
        monkeypatch.setattr(cli, command,
                            lambda cfg: seen.append(cfg) or EXIT_OK)
    parser = cli._build_parser()
    assert main(["simulate", "--seed", "5", "--samples", "3", "--grid", "8",
                 "--mechanism", "vcg", "--planted-bug"]) == EXIT_OK
    assert main(["audit", "--seed", "not-a-number"]) == EXIT_USAGE
    assert main(["audit"]) == EXIT_OK
    assert cli._build_parser() is parser
    defaults = {key: default for key, (_k, default, _t) in cli._FLAGS.items()}
    assert seen[0] == {**defaults, "seed": 5, "samples": 3, "grid": 8,
                       "mechanism": "vcg", "planted_bug": True}
    assert seen[1] == defaults


def test_config_rejects_unknown_keys(tmp_path, lone_ad_files):
    inst, vals = lone_ad_files
    cfg = write_json(tmp_path / "cfg.json", {"instunce": inst})
    assert main(["solve", "--config", cfg, "--instance", inst,
                 "--values", vals, "--algorithm", "lp"]) == EXIT_USAGE


def test_audit_clean_run(tmp_path):
    out = tmp_path / "ratios.csv"
    assert main(["audit", "--seed", "0", "--out", str(out)]) == EXIT_OK
    rows = read_csv(out)
    assert rows[0] == ["ratio", "bin_lo", "bin_hi", "count"]
    assert len(rows) > 1
    kinds = {row[0] for row in rows[1:]}
    assert "restricted_over_cascade" in kinds
    # the sandwich ratios live in [1, 4]
    for row in rows[1:]:
        if row[0] == "restricted_over_cascade":
            assert 1.0 - 0.25 <= float(row[1]) and float(row[2]) <= 4.25


def test_audit_planted_bug_fails(capsys):
    assert main(["audit", "--seed", "0", "--planted-bug"]) == EXIT_AUDIT
    lines = capsys.readouterr().err.splitlines()
    assert lines
    broken = threshold_dropping_solver(exact_mnl_solver(), 5.0)
    for line in lines:  # each line alone replays its violation
        found = json.loads(line)
        assert found["property"] == "monotonicity"
        drop = monotonicity_audit(
            broken, instance_from_dict(found["instance"]), found["values"],
            found["advertiser"], found["grid"])
        assert list(drop) == found["drop"]


@pytest.mark.parametrize("key, value", [
    ("planted_bug", "false"), ("planted_bug", 0), ("grid", 2.9),
    ("grid", "2"), ("samples", True), ("seed", 1.5), ("epsilon", "0.1"),
    ("epsilon", False), ("out", 3), ("mechanism", None),
    pytest.param("epsilon", 10**400, id="epsilon-beyond-float"),
])
def test_config_values_must_have_the_flag_type(tmp_path, key, value, capsys):
    cfg = write_json(tmp_path / "cfg.json", {key: value})
    assert main(["audit", "--config", cfg, "--seed", "0"]) == EXIT_USAGE
    assert "usage error" in capsys.readouterr().err


def test_config_values_of_the_flag_type_are_taken(tmp_path, lone_ad_files):
    inst, vals = lone_ad_files
    out = tmp_path / "out.json"
    cfg = write_json(tmp_path / "cfg.json", {
        "instance": inst, "values": vals, "algorithm": "lp", "epsilon": 0.5,
        "grid": 2, "samples": 3, "seed": 4, "planted_bug": False,
        "out": str(out)})
    assert main(["solve", "--config", cfg]) == EXIT_OK
    assert json.loads(out.read_text())["algorithm"] == "lp"


def test_planted_bug_from_config(tmp_path):
    cfg = write_json(tmp_path / "cfg.json", {"planted_bug": True})
    assert main(["audit", "--config", cfg, "--seed", "0"]) == EXIT_AUDIT


def test_non_numeric_distribution_parameter_is_solver_error(tmp_path):
    inst = write_json(
        tmp_path / "inst.json",
        {"n": 1, "m": 1, "k": 1, "model": "cascade", "p": [[1.0]]},
    )
    dist = write_json(tmp_path / "dist.json",
                      {"family": "uniform", "a": "x", "b": 1})
    assert main(["simulate", "--instance", inst, "--dist", dist,
                 "--samples", "2", "--out", str(tmp_path / "s.csv")]
                ) == EXIT_SOLVER


@pytest.mark.parametrize("text,name", [
    ('{"family": "uniform", "a": 0, "b": 1e999}', "finite b"),
    ('{"family": "uniform", "a": -1e308, "b": 1e308}', "b - a"),
    ('{"family": "exponential", "rate": 1e999}', "finite rate"),
    ('{"family": "exponential", "rate": 1e-320}', "1/rate"),
    ('{"family": "truncnorm", "mu": 1e999, "sigma": 1, "lo": 0, "hi": 1}',
     "finite mu"),
    ('{"family": "truncnorm", "mu": 0, "sigma": 1e999, "lo": 0, "hi": 1}',
     "finite sigma"),
])
def test_non_finite_distribution_parameter_is_named(tmp_path, capsys, text,
                                                     name):
    """JSON reads 1e999 as inf: the distribution refuses it at
    construction, and the exit-2 message names the parameter."""
    inst = write_json(
        tmp_path / "inst.json",
        {"n": 1, "m": 1, "k": 1, "model": "cascade", "p": [[1.0]]},
    )
    (tmp_path / "dist.json").write_text(text)
    assert main(["simulate", "--instance", inst,
                 "--dist", str(tmp_path / "dist.json"), "--samples", "2",
                 "--out", str(tmp_path / "s.csv")]) == EXIT_SOLVER
    assert name in capsys.readouterr().err
    assert not (tmp_path / "s.csv").exists()


def test_truncated_normal_overflowing_sigma_is_named(tmp_path, capsys):
    """A sigma whose quantile overflows the floats on the window's unbounded
    side is refused when the distribution is read: exit 2, naming sigma,
    and no CSV."""
    inst = write_json(
        tmp_path / "inst.json",
        {"n": 1, "m": 1, "k": 1, "model": "cascade", "p": [[0.5]]},
    )
    (tmp_path / "dist.json").write_text(
        '{"family": "truncated_normal", "mu": 0, "sigma": 1e308, "lo": 0,'
        ' "hi": 1e999}')
    assert main(["simulate", "--instance", inst,
                 "--dist", str(tmp_path / "dist.json"), "--samples", "2",
                 "--out", str(tmp_path / "s.csv")]) == EXIT_SOLVER
    assert "sigma" in capsys.readouterr().err
    assert not (tmp_path / "s.csv").exists()


def test_every_library_error_class_exits_2(monkeypatch, capsys):
    """Every exception class the package defines, except the CLI's own
    usage error, is a SlotauctionError, which main reports as exit 2."""
    found = []
    for info in pkgutil.iter_modules(slotauction.__path__):
        module = importlib.import_module(f"slotauction.{info.name}")
        found += [obj for obj in vars(module).values()
                  if isinstance(obj, type) and issubclass(obj, BaseException)
                  and obj.__module__ == module.__name__
                  and obj is not cli.UsageError]
    assert {"ValidationError", "InfeasibleAllocationError", "SizeGuardError",
            "SimplexError", "DistributionError", "IrregularDistributionError",
            "NonMonotoneSolverError"} <= {cls.__name__ for cls in found}
    for cls in found:
        assert issubclass(cls, SlotauctionError), cls

        def raise_it(cfg, cls=cls):
            raise cls("planted")

        monkeypatch.setattr(cli, "cmd_audit", raise_it)
        assert main(["audit"]) == EXIT_SOLVER, cls
        assert "solver error: planted" in capsys.readouterr().err
