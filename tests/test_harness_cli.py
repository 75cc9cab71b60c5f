"""The experiment harness and the command-line front end."""
import json
import os

import numpy as np
import pytest

from fdst import harness
from fdst.cli import main
from fdst.graphs import is_connected, sample_simple_regular, write_graph
from fdst.greedy import run_on_graph
from fdst.catalog import named_graph


def read_json_without_timestamp(path):
    with open(path) as fh:
        obj = json.load(fh)
    obj.pop("timestamp", None)
    return obj


def test_trial_seed_derivation():
    # base seeds that differ only in low bits must not share trial seeds
    zero = [harness.derive_trial_seed(0, k) for k in range(50)]
    one = [harness.derive_trial_seed(1, k) for k in range(50)]
    assert len(set(zero)) == len(set(one)) == 50
    assert not set(zero) & set(one)
    assert zero == [harness.derive_trial_seed(0, k) for k in range(50)]
    assert all(type(s) is int and 0 <= s < 2**64 for s in zero + one)
    assert json.loads(json.dumps(zero)) == zero


def test_merged_overlay_rows_match_pointwise_interpolation():
    r = 3
    rng = np.random.default_rng(4)

    def samples(xs):
        vals = rng.random((len(xs), r + 3))
        return np.column_stack([xs, vals, np.ones(len(xs))])

    sims = [samples(np.linspace(0.0, 1.0, 9)), samples(np.linspace(0.0, 1.2, 23))]
    sol = samples(np.sort(np.concatenate([[0.0, 0.9], rng.random(40) * 0.9])))
    header, rows = harness.merged_overlay_rows(r, sims, sol)
    names = ["z1", "z2", "z3", "zL", "zF", "zM_over_r"]
    assert header == ["x"] + [f"sim_{v}" for v in names] + [f"sol_{v}" for v in names]
    grid = [x for x in sims[0][:, 0] if x <= 0.9]
    assert [row[0] for row in rows] == grid
    for row, x in zip(rows, grid):
        expected_sim, expected_sol = [], []
        for name in names:
            acc = 0.0
            for sim in sims:
                acc += float(np.interp(x, sim[:, 0], harness._columns(r, sim)[name]))
            expected_sim.append(acc / len(sims))
            expected_sol.append(float(np.interp(x, sol[:, 0], harness._columns(r, sol)[name])))
        assert row[1:] == expected_sim + expected_sol


def test_simulate_trials_sequential_matches_parallel():
    seq, _ = harness.simulate_trials(3, 1200, 4, seed=5, jobs=1)
    par, _ = harness.simulate_trials(3, 1200, 4, seed=5, jobs=2)
    assert seq == par
    assert [rec["trial"] for rec in par] == [0, 1, 2, 3]
    assert all(rec["sampler_rejections"] == 0 for rec in par)  # lazy mode samples no graph
    # nine trials do not divide evenly into two workers' chunks
    seq, _ = harness.simulate_trials(3, 200, 9, seed=5, mode="graph", jobs=1)
    par, _ = harness.simulate_trials(3, 200, 9, seed=5, mode="graph", jobs=2)
    assert seq == par
    assert [rec["trial"] for rec in par] == list(range(9))


def test_simulate_trials_caps_jobs(monkeypatch):
    # a stub pool records the worker count, so no process is started
    asked = []

    class StubPool:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, work, chunksize=1):
            assert chunksize >= 1
            return map(fn, work)

    monkeypatch.setattr(harness, "ProcessPoolExecutor", StubPool)
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 4)
    for jobs, trials in ((64, 3), (64, 9), (None, 9), (2, 9)):
        records, _ = harness.simulate_trials(3, 20, trials, seed=1, jobs=jobs)
        assert len(records) == trials
    assert asked == [3, 4, 4, 2]
    harness.simulate_trials(3, 20, 1, seed=1, jobs=64)
    assert asked == [3, 4, 4, 2]  # one trial runs in this process


def test_simulate_trials_graph_mode():
    records, trajs = harness.simulate_trials(3, 600, 2, seed=8, mode="graph")
    assert trajs == [None, None]
    for rec in records:
        assert rec["connected"]
        assert rec["leaf_count"] >= rec["full_degree_count"] + 2
    assert sum(rec["sampler_rejections"] for rec in records) > 0


def test_graph_trials_match_the_graph_route_in_law():
    # the trial path runs the greedy on the sampler's accepted pairing; the
    # reference builds the graph, checks connectivity and runs run_on_graph.
    # At n=10 about one cubic graph in 800 is disconnected.
    trials = 2000
    records, _ = harness.simulate_trials(3, 10, trials, seed=7, mode="graph", jobs=1)
    assert sum(rec["connectivity_resamples"] for rec in records) > 0
    assert all(rec["connected"] for rec in records)
    rng = np.random.default_rng(8)
    reference = []
    for _ in range(trials):
        g = sample_simple_regular(10, 3, rng)
        while not is_connected(g):
            g = sample_simple_regular(10, 3, rng)
        reference.append(run_on_graph(g, rng).full_degree_count)

    def counts(fs):  # F <= (n-2)/(r-1) = 4; the rare F = 1 joins F = 2
        return np.bincount(np.maximum(fs, 2) - 2, minlength=3)

    ours = counts([rec["full_degree_count"] for rec in records])
    theirs = counts(reference)
    assert np.all(ours + theirs > 0)
    # two-sample chi-square with equal sample sizes, 2 dof
    assert np.sum((ours - theirs) ** 2 / (ours + theirs)) < 13.82  # 0.999 quantile


def test_aggregate_empty():
    assert harness.aggregate_trials([]) == {"trials": 0}


def test_std_shrinks_with_n(sim_batch_r3):
    records_small, _ = harness.simulate_trials(3, 1000, 20, seed=3)
    agg_small = harness.aggregate_trials(records_small)
    records_big, _, _ = sim_batch_r3
    agg_big = harness.aggregate_trials(records_big)
    assert agg_small["std_final_full_fraction"] > agg_big["std_final_full_fraction"]


def test_deviations_shrink_with_n(sim_batch_r3, ode_r3):
    sol_samples = ode_r3.samples
    _, trajs_small = harness.simulate_trials(3, 1000, 20, seed=3)
    small_devs = [harness.sup_deviations(3, t.samples, sol_samples)
                  for t in trajs_small]
    _, trajs_big, _ = sim_batch_r3
    big_devs = [harness.sup_deviations(3, t.samples, sol_samples)
                for t in trajs_big]
    for name in ("z1", "z2", "z3", "zL", "zF", "zM_over_r"):
        mean_small = np.mean([d[name] for d in small_devs])
        mean_big = np.mean([d[name] for d in big_devs])
        assert mean_small > mean_big, name


@pytest.mark.parametrize("sim_rows, sol_rows", [(7, 40), (40, 7)])
def test_sup_deviations_interpolate_the_solution_onto_the_simulated_grid(sim_rows, sol_rows):
    # the simulated grid is the base whichever series has more rows
    rng = np.random.default_rng(5)

    def table(xs):
        return np.column_stack([xs, rng.random((len(xs), 6)), np.ones(len(xs))])

    sim = table(np.linspace(0.05, 0.9, sim_rows))
    sol = table(np.linspace(0.0, 0.8, sol_rows))
    devs = harness.sup_deviations(3, sim, sol)
    overlap = sim[:, 0] <= 0.8
    sim_x = sim[overlap, 0]
    for k, name in enumerate(["z1", "z2", "z3", "zL", "zF", "zM_over_r"], start=1):
        scale = 3.0 if name == "zM_over_r" else 1.0
        sim_vals, sol_vals = sim[overlap, k] / scale, sol[:, k] / scale
        expected = np.max(np.abs(sim_vals - np.interp(sim_x, sol[:, 0], sol_vals)))
        assert devs[name] == expected, name


def test_trajectory_csv_roundtrip(tmp_path):
    _, trajs = harness.simulate_trials(3, 400, 1, seed=1)
    path = tmp_path / "traj.csv"
    harness.write_trajectory_csv(trajs[0], path)
    r, samples = harness.read_trajectory_csv(path)
    assert r == 3
    assert np.array_equal(samples, trajs[0].samples)


def test_solution_csv_header(tmp_path, ode_r3):
    path = tmp_path / "sol.csv"
    harness.write_trajectory_csv(ode_r3, path)
    with open(path) as fh:
        assert fh.readline().strip() == "x,z1,z2,z3,zL,zF,zM,phase"
    r, samples = harness.read_trajectory_csv(path)
    assert r == 3
    assert samples[0, 7] == 1 and samples[-1, 7] == 2


def test_cli_simulate_and_compare(tmp_path, ode_r3):
    sim_dir = tmp_path / "sim"
    sol_csv = tmp_path / "sol.csv"
    harness.write_trajectory_csv(ode_r3, sol_csv)
    rc = main(["simulate", "--r", "3", "--n", "4000", "--trials", "2",
               "--seed", "11", "--jobs", "1", "--out", str(sim_dir)])
    assert rc == 0
    assert sorted(os.listdir(sim_dir)) == [
        "aggregate.json", "trial_0000.json", "trial_0000_trajectory.csv",
        "trial_0001.json", "trial_0001_trajectory.csv"]
    cmp_dir = tmp_path / "cmp"
    rc = main(["compare", "--sim-dir", str(sim_dir), "--ode-csv", str(sol_csv),
               "--sup-tol", "0.08", "--mean-tol", "0.05", "--out", str(cmp_dir)])
    assert rc == 0
    report = read_json_without_timestamp(cmp_dir / "compare_r3.json")
    assert report["passed"]
    assert set(report["max_deviations"]) == {"z1", "z2", "z3", "zL", "zF", "zM_over_r"}
    # impossible tolerance: tolerance-failure exit code
    rc = main(["compare", "--sim-dir", str(sim_dir), "--ode-csv", str(sol_csv),
               "--sup-tol", "1e-9"])
    assert rc == 1


def test_cli_compare_r_mismatch(tmp_path):
    sim_dir = tmp_path / "sim4"
    rc = main(["simulate", "--r", "4", "--n", "2000", "--trials", "1",
               "--seed", "2", "--jobs", "1", "--out", str(sim_dir)])
    assert rc == 0
    rc = main(["integrate", "--r", "3", "--step", "1e-3", "--out", str(tmp_path)])
    assert rc == 0
    rc = main(["compare", "--sim-dir", str(sim_dir),
               "--ode-csv", str(tmp_path / "solution_r3.csv")])
    assert rc == 2


def test_cli_simulate_zero_trials(tmp_path):
    out = tmp_path / "empty"
    rc = main(["simulate", "--trials", "0", "--n", "100", "--out", str(out)])
    assert rc == 0
    assert read_json_without_timestamp(out / "aggregate.json") == {"trials": 0}


def test_cli_simulate_rejects_empty_graph(tmp_path, capsys):
    for mode in ("lazy", "graph"):
        rc = main(["simulate", "--r", "3", "--n", "0", "--trials", "1", "--jobs", "1",
                   "--mode", mode, "--out", str(tmp_path / mode)])
        assert rc == 2
        assert "error:" in capsys.readouterr().err


def test_cli_simulate_rejects_sample_stride_below_one(tmp_path, capsys):
    for stride in ("0", "-3"):
        rc = main(["simulate", "--r", "3", "--n", "10", "--trials", "1", "--jobs", "1",
                   "--sample-stride", stride, "--out", str(tmp_path / stride)])
        assert rc == 2
        assert "error:" in capsys.readouterr().err


def test_cli_integrate_writes_artifacts(tmp_path):
    rc = main(["integrate", "--r", "4", "--step", "1e-3", "--out", str(tmp_path)])
    assert rc == 0
    result = read_json_without_timestamp(tmp_path / "result_r4.json")
    assert result["r"] == 4
    assert abs(result["f_r"] - 0.2699) < 5e-4
    assert abs(result["u_r"] - 1 / 3) < 1e-12
    assert set(result["phase1_end_state"]) == {"z1", "z2", "z3", "z4", "zL", "zF", "zM"}


def test_cli_integrate_rejects_r2():
    assert main(["integrate", "--r", "2"]) == 2


def test_cli_reproduce_table1_coarse(tmp_path, capsys):
    rc = main(["reproduce-table1", "--step", "2e-3", "--out", str(tmp_path)])
    assert rc == 0
    table = read_json_without_timestamp(tmp_path / "table1.json")
    assert len(table["rows"]) == 8
    assert table["all_within_tolerance"]
    out = capsys.readouterr().out
    assert "max |delta|" in out


def test_cli_exact_named_and_file(tmp_path):
    rc = main(["exact", "--graph", "k4", "--out", str(tmp_path)])
    assert rc == 0
    payload = read_json_without_timestamp(tmp_path / "exact_k4.json")
    assert (payload["phi"], payload["lambda"], payload["gamma_c"]) == (1, 3, 1)
    assert payload["tree_count"] == 16
    gpath = tmp_path / "pet.txt"
    write_graph(named_graph("petersen"), gpath)
    rc = main(["exact", "--graph-file", str(gpath), "--out", str(tmp_path)])
    assert rc == 0
    payload = read_json_without_timestamp(tmp_path / "exact_pet_txt.json")
    assert (payload["phi"], payload["lambda"], payload["gamma_c"]) == (4, 6, 4)
    assert payload["tree_count"] == 2000


def test_cli_exact_on_16_vertex_graph(tmp_path):
    # above the tree-enumeration guard: phi comes from the star search alone
    rc = main(["exact", "--graph", "moebius-kantor", "--out", str(tmp_path)])
    assert rc == 0
    payload = read_json_without_timestamp(tmp_path / "exact_moebius_kantor.json")
    assert (payload["phi"], payload["lambda"], payload["gamma_c"]) == (6, 8, 8)
    assert payload["tree_count"] is None
    assert payload["propositions"]["all_pass"]


def test_cli_exact_construction(tmp_path, capsys):
    rc = main(["exact", "--construction", "prism r=3 m=5", "--out", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "phi >= 3" in out
    files = [f for f in os.listdir(tmp_path) if f.startswith("exact_")]
    payload = read_json_without_timestamp(tmp_path / files[0])
    assert payload["construction_witness_is_forest"]
    assert payload["construction_bound"] == 3
    assert payload["phi"] >= 3


def test_cli_exact_usage_errors():
    assert main(["exact"]) == 2
    assert main(["exact", "--construction", "dodecahedron m=2"]) == 2
    with pytest.raises(SystemExit) as err:
        main(["exact", "--graph", "no-such-graph"])
    assert err.value.code == 2


CSV_HEADER = "x,z1,z2,z3,zL,zF,zM,phase\n"
SOLUTION = CSV_HEADER + "0,0,0,1,0,0,3,1\n0.5,0,0,0.5,0.5,0.2,1.5,1\n"


@pytest.mark.parametrize("args, files", [
    (["exact", "--graph-file", "g.txt"], {"g.txt": "4 3\n0 1\n0 x\n"}),
    (["exact", "--graph-file", "g.txt"], {"g.txt": "four 3\n"}),
    (["exact", "--graph-file", "g.txt"], {"g.txt": "0 3\n"}),
    (["exact", "--graph-file", "missing.txt"], {}),
    (["exact", "--construction", "prism r=3"], {}),
    (["exact", "--construction", "prism r=x m=4"], {}),
    (["exact", "--construction", "prism r=3 m=4 k=2"], {}),
    (["compare", "--sim-dir", ".", "--ode-csv", "missing.csv"], {}),
    (["compare", "--sim-dir", ".", "--ode-csv", "sol.csv"],
     {"sol.csv": CSV_HEADER + "0,0,0,1,0,0,3,one\n"}),
    (["compare", "--sim-dir", "sim", "--ode-csv", "sol.csv"],
     {"sol.csv": SOLUTION, "sim/trial_0000_trajectory.csv": CSV_HEADER}),
    (["compare", "--sim-dir", "sim", "--ode-csv", "sol.csv"],
     {"sol.csv": SOLUTION, "sim/trial_0000_trajectory.csv": CSV_HEADER + "0,0,0,1,0\n"}),
], ids=["edge-token", "header-token", "no-vertices", "missing-graph-file",
        "missing-key", "non-integer-value", "unknown-key", "missing-csv", "non-numeric-cell",
        "no-rows", "short-rows"])
def test_cli_malformed_input_exits_2(tmp_path, monkeypatch, capsys, args, files):
    for name, text in files.items():
        (tmp_path / name).parent.mkdir(exist_ok=True)
        (tmp_path / name).write_text(text)
    monkeypatch.chdir(tmp_path)
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "UserWarning" not in err


def test_cli_unknown_command_exits_2():
    with pytest.raises(SystemExit) as err:
        main(["frobnicate"])
    assert err.value.code == 2


def test_cli_internal_invariant_violation_exits_3(monkeypatch):
    import fdst.cli as cli
    from fdst.errors import InvariantViolationError

    def boom(*args, **kwargs):
        raise InvariantViolationError("synthetic failure")

    monkeypatch.setattr(cli, "integrate_two_phase", boom)
    assert cli.main(["integrate", "--r", "3"]) == 3


def test_cli_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("r = 4\nstep = 1e-3\nout = {}\n".format(tmp_path / "a"))
    rc = main(["--config", str(cfg), "integrate"])
    assert rc == 0
    assert (tmp_path / "a" / "result_r4.json").exists()
    rc = main(["--config", str(cfg), "integrate", "--r", "3",
               "--out", str(tmp_path / "b")])
    assert rc == 0
    assert (tmp_path / "b" / "result_r3.json").exists()


def test_end_to_end_determinism(tmp_path):
    commands = {
        "simulate": ["simulate", "--r", "3", "--n", "3000", "--trials", "2",
                     "--seed", "77", "--jobs", "1"],
        "simulate-graph": ["simulate", "--mode", "graph", "--r", "3", "--n", "500",
                           "--trials", "5", "--seed", "77", "--jobs", "2"],
        "integrate": ["integrate", "--r", "3", "--step", "1e-3"],
        "reproduce-table1": ["reproduce-table1", "--step", "1e-3"],
        "exact": ["exact", "--graph", "petersen"],
    }
    for run in ("x", "y"):
        for out, args in commands.items():
            assert main(args + ["--out", str(tmp_path / run / out)]) == 0

    def files(run):
        root = tmp_path / run
        return sorted(p.relative_to(root) for p in root.rglob("*") if p.is_file())

    names = files("x")
    assert files("y") == names
    assert {name.parts[0] for name in names} == set(commands)
    for name in names:
        if name.suffix == ".json":
            a = read_json_without_timestamp(tmp_path / "x" / name)
            b = read_json_without_timestamp(tmp_path / "y" / name)
            assert a == b, name
        else:
            a = (tmp_path / "x" / name).read_bytes()
            b = (tmp_path / "y" / name).read_bytes()
            assert a == b, name
