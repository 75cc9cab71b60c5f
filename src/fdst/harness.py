"""Experiment layer: reproducible trials, table reproduction, trajectory
comparison, and the CSV/JSON artifact formats shared with the CLI.

All randomness is derived from one user seed; trial k runs on a 64-bit
seed drawn from ``np.random.SeedSequence([seed, k])``, so distinct base
seeds give unrelated trial seeds, and re-running a config reproduces every
artifact byte for byte apart from the timestamp field.

A lazy-mode trial is `fdst.greedy.run_lazy`. A graph-mode trial draws a
pairing with a simple projection (`fdst.graphs.sample_simple_pairing`) and
runs the greedy on it (`fdst.greedy.run_on_pairing`); completion finds out
whether the graph is connected, and a disconnected one is drawn again.
Trials are dispatched to the worker pool in chunks of about a quarter of
each worker's share.
"""
from __future__ import annotations

import json
import os
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from . import constants
from .errors import InvalidInputError
from .graphs import sample_simple_pairing
from .greedy import run_lazy, run_on_pairing
from .ode import DEFAULT_EVENT_TOL, DEFAULT_STEP, columns, integrate_two_phase


def derive_trial_seed(seed, k):
    """Seed of trial k under base seed ``seed``: a nonnegative int that JSON holds."""
    return int(np.random.SeedSequence([seed, k]).generate_state(1, np.uint64)[0])


# ---------------------------------------------------------------------------
# artifact io
# ---------------------------------------------------------------------------

def write_json(obj, path):
    payload = dict(obj)
    payload["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%S")
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_trajectory_csv(table, path):
    """Write the sample table of a simulated Trajectory or an ODE TrajectoryResult.

    Both carry ``r`` and ``samples`` in the ``fdst.ode.columns(r)`` layout.
    """
    with open(path, "w") as fh:
        fh.write(",".join(columns(table.r)) + "\n")
        for row in table.samples:
            cells = [repr(float(v)) for v in row[:-1]]
            cells.append(str(int(row[-1])))
            fh.write(",".join(cells) + "\n")


def read_trajectory_csv(path):
    """Read a trajectory/solution CSV; returns (r, samples array)."""
    try:
        with open(path) as fh:
            header = fh.readline().strip().split(",")
            rows = [line for line in fh if line.strip()]
    except OSError as exc:
        raise InvalidInputError(f"cannot read {path}: {exc}") from exc
    r = len(header) - len(columns(0))  # z1..zr are the only r-dependent columns
    if header != columns(r):
        raise InvalidInputError(f"{path}: unexpected header {header}")
    try:
        # np.loadtxt warns on empty input, so it never sees one
        data = (np.loadtxt(rows, delimiter=",", ndmin=2, comments=None) if rows
                else np.empty((0, len(header))))
    except ValueError as exc:
        raise InvalidInputError(f"{path}: {exc}") from exc
    if len(data) == 0 or data.shape[1] != len(header):
        raise InvalidInputError(f"{path}: expected rows of {len(header)} numbers")
    return r, data


# ---------------------------------------------------------------------------
# simulation trials
# ---------------------------------------------------------------------------

def _run_trial(args):
    r, n, mode, trial, seed, sample_stride = args
    # derived in the trial, so a parent that only dispatches never loads np.random
    trial_seed = derive_trial_seed(seed, trial)
    rng = np.random.default_rng(trial_seed)
    resamples = rejections = 0
    if mode == "lazy":
        result, traj = run_lazy(n, r, rng, sample_stride=sample_stride)
    elif mode == "graph":
        while True:
            pairing, rejected = sample_simple_pairing(n, r, rng)
            rejections += rejected
            result = run_on_pairing(pairing, rng)
            if result.connected:
                break
            resamples += 1
        traj = None
    else:
        raise InvalidInputError(f"unknown mode {mode!r}")
    record = {
        "trial": trial,
        "seed": trial_seed,
        "n": n,
        "r": r,
        "mode": mode,
        "full_degree_count": result.full_degree_count,
        "leaf_count": result.leaf_count,
        "phase1_full_degree_count": result.phase1_full_degree_count,
        "rho1_empirical": result.rho1_empirical,
        "connected": result.connected,
        "connectivity_resamples": resamples,
        "sampler_rejections": rejections,
    }
    return trial, record, traj


def simulate_trials(r, n, trials, seed, mode="lazy", sample_stride=None, jobs=None):
    """Run independent seeded trials; returns (records, trajectories) by trial index."""
    if trials < 0:
        raise InvalidInputError(f"trials must be >= 0, got {trials}")
    if jobs is not None and jobs < 1:
        raise InvalidInputError(f"jobs must be >= 1, got {jobs}")
    work = [(r, n, mode, k, seed, sample_stride) for k in range(trials)]
    # more workers than trials or cores would only add start-up cost
    jobs = max(1, min(trials if jobs is None else jobs, trials, os.cpu_count() or 1))
    out = [None] * trials
    trajs = [None] * trials
    if jobs == 1:
        for trial, record, traj in map(_run_trial, work):
            out[trial] = record
            trajs[trial] = traj
    else:
        # a few chunks per worker: fewer round trips, still an even load
        chunksize = -(-trials // (4 * jobs))
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            for trial, record, traj in pool.map(_run_trial, work, chunksize=chunksize):
                out[trial] = record
                trajs[trial] = traj
    return out, trajs


def aggregate_trials(records):
    """Deterministic fold over trial-index order."""
    if not records:
        return {"trials": 0}
    n = records[0]["n"]
    finals = np.array([rec["full_degree_count"] / n for rec in records])
    leaves = np.array([rec["leaf_count"] / n for rec in records])
    rho1 = [rec["rho1_empirical"] for rec in records if rec["rho1_empirical"] is not None]
    agg = {
        "trials": len(records),
        "n": n,
        "r": records[0]["r"],
        "mode": records[0]["mode"],
        "mean_final_full_fraction": float(np.mean(finals)),
        "std_final_full_fraction": float(np.std(finals)),
        "mean_leaf_fraction": float(np.mean(leaves)),
        "all_connected": all(rec["connected"] for rec in records),
    }
    if rho1:
        agg["mean_rho1_empirical"] = float(np.mean(rho1))
    return agg


# ---------------------------------------------------------------------------
# table reproduction
# ---------------------------------------------------------------------------

def reproduce_table1(step=DEFAULT_STEP, event_tol=DEFAULT_EVENT_TOL):
    """Integrate every r of the reference table, compare f_r against it."""
    rows = []
    solutions = {}
    t0 = time.perf_counter()
    for r, ref in constants.FULL_DEGREE_FRACTION.items():
        res = integrate_two_phase(r, step_size=step, event_tol=event_tol)
        solutions[r] = res
        rows.append({
            "r": r,
            "f_r_computed": res.f_r,
            "f_r_reference": ref,
            "u_r": res.u_r,
            "abs_delta": abs(res.f_r - ref),
            "rho1": res.rho1,
            "rho2": res.rho2,
        })
    elapsed = time.perf_counter() - t0
    report = {
        "rows": rows,
        "max_abs_delta": max(row["abs_delta"] for row in rows),
        "tolerance": constants.TABLE_TOLERANCE,
        "all_within_tolerance": all(
            row["abs_delta"] <= constants.TABLE_TOLERANCE for row in rows),
        "elapsed_seconds": round(elapsed, 3),
    }
    return report, solutions


# ---------------------------------------------------------------------------
# trajectory-vs-solution comparison
# ---------------------------------------------------------------------------

def _variable_names(r):
    """The compared variables: the state coordinates, with zM normalized by r."""
    return columns(r)[1:-2] + ["zM_over_r"]


def _columns(r, samples):
    """Map column name -> column values, with zM pre-normalized by r."""
    cols = dict(zip(columns(r), samples.T))
    cols["zM_over_r"] = cols.pop("zM") / r
    return cols


def sup_deviations(r, sim_samples, sol_samples):
    """Per-variable sup-norm deviation of a simulation from a solution.

    The solution is linearly interpolated onto the simulated grid, restricted
    to the overlapping x-range. At the default step that interpolation errs
    by under 1e-4 for r <= 10.
    """
    sim = _columns(r, sim_samples)
    sol = _columns(r, sol_samples)
    hi = min(sim["x"][-1], sol["x"][-1])
    lo = max(sim["x"][0], sol["x"][0])
    mask = (sim["x"] >= lo) & (sim["x"] <= hi)
    grid = sim["x"][mask]
    devs = {}
    for name in _variable_names(r):
        sol_vals = np.interp(grid, sol["x"], sol[name])
        devs[name] = float(np.max(np.abs(sim[name][mask] - sol_vals)))
    return devs


def compare_simulations_to_solution(r, sim_samples_list, sol_samples,
                                    sup_tol=0.01, mean_tol=0.005):
    """Compare a batch of trajectories against one solution grid.

    Each trial's final full-degree fraction is the last z_F of its table;
    their mean is checked against the solution's final z_F. Returns the
    dict that ``fdst compare`` writes, ``passed`` included.
    """
    per_trial = [sup_deviations(r, samples, sol_samples) for samples in sim_samples_list]
    max_devs = {name: max(d[name] for d in per_trial) if per_trial else 0.0
                for name in _variable_names(r)}
    finals = np.array([_columns(r, samples)["zF"][-1] for samples in sim_samples_list])
    f_ref = float(_columns(r, sol_samples)["zF"][-1])
    mean_final = float(np.mean(finals)) if len(finals) else float("nan")
    std_final = float(np.std(finals)) if len(finals) else float("nan")
    sup_ok = all(v <= sup_tol for v in max_devs.values())
    mean_ok = abs(mean_final - f_ref) <= mean_tol if len(finals) else False
    return {
        "r": r,
        "per_trial_deviations": per_trial,
        "max_deviations": max_devs,
        "mean_final_full_fraction": mean_final,
        "std_final_full_fraction": std_final,
        "reference_full_fraction": f_ref,
        "sup_tolerance": sup_tol,
        "mean_tolerance": mean_tol,
        "sup_passed": sup_ok,
        "mean_passed": mean_ok,
        "passed": sup_ok and mean_ok,
    }


def merged_overlay_rows(r, sim_samples_list, sol_samples):
    """Plot-ready merge: sim trial mean and solution value per variable.

    Rows are on the sparsest sim grid clipped to the solution range;
    header: x, sim_<var>..., sol_<var>...
    """
    names = _variable_names(r)
    base = min(sim_samples_list, key=len)
    sol = _columns(r, sol_samples)
    hi = min(base[-1, 0], sol["x"][-1])
    grid = base[:, 0][base[:, 0] <= hi]
    sim_means = {}
    for name in names:
        acc = np.zeros_like(grid)
        for samples in sim_samples_list:
            cols = _columns(r, samples)
            acc += np.interp(grid, cols["x"], cols[name])
        sim_means[name] = acc / len(sim_samples_list)
    header = ["x"] + [f"sim_{n}" for n in names] + [f"sol_{n}" for n in names]
    columns = ([grid] + [sim_means[n] for n in names]
               + [np.interp(grid, sol["x"], sol[n]) for n in names])
    return header, np.column_stack(columns).tolist()
