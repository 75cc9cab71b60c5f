"""Command-line harness: simulate, integrate, reproduce-table1, exact, compare.

Exit codes: 0 all checks passed, 1 a tolerance check failed, 2 usage or
input error, 3 internal invariant violation. Flags override values from an
optional key=value config file (--config).
"""
from __future__ import annotations

import argparse
import glob
import os
import sys

from . import harness
from .catalog import NAMED_GRAPHS, named_graph
from .errors import (AttemptsExhaustedError, BlendDegenerateError,
                     EventNotFoundError, InvalidInputError,
                     InvariantViolationError, SingularityError, SizeGuardError)
from .exact import (check_propositions, construct_grid_torus,
                    construct_prism_torus, exact_result, prism_torus_witness,
                    star_union_is_forest)
from .graphs import read_graph
from .ode import DEFAULT_EVENT_TOL, DEFAULT_STEP, columns, integrate_two_phase


def _read_config(path):
    values = {}
    try:
        with open(path) as fh:
            for line in fh:
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise InvalidInputError(f"{path}: expected key=value, got {line!r}")
                key, raw = (part.strip() for part in line.split("=", 1))
                values[key.replace("-", "_")] = _coerce(raw)
    except OSError as exc:
        raise InvalidInputError(f"cannot read config {path}: {exc}") from exc
    return values


def _coerce(raw):
    low = raw.lower()
    if low in ("true", "false"):
        return low == "true"
    for cast in (int, float):
        try:
            return cast(raw)
        except ValueError:
            pass
    return raw


def _ensure_out(args):
    if args.out:
        os.makedirs(args.out, exist_ok=True)
    return args.out


def _one_indexed(vertices):
    return [v + 1 for v in vertices]


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_simulate(args):
    records, trajs = harness.simulate_trials(
        args.r, args.n, args.trials, args.seed, mode=args.mode,
        sample_stride=args.sample_stride, jobs=args.jobs)
    out = _ensure_out(args)
    for rec, traj in zip(records, trajs):
        if out:
            harness.write_json(rec, os.path.join(out, f"trial_{rec['trial']:04d}.json"))
            if traj is not None:
                harness.write_trajectory_csv(
                    traj, os.path.join(out, f"trial_{rec['trial']:04d}_trajectory.csv"))
        print(f"trial {rec['trial']}: F/n = {rec['full_degree_count'] / args.n:.5f}, "
              f"leaves/n = {rec['leaf_count'] / args.n:.5f}")
    agg = harness.aggregate_trials(records)
    if out:
        harness.write_json(agg, os.path.join(out, "aggregate.json"))
    if records:
        print(f"mean final F/n over {len(records)} trials: "
              f"{agg['mean_final_full_fraction']:.5f} "
              f"(std {agg['std_final_full_fraction']:.5f})")
    else:
        print("no trials requested")
    return 0


def cmd_integrate(args):
    res = integrate_two_phase(args.r, step_size=args.step, event_tol=args.event_tol)
    names = columns(res.r)[1:-1]
    payload = {
        "r": res.r,
        "rho1": res.rho1,
        "rho2": res.rho2,
        "f_r": res.f_r,
        "u_r": res.u_r,
        "phase1_end_state": {name: float(v) for name, v in zip(names, res.phase1.end_state)},
    }
    out = _ensure_out(args)
    if out:
        harness.write_json(payload, os.path.join(out, f"result_r{args.r}.json"))
        harness.write_trajectory_csv(res, os.path.join(out, f"solution_r{args.r}.csv"))
    print(f"r={res.r}: rho1 = {res.rho1:.6f}, rho2 = {res.rho2:.6f}, "
          f"f_{res.r} = {res.f_r:.6f}, u_{res.r} = {res.u_r:.6f}")
    return 0


def cmd_reproduce_table1(args):
    report, _ = harness.reproduce_table1(step=args.step, event_tol=args.event_tol)
    print(f"{'r':>3} {'f_r computed':>14} {'f_r reference':>14} {'u_r':>8} {'|delta|':>10}")
    for row in report["rows"]:
        print(f"{row['r']:>3} {row['f_r_computed']:>14.6f} "
              f"{row['f_r_reference']:>14.4f} {row['u_r']:>8.4f} "
              f"{row['abs_delta']:>10.2e}")
    print(f"max |delta| = {report['max_abs_delta']:.2e} "
          f"(tolerance {report['tolerance']:.0e}), "
          f"elapsed {report['elapsed_seconds']:.1f}s")
    out = _ensure_out(args)
    if out:
        # timings differ between reruns, so they stay out of the artifact
        artifact = {k: v for k, v in report.items() if k != "elapsed_seconds"}
        harness.write_json(artifact, os.path.join(out, "table1.json"))
    return 0 if report["all_within_tolerance"] else 1


_CONSTRUCTION_KEYS = {"prism": ("r", "m"), "grid": ("delta", "m")}


def _parse_construction(text):
    parts = text.split()
    if not parts:
        raise InvalidInputError("empty construction string")
    kind, params = parts[0].lower(), {}
    keys = _CONSTRUCTION_KEYS.get(kind)
    if keys is None:
        raise InvalidInputError(f"unknown construction {kind!r} (use prism or grid)")
    for tok in parts[1:]:
        key, _, val = tok.partition("=")
        if key not in keys:
            raise InvalidInputError(
                f"bad construction parameter {tok!r} ({kind} takes {', '.join(keys)})")
        if key in params:
            raise InvalidInputError(f"construction parameter {key} given twice")
        try:
            params[key] = int(val)
        except ValueError:
            raise InvalidInputError(
                f"construction parameter {key} must be an integer, got {val!r}") from None
    missing = [key for key in keys if key not in params]
    if missing:
        raise InvalidInputError(f"construction {kind!r} needs {', '.join(missing)}")
    if kind == "prism":
        g = construct_prism_torus(params["r"], params["m"])
        witness = prism_torus_witness(params["r"], params["m"])
        return g, {"kind": "prism", **params, "witness": witness}
    g = construct_grid_torus(params["delta"], params["m"])
    return g, {"kind": "grid", **params}


def cmd_exact(args):
    sources = [s for s in (args.graph, args.graph_file, args.construction) if s]
    if len(sources) != 1:
        raise InvalidInputError(
            "exactly one of --graph/--graph-file/--construction is required")
    meta = None
    if args.graph:
        g = named_graph(args.graph)
        label = args.graph
    elif args.graph_file:
        g = read_graph(args.graph_file)
        label = os.path.basename(args.graph_file)
    else:
        g, meta = _parse_construction(args.construction)
        label = args.construction
    res = exact_result(g)
    checks = check_propositions(g, res)
    payload = {
        "graph": label,
        "n": g.n,
        "phi": res.phi,
        "lambda": res.lam,
        "gamma_c": res.gamma_c,
        "tree_count": res.tree_count,
        "witness_full_set": res.witness_full_set,
        "witness_tree": [list(e) for e in res.witness_tree],
        "witness_cds": res.witness_cds,
        "propositions": checks,
    }
    if meta is not None and "witness" in meta:
        payload["construction_witness"] = meta["witness"]
        payload["construction_witness_is_forest"] = star_union_is_forest(
            g, meta["witness"])
        payload["construction_bound"] = len(meta["witness"])
    print(f"{label}: n = {g.n}, phi = {res.phi}, lambda = {res.lam}, "
          f"gamma_C = {res.gamma_c}")
    print(f"  full-degree witness (1-indexed): {_one_indexed(res.witness_full_set)}")
    print(f"  connected dominating set (1-indexed): {_one_indexed(res.witness_cds)}")
    if meta is not None and "witness" in meta:
        ok = payload["construction_witness_is_forest"]
        print(f"  construction bound: phi >= {len(meta['witness'])} "
              f"(witness {'valid' if ok else 'INVALID'})")
    for name, check in checks.items():
        if isinstance(check, dict):
            mark = "pass" if check["passed"] else "FAIL"
            print(f"  [{mark}] {check['statement']}")
    out = _ensure_out(args)
    if out:
        safe = "".join(c if c.isalnum() else "_" for c in label)
        harness.write_json(payload, os.path.join(out, f"exact_{safe}.json"))
    return 0 if checks["all_pass"] else 1


def cmd_compare(args):
    sol_r, sol = harness.read_trajectory_csv(args.ode_csv)
    sim_paths = sorted(glob.glob(os.path.join(args.sim_dir, "trial_*_trajectory.csv")))
    if not sim_paths:
        raise InvalidInputError(f"no trial trajectories under {args.sim_dir}")
    sim_samples = []
    for path in sim_paths:
        r, samples = harness.read_trajectory_csv(path)
        if r != sol_r:
            raise InvalidInputError(
                f"r mismatch: simulation {path} has r={r}, solution has r={sol_r}")
        sim_samples.append(samples)
    report = harness.compare_simulations_to_solution(
        sol_r, sim_samples, sol, sup_tol=args.sup_tol, mean_tol=args.mean_tol)
    for name, dev in report["max_deviations"].items():
        print(f"sup |sim - sol| {name}: {dev:.5f}")
    print(f"mean final F/n = {report['mean_final_full_fraction']:.5f} "
          f"vs reference {report['reference_full_fraction']:.5f} "
          f"(std {report['std_final_full_fraction']:.5f})")
    print("comparison", "passed" if report["passed"] else "FAILED")
    out = _ensure_out(args)
    if out:
        harness.write_json(report, os.path.join(out, f"compare_r{sol_r}.json"))
        header, rows = harness.merged_overlay_rows(sol_r, sim_samples, sol)
        with open(os.path.join(out, f"compare_merged_r{sol_r}.csv"), "w") as fh:
            fh.write(",".join(header) + "\n")
            for row in rows:
                fh.write(",".join(repr(float(v)) for v in row) + "\n")
    return 0 if report["passed"] else 1


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _build_parser(config):
    parser = argparse.ArgumentParser(
        prog="fdst",
        description="Full-degree spanning trees on random regular graphs.")
    parser.add_argument("--config", help="key=value file; flags override it")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="seeded greedy runs with trajectories")
    sim.add_argument("--r", type=int, default=3)
    sim.add_argument("--n", type=int, default=100_000)
    sim.add_argument("--trials", type=int, default=1)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--mode", choices=("lazy", "graph"), default="lazy")
    sim.add_argument("--sample-stride", type=int, default=None)
    sim.add_argument("--jobs", type=int, default=None,
                     help="parallel trials, at least 1 (default and cap: min(trials, cores))")
    sim.add_argument("--out", default=None)
    sim.set_defaults(func=cmd_simulate)

    integ = sub.add_parser("integrate", help="two-phase trajectory system for one r")
    integ.add_argument("--r", type=int, default=3)
    integ.add_argument("--step", type=float, default=DEFAULT_STEP)
    integ.add_argument("--event-tol", type=float, default=DEFAULT_EVENT_TOL)
    integ.add_argument("--out", default=None)
    integ.set_defaults(func=cmd_integrate)

    tab = sub.add_parser("reproduce-table1",
                         help="integrate r=3..10 and check f_r against the reference table")
    tab.add_argument("--step", type=float, default=DEFAULT_STEP)
    tab.add_argument("--event-tol", type=float, default=DEFAULT_EVENT_TOL)
    tab.add_argument("--out", default=None)
    tab.set_defaults(func=cmd_reproduce_table1)

    exa = sub.add_parser("exact", help="exact oracles on a small graph")
    exa.add_argument("--graph", choices=sorted(NAMED_GRAPHS), default=None)
    exa.add_argument("--graph-file", default=None)
    exa.add_argument("--construction", default=None,
                     help="e.g. 'prism r=3 m=5' or 'grid delta=4 m=3'")
    exa.add_argument("--out", default=None)
    exa.set_defaults(func=cmd_exact)

    comp = sub.add_parser("compare", help="simulation trajectories vs an ODE solution")
    comp.add_argument("--sim-dir", required=True)
    comp.add_argument("--ode-csv", required=True)
    comp.add_argument("--sup-tol", type=float, default=0.01)
    comp.add_argument("--mean-tol", type=float, default=0.005)
    comp.add_argument("--out", default=None)
    comp.set_defaults(func=cmd_compare)

    if config:
        for sp in sub.choices.values():
            dests = {action.dest for action in sp._actions}
            sp.set_defaults(**{k: v for k, v in config.items() if k in dests})
    return parser


def main(argv=None):
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    pre = argparse.ArgumentParser(add_help=False)
    pre.add_argument("--config", default=None)
    known, _ = pre.parse_known_args(argv)
    try:
        config = _read_config(known.config) if known.config else {}
        parser = _build_parser(config)
        args = parser.parse_args(argv)
        return args.func(args)
    except (InvalidInputError, SizeGuardError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (InvariantViolationError, SingularityError, BlendDegenerateError,
            EventNotFoundError, AttemptsExhaustedError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
