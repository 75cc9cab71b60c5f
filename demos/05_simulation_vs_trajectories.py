"""Lazy-mode simulation against the integrated trajectories.

Writes plot-ready CSV overlays to demo_out/.
Run:  python demos/05_simulation_vs_trajectories.py
"""
import os

from fdst import harness
from fdst.ode import integrate_two_phase

R = 3
N = 50_000
TRIALS = 3

print(f"integrating the r={R} system ...")
sol = integrate_two_phase(R)
sol_samples = sol.samples

print(f"running {TRIALS} lazy trials at n={N} ...")
records, trajs = harness.simulate_trials(R, N, TRIALS, seed=99, jobs=1)

print()
print(f"{'trial':>5} {'F/n':>8} {'rho1 (sim)':>11} {'worst sup dev':>14}")
for rec, traj in zip(records, trajs):
    devs = harness.sup_deviations(R, traj.samples, sol_samples)
    worst = max(devs.values())
    print(f"{rec['trial']:>5} {rec['full_degree_count'] / N:>8.4f} "
          f"{rec['rho1_empirical']:>11.4f} {worst:>14.4f}")
print(f"\ntrajectory prediction: f_{R} = {sol.f_r:.4f}, rho1 = {sol.rho1:.4f}")

report = harness.compare_simulations_to_solution(
    R, [t.samples for t in trajs], sol_samples, sup_tol=0.02, mean_tol=0.01)
print(f"mean final F/n = {report['mean_final_full_fraction']:.4f} "
      f"(reference {report['reference_full_fraction']:.4f}); "
      f"comparison {'passed' if report['passed'] else 'FAILED'}")

os.makedirs("demo_out", exist_ok=True)
header, rows = harness.merged_overlay_rows(R, [t.samples for t in trajs], sol_samples)
out = os.path.join("demo_out", f"overlay_r{R}.csv")
with open(out, "w") as fh:
    fh.write(",".join(header) + "\n")
    for row in rows:
        fh.write(",".join(f"{v:.6f}" for v in row) + "\n")
print(f"wrote {out} ({len(rows)} rows): columns {header[:3]} ... suitable for plotting")
