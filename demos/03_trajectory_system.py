"""The two-phase drift system: phase boundaries, closed forms, the f_r table.

Run:  python demos/03_trajectory_system.py
"""
import numpy as np

from fdst.constants import FULL_DEGREE_FRACTION
from fdst.ode import analytic_phase1, columns, integrate_two_phase

print("=" * 64)
print("r = 3 in detail")
print("=" * 64)
res = integrate_two_phase(3, step_size=1e-4)
print(f"phase 1 ends when the processable-leaf class empties: rho1 = {res.rho1:.4f}")
names = columns(3)[1:-1]
state = ", ".join(f"{k}={v:.4f}" for k, v in zip(names, res.phase1_end_state))
print(f"state there: {state}")
print(f"phase 2 ends when the unseen class empties: rho2 = {res.rho2:.4f}")
print(f"full-degree yield f_3 = zF(rho2) = {res.f_r:.4f} "
      f"(deterministic upper bound u_3 = {res.u_r:.4f})")

print()
print("=" * 64)
print("Phase-1 closed forms vs the numeric grid")
print("=" * 64)
xs = res.phase1.xs
z_m_exact, z_r_exact = analytic_phase1(3, xs)
print(f"sup |zM - (r - 2(r-1)x)|          = "
      f"{np.max(np.abs(res.phase1.states[:, 5] - z_m_exact)):.2e}")
print(f"sup |z3 - (1 - 2(r-1)x/r)^(r/2)|  = "
      f"{np.max(np.abs(res.phase1.states[:, 2] - z_r_exact)):.2e}")

print()
print("=" * 64)
print("f_r for r = 3..10 (step 1e-4 for a quick demo)")
print("=" * 64)
print(f"{'r':>3} {'f_r':>9} {'reference':>10} {'u_r':>8}")
for r in range(3, 11):
    out = integrate_two_phase(r, step_size=1e-4)
    print(f"{r:>3} {out.f_r:>9.4f} {FULL_DEGREE_FRACTION[r]:>10.4f} {out.u_r:>8.4f}")
