"""Simulation against the ODE solution on the rows r = 5..10 of the table.

The acceptance gate compares simulations with the trajectory system at
r = 3 only. Here one seeded lazy run at n = 1e5 per row must follow its
solution within the same sup-norm tolerance and land on its f_r and rho1.
The six runs share one two-worker pool.
"""
from concurrent.futures import ProcessPoolExecutor

import pytest

from fdst import harness

N = 100_000
ROWS = range(5, 11)


@pytest.fixture(scope="module")
def lazy_rows():
    """{r: (trial record, Trajectory)} of one lazy trial per row, base seed r."""
    work = [(r, N, "lazy", 0, r, None) for r in ROWS]
    with ProcessPoolExecutor(max_workers=2) as pool:
        return {rec["r"]: (rec, traj) for _, rec, traj in pool.map(harness._run_trial, work)}


@pytest.mark.parametrize("r", ROWS)
def test_lazy_run_follows_the_solution(r, lazy_rows, table1):
    record, traj = lazy_rows[r]
    sol = table1[1][r]
    sup = max(harness.sup_deviations(r, traj.samples, sol.samples).values())
    assert sup <= 0.01, sup
    assert abs(record["full_degree_count"] / N - sol.f_r) <= 0.005
    assert abs(record["rho1_empirical"] - sol.rho1) <= 0.01
