"""Drift functions, the deprioritized blend, events, and closed forms."""
import numpy as np
import pytest

from fdst.constants import PHASE_BOUNDARIES
from fdst.errors import IntegrationError, InvalidInputError
from fdst.ode import (DEFAULT_STEP, MIN_STEP, analytic_phase1, blend_phase2, deriv,
                      initial_state, integrate_two_phase)


def test_deriv_op1_at_initial_state_r3():
    d = deriv(3, [0.0, 0.0, 1.0, 0.0, 0.0, 3.0], 1)
    assert d == [0.0, 0.0, -2.0, 1.0, 1.0, -4.0]


def test_deriv_op1_zero_unseen_share():
    # with every z_i = 0 the success factor and the L-gain vanish
    z = [0.0, 0.0, 0.0, 0.2, 0.1, 1.5]
    d = deriv(3, z, 1)
    assert d[4] == 0.0
    assert d[3] == -1.0 + 2 * (-2 * 0.2 / 1.5)


def test_deriv_op1_m_slope_is_state_independent():
    rng = np.random.default_rng(0)
    for r in (3, 5, 8):
        for _ in range(10):
            z = (0.2 * rng.random(r + 3)).tolist()
            z[r + 2] = 1.0 + rng.random()
            assert deriv(r, z, 1)[r + 2] == -2.0 * (r - 1)
            assert deriv(r, z, 2)[r + 2] == -2.0 * r


def test_deriv_op2_saturated_and_empty_states():
    # all unrevealed points unseen: success is certain
    d = deriv(3, [0.0, 0.0, 1.0, 0.0, 0.0, 3.0], 2)
    assert d[4] == 1.0 and d[5] == -6.0
    # no unseen points left: success is impossible
    d = deriv(3, [0.0, 0.0, 0.0, 0.3, 0.1, 1.0], 2)
    assert d[4] == 0.0


def test_deriv_op2_at_phase1_end(ode_r3):
    d = deriv(3, ode_r3.phase1.end_state.tolist(), 2)
    assert all(np.isfinite(d))
    assert d[2] < 0.0  # the unseen class keeps shrinking


def _at_most(t, m, q):
    """P_t(m): at most t of m revealed points land outside the unseen classes."""
    return q ** m + t * m * q ** (m - 1) * (1.0 - q)


def _drift_reference(r, z, op):
    """One op step's drift restated class by class: k = r-2+op pairs are
    revealed, and the step succeeds while at most op-1 partners are outside
    the unseen classes."""
    k = r - 2 + op
    z_m = z[r + 2]
    q = sum((i + 1) * z[i] for i in range(r)) / z_m
    succ = _at_most(op - 1, k - 1, q)    # given one partner is unseen
    hit = [(i + 1) * z[i] / z_m for i in range(r)]
    d = [0.0] * (r + 3)
    for i in range(r):
        d[i] -= k * hit[i]
    for i in range(r - 1):
        d[i] += k * hit[i + 1] * (1.0 - succ)
    d[r] = k * (hit[r - 1] * succ - (r - 1) * z[r] / z_m)
    d[r + 1] = _at_most(op - 1, k, q)
    d[r + 2] = -2.0 * k
    d[r + 1 - op] -= 1.0                 # the processed leaf or fresh vertex
    return d


def test_drift_matches_at_most_form_at_interior_states():
    # interior states, where every term of both drifts is live: each z_i > 0,
    # z_L > 0 and 0 < q < 1
    rng = np.random.default_rng(20)
    for r in range(3, 11):
        for _ in range(5):
            z = (0.05 + rng.random(r + 3)).tolist()
            q = 0.1 + 0.8 * rng.random()
            z[r + 2] = sum((i + 1) * z[i] for i in range(r)) / q
            for op in (1, 2):
                np.testing.assert_allclose(deriv(r, z, op), _drift_reference(r, z, op),
                                           rtol=1e-12, atol=0.0, err_msg=f"r={r} op={op}")


def test_singularity_floor():
    z = initial_state(3)
    z[5] = 1e-9
    for op in (1, 2):
        with pytest.raises(IntegrationError, match="below floor") as err:
            deriv(3, z, op)
        assert err.value.state == z


def test_blend_zeroes_leaf_drift():
    # states with a modest unseen share, so the mixture is well defined
    rng = np.random.default_rng(7)
    for r in (3, 4, 6):
        scale = 0.5 / (r * (r + 1))
        for _ in range(25):
            z = (scale * rng.random(r + 3)).tolist()
            z[r + 2] = 1.0 + rng.random()
            z[r] = 0.0
            d = blend_phase2(r, z)
            assert abs(d[r]) < 1e-14


def test_blend_is_plain_average_when_rates_match():
    # bisect a one-parameter family for the state where the leaf loss of a
    # leaf step equals the leaf gain of a fresh step (tau = alpha)
    def gap(s):
        z = [0.02, 0.05, s, 0.0, 0.4, 0.9]
        return -deriv(3, z, 1)[3] - deriv(3, z, 2)[3]

    lo, hi = 0.01, 0.3
    assert gap(lo) > 0 > gap(hi)
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if gap(mid) > 0:
            lo = mid
        else:
            hi = mid
    z = [0.02, 0.05, 0.5 * (lo + hi), 0.0, 0.4, 0.9]
    d1, d2, db = deriv(3, z, 1), deriv(3, z, 2), blend_phase2(3, z)
    mean = [(a + b) / 2 for a, b in zip(d1, d2)]
    assert np.allclose(db, mean, atol=1e-9)


def test_blend_mixture_in_unit_interval_at_phase2_start(ode_r3):
    z = ode_r3.phase1.end_state.tolist()
    d1 = deriv(3, z, 1)
    d2 = deriv(3, z, 2)
    tau, alpha = -d1[3], d2[3]
    p = alpha / (tau + alpha)
    assert 0.0 < p < 1.0


def test_blend_degenerate_error():
    # huge unseen share makes a leaf step gain leaves in expectation (tau < 0)
    z = [0.0, 0.0, 1.0, 0.0, 0.0, 1.2]
    with pytest.raises(IntegrationError, match="mixture undefined") as err:
        blend_phase2(3, z)
    assert err.value.state == z
    assert err.value.x is None  # the integrator fills it in


def test_blend_degenerate_error_carries_the_phase2_time(monkeypatch, tmp_path, capsys):
    # the blend degenerates after ten phase-2 steps; the integrator stamps
    # the error with the x of the step it failed in
    import fdst.ode as ode
    from fdst.cli import main

    rho1 = integrate_two_phase(3).rho1
    real, calls = ode.blend_phase2, []

    def degenerate_later(r, z):
        calls.append(1)
        if len(calls) > 40:
            raise IntegrationError("synthetic", state=list(z))
        return real(r, z)

    monkeypatch.setattr(ode, "blend_phase2", degenerate_later)
    with pytest.raises(IntegrationError, match="phase 2") as err:
        integrate_two_phase(3)
    assert err.value.x >= rho1 + 9 * DEFAULT_STEP
    calls.clear()
    assert main(["integrate", "--r", "3", "--out", str(tmp_path)]) == 3
    assert "synthetic" in capsys.readouterr().err


def test_integration_guards():
    for bad_r in (2, 0, 3.5):
        with pytest.raises(InvalidInputError):
            integrate_two_phase(bad_r)
    # a finer step only costs time and memory; an infinite one overflows z_M
    for bad_step in (0.0, MIN_STEP / 2, float("inf")):
        with pytest.raises(InvalidInputError):
            integrate_two_phase(3, step_size=bad_step)
    # an infinite tolerance accepts the first bisection midpoint as the event
    for bad_tol in (-1.0, float("inf")):
        with pytest.raises(InvalidInputError):
            integrate_two_phase(3, event_tol=bad_tol)


def test_event_locator_fails_loudly(monkeypatch):
    # no double meets this tolerance here; bisection runs out of halvings and
    # must say so instead of returning the bracket end, and it runs out once
    # the event time x + mid can no longer be told from the bracket's ends
    import fdst.ode as ode

    real_step, real_locate = ode._rk4_step, ode._locate_zero
    inside, bisection_steps = [False], [0]

    def counted_step(*args):
        bisection_steps[0] += inside[0]
        return real_step(*args)

    def locate(*args):
        inside[0] = True
        try:
            return real_locate(*args)
        finally:
            inside[0] = False

    monkeypatch.setattr(ode, "_rk4_step", counted_step)
    monkeypatch.setattr(ode, "_locate_zero", locate)
    with pytest.raises(IntegrationError, match="residual"):
        integrate_two_phase(3, step_size=5e-2, event_tol=1e-300)
    assert 0 < bisection_steps[0] <= 64


def _failing_phase2_bisection(monkeypatch, exc):
    """Make the drift raise ``exc`` inside phase 2's event bisection only."""
    import fdst.ode as ode

    real_locate, calls = ode._locate_zero, []

    def locate(f, *args):
        calls.append(1)
        if len(calls) < 2:
            return real_locate(f, *args)

        def raising(z):
            raise exc

        return real_locate(raising, *args)

    monkeypatch.setattr(ode, "_locate_zero", locate)
    return calls


def test_bisection_error_carries_the_phase2_time(monkeypatch):
    rho1 = integrate_two_phase(3).rho1
    _failing_phase2_bisection(monkeypatch, IntegrationError("synthetic"))
    with pytest.raises(IntegrationError, match="phase 2.*synthetic") as err:
        integrate_two_phase(3)
    assert err.value.x >= rho1
    assert len(err.value.state) == 6


def test_bisection_overflow_is_an_internal_error_not_a_traceback(monkeypatch, capsys):
    from fdst.cli import main

    calls = _failing_phase2_bisection(monkeypatch, OverflowError("synthetic overflow"))
    assert main(["integrate", "--r", "3"]) == 3
    assert len(calls) == 2
    err = capsys.readouterr().err
    assert err.startswith("internal error:")
    assert "OverflowError: synthetic overflow" in err
    assert "Traceback" not in err


def test_phase_boundaries_r3_coarse_step():
    res = integrate_two_phase(3, step_size=1e-3)
    ref = PHASE_BOUNDARIES[3]
    assert abs(res.rho1 - ref["rho1"]) < 5e-4
    assert abs(res.rho2 - ref["rho2"]) < 5e-4
    assert abs(res.f_r - 0.4591) < 5e-4
    assert res.u_r == 0.5


def test_phase_boundaries_r4_coarse_step():
    res = integrate_two_phase(4, step_size=1e-3)
    ref = PHASE_BOUNDARIES[4]
    assert abs(res.rho1 - ref["rho1"]) < 5e-4
    assert abs(res.rho2 - ref["rho2"]) < 5e-4
    end = res.phase1.end_state
    for idx, key in ((0, "z1"), (1, "z2"), (2, "z3"), (3, "z4"), (5, "zF"), (6, "zM")):
        assert abs(end[idx] - ref[key]) < 5e-4, key


def test_event_states_are_on_the_events():
    res = integrate_two_phase(4, step_size=1e-3, event_tol=1e-10)
    assert abs(res.phase1.end_state[4]) <= 1e-10   # z_L at rho1
    assert abs(res.phase2.end_state[3]) <= 1e-10   # z_r at rho2
    assert np.all(np.diff(res.phase1.xs) > 0)
    assert np.all(np.diff(res.phase2.xs) > 0)
    assert res.phase1.xs[-1] == res.rho1 == res.phase2.xs[0]


def test_analytic_phase1_values():
    assert analytic_phase1(3, 0.0) == (3.0, 1.0)
    assert analytic_phase1(5, 0.0) == (5.0, 1.0)
    z_m, z_r = analytic_phase1(3, 0.3)
    assert abs(z_m - 1.8) < 1e-15
    assert abs(z_r - 0.6 ** 1.5) < 1e-15
    with pytest.raises(InvalidInputError):
        analytic_phase1(3, -0.1)
    with pytest.raises(InvalidInputError):
        analytic_phase1(3, 0.76)


def test_analytic_phase1_array_input():
    xs = np.linspace(0.0, 0.5, 11)
    z_m, z_r = analytic_phase1(3, xs)
    assert z_m.shape == xs.shape
    assert np.allclose(z_m, 3 - 4 * xs)


def test_closed_form_agreement_coarse():
    for r in (3, 5):
        res = integrate_two_phase(r, step_size=1e-3)
        xs = res.phase1.xs
        z_m, z_r = analytic_phase1(r, xs)
        assert np.max(np.abs(res.phase1.states[:, r + 2] - z_m)) < 1e-6
        assert np.max(np.abs(res.phase1.states[:, r - 1] - z_r)) < 1e-6


def test_nonnegative_trajectories():
    for r in (3, 4, 5):
        res = integrate_two_phase(r, step_size=1e-3)
        for sol in (res.phase1, res.phase2):
            assert np.min(sol.states) > -1e-10
            big_z = sol.states[:, :r] @ np.arange(1, r + 1)
            assert np.all(big_z <= sol.states[:, r + 2] + 1e-9)


def test_step_size_convergence_order():
    # fourth-order scheme: successive-halving differences of f_r shrink ~16x;
    # fit the observed order over a ladder in the asymptotic regime
    hs = (2.5e-3, 1.25e-3, 6.25e-4, 3.125e-4)
    fs = [integrate_two_phase(3, step_size=h, event_tol=1e-13).f_r for h in hs]
    diffs = [abs(fs[i] - fs[i + 1]) for i in range(len(fs) - 1)]
    assert min(diffs) > 0
    slope = np.polyfit(np.log2(hs[:-1]), np.log2(diffs), 1)[0]
    assert slope >= 3.5, f"observed order {slope}"


def test_default_step_error_budget():
    # the budget stated at DEFAULT_STEP, with at least 10x headroom over the
    # measured errors, so a coarser default fails here first
    for r in range(3, 11):
        res = integrate_two_phase(r)
        fine = integrate_two_phase(r, step_size=DEFAULT_STEP / 4, event_tol=1e-13)
        assert abs(res.f_r - fine.f_r) <= 1e-9, r
        assert abs(res.rho1 - fine.rho1) <= 1e-8, r
        assert abs(res.rho2 - fine.rho2) <= 1e-8, r
        assert np.max(np.abs(res.phase1.end_state - fine.phase1.end_state)) <= 1e-7, r


def test_f_r_below_deterministic_bound(table1):
    report, solutions = table1
    for r, res in solutions.items():
        assert 0 < res.f_r < res.u_r == 1.0 / (r - 1)
        assert 0 < res.rho1 < res.rho2


def test_state_ranges_on_default_step_solutions(table1):
    _, solutions = table1
    for r, res in solutions.items():
        for sol in (res.phase1, res.phase2):
            assert np.min(sol.states) > -1e-10
            unseen_points = sol.states[:, :r] @ np.arange(1, r + 1)
            assert np.all(unseen_points <= sol.states[:, r + 2] + 1e-9)


def test_phase2_m_slope_tracks_the_blend():
    # z_M falls at -2(r-1)p - 2r(1-p); per-step slopes must sit between the
    # two pure rates and match the blended drift at the step endpoints. The
    # endpoint average errs by O(h^2), so the step is pinned here rather than
    # taken from the default
    sol = integrate_two_phase(3, step_size=1e-5).phase2
    xs, states = sol.xs, sol.states
    slopes = np.diff(states[:-1, 5]) / np.diff(xs[:-1])
    assert np.all(slopes <= -4.0 + 1e-9)
    assert np.all(slopes >= -6.0 - 1e-9)
    stride = max(1, (len(xs) - 2) // 50)
    for k in range(0, len(xs) - 2, stride):
        expected = 0.5 * (blend_phase2(3, states[k].tolist())[5]
                          + blend_phase2(3, states[k + 1].tolist())[5])
        # endpoint-average comparison is second order; curvature grows near
        # the phase end, so allow an order of headroom over the bulk error
        assert abs(slopes[k] - expected) < 1e-7
