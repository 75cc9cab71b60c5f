"""The scaled one-step drift and the two-phase trajectory integrator.

The state vector has a = r+3 coordinates ordered (z_1, ..., z_r, z_L, z_F,
z_M): scaled sizes of the unseen classes Z_1..Z_r, the processable-leaf
class L, the full-degree count F, and the unrevealed-point count M. All
drifts depend on the state only, so the integrator's callbacks take z
alone; there is no time term.

Phase 1 processes leaf vertices only and ends when z_L returns to zero;
phase 2 mixes leaf steps and fresh-vertex steps in the deprioritized
proportion p = alpha/(tau+alpha) that pins z_L at zero, and ends when z_r
hits zero. The full-degree yield is f_r = z_F at the end of phase 2.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import IntegrationError, InvalidInputError

Z_M_FLOOR = 1e-6
NEGATIVE_CLIP = 1e-12
# Error budget against h = 2.5e-6 with event_tol = 1e-13, worst over r = 3..10:
# at h = 1e-3, |df_r| <= 3.3e-11, |drho1|, |drho2| <= 3.6e-10 and the phase-1
# end state within 6.4e-9. That is the DEFAULT_EVENT_TOL floor, about 1e5
# below the paper's four-decimal tolerances; truncation error first shows at
# 2e-3. test_default_step_error_budget holds the default to this budget.
DEFAULT_STEP = 1e-3
# The finest step of that budget. A phase marches up to 2/step steps and keeps
# every row, so a finer step costs time and memory for no accuracy it can show.
MIN_STEP = 2.5e-6
DEFAULT_EVENT_TOL = 1e-10


def columns(r):
    """Column names of a sample table: x, the state coordinates, phase.

    ODE solutions and simulated trajectories share this layout.
    """
    return ["x", *(f"z{i}" for i in range(1, r + 1)), "zL", "zF", "zM", "phase"]


@dataclass
class PhaseSolution:
    phase: int
    xs: np.ndarray          # strictly increasing grid, ends at rho
    states: np.ndarray      # len(xs) rows of (r+3) coordinates
    rho: float
    end_state: np.ndarray


@dataclass
class TrajectoryResult:
    r: int
    rho1: float
    rho2: float
    f_r: float
    u_r: float
    phase1: PhaseSolution
    phase2: PhaseSolution

    @property
    def samples(self):
        """Both phases as one table in the ``columns(r)`` layout."""
        return np.vstack([np.column_stack([p.xs, p.states, np.full(len(p.xs), p.phase)])
                          for p in (self.phase1, self.phase2)])


def _check_r(r):
    if not isinstance(r, (int, np.integer)) or r < 3:
        raise InvalidInputError(f"trajectory system is defined for integer r >= 3, got {r}")


def initial_state(r):
    """Scaled state at x=0: everything unseen (z_r = 1) and z_M = r."""
    _check_r(r)
    z = [0.0] * (r + 3)
    z[r - 1] = 1.0
    z[r + 2] = float(r)
    return z


def deriv(r, z, op):
    """Drift of one op step: a leaf step (op 1) or a fresh-vertex step (op 2).

    An op step reveals k = r-2+op pairs and succeeds while at most op-1 of
    them land outside the unseen classes, whose share of the unrevealed
    points is q; ``s`` is that success given one partner is unseen and
    ``gain`` the full-degree yield.
    """
    z_m = z[r + 2]
    if z_m < Z_M_FLOOR:
        raise IntegrationError(f"z_M = {z_m} below floor {Z_M_FLOOR}", state=list(z))
    big_z = 0.0
    for i in range(r):
        big_z += (i + 1) * z[i]
    q = big_z / z_m
    q_r2 = q ** (r - 2)
    k = r - 2 + op
    if op == 1:
        s = q_r2
        gain = q ** (r - 1)
    else:
        s = q * q_r2 + (r - 1) * q_r2 * (1.0 - q)
        gain = q ** r + r * q ** (r - 1) * (1.0 - q)
    fail = 1.0 - s
    d = [0.0] * (r + 3)
    for i in range(1, r):
        d[i - 1] = k * (-i * z[i - 1] / z_m + (i + 1) * z[i] / z_m * fail)
    d[r - 1] = k * (-r * z[r - 1] / z_m)
    d[r] = k * (-(r - 1) * z[r] / z_m + r * z[r - 1] / z_m * s)
    d[r + 1] = gain
    d[r + 2] = -2.0 * k
    # the processed vertex itself leaves L (op 1) or Z_r (op 2)
    d[r + 1 - op] -= 1.0
    return d


def blend_phase2(r, z):
    """Deprioritized phase-2 drift p*op1 + (1-p)*op2 with p = alpha/(tau+alpha).

    alpha is the expected L-gain of a fresh-vertex step, tau the expected
    L-loss of a leaf step; the mixture zeroes the L drift identically.
    """
    d1 = deriv(r, z, 1)
    d2 = deriv(r, z, 2)
    tau = -d1[r]
    alpha = d2[r]
    if tau <= 0.0 or tau + alpha <= 0.0:
        raise IntegrationError(f"mixture undefined: tau={tau}, alpha={alpha}", state=list(z))
    p = alpha / (tau + alpha)
    q = 1.0 - p
    return [p * a + q * b for a, b in zip(d1, d2)]


def _rk4_step(f, z, h):
    k1 = f(z)
    h2 = 0.5 * h
    z2 = [zi + h2 * ki for zi, ki in zip(z, k1)]
    k2 = f(z2)
    z3 = [zi + h2 * ki for zi, ki in zip(z, k2)]
    k3 = f(z3)
    z4 = [zi + h * ki for zi, ki in zip(z, k3)]
    k4 = f(z4)
    h6 = h / 6.0
    return [zi + h6 * (a + 2.0 * (b + c) + d)
            for zi, a, b, c, d in zip(z, k1, k2, k3, k4)]


def _locate_zero(f, z, x, h, best, comp, event_tol):
    """Bisect the step fraction at which coordinate ``comp`` crosses zero.

    z[comp] > 0 at time x and the full step h from z lands at ``best``, with
    best[comp] <= 0; returns (s, state) with |state[comp]| <= event_tol. The
    halving stops once x + mid is no double strictly between x + lo and
    x + hi, since no finer event time can be reported: after at most about
    53 halvings when x >= h. Raises IntegrationError if the event is not
    located by then.
    """
    lo, hi = 0.0, h
    while True:
        mid = 0.5 * (lo + hi)
        if not x + lo < x + mid < x + hi:
            break
        zm = _rk4_step(f, z, mid)
        if abs(zm[comp]) <= event_tol:
            return mid, zm
        if zm[comp] > 0.0:
            lo = mid
        else:
            hi, best = mid, zm
    if abs(best[comp]) > event_tol:
        raise IntegrationError(
            f"event not located to {event_tol:g}: bisection stopped at residual "
            f"|z[{comp}]| = {abs(best[comp]):.3e}")
    return hi, best


def _clip_small_negatives(z):
    for i, v in enumerate(z):
        if -NEGATIVE_CLIP < v < 0.0:
            z[i] = 0.0


def _integrate_phase(f, z0, x0, step, event_comp, event_tol, phase):
    """Fixed-step march until ``event_comp`` changes sign from positive to <= 0.

    A failure in a step or in the bisection raises one IntegrationError with
    the phase, and the x and state at which the failing step began.
    """
    cap = int(2.0 / step) + 8
    xs = [x0]
    rows = [list(z0)]
    z = list(z0)
    x = x0
    try:
        for _ in range(cap):
            zn = _rk4_step(f, z, step)
            if z[event_comp] > 0.0 >= zn[event_comp]:
                s, z_end = _locate_zero(f, z, x, step, zn, event_comp, event_tol)
                rho = x + s
                _clip_small_negatives(z_end)
                xs.append(rho)
                rows.append(list(z_end))
                return PhaseSolution(phase=phase,
                                     xs=np.asarray(xs),
                                     states=np.asarray(rows),
                                     rho=rho,
                                     end_state=np.asarray(z_end))
            _clip_small_negatives(zn)
            z = zn
            x += step
            xs.append(x)
            rows.append(list(z))
    except (IntegrationError, OverflowError) as exc:
        # a step too coarse for the drift can overflow before z_M reaches its floor
        raise IntegrationError(
            f"phase {phase} failed in the step from x={x:.6f}: {type(exc).__name__}: {exc}",
            x=x, state=z) from exc
    raise IntegrationError(f"phase {phase}: no event within {cap} steps of size {step}", x=x)


def integrate_two_phase(r, step_size=DEFAULT_STEP, event_tol=DEFAULT_EVENT_TOL):
    """Run both phases of the system and report the phase boundaries.

    Classical fixed-step 4th-order integration; each phase-end time is
    localized by bisection inside the bracketing step to |z_event| <=
    event_tol. Returns a TrajectoryResult carrying the full grids.
    """
    _check_r(r)
    if not MIN_STEP <= step_size < np.inf:
        raise InvalidInputError(f"step_size must be finite and >= {MIN_STEP}, got {step_size}")
    if not 0.0 < event_tol < np.inf:
        raise InvalidInputError(f"event_tol must be positive and finite, got {event_tol}")
    z0 = initial_state(r)
    # phase 1 starts at z_L = 0 and z_L rises at slope r-2 > 0, so only its
    # return to zero is a sign change
    phase1 = _integrate_phase(
        lambda z: deriv(r, z, 1), z0, 0.0, step_size,
        event_comp=r, event_tol=event_tol, phase=1)
    phase2 = _integrate_phase(
        lambda z: blend_phase2(r, z), phase1.end_state.tolist(), phase1.rho,
        step_size, event_comp=r - 1, event_tol=event_tol, phase=2)
    end = phase2.end_state
    return TrajectoryResult(
        r=r,
        rho1=phase1.rho,
        rho2=phase2.rho,
        f_r=float(end[r + 1]),
        u_r=1.0 / (r - 1),
        phase1=phase1,
        phase2=phase2,
    )


def analytic_phase1(r, x):
    """Closed-form phase-1 values (z_M, z_r) = (r - 2(r-1)x, (1 - 2(r-1)x/r)^(r/2)).

    Valid on the first-phase window, i.e. while z_M stays positive; accepts
    scalars or arrays.
    """
    _check_r(r)
    x = np.asarray(x, dtype=float)
    x_max = r / (2.0 * (r - 1))
    if np.any(x < 0.0) or np.any(x > x_max):
        raise InvalidInputError(f"x must lie in [0, {x_max:.6f}] for r={r}")
    z_m = r - 2.0 * (r - 1) * x
    z_r = (1.0 - 2.0 * (r - 1) * x / r) ** (r / 2.0)
    if x.ndim == 0:
        return float(z_m), float(z_r)
    return z_m, z_r
