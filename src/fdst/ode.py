"""Scaled one-step drift functions and the two-phase trajectory integrator.

The state vector has a = r+3 coordinates ordered (z_1, ..., z_r, z_L, z_F,
z_M): scaled sizes of the unseen classes Z_1..Z_r, the processable-leaf
class L, the full-degree count F, and the unrevealed-point count M. All
drifts depend on the state only; an x argument appears in integrator
callbacks purely for interface uniformity, so do not hunt for a missing
time term.

Phase 1 processes leaf vertices only and ends when z_L returns to zero;
phase 2 mixes leaf steps and fresh-vertex steps in the deprioritized
proportion p = alpha/(tau+alpha) that pins z_L at zero, and ends when z_r
hits zero. The full-degree yield is f_r = z_F at the end of phase 2.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (BlendDegenerateError, EventNotFoundError, InvalidInputError,
                     SingularityError)

Z_M_FLOOR = 1e-6
NEGATIVE_CLIP = 1e-12
DEFAULT_STEP = 1e-5
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
    phase1_end_state: np.ndarray
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


def deriv_op1(r, z):
    """Drift of one leaf-processing step, which reveals r-1 pairs."""
    z_m = z[r + 2]
    if z_m < Z_M_FLOOR:
        raise SingularityError(f"z_M = {z_m} below floor {Z_M_FLOOR}")
    big_z = 0.0
    for i in range(r):
        big_z += (i + 1) * z[i]
    q = big_z / z_m
    q_r2 = q ** (r - 2)
    d = [0.0] * (r + 3)
    for i in range(1, r):
        d[i - 1] = (r - 1) * (-i * z[i - 1] / z_m
                              + (i + 1) * z[i] / z_m * (1.0 - q_r2))
    d[r - 1] = (r - 1) * (-r * z[r - 1] / z_m)
    # the -1 is the processed leaf itself leaving L
    d[r] = -1.0 + (r - 1) * (-(r - 1) * z[r] / z_m + r * z[r - 1] / z_m * q_r2)
    d[r + 1] = q ** (r - 1)
    d[r + 2] = -2.0 * (r - 1)
    return d


def deriv_op2(r, z):
    """Drift of one fresh-vertex step, which reveals r pairs.

    The success factor allows one revealed point to land outside the unseen
    classes: P = q^(r-1) + (r-1) q^(r-2) (1-q) with q the unseen share of
    unrevealed points.
    """
    z_m = z[r + 2]
    if z_m < Z_M_FLOOR:
        raise SingularityError(f"z_M = {z_m} below floor {Z_M_FLOOR}")
    big_z = 0.0
    for i in range(r):
        big_z += (i + 1) * z[i]
    q = big_z / z_m
    q_r2 = q ** (r - 2)
    p_succ = q * q_r2 + (r - 1) * q_r2 * (1.0 - q)
    d = [0.0] * (r + 3)
    for i in range(1, r):
        d[i - 1] = r * (-i * z[i - 1] / z_m
                        + (i + 1) * z[i] / z_m * (1.0 - p_succ))
    # the -1 is the processed fresh vertex itself leaving Z_r
    d[r - 1] = -1.0 + r * (-r * z[r - 1] / z_m)
    d[r] = r * (-(r - 1) * z[r] / z_m + r * z[r - 1] / z_m * p_succ)
    d[r + 1] = q ** r + r * q ** (r - 1) * (1.0 - q)
    d[r + 2] = -2.0 * r
    return d


def blend_phase2(r, z, x=None):
    """Deprioritized phase-2 drift p*op1 + (1-p)*op2 with p = alpha/(tau+alpha).

    alpha is the expected L-gain of a fresh-vertex step, tau the expected
    L-loss of a leaf step; the mixture zeroes the L drift identically.
    """
    d1 = deriv_op1(r, z)
    d2 = deriv_op2(r, z)
    tau = -d1[r]
    alpha = d2[r]
    if tau <= 0.0 or tau + alpha <= 0.0:
        raise BlendDegenerateError(
            f"mixture undefined: tau={tau}, alpha={alpha}", x=x, state=list(z))
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


def _locate_zero(f, z, h, comp, event_tol):
    """Bisect the step fraction at which coordinate ``comp`` crosses zero.

    z[comp] > 0 and the full step lands at or below 0; returns (s, state)
    with |state[comp]| <= event_tol, or raises EventNotFoundError when the
    halvings run out first.
    """
    lo, hi = 0.0, h
    best = _rk4_step(f, z, h)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        zm = _rk4_step(f, z, mid)
        if abs(zm[comp]) <= event_tol:
            return mid, zm
        if zm[comp] > 0.0:
            lo = mid
        else:
            hi, best = mid, zm
        if hi - lo < 1e-18:
            break
    if abs(best[comp]) > event_tol:
        raise EventNotFoundError(
            f"event not located to {event_tol:g}: bisection stopped at residual "
            f"|z[{comp}]| = {abs(best[comp]):.3e}")
    return hi, best


def _clip_small_negatives(z):
    for i, v in enumerate(z):
        if -NEGATIVE_CLIP < v < 0.0:
            z[i] = 0.0


def _integrate_phase(f, z0, x0, step, event_comp, event_tol, phase):
    """Fixed-step march until ``event_comp`` changes sign from positive to <= 0."""
    cap = int(2.0 / step) + 8
    xs = [x0]
    rows = [list(z0)]
    z = list(z0)
    x = x0
    for _ in range(cap):
        try:
            zn = _rk4_step(f, z, step)
        except SingularityError as exc:
            raise EventNotFoundError(
                f"phase {phase}: hit the z_M floor at x={x:.6f} "
                f"before the event fired") from exc
        except BlendDegenerateError as exc:
            if exc.x is None:
                exc.x = x
            raise
        if z[event_comp] > 0.0 >= zn[event_comp]:
            s, z_end = _locate_zero(f, z, step, event_comp, event_tol)
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
    raise EventNotFoundError(
        f"phase {phase}: no event within {cap} steps of size {step}")


def integrate_two_phase(r, step_size=DEFAULT_STEP, event_tol=DEFAULT_EVENT_TOL):
    """Run both phases of the system and report the phase boundaries.

    Classical fixed-step 4th-order integration; each phase-end time is
    localized by bisection inside the bracketing step to |z_event| <=
    event_tol. Returns a TrajectoryResult carrying the full grids.
    """
    _check_r(r)
    if not step_size > 0.0:
        raise InvalidInputError(f"step_size must be positive, got {step_size}")
    if not event_tol > 0.0:
        raise InvalidInputError(f"event_tol must be positive, got {event_tol}")
    z0 = initial_state(r)
    # phase 1 starts at z_L = 0 and z_L rises at slope r-2 > 0, so only its
    # return to zero is a sign change
    phase1 = _integrate_phase(
        lambda z: deriv_op1(r, z), z0, 0.0, step_size,
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
        phase1_end_state=phase1.end_state,
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
