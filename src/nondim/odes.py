"""Classical RK4 (fixed-step integration, and one step with its continuous
extension) and the projectile phase-space flow."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError, NonFiniteEvaluationError

Rhs = Callable[[float, np.ndarray], np.ndarray]

#: Largest step count and lattice (in points) that rk4_integrate and
#: flow_field accept, refused before anything is allocated.  At its peak,
#: writing the CSV, the projectile command holds 314 bytes a step and 97 a
#: point (tracemalloc, 10^5 to 4 * 10^5 of each): each bound is about 300 MB.
MAX_RK4_STEPS = 1_000_000
MAX_FLOW_POINTS = 3_000_000


@dataclass(frozen=True)
class Trajectory:
    """Time grid plus the state at every grid point (rows)."""

    times: np.ndarray
    states: np.ndarray


def rk4_dense_step(
    rhs: Rhs, t: float, y: np.ndarray, tau: float
) -> tuple[np.ndarray, Callable[[float], np.ndarray]]:
    """One classical RK4 step: the state at t + tau and the step's
    continuous extension, theta -> the state at t + theta tau.

    The extension is the order-3 one built from the step's own four stages
    (Hairer, Norsett & Wanner, Solving ODEs I, II.6), so reading it costs
    no right-hand side call.  At theta = 1 it equals the stepped state only
    up to rounding; a caller that needs the step's end takes the state.
    """
    k1 = rhs(t, y)
    k2 = rhs(t + 0.5 * tau, y + 0.5 * tau * k1)
    k3 = rhs(t + 0.5 * tau, y + 0.5 * tau * k2)
    k4 = rhs(t + tau, y + tau * k3)

    def dense(theta: float) -> np.ndarray:
        square, cube = theta * theta, 2.0 / 3.0 * theta ** 3
        b1, b23, b4 = theta - 1.5 * square + cube, square - cube, cube - 0.5 * square
        return y + tau * (b1 * k1 + b23 * (k2 + k3) + b4 * k4)

    return y + (tau / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4), dense


def rk4_integrate(
    rhs: Rhs, y0, t0: float, t1: float, steps: int
) -> Trajectory:
    """Classical fourth-order Runge-Kutta with constant step (t1-t0)/steps.

    The trajectory includes both endpoints, the last one t1 exactly.  The
    interval must be finite with t0 < t1.  A non-finite state aborts with
    the offending step index and state snapshot attached.
    """
    if not -math.inf < t0 < t1 < math.inf:
        raise DomainError(f"need finite t0 < t1, got t0={t0}, t1={t1}")
    if not 1 <= steps <= MAX_RK4_STEPS:
        raise DomainError(f"steps must be in 1..{MAX_RK4_STEPS} (300 bytes a step), got {steps}")
    y = np.array(y0, dtype=float)
    tau = (t1 - t0) / steps
    times = t0 + tau * np.arange(steps + 1)
    times[-1] = t1  # t0 + tau * steps may round off it
    states = np.empty((steps + 1, y.size))
    states[0] = y
    # A blow-up is reported by the finiteness check, not by a warning.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for k in range(steps):
            y, _ = rk4_dense_step(rhs, times[k], y, tau)
            if not np.isfinite(y).all():
                raise NonFiniteEvaluationError(
                    f"non-finite state after step {k + 1}", step=k + 1, state=y
                )
            states[k + 1] = y
    return Trajectory(times=times, states=states)


def projectile_system(lambdas) -> Rhs:
    """Right-hand side of the scaled free-flight equations on (xi, xi').

    w1' = w2, w2' = -lambda1 / (1 + lambda2*w1)**2.  The initial data of the
    model are (0, lambda3); callers supply them to the integrator.  ``y`` is
    one state or a (2, ...) array of them.  At the pole 1 + lambda2*w1 = 0
    the rate is -inf, which :func:`rk4_integrate` reports as non-finite.
    """
    lam1, lam2, lam3 = (float(v) for v in lambdas)
    if min(lam1, lam2, lam3) <= 0:
        raise DomainError("lambdas must be strictly positive")

    def rhs(t: float, y: np.ndarray) -> np.ndarray:
        # One product, not ``** 2``: on a numpy scalar that calls libm pow,
        # which can differ from the lattice's multiply by an ulp.
        d = 1.0 + lam2 * y[0]
        return np.array([y[1], -lam1 / (d * d)])

    return rhs


@dataclass(frozen=True)
class FlowField:
    """Tangent vectors of the projectile system on a rectangular lattice."""

    w1: np.ndarray  # (n1,)
    w2: np.ndarray  # (n2,)
    dw1: np.ndarray  # (n2, n1)
    dw2: np.ndarray  # (n2, n1)
    singular_points: list[tuple[float, float]]


def flow_field(lambdas, w1_range, w2_range, grid_counts) -> FlowField:
    """Sample (w1', w2') on a lattice spanning the given ranges.

    Both ranges must be finite and nonempty.  Points where the rate is not
    finite (the pole) are reported in row-major order, not silently
    skipped; their tangent entries are NaN.
    """
    (w1_lo, w1_hi), (w2_lo, w2_hi) = w1_range, w2_range
    n1, n2 = grid_counts
    if n1 < 2 or n2 < 2:
        raise DomainError("grid counts must be >= 2")
    if n1 * n2 > MAX_FLOW_POINTS:
        raise DomainError(f"lattice needs at most {MAX_FLOW_POINTS} points, got {n1} x {n2}")
    if not (-math.inf < w1_lo < w1_hi < math.inf and -math.inf < w2_lo < w2_hi < math.inf):
        raise DomainError(f"ranges must be finite and nonempty, got w1 {w1_range}, "
                          f"w2 {w2_range}")
    w1 = np.linspace(w1_lo, w1_hi, n1)
    w2 = np.linspace(w2_lo, w2_hi, n2)
    with np.errstate(divide="ignore"):
        dw1, dw2 = projectile_system(lambdas)(0.0, np.array(np.meshgrid(w1, w2)))
    pole = ~np.isfinite(dw2)
    dw1[pole] = dw2[pole] = np.nan
    rows, cols = np.nonzero(pole)
    singular = list(zip(w1[cols].tolist(), w2[rows].tolist()))
    return FlowField(w1=w1, w2=w2, dw1=dw1, dw2=dw2, singular_points=singular)
