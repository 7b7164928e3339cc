"""Adaptive RK4 with step doubling, the propagator of ``evolve``.

The error estimate compares one full step against two half steps and the
accepted value keeps the Richardson-extrapolated fifth-order combination.
State arrays may be any shape and dtype complex; the right-hand side gets
and returns arrays of the same shape.
"""

from __future__ import annotations

import numpy as np

__all__ = ["rk4_step", "integrate_adaptive"]


def rk4_step(f, t, y, h):
    k1 = f(t, y)
    k2 = f(t + 0.5 * h, y + 0.5 * h * k1)
    k3 = f(t + 0.5 * h, y + 0.5 * h * k2)
    k4 = f(t + h, y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def integrate_adaptive(f, y0, t0, t1, tol=1e-10):
    """Integrate dy/dt = f(t, y) from t0 to t1.

    Parameters
    ----------
    f : callable
        Right-hand side, ``f(t, y) -> array``.
    y0 : ndarray
        Initial state.
    t0, t1 : float
        Integration window, ``t1 >= t0``.
    tol : float
        Local error tolerance per step, relative to ``max(1, |y|_max)``.
        The first step is ``(t1 - t0) / 100``.

    Returns
    -------
    ndarray
        State at ``t1``.
    """
    # order="K" keeps the caller's layout, so that a column-major state
    # gives column-major stage sums
    y = np.asarray(y0, dtype=complex).copy(order="K")
    t = float(t0)
    t1 = float(t1)
    if t1 <= t:
        return y
    h = (t1 - t) / 100.0
    while t < t1 - 1e-15 * max(1.0, abs(t1)):
        h = min(h, t1 - t)
        y_big = rk4_step(f, t, y, h)
        y_half = rk4_step(f, t, y, 0.5 * h)
        y_small = rk4_step(f, t + 0.5 * h, y_half, 0.5 * h)
        err = np.abs(y_small - y_big).max() / 15.0
        scale = max(1.0, np.abs(y).max())
        if err <= tol * scale:
            y = y_small + (y_small - y_big) / 15.0
            t += h
            if err > 0:
                h *= min(4.0, 0.9 * (tol * scale / err) ** 0.2)
            else:
                h *= 4.0
        else:
            h *= max(0.25, 0.9 * (tol * scale / err) ** 0.2)
        if h < 1e-14 * max(1.0, abs(t1)):
            raise RuntimeError("step size underflow in adaptive integrator")
    return y
