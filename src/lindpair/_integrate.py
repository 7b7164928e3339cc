"""Adaptive RK4 with step doubling, the propagator of ``evolve``.

The right-hand side ``f(t, y)`` must be linear in y and independent of
t, ``f(t, y) = S y``, and return a new array of y's shape; the state
may be any shape, dtype complex.  On such an f one classic RK4 step of
size h is exactly the degree-4 Taylor polynomial of ``exp(hS)`` applied
to y, so steps of any sizes from one y share the four products
``S^k y``.  The error estimate compares one full step against two half
steps, the full and the first half step from one set of four
evaluations: 8 evaluations per attempted step.  The accepted
value keeps the Richardson-extrapolated fifth-order combination.
Neither y nor any array f returned is written to.
"""

from __future__ import annotations

import numpy as np

__all__ = ["rk4_step", "integrate_adaptive"]


def rk4_step(f, t, y, *hs):
    """One RK4 step from ``y`` per size in ``hs``, from four calls of f.

    With ``u_0 = y`` and ``u_k = f(t, u_{k-1})``, the step of size h is
    ``y + h u_1 + h^2/2 u_2 + h^3/6 u_3 + h^4/24 u_4``, summed in Horner
    form; for a linear, time-independent f this is the classic
    four-stage step.  Returns a tuple of new arrays, one per size:
    neither ``y`` nor any array f returned is written to, so an f that
    returns its argument is safe.
    """
    u1 = f(t, y)
    u2 = f(t, u1)
    u3 = f(t, u2)
    u4 = f(t, u3)
    steps = []
    for h in hs:
        acc = np.multiply(u4, h / 4.0)
        acc += u3
        acc *= h / 3.0
        acc += u2
        acc *= h / 2.0
        acc += u1
        acc *= h
        acc += y
        steps.append(acc)
    return tuple(steps)


def integrate_adaptive(f, y0, t0, t1, tol=1e-10):
    """Integrate dy/dt = f(t, y) from t0 to t1.

    Parameters
    ----------
    f : callable
        Right-hand side, ``f(t, y) -> array``: linear in y,
        independent of t and returning a new array.  It is called 8
        times per attempted step.
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
    # gives column-major steps
    y = np.asarray(y0, dtype=complex).copy(order="K")
    t = float(t0)
    t1 = float(t1)
    if t1 <= t:
        return y
    h = (t1 - t) / 100.0
    while t < t1 - 1e-15 * max(1.0, abs(t1)):
        h = min(h, t1 - t)
        y_big, y_half = rk4_step(f, t, y, h, 0.5 * h)
        (y_small,) = rk4_step(f, t + 0.5 * h, y_half, 0.5 * h)
        # both steps are rk4_step's own arrays: the difference
        # overwrites y_big and the extrapolation y_small
        diff = np.subtract(y_small, y_big, out=y_big)
        err = np.abs(diff).max() / 15.0
        scale = max(1.0, np.abs(y).max())
        if err <= tol * scale:
            diff /= 15.0
            y_small += diff
            y = y_small
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
