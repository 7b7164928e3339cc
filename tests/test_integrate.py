"""Adaptive step-doubling integrator on problems with known solutions."""

import numpy as np
import pytest

from lindpair._integrate import integrate_adaptive, rk4_step


def test_rk4_step_order():
    f = lambda t, y: y
    y0 = np.array([1.0 + 0j])
    errs = []
    for h in (0.1, 0.05):
        errs.append(abs(rk4_step(f, 0.0, y0, h)[0] - np.exp(h)))
    # local error drops by ~2^5 per halving
    assert errs[0] / errs[1] > 20


def test_exponential_decay():
    f = lambda t, y: -2.0 * y
    y = integrate_adaptive(f, np.array([1.0 + 0j]), 0.0, 3.0, tol=1e-10)
    assert abs(y[0] - np.exp(-6.0)) < 1e-9


def test_oscillator_phase():
    f = lambda t, y: 1j * 5.0 * y
    y = integrate_adaptive(f, np.array([1.0 + 0j]), 0.0, 2.0, tol=1e-11)
    assert abs(y[0] - np.exp(10j)) < 1e-8


def test_matrix_valued_state():
    A = np.array([[0.0, 1.0], [-1.0, 0.0]])
    f = lambda t, y: A @ y
    y = integrate_adaptive(f, np.eye(2, dtype=complex), 0.0, 1.5, tol=1e-10)
    import scipy.linalg
    assert np.abs(y - scipy.linalg.expm(A * 1.5)).max() < 1e-8


def test_tolerance_scaling():
    f = lambda t, y: np.array([np.cos(3.0 * t)]) * (1.0 + 0j)
    exact = np.sin(3.0 * 2.0) / 3.0
    coarse = abs(integrate_adaptive(f, np.array([0j]), 0.0, 2.0,
                                    tol=1e-4)[0] - exact)
    fine = abs(integrate_adaptive(f, np.array([0j]), 0.0, 2.0,
                                  tol=1e-10)[0] - exact)
    assert fine < coarse or fine < 1e-12


def test_step_underflow_raises():
    # beyond t = 0.5 every step estimate is NaN, so every step is
    # rejected and the size collapses through the floor
    def f(t, y):
        return -y if t < 0.5 else np.full_like(y, np.nan)

    with pytest.raises(RuntimeError, match="underflow"):
        integrate_adaptive(f, np.array([1.0 + 0j]), 0.0, 2.0, tol=1e-10)
