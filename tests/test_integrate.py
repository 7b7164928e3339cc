"""Adaptive step-doubling integrator on linear problems with known
solutions."""

import numpy as np
import pytest
import scipy.linalg

from lindpair._integrate import integrate_adaptive, rk4_step


def _classic_rk4(f, t, y, h):
    k1 = f(t, y)
    k2 = f(t + 0.5 * h, y + 0.5 * h * k1)
    k3 = f(t + 0.5 * h, y + 0.5 * h * k2)
    k4 = f(t + h, y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _twelve_evaluation_steps(f, y0, t0, t1, tol):
    """The step-doubling loop with three classic RK4 steps per attempt;
    returns the final state and the attempted (t, h, accepted)."""
    y, t, h = np.asarray(y0, dtype=complex).copy(), t0, (t1 - t0) / 100.0
    attempts = []
    while t < t1 - 1e-15 * max(1.0, abs(t1)):
        h = min(h, t1 - t)
        y_big = _classic_rk4(f, t, y, h)
        y_half = _classic_rk4(f, t, y, 0.5 * h)
        y_small = _classic_rk4(f, t + 0.5 * h, y_half, 0.5 * h)
        err = np.abs(y_small - y_big).max() / 15.0
        scale = max(1.0, np.abs(y).max())
        attempts.append((t, h, bool(err <= tol * scale)))
        if err <= tol * scale:
            y = y_small + (y_small - y_big) / 15.0
            t += h
            h *= min(4.0, 0.9 * (tol * scale / err) ** 0.2) if err > 0 \
                else 4.0
        else:
            h *= max(0.25, 0.9 * (tol * scale / err) ** 0.2)
    return y, attempts


def _non_normal(seed, n=6):
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    # a strictly upper triangular part makes it far from normal
    return A + 3.0 * np.triu(rng.normal(size=(n, n)), 1)


def test_rk4_step_order():
    f = lambda t, y: y
    y0 = np.array([1.0 + 0j])
    errs = []
    for h in (0.1, 0.05):
        (y1,) = rk4_step(f, 0.0, y0, h)
        errs.append(abs(y1[0] - np.exp(h)))
    # local error drops by ~2^5 per halving
    assert errs[0] / errs[1] > 20


def test_rk4_step_is_classic_rk4_on_a_linear_generator():
    A = _non_normal(7)
    f = lambda t, y: A @ y
    y0 = np.random.default_rng(8).normal(size=(6, 3)) + 0j
    h = 0.1
    full, half = rk4_step(f, 0.0, y0, h, 0.5 * h)
    for step, size in ((full, h), (half, 0.5 * h)):
        assert np.abs(step - _classic_rk4(f, 0.0, y0, size)).max() < 1e-14


def test_rk4_step_writes_into_neither_state_nor_rhs_results():
    # the identity returns its argument, so every stage is y itself
    y0 = np.array([1.0 + 0.5j, -2.0])
    y = y0.copy()
    steps = rk4_step(lambda t, y: y, 0.0, y, 0.2, 0.1)
    assert np.array_equal(y, y0)
    for step, h in zip(steps, (0.2, 0.1)):
        assert step is not y
        taylor = 1.0 + h + h ** 2 / 2 + h ** 3 / 6 + h ** 4 / 24
        assert np.abs(step - taylor * y0).max() < 1e-15
    out = integrate_adaptive(lambda t, y: y, y, 0.0, 1.0, tol=1e-10)
    assert np.array_equal(y, y0)
    assert np.abs(out - np.e * y0).max() < 1e-9


def test_same_steps_as_twelve_evaluation_loop():
    A = _non_normal(3)
    y0 = np.random.default_rng(4).normal(size=6) + 0j
    calls = []

    def f(t, y):
        calls.append(t)
        return A @ y

    y = integrate_adaptive(f, y0, 0.0, 1.5, tol=1e-10)
    ref, attempts = _twelve_evaluation_steps(lambda t, y: A @ y, y0, 0.0,
                                             1.5, tol=1e-10)
    assert sum(not ok for *_, ok in attempts) > 0
    # 4 calls at t and 4 at t + h/2 per attempted step
    assert len(calls) == 8 * len(attempts)
    got = np.array(calls).reshape(-1, 8)
    assert np.all(got[:, :4] == got[:, :1])
    assert np.all(got[:, 4:] == got[:, 4:5])
    # an attempt is accepted when the next one starts later; the error
    # estimates differ in rounding only, which moves h by ~1e-8
    accepted = np.append(got[1:, 0] > got[:-1, 0], True)
    t, h, ok = np.array(attempts).T
    assert np.array_equal(accepted, ok.astype(bool))
    assert np.allclose(got[:, 0], t, rtol=1e-6, atol=0.0)
    assert np.allclose(2.0 * (got[:, 4] - got[:, 0]), h, rtol=1e-6, atol=0.0)
    assert np.abs(y - ref).max() < 1e-12 * np.abs(ref).max()


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
    assert np.abs(y - scipy.linalg.expm(A * 1.5)).max() < 1e-8


def test_tolerance_scaling():
    A = 3.0 * np.array([[0.0, 1.0], [-1.0, 0.0]])
    f = lambda t, y: A @ y
    y0 = np.array([0j, 1.0])
    exact = scipy.linalg.expm(A * 2.0) @ y0
    coarse = np.abs(integrate_adaptive(f, y0, 0.0, 2.0, tol=1e-4)
                    - exact).max()
    fine = np.abs(integrate_adaptive(f, y0, 0.0, 2.0, tol=1e-10)
                  - exact).max()
    assert fine < coarse or fine < 1e-12


def test_step_underflow_raises():
    # every step estimate is NaN, so every step is rejected and the size
    # collapses through the floor
    f = lambda t, y: np.nan * y
    with pytest.raises(RuntimeError, match="underflow"):
        integrate_adaptive(f, np.array([1.0 + 0j]), 0.0, 2.0, tol=1e-10)
