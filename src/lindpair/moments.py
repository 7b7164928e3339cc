"""Closed moment equations and their steady-state values.

For the spin-oscillator pair the set (<b^dag b>, <s_z b>, <b>, <s_z>)
closes; for the two coupled oscillators the set (<b^dag b>, <a^dag a b>,
<b>, <(a^dag a)^2>, <a^dag a>) does.  Both systems are linear with
constant coefficients, ``x' = M x + c`` on the real and imaginary parts
of the moments, so the fixed point is one linear solve and a trajectory
is one matrix exponential per sample; the steady formulas are the
t -> infinity limits and the tests confirm them to 1e-12.

The quasi-probability ansatz coefficients (a, b, c, d) evolve by the
equations exactly as printed in the source analysis; their role here is
only to exhibit the linear growth of Re a(t), whose slope bounds the
off-diagonal sector decay.  The distribution itself is never
discretized.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass, fields

import numpy as np
import scipy.linalg

__all__ = [
    "MomentStateSpinOsc",
    "MomentStateOptomech",
    "GaussianAnsatz",
    "integrate_moments",
    "steady_spin_osc_excitation",
    "steady_optomech",
    "integrate_gaussian_ansatz",
    "moments_to_steady",
]


@dataclass
class MomentStateSpinOsc:
    b_dag_b: float = 0.0
    sz_b: complex = 0.0
    b: complex = 0.0
    sz: float = 0.0


@dataclass
class MomentStateOptomech:
    b_dag_b: float = 0.0
    adaga_b: complex = 0.0
    b: complex = 0.0
    adaga_sq: float = 0.0
    adaga: float = 0.0


@dataclass
class GaussianAnsatz:
    a: complex = 0.0
    b: complex = 0.0
    c: complex = 0.0
    d: complex = 0.0


def _spin_osc_rhs(cfg):
    wB, gA, gB = cfg.omega_B, cfg.gamma_A, cfg.gamma_B
    Om, s, nbar = cfg.Omega, cfg.s, cfg.nbar

    def rhs(y):
        nb, szb, b, sz = y
        d_nb = -2.0 * Om * szb.imag - gB * nb.real + gB * nbar
        d_szb = (-1j * wB - gB / 2.0 - gA) * szb - 1j * Om \
            + gA * (2.0 * s - 1.0) * b
        d_b = (-1j * wB - gB / 2.0) * b - 1j * Om * sz
        d_sz = -gA * sz.real + gA * (2.0 * s - 1.0)
        return np.array([d_nb, d_szb, d_b, d_sz], dtype=complex)

    return rhs


def steady_spin_osc_excitation(cfg) -> float:
    """Stationary oscillator excitation of the spin-oscillator model."""
    wB, gA, gB = cfg.omega_B, cfg.gamma_A, cfg.gamma_B
    Om, s, nbar = cfg.Omega, cfg.s, cfg.nbar
    if gB <= 0:
        raise ValueError("gamma_B must be positive")
    term_coh = (2.0 * s - 1.0) ** 2 * 4.0 * Om ** 2 / (gB ** 2 + 4.0 * wB ** 2)
    term_fluc = 4.0 * (1.0 - s) * s * ((2.0 * gA + gB) / gB) \
        * 4.0 * Om ** 2 / ((2.0 * gA + gB) ** 2 + 4.0 * wB ** 2)
    return nbar + term_coh + term_fluc


def _optomech_rhs(cfg):
    nu, kappa, gamma = cfg.nu, cfg.kappa, cfg.gamma
    g, nbar, mbar = cfg.g, cfg.nbar, cfg.mbar

    def rhs(y):
        nb, nab, b, nsq, na = y
        d_nb = -2.0 * g * nab.imag - gamma * nb.real + gamma * mbar
        d_nab = kappa * nbar * b - 0.5 * (gamma + 2.0 * (kappa + 1j * nu)) * nab \
            - 1j * g * nsq
        d_b = -1j * nu * b - 1j * g * na - 0.5 * gamma * b
        d_nsq = kappa * nbar - 2.0 * kappa * nsq.real \
            + kappa * (4.0 * nbar + 1.0) * na.real
        d_na = -kappa * na.real + kappa * nbar
        return np.array([d_nb, d_nab, d_b, d_nsq, d_na], dtype=complex)

    return rhs


def steady_optomech(cfg) -> tuple:
    """Stationary (photon, phonon) numbers of the coupled oscillators."""
    nu, kappa, gamma = cfg.nu, cfg.kappa, cfg.gamma
    g, nbar, mbar = cfg.g, cfg.nbar, cfg.mbar
    if kappa <= 0 or gamma <= 0:
        raise ValueError("kappa and gamma must be positive")
    n_photon = nbar
    n_phonon = mbar + 4.0 * nbar ** 2 * g ** 2 / (gamma ** 2 + 4.0 * nu ** 2) \
        + 4.0 * nbar * (nbar + 1.0) * (2.0 * kappa + gamma) * g ** 2 \
        / (gamma * ((2.0 * kappa + gamma) ** 2 + 4.0 * nu ** 2))
    return n_photon, n_phonon


# model -> (right-hand-side builder, moment state class)
_SYSTEMS = {
    "spin_oscillator": (_spin_osc_rhs, MomentStateSpinOsc),
    "optomechanical": (_optomech_rhs, MomentStateOptomech),
}


def _affine(cfg):
    """``(M, c)`` with ``x' = M x + c`` on ``x = [Re y, Im y]``.

    Every term of the right-hand sides above is a complex constant times
    a moment, a constant, or a ``.real``/``.imag`` part, so the flow is
    real-affine and M and c are read off it at zero and at the 2n unit
    vectors.
    """
    if cfg.model not in _SYSTEMS:
        raise ValueError(f"no moment system for model {cfg.model!r}")
    build_rhs, state_cls = _SYSTEMS[cfg.model]
    rhs, n = build_rhs(cfg), len(fields(state_cls))

    def flow(x):
        dy = rhs(x[:n] + 1j * x[n:])
        return np.concatenate([dy.real, dy.imag])

    c = flow(np.zeros(2 * n))
    M = np.column_stack([flow(e) - c for e in np.eye(2 * n)])
    return M, c


def moments_to_steady(cfg) -> np.ndarray:
    """Fixed point of the moment system of ``cfg.model`` (complex vector).

    Solves ``M x = -c``.  A coordinate with no drift at all (zero row of
    M, zero c) is the imaginary part of a real moment; it is conserved
    and held at its starting value 0.
    """
    M, c = _affine(cfg)
    moving = M.any(axis=1) | (c != 0)
    x = np.zeros(len(c))
    x[moving] = np.linalg.solve(M[np.ix_(moving, moving)], -c[moving])
    n = len(c) // 2
    return x[:n] + 1j * x[n:]


def integrate_moments(cfg, m0, t_grid) -> dict:
    """Propagate the moment system of ``cfg.model`` from ``m0`` over ``t_grid``.

    Exact: the state at ``t`` is ``expm(G (t - t0)) [x0, 1]`` with the
    augmented generator ``G = [[M, c], [0, 0]]``.  Returns ``times`` and
    one array per field of ``m0``, real for the real moments.
    """
    M, c = _affine(cfg)
    state_cls = _SYSTEMS[cfg.model][1]
    if not isinstance(m0, state_cls):
        raise ValueError(f"model {cfg.model!r} needs a {state_cls.__name__}, "
                         f"got {type(m0).__name__}")
    n = len(c) // 2
    G = np.zeros((2 * n + 1, 2 * n + 1))
    G[:-1, :-1], G[:-1, -1] = M, c
    y0 = np.array(astuple(m0), dtype=complex)
    x0 = np.concatenate([y0.real, y0.imag, [1.0]])
    t_grid = np.asarray(t_grid, dtype=float)
    xs = np.array([scipy.linalg.expm(G * (t - t_grid[0])) @ x0
                   for t in t_grid])
    out = {"times": t_grid.copy()}
    for k, f in enumerate(fields(m0)):
        real = f.type == "float"
        out[f.name] = xs[:, k] if real else xs[:, k] + 1j * xs[:, n + k]
    return out


def integrate_gaussian_ansatz(cfg, init: GaussianAnsatz, t_grid) -> dict:
    """Evolve the quasi-probability ansatz coefficients.

    Integrates the printed coefficient equations with DOP853 at
    ``rtol = atol = 1e-12``, sampled on ``t_grid``, and reports the tail
    slope of Re a(t) (linear growth whose rate bounds the off-diagonal
    decay) plus the final b, c, d values.  Runaway coefficients (d
    outside the basin between its fixed points 0 and 1/nbar, or b, c
    growing without the damping to balance the drive) stop the
    integration once a value is not finite or one of |b|, |c|, |d|
    passes 1e6; they are flagged as ``diverged`` and the trajectory is
    truncated, not raised.
    """
    # imported here: scipy.integrate costs ~160 ms and ~18 MB at import,
    # which every other command would pay
    from scipy.integrate import solve_ivp

    wA, wB = cfg.omega_A, cfg.omega_B
    gA, gB = cfg.gamma_A, cfg.gamma_B
    Om, nbar = cfg.Omega, cfg.nbar
    t_grid = np.asarray(t_grid, dtype=float)

    def rhs(t, y):
        a, b, c, d = y
        da = -2j * wA - 1j * Om * (c + b) - gB * nbar * (b * c - d) \
            - gB + gA / 2.0
        db = 1j * wB * b - 1j * Om * (d + 2.0) + 0.5 * gB * b \
            - gB * nbar * b * d
        dc = -1j * wB * c - 1j * Om * (d + 2.0) + 0.5 * gB * c \
            - gB * nbar * c * d
        dd = gB * d - gB * nbar * d * d
        return np.array([da, db, dc, dd], dtype=complex)

    def runaway(t, y):
        if not np.all(np.isfinite(y)):
            return -1.0
        return 1e6 - np.abs(y[1:]).max()

    runaway.terminal = True
    y0 = np.array([init.a, init.b, init.c, init.d], dtype=complex)
    if t_grid.size < 2:
        # solve_ivp returns no sample at all for an empty interval
        out, diverged = y0[None, :], False
    else:
        sol = solve_ivp(rhs, (t_grid[0], t_grid[-1]), y0, method="DOP853",
                        t_eval=t_grid, events=runaway, rtol=1e-12,
                        atol=1e-12)
        if sol.status < 0:
            raise RuntimeError(f"ansatz integration failed: {sol.message}")
        out, diverged = sol.y.T, sol.status == 1
    n_done = len(out)
    re_a = out[:, 0].real
    slope = None
    if n_done >= 4 and not diverged:
        tail = slice(max(n_done // 2, n_done - 50), n_done)
        ts, vs = t_grid[tail], re_a[tail]
        slope = float(np.polyfit(ts, vs, 1)[0])
    return {
        "times": t_grid[:n_done].copy(),
        "a": out[:, 0],
        "b": out[:, 1],
        "c": out[:, 2],
        "d": out[:, 3],
        "re_a_slope": slope,
        "final_bcd": (out[-1, 1], out[-1, 2], out[-1, 3]),
        "diverged": diverged,
    }
