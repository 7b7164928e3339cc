"""The pure-damping recurrence oracle.

The oracle iterates the Fock-basis relations of the damped oscillator
steady state: the diagonal reproduces a geometric profile, while every
off-diagonal forces a coefficient sequence whose partial sums grow
without bound, so the corresponding matrix element must vanish; the
coefficient positivity and monotonicity that drive that argument are
checked in exact rational arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import exp, factorial, lgamma, pi, sqrt

import numpy as np

__all__ = [
    "DampingRecurrence",
    "pure_damping_recurrence",
    "damping_recurrence",
    "off_diagonal_witness",
]

# Exact-arithmetic coefficient verification cap.
COEFF_EXACT_CAP = 25


def pure_damping_recurrence(gamma1: float, gamma2: float,
                            n_max: int) -> np.ndarray:
    """Diagonal of the damped-oscillator steady state by recurrence.

    Iterates the three-term population relation upward from
    ``rho_00 = 1 - gamma2/gamma1`` and confirms the geometric closed
    form ``(gamma2/gamma1)^n rho_00`` to 1e-12 before returning the
    sequence.
    """
    if not 0.0 <= gamma2 < gamma1:
        raise ValueError("need 0 <= gamma2 < gamma1 for a normalizable state")
    eps = gamma2 / gamma1
    rho = np.empty(n_max + 1)
    rho[0] = 1.0 - eps
    if n_max >= 1:
        rho[1] = eps * rho[0]
    for n in range(1, n_max):
        rho[n + 1] = ((gamma1 * n + gamma2 * (n + 1)) * rho[n]
                      - gamma2 * n * rho[n - 1]) / (gamma1 * (n + 1))
    closed = eps ** np.arange(n_max + 1) * (1.0 - eps)
    if np.abs(rho - closed).max() > 1e-12:
        raise RuntimeError("diagonal recurrence deviates from closed form")
    return rho


def _fgh(n: int, l: int) -> tuple:
    den = sqrt((n + 1) * (n + l + 1))
    return ((n + l / 2.0) / den,
            (n + 1 + l / 2.0) / den,
            sqrt(n * (n + l)) / den)


def _r_closed_zero(n: int, l: int) -> float:
    # Gamma(n + l/2)/Gamma(l/2) * sqrt(l!/(n!(n+l)!))
    return exp(lgamma(n + l / 2.0) - lgamma(l / 2.0)
               + 0.5 * (lgamma(l + 1) - lgamma(n + 1) - lgamma(n + l + 1)))


@dataclass
class DampingRecurrence:
    """Off-diagonal recurrence data for one diagonal l.

    ``r_values`` holds r_{l,n} at ``epsilon = gamma2/gamma1``;
    ``coeffs[n][i]`` are the epsilon-expansion coefficients a_i (floats
    converted from exact rationals, built up to n = 25).
    """

    gamma1: float
    gamma2: float
    epsilon: float
    l: int
    r_values: np.ndarray
    coeffs: list


def _exact_coeffs(l: int, n_top: int) -> list:
    """Epsilon-polynomial coefficients of the rescaled recurrence.

    Working with u_n = r_n * sqrt(n!(n+l)!/l!) clears every square
    root:  u_{n+1} = (n + l/2 + eps(n+1+l/2)) u_n - eps n(n+l) u_{n-1}.
    Positivity of all coefficients and the cross-step monotonicity
    a_i^{n-1} < a_{i+1}^n are decided exactly (squared comparison
    against the integer scale factors) and violations raise.
    """
    # imported here: fractions loads decimal, about 0.4 MB of resident
    # memory that runs without the oracle do not need
    from fractions import Fraction

    l2 = Fraction(l, 2)
    u: list[list[Fraction]] = [[Fraction(1)]]
    if n_top >= 1:
        u.append([l2, 1 + l2])
    for n in range(1, n_top):
        prev, cur = u[n - 1], u[n]
        nxt = [Fraction(0)] * (n + 2)
        for i, c in enumerate(cur):
            nxt[i] += (n + l2) * c
            nxt[i + 1] += (n + 1 + l2) * c
        for i, c in enumerate(prev):
            nxt[i + 1] -= Fraction(n * (n + l)) * c
        u.append(nxt)
    # s_n^2 = n!(n+l)!/l! as exact Fractions
    s2 = [Fraction(factorial(n) * factorial(n + l), factorial(l))
          for n in range(n_top + 1)]
    for n, row in enumerate(u):
        for i, c in enumerate(row):
            if c <= 0:
                raise RuntimeError(
                    f"coefficient a_{i}^({n},{l}) not positive")
    for n in range(1, n_top + 1):
        for i, c_prev in enumerate(u[n - 1]):
            c_next = u[n][i + 1]
            # a_i^{n-1} < a_{i+1}^n  <=>  (c_prev)^2 s_n^2 < (c_next)^2 s_{n-1}^2
            if c_prev * c_prev * s2[n] >= c_next * c_next * s2[n - 1]:
                raise RuntimeError(
                    f"monotonicity a_{i}^({n-1},{l}) < a_{i+1}^({n},{l}) fails")
    coeffs = []
    for n, row in enumerate(u):
        scale = 1.0 / sqrt(float(s2[n]))
        coeffs.append([float(c) * scale for c in row])
    return coeffs


def damping_recurrence(gamma1: float, gamma2: float, l: int,
                       n_max: int) -> DampingRecurrence:
    """Build the off-diagonal recurrence record for diagonal l >= 1."""
    if not 0.0 <= gamma2 < gamma1:
        raise ValueError("need 0 <= gamma2 < gamma1")
    if l < 1:
        raise ValueError("l must be at least 1")
    eps = gamma2 / gamma1
    r = np.empty(n_max + 1)
    r[0] = 1.0
    for n in range(n_max):
        f, g, h = _fgh(n, l)
        prev = r[n - 1] if n >= 1 else 0.0
        r[n + 1] = (f + eps * g) * r[n] - eps * h * prev
    coeffs = _exact_coeffs(l, min(n_max, COEFF_EXACT_CAP))
    return DampingRecurrence(gamma1, gamma2, eps, l, r, coeffs)


def off_diagonal_witness(epsilon: float, l: int, n_max: int):
    """Recurrence witness that off-diagonals of the steady state vanish.

    Returns ``(r_sequence, partial_sums, lower_bound_curve)``: the
    recurrence values at the given epsilon, their partial sums, and the
    Stirling-type lower bound ``1/(sqrt(pi e^(1/3)) (n+1))``.  Since
    every expansion coefficient is positive, r at any epsilon dominates
    the epsilon = 0 sequence, whose closed form is verified here
    against the recurrence; the partial sums outgrow the trace-norm cap
    carried by the shift-operator inequality, so the seed matrix
    element must be zero.
    """
    if not 0.0 <= epsilon < 1.0:
        raise ValueError("epsilon must lie in [0, 1)")
    rec = damping_recurrence(1.0, epsilon, l, n_max)
    r0 = damping_recurrence(1.0, 0.0, l, n_max).r_values
    closed = np.array([_r_closed_zero(n, l) for n in range(n_max + 1)])
    rel = np.abs(r0 - closed) / np.maximum(closed, 1e-300)
    # rounding in the recurrence accumulates like sqrt(n) ulps
    gate = 1e-12 * (1.0 + np.sqrt(np.arange(n_max + 1)))
    if np.any(rel > gate):
        raise RuntimeError("epsilon=0 recurrence deviates from closed form")
    ns = np.arange(n_max + 1)
    lower = 1.0 / (sqrt(pi * exp(1.0 / 3.0)) * (ns + 1.0))
    if np.any(r0 <= lower):
        raise RuntimeError("Stirling lower bound violated")
    return rec.r_values, np.cumsum(rec.r_values), lower
