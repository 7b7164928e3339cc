"""Closed-form eigensystems of single-system thermal generators.

Two families are provided, both for purely dissipative generators (no
coherent part, so all eigenvalues are real):

* a two-level system with downward rate ``gamma*(1-mbar)`` and upward
  rate ``gamma*mbar`` (``mbar`` is the steady excited-state population);
* a damped oscillator mode with rates ``gamma*(nbar+1)`` down and
  ``gamma*nbar`` up.

The oscillator eigenmatrices are banded: the mode labelled ``(n, k)``
lives on the k-th lower diagonal (upper for k < 0) and decays at
``-gamma * (n + |k|/2)``.  Right eigenmatrices carry a thermal tail
``(nbar/(nbar+1))^q`` times a degree-n polynomial in the Fock index q;
left eigenmatrices are plain degree-n polynomials.  Both are produced by
evaluating normal-ordered expressions

    sum_j c_j  adag^j (1-z)^N a^j,   N = adag a,

whose Fock-diagonal entries are sum_j c_j q!/(q-j)! (1-z)^(q-j).  The
left family uses z = 0, the right family z = 1/(nbar+1); z = 1 (nbar=0)
is handled with the convention 0^0 = 1.

Truncation makes the biorthonormality sums Tr(check(n,k)^dag rho(n',k'))
exact only when the polynomial-times-tail products die out before the
Fock cutoff.  ``OscEigensystem.gram`` therefore returns, next to the
Gram matrix, a boolean mask of entries whose truncated summand tail
(geometric remainder estimate over the last ``TAIL_MARGIN`` Fock levels)
is below half of ``GRAM_TOL``; entries outside the mask need a larger
``dim`` to be meaningful.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb, factorial, perm

import numpy as np

from .hilbert import oscillator, mk_destroy

__all__ = [
    "SpinEigensystem",
    "OscEigensystem",
    "spin_eigensystem",
    "osc_eigensystem",
    "normal_ordered_fock_matrix",
    "MAX_POLY_ORDER",
    "TAIL_MARGIN",
    "GRAM_TOL",
]

# Binomial coefficient tables stay exact in double precision well past
# this, but the eigenmatrix entries start mixing magnitudes badly; the
# oracle refuses larger polynomial orders instead of silently degrading.
MAX_POLY_ORDER = 20

# Fock levels the truncation must leave above the built modes, and over
# which the Gram tail estimate extrapolates.
TAIL_MARGIN = 10

# Gram entries are kept when their truncated tail stays below half this.
GRAM_TOL = 1e-8


@dataclass(frozen=True)
class SpinEigensystem:
    """Eigenmodes of the thermal two-level generator.

    ``right[i]`` and ``left[i]`` satisfy ``L(right) = eigenvalue*right``
    and ``L^dag(left) = eigenvalue*left`` with
    ``Tr(left[i]^dag right[j]) = delta_ij``.  Order: stationary mode,
    population mode (rate -gamma), raising and lowering coherences
    (rate -gamma/2).
    """

    gamma: float
    mbar: float
    eigenvalues: np.ndarray
    right: np.ndarray
    left: np.ndarray


def spin_eigensystem(gamma: float, mbar: float) -> SpinEigensystem:
    """Exact eigensystem of ``gamma(1-mbar) D[s-] + gamma mbar D[s+]``.

    Parameters
    ----------
    gamma : float
        Total relaxation rate (> 0); the population mode decays at
        ``-gamma`` and both coherences at ``-gamma/2``.
    mbar : float
        Steady excited-state population in [0, 1].
    """
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    if not 0.0 <= mbar <= 1.0:
        raise ValueError("mbar must lie in [0, 1]")
    sz = np.diag([-1.0, 1.0]).astype(complex)
    sm = np.array([[0, 1], [0, 0]], dtype=complex)
    sp = sm.conj().T
    eye = np.eye(2, dtype=complex)
    right = np.stack([
        np.diag([1.0 - mbar, mbar]).astype(complex),
        sz,
        sp,
        sm,
    ])
    left = np.stack([
        eye,
        0.5 * sz - 0.5 * (2.0 * mbar - 1.0) * eye,
        sp,
        sm,
    ])
    eigenvalues = np.array([0.0, -gamma, -gamma / 2.0, -gamma / 2.0],
                           dtype=complex)
    return SpinEigensystem(gamma, mbar, eigenvalues, right, left)


def normal_ordered_fock_matrix(coeff_poly, z: float, power_left: int,
                               dim: int) -> np.ndarray:
    """Fock matrix of ``adag^pl [sum_j c_j adag^j (1-z)^N a^j]``.

    Parameters
    ----------
    coeff_poly : sequence of complex
        Coefficients ``c_j``, index j from 0.
    z : float
        Weight parameter in [0, 1]; the diagonal entry at Fock level q is
        ``sum_j c_j q!/(q-j)! (1-z)^(q-j)`` with the convention that the
        power factor is 1 when q == j (covers z = 1).
    power_left : int
        Extra raising power applied left of the normal-ordered sum.
    dim : int
        Fock truncation.
    """
    if not 0.0 <= z <= 1.0:
        raise ValueError("z must lie in [0, 1]")
    if power_left < 0:
        raise ValueError("power_left must be nonnegative")
    if len(coeff_poly) - 1 > MAX_POLY_ORDER:
        raise ValueError(f"polynomial order limited to {MAX_POLY_ORDER}")
    x = 1.0 - z
    diag = np.zeros(dim, dtype=complex)
    for q in range(dim):
        acc = 0.0 + 0.0j
        for j, c in enumerate(coeff_poly):
            if j > q or c == 0:
                continue
            power = 1.0 if q == j else x ** (q - j)
            # q! / (q-j)!, rounded once
            acc += c * float(perm(q, j)) * power
        diag[q] = acc
    out = np.diag(diag)
    if power_left:
        adag = mk_destroy(oscillator(dim)).entries.conj().T
        for _ in range(power_left):
            out = adag @ out
    return out


def _right_coeffs(n: int, k: int, z: float) -> list:
    # generalized-Laguerre-type coefficients with argument scaled by z
    return [(-1) ** i * comb(n + k, n - i) * z ** i / factorial(i)
            for i in range(n + 1)]


def _left_coeffs(n: int, k: int, nbar: float) -> list:
    return [(-1) ** (n + i) * nbar ** (n - i) * comb(n + k, n - i)
            / factorial(i)
            for i in range(n + 1)]


@dataclass(frozen=True)
class OscEigensystem:
    """Eigenmodes ``(n, k)`` of the thermal damped-oscillator generator.

    ``n`` counts the polynomial degree along the diagonal (0..n_max) and
    ``k`` the diagonal offset (-k_range..k_range); the eigenvalue is
    ``-gamma*(n + |k|/2)``, degenerate across different (n, k) with the
    same combination.  Matrices are cached dense at truncation ``dim``.
    """

    gamma: float
    nbar: float
    n_max: int
    k_range: int
    dim: int
    _right: dict = field(repr=False)
    _left: dict = field(repr=False)

    def pairs(self) -> list:
        return sorted(self._right.keys())

    def eigenvalue(self, n: int, k: int) -> complex:
        self._check(n, k)
        return complex(-self.gamma * (n + abs(k) / 2.0))

    def right(self, n: int, k: int) -> np.ndarray:
        self._check(n, k)
        return self._right[(n, k)]

    def left(self, n: int, k: int) -> np.ndarray:
        self._check(n, k)
        return self._left[(n, k)]

    def _check(self, n: int, k: int):
        if (n, k) not in self._right:
            raise KeyError(f"mode ({n}, {k}) outside built range")

    def overlap_series(self, n_left: int, n_right: int, k: int) -> np.ndarray:
        """Fock-resolved summands of Tr(left^dag right) on diagonal k."""
        C = self._left[(n_left, k)]
        R = self._right[(n_right, k)]
        kk = abs(k)
        qs = np.arange(self.dim - kk)
        if k >= 0:
            return np.conj(C[qs + kk, qs]) * R[qs + kk, qs]
        return np.conj(C[qs, qs + kk]) * R[qs, qs + kk]

    def gram(self):
        """Biorthonormality matrix with a truncation-support mask.

        Returns ``(G, keep, labels)``: ``G[i, j] = Tr(left_i^dag
        right_j)`` over ``labels`` (the sorted mode list), and ``keep``
        flags entries whose truncated tail estimate is below
        ``GRAM_TOL/2``.
        Off-band pairs (different k) vanish identically and are always
        kept.
        """
        labels = self.pairs()
        m = len(labels)
        G = np.zeros((m, m), dtype=complex)
        keep = np.zeros((m, m), dtype=bool)
        for i, (n1, k1) in enumerate(labels):
            for j, (n2, k2) in enumerate(labels):
                if k1 != k2:
                    keep[i, j] = True
                    continue
                s = self.overlap_series(n1, n2, k1)
                G[i, j] = s.sum()
                keep[i, j] = _tail_converged(s)
        return G, keep, labels


def _tail_converged(s: np.ndarray) -> bool:
    # Estimate the neglected remainder by geometric extrapolation of the
    # last TAIL_MARGIN summand magnitudes; keep the entry when tail plus
    # remainder stay below half of GRAM_TOL.
    w = np.abs(s[-TAIL_MARGIN:])
    total = w.sum()
    if w[-1] == 0.0:
        return total <= 0.5 * GRAM_TOL
    if w[0] == 0.0:
        return False
    r = (w[-1] / w[0]) ** (1.0 / (TAIL_MARGIN - 1))
    if r >= 1.0:
        return False
    remainder = w[-1] * r / (1.0 - r)
    return total + remainder <= 0.5 * GRAM_TOL


def osc_eigensystem(gamma: float, nbar: float, n_max: int, k_range: int,
                    dim: int) -> OscEigensystem:
    """Closed-form eigenmatrices of the thermal damped oscillator.

    Parameters
    ----------
    gamma : float
        Damping rate (> 0).
    nbar : float
        Thermal occupation (>= 0); nbar = 0 is the zero-temperature
        limit, where the right modes collapse onto finitely many Fock
        levels and the left modes stay polynomial.
    n_max, k_range : int
        Polynomial degrees 0..n_max and diagonal offsets
        -k_range..k_range to build; n_max is capped at MAX_POLY_ORDER.
    dim : int
        Fock truncation; must leave at least ``TAIL_MARGIN`` levels above
        ``n_max + k_range`` so tail estimates have room to settle.
    """
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    if nbar < 0:
        raise ValueError("nbar must be nonnegative")
    if n_max < 0 or n_max > MAX_POLY_ORDER:
        raise ValueError(f"n_max must lie in [0, {MAX_POLY_ORDER}]")
    if k_range < 0:
        raise ValueError("k_range must be nonnegative")
    if dim < n_max + k_range + TAIL_MARGIN:
        raise ValueError("dim too small for requested modes plus margin")

    z = 1.0 / (nbar + 1.0)
    rights: dict = {}
    lefts: dict = {}
    for n in range(n_max + 1):
        for k in range(k_range + 1):
            pref_r = (-1) ** n / (nbar + 1.0) ** (k + 1)
            R = pref_r * normal_ordered_fock_matrix(
                _right_coeffs(n, k, z), z, k, dim)
            pref_l = factorial(n) / ((nbar + 1.0) ** n * factorial(n + k))
            C = pref_l * normal_ordered_fock_matrix(
                _left_coeffs(n, k, nbar), 0.0, k, dim)
            rights[(n, k)] = R
            lefts[(n, k)] = C
            if k > 0:
                rights[(n, -k)] = R.conj().T
                lefts[(n, -k)] = C.conj().T
    for M in list(rights.values()) + list(lefts.values()):
        M.setflags(write=False)
    return OscEigensystem(gamma, nbar, n_max, k_range, dim, rights, lefts)
