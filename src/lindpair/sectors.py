"""Excitation sectors of system A and the decay-bound machinery.

System A is the generator's leading factor, ``L.space.factors[0]``, a
spin or an oscillator, and its excitation operator (the excited-state
projector or the number operator) is diagonal with the eigenvalue k at
level k, so a basis index of A carries an exact excitation count.  A
composite density matrix splits into sectors labelled by the difference
l of the row and column excitation; the generator of the coupled pair
commutes with this splitting, each sector relaxes on its own, and every
l != 0 sector dies out at the rate ``eta_l = -|l| r / 2`` set by A's
damping rate r alone.

Every sector is read off one partition, cached per (A dimension, d):
each vec index's label (``liouvillian.sector_labels``), on which
``verify`` checks the commutation, and each sector's indices
(``sector_indices``), from which ``project_sector`` and ``evolve``
scatter their sectors and the decay bound and the split propagation
take the requested +l sectors as one closed block of the cached
superoperator.  The decay bound propagates it exactly with
``expm_multiply``, rebuilding each +-l pair from its +l half.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
import scipy.linalg
import scipy.sparse as sp
from scipy.sparse.linalg import expm_multiply

from .evolve import HERM_BRANCH_TOL, trace_norm
from .hilbert import SPIN
from .liouvillian import (Liouvillian, block_triplets, sector_indices,
                          sparse_superoperator)

__all__ = [
    "project_sector",
    "sector_decay_rate",
    "check_decay_bound",
    "DecayBoundReport",
    "trotter_compare",
    "TrotterReport",
]

# Multiplicative slack on the decay bound.  The sector block is propagated
# exactly, so it covers rounding only.
TOL_BOUND = 1e-6


def project_sector(dA: int, rho, l: int) -> np.ndarray:
    """Keep only the entries whose row excitation of A (the leading
    factor, ``dA`` levels) minus column excitation is l."""
    rho = np.asarray(getattr(rho, "entries", rho), dtype=complex)
    d = rho.shape[0]
    if rho.shape != (d, d) or d % dA:
        raise ValueError(f"state must be square over A's {dA} levels")
    at = sector_indices(dA, d).get(l, np.zeros(0, dtype=int))
    out = np.zeros(d * d, dtype=complex)
    out[at] = rho.reshape(-1, order="F")[at]
    return out.reshape(d, d, order="F")


def sector_decay_rate(model, l: int) -> float:
    """Largest real part eta_l of the A damping restricted to sector l.

    ``eta_l = -|l| r / 2`` with r A's damping rate,
    ``model.reference_rate``: -gamma_A/2 for the one coherence sector of
    a spin, -kappa*|l|/2 for an oscillator.  A spin holds no sector
    beyond |l| = 1, so asking for one raises ValueError.
    """
    units = abs(int(l))
    if units > 1 and model.L.space.factors[0].kind == SPIN:
        raise ValueError(f"sector {l} exceeds the A-side excitation range")
    return -units * model.reference_rate / 2.0


@dataclass
class DecayBoundReport:
    """Measured sector norms against their exponential bounds."""

    times: np.ndarray
    measured: dict[int, np.ndarray]
    bounds: dict[int, np.ndarray]
    rates: dict[int, float]
    max_ratio: dict[int, float]


def _eligible_ls(model) -> list:
    f = model.L.space.factors[0]
    return list(range(1, 2 if f.kind == SPIN else f.dim - 1))


def _closed_block(L: Liouvillian, ls) -> tuple:
    """The vec indices of each sector in ``ls``, their concatenation and
    the block of ``S`` they span, as CSR in block coordinates.

    The block must be closed: a row reaching outside it raises a
    RuntimeError naming the first sector that leaks.
    """
    part = sector_indices(L.space.dims[0], L.dim)
    empty = np.zeros(0, dtype=int)
    idx = [part.get(l, empty) for l in ls]
    block = np.concatenate([empty] + idx)
    S = sparse_superoperator(L)
    row, col, at, _ = block_triplets(S, block)
    leak = col < 0
    if np.any(leak):
        l = np.repeat(ls, [i.size for i in idx])[row[np.argmax(leak)]]
        raise RuntimeError(
            f"sector {l} is not closed under the generator: its rows of the "
            "superoperator reach outside the requested sectors")
    return idx, block, sp.csr_matrix((S.data[at], (row, col)),
                                     shape=(block.size, block.size))


def check_decay_bound(model, rho0, t_grid,
                      ls: Sequence[int] | None = None,
                      tol_bound: float = TOL_BOUND) -> DecayBoundReport:
    """Verify ``|Q_l rho(t)|_1 <= e^{eta_l t} |Q_l rho(0)|_1`` on a grid.

    Only the requested sectors are propagated.  Their +l vec indices
    pick a square block out of the cached superoperator ``S``
    (``block_triplets``); it must be closed (its rows of ``S`` hold no
    entry outside it), or a RuntimeError names the first sector that
    leaks, so a generator that does not commute with the A excitation
    cannot pass.  The block's sub-vector is propagated exactly, one
    ``expm_multiply`` per sample interval.  For a hermitian state sector
    -l is the adjoint of sector +l, so each pair is rebuilt as
    ``Y + Y^dag`` for its trace norm.

    Sectors touching the truncated top of an oscillator ladder are
    excluded by default (l above N_trunc - 2 for an oscillator A),
    since the cut ladder distorts their rates; a requested sector that
    is empty reports zeros.  A violation beyond the multiplicative slack
    ``tol_bound`` (plus a 1e-12 absolute floor for identically zero
    sectors) raises RuntimeError.  A non-square, non-hermitian or
    unnormalized ``rho0``, a ``t_grid`` that is not finite and strictly
    increasing, or any l below 1 raises ValueError.

    The constant-1 bound is a theorem for a spin A only: A's damping
    acts on sector +-1 as the scalar ``e^{eta_1 t}`` and the rest of the
    generator is a Lindblad semigroup, which contracts the trace norm.
    For an oscillator A the sector block is not normal and valid states
    can break it even without coupling: on optomechanical (4, 3) with
    g = 0, nbar = mbar = 0, A in (|1> + |2>)/sqrt(2) and B in its ground
    state, the sector-1 ratio reaches 1.41415 and ``ls=[1]`` on a grid
    of step 0.1 raises at t = 2.3; the norm still decays at the rate
    ``eta_1``, with a prefactor above 1.
    """
    L: Liouvillian = model.L
    d = L.dim
    rho0 = np.asarray(getattr(rho0, "entries", rho0), dtype=complex)
    if rho0.shape != (d, d):
        raise ValueError(f"rho0 must be a ({d}, {d}) matrix, "
                         f"got shape {rho0.shape}")
    if abs(np.trace(rho0) - 1.0) > 1e-8:
        raise ValueError(f"rho0 is not normalized: trace {np.trace(rho0):.12g}")
    if np.abs(rho0 - rho0.conj().T).max() > HERM_BRANCH_TOL * np.abs(rho0).max():
        raise ValueError("rho0 is not hermitian; sector -l is rebuilt from +l")
    times = np.array(t_grid, dtype=float)
    if not np.isfinite(times).all():
        raise ValueError("t_grid must be finite")
    if times.ndim != 1 or times.size < 1 or np.any(np.diff(times) <= 0):
        raise ValueError("t_grid must be strictly increasing")
    ls = _eligible_ls(model) if ls is None else list(dict.fromkeys(ls))
    for l in ls:
        if l < 1:
            raise ValueError(f"the decay bound needs sectors l >= 1, got l={l}")
    idx, block, M = _closed_block(L, ls)
    x = rho0.reshape(-1, order="F")[block]
    cuts = np.cumsum([i.size for i in idx])[:-1]
    norms = np.empty((len(ls), times.size))
    for i in range(times.size):
        if i > 0 and x.size:
            x = expm_multiply(M * (times[i] - times[i - 1]), x)
        for k, (ix, part) in enumerate(zip(idx, np.split(x, cuts))):
            Y = np.zeros(d * d, dtype=complex)
            Y[ix] = part
            Y = Y.reshape(d, d, order="F")
            norms[k, i] = trace_norm(Y + Y.conj().T)
    t = times - times[0]
    measured, bounds, rates, ratios = {}, {}, {}, {}
    for l, meas in zip(ls, norms):
        eta = sector_decay_rate(model, l)
        bound = np.exp(eta * t) * meas[0]
        measured[l], bounds[l], rates[l] = meas, bound, eta
        limit = bound * (1.0 + tol_bound) + 1e-12
        if np.any(meas > limit):
            i = int(np.argmax(meas - limit))
            raise RuntimeError(
                f"decay bound violated in sector {l} at t={times[i]:.6g}: "
                f"{meas[i]:.12g} > {bound[i]:.12g}")
        ratios[l] = float(np.max(meas / np.maximum(bound, 1e-300)))
    return DecayBoundReport(times, measured, bounds, rates, ratios)


@dataclass
class TrotterReport:
    """Splitting errors of the sector-restricted propagator."""

    errors: dict[int, float]
    fitted_order: float | None
    max_error: float
    split_commutator_max: float


def sector_generator_matrix(L: Liouvillian, l: int) -> np.ndarray:
    """Dense superoperator of L on sector l (vec indices), if closed."""
    return _closed_block(L, [l])[2].toarray()


def trotter_compare(model, l: int, t: float,
                    N_list: Sequence[int]) -> TrotterReport:
    """Error of the split propagator against the exact sector exponential.

    Splits the sector-l generator into the A-damping part and the rest,
    and measures ``max-norm((e^{A t/N} e^{rest t/N})^N - e^{full t})``
    for each N.  Both parts are read by ``sector_generator_matrix``: a
    sector that is not closed raises the decay bound's RuntimeError,
    naming it, instead of reporting a split.  The fitted order is the
    log-slope between the last two N values (None when the split
    commutes and errors sit at the noise floor).  Matrix exponentials
    use scaling-and-squaring.
    """
    L: Liouvillian = model.L
    N_list = sorted(int(n) for n in N_list)
    if len(N_list) < 1 or N_list[0] < 1:
        raise ValueError("N_list must contain positive integers")
    # the A-damping part: no hamiltonian, and A's channels, which lead
    # L's jumps
    n = len(model.a_terms)
    none = (np.zeros(0, np.int32),) * 2 + (np.zeros(0, complex),)
    MA = sector_generator_matrix(Liouvillian.from_nonzeros(
        L.space, none, L.jumps[:n], L.rates[:n]), l)
    Mfull = sector_generator_matrix(L, l)
    Mrest = Mfull - MA
    comm = MA @ Mrest - Mrest @ MA
    exact = scipy.linalg.expm(Mfull * t)
    errors = {}
    for N in N_list:
        step = scipy.linalg.expm(MA * (t / N)) @ scipy.linalg.expm(Mrest * (t / N))
        errors[N] = float(np.abs(np.linalg.matrix_power(step, N) - exact).max())
    max_error = max(errors.values())
    fitted = None
    if max_error >= 1e-12 and len(N_list) >= 2:
        n1, n2 = N_list[-2], N_list[-1]
        if errors[n2] > 0:
            fitted = float(np.log(errors[n1] / errors[n2])
                           / np.log(n2 / n1))
    return TrotterReport(errors, fitted, max_error,
                         float(np.abs(comm).max()))
