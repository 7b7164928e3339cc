"""Excitation sectors of system A and the decay-bound machinery.

The total excitation operator of system A (number operators plus
spin-projector terms) has nonnegative integer eigenvalues, so a basis
index of the A factors carries an exact excitation count.  A composite
density matrix splits into sectors labelled by the difference l of the
row and column excitation; the generator of the coupled pair commutes
with this splitting, each sector relaxes on its own, and every l != 0
sector dies out at a rate set by the A-side damping alone.

The decay bound is checked on that structure: the requested +l sectors
are one closed block of the cached superoperator, propagated exactly
with ``expm_multiply``, and each +-l pair of the hermitian state is
rebuilt from its +l half.

All sector operations work on the flat composite index with system A as
the leading tensor factors; the B dimension is inferred from the state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
import scipy.linalg
from scipy.sparse.linalg import expm_multiply

from .evolve import HERM_BRANCH_TOL, trace_norm
from .hilbert import Operator, SpaceSpec, OSCILLATOR, SPIN
from .liouvillian import Liouvillian, sparse_superoperator

__all__ = [
    "ExcitationStructure",
    "build_excitation_structure",
    "excitation_commutator",
    "project_sector",
    "project_sector_pair",
    "sector_pair_mask",
    "sector_vec_indices",
    "sector_decay_rate",
    "check_decay_bound",
    "DecayBoundReport",
    "trotter_compare",
    "TrotterReport",
]

# Multiplicative slack on the decay bound.  The sector block is propagated
# exactly, so it covers rounding only.
TOL_BOUND = 1e-6


@dataclass(frozen=True)
class ExcitationStructure:
    """Spectral data of the A-side excitation operator.

    ``space`` covers only the A factors; ``exc`` is the per-index
    eigenvalue array (the diagonal of the excitation operator).
    """

    space: SpaceSpec
    exc: np.ndarray

    def composite_excitation(self, total_dim: int) -> np.ndarray:
        """Excitation count per composite basis index (A leading)."""
        dA = self.space.total_dim
        if total_dim % dA != 0:
            raise ValueError("total dimension not divisible by A dimension")
        return np.repeat(self.exc, total_dim // dA)

    @property
    def max_excitation(self) -> int:
        return int(self.exc.max())


def build_excitation_structure(spaceA: SpaceSpec) -> ExcitationStructure:
    """Diagonalize the A-side excitation operator by construction.

    The operator is a sum of embedded number operators (oscillators) and
    excited-state projectors (spins); it is diagonal in the product
    basis with integer entries, so sectors come from exact integer
    comparison, never float thresholds.
    """
    counts = []
    for f in spaceA.factors:
        if f.kind == OSCILLATOR:
            counts.append(np.arange(f.dim))
        elif f.kind == SPIN:
            counts.append(np.array([0, 1]))
        else:
            raise ValueError(f"unsupported factor kind {f.kind!r}")
    exc = np.zeros(1, dtype=int)
    for c in counts:
        exc = (exc[:, None] + c[None, :]).reshape(-1)
    return ExcitationStructure(spaceA, exc)


def _composite_exc(es: ExcitationStructure, rho: np.ndarray) -> np.ndarray:
    d = rho.shape[0]
    if rho.shape != (d, d):
        raise ValueError("state must be a square matrix")
    return es.composite_excitation(d)


def excitation_commutator(es: ExcitationStructure, rho) -> np.ndarray:
    """Commutator ``[VA x 1, rho]`` on the composite space.

    VA is diagonal, so the commutator is a row/column scaling; a block
    with excitation difference l is an eigenvector with eigenvalue l.
    """
    rho = np.asarray(getattr(rho, "entries", rho), dtype=complex)
    v = _composite_exc(es, rho)
    return v[:, None] * rho - rho * v[None, :]


def project_sector(es: ExcitationStructure, rho, l: int) -> np.ndarray:
    """Keep only blocks with row excitation minus column excitation = l."""
    rho = np.asarray(getattr(rho, "entries", rho), dtype=complex)
    v = _composite_exc(es, rho)
    mask = (v[:, None] - v[None, :]) == l
    return np.where(mask, rho, 0.0)


def project_sector_pair(es: ExcitationStructure, rho, l: int) -> np.ndarray:
    """Keep the +-l sector pair (l >= 1); maps hermitian to hermitian."""
    if l < 1:
        raise ValueError("sector pair projector needs l >= 1")
    rho = np.asarray(getattr(rho, "entries", rho), dtype=complex)
    d = rho.shape[0]
    if rho.shape != (d, d):
        raise ValueError("state must be a square matrix")
    return np.where(sector_pair_mask(es, d, l), rho, 0.0)


def sector_pair_mask(es: ExcitationStructure, total_dim: int,
                     l: int) -> np.ndarray:
    """Boolean entry mask of the +-l sector pair (l >= 0) at a total dim."""
    if l < 0:
        raise ValueError(f"sector pair needs l >= 0, got l={l}")
    v = es.composite_excitation(total_dim)
    return np.abs(v[:, None] - v[None, :]) == l


def sector_vec_indices(es: ExcitationStructure, total_dim: int,
                       l: int) -> np.ndarray:
    """Column-stacked vec indices of sector l (row exc - col exc = l)."""
    v = es.composite_excitation(total_dim)
    diff = v[:, None] - v[None, :]
    # vec index of entry (i, j) in column-major stacking is i + j*d
    ii, jj = np.nonzero(diff == l)
    return ii + jj * total_dim


def sector_decay_rate(model, l: int) -> float:
    """Largest real part eta_l of the A damping restricted to sector l.

    For a single spin eta_{+-1} = -gamma_A/2; for a single oscillator
    eta_l = -kappa*|l|/2.  A composite A side distributes the |l|
    excitation units over its factors at the cheapest total per-unit
    cost (spins capped at one unit each), read from the
    ``model.a_unit_costs`` pairs ``(cost, capacity)`` with capacity None
    for an oscillator; dense sector spectra confirm the formula in the
    tests.
    """
    units = abs(int(l))
    if units == 0:
        return 0.0
    pools = model.a_unit_costs
    unit_costs = []
    unbounded = [c for c, cap in pools if cap is None]
    for c, cap in pools:
        if cap is not None:
            unit_costs.extend([c] * cap)
    if unbounded:
        cheapest = min(unbounded)
        unit_costs.extend([cheapest] * units)
    unit_costs.sort()
    if len(unit_costs) < units:
        raise ValueError(f"sector {l} exceeds the A-side excitation range")
    return -float(sum(unit_costs[:units]))


@dataclass
class DecayBoundReport:
    """Measured sector norms against their exponential bounds."""

    times: np.ndarray
    measured: dict[int, np.ndarray]
    bounds: dict[int, np.ndarray]
    rates: dict[int, float]
    max_ratio: dict[int, float]


def _eligible_ls(model) -> list:
    es: ExcitationStructure = model.es
    cap = 0
    for f in es.space.factors:
        cap += 1 if f.kind == SPIN else f.dim - 2
    return [l for l in range(1, es.max_excitation + 1) if l <= cap]


def _pair_norm(d: int, idx: np.ndarray, x: np.ndarray) -> float:
    """Trace norm of the +-l pair rebuilt from its +l entries as Y + Y^dag."""
    Y = np.zeros(d * d, dtype=complex)
    Y[idx] = x
    Y = Y.reshape(d, d, order="F")
    return trace_norm(Y + Y.conj().T)


def check_decay_bound(model, rho0, t_grid,
                      ls: Sequence[int] | None = None,
                      tol_bound: float = TOL_BOUND) -> DecayBoundReport:
    """Verify ``|Q_l rho(t)|_1 <= e^{eta_l t} |Q_l rho(0)|_1`` on a grid.

    Only the requested sectors are propagated.  Their +l vec indices
    pick a square block out of the cached superoperator ``S``; the block
    must be closed (its rows of ``S`` hold no entry outside it), or a
    RuntimeError names the first sector that leaks, so a generator that
    does not commute with the A excitation cannot pass.  The block's
    sub-vector is propagated exactly, one ``expm_multiply`` per sample
    interval.  For a hermitian state sector -l is the adjoint of sector
    +l, so each pair is rebuilt as ``Y + Y^dag`` for its trace norm.

    Sectors touching the truncated top of an oscillator ladder are
    excluded by default (l above N_trunc - 2 per oscillator factor),
    since the cut ladder distorts their rates; a requested sector that
    is empty reports zeros.  A violation beyond the multiplicative slack
    ``tol_bound`` (plus a 1e-12 absolute floor for identically zero
    sectors) raises RuntimeError.  A non-square, non-hermitian or
    unnormalized ``rho0``, a ``t_grid`` that is not strictly increasing,
    or any l below 1 raises ValueError.

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
    es: ExcitationStructure = model.es
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
    if times.ndim != 1 or times.size < 1 or np.any(np.diff(times) <= 0):
        raise ValueError("t_grid must be strictly increasing")
    ls = _eligible_ls(model) if ls is None else list(dict.fromkeys(ls))
    for l in ls:
        if l < 1:
            raise ValueError(f"the decay bound needs sectors l >= 1, got l={l}")
    idx = [sector_vec_indices(es, d, l) for l in ls]
    sizes = [i.size for i in idx]
    block = np.concatenate([np.zeros(0, dtype=int)] + idx)
    rows = sparse_superoperator(L)[block]
    M = rows[:, block]
    leak = np.diff(rows.indptr) != np.diff(M.indptr)
    if np.any(leak):
        l = np.repeat(ls, sizes)[np.argmax(leak)]
        raise RuntimeError(
            f"sector {l} is not closed under the generator: its rows of the "
            "superoperator reach outside the requested sectors")
    x = rho0.reshape(-1, order="F")[block]
    cuts = np.cumsum(sizes)[:-1]
    norms = np.empty((len(ls), times.size))
    for i in range(times.size):
        if i > 0 and x.size:
            x = expm_multiply(M * (times[i] - times[i - 1]), x)
        for k, (ix, part) in enumerate(zip(idx, np.split(x, cuts))):
            norms[k, i] = _pair_norm(d, ix, part)
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


def sector_generator_matrix(L: Liouvillian, es: ExcitationStructure,
                            l: int) -> np.ndarray:
    """Dense superoperator of L restricted to sector l (vec indices)."""
    idx = sector_vec_indices(es, L.dim, l)
    return sparse_superoperator(L)[idx][:, idx].toarray()


def trotter_compare(model, l: int, t: float,
                    N_list: Sequence[int]) -> TrotterReport:
    """Error of the split propagator against the exact sector exponential.

    Splits the sector-l generator into the A-damping part and the rest,
    and measures ``max-norm((e^{A t/N} e^{rest t/N})^N - e^{full t})``
    for each N.  The fitted order is the log-slope between the last two
    N values (None when the split commutes and errors sit at the noise
    floor).  Matrix exponentials use scaling-and-squaring.
    """
    L: Liouvillian = model.L
    es: ExcitationStructure = model.es
    N_list = sorted(int(n) for n in N_list)
    if len(N_list) < 1 or N_list[0] < 1:
        raise ValueError("N_list must contain positive integers")
    zero = Operator(L.space, np.zeros((L.dim, L.dim)))
    MA = sector_generator_matrix(Liouvillian(L.space, zero, model.a_terms),
                                 es, l)
    Mfull = sector_generator_matrix(L, es, l)
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
