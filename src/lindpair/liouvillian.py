"""Lindblad generators: matrix-free application and sparse superoperators.

A generator is stored as a hamiltonian plus weighted jump operators,

    L(rho) = -i [H, rho] + sum_j r_j ( J_j rho J_j^dag
                                       - (J_j^dag J_j rho + rho J_j^dag J_j) / 2 ).

Repeated application reuses the non-hermitian drift
``K = -i H - (1/2) sum_j r_j J_j^dag J_j`` held in sparse form, so one
call costs a handful of sparse-dense products instead of a superoperator
matvec.  The superoperator (column-stacking convention,
``A rho B -> kron(B^T, A) vec(rho)``) is assembled sparse from the same
drift and jump matrices; it feeds the steady-state solve, spectra and
sector restrictions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
import scipy.sparse as sp

from .hilbert import Operator, SpaceSpec

__all__ = [
    "LindbladTerm",
    "Liouvillian",
    "sparse_superoperator",
    "trace_row_indices",
    "TOL_TRACE",
]

# Trace of L(rho) must vanish to this tolerance relative to |rho|_max.
TOL_TRACE = 1e-12


@dataclass(frozen=True)
class LindbladTerm:
    """One dissipation channel: jump operator with a nonnegative rate."""

    jump_op: Operator
    rate: float

    def __post_init__(self):
        if self.rate < 0:
            raise ValueError(f"negative rate {self.rate}")


@dataclass(eq=False)
class Liouvillian:
    """Markovian generator on a composite space.

    Parameters
    ----------
    space : SpaceSpec
        Space the generator acts on.
    hamiltonian : Operator
        Hermitian part; checked against :func:`Operator.is_hermitian`.
    terms : sequence of LindbladTerm
        Dissipation channels.
    """

    space: SpaceSpec
    hamiltonian: Operator
    terms: tuple[LindbladTerm, ...]
    _drift: sp.csr_matrix = field(init=False, repr=False, default=None)
    _jumps: tuple = field(init=False, repr=False, default=None)

    def __init__(self, space: SpaceSpec, hamiltonian: Operator,
                 terms: Sequence[LindbladTerm] = ()):
        if hamiltonian.space != space:
            raise ValueError("hamiltonian acts on a different space")
        if not hamiltonian.is_hermitian():
            raise ValueError("hamiltonian is not hermitian")
        for t in terms:
            if t.jump_op.space != space:
                raise ValueError("jump operator acts on a different space")
        self.space = space
        self.hamiltonian = hamiltonian
        self.terms = tuple(terms)
        self._build_cache()

    def _build_cache(self):
        d = self.space.total_dim
        K = -1j * self.hamiltonian.entries.copy()
        jumps = []
        for t in self.terms:
            J = t.jump_op.entries
            K -= 0.5 * t.rate * (J.conj().T @ J)
            jumps.append((sp.csr_matrix(J), sp.csr_matrix(J.conj().T), t.rate))
        self._drift = sp.csr_matrix(K)
        self._jumps = tuple(jumps)

    @property
    def dim(self) -> int:
        return self.space.total_dim

    def apply(self, rho: np.ndarray) -> np.ndarray:
        """L(rho) for a dense matrix ``rho`` (no superoperator assembly)."""
        # K rho + rho K^dag; the second product comes from (K rho^dag)^dag
        # so both go through the same sparse drift.
        out = self._drift @ rho
        out = out + (self._drift @ rho.conj().T).conj().T
        for J, Jd, r in self._jumps:
            out += r * _sandwich(J, Jd, rho)
        return out

    def adjoint_apply(self, X: np.ndarray) -> np.ndarray:
        """Heisenberg-picture generator acting on an observable."""
        H = self.hamiltonian.entries
        out = 1j * (H @ X - X @ H)
        for t in self.terms:
            J = t.jump_op.entries
            JdJ = J.conj().T @ J
            out += t.rate * (J.conj().T @ X @ J - 0.5 * (JdJ @ X + X @ JdJ))
        return out


def _sandwich(J: sp.csr_matrix, Jd: sp.csr_matrix, rho: np.ndarray) -> np.ndarray:
    # J rho J^dag with sparse factors on both sides; the right factor is
    # applied through a transpose to keep sparse-times-dense ordering.
    left = J @ rho
    return (Jd.T @ left.T).T


def sparse_superoperator(L: Liouvillian) -> sp.csr_matrix:
    """Column-stacking superoperator as a sparse matrix (any dimension).

    ``vec`` is column-major flattening, so ``A rho B`` maps to
    ``kron(B^T, A)``, and the cached drift and jumps of
    ``K rho + rho K^dag + sum_j r_j J_j rho J_j^dag`` give
    ``kron(1, K) + kron(conj(K), 1) + sum_j r_j kron(conj(J_j), J_j)``.
    """
    I = sp.identity(L.dim, format="csr")
    K = L._drift
    M = sp.kron(I, K, format="csr") + sp.kron(K.conj(), I, format="csr")
    for J, _, r in L._jumps:
        M = M + r * sp.kron(J.conj(), J, format="csr")
    return M.tocsr()


def trace_row_indices(d: int) -> np.ndarray:
    """Flat vec indices of the diagonal, i.e. the trace functional row."""
    return np.arange(d) * (d + 1)
