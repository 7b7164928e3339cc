"""Lindblad generators: matrix-free application and sparse superoperators.

A generator is stored as a hamiltonian plus weighted jump operators,

    L(rho) = -i [H, rho] + sum_j r_j ( J_j rho J_j^dag
                                       - (J_j^dag J_j rho + rho J_j^dag J_j) / 2 ).

With the non-hermitian drift ``K = -i H - (1/2) sum_j r_j J_j^dag J_j``
both directions are one kernel,

    X -> K X + X K^dag + sum_j r_j J_j X J_j^dag,

run on ``(K, J_j)`` for L and on ``(K^dag, J_j^dag)`` for the
Heisenberg-picture adjoint L^dag.  Both sets are cached sparse when the
generator is built, so one call costs a handful of sparse-dense products
instead of a superoperator matvec.  The superoperator (column-stacking
convention, ``A rho B -> kron(B^T, A) vec(rho)``) is assembled sparse
from the same cached drift and jumps; it feeds the steady-state solve,
spectra and sector restrictions.
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
]


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
    _forward: tuple = field(init=False, repr=False, default=None)
    _adjoint: tuple = field(init=False, repr=False, default=None)

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
        # (drift, ((jump, rate), ...)) for L and, daggered, for L^dag
        jumps = [(t.jump_op.entries, t.rate) for t in self.terms]
        K = -1j * self.hamiltonian.entries
        for J, r in jumps:
            K = K - 0.5 * r * (J.conj().T @ J)
        csr = sp.csr_matrix
        self._forward = (csr(K), tuple((csr(J), r) for J, r in jumps))
        self._adjoint = (csr(K.conj().T),
                         tuple((csr(J.conj().T), r) for J, r in jumps))

    @property
    def dim(self) -> int:
        return self.space.total_dim

    def apply(self, rho: np.ndarray) -> np.ndarray:
        """L(rho) for a dense matrix ``rho`` (no superoperator assembly)."""
        return _lindblad(*self._forward, rho)

    def adjoint_apply(self, X: np.ndarray) -> np.ndarray:
        """Heisenberg-picture generator acting on an observable."""
        return _lindblad(*self._adjoint, X)


def _lindblad(K: sp.csr_matrix, jumps: tuple, X: np.ndarray) -> np.ndarray:
    # K X + X K^dag + sum_j r_j J_j X J_j^dag; each right product comes
    # from a dagger, X K^dag = (K X^dag)^dag, so every product is sparse
    # times dense and no sparse transpose is formed per call.
    Xd = X.conj().T
    out = K @ X + (K @ Xd).conj().T
    for J, r in jumps:
        out += r * (J @ (J @ Xd).conj().T)
    return out


def sparse_superoperator(L: Liouvillian) -> sp.csr_matrix:
    """Column-stacking superoperator as a sparse matrix (any dimension).

    ``vec`` is column-major flattening, so ``A rho B`` maps to
    ``kron(B^T, A)``, and the cached drift and jumps of
    ``K rho + rho K^dag + sum_j r_j J_j rho J_j^dag`` give
    ``kron(1, K) + kron(conj(K), 1) + sum_j r_j kron(conj(J_j), J_j)``.
    """
    I = sp.identity(L.dim, format="csr")
    K, jumps = L._forward
    M = sp.kron(I, K, format="csr") + sp.kron(K.conj(), I, format="csr")
    for J, r in jumps:
        M = M + r * sp.kron(J.conj(), J, format="csr")
    return M.tocsr()


def trace_row_indices(d: int) -> np.ndarray:
    """Flat vec indices of the diagonal, i.e. the trace functional row."""
    return np.arange(d) * (d + 1)
