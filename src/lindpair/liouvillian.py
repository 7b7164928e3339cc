"""Lindblad generators and their cached sparse superoperator.

A generator is stored as a hamiltonian plus weighted jump operators,

    L(rho) = -i [H, rho] + sum_j r_j ( J_j rho J_j^dag
                                       - (J_j^dag J_j rho + rho J_j^dag J_j) / 2 ).

Its superoperator ``S`` (column-stacking convention,
``A rho B -> kron(B^T, A) vec(rho)``) is assembled on first use as one
read-only CSR matrix and cached on the generator: ``apply`` is one
sparse matvec with ``S``, the Heisenberg-picture adjoint one with
``S^dag`` (cached on its first call), and :func:`sparse_superoperator`
hands the same ``S`` to the steady-state solve, spectra and sector
restrictions.

``S`` is written as one list of (row, column, value) triplets, the
outer products of the nonzeros of each kron factor, in a single
preallocated buffer (int32 indices, complex values), and converted to
CSR once.  Building it from ``scipy.sparse.kron`` calls and sparse
additions instead creates and validates a new sparse matrix at every
step, a fixed cost that dominated at small d (2-4 ms against 0.2-0.3 ms
for one ``S`` at d=4).  The jumps enter only through their nonzeros:
each ``J^dag J`` of the drift is summed from the pairs of nonzeros that
share a row, with no dense d^3 product.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
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
    """One dissipation channel: jump operator with a finite nonnegative rate."""

    jump_op: Operator
    rate: float

    def __post_init__(self):
        if not (np.isfinite(self.rate) and self.rate >= 0):
            raise ValueError(
                f"rate must be finite and nonnegative, got {self.rate}")


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
        d = space.total_dim
        self._shape = (d, d)

    @property
    def dim(self) -> int:
        return self.space.total_dim

    @cached_property
    def _S(self) -> sp.csr_matrix:
        # kron(1, K) + kron(conj K, 1) + sum_j r_j kron(conj J_j, J_j),
        # with the drift K = -i H - (1/2) sum_j r_j J_j^dag J_j, written
        # term by term into one triplet buffer and converted once
        d = self.dim
        jumps = [_nonzeros(t.jump_op.entries) for t in self.terms]
        K = _drift(self.hamiltonian.entries, self.terms, jumps)
        diag = np.arange(d, dtype=np.int32)
        one = (diag, diag, np.ones(d))
        k = _nonzeros(K)
        krons = [(1.0, one, k), (1.0, (k[0], k[1], k[2].conj()), one)]
        for t, (r, c, v) in zip(self.terms, jumps):
            krons.append((t.rate, (r, c, v.conj()), (r, c, v)))
        n = sum(a[2].size * b[2].size for _, a, b in krons)
        rows = np.empty(n, dtype=np.int32)
        cols = np.empty(n, dtype=np.int32)
        vals = np.empty(n, dtype=complex)
        end = 0
        for rate, (ra, ca, va), (rb, cb, vb) in krons:
            start, end = end, end + va.size * vb.size
            shape = (va.size, vb.size)
            # kron(A, B)[i d + k, j d + l] = A[i, j] B[k, l]
            np.add.outer(ra * d, rb, out=rows[start:end].reshape(shape))
            np.add.outer(ca * d, cb, out=cols[start:end].reshape(shape))
            np.multiply.outer(va, vb, out=vals[start:end].reshape(shape))
            vals[start:end] *= rate
        # the conversion sums duplicates and leaves S canonical, so scipy
        # never sorts the shared arrays in place; stored zeros (zero
        # rates, cancellations) go, since the steady solver would read
        # them as couplings between blocks
        S = sp.coo_matrix((vals, (rows, cols)), shape=(d * d, d * d)).tocsr()
        S.eliminate_zeros()
        for a in (S.data, S.indices, S.indptr):
            a.flags.writeable = False
        return S

    @cached_property
    def _S_dag(self) -> sp.csr_matrix:
        return self._S.conj().T.tocsr()

    def _matvec(self, S: sp.csr_matrix, X) -> np.ndarray:
        if X.shape != self._shape:
            raise ValueError(
                f"expected a {self._shape} matrix, got {X.shape}")
        return (S @ X.reshape(-1, order="F")).reshape(self._shape, order="F")

    def apply(self, rho: np.ndarray) -> np.ndarray:
        """L(rho) for a dense ``(d, d)`` matrix: one matvec with ``S``."""
        return self._matvec(self._S, rho)

    def adjoint_apply(self, X: np.ndarray) -> np.ndarray:
        """Heisenberg-picture generator acting on an observable."""
        return self._matvec(self._S_dag, X)


def _nonzeros(M: np.ndarray):
    """Rows, columns (int32) and values of the nonzeros of a dense matrix."""
    r, c = np.nonzero(M)
    return r.astype(np.int32), c.astype(np.int32), M[r, c]


def _drift(H: np.ndarray, terms, jumps) -> np.ndarray:
    """The drift ``K = -i H - (1/2) sum_j r_j J_j^dag J_j``, dense.

    ``jumps`` holds each term's ``_nonzeros``.  Each ``J^dag J`` comes
    from them, ``(J^dag J)[c1, c2] = sum_r conj(J[r, c1]) J[r, c2]``: one
    product per pair of nonzeros of the jump that share a row, so the
    cost follows the pairs (one per nonzero for a ladder operator), not
    d^3, and never exceeds the nnz^2 entries of the jump's own kron
    block.  The pairs of all jumps are found in one pass, keyed by
    (jump, row); the terms are subtracted in jump order.
    """
    n, d = len(jumps), H.shape[0]
    q = np.repeat(np.arange(n, dtype=np.int32), [J[2].size for J in jumps])
    # one empty triplet keeps the concatenation typed without jumps
    r, c, v = (np.concatenate(x) for x in zip(
        *jumps, (np.empty(0, np.int32), np.empty(0, np.int32),
                 np.empty(0, complex))))
    # the pairs (i, j) of nonzeros that share a key, i-major; the key
    # ascends because each jump's nonzeros come in row-major order
    key = q * d + r
    first = np.searchsorted(key, key)
    count = np.searchsorted(key, key, side="right") - first
    i = np.repeat(np.arange(key.size), count)
    j = np.arange(i.size) + np.repeat(first - (np.cumsum(count) - count),
                                      count)
    G = np.zeros(n * d * d, dtype=complex)
    np.add.at(G, (q[i] * d + c[i]) * d + c[j], v[i].conj() * v[j])
    K = -1j * H
    for t, JdJ in zip(terms, G.reshape(n, d, d)):
        K = K - 0.5 * t.rate * JdJ
    return K


def sparse_superoperator(L: Liouvillian) -> sp.csr_matrix:
    """The generator's column-stacking superoperator, shared and read-only.

    ``vec`` is column-major flattening, so ``A rho B`` maps to
    ``kron(B^T, A)``.  The matrix is assembled on first use and cached on
    ``L``; every call returns the same object, the one ``L.apply`` uses,
    so its arrays are not writeable.
    """
    return L._S


def trace_row_indices(d: int) -> np.ndarray:
    """Flat vec indices of the diagonal, i.e. the trace functional row."""
    return np.arange(d) * (d + 1)
