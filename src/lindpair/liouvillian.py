"""Lindblad generators and their cached sparse superoperator.

A generator is stored as a hamiltonian plus weighted jump operators,

    L(rho) = -i [H, rho] + sum_j r_j ( J_j rho J_j^dag
                                       - (J_j^dag J_j rho + rho J_j^dag J_j) / 2 ).

Its superoperator ``S`` (column-stacking convention,
``A rho B -> kron(B^T, A) vec(rho)``) is assembled on first use as one
read-only CSR matrix and cached on the generator: ``apply`` is one
sparse matvec with ``S``, and :func:`sparse_superoperator` hands the
same ``S`` to spectra and sector restrictions.  The steady-state solve
does not take it: ``S`` is a sum of kron terms of the drift and the
jumps (``_kron_terms``), and the solve forms its block's values from
those factors, assembling ``S`` (``_assemble``, not cached) only to
analyse a pattern it has not seen.
The matvec calls SciPy's compiled CSR kernel (``csr_matvec``) directly,
the kernel ``S @ v`` ends in, so its result is bitwise SciPy's product;
it skips the operator dispatch, which at the sizes a trajectory runs
(d=4-30) cost as much as the product.  The adjoint reads the same
arrays, which are the CSC arrays of ``S^T``: ``S^dag x`` is
``conj(S^T conj(x))``, one call of SciPy's CSC kernel.  Every block of
``S``, the steady solve's and the sector checks', is read by
:func:`block_triplets`.

``S`` is written as one list of (row, column, value) triplets, the
outer products of the nonzeros of each kron term's factors, in a single
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
from functools import cached_property, lru_cache
from typing import Sequence

import numpy as np
import scipy.sparse as sp
from scipy.sparse._sparsetools import csc_matvec, csr_matvec

from .hilbert import Operator, SpaceSpec

__all__ = [
    "LindbladTerm",
    "Liouvillian",
    "block_triplets",
    "sector_indices",
    "sector_labels",
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
        S = _assemble(_kron_terms(self), self.dim)
        for a in (S.data, S.indices, S.indptr):
            a.flags.writeable = False
        return S

    def _matvec(self, X, adjoint: bool) -> np.ndarray:
        """``S vec(X)`` (or ``S^dag vec(X)``) unstacked, by SciPy's kernels.

        ``S @ v`` runs ``csr_matvec`` on a zeroed output it accumulates
        into, so the result is bitwise SciPy's product; called directly
        it skips ~3 us of operator dispatch, which at d=4 cost more than
        the product (2.6 us against 5.5 us per apply, 12.6 against
        18.2 us at d=30, unchanged at d=144; 2 cores, one BLAS thread).
        The adjoint conjugates around ``csc_matvec`` on ``S``'s arrays;
        conjugation is exact, so it is bitwise ``S.conj().T @ v``.
        """
        if X.shape != self._shape:
            raise ValueError(
                f"expected a {self._shape} matrix, got {X.shape}")
        S = self._S
        n = S.shape[0]
        x = np.asarray(X, dtype=complex).reshape(-1, order="F")
        out = np.zeros(n, dtype=complex)
        if adjoint:
            csc_matvec(n, n, S.indptr, S.indices, S.data, x.conj(), out)
            np.conjugate(out, out=out)
        else:
            csr_matvec(n, n, S.indptr, S.indices, S.data, x, out)
        return out.reshape(self._shape, order="F")

    def apply(self, rho: np.ndarray) -> np.ndarray:
        """L(rho) for a dense ``(d, d)`` matrix: one matvec with ``S``."""
        return self._matvec(rho, adjoint=False)

    def adjoint_apply(self, X: np.ndarray) -> np.ndarray:
        """Heisenberg-picture generator acting on an observable."""
        return self._matvec(X, adjoint=True)


def _nonzeros(M: np.ndarray):
    """Rows, columns (int32) and values of the nonzeros of a dense matrix."""
    r, c = np.nonzero(M)
    return r.astype(np.int32), c.astype(np.int32), M[r, c]


def _kron_terms(L: Liouvillian) -> list:
    """The kron terms ``rate * kron(left, right)`` whose sum is ``S``.

    ``S = kron(1, K) + kron(conj K, 1) + sum_j r_j kron(conj J_j, J_j)``,
    with the drift ``K = -i H - (1/2) sum_j r_j J_j^dag J_j``.  Each
    factor is given by the rows, columns and values of its nonzeros in
    row-major order (``_nonzeros``; the identity's values are real
    ones).  A jump with a zero rate has no term: its products are exact
    zeros, which ``S`` does not store.
    """
    d = L.dim
    jumps = [_nonzeros(t.jump_op.entries) for t in L.terms]
    K = _drift(L.hamiltonian.entries, L.terms, jumps)
    diag = np.arange(d, dtype=np.int32)
    one = (diag, diag, np.ones(d))
    k = _nonzeros(K)
    terms = [(1.0, one, k), (1.0, (k[0], k[1], k[2].conj()), one)]
    for t, (r, c, v) in zip(L.terms, jumps):
        if t.rate != 0:
            terms.append((t.rate, (r, c, v.conj()), (r, c, v)))
    return terms


def _assemble(terms, d: int) -> sp.csr_matrix:
    """The canonical CSR sum of the kron terms, stored zeros removed.

    Every term is written into one triplet buffer and converted once.
    """
    n = sum(a[2].size * b[2].size for _, a, b in terms)
    rows = np.empty(n, dtype=np.int32)
    cols = np.empty(n, dtype=np.int32)
    vals = np.empty(n, dtype=complex)
    end = 0
    for rate, (ra, ca, va), (rb, cb, vb) in terms:
        start, end = end, end + va.size * vb.size
        shape = (va.size, vb.size)
        # kron(A, B)[i d + k, j d + l] = A[i, j] B[k, l]
        np.add.outer(ra * d, rb, out=rows[start:end].reshape(shape))
        np.add.outer(ca * d, cb, out=cols[start:end].reshape(shape))
        np.multiply.outer(va, vb, out=vals[start:end].reshape(shape))
        vals[start:end] *= rate
    # the conversion sums duplicates and leaves S canonical, so scipy
    # never sorts the shared arrays in place; stored zeros (cancellations)
    # go, since the steady solver would read them as couplings between
    # blocks
    S = sp.coo_matrix((vals, (rows, cols)), shape=(d * d, d * d)).tocsr()
    S.eliminate_zeros()
    return S


def _drift(H: np.ndarray, terms, jumps) -> np.ndarray:
    """The drift ``K = -i H - (1/2) sum_j r_j J_j^dag J_j``, dense.

    ``jumps`` holds each term's ``_nonzeros``.  Each ``J^dag J`` comes
    from them, ``(J^dag J)[c1, c2] = sum_r conj(J[r, c1]) J[r, c2]``: one
    product per pair of nonzeros of the jump that share a row, so the
    cost follows the pairs (one per nonzero for a ladder operator), not
    d^3, and never exceeds the nnz^2 entries of the jump's own kron
    block.  The pairs of all jumps are found in one pass, keyed by
    (jump, row), and added into ``-i H`` at their entries, in jump order.
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
    rate = np.array([t.rate for t in terms], dtype=float)
    K = -1j * H
    np.add.at(K, (c[i], c[j]), -0.5 * rate[q[i]] * v[i].conj() * v[j])
    return K


def sparse_superoperator(L: Liouvillian) -> sp.csr_matrix:
    """The generator's column-stacking superoperator, shared and read-only.

    ``vec`` is column-major flattening, so ``A rho B`` maps to
    ``kron(B^T, A)``.  The matrix is assembled on first use and cached on
    ``L``; every call returns the same object, the one ``L.apply`` uses,
    so its arrays are not writeable.
    """
    return L._S


def block_triplets(S: sp.csr_matrix, block: np.ndarray):
    """The rows ``block`` of ``S`` as row-major triplets in block
    coordinates, gathered off the CSR arrays with no sliced copy.

    Returns the rows, the columns, the positions ``at`` of the values
    in ``S.data`` and the map from vec index to block position, -1
    outside the block; so the block is closed under ``S`` exactly when
    no column is negative.
    """
    n = block.size
    first = S.indptr[block]
    count = S.indptr[block + 1] - first
    row = np.repeat(np.arange(n, dtype=np.int32), count)
    at = np.arange(row.size) + np.repeat(first - (np.cumsum(count) - count),
                                         count)
    local = np.full(S.shape[0], -1, dtype=np.int32)
    local[block] = np.arange(n, dtype=np.int32)
    return row, local[S.indices[at]], at, local


@lru_cache(maxsize=8)
def sector_labels(dA: int, d: int) -> np.ndarray:
    """The sector of each vec index v = i + j*d, row minus column
    excitation of A, the leading factor (``dA`` levels, k excitations at
    level k).  int32, read-only; the last 8 (dA, d) are kept."""
    level = np.repeat(np.arange(dA, dtype=np.int32), d // dA)
    labels = (level - level[:, None]).ravel()   # [j, i]: level i - level j
    labels.flags.writeable = False
    return labels


@lru_cache(maxsize=8)
def sector_indices(dA: int, d: int) -> dict[int, np.ndarray]:
    """Each sector l's vec indices in row-major (i, j) order, the order of
    its block of ``S``; as :func:`sector_labels`.  Row i = a dB + r, of A
    level a, meets the columns j = (a - l) dB + c, with r, c < dB."""
    dB = d // dA
    r = np.arange(dB, dtype=np.int32)
    out = {}
    for l in range(1 - dA, dA):
        a = np.arange(max(l, 0), min(dA, dA + l), dtype=np.int32)
        corner = a * dB + (a - l) * dB * d      # vec index of (a dB, (a-l) dB)
        out[l] = (corner[:, None, None] + r[:, None] + r * d).ravel()
        out[l].flags.writeable = False
    return out


def trace_row_indices(d: int) -> np.ndarray:
    """Flat vec indices of the diagonal, i.e. the trace functional row."""
    return np.arange(d) * (d + 1)
