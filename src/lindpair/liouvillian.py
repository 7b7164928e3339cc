"""Lindblad generators and their cached sparse superoperator.

A generator is a hamiltonian plus weighted jump operators,

    L(rho) = -i [H, rho] + sum_j r_j ( J_j rho J_j^dag
                                       - (J_j^dag J_j rho + rho J_j^dag J_j) / 2 ),

held only as the row-major nonzeros of H and of each jump, with the
rates: no d x d operator is kept.  A model passes the nonzeros formed
from its factor matrices (``hilbert.kron_products``); a generator given
dense operators takes theirs.  The dense ``hamiltonian`` and ``terms``
are formed only when read.
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
for one ``S`` at d=4).  The drift is summed on the nonzeros too: each
``J^dag J`` from the pairs of a jump's nonzeros that share a row, with
no dense d^3 product, added to ``-i H`` at the positions where either
has a nonzero, in the dense sum's order, so ``S`` is bit for bit the
one a dense drift gives.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Sequence

import numpy as np
import scipy.sparse as sp
from scipy.sparse._sparsetools import csc_matvec, csr_matvec

from .hilbert import TOL_HERM, Operator, SpaceSpec, nonzeros

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
        _check_rate(self.rate)


def _check_rate(rate):
    if not (np.isfinite(rate) and rate >= 0):
        raise ValueError(f"rate must be finite and nonnegative, got {rate}")


class Liouvillian:
    """Markovian generator on a composite space, held by its nonzeros.

    Parameters
    ----------
    space : SpaceSpec
        Space the generator acts on.
    hamiltonian : Operator
        Hermitian part, to ``TOL_HERM`` as :meth:`Operator.is_hermitian`.
    terms : sequence of LindbladTerm
        Dissipation channels.

    Only the nonzeros of the operators are kept, as row-major
    ``(rows, cols, values)`` triplets, int32 indices and read-only:
    ``h`` of the hamiltonian, ``jumps`` of each jump, with the ``rates``.
    :meth:`from_nonzeros` takes the triplets themselves, so a generator
    built from factor matrices never forms a d x d one.  ``hamiltonian``
    and ``terms`` are dense views, formed on each read and not kept.
    """

    def __init__(self, space: SpaceSpec, hamiltonian: Operator,
                 terms: Sequence[LindbladTerm] = ()):
        if hamiltonian.space != space:
            raise ValueError("hamiltonian acts on a different space")
        for t in terms:
            if t.jump_op.space != space:
                raise ValueError("jump operator acts on a different space")
        self._hold(space, nonzeros(hamiltonian.entries),
                   [nonzeros(t.jump_op.entries) for t in terms],
                   [t.rate for t in terms])

    @classmethod
    def from_nonzeros(cls, space: SpaceSpec, h, jumps, rates) -> "Liouvillian":
        """The generator of the hamiltonian and jumps whose row-major
        nonzeros are ``h`` and ``jumps``, at ``rates``; checked as the
        constructor checks its operators."""
        L = cls.__new__(cls)
        L._hold(space, h, jumps, rates)
        return L

    def _hold(self, space: SpaceSpec, h, jumps, rates):
        d = space.total_dim
        h, *jumps = ((np.asarray(r, np.int32), np.asarray(c, np.int32),
                      np.asarray(v, complex)) for r, c, v in (h, *jumps))
        rates = tuple(float(r) for r in rates)
        if len(rates) != len(jumps):
            raise ValueError(f"{len(jumps)} jumps but {len(rates)} rates")
        for rate in rates:
            _check_rate(rate)
        finite = [np.isfinite(v).all() for _, _, v in (h, *jumps)]
        if not all(finite):
            k = finite.index(False)
            raise ValueError(("hamiltonian" if k == 0 else f"jump {k - 1}")
                             + " has non-finite entries")
        if not _is_hermitian(h, d):
            raise ValueError("hamiltonian is not hermitian")
        for a in (x for nz in (h, *jumps) for x in nz):
            a.flags.writeable = False
        self.space = space
        self.h = h
        self.jumps = tuple(jumps)
        self.rates = rates
        self._shape = (d, d)

    def _dense(self, nz) -> Operator:
        M = np.zeros(self._shape, dtype=complex)
        M[nz[0], nz[1]] = nz[2]
        return Operator(self.space, M)

    @property
    def hamiltonian(self) -> Operator:
        """H as a dense operator, formed on each read."""
        return self._dense(self.h)

    @property
    def terms(self) -> tuple[LindbladTerm, ...]:
        """The channels with dense jump operators, formed on each read."""
        return tuple(LindbladTerm(self._dense(J), r)
                     for J, r in zip(self.jumps, self.rates))

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


def _is_hermitian(h, d: int) -> bool:
    """``|H - H^dag|_max <= TOL_HERM |H|_max`` on the nonzeros ``h``
    (zero is hermitian): :meth:`Operator.is_hermitian`'s test.

    Entry m of ``h``, at (r, c), meets the entry at (c, r) when there is
    one, found by its row-major key; there ``H - H^dag`` is
    ``H[c, r] - conj(H[r, c])``, and where there is none it is
    ``-conj(H[r, c])``, as in the dense difference.
    """
    r, c, v = h
    if not v.size:
        return True
    key = r.astype(np.int64) * d + c
    at = np.searchsorted(key, c.astype(np.int64) * d + r)
    at[at == key.size] = 0
    met = key[at] == c.astype(np.int64) * d + r
    diff = np.where(met, v[at] - v.conj(), v)
    return np.abs(diff).max() <= TOL_HERM * np.abs(v).max()


def _kron_terms(L: Liouvillian) -> list:
    """The kron terms ``rate * kron(left, right)`` whose sum is ``S``.

    ``S = kron(1, K) + kron(conj K, 1) + sum_j r_j kron(conj J_j, J_j)``,
    with the drift ``K = -i H - (1/2) sum_j r_j J_j^dag J_j``.  Each
    factor is given by the rows, columns and values of its nonzeros in
    row-major order (the identity's values are real ones).  A jump with
    a zero rate has no term: its products are exact zeros, which ``S``
    does not store.
    """
    d = L.dim
    diag = np.arange(d, dtype=np.int32)
    one = (diag, diag, np.ones(d))
    k = _drift(L.h, L.rates, L.jumps, d)
    terms = [(1.0, one, k), (1.0, (k[0], k[1], k[2].conj()), one)]
    for rate, (r, c, v) in zip(L.rates, L.jumps):
        if rate != 0:
            terms.append((rate, (r, c, v.conj()), (r, c, v)))
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


def _drift(h, rates, jumps, d: int):
    """The row-major nonzeros of the drift
    ``K = -i H - (1/2) sum_j r_j J_j^dag J_j`` from those of H and the
    jumps.

    Each ``J^dag J`` comes from the jump's nonzeros,
    ``(J^dag J)[c1, c2] = sum_r conj(J[r, c1]) J[r, c2]``: one product
    per pair of nonzeros of the jump that share a row, so the cost
    follows the pairs (one per nonzero for a ladder operator), not d^3,
    and never exceeds the nnz^2 entries of the jump's own kron block.
    The pairs of all jumps are found in one pass, keyed by (jump, row).
    ``K`` is summed over the positions of H's nonzeros and of the pairs
    only, in the order the dense sum takes: ``-i H`` (a zero off H's
    nonzeros), then the pairs in jump order.  Elsewhere ``K`` is zero,
    and so is a sum that cancels, which is dropped.
    """
    n = len(jumps)
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
    rate = np.array(rates, dtype=float)
    hr, hc, hv = h
    # the positions of H's nonzeros and of the pairs, as row-major keys
    pos, at = np.unique(np.concatenate([hr.astype(np.int64) * d + hc,
                                        c[i].astype(np.int64) * d + c[j]]),
                        return_inverse=True)
    H = np.zeros(pos.size, dtype=complex)
    H[at[:hv.size]] = hv
    K = -1j * H
    np.add.at(K, at[hv.size:], -0.5 * rate[q[i]] * v[i].conj() * v[j])
    keep = K != 0
    row, col = np.divmod(pos[keep], d)
    return row.astype(np.int32), col.astype(np.int32), K[keep]


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
