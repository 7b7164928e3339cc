"""Steady states: analytic fixed points and the block null-space solver.

The composite steady state comes from one square sparse direct solve.
The generator commutes with ``[V_A x 1, .]``, so its superoperator is
block diagonal over excitation-difference sectors; the fixed point lies
in the block that holds the diagonal, the connected component of the
pattern of ``S`` that holds the first diagonal index, whose row gives
way to the trace condition.  The block's unknowns (i, j) sit on the
lattice of the factor levels of i and j and are numbered by nested
dissection of it (George, SIAM J. Numer. Anal. 10, 345 (1973)).
SuperLU pivots down each column, so it factors the system's transpose,
the block's canonical CSR arrays read as CSC, in that order with
symmetric threshold pivoting (Li, ACM Trans. Math. Softw. 31, 302
(2005)): the trace, the last column of its class, is eliminated last,
and the order sets the cost, never the answer.  The system is block
triangular over its strongly connected classes (at zero temperature
A's level n feeds n - 1, never n + 1), solved level by level (Duff &
Reid, ACM TOMS 4, 137 (1978); Davis & Palamadai Natarajan, ACM TOMS 37,
36 (2010)).  A level before the trace's has a zero right-hand side: it
is zero once a Gershgorin bound on its Hermitian part, in which the
Hamiltonian cancels, shows it nonsingular, and only the other levels
are factored.  Entries SuperLU stores for L and U, summed over them:

    spin-oscillator d=90 (n_trunc 45)        324,982
    spin-oscillator d=90, s = nbar = 0        81,116   (one LU: 243,767)
    optomechanical (12, 15)                  427,138
    optomechanical (10, 12)                  168,013
    spin-oscillator d=256 (n_trunc 128)    3,933,896
    optomechanical (16, 32), nbar = 0         10,018   (one LU: 3,024,145)
    optomechanical (12, 15), uncoupled         3,849

The state is supported on the block's pairs (i, j), whose levels split
it into diagonal blocks; its positivity check, clip and residual run
block by block.  Everything up to the values is a symbolic analysis of
the pattern of ``S``, the sum of kron products of the drift and the
jumps, with a map from those factors' nonzeros onto the block's values.
It is cached per factor pattern (at most ``_CACHE_BYTES``), so a sweep
over couplings or rates forms only the block's values, the solve and
the postprocess, and never assembles ``S``; a cancellation that changes
the pattern is analysed afresh.
"""

from __future__ import annotations

import threading
import warnings
from collections import OrderedDict
from dataclasses import dataclass
from math import prod

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse._sparsetools import csr_matvec, csr_sample_values

from .evolve import blockwise_trace_norm, trace_norm
from .hilbert import Operator
from .liouvillian import (Liouvillian, _assemble, _kron_terms, block_triplets,
                          trace_row_indices)

__all__ = [
    "SteadyReport",
    "thermal_state",
    "spin_steady",
    "solve_steady",
]

# Largest box of the steady block left uncut by the dissection order.
_LEAF = 16


@dataclass
class SteadyReport:
    """Solver output with its own quality metrics.

    ``residual`` is the trace norm of ``L(rho_st)``; ``block_dim`` is
    the number of unknowns solved; ``clipped_weight`` is the total negative eigenvalue weight
    removed by the positivity repair; ``degenerate`` flags a null space
    of dimension above one (reported, not resolved); ``classes`` is the
    number of strongly connected classes of the system, 1 when it is
    factored whole, ``certified`` the number shown nonsingular and
    solved to zero with no factorization, and ``lu_fill`` the number of
    entries SuperLU stores for the L and U factors of the others (all
    three 0 when an exactly singular class falls back to ``lsqr``).
    """

    rho_st: Operator
    residual: float
    block_dim: int
    clipped_weight: float = 0.0
    degenerate: bool = False
    lu_fill: int = 0
    classes: int = 0
    certified: int = 0


def thermal_state(nbar: float, dim: int) -> np.ndarray:
    """Geometric thermal state, renormalized over the truncation."""
    if nbar < 0:
        raise ValueError("nbar must be nonnegative")
    if nbar == 0:
        p = np.zeros(dim)
        p[0] = 1.0
    else:
        ratio = nbar / (nbar + 1.0)
        p = ratio ** np.arange(dim)
        p /= p.sum()
    return np.diag(p.astype(complex))


def spin_steady(s: float) -> np.ndarray:
    """Two-level fixed point diag(1-s, s)."""
    if not 0.0 <= s <= 1.0:
        raise ValueError("s must lie in [0, 1]")
    return np.diag([1.0 - s, s]).astype(complex)


def _postprocess(L: Liouvillian, raw: np.ndarray, an: _Analysis,
                 vals: np.ndarray) -> SteadyReport:
    """Hermitize, normalize, check positivity and take the residual.

    ``raw`` is supported on the block's pairs, so the eigenvalues, the
    clip and the residual's trace norm run on the state's diagonal
    blocks ``an.parts``, one LAPACK call per part size, and
    ``S vec(rho)`` comes from the block's own CSR rows with the values
    ``vals``: the block is a closed component of ``S``.  Only a clip on
    a block that leaves holes in its parts' squares (``an.partial``) can
    move the state off the block; the residual is then ``L.apply`` on
    the whole matrix.
    """
    # column-major like vec, so that flat is a view of rho
    rho = np.add(raw, raw.conj().T, order="F")
    rho *= 0.5
    tr = np.trace(rho).real
    if abs(tr) < 1e-12:
        raise RuntimeError("steady-state candidate has vanishing trace")
    rho /= tr
    flat = rho.reshape(-1, order="F")
    clipped = 0.0
    # eigenvectors are needed only to clip, which is rare
    if min(np.linalg.eigvalsh(flat[p]).min() for p in an.parts) < 0:
        eigs = [np.linalg.eigh(flat[p]) for p in an.parts]
        low = min(w.min() for w, _ in eigs)
        if low < -1e-8:
            raise RuntimeError(
                f"steady state has eigenvalue {low:.3e} below -1e-8; "
                "likely truncation failure")
        clipped = float(-sum(w[w < 0].sum() for w, _ in eigs))
        if clipped > 0:
            for p, (w, V) in zip(an.parts, eigs):
                flat[p] = (V * np.clip(w, 0.0, None)[:, None, :]
                           ) @ V.conj().swapaxes(1, 2)
            rho /= np.trace(rho).real
    n = an.block.size
    if clipped > 0 and an.partial:
        residual = trace_norm(L.apply(rho))
    else:
        R_flat = np.zeros(flat.size, dtype=complex)
        y = np.zeros(n, dtype=complex)
        csr_matvec(n, n, an.rptr, an.rcols, vals, flat[an.block], y)
        R_flat[an.block] = y
        residual = blockwise_trace_norm(R_flat.reshape(rho.shape, order="F"),
                                        [R_flat[p] for p in an.parts])
    return SteadyReport(Operator(L.space, rho), residual, n,
                        clipped_weight=clipped)


def _trace_block(S: sp.csr_matrix, d: int) -> tuple[np.ndarray, bool]:
    """Vec indices of the block that holds the trace, and a degeneracy flag.

    The block is the weakly connected component of the pattern of ``S``
    that holds the first diagonal index, in breadth-first order from
    that index, so it comes first.  Each component holding diagonal
    entries conserves its own partial trace, so a diagonal index the
    search does not reach means a steady-state space of dimension
    above one.
    """
    # imported here: csgraph adds about 1 MB of resident memory that
    # runs without a steady solve do not need
    from scipy.sparse.csgraph import breadth_first_order

    # the search runs on ones over S's index arrays: csgraph casts
    # complex input to real, which can cancel entries
    pattern = sp.csr_matrix((np.ones(S.nnz), S.indices, S.indptr),
                            shape=S.shape)
    diag = trace_row_indices(d)
    block = breadth_first_order(pattern, diag[0], directed=False,
                                return_predecessors=False)
    reached = np.zeros(d * d, dtype=bool)
    reached[block] = True
    return block, not reached[diag].all()


def _dissection_order(block: np.ndarray, dims: tuple) -> np.ndarray:
    """``block`` reordered for a sparse LU with little fill.

    The unknowns (i, j) sit on the lattice of the factor levels of i and
    of j; ladder and number operators move each level by at most one,
    so a plane of constant level separates a box's two sides.  Each box
    of more than ``_LEAF`` unknowns is cut at the middle of its longest
    side, its halves before the plane, one level of boxes at a time.
    The first diagonal index goes last: its row becomes the trace row,
    which eliminated early would join every diagonal unknown into one
    dense clique.  Any order gives the same solution.
    """
    rest = block[1:]
    if block.size <= _LEAF:
        return np.concatenate([rest, block[:1]])
    # vec index j d + i: the levels of j, then those of i
    C = np.column_stack(np.unravel_index(rest, dims + dims))
    perm = np.arange(rest.size)
    # the boxes still to cut, as ranges of positions in perm
    start, size = np.array([0]), np.array([rest.size])
    while start.size:
        box = np.repeat(np.arange(start.size), size)
        first = np.cumsum(size) - size
        pos = np.arange(box.size) + np.repeat(start - first, size)
        P = perm[pos]
        Cp = C[P]
        lo = np.minimum.reduceat(Cp, first)
        side = np.maximum.reduceat(Cp, first) - lo
        k = np.arange(start.size)
        axis = np.argmax(side, axis=1)
        mid = lo[k, axis] + side[k, axis] // 2
        off = Cp[np.arange(box.size), axis[box]] - mid[box]
        # 0: below the plane, 1: above it, 2: on it
        key = 3 * box + (off > 0) + 2 * (off == 0)
        perm[pos] = P[np.argsort(key, kind="stable")]
        count = np.bincount(key, minlength=3 * start.size).reshape(-1, 3)
        # each half's box is smaller than its parent's, so this ends
        again = count > _LEAF
        again[:, 2] = False
        start = (start[:, None] + np.cumsum(count, axis=1) - count)[again]
        size = count[again]
    return np.concatenate([rest[perm], block[:1]])


@dataclass(frozen=True, eq=False)
class _Analysis:
    """The symbolic part of a steady solve, set by the pattern of ``S``.

    ``block`` holds the vec indices of the unknowns in solve order and
    ``degenerate`` the search's flag.  ``rptr`` and ``rcols`` are the
    block's canonical CSR row pointers and columns in block coordinates,
    its values numbered in that order.  ``trace`` is the position of the
    first diagonal index, whose row gives way to the trace row:
    ``indices`` are the block's columns with that row's replaced by the
    columns of the trace row, the system's CSR columns, or the CSC
    columns of its transpose (``_system``).  ``parts`` splits the state
    into diagonal blocks: one stack of vec indices ``(m, k, k)`` per
    part size k, the ``[r, c]`` entry of a part with levels ``a`` at
    ``a[c] d + a[r]``.  ``partial`` is set when the block does not fill
    its parts' squares.

    ``classes`` bounds the system's strongly connected classes, and
    ``levels`` the runs of classes that feed no class of their run, as
    indices into ``classes`` (``_classes``).  For more than one class,
    ``dptr``, ``dcols`` and ``dpos`` hold each level's diagonal block:
    per row, pointers into ``dcols``, the columns counted from the
    level's start, and ``dpos``, the positions of those values among
    the system's; a row's other values are off-level.  ``tpos`` holds,
    for each of those values before the trace's level, the position of
    its transpose partner among them, -1 where none is stored.

    ``pairs`` maps the kron terms of ``S`` (``_kron_terms``) onto the
    block: per term, the indices ``p`` and ``q`` of the left and right
    factor nonzeros whose product lands in a row or a column of the
    block, and the group ``g`` it lands in.  Groups below ``rcols.size``
    are the block's values; the other ``groups - rcols.size`` summed to
    exactly zero and are not stored in ``S``.
    """

    block: np.ndarray
    degenerate: bool
    rptr: np.ndarray
    rcols: np.ndarray
    trace: int
    indices: np.ndarray
    classes: np.ndarray
    levels: np.ndarray
    dptr: np.ndarray
    dcols: np.ndarray
    dpos: np.ndarray
    tpos: np.ndarray
    parts: tuple
    partial: bool
    pairs: tuple
    groups: int

    @property
    def arrays(self) -> tuple:
        return ((self.block, self.rptr, self.rcols, self.indices,
                 self.classes, self.levels, self.dptr, self.dcols, self.dpos,
                 self.tpos)
                + self.parts + sum(self.pairs, ()))

    @property
    def nbytes(self) -> int:
        return sum(a.nbytes for a in self.arrays)


def _parts(block: np.ndarray, d: int, dtype) -> tuple[tuple, bool]:
    """The diagonal blocks of a state supported on ``block``.

    The levels i and j of each pair (i, j) of the block are joined; the
    connected components of that graph split every state on the block
    into diagonal blocks, on which ``L`` acts as well: a Lindblad
    generator maps rho^dag to L(rho)^dag, so the block is closed under
    (i, j) -> (j, i).  Should it not be, the state is one part.  csgraph
    numbers the components in the order of their least levels.
    Returns the stacks of ``_Analysis.parts`` and ``partial``.
    """
    from scipy.sparse.csgraph import connected_components

    i, j = block % d, block // d
    member = np.zeros(d * d, dtype=bool)
    member[block] = True
    levels, label = np.arange(d), np.zeros(d, dtype=np.intp)
    if member[i * d + j].all():
        levels = np.flatnonzero(member.reshape(d, d).any(axis=0))
        graph = sp.csr_matrix((np.ones(block.size), (i, j)), shape=(d, d))
        label = connected_components(graph, directed=False)[1]
    levels = levels[np.argsort(label[levels], kind="stable")]
    size = np.bincount(label[levels])
    size = size[size > 0]
    first = np.cumsum(size) - size
    parts = []
    for k in np.unique(size):
        a = levels[first[size == k][:, None] + np.arange(k)]
        parts.append((a[:, None, :] * d + a[:, :, None]).astype(dtype))
    return tuple(parts), sum(p.size for p in parts) != block.size


def _term_pairs(ra, rb, i, k, d: int):
    """The pairs (p, q) of factor nonzeros, ``ra`` and ``rb`` ascending,
    with ``ra[p] = i[t]`` and ``rb[q] = k[t]`` for a target ``t``: the
    kron products of a term that land in the vec rows ``i d + k`` (or,
    given the columns, in those columns).  Returns ``t``, ``p`` and
    ``q``, target by target, p-major; only those targets' pairs are
    formed, never the whole term."""
    sa = np.searchsorted(ra, np.arange(d + 1)).astype(np.int32)
    sb = np.searchsorted(rb, np.arange(d + 1)).astype(np.int32)
    na, nb = np.diff(sa)[i], np.diff(sb)[k]
    count = na * nb
    t = np.repeat(np.arange(count.size, dtype=np.int32), count)
    off = np.arange(t.size, dtype=np.int32) - np.repeat(
        (np.cumsum(count) - count).astype(np.int32), count)
    p, q = np.divmod(off, nb[t])
    return t, sa[i][t] + p, sb[k][t] + q


def _value_map(terms, d: int, block: np.ndarray, local: np.ndarray,
               rptr: np.ndarray, col: np.ndarray) -> tuple[tuple, int]:
    """``_Analysis.pairs`` and ``groups`` for the block's values at the
    canonical CSR arrays ``rptr`` and ``col`` of the block.

    Each term's products in the block's rows are enumerated
    (``_term_pairs``); one lands in the value of its row and column,
    searched among its row's columns, or, when ``S`` stores none there,
    in a group of its own vec (row, column), numbered after the values.
    So do products in the block's columns from rows outside it, which
    the block's columns take only if they take more products than its
    rows give them.  Each term holds one pair per group at most.  The
    indices take the smallest unsigned type that holds them.
    """
    dd, n = d * d, block.size
    # one past each value's position; a column outside the block
    # (local -1) is read as the column n, which holds none
    at = np.arange(1, col.size + 1, dtype=np.int32)
    i, k = np.divmod(block, d)
    found = []
    for _, (ra, ca, _), (rb, cb, _) in terms:
        t, p, q = _term_pairs(ra, rb, i, k, d)
        c = ca[p] * d + cb[q]
        g = np.zeros(t.size, dtype=np.int32)
        csr_sample_values(n, n + 1, rptr, col, at, t.size, t, local[c], g)
        g -= 1
        cut = g < 0
        gone = block[t[cut]] * np.int64(dd) + c[cut]
        # products in the block's columns from rows outside it, which
        # exist when the columns take more than the rows give them
        into = np.bincount(ca, minlength=d)[i] * np.bincount(cb, minlength=d)[k]
        if into.sum() > p.size - np.count_nonzero(local[c[cut]] < 0):
            oa = np.argsort(ca, kind="stable").astype(np.int32)
            ob = np.argsort(cb, kind="stable").astype(np.int32)
            _, pc, qc = _term_pairs(ca[oa], cb[ob], i, k, d)
            pc, qc = oa[pc], ob[qc]
            r = ra[pc] * d + rb[qc]
            out = local[r] < 0
            pc, qc = pc[out], qc[out]
            p, q = np.concatenate([p, pc]), np.concatenate([q, qc])
            g = np.concatenate([g, np.zeros(pc.size, np.int32)])
            cut = np.concatenate([cut, np.ones(pc.size, bool)])
            gone = np.concatenate([gone, r[out] * np.int64(dd)
                                   + ca[pc] * d + cb[qc]])
        found.append((p, q, g, cut, gone))
    gone = np.unique(np.concatenate([f[4] for f in found]))
    for _, _, g, cut, key in found:
        g[cut] = col.size + np.searchsorted(gone, key)
    groups = col.size + gone.size
    small = np.min_scalar_type(max(groups, d * d))
    return tuple(tuple(a.astype(small) for a in f[:3]) for f in found), groups


def _row_pointers(row: np.ndarray, n: int) -> np.ndarray:
    """CSR row pointers of n rows holding entries in the rows ``row``."""
    ptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(np.bincount(row, minlength=n), out=ptr[1:])
    return ptr


def _classes(indptr: np.ndarray, indices: np.ndarray):
    """The strongly connected classes of the system with CSR arrays
    ``indptr`` and ``indices``, ordered to solve it class by class;
    None for one class.

    Class a feeds class b when a row of b has a column in a; between
    classes that is acyclic, so each class has a level, its longest path
    from a class nothing feeds, and no class feeds one of its level.
    Classes are sorted by level, then by first position, and positions
    keep their order inside a class.  Returns the new order of the
    positions, the class bounds in it, and the level bounds as indices
    into those.
    """
    from scipy.sparse.csgraph import connected_components

    n = indptr.size - 1
    # on ones: csgraph casts complex values to real, which can cancel
    pattern = sp.csr_matrix((np.ones(indices.size), indices, indptr),
                            shape=(n, n))
    k, label = connected_components(pattern, directed=True,
                                    connection="strong")
    if k == 1:
        return None
    a, b = label[indices], np.repeat(label, np.diff(indptr))
    src, dst = np.divmod(np.unique(a[a != b] * np.int64(k) + b[a != b]), k)
    level = np.zeros(k, dtype=np.intp)
    # each sweep lengthens the paths by one edge, up to the longest
    while True:
        longer = level.copy()
        np.maximum.at(longer, dst, level[src] + 1)
        if np.array_equal(longer, level):
            break
        level = longer
    first = np.unique(label, return_index=True)[1]
    cls = np.lexsort((first, level))
    rank = np.empty(k, dtype=np.intp)
    rank[cls] = np.arange(k)
    order = np.argsort(rank[label], kind="stable")
    bounds = np.zeros(k + 1, dtype=np.int32)
    np.cumsum(np.bincount(label)[cls], out=bounds[1:])
    levels = np.flatnonzero(np.diff(level[cls], prepend=-1, append=-1))
    return order, bounds, levels.astype(np.int32)


def _analyse(S: sp.csr_matrix, terms, dims: tuple) -> _Analysis:
    """The symbolic analysis of the steady block of ``S``, the sum of
    the kron ``terms``.

    The block is found and ordered (``_trace_block``,
    ``_dissection_order``) and read off the CSR arrays
    (``block_triplets``).  The system, the block with the first
    diagonal's row replaced by the trace row, is split into strongly
    connected classes (``_classes``); when there are several, the block
    is renumbered class by class and each level's diagonal block is
    located.  Each row's columns are sorted, so the block's CSR arrays,
    and the system's, are canonical.  ``_parts`` and ``_value_map`` add
    the state's diagonal blocks and the map from the terms onto the
    block's values.  Every array is read-only.
    """
    d = prod(dims)
    block, degenerate = _trace_block(S, d)
    block = _dissection_order(block, dims)
    n = block.size
    row, col, _, local = block_triplets(S, block)
    rptr = _row_pointers(row, n)
    t = local[trace_row_indices(d)]
    t = t[t >= 0]
    indptr = rptr.copy()
    indptr[-1] = rptr[-2] + t.size
    found = _classes(indptr, np.concatenate([col[:rptr[-2]], t]))
    classes = np.array([0, n], dtype=np.int32)
    levels = np.array([0, 1], dtype=np.int32)
    if found is not None:
        order, classes, levels = found
        new = np.empty(n, dtype=np.int32)
        new[order] = np.arange(n, dtype=np.int32)
        block, row, col, t = block[order], new[row], new[col], new[t]
        local[block] = np.arange(n, dtype=np.int32)
        rptr = _row_pointers(row, n)
    # each row's columns ascending, by one sort of row-major keys
    col = (np.sort(row * np.int64(n) + col) % n).astype(np.int32)
    tr = int(local[trace_row_indices(d)[0]])
    indices = np.concatenate([col[:rptr[tr]], np.sort(t), col[rptr[tr + 1]:]])
    dptr = dcols = dpos = tpos = np.zeros(0, dtype=np.int32)
    if found is not None:
        # each value's level start; the values at or past it are the
        # diagonal block's, the rest are off-level
        indptr = rptr.copy()
        indptr[tr + 1:] += t.size - (rptr[tr + 1] - rptr[tr])
        start = np.repeat(classes[levels[:-1]], np.diff(classes[levels]))
        lo = np.repeat(start, np.diff(indptr))
        inside = indices >= lo
        dpos = np.flatnonzero(inside).astype(np.int32)
        dcols = (indices - lo)[inside]
        r = np.repeat(np.arange(n), np.diff(indptr))[inside]
        dptr = _row_pointers(r, n)
        # the transpose partners of the values before the trace's level,
        # whose row-major keys ascend; -1 where S stores none
        m = dptr[start[tr]]
        key = r[:m] * np.int64(n) + indices[dpos[:m]]
        back = indices[dpos[:m]] * np.int64(n) + r[:m]
        tpos = np.searchsorted(key, back).astype(np.int32)
        tpos[np.append(key, -1)[tpos] != back] = -1
    an = _Analysis(
        block, degenerate, rptr, col, tr, indices, classes, levels,
        dptr, dcols, dpos, tpos, *_parts(block, d, np.int32),
        *_value_map(terms, d, block, local, rptr, col))
    for a in an.arrays:
        a.flags.writeable = False
    return an


def _block_values(terms, an: _Analysis) -> tuple[np.ndarray, bool]:
    """The block's values from the kron terms, and whether they are exact.

    Each group is summed from zero, term by term; a term puts at most
    one product in a group, so one fancy-indexed add takes them all.
    The values are exact for ``an``, the pattern being unchanged, when
    no value sums to zero and every group that ``S`` dropped still does.
    """
    out = np.zeros(an.groups, dtype=complex)
    for (rate, (_, _, va), (_, _, vb)), (p, q, g) in zip(terms, an.pairs):
        out[g] += va[p] * vb[q] * rate
    vals = out[:an.rcols.size]
    return vals, bool(vals.all()) and not out[vals.size:].any()


def _system(vals: np.ndarray, an: _Analysis):
    """The transpose of the trace-augmented block system with values
    ``vals``, as CSC, and the trace weight ``w = max(1, max|vals|)``,
    which the trace row and the right-hand side carry.

    The block's CSR rows, the row of ``an.trace`` the trace row, read
    as CSC give the transpose, whose column ``an.trace`` is the trace.
    """
    n, tr = an.block.size, an.trace
    lo, hi = an.rptr[tr], an.rptr[tr + 1]
    w = np.abs(vals).max(initial=1.0)
    indptr = an.rptr.copy()
    indptr[tr + 1:] += an.indices.size - vals.size
    data = np.concatenate([vals[:lo], np.full(indptr[tr + 1] - lo, w),
                           vals[hi:]])
    return sp.csc_matrix((data, an.indices, indptr), shape=(n, n)), w


def _lu(A):
    # A is a transpose: threshold pivoting in symmetric mode keeps its
    # order unless a diagonal pivot is below 0.1 of its system row
    return spla.splu(A, permc_spec="NATURAL", diag_pivot_thresh=0.1,
                     options=dict(SymmetricMode=True))


def _margins(vals: np.ndarray, an: _Analysis) -> tuple[np.ndarray, ...]:
    """Per row before the trace's level, of its level's diagonal block M
    with the values ``vals``: Re M_rr + sum_{c != r} |H_rc| on the
    Hermitian part H = (M + M^dag) / 2, and sum_c |M_rc|."""
    b, t = an.classes[an.levels], an.tpos
    m = b[b <= an.trace][-1]
    v = vals[:t.size]
    h = 0.5 * (v + np.append(v, 0)[t].conj())
    g = np.where(t == np.arange(t.size), h.real, abs(h))
    r = np.repeat(np.arange(m), np.diff(an.dptr[:m + 1]))
    # an entry with no partner adds |H_cr| = |H_rc| to row c too
    one = t < 0
    c = an.indices[an.dpos[:t.size]][one]
    return (np.bincount(r, g, m) + np.bincount(c, abs(h[one]), m),
            np.bincount(r, abs(v), m))


# The certificate's rounding slack, relative to a row's sum of |M|
_SLACK = 1e-12


def _solve_classes(A, b: np.ndarray, an: _Analysis) -> tuple:
    """The solution of the system whose transpose is ``A``, right-hand
    side ``b``, the entries SuperLU stores for its factors and the
    number of classes certified.

    One class is one ``splu`` of ``A``.  Otherwise the levels go in
    order.  A level before the trace's has a zero right-hand side, so it
    is zero if its diagonal block M is nonsingular: certified when each
    row's bound (``_margins``) is below zero by ``_SLACK``, as then
    Re v^dag M v < 0 for v != 0.  Any other level's right-hand side is
    ``b`` less its rows' product with the levels solved, and its
    diagonal block, block diagonal over its classes, is one ``splu``; a
    level of 1 x 1 classes is a division, counted as the 2 entries of a
    1 x 1 LU.  A zero pivot raises RuntimeError.
    """
    if an.levels.size == 2:
        lu = _lu(A)
        return lu.solve(b, trans="T"), lu.nnz, 0
    n = b.size
    x = np.zeros(n, dtype=complex)
    vals = A.data[an.dpos]
    bound, size = _margins(vals, an)
    sure = bound + _SLACK * size
    bounds = an.classes[an.levels].tolist()
    fill = certified = 0
    for k, (s, e) in enumerate(zip(bounds[:-1], bounds[1:])):
        m, p, q = e - s, an.dptr[s], an.dptr[e]
        if e <= sure.size and (sure[s:e] < 0).all():
            certified += an.levels[k + 1] - an.levels[k]
            continue
        y = np.zeros(m, dtype=complex)
        # the unknowns from s on are still zero
        csr_matvec(m, n, A.indptr[s:e + 1], A.indices, A.data, x, y)
        rhs = b[s:e] - y
        if an.levels[k + 1] - an.levels[k] == m:
            if q - p < m or not vals[p:q].all():
                raise RuntimeError("a 1 x 1 class is exactly singular")
            x[s:e] = rhs / vals[p:q]
            fill += 2 * m
        else:
            lu = _lu(sp.csc_matrix((vals[p:q], an.dcols[p:q],
                                    an.dptr[s:e + 1] - p), shape=(m, m)))
            x[s:e] = lu.solve(rhs, trans="T")
            fill += lu.nnz
    return x, fill, int(certified)


# Bytes of symbolic analyses kept between solves.  One pass of the
# benchmark's steady sweep (102 solves, 10 patterns) keeps 2.9 MB; a
# spin-oscillator analysis takes 6.0 MB at d=256 (8.1 MB at s = 0) and
# 24.0 MB at d=512, 60% of it the map from the factors onto the block's
# values: the bound holds a sweep next to one d=512 analysis, ~5% of
# the peak memory of a d=512 solve.
_CACHE_BYTES = 32 << 20
_analyses: OrderedDict = OrderedDict()
_analyses_lock = threading.Lock()


def _pattern_key(terms, dims: tuple) -> tuple:
    """Cache key of a generator: its factor dimensions and the index
    arrays of the nonzeros of every kron factor."""
    return dims, tuple(a.tobytes() for _, (ra, ca, _), (rb, cb, _) in terms
                       for a in (ra, ca, rb, cb))


def _analysis(L: Liouvillian, terms) -> tuple[_Analysis, np.ndarray]:
    """The analysis of ``L``'s steady block and the block's values.

    A cached analysis of the same key serves when its values are exact
    (``_block_values``).  Otherwise ``S``, ``L``'s own or assembled and
    not kept, is analysed and replaces the entry under the key; its
    values are used as they are (a cancellation that only ``S``'s own
    summation order makes exact leaves them inexact, and each later hit
    analyses afresh).  Least recently used out first, with at most
    ``_CACHE_BYTES`` retained; a larger analysis is not kept.
    """
    dims = L.space.dims
    key = _pattern_key(terms, dims)
    with _analyses_lock:
        an = _analyses.get(key)
        if an is not None:
            _analyses.move_to_end(key)
    if an is not None:
        vals, exact = _block_values(terms, an)
        if exact:
            return an, vals
    S = vars(L).get("_S")
    an = _analyse(_assemble(terms, L.dim) if S is None else S, terms, dims)
    if an.nbytes <= _CACHE_BYTES:
        with _analyses_lock:
            _analyses.pop(key, None)
            kept = sum(a.nbytes for a in _analyses.values())
            while kept + an.nbytes > _CACHE_BYTES:
                kept -= _analyses.popitem(last=False)[1].nbytes
            _analyses[key] = an
    return an, _block_values(terms, an)[0]


def solve_steady(L: Liouvillian) -> SteadyReport:
    """Solve ``L(rho) = 0`` with unit trace.

    The fixed point lives in the block of ``S`` that holds the diagonal
    (``_trace_block``, ``_dissection_order``), whose first diagonal's
    row gives way to the trace, weighted as the right-hand side to
    ``max(1, max|S|)`` (``_system``).  The system is solved level by
    level over its strongly connected classes (``_solve_classes``): a
    level before the trace's that a Gershgorin bound shows nonsingular
    is zero; the others go through ``splu`` of their transpose in
    symmetric mode with threshold 0.1, so the trace goes last in its
    class and a diagonal leaves its place only where it is small, as
    for a spin at s = 1 (rho_00 = 0).  A steady-state space of dimension
    above one is flagged, with a RuntimeWarning, when the search misses
    a diagonal index or a factored class is exactly singular; one
    solution is still returned, by ``lsqr`` on the whole system.  The
    state is hermitized, and eigenvalues in [-1e-8, 0) are clipped with
    renormalization; anything more negative aborts (``_postprocess``).

    The analysis up to the values is cached per pattern of the nonzeros
    of the drift and the jumps (``_analysis``), so a sweep over a
    coupling or a rate analyses ``S`` once per pattern.  The values, the
    solve and the postprocess run on every call, so a cached and a
    fresh analysis give the same bytes.
    """
    d = L.dim
    an, vals = _analysis(L, _kron_terms(L))
    block, degenerate = an.block, an.degenerate
    A, w = _system(vals, an)
    b = np.zeros(block.size, dtype=complex)
    b[an.trace] = w
    try:
        x, fill, certified = _solve_classes(A, b, an)
        classes = an.classes.size - 1
    except RuntimeError:
        # exactly singular: a second steady state inside the block; least
        # squares on the same system.  No equation is lost: trace
        # preservation makes the replaced row minus the sum of the other
        # diagonal rows
        degenerate = True
        x = spla.lsqr(A.T, b, atol=1e-12, btol=1e-12)[0]
        fill = classes = certified = 0
    vec = np.zeros(d * d, dtype=complex)
    vec[block] = x
    report = _postprocess(L, vec.reshape(d, d, order="F"), an, vals)
    report.lu_fill, report.classes = fill, classes
    report.certified = certified
    if degenerate:
        report.degenerate = True
        warnings.warn("steady-state null space has dimension > 1; "
                      "returning one solution", RuntimeWarning)
    return report
