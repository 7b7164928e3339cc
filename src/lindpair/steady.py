"""Steady states: analytic fixed points, the block null-space solver,
and the pure-damping recurrence oracle.

The composite steady state comes from one square sparse direct solve.
The generator commutes with ``[V_A x 1, .]``, so its superoperator is
block diagonal over excitation-difference sectors and the fixed point
lies in the block that holds the diagonal (sector 0 for every coupled
model, smaller when the pair decouples).  The block is a connected
component of the superoperator's pattern, found by a breadth-first
search from the first diagonal index and read straight off its CSR
arrays; one of its rows is replaced by the trace condition and the
system, built as one CSC matrix, is factorised with a sparse LU.  The
block's unknowns are matrix elements (i, j) on the lattice of the
factor levels of i and j, so they are numbered by nested dissection
of that lattice (George, SIAM J. Numer. Anal. 10, 345 (1973)), which
fills the factors far less than SuperLU's default column order;
SuperLU keeps that order in its symmetric mode and leaves the
diagonal only for a pivot below 0.1 of its column (threshold
pivoting), so the order sets the cost and never the answer.
All of that up to the values is a symbolic analysis of the pattern of
the superoperator; it is cached per pattern (keyed on the factor
dimensions and a digest of the CSR index arrays, at most
``_CACHE_BYTES`` retained), so a sweep over couplings or rates pays
only for the values, the LU and the postprocess on each solve.
The recurrence oracle iterates the Fock-basis relations of the damped
oscillator steady state: the diagonal reproduces a geometric profile,
while every off-diagonal forces a coefficient sequence whose partial
sums grow without bound, so the corresponding matrix element must
vanish; the coefficient positivity and monotonicity that drive that
argument are checked in exact rational arithmetic.
"""

from __future__ import annotations

import hashlib
import threading
import warnings
from collections import OrderedDict
from dataclasses import dataclass
from fractions import Fraction
from math import exp, factorial, lgamma, pi, prod, sqrt

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .evolve import trace_norm
from .hilbert import Operator
from .liouvillian import Liouvillian, sparse_superoperator, trace_row_indices

__all__ = [
    "SteadyReport",
    "DampingRecurrence",
    "thermal_state",
    "spin_steady",
    "solve_steady",
    "pure_damping_recurrence",
    "damping_recurrence",
    "off_diagonal_witness",
]

# Exact-arithmetic coefficient verification cap.
COEFF_EXACT_CAP = 25
# Largest box of the steady block left uncut by the dissection order.
_LEAF = 16


@dataclass
class SteadyReport:
    """Solver output with its own quality metrics.

    ``residual`` is the trace norm of ``L(rho_st)``; ``block_dim`` is
    the number of unknowns solved (the size of the block that holds the
    trace); ``clipped_weight`` is the total negative eigenvalue weight
    removed by the positivity repair; ``degenerate`` flags a null space
    of dimension above one (reported, not resolved); ``lu_fill`` is the
    number of entries SuperLU stores for the block's L and U factors
    (0 when the exactly singular block falls back to ``lsqr``).
    """

    rho_st: Operator
    residual: float
    block_dim: int
    clipped_weight: float = 0.0
    degenerate: bool = False
    lu_fill: int = 0


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


def _postprocess(L: Liouvillian, raw: np.ndarray,
                 block_dim: int) -> SteadyReport:
    rho = 0.5 * (raw + raw.conj().T)
    tr = np.trace(rho).real
    if abs(tr) < 1e-12:
        raise RuntimeError("steady-state candidate has vanishing trace")
    rho = rho / tr
    clipped = 0.0
    # eigenvectors are needed only to clip, which is rare
    if np.linalg.eigvalsh(rho).min() < 0:
        w, V = np.linalg.eigh(rho)
        if w.min() < -1e-8:
            raise RuntimeError(
                f"steady state has eigenvalue {w.min():.3e} below -1e-8; "
                "likely truncation failure")
        neg = w[w < 0]
        clipped = float(-neg.sum()) if neg.size else 0.0
        if clipped > 0:
            w = np.clip(w, 0.0, None)
            rho = (V * w) @ V.conj().T
            rho = rho / np.trace(rho).real
    residual = trace_norm(L.apply(rho))
    return SteadyReport(Operator(L.space, rho), residual, block_dim,
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

    The unknowns are matrix elements (i, j), placed on the lattice of
    the factor levels of i and of j; ladder and number operators move
    each level by at most one, so a plane of constant level separates
    the two sides of a box.  Nested dissection on that lattice: each
    box with more than ``_LEAF`` unknowns is cut at the middle of its
    longest side, and its two halves come before the cutting plane.
    The boxes of one level are cut together, with no recursion.  The
    first element, the first diagonal index, goes last: its row
    becomes the trace row, and eliminating it early would join every
    diagonal unknown into one dense clique.  The order only sets the
    fill; any permutation gives the same solution.
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


def _block_triplets(S: sp.csr_matrix, block: np.ndarray):
    """The block of ``S`` as row-major triplets in block coordinates.

    A weakly connected component is closed under the pattern of ``S``:
    the rows of the block hold no column outside it.  So the block is
    read straight off the CSR arrays, its rows gathered by index
    arithmetic and its columns renumbered, with no sliced copy of
    ``S``.  Returns the rows, the columns, the positions ``at`` of the
    values in ``S.data`` and the map from vec index to block position
    (-1 outside the block).
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


@dataclass(frozen=True, eq=False)
class _Analysis:
    """The symbolic part of a steady solve, set by the pattern of ``S``.

    ``block`` holds the vec indices of the unknowns in solve order and
    ``degenerate`` the search's flag.  ``at`` are the positions in
    ``S.data`` of the block's values, row-major in block coordinates.
    The trace-augmented system is the CSC matrix with row ``indices``
    and column pointers ``indptr`` whose values are those of
    ``S.data[at]``, with the trace weight appended, taken at
    ``gather``; a slot equal to ``at.size`` is a trace-row slot.
    """

    block: np.ndarray
    degenerate: bool
    at: np.ndarray
    gather: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray

    @property
    def nbytes(self) -> int:
        return sum(a.nbytes for a in (self.block, self.at, self.gather,
                                      self.indices, self.indptr))


def _analyse(S: sp.csr_matrix, dims: tuple) -> _Analysis:
    """The symbolic analysis of the steady block of ``S``.

    The block is found and ordered (``_trace_block``,
    ``_dissection_order``) and read off the CSR arrays
    (``_block_triplets``).  Its last row, the first diagonal's, gives
    way to the trace row, and the triplets are laid out in CSC order: a
    stable sort by column keeps each column's rows ascending, so the
    arrays are canonical and equal to those of the COO -> CSC
    conversion.  Every array is read-only.
    """
    d = prod(dims)
    block, degenerate = _trace_block(S, d)
    block = _dissection_order(block, dims)
    n = block.size
    row, col, at, local = _block_triplets(S, block)
    t = local[trace_row_indices(d)]
    t = t[t >= 0]
    lo = np.searchsorted(row, n - 1)
    col = np.concatenate([col[:lo], t])
    order = np.argsort(col, kind="stable")
    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(np.bincount(col, minlength=n), out=indptr[1:])
    an = _Analysis(
        block, degenerate, at.astype(S.indptr.dtype),
        np.concatenate([np.arange(lo, dtype=S.indptr.dtype),
                        np.full(t.size, at.size, S.indptr.dtype)])[order],
        np.concatenate([row[:lo], np.full(t.size, n - 1, np.int32)])[order],
        indptr)
    for a in (an.block, an.at, an.gather, an.indices, an.indptr):
        a.flags.writeable = False
    return an


def _system(S: sp.csr_matrix, an: _Analysis):
    """The trace-augmented block system of ``S`` and its trace weight.

    The weight ``w = max(1, max |block entries|)`` scales the trace row
    and the right-hand side to the block's own size.
    """
    ext = np.empty(an.at.size + 1, dtype=complex)
    np.take(S.data, an.at, out=ext[:-1])
    w = max(1.0, np.abs(ext[:-1]).max() if an.at.size else 1.0)
    ext[-1] = w
    n = an.block.size
    return sp.csc_matrix((ext[an.gather], an.indices, an.indptr),
                         shape=(n, n)), w


# Bytes of symbolic analyses kept between solves.  One pass of the
# benchmark's steady sweep (102 solves, 10 patterns, blocks of 4 to
# 4,050 unknowns) keeps 1.85 MB; one spin-oscillator analysis takes
# 3.4 MB at d=256 (32,768 unknowns) and 13.6 MB at d=512 (131,072), so
# the bound holds a whole sweep next to two d=512 analyses, ~2% of the
# peak memory of a d=512 solve.
_CACHE_BYTES = 32 << 20
_analyses: OrderedDict = OrderedDict()
_analyses_lock = threading.Lock()


def _pattern_key(S: sp.csr_matrix, dims: tuple) -> tuple:
    """Cache key of ``S``: the factor dimensions and a 16-byte blake2b
    digest of ``S.indptr`` and ``S.indices``."""
    h = hashlib.blake2b(digest_size=16)
    h.update(S.indptr)
    h.update(S.indices)
    return dims, h.digest()


def _analysis(S: sp.csr_matrix, dims: tuple) -> _Analysis:
    """The analysis of ``S``, from the cache when its pattern was seen.

    Least recently used out first, with at most ``_CACHE_BYTES``
    retained; an analysis larger than that is not kept.
    """
    key = _pattern_key(S, dims)
    with _analyses_lock:
        an = _analyses.get(key)
        if an is not None:
            _analyses.move_to_end(key)
            return an
    an = _analyse(S, dims)
    if an.nbytes <= _CACHE_BYTES:
        with _analyses_lock:
            kept = sum(a.nbytes for a in _analyses.values())
            while kept + an.nbytes > _CACHE_BYTES:
                kept -= _analyses.popitem(last=False)[1].nbytes
            _analyses[key] = an
    return an


def solve_steady(L: Liouvillian) -> SteadyReport:
    """Solve ``L(rho) = 0`` with unit trace.

    The generator commutes with ``[V_A x 1, .]``, so its superoperator
    is block diagonal and the fixed point lives in the block that holds
    the diagonal.  That block is found as a connected component of the
    pattern of ``S``, numbered in nested-dissection order on its level
    lattice (``_dissection_order``) and read straight off the CSR
    arrays of ``S``.  It is solved square and direct: the row of its
    first diagonal index, numbered last, gives way to the trace
    functional, and the system, built as one CSC matrix, goes through
    ``splu`` in that order, in symmetric mode with threshold pivoting
    (a diagonal pivot is kept unless below 0.1 of its column).  A
    steady-state space of dimension above one is flagged, with a
    RuntimeWarning, when the search from the first diagonal index
    misses another, or the factorisation is exactly singular; one
    solution is still returned.  The state is hermitized, and
    eigenvalues in [-1e-8, 0) are clipped to zero with renormalization;
    anything more negative aborts.

    Everything up to the values depends on the pattern of ``S`` alone:
    the block, its order, the degeneracy flag, the CSC index arrays and
    the map from ``S.data`` into them.  That symbolic analysis is kept
    in a module cache keyed on the factor dimensions and a digest of
    ``S.indptr`` and ``S.indices`` (at most ``_CACHE_BYTES``, least
    recently used out first), so a sweep that changes only the values
    of the generator, a coupling or a rate, pays for it once per
    pattern.  The values, the LU and the postprocess run on every call.
    """
    d = L.dim
    S = sparse_superoperator(L)
    an = _analysis(S, L.space.dims)
    block, degenerate = an.block, an.degenerate
    n = block.size
    A, w = _system(S, an)
    b = np.zeros(n, dtype=complex)
    b[-1] = w
    try:
        # threshold pivoting in symmetric mode keeps the dissection
        # order unless a diagonal pivot is below 0.1 of its column
        lu = spla.splu(A, permc_spec="NATURAL", diag_pivot_thresh=0.1,
                       options=dict(SymmetricMode=True))
        x, fill = lu.solve(b), lu.nnz
    except RuntimeError:
        # exactly singular: a second steady state inside the block;
        # least squares on the whole block with the trace row appended
        degenerate = True
        row, col, at, local = _block_triplets(S, block)
        t = local[trace_row_indices(d)]
        t = t[t >= 0]
        stacked = sp.csr_matrix(
            (np.concatenate([S.data[at], np.full(t.size, w, dtype=complex)]),
             (np.concatenate([row, np.full(t.size, n)]),
              np.concatenate([col, t]))), shape=(n + 1, n))
        x = spla.lsqr(stacked, np.append(np.zeros(n, dtype=complex), w),
                      atol=1e-12, btol=1e-12)[0]
        fill = 0
    vec = np.zeros(d * d, dtype=complex)
    vec[block] = x
    report = _postprocess(L, vec.reshape(d, d, order="F"), n)
    report.lu_fill = fill
    if degenerate:
        report.degenerate = True
        warnings.warn("steady-state null space has dimension > 1; "
                      "returning one solution", RuntimeWarning)
    return report


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
