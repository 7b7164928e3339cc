"""Composite Hilbert spaces built from spins and truncated oscillator modes.

The composite space is an ordered tensor product of two-level systems and
finite oscillator truncations.  Operators carry a reference to the space
they act on, so that embedding, partial traces and hermiticity checks can
validate dimensions instead of silently broadcasting.

Kronecker ordering is row-major: factor 0 is the slowest index.  A basis
state of the composite space is ``|q_0> x |q_1> x ...`` with flat index
``q_0 * (d_1 * d_2 * ...) + q_1 * (d_2 * ...) + ...``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache
from typing import Iterable

import numpy as np

__all__ = [
    "SubsystemSpec",
    "SpaceSpec",
    "Operator",
    "spin",
    "oscillator",
    "space",
    "mk_destroy",
    "mk_spin_ops",
    "mk_number",
    "identity",
    "kron",
    "nonzeros",
    "kron_products",
    "dagger_nonzeros",
    "embed",
    "partial_trace",
    "TOL_HERM",
    "MAX_DENSE_DIM",
]

# Relative tolerance below which an operator is reported hermitian.
TOL_HERM = 1e-10

# Dense composite matrices are only materialized up to this total dimension.
MAX_DENSE_DIM = 512

SPIN = "spin"
OSCILLATOR = "oscillator"


@dataclass(frozen=True)
class SubsystemSpec:
    """A single tensor factor.

    Parameters
    ----------
    kind : str
        Either ``"spin"`` (dimension fixed to 2) or ``"oscillator"``
        (Fock space truncated to ``dim`` levels ``|0> .. |dim-1>``).
    dim : int
        Local dimension.  Must be 2 for spins and >= 2 for oscillators.
    """

    kind: str
    dim: int

    def __post_init__(self):
        if self.kind not in (SPIN, OSCILLATOR):
            raise ValueError(f"unknown subsystem kind {self.kind!r}")
        if self.kind == SPIN and self.dim != 2:
            raise ValueError("spin subsystems have dimension 2")
        if self.dim < 2:
            raise ValueError("subsystem dimension must be at least 2")


def spin() -> SubsystemSpec:
    """Two-level subsystem."""
    return SubsystemSpec(SPIN, 2)


def oscillator(dim: int) -> SubsystemSpec:
    """Oscillator mode truncated to ``dim`` Fock levels."""
    return SubsystemSpec(OSCILLATOR, int(dim))


@dataclass(frozen=True)
class SpaceSpec:
    """Ordered tensor product of subsystems."""

    factors: tuple[SubsystemSpec, ...]

    @property
    def total_dim(self) -> int:
        n = 1
        for f in self.factors:
            n *= f.dim
        return n

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(f.dim for f in self.factors)

    def __len__(self) -> int:
        return len(self.factors)


def space(*factors: SubsystemSpec) -> SpaceSpec:
    """Build a :class:`SpaceSpec` from subsystem specs in tensor order."""
    if not factors:
        raise ValueError("a space needs at least one factor")
    return SpaceSpec(tuple(factors))


@dataclass(frozen=True)
class Operator:
    """Dense matrix acting on a :class:`SpaceSpec`.

    The entry array is frozen on construction; arithmetic returns new
    operators on the same space.
    """

    space: SpaceSpec
    entries: np.ndarray = field(repr=False)

    def __post_init__(self):
        arr = np.array(self.entries, dtype=complex, order="C")
        d = self.space.total_dim
        if arr.shape != (d, d):
            raise ValueError(f"entries shape {arr.shape} does not match space dim {d}")
        arr.setflags(write=False)
        object.__setattr__(self, "entries", arr)

    @property
    def dim(self) -> int:
        return self.space.total_dim

    def is_hermitian(self) -> bool:
        """True when ``|X - X^dag|_max <= TOL_HERM |X|_max`` (zero is
        hermitian)."""
        scale = np.abs(self.entries).max()
        if scale == 0.0:
            return True
        return (np.abs(self.entries - self.entries.conj().T).max()
                <= TOL_HERM * scale)

    def dagger(self) -> "Operator":
        return Operator(self.space, self.entries.conj().T)

    def trace(self) -> complex:
        return complex(np.trace(self.entries))

    def __add__(self, other: "Operator") -> "Operator":
        self._check_same_space(other)
        return Operator(self.space, self.entries + other.entries)

    def __sub__(self, other: "Operator") -> "Operator":
        self._check_same_space(other)
        return Operator(self.space, self.entries - other.entries)

    def __mul__(self, scalar) -> "Operator":
        return Operator(self.space, self.entries * scalar)

    __rmul__ = __mul__

    def __matmul__(self, other: "Operator") -> "Operator":
        self._check_same_space(other)
        return Operator(self.space, self.entries @ other.entries)

    def _check_same_space(self, other: "Operator"):
        if other.space != self.space:
            raise ValueError("operators act on different spaces")


def _destroy_matrix(dim: int) -> np.ndarray:
    a = np.zeros((dim, dim), dtype=complex)
    n = np.arange(1, dim)
    a[n - 1, n] = np.sqrt(n)
    return a


@cache
def mk_destroy(spec: SubsystemSpec) -> Operator:
    """Annihilation operator of a single oscillator factor.

    Returns ``a`` with ``a|n> = sqrt(n)|n-1>`` on the one-factor space of
    ``spec``.  The truncated commutator ``[a, a^dag]`` equals the identity
    except in the top Fock level, which is the usual price of truncation.
    Cached per spec, like ``mk_spin_ops`` and ``mk_number``: specs are
    frozen and an operator's entries read-only, so every model build
    shares one object per factor.
    """
    if spec.kind != OSCILLATOR:
        raise ValueError("mk_destroy needs an oscillator spec")
    sp = space(spec)
    return Operator(sp, _destroy_matrix(spec.dim))


@cache
def mk_spin_ops(spec: SubsystemSpec) -> tuple[Operator, Operator, Operator]:
    """Lowering, raising and z operators of a spin factor.

    Basis convention: ``|0>`` is the ground state, ``|1>`` the excited
    state, so ``sigma_- = |0><1|`` and ``sigma_z = diag(-1, +1)``.
    """
    if spec.kind != SPIN:
        raise ValueError("mk_spin_ops needs a spin spec")
    sp = space(spec)
    sm = np.array([[0, 1], [0, 0]], dtype=complex)
    sz = np.diag([-1.0, 1.0]).astype(complex)
    return Operator(sp, sm), Operator(sp, sm.conj().T), Operator(sp, sz)


@cache
def mk_number(spec: SubsystemSpec) -> Operator:
    """Number operator ``a^dag a`` of an oscillator factor."""
    a = mk_destroy(spec)
    return Operator(a.space, a.entries.conj().T @ a.entries)


def identity(sp: SpaceSpec) -> Operator:
    return Operator(sp, np.eye(sp.total_dim, dtype=complex))


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of two matrices, entry for entry ``np.kron``'s.

    One broadcast product and a reshape: every entry is the same single
    multiplication ``a[i, j] * b[k, l]``, without ``np.kron``'s general
    n-dimensional set-up, which costs several times the arithmetic at
    the sizes built here.
    """
    (m, n), (p, q) = a.shape, b.shape
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(m * p, n * q)


def nonzeros(M: np.ndarray):
    """Rows, columns (int32) and values of the nonzeros of a dense
    matrix, in row-major order."""
    r, c = np.nonzero(M)
    return r.astype(np.int32), c.astype(np.int32), M[r, c]


def kron_products(pairs):
    """Where some ``kron(a_k, b_k)`` has a nonzero, and each product there,
    formed with no composite matrix.

    ``pairs`` holds ``(a, b)``, the matrices of the two factors.  Returns
    the rows and columns (int32, row-major) of every position at which
    some pair has two nonzero factor entries, and for each pair its
    products ``a[i, j] * b[k, l]`` at them: the dense kron's own products,
    a zero of the dense kron's sign where a factor entry is zero.  At any
    other position every product holds a zero factor, so a scaled sum of
    the products there, taken in the dense sum's order, gives the dense
    sum's nonzeros bit for bit.
    """
    (dA, _), (dB, _) = pairs[0][0].shape, pairs[0][1].shape
    d = dA * dB
    # the position (i dB + k, j dB + l) as one row-major key
    key = np.unique(np.concatenate([
        np.add.outer(i * dB * d + j * dB, k * d + l).ravel()
        for (i, j), (k, l) in ((a.nonzero(), b.nonzero()) for a, b in pairs)]))
    i, k, j, l = np.unravel_index(key, (dA, dB, dA, dB))
    row, col = np.divmod(key, d)
    return (row.astype(np.int32), col.astype(np.int32),
            tuple(a[i, j] * b[k, l] for a, b in pairs))


def dagger_nonzeros(nz):
    """The row-major nonzeros of ``M^dag`` from those of ``M``."""
    r, c, v = nz
    order = np.lexsort((r, c))
    return c[order], r[order], v[order].conj()


def embed(op: Operator, factor_index: int, target: SpaceSpec) -> Operator:
    """Embed a single-factor operator into a composite space.

    ``op`` must act on the one-factor space matching
    ``target.factors[factor_index]``; the result is
    ``1 x ... x op x ... x 1`` in row-major Kronecker order; a
    one-dimensional identity is left out rather than multiplied in.
    Dense embedding is refused above ``MAX_DENSE_DIM``.
    """
    if not (0 <= factor_index < len(target.factors)):
        raise ValueError(f"factor index {factor_index} out of range")
    if len(op.space.factors) != 1 or op.space.factors[0] != target.factors[factor_index]:
        raise ValueError("operator space does not match the target factor")
    if target.total_dim > MAX_DENSE_DIM:
        raise ValueError(
            f"refusing dense embed at dim {target.total_dim} > "
            f"{MAX_DENSE_DIM}")
    left = 1
    for f in target.factors[:factor_index]:
        left *= f.dim
    right = 1
    for f in target.factors[factor_index + 1:]:
        right *= f.dim
    mat = op.entries
    if left > 1:
        mat = kron(np.eye(left), mat)
    if right > 1:
        mat = kron(mat, np.eye(right))
    return Operator(target, mat)


def partial_trace(rho: Operator, keep: Iterable[int]) -> Operator:
    """Trace out all factors not listed in ``keep``.

    ``keep`` is a set of factor indices; the reduced operator lives on
    the kept factors in their original order.
    """
    keep_sorted = sorted(set(keep))
    nf = len(rho.space.factors)
    if not keep_sorted:
        raise ValueError("must keep at least one factor")
    if keep_sorted[0] < 0 or keep_sorted[-1] >= nf:
        raise ValueError("keep indices out of range")
    dims = rho.space.dims
    arr = rho.entries.reshape(dims + dims)
    drop = [i for i in range(nf) if i not in keep_sorted]
    # trace highest dropped axis first so earlier indices stay valid
    for i in sorted(drop, reverse=True):
        arr = np.trace(arr, axis1=i, axis2=arr.ndim // 2 + i)
    sub = space(*(rho.space.factors[i] for i in keep_sorted))
    d = sub.total_dim
    return Operator(sub, arr.reshape(d, d))
