"""Time evolution with trajectory records, trace norms and truncation checks.

``evolve`` integrates ``drho/dt = L(rho)`` on a sample grid and records
requested scalar observables, the trace-norm distance of the reduced
state of the first subsystem to a supplied target, and the norms of
selected excitation-difference sector pairs.  The trace of the state is
monitored along the way: drift beyond 1e-6 aborts the run, since it
signals a truncation or step-size problem rather than physics.

``trace_norm`` follows the two-branch contract: matrices that are
hermitian up to 1e-8 (relative max-norm) are hermitized and go through
the LAPACK hermitian eigensolver; anything else falls back to singular
values.
"""

from __future__ import annotations

import dataclasses
import math
import time
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from ._integrate import integrate_adaptive
from .hilbert import Operator, partial_trace
from .liouvillian import Liouvillian, sector_indices

__all__ = [
    "TrajectoryRecord",
    "evolve",
    "trace_norm",
    "certify_truncation",
]

# Relative asymmetry below which trace_norm takes the hermitian branch.
HERM_BRANCH_TOL = 1e-8

# Trace drift that aborts an evolution.
TRACE_ABORT = 1e-6

# Levels certify_truncation adds to every oscillator truncation.
ENLARGE = 5


def trace_norm(X) -> float:
    """Trace norm ``Tr sqrt(X^dag X)``.

    Hermitian inputs (up to relative asymmetry 1e-8) go through
    ``eigvalsh`` on the hermitized part; general matrices use singular
    values.
    """
    arr = np.asarray(getattr(X, "entries", X), dtype=complex)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError("trace_norm needs a square matrix")
    return blockwise_trace_norm(arr, (arr,))


def blockwise_trace_norm(arr: np.ndarray, blocks) -> float:
    """Trace norm of the square ``arr`` from its diagonal blocks.

    ``blocks`` are stacks of square blocks, ``(..., k, k)`` each, that
    together hold every nonzero entry of ``arr`` (up to a permutation of
    its basis, ``arr`` is block diagonal); one LAPACK call per stack.
    The branch is picked on the whole of ``arr``, as in ``trace_norm``.
    """
    scale = np.abs(arr).max()
    if scale == 0.0:
        return 0.0
    if np.abs(arr - arr.conj().T).max() <= HERM_BRANCH_TOL * scale:
        return float(sum(
            np.abs(np.linalg.eigvalsh(0.5 * (b + b.conj().swapaxes(-1, -2))))
            .sum() for b in blocks))
    return float(sum(np.linalg.svd(b, compute_uv=False).sum()
                     for b in blocks))


@dataclass
class TrajectoryRecord:
    """Sampled evolution output.

    ``times`` is the raw sample grid (callers rescale by a reference
    rate for plotting); ``observables`` maps names to complex series;
    ``trace_norm_distance_to_A_steady`` holds the distance of the
    reduced state of subsystem A to the supplied target, when requested;
    ``sector_pair_norms`` maps each requested ``l >= 0`` to the trace
    norm of the state's +-l sector pair (the rest zeroed) along it.
    ``rhs_evals`` is the number of ``L.apply`` calls the integrator made
    and ``integrate_s`` the wall seconds spent in the sample loop
    (integration and recording of samples 1 onwards).
    """

    times: np.ndarray
    observables: dict[str, np.ndarray]
    trace_norm_distance_to_A_steady: np.ndarray | None
    sector_pair_norms: dict[int, np.ndarray]
    final_state: np.ndarray
    states: list[np.ndarray] | None = None
    rhs_evals: int = 0
    integrate_s: float = 0.0


def evolve(L: Liouvillian, rho0, t_grid,
           observables: Mapping[str, object] | None = None,
           distance_target: np.ndarray | None = None,
           keep_factors: tuple[int, ...] = (0,),
           sectors: Sequence[int] = (),
           tol: float = 1e-10,
           store_states: bool = False) -> TrajectoryRecord:
    """Integrate the master equation over ``t_grid``.

    The right-hand side is ``L.apply``: linear in rho, independent of
    t and returning a new array, the contract of
    :func:`~lindpair._integrate.integrate_adaptive`, whose step doubling
    calls it 8 times per attempted step (``rhs_evals`` counts them).
    An argument of the wrong shape raises ValueError naming it before
    any step: ``rho0`` and each observable must be ``(L.dim, L.dim)``,
    ``distance_target`` square over the ``keep_factors``.

    Parameters
    ----------
    L : Liouvillian
        Generator.
    rho0 : Operator or ndarray
        Initial state at ``t_grid[0]``; trace must be 1 within 1e-8.
    t_grid : array
        Finite, strictly increasing sample times.
    observables : mapping, optional
        Name to operator; records ``Tr(O rho)`` at each sample.
    distance_target : ndarray, optional
        Reference reduced state; when given, the trace-norm distance of
        ``Tr_partial(rho)`` over ``keep_factors`` is recorded.
    sectors : sequence of int, optional
        ``l >= 0``; records the trace norm of each +-l sector pair of A,
        the leading factor, scattered from ``sector_indices``.
    tol : float
        Local error tolerance of each integrator step.
    store_states : bool
        Keep every sampled density matrix (memory permitting).
    """
    # column-major, the layout L.apply reads and returns without a copy
    rho = np.asarray(getattr(rho0, "entries", rho0),
                     dtype=complex).copy(order="F")
    t_grid = np.asarray(t_grid, dtype=float)
    if not np.isfinite(t_grid).all():
        raise ValueError("t_grid must be finite")
    if t_grid.ndim != 1 or len(t_grid) < 1 or np.any(np.diff(t_grid) <= 0):
        raise ValueError("t_grid must be strictly increasing")
    d, pairs = L.dim, {}
    if rho.shape != (d, d):
        raise ValueError(f"rho0 must be a ({d}, {d}) matrix, "
                         f"got shape {rho.shape}")
    if abs(np.trace(rho).real - 1.0) > 1e-8 or abs(np.trace(rho).imag) > 1e-8:
        raise ValueError("initial state is not normalized")

    obs_items = list((observables or {}).items())
    obs_mats = [np.asarray(getattr(o, "entries", o), dtype=complex)
                for _, o in obs_items]
    for (name, _), mat in zip(obs_items, obs_mats):
        if mat.shape != (d, d):
            raise ValueError(f"observable {name!r} must be a ({d}, {d}) "
                             f"matrix, got shape {mat.shape}")
    if distance_target is not None:
        keep = set(keep_factors)
        if not keep or not keep <= set(range(len(L.space))):
            raise ValueError(f"keep_factors must name factors of the "
                             f"space, got {keep_factors}")
        k = math.prod(L.space.dims[i] for i in keep)
        if np.shape(distance_target) != (k, k):
            raise ValueError(f"distance_target must be a ({k}, {k}) matrix, "
                             f"got shape {np.shape(distance_target)}")
    for l in map(int, sectors):
        if l < 0:
            raise ValueError(f"sector pair needs l >= 0, got l={l}")
        part = sector_indices(L.space.factors[0].dim, d)
        pairs[l] = np.concatenate(
            [part.get(s, np.zeros(0, dtype=int)) for s in {l, -l}])

    n_samp = len(t_grid)
    obs_out = {name: np.empty(n_samp, dtype=complex) for name, _ in obs_items}
    dist_out = np.empty(n_samp) if distance_target is not None else None
    sector_out = {l: np.empty(n_samp) for l in pairs}
    states = [] if store_states else None

    def record(i: int, state: np.ndarray):
        tr = np.trace(state)
        if abs(tr - 1.0) > TRACE_ABORT:
            raise RuntimeError(
                f"trace drifted to {tr:.12g} at sample {i}; aborting")
        for (name, _), mat in zip(obs_items, obs_mats):
            # Tr(O rho) as an elementwise sum, O(d^2) instead of a product
            obs_out[name][i] = np.einsum("ij,ji->", mat, state)
        if dist_out is not None:
            red = partial_trace(Operator(L.space, state), keep_factors)
            dist_out[i] = trace_norm(red.entries - distance_target)
        for l, at in pairs.items():
            pair = np.zeros(d * d, dtype=complex)
            pair[at] = state.reshape(-1, order="F")[at]
            sector_out[l][i] = trace_norm(pair.reshape(d, d, order="F"))
        if states is not None:
            states.append(state.copy())

    record(0, rho)
    rhs_evals = 0

    def rhs(t, y):
        nonlocal rhs_evals
        rhs_evals += 1
        return L.apply(y)

    start = time.perf_counter()
    for i in range(1, n_samp):
        rho = integrate_adaptive(rhs, rho, t_grid[i - 1], t_grid[i], tol=tol)
        record(i, rho)
    integrate_s = time.perf_counter() - start

    return TrajectoryRecord(
        times=t_grid.copy(),
        observables=obs_out,
        trace_norm_distance_to_A_steady=dist_out,
        sector_pair_norms=sector_out,
        final_state=rho,
        states=states,
        rhs_evals=rhs_evals,
        integrate_s=integrate_s,
    )


def certify_truncation(cfg, quantity_extractor: Callable) -> float:
    """Re-run a quantity at enlarged oscillator truncation.

    ``quantity_extractor(cfg)`` must return a float or a mapping of
    floats.  Every oscillator truncation in ``cfg`` is raised by
    ``ENLARGE`` (past the dense limit: ValueError, before any extractor
    call) and the largest relative change is returned, converged below
    1e-6; configurations without an oscillator return 0.0.
    """
    trunc = getattr(cfg, "n_trunc", None)
    if trunc is None:
        return 0.0
    if isinstance(trunc, int):
        bumped = trunc + ENLARGE
    else:
        bumped = tuple(int(n) + ENLARGE for n in trunc)
    wide_cfg = dataclasses.replace(cfg, n_trunc=bumped)
    base, wide = quantity_extractor(cfg), quantity_extractor(wide_cfg)
    if not isinstance(base, Mapping):
        base, wide = {"value": base}, {"value": wide}
    shift = 0.0
    for key, v1 in base.items():
        v2 = wide[key]
        denom = max(abs(complex(v1)), 1e-300)
        shift = max(shift, abs(complex(v2) - complex(v1)) / denom)
    return shift
