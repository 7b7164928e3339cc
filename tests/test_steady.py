"""Fixed-point solvers and the pure-damping recurrence machinery."""

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.csgraph
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lindpair import hilbert as hb
from lindpair.evolve import trace_norm
from lindpair.hilbert import partial_trace
from lindpair.liouvillian import (Liouvillian, LindbladTerm, _kron_terms,
                                  block_triplets, sector_indices,
                                  sparse_superoperator, trace_row_indices)
from lindpair.models import ModelConfig, build_model, model_steady
from lindpair import steady
from lindpair.recurrence import (damping_recurrence, off_diagonal_witness,
                                 pure_damping_recurrence)
from lindpair.steady import (_analyse, _block_values, _dissection_order,
                             _postprocess, _system, _trace_block,
                             solve_steady, spin_steady, thermal_state)


@settings(max_examples=20, deadline=None)
@given(st.one_of(st.just(0.0), st.floats(0.05, 3.0)), st.integers(10, 40))
def test_thermal_state_profile(nbar, dim):
    rho = thermal_state(nbar, dim)
    p = np.diag(rho).real
    assert np.isclose(p.sum(), 1.0)
    assert np.all(p >= 0)
    if nbar > 0:
        # geometric ratio between successive levels
        assert np.allclose(p[1:] / p[:-1], nbar / (nbar + 1.0))


def test_thermal_state_mean():
    rho = thermal_state(0.5, 60)
    n = float(np.arange(60) @ np.diag(rho).real)
    assert n == pytest.approx(0.5, abs=1e-10)
    assert thermal_state(0.0, 5)[0, 0] == 1.0


def test_spin_steady_values():
    assert np.allclose(spin_steady(0.3), np.diag([0.7, 0.3]))
    with pytest.raises(ValueError):
        spin_steady(1.2)
    with pytest.raises(ValueError):
        thermal_state(-0.5, 4)


def test_two_spin_uncoupled_product():
    cfg = ModelConfig(model="two_spins", omega=1.0, gamma_A=1.0,
                      gamma_B=0.7, s_A=0.8, s_B=0.6, Omega=0.0)
    bm = build_model(cfg)
    rep = model_steady(bm)
    expect = np.kron(spin_steady(0.8), spin_steady(0.6))
    assert trace_norm(rep.rho_st.entries - expect) <= 1e-10
    assert rep.residual <= 1e-10
    assert rep.clipped_weight == 0.0


def _small_model(n_trunc=8):
    return build_model(ModelConfig(model="spin_oscillator", omega_A=1.0,
                                   omega_B=1.0, gamma_A=1.0, gamma_B=1.0,
                                   s=0.3, nbar=0.2, Omega=0.8,
                                   n_trunc=n_trunc))


def _lstsq_reference(L):
    # dense trace-augmented least squares, independent of the block solve
    d = L.dim
    M = sparse_superoperator(L).toarray()
    trow = np.zeros((1, d * d), dtype=complex)
    trow[0, trace_row_indices(d)] = 1.0
    b = np.zeros(d * d + 1, dtype=complex)
    b[-1] = 1.0
    x = scipy.linalg.lstsq(np.vstack([M, trow]), b, lapack_driver="gelsy")[0]
    rho = x.reshape(d, d, order="F")
    return 0.5 * (rho + rho.conj().T)


@pytest.mark.parametrize("n_trunc", [8, 25])
def test_block_solve_matches_dense_lstsq(n_trunc):
    bm = _small_model(n_trunc)                  # dim 16 and 50
    rep = solve_steady(bm.L)
    ref = _lstsq_reference(bm.L)
    assert trace_norm(rep.rho_st.entries - ref) <= 1e-9
    assert rep.residual <= 1e-12
    assert not rep.degenerate


@pytest.mark.parametrize("raw", [
    dict(model="two_spins", omega=1.0, gamma_A=1.0, gamma_B=0.7, s_A=0.8,
         s_B=0.6, Omega=1.3),
    dict(model="spin_oscillator", omega_A=1.0, omega_B=1.0, gamma_A=1.0,
         gamma_B=1.0, s=0.3, nbar=0.2, Omega=0.8, n_trunc=6),
    dict(model="optomechanical", omega=1.0, nu=1.5, kappa=1.0, gamma=0.9,
         nbar=0.2, mbar=0.1, g=0.6, n_trunc=(4, 5)),
], ids=lambda raw: raw["model"])
def test_coupled_block_is_sector_zero(raw):
    bm = build_model(raw)
    d = bm.L.dim
    block, split = _trace_block(sparse_superoperator(bm.L), d)
    sector0 = np.sort(sector_indices(bm.L.space.dims[0], d)[0])
    assert not split
    # breadth-first from the first diagonal index, which comes first
    assert block[0] == 0
    assert np.array_equal(np.sort(block), sector0)
    assert model_steady(bm).block_dim == sector0.size


@pytest.mark.parametrize("n_trunc", [2, 8, 30])
def test_dissection_order_permutes_block(n_trunc):
    bm = _small_model(n_trunc)                  # blocks of 8, 128, 1800
    S = sparse_superoperator(bm.L)
    block, _ = _trace_block(S, bm.L.dim)
    order = _dissection_order(block, bm.L.space.dims)
    assert order.size == block.size
    assert np.array_equal(np.sort(order), np.sort(block))
    # the first diagonal element, whose row becomes the trace row
    assert order[-1] == trace_row_indices(bm.L.dim)[0]


# L.nnz + U.nnz of the same block under splu's default COLAMD column
# order (SuperLU stored 474,688 entries for it)
COLAMD_FILL_N45 = 458_070


def test_dissection_order_cuts_lu_fill():
    bm = build_model(ModelConfig(model="spin_oscillator", omega_A=1.0,
                                 omega_B=1.0, gamma_A=1.0, gamma_B=1.0,
                                 s=0.5, nbar=0.5, Omega=1.0, n_trunc=45))
    rep = model_steady(bm)
    # 0.71 with the trace row pivoted last, 0.80 when it is swapped in
    # at the first columns
    assert 0 < rep.lu_fill < 0.72 * COLAMD_FILL_N45
    # one class: the whole block is one LU, as before the classes
    assert rep.classes == 1 and rep.lu_fill == 324_982
    assert rep.residual <= 1e-9


_SO45 = dict(model="spin_oscillator", omega_A=1.0, omega_B=1.0, gamma_A=1.0,
             gamma_B=1.0, s=0.5, nbar=0.5, Omega=1.0, n_trunc=45)
_OM1215 = dict(model="optomechanical", omega=1.0, nu=1.5, kappa=1.0,
               gamma=0.9, nbar=0.2, mbar=0.1, g=0.6, n_trunc=(12, 15))
_TWO_SPINS = dict(model="two_spins", omega=1.0, gamma_A=1.0, gamma_B=0.7,
                  s_A=0.8, s_B=0.6, Omega=1.3)


def _analysed(L):
    # a fresh analysis of L, outside the cache, and its block's values
    terms = _kron_terms(L)
    an = _analyse(sparse_superoperator(L), terms, L.space.dims)
    return an, _block_values(terms, an)[0]


def _production_lu(vals, an, thresh=0.1):
    return spla.splu(_system(vals, an)[0], permc_spec="NATURAL",
                     diag_pivot_thresh=thresh,
                     options=dict(SymmetricMode=True))


@pytest.mark.parametrize("raw", [
    dict(_SO45, s=0.0, nbar=0.0), dict(_SO45, s=0.0, nbar=0.5),
    dict(_SO45, s=0.5, nbar=0.0), _SO45,
    _OM1215, dict(_OM1215, g=0.0), dict(_OM1215, nbar=0.0, mbar=0.0),
    _TWO_SPINS,
], ids=["so-s0-n0", "so-s0-n.5", "so-s.5-n0", "so-s.5-n.5",
        "om", "om-uncoupled", "om-n0-m0", "two_spins"])
def test_trace_row_is_pivoted_last(raw):
    # SuperLU factors the system's transpose, whose last column is the
    # trace row, so it keeps the dissection order unpivoted
    bm = build_model(raw)
    an, vals = _analysed(bm.L)
    n = an.block.size
    lu = _production_lu(vals, an)
    assert lu.perm_r[-1] == n - 1
    assert lu.nnz == _production_lu(vals, an, thresh=0.0).nnz


@pytest.mark.parametrize("raw", [
    dict(_TWO_SPINS, s_A=1.0),
    dict(_SO45, s=1.0, n_trunc=15),
], ids=["two_spins", "spin_oscillator"])
def test_trace_row_swapped_in_when_ground_population_vanishes(raw):
    # at s = 1, rho_00 = 0: SuperLU must pivot off a diagonal
    bm = build_model(raw)
    an, vals = _analysed(bm.L)
    if raw["model"] == "spin_oscillator":
        assert _production_lu(vals, an).perm_r[-1] != an.block.size - 1
    rep = model_steady(bm)
    assert rep.residual <= 1e-9
    red_A = partial_trace(rep.rho_st, bm.a_factors).entries
    assert trace_norm(red_A - bm.analytic_A_steady) <= 1e-7


@pytest.mark.parametrize("raw", [
    dict(_TWO_SPINS, s_A=2.225073858507203e-309, s_B=1.0, Omega=1.0),
    dict(_TWO_SPINS, s_A=1.0, s_B=2.225073858507203e-309, Omega=0.0),
    dict(_SO45, s=1e-300, nbar=1e-300, n_trunc=8),
], ids=["two_spins-A", "two_spins-B", "spin_oscillator"])
def test_subnormal_diagonal_keeps_trace_weight_normal(raw, recwarn):
    # diagonals near underflow: the trace weight stays a normal number,
    # no warning, and the state keeps its residual and A's marginal
    bm = build_model(raw)
    an, vals = _analysed(bm.L)
    w = _system(vals, an)[1]
    assert w >= 1.0 and np.isfinite(w)
    rep = model_steady(bm)
    assert not rep.degenerate and not recwarn.list
    assert rep.residual <= 1e-9
    red_A = partial_trace(rep.rho_st, bm.a_factors).entries
    assert trace_norm(red_A - bm.analytic_A_steady) <= 1e-7


@pytest.mark.parametrize("raw, parts", [
    (_SO45, [(2, 45, 45)]), (_OM1215, [(12, 15, 15)]),
    (dict(_OM1215, g=0.0), [(180, 1, 1)]), (_TWO_SPINS, [(2, 2, 2)]),
], ids=["spin_oscillator", "optomechanical", "om-uncoupled", "two_spins"])
def test_state_splits_into_diagonal_blocks(raw, parts):
    bm = build_model(raw)
    an = _analysed(bm.L)[0]
    assert [p.shape for p in an.parts] == parts and not an.partial
    # the parts' squares hold the block, each vec index once
    assert np.array_equal(np.sort(np.concatenate([p.ravel()
                                                  for p in an.parts])),
                          np.sort(an.block))


def test_block_open_under_transposition_is_one_part():
    # (0, 0) and (1, 0) without (0, 1): the state is not split
    parts, partial = steady._parts(np.array([0, 1]), 2, np.int32)
    assert len(parts) == 1 and parts[0].shape == (1, 2, 2) and partial
    assert np.array_equal(parts[0][0], [[0, 2], [1, 3]])


@pytest.mark.parametrize("seed", [0, 1])
def test_dense_coupling_without_lattice_matches_lstsq(seed):
    # E_A x X_B with a dense hermitian X_B commutes with A's excitation
    # but couples every level of B, so no plane of the level lattice
    # separates the block: the order is only a heuristic there
    n = 12
    spin, osc = hb.spin(), hb.oscillator(n)
    space = hb.space(spin, osc)
    sm, splus, sz = hb.mk_spin_ops(spin)
    b = hb.mk_destroy(osc)
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    X = hb.Operator(b.space, X + X.conj().T)
    E = hb.embed(splus @ sm, 0, space)
    H = (hb.embed(sz, 0, space) * 0.5 + hb.embed(b.dagger() @ b, 1, space)
         + E @ hb.embed(X, 1, space) * 0.7)
    L = Liouvillian(space, H, [
        LindbladTerm(hb.embed(sm, 0, space), 0.7),
        LindbladTerm(hb.embed(splus, 0, space), 0.3),
        LindbladTerm(hb.embed(b, 1, space), 1.2),
        LindbladTerm(hb.embed(b.dagger(), 1, space), 0.2)])
    rep = solve_steady(L)
    assert rep.block_dim == 2 * n * n and not rep.degenerate
    assert trace_norm(rep.rho_st.entries - _lstsq_reference(L)) <= 1e-9
    assert rep.residual <= 1e-9


def test_degenerate_null_space_flagged():
    # pure dephasing keeps both populations fixed: two-dimensional
    # null space spanned by the diagonal projectors
    sp = hb.space(hb.spin())
    _, _, sz = hb.mk_spin_ops(hb.spin())
    H = hb.Operator(sp, np.zeros((2, 2), dtype=complex))
    L = Liouvillian(sp, H, [LindbladTerm(hb.embed(sz, 0, sp), 0.5)])
    with pytest.warns(RuntimeWarning):
        rep = solve_steady(L)
    assert rep.degenerate
    assert rep.residual <= 1e-10
    # pure precession: each population is a block of its own
    with pytest.warns(RuntimeWarning):
        rep2 = solve_steady(Liouvillian(sp, hb.embed(sz, 0, sp), []))
    assert rep2.degenerate
    assert rep2.residual <= 1e-10


def test_singular_block_flagged():
    # H = J = sigma_x: one block holds the diagonal, but the identity and
    # sigma_x are both fixed, so the factorisation is exactly singular
    sp = hb.space(hb.spin())
    sm, splus, _ = hb.mk_spin_ops(hb.spin())
    sx = hb.embed(sm + splus, 0, sp)
    L = Liouvillian(sp, sx, [LindbladTerm(sx, 1.0)])
    block, split = _trace_block(sparse_superoperator(L), 2)
    assert block.size == 4 and not split
    with pytest.warns(RuntimeWarning):
        rep = solve_steady(L)
    assert rep.degenerate
    assert rep.residual <= 1e-10


def test_singular_fallback_matches_stacked_lsqr():
    # the fallback solves the square system with the trace row in place
    # of a diagonal row; least squares on the whole block with the trace
    # row appended, the same equations, gives the same state
    sp1 = hb.space(hb.spin())
    sm, splus, _ = hb.mk_spin_ops(hb.spin())
    sx = hb.embed(sm + splus, 0, sp1)
    L = Liouvillian(sp1, sx, [LindbladTerm(sx, 1.0)])
    S = sparse_superoperator(L)
    block, _ = _trace_block(S, 2)
    n = block.size
    row, col, at, local = block_triplets(S, block)
    t = local[trace_row_indices(2)]
    w = max(1.0, np.abs(S.data[at]).max())
    stacked = sp.csr_matrix(
        (np.concatenate([S.data[at], np.full(t.size, w, dtype=complex)]),
         (np.concatenate([row, np.full(t.size, n)]),
          np.concatenate([col, t]))), shape=(n + 1, n))
    x = spla.lsqr(stacked, np.append(np.zeros(n, dtype=complex), w),
                  atol=1e-12, btol=1e-12)[0]
    vec = np.zeros(4, dtype=complex)
    vec[block] = x
    ref = vec.reshape(2, 2, order="F")
    ref = 0.5 * (ref + ref.conj().T)
    ref /= np.trace(ref).real
    with pytest.warns(RuntimeWarning):
        rep = solve_steady(L)
    assert rep.lu_fill == 0
    assert np.abs(rep.rho_st.entries - ref).max() <= 1e-10


def test_block_read_off_csr_matches_slicing():
    bm = _small_model(6)
    S = sparse_superoperator(bm.L)
    block, _ = _trace_block(S, bm.L.dim)
    row, col, at, local = block_triplets(S, block)
    n = block.size
    assert np.array_equal(local[block], np.arange(n))
    assert np.count_nonzero(local >= 0) == n
    sliced = S[block][:, block].tocsr()
    read = sp.csr_matrix((S.data[at], (row, col)), shape=(n, n))
    assert (read != sliced).nnz == 0 and read.nnz == sliced.nnz


@pytest.mark.parametrize("n_trunc", [2, 6])
def test_analysis_system_is_canonical_csc(n_trunc):
    # the cached index arrays, with the values formed from the kron
    # terms, are canonical CSC, so splu never sorts the read-only
    # arrays; transposed, they give bitwise the canonical COO -> CSR
    # conversion of the block of S with its last row replaced by the
    # trace row, at the lsqr fallback's weight
    bm = _small_model(n_trunc)
    d, S = bm.L.dim, sparse_superoperator(bm.L)
    an, vals = _analysed(bm.L)
    A, w = _system(vals, an)
    assert A.has_canonical_format
    n = an.block.size
    row, col, at, local = block_triplets(S, an.block)
    val = S.data[at]
    assert w == max(1.0, np.abs(val).max())
    t = local[trace_row_indices(d)]
    t = t[t >= 0]
    keep = row < n - 1
    B = sp.csr_matrix(
        (np.concatenate([val[keep], np.full(t.size, w, dtype=complex)]),
         (np.concatenate([row[keep], np.full(t.size, n - 1)]),
          np.concatenate([col[keep], t]))), shape=(n, n))
    AT = A.T
    for x, y in ((AT.indptr, B.indptr), (AT.indices, B.indices),
                 (AT.data, B.data)):
        assert np.array_equal(x, y)


# Zero temperature on A: its damping only lowers A's excitation, so the
# system splits into strongly connected classes solved one after another.
# L.nnz + U.nnz of each system factored as one block, in the dissection
# order with the trace row pivoted last.
_ZERO_T = {
    "so-s0-n0": (dict(_SO45, n_trunc=15, s=0.0, nbar=0.0), 15_559),
    "so-s0-n.5": (dict(_SO45, n_trunc=15, s=0.0, nbar=0.5), 16_401),
    "om-n0-m0": (dict(_OM1215, n_trunc=(10, 12), nbar=0.0, mbar=0.0), 93_582),
    "om-n0-m.1": (dict(_OM1215, n_trunc=(10, 12), nbar=0.0, mbar=0.1),
                  98_713),
    "om-small-n0-m0": (dict(_OM1215, n_trunc=(4, 5), nbar=0.0, mbar=0.0),
                       2_142),
}


def _class_of(an):
    # each position's class, counted in solve order
    return np.repeat(np.arange(an.classes.size - 1), np.diff(an.classes))


@pytest.mark.parametrize("raw", [v[0] for v in _ZERO_T.values()],
                         ids=list(_ZERO_T))
def test_zero_temperature_system_is_block_lower_triangular(raw):
    bm = build_model(raw)
    an, vals = _analysed(bm.L)
    A = _system(vals, an)[0]
    n, K = an.block.size, an.classes.size - 1
    assert K > 1 and an.classes[0] == 0 and an.classes[-1] == n
    cls = _class_of(an)
    # A is the transpose as CSC: its indptr and indices are the rows
    row = np.repeat(np.arange(n), np.diff(A.indptr))
    assert np.all(cls[A.indices] <= cls[row])
    # no class feeds another of its level
    level = np.repeat(np.arange(an.levels.size - 1), np.diff(an.levels))
    off = cls[A.indices] < cls[row]
    assert np.all(level[cls[A.indices[off]]] < level[cls[row[off]]])
    # each class is strongly connected
    pattern = sp.csr_matrix((np.ones(A.nnz), A.indices, A.indptr),
                            shape=A.shape)
    for a, b in zip(an.classes[:-1], an.classes[1:]):
        assert scipy.sparse.csgraph.connected_components(
            pattern[a:b, a:b], directed=True, connection="strong")[0] == 1
    # the trace unknown, the first diagonal, is last in its class
    assert an.block[an.trace] == trace_row_indices(bm.L.dim)[0]
    assert an.trace + 1 in an.classes


def _whole_system_reference(L):
    # a sparse direct solve of the whole S with the trace row in place of
    # the first diagonal's, independent of the block and its classes;
    # for d^2 too large for the dense least squares
    d = L.dim
    M = sparse_superoperator(L).tolil()
    M[0, :] = 0
    M[0, trace_row_indices(d)] = 1.0
    b = np.zeros(d * d, dtype=complex)
    b[0] = 1.0
    rho = spla.spsolve(M.tocsc(), b).reshape(d, d, order="F")
    return 0.5 * (rho + rho.conj().T)


@pytest.mark.parametrize("raw, one_block_fill", list(_ZERO_T.values()),
                         ids=list(_ZERO_T))
def test_zero_temperature_classes_match_reference(raw, one_block_fill):
    bm = build_model(raw)
    rep = model_steady(bm)
    ref = (_lstsq_reference(bm.L) if bm.L.dim <= 30
           else _whole_system_reference(bm.L))
    assert trace_norm(rep.rho_st.entries - ref) <= 1e-12
    assert rep.classes > 1 and not rep.degenerate
    assert 0 < rep.lu_fill < one_block_fill
    assert rep.residual <= 1e-12


def test_excited_spin_is_one_class():
    # at s = 1, A's pump and damping join its levels both ways
    rep = model_steady(build_model(dict(_SO45, s=1.0, n_trunc=15)))
    assert rep.classes == 1 and rep.residual <= 1e-9


def test_classes_fed_by_the_trace_class():
    # level 2 decays into |0> + |1>, 1 decays to 0 and 0 is pumped to 2:
    # the populations and the trace form one class, which feeds the
    # coherences (0, 1) and (1, 0), each a 1 x 1 class that feeds nothing
    # back; their right-hand side is the trace class's solution
    spc = hb.space(hb.oscillator(3))
    J, J2, J3 = (np.zeros((3, 3), complex) for _ in range(3))
    J[0, 2] = J[1, 2] = J2[0, 1] = J3[2, 0] = 1.0
    L = Liouvillian(spc, hb.Operator(spc, np.diag([0.0, 0.3, 1.0])
                                     .astype(complex)),
                    [LindbladTerm(hb.Operator(spc, M), r)
                     for M, r in ((J, 1.0), (J2, 0.7), (J3, 0.4))])
    an = _analysed(L)[0]
    assert list(an.classes) == [0, 3, 4, 5] and an.trace == 2
    rep = solve_steady(L)
    assert rep.classes == 3 and not rep.degenerate
    assert abs(rep.rho_st.entries[0, 1]) > 0.1
    assert trace_norm(rep.rho_st.entries - _lstsq_reference(L)) <= 1e-12
    assert rep.residual <= 1e-12


def test_singular_one_by_one_class_falls_back():
    # level 2 decays to 0 and to 1, both dark: the population (1, 1) is a
    # class of its own with no diagonal, so the level solve meets an
    # exactly singular 1 x 1 class; least squares on the whole system
    # returns one of the two steady states
    spc = hb.space(hb.oscillator(3))
    J1, J2 = np.zeros((3, 3), complex), np.zeros((3, 3), complex)
    J1[0, 2] = J2[1, 2] = 1.0
    L = Liouvillian(spc, hb.Operator(spc, np.diag([0.0, 0.3, 1.0])
                                     .astype(complex)),
                    [LindbladTerm(hb.Operator(spc, J1), 1.0),
                     LindbladTerm(hb.Operator(spc, J2), 0.6)])
    an = _analysed(L)[0]
    assert an.classes.size - 1 == 3 and not an.degenerate
    with pytest.warns(RuntimeWarning):
        rep = solve_steady(L)
    assert rep.degenerate and rep.lu_fill == 0 and rep.classes == 0
    assert rep.residual <= 1e-10


def _report_bytes(rep):
    return (rep.rho_st.entries.tobytes(), np.float64(rep.residual).tobytes(),
            rep.block_dim, rep.lu_fill, rep.degenerate,
            np.float64(rep.clipped_weight).tobytes())


# The levels before the trace's have a zero right-hand side; a Gershgorin
# bound on the Hermitian part of each one's diagonal block proves it
# nonsingular, and so its solution zero, with no factorization.

def _trace_level(an):
    # the level bounds in solve order and the start of the trace's level
    b = an.classes[an.levels]
    return b, b[b <= an.trace][-1]


def _margins_of(an, vals):
    return steady._margins(_system(vals, an)[0].data[an.dpos], an)


def _dense_levels(an, vals):
    # the dense diagonal blocks M of the levels before the trace's, read
    # off the system itself
    b, m = _trace_level(an)
    M = _system(vals, an)[0].T.toarray()[:m, :m]
    level = np.repeat(np.arange(b.size - 1), np.diff(b))[:m]
    M[level[:, None] != level] = 0
    return M


def _nothing_certified(monkeypatch):
    # every level factored, as before the certificate
    margins = steady._margins
    monkeypatch.setattr(steady, "_margins",
                        lambda vals, an: (margins(vals, an)[1] + 1.0,) * 2)


@pytest.mark.parametrize("raw", [v[0] for v in _ZERO_T.values()],
                         ids=list(_ZERO_T))
def test_certified_levels_solve_as_factored(raw, monkeypatch):
    bm = build_model(raw)
    an, vals = _analysed(bm.L)
    b, m = _trace_level(an)
    rep = model_steady(bm)
    # the trace's level is the last, and every level before it certified
    assert b[-2] == m and rep.certified == np.searchsorted(an.classes, m) > 0
    n = an.block.size
    A = _system(vals, an)[0]
    alone = (2 * (n - m) if an.levels[-1] - an.levels[-2] == n - m
             else steady._lu(A[m:, m:].tocsc()).nnz)
    assert rep.lu_fill == alone
    _nothing_certified(monkeypatch)
    factored = model_steady(bm)
    assert factored.certified == 0 and factored.lu_fill > rep.lu_fill
    assert factored.classes == rep.classes
    keep = [0, 1, 2, 4, 5]      # all but lu_fill
    assert ([_report_bytes(rep)[i] for i in keep]
            == [_report_bytes(factored)[i] for i in keep])


@pytest.mark.parametrize("raw", [
    *[v[0] for v in _ZERO_T.values()],
    dict(_SO45, n_trunc=6, s=0.0, nbar=0.0, gamma_A=0.4),
    dict(_TWO_SPINS, s_A=0.0),
    dict(_OM1215, n_trunc=(4, 5), nbar=0.0, mbar=0.0, kappa=0.3),
])
def test_margins_match_dense_hermitian_part(raw):
    an, vals = _analysed(build_model(raw).L)
    bound, size = _margins_of(an, vals)
    M = _dense_levels(an, vals)
    H = 0.5 * (M + M.conj().T)
    off = abs(H).sum(axis=1) - abs(H.diagonal())
    assert np.abs(bound - (H.diagonal().real + off)).max() <= 1e-12
    assert np.allclose(size, abs(M).sum(axis=1), rtol=1e-14, atol=0)


def test_margin_reads_only_the_damping():
    # every Hamiltonian term, the coupling too, cancels in M + M^dag
    got = []
    for Omega in (0.5, 50.0):
        bm = build_model(dict(_SO45, n_trunc=15, s=0.0, nbar=0.0,
                              Omega=Omega))
        got.append(_margins_of(*_analysed(bm.L))[0])
        rep = model_steady(bm)
        assert rep.certified == 1 and rep.residual <= 1e-9
    assert np.abs(got[0] - got[1]).max() <= 1e-12
    # the excited level's bound: -(gamma_A - gamma_B / 2)
    assert got[0].max() == pytest.approx(-0.5, abs=1e-12)


def test_weak_a_damping_is_factored():
    # gamma_A = 0.4 gamma_B: the bound, -(gamma_A - gamma_B / 2), is
    # positive, so the excited level is factored, as before the
    # certificate (10,426 entries)
    bm = build_model(dict(_SO45, n_trunc=15, s=0.0, nbar=0.0, gamma_A=0.4))
    assert _margins_of(*_analysed(bm.L))[0].max() == pytest.approx(
        0.1, abs=1e-12)
    rep = model_steady(bm)
    assert rep.classes == 2 and rep.certified == 0
    assert rep.lu_fill == 10_426 and rep.residual <= 1e-9


def test_singular_level_before_the_trace_falls_back():
    # level 4 decays to 1, which is dark, and to the pair {2, 3}, which
    # H couples and which decays to 0: (1, 1) and the pair's four
    # unknowns form one level before the trace's, singular through the
    # empty row of (1, 1)
    spc = hb.space(hb.oscillator(5))
    H = np.zeros((5, 5), complex)
    H[2, 3] = H[3, 2] = 1.0
    jumps = []
    for i, j in ((1, 4), (2, 4), (0, 2), (0, 3)):
        J = np.zeros((5, 5), complex)
        J[i, j] = 1.0
        jumps.append(LindbladTerm(hb.Operator(spc, J), 1.0))
    L = Liouvillian(spc, hb.Operator(spc, H), jumps)
    an, vals = _analysed(L)
    b, m = _trace_level(an)
    assert list(b) == [0, 1, 6, 7] and m == 6 and not an.degenerate
    bound, size = _margins_of(an, vals)
    assert np.array_equal(bound[1:], [-1.0] * 4 + [0.0]) and size[-1] == 0
    with pytest.warns(RuntimeWarning):
        rep = solve_steady(L)
    assert rep.degenerate
    assert rep.lu_fill == rep.classes == rep.certified == 0
    assert rep.residual <= 1e-10


_CACHE_GRID = [
    dict(model="two_spins", omega=1.0, gamma_A=1.0, gamma_B=0.7, s_A=0.8,
         s_B=0.6, Omega=1.3),
    dict(model="two_spins", omega=1.0, gamma_A=1.0, gamma_B=0.7, s_A=0.0,
         s_B=0.6, Omega=0.0),
    dict(model="spin_oscillator", omega_A=1.0, omega_B=1.0, gamma_A=1.0,
         gamma_B=1.0, s=0.3, nbar=0.2, Omega=0.8, n_trunc=6),
    dict(model="spin_oscillator", omega_A=1.0, omega_B=1.0, gamma_A=1.0,
         gamma_B=1.0, s=0.3, nbar=0.2, Omega=0.0, n_trunc=6),
    dict(model="spin_oscillator", omega_A=1.0, omega_B=1.0, gamma_A=1.0,
         gamma_B=1.0, s=0.0, nbar=0.0, Omega=0.8, n_trunc=6),
    dict(model="spin_oscillator", omega_A=1.0, omega_B=1.0, gamma_A=1.0,
         gamma_B=1.0, s=0.3, nbar=0.2, Omega=0.8, n_trunc=11),
    dict(model="optomechanical", omega=1.0, nu=1.5, kappa=1.0, gamma=0.9,
         nbar=0.2, mbar=0.1, g=0.6, n_trunc=(4, 5)),
    dict(model="optomechanical", omega=1.0, nu=1.5, kappa=1.0, gamma=0.9,
         nbar=0.2, mbar=0.1, g=0.0, n_trunc=(4, 5)),
    dict(model="optomechanical", omega=1.0, nu=1.5, kappa=1.0, gamma=0.9,
         nbar=0.0, mbar=0.0, g=0.6, n_trunc=(4, 5)),
    dict(model="optomechanical", omega=1.0, nu=1.5, kappa=1.0, gamma=0.9,
         nbar=0.2, mbar=0.1, g=0.6, n_trunc=(5, 7)),
]


def _counting_analyse(monkeypatch):
    calls = []

    def counted(S, terms, dims):
        calls.append(dims)
        return _analyse(S, terms, dims)
    monkeypatch.setattr(steady, "_analyse", counted)
    return calls


def test_cold_and_warm_cache_agree(monkeypatch):
    cold = []
    for raw in _CACHE_GRID:
        steady._analyses.clear()
        cold.append(_report_bytes(model_steady(build_model(raw))))
    steady._analyses.clear()
    for raw in _CACHE_GRID:
        model_steady(build_model(raw))
    calls = _counting_analyse(monkeypatch)
    warm = [_report_bytes(model_steady(build_model(raw)))
            for raw in _CACHE_GRID]
    assert not calls                            # every warm solve hit
    assert warm == cold
    # the same d with and without coupling: two patterns, two blocks
    steady._analyses.clear()
    reps = [model_steady(build_model(raw)) for raw in _CACHE_GRID[2:4]]
    assert len(steady._analyses) == 2 and len(calls) == 2
    assert reps[0].block_dim != reps[1].block_dim


_SWEEPS = {
    "two_spins": [dict(_TWO_SPINS, Omega=c) for c in (0.0, 0.4, 1.3, 2.9)],
    "spin_oscillator": [dict(_SO45, n_trunc=8, Omega=c)
                        for c in (0.0, 0.3, 1.0, 2.2)],
    # the undamped ground state's diagonal cancels: K_gg + conj(K_gg) = 0
    "spin_oscillator-s0-n0": [dict(_SO45, n_trunc=8, s=0.0, nbar=0.0,
                                   Omega=c) for c in (0.3, 1.0, 2.2)],
    "optomechanical": [dict(_OM1215, n_trunc=(4, 5), g=c)
                       for c in (0.0, 0.1, 0.35, 0.6)],
    # the uncoupled pair alone, its rates swept instead
    "optomechanical-uncoupled": [dict(_OM1215, n_trunc=(4, 5), g=0.0,
                                      kappa=k) for k in (0.5, 1.0, 1.7)],
}


@pytest.mark.parametrize("sweep", list(_SWEEPS.values()), ids=list(_SWEEPS))
def test_warm_hit_matches_cold_and_builds_no_superoperator(sweep,
                                                           monkeypatch):
    cold = []
    for raw in sweep:
        steady._analyses.clear()
        cold.append(_report_bytes(model_steady(build_model(raw))))
    steady._analyses.clear()
    calls = _counting_analyse(monkeypatch)
    for raw, ref in zip(sweep, cold):
        bm = build_model(raw)
        assert _report_bytes(model_steady(bm)) == ref
        # neither a hit nor a miss leaves S on the generator
        assert "_S" not in vars(bm.L)
    # one analysis for the uncoupled pattern and one for the coupled
    couplings = {raw.get("Omega", raw.get("g")) == 0 for raw in sweep}
    assert len(calls) == len(couplings)
    if "s" in sweep[0] and sweep[0]["s"] == sweep[0]["nbar"] == 0:
        an = next(reversed(steady._analyses.values()))
        assert an.groups == an.rcols.size + 1


def _lambda_system(h1):
    # levels 0 and 1 driven to level 2, which decays to both: 0 and 1
    # are undamped, so the diagonals of S at the coherences (0, 1) and
    # (1, 0) are -+i (h0 - h1), exactly zero at h1 = h0 (the dark state
    # |D> ~ 0.4 |0> - 0.7 |1> is then the steady state); the factors'
    # patterns do not change
    spc = hb.space(hb.oscillator(3))
    H = np.diag([0.5, h1, 2.0]).astype(complex)
    H[0, 2] = H[2, 0] = 0.7
    H[1, 2] = H[2, 1] = 0.4
    J0, J1 = np.zeros((3, 3), complex), np.zeros((3, 3), complex)
    J0[0, 2] = J1[1, 2] = 1.0
    return Liouvillian(spc, hb.Operator(spc, H),
                       [LindbladTerm(hb.Operator(spc, J0), 1.0),
                        LindbladTerm(hb.Operator(spc, J1), 0.6)])


def _twin_jumps(rate_b):
    # jumps |0><1| + |1><1| and |0><1| - |1><1|: at equal rates their
    # feeds from the population (1, 1) into the coherences (0, 1) and
    # (1, 0) cancel, and the block holds the populations alone; at other
    # rates the coherences join it
    spc = hb.space(hb.oscillator(2))
    Ja, Jb = np.zeros((2, 2), complex), np.zeros((2, 2), complex)
    Ja[0, 1] = Ja[1, 1] = Jb[0, 1] = 1.0
    Jb[1, 1] = -1.0
    return Liouvillian(spc, hb.Operator(spc, np.zeros((2, 2), complex)),
                       [LindbladTerm(hb.Operator(spc, Ja), 1.0),
                        LindbladTerm(hb.Operator(spc, Jb), rate_b)])


@pytest.mark.parametrize("build, cancelled, plain", [
    (_lambda_system, 0.5, 0.8), (_twin_jumps, 1.0, 0.5),
], ids=["lambda", "twin_jumps"])
def test_cancellation_under_one_factor_pattern_is_reanalysed(
        build, cancelled, plain, monkeypatch):
    cancelling, generic = build(cancelled), build(plain)
    dims = cancelling.space.dims
    assert (steady._pattern_key(_kron_terms(cancelling), dims)
            == steady._pattern_key(_kron_terms(generic), dims))
    assert (sparse_superoperator(cancelling).nnz + 2
            == sparse_superoperator(generic).nnz)
    cold = {}
    for L in (cancelling, generic):
        steady._analyses.clear()
        cold[L] = _report_bytes(solve_steady(L))
    calls = _counting_analyse(monkeypatch)
    for first, second in ((cancelling, generic), (generic, cancelling)):
        steady._analyses.clear()
        del calls[:]
        for L in (first, second):
            assert _report_bytes(solve_steady(L)) == cold[L]
        # the second solve finds the first's analysis and rejects it:
        # a value that sums to zero, or a dropped group that does not
        assert len(calls) == 2 and len(steady._analyses) == 1


def test_degeneracy_survives_cache_hit(monkeypatch):
    sp1 = hb.space(hb.spin())
    sm, splus, sz = hb.mk_spin_ops(hb.spin())
    dephasing = Liouvillian(sp1, hb.Operator(sp1, np.zeros((2, 2), complex)),
                            [LindbladTerm(hb.embed(sz, 0, sp1), 0.5)])
    sx = hb.embed(sm + splus, 0, sp1)
    singular = Liouvillian(sp1, sx, [LindbladTerm(sx, 1.0)])
    steady._analyses.clear()
    calls = _counting_analyse(monkeypatch)
    for L, lu_fill in ((dephasing, None), (singular, 0)):
        for _ in range(2):
            with pytest.warns(RuntimeWarning):
                rep = solve_steady(L)
            assert rep.degenerate and rep.residual <= 1e-10
            if lu_fill is not None:
                assert rep.lu_fill == lu_fill       # the lsqr fallback
    assert len(calls) == 2                      # one miss per generator


def test_analysis_cache_is_bounded(monkeypatch):
    models = [_small_model(n) for n in range(2, 9)]
    sizes = [_analysed(bm.L)[0].nbytes for bm in models]
    bound = sum(sizes[-3:]) - 1                 # the last three do not fit
    monkeypatch.setattr(steady, "_CACHE_BYTES", bound)
    steady._analyses.clear()
    for bm in models:
        solve_steady(bm.L)
        assert sum(an.nbytes for an in steady._analyses.values()) <= bound
        # the most recent entry survives
        key = steady._pattern_key(_kron_terms(bm.L), bm.L.space.dims)
        assert next(reversed(steady._analyses)) == key
    assert len(steady._analyses) < len(models)
    for an in steady._analyses.values():
        for a in an.arrays:
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[0] = 0
    # an analysis above the bound is not kept and evicts nothing
    big = _small_model(20)
    assert _analysed(big.L)[0].nbytes > bound
    before = list(steady._analyses)
    solve_steady(big.L)
    assert list(steady._analyses) == before


def _with_spectrum(w):
    # a state with eigenvalues w, in random bases of the two 2x2
    # diagonal blocks of the d=4 two-spin block, and its analysis
    bm = build_model(ModelConfig(model="two_spins", omega=1.0, gamma_A=1.0,
                                 gamma_B=0.7, s_A=0.8, s_B=0.6, Omega=0.5))
    an, vals = _analysed(bm.L)
    assert [p.shape for p in an.parts] == [(2, 2, 2)]
    rng = np.random.default_rng(5)
    raw = np.zeros(16, dtype=complex)
    for p, part_w in zip(an.parts[0], np.reshape(w, (2, 2))):
        U = scipy.linalg.qr(rng.normal(size=(2, 2))
                            + 1j * rng.normal(size=(2, 2)))[0]
        raw[p] = (U * part_w) @ U.conj().T
    raw = raw.reshape(4, 4, order="F")
    assert np.allclose(np.linalg.eigvalsh(raw), np.sort(w), atol=1e-15)
    return bm.L, raw, an, vals


def test_postprocess_clips_small_negative_eigenvalue():
    L, raw, an, vals = _with_spectrum([0.3, 0.4 + 1e-12, 0.3, -1e-12])
    rep = _postprocess(L, raw, an, vals)
    assert rep.clipped_weight == pytest.approx(1e-12, rel=1e-3)
    rho = rep.rho_st.entries
    assert np.abs(rho - rho.conj().T).max() <= 1e-15
    assert np.linalg.eigvalsh(rho).min() >= -1e-15
    assert np.trace(rho) == pytest.approx(1.0, abs=1e-14)


def test_postprocess_aborts_on_large_negative_eigenvalue():
    L, raw, an, vals = _with_spectrum([0.3, 0.4 + 1e-6, 0.3, -1e-6])
    with pytest.raises(RuntimeError, match="likely truncation failure"):
        _postprocess(L, raw, an, vals)


def _dense_postprocess(L, raw):
    # the whole-matrix postprocess: hermitize, normalize, clip the
    # spectrum of the d x d state and take the residual's trace norm
    rho = 0.5 * (raw + raw.conj().T)
    rho = rho / np.trace(rho).real
    w, V = np.linalg.eigh(rho)
    low = w.min()
    clipped = 0.0
    if low < 0:
        clipped = float(-w[w < 0].sum())
        rho = (V * np.clip(w, 0.0, None)) @ V.conj().T
        rho = rho / np.trace(rho).real
    return low, clipped, trace_norm(L.apply(rho)), rho


def _part_min_eigenvalue(raw, an):
    flat = (0.5 * (raw + raw.conj().T)).reshape(-1, order="F")
    return min(np.linalg.eigvalsh(flat[p]).min() for p in an.parts)


# The blockwise and dense states agree to rounding, so their residuals
# may differ by the rounding of one L.apply: a few eps times S's largest
# absolute row sum (at most 0.68 of one such unit over 2,000 states of
# 1,000 random configs).
RESIDUAL_ULPS = 8
EPS = np.finfo(float).eps


def _assert_matches_dense(L, raw, an, vals):
    low, clipped, residual, rho = _dense_postprocess(L, raw)
    rep = _postprocess(L, raw, an, vals)
    tr = np.trace(raw).real
    assert abs(_part_min_eigenvalue(raw, an) / tr - low) <= 1e-15
    assert abs(rep.clipped_weight - clipped) <= 1e-15
    row_sum = abs(sparse_superoperator(L)).sum(axis=1).max()
    assert abs(rep.residual - residual) <= RESIDUAL_ULPS * EPS * row_sum
    assert np.abs(rep.rho_st.entries - rho).max() <= 1e-13
    return rep


def _shifted(rho, an):
    # rho - (lambda_min + 1e-10) v v^dag, v an eigenvector of lambda_min
    # inside one part: one eigenvalue of -1e-10 and the others kept, so
    # the trace stays positive even when lambda_min is degenerate
    flat = rho.reshape(-1, order="F").copy()
    lowest = []
    for p in an.parts:
        w, V = np.linalg.eigh(flat[p])
        k = np.argmin(w[:, 0])
        lowest.append((w[k, 0], p[k], V[k][:, 0]))
    low, p, v = min(lowest, key=lambda c: c[0])
    flat[p] -= (low + 1e-10) * np.outer(v, v.conj())
    return flat.reshape(rho.shape, order="F")


_rate = st.floats(0.2, 2.0)
_unit = st.floats(0.0, 1.0)
_model_cfgs = st.one_of(
    st.builds(dict, model=st.just("two_spins"), omega=_rate,
              gamma_A=_rate, gamma_B=_rate, s_A=_unit, s_B=_unit,
              Omega=st.floats(0.0, 5.0)),
    st.builds(dict, model=st.just("spin_oscillator"), omega_A=_rate,
              omega_B=_rate, gamma_A=_rate, gamma_B=_rate, s=_unit,
              nbar=st.floats(0.0, 0.5), Omega=st.floats(0.0, 2.0),
              n_trunc=st.integers(4, 8)),
    st.builds(dict, model=st.just("optomechanical"), omega=_rate, nu=_rate,
              kappa=_rate, gamma=_rate, nbar=st.floats(0.0, 0.2),
              mbar=st.floats(0.0, 0.2), g=st.floats(0.0, 0.5),
              n_trunc=st.tuples(st.integers(4, 6), st.integers(4, 6))),
)


@settings(max_examples=25, deadline=None)
@given(_model_cfgs)
def test_random_configs_keep_a_marginal(raw):
    # rates, pumps, occupations and couplings drawn for all three models
    bm = build_model(raw)
    rep = model_steady(bm)
    assert rep.residual <= 1e-9
    red_A = partial_trace(rep.rho_st, bm.a_factors).entries
    assert trace_norm(red_A - bm.analytic_A_steady) <= 1e-7


@settings(max_examples=25, deadline=None)
@given(_model_cfgs)
# residuals 1.2000003e-09 and 1.1999990e-09 after the clip: 1.33e-15 apart
@example(dict(model="spin_oscillator", omega_A=1.0, omega_B=0.375,
              gamma_A=1.0, gamma_B=1.0, s=0.0, nbar=0.25, Omega=2.0,
              n_trunc=7))
# the steady state is 1/4: a shift of the whole spectrum by lambda_min
# left it a trace of -4e-10
@example(dict(model="two_spins", omega=1.0, gamma_A=1.0, gamma_B=1.0,
              s_A=0.5, s_B=0.5, Omega=1.0))
@example(dict(model="two_spins", omega=1.0, gamma_A=1.0, gamma_B=1.0,
              s_A=0.5, s_B=0.5, Omega=0.0))
def test_blockwise_postprocess_matches_dense(raw):
    bm = build_model(raw)
    an, vals = _analysed(bm.L)
    assert not an.partial
    rho = model_steady(bm).rho_st.entries
    _assert_matches_dense(bm.L, rho, an, vals)
    # a clip on a filled block keeps the state on its parts
    rep = _assert_matches_dense(bm.L, _shifted(rho, an), an, vals)
    assert rep.clipped_weight >= 1e-10 * (1 - 1e-6)


def test_clip_on_partial_block_takes_whole_matrix_residual():
    # jumps |0><1| + |2><0| and |0><2| + |1><2| on three levels: the
    # block misses (1, 2) and (2, 1), and the steady state has full
    # rank, so the clip of its shifted copy leaves the block
    spc = hb.space(hb.oscillator(3))
    J1, J2 = np.zeros((3, 3), complex), np.zeros((3, 3), complex)
    J1[0, 1] = J1[2, 0] = 1.0
    J2[0, 2] = J2[1, 2] = 1.0
    L = Liouvillian(spc, hb.Operator(spc, np.zeros((3, 3), complex)),
                    [LindbladTerm(hb.Operator(spc, J1), 1.0),
                     LindbladTerm(hb.Operator(spc, J2), 1.0)])
    an, vals = _analysed(L)
    assert an.partial and an.block.size == 7
    rep = solve_steady(L)
    assert rep.residual <= 1e-12 and not rep.degenerate
    rep = _assert_matches_dense(L, rep.rho_st.entries, an, vals)
    assert rep.clipped_weight == 0.0
    rep = _assert_matches_dense(L, _shifted(rep.rho_st.entries, an), an,
                                vals)
    assert rep.clipped_weight > 0.0
    # the clipped state has left the block's pairs
    vec = rep.rho_st.entries.reshape(-1, order="F")
    assert np.abs(np.delete(vec, an.block)).max() > 0


def test_pure_damping_diagonal_recurrence():
    seq = pure_damping_recurrence(1.0, 0.3, 40)
    expect = 0.3 ** np.arange(41) * 0.7
    assert np.abs(seq - expect).max() <= 1e-12
    with pytest.raises(ValueError):
        pure_damping_recurrence(1.0, 1.0, 10)


def test_pure_damping_matches_numeric_steady():
    gamma1, gamma2, dim = 1.0, 0.3, 24
    sp = hb.space(hb.oscillator(dim))
    b = hb.embed(hb.mk_destroy(hb.oscillator(dim)), 0, sp)
    H = hb.Operator(sp, np.zeros((dim, dim), dtype=complex))
    L = Liouvillian(sp, H, [LindbladTerm(b, gamma1),
                            LindbladTerm(b.dagger(), gamma2)])
    rep = solve_steady(L)
    rho = rep.rho_st.entries
    eps = gamma2 / gamma1
    expect = eps ** np.arange(dim) * (1 - eps)
    expect /= expect.sum()  # renormalized over the truncation
    assert np.abs(np.diag(rho).real - expect).max() <= 1e-9
    off = rho - np.diag(np.diag(rho))
    assert np.abs(off).max() <= 1e-10


# frozen closed-form values of the zero-coupling recurrence seed:
# l = 2 collapses to sqrt(2/((n+1)(n+2))), and l = 1, n = 2 is
# Gamma(5/2)/Gamma(1/2) / sqrt(2! 3!) = (3/4)/sqrt(12)
R0_L2_N3 = 0.31622776601683794
R0_L1_N2 = 0.21650635094610965


def test_zero_coupling_closed_form_values():
    r_l2, _, _ = off_diagonal_witness(0.0, 2, 5)
    assert r_l2[3] == pytest.approx(R0_L2_N3, rel=1e-12)
    r_l1, _, _ = off_diagonal_witness(0.0, 1, 5)
    assert r_l1[2] == pytest.approx(R0_L1_N2, rel=1e-12)
    assert r_l1[0] == 1.0


def test_witness_sums_grow():
    harmonic = (1.0 / np.arange(1, 402)).sum() / np.sqrt(np.pi * np.e ** (1 / 3))
    for eps in (0.0, 0.3, 0.7):
        r, sums, lower = off_diagonal_witness(eps, 1, 400)
        assert np.all(r > 0)
        assert np.all(np.diff(sums) > 0)
        # the harmonic-type lower bound forces divergence of the sums
        assert np.all(r > lower)
        assert sums[-1] > harmonic
    with pytest.raises(ValueError):
        off_diagonal_witness(1.0, 1, 10)


def test_witness_dominates_zero_coupling():
    r0, _, _ = off_diagonal_witness(0.0, 3, 60)
    r7, _, _ = off_diagonal_witness(0.7, 3, 60)
    # positive expansion coefficients make r monotone in the ratio
    assert np.all(r7[1:] >= r0[1:])


def test_coefficient_positivity_and_monotonicity():
    # the strict inequalities are decided in exact rational arithmetic
    # inside the builder (it raises on violation); here the float
    # shadows are rechecked with a rounding allowance
    for l in range(1, 6):
        rec = damping_recurrence(1.0, 0.4, l, 25)
        for n, row in enumerate(rec.coeffs):
            assert len(row) == n + 1
            assert all(c > 0 for c in row)
        for n in range(1, len(rec.coeffs)):
            for i, prev in enumerate(rec.coeffs[n - 1]):
                assert prev <= rec.coeffs[n][i + 1] * (1.0 + 1e-12)


def test_damping_recurrence_validation():
    with pytest.raises(ValueError):
        damping_recurrence(1.0, 0.4, 0, 10)
    with pytest.raises(ValueError):
        damping_recurrence(0.5, 0.6, 1, 10)
