"""Fixed-point solvers and the pure-damping recurrence machinery."""

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from lindpair import hilbert as hb
from lindpair.evolve import trace_norm
from lindpair.hilbert import partial_trace
from lindpair.liouvillian import (Liouvillian, LindbladTerm,
                                  sparse_superoperator, trace_row_indices)
from lindpair.models import ModelConfig, build_model, model_steady
from lindpair.sectors import sector_vec_indices
from lindpair.steady import (_block_triplets, _csc, _dissection_order,
                             _postprocess, _trace_block, damping_recurrence,
                             off_diagonal_witness, pure_damping_recurrence,
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
    sector0 = np.sort(sector_vec_indices(bm.es, d, 0))
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
    assert 0 < rep.lu_fill < 0.85 * COLAMD_FILL_N45
    assert rep.residual <= 1e-9


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


def test_block_read_off_csr_matches_slicing():
    bm = _small_model(6)
    S = sparse_superoperator(bm.L)
    block, _ = _trace_block(S, bm.L.dim)
    row, col, val, local = _block_triplets(S, block)
    n = block.size
    assert np.array_equal(local[block], np.arange(n))
    assert np.count_nonzero(local >= 0) == n
    sliced = S[block][:, block].tocsr()
    read = sp.csr_matrix((val, (row, col)), shape=(n, n))
    assert (read != sliced).nnz == 0 and read.nnz == sliced.nnz
    # the direct CSC build is the canonical COO -> CSC conversion
    A, B = _csc(row, col, val, n), sp.csc_matrix((val, (row, col)),
                                                shape=(n, n))
    for x, y in ((A.indptr, B.indptr), (A.indices, B.indices),
                 (A.data, B.data)):
        assert np.array_equal(x, y)


def _with_spectrum(w):
    # a state with eigenvalues w in a random basis, on a d=4 model
    bm = build_model(ModelConfig(model="two_spins", omega=1.0, gamma_A=1.0,
                                 gamma_B=0.7, s_A=0.8, s_B=0.6, Omega=0.5))
    rng = np.random.default_rng(5)
    U = scipy.linalg.qr(rng.normal(size=(4, 4))
                        + 1j * rng.normal(size=(4, 4)))[0]
    return bm.L, (U * np.asarray(w)) @ U.conj().T


def test_postprocess_clips_small_negative_eigenvalue():
    L, raw = _with_spectrum([0.3, 0.3, 0.4 + 1e-12, -1e-12])
    rep = _postprocess(L, raw, 16)
    assert rep.clipped_weight == pytest.approx(1e-12, rel=1e-3)
    rho = rep.rho_st.entries
    assert np.abs(rho - rho.conj().T).max() <= 1e-15
    assert np.linalg.eigvalsh(rho).min() >= -1e-15
    assert np.trace(rho) == pytest.approx(1.0, abs=1e-14)


def test_postprocess_aborts_on_large_negative_eigenvalue():
    L, raw = _with_spectrum([0.3, 0.3, 0.4 + 1e-6, -1e-6])
    with pytest.raises(RuntimeError, match="likely truncation failure"):
        _postprocess(L, raw, 16)


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
