"""Analytic eigensystems of the damped spin and oscillator generators."""

import numpy as np
import pytest

from lindpair import hilbert as hb
from lindpair.evolve import evolve, trace_norm
from lindpair.liouvillian import (Liouvillian, LindbladTerm,
                                  sparse_superoperator)
from lindpair.spectral import (TAIL_MARGIN, normal_ordered_fock_matrix,
                               osc_eigensystem, spin_eigensystem)
from lindpair.steady import thermal_state


def _spin_liouvillian(gamma, mbar):
    sp = hb.space(hb.spin())
    sm, sp_, _ = hb.mk_spin_ops(hb.spin())
    H = hb.Operator(sp, np.zeros((2, 2), dtype=complex))
    return Liouvillian(sp, H, [
        LindbladTerm(hb.embed(sm, 0, sp), gamma * (1.0 - mbar)),
        LindbladTerm(hb.embed(sp_, 0, sp), gamma * mbar)])


def _osc_liouvillian(gamma, nbar, dim):
    sp = hb.space(hb.oscillator(dim))
    b = hb.embed(hb.mk_destroy(hb.oscillator(dim)), 0, sp)
    H = hb.Operator(sp, np.zeros((dim, dim), dtype=complex))
    return Liouvillian(sp, H, [LindbladTerm(b, gamma * (nbar + 1.0)),
                               LindbladTerm(b.dagger(), gamma * nbar)])


@pytest.mark.parametrize("gamma,mbar", [(1.0, 0.3), (0.7, 0.0), (2.0, 0.85)])
def test_spin_eigensystem_exact(gamma, mbar):
    se = spin_eigensystem(gamma, mbar)
    L = _spin_liouvillian(gamma, mbar)
    for lam, right, left in zip(se.eigenvalues, se.right, se.left):
        assert np.abs(L.apply(right) - lam * right).max() <= 1e-12
        assert np.abs(L.adjoint_apply(left) - np.conj(lam) * left).max() \
            <= 1e-12
    # biorthonormality in the Hilbert-Schmidt pairing
    G = np.array([[np.trace(l.conj().T @ r) for r in se.right]
                  for l in se.left])
    assert np.abs(G - np.eye(4)).max() <= 1e-12


def test_spin_eigenvalues():
    se = spin_eigensystem(1.4, 0.2)
    assert np.allclose(sorted(se.eigenvalues.real),
                       [-1.4, -0.7, -0.7, 0.0])
    # the stationary mode is the thermal-like fixed point
    i0 = int(np.argmin(np.abs(se.eigenvalues)))
    assert np.allclose(se.right[i0], np.diag([0.8, 0.2]))


def test_normal_ordered_ground_mode_is_thermal():
    nbar, dim = 0.45, 25
    es = osc_eigensystem(1.0, nbar, 0, 0, dim)
    # the two constructions round differently in the far tail
    assert np.abs(es.right(0, 0) - thermal_state(nbar, dim)).max() <= 1e-12


def test_normal_ordered_fock_matrix_shape():
    out = normal_ordered_fock_matrix([1.0], 0.0, 2, 6)
    a = hb.mk_destroy(hb.oscillator(6)).entries
    expect = (a.conj().T @ a.conj().T)
    assert np.allclose(out, expect)


@pytest.mark.parametrize("nbar", [0.3, 1.0])
def test_osc_eigensystem_residuals(nbar):
    gamma, dim = 1.0, 40
    es = osc_eigensystem(gamma, nbar, 5, 5, dim)
    L = _osc_liouvillian(gamma, nbar, dim)
    sub = slice(0, dim - TAIL_MARGIN)
    worst_r = worst_l = 0.0
    for (n, k) in es.pairs():
        lam = es.eigenvalue(n, k)
        r = es.right(n, k)
        resid_r = (L.apply(r) - lam * r)[sub, sub]
        scale = max(np.abs(r[sub, sub]).max(), 1e-300)
        worst_r = max(worst_r, np.abs(resid_r).max() / scale)
        lft = es.left(n, k)
        resid_l = (L.adjoint_apply(lft) - np.conj(lam) * lft)[sub, sub]
        scale_l = max(np.abs(lft[sub, sub]).max(), 1e-300)
        worst_l = max(worst_l, np.abs(resid_l).max() / scale_l)
    assert worst_r <= 1e-8
    assert worst_l <= 1e-8


def test_osc_eigenvalue_formula():
    es = osc_eigensystem(0.8, 0.2, 3, 2, 25)
    assert es.eigenvalue(2, -1) == pytest.approx(-0.8 * 2.5)
    assert es.eigenvalue(0, 2) == pytest.approx(-0.8)
    assert es.eigenvalue(0, 0) == 0.0


def test_osc_conjugate_pair():
    es = osc_eigensystem(1.0, 0.6, 3, 3, 30)
    for n in range(3):
        for k in range(1, 3):
            assert np.allclose(es.right(n, -k), es.right(n, k).conj().T)
            assert np.allclose(es.left(n, -k), es.left(n, k).conj().T)


@pytest.mark.parametrize("nbar", [0.3, 1.0])
def test_osc_biorthonormality_masked(nbar):
    es = osc_eigensystem(1.0, nbar, 5, 5, 40)
    G, keep, labels = es.gram()
    assert np.abs(np.where(keep, G - np.eye(len(labels)), 0.0)).max() <= 1e-8


@pytest.mark.parametrize("nbar", [0.3, 1.0])
def test_osc_biorthonormality_full_at_large_dim(nbar):
    # the tail criterion masks nothing once the truncation is generous
    es = osc_eigensystem(1.0, nbar, 5, 5, 100)
    G, keep, labels = es.gram()
    assert keep.all()
    assert np.abs(G - np.eye(len(labels))).max() <= 1e-8


def test_analytic_eigenvalues_found_in_dense_spectrum():
    # a warm ladder shifts the low eigenvalues by the tail weight, so
    # the truncation must be generous for a 1e-6 match
    gamma, nbar, dim = 1.0, 0.25, 24
    es = osc_eigensystem(gamma, nbar, 2, 2, dim)
    L = _osc_liouvillian(gamma, nbar, dim)
    numeric = np.linalg.eigvals(sparse_superoperator(L).toarray())
    for (n, k) in es.pairs():
        lam = es.eigenvalue(n, k)
        assert np.abs(numeric - lam).min() <= 1e-6


def test_spectral_propagation_of_mode_superposition():
    gamma, nbar, dim = 1.0, 0.3, 30
    es = osc_eigensystem(gamma, nbar, 3, 1, dim)
    r00, r21, r30 = es.right(0, 0), es.right(2, 1), es.right(3, 0)
    rho0 = r00 + 0.05 * (r21 + r21.conj().T) + 0.03 * r30
    assert abs(np.trace(rho0) - 1.0) <= 1e-12
    L = _osc_liouvillian(gamma, nbar, dim)
    times = np.array([0.0, 0.1, 1.0, 5.0])
    rec = evolve(L, rho0, times, store_states=True)
    lam21, lam30 = es.eigenvalue(2, 1), es.eigenvalue(3, 0)
    for i, t in enumerate(times):
        w21 = np.exp(lam21 * t)
        exact = r00 + 0.05 * (w21 * r21 + np.conj(w21) * r21.conj().T) \
            + 0.03 * np.exp(lam30 * t) * r30
        assert trace_norm(rec.states[i] - exact) <= 1e-6


def test_osc_eigensystem_validation():
    with pytest.raises(ValueError):
        osc_eigensystem(1.0, 0.3, 3, 3, 12)  # dim below n+k+TAIL_MARGIN
    with pytest.raises(ValueError):
        osc_eigensystem(1.0, -0.1, 1, 1, 20)
