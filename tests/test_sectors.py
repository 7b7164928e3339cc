"""Excitation sectors, decay rates, bounds, and splitting errors."""

from types import SimpleNamespace

import numpy as np
import pytest

from lindpair import hilbert as hb
from lindpair.liouvillian import (Liouvillian, LindbladTerm,
                                  sparse_superoperator)
from lindpair.models import ModelConfig, build_model
from lindpair.sectors import (build_excitation_structure,
                              check_decay_bound, excitation_commutator,
                              project_sector, project_sector_pair,
                              sector_decay_rate, sector_generator_matrix,
                              sector_pair_mask, sector_vec_indices,
                              trotter_compare)


def _models():
    yield build_model(ModelConfig(model="two_spins", omega=1.0, gamma_A=1.0,
                                  gamma_B=0.8, s_A=0.7, s_B=0.4, Omega=1.3))
    yield build_model(ModelConfig(model="spin_oscillator", omega_A=1.0,
                                  omega_B=2.0, gamma_A=0.9, gamma_B=1.1,
                                  s=0.3, nbar=0.2, Omega=0.8, n_trunc=5))
    yield build_model(ModelConfig(model="optomechanical", omega=2.0, nu=1.5,
                                  kappa=1.0, gamma=0.7, nbar=0.3, mbar=0.1,
                                  g=0.6, n_trunc=(4, 3)))


def _random_state(d, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = X @ X.conj().T
    return rho / np.trace(rho).real


def test_excitation_arrays():
    es = build_excitation_structure(hb.space(hb.spin()))
    assert list(es.exc) == [0, 1]
    es2 = build_excitation_structure(hb.space(hb.oscillator(5)))
    assert list(es2.exc) == [0, 1, 2, 3, 4]
    es3 = build_excitation_structure(hb.space(hb.spin(), hb.oscillator(3)))
    assert list(es3.exc) == [0, 1, 2, 1, 2, 3]
    assert es3.sectors[2] == (2, 4)
    assert es3.max_excitation == 3
    # composite index repeats each A excitation across the B block
    assert list(es.composite_excitation(6)) == [0, 0, 0, 1, 1, 1]


def test_generator_commutes_with_excitation():
    for bm in _models():
        rho = _random_state(bm.L.dim)
        lhs = excitation_commutator(bm.es, bm.L.apply(rho))
        rhs = bm.L.apply(excitation_commutator(bm.es, rho))
        scale = max(np.abs(bm.L.apply(rho)).max(), 1e-300)
        assert np.abs(lhs - rhs).max() <= 1e-10 * scale


def test_projector_family():
    for bm in _models():
        d = bm.L.dim
        rho = _random_state(d, seed=3)
        v = bm.es.composite_excitation(d)
        ls = np.unique(v[:, None] - v[None, :])
        acc = np.zeros_like(rho)
        for l in ls:
            P = project_sector(bm.es, rho, int(l))
            # idempotent and mutually orthogonal by construction
            assert np.array_equal(project_sector(bm.es, P, int(l)), P)
            for m in ls:
                if m != l:
                    assert np.abs(project_sector(bm.es, P, int(m))).max() \
                        == 0.0
            acc += P
        assert np.abs(acc - rho).max() <= 1e-12


def test_sectors_preserved_by_generator():
    for bm in _models():
        rho = _random_state(bm.L.dim, seed=5)
        out = bm.L.apply(rho)
        scale = np.abs(out).max()
        for l in (0, 1, 2):
            lhs = project_sector(bm.es, out, l)
            rhs = bm.L.apply(project_sector(bm.es, rho, l))
            assert np.abs(lhs - rhs).max() <= 1e-10 * scale


def test_sector_pair_projector_hermitian():
    bm = next(_models())
    rho = _random_state(bm.L.dim, seed=7)
    rho = 0.5 * (rho + rho.conj().T)
    P = project_sector_pair(bm.es, rho, 1)
    assert np.abs(P - P.conj().T).max() <= 1e-14
    with pytest.raises(ValueError):
        project_sector_pair(bm.es, rho, 0)


def test_sector_vec_indices_match_mask():
    bm = build_model(ModelConfig(model="spin_oscillator", omega_A=1.0,
                                 omega_B=1.0, gamma_A=1.0, gamma_B=1.0,
                                 s=0.5, nbar=0.0, Omega=0.3, n_trunc=4))
    d = bm.L.dim
    v = bm.es.composite_excitation(d)
    for l in (-1, 0, 1):
        idx = sector_vec_indices(bm.es, d, l)
        mask = (v[:, None] - v[None, :]) == l
        ii, jj = np.nonzero(mask)
        assert sorted(idx) == sorted(ii + jj * d)


def test_single_factor_decay_rates():
    spin_stub = SimpleNamespace(a_unit_costs=[(0.45, 1)])
    assert sector_decay_rate(spin_stub, 0) == 0.0
    assert sector_decay_rate(spin_stub, 1) == pytest.approx(-0.45)
    assert sector_decay_rate(spin_stub, -1) == pytest.approx(-0.45)
    with pytest.raises(ValueError):
        sector_decay_rate(spin_stub, 2)
    osc_stub = SimpleNamespace(a_unit_costs=[(0.3, None)])
    assert sector_decay_rate(osc_stub, 4) == pytest.approx(-1.2)


def test_model_decay_rates():
    two, so, om = list(_models())
    assert sector_decay_rate(two, 1) == pytest.approx(-0.5)
    assert sector_decay_rate(so, 1) == pytest.approx(-0.45)
    assert sector_decay_rate(om, 3) == pytest.approx(-1.5)


def test_composite_a_rates_match_dense_spectrum():
    # spin (cost gs/2, one unit) + pure-decay oscillator (kap/2 each);
    # with nbar = 0 the truncated ladder spectrum is exactly triangular,
    # so the greedy assignment must match the slowest sector eigenvalue
    gs, kap, gB = 0.8, 0.5, 1.3
    spA = hb.space(hb.spin(), hb.oscillator(6))
    sp_full = hb.space(hb.spin(), hb.oscillator(6), hb.spin())
    es = build_excitation_structure(spA)
    sm, sp_, _ = hb.mk_spin_ops(hb.spin())
    a = hb.mk_destroy(hb.oscillator(6))
    H = hb.Operator(sp_full, np.zeros((24, 24), dtype=complex))
    L = Liouvillian(sp_full, H, [
        LindbladTerm(hb.embed(sm, 0, sp_full), gs * 0.7),
        LindbladTerm(hb.embed(sp_, 0, sp_full), gs * 0.3),
        LindbladTerm(hb.embed(a, 1, sp_full), kap),
        LindbladTerm(hb.embed(sm, 2, sp_full), gB * 0.6),
        LindbladTerm(hb.embed(sp_, 2, sp_full), gB * 0.4)])
    stub = SimpleNamespace(a_unit_costs=[(gs / 2.0, 1), (kap / 2.0, None)])
    for l in (1, 2, 3, 4):
        M = sector_generator_matrix(L, es, l)
        eta = sector_decay_rate(stub, l)
        assert np.linalg.eigvals(M).real.max() == pytest.approx(eta,
                                                                abs=1e-9)


def test_generator_spectrum_in_left_half_plane():
    for bm in _models():
        if bm.L.dim > 32:
            continue
        M = sparse_superoperator(bm.L).toarray()
        ev = np.linalg.eigvals(M)
        assert ev.real.max() <= 1e-9 * max(1.0, np.abs(M).max())


def test_decay_bound_holds():
    bm = build_model(ModelConfig(model="spin_oscillator", omega_A=2.0,
                                 omega_B=2.0, gamma_A=1.0, gamma_B=1.0,
                                 s=0.5, nbar=0.0, Omega=1.0, n_trunc=6))
    d = bm.L.dim
    psi = np.zeros(d, dtype=complex)
    psi[0] = psi[6] = 1.0 / np.sqrt(2.0)
    rho0 = np.outer(psi, psi.conj())
    rep = check_decay_bound(bm, rho0, np.linspace(0.0, 4.0, 17), ls=[1])
    assert rep.rates[1] == pytest.approx(-0.5)
    assert rep.max_ratio[1] <= 1.0 + 1e-6


def test_decay_bound_violation_detected():
    # claiming a decay rate faster than the physics must raise
    bm = build_model(ModelConfig(model="spin_oscillator", omega_A=1.0,
                                 omega_B=1.0, gamma_A=1.0, gamma_B=1.0,
                                 s=0.5, nbar=0.0, Omega=0.5, n_trunc=5))
    lying = SimpleNamespace(L=bm.L, es=bm.es, a_unit_costs=[(5.0, 1)])
    d = bm.L.dim
    psi = np.zeros(d, dtype=complex)
    psi[0] = psi[5] = 1.0 / np.sqrt(2.0)
    rho0 = np.outer(psi, psi.conj())
    with pytest.raises(RuntimeError, match="decay bound violated"):
        check_decay_bound(lying, rho0, np.linspace(0.0, 2.0, 9), ls=[1])
    # a negative sector label fails early instead of passing vacuously
    with pytest.raises(ValueError, match="l=-1"):
        check_decay_bound(lying, rho0, np.linspace(0.0, 2.0, 9), ls=[-1])


def test_trotter_commuting_split():
    bm = build_model(ModelConfig(model="spin_oscillator", omega_A=1.0,
                                 omega_B=1.0, gamma_A=1.0, gamma_B=0.8,
                                 s=0.3, nbar=0.2, Omega=0.7, n_trunc=12))
    rep = trotter_compare(bm, 1, 1.0, [2, 4, 8])
    # the one-dimensional spin coherence sector commutes exactly
    assert rep.split_commutator_max <= 1e-12
    assert rep.max_error <= 1e-10
    assert rep.fitted_order is None


def test_trotter_first_order():
    bm = build_model(ModelConfig(model="optomechanical", omega=1.0, nu=1.5,
                                 kappa=1.0, gamma=0.9, nbar=0.2, mbar=0.1,
                                 g=0.6, n_trunc=(4, 4)))
    rep = trotter_compare(bm, 1, 1.0, [16, 32, 64])
    assert rep.split_commutator_max > 1.0
    assert rep.fitted_order == pytest.approx(1.0, abs=0.2)
    ratio = rep.errors[64] / rep.errors[32]
    assert ratio == pytest.approx(0.5, abs=0.1)
