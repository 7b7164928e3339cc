"""Excitation sectors, decay rates, bounds, and splitting errors."""

from types import SimpleNamespace

import numpy as np
import pytest

from lindpair import hilbert as hb
from lindpair.evolve import evolve
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


def _small_spin_oscillator():
    return build_model(ModelConfig(model="spin_oscillator", omega_A=1.0,
                                   omega_B=1.0, gamma_A=1.0, gamma_B=1.0,
                                   s=0.5, nbar=0.0, Omega=0.5, n_trunc=3))


def _skewed(rho):
    out = rho.copy()
    out[0, 1] += 0.01
    return out


@pytest.mark.parametrize("rho_of,t_grid,ls,match", [
    (_skewed, np.linspace(0.0, 1.0, 5), [1], "hermitian"),
    (lambda rho: 2.0 * rho, np.linspace(0.0, 1.0, 5), [1], "normalized"),
    (lambda rho: rho[:, :-1], np.linspace(0.0, 1.0, 5), [1], "matrix"),
    (lambda rho: rho, [0.0, 0.5, 0.5, 1.0], [1], "strictly increasing"),
    (lambda rho: rho, np.linspace(0.0, 1.0, 5), [0, 1], "l=0"),
], ids=["non_hermitian", "unnormalized", "non_square", "repeated_time",
        "l_zero"])
def test_decay_bound_rejects_bad_input(rho_of, t_grid, ls, match):
    bm = _small_spin_oscillator()
    rho0 = rho_of(_random_state(bm.L.dim, seed=11))
    with pytest.raises(ValueError, match=match):
        check_decay_bound(bm, rho0, t_grid, ls=ls)


def test_decay_bound_empty_sector_reports_zeros():
    # a ladder cut at 3 levels holds no l=3 coherence, yet eta_3 is defined
    bm = build_model(ModelConfig(model="optomechanical", omega=1.0, nu=1.5,
                                 kappa=1.0, gamma=0.9, nbar=0.2, mbar=0.1,
                                 g=0.6, n_trunc=(3, 3)))
    rep = check_decay_bound(bm, _random_state(bm.L.dim, seed=12),
                            np.linspace(0.0, 1.0, 5), ls=[1, 3])
    assert np.array_equal(rep.measured[3], np.zeros(5))
    assert rep.max_ratio[3] == 0.0
    assert rep.measured[1].min() > 0.0


def _random_config(rng, model):
    u = rng.uniform
    if model == "two_spins":
        return dict(model=model, omega=u(0.2, 10.0), gamma_A=u(0.2, 2.0),
                    gamma_B=u(0.2, 2.0), s_A=u(0.0, 1.0), s_B=u(0.0, 1.0),
                    Omega=u(0.0, 5.0))
    if model == "spin_oscillator":
        return dict(model=model, omega_A=u(0.2, 10.0), omega_B=u(0.2, 10.0),
                    gamma_A=u(0.2, 2.0), gamma_B=u(0.2, 2.0), s=u(0.0, 1.0),
                    nbar=u(0.0, 0.5), Omega=u(0.0, 5.0),
                    n_trunc=int(rng.integers(3, 7)))
    return dict(model=model, omega=u(0.2, 10.0), nu=u(0.2, 10.0),
                kappa=u(0.2, 2.0), gamma=u(0.2, 2.0), nbar=u(0.0, 0.3),
                mbar=u(0.0, 0.3), g=u(0.0, 1.0),
                n_trunc=(int(rng.integers(3, 6)), int(rng.integers(3, 6))))


def test_decay_bound_random_configs_and_states():
    # full-rank random states on random configs of all three models,
    # every eligible sector; the constant-1 bound is a theorem for every
    # initial state only for a spin A: for an oscillator A these states
    # pass, but (|1> + |2>)/sqrt(2) on optomechanical (4, 3), g = 0,
    # nbar = mbar = 0, reaches a sector-1 ratio of 1.41415
    rng = np.random.default_rng(2015)
    for model in ("two_spins", "spin_oscillator", "optomechanical"):
        for _ in range(10):
            bm = build_model(_random_config(rng, model))
            d = bm.L.dim
            X = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            rho0 = X @ X.conj().T
            rho0 /= np.trace(rho0).real
            t_grid = np.linspace(0.0, 4.0 / bm.reference_rate, 41)
            rep = check_decay_bound(bm, rho0, t_grid)
            assert rep.max_ratio
            for l, ratio in rep.max_ratio.items():
                assert ratio <= 1.0 + 1e-6, (bm.cfg, l)


@pytest.mark.parametrize("cfg,ls", [
    (dict(model="spin_oscillator", omega_A=1.0, omega_B=1.5, gamma_A=1.0,
          gamma_B=0.7, s=0.3, nbar=0.2, Omega=0.8, n_trunc=6), [1]),
    (dict(model="optomechanical", omega=1.0, nu=1.5, kappa=1.0, gamma=0.9,
          nbar=0.2, mbar=0.1, g=0.6, n_trunc=(4, 4)), [1, 2]),
], ids=["spin_oscillator", "optomechanical"])
def test_decay_bound_matches_full_evolution(cfg, ls):
    # the exact sector-block propagation against full-space RK4 with
    # sector masks, on a non-uniform grid (a spin A has sector 1 only)
    bm = build_model(cfg)
    d = bm.L.dim
    rho0 = _random_state(d, seed=13)
    t_grid = 3.0 * np.linspace(0.0, 1.0, 9) ** 2
    rep = check_decay_bound(bm, rho0, t_grid, ls=ls)
    masks = {l: sector_pair_mask(bm.es, d, l) for l in ls}
    rec = evolve(bm.L, rho0, t_grid, sector_masks=masks, tol=1e-10)
    for l in ls:
        ref = rec.sector_pair_norms[l]
        assert ref.min() > 0.0
        assert np.abs(rep.measured[l] - ref).max() <= 1e-8 * ref.max()


def test_decay_bound_rejects_non_commuting_generator():
    # coupling through A's lowering operator moves weight between
    # sectors, so sector 1 is no closed block of the generator
    sp_full = hb.space(hb.spin(), hb.oscillator(4))
    sm, splus, sz = hb.mk_spin_ops(hb.spin())
    b = hb.embed(hb.mk_destroy(hb.oscillator(4)), 1, sp_full)
    lower = hb.embed(sm, 0, sp_full)
    H = hb.embed(sz, 0, sp_full) + b.dagger() @ b \
        + 0.5 * ((lower + lower.dagger()) @ (b + b.dagger()))
    L = Liouvillian(sp_full, H, [LindbladTerm(lower, 1.0),
                                 LindbladTerm(b, 1.0)])
    model = SimpleNamespace(L=L, es=build_excitation_structure(
        hb.space(hb.spin())), a_unit_costs=[(0.5, 1)])
    rho0 = _random_state(L.dim, seed=14)
    with pytest.raises(RuntimeError, match="sector 1 is not closed"):
        check_decay_bound(model, rho0, np.linspace(0.0, 1.0, 5), ls=[1])


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
