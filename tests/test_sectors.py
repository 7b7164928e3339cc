"""Excitation sectors, decay rates, bounds, and splitting errors."""

import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest

from lindpair import hilbert as hb
from lindpair.evolve import evolve, trace_norm
from lindpair.liouvillian import (Liouvillian, LindbladTerm, sector_indices,
                                  sector_labels, sparse_superoperator)
from lindpair.models import ModelConfig, build_model
from lindpair.sectors import (_eligible_ls, check_decay_bound,
                              project_sector, sector_decay_rate,
                              sector_generator_matrix, trotter_compare)


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


def _key(bm):
    return bm.L.space.dims[0], bm.L.dim


def _difference(dA, d):
    # row minus column excitation of A, each A level repeated over B:
    # the sector table, built independently of the cached partition
    v = np.repeat(np.arange(dA), d // dA)
    return v[:, None] - v[None, :]


def test_generator_commutes_with_excitation():
    # [V_A x 1, rho] scales each vec entry of rho by its sector label
    for bm in _models():
        d = bm.L.dim
        labels = sector_labels(*_key(bm))

        def commutator(X):
            return (labels * X.reshape(-1, order="F")).reshape(
                d, d, order="F")
        rho = _random_state(d)
        lhs = commutator(bm.L.apply(rho))
        rhs = bm.L.apply(commutator(rho))
        scale = max(np.abs(bm.L.apply(rho)).max(), 1e-300)
        assert np.abs(lhs - rhs).max() <= 1e-10 * scale


def test_projector_family():
    for bm in _models():
        dA, d = _key(bm)
        diff = _difference(dA, d)
        rho = _random_state(d, seed=3)
        ls = np.unique(diff)
        acc = np.zeros_like(rho)
        for l in ls:
            P = project_sector(dA, rho, int(l))
            # the masked state of the difference table, bit for bit
            assert np.array_equal(P, np.where(diff == l, rho, 0))
            # idempotent and mutually orthogonal by construction
            assert np.array_equal(project_sector(dA, P, int(l)), P)
            for m in ls:
                if m != l:
                    assert np.abs(project_sector(dA, P, int(m))).max() \
                        == 0.0
            acc += P
        assert np.abs(acc - rho).max() <= 1e-12
        # a sector beyond A's levels is empty
        assert not project_sector(dA, rho, dA).any()
    # a state must be square over A's levels
    with pytest.raises(ValueError, match="square over A's 2 levels"):
        project_sector(2, np.eye(5), 0)
    with pytest.raises(ValueError, match="square over A's 2 levels"):
        project_sector(2, np.eye(6)[:, :4], 0)


def test_sectors_preserved_by_generator():
    for bm in _models():
        rho = _random_state(bm.L.dim, seed=5)
        out = bm.L.apply(rho)
        scale = np.abs(out).max()
        for l in (0, 1, 2):
            lhs = project_sector(bm.L.space.dims[0], out, l)
            rhs = bm.L.apply(project_sector(bm.L.space.dims[0], rho, l))
            assert np.abs(lhs - rhs).max() <= 1e-10 * scale


def test_sector_pair_projector_hermitian():
    # the +-l pair evolve scatters from the partition's indices is the
    # masked state of the difference table, hermitian for a hermitian state
    for bm in _models():
        d = bm.L.dim
        diff = _difference(*_key(bm))
        rho = _random_state(d, seed=7)
        rho = 0.5 * (rho + rho.conj().T)
        part = sector_indices(*_key(bm))
        for l in (0, 1):
            at = np.concatenate([part[s] for s in {l, -l}])
            P = np.zeros(d * d, dtype=complex)
            P[at] = rho.reshape(-1, order="F")[at]
            P = P.reshape(d, d, order="F")
            assert np.array_equal(P, np.where(np.abs(diff) == l, rho, 0))
            assert np.abs(P - P.conj().T).max() <= 1e-14
    # a pair is named by l >= 0
    with pytest.raises(ValueError, match="l=-1"):
        evolve(bm.L, rho, [0.0, 1.0], sectors=[-1])


def test_sector_partition_matches_difference_table():
    # a spin A (two_spins, spin_oscillator) and an oscillator A
    for bm in _models():
        d = bm.L.dim
        diff = _difference(*_key(bm))
        labels, indices = sector_labels(*_key(bm)), sector_indices(*_key(bm))
        assert labels.dtype == indices[0].dtype == np.int32
        assert not labels.flags.writeable and not indices[0].flags.writeable
        assert np.array_equal(labels, diff.ravel(order="F"))
        assert sorted(indices) == np.unique(diff).tolist()
        for l, idx in indices.items():
            # row-major (i, j) order, the order of every sector block of S
            ii, jj = np.nonzero(diff == l)
            assert np.array_equal(idx, ii + jj * d)
    # computed once per (A dimension, d)
    assert sector_indices(*_key(bm)) is indices


def test_evolve_pair_norms_match_masked_states():
    # on a spin A (sector 2 empty) and an oscillator A, the recorded
    # norms are those of the masked stored states, bit for bit
    for bm in list(_models())[1:]:
        d = bm.L.dim
        diff = _difference(*_key(bm))
        rec = evolve(bm.L, _random_state(d, seed=8), np.linspace(0, 1, 4),
                     sectors=[1, 2], store_states=True)
        for l in (1, 2):
            ref = [trace_norm(np.where(np.abs(diff) == l, state, 0))
                   for state in rec.states]
            assert rec.sector_pair_norms[l].tolist() == ref


def test_single_factor_decay_rates():
    spin = build_model(ModelConfig(model="two_spins", omega=1.0, gamma_A=0.9,
                                   gamma_B=0.8, s_A=0.7, s_B=0.4, Omega=1.3))
    assert sector_decay_rate(spin, 0) == 0.0
    assert sector_decay_rate(spin, 1) == pytest.approx(-0.45)
    assert sector_decay_rate(spin, -1) == pytest.approx(-0.45)
    with pytest.raises(ValueError, match="sector 2"):
        sector_decay_rate(spin, 2)
    osc = build_model(ModelConfig(model="optomechanical", omega=2.0, nu=1.5,
                                  kappa=0.6, gamma=0.7, nbar=0.3, mbar=0.1,
                                  g=0.6, n_trunc=(4, 3)))
    # defined past the ladder's eligible sectors too
    assert sector_decay_rate(osc, 4) == pytest.approx(-1.2)


def test_model_decay_rates():
    two, so, om = list(_models())
    assert sector_decay_rate(two, 1) == pytest.approx(-0.5)
    assert sector_decay_rate(so, 1) == pytest.approx(-0.45)
    assert sector_decay_rate(om, 3) == pytest.approx(-1.5)


def test_decay_rates_match_sector_spectrum():
    # uncoupled, the slowest mode of sector l is A's slowest mode there
    # (B contributes its zero eigenvalue); with nbar = 0 the oscillator
    # ladder is exactly triangular, so the truncation does not move it
    for cfg in (
            dict(model="two_spins", omega=1.0, gamma_A=0.8, gamma_B=1.3,
                 s_A=0.7, s_B=0.4, Omega=0.0),
            dict(model="spin_oscillator", omega_A=1.0, omega_B=2.0,
                 gamma_A=0.9, gamma_B=1.1, s=0.3, nbar=0.2, Omega=0.0,
                 n_trunc=5),
            dict(model="optomechanical", omega=2.0, nu=1.5, kappa=0.5,
                 gamma=0.7, nbar=0.0, mbar=0.1, g=0.0, n_trunc=(6, 3))):
        bm = build_model(cfg)
        ls = _eligible_ls(bm)
        assert ls == ([1] if cfg["model"] != "optomechanical"
                      else [1, 2, 3, 4])
        for l in ls:
            M = sector_generator_matrix(bm.L, l)
            assert np.linalg.eigvals(M).real.max() == pytest.approx(
                sector_decay_rate(bm, l), abs=1e-9)


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
    lying = dataclasses.replace(bm, reference_rate=10.0)
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
    (lambda rho: rho, [0.0, np.nan], [1], "t_grid must be finite"),
    (lambda rho: rho, [0.0, 0.5, np.inf], [1], "t_grid must be finite"),
], ids=["non_hermitian", "unnormalized", "non_square", "repeated_time",
        "l_zero", "nan_time", "inf_time"])
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
    # sector pair norms, on a non-uniform grid (a spin A has sector 1 only)
    bm = build_model(cfg)
    d = bm.L.dim
    rho0 = _random_state(d, seed=13)
    t_grid = 3.0 * np.linspace(0.0, 1.0, 9) ** 2
    rep = check_decay_bound(bm, rho0, t_grid, ls=ls)
    rec = evolve(bm.L, rho0, t_grid, sectors=ls, tol=1e-10)
    for l in ls:
        ref = rec.sector_pair_norms[l]
        assert ref.min() > 0.0
        assert np.abs(rep.measured[l] - ref).max() <= 1e-8 * ref.max()


@pytest.mark.parametrize("check", [
    lambda model, rho0: check_decay_bound(
        model, rho0, np.linspace(0.0, 1.0, 5), ls=[1]),
    lambda model, rho0: trotter_compare(model, 1, 1.0, [2, 4])],
    ids=["check_decay_bound", "trotter_compare"])
def test_decay_bound_rejects_non_commuting_generator(check):
    # coupling through A's lowering operator moves weight between
    # sectors, so sector 1 is no closed block of the generator, and
    # neither check may read it as one
    sp_full = hb.space(hb.spin(), hb.oscillator(4))
    sm, splus, sz = hb.mk_spin_ops(hb.spin())
    b = hb.embed(hb.mk_destroy(hb.oscillator(4)), 1, sp_full)
    lower = hb.embed(sm, 0, sp_full)
    H = hb.embed(sz, 0, sp_full) + b.dagger() @ b \
        + 0.5 * ((lower + lower.dagger()) @ (b + b.dagger()))
    L = Liouvillian(sp_full, H, [LindbladTerm(lower, 1.0),
                                 LindbladTerm(b, 1.0)])
    model = SimpleNamespace(L=L, a_terms=[LindbladTerm(lower, 1.0)])
    rho0 = _random_state(L.dim, seed=14)
    with pytest.raises(RuntimeError, match="sector 1 is not closed"):
        check(model, rho0)


def test_sector_checks_on_hand_built_commuting_generator():
    # no BuiltModel: a thermal spin A, a 3-level B with a random
    # hamiltonian and one random jump, coupled by diag(f) x X_B, which
    # commutes with A's excitation; the checks read only L, the
    # reference rate and A's damping channels
    rng = np.random.default_rng(23)

    def herm(n):
        X = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        return 0.5 * (X + X.conj().T)
    sp_full = hb.space(hb.spin(), hb.oscillator(3))
    sm, _, sz = hb.mk_spin_ops(hb.spin())
    lower = hb.embed(sm, 0, sp_full)
    jump = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    H = hb.Operator(sp_full, 1.3 * hb.embed(sz, 0, sp_full).entries
                    + np.kron(np.eye(2), herm(3))
                    + np.kron(np.diag(rng.normal(size=2)), herm(3)))
    gamma, s = 0.8, 0.3
    a_terms = (LindbladTerm(lower, gamma * (1 - s)),
               LindbladTerm(lower.dagger(), gamma * s))
    L = Liouvillian(sp_full, H, a_terms + (LindbladTerm(
        hb.Operator(sp_full, np.kron(np.eye(2), jump)), 0.6),))
    stub = SimpleNamespace(L=L, reference_rate=gamma, a_terms=a_terms)
    rep = check_decay_bound(stub, _random_state(L.dim, seed=24),
                            np.linspace(0.0, 4.0, 17))
    # for a spin A the constant-1 bound is a theorem
    assert list(rep.max_ratio) == [1]
    assert rep.rates[1] == pytest.approx(-0.4)
    assert rep.max_ratio[1] <= 1.0 + 1e-6
    # A's damping is a scalar on sector 1, so the split commutes
    assert trotter_compare(stub, 1, 1.0, [2, 4]).split_commutator_max \
        <= 1e-12


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
