"""Closed moment systems against full density-matrix propagation and
against their stationary closed forms."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lindpair import hilbert as hb
from lindpair.evolve import evolve
from lindpair.models import ModelConfig, build_model
from lindpair.moments import (_SYSTEMS, GaussianAnsatz, MomentStateOptomech,
                              MomentStateSpinOsc, _affine,
                              integrate_gaussian_ansatz, integrate_moments,
                              moments_to_steady, steady_optomech,
                              steady_spin_osc_excitation)


def _so_cfg(**kw):
    base = dict(model="spin_oscillator", omega_A=0.8, omega_B=1.2,
                gamma_A=1.0, gamma_B=1.0, s=0.7, nbar=0.3, Omega=0.5,
                n_trunc=18)
    base.update(kw)
    return ModelConfig(**base)


def _om_cfg(**kw):
    base = dict(model="optomechanical", omega=1.0, nu=1.5, kappa=1.0,
                gamma=0.9, nbar=0.2, mbar=0.1, g=0.2, n_trunc=(10, 12))
    base.update(kw)
    return ModelConfig(**base)


def test_sz_unbiased_pumping_stays_zero():
    # at s = 1/2 the spin polarization has no drift from zero
    cfg = _so_cfg(s=0.5, Omega=2.0)
    res = integrate_moments(cfg, MomentStateSpinOsc(),
                            np.linspace(0.0, 8.0, 17))
    assert np.abs(res["sz"]).max() <= 1e-12


def test_sz_relaxes_to_bias():
    cfg = _so_cfg(s=0.7)
    res = integrate_moments(cfg, MomentStateSpinOsc(),
                            np.linspace(0.0, 40.0, 11))
    assert res["sz"][-1] == pytest.approx(2 * 0.7 - 1.0, abs=1e-10)
    # the system is autonomous: a grid shifted in time gives the same run
    shifted = integrate_moments(cfg, MomentStateSpinOsc(),
                                np.linspace(5.0, 45.0, 11))
    assert np.abs(shifted["b_dag_b"] - res["b_dag_b"]).max() <= 1e-12


def test_spin_osc_moments_match_full_propagation():
    cfg = _so_cfg()
    bm = build_model(cfg)
    d = cfg.n_trunc
    spn, osc = hb.spin(), hb.oscillator(d)
    sp = bm.L.space
    n_op = hb.embed(hb.mk_number(osc), 1, sp)
    sz_op = hb.embed(hb.mk_spin_ops(spn)[2], 0, sp)
    b_op = hb.embed(hb.mk_destroy(osc), 1, sp)
    rho0 = np.kron(0.5 * np.eye(2), np.diag([1.0] + [0.0] * (d - 1))) \
        .astype(complex)
    t_grid = np.linspace(0.0, 6.0, 13)
    rec = evolve(bm.L, rho0, t_grid,
                 observables={"n": n_op, "sz": sz_op, "b": b_op}, tol=1e-9)
    res = integrate_moments(cfg, MomentStateSpinOsc(), t_grid)
    assert np.abs(rec.observables["n"].real - res["b_dag_b"]).max() <= 1e-6
    assert np.abs(rec.observables["sz"].real - res["sz"]).max() <= 1e-8
    assert np.abs(rec.observables["b"] - res["b"]).max() <= 1e-8


def test_optomech_moments_match_full_propagation():
    cfg = _om_cfg()
    bm = build_model(cfg)
    na, nb = cfg.n_trunc
    sp = bm.L.space
    nA = hb.embed(hb.mk_number(hb.oscillator(na)), 0, sp)
    nB = hb.embed(hb.mk_number(hb.oscillator(nb)), 1, sp)
    rho0 = np.zeros((na * nb, na * nb), dtype=complex)
    rho0[0, 0] = 1.0
    t_grid = np.linspace(0.0, 4.0, 9)
    rec = evolve(bm.L, rho0, t_grid, observables={"nA": nA, "nB": nB},
                 tol=1e-9)
    res = integrate_moments(cfg, MomentStateOptomech(), t_grid)
    assert np.abs(rec.observables["nA"].real - res["adaga"]).max() <= 1e-6
    assert np.abs(rec.observables["nB"].real - res["b_dag_b"]).max() <= 1e-5


def test_spin_osc_excitation_closed_form():
    # symmetric pumping at matched rates: nbar + 12/13 with nbar = 0
    cfg = _so_cfg(omega_A=1.0, omega_B=1.0, s=0.5, nbar=0.0, Omega=1.0)
    assert steady_spin_osc_excitation(cfg) == pytest.approx(12.0 / 13.0,
                                                            rel=1e-14)
    # uncoupled limit returns the bath occupation
    assert steady_spin_osc_excitation(_so_cfg(Omega=0.0)) == 0.3
    # pure decay on the spin removes the fluctuation channel
    cfg2 = _so_cfg(s=0.0, nbar=0.0, Omega=0.7)
    expect = 4.0 * 0.7 ** 2 / (1.0 + 4.0 * 1.2 ** 2)
    assert steady_spin_osc_excitation(cfg2) == pytest.approx(expect, rel=1e-14)


def test_optomech_steady_closed_form():
    n_ph, n_b = steady_optomech(_om_cfg(nu=1.0, kappa=1.0, gamma=1.0,
                                        nbar=1.0, mbar=0.0, g=1.0))
    assert n_ph == 1.0
    assert n_b == pytest.approx(0.8 + 24.0 / 13.0, rel=1e-14)
    # decoupled and cold limits
    assert steady_optomech(_om_cfg(g=0.0))[1] == pytest.approx(0.1)
    assert steady_optomech(_om_cfg(nbar=0.0))[1] == pytest.approx(0.1)


def test_moments_settle_to_closed_forms():
    cfg = _so_cfg()
    y = moments_to_steady(cfg)
    assert y[0].real == pytest.approx(steady_spin_osc_excitation(cfg),
                                      rel=1e-12)
    assert y[3].real == pytest.approx(2 * 0.7 - 1.0, rel=1e-12)
    cfg2 = _om_cfg()
    y2 = moments_to_steady(cfg2)
    n_ph, n_b = steady_optomech(cfg2)
    assert y2[0].real == pytest.approx(n_b, rel=1e-12)
    assert y2[4].real == pytest.approx(n_ph, rel=1e-12)
    with pytest.raises(ValueError):
        moments_to_steady(ModelConfig(model="two_spins", omega=1.0,
                                      gamma_A=1.0, gamma_B=1.0, s_A=0.5,
                                      s_B=0.5, Omega=0.5))
    # a moment state of the other model is rejected, naming the model
    with pytest.raises(ValueError, match="spin_oscillator"):
        integrate_moments(cfg, MomentStateOptomech(), [0.0, 1.0])


_freq, _rate, _occ = st.floats(0.0, 3.0), st.floats(0.1, 3.0), st.floats(0.0, 2.0)
_moment_cfgs = st.one_of(
    st.builds(ModelConfig, model=st.just("spin_oscillator"), omega_A=_freq,
              omega_B=_freq, gamma_A=_rate, gamma_B=_rate,
              s=st.floats(0.0, 1.0), nbar=_occ, Omega=st.floats(0.0, 3.0),
              n_trunc=st.just(4)),
    st.builds(ModelConfig, model=st.just("optomechanical"), omega=_freq,
              nu=_freq, kappa=_rate, gamma=_rate, nbar=_occ, mbar=_occ,
              g=st.floats(0.0, 3.0), n_trunc=st.just((4, 4))),
)


@settings(max_examples=50, deadline=None)
@given(_moment_cfgs, st.integers(0, 10 ** 6))
def test_random_moment_fixed_points(cfg, seed):
    y = moments_to_steady(cfg)
    if cfg.model == "spin_oscillator":
        expect = {0: steady_spin_osc_excitation(cfg), 3: 2 * cfg.s - 1.0}
    else:
        n_ph, n_b = steady_optomech(cfg)
        expect = {0: n_b, 4: n_ph}
    for k, v in expect.items():
        assert y[k].real == pytest.approx(v, rel=1e-12)
    # the affine form read off the printed equations reproduces them
    M, c = _affine(cfg)
    n = len(c) // 2
    x = np.random.default_rng(seed).normal(size=2 * n)
    dy = _SYSTEMS[cfg.model][0](cfg)(x[:n] + 1j * x[n:])
    flow = np.concatenate([dy.real, dy.imag])
    assert np.abs(M @ x + c - flow).max() <= 1e-13 * max(1.0, np.abs(flow).max())


def test_moment_parameter_validation():
    with pytest.raises(ValueError):
        steady_spin_osc_excitation(
            type("C", (), {"omega_B": 1.0, "gamma_A": 1.0, "gamma_B": 0.0,
                           "Omega": 1.0, "s": 0.5, "nbar": 0.0})())
    with pytest.raises(ValueError):
        steady_optomech(
            type("C", (), {"nu": 1.0, "kappa": 0.0, "gamma": 1.0,
                           "g": 1.0, "nbar": 0.0, "mbar": 0.0})())


# -- quasi-probability ansatz coefficients --------------------------------


def test_ansatz_drift_without_drive():
    # Omega = 0, omega_A = 0, nbar = 0 from the origin: only the constant
    # drift gamma_A/2 - gamma_B acts on a, everything else stays put
    cfg = _so_cfg(omega_A=0.0, gamma_A=0.7, gamma_B=0.3, nbar=0.0,
                  Omega=0.0)
    t = np.linspace(0.0, 10.0, 41)
    res = integrate_gaussian_ansatz(cfg, GaussianAnsatz(), t)
    assert not res["diverged"]
    assert res["re_a_slope"] == pytest.approx(0.7 / 2 - 0.3, rel=1e-9)
    assert np.abs(res["a"].real - (0.7 / 2 - 0.3) * t).max() <= 1e-9
    b, c, d = res["final_bcd"]
    assert abs(b) + abs(c) + abs(d) == 0.0


def test_ansatz_width_fixed_points():
    # d has fixed points 0 and 1/nbar; the upper one attracts from above
    # and below, and sitting exactly on either one is stationary
    cfg = _so_cfg(gamma_A=0.7, nbar=0.4, Omega=0.0)
    t = np.linspace(0.0, 60.0, 301)
    for d0 in (0.2, 4.0):
        res = integrate_gaussian_ansatz(cfg, GaussianAnsatz(d=d0), t)
        assert not res["diverged"]
        assert res["d"][-1].real == pytest.approx(1.0 / 0.4, abs=1e-8)
        assert res["re_a_slope"] == pytest.approx(0.7 / 2, abs=1e-6)
    res0 = integrate_gaussian_ansatz(cfg, GaussianAnsatz(d=1.0 / 0.4),
                                     np.linspace(0.0, 5.0, 21))
    assert np.abs(res0["d"] - 1.0 / 0.4).max() <= 1e-9


def test_ansatz_slope_with_drive():
    # on the attracting branch the tail slope of Re a picks up a positive
    # shift above gamma_A/2, quadratic in the coupling
    gA, gB, Om, wB, nbar = 0.7, 1.3, 0.8, 1.1, 0.4
    cfg = _so_cfg(omega_A=0.9, omega_B=wB, gamma_A=gA, gamma_B=gB,
                  nbar=nbar, Omega=Om)
    t = np.linspace(0.0, 80.0, 401)
    res = integrate_gaussian_ansatz(cfg, GaussianAnsatz(d=0.2), t)
    assert not res["diverged"]
    expect = gA / 2 + 2.0 * gB * Om ** 2 * (1 + 2 * nbar) \
        / (wB ** 2 + (gB / 2) ** 2)
    assert res["re_a_slope"] == pytest.approx(expect, rel=1e-6)


def test_ansatz_divergence_below_basin():
    # nbar = 0 leaves d with a single repulsive fixed point at 0
    cfg = _so_cfg(gamma_A=0.7, nbar=0.0, Omega=0.0)
    t = np.linspace(0.0, 20.0, 201)
    res = integrate_gaussian_ansatz(cfg, GaussianAnsatz(d=-0.5), t)
    assert res["diverged"]
    assert res["re_a_slope"] is None
    assert len(res["times"]) < len(t)


def test_ansatz_divergence_driven_cold():
    # cold bath with drive: b and c have positive linear growth rate
    cfg = _so_cfg(gamma_A=0.7, nbar=0.0, Omega=1.0)
    t = np.linspace(0.0, 40.0, 161)
    res = integrate_gaussian_ansatz(cfg, GaussianAnsatz(), t)
    assert res["diverged"]
    assert res["re_a_slope"] is None
