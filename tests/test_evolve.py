"""Trajectory recording, trace norms, truncation certification."""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lindpair import hilbert as hb
from lindpair.evolve import certify_truncation, evolve, trace_norm
from lindpair.liouvillian import Liouvillian, LindbladTerm
from lindpair.models import ModelConfig, build_model, model_steady


def _herm(rng, n):
    X = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return 0.5 * (X + X.conj().T)


def test_trace_norm_known_values():
    assert trace_norm(np.array([[0.0, 1.0], [0.0, 0.0]])) == pytest.approx(1.0)
    assert trace_norm(np.diag([3.0, -4.0])) == pytest.approx(7.0)
    assert trace_norm(np.zeros((3, 3))) == 0.0
    rng = np.random.default_rng(0)
    X = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    rho = X @ X.conj().T
    rho /= np.trace(rho).real
    assert trace_norm(rho) == pytest.approx(1.0)


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 6), st.integers(0, 10 ** 6))
def test_trace_norm_branches_agree(n, seed):
    H = _herm(np.random.default_rng(seed), n)
    herm_branch = trace_norm(H)
    # breaking hermiticity far beyond the branch tolerance forces SVD,
    # whose value at the original matrix must coincide
    svd_value = float(np.linalg.svd(H, compute_uv=False).sum())
    assert herm_branch == pytest.approx(svd_value, rel=1e-10, abs=1e-12)


def test_trace_norm_rejects_nonsquare():
    with pytest.raises(ValueError):
        trace_norm(np.zeros((2, 3)))


def _damped_oscillator(dim=12, kappa=0.7, nbar=0.25):
    sp = hb.space(hb.oscillator(dim))
    b = hb.embed(hb.mk_destroy(hb.oscillator(dim)), 0, sp)
    H = hb.Operator(sp, np.zeros((dim, dim), dtype=complex))
    L = Liouvillian(sp, H, [LindbladTerm(b, kappa * (nbar + 1)),
                            LindbladTerm(b.dagger(), kappa * nbar)])
    return sp, L


def test_damped_oscillator_mean_occupation():
    # dim 20 keeps the thermal leakage above level 19 below 1e-10, so
    # the comparison probes the propagator, not the ladder cut
    dim, kappa, nbar = 20, 0.7, 0.25
    sp, L = _damped_oscillator(dim, kappa, nbar)
    n_op = hb.embed(hb.mk_number(hb.oscillator(dim)), 0, sp)
    rho0 = np.zeros((dim, dim), dtype=complex)
    rho0[3, 3] = 1.0
    t = np.linspace(0.0, 4.0, 9)
    rec = evolve(L, rho0, t, observables={"n": n_op})
    expect = nbar + (3.0 - nbar) * np.exp(-kappa * t)
    assert np.abs(rec.observables["n"].real - expect).max() < 1e-8


def test_apply_inputs_are_column_major(monkeypatch):
    # L.apply reads column-major states without a copy; evolve must hand
    # it only those, even from a row-major initial state
    sp, L = _damped_oscillator(6)
    seen = []
    apply = L.apply

    def spy(X):
        seen.append(X.flags.f_contiguous)
        return apply(X)

    monkeypatch.setattr(L, "apply", spy)
    rho = np.zeros((6, 6), dtype=complex)
    rho[2, 2] = 1.0
    evolve(L, rho, np.linspace(0.0, 1.0, 3))
    assert seen and all(seen)


def test_record_counts_rhs_evals(monkeypatch):
    # the benchmark's hand-count config: two spins on three samples
    bm = build_model(dict(model="two_spins", omega=1.0, gamma_A=1.0,
                          gamma_B=1.0, s_A=0.8, s_B=0.6, Omega=1.0))
    psi = np.kron(np.array([1.0, 1.0]) / np.sqrt(2.0), np.array([1.0, 0.0]))
    rho0 = np.outer(psi, psi).astype(complex)
    calls = 0
    apply = bm.L.apply

    def counting(X):
        nonlocal calls
        calls += 1
        return apply(X)

    monkeypatch.setattr(bm.L, "apply", counting)
    rec = evolve(bm.L, rho0, np.linspace(0.0, 1.0, 3),
                 distance_target=bm.analytic_A_steady)
    assert calls > 0 and rec.rhs_evals == calls
    assert rec.integrate_s > 0.0
    # a single sample integrates nothing
    rec = evolve(bm.L, rho0, [0.0])
    assert rec.rhs_evals == 0


def test_contraction_in_trace_norm():
    sp, L = _damped_oscillator(8, 1.0, 0.1)
    rng = np.random.default_rng(4)

    def state(seed):
        X = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        r = X @ X.conj().T
        return r / np.trace(r).real

    r1, r2 = state(0), state(1)
    t = np.linspace(0.0, 3.0, 7)
    rec1 = evolve(L, r1, t, store_states=True)
    rec2 = evolve(L, r2, t, store_states=True)
    dists = [trace_norm(a - b) for a, b in zip(rec1.states, rec2.states)]
    assert all(d2 <= d1 + 1e-9 for d1, d2 in zip(dists, dists[1:]))


def test_distance_and_sector_recording():
    cfg = ModelConfig(model="spin_oscillator", omega_A=1.0, omega_B=1.0,
                      gamma_A=1.0, gamma_B=1.0, s=0.5, nbar=0.0, Omega=0.5,
                      n_trunc=6)
    bm = build_model(cfg)
    d = bm.L.dim
    psi = np.zeros(d, dtype=complex)
    psi[0] = psi[6] = 1.0 / np.sqrt(2.0)
    rho0 = np.outer(psi, psi.conj())
    t = np.linspace(0.0, 2.0, 5)
    rng = np.random.default_rng(7)
    obs = {"n_B": hb.embed(hb.mk_number(bm.L.space.factors[1]), 1,
                           bm.L.space),
           "X": rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))}
    rec = evolve(bm.L, rho0, t, observables=obs,
                 distance_target=bm.analytic_A_steady,
                 keep_factors=(0,),
                 sectors=[1],
                 store_states=True)
    assert rec.trace_norm_distance_to_A_steady.shape == (5,)
    assert np.all(np.diff(rec.sector_pair_norms[1]) < 0)
    assert rec.final_state.shape == (d, d)
    for name, O in obs.items():
        O = np.asarray(getattr(O, "entries", O))
        ref = np.array([np.trace(O @ rho) for rho in rec.states])
        err = np.abs(rec.observables[name] - ref).max()
        assert err <= 1e-12 * np.abs(ref).max()


def test_unnormalized_initial_state_rejected():
    sp, L = _damped_oscillator(6)
    with pytest.raises(ValueError):
        evolve(L, np.eye(6, dtype=complex), [0.0, 1.0])


def test_decreasing_grid_rejected():
    sp, L = _damped_oscillator(6)
    rho = np.zeros((6, 6), dtype=complex)
    rho[0, 0] = 1.0
    with pytest.raises(ValueError):
        evolve(L, rho, [0.0, 2.0, 1.0])


@pytest.mark.parametrize("t_end", [np.nan, np.inf])
def test_nonfinite_grid_rejected(t_end, monkeypatch):
    # a nan or inf time passed the increasing check and returned the
    # initial state unpropagated
    sp, L = _damped_oscillator(6)
    rho = np.zeros((6, 6), dtype=complex)
    rho[0, 0] = 1.0
    monkeypatch.setattr(L, "apply", lambda rho: pytest.fail("propagated"))
    with pytest.raises(ValueError, match="t_grid must be finite"):
        evolve(L, rho, [0.0, t_end])


@pytest.mark.parametrize("kwargs, match", [
    (dict(rho0=np.eye(5) / 5),
     r"rho0 must be a \(6, 6\) matrix, got shape \(5, 5\)"),
    (dict(rho0=np.eye(6)[:, :5] / 5), r"rho0 must be a \(6, 6\) matrix"),
    (dict(observables={"n": np.eye(3)}), r"observable 'n' must be a \(6, 6\)"),
    (dict(distance_target=np.eye(6) / 6),
     r"distance_target must be a \(2, 2\) matrix, got shape \(6, 6\)"),
    (dict(distance_target=np.eye(2) / 2, keep_factors=(1,)),
     r"distance_target must be a \(3, 3\)"),
    (dict(distance_target=np.eye(2) / 2, keep_factors=(0, 2)),
     "keep_factors must name factors"),
], ids=["rho0_wrong_dim", "rho0_non_square", "observable", "target_wrong_dim",
        "target_kept_B", "keep_out_of_range"])
def test_evolve_rejects_bad_shapes(kwargs, match, monkeypatch):
    # each argument is named before any step; spin A x 3-level B, d = 6
    bm = build_model(dict(model="spin_oscillator", omega_A=1.0, omega_B=1.0,
                          gamma_A=1.0, gamma_B=1.0, s=0.5, nbar=0.0,
                          Omega=0.5, n_trunc=3))
    monkeypatch.setattr(bm.L, "apply", lambda rho: pytest.fail("propagated"))
    rest = dict(kwargs)
    rho0 = rest.pop("rho0", np.diag([1.0, 0, 0, 0, 0, 0]))
    with pytest.raises(ValueError, match=match):
        evolve(bm.L, rho0, [0.0, 1.0], **rest)


def test_trace_drift_aborts():
    # a non-trace-preserving stand-in triggers the drift guard
    fake = SimpleNamespace(apply=lambda rho: 0.05 * rho, dim=3, space=None)
    rho = np.eye(3, dtype=complex) / 3.0
    with pytest.raises(RuntimeError, match="trace drifted"):
        evolve(fake, rho, np.linspace(0.0, 5.0, 6))


def test_certify_truncation_converged():
    cfg = ModelConfig(model="spin_oscillator", omega_A=1.0, omega_B=1.0,
                      gamma_A=1.0, gamma_B=1.0, s=0.5, nbar=0.2, Omega=0.5,
                      n_trunc=20)

    def extractor(c):
        bm = build_model(c)
        rep = model_steady(bm)
        nB = hb.embed(hb.mk_number(bm.L.space.factors[1]), 1,
                      bm.L.space).entries
        return float(np.trace(nB @ rep.rho_st.entries).real)

    shift = certify_truncation(cfg, extractor)
    assert shift < 1e-6


def test_certify_truncation_without_oscillator():
    cfg = ModelConfig(model="two_spins", omega=1.0, gamma_A=1.0,
                      gamma_B=1.0, s_A=0.8, s_B=0.6, Omega=1.0)
    assert certify_truncation(cfg, lambda c: 1.0) == 0.0
