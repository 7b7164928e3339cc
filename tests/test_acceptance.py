"""Acceptance suite: one check per shipped guarantee, one line each.

Run as ``pytest tests/test_acceptance.py -v -s`` to see the PASS/FAIL
lines with the measured numbers next to their tolerances.
"""

import time

import numpy as np

from lindpair import hilbert as hb
from lindpair.cli import _fig1, _fig4
from lindpair.evolve import trace_norm
from lindpair.liouvillian import LindbladTerm, Liouvillian
from lindpair.models import ModelConfig, build_model, model_steady
from lindpair.moments import steady_optomech, steady_spin_osc_excitation
from lindpair.sectors import check_decay_bound, trotter_compare
from lindpair.spectral import TAIL_MARGIN, osc_eigensystem, spin_eigensystem
from lindpair.recurrence import damping_recurrence, off_diagonal_witness
from lindpair.steady import solve_steady


def _check(name: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"{name}: {detail}"


def _reduced(rep, factors):
    return hb.partial_trace(rep.rho_st, factors).entries


def test_invariant_A_marginal_across_couplings():
    t0 = time.time()
    grids = {
        "two_spins": [dict(model="two_spins", omega=1.0, gamma_A=1.0,
                           gamma_B=1.0, s_A=0.8, s_B=0.6, Omega=c)
                      for c in (0.0, 0.5, 1.0, 2.0, 5.0)],
        "spin_oscillator": [dict(model="spin_oscillator", omega_A=1.0,
                                 omega_B=1.0, gamma_A=1.0, gamma_B=1.0,
                                 s=0.3, nbar=0.2, Omega=c, n_trunc=15)
                            for c in (0.0, 0.5, 1.0, 2.0, 5.0)],
        "optomechanical": [dict(model="optomechanical", omega=1.0, nu=1.5,
                                kappa=1.0, gamma=0.9, nbar=0.2, mbar=0.1,
                                g=c, n_trunc=(12, 15))
                           for c in (0.0, 0.3, 0.9)],
    }
    worst_inv = 0.0
    coupled_dev = {name: 0.0 for name in grids}
    for name, cfgs in grids.items():
        for raw in cfgs:
            bm = build_model(ModelConfig(**raw))
            rep = model_steady(bm)
            inv = trace_norm(_reduced(rep, bm.a_factors)
                             - bm.analytic_A_steady)
            worst_inv = max(worst_inv, inv)
            coupling = raw.get("Omega", raw.get("g"))
            if coupling:
                dev = trace_norm(_reduced(rep, bm.b_factors)
                                 - bm.analytic_B_steady)
                coupled_dev[name] = max(coupled_dev[name], dev)
    wall = time.time() - t0
    ok = worst_inv <= 1e-7 and all(v > 1e-3 for v in coupled_dev.values())
    _check("invariant A marginal", ok,
           f"worst |Tr_B(rho_st) - rho_A| = {worst_inv:.2e} (tol 1e-7); "
           f"B-side deviation at coupling "
           + ", ".join(f"{k}={v:.3f}" for k, v in coupled_dev.items())
           + f" (each > 1e-3); wall {wall:.1f}s")


def test_optomech_stationary_occupations():
    cfg = ModelConfig(model="optomechanical", omega=1.0, nu=1.5, kappa=1.0,
                      gamma=0.9, nbar=0.2, mbar=0.1, g=0.2, n_trunc=(10, 12))
    bm = build_model(cfg)
    rep = model_steady(bm)
    na, nb = cfg.n_trunc
    nA = hb.mk_number(hb.oscillator(na)).entries
    nB = hb.mk_number(hb.oscillator(nb)).entries
    sim_a = float(np.trace(nA @ _reduced(rep, (0,))).real)
    sim_b = float(np.trace(nB @ _reduced(rep, (1,))).real)
    ref_a, ref_b = steady_optomech(cfg)
    da, db = abs(sim_a - ref_a), abs(sim_b - ref_b)
    _check("optomech stationary occupations", da <= 1e-6 and db <= 1e-5,
           f"|<a+a> - formula| = {da:.2e} (tol 1e-6), "
           f"|<b+b> - formula| = {db:.2e} (tol 1e-5)")


def test_spin_osc_stationary_excitation():
    worst = 0.0
    for s in (0.0, 0.5, 0.9):
        for Om in (0.5, 2.0):
            for nbar in (0.0, 0.5):
                cfg = ModelConfig(model="spin_oscillator", omega_A=1.0,
                                  omega_B=1.0, gamma_A=1.0, gamma_B=1.0,
                                  s=s, nbar=nbar, Omega=Om, n_trunc=45)
                bm = build_model(cfg)
                rep = model_steady(bm)
                n_op = hb.mk_number(hb.oscillator(45)).entries
                sim = float(np.trace(n_op @ _reduced(rep, (1,))).real)
                worst = max(worst, abs(sim - steady_spin_osc_excitation(cfg)))
    # pure spin decay shuts the fluctuation channel: coherent term only
    cfg0 = ModelConfig(model="spin_oscillator", omega_A=1.0, omega_B=1.0,
                       gamma_A=1.0, gamma_B=1.0, s=0.0, nbar=0.0,
                       Omega=0.5, n_trunc=45)
    coh = 4.0 * 0.5 ** 2 / (1.0 + 4.0)
    exact_gap = abs(steady_spin_osc_excitation(cfg0) - coh)
    bm0 = build_model(cfg0)
    sim0 = float(np.trace(hb.mk_number(hb.oscillator(45)).entries
                          @ _reduced(model_steady(bm0), (1,))).real)
    ok = worst <= 1e-5 and exact_gap == 0.0 and abs(sim0 - coh) <= 1e-6
    _check("spin-oscillator stationary excitation", ok,
           f"worst |sim - formula| = {worst:.2e} over 12 configs (tol 1e-5); "
           f"pure-decay case formula gap {exact_gap:.1e} (exact), "
           f"sim gap {abs(sim0 - coh):.2e} (tol 1e-6)")


def test_sector_decay_bound():
    t_grid = np.linspace(0.0, 10.0, 51)
    ratios, slope = {}, None
    for Om in (0.0, 5.0):
        cfg = ModelConfig(model="spin_oscillator", omega_A=10.0,
                          omega_B=10.0, gamma_A=1.0, gamma_B=1.0, s=0.5,
                          nbar=0.0, Omega=Om, n_trunc=10)
        bm = build_model(cfg)
        psiA = np.array([1.0, 1.0]) / np.sqrt(2.0)
        psiB = np.zeros(10)
        psiB[0] = 1.0
        psi = np.kron(psiA, psiB).astype(complex)
        rho0 = np.outer(psi, psi)
        rep = check_decay_bound(bm, rho0, t_grid, ls=[1], tol_bound=1e-6)
        ratios[Om] = rep.max_ratio[1]
        if Om == 0.0:
            slope = float(np.polyfit(t_grid,
                                     np.log(rep.measured[1]), 1)[0])
    worst = max(ratios.values())
    ok = worst <= 1.0 + 1e-6 and abs(slope + 0.5) <= 0.005
    _check("sector-1 decay bound", ok,
           f"max measured/bound = {worst:.9f} (tol 1 + 1e-6) over "
           f"coupling 0 and 5; uncoupled log-slope {slope:.6f} "
           f"(within 1% of -0.5)")


def test_damped_oscillator_eigensystem():
    gamma, dim = 1.0, 40
    sub = slice(0, dim - TAIL_MARGIN)
    worst_res = worst_gram = 0.0
    for nbar in (0.3, 1.0):
        es = osc_eigensystem(gamma, nbar, 5, 5, dim)
        sp = hb.space(hb.oscillator(dim))
        b = hb.embed(hb.mk_destroy(hb.oscillator(dim)), 0, sp)
        L = Liouvillian(sp, hb.Operator(sp, np.zeros((dim, dim))),
                        [LindbladTerm(b, gamma * (nbar + 1.0)),
                         LindbladTerm(b.dagger(), gamma * nbar)])
        for (n, k) in es.pairs():
            lam = es.eigenvalue(n, k)
            r, lft = es.right(n, k), es.left(n, k)
            res_r = np.abs((L.apply(r) - lam * r)[sub, sub]).max() \
                / max(np.abs(r[sub, sub]).max(), 1e-300)
            res_l = np.abs((L.adjoint_apply(lft)
                            - np.conj(lam) * lft)[sub, sub]).max() \
                / max(np.abs(lft[sub, sub]).max(), 1e-300)
            worst_res = max(worst_res, res_r, res_l)
        G, keep, labels = es.gram()
        gram_dev = np.abs(np.where(keep, G - np.eye(len(labels)), 0.0)).max()
        worst_gram = max(worst_gram, gram_dev)
    # the dissipative two-level eigensystem is exact
    se = spin_eigensystem(1.4, 0.3)
    spn = hb.space(hb.spin())
    sm, sp_, _ = hb.mk_spin_ops(hb.spin())
    Ls = Liouvillian(spn, hb.Operator(spn, np.zeros((2, 2))),
                     [LindbladTerm(hb.embed(sm, 0, spn), 1.4 * 0.7),
                      LindbladTerm(hb.embed(sp_, 0, spn), 1.4 * 0.3)])
    worst_spin = 0.0
    for lam, right, left in zip(se.eigenvalues, se.right, se.left):
        worst_spin = max(worst_spin,
                         np.abs(Ls.apply(right) - lam * right).max(),
                         np.abs(Ls.adjoint_apply(left)
                                - np.conj(lam) * left).max())
    Gs = np.array([[np.trace(l.conj().T @ r) for r in se.right]
                   for l in se.left])
    worst_spin = max(worst_spin, np.abs(Gs - np.eye(4)).max())
    ok = worst_res <= 1e-8 and worst_gram <= 1e-8 and worst_spin <= 1e-12
    _check("damped-oscillator eigensystem", ok,
           f"worst relative residual {worst_res:.2e} over n<=5, |k|<=5, "
           f"occupation 0.3 and 1.0 (tol 1e-8); Gram deviation "
           f"{worst_gram:.2e} (tol 1e-8); two-level system exact to "
           f"{worst_spin:.2e} (tol 1e-12)")


def test_pure_damping_steady_structure():
    dim = 60
    worst_diag = worst_off = 0.0
    for eps in (0.0, 0.3, 0.7):
        sp = hb.space(hb.oscillator(dim))
        b = hb.embed(hb.mk_destroy(hb.oscillator(dim)), 0, sp)
        terms = [LindbladTerm(b, 1.0)]
        if eps > 0:
            terms.append(LindbladTerm(b.dagger(), eps))
        L = Liouvillian(sp, hb.Operator(sp, np.zeros((dim, dim))), terms)
        rho = solve_steady(L).rho_st.entries
        if eps > 0:
            expect = eps ** np.arange(dim) * (1.0 - eps)
            expect /= expect.sum()
        else:
            expect = np.zeros(dim)
            expect[0] = 1.0
        worst_diag = max(worst_diag,
                         np.abs(np.diag(rho).real - expect).max())
        off = rho - np.diag(np.diag(rho))
        worst_off = max(worst_off, np.abs(off).max())
    # recurrence-side witness: closed form, Stirling floor, exact
    # coefficient positivity (the builders raise on any violation)
    r, sums, lower = off_diagonal_witness(0.0, 1, 10000)
    stirling_ok = bool(np.all(r > lower))
    for l in range(1, 6):
        damping_recurrence(1.0, 0.4, l, 25)
    ok = worst_diag <= 1e-9 and worst_off <= 1e-10 and stirling_ok
    _check("pure-damping steady structure", ok,
           f"diagonal vs geometric {worst_diag:.2e} (tol 1e-9), "
           f"off-diagonal {worst_off:.2e} (tol 1e-10) at ratios 0/0.3/0.7; "
           f"recurrence floor holds to n=10000; coefficients exact to "
           f"n=25, l=5")


def test_sector_split_propagation():
    bm = build_model(ModelConfig(model="spin_oscillator", omega_A=1.0,
                                 omega_B=1.0, gamma_A=1.0, gamma_B=0.8,
                                 s=0.3, nbar=0.2, Omega=0.7, n_trunc=12))
    rep = trotter_compare(bm, 1, 1.0, [2, 4, 8])
    commuting_ok = rep.split_commutator_max <= 1e-10 \
        and rep.max_error <= 1e-10
    bm2 = build_model(ModelConfig(model="optomechanical", omega=1.0, nu=1.5,
                                  kappa=1.0, gamma=0.9, nbar=0.2, mbar=0.1,
                                  g=0.6, n_trunc=(4, 4)))
    rep2 = trotter_compare(bm2, 1, 1.0, [16, 32, 64])
    ratio = rep2.errors[64] / rep2.errors[32]
    order_ok = abs(ratio - 0.5) <= 0.1
    _check("sector-restricted split propagation", commuting_ok and order_ok,
           f"spin-coherence sector splits exactly (commutator "
           f"{rep.split_commutator_max:.1e}, error {rep.max_error:.1e}, "
           f"tol 1e-10); generic sector halves its error per step "
           f"doubling (ratio {ratio:.3f}, within 20% of 0.5)")


def test_figure_reproduction(tmp_path):
    _fig1(tmp_path)
    data = np.genfromtxt(tmp_path / "fig1.csv", delimiter=",", names=True)
    sz_a_dev = max(np.abs(data["sz_A_omega1"] - 0.6).max(),
                   np.abs(data["sz_A_omega10"] - 0.6).max())
    decr = all(np.all(np.diff(data[c]) < 0)
               for c in ("sz_B_omega1", "sz_B_omega10"))
    tails = {w: data[f"sz_B_omega{w}"][-1] for w in (1, 10)}
    toward_zero = all(0.0 < v < 0.5 * data[f"sz_B_omega{w}"][0]
                      for w, v in tails.items()) and min(tails.values()) < 0.01
    finals = _fig4(tmp_path)
    ok = sz_a_dev <= 1e-8 and decr and toward_zero \
        and all(v < 1e-4 for v in finals.values())
    _check("figure reproduction", ok,
           f"driven pair: A polarization pinned at 0.6 "
           f"(dev {sz_a_dev:.1e}, tol 1e-8), B polarization strictly "
           f"decreasing toward zero (tails "
           + ", ".join(f"{v:.4f} at omega={w}" for w, v in tails.items())
           + "); oscillator pair: distance to the A fixed point at t=20 is "
           + ", ".join(f"{v:.2e} (g={k:g})" for k, v in finals.items())
           + " (tol 1e-4)")
