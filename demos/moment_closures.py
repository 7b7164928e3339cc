"""Closed moment hierarchies versus the full master equation.

Both coupled pairs admit a finite set of operator expectations whose
equations of motion close on themselves, so the occupation dynamics of
system B comes out of a handful of ODEs instead of a density matrix.
The demo runs both routes and overlays them, then compares the
long-time limits with the closed-form stationary values.
"""

import numpy as np

from lindpair import (
    MomentStateOptomech, MomentStateSpinOsc,
    build_model, evolve, parse_config,
    integrate_moments,
    steady_optomech, steady_spin_osc_excitation,
)
import lindpair.hilbert as hb


def spin_osc_case():
    cfg = parse_config(dict(
        model="spin_oscillator", omega_A=0.8, omega_B=1.2,
        gamma_A=1.0, gamma_B=1.0, s=0.7, nbar=0.3,
        Omega=0.5, n_trunc=18))
    bm = build_model(cfg)
    t = np.linspace(0.0, 8.0, 33)

    # full evolution from maximally mixed spin x oscillator vacuum
    dim_b = cfg.n_trunc
    rho_b = np.zeros((dim_b, dim_b))
    rho_b[0, 0] = 1.0
    rho0 = np.kron(np.eye(2) / 2.0, rho_b)
    number = hb.embed(hb.mk_number(hb.oscillator(dim_b)), 1, bm.L.space)
    rec = evolve(bm.L, rho0, t, observables={"n": number})

    # maximally mixed spin and empty oscillator: every moment starts at 0
    mom = integrate_moments(cfg, MomentStateSpinOsc(), t)
    return cfg, t, rec.observables["n"].real, mom


def optomech_case():
    cfg = parse_config(dict(
        model="optomechanical", omega=1.0, nu=1.5, kappa=1.0,
        gamma=0.9, nbar=0.2, mbar=0.1, g=0.2, n_trunc=(10, 12)))
    bm = build_model(cfg)
    t = np.linspace(0.0, 6.0, 25)

    dims = cfg.n_trunc
    rho0 = np.zeros((dims[0] * dims[1],) * 2)
    rho0[0, 0] = 1.0
    nb = hb.embed(hb.mk_number(hb.oscillator(dims[1])), 1, bm.L.space)
    rec = evolve(bm.L, rho0, t, observables={"nb": nb})

    mom = integrate_moments(cfg, MomentStateOptomech(), t)
    return cfg, t, rec.observables["nb"].real, mom


def main():
    cfg1, t1, full1, mom1 = spin_osc_case()
    gap1 = np.abs(full1 - mom1["b_dag_b"]).max()
    target1 = steady_spin_osc_excitation(cfg1)
    print(f"spin-oscillator: max |full - closure| = {gap1:.2e} "
          f"over t in [0, {t1[-1]:g}]")
    print(f"  stationary <b'b>: closure tail {mom1['b_dag_b'][-1]:.8f}, "
          f"formula {target1:.8f}")

    cfg2, t2, full2, mom2 = optomech_case()
    gap2 = np.abs(full2 - mom2["b_dag_b"]).max()
    na_st, nb_st = steady_optomech(cfg2)
    print(f"optomechanical: max |full - closure| = {gap2:.2e} "
          f"over t in [0, {t2[-1]:g}]")
    print(f"  stationary <a'a> formula {na_st:.8f}, "
          f"<b'b> formula {nb_st:.8f} "
          f"(closure tail {mom2['b_dag_b'][-1]:.8f})")

    try:
        import matplotlib
        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError:
        return

    fig, (ax1, ax2) = plt.subplots(1, 2, figsize=(9, 3.4))
    ax1.plot(t1, full1, "k-", lw=1, label="master equation")
    ax1.plot(t1, mom1["b_dag_b"], "C0o", ms=3, label="moment closure")
    ax1.axhline(target1, color="gray", lw=0.5)
    ax1.set_title("spin-oscillator")
    ax2.plot(t2, full2, "k-", lw=1, label="master equation")
    ax2.plot(t2, mom2["b_dag_b"], "C1o", ms=3, label="moment closure")
    ax2.axhline(nb_st, color="gray", lw=0.5)
    ax2.set_title("optomechanical")
    for ax in (ax1, ax2):
        ax.set_xlabel("t")
        ax.set_ylabel(r"$\langle b^\dagger b\rangle$")
        ax.legend(fontsize=8)
    fig.tight_layout()
    fig.savefig("moment_closures.png", dpi=150)
    print("wrote moment_closures.png")


if __name__ == "__main__":
    main()
