"""Trace-norm decay of the coherence sectors of system A.

Starting the pair in a superposition of A ground and excited state, the
off-diagonal (l = +-1) block of the composite density matrix can only
lose weight: each unit of excitation difference costs at least half the
cheapest decay rate, no matter how strongly the two systems are coupled.
The demo propagates the l = 1 sector block of the spin-oscillator model
exactly, at zero and at strong coupling, and plots the measured sector
norm against the exponential envelope.
"""

import numpy as np

from lindpair import build_model, parse_config, check_decay_bound
from lindpair.hilbert import Operator


def initial_state(bm):
    # (|0> + |1>)/sqrt(2) on the spin, oscillator vacuum
    dim_b = bm.cfg.n_trunc
    psi_a = np.array([1.0, 1.0]) / np.sqrt(2.0)
    psi_b = np.zeros(dim_b)
    psi_b[0] = 1.0
    psi = np.kron(psi_a, psi_b)
    return np.outer(psi, psi.conj())


def run(Omega):
    cfg = parse_config(dict(
        model="spin_oscillator", omega_A=10.0, omega_B=10.0,
        gamma_A=1.0, gamma_B=1.0, s=0.5, nbar=0.0,
        Omega=Omega, n_trunc=10))
    bm = build_model(cfg)
    t = np.linspace(0.0, 10.0, 51)
    rep = check_decay_bound(bm, initial_state(bm), t, ls=[1])
    return t, rep


def main():
    results = {}
    for Omega in (0.0, 5.0):
        t, rep = run(Omega)
        ratio = rep.measured[1] / rep.bounds[1]
        print(f"Omega = {Omega:3.1f}: rate eta_1 = {rep.rates[1]:.3f}, "
              f"max measured/bound = {ratio.max():.9f}")
        results[Omega] = (t, rep)

    # at Omega = 0 the block decays at exactly gamma_A/2
    t, rep = results[0.0]
    slope = np.polyfit(t, np.log(rep.measured[1]), 1)[0]
    print(f"fitted log-slope at Omega = 0: {slope:.6f} (bound rate "
          f"{rep.rates[1]:.6f})")

    try:
        import matplotlib
        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError:
        return

    fig, ax = plt.subplots(figsize=(5.2, 3.6))
    styles = {0.0: ("C0", "o"), 5.0: ("C1", "s")}
    for Omega, (t, rep) in results.items():
        c, m = styles[Omega]
        ax.semilogy(t, rep.measured[1], m, color=c, ms=3,
                    label=rf"measured, $\Omega={Omega:g}$")
        ax.semilogy(t, rep.bounds[1], "-", color=c, lw=1,
                    label=rf"envelope, $\Omega={Omega:g}$")
    ax.set_xlabel(r"$\gamma_A t$")
    ax.set_ylabel(r"$\|Q_1 \rho(t)\|_1$")
    ax.legend(fontsize=8)
    fig.tight_layout()
    fig.savefig("sector_decay.png", dpi=150)
    print("wrote sector_decay.png")


if __name__ == "__main__":
    main()
