"""Sweep the coupling strength for all three model pairs and watch the
reduced state of system A stay pinned to its uncoupled fixed point while
the reduced state of system B drifts away.
"""

import numpy as np

from lindpair import build_model, model_steady, parse_config, partial_trace
from lindpair.evolve import trace_norm


def marginal_distances(cfg):
    """Solve the composite steady state and return both marginal gaps."""
    bm = build_model(cfg)
    rep = model_steady(bm)
    redA = partial_trace(rep.rho_st, bm.a_factors)
    redB = partial_trace(rep.rho_st, bm.b_factors)
    dA = trace_norm(redA.entries - bm.analytic_A_steady)
    dB = trace_norm(redB.entries - bm.analytic_B_steady)
    return dA, dB, rep.residual


def sweep(base, key, values):
    rows = []
    for v in values:
        cfg = parse_config(dict(base, **{key: v}))
        dA, dB, res = marginal_distances(cfg)
        rows.append((v, dA, dB, res))
    return rows


def main():
    couplings = [0.0, 0.5, 1.0, 2.0, 5.0]
    cases = {
        "two_spins": (
            dict(model="two_spins", omega=1.0, gamma_A=1.0, gamma_B=1.0,
                 s_A=0.8, s_B=0.3),
            "Omega", couplings),
        "spin_oscillator": (
            dict(model="spin_oscillator", omega_A=1.0, omega_B=1.0,
                 gamma_A=1.0, gamma_B=1.0, s=0.3, nbar=0.2, n_trunc=15),
            "Omega", couplings),
        "optomechanical": (
            dict(model="optomechanical", omega=1.0, nu=1.5, kappa=1.0,
                 gamma=0.9, nbar=0.2, mbar=0.1, n_trunc=(12, 15)),
            "g", [0.0, 0.3, 0.9]),
    }

    all_rows = {}
    for name, (base, key, values) in cases.items():
        rows = sweep(base, key, values)
        all_rows[name] = rows
        print(f"\n{name}  (varying {key})")
        print(f"  {key:>6}  {'|TrB - rhoA|_1':>15}  {'|TrA - rhoB|_1':>15}"
              f"  {'residual':>10}")
        for v, dA, dB, res in rows:
            print(f"  {v:6.2f}  {dA:15.3e}  {dB:15.3e}  {res:10.2e}")

    try:
        import matplotlib
        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError:
        return

    fig, axes = plt.subplots(1, 3, figsize=(11, 3.2), sharey=True)
    for ax, (name, rows) in zip(axes, all_rows.items()):
        v = [r[0] for r in rows]
        ax.semilogy(v, [max(r[1], 1e-16) for r in rows], "o-",
                    label=r"$\|\mathrm{Tr}_B\varrho - \rho_A\|_1$")
        ax.semilogy(v, [max(r[2], 1e-16) for r in rows], "s--",
                    label=r"$\|\mathrm{Tr}_A\varrho - \rho_B\|_1$")
        ax.set_title(name)
        ax.set_xlabel("coupling")
    axes[0].set_ylabel("trace distance")
    axes[0].legend(fontsize=8)
    fig.tight_layout()
    fig.savefig("invariant_marginal.png", dpi=150)
    print("\nwrote invariant_marginal.png")


if __name__ == "__main__":
    main()
