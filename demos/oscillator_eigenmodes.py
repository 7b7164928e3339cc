"""Closed-form eigenmodes of the thermally damped harmonic oscillator.

Builds the right/left eigenmatrices of the single-oscillator generator,
checks the eigenvalue residuals against the generator applied directly,
and then reconstructs the relaxation of a superposition state from the
spectral expansion alone, with no time stepping: rho(t) is a finite sum
of modes (n, k) weighted by exp(-gamma (n + |k|/2) t).
"""

import numpy as np

import lindpair.hilbert as hb
from lindpair import LindbladTerm, Liouvillian, osc_eigensystem, evolve
from lindpair.evolve import trace_norm
from lindpair.spectral import TAIL_MARGIN
from lindpair.steady import thermal_state


def damped_oscillator(gamma, nbar, dim):
    sp = hb.space(hb.oscillator(dim))
    b = hb.embed(hb.mk_destroy(hb.oscillator(dim)), 0, sp)
    return Liouvillian(sp, hb.Operator(sp, np.zeros((dim, dim))),
                       [LindbladTerm(b, gamma * (nbar + 1.0)),
                        LindbladTerm(b.dagger(), gamma * nbar)])


def residual_table(es, L):
    """Worst relative residual per mode, evaluated away from the cut."""
    sub = slice(0, es.dim - TAIL_MARGIN)
    rows = []
    for (n, k) in es.pairs():
        lam = es.eigenvalue(n, k)
        R = es.right(n, k)
        res = np.abs((L.apply(R) - lam * R)[sub, sub]).max() \
            / np.abs(R[sub, sub]).max()
        rows.append((n, k, lam.real, res))
    return rows


def spectral_trajectory(es, rho0, t_grid, n_use):
    """Sum of the first ``n_use`` polynomial orders at each sample time."""
    weights = {}
    for (n, k) in es.pairs():
        if n > n_use:
            continue
        weights[(n, k)] = np.trace(es.left(n, k).conj().T @ rho0)
    out = []
    for t in t_grid:
        acc = np.zeros_like(rho0)
        for (n, k), c in weights.items():
            acc = acc + c * np.exp(es.eigenvalue(n, k) * t) * es.right(n, k)
        out.append(acc)
    return out


def main():
    gamma, nbar, dim = 1.0, 0.4, 40
    n_max, k_range = 12, 2
    es = osc_eigensystem(gamma, nbar, n_max, k_range, dim)
    L = damped_oscillator(gamma, nbar, dim)

    rows = residual_table(es, L)
    worst = max(r[-1] for r in rows)
    print(f"{len(rows)} modes built, worst relative residual {worst:.2e}")
    print("lowest eigenvalues (n, k, Re lambda):")
    for n, k, lam, _ in sorted(rows, key=lambda r: -r[2])[:6]:
        print(f"  ({n:2d}, {k:+d})  {lam:8.3f}")

    # stationary mode is the thermal state
    dev = np.abs(es.right(0, 0) - thermal_state(nbar, dim)).max()
    print(f"right (0,0) vs thermal state: max deviation {dev:.2e}")

    # relax a superposition of the two lowest levels
    psi = np.zeros(dim)
    psi[0] = psi[1] = 1.0 / np.sqrt(2.0)
    rho0 = np.outer(psi, psi)
    t_grid = np.linspace(0.0, 4.0, 21)
    direct = evolve(L, rho0, t_grid, store_states=True).states

    print("\nspectral reconstruction error vs polynomial order:")
    for n_use in (2, 4, 8, 12):
        recon = spectral_trajectory(es, rho0, t_grid, n_use)
        err = max(trace_norm(a - b) for a, b in zip(recon, direct))
        print(f"  n <= {n_use:2d}: max trace-norm error {err:.2e}")

    try:
        import matplotlib
        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError:
        return

    fig, (ax1, ax2) = plt.subplots(1, 2, figsize=(9, 3.4))
    for n, k, lam, _ in rows:
        ax1.plot(lam, 0.0, "C0o", ms=3)
    ax1.set_xlabel(r"$\mathrm{Re}\,\lambda_{n,k}/\gamma$")
    ax1.set_yticks([])
    ax1.set_title("eigenvalue ladder")

    n_op = np.diag(np.arange(dim))
    occ_direct = [np.trace(n_op @ s).real for s in direct]
    recon = spectral_trajectory(es, rho0, t_grid, 12)
    occ_recon = [np.trace(n_op @ s).real for s in recon]
    ax2.plot(t_grid, occ_direct, "k-", lw=1, label="time stepping")
    ax2.plot(t_grid, occ_recon, "C1o", ms=3, label="spectral sum")
    ax2.axhline(nbar, color="gray", lw=0.5)
    ax2.set_xlabel(r"$\gamma t$")
    ax2.set_ylabel(r"$\langle b^\dagger b\rangle$")
    ax2.legend(fontsize=8)
    fig.tight_layout()
    fig.savefig("oscillator_eigenmodes.png", dpi=150)
    print("wrote oscillator_eigenmodes.png")


if __name__ == "__main__":
    main()
