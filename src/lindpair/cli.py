"""Command-line front end.

Subcommands: ``run`` (time evolution to CSV), ``steady`` (fixed point,
reduced states and invariance norms), ``spectrum`` (eigenvalue tables),
``verify`` (invariant suite as JSON, exit code reflects pass/fail) and
``figure {1,2,3,4}`` (the standard parameter studies).  All time axes
are scaled by the model's reference rate and complex values are written
as re,im column pairs.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import sys
from pathlib import Path

import numpy as np

from . import hilbert as hb
from .evolve import ENLARGE, certify_truncation, evolve, trace_norm
from .liouvillian import sector_labels, sparse_superoperator
from .models import BuiltModel, ModelConfig, build_model, model_steady, parse_config
from .moments import steady_spin_osc_excitation
from .spectral import spin_eigensystem


def _outdir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_csv(path: Path, header: list, rows) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)
    print(f"wrote {path}")


def _write_matrix_pair(out: Path, stem: str, mat: np.ndarray) -> None:
    # the bytes csv.writer would write: %.16e values, comma-separated,
    # CRLF row endings.  Each distinct value is formatted once, told
    # apart by its bits so that -0.0 keeps its sign: a steady state is
    # mostly exact zeros outside its sector block
    for part, data in (("re", mat.real), ("im", mat.imag)):
        bits, at = np.unique(data.view(np.int64), return_inverse=True)
        text = np.array(["%.16e" % v for v in bits.view(float).tolist()],
                        dtype=object)[at.reshape(data.shape)]
        path = out / f"{stem}_{part}.csv"
        with open(path, "w", newline="") as fh:
            fh.writelines(",".join(row) + "\r\n" for row in text.tolist())
        print(f"wrote {path}")


def _default_initial(bm: BuiltModel) -> np.ndarray:
    # equal superposition of the two lowest A levels, B in its ground
    # state: populates the l=1 sector so decay is visible
    dA = bm.L.space.dims[0]
    dB = bm.L.dim // dA
    psiA = np.zeros(dA, dtype=complex)
    psiA[0] = psiA[1] = 1.0 / np.sqrt(2.0)
    psiB = np.zeros(dB, dtype=complex)
    psiB[0] = 1.0
    psi = np.kron(psiA, psiB)
    return np.outer(psi, psi.conj())


def _observables(bm: BuiltModel) -> dict:
    sp = bm.L.space
    obs = {}
    for idx, tag in ((0, "A"), (1, "B")):
        f = sp.factors[idx]
        if f.kind == hb.SPIN:
            _, _, sz = hb.mk_spin_ops(f)
            obs[f"sz_{tag}"] = hb.embed(sz, idx, sp).entries
        else:
            obs[f"n_{tag}"] = hb.embed(hb.mk_number(f), idx, sp).entries
    return obs


def cmd_run(args) -> int:
    bm = build_model(args.config)
    out = _outdir(args)
    rate = bm.reference_rate
    t_max = args.t_max / rate
    t_grid = np.linspace(0.0, t_max, args.samples)
    obs = _observables(bm)
    rec = evolve(bm.L, _default_initial(bm), t_grid, observables=obs,
                 distance_target=bm.analytic_A_steady,
                 keep_factors=bm.a_factors, sectors=[1])
    header = [f"{bm.reference_name}_t"]
    cols = [rec.times * rate]
    for name, series in rec.observables.items():
        header += [f"{name}_re", f"{name}_im"]
        cols += [series.real, series.imag]
    header.append("dist_A_steady")
    cols.append(rec.trace_norm_distance_to_A_steady)
    header.append("sector1_norm")
    cols.append(rec.sector_pair_norms[1])
    _write_csv(out / "trajectory.csv", header,
               zip(*[np.asarray(c) for c in cols]))
    return 0


def cmd_steady(args) -> int:
    cfg, base = args.config, []
    if args.trunc_check:
        def extractor(c: ModelConfig):
            m = build_model(c)
            r = model_steady(m)
            if c is cfg:  # the base solve is the one written below
                base[:] = m, r
            red = hb.partial_trace(r.rho_st, m.b_factors).entries
            nb = hb.mk_number(m.L.space.factors[1]).entries
            return {"n_B": float(np.trace(nb @ red).real)}
        try:  # first: no solve when the enlarged config is refused
            shift = certify_truncation(cfg, extractor)
        except ValueError as exc:
            _parser().error(f"argument --trunc-check: re-solving at "
                            f"n_trunc + {ENLARGE}: {exc}")
    if not base:
        bm = build_model(cfg)
        base[:] = bm, model_steady(bm)
    bm, report = base
    out = _outdir(args)
    _write_matrix_pair(out, "rho_st", report.rho_st.entries)
    redA = hb.partial_trace(report.rho_st, bm.a_factors).entries
    redB = hb.partial_trace(report.rho_st, bm.b_factors).entries
    _write_matrix_pair(out, "rho_A", redA)
    _write_matrix_pair(out, "rho_B", redB)
    summary = {
        "residual": report.residual,
        "block_dim": report.block_dim,
        "lu_fill": report.lu_fill,
        "classes": report.classes,
        "degenerate": report.degenerate,
        "clipped_weight": report.clipped_weight,
        "invariance_A": trace_norm(redA - bm.analytic_A_steady),
        "deviation_B": trace_norm(redB - bm.analytic_B_steady),
    }
    if args.trunc_check:
        summary["truncation_shift"] = shift
    path = out / "steady_summary.json"
    path.write_text(json.dumps(summary, indent=2) + "\n")
    print(f"wrote {path}")
    print(json.dumps(summary, indent=2))
    return 0


def cmd_spectrum(args) -> int:
    bm = build_model(args.config)
    out = _outdir(args)
    rows = []
    if bm.L.space.factors[0].kind == hb.SPIN:
        se = spin_eigensystem(bm.reference_rate,
                              bm.analytic_A_steady[1, 1].real)
        labels = ["stationary", "population", "coherence_plus",
                  "coherence_minus"]
        for lab, lam in zip(labels, se.eigenvalues):
            rows.append(["A_analytic", lab, lam.real, lam.imag])
    else:
        kappa = bm.reference_rate
        for n in range(6):
            for k in range(-5, 6):
                rows.append(["A_analytic", f"n={n};k={k}",
                             -kappa * (n + abs(k) / 2.0), 0.0])
    if bm.L.dim <= 16:
        M = sparse_superoperator(bm.L).toarray()
        for lam in sorted(np.linalg.eigvals(M), key=lambda z: -z.real):
            rows.append(["full_numeric", "", lam.real, lam.imag])
    _write_csv(out / "spectrum.csv",
               ["family", "label", "re", "im"], rows)
    return 0


def cmd_verify(args) -> int:
    bm = build_model(args.config)
    out = _outdir(args)
    rng = np.random.default_rng(11)
    d = bm.L.dim
    X = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = X @ X.conj().T
    rho /= np.trace(rho).real
    checks = []

    def add(name, value, tol):
        checks.append({"name": name, "value": float(value),
                       "tolerance": tol, "pass": bool(value <= tol)})

    Lr = bm.L.apply(rho)
    add("trace_annihilation", abs(np.trace(Lr)), 1e-12)
    add("hermiticity_preservation",
        np.abs(Lr - bm.L.apply(rho.conj().T).conj().T).max(), 1e-12)
    Y = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    # Tr(Y^dag X) as a sum over entries, with no d x d product
    lhs = np.vdot(Y, Lr)
    rhs = np.vdot(bm.L.adjoint_apply(Y), rho)
    add("adjoint_pairing", abs(lhs - rhs) / max(1.0, abs(lhs)), 1e-10)
    # [V_A x 1, .] is diagonal on vec indices, each index's sector l its
    # eigenvalue, so L commutes with it exactly when no stored entry of
    # S joins two sectors; int16 labels halve the nnz-long arrays below
    S = sparse_superoperator(bm.L)
    lab = sector_labels(bm.L.space.dims[0], d).astype(np.int16)
    cross = np.repeat(lab, np.diff(S.indptr)) != lab[S.indices]
    leak = np.abs(S.data[cross]).max(initial=0.0)
    add("excitation_commutation",
        leak / np.abs(S.data).max() if leak else 0.0, 1e-10)
    report = model_steady(bm)
    redA = hb.partial_trace(report.rho_st, bm.a_factors).entries
    add("steady_invariance_A", trace_norm(redA - bm.analytic_A_steady), 1e-7)
    add("steady_residual", report.residual, 1e-9)
    all_pass = all(c["pass"] for c in checks)
    payload = {"model": bm.cfg.model, "checks": checks, "all_pass": all_pass}
    path = out / "verify.json"
    path.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {path}")
    for c in checks:
        print(f"{'PASS' if c['pass'] else 'FAIL'} {c['name']}: "
              f"{c['value']:.3e} (tol {c['tolerance']:.1e})")
    return 0 if all_pass else 1


def _fig1(out: Path) -> None:
    omegas = (1.0, 10.0)
    grid = np.linspace(0.0, 10.0, 41)
    cols = {w: ([], []) for w in omegas}
    for w in omegas:
        for om in grid:
            cfg = ModelConfig(model="two_spins", omega=w, gamma_A=1.0,
                              gamma_B=1.0, s_A=0.8, s_B=0.6, Omega=float(om))
            bm = build_model(cfg)
            rep = model_steady(bm)
            sz = np.diag([-1.0, 1.0])
            rA = hb.partial_trace(rep.rho_st, (0,)).entries
            rB = hb.partial_trace(rep.rho_st, (1,)).entries
            cols[w][0].append(float(np.trace(sz @ rA).real))
            cols[w][1].append(float(np.trace(sz @ rB).real))
    header = ["Omega_over_gamma_A"]
    series = [grid]
    for w in omegas:
        header += [f"sz_A_omega{w:g}", f"sz_B_omega{w:g}"]
        series += [np.array(cols[w][0]), np.array(cols[w][1])]
    _write_csv(out / "fig1.csv", header, zip(*series))


def _fig2(out: Path) -> None:
    grid = np.linspace(0.0, 5.0, 51)
    header = ["Omega_over_gamma_A"]
    series = [grid]
    for wB in (1.0, 5.0):
        vals = []
        for om in grid:
            cfg = ModelConfig(model="spin_oscillator", omega_A=1.0,
                              omega_B=wB, gamma_A=1.0, gamma_B=1.0, s=0.5,
                              nbar=0.0, Omega=float(om), n_trunc=4)
            vals.append(steady_spin_osc_excitation(cfg))
        header.append(f"n_b_omegaB{wB:g}")
        series.append(np.array(vals))
    _write_csv(out / "fig2.csv", header, zip(*series))


def _fig3(out: Path) -> None:
    t_grid = np.linspace(0.0, 10.0, 201)
    series = [t_grid]
    header = ["gamma_A_t"]
    for om in (0.0, 5.0):
        cfg = ModelConfig(model="spin_oscillator", omega_A=10.0,
                          omega_B=10.0, gamma_A=1.0, gamma_B=1.0, s=0.5,
                          nbar=0.0, Omega=om, n_trunc=10)
        bm = build_model(cfg)
        rec = evolve(bm.L, _default_initial(bm), t_grid,
                     distance_target=bm.analytic_A_steady,
                     keep_factors=(0,))
        header.append(f"dist_Omega{om:g}")
        series.append(rec.trace_norm_distance_to_A_steady)
    header.append("bound_exp")
    series.append(np.exp(-t_grid / 2.0))
    _write_csv(out / "fig3.csv", header, zip(*series))


def _coherent(alpha: complex, dim: int) -> np.ndarray:
    from math import factorial
    v = np.array([alpha ** n / np.sqrt(factorial(n)) for n in range(dim)],
                 dtype=complex)
    v /= np.linalg.norm(v)
    return v


def _fig4(out: Path) -> dict:
    n_trunc = (12, 12)
    t_grid = np.linspace(0.0, 20.0, 41)
    header = ["kappa_t"]
    series = [t_grid]
    final = {}
    for g in (0.0, 0.9):
        cfg = ModelConfig(model="optomechanical", omega=10.0, nu=1.5,
                          kappa=1.0, gamma=0.9, nbar=0.015, mbar=0.1,
                          g=g, n_trunc=n_trunc)
        bm = build_model(cfg)
        psi = np.kron(_coherent(0.15, n_trunc[0]),
                      _coherent(0.15, n_trunc[1]))
        rho0 = np.outer(psi, psi.conj())
        rec = evolve(bm.L, rho0, t_grid,
                     distance_target=bm.analytic_A_steady,
                     keep_factors=(0,), tol=1e-8)
        header.append(f"dist_g{g:g}")
        series.append(rec.trace_norm_distance_to_A_steady)
        final[g] = float(rec.trace_norm_distance_to_A_steady[-1])
    _write_csv(out / "fig4.csv", header, zip(*series))
    return final


_FIGURES = {1: _fig1, 2: _fig2, 3: _fig3, 4: _fig4}


def cmd_figure(args) -> int:
    # the parser's choices are the table's keys
    _FIGURES[args.number](_outdir(args))
    return 0


def _config(text: str) -> ModelConfig:
    """``--config``: inline JSON text or the path of a JSON file."""
    try:
        return parse_config(text)
    except (ValueError, OSError) as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _horizon(text: str) -> float:
    """``--t-max``: a finite, positive time."""
    value = float(text)
    if not (np.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(
            f"must be finite and positive, got {text!r}")
    return value


def _sample_count(text: str) -> int:
    """``--samples``: an integer of at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {text!r}")
    return value


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # built once per process: parse_args keeps no state between calls,
    # and the set-up costs as much as a small command's numerics
    p = argparse.ArgumentParser(
        prog="lindpair",
        description="coupled open-pair simulator (steady states, sector "
                    "decay, spectra, moment closures)")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--config", required=True, type=_config,
                        help="model config: inline JSON or a JSON file path")
        sp.add_argument("--out", default="out", help="output directory")

    sp_run = sub.add_parser("run", help="evolve and record a trajectory")
    common(sp_run)
    sp_run.add_argument("--t-max", type=_horizon, default=10.0,
                        help="horizon in units of the reference rate")
    sp_run.add_argument("--samples", type=_sample_count, default=101)

    sp_st = sub.add_parser("steady", help="solve the composite fixed point")
    common(sp_st)
    sp_st.add_argument("--trunc-check", action="store_true",
                       help="re-solve at enlarged truncation and report "
                            "the shift")

    sp_sp = sub.add_parser("spectrum", help="eigenvalue tables as CSV")
    common(sp_sp)

    sp_v = sub.add_parser("verify", help="invariant suite, JSON report")
    common(sp_v)

    sp_f = sub.add_parser("figure", help="standard parameter studies")
    sp_f.add_argument("number", type=int, choices=tuple(_FIGURES))
    sp_f.add_argument("--out", default="out")
    return p


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    # looked up at call time, not bound into the cached parser, so a
    # wrapper installed on a command (as the benchmark's tracer does)
    # still runs
    return globals()[f"cmd_{args.command}"](args)


if __name__ == "__main__":
    sys.exit(main())
