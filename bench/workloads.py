"""The benchmark's workloads: op lists drawn from a seed, each op gated.

An op is one user-level operation (a fixed-point solve with its marginal
checks, a relaxation run, one CLI invocation).  ``run`` does the timed
work through the library's public names; ``score`` turns its output into
the numbers the gates compare, outside the timed part.  Every gate is a
largest passing value: an op whose score misses one, raises, or lacks a
gated value is counted as failed.

Couplings are drawn from the ranges in which the acceptance suite shows
the gates hold.  Where the work of an op would change with a drawn value
(adaptive step counts, Jacobi sweeps), the seed draws something that
leaves the work unchanged instead, so runs with different seeds measure
the same amount of work.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import math
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np
import scipy.linalg

# Resolved through importlib: ``lindpair.evolve`` as an attribute of the
# package is the function ``evolve``, not the module.
models = importlib.import_module("lindpair.models")
hilbert = importlib.import_module("lindpair.hilbert")
evolve_mod = importlib.import_module("lindpair.evolve")
sectors = importlib.import_module("lindpair.sectors")
cli = importlib.import_module("lindpair.cli")

WORKLOADS = ("steady_sweep", "relaxation", "cli")

INVARIANCE_TOL = 1e-7      # |Tr_B rho_st - rho_A| in trace norm
RESIDUAL_TOL = 1e-9        # SteadyReport.residual
DECAY_TOL = 1e-6           # measured / bound <= 1 + DECAY_TOL
# Reduced A state after a relaxation against exact propagation of A
# alone.  The step-doubling RK4 at tol 1e-8 measured 3e-8 to 5e-8.
A_STATE_TOL = 1e-6


@dataclass
class Op:
    kind: str
    run: Callable[[], dict]
    limits: dict
    score: Callable[[dict], dict] = field(default=lambda out: out)
    prepare: Callable[[], None] | None = None


@dataclass
class Workload:
    warmup: list
    ops: list


def build(name: str, seed: int, smoke: bool, workdir: Path) -> Workload:
    """Ops of one workload; ``smoke`` shrinks every size to seconds."""
    rng = np.random.default_rng(seed)
    if name == "steady_sweep":
        return _steady_sweep(rng, smoke)
    if name == "relaxation":
        return _relaxation(rng, smoke)
    if name == "cli":
        return _cli(rng, smoke, workdir)
    raise ValueError(f"unknown workload {name!r}; expected one of {WORKLOADS}")


def interleave(groups: list) -> list:
    """Merge op lists so each kind is spread evenly over a pass."""
    keyed = [((i + 0.5) / len(g), gi, i)
             for gi, g in enumerate(groups) for i in range(len(g))]
    return [groups[gi][i] for _, gi, i in sorted(keyed)]


# --- steady_sweep -----------------------------------------------------

def _dim(raw: dict) -> int:
    if raw["model"] == "two_spins":
        return 4
    n = raw["n_trunc"]
    return 2 * n if isinstance(n, int) else n[0] * n[1]


def steady_op(raw: dict) -> Op:
    """Fixed point with both marginals; uncoupled solves are a kind apart.

    At zero coupling the generator splits into commuting A and B parts and
    the sparse factorisation is about ten times cheaper (d=180, one Xeon
    core: 0.3 s against 3 s), so those solves get their own median.
    """
    coupling = raw.get("Omega", raw.get("g"))
    kind = f"{raw['model']}-d{_dim(raw)}" + ("-uncoupled" if coupling == 0
                                              else "")

    def run():
        bm = models.build_model(raw)
        rep = models.model_steady(bm)
        red_a = hilbert.partial_trace(rep.rho_st, bm.a_factors).entries
        red_b = hilbert.partial_trace(rep.rho_st, bm.b_factors).entries
        return {
            "residual": rep.residual,
            "invariance_A": evolve_mod.trace_norm(
                red_a - bm.analytic_A_steady),
            "deviation_B": evolve_mod.trace_norm(
                red_b - bm.analytic_B_steady),
        }
    return Op(kind, run,
              {"invariance_A": INVARIANCE_TOL, "residual": RESIDUAL_TOL})


def _couplings(rng, n: int, high: float) -> list:
    # coupling 0 always, then draws from (0, high]
    return [0.0] + sorted(float(high - v) for v in rng.uniform(0, high, n - 1))


def _steady_sweep(rng, smoke: bool) -> Workload:
    n_fig1, n_so, n_om = (1, 1, 1) if smoke else (41, 5, 3)
    fig1 = _couplings(rng, n_fig1, 10.0)
    so_c = _couplings(rng, n_so, 5.0)
    om_c = _couplings(rng, n_om, 0.9)
    two_spins = [dict(model="two_spins", omega=w, gamma_A=1.0, gamma_B=1.0,
                      s_A=0.8, s_B=0.6, Omega=c)
                 for w in (1.0, 10.0) for c in fig1]

    def spin_osc(n, c, s=0.3, nbar=0.2):
        return dict(model="spin_oscillator", omega_A=1.0, omega_B=1.0,
                    gamma_A=1.0, gamma_B=1.0, s=s, nbar=nbar, Omega=c,
                    n_trunc=n)

    # n=15 is below the dense-solve cap (d=30), n=45 above it (d=90)
    dense = [spin_osc(3 if smoke else 15, c) for c in so_c]
    if smoke:
        sparse = [spin_osc(17, float(rng.uniform(0.5, 2.0)))]
    else:
        sparse = [spin_osc(45, float(rng.uniform(0.5, 2.0)), s, nbar)
                  for s in (0.0, 0.5, 0.9) for nbar in (0.0, 0.5)
                  for _ in range(2)]
    optomech = [dict(model="optomechanical", omega=1.0, nu=1.5, kappa=1.0,
                     gamma=0.9, nbar=0.2, mbar=0.1, g=c,
                     n_trunc=(3, 3) if smoke else (12, 15)) for c in om_c]
    groups = [[steady_op(r) for r in g]
              for g in (two_spins, dense, sparse, optomech)]
    # one solve per solver path at its smallest size: dense, sparse
    warmup = [steady_op(two_spins[0]), steady_op(sparse[0])]
    return Workload(warmup, interleave(groups))


# --- relaxation -------------------------------------------------------

def _ground(n: int) -> np.ndarray:
    v = np.zeros(n, dtype=complex)
    v[0] = 1.0
    return v


def _coherent(alpha: complex, n: int) -> np.ndarray:
    v = np.array([alpha ** k / math.sqrt(math.factorial(k)) for k in range(n)],
                 dtype=complex)
    return v / np.linalg.norm(v)


def decay_op(coupling: float, phase: float, t_max: float, samples: int,
             n_trunc: int) -> Op:
    """Sector-1 decay bound of the spin-oscillator pair at omega = 10.

    ``phase`` is the relative phase of the spin superposition.  It is a
    rotation generated by the A excitation operator, which commutes with
    the generator, so every entry keeps its modulus along the trajectory
    and the step sequence does not depend on it.
    """
    cfg = dict(model="spin_oscillator", omega_A=10.0, omega_B=10.0,
               gamma_A=1.0, gamma_B=1.0, s=0.5, nbar=0.0, Omega=coupling,
               n_trunc=n_trunc)
    spin = np.array([1.0, np.exp(1j * phase)]) / math.sqrt(2.0)
    psi = np.kron(spin, _ground(n_trunc))
    rho0 = np.outer(psi, psi.conj())
    t_grid = np.linspace(0.0, t_max, samples)

    def run():
        bm = models.build_model(cfg)
        rep = sectors.check_decay_bound(bm, rho0, t_grid, ls=[1],
                                        tol_bound=DECAY_TOL)
        return {"decay_ratio": rep.max_ratio[1]}
    return Op(f"decay-d{2 * n_trunc}-Omega{coupling:g}", run,
              {"decay_ratio": 1.0 + DECAY_TOL})


def _a_only_evolution(rho_a0: np.ndarray, omega: float, kappa: float,
                      nbar: float, t: float) -> np.ndarray:
    """Exact state of a thermally damped oscillator alone at time t.

    Built here from numpy, independent of lindpair, as the reference for
    the relaxation gate (column-stacking superoperator and one expm).
    """
    n = rho_a0.shape[0]
    a = np.diag(np.sqrt(np.arange(1.0, n)), 1).astype(complex)
    eye = np.eye(n)
    H = omega * a.conj().T @ a
    M = -1j * (np.kron(eye, H) - np.kron(H.T, eye))
    for J, rate in ((a, kappa * (nbar + 1.0)), (a.conj().T, kappa * nbar)):
        JdJ = J.conj().T @ J
        M += rate * (np.kron(J.conj(), J) - 0.5 * np.kron(eye, JdJ)
                     - 0.5 * np.kron(JdJ.T, eye))
    vec = scipy.linalg.expm(M * t) @ rho_a0.reshape(-1, order="F")
    return vec.reshape(n, n, order="F")


def relax_op(g: float, theta: float, t_max: float, samples: int,
             n_trunc: tuple) -> Op:
    """Optomechanical relaxation from displaced coherent states (fig. 4).

    ``theta`` is the phase of the A amplitude, again a rotation generated
    by the A excitation operator.  The gate compares the reduced A state
    with exact propagation of A alone: the whole state at g = 0, and the
    populations at g > 0, which the coupling ``g n_A x_B`` leaves to A's
    own damping because it commutes with every A projector.
    """
    na, nb = n_trunc
    cfg = dict(model="optomechanical", omega=10.0, nu=1.5, kappa=1.0,
               gamma=0.9, nbar=0.015, mbar=0.1, g=g, n_trunc=n_trunc)
    psi_a = _coherent(0.15 * np.exp(1j * theta), na)
    psi = np.kron(psi_a, _coherent(0.15, nb))
    rho0 = np.outer(psi, psi.conj())
    t_grid = np.linspace(0.0, t_max, samples)
    ref = _a_only_evolution(np.outer(psi_a, psi_a.conj()), cfg["omega"],
                            cfg["kappa"], cfg["nbar"], t_max)

    def run():
        bm = models.build_model(cfg)
        rec = evolve_mod.evolve(bm.L, rho0, t_grid,
                                distance_target=bm.analytic_A_steady,
                                keep_factors=(0,), tol=1e-8)
        return {"final": rec.final_state,
                "distance_A": rec.trace_norm_distance_to_A_steady[-1]}

    def score(out):
        red = np.trace(out["final"].reshape(na, nb, na, nb),
                       axis1=1, axis2=3)
        diff = red - ref if g == 0 else np.diag(red) - np.diag(ref)
        return {"a_state_err": float(np.abs(diff).max()),
                "distance_A": float(out["distance_A"])}
    return Op(f"relax-d{na * nb}-g{g:g}", run, {"a_state_err": A_STATE_TOL},
              score)


def _relaxation(rng, smoke: bool) -> Workload:
    phase, theta = rng.uniform(0.0, 2.0 * math.pi, 2)
    n_decay, n_relax = (2, (2, 2)) if smoke else (10, (12, 12))
    t_decay, s_decay = (0.2, 3) if smoke else (1.0, 6)
    t_relax, s_relax = (0.2, 2) if smoke else (1.0, 3)
    ops = [decay_op(c, phase, t_decay, s_decay, n_decay) for c in (0.0, 5.0)]
    ops += [relax_op(g, theta, t_relax, s_relax, n_relax) for g in (0.0, 0.9)]
    warmup = [decay_op(5.0, phase, 0.2, 2, n_decay),
              relax_op(0.9, theta, 0.1, 2, n_relax)]
    return Workload(warmup, ops)


# --- cli --------------------------------------------------------------

def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def cli_op(kind: str, argv: list, outdir: Path, expect: str,
           gate: tuple | None = None) -> Op:
    """One in-process ``lindpair`` invocation writing into ``outdir``.

    ``expect`` names the file the command must write; ``gate`` is a pair
    (check, limits): ``check(outdir)`` reads gated values back from the
    outputs and ``limits`` holds their largest passing values.
    """
    check, extra = gate if gate is not None else (None, {})

    def prepare():
        shutil.rmtree(outdir, ignore_errors=True)
        outdir.mkdir(parents=True)

    def run():
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(argv + ["--out", str(outdir)])
        return {"rc": rc}

    def score(out):
        values = {"rc": abs(out["rc"]),
                  "missing_files": 0 if (outdir / expect).is_file() else 1,
                  "bytes_written": _dir_bytes(outdir)}
        if check is not None and not values["missing_files"]:
            values.update(check(outdir))
        return values
    return Op(kind, run, {"rc": 0, "missing_files": 0, **extra}, score,
              prepare)


def _check_verify(out: Path) -> dict:
    data = json.loads((out / "verify.json").read_text())
    checks = {c["name"]: c for c in data["checks"]}
    failures = sum(not c["pass"] for c in checks.values())
    if not data["all_pass"]:
        failures = max(failures, 1)
    return {"verify_failures": failures,
            "residual": checks["steady_residual"]["value"],
            "invariance_A": checks["steady_invariance_A"]["value"]}


def _check_steady(out: Path) -> dict:
    data = json.loads((out / "steady_summary.json").read_text())
    return {"residual": data["residual"], "invariance_A": data["invariance_A"]}


def _check_fig1(out: Path) -> dict:
    data = np.genfromtxt(out / "fig1.csv", delimiter=",", names=True)
    # s_A = 0.8 pins <sz_A> = 2 s_A - 1 at every coupling
    dev = max(float(np.abs(data[c] - 0.6).max())
              for c in ("sz_A_omega1", "sz_A_omega10"))
    return {"sz_A_dev": dev}


STEADY_GATE = (_check_steady,
               {"residual": RESIDUAL_TOL, "invariance_A": INVARIANCE_TOL})
VERIFY_GATE = (_check_verify, {"verify_failures": 0})
FIG1_GATE = (_check_fig1, {"sz_A_dev": INVARIANCE_TOL})


def _run_gate(samples: int) -> tuple:
    def check(out: Path) -> dict:
        with open(out / "trajectory.csv") as fh:
            rows = sum(1 for _ in fh) - 1
        return {"missing_rows": abs(rows - samples)}
    return check, {"missing_rows": 0}


def _solve_specs(cfg: dict) -> list:
    tag = f"{cfg['model']}-d{_dim(cfg)}"
    conf = ["--config", json.dumps(cfg)]
    return [(f"steady-{tag}", ["steady"] + conf, "steady_summary.json",
             STEADY_GATE),
            (f"verify-{tag}", ["verify"] + conf, "verify.json", VERIFY_GATE),
            (f"spectrum-{tag}", ["spectrum"] + conf, "spectrum.csv", None)]


def _run_spec(cfg: dict, t_max: float | None, samples: int) -> tuple:
    argv = ["run", "--config", json.dumps(cfg), "--samples", str(samples)]
    if t_max is not None:
        argv += ["--t-max", str(t_max)]
    return (f"run-{cfg['model']}-d{_dim(cfg)}", argv, "trajectory.csv",
            _run_gate(samples))


def _cli(rng, smoke: bool, workdir: Path) -> Workload:
    two_spins = dict(model="two_spins", omega=1.0, gamma_A=1.0, gamma_B=1.0,
                     s_A=0.8, s_B=0.6, Omega=2.0)
    spin_osc = dict(model="spin_oscillator", omega_A=1.0, omega_B=1.0,
                    gamma_A=1.0, gamma_B=1.0, s=0.3, nbar=0.2, Omega=2.0,
                    n_trunc=15)
    optomech = dict(model="optomechanical", omega=1.0, nu=1.5, kappa=1.0,
                    gamma=0.9, nbar=0.2, mbar=0.1, g=0.2, n_trunc=[10, 12])
    # steady/verify/spectrum cost does not depend on the coupling, so it
    # is drawn; `run` keeps fixed couplings, because its step count and
    # the Jacobi sweeps inside trace_norm do depend on them
    drawn = [dict(two_spins, Omega=float(rng.uniform(0.1, 5.0)))]
    if not smoke:
        drawn += [dict(spin_osc, Omega=float(rng.uniform(0.1, 5.0))),
                  dict(optomech, g=float(rng.uniform(0.1, 0.9)))]
    specs = [spec for cfg in drawn for spec in _solve_specs(cfg)]
    if smoke:
        specs.append(_run_spec(two_spins, 0.5, 3))
    else:
        specs += [_run_spec(two_spins, None, 101),
                  _run_spec(spin_osc, 1.0, 11),
                  _run_spec(dict(optomech, g=0.6, n_trunc=[4, 4]), 2.0, 21),
                  ("figure1", ["figure", "1"], "fig1.csv", FIG1_GATE)]
    specs.append(("figure2", ["figure", "2"], "fig2.csv", None))
    ops = [cli_op(kind, argv, workdir / f"op{i}", expect, gate)
           for i, (kind, argv, expect, gate) in enumerate(specs)]
    # each subcommand once at its smallest size
    warm = _solve_specs(two_spins) + [_run_spec(two_spins, 0.5, 3),
                                      ("figure2", ["figure", "2"], "fig2.csv",
                                       None)]
    warmup = [cli_op(f"warmup-{kind}", argv, workdir / f"warm{i}", expect,
                     gate)
              for i, (kind, argv, expect, gate) in enumerate(warm)]
    return Workload(warmup, ops)
