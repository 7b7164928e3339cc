"""Smoke test of the benchmark runner.

    python3 -m pytest bench -q

Runs every workload of ``BENCHMARK.json`` at its smoke size, checks that
each metric the file names is printed with its unit, that the traced
run's counts repeat exactly, and that the tracer's counts on a d=4
evolution match a count made by hand.
"""

import importlib
import json
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
_runs: dict = {}


def _run(workload: str, trace: int, repeat: int = 0) -> dict:
    key = (workload, trace, repeat)
    if key not in _runs:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", "7", "--seconds", "1", "--trace", str(trace),
             "--smoke"],
            cwd=ROOT, capture_output=True, text=True, timeout=170)
        assert proc.returncode == 0, proc.stderr
        _runs[key] = json.loads(proc.stdout.strip().splitlines()[-1])
    return _runs[key]


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace,section", [(0, "end_to_end"),
                                           (1, "per_layer")])
def test_prints_every_metric_with_its_unit(workload, trace, section):
    result = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    printed = {k: v["unit"] for k, v in result["metrics"].items()}
    assert printed == {m["name"]: m["unit"] for m in SPEC[section]}
    for value in result["metrics"].values():
        assert isinstance(value["value"], (int, float))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    def counts(result):
        return {k: v["value"] for k, v in result["metrics"].items()
                if v["unit"] in ("count", "flop", "B")}
    first, second = _run(workload, 1), _run(workload, 1, repeat=1)
    assert counts(first) == counts(second)
    assert counts(first)["models.build_model.calls"] > 0


def test_hand_count_of_one_d4_evolution():
    models = importlib.import_module("lindpair.models")
    evolve_mod = importlib.import_module("lindpair.evolve")
    integrate = importlib.import_module("lindpair._integrate")
    bm = models.build_model(dict(model="two_spins", omega=1.0, gamma_A=1.0,
                                 gamma_B=1.0, s_A=0.8, s_B=0.6, Omega=1.0))
    psi = np.kron(np.array([1.0, 1.0]) / np.sqrt(2.0), np.array([1.0, 0.0]))
    rho0 = np.outer(psi, psi).astype(complex)
    t_grid = np.linspace(0.0, 1.0, 3)

    # by hand: the same sample intervals with a counting right-hand side
    evals = 0

    def rhs(t, y):
        nonlocal evals
        evals += 1
        return bm.L.apply(y)
    y = rho0
    for t0, t1 in zip(t_grid[:-1], t_grid[1:]):
        y = integrate.integrate_adaptive(rhs, y, t0, t1, tol=1e-10)

    with tracer.Tracer() as tr:
        evolve_mod.evolve(bm.L, rho0, t_grid,
                          distance_target=bm.analytic_A_steady,
                          keep_factors=(0,))
    m = tr.layer_metrics()
    assert m["evolve.evolve.calls"] == 1
    assert m["integrate.integrate_adaptive.calls"] == len(t_grid) - 1
    assert m["integrate.rhs_evals"] == evals
    assert m["liouvillian.apply.calls"] == evals
    assert 4 * m["integrate.rk4_step.calls"] == evals
    assert m["hilbert.partial_trace.calls"] == len(t_grid)
    assert m["evolve.trace_norm.calls"] == len(t_grid)
    assert m["evolve.trace_norm.max_n"] == 2
    assert m["liouvillian.apply.flops_computed"] == \
        evals * tracer.apply_flops(bm.L)

    spans = tr.span_records()
    (root,) = [s for s in spans if s["name"] == "evolve.evolve"]
    assert root["parent"] == -1
    parents = {s["id"]: s["name"] for s in spans}
    for s in spans:
        if s["name"] == "integrate.integrate_adaptive":
            assert s["parent"] == root["id"]
        if s["name"] == "liouvillian.apply":
            assert parents[s["parent"]] == "integrate.integrate_adaptive"
        assert s["start"] <= s["end"]


def test_wrappers_cover_every_binding_and_are_removed():
    lindpair = importlib.import_module("lindpair")
    evolve_mod = importlib.import_module("lindpair.evolve")
    # the package re-exports the function under the module's name
    assert not isinstance(lindpair.evolve, types.ModuleType)
    assert isinstance(evolve_mod, types.ModuleType)
    original, original_evolve = evolve_mod.trace_norm, evolve_mod.evolve
    users = [importlib.import_module(f"lindpair.{m}")
             for m in ("evolve", "steady", "sectors", "cli")] + [lindpair]
    with tracer.Tracer() as tr:
        assert not tr.missing
        for mod in users:
            assert mod.trace_norm is not original
        assert lindpair.evolve is evolve_mod.evolve is not original_evolve
    for mod in users:
        assert mod.trace_norm is original
    assert lindpair.evolve is evolve_mod.evolve is original_evolve
