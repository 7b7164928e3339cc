"""lindpair benchmark runner.

    python3 bench/run.py --workload steady_sweep --seed 1509 --seconds 35 --trace 0

Workloads (see ``workloads.py``):

* ``steady_sweep``: fixed points over seeded coupling grids of all three
  models at d = 4, 30, 90 and 180, on both sides of the dense-solve cap.
* ``relaxation``: the sector-1 decay-bound pair at d = 20 and the
  optomechanical relaxation at d = 144, horizons shortened to t = 1.
* ``cli``: ``lindpair.cli.main`` in-process (steady, verify, spectrum,
  run, figure 1 and 2) writing into a scratch directory.

Each run starts fresh worker processes with the BLAS threads pinned to
``BLAS_THREADS``: ``SETUP_RUNS - 1`` that only set up, and one that sets
up and then runs the ops one at a time in a closed loop for ``--seconds``
(at least one whole pass; an op that would end past the window is not
started).  With ``--trace 0`` the last stdout line carries the
end-to-end metrics:

* ``wall_s``: wall time of one pass over the workload's ops, tracing off,
  after warm-up; the mean time of each op kind times its count in a
  pass, summed.  Each op's time is scaled by the host's speed at that
  moment, gauged by a fixed probe timed between ops (``worker.Probe``),
  to a host on which the probe takes ``worker.REF_S``: the shared host's
  speed drifts by tens of percent, more than the bound.  The unscaled
  estimate is kept in the report as ``wall_raw_s``.
* ``setup_s``: from spawning a worker to the end of its warm-up (imports
  plus one op of each code path at its smallest size), scaled by probes
  taken right after it; median over the ``SETUP_RUNS`` workers.
* ``peak_rss_mb``: peak resident memory of the measuring worker.

With ``--trace 1`` the measuring worker runs one more pass under the
tracer (``tracer.py``) and the last line carries the per-layer metrics of
that pass instead, plus ``trace.overhead_s`` (traced pass minus
``wall_s``).  Every op is gated; ``attempted`` and ``failed`` count every
op of every worker, and a failing op is counted, never dropped.

``--smoke`` shrinks every workload to a few tiny ops, one pass, one
worker; ``test_smoke.py`` runs it.  Reports and span lists are written
to ``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"

WORKLOADS = ("steady_sweep", "relaxation", "cli")
DEFAULT_SEED = 1509

# Pinned, never left at the OpenBLAS default: on a small shared host one
# thread keeps the solver timings steadier than several.
BLAS_THREADS = 1
SETUP_RUNS = 5
# A run must end within this many seconds of starting.
DEADLINE_S = 170.0

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

_SPANNED = [
    "models.build_model", "hilbert.partial_trace",
    "liouvillian.sparse_superoperator", "liouvillian.apply",
    "liouvillian.adjoint_apply", "integrate.integrate_adaptive",
    "evolve.evolve", "evolve.trace_norm", "steady.solve_steady",
] + [f"steady.solve_steady.{b}" for b in (
    "two_spins-d4", "spin_oscillator-d30", "spin_oscillator-d90",
    "optomechanical-d120", "optomechanical-d180")] + [
    "sectors.check_decay_bound", "sectors.project_sector",
]
PER_LAYER = {f"{name}.{part}": unit for name in _SPANNED
             for part, unit in (("calls", "count"), ("busy_s", "s"),
                                ("self_s", "s"))}
PER_LAYER.update({
    "liouvillian.apply.flops_computed": "flop",
    "integrate.rk4_step.calls": "count",
    "integrate.rhs_evals": "count",
    "evolve.trace_norm.max_n": "count",
})
PER_LAYER.update({f"cli.{sub}.busy_s": "s"
                  for sub in ("run", "steady", "spectrum", "verify", "figure")})
PER_LAYER.update({
    "cli.bytes_written": "B",
    "steady.residual_max": "1",
    "steady.invariance_A_max": "1",
    "sectors.decay_ratio_max": "1",
    "failed_frac": "1",
    "trace.overhead_s": "s",
})


class WorkerError(RuntimeError):
    pass


def _spawn(args, mode: str, seconds: float, workdir: Path, deadline: float):
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise WorkerError("no time left for another worker")
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(seconds), "--trace", str(args.trace),
           "--mode", mode, "--workdir", str(workdir)]
    if args.smoke:
        cmd.append("--smoke")
    cmd += ["--t0", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise WorkerError(f"{mode} worker exceeded {timeout:.0f} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"{mode} worker exited with {proc.returncode}")
    return json.loads(lines[-1])


def measure(args) -> dict:
    """Run the workers and collect their reports."""
    deadline = time.monotonic() + DEADLINE_S
    workdir = OUT / f"work-{os.getpid()}"
    seconds = 0.0 if args.smoke else float(args.seconds)
    n_setup = 1 if args.smoke else SETUP_RUNS
    try:
        reports = [_spawn(args, "setup", 0.0, workdir, deadline)
                   for _ in range(n_setup - 1)]
        reports.append(_spawn(args, "run", seconds, workdir, deadline))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    final = reports[-1]
    final["setup_samples"] = [r["setup_s"] for r in reports]
    final["attempted"] = sum(r["attempted"] for r in reports)
    final["failed"] = sum(r["failed"] for r in reports)
    final["failures"] = [f for r in reports for f in r["failures"]]
    return final


def metrics_of(report: dict, trace: bool) -> dict:
    if trace:
        values = dict(report["layers"], **report["quality"])
        values["failed_frac"] = report["failed"] / report["attempted"]
        units = PER_LAYER
    else:
        values = {"wall_s": report["wall_s"],
                  "setup_s": statistics.median(report["setup_samples"]),
                  "peak_rss_mb": report["peak_rss_mb"]}
        units = END_TO_END
    return {name: {"value": values.get(name, 0), "unit": unit}
            for name, unit in units.items()}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=35.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny sizes, one pass, one worker")
    args = p.parse_args(argv)
    if not (ROOT / "src" / "lindpair" / "__init__.py").is_file():
        print(f"lindpair sources not found under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    # on SIGTERM, unwind so that subprocess.run kills and reaps the worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    OUT.mkdir(exist_ok=True)
    try:
        report = measure(args)
    except WorkerError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    metrics = metrics_of(report, bool(args.trace))
    result = {"correct": report["failed"] == 0,
              "attempted": report["attempted"],
              "failed": report["failed"],
              "metrics": metrics}
    details = {k: v for k, v in report.items() if k != "layers"}
    details["args"] = vars(args)
    details["blas_threads"] = BLAS_THREADS
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(
        dict(details, layers=report.get("layers"), result=result), indent=1))
    for failure in report["failures"]:
        print(f"FAILED {failure}", file=sys.stderr)
    print(json.dumps(details))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
