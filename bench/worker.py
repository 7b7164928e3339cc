"""One workload process, started by ``run.py`` with the BLAS threads pinned.

Imports the library, runs the warm-up ops, and reports its set-up time
(from the spawn instant the parent passes in), raw and scaled by the
host-speed probe (``Probe``).  In ``--mode run`` it then
runs the workload's ops one at a time in a closed loop (one client; the
next op starts when the previous one ends) until ``--seconds`` have
passed and at least one whole pass is done, and with ``--trace 1`` runs
one more pass under the tracer.  The last stdout line is its JSON report.
"""

from __future__ import annotations

import argparse
import bisect
import ctypes
import glob
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from collections import Counter, defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import tracer  # noqa: E402
import workloads  # noqa: E402

# Op outputs reported as the largest value seen (quality, not gates).
QUALITY = {
    "residual": "steady.residual_max",
    "invariance_A": "steady.invariance_A_max",
    "decay_ratio": "sectors.decay_ratio_max",
}


# Host-speed probe (``Probe``): taken before an op once this long has
# passed since the last one, and this many on each side of an op scale it.
PROBE_EVERY_S = 0.1
PROBE_NEIGHBOURS = 3
# Times are reported in seconds of a host on which the probe takes REF_S:
# about its median on one core of the 2.1 GHz Xeon the benchmark was
# written on (3.2 to 4.6 ms from run to run there).
REF_S = 0.0035
# Probes taken after a worker's warm-up to scale its set-up time.
SETUP_PROBES = 5


class Tally:
    """Attempted and failed ops, with the largest quality values."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.quality = {name: 0.0 for name in QUALITY.values()}

    def attempt(self, op: workloads.Op) -> tuple[float, dict]:
        """Run one op; return its wall time and scored values."""
        if op.prepare is not None:
            op.prepare()
        self.attempted += 1
        values: dict = {}
        t0 = time.perf_counter()
        try:
            out = op.run()
            elapsed = time.perf_counter() - t0
            values = op.score(out)
        except Exception:
            elapsed = time.perf_counter() - t0
            self._fail(op, traceback.format_exc(limit=3).strip())
            return elapsed, values
        missed = [f"{k}={values.get(k)!r} > {lim!r}"
                  for k, lim in op.limits.items()
                  if not (values.get(k) is not None and values[k] <= lim)]
        if missed:
            self._fail(op, "gate missed: " + ", ".join(missed))
        for key, name in QUALITY.items():
            if key in values:
                self.quality[name] = max(self.quality[name], float(values[key]))
        return elapsed, values

    def _fail(self, op, message: str):
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(f"{op.kind}: {message}")


def _openblas() -> list[dict]:
    """Version and live thread count of each OpenBLAS numpy/scipy loaded."""
    found = []
    for pkg in (np, scipy):
        libdir = Path(pkg.__file__).resolve().parent.parent / f"{pkg.__name__}.libs"
        for path in sorted(glob.glob(str(libdir / "*openblas*"))):
            lib = ctypes.CDLL(path)
            info = {"package": pkg.__name__, "library": Path(path).name}
            for suffix in ("64_", ""):
                get_threads = getattr(lib, f"scipy_openblas_get_num_threads{suffix}", None)
                get_config = getattr(lib, f"scipy_openblas_get_config{suffix}", None)
                if get_threads is not None and get_config is not None:
                    get_threads.restype = ctypes.c_int
                    get_config.restype = ctypes.c_char_p
                    info["threads"] = get_threads()
                    info["config"] = get_config().decode()
                    break
            found.append(info)
    return found


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_commit() -> str:
    """HEAD of the checkout, read from .git; 'unknown' outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine(seed: int) -> dict:
    return {
        "cpu": _cpu_model(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": _openblas(),
        "blas_threads_pinned": int(os.environ.get("OPENBLAS_NUM_THREADS", 0)),
        "commit": _git_commit(),
        "seed": seed,
        "note": "shared host: other tenants' load is not controlled and "
                "runs cannot reserve cores",
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--mode", choices=("setup", "run"), required=True)
    p.add_argument("--t0", type=float, required=True,
                   help="time.monotonic() when the parent spawned this process")
    p.add_argument("--workdir", required=True)
    args = p.parse_args(argv)

    tally = Tally()
    wl = workloads.build(args.workload, args.seed, args.smoke,
                         Path(args.workdir))
    for op in wl.warmup:
        tally.attempt(op)
    setup_raw_s = time.monotonic() - args.t0
    probe = Probe()
    setup_probe_s = statistics.median(probe() for _ in range(SETUP_PROBES))
    report = {"setup_s": setup_raw_s * REF_S / setup_probe_s,
              "setup_raw_s": setup_raw_s, "setup_probe_s": setup_probe_s}
    if args.mode == "run":
        report.update(_timed(wl, args.seconds, tally, probe))
        report["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        report["machine"] = machine(args.seed)
        if args.trace:
            report["layers"], spans = _traced(wl, tally, probe,
                                              report["wall_s"])
            path = Path(args.workdir).parent / (
                f"spans-{args.workload}-seed{args.seed}.json")
            path.write_text(json.dumps(spans))
            report["spans_file"] = str(path.relative_to(ROOT))
        report["quality"] = tally.quality
    report.update(attempted=tally.attempted, failed=tally.failed,
                  failures=tally.failures)
    print(json.dumps(report))
    return 0


class Probe:
    """A fixed piece of work timed between ops to gauge the host's speed.

    The host is shared, and its speed drifts by tens of percent over
    seconds and over hours, moving every op kind alike.  Process CPU time
    follows wall time through these swings, so the core itself runs
    slower, and no estimate over the ops alone removes it.  The probe is
    a pure-Python loop and small dense products; it runs no lindpair code,
    and so gauges the host and never the library.  Measured on
    steady_sweep over sets of four runs, probe-scaled pass times spread
    2 to 7% (quartile distance over median) where unscaled ones spread 17
    to 28%; a sparse LU in the probe tracked worse, its own time swinging
    more than the ops' did.
    """

    def __init__(self):
        self.dense = np.random.default_rng(0).standard_normal((120, 120))
        self._work()
        self.starts: list[float] = []
        self.times: list[float] = []

    def _work(self):
        total = 0
        for i in range(50000):
            total += i * i
        for _ in range(3):
            self.dense @ self.dense

    def __call__(self) -> float:
        t0 = time.perf_counter()
        self._work()
        elapsed = time.perf_counter() - t0
        self.starts.append(t0)
        self.times.append(elapsed)
        return elapsed

    def around(self, start: float, end: float) -> float:
        """Median time of the probes next to ``[start, end]``, each side."""
        i = bisect.bisect_left(self.starts, start)
        j = bisect.bisect_left(self.starts, end)
        return statistics.median(self.times[max(0, i - PROBE_NEIGHBOURS):i]
                                 + self.times[j:j + PROBE_NEIGHBOURS])

    def scaled(self, start: float, elapsed: float) -> float:
        """``elapsed`` on a host where the probe takes ``REF_S``."""
        return elapsed * REF_S / self.around(start, start + elapsed)


def _loop(ops: list, seconds: float, tally: Tally, probe: Probe) -> list:
    """Closed loop over ``ops``, probing the host between them.

    Runs at least one whole pass; after that it stops at the first op
    whose median time so far would take it past ``seconds``, so that a
    run does not overshoot its window by a long op.  Returns
    ``(kind, start, elapsed, scaled, values)`` per op, ``values`` being
    what the op scored.
    """
    samples = []
    times = defaultdict(list)
    n = len(ops)
    for _ in range(PROBE_NEIGHBOURS):
        probe()
    start = last_probe = time.perf_counter()
    i = 0
    while True:
        op = ops[i % n]
        now = time.perf_counter()
        if i >= n and (now - start + statistics.median(times[op.kind])
                       > seconds):
            break
        if now - last_probe >= PROBE_EVERY_S:
            probe()
            last_probe = time.perf_counter()
        t_op = time.perf_counter()
        elapsed, values = tally.attempt(op)
        samples.append((op.kind, t_op, elapsed, values))
        times[op.kind].append(elapsed)
        i += 1
    for _ in range(PROBE_NEIGHBOURS):
        probe()
    return [(k, t, e, probe.scaled(t, e), v) for k, t, e, v in samples]


def _timed(wl: workloads.Workload, seconds: float, tally: Tally,
           probe: Probe) -> dict:
    """Closed loop over the pass for ``seconds``.

    ``wall_s`` is the time of one pass, estimated op kind by op kind:
    the mean scaled time of a kind times its count in a pass, which
    weighs a partial last pass right.  Scaled times (``Probe.scaled``)
    follow the program's speed and not the host's; ``wall_raw_s`` is the
    same estimate from the unscaled times.
    """
    samples = _loop(wl.ops, seconds, tally, probe)
    per_pass = Counter(op.kind for op in wl.ops)
    raw, scaled = defaultdict(list), defaultdict(list)
    for kind, _, elapsed, norm, _ in samples:
        raw[kind].append(elapsed)
        scaled[kind].append(norm)

    def pass_time(times):
        return sum(per_pass[k] * statistics.fmean(times[k])
                   for k in per_pass)
    return {
        "wall_s": pass_time(scaled),
        "wall_raw_s": pass_time(raw),
        "passes": len(samples) / len(wl.ops),
        "probe_median_s": statistics.median(probe.times),
        "probes": len(probe.times),
        "kinds": {k: {"per_pass": per_pass[k], "samples": len(raw[k]),
                      "mean_s": statistics.fmean(raw[k]),
                      "scaled_mean_s": statistics.fmean(scaled[k])}
                  for k in per_pass},
    }


def _traced(wl: workloads.Workload, tally: Tally, probe: Probe,
            wall_s: float):
    """One pass under the tracer: per-layer metrics and the span list."""
    tr = tracer.Tracer()
    with tr:
        samples = _loop(wl.ops, 0.0, tally, probe)
    layers = tr.layer_metrics()
    layers["cli.bytes_written"] = sum(s[4].get("bytes_written", 0)
                                      for s in samples)
    layers["trace.overhead_s"] = sum(s[3] for s in samples) - wall_s
    layers["trace.missing_targets"] = tr.missing
    return layers, tr.span_records()


if __name__ == "__main__":
    sys.exit(main())
