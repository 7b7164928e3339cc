"""Span tracing of lindpair from outside the library.

Wrappers are installed at every name a caller looks up: a function
imported with ``from .evolve import trace_norm`` is bound separately in
``steady``, ``sectors`` and ``cli``, so each binding in every loaded
``lindpair`` module that holds the original function object is replaced,
and restored on ``uninstall``.  Modules are resolved through
``importlib`` because ``lindpair/__init__.py`` re-exports the function
``evolve`` under the name of the module ``lindpair.evolve``.

A span is ``[name, parent, start, end, info]`` with ``parent`` the index
of the enclosing span (-1 at top level).  Spans stay in memory until the
benchmark writes them out.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict

# Traced layers: metric prefix -> (module, attribute).  An attribute of
# the form "Class.method" is patched on the class.  Prefixes of the
# ``_integrate`` module drop its underscore: metric names must start with
# a letter or a digit.
SPANS = {
    "models.build_model": ("lindpair.models", "build_model"),
    "hilbert.partial_trace": ("lindpair.hilbert", "partial_trace"),
    "liouvillian.sparse_superoperator": ("lindpair.liouvillian",
                                         "sparse_superoperator"),
    "liouvillian.apply": ("lindpair.liouvillian", "Liouvillian.apply"),
    "liouvillian.adjoint_apply": ("lindpair.liouvillian",
                                  "Liouvillian.adjoint_apply"),
    "integrate.integrate_adaptive": ("lindpair._integrate",
                                      "integrate_adaptive"),
    "evolve.evolve": ("lindpair.evolve", "evolve"),
    "evolve.trace_norm": ("lindpair.evolve", "trace_norm"),
    "steady.solve_steady": ("lindpair.steady", "solve_steady"),
    "sectors.check_decay_bound": ("lindpair.sectors", "check_decay_bound"),
    "sectors.project_sector": ("lindpair.sectors", "project_sector"),
    "cli.run": ("lindpair.cli", "cmd_run"),
    "cli.steady": ("lindpair.cli", "cmd_steady"),
    "cli.spectrum": ("lindpair.cli", "cmd_spectrum"),
    "cli.verify": ("lindpair.cli", "cmd_verify"),
    "cli.figure": ("lindpair.cli", "cmd_figure"),
}

# Counted without a span: three calls per attempted step, so a span each
# would mostly measure the tracer.
COUNTS = {
    "integrate.rk4_step.calls": ("lindpair._integrate", "rk4_step"),
}

_MODEL_BY_KINDS = {
    ("spin", "spin"): "two_spins",
    ("spin", "oscillator"): "spin_oscillator",
    ("oscillator", "oscillator"): "optomechanical",
}


def steady_bucket(L) -> str:
    """Input bucket of a steady solve, e.g. ``optomechanical-d180``.

    Named by input rather than solver path because ``SteadyReport.method``
    reads ``null_space`` for both the dense and the sparse solve.
    """
    kinds = tuple(f.kind for f in L.space.factors)
    model = _MODEL_BY_KINDS.get(kinds, "_".join(kinds))
    return f"{model}-d{L.dim}"


def apply_flops(L) -> int:
    """Real flops one ``L.apply`` implies, computed from nonzero counts.

    ``K rho + rho K^dag + sum_j r_j J_j rho J_j^dag`` with
    ``K = -iH - (1/2) sum_j r_j J_j^dag J_j`` held sparse: each
    sparse-times-dense product costs nnz * d complex multiply-adds (8 real
    flops).  This is a count computed from the operators, not a measured
    hardware rate.
    """
    import numpy as np
    d = L.dim
    K = -1j * L.hamiltonian.entries
    nnz_jumps = 0
    for t in L.terms:
        J = t.jump_op.entries
        K = K - 0.5 * t.rate * (J.conj().T @ J)
        nnz_jumps += 2 * int(np.count_nonzero(J))
    return 8 * d * (2 * int(np.count_nonzero(K)) + nnz_jumps)


def _resolve(module: str, attr: str):
    """(owner, name, original) for a target, or None when it is gone."""
    try:
        mod = importlib.import_module(module)
    except ImportError:
        return None
    owner, _, name = attr.rpartition(".")
    holder = getattr(mod, owner, None) if owner else mod
    if holder is None or not hasattr(holder, name):
        return None
    return holder, name, getattr(holder, name)


class Tracer:
    """Records spans and counts while installed on the ``lindpair`` modules."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._patched: list[tuple] = []
        self._flops: dict[int, tuple] = {}

    def _span_wrapper(self, label: str, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(spans)
            rec = [label, stack[-1] if stack else -1, clock(), 0.0,
                   self._info(label, args)]
            spans.append(rec)
            stack.append(sid)
            try:
                return fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                stack.pop()
        return wrapper

    def _count_wrapper(self, label: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[label] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _info(self, label: str, args):
        if label == "liouvillian.apply":
            L = args[0]
            entry = self._flops.get(id(L))
            if entry is None or entry[0] is not L:
                entry = (L, apply_flops(L))
                self._flops[id(L)] = entry
            return entry[1]
        if label == "evolve.trace_norm":
            arr = getattr(args[0], "entries", args[0])
            return int(getattr(arr, "shape", (0,))[0])
        if label == "steady.solve_steady":
            return steady_bucket(args[0])
        return None

    def install(self):
        """Patch every binding of each target in the loaded lindpair modules."""
        importlib.import_module("lindpair")
        targets = [(k, v, self._span_wrapper) for k, v in SPANS.items()]
        targets += [(k, v, self._count_wrapper) for k, v in COUNTS.items()]
        # resolve (and so import) every target before patching, so that no
        # module imported later binds a wrapper that uninstall cannot see
        resolved = []
        for label, (module, attr), make in targets:
            found = _resolve(module, attr)
            if found is None:
                self.missing.append(label)
            else:
                resolved.append((label, attr, make, found))
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "lindpair"
                                         or n.startswith("lindpair."))]
        for label, attr, make, (holder, name, orig) in resolved:
            wrapper = make(label, orig)
            if "." in attr:
                self._patched.append((holder, name, orig))
                setattr(holder, name, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._patched.append((mod, key, orig))
                        setattr(mod, key, wrapper)
        return self

    def uninstall(self):
        for holder, name, orig in reversed(self._patched):
            setattr(holder, name, orig)
        self._patched.clear()
        self._flops.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    def layer_metrics(self) -> dict:
        """Per-layer numbers from the recorded spans and counts.

        ``busy_s`` sums the spans of a name not nested in another span of
        the same name; ``self_s`` is each span minus its direct children.
        ``integrate.rhs_evals`` counts ``L.apply`` spans with an
        ``integrate_adaptive`` span among their ancestors.
        """
        spans = self.spans
        child_time = [0.0] * len(spans)
        for name, parent, start, end, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, float] = defaultdict(float)

        def has_ancestor(idx: int, label: str) -> bool:
            p = spans[idx][1]
            while p >= 0:
                if spans[p][0] == label:
                    return True
                p = spans[p][1]
            return False

        for i, (name, parent, start, end, info) in enumerate(spans):
            keys = [name]
            if name == "steady.solve_steady":
                keys.append(f"{name}.{info}")
            for key in keys:
                out[f"{key}.calls"] += 1
                out[f"{key}.self_s"] += (end - start) - child_time[i]
                if not has_ancestor(i, name):
                    out[f"{key}.busy_s"] += end - start
            if name == "liouvillian.apply":
                out["liouvillian.apply.flops_computed"] += info
                if has_ancestor(i, "integrate.integrate_adaptive"):
                    out["integrate.rhs_evals"] += 1
            elif name == "evolve.trace_norm":
                out["evolve.trace_norm.max_n"] = max(
                    out["evolve.trace_norm.max_n"], info)
        for label, n in self.counts.items():
            out[label] += n
        return {k: v if k.endswith("_s") else int(v) for k, v in out.items()}

    def span_records(self) -> list[dict]:
        return [{"id": i, "name": n, "parent": p, "start": s, "end": e}
                for i, (n, p, s, e, _) in enumerate(self.spans)]
