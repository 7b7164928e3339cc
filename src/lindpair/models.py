"""The three coupled-pair models, described by one table.

Every model is an instance of one form.  A and B each relax under their
own thermal bath, and the coupling is A's excitation operator times a B
quadrature:

    H = w_A E_A + w_B E_B + c E_A (l_B + l_B^dag),
    jumps l at rate r (1 - s) or r (nbar + 1), l^dag at rate r s or r nbar,

with ``E = sigma_z`` and ``l = sigma_-`` for a spin, ``E = n`` and
``l = a`` for an oscillator.  A is the leading factor of the generator's
space and B the second, so every sector reader takes A's dimension and
kind from ``L.space.factors[0]``.  For a spin ``sigma_z`` differs from the
excitation operator by a multiple of identity, which shifts only a
pure-B Hamiltonian term and leaves the sector structure and every
commutation property untouched.

``_MODELS`` is the single source for the role of each config field: it
names, per model, the factor kind and the frequency, rate and occupation
fields of each side plus the coupling field.  Validation (required
fields, ranges, the shape of ``n_trunc``) and assembly both read it.

Configs parse from JSON with strict unknown-key rejection; field names
in JSON match the ModelConfig attributes one to one.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

from . import hilbert as hb
from .hilbert import OSCILLATOR, SPIN
from .liouvillian import LindbladTerm, Liouvillian
from .steady import solve_steady, spin_steady, thermal_state, SteadyReport

__all__ = [
    "ModelConfig",
    "BuiltModel",
    "MODEL_NAMES",
    "parse_config",
    "build_model",
    "model_steady",
]

# model -> (A side, B side, coupling field); a side is
# (factor kind, frequency field, rate field, occupation field)
_MODELS = {
    "two_spins": ((SPIN, "omega", "gamma_A", "s_A"),
                  (SPIN, "omega", "gamma_B", "s_B"), "Omega"),
    "spin_oscillator": ((SPIN, "omega_A", "gamma_A", "s"),
                        (OSCILLATOR, "omega_B", "gamma_B", "nbar"), "Omega"),
    "optomechanical": ((OSCILLATOR, "omega", "kappa", "nbar"),
                       (OSCILLATOR, "nu", "gamma", "mbar"), "g"),
}

MODEL_NAMES = tuple(_MODELS)


@dataclass(frozen=True)
class ModelConfig:
    """Physical parameters of one model; unused fields stay None.

    ``n_trunc`` is an int for the single oscillator of the
    spin-oscillator model and a pair for the two-oscillator model.
    """

    model: str
    omega: float | None = None
    omega_A: float | None = None
    omega_B: float | None = None
    nu: float | None = None
    kappa: float | None = None
    gamma: float | None = None
    gamma_A: float | None = None
    gamma_B: float | None = None
    nbar: float | None = None
    mbar: float | None = None
    s: float | None = None
    s_A: float | None = None
    s_B: float | None = None
    g: float | None = None
    Omega: float | None = None
    n_trunc: object = None

    def __post_init__(self):
        if self.model not in _MODELS:
            raise ValueError(
                f"unknown model {self.model!r}; expected one of {MODEL_NAMES}")
        a, b, coupling = _MODELS[self.model]
        n_osc = (a[0], b[0]).count(OSCILLATOR)
        required = tuple(dict.fromkeys(
            a[1:] + b[1:] + (coupling,) + (("n_trunc",) if n_osc else ())))
        for name in required:
            if getattr(self, name) is None:
                raise ValueError(f"model {self.model!r} needs field {name!r}")
        for f in dataclasses.fields(self):
            v = getattr(self, f.name)
            if v is not None and f.name not in ("model",) + required:
                raise ValueError(
                    f"field {f.name!r} does not apply to model {self.model!r}")
            if v is None or f.name in ("model", "n_trunc"):
                continue
            if isinstance(v, bool) or not isinstance(v, (int, float)):
                raise ValueError(f"{f.name} must be a number, got {v!r}")
            if not math.isfinite(v):
                raise ValueError(f"{f.name} must be finite, got {v}")
        for kind, _, rate, occ in (a, b):
            if not getattr(self, rate) > 0:
                raise ValueError(f"{rate} must be positive")
            v = getattr(self, occ)
            if kind == SPIN and not 0.0 <= v <= 1.0:
                raise ValueError(f"{occ} must lie in [0, 1]")
            if kind == OSCILLATOR and v < 0:
                raise ValueError(f"{occ} must be nonnegative")
        if getattr(self, coupling) < 0:
            raise ValueError(f"{coupling} must be nonnegative")
        if n_osc == 1:
            if not isinstance(self.n_trunc, int) or self.n_trunc < 2:
                raise ValueError("n_trunc must be an int >= 2")
        elif n_osc == 2:
            trunc = self.n_trunc
            if isinstance(trunc, list):
                trunc = tuple(trunc)
                object.__setattr__(self, "n_trunc", trunc)
            if not (isinstance(trunc, tuple) and len(trunc) == 2
                    and all(isinstance(n, int) and n >= 2 for n in trunc)):
                raise ValueError(
                    "n_trunc must be a pair of ints >= 2 for this model")
        truncs = self.n_trunc if n_osc == 2 else (self.n_trunc,) * n_osc
        dim = 2 ** (2 - n_osc) * math.prod(truncs)
        if dim > hb.MAX_DENSE_DIM:
            raise ValueError(f"n_trunc gives composite dimension {dim}, "
                             f"above the dense limit {hb.MAX_DENSE_DIM}")


def parse_config(source) -> ModelConfig:
    """Build a ModelConfig from a dict, JSON string, or file path.

    Unknown keys are rejected outright; missing or out-of-range values
    raise with the offending field named.
    """
    if isinstance(source, ModelConfig):
        return source
    # text that opens a JSON object or array is inline JSON, not a path
    if isinstance(source, str) and source.lstrip().startswith(("{", "[")):
        data = json.loads(source)
    elif isinstance(source, (str, Path)):
        data = json.loads(Path(source).read_text())
    else:
        data = dict(source)
    if not isinstance(data, dict):
        raise ValueError("config must be a JSON object")
    known = {f.name for f in dataclasses.fields(ModelConfig)}
    unknown = sorted(set(data) - known)
    if unknown:
        raise ValueError(f"unknown config keys: {', '.join(unknown)}")
    if "model" not in data:
        raise ValueError("config needs a 'model' key")
    return ModelConfig(**data)


@dataclass
class BuiltModel:
    """Assembled generator plus the analytic reference data.

    Besides the generator, whose leading factor ``L.space.factors[0]``
    is A, and the A-side fixed point, it carries the B-side fixed point,
    and A's damping rate as ``reference_rate``: it scales times in
    reports and sets the sector decay rates ``-|l| r / 2``.  A's two
    damping channels lead ``L``'s jumps; ``a_terms`` gives them as dense
    terms, formed on each read, for the sector splitting.
    """

    cfg: ModelConfig
    L: Liouvillian
    analytic_A_steady: np.ndarray
    analytic_B_steady: np.ndarray
    reference_rate: float
    reference_name: str
    a_factors: tuple[int, ...]
    b_factors: tuple[int, ...]

    @property
    def a_terms(self) -> tuple[LindbladTerm, ...]:
        return self.L.terms[:2]


@lru_cache(maxsize=8)
def _factor_parts(fa: hb.SubsystemSpec, fb: hb.SubsystemSpec):
    """What every generator on the factors (A, B) shares, whatever its
    numbers, formed from the factor matrices, read-only.

    Returns the nonzeros of the four jumps ``l_A x 1``, its adjoint,
    ``1 x l_B`` and its adjoint, and the ``hilbert.kron_products`` of H's
    three terms ``E_A x 1``, ``1 x E_B`` and ``E_A x (l_B + l_B^dag)``.
    The last 8 factor pairs are kept.
    """
    low, exc = zip(*((hb.mk_spin_ops(f)[0::2] if f.kind == SPIN
                      else (hb.mk_destroy(f), hb.mk_number(f)))
                     for f in (fa, fb)))
    low, exc = [op.entries for op in low], [op.entries for op in exc]
    eye = np.eye(fa.dim), np.eye(fb.dim)
    jumps = []
    for pair in ((low[0], eye[1]), (eye[0], low[1])):
        row, col, (v,) = hb.kron_products([pair])
        jumps += [(row, col, v), hb.dagger_nonzeros((row, col, v))]
    h = hb.kron_products([(exc[0], eye[1]), (eye[0], exc[1]),
                          (exc[0], low[1] + low[1].conj().T)])
    for a in (*(x for nz in jumps for x in nz), h[0], h[1], *h[2]):
        a.flags.writeable = False
    return tuple(jumps), h


def build_model(cfg) -> BuiltModel:
    """Assemble the generator and reference data for a config.

    Every operator is a sum of kron products of factor matrices, so no
    composite matrix is formed: the jumps and H's terms come from the
    factors (``_factor_parts``), and H's nonzeros are its terms scaled
    and summed entry by entry, ``w_A E_A x 1 + w_B 1 x E_B + c E_A x X_B``
    in that order, the exact zeros of the sum dropped.
    """
    cfg = parse_config(cfg)
    a, b, coupling = _MODELS[cfg.model]
    truncs = iter(cfg.n_trunc if isinstance(cfg.n_trunc, tuple)
                  else (cfg.n_trunc,))
    factors = [hb.spin() if kind == SPIN else hb.oscillator(next(truncs))
               for kind, *_ in (a, b)]
    jumps, (row, col, (t_a, t_b, t_ab)) = _factor_parts(*factors)
    w_a, w_b, c = (getattr(cfg, f) for f in (a[1], b[1], coupling))
    h = w_a * t_a + w_b * t_b + c * t_ab
    rates, fixed = [], []
    for (kind, _, rate, occ), f in zip((a, b), factors):
        r, x = getattr(cfg, rate), getattr(cfg, occ)
        if kind == SPIN:
            rates += [r * (1.0 - x), r * x]
            fixed.append(spin_steady(x))
        else:
            rates += [r * (x + 1.0), r * x]
            fixed.append(thermal_state(x, f.dim))
    keep = h != 0
    L = Liouvillian.from_nonzeros(hb.space(*factors),
                                  (row[keep], col[keep], h[keep]),
                                  jumps, rates)
    return BuiltModel(cfg, L, fixed[0], fixed[1],
                      getattr(cfg, a[2]), a[2], (0,), (1,))


def model_steady(bm: BuiltModel) -> SteadyReport:
    """Composite steady state of a built model."""
    return solve_steady(bm.L)
