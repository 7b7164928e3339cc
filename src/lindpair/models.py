"""The three coupled-pair models, described by one table.

Every model is an instance of one form.  A and B each relax under their
own thermal bath, and the coupling is A's excitation operator times a B
quadrature:

    H = w_A E_A + w_B E_B + c E_A (l_B + l_B^dag),
    jumps l at rate r (1 - s) or r (nbar + 1), l^dag at rate r s or r nbar,

with ``E = sigma_z`` and ``l = sigma_-`` for a spin, ``E = n`` and
``l = a`` for an oscillator.  For a spin ``sigma_z`` differs from the
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
from pathlib import Path

import numpy as np

from . import hilbert as hb
from .hilbert import OSCILLATOR, SPIN
from .liouvillian import LindbladTerm, Liouvillian
from .sectors import ExcitationStructure, build_excitation_structure
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


def parse_config(source) -> ModelConfig:
    """Build a ModelConfig from a dict, JSON string, or file path.

    Unknown keys are rejected outright; missing or out-of-range values
    raise with the offending field named.
    """
    if isinstance(source, ModelConfig):
        return source
    if isinstance(source, (str, Path)) and not str(source).lstrip().startswith("{"):
        data = json.loads(Path(source).read_text())
    elif isinstance(source, str):
        data = json.loads(source)
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

    Besides the generator, the A excitation structure and the A-side
    fixed point, it carries the A-side damping channels (``a_terms``, a
    subset of ``L.terms``, for the sector splitting), the B-side fixed
    point, the reference rate used to scale times in reports, and the
    per-factor sector unit costs.
    """

    cfg: ModelConfig
    L: Liouvillian
    es: ExcitationStructure
    analytic_A_steady: np.ndarray
    analytic_B_steady: np.ndarray
    a_terms: tuple[LindbladTerm, ...]
    reference_rate: float
    reference_name: str
    a_factors: tuple[int, ...]
    b_factors: tuple[int, ...]
    a_unit_costs: tuple


def build_model(cfg) -> BuiltModel:
    """Assemble the generator and reference data for a config."""
    cfg = parse_config(cfg)
    a, b, coupling = _MODELS[cfg.model]
    truncs = iter(cfg.n_trunc if isinstance(cfg.n_trunc, tuple)
                  else (cfg.n_trunc,))
    factors = [hb.spin() if kind == SPIN else hb.oscillator(next(truncs))
               for kind, *_ in (a, b)]
    sp = hb.space(*factors)
    # per side: the factor-level lowering and excitation operators and
    # the embedded excitation operator
    lower_f, exc_f, exc, terms, fixed = [], [], [], [], []
    for i, ((kind, _, rate, occ), f) in enumerate(zip((a, b), factors)):
        r, x = getattr(cfg, rate), getattr(cfg, occ)
        if kind == SPIN:
            low_f, _, E_f = hb.mk_spin_ops(f)
            down, rho = 1.0 - x, spin_steady(x)
        else:
            low_f, E_f = hb.mk_destroy(f), hb.mk_number(f)
            down, rho = x + 1.0, thermal_state(x, f.dim)
        low = hb.embed(low_f, i, sp)
        lower_f.append(low_f.entries)
        exc_f.append(E_f.entries)
        exc.append(hb.embed(E_f, i, sp).entries)
        terms += [LindbladTerm(low, r * down),
                  LindbladTerm(low.dagger(), r * x)]
        fixed.append(rho)
    # E_A (l_B + l_B^dag) is a product of operators on different
    # factors, so it is the kron of the factor matrices
    coupling_op = hb.kron(exc_f[0], lower_f[1] + lower_f[1].conj().T)
    H = hb.Operator(sp, getattr(cfg, a[1]) * exc[0]
                    + getattr(cfg, b[1]) * exc[1]
                    + getattr(cfg, coupling) * coupling_op)
    L = Liouvillian(sp, H, terms)
    es = build_excitation_structure(hb.space(factors[0]))
    rate_A = getattr(cfg, a[2])
    return BuiltModel(cfg, L, es, fixed[0], fixed[1], L.terms[:2], rate_A,
                      a[2], (0,), (1,),
                      ((rate_A / 2.0, 1 if a[0] == SPIN else None),))


def model_steady(bm: BuiltModel) -> SteadyReport:
    """Composite steady state of a built model."""
    return solve_steady(bm.L)
