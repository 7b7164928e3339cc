"""Prebuilt model factories for the three coupled-pair systems.

Each factory assembles the full generator L = L_A + L_B - i[H_I, .] on
the truncated product space, together with the excitation structure of
system A and the analytic fixed points of the uncoupled subsystems.
The interaction couples the A excitation operator to a B quadrature
(spin-x or position), written with the A operator in its spin-z form
where the source model uses it; the difference to the excitation
operator is a multiple of identity, which shifts only a pure-B
Hamiltonian term and leaves the sector structure and every commutation
property untouched.

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

MODEL_NAMES = ("two_spins", "spin_oscillator", "optomechanical")

_REQUIRED = {
    "two_spins": ("omega", "gamma_A", "gamma_B", "s_A", "s_B", "Omega"),
    "spin_oscillator": ("omega_A", "omega_B", "gamma_A", "gamma_B", "s",
                        "nbar", "Omega", "n_trunc"),
    "optomechanical": ("omega", "nu", "kappa", "gamma", "nbar", "mbar",
                       "g", "n_trunc"),
}

_POSITIVE = ("gamma_A", "gamma_B", "kappa", "gamma")
_NONNEG = ("nbar", "mbar", "g", "Omega")
_UNIT = ("s", "s_A", "s_B")


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
        if self.model not in MODEL_NAMES:
            raise ValueError(
                f"unknown model {self.model!r}; expected one of {MODEL_NAMES}")
        required = _REQUIRED[self.model]
        for name in required:
            if getattr(self, name) is None:
                raise ValueError(f"model {self.model!r} needs field {name!r}")
        for f in dataclasses.fields(self):
            v = getattr(self, f.name)
            if v is not None and f.name not in ("model",) + required:
                raise ValueError(
                    f"field {f.name!r} does not apply to model {self.model!r}")
            if isinstance(v, float) and not math.isfinite(v):
                raise ValueError(f"{f.name} must be finite, got {v}")
        for name in _POSITIVE:
            v = getattr(self, name)
            if v is not None and not v > 0:
                raise ValueError(f"{name} must be positive")
        for name in _NONNEG:
            v = getattr(self, name)
            if v is not None and v < 0:
                raise ValueError(f"{name} must be nonnegative")
        for name in _UNIT:
            v = getattr(self, name)
            if v is not None and not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1]")
        if self.n_trunc is not None:
            if self.model == "spin_oscillator":
                if not isinstance(self.n_trunc, int) or self.n_trunc < 2:
                    raise ValueError("n_trunc must be an int >= 2")
            else:
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


def _build_two_spins(cfg: ModelConfig) -> BuiltModel:
    spn = hb.spin()
    sp = hb.space(spn, spn)
    sm, splus, sz = hb.mk_spin_ops(spn)
    szA = hb.embed(sz, 0, sp)
    szB = hb.embed(sz, 1, sp)
    sxB = hb.embed(sm + splus, 1, sp)
    H = cfg.omega * (szA + szB) + cfg.Omega * (szA @ sxB)
    a_terms = (
        LindbladTerm(hb.embed(sm, 0, sp), cfg.gamma_A * (1.0 - cfg.s_A)),
        LindbladTerm(hb.embed(splus, 0, sp), cfg.gamma_A * cfg.s_A),
    )
    terms = a_terms + (
        LindbladTerm(hb.embed(sm, 1, sp), cfg.gamma_B * (1.0 - cfg.s_B)),
        LindbladTerm(hb.embed(splus, 1, sp), cfg.gamma_B * cfg.s_B),
    )
    L = Liouvillian(sp, H, terms)
    es = build_excitation_structure(hb.space(spn))
    return BuiltModel(cfg, L, es, spin_steady(cfg.s_A), spin_steady(cfg.s_B),
                      a_terms, cfg.gamma_A, "gamma_A", (0,), (1,),
                      ((cfg.gamma_A / 2.0, 1),))


def _build_spin_oscillator(cfg: ModelConfig) -> BuiltModel:
    spn = hb.spin()
    osc = hb.oscillator(cfg.n_trunc)
    sp = hb.space(spn, osc)
    sm, splus, sz = hb.mk_spin_ops(spn)
    b = hb.mk_destroy(osc)
    szA = hb.embed(sz, 0, sp)
    bC = hb.embed(b, 1, sp)
    xB = bC + bC.dagger()
    nB = bC.dagger() @ bC
    H = cfg.omega_A * szA + cfg.omega_B * nB + cfg.Omega * (szA @ xB)
    a_terms = (
        LindbladTerm(hb.embed(sm, 0, sp), cfg.gamma_A * (1.0 - cfg.s)),
        LindbladTerm(hb.embed(splus, 0, sp), cfg.gamma_A * cfg.s),
    )
    terms = a_terms + (
        LindbladTerm(bC, cfg.gamma_B * (cfg.nbar + 1.0)),
        LindbladTerm(bC.dagger(), cfg.gamma_B * cfg.nbar),
    )
    L = Liouvillian(sp, H, terms)
    es = build_excitation_structure(hb.space(spn))
    return BuiltModel(cfg, L, es, spin_steady(cfg.s),
                      thermal_state(cfg.nbar, cfg.n_trunc),
                      a_terms, cfg.gamma_A, "gamma_A", (0,), (1,),
                      ((cfg.gamma_A / 2.0, 1),))


def _build_optomechanical(cfg: ModelConfig) -> BuiltModel:
    na, nb = cfg.n_trunc
    oscA = hb.oscillator(na)
    oscB = hb.oscillator(nb)
    sp = hb.space(oscA, oscB)
    a = hb.embed(hb.mk_destroy(oscA), 0, sp)
    b = hb.embed(hb.mk_destroy(oscB), 1, sp)
    nA = a.dagger() @ a
    nBop = b.dagger() @ b
    xB = b + b.dagger()
    H = cfg.omega * nA + cfg.nu * nBop + cfg.g * (nA @ xB)
    a_terms = (
        LindbladTerm(a, cfg.kappa * (cfg.nbar + 1.0)),
        LindbladTerm(a.dagger(), cfg.kappa * cfg.nbar),
    )
    terms = a_terms + (
        LindbladTerm(b, cfg.gamma * (cfg.mbar + 1.0)),
        LindbladTerm(b.dagger(), cfg.gamma * cfg.mbar),
    )
    L = Liouvillian(sp, H, terms)
    es = build_excitation_structure(hb.space(oscA))
    return BuiltModel(cfg, L, es, thermal_state(cfg.nbar, na),
                      thermal_state(cfg.mbar, nb),
                      a_terms, cfg.kappa, "kappa", (0,), (1,),
                      ((cfg.kappa / 2.0, None),))


def build_model(cfg) -> BuiltModel:
    """Assemble the generator and reference data for a config."""
    cfg = parse_config(cfg)
    if cfg.model == "two_spins":
        return _build_two_spins(cfg)
    if cfg.model == "spin_oscillator":
        return _build_spin_oscillator(cfg)
    return _build_optomechanical(cfg)


def model_steady(bm: BuiltModel) -> SteadyReport:
    """Composite steady state of a built model."""
    return solve_steady(bm.L)
