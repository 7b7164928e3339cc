"""Config parsing and model assembly."""

import json

import numpy as np
import pytest

from lindpair.evolve import trace_norm
from lindpair.hilbert import partial_trace
from lindpair.models import (BuiltModel, ModelConfig, build_model,
                             model_steady, parse_config)

TWO_SPINS = dict(model="two_spins", omega=1.0, gamma_A=1.0, gamma_B=0.5,
                 s_A=0.8, s_B=0.6, Omega=0.7)
SPIN_OSC = dict(model="spin_oscillator", omega_A=1.0, omega_B=1.0,
                gamma_A=1.0, gamma_B=1.0, s=0.3, nbar=0.2, Omega=0.5,
                n_trunc=6)
OPTOMECH = dict(model="optomechanical", omega=1.0, nu=1.5, kappa=1.0,
                gamma=0.9, nbar=0.2, mbar=0.1, g=0.2, n_trunc=[4, 5])


def test_parse_config_sources(tmp_path):
    cfg = parse_config(TWO_SPINS)
    assert parse_config(cfg) is cfg
    assert parse_config(json.dumps(TWO_SPINS)) == cfg
    p = tmp_path / "m.json"
    p.write_text(json.dumps(TWO_SPINS))
    assert parse_config(p) == cfg
    assert parse_config(str(p)) == cfg


def test_parse_config_rejects_unknown_keys():
    bad = dict(TWO_SPINS, coupling=2.0)
    with pytest.raises(ValueError, match="unknown config keys"):
        parse_config(bad)
    with pytest.raises(ValueError, match="'model' key"):
        parse_config({"omega": 1.0})
    with pytest.raises(ValueError, match="unknown model"):
        parse_config(dict(TWO_SPINS, model="three_spins"))


def test_required_and_irrelevant_fields():
    missing = dict(TWO_SPINS)
    del missing["s_B"]
    with pytest.raises(ValueError, match="needs field 's_B'"):
        parse_config(missing)
    with pytest.raises(ValueError, match="does not apply"):
        parse_config(dict(TWO_SPINS, nbar=0.5))


def test_range_validation():
    with pytest.raises(ValueError, match="gamma_A"):
        parse_config(dict(TWO_SPINS, gamma_A=0.0))
    with pytest.raises(ValueError, match="s_A"):
        parse_config(dict(TWO_SPINS, s_A=1.5))
    with pytest.raises(ValueError, match="nbar"):
        parse_config(dict(SPIN_OSC, nbar=-0.1))
    with pytest.raises(ValueError, match="Omega"):
        parse_config(dict(TWO_SPINS, Omega=-1.0))
    # non-finite numbers fail at parse time with the field named
    with pytest.raises(ValueError, match="nbar"):
        parse_config(dict(SPIN_OSC, nbar=float("nan")))
    with pytest.raises(ValueError, match="gamma_A"):
        parse_config(dict(TWO_SPINS, gamma_A=float("inf")))
    with pytest.raises(ValueError, match="omega_A"):
        parse_config(dict(SPIN_OSC, omega_A=float("inf")))
    with pytest.raises(ValueError, match="Omega"):
        parse_config(dict(SPIN_OSC, Omega=float("nan")))


def test_n_trunc_validation():
    with pytest.raises(ValueError, match="n_trunc"):
        parse_config(dict(SPIN_OSC, n_trunc=1))
    with pytest.raises(ValueError, match="n_trunc"):
        parse_config(dict(SPIN_OSC, n_trunc=(4, 4)))
    with pytest.raises(ValueError, match="n_trunc"):
        parse_config(dict(OPTOMECH, n_trunc=6))
    cfg = parse_config(OPTOMECH)
    assert cfg.n_trunc == (4, 5)  # JSON list becomes a tuple


def test_build_two_spins_structure():
    bm = build_model(TWO_SPINS)
    assert isinstance(bm, BuiltModel)
    assert bm.L.dim == 4
    assert bm.L.hamiltonian.is_hermitian()
    assert len(bm.L.terms) == 4
    assert bm.reference_name == "gamma_A"
    assert bm.reference_rate == 1.0
    assert bm.a_factors == (0,) and bm.b_factors == (1,)
    assert bm.a_unit_costs == ((0.5, 1),)
    assert np.allclose(bm.analytic_A_steady, np.diag([0.2, 0.8]))
    assert list(bm.es.exc) == [0, 1]


def test_build_spin_oscillator_structure():
    bm = build_model(SPIN_OSC)
    assert bm.L.dim == 12
    assert bm.L.hamiltonian.is_hermitian()
    rates = sorted(t.rate for t in bm.L.terms)
    assert rates == sorted([0.7, 0.3, 1.2, 0.2])
    assert bm.analytic_B_steady.shape == (6, 6)
    assert np.isclose(np.trace(bm.analytic_B_steady).real, 1.0)


def test_build_optomechanical_structure():
    bm = build_model(OPTOMECH)
    assert bm.L.dim == 20
    assert bm.reference_name == "kappa"
    assert bm.a_unit_costs == ((0.5, None),)
    rho = np.kron(bm.analytic_A_steady, bm.analytic_B_steady)
    assert rho.shape == (20, 20)
    assert np.isclose(np.trace(rho).real, 1.0)
    # A-side damping excludes the interaction and the B bath
    assert len(bm.a_terms) == 2


def test_interaction_preserves_a_marginal():
    # the assembled generator keeps the uncoupled A fixed point exact in
    # the A marginal even at strong coupling
    bm = build_model(dict(TWO_SPINS, Omega=3.0))
    rep = model_steady(bm)
    red_A = partial_trace(rep.rho_st, (0,)).entries
    assert trace_norm(red_A - bm.analytic_A_steady) <= 1e-9
    red_B = partial_trace(rep.rho_st, (1,)).entries
    assert trace_norm(red_B - bm.analytic_B_steady) > 1e-3
