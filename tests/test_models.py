"""Config parsing and model assembly."""

import json

import numpy as np
import pytest

from lindpair.evolve import trace_norm
from lindpair.hilbert import mk_destroy, mk_number, mk_spin_ops, partial_trace
from lindpair.liouvillian import sparse_superoperator
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
    for full in (TWO_SPINS, SPIN_OSC, OPTOMECH):
        for name in set(full) - {"model"}:
            missing = dict(full)
            del missing[name]
            with pytest.raises(ValueError, match=f"needs field '{name}'"):
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
    # a number of the wrong type fails at parse time with the field named;
    # JSON integers stay valid
    with pytest.raises(ValueError, match="omega"):
        parse_config(dict(TWO_SPINS, omega="1.0"))
    with pytest.raises(ValueError, match="gamma_A"):
        parse_config(dict(TWO_SPINS, gamma_A="1.0"))
    with pytest.raises(ValueError, match="s_A"):
        parse_config(dict(TWO_SPINS, s_A=[0.5]))
    with pytest.raises(ValueError, match="Omega"):
        parse_config(dict(TWO_SPINS, Omega=True))
    assert parse_config(dict(TWO_SPINS, gamma_A=1)).gamma_A == 1


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


# Every numeric field distinct, so a field read in the wrong role changes
# the generator.
_DISTINCT = {
    "two_spins": dict(model="two_spins", omega=0.7, gamma_A=1.3,
                      gamma_B=0.45, s_A=0.85, s_B=0.25, Omega=0.6),
    "spin_oscillator": dict(model="spin_oscillator", omega_A=0.7,
                            omega_B=1.9, gamma_A=1.3, gamma_B=0.45, s=0.85,
                            nbar=0.35, Omega=0.6, n_trunc=4),
    "optomechanical": dict(model="optomechanical", omega=0.7, nu=1.9,
                           kappa=1.3, gamma=0.45, nbar=0.35, mbar=0.15,
                           g=0.6, n_trunc=(3, 4)),
}

_SM = np.array([[0.0, 1.0], [0.0, 0.0]])  # sigma_-, |0> is the ground state
_SZ = np.diag([-1.0, 1.0])
_I2 = np.eye(2)


def _ladder(n):
    return np.diag(np.sqrt(np.arange(1.0, n)), 1)


def _reference(c):
    """H and the four (jump, rate) pairs from the README formulas."""
    kron = np.kron
    if c["model"] == "two_spins":
        lA, lB = kron(_SM, _I2), kron(_I2, _SM)
        H = c["omega"] * (kron(_SZ, _I2) + kron(_I2, _SZ)) \
            + c["Omega"] * kron(_SZ, _SM + _SM.T)
        rates = (c["gamma_A"] * (1 - c["s_A"]), c["gamma_A"] * c["s_A"],
                 c["gamma_B"] * (1 - c["s_B"]), c["gamma_B"] * c["s_B"])
    elif c["model"] == "spin_oscillator":
        b, In = _ladder(c["n_trunc"]), np.eye(c["n_trunc"])
        lA, lB = kron(_SM, In), kron(_I2, b)
        H = c["omega_A"] * kron(_SZ, In) + c["omega_B"] * kron(_I2, b.T @ b) \
            + c["Omega"] * kron(_SZ, b + b.T)
        rates = (c["gamma_A"] * (1 - c["s"]), c["gamma_A"] * c["s"],
                 c["gamma_B"] * (c["nbar"] + 1), c["gamma_B"] * c["nbar"])
    else:
        na, nb = c["n_trunc"]
        a, b = _ladder(na), _ladder(nb)
        lA, lB = kron(a, np.eye(nb)), kron(np.eye(na), b)
        H = c["omega"] * kron(a.T @ a, np.eye(nb)) \
            + c["nu"] * kron(np.eye(na), b.T @ b) \
            + c["g"] * kron(a.T @ a, b + b.T)
        rates = (c["kappa"] * (c["nbar"] + 1), c["kappa"] * c["nbar"],
                 c["gamma"] * (c["mbar"] + 1), c["gamma"] * c["mbar"])
    return H, list(zip((lA, lA.T, lB, lB.T), rates))


@pytest.mark.parametrize("model", sorted(_DISTINCT))
def test_build_matches_reference_generator(model):
    c = _DISTINCT[model]
    H, jumps = _reference(c)
    # column-stacking superoperator, A rho B -> kron(B^T, A), term by term
    I = np.eye(H.shape[0])
    ref = -1j * (np.kron(I, H) - np.kron(H.T, I))
    for J, r in jumps:
        JdJ = J.T @ J
        ref += r * (np.kron(J, J) - 0.5 * np.kron(I, JdJ)
                    - 0.5 * np.kron(JdJ.T, I))
    bm = build_model(c)
    M = sparse_superoperator(bm.L).toarray()
    assert np.abs(M - ref).max() <= 1e-12 * np.abs(ref).max()
    # the A pair comes first and forms a_terms
    for t, (J, r) in zip(bm.a_terms, jumps[:2], strict=True):
        assert np.array_equal(t.jump_op.entries, J) and t.rate == r


# the CI configs, and per model the A frequency, B frequency and
# coupling fields
_CI_CONFIGS = [
    (dict(TWO_SPINS), ("omega", "omega", "Omega")),
    (dict(SPIN_OSC, n_trunc=15), ("omega_A", "omega_B", "Omega")),
    (dict(OPTOMECH, n_trunc=[10, 12]), ("omega", "nu", "g")),
]


@pytest.mark.parametrize("c, fields", _CI_CONFIGS,
                         ids=[c["model"] for c, _ in _CI_CONFIGS])
def test_build_entries_equal_numpy_kron_bitwise(c, fields):
    # build_model's products, each Kronecker product taken by np.kron
    bm = build_model(c)
    dA, dB = bm.L.space.dims
    low, exc = [], []
    for f in bm.L.space.factors:
        if f.kind == "spin":
            sm, _, sz = mk_spin_ops(f)
            low.append(sm.entries)
            exc.append(sz.entries)
        else:
            low.append(mk_destroy(f).entries)
            exc.append(mk_number(f).entries)
    embed = [lambda m: np.kron(m, np.eye(dB)),
             lambda m: np.kron(np.eye(dA), m)]
    H = (c[fields[0]] * embed[0](exc[0]) + c[fields[1]] * embed[1](exc[1])
         + c[fields[2]] * np.kron(exc[0], low[1] + low[1].conj().T))
    assert bm.L.hamiltonian.entries.tobytes() == H.tobytes()
    jumps = [m for e, l in zip(embed, low) for m in (e(l), e(l).conj().T)]
    for t, J in zip(bm.L.terms, jumps, strict=True):
        assert t.jump_op.entries.tobytes() == \
            np.ascontiguousarray(J).tobytes()


def test_interaction_preserves_a_marginal():
    # the assembled generator keeps the uncoupled A fixed point exact in
    # the A marginal even at strong coupling
    bm = build_model(dict(TWO_SPINS, Omega=3.0))
    rep = model_steady(bm)
    red_A = partial_trace(rep.rho_st, (0,)).entries
    assert trace_norm(red_A - bm.analytic_A_steady) <= 1e-9
    red_B = partial_trace(rep.rho_st, (1,)).entries
    assert trace_norm(red_B - bm.analytic_B_steady) > 1e-3
