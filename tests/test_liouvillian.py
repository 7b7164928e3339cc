"""Generator structure: trace annihilation, hermiticity, adjoint pairing,
the cached superoperator against a term-by-term dense reference, and the
input checks and sharing rules of ``apply`` and ``sparse_superoperator``."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lindpair import hilbert as hb
from lindpair.liouvillian import (Liouvillian, LindbladTerm,
                                  sparse_superoperator, trace_row_indices)


def _random_model(seed: int, dim_b: int = 3):
    """Spin x oscillator pair with random hermitian H and two jumps.

    The spin jump has complex entries, so a transpose taken where a
    conjugate transpose belongs shows up in every check."""
    rng = np.random.default_rng(seed)
    sp = hb.space(hb.spin(), hb.oscillator(dim_b))
    d = sp.total_dim
    X = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    H = hb.Operator(sp, 0.5 * (X + X.conj().T))
    sm, splus, _ = hb.mk_spin_ops(hb.spin())
    b = hb.mk_destroy(hb.oscillator(dim_b))
    jump = sm + 0.4j * splus
    terms = [LindbladTerm(hb.embed(jump, 0, sp), 0.5 + rng.uniform(0, 2)),
             LindbladTerm(hb.embed(b, 1, sp), 0.5 + rng.uniform(0, 2))]
    return Liouvillian(sp, H, terms), rng


def _random_state(rng, d):
    X = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = X @ X.conj().T
    return rho / np.trace(rho).real


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_trace_annihilation(seed):
    L, rng = _random_model(seed)
    rho = _random_state(rng, L.dim)
    assert abs(np.trace(L.apply(rho))) <= 1e-12 * np.abs(L.apply(rho)).max()


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_hermiticity_preservation(seed):
    L, rng = _random_model(seed)
    rho = _random_state(rng, L.dim)
    out = L.apply(rho)
    assert np.abs(out - out.conj().T).max() <= 1e-12 * np.abs(out).max()


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_adjoint_pairing(seed):
    # Tr(Y^dag L(rho)) == Tr((L^dag Y)^dag rho) for arbitrary Y
    L, rng = _random_model(seed)
    d = L.dim
    rho = _random_state(rng, d)
    Y = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    lhs = np.trace(Y.conj().T @ L.apply(rho))
    rhs = np.trace(L.adjoint_apply(Y).conj().T @ rho)
    assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))


def test_matrix_free_matches_superoperator():
    L, rng = _random_model(11, dim_b=4)
    d = L.dim
    M = sparse_superoperator(L).toarray()
    vec = lambda X: X.flatten(order="F")
    unvec = lambda v: v.reshape(d, d, order="F")
    # term-by-term reference built from H and the jumps, not the drift
    I = np.eye(d)
    H = L.hamiltonian.entries
    ref = -1j * (np.kron(I, H) - np.kron(H.T, I))
    for t in L.terms:
        J = t.jump_op.entries
        JdJ = J.conj().T @ J
        ref += t.rate * (np.kron(J.conj(), J) - 0.5 * np.kron(I, JdJ)
                         - 0.5 * np.kron(JdJ.T, I))
    assert np.abs(M - ref).max() <= 1e-12 * np.abs(ref).max()
    rho = _random_state(rng, d)
    X = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    for state in (rho, X):
        direct = L.apply(state)
        err = np.abs(unvec(ref @ vec(state)) - direct).max()
        assert err <= 1e-12 * np.abs(direct).max()
        # the Heisenberg-picture adjoint is the conjugate transpose
        adj = L.adjoint_apply(state)
        err = np.abs(unvec(ref.conj().T @ vec(state)) - adj).max()
        assert err <= 1e-12 * np.abs(adj).max()


def test_apply_rejects_wrong_shapes():
    L, _ = _random_model(3)
    d = L.dim
    for bad in (np.zeros(d * d, dtype=complex),
                np.zeros((d + 1, d + 1), dtype=complex)):
        for fn in (L.apply, L.adjoint_apply):
            with pytest.raises(ValueError, match=rf"\({d}, {d}\)"):
                fn(bad)


def test_apply_ignores_memory_layout():
    L, rng = _random_model(8)
    d = L.dim
    X = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    big = np.zeros((2 * d, 3 * d), dtype=complex)
    big[::2, ::3] = X
    for fn in (L.apply, L.adjoint_apply):
        for state in (X.T, np.asfortranarray(X), big[::2, ::3]):
            want = fn(np.ascontiguousarray(state))
            assert np.abs(fn(state) - want).max() <= \
                1e-15 * np.abs(want).max()


def test_superoperator_is_shared_and_read_only():
    L, _ = _random_model(2)
    S = sparse_superoperator(L)
    assert sparse_superoperator(L) is S
    assert not any(a.flags.writeable for a in (S.data, S.indices, S.indptr))
    with pytest.raises(ValueError):
        sparse_superoperator(L).data *= 2


def test_adjoint_of_identity_vanishes():
    L, _ = _random_model(5)
    out = L.adjoint_apply(np.eye(L.dim, dtype=complex))
    # unitality of the adjoint is trace preservation of the map
    assert np.abs(out).max() <= 1e-12


def test_dissipator_thermal_fixed_point():
    dim = 14
    sp = hb.space(hb.oscillator(dim))
    b = hb.embed(hb.mk_destroy(hb.oscillator(dim)), 0, sp)
    nbar = 0.4
    H = hb.Operator(sp, np.zeros((dim, dim), dtype=complex))
    L = Liouvillian(sp, H, [LindbladTerm(b, 1.0 * (nbar + 1)),
                            LindbladTerm(b.dagger(), 1.0 * nbar)])
    ratio = nbar / (nbar + 1)
    p = ratio ** np.arange(dim)
    p /= p.sum()
    rho = np.diag(p).astype(complex)
    # fixed up to the geometric weight leaking past the truncation
    assert np.abs(L.apply(rho)).max() <= 2 * ratio ** dim


def test_trace_row_indices():
    d = 5
    rng = np.random.default_rng(0)
    rho = rng.normal(size=(d, d))
    vec = rho.flatten(order="F")
    assert np.isclose(vec[trace_row_indices(d)].sum(), np.trace(rho))


def test_negative_rate_rejected():
    sp = hb.space(hb.spin())
    sm, _, _ = hb.mk_spin_ops(hb.spin())
    with pytest.raises(ValueError):
        LindbladTerm(hb.embed(sm, 0, sp), -0.1)


def test_nonhermitian_hamiltonian_rejected():
    sp = hb.space(hb.spin())
    H = hb.Operator(sp, np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))
    with pytest.raises(ValueError):
        Liouvillian(sp, H, [])

