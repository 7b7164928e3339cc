"""Tensor-space plumbing: operators, embeddings, partial traces."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lindpair import hilbert as hb


def test_subsystem_specs():
    s = hb.spin()
    assert s.dim == 2 and s.kind == hb.SPIN
    o = hb.oscillator(7)
    assert o.dim == 7 and o.kind == hb.OSCILLATOR
    with pytest.raises(ValueError):
        hb.oscillator(1)


def test_space_dims():
    sp = hb.space(hb.spin(), hb.oscillator(5))
    assert sp.total_dim == 10
    assert sp.dims == (2, 5)
    assert len(sp) == 2


def test_spin_ops_matrix_elements():
    sm, sp_, sz = hb.mk_spin_ops(hb.spin())
    # lowering maps the excited level |1> to the ground level |0>
    assert sm.entries[0, 1] == 1.0 and np.count_nonzero(sm.entries) == 1
    assert np.allclose(sp_.entries, sm.entries.conj().T)
    assert np.allclose(sz.entries, np.diag([-1.0, 1.0]))
    assert np.allclose((sp_ @ sm).entries, np.diag([0.0, 1.0]))


def test_destroy_commutator_below_truncation():
    dim = 9
    a = hb.mk_destroy(hb.oscillator(dim)).entries
    comm = a @ a.conj().T - a.conj().T @ a
    # canonical on the interior, broken only at the cut level
    assert np.allclose(np.diag(comm)[:-1], 1.0, atol=1e-14)
    assert np.isclose(np.diag(comm)[-1], -(dim - 1))


def test_number_operator():
    n = hb.mk_number(hb.oscillator(6)).entries
    assert np.allclose(n, np.diag(np.arange(6)))


def test_operator_space_mismatch():
    sp1 = hb.space(hb.spin())
    sp2 = hb.space(hb.oscillator(3))
    x = hb.identity(sp1)
    y = hb.identity(sp2)
    with pytest.raises(ValueError):
        _ = x + y
    with pytest.raises(ValueError):
        _ = x @ y


def test_operator_frozen_entries():
    x = hb.identity(hb.space(hb.spin()))
    with pytest.raises((ValueError, RuntimeError)):
        x.entries[0, 0] = 5.0


def test_embed_matches_kron():
    spA, spB = hb.spin(), hb.oscillator(4)
    sp = hb.space(spA, spB)
    sm, _, _ = hb.mk_spin_ops(spA)
    a = hb.mk_destroy(spB)
    left = hb.embed(sm, 0, sp).entries
    right = hb.embed(a, 1, sp).entries
    assert np.allclose(left, np.kron(sm.entries, np.eye(4)))
    assert np.allclose(right, np.kron(np.eye(2), a.entries))
    # operators on different factors commute after embedding
    assert np.allclose(left @ right, right @ left)


def test_kron_equals_numpy_kron_bitwise():
    rng = np.random.default_rng(5)

    def real(m, n):
        x = rng.normal(size=(m, n))
        x[rng.random((m, n)) < 0.3] = 0.0
        x[rng.random((m, n)) < 0.2] = -0.0
        return x

    def cplx(m, n):
        return real(m, n) + 1j * real(m, n)

    # real and complex, square and rectangular, 1x1 and 1xn, and the
    # real identity against a complex factor that embed multiplies
    for a, b in [(real(3, 3), real(2, 2)), (cplx(2, 3), cplx(4, 1)),
                 (real(2, 2), cplx(3, 3)), (np.eye(3), cplx(2, 2)),
                 (cplx(3, 2), np.eye(2)), (real(1, 1), cplx(3, 2)),
                 (cplx(1, 1), cplx(1, 1)), (cplx(1, 4), real(2, 3)),
                 (real(1, 3), cplx(1, 2))]:
        want = np.kron(a, b)
        got = hb.kron(a, b)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()


def test_embed_factor_mismatch():
    sp = hb.space(hb.spin(), hb.oscillator(4))
    a = hb.mk_destroy(hb.oscillator(3))
    with pytest.raises(ValueError):
        hb.embed(a, 1, sp)


def test_partial_trace_bell_state():
    sp = hb.space(hb.spin(), hb.spin())
    psi = np.zeros(4, dtype=complex)
    psi[0] = psi[3] = 1.0 / np.sqrt(2.0)
    rho = hb.Operator(sp, np.outer(psi, psi.conj()))
    for keep in ((0,), (1,)):
        red = hb.partial_trace(rho, keep)
        assert np.allclose(red.entries, np.eye(2) / 2.0, atol=1e-14)


def test_partial_trace_product_state():
    sp = hb.space(hb.spin(), hb.oscillator(3))
    pa = np.diag([0.25, 0.75]).astype(complex)
    pb = np.diag([0.5, 0.3, 0.2]).astype(complex)
    rho = hb.Operator(sp, np.kron(pa, pb))
    assert np.allclose(hb.partial_trace(rho, (0,)).entries, pa)
    assert np.allclose(hb.partial_trace(rho, (1,)).entries, pb)


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 4), st.integers(2, 4), st.integers(0, 10 ** 6))
def test_partial_trace_random_product(da, db, seed):
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(da, da)) + 1j * rng.normal(size=(da, da))
    B = rng.normal(size=(db, db)) + 1j * rng.normal(size=(db, db))
    sp = hb.space(hb.oscillator(da), hb.oscillator(db))
    rho = hb.Operator(sp, np.kron(A, B))
    redA = hb.partial_trace(rho, (0,)).entries
    assert np.allclose(redA, A * np.trace(B), atol=1e-12 * max(
        1.0, np.abs(A).max() * abs(np.trace(B))))
    # trace itself survives any marginalization
    assert np.isclose(np.trace(redA), np.trace(A) * np.trace(B))


def test_partial_trace_three_factors():
    sp = hb.space(hb.spin(), hb.oscillator(3), hb.spin())
    rng = np.random.default_rng(3)
    X = rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12))
    rho = hb.Operator(sp, X @ X.conj().T)
    rho = hb.Operator(sp, rho.entries / rho.trace())
    red = hb.partial_trace(rho, (0, 2))
    assert red.entries.shape == (4, 4)
    assert np.isclose(np.trace(red.entries), 1.0)
    # keeping everything is the identity operation
    full = hb.partial_trace(rho, (0, 1, 2))
    assert np.allclose(full.entries, rho.entries)


def test_hermiticity_check():
    sp = hb.space(hb.spin())
    h = hb.Operator(sp, np.array([[1.0, 2.0 + 1j], [2.0 - 1j, -1.0]]))
    assert h.is_hermitian()
    nh = hb.Operator(sp, np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))
    assert not nh.is_hermitian()
