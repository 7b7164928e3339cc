"""Generator structure: trace annihilation, hermiticity, adjoint pairing,
the cached superoperator against a term-by-term dense reference (edge
generators included) and its CSR layout, and the input checks and
sharing rules of ``apply`` and ``sparse_superoperator``."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lindpair import hilbert as hb
from lindpair.liouvillian import (Liouvillian, LindbladTerm, _assemble,
                                  _is_hermitian, sparse_superoperator,
                                  trace_row_indices)
from lindpair.models import ModelConfig, build_model


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


def _dense_reference(L):
    """Term-by-term kron superoperator built from H and the jumps."""
    d = L.dim
    I = np.eye(d)
    H = L.hamiltonian.entries
    ref = -1j * (np.kron(I, H) - np.kron(H.T, I))
    for t in L.terms:
        J = t.jump_op.entries
        JdJ = J.conj().T @ J
        ref += t.rate * (np.kron(J.conj(), J) - 0.5 * np.kron(I, JdJ)
                         - 0.5 * np.kron(JdJ.T, I))
    return ref


def _edge_generators():
    """Zero hamiltonian without jumps, and zero hamiltonian with jumps."""
    sp = hb.space(hb.spin(), hb.oscillator(3))
    d = sp.total_dim
    H = hb.Operator(sp, np.zeros((d, d), dtype=complex))
    sm, _, _ = hb.mk_spin_ops(hb.spin())
    b = hb.mk_destroy(hb.oscillator(3))
    jumps = [LindbladTerm(hb.embed(sm, 0, sp), 0.8),
             LindbladTerm(hb.embed(b, 1, sp), 1.3),
             LindbladTerm(hb.embed(b, 1, sp).dagger(), 0.2)]
    return Liouvillian(sp, H, []), Liouvillian(sp, H, jumps)


def _many_nonzero_jumps(rng):
    """Jumps with several nonzeros per row and per column, and a zero rate.

    A dense random complex jump, ``b + b^dag`` and a spin jump at rate
    zero: the drift's ``J^dag J`` then sums several products per entry,
    which ladder operators never do."""
    sp = hb.space(hb.spin(), hb.oscillator(3))
    d = sp.total_dim
    X = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    H = hb.Operator(sp, 0.5 * (X + X.conj().T))
    dense = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    b = hb.mk_destroy(hb.oscillator(3))
    sm, _, _ = hb.mk_spin_ops(hb.spin())
    terms = [LindbladTerm(hb.Operator(sp, dense), 0.7),
             LindbladTerm(hb.embed(b + b.dagger(), 1, sp), 0.9),
             LindbladTerm(hb.embed(sm, 0, sp), 0.0)]
    return Liouvillian(sp, H, terms)


def test_matrix_free_matches_superoperator():
    random, rng = _random_model(11, dim_b=4)
    free, jumps_only = _edge_generators()
    assert sparse_superoperator(free).nnz == 0
    vec = lambda X: X.flatten(order="F")
    for L in (random, free, jumps_only, _many_nonzero_jumps(rng)):
        d = L.dim
        unvec = lambda v: v.reshape(d, d, order="F")
        M = sparse_superoperator(L).toarray()
        ref = _dense_reference(L)
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
    assert not np.any(free.apply(_random_state(rng, free.dim)))


# the CI configs of the three models, and a spin-oscillator pair whose
# heating channels have rate zero (s = 0, nbar = 0)
_LAYOUT_CONFIGS = {
    "two_spins": dict(model="two_spins", omega=1.0, gamma_A=1.0,
                      gamma_B=0.5, s_A=0.8, s_B=0.6, Omega=0.7),
    "spin_oscillator": dict(model="spin_oscillator", omega_A=1.0,
                            omega_B=1.0, gamma_A=1.0, gamma_B=1.0, s=0.3,
                            nbar=0.2, Omega=0.5, n_trunc=15),
    "optomechanical": dict(model="optomechanical", omega=1.0, nu=1.5,
                           kappa=1.0, gamma=0.9, nbar=0.2, mbar=0.1,
                           g=0.2, n_trunc=(10, 12)),
    "zero_rate": dict(model="spin_oscillator", omega_A=1.0, omega_B=1.0,
                      gamma_A=1.0, gamma_B=1.0, s=0.0, nbar=0.0,
                      Omega=0.5, n_trunc=6),
}


@pytest.mark.parametrize("name", ["random", *_LAYOUT_CONFIGS])
def test_superoperator_layout(name):
    # the steady solver reads the pattern of S to find its blocks, so a
    # stored zero could merge two blocks and hide a degenerate null space
    if name == "random":
        L, _ = _random_model(4)
    else:
        L = build_model(ModelConfig(**_LAYOUT_CONFIGS[name])).L
        if name == "zero_rate":
            assert any(t.rate == 0.0 for t in L.terms)
    S = sparse_superoperator(L)
    assert S.has_canonical_format
    assert S.indices.dtype == np.int32
    assert S.nnz == np.count_nonzero(S.toarray())


def test_apply_rejects_wrong_shapes():
    L, _ = _random_model(3)
    d = L.dim
    for bad in (np.zeros(d * d, dtype=complex),
                np.zeros((d + 1, d + 1), dtype=complex)):
        for fn in (L.apply, L.adjoint_apply):
            with pytest.raises(ValueError, match=rf"\({d}, {d}\)"):
                fn(bad)


def test_apply_ignores_memory_layout():
    # apply calls SciPy's CSR kernel directly; whatever the layout or
    # dtype of the input, it must give SciPy's own S @ vec(X), bitwise,
    # in a new array, and leave the shared S read-only
    rng = np.random.default_rng(8)
    models = [_random_model(8)[0]] + [build_model(ModelConfig(**c)).L
                                      for c in _LAYOUT_CONFIGS.values()]
    for L in models:
        d = L.dim
        X = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        big = np.zeros((2 * d, 3 * d), dtype=complex)
        big[::2, ::3] = X
        # rows of a column-major array: its F-order flattening is a
        # strided 1-d view rather than a copy
        tall = np.zeros((2 * d, d), dtype=complex, order="F")
        tall[::2] = X
        inputs = (np.asfortranarray(X), np.ascontiguousarray(X), X.T,
                  big[::2, ::3], tall[::2], X.real.copy(),
                  X.astype(np.complex64))
        S = sparse_superoperator(L)
        for fn, M in ((L.apply, S), (L.adjoint_apply, S.conj().T)):
            for state in inputs:
                want = (M @ state.reshape(-1, order="F")).reshape(
                    d, d, order="F")
                got = fn(state)
                assert got.dtype == complex
                assert np.array_equal(got, want)
                assert not np.shares_memory(got, state)
        assert not any(a.flags.writeable
                       for a in (S.data, S.indices, S.indptr))


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
    for rate in (-0.1, np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="rate"):
            LindbladTerm(hb.embed(sm, 0, sp), rate)


def test_nonhermitian_hamiltonian_rejected():
    sp = hb.space(hb.spin())
    H = hb.Operator(sp, np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))
    with pytest.raises(ValueError):
        Liouvillian(sp, H, [])



def _dense_view_terms(L):
    """The kron terms of ``S`` formed from the dense views of ``L``:
    the nonzeros of ``H`` and of each jump, and a dense drift
    ``K = -i H - (1/2) sum_j r_j J_j^dag J_j`` whose ``J^dag J`` entries
    are added pair by pair, in jump, row and column order."""
    d = L.dim
    K = -1j * L.hamiltonian.entries
    terms = []
    for t in L.terms:
        r, c, v = hb.nonzeros(t.jump_op.entries)
        a, b = np.nonzero(r[:, None] == r[None, :])
        np.add.at(K, (c[a], c[b]), -0.5 * t.rate * v[a].conj() * v[b])
        if t.rate != 0:
            terms.append((t.rate, (r, c, v.conj()), (r, c, v)))
    k = hb.nonzeros(K)
    diag = np.arange(d, dtype=np.int32)
    one = (diag, diag, np.ones(d))
    return [(1.0, one, k), (1.0, (k[0], k[1], k[2].conj()), one)] + terms


def _seeded_configs(model, n, seed):
    """``n`` random configs of a model: signed frequencies, zero
    occupations and couplings among them, small truncations."""
    rng = np.random.default_rng(seed)
    u = lambda lo=0.1, hi=2.0: float(rng.uniform(lo, hi))
    freq = lambda: float(rng.choice([-1.0, 1.0])) * u()
    zero_or = lambda: 0.0 if rng.random() < 0.25 else u(0.0, 1.0)
    trunc = lambda: int(rng.integers(2, 9))
    for _ in range(n):
        if model == "two_spins":
            yield dict(model=model, omega=freq(), gamma_A=u(), gamma_B=u(),
                       s_A=zero_or(), s_B=zero_or(), Omega=zero_or())
        elif model == "spin_oscillator":
            yield dict(model=model, omega_A=freq(), omega_B=freq(),
                       gamma_A=u(), gamma_B=u(), s=zero_or(),
                       nbar=zero_or(), Omega=zero_or(), n_trunc=trunc())
        else:
            yield dict(model=model, omega=freq(), nu=freq(), kappa=u(),
                       gamma=u(), nbar=zero_or(), mbar=zero_or(),
                       g=zero_or(), n_trunc=(trunc(), trunc()))


def _assert_same_arrays(S, R):
    for name in ("indptr", "indices", "data"):
        a, b = getattr(S, name), getattr(R, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("model", ["two_spins", "spin_oscillator",
                                   "optomechanical"])
def test_superoperator_bytes_match_dense_view_assembly(model):
    # the drift summed on the nonzeros gives S bit for bit as the dense
    # drift does; two_spins' frequency terms cancel on |01> and |10>
    for c in _seeded_configs(model, 30, seed=len(model)):
        L = build_model(ModelConfig(**c)).L
        _assert_same_arrays(sparse_superoperator(L),
                            _assemble(_dense_view_terms(L), L.dim))


def test_random_generator_bytes_match_dense_view_assembly():
    rng = np.random.default_rng(21)
    generators = [_random_model(seed, dim_b=2 + seed % 4)[0]
                  for seed in range(10)]
    generators += [*_edge_generators(), _many_nonzero_jumps(rng)]
    for L in generators:
        _assert_same_arrays(sparse_superoperator(L),
                            _assemble(_dense_view_terms(L), L.dim))


def test_dense_views_are_not_kept():
    L = build_model(ModelConfig(**_LAYOUT_CONFIGS["optomechanical"])).L
    before = dict(vars(L))
    H, terms = L.hamiltonian, L.terms
    assert H.entries.shape == (L.dim, L.dim) and len(terms) == 4
    assert vars(L).keys() == before.keys()
    assert all(vars(L)[k] is v for k, v in before.items())
    # what L keeps is the nonzero triplets: no array of it is 2-d
    kept = [L.h, *L.jumps]
    assert all(a.ndim == 1 and not a.flags.writeable
               for nz in kept for a in nz)
    for nz, M in zip(kept, [H, *(t.jump_op for t in terms)]):
        for a, b in zip(nz, hb.nonzeros(M.entries)):
            assert a.tobytes() == b.tobytes()


def test_non_finite_entries_rejected():
    sp = hb.space(hb.spin(), hb.oscillator(3))
    d = sp.total_dim
    zero = hb.Operator(sp, np.zeros((d, d)))
    jump = hb.embed(hb.mk_destroy(hb.oscillator(3)), 1, sp).entries
    for bad in (np.nan, np.inf, -np.inf, complex(0, np.nan)):
        J = jump.copy()
        J[0, 1] = bad
        H = np.eye(d, dtype=complex)
        H[2, 2] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="jump 1 has non-finite"):
                Liouvillian(sp, zero, [LindbladTerm(hb.Operator(sp, M), 1.0)
                                       for M in (jump, J)])
            with pytest.raises(ValueError,
                               match="hamiltonian has non-finite"):
                Liouvillian(sp, hb.Operator(sp, H), [])
            with pytest.raises(ValueError,
                               match="hamiltonian has non-finite"):
                Liouvillian.from_nonzeros(sp, hb.nonzeros(H), [], [])


def test_from_nonzeros_checks_as_the_constructor():
    sp = hb.space(hb.spin())
    sm = hb.nonzeros(hb.mk_spin_ops(hb.spin())[0].entries)
    with pytest.raises(ValueError, match="not hermitian"):
        Liouvillian.from_nonzeros(sp, sm, [], [])
    with pytest.raises(ValueError, match="rate"):
        Liouvillian.from_nonzeros(sp, hb.nonzeros(np.eye(2)), [sm], [-1.0])
    with pytest.raises(ValueError, match="1 jumps but 2 rates"):
        Liouvillian.from_nonzeros(sp, hb.nonzeros(np.eye(2)), [sm],
                                  [1.0, 1.0])


def test_hermiticity_on_nonzeros_matches_dense_check():
    # one criterion, |H - H^dag|_max <= TOL_HERM |H|_max, on either form;
    # the asymmetric entries sit on both sides of the tolerance, and
    # some have no partner across the diagonal
    rng = np.random.default_rng(3)
    sp = hb.space(hb.oscillator(6))
    verdicts = set()
    for _ in range(200):
        X = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        X *= rng.random((6, 6)) < 0.5
        X = X + X.conj().T
        i, j = rng.integers(0, 6, size=2)
        X[i, j] += rng.choice([0.5, 1.0, 2.0]) * hb.TOL_HERM \
            * np.abs(X).max() * rng.choice([1.0, 1j])
        dense = hb.Operator(sp, X).is_hermitian()
        assert _is_hermitian(hb.nonzeros(X), 6) == dense
        verdicts.add(dense)
    assert verdicts == {True, False}
