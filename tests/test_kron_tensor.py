import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from qbmor import kron_tensor
from qbmor.kron_tensor import (
    Hessian, commutation_matrix, perm_T, perm_M, mode_matricize,
    vec, unvec, PermutationMatrix,
)
from conftest import random_dense_hessian, random_pair_hessian, rng_for


def block_perm(pa, pb):
    # blkdiag of two permutation index maps
    perm = np.concatenate([pa.perm, pa.size + pb.perm])
    return PermutationMatrix(perm)


# ---------------------------------------------------------------- permutations

def test_commutation_scalar_is_identity():
    S = commutation_matrix(1, 1)
    assert np.array_equal(S.to_dense(), np.eye(1))


def test_commutation_example_2x2():
    u = np.array([1.0, 2.0])
    v = np.array([3.0, 4.0])
    S = commutation_matrix(2, 2)
    assert np.array_equal(S.apply(np.kron(u, v)), np.kron(v, u))


def test_commutation_orthogonal():
    S = commutation_matrix(3, 2)
    D = S.to_dense()
    assert np.array_equal(D @ D.T, np.eye(6))
    assert np.array_equal(S.T.to_dense(), D.T)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4), st.integers(0, 10**6))
def test_commutation_swaps_kron_factors(n, m, seed):
    rng = rng_for(seed)
    u = rng.integers(-5, 5, size=n).astype(float)
    v = rng.integers(-5, 5, size=m).astype(float)
    S = commutation_matrix(n, m)
    assert np.array_equal(S.apply(np.kron(u, v)), np.kron(v, u))


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4), st.integers(0, 10**6))
def test_perm_T_vectorizes_kron_exactly(n, m, seed):
    rng = rng_for(seed)
    X = rng.integers(-5, 5, size=(n, m)).astype(float)
    Y = rng.integers(-5, 5, size=(n, m)).astype(float)
    T = perm_T(n, m)
    lhs = vec(np.kron(X, Y))
    rhs = T.apply(np.kron(vec(X), vec(Y)))
    assert np.array_equal(lhs, rhs)


def test_perm_T_trivial_and_structure():
    assert np.array_equal(perm_T(1, 1).to_dense(), np.eye(1))
    D = perm_T(2, 3).to_dense()
    assert np.array_equal(D.sum(axis=0), np.ones(36))
    assert np.array_equal(D.sum(axis=1), np.ones(36))


def test_perm_M_trivial():
    assert np.array_equal(perm_M(1, 1, 1).to_dense(), np.eye(2))
    # p=1 keeps the natural ordering for any q, r
    assert np.array_equal(perm_M(1, 3, 2).to_dense(), np.eye(5))


def test_perm_M_orthogonal():
    M = perm_M(2, 3, 2).to_dense()
    assert np.array_equal(M @ M.T, np.eye(10))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3), st.integers(1, 3), st.integers(1, 3), st.integers(0, 10**6))
def test_perm_M_blockdiagonalizes(p, q, r, seed):
    rng = rng_for(seed)
    A = rng.integers(-3, 3, size=(p, p)).astype(float)
    B = rng.integers(-3, 3, size=(q, q)).astype(float)
    C = rng.integers(-3, 3, size=(r, r)).astype(float)
    BD = np.block([[B, np.zeros((q, r))], [np.zeros((r, q)), C]])
    M = perm_M(p, q, r).to_dense()
    lhs = M.T @ np.kron(A, BD) @ M
    rhs = np.block([
        [np.kron(A, B), np.zeros((p * q, p * r))],
        [np.zeros((p * r, p * q)), np.kron(A, C)],
    ])
    assert np.array_equal(lhs, rhs)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 3), st.integers(1, 3), st.integers(0, 10**6))
def test_block_selector_relation(n, r, seed):
    # selector identities joining the interleaved and block orderings of
    # Kronecker squares of partitioned vectors
    rng = rng_for(seed)
    N = n + r
    x = rng.integers(-4, 4, size=N * N).astype(float)
    y = rng.integers(-4, 4, size=N * N).astype(float)
    x1, x2, x3, x4 = np.split(x, [n * n, n * n + n * r, n * n + 2 * n * r])
    y1, y2, y3, y4 = np.split(y, [n * n, n * n + n * r, n * n + 2 * n * r])

    F1 = np.hstack([np.eye(n), np.zeros((n, r))])
    Fh1 = np.hstack([np.zeros((r, n)), np.eye(r)])
    F = np.kron(F1, F1)
    Fh = np.kron(Fh1, Fh1)
    M = block_perm(perm_M(n, n, r), perm_M(r, n, r))
    TN = perm_T(N, N)

    z = TN.apply(np.kron(M.apply(x), M.apply(y)))
    lhs = np.kron(Fh, F) @ z
    rhs = perm_T(n, r).apply(np.kron(x3, y3))
    assert np.array_equal(lhs, rhs)

    lhs_hat = np.kron(Fh, Fh) @ z
    rhs_hat = perm_T(r, r).apply(np.kron(x4, y4))
    assert np.array_equal(lhs_hat, rhs_hat)


# ---------------------------------------------------------------- matricization

def test_mode_matricize_enumerated_example():
    X1 = np.array([[1.0, 2.0], [3.0, 4.0]])
    X2 = np.array([[5.0, 6.0], [7.0, 8.0]])
    h = Hessian.dense(np.hstack([X1, X2]))
    assert np.array_equal(mode_matricize(h, 1), np.hstack([X1, X2]))
    assert np.array_equal(mode_matricize(h, 2), np.hstack([X1.T, X2.T]))
    assert np.array_equal(mode_matricize(h, 3), np.vstack([vec(X1), vec(X2)]))
    with pytest.raises(ValueError):
        mode_matricize(h, 4)


def test_mode_matricize_zero():
    h = Hessian.zero(3)
    for mu in (1, 2, 3):
        assert np.array_equal(mode_matricize(h, mu), np.zeros((3, 9)))


def test_trace_equality_across_modes():
    # the mode-wise trace pairing of two tensors is mode independent
    rng = rng_for(7)
    for _ in range(100):
        h = random_dense_hessian(3, rng)
        g = random_dense_hessian(3, rng)
        traces = [np.trace(mode_matricize(h, mu) @ mode_matricize(g, mu).T)
                  for mu in (1, 2, 3)]
        assert abs(traces[0] - traces[1]) <= 1e-13 * max(1.0, abs(traces[0]))
        assert abs(traces[0] - traces[2]) <= 1e-13 * max(1.0, abs(traces[0]))


# ---------------------------------------------------------------- symmetrize

def test_symmetrize_matches_matrix_formula():
    rng = rng_for(3)
    n = 3
    h = random_dense_hessian(n, rng)
    S = commutation_matrix(n, n)
    expected = 0.5 * (h.mode1() + h.mode1() @ S.to_dense())
    hs = h.symmetrized()
    assert np.allclose(hs.mode1(), expected, rtol=0, atol=1e-15)
    assert hs.symmetric


def test_symmetrize_preserves_quadratic_form_and_swaps():
    rng = rng_for(4)
    n = 4
    h = random_dense_hessian(n, rng)
    hs = h.symmetrized()
    for _ in range(20):
        x = rng.standard_normal(n)
        u = rng.standard_normal(n)
        v = rng.standard_normal(n)
        assert np.allclose(hs.apply(x, x), h.apply(x, x), atol=1e-13)
        assert np.allclose(hs.apply(u, v), hs.apply(v, u), atol=1e-13)
    assert np.allclose(mode_matricize(hs, 2), mode_matricize(hs, 3), atol=1e-15)


def test_symmetrize_single_entry_example():
    # row 1 picks x_1 x_2; its symmetric part spreads over both orders
    Hm = np.zeros((2, 4))
    Hm[0, 1] = 1.0  # coefficient of u_1 v_2
    h = Hessian.dense(Hm)
    hs = h.symmetrized()
    expected = np.zeros((2, 4))
    expected[0, 1] = 0.5
    expected[0, 2] = 0.5
    assert np.array_equal(hs.mode1(), expected)
    rng = rng_for(0)
    x = rng.standard_normal(2)
    assert np.allclose(hs.apply(x, x), [x[0] * x[1], 0.0])


def test_symmetrize_idempotent_dense_and_pairs():
    rng = rng_for(5)
    hd = random_dense_hessian(3, rng)
    hp = random_pair_hessian(3, 2, rng)
    for h in (hd, hp):
        hs = h.symmetrized()
        assert hs.symmetrized() is hs


def test_symmetrize_pairs_matches_dense():
    rng = rng_for(6)
    hp = random_pair_hessian(4, 3, rng)
    hd = Hessian.dense(hp.mode1())
    assert np.allclose(hp.symmetrized().mode1(), hd.symmetrized().mode1(), atol=1e-14)


# ---------------------------------------------------------------- products

def test_hessian_apply_zero():
    h = Hessian.zero(3)
    assert np.array_equal(h.apply(np.ones(3), np.ones(3)), np.zeros(3))


def test_hessian_apply_matches_explicit_kron():
    rng = rng_for(8)
    for n in (2, 3, 5):
        h = random_dense_hessian(n, rng)
        u = rng.standard_normal(n)
        v = rng.standard_normal(n)
        assert np.allclose(h.apply(u, v), h.mode1() @ np.kron(u, v),
                           atol=1e-13)


def test_hessian_apply_pairs_matches_dense():
    rng = rng_for(9)
    n = 4
    hp = random_pair_hessian(n, 3, rng)
    hd = Hessian.dense(hp.mode1())
    u = rng.standard_normal(n)
    v = rng.standard_normal(n)
    assert np.allclose(hp.apply(u, v), hd.apply(u, v), atol=1e-13)


def test_apply_kron_matches_explicit():
    rng = rng_for(10)
    n, q, s = 4, 2, 3
    h = random_dense_hessian(n, rng)
    X = rng.standard_normal((n, q))
    Y = rng.standard_normal((n, s))
    assert np.allclose(h.apply_kron(X, Y), h.mode1() @ np.kron(X, Y), atol=1e-13)
    hp = h.to_pairs()
    assert np.allclose(hp.apply_kron(X, Y), h.mode1() @ np.kron(X, Y), atol=1e-12)


def test_apply_kron_mode2_matches_explicit():
    rng = rng_for(11)
    n, q, s = 4, 3, 2
    h = random_dense_hessian(n, rng)
    X = rng.standard_normal((n, q))
    Y = rng.standard_normal((n, s))
    expected = mode_matricize(h, 2) @ np.kron(X, Y)
    assert np.allclose(h.apply_kron_mode2(X, Y), expected, atol=1e-13)
    hp = h.to_pairs()
    assert np.allclose(hp.apply_kron_mode2(X, Y), expected, atol=1e-12)


def test_apply_kron_complex_inputs():
    rng = rng_for(12)
    n = 3
    h = random_dense_hessian(n, rng)
    X = rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2))
    Y = rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2))
    assert np.allclose(h.apply_kron(X, Y), h.mode1() @ np.kron(X, Y), atol=1e-13)
    assert np.allclose(h.apply_kron_mode2(X, Y),
                       mode_matricize(h, 2) @ np.kron(X, Y), atol=1e-13)


@pytest.mark.parametrize("blocked", [False, True])
def test_apply_kron_distinct_keeps_the_gram_matrix(blocked, monkeypatch):
    if blocked:
        monkeypatch.setattr(kron_tensor, "_KRON_BLOCK", 1)
    rng = rng_for(13)
    n, q = 6, 4
    X = rng.standard_normal((n, q))
    a, b = np.triu_indices(q)
    for h in (random_dense_hessian(n, rng), random_pair_hessian(n, 2, rng),
              Hessian.zero(n)):
        h = h.symmetrized()
        K = h.apply_kron(X, X)
        Kd = h.apply_kron_distinct(X)
        assert Kd.shape == (n, q * (q + 1) // 2)
        # column (a, b) is H(x_a (x) x_b), sqrt(2) times when a < b
        full = K.reshape(n, q, q)[:, a, b]
        scale = np.where(a == b, 1.0, np.sqrt(2.0))
        assert np.allclose(Kd, full * scale, rtol=0,
                           atol=1e-13 * max(np.abs(K).max(), 1.0))
        assert np.allclose(Kd @ Kd.T, K @ K.T, rtol=0,
                           atol=1e-13 * max(np.linalg.norm(K) ** 2, 1.0))
    with pytest.raises(ValueError):
        random_dense_hessian(n, rng).apply_kron_distinct(X)


def _pair_loop(h, X, Y, mode2):
    """The per-pair reference of apply_kron and apply_kron_mode2, with
    every factor sparse when one is, as the products stack them."""
    out = np.zeros((h.n, X.shape[1] * Y.shape[1]),
                   dtype=np.result_type(X, Y, float))
    pairs = h.pairs
    if any(sp.issparse(M) for pair in pairs for M in pair):
        pairs = [(sp.csr_array(L), sp.csr_array(R)) for L, R in pairs]
    for L, R in pairs:
        LX = L @ X
        if mode2:
            out += R.T @ (LX[:, :, None] * Y[:, None, :]).reshape(h.n, -1)
        else:
            RY = R @ Y
            out += (LX[:, :, None] * RY[:, None, :]).reshape(h.n, -1)
    return out


@pytest.mark.parametrize("blocked", [False, True])
def test_active_row_products_match_mode1(blocked, monkeypatch):
    if blocked:
        # blocks of n rows, so the mixed Hessian's n + 2 active rows split
        monkeypatch.setattr(kron_tensor, "_KRON_BLOCK", 1)
    rng = rng_for(15)
    n = 6
    some = np.zeros((n, 1))
    some[[1, 4]] = 1.0
    more = np.zeros((n, 1))
    more[[1, 2, 4]] = 1.0
    mixed = Hessian.from_pairs([
        # rows 1 and 4 are active; rows 2 of R and 0, 3, 5 of both are not
        (sp.csr_array(rng.standard_normal((n, n)) * some),
         sp.csr_array(rng.standard_normal((n, n)) * more)),
        # an all-zero factor: no active row
        (sp.csr_array((n, n)), sp.csr_array(rng.standard_normal((n, n)))),
        (rng.standard_normal((n, n)),
         sp.csr_array(rng.standard_normal((n, n)))),
    ], n)
    # no active row at all
    inactive = Hessian.from_pairs([mixed.pairs[1]], n)
    hessians = [Hessian.zero(n), random_dense_hessian(n, rng), mixed,
                mixed.symmetrized(), inactive, random_pair_hessian(n, 2, rng)]
    X = rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2))
    Y = rng.standard_normal((n, 3)) + 1j * rng.standard_normal((n, 3))
    W = rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2))
    for h in hessians:
        Hm = h.mode1()
        scale = np.linalg.norm(Hm) * np.linalg.norm(X) * np.linalg.norm(Y)
        got = h.apply_kron(X, Y)
        assert np.linalg.norm(got - Hm @ np.kron(X, Y)) <= 1e-14 * scale
        got2 = h.apply_kron_mode2(X, Y)
        assert np.linalg.norm(got2 - mode_matricize(h, 2) @ np.kron(X, Y)) \
            <= 1e-14 * scale
        cong = W.T @ Hm @ np.kron(X, X)
        assert np.allclose(h.congruence(X, W), cong, rtol=0,
                           atol=1e-14 * np.linalg.norm(W) * scale)
        if h.storage == "pairs":
            # the same sums in the same order as the loop over the pairs
            if not blocked:
                assert np.array_equal(got, _pair_loop(h, X, Y, False))
            assert np.allclose(got2, _pair_loop(h, X, Y, True), rtol=0,
                               atol=1e-14 * scale)


def test_kron_identity_jacobian_columns():
    rng = rng_for(13)
    n = 4
    h = random_dense_hessian(n, rng)
    x = rng.standard_normal(n)
    J = h.kron_identity(x)
    for a in range(n):
        e = np.zeros(n)
        e[a] = 1.0
        assert np.allclose(J[:, a], h.apply(e, x), atol=1e-13)
    hp = h.to_pairs()
    assert np.allclose(hp.kron_identity(x), J, atol=1e-12)


def test_kron_identity_sparse_pairs():
    rng = rng_for(14)
    n = 5
    # pairs are stacked into one operator; the second mixes in a dense factor
    pairs = [(sp.csr_array(np.diag(rng.standard_normal(n))),
              sp.csr_array(rng.standard_normal((n, n)))),
             (rng.standard_normal((n, n)),
              sp.csr_array(np.diag(rng.standard_normal(n))))]
    h = Hessian.from_pairs(pairs, n)
    hd = Hessian.dense(h.mode1())
    x = rng.standard_normal(n)
    assert np.allclose(h.kron_identity(x), hd.kron_identity(x), atol=1e-13)
    u, v = rng.standard_normal(n), rng.standard_normal(n)
    assert np.allclose(h.apply(u, v), hd.apply(u, v), atol=1e-13)
    X = rng.standard_normal((n, 2))
    assert np.allclose(h.apply_kron(X, X), hd.apply_kron(X, X), atol=1e-13)
    assert np.allclose(h.apply_kron_mode2(X, X), hd.apply_kron_mode2(X, X),
                       atol=1e-13)


def test_symmetric_swap_identities():
    # with a symmetric tensor the two Kronecker operands can be exchanged
    # inside the mode-1 sandwich, and the three mode pairings agree
    rng = rng_for(22)
    n = 4
    for _ in range(25):
        h = random_dense_hessian(n, rng, symmetric=True)
        A = rng.standard_normal((n, n))
        B = rng.standard_normal((n, n))
        C = rng.standard_normal((n, n))
        H1 = mode_matricize(h, 1)
        H2 = mode_matricize(h, 2)
        lhs = H1 @ np.kron(B, C) @ H1.T
        rhs = H1 @ np.kron(C, B) @ H1.T
        assert np.allclose(lhs, rhs, rtol=1e-13, atol=1e-13)
        s1 = vec(B) @ vec(H2 @ np.kron(C, A) @ H2.T)
        s2 = vec(C) @ vec(H2 @ np.kron(B, A) @ H2.T)
        s3 = vec(A) @ vec(H1 @ np.kron(C, B) @ H1.T)
        scale = max(1.0, abs(s1))
        assert abs(s1 - s2) <= 1e-13 * scale
        assert abs(s1 - s3) <= 1e-13 * scale


# ---------------------------------------------------------------- congruence

def test_congruence_identity_bases_returns_mode1():
    rng = rng_for(15)
    n = 3
    h = random_dense_hessian(n, rng)
    assert np.allclose(h.congruence(np.eye(n), np.eye(n)), h.mode1(),
                       atol=1e-15)


def test_congruence_matches_explicit_product():
    rng = rng_for(16)
    n, r = 4, 2
    h = random_dense_hessian(n, rng)
    V = rng.standard_normal((n, r))
    W = rng.standard_normal((n, r))
    expected = W.T @ h.mode1() @ np.kron(V, V)
    assert np.allclose(h.congruence(V, W), expected, rtol=1e-12)
    hp = h.to_pairs()
    assert np.allclose(hp.congruence(V, W), expected, rtol=1e-12)


def test_congruence_rectangular_w():
    rng = rng_for(17)
    n, r, rw = 4, 2, 3
    h = random_dense_hessian(n, rng)
    V = rng.standard_normal((n, r))
    W = rng.standard_normal((n, rw))
    expected = W.T @ h.mode1() @ np.kron(V, V)
    got = h.congruence(V, W)
    assert got.shape == (rw, r * r)
    assert np.allclose(got, expected, rtol=1e-12)


def test_congruence_complex_bases():
    rng = rng_for(18)
    n, r = 3, 2
    h = random_dense_hessian(n, rng)
    V = rng.standard_normal((n, r)) + 1j * rng.standard_normal((n, r))
    W = rng.standard_normal((n, r)) + 1j * rng.standard_normal((n, r))
    expected = W.T @ h.mode1() @ np.kron(V, V)
    assert np.allclose(h.congruence(V, W), expected, rtol=1e-12)


# ---------------------------------------------------------------- plumbing

def test_vec_unvec_roundtrip():
    rng = rng_for(19)
    X = rng.standard_normal((3, 2))
    assert np.array_equal(unvec(vec(X), (3, 2)), X)
    assert np.array_equal(vec(X)[:3], X[:, 0])


def test_to_pairs_roundtrip():
    rng = rng_for(20)
    h = random_dense_hessian(4, rng)
    assert np.allclose(h.to_pairs().mode1(), h.mode1(), atol=1e-14)


def test_scaled():
    rng = rng_for(21)
    n = 3
    h = random_dense_hessian(n, rng, symmetric=True)
    assert np.allclose(h.scaled(2.5).mode1(), 2.5 * h.mode1(), atol=0)
    hp = h.to_pairs()
    assert np.allclose(hp.scaled(2.5).mode1(), 2.5 * h.mode1(), atol=1e-13)


def test_dimension_validation():
    with pytest.raises(ValueError):
        Hessian.dense(np.zeros((2, 3)))
    h = Hessian.zero(3)
    with pytest.raises(ValueError):
        h.apply(np.ones(2), np.ones(3))
    with pytest.raises(ValueError):
        h.apply_kron(np.ones((2, 1)), np.ones((3, 1)))
    with pytest.raises(ValueError):
        h.congruence(np.ones((2, 1)), np.ones((3, 1)))
