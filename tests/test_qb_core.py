import numpy as np
import pytest
import scipy.io as sio
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg

from qbmor.errors import QbmorWarning, SingularGram, NonPositiveGamma
from qbmor.kron_tensor import Hessian
import qbmor.qb_core as qb_core
from qbmor.benchmarks import chafee_infante, fitzhugh_nagumo
from qbmor.qb_core import (
    QBSystem, ReducedModel, project, rescale,
    orthonormalize, save_system, load_system, save_reduced, load_reduced,
)
from qbmor.gramians_norms import h2_norm, truncated_h2_error
from qbmor.tqb_irka import initial_guess
from conftest import random_stable_qb, rng_for


# ---------------------------------------------------------------- construction

def test_constructor_symmetrizes_hessian():
    rng = rng_for(0)
    Hm = rng.standard_normal((3, 9))
    sys = QBSystem(-np.eye(3), Hessian.dense(Hm), [np.zeros((3, 3))],
                   np.ones((3, 1)), np.ones((1, 3)))
    assert sys.H.symmetric
    x = rng.standard_normal(3)
    assert np.allclose(sys.H.apply(x, x), Hm @ np.kron(x, x), atol=1e-13)


def test_constructor_validates_dimensions():
    with pytest.raises(ValueError):
        QBSystem(np.zeros((2, 3)), None, [], np.zeros((2, 1)), np.zeros((1, 2)))
    with pytest.raises(ValueError):
        QBSystem(-np.eye(2), None, [], np.zeros((2, 1)), np.zeros((1, 2)))
    with pytest.raises(ValueError):
        QBSystem(-np.eye(2), None, [np.zeros((3, 3))], np.zeros((2, 1)),
                 np.zeros((1, 2)))
    with pytest.raises(ValueError):
        QBSystem(-np.eye(2), Hessian.zero(3), [np.zeros((2, 2))],
                 np.zeros((2, 1)), np.zeros((1, 2)))
    # a transposed B or C is rejected, not reshaped into scrambled channels
    with pytest.raises(ValueError):
        QBSystem(-np.eye(4), None, [np.zeros((4, 4))] * 2, np.ones((2, 4)),
                 np.ones((1, 4)))
    with pytest.raises(ValueError):
        QBSystem(-np.eye(4), None, [np.zeros((4, 4))], np.ones((4, 1)),
                 np.ones((4, 3)))
    with pytest.raises(ValueError, match="E must be n x n"):
        QBSystem(-np.eye(2), None, [np.zeros((2, 2))], np.zeros((2, 1)),
                 np.zeros((1, 2)), E=np.eye(3))


def test_dims_and_sparse_inputs():
    A = sp.csr_matrix(-np.eye(4))
    sys = QBSystem(A, None, [np.zeros((4, 4))] * 2, np.ones((4, 2)),
                   np.ones((3, 4)))
    assert (sys.n, sys.m, sys.p) == (4, 2, 3)
    # a sparse operator stays sparse, as an array; a dense one stays dense
    assert isinstance(sys.A, sp.csr_array)
    assert np.array_equal(sys.A.toarray(), -np.eye(4))
    assert all(isinstance(Nk, np.ndarray) for Nk in sys.N)
    # a 1-D B or C of length n is one channel
    one = QBSystem(A, None, [np.zeros((4, 4))], np.arange(4.0), np.ones(4))
    assert one.B.shape == (4, 1) and one.C.shape == (1, 4)
    assert np.array_equal(one.B[:, 0], np.arange(4.0))


# ------------------------------------------------------------------------- rhs

def test_rhs_zero():
    sys = random_stable_qb(5, 2, 1, rng_for(1))
    assert np.allclose(sys.rhs(np.zeros(5), np.zeros(2)), np.zeros(5))


def test_rhs_linear_case():
    rng = rng_for(2)
    sys = random_stable_qb(5, 2, 1, rng, with_hessian=False)
    sys = QBSystem(sys.A, None, [np.zeros((5, 5))] * 2, sys.B, sys.C)
    x = rng.standard_normal(5)
    u = rng.standard_normal(2)
    assert np.allclose(sys.rhs(x, u), sys.A @ x + sys.B @ u, atol=1e-14)


def test_rhs_matches_explicit_kron():
    rng = rng_for(3)
    sys = random_stable_qb(5, 2, 2, rng)
    x = rng.standard_normal(5)
    u = rng.standard_normal(2)
    expected = (sys.A @ x + sys.H.mode1() @ np.kron(x, x)
                + u[0] * sys.N[0] @ x + u[1] * sys.N[1] @ x + sys.B @ u)
    assert np.allclose(sys.rhs(x, u), expected, atol=1e-12)
    with pytest.raises(ValueError):
        sys.rhs(x[:-1], u)


def _galerkin_r10(rng):
    """An r = 10 ReducedModel of the flagship, on a random orthonormal
    basis."""
    V = orthonormalize(rng.standard_normal((200, 10)))
    return project(chafee_infante(100), V, V)


_BLOCK_CASES = {
    "chafee_infante": lambda rng: chafee_infante(100),    # sparse operators
    "fitzhugh_nagumo": lambda rng: fitzhugh_nagumo(5),    # two inputs
    "dense_hessian": lambda rng: random_stable_qb(6, 2, 1, rng),
    "zero_hessian": lambda rng: random_stable_qb(6, 1, 1, rng,
                                                 with_hessian=False),
    "reduced_r10": _galerkin_r10,
}


@pytest.mark.parametrize("name", sorted(_BLOCK_CASES))
def test_rhs_block_matches_vector_calls(name):
    sys = _BLOCK_CASES[name](rng_for(44))
    if name == "zero_hessian":
        assert sys.H.is_zero
    if name in ("dense_hessian", "reduced_r10"):
        assert sys.H.storage == "dense"
    # every case but the flagship fills its packed operator densely
    G = sys._vector_field().G
    assert isinstance(G, np.ndarray) == (name != "chafee_infante")
    rng = rng_for(45)
    q = 3
    X = rng.standard_normal((sys.n, q))
    U = rng.standard_normal((sys.m, q))
    block = sys.rhs(X, U)
    cols = np.column_stack([sys.rhs(X[:, j], U[:, j]) for j in range(q)])
    assert block.shape == (sys.n, q)
    # each column is computed with a single state's arithmetic
    assert np.array_equal(block, cols)


def test_rhs_operator_keeps_only_terms_with_both_factors():
    # chafee_infante(100): the linear block's 200 rows, the input
    # channel's one row with an entry and 100 rows of each of the six
    # symmetrized pair factors, of 1,600 rows per half at full height
    f = chafee_infante(100)._vector_field()
    assert isinstance(f.G, sp.csr_array)
    assert f.G.shape == (1602, 202) and f.half == 801
    filled = np.diff(f.G.indptr) > 0
    assert np.all(filled[:f.half] & filled[f.half:])
    # ordered by output row, every output row with its linear term first
    assert np.all(np.diff(f.dest) >= 0)
    assert np.array_equal(np.unique(f.dest), np.arange(200))


@pytest.mark.parametrize("make", [lambda rng: fitzhugh_nagumo(5),
                                  _galerkin_r10],
                         ids=["fitzhugh_nagumo_5", "reduced_r10"])
def test_rhs_operator_is_dense_past_the_fill_rule(make):
    sys = make(rng_for(46))
    G = sys._vector_field().G
    assert isinstance(G, np.ndarray) and G.dtype == float
    assert np.count_nonzero(G) > qb_core._SPARSE_FILL * G.size
    x = rng_for(47).standard_normal(sys.n)
    u = np.ones(sys.m)
    expected = sys.A @ x + sys.H.mode1() @ np.kron(x, x) + sys.B @ u
    for uk, Nk in zip(u, sys.N):
        expected = expected + uk * (Nk @ x)
    assert np.allclose(sys.rhs(x, u), expected, rtol=1e-13, atol=1e-13)


@pytest.mark.parametrize("state", ["zero", "random"])
def test_sparse_jacobian_sums_its_terms_in_block_order(state):
    # the packed operator leaves the flagship's Jacobian as the block-order
    # sum of the full-height blocks' terms, bit for bit: the linear block,
    # the input channel's, then each pair factor's
    sys = chafee_infante(100)
    n, u = sys.n, np.array([0.7])
    x = np.zeros(n) if state == "zero" else rng_for(50).standard_normal(n)
    terms = [(sys.A, np.ones(n))]
    terms += [(Nk, np.full(n, uk)) for Nk, uk in zip(sys.N, u)]
    terms += [(2.0 * sp.csr_array(L), sp.csr_array(R) @ x)
              for L, R in sys.H.pairs]
    ref = np.zeros((n, n))
    for L, right in terms:
        ref += L.toarray() * right[:, None]
    J = sys.jacobian(x, u)
    assert isinstance(J, sp.csc_array)
    assert J.toarray().tobytes() == ref.tobytes()


def test_rhs_rejects_bad_block_shapes():
    sys = fitzhugh_nagumo(5)
    X = np.zeros((sys.n, 3))
    U = np.zeros((sys.m, 3))
    bad = [(X, U[:, 0]), (X[:, 0], U), (X[:-1], U), (X, U[:, :2]),
           (X, U[:1]), (X[None], U), (X[:, 0], U[:1, 0])]
    for x, u in bad:
        with pytest.raises(ValueError):
            sys.rhs(x, u)


# -------------------------------------------------------------------- jacobian

def test_jacobian_trivial_cases():
    rng = rng_for(4)
    sys = random_stable_qb(4, 2, 1, rng, with_hessian=False)
    sys = QBSystem(sys.A, None, sys.N, sys.B, sys.C)
    x = rng.standard_normal(4)
    u = rng.standard_normal(2)
    linear = QBSystem(sys.A, None, [np.zeros((4, 4))] * 2, sys.B, sys.C)
    assert np.allclose(linear.jacobian(x, u), sys.A)
    expected = sys.A + u[0] * sys.N[0] + u[1] * sys.N[1]
    assert np.allclose(sys.jacobian(np.zeros(4), u), expected)


def test_jacobian_matches_finite_differences():
    rng = rng_for(5)
    sys = random_stable_qb(5, 2, 1, rng, scale=0.5)
    for _ in range(50):
        x = rng.standard_normal(5)
        u = rng.standard_normal(2)
        J = sys.jacobian(x, u)
        eps = 1e-6
        Jfd = np.empty_like(J)
        for a in range(5):
            e = np.zeros(5)
            e[a] = eps
            Jfd[:, a] = (sys.rhs(x + e, u) - sys.rhs(x - e, u)) / (2 * eps)
        assert np.linalg.norm(J - Jfd) <= 1e-6 * max(1.0, np.linalg.norm(J))


# ---------------------------------------------------------------- operator set

def _random_reduced(rng):
    red = project(random_stable_qb(8, 2, 1, rng), rng.standard_normal((8, 4)),
                  rng.standard_normal((8, 4)))
    assert isinstance(red, ReducedModel)
    return red


@pytest.mark.parametrize("make", [lambda: chafee_infante(100),
                                  lambda: fitzhugh_nagumo(40)],
                         ids=["chafee_infante_100", "fitzhugh_nagumo_40"])
def test_sparse_jacobian_matches_explicit(make):
    sys = make()
    rng = rng_for(40)
    for _ in range(5):
        x = rng.standard_normal(sys.n)
        u = rng.standard_normal(sys.m)
        J = sys.jacobian(x, u)
        assert isinstance(J, sp.csc_array)
        n = sys.n
        # H(I (x) x), read off the mode-1 unfolding
        Hx = (sys.H.mode1().reshape(n * n, n) @ x).reshape(n, n)
        expected = sys.A + 2.0 * Hx
        for uk, Nk in zip(u, sys.N):
            expected = expected + uk * Nk
        err = np.linalg.norm(J.toarray() - expected)
        assert err <= 1e-13 * np.linalg.norm(expected)


@pytest.mark.parametrize("make", [lambda rng: chafee_infante(100),
                                  lambda rng: fitzhugh_nagumo(40),
                                  _random_reduced],
                         ids=["chafee_infante_100", "fitzhugh_nagumo_40",
                              "reduced"])
def test_rhs_matches_explicit_operators(make):
    rng = rng_for(41)
    sys = make(rng)
    Hm = sys.H.mode1()
    for _ in range(3):
        x = rng.standard_normal(sys.n)
        u = rng.standard_normal(sys.m)
        expected = sys.A @ x + Hm @ np.kron(x, x) + sys.B @ u
        for uk, Nk in zip(u, sys.N):
            expected = expected + uk * (Nk @ x)
        err = np.linalg.norm(sys.rhs(x, u) - expected)
        assert err <= 1e-13 * np.linalg.norm(expected)


def test_jacobian_format_rule():
    rng = rng_for(42)
    ci = chafee_infante(100)
    with_mass = QBSystem(ci.A, ci.H, ci.N, ci.B, ci.C, E=2.0 * np.eye(ci.n))
    small = random_stable_qb(6, 1, 1, rng)
    cases = [(ci, sp.csc_array), (fitzhugh_nagumo(5), np.ndarray),
             (_random_reduced(rng), np.ndarray), (with_mass, np.ndarray),
             (QBSystem(small.A, small.H, small.N, small.B, small.C,
                       E=np.eye(6)), np.ndarray)]
    for sys, kind in cases:
        J = sys.jacobian(rng.standard_normal(sys.n), rng.standard_normal(sys.m))
        assert type(J) is kind
        assert J.shape == (sys.n, sys.n)


def test_jacobian_checks_its_arguments_as_rhs_does():
    sys = chafee_infante(100)
    x, u = np.ones(sys.n), [0.5]
    for bad in ((x[:-1], [0.5, 0.5]), (x[:-1], u), (x, [0.5, 0.5]),
                (np.ones((sys.n, 1)), u), (x, [])):
        for f in (sys.rhs, sys.jacobian):
            with pytest.raises(ValueError, match="state/input shape"):
                f(*bad)
    J = sys.jacobian(x, u)
    stored = sp.csc_array((np.ones(J.nnz), J.indices, J.indptr), J.shape)
    assert isinstance(J, sp.csc_array) and np.all(stored.diagonal() == 1.0)


def test_jacobian_owns_its_pattern():
    # pruning one Jacobian in place leaves the next one whole
    sys = chafee_infante(100)
    x = rng_for(49).standard_normal(sys.n)
    ref = sys.jacobian(x, [0.5])
    J0 = sys.jacobian(np.zeros(sys.n), [0.5])
    J0.eliminate_zeros()
    J = sys.jacobian(x, [0.5])
    assert np.array_equal(J.indices, ref.indices)
    assert np.array_equal(J.indptr, ref.indptr)
    assert np.array_equal(J.data, ref.data)


def test_operator_set_is_built_once(monkeypatch):
    sys = chafee_infante(100)
    rng = rng_for(43)
    x = rng.standard_normal(sys.n)
    sys.rhs(x, [0.5])
    field = sys._vector_field()

    def refuse(*args, **kwargs):
        raise AssertionError("operator rebuilt")

    monkeypatch.setattr(qb_core._VectorField, "build", refuse)
    monkeypatch.setattr(sp, "vstack", refuse)
    monkeypatch.setattr(sp, "coo_array", refuse)
    for _ in range(3):
        sys.rhs(rng.standard_normal(sys.n), rng.standard_normal(1))
        sys.jacobian(rng.standard_normal(sys.n), rng.standard_normal(1))
    assert sys._vector_field() is field


def test_solve_mass_with_ill_conditioned_mass(monkeypatch):
    rng = rng_for(44)
    n = 8
    sys = random_stable_qb(n, 1, 1, rng)
    U, _ = np.linalg.qr(rng.standard_normal((n, n)))
    V, _ = np.linalg.qr(rng.standard_normal((n, n)))
    E = U @ np.diag(np.logspace(0, -10, n)) @ V.T
    assert 1e9 < np.linalg.cond(E) < 1e11
    gen = QBSystem(E @ sys.A, Hessian.dense(E @ sys.H.mode1(), symmetric=True),
                   [E @ sys.N[0]],
                   E @ sys.B, sys.C, E=E)
    factored = []
    lu_factor = scipy.linalg.lu_factor
    monkeypatch.setattr(scipy.linalg, "lu_factor",
                        lambda M: factored.append(M) or lu_factor(M))
    cases = [(gen.A, False), (gen.N[0], False), (gen.B, False),
             (gen.H.mode1(), False), (gen.C.T, True), (E.T @ sys.A, True)]
    Einv = np.linalg.inv(E)
    for M, transpose in cases:
        Es = E.T if transpose else E
        got = gen.solve_mass(M, transpose=transpose)
        if not transpose:
            # a transposed solve reuses the LU of E, not of E^T, so its
            # forward error is comparable only with that of E's own LU
            ref = np.linalg.solve(E, M)
            err = np.linalg.norm(got - ref) / np.linalg.norm(ref)
            err_inv = np.linalg.norm(Einv @ M - ref) / np.linalg.norm(ref)
            assert err < err_inv
        # backward stable: the residual is at rounding level
        res = np.linalg.norm(Es @ got - M)
        assert res <= 1e-14 * np.linalg.norm(E) * np.linalg.norm(got)
    # one factorization of E serves every solve, in both directions
    assert len(factored) == 1 and factored[0] is gen.E
    X = rng.standard_normal((n, 2))
    assert sys.solve_mass(X) is X and sys.solve_mass(X, transpose=True) is X
    assert factored == [gen.E]


def test_solve_mass_with_sparse_mass(monkeypatch):
    base = chafee_infante(20)
    n = base.n
    E = sp.diags_array([np.full(n - 1, 0.1), np.linspace(1.0, 2.0, n),
                        np.full(n - 1, -0.2)], offsets=[-1, 0, 1])
    sys = QBSystem(base.A, base.H, base.N, base.B, base.C, E=E)
    assert sp.issparse(sys.E)
    factored = []
    splu = scipy.sparse.linalg.splu
    monkeypatch.setattr(scipy.sparse.linalg, "splu",
                        lambda M: factored.append(M) or splu(M))
    Ed = E.toarray()
    for M, transpose in ((sys.A, False), (sys.B, False), (sys.C.T, True),
                         (sys.N[0], True)):
        got = sys.solve_mass(M, transpose=transpose)
        assert isinstance(got, np.ndarray)
        Md = M.toarray() if sp.issparse(M) else M
        ref = np.linalg.solve(Ed.T if transpose else Ed, Md)
        assert np.linalg.norm(got - ref) <= 1e-14 * np.linalg.norm(ref)
    # one sparse factorization of E serves every solve, in both directions
    assert len(factored) == 1


# ------------------------------------------------------------------ projection

def test_project_identity_bases():
    rng = rng_for(6)
    sys = random_stable_qb(4, 1, 1, rng)
    red = project(sys, np.eye(4), np.eye(4))
    assert np.allclose(red.A, sys.A, atol=1e-13)
    assert np.allclose(red.B, sys.B, atol=1e-13)
    assert np.allclose(red.C, sys.C, atol=1e-13)
    assert np.allclose(red.N[0], sys.N[0], atol=1e-13)
    assert np.allclose(red.H.mode1(), sys.H.mode1(), atol=1e-13)


def test_project_zero_propagation():
    rng = rng_for(7)
    sys = random_stable_qb(6, 1, 1, rng, with_hessian=False)
    sys = QBSystem(sys.A, None, [np.zeros((6, 6))], sys.B, sys.C)
    V = rng.standard_normal((6, 2))
    W = rng.standard_normal((6, 2))
    red = project(sys, V, W)
    assert np.allclose(red.H.mode1(), 0.0)
    assert np.allclose(red.N[0], 0.0)


def test_project_quadratic_consistency():
    rng = rng_for(8)
    sys = random_stable_qb(6, 1, 1, rng)
    V = rng.standard_normal((6, 2))
    W = rng.standard_normal((6, 2))
    red = project(sys, V, W)
    Ginv = np.linalg.inv(W.T @ V)
    for _ in range(10):
        xh = rng.standard_normal(2)
        lhs = red.H.apply(xh, xh)
        rhs_ = Ginv @ (W.T @ sys.H.apply(V @ xh, V @ xh))
        assert np.allclose(lhs, rhs_, atol=1e-12)


def test_project_similarity_invariance():
    rng = rng_for(9)
    sys = random_stable_qb(7, 1, 1, rng)
    V = rng.standard_normal((7, 3))
    W = rng.standard_normal((7, 3))
    T = rng.standard_normal((3, 3)) + 3 * np.eye(3)
    r1 = project(sys, V, W)
    r2 = project(sys, V @ T, W @ np.linalg.inv(T).T)
    e1 = np.sort_complex(np.linalg.eigvals(r1.A))
    e2 = np.sort_complex(np.linalg.eigvals(r2.A))
    assert np.allclose(e1, e2, atol=1e-9)
    for s in (0.3, 1.7 + 0.4j):
        g1 = r1.C @ np.linalg.solve(s * np.eye(3) - r1.A, r1.B)
        g2 = r2.C @ np.linalg.solve(s * np.eye(3) - r2.A, r2.B)
        assert np.allclose(g1, g2, rtol=1e-9)


def test_project_with_mass_matrix():
    rng = rng_for(10)
    n, r = 5, 2
    base = random_stable_qb(n, 1, 1, rng)
    E = np.eye(n) + 0.3 * rng.standard_normal((n, n))
    sys = QBSystem(base.A, base.H, base.N, base.B, base.C, E=E)
    V = rng.standard_normal((n, r))
    W = rng.standard_normal((n, r))
    red = project(sys, V, W)
    Ginv = np.linalg.inv(W.T @ E @ V)
    assert np.allclose(red.A, Ginv @ W.T @ base.A @ V, atol=1e-12)
    assert np.allclose(red.B, Ginv @ W.T @ base.B, atol=1e-12)
    assert np.allclose(red.C, base.C @ V, atol=1e-12)
    assert red.E is None


def test_project_singular_gram():
    rng = rng_for(11)
    sys = random_stable_qb(5, 1, 1, rng)
    V = rng.standard_normal((5, 2))
    W = np.zeros((5, 2))
    W[:, 0] = rng.standard_normal(5)
    W[:, 1] = W[:, 0]  # rank-1 W makes W^T V singular
    with pytest.raises(SingularGram):
        project(sys, V, W)


# -------------------------------------------------------------------- rescale

def test_rescale_identity_and_scaling():
    rng = rng_for(12)
    sys = random_stable_qb(5, 2, 1, rng)
    same = rescale(sys, 1.0)
    assert np.allclose(same.H.mode1(), sys.H.mode1())
    assert np.allclose(same.N[0], sys.N[0])
    scaled = rescale(sys, 0.01)
    assert np.isclose(scaled.H.norm(), 0.01 * sys.H.norm())
    assert np.allclose(scaled.N[1], 0.01 * sys.N[1])
    assert np.allclose(scaled.A, sys.A)
    for bad in (0.0, -2.0, np.nan, np.inf):
        with pytest.raises(NonPositiveGamma):
            rescale(sys, bad)


def test_rescale_shares_what_it_does_not_change():
    sys = chafee_infante(10)
    scaled = rescale(rescale(sys, 0.5), 0.02)
    # built lazily by either side, seen by the source and every copy, the
    # shifted factors included
    other = rescale(sys, 3.0)
    assert scaled.pencil() is sys.pencil() is other.pencil()
    lam = np.array([1.0])
    assert scaled.pencil().factors(lam) is sys.pencil().factors(lam)
    assert sys.schur() is scaled.schur()
    # the active rows are the source's, with L scaled by gamma, and equal
    # to the rows a fresh Hessian of the scaled pairs builds
    got = scaled.H.active_rows()
    L, R, RT, S, dest = sys.H.active_rows()
    assert got[1] is R and got[2] is RT and got[3] is S and got[4] is dest
    fresh = Hessian.from_pairs(scaled.H.pairs, sys.n).active_rows()
    assert (got[0] != fresh[0]).nnz == 0
    assert (got[0] != 0.01 * L).nnz == 0
    # and the list it was symmetrized from follows the scaling
    assert (scaled.H._half.active_rows()[0]
            != 0.01 * sys.H._half.active_rows()[0]).nnz == 0


def test_rescale_commutes_with_projection():
    rng = rng_for(13)
    sys = random_stable_qb(6, 1, 1, rng)
    V = rng.standard_normal((6, 2))
    W = rng.standard_normal((6, 2))
    gamma = 0.05
    a = project(rescale(sys, gamma), V, W)
    b = project(sys, V, W).rescaled(gamma)
    assert np.allclose(a.H.mode1(), b.H.mode1(), atol=1e-13)
    assert np.allclose(a.N[0], b.N[0], atol=1e-13)
    assert np.allclose(a.A, b.A, atol=1e-13)


# ------------------------------------------------------------- reduced model

def test_reduced_spectral_bundle():
    rng = rng_for(14)
    sys = random_stable_qb(6, 2, 1, rng)
    V = rng.standard_normal((6, 3))
    W = rng.standard_normal((6, 3))
    red = project(sys, V, W)
    f = red.spectral
    rec = (f.R * f.lam) @ f.Rinv
    assert np.linalg.norm(rec - red.A) <= 1e-9 * np.linalg.norm(red.A)
    assert np.allclose(f.Btil, f.Rinv @ red.B, atol=1e-12)
    assert np.allclose(f.Ctil, red.C @ f.R, atol=1e-12)
    assert np.allclose(f.Ntil[0], f.Rinv @ red.N[0] @ f.R, atol=1e-12)
    expected_Htil = f.Rinv @ red.H.mode1() @ np.kron(f.R, f.R)
    assert np.allclose(f.Htil, expected_Htil, atol=1e-11)
    # transposed-slice unfolding of the transformed tensor
    Ttil = f.Htil.reshape(3, 3, 3)
    assert np.allclose(f.Htil2, Ttil.transpose(2, 1, 0).reshape(3, 9))
    assert red.spectral is f  # cached


def test_reduced_rescaled_keeps_metadata():
    # rescale is the method: either way a ReducedModel with the source's
    # metadata and Schur form, whose eigendata carries the scaled N and H
    sys = chafee_infante(10)
    V = np.linalg.qr(rng_for(15).standard_normal((sys.n, 3)))[0]
    red = project(sys, V, V, method="tqb-irka", gamma=0.01, seed=7,
                  converged=False, iterations=12, tol=1e-5)
    f = red.spectral    # cached before the copies are made
    for s in (red.rescaled(2.0), rescale(red, 2.0)):
        assert type(s) is ReducedModel
        assert np.allclose(s.H.mode1(), 2.0 * red.H.mode1(), atol=1e-13)
        assert (s.method, s.gamma, s.seed, s.converged, s.iterations,
                s.tol) == ("tqb-irka", 0.01, 7, False, 12, 1e-5)
        assert s.schur() is red.schur()
        g = s.spectral
        assert g is not f and np.array_equal(g.lam, f.lam)
        assert np.allclose(g.Ntil[0], 2.0 * f.Ntil[0], rtol=1e-12,
                           atol=1e-12 * np.abs(f.Ntil[0]).max())
        assert np.allclose(g.Htil, 2.0 * f.Htil, rtol=1e-12,
                           atol=1e-12 * np.abs(f.Htil).max())
    assert red.spectral is f


# ------------------------------------------------------------ orthonormalize

def test_orthonormalize_full_rank():
    rng = rng_for(16)
    X = rng.standard_normal((8, 3))
    Q = orthonormalize(X)
    assert np.allclose(Q.T @ Q, np.eye(3), atol=1e-12)
    # same span: projector fixes the original columns
    assert np.allclose(Q @ (Q.T @ X), X, atol=1e-12)


def test_orthonormalize_rank_deficient_pads():
    rng = rng_for(17)
    X = rng.standard_normal((8, 2))
    X = np.column_stack([X, X[:, 0] + X[:, 1]])
    with pytest.warns(QbmorWarning, match="padding"):
        Q = orthonormalize(X)
    assert Q.shape == (8, 3)
    assert np.allclose(Q.T @ Q, np.eye(3), atol=1e-12)
    assert np.allclose(Q @ (Q.T @ X), X, atol=1e-12)
    # completed from X's own QR factor, not from random columns
    Qr, _, _ = scipy.linalg.qr(X, mode="economic", pivoting=True)
    assert np.array_equal(Q, Qr)


# --------------------------------------------------------------- serialization

def test_system_roundtrip_dense(tmp_path):
    rng = rng_for(18)
    sys = random_stable_qb(5, 2, 2, rng)
    sys.label = "roundtrip-check"
    save_system(sys, tmp_path / "sysdir")
    back = load_system(tmp_path / "sysdir")
    assert np.array_equal(back.A, sys.A)
    assert np.array_equal(back.B, sys.B)
    assert np.array_equal(back.C, sys.C)
    assert np.array_equal(back.N[0], sys.N[0])
    assert np.array_equal(back.N[1], sys.N[1])
    assert np.array_equal(back.H.mode1(), sys.H.mode1())
    assert back.label == "roundtrip-check"
    assert back.H.symmetric


def test_system_roundtrip_sparse_pairs(tmp_path):
    rng = rng_for(19)
    n = 6
    pairs = [(sp.csr_array(np.diag(rng.standard_normal(n))),
              sp.csr_array(sp.random(n, n, density=0.3, random_state=1))),
             (sp.csr_array(sp.random(n, n, density=0.2, random_state=2)),
              sp.csr_array(np.eye(n)))]
    H = Hessian.from_pairs(pairs, n)
    base = random_stable_qb(n, 1, 1, rng, with_hessian=False)
    sys = QBSystem(base.A, H, base.N, base.B, base.C)
    save_system(sys, tmp_path / "sp")
    back = load_system(tmp_path / "sp")
    assert back.H.storage == "pairs"
    assert np.array_equal(back.H.mode1(), sys.H.mode1())


def test_reloaded_system_keeps_its_half_pair_list(tmp_path):
    # the stored pairs are the list (L, R) the Hessian was symmetrized
    # from, flagged non-symmetric; loading symmetrizes it again, so
    # kron_gram takes its half-size rows and the norm is the generator's to
    # the bit
    sys = chafee_infante(20)
    save_system(sys, tmp_path / "ci")
    with open(tmp_path / "ci" / "system.qbm") as fh:
        manifest = fh.read().splitlines()
    assert "hpairs = 3" in manifest
    assert "hessian_symmetric = false" in manifest
    back = load_system(tmp_path / "ci")
    assert back.H._half is not None
    assert len(back.H._half.pairs) == len(sys.H._half.pairs)
    for got, ref in zip(back.H._half.pairs, sys.H._half.pairs):
        for G, R in zip(got, ref):
            assert (sp.csr_array(G) != R).nnz == 0
    norm = h2_norm(rescale(sys, 0.01))
    assert h2_norm(rescale(back, 0.01)) == norm
    x = np.linspace(-1.0, 1.0, sys.n)
    u = np.array([0.3])
    # a directory in the older layout, the symmetrized list flagged
    # symmetric, reads back the same Hessian; kron_gram takes the full list
    old = Hessian.from_pairs(sys.H.pairs, sys.n, symmetric=True)
    save_system(QBSystem(sys.A, old, sys.N, sys.B, sys.C), tmp_path / "old")
    back = load_system(tmp_path / "old")
    assert back.H.symmetric and back.H._half is None
    assert np.array_equal(back.H.mode1(), sys.H.mode1())
    assert np.array_equal(back.rhs(x, u), sys.rhs(x, u))
    assert abs(h2_norm(rescale(back, 0.01)) - norm) <= 1e-12 * norm
    # a rescaled copy is stored as its own list, flagged symmetric: its
    # half list would symmetrize to other bits than it holds
    scaled = rescale(sys, 0.01)
    save_system(scaled, tmp_path / "scaled")
    with open(tmp_path / "scaled" / "system.qbm") as fh:
        manifest = fh.read().splitlines()
    assert "hpairs = 6" in manifest
    assert "hessian_symmetric = true" in manifest
    back = load_system(tmp_path / "scaled")
    assert np.array_equal(back.H.mode1(), scaled.H.mode1())
    assert np.array_equal(back.rhs(x, u), scaled.rhs(x, u))
    # a symmetric list that is not laid out that way keeps no half list
    Dinv = sp.diags_array(1.0 / np.linspace(1.0, 2.0, sys.n))
    H = Hessian.from_pairs([(sp.csr_array(Dinv @ L), R)
                            for L, R in sys.H.pairs], sys.n, symmetric=True)
    save_system(QBSystem(sys.A, H, sys.N, sys.B, sys.C), tmp_path / "d")
    back = load_system(tmp_path / "d")
    assert back.H.symmetric and back.H._half is None


def test_system_roundtrip_with_mass(tmp_path):
    rng = rng_for(20)
    base = random_stable_qb(4, 1, 1, rng)
    E = np.eye(4) + 0.1 * rng.standard_normal((4, 4))
    sys = QBSystem(base.A, base.H, base.N, base.B, base.C, E=E)
    save_system(sys, tmp_path / "me")
    back = load_system(tmp_path / "me")
    assert np.array_equal(back.E, sys.E)


def test_zero_hessian_roundtrip(tmp_path):
    rng = rng_for(21)
    sys = random_stable_qb(3, 1, 1, rng, with_hessian=False)
    save_system(sys, tmp_path / "z")
    back = load_system(tmp_path / "z")
    assert back.H.is_zero


def test_reduced_roundtrip(tmp_path):
    rng = rng_for(22)
    sys = random_stable_qb(6, 2, 1, rng)
    red = project(sys, rng.standard_normal((6, 2)), rng.standard_normal((6, 2)),
                  method="tqb-irka", gamma=0.01, seed=3, converged=True,
                  iterations=17, tol=1e-5)
    manifest = save_reduced(red, tmp_path / "red")
    backs = [load_reduced(manifest)]
    # a key no reader uses, such as the shift line of directories written
    # while tqb_irka had a spectral shift, is ignored
    with open(manifest, "a") as fh:
        fh.write("shift = 0.5\n")
    backs.append(load_reduced(manifest))
    for back in backs:
        assert np.array_equal(back.A, red.A)
        assert np.array_equal(back.B, red.B)
        assert np.array_equal(back.C, red.C)
        assert np.array_equal(back.N[1], red.N[1])
        assert np.array_equal(back.H.mode1(), red.H.mode1())
        assert (back.method, back.gamma, back.seed, back.converged,
                back.iterations, back.tol) == ("tqb-irka", 0.01, 3, True, 17,
                                               1e-5)


def test_load_reduced_symmetrizes_a_stored_hessian(tmp_path):
    # a model file may hold a nonsymmetric H-hat; like load_system,
    # load_reduced symmetrizes it, so that H(u (x) v) = H(v (x) u) and the
    # two trace routes of the error system's norm agree
    rng = rng_for(24)
    sys = random_stable_qb(6, 1, 1, rng)
    red = initial_guess(sys, 3, "random", seed=0)
    manifest = save_reduced(red, tmp_path / "r")
    T = rng.standard_normal((3, 3, 3))
    sio.mmwrite(str(tmp_path / "r" / "hhat.mtx"), T.reshape(3, 9),
                precision=17)
    back = load_reduced(manifest)
    u, v = rng.standard_normal((3, 1)), rng.standard_normal((3, 1))
    assert np.allclose(back.H.apply_kron(u, v), back.H.apply_kron(v, u),
                       rtol=1e-14, atol=0)
    assert np.allclose(back.H.mode1(),
                       (0.5 * (T + T.transpose(0, 2, 1))).reshape(3, 9),
                       rtol=1e-15, atol=0)
    assert np.isfinite(truncated_h2_error(sys, back))


def test_load_rejects_wrong_manifest(tmp_path):
    rng = rng_for(23)
    sys = random_stable_qb(3, 1, 1, rng)
    save_system(sys, tmp_path / "s")
    with pytest.raises(ValueError):
        load_reduced(tmp_path / "s" / "system.qbm")


def _bad_label_cases():
    # a line break would start a manifest entry that overrides the format,
    # and the reader strips the whitespace that starts or ends a value
    sys = random_stable_qb(3, 1, 1, rng_for(25))
    for label in ("a\nformat = qbmor-reduced-1", " x ", "x\t", " x"):
        yield label, QBSystem(sys.A, sys.H, sys.N, sys.B, sys.C, label=label)


def test_save_system_rejects_a_label_with_a_line_break(tmp_path):
    for label, sys in _bad_label_cases():
        with pytest.raises(ValueError) as exc:
            save_system(sys, tmp_path / "s")
        assert repr(label) in str(exc.value)
        assert not (tmp_path / "s").exists()


def test_save_reduced_rejects_a_label_with_a_line_break(tmp_path):
    for label, sys in _bad_label_cases():
        red = project(sys, np.eye(3)[:, :2], np.eye(3)[:, :2])
        assert red.label == label
        with pytest.raises(ValueError) as exc:
            save_reduced(red, tmp_path / "r")
        assert repr(label) in str(exc.value)
        assert not (tmp_path / "r").exists()


def test_load_names_a_missing_manifest_key(tmp_path):
    rng = rng_for(23)
    save_system(random_stable_qb(3, 1, 1, rng), tmp_path / "s")
    red = project(random_stable_qb(3, 1, 1, rng), np.eye(3)[:, :2],
                  np.eye(3)[:, :2])
    save_reduced(red, tmp_path / "r")
    system = tmp_path / "s" / "system.qbm"
    reduced = tmp_path / "r" / "reduced.qbm"
    for load, path, key in ((load_system, system, "m"),
                            (load_system, system, "a"),
                            (load_reduced, reduced, "r")):
        text = path.read_text()
        path.write_text("\n".join(line for line in text.splitlines()
                                  if not line.startswith(key + " ")) + "\n")
        with pytest.raises(ValueError, match="lacks the key '%s'" % key):
            load(path)
        path.write_text(text)
