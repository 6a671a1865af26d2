import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp

from qbmor.errors import QbmorWarning, SingularGram, NonPositiveGamma
from qbmor.kron_tensor import Hessian
import qbmor.qb_core as qb_core
from qbmor.benchmarks import chafee_infante, fitzhugh_nagumo
from qbmor.qb_core import (
    QBSystem, ReducedModel, project, rescale, fold_mass_matrix,
    orthonormalize, save_system, load_system, save_reduced, load_reduced,
)
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


def test_dims_and_sparse_inputs():
    A = sp.csr_array(-np.eye(4))
    sys = QBSystem(A, None, [np.zeros((4, 4))] * 2, np.ones((4, 2)),
                   np.ones((3, 4)))
    assert (sys.n, sys.m, sys.p) == (4, 2, 3)
    assert isinstance(sys.A, np.ndarray)


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
        assert isinstance(J, sp.csr_array)
        expected = sys.A + 2.0 * sys.H.kron_identity(x)
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
    cases = [(ci, sp.csr_array), (fitzhugh_nagumo(5), np.ndarray),
             (_random_reduced(rng), np.ndarray), (with_mass, np.ndarray),
             (QBSystem(small.A, small.H, small.N, small.B, small.C,
                       E=np.eye(6)), np.ndarray)]
    for sys, kind in cases:
        J = sys.jacobian(rng.standard_normal(sys.n), rng.standard_normal(sys.m))
        assert type(J) is kind
        assert J.shape == (sys.n, sys.n)


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


def test_fold_mass_matrix_solves_with_ill_conditioned_mass():
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
    folded = fold_mass_matrix(gen)
    Einv = np.linalg.inv(E)
    pairs = [(folded.A, gen.A), (folded.N[0], gen.N[0]), (folded.B, gen.B),
             (folded.H.mode1(), gen.H.mode1())]
    for got, M in pairs:
        ref = np.linalg.solve(E, M)
        err = np.linalg.norm(got - ref) / np.linalg.norm(ref)
        err_inv = np.linalg.norm(Einv @ M - ref) / np.linalg.norm(ref)
        assert err < err_inv
        # backward stable: the residual is at rounding level
        res = np.linalg.norm(E @ got - M)
        assert res <= 1e-14 * np.linalg.norm(E) * np.linalg.norm(got)
    assert folded.E is None and folded.H.symmetric


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
    with pytest.raises(NonPositiveGamma):
        rescale(sys, 0.0)
    with pytest.raises(NonPositiveGamma):
        rescale(sys, -2.0)


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
    rng = rng_for(15)
    sys = random_stable_qb(4, 1, 1, rng)
    red = project(sys, rng.standard_normal((4, 2)), rng.standard_normal((4, 2)),
                  method="tqb-irka", gamma=0.01, seed=7, converged=False,
                  iterations=12, tol=1e-5, shift=0.5)
    s = red.rescaled(2.0)
    assert np.allclose(s.H.mode1(), 2.0 * red.H.mode1(), atol=1e-13)
    assert (s.method, s.gamma, s.seed, s.converged, s.iterations, s.tol,
            s.shift) == ("tqb-irka", 0.01, 7, False, 12, 1e-5, 0.5)


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
                  iterations=17, tol=1e-5, shift=0.25)
    manifest = save_reduced(red, tmp_path / "red")
    back = load_reduced(manifest)
    assert np.array_equal(back.A, red.A)
    assert np.array_equal(back.B, red.B)
    assert np.array_equal(back.C, red.C)
    assert np.array_equal(back.N[1], red.N[1])
    assert np.array_equal(back.H.mode1(), red.H.mode1())
    assert (back.method, back.gamma, back.seed, back.converged,
            back.iterations, back.tol, back.shift) == (
        "tqb-irka", 0.01, 3, True, 17, 1e-5, 0.25)


def test_load_rejects_wrong_manifest(tmp_path):
    rng = rng_for(23)
    sys = random_stable_qb(3, 1, 1, rng)
    save_system(sys, tmp_path / "s")
    with pytest.raises(ValueError):
        load_reduced(tmp_path / "s" / "system.qbm")
