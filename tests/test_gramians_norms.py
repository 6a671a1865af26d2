import numpy as np
import pytest
import scipy.sparse as sp

from qbmor.errors import NoConvergence, NotStable
from qbmor.kron_tensor import Hessian
from qbmor.qb_core import QBSystem, project
from qbmor.benchmarks import chafee_infante
from qbmor.gramians_norms import (
    truncated_gramians, quadratic_gramians, truncated_h2_norm, h2_norm,
    truncated_h2_error, error_system, _psd_sqrt, _quadratic_source,
    _observability_source,
)
from conftest import random_stable_qb, rng_for, quadrature_h2_squared


def scalar_system(a, h, nn, b, c):
    return QBSystem(np.array([[a]]), Hessian.dense(np.array([[h]])),
                    [np.array([[nn]])], np.array([[b]]), np.array([[c]]))


# ---------------------------------------------------------- truncated gramians

def test_truncated_linear_degeneration():
    rng = rng_for(0)
    sys = random_stable_qb(6, 2, 1, rng, with_hessian=False)
    sys = QBSystem(sys.A, None, [np.zeros((6, 6))] * 2, sys.B, sys.C)
    g = truncated_gramians(sys)
    assert np.allclose(g.P_T, g.P_l, atol=1e-13)
    assert np.allclose(g.Q_T, g.Q_l, atol=1e-13)


def test_truncated_scalar_example():
    sys = scalar_system(-1.0, 0.0, 0.5, 1.0, 1.0)
    g = truncated_gramians(sys)
    assert np.isclose(g.P_l[0, 0], 0.5, atol=1e-14)
    # -2 P_T + N P_l N + B B = 0 with N = 0.5
    assert np.isclose(g.P_T[0, 0], 0.5625, atol=1e-14)


def test_truncated_residuals_random():
    rng = rng_for(1)
    sys = random_stable_qb(8, 2, 2, rng)
    g = truncated_gramians(sys)
    A, B, C = sys.A, sys.B, sys.C
    Hm = sys.H.mode1()
    H2 = sys.H.apply_kron_mode2(np.eye(8), np.eye(8))

    def resnorm(R, *scales):
        return np.linalg.norm(R) / max(sum(np.linalg.norm(s) for s in scales), 1.0)

    r1 = A @ g.P_l + g.P_l @ A.T + B @ B.T
    assert resnorm(r1, A @ g.P_l, B @ B.T) <= 1e-9
    r2 = A.T @ g.Q_l + g.Q_l @ A + C.T @ C
    assert resnorm(r2, A @ g.Q_l, C.T @ C) <= 1e-9
    src_p = Hm @ np.kron(g.P_l, g.P_l) @ Hm.T + B @ B.T
    for Nk in sys.N:
        src_p += Nk @ g.P_l @ Nk.T
    r3 = A @ g.P_T + g.P_T @ A.T + src_p
    assert resnorm(r3, A @ g.P_T, src_p) <= 1e-9
    src_q = H2 @ np.kron(g.P_l, g.Q_l) @ H2.T + C.T @ C
    for Nk in sys.N:
        src_q += Nk.T @ g.Q_l @ Nk
    r4 = A.T @ g.Q_T + g.Q_T @ A + src_q
    assert resnorm(r4, A @ g.Q_T, src_q) <= 1e-9


def test_truncated_dominates_linear():
    rng = rng_for(2)
    for seed in range(5):
        sys = random_stable_qb(7, 1, 1, rng_for(100 + seed))
        g = truncated_gramians(sys)
        w = np.linalg.eigvalsh(g.P_T - g.P_l)
        assert w.min() >= -1e-10 * max(1.0, np.linalg.norm(g.P_T))


def test_truncated_rejects_unstable():
    sys = scalar_system(1.0, 0.0, 0.0, 1.0, 1.0)
    with pytest.raises(NotStable):
        truncated_gramians(sys)


def test_truncated_with_mass_matrix():
    rng = rng_for(3)
    base = random_stable_qb(5, 1, 1, rng)
    E = np.eye(5) + 0.2 * rng.standard_normal((5, 5))
    sysE = QBSystem(E @ base.A,
                    Hessian.dense(E @ base.H.mode1(), symmetric=True),
                    [E @ base.N[0]],
                    E @ base.B, base.C, E=E)
    gE = truncated_gramians(sysE)
    g = truncated_gramians(base)
    assert np.allclose(gE.P_T, g.P_T, atol=1e-9)
    assert np.allclose(gE.Q_T, g.Q_T, atol=1e-9)


def _full_width_factor(X):
    w, U = np.linalg.eigh(X)
    return U * np.sqrt(np.clip(w, 0.0, None))


def test_psd_sqrt_truncates_to_numerical_rank():
    sys = chafee_infante(30)
    g = truncated_gramians(sys)
    L = _psd_sqrt(g.P_l, "P_l")
    assert L.shape[0] == sys.n and L.shape[1] < sys.n
    assert np.linalg.norm(L @ L.T - g.P_l) <= 1e-13 * np.linalg.norm(g.P_l)


def test_sources_from_truncated_factors_match_full_width():
    sys = chafee_infante(30)
    g = truncated_gramians(sys)
    LP, LQ = _psd_sqrt(g.P_l, "P_l"), _psd_sqrt(g.Q_l, "Q_l")
    FP, FQ = _full_width_factor(g.P_l), _full_width_factor(g.Q_l)

    K = sys.H.apply_kron(FP, FP)
    ref = K @ K.T + sum((Nk @ g.P_l) @ Nk.T for Nk in sys.N)
    got = _quadratic_source(sys, LP)
    assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)

    K = sys.H.apply_kron_mode2(FP, FQ)
    ref = K @ K.T + sum((Nk.T @ g.Q_l) @ Nk for Nk in sys.N)
    got = _observability_source(sys, LP, LQ)
    assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)


def test_source_products_stay_rank_wide(monkeypatch):
    # with full-width factors every H(L (x) L) block would be n x n^2
    widths = []
    apply_kron = Hessian.apply_kron

    def recording(self, X, Y):
        out = apply_kron(self, X, Y)
        widths.append(out.shape[1])
        return out

    monkeypatch.setattr(Hessian, "apply_kron", recording)
    sys = chafee_infante(30)
    assert truncated_h2_norm(sys) > 0
    assert widths and max(widths) < (sys.n // 2) ** 2


# ---------------------------------------------------------- quadratic gramians

def test_quadratic_linear_case_one_iteration():
    rng = rng_for(4)
    sys = random_stable_qb(5, 1, 1, rng, with_hessian=False)
    sys = QBSystem(sys.A, None, [np.zeros((5, 5))], sys.B, sys.C)
    P, Q, (ip, iq) = quadratic_gramians(sys)
    g = truncated_gramians(sys)
    assert ip == 1 and iq == 1
    assert np.allclose(P, g.P_l, atol=1e-12)
    assert np.allclose(Q, g.Q_l, atol=1e-12)


def test_quadratic_scalar_fixed_point():
    sys = scalar_system(-1.0, 0.1, 0.0, 1.0, 1.0)
    P, Q, _ = quadratic_gramians(sys)
    expected = (2.0 - np.sqrt(4.0 - 0.04)) / 0.02
    assert np.isclose(P[0, 0], expected, rtol=1e-9)


def test_quadratic_no_convergence_for_large_hessian():
    sys = scalar_system(-1.0, 3.0, 0.0, 1.0, 1.0)
    with pytest.raises(NoConvergence):
        quadratic_gramians(sys, maxit=30)


# ------------------------------------------------------------------ norms

def test_truncated_norm_zero_input_map():
    rng = rng_for(5)
    sys = random_stable_qb(4, 1, 1, rng)
    zb = QBSystem(sys.A, sys.H, sys.N, np.zeros((4, 1)), sys.C)
    assert truncated_h2_norm(zb) == 0.0


def test_truncated_norm_linear_degeneration():
    rng = rng_for(6)
    sys = random_stable_qb(5, 2, 2, rng, with_hessian=False)
    sys = QBSystem(sys.A, None, [np.zeros((5, 5))] * 2, sys.B, sys.C)
    g = truncated_gramians(sys)
    expected = np.sqrt(np.trace(sys.C @ g.P_l @ sys.C.T))
    assert np.isclose(truncated_h2_norm(sys), expected, rtol=1e-12)


def test_truncated_norm_dual_agreement():
    rng = rng_for(7)
    for seed in range(8):
        sys = random_stable_qb(int(rng.integers(3, 12)), 2, 2, rng_for(200 + seed))
        g = truncated_gramians(sys)
        nc = np.sqrt(np.trace(sys.C @ g.P_T @ sys.C.T))
        no = np.sqrt(np.trace(sys.B.T @ g.Q_T @ sys.B))
        assert abs(nc - no) <= 1e-7 * max(nc, no)
        assert np.isclose(truncated_h2_norm(sys), nc, rtol=1e-12)


def test_truncated_norm_matches_quadrature_oracle():
    for seed in (0, 1, 2):
        sys = random_stable_qb(3, 1, 1, rng_for(300 + seed))
        val = truncated_h2_norm(sys)
        oracle = np.sqrt(quadrature_h2_squared(sys))
        assert abs(val - oracle) <= 1e-6 * oracle


def test_h2_norm_linear_and_scalar():
    rng = rng_for(8)
    lin = random_stable_qb(4, 1, 1, rng, with_hessian=False)
    lin = QBSystem(lin.A, None, [np.zeros((4, 4))], lin.B, lin.C)
    assert np.isclose(h2_norm(lin), truncated_h2_norm(lin), rtol=1e-10)
    sys = scalar_system(-1.0, 0.1, 0.0, 1.0, 1.0)
    expected = np.sqrt((2.0 - np.sqrt(4.0 - 0.04)) / 0.02)
    assert np.isclose(h2_norm(sys), expected, rtol=1e-9)


def test_h2_norm_dual_agreement():
    rng = rng_for(9)
    for seed in range(5):
        sys = random_stable_qb(5, 2, 1, rng_for(400 + seed))
        P, Q, _ = quadratic_gramians(sys)
        nc = np.sqrt(np.trace(sys.C @ P @ sys.C.T))
        no = np.sqrt(np.trace(sys.B.T @ Q @ sys.B))
        assert abs(nc - no) <= 1e-6 * max(nc, no)
        assert np.isclose(h2_norm(sys), nc, rtol=1e-12)


# ----------------------------------------------------------------- error norm

def test_error_system_shape_and_blocks():
    rng = rng_for(10)
    sys = random_stable_qb(6, 2, 1, rng)
    red = project(sys, rng.standard_normal((6, 2)), rng.standard_normal((6, 2)))
    err = error_system(sys, red)
    assert err.n == 8 and err.m == 2 and err.p == 1
    assert np.allclose(err.A[:6, :6], sys.A)
    assert np.allclose(err.A[6:, 6:], red.A)
    assert np.allclose(err.A[:6, 6:], 0.0)
    assert np.allclose(err.B[:6], sys.B)
    assert np.allclose(err.C[0, 6:], -red.C[0])
    # quadratic map acts blockwise on the stacked state
    x = rng.standard_normal(6)
    xh = rng.standard_normal(2)
    xe = np.concatenate([x, xh])
    top = sys.H.apply(x, x)
    bot = red.H.apply(xh, xh)
    assert np.allclose(err.H.apply(xe, xe), np.concatenate([top, bot]),
                       atol=1e-12)


def test_error_norm_exact_copy_is_zero():
    # the error trace cancels to rounding level; the norm therefore floors
    # at sqrt(eps) times the system scale and the squared quantity is the
    # one that vanishes to 1e-10 at the problem's absolute scale
    rng = rng_for(11)
    sys = random_stable_qb(6, 1, 1, rng)
    red = project(sys, np.eye(6), np.eye(6))
    err = truncated_h2_error(sys, red)
    scale = truncated_h2_norm(sys)
    assert err ** 2 <= 1e-10 * scale ** 2
    assert err <= 1e-5 * scale


def test_error_norm_linear_oracle():
    rng = rng_for(12)
    sys = random_stable_qb(7, 1, 1, rng, with_hessian=False)
    sys = QBSystem(sys.A, None, [np.zeros((7, 7))], sys.B, sys.C)
    V = rng.standard_normal((7, 3))
    W = rng.standard_normal((7, 3))
    red = project(sys, V, W)
    lam = np.linalg.eigvals(red.A)
    assert lam.real.max() < 0  # only meaningful when the sample is stable
    got = truncated_h2_error(sys, red)
    # direct linear error Gramian
    Ae = np.block([[sys.A, np.zeros((7, 3))], [np.zeros((3, 7)), red.A]])
    Be = np.vstack([sys.B, red.B])
    Ce = np.hstack([sys.C, -red.C])
    from qbmor.matrix_equations import solve_lyapunov
    Pe = solve_lyapunov(Ae, Be @ Be.T)
    expected = np.sqrt(np.trace(Ce @ Pe @ Ce.T))
    assert np.isclose(got, expected, rtol=1e-9)


def test_error_norm_swap_symmetry():
    rng = rng_for(14)
    sys = random_stable_qb(5, 1, 1, rng)
    other = random_stable_qb(5, 1, 1, rng)
    red = project(other, np.eye(5), np.eye(5))
    sys_as_red = project(sys, np.eye(5), np.eye(5))
    e1 = truncated_h2_error(sys, red)
    e2 = truncated_h2_error(other, sys_as_red)
    assert np.isclose(e1, e2, rtol=1e-9)


def test_error_system_embeds_sparse_factors():
    rng = rng_for(15)
    n, r = 12, 3
    sys = random_stable_qb(n, 1, 1, rng)
    assert sys.H.storage == "dense"
    red = project(sys, rng.standard_normal((n, r)),
                  rng.standard_normal((n, r)))
    pairs = sys.H.to_pairs().pairs
    assert len(pairs) == n
    for L, _ in pairs:
        assert sp.issparse(L) and L.nnz == n
    err = error_system(sys, red)
    assert all(sp.issparse(F) for pair in err.H.pairs for F in pair)
    # the block tensor: full rows see the full state, reduced rows the
    # reduced state
    T = np.zeros((n + r,) * 3)
    T[:n, :n, :n] = sys.H.mode1().reshape(n, n, n)
    T[n:, n:, n:] = red.H.mode1().reshape(r, r, r)
    ref = T.reshape(n + r, -1)
    assert np.linalg.norm(err.H.mode1() - ref) <= 1e-14 * np.linalg.norm(ref)
