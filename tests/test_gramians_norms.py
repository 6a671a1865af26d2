import sys as _sys
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp

from qbmor import gramians_norms, qb_core
from qbmor.errors import (
    IndefiniteGramian, NoConvergence, NotStable, NumericalError,
    SolverBreakdown,
)
from qbmor.kron_tensor import Hessian
from qbmor.qb_core import QBSystem, ReducedModel, project, rescale
from qbmor.reduction_baselines import balanced_truncation
from qbmor.benchmarks import chafee_infante, fitzhugh_nagumo
from qbmor.matrix_equations import hurwitz_schur
from qbmor.gramians_norms import (
    truncated_gramians, quadratic_gramians, truncated_h2_norm, h2_norm,
    truncated_h2_error, error_system, _linear_gramian, _psd_sqrt,
    _quadratic_source, _observability_source, _controllability_gram,
    _observability_gram,
)
from conftest import (lifted, linear_gramian, random_stable_qb, rng_for,
                      quadrature_h2_squared)


def scalar_system(a, h, nn, b, c):
    return QBSystem(np.array([[a]]), Hessian.dense(np.array([[h]])),
                    [np.array([[nn]])], np.array([[b]]), np.array([[c]]))


# ---------------------------------------------------------- truncated gramians

def test_truncated_linear_degeneration():
    rng = rng_for(0)
    sys = random_stable_qb(6, 2, 1, rng, with_hessian=False)
    sys = QBSystem(sys.A, None, [np.zeros((6, 6))] * 2, sys.B, sys.C)
    g = truncated_gramians(sys)
    assert np.allclose(lifted(g, "P_T"), linear_gramian(sys), atol=1e-13)
    assert np.allclose(lifted(g, "Q_T"), linear_gramian(sys, True),
                       atol=1e-13)


def test_truncated_scalar_example():
    sys = scalar_system(-1.0, 0.0, 0.5, 1.0, 1.0)
    g = truncated_gramians(sys)
    assert np.isclose(linear_gramian(sys)[0, 0], 0.5, atol=1e-14)
    # -2 P_T + N P_l N + B B = 0 with N = 0.5
    assert np.isclose(lifted(g, "P_T")[0, 0], 0.5625, atol=1e-14)


def test_truncated_residuals_random():
    sys = random_stable_qb(8, 2, 2, rng_for(1))
    S = hurwitz_schur(sys.A)
    assert S.nd != S.n
    _check_truncated_residuals(sys)


def test_truncated_residuals_symmetric_a():
    # an exactly symmetric A takes the eigenbasis path
    sys = chafee_infante(4)
    S = hurwitz_schur(sys.A)
    assert S.nd == S.n
    _check_truncated_residuals(sys)


def _check_truncated_residuals(sys):
    g = truncated_gramians(sys)
    P_l, Q_l = linear_gramian(sys), linear_gramian(sys, True)
    P_T, Q_T = lifted(g, "P_T"), lifted(g, "Q_T")
    A = sys.A.toarray() if sp.issparse(sys.A) else sys.A
    B, C = sys.B, sys.C
    n = sys.n
    Nd = [Nk.toarray() if sp.issparse(Nk) else Nk for Nk in sys.N]
    Hm = sys.H.mode1()
    H2 = sys.H.apply_kron_mode2(np.eye(n), np.eye(n))

    def resnorm(R, *scales):
        return np.linalg.norm(R) / max(sum(np.linalg.norm(s) for s in scales), 1.0)

    r1 = A @ P_l + P_l @ A.T + B @ B.T
    assert resnorm(r1, A @ P_l, B @ B.T) <= 1e-9
    r2 = A.T @ Q_l + Q_l @ A + C.T @ C
    assert resnorm(r2, A @ Q_l, C.T @ C) <= 1e-9
    src_p = Hm @ np.kron(P_l, P_l) @ Hm.T + B @ B.T
    for Nk in Nd:
        src_p += Nk @ P_l @ Nk.T
    r3 = A @ P_T + P_T @ A.T + src_p
    assert resnorm(r3, A @ P_T, src_p) <= 1e-9
    src_q = H2 @ np.kron(P_l, Q_l) @ H2.T + C.T @ C
    for Nk in Nd:
        src_q += Nk.T @ Q_l @ Nk
    r4 = A.T @ Q_T + Q_T @ A + src_q
    assert resnorm(r4, A @ Q_T, src_q) <= 1e-9


def test_truncated_dominates_linear():
    rng = rng_for(2)
    for seed in range(5):
        sys = random_stable_qb(7, 1, 1, rng_for(100 + seed))
        g = truncated_gramians(sys)
        P_T = lifted(g, "P_T")
        w = np.linalg.eigvalsh(P_T - linear_gramian(sys))
        assert w.min() >= -1e-10 * max(1.0, np.linalg.norm(P_T))


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
    assert np.allclose(lifted(gE, "P_T"), lifted(g, "P_T"), atol=1e-9)
    assert np.allclose(lifted(gE, "Q_T"), lifted(g, "Q_T"), atol=1e-9)


def _full_width_factor(X):
    w, U = np.linalg.eigh(X)
    return U * np.sqrt(np.clip(w, 0.0, None))


def test_psd_sqrt_truncates_to_numerical_rank():
    sys = chafee_infante(30)
    P_l = linear_gramian(sys)
    L = _psd_sqrt(P_l, "P_l")
    assert L.shape[0] == sys.n and L.shape[1] < sys.n
    assert np.linalg.norm(L @ L.T - P_l) <= 1e-13 * np.linalg.norm(P_l)


def test_sources_from_truncated_factors_match_full_width():
    # the sources are formed in the Schur basis Z of the system; an empty
    # seed adds nothing, so C^T C cannot hide the small quadratic part
    sys = chafee_infante(30)
    P_l, Q_l = linear_gramian(sys), linear_gramian(sys, True)
    LP, LQ = _psd_sqrt(P_l, "P_l"), _psd_sqrt(Q_l, "Q_l")
    FP, FQ = _full_width_factor(P_l), _full_width_factor(Q_l)
    S, no_seed = sys.schur(), np.zeros((sys.n, 0))
    Z = S.left(np.eye(sys.n))

    K = sys.H.apply_kron(FP, FP)
    ref = Z.T @ (K @ K.T + sum((Nk @ P_l) @ Nk.T for Nk in sys.N)) @ Z
    got = _quadratic_source(sys, LP, S, no_seed)
    assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)

    K = sys.H.apply_kron_mode2(FP, FQ)
    ref = Z.T @ (K @ K.T + sum((Nk.T @ Q_l) @ Nk for Nk in sys.N)) @ Z
    got = _observability_source(sys, LP, LQ, S, no_seed)
    assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)


@pytest.mark.parametrize("k", [100, 250, 500])
def test_psd_sqrt_keeps_the_eigh_rank(k):
    # the pivoted-Cholesky factor has as many columns as an eigendecomposition
    # keeps (eigenvalues above n eps max|w|), in the Schur basis where it is
    # taken and in the original coordinates; dropping the eigenvalues below
    # that threshold leaves an error of about n eps ||X||, as the
    # eigendecomposition's own factor does
    sys = chafee_infante(k)
    g = truncated_gramians(sys)
    eps = np.finfo(float).eps
    forms = {"P_l": (_linear_gramian(sys), linear_gramian(sys)),
             "Q_l": (_linear_gramian(sys, True), linear_gramian(sys, True)),
             "P_T": (g.schur["P_T"], lifted(g, "P_T")),
             "Q_T": (g.schur["Q_T"], lifted(g, "Q_T"))}
    for name, pair in forms.items():
        for X in pair:
            n = X.shape[0]
            w = np.linalg.eigh(X)[0]
            rank = int((w > n * eps * np.abs(w).max()).sum())
            L = _psd_sqrt(X, name)
            assert L.shape == (n, rank), name
            assert (np.linalg.norm(L @ L.T - X)
                    <= 2 * n * eps * np.linalg.norm(X)), name


def _with_spectrum(n, head, seed=0):
    Q = np.linalg.qr(rng_for(seed).standard_normal((n, n)))[0]
    w = np.zeros(n)
    w[:len(head)] = head
    X = (Q * w) @ Q.T
    return 0.5 * (X + X.T)


def _indefinite_warnings(X):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        L = _psd_sqrt(X, "X")
    return L, [c for c in caught if issubclass(c.category, IndefiniteGramian)]


def test_psd_sqrt_of_zero_is_empty_and_silent():
    L, caught = _indefinite_warnings(np.zeros((7, 7)))
    assert L.shape == (7, 0) and not caught


def test_psd_sqrt_warns_once_on_an_indefinite_matrix():
    L, caught = _indefinite_warnings(_with_spectrum(40, [1.0, 0.3, -1e-3]))
    assert len(caught) == 1
    # the factor keeps the positive part
    assert L.shape == (40, 2)
    assert np.allclose(np.linalg.svd(L, compute_uv=False) ** 2, [1.0, 0.3])


@pytest.mark.parametrize("negative, count, warns", [
    (-1e-14, 2, False),     # noise level: cleared by the residual bound
    (-0.9e-10, 5, False),   # too large for the bound, above the floor
    (-1.1e-10, 1, True),    # just below the floor
])
def test_psd_sqrt_warns_exactly_below_the_floor(negative, count, warns):
    X = _with_spectrum(40, [1.0, 0.3, 0.01] + [negative] * count, seed=1)
    L, caught = _indefinite_warnings(X)
    assert len(caught) == int(warns)
    assert L.shape == (40, 3)


def test_factor_path_runs_no_dense_eigendecomposition(monkeypatch):
    # the Gramian factors come from pivoted Cholesky and a rho x rho
    # eigenproblem; no n x n eigh or eigvalsh runs in the Gramian or
    # balancing code, and balanced truncation reads the bundle's factors
    sys = chafee_infante(100)
    big = []
    for name in ("eigh", "eigvalsh"):
        def recording(X, *args, _f=getattr(np.linalg, name), **kw):
            caller = _sys._getframe(1).f_globals["__name__"]
            if (caller in ("qbmor.gramians_norms", "qbmor.reduction_baselines")
                    and X.shape[0] >= sys.n):
                big.append((caller, X.shape))
            return _f(X, *args, **kw)
        monkeypatch.setattr(np.linalg, name, recording)
    factored = []
    psd_sqrt = gramians_norms._psd_sqrt

    def counting(X, what):
        factored.append(what)
        return psd_sqrt(X, what)

    monkeypatch.setattr(gramians_norms, "_psd_sqrt", counting)
    assert truncated_h2_norm(sys) > 0
    assert len(factored) == 4
    del factored[:]
    balanced_truncation(sys, 10, gamma=0.01)
    assert factored == ["P_l", "Q_l", "P_T", "Q_T"]
    assert h2_norm(rescale(sys, 0.01)) > 0
    assert not big


def test_one_schur_form_per_system(monkeypatch):
    # balanced truncation of a rescaled copy, the truncated norm and the
    # H2 norm of another rescaled copy share the system's Schur form
    calls = []
    schur = qb_core.hurwitz_schur

    def counting(A):
        calls.append(A.shape)
        return schur(A)

    monkeypatch.setattr(qb_core, "hurwitz_schur", counting)
    sys = chafee_infante(30)
    balanced_truncation(sys, 4, gamma=0.01)
    truncated_h2_norm(sys)
    h2_norm(rescale(sys, 0.01))
    assert calls == [(sys.n, sys.n)]


def test_source_products_stay_rank_wide(monkeypatch):
    # with full-width factors every H(L (x) L) block would be n x n^2; the
    # source reads only its rho(rho + 1)/2 distinct columns
    widths = []
    distinct = Hessian.apply_kron_distinct

    def recording(self, X):
        out = distinct(self, X)
        rho = X.shape[1]
        widths.append((rho, out.shape[1]))
        return out

    monkeypatch.setattr(Hessian, "apply_kron_distinct", recording)
    sys = chafee_infante(30)
    assert truncated_h2_norm(sys) > 0
    assert widths
    for rho, width in widths:
        assert width == rho * (rho + 1) // 2
        assert width < (sys.n // 2) ** 2


# ---------------------------------------------------------- quadratic gramians

def _random_psd(n, rng):
    X = rng.standard_normal((n, n))
    return X @ X.T


def _kron_sources(sys, P, Q):
    """Both Picard sources by explicit Kronecker products, E inverted."""
    n = sys.n
    Hm = sys.H.mode1()
    H2 = sys.H.apply_kron_mode2(np.eye(n), np.eye(n))
    Nd = [Nk.toarray() if sp.issparse(Nk) else Nk for Nk in sys.N]
    Einv = np.eye(n) if sys.E is None else np.linalg.inv(sys.E)
    F = Hm @ np.kron(P, P) @ Hm.T + sum(Nk @ P @ Nk.T for Nk in Nd)
    Qe = Einv.T @ Q @ Einv
    G = H2 @ np.kron(P, Qe) @ H2.T + sum(Nk.T @ Qe @ Nk for Nk in Nd)
    return Einv @ F @ Einv.T, G


def _gram_case(storage, rng):
    base = chafee_infante(6)            # n = 12
    n = base.n
    if storage == "half list":          # symmetrized from the generator's
        H = base.H
        assert H._half is not None
    elif storage == "rescaled half list":
        H = rescale(base, 0.3).H
    elif storage == "full list":        # symmetric, no known half
        H = Hessian.from_pairs(base.H.pairs, n, symmetric=True)
    elif storage == "non-mirrored pairs":
        # test_mass_matrix's D^{-1} L pairs: symmetric, not mirrored
        Dinv = sp.diags_array(1.0 / np.linspace(1.0, 2.0, n))
        H = Hessian.from_pairs([(sp.csr_array(Dinv @ L), R)
                                for L, R in base.H.pairs], n, symmetric=True)
    elif storage == "random pairs":
        pairs = [(sp.csr_array(sp.random_array((n, n), density=0.3, rng=rng)),
                  rng.standard_normal((n, n))) for _ in range(3)]
        H = Hessian.from_pairs(pairs, n)
    else:
        H = random_stable_qb(n, 1, 1, rng).H
        assert H.storage == "dense"
    E = (np.eye(n) + 0.2 * rng.standard_normal((n, n))
         if storage == "with E" else None)
    return QBSystem(base.A, H, base.N, base.B, base.C, E=E)


@pytest.mark.parametrize("storage", [
    "half list", "rescaled half list", "full list", "non-mirrored pairs",
    "random pairs", "dense", "with E"])
def test_gram_sources_match_explicit_kronecker(storage):
    rng = rng_for(31)
    sys = _gram_case(storage, rng)
    P, Q = _random_psd(sys.n, rng), _random_psd(sys.n, rng)
    ref_p, ref_q = _kron_sources(sys, P, Q)
    got_p = _controllability_gram(sys, P)
    got_q = _observability_gram(sys, sys.H.mode2_gram(P), Q)
    assert np.linalg.norm(got_p - ref_p) <= 1e-14 * np.linalg.norm(ref_p)
    assert np.linalg.norm(got_q - ref_q) <= 1e-14 * np.linalg.norm(ref_q)


def test_dense_gram_maps_take_cubic_memory():
    # a dense Hessian has up to n^2 active rows, so Gram maps over them
    # would hold n^2 x n^2 intermediates (n^4 memory, 20 MB at n = 40);
    # contracting the tensor holds a few n x n^2 arrays (0.5 MB each)
    rng = rng_for(32)
    n = 40
    H = random_stable_qb(n, 1, 1, rng).H
    assert H.storage == "dense"
    P, Q = _random_psd(n, rng), _random_psd(n, rng)
    tracemalloc.start()
    try:
        H.kron_gram(P)
        H.mode2_gram(P)(Q)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * n ** 3 * 8


def test_truncated_gramians_hold_few_dense_arrays():
    # every linear Gramian, seed and source factor is freed after its last
    # use: at n = 1000 the traced peak reads about 4.2 n^2 doubles, where
    # keeping P_l, Q_l and both seeds alive read 8.25 n^2
    sys = chafee_infante(500)
    sys.schur()
    tracemalloc.start()
    try:
        truncated_gramians(sys)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 5.5 * sys.n ** 2 * 8


def test_kron_gram_needs_a_symmetric_hessian():
    pairs = chafee_infante(6).H._half.pairs
    with pytest.raises(ValueError):
        Hessian.from_pairs(pairs, 12).kron_gram(np.eye(12))


def test_quadratic_gramians_factor_nothing(monkeypatch):
    # the Picard sources come from the iterates themselves: no factor, no
    # Kronecker factor product
    def forbidden(*args, **kwargs):
        raise AssertionError("factor path used by quadratic_gramians")

    monkeypatch.setattr(gramians_norms, "_psd_sqrt", forbidden)
    for meth in ("apply_kron_distinct", "apply_kron_mode2"):
        monkeypatch.setattr(Hessian, meth, forbidden)
    for sys in (rescale(chafee_infante(30), 0.01),
                random_stable_qb(6, 2, 1, rng_for(32))):
        P, Q, its = quadratic_gramians(sys)
        assert min(its) >= 2 and np.all(np.isfinite(P))


def test_h2_norm_at_paper_scale():
    # n = 500: the rank-truncated Picard factors broke the 1e-6 trace
    # duality check here (gap 1.8e-5)
    sys = rescale(chafee_infante(250), 1e-3)
    P, Q, _ = quadratic_gramians(sys)
    t_c = np.trace(sys.C @ P @ sys.C.T)
    t_o = np.trace(sys.B.T @ Q @ sys.B)
    assert abs(t_c - t_o) <= 1e-8 * t_c
    assert np.isclose(h2_norm(sys), np.sqrt(t_c), rtol=1e-15)


def test_quadratic_linear_case_one_iteration():
    rng = rng_for(4)
    sys = random_stable_qb(5, 1, 1, rng, with_hessian=False)
    sys = QBSystem(sys.A, None, [np.zeros((5, 5))], sys.B, sys.C)
    P, Q, (ip, iq) = quadratic_gramians(sys)
    assert ip == 1 and iq == 1
    assert np.allclose(P, linear_gramian(sys), atol=1e-12)
    assert np.allclose(Q, linear_gramian(sys, True), atol=1e-12)


def test_quadratic_scalar_fixed_point():
    sys = scalar_system(-1.0, 0.1, 0.0, 1.0, 1.0)
    P, Q, _ = quadratic_gramians(sys)
    expected = (2.0 - np.sqrt(4.0 - 0.04)) / 0.02
    assert np.isclose(P[0, 0], expected, rtol=1e-9)


def test_quadratic_no_convergence_for_large_hessian():
    sys = scalar_system(-1.0, 3.0, 0.0, 1.0, 1.0)
    with pytest.raises(NoConvergence):
        quadratic_gramians(sys)


def test_quadratic_gramians_stop_at_the_step_budget(monkeypatch):
    # this system settles in a few steps; with a budget of one it cannot
    monkeypatch.setattr(gramians_norms, "_PICARD_MAXIT", 1)
    sys = scalar_system(-1.0, 0.1, 0.0, 1.0, 1.0)
    with pytest.raises(NoConvergence, match="controllability iteration did "
                                            "not settle in 1 steps"):
        quadratic_gramians(sys)


def test_picard_failures_are_typed(monkeypatch):
    # each way a Picard step can fail ends in NoConvergence with its reason
    sys = scalar_system(-1.0, 0.1, 0.0, 1.0, 1.0)
    solve = gramians_norms.solve_lyapunov

    def after_the_first_solve(result):
        calls = []

        def solve_lyapunov(S, F, transpose=False):
            calls.append(F)
            if len(calls) == 1:  # the linear Gramian, before any step
                return solve(S, F, transpose=transpose)
            return result(S, F, transpose)
        return solve_lyapunov

    def breakdown(S, F, transpose):
        raise SolverBreakdown("forced")

    with monkeypatch.context() as m:
        m.setattr(gramians_norms, "_controllability_gram",
                  lambda sys, P: np.full_like(P, np.nan))
        with pytest.raises(NoConvergence, match=r"controllability iteration "
                           r"diverged \(non-finite source\)"):
            quadratic_gramians(sys)
    with monkeypatch.context() as m:
        m.setattr(gramians_norms, "solve_lyapunov",
                  after_the_first_solve(breakdown))
        with pytest.raises(NoConvergence, match="controllability iteration "
                           "broke the solver") as info:
            quadratic_gramians(sys)
        assert isinstance(info.value.__cause__, SolverBreakdown)
    with monkeypatch.context() as m:
        m.setattr(gramians_norms, "solve_lyapunov", after_the_first_solve(
            lambda S, F, transpose: np.full_like(F, 1e300)))
        with pytest.raises(NoConvergence, match=r"controllability iteration "
                           r"diverged \(norm overflow\)"):
            quadratic_gramians(sys)


def test_truncated_norm_checks_trace_duality(monkeypatch):
    # Gramians whose two traces disagree are refused, not averaged
    sys = random_stable_qb(4, 1, 1, rng_for(5))
    g = truncated_gramians(sys)
    bad = gramians_norms.GramianBundle(g.basis, g.schur["P_T"],
                                       2.0 * g.schur["Q_T"],
                                       g.factors["P_T"], g.factors["Q_T"])
    monkeypatch.setattr(gramians_norms, "truncated_gramians", lambda s: bad)
    with pytest.raises(NumericalError,
                       match="truncated trace duality violated"):
        truncated_h2_norm(sys)


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
    expected = np.sqrt(np.trace(sys.C @ linear_gramian(sys) @ sys.C.T))
    assert np.isclose(truncated_h2_norm(sys), expected, rtol=1e-12)


def test_truncated_norm_dual_agreement():
    rng = rng_for(7)
    for seed in range(8):
        sys = random_stable_qb(int(rng.integers(3, 12)), 2, 2, rng_for(200 + seed))
        g = truncated_gramians(sys)
        nc = np.sqrt(np.trace(sys.C @ lifted(g, "P_T") @ sys.C.T))
        no = np.sqrt(np.trace(sys.B.T @ lifted(g, "Q_T") @ sys.B))
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


def test_error_system_rejects_a_pair_of_other_channels():
    sys = random_stable_qb(6, 2, 1, rng_for(10))
    for m, p in ((1, 1), (2, 2)):
        red = ReducedModel(-np.eye(2), None, [np.zeros((2, 2))] * m,
                           np.ones((2, m)), np.ones((p, 2)))
        with pytest.raises(ValueError, match="input/output dimensions"):
            error_system(sys, red)


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
    pairs = Hessian.from_pairs(sys.H.pairs, n,
                               symmetric=sys.H.symmetric).pairs
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


def test_error_norm_of_plain_systems_with_and_without_mass():
    # red may be any QBSystem: a system against itself, and against its
    # copy with E = 2 I (every other matrix but C doubled), reads exactly 0;
    # the error system's mass matrix takes the identity for a missing E,
    # sparse with a sparse full side and dense with a dense one
    sys = chafee_infante(5)
    massed = QBSystem(2 * sys.A, sys.H.scaled(2.0), [2 * Nk for Nk in sys.N],
                      2 * sys.B, sys.C, E=2 * sp.eye_array(sys.n))
    assert truncated_h2_error(sys, sys) == 0.0
    assert error_system(sys, sys).E is None
    for full, red in ((sys, massed), (massed, sys)):
        assert truncated_h2_error(full, red) == 0.0
        E = error_system(full, red).E
        assert sp.issparse(E)
        assert np.array_equal(E.toarray(), sp.block_diag(
            [full.E if full.E is not None else sp.eye_array(sys.n),
             red.E if red.E is not None else sp.eye_array(sys.n)]).toarray())
    dense = QBSystem(sys.A.toarray(), sys.H, [Nk.toarray() for Nk in sys.N],
                     sys.B, sys.C, E=np.eye(sys.n))
    es = error_system(dense, massed)
    assert not sp.issparse(es.E) and not sp.issparse(es.A)
    assert np.array_equal(es.E, np.diag(np.r_[np.ones(sys.n),
                                               np.full(sys.n, 2.0)]))


# ------------------------------------------------------- block-diagonal A

def test_connected_a_keeps_its_gramians():
    # fitzhugh_nagumo's A is connected: one nonsymmetric block, whose
    # arithmetic is that of the single dense Schur form, so the norms are
    # bit-identical to the ones it gave before A was split by blocks
    sys = fitzhugh_nagumo(5)
    S = sys.schur()
    assert len(S.blocks) == 1 and S.nd != S.n
    scaled = rescale(sys, 0.01)
    assert truncated_h2_norm(sys) == 5.772444132021565
    assert truncated_h2_norm(scaled) == 0.8182302633804686
    assert h2_norm(scaled) == 0.8182806020348092


def test_error_system_splits_into_blocks():
    # blkdiag(A, A_r) of chafee_infante: the tridiagonal block by eigh,
    # the lifted diagonal as 1 x 1 blocks, the reduced A by schur
    sys = chafee_infante(10)
    red, _ = balanced_truncation(sys, 4, gamma=0.01)
    S = error_system(sys, red).schur()
    assert [(b.T.ndim, b.T.shape[0], b.Z is None) for b in S.blocks] == [
        (1, 10, True), (1, 10, False), (2, 4, False)]
    assert S.blocks[2].idx == slice(20, 24)


def test_error_system_factors_only_the_reduced_part(monkeypatch):
    # the full model's eigh runs once, in sys.schur(); each error system
    # adds its reduced model's Schur factorization alone, and its norm is
    # the one of the same system factored whole
    reds = [balanced_truncation(chafee_infante(50), r, gamma=0.01)[0]
            for r in (4, 6)]
    sys = chafee_infante(50)
    calls = []
    for name in ("eigh", "schur"):
        def counting(M, *args, _name=name, _f=getattr(sla, name), **kwargs):
            calls.append((_name, M.shape[0]))
            return _f(M, *args, **kwargs)
        monkeypatch.setattr(sla, name, counting)
    errors = [truncated_h2_error(sys, red) for red in reds]
    assert calls == [("eigh", 50), ("schur", 4), ("schur", 6)]
    monkeypatch.undo()
    unstable = project(reds[0], np.eye(4), np.eye(4))
    unstable.A[0, 0] = 1e3
    with pytest.raises(NotStable):
        error_system(sys, unstable)
    for red, err in zip(reds, errors):
        es = error_system(sys, red)
        whole = truncated_h2_norm(QBSystem(es.A, es.H, es.N, es.B, es.C,
                                           E=es.E))
        assert abs(err - whole) <= 1e-12 * whole


# 50-digit truncated H2 error of chafee_infante(10) against its order-r
# balanced truncation at gamma = 0.01, from scripts/reference_h2_error.py
_H2_ERROR_REFERENCE = {
    5: 2.1832016792697704642224686589048469177926875173636e-4,
    8: 1.7634489675331235283020635327925737101349873089867e-5,
}


@pytest.mark.parametrize("r", sorted(_H2_ERROR_REFERENCE))
def test_truncated_h2_error_matches_the_50_digit_reference(r):
    # at r = 8, err^2 is 1.3e-10 of the full model's squared norm, so the
    # traces of the error Gramians cancel to about eps / 1.3e-10; both
    # routes stay within 1e-6 (7.2e-7 and 6.9e-7 here), where a single
    # Schur form of the whole error system gave 2.3e-6
    sys = chafee_infante(10)
    red, _ = balanced_truncation(sys, r, gamma=0.01)
    es = error_system(sys, red)
    g = truncated_gramians(es)
    Bs, Cs = g.basis.left(es.B, transpose=True), g.basis.right(es.C)
    routes = (np.trace(Cs @ g.schur["P_T"] @ Cs.T),
              np.trace(Bs.T @ g.schur["Q_T"] @ Bs))
    ref = _H2_ERROR_REFERENCE[r]
    for t in routes:
        assert abs(np.sqrt(t) - ref) <= 1e-6 * ref
    assert truncated_h2_error(sys, red) == np.sqrt(routes[0])
