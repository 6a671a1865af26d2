import dataclasses
import importlib
import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import qbmor
import qbmor.qb_core as qb_core
from qbmor.benchmarks import chafee_infante, fitzhugh_nagumo
from qbmor.errors import MaxIterationsExceeded, QbmorWarning
from qbmor.kron_tensor import Hessian
from qbmor.matrix_equations import (
    realify_basis, reflect_unstable, spectral_decompose,
)
from qbmor.qb_core import (
    QBSystem, ReducedModel, orthonormalize, project, rescale,
)
from qbmor.gramians_norms import truncated_h2_error
from qbmor.reduction_baselines import balanced_truncation
from qbmor.tqb_irka import (
    IrkaConfig, IrkaReport, solve_bases, initial_guess, tqb_irka,
    _eig_change, _solve_bases_core,
)

from conftest import record_band_factors, rng_for, random_stable_qb

# the package re-exports the function tqb_irka under the module's name
tqb_irka_module = importlib.import_module("qbmor.tqb_irka")


def linear_system(n, m, p, rng):
    sys = random_stable_qb(n, m, p, rng, with_hessian=False)
    return QBSystem(sys.A, None, [np.zeros((n, n))] * m, sys.B, sys.C)


# ---------------------------------------------------------------- solve_bases

def bases_residuals(sys, red, bases):
    """Residuals of the four defining equations, relative to their sources."""
    f = red.spectral
    lam = f.lam
    A, B, C, H = sys.A, sys.B, sys.C, sys.H
    out = {}

    def rel(X, Rhs, op):
        res = -X @ np.diag(lam) - op(X) - Rhs
        return np.linalg.norm(res) / max(np.linalg.norm(Rhs), 1e-300)

    rhs_v2 = H.apply_kron(bases.V1c, bases.V1c) @ f.Htil.T
    rhs_w2 = 2.0 * (H.apply_kron_mode2(bases.V1c, bases.W1c) @ f.Htil2.T)
    for Nk, Ntk in zip(sys.N, f.Ntil):
        rhs_v2 = rhs_v2 + Nk @ bases.V1c @ Ntk.T
        rhs_w2 = rhs_w2 + Nk.T @ bases.W1c @ Ntk
    out["v1"] = rel(bases.V1c, B @ f.Btil.T, lambda X: A @ X)
    out["v2"] = rel(bases.V2c, rhs_v2, lambda X: A @ X)
    out["w1"] = rel(bases.W1c, C.T @ f.Ctil, lambda X: A.T @ X)
    out["w2"] = rel(bases.W2c, rhs_w2, lambda X: A.T @ X)
    return out


def test_solve_bases_residuals():
    rng = rng_for(8)
    sys = random_stable_qb(8, 2, 2, rng)
    red = initial_guess(sys, 3, "random", seed=5)
    bases = solve_bases(sys, red)
    for name, resid in bases_residuals(sys, red, bases).items():
        assert resid <= 1e-9, (name, resid)


def test_solve_bases_linear_second_terms_vanish():
    rng = rng_for(9)
    sys = linear_system(7, 1, 1, rng)
    red = initial_guess(sys, 2, "random", seed=1)
    bases = solve_bases(sys, red)
    lam = red.spectral.lam
    assert np.all(bases.V2c == 0.0)
    assert np.all(bases.W2c == 0.0)
    assert np.allclose(bases.V, realify_basis(bases.V1c, lam))
    assert np.allclose(bases.W, realify_basis(bases.W1c, lam))


def test_solve_bases_rank_one_closed_form():
    # A = -I and a single positive pole: -v*lam - A v = B btil gives
    # v = -B btil / (lam - 1)|_{lam=2} = -B btil
    n = 4
    B = np.arange(1.0, n + 1.0).reshape(n, 1)
    C = np.ones((1, n))
    sys = QBSystem(-np.eye(n), None, [np.zeros((n, n))], B, C)
    red = ReducedModel(np.array([[2.0]]), None, [np.zeros((1, 1))],
                       np.array([[3.0]]), np.array([[1.0]]))
    bases = solve_bases(sys, red)
    assert np.allclose(bases.V1c, -B * 3.0, atol=1e-13)


def test_solve_bases_realified_and_orthonormal():
    rng = rng_for(10)
    sys = random_stable_qb(9, 2, 1, rng)
    red = initial_guess(sys, 4, "random", seed=2)
    bases = solve_bases(sys, red)
    for X in (bases.V, bases.W):
        assert X.dtype.kind == "f"
    Vorth, Worth = orthonormalize(bases.V), orthonormalize(bases.W)
    assert np.allclose(Vorth.T @ Vorth, np.eye(4), atol=1e-12)
    assert np.allclose(Worth.T @ Worth, np.eye(4), atol=1e-12)
    # orthonormalization preserves the span
    Pv = Vorth @ Vorth.T
    assert np.allclose(Pv @ bases.V, bases.V, atol=1e-8)


def test_solve_bases_gamma_scales_second_terms():
    rng = rng_for(11)
    sys = random_stable_qb(6, 2, 2, rng)
    red = initial_guess(sys, 2, "random", seed=3)
    gamma = 0.37
    b1 = solve_bases(sys, red)
    b2 = solve_bases(rescale(sys, gamma), red.rescaled(gamma))
    assert np.allclose(b2.V1c, b1.V1c, atol=1e-12)
    assert np.allclose(b2.W1c, b1.W1c, atol=1e-12)
    assert np.allclose(b2.V2c, gamma ** 2 * b1.V2c, atol=1e-10)
    assert np.allclose(b2.W2c, gamma ** 2 * b1.W2c, atol=1e-10)


def test_solve_bases_factors_each_shift_once(monkeypatch):
    flagship = chafee_infante(100)
    red = initial_guess(flagship, 10, "random", 0)
    f = spectral_decompose(red.A)
    lam = reflect_unstable(f.lam)
    bundle = red.rescaled(0.01).eigenbasis(dataclasses.replace(f, lam=lam))
    n_real = int(np.sum(lam.imag == 0.0))
    assert 0 < n_real < lam.size
    # A of the flagship fills 1 % of n^2, so its shifts are factored sparse
    calls = record_band_factors(monkeypatch)
    _solve_bases_core(rescale(flagship, 0.01), bundle)
    # the four solves share one block-diagonal band factor over the real
    # shifts and the leads of the conjugate pairs
    n = flagship.n
    assert calls == [(np.complex128,
                      (n_real + (lam.size - n_real) // 2) * n)]


def test_tqb_irka_builds_one_pencil_and_one_factorization_per_sweep(
        monkeypatch):
    built = []
    build = qb_core.shifted_lu

    def counting_build(*args, **kwargs):
        built.append(1)
        return build(*args, **kwargs)

    monkeypatch.setattr(qb_core, "shifted_lu", counting_build)
    factored = record_band_factors(monkeypatch)
    # A of chafee_infante(30) fills 1/30 of n^2, so it is factored sparse
    _, _, report = tqb_irka(chafee_infante(30),
                            IrkaConfig(r=4, gamma=0.01, seed=0))
    assert report.iterations > 1
    assert len(built) == 1
    assert 0 < len(factored) <= report.iterations


@pytest.mark.parametrize("tol, maxit, converged",
                         [(1e-6, 300, True), (1e-14, 3, False)],
                         ids=["converged", "maxit"])
def test_tqb_irka_decomposes_each_iterate_once(monkeypatch, tol, maxit,
                                               converged):
    # the decomposition of an iterate gives both the stop test's spectrum
    # and the next sweep's shifts; nothing else computes eigenvalues
    calls = []
    decompose = tqb_irka_module.spectral_decompose

    def counting(A):
        calls.append(1)
        return decompose(A)

    def forbidden(A):
        raise AssertionError("eigvals called during tqb_irka")

    sys = random_stable_qb(10, 2, 2, rng_for(26))
    monkeypatch.setattr(tqb_irka_module, "spectral_decompose", counting)
    monkeypatch.setattr(np.linalg, "eigvals", forbidden)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", MaxIterationsExceeded)
        red, _, report = tqb_irka(sys, IrkaConfig(r=3, tol=tol, maxit=maxit,
                                                  seed=0))
    assert report.converged is converged
    assert report.iterations > 1
    assert len(calls) == report.iterations + 1
    monkeypatch.undo()
    # the reported spectrum is the returned iterate's, in the order of its
    # own decomposition
    assert np.array_equal(report.final_eigs, spectral_decompose(red.A).lam)


# ---------------------------------------------------------- reduced hat bases

def test_reduced_hat_bases_scalar_closed_form():
    a, b, c = -1.5, 2.0, 0.7
    red = ReducedModel(np.array([[a]]), None, [np.zeros((1, 1))],
                       np.array([[b]]), np.array([[c]]))
    hat = _solve_bases_core(red, red.spectral)
    V1, V2, W1, W2 = hat.V1c, hat.V2c, hat.W1c, hat.W2c
    Vh, Wh = V1 + V2, W1 + W2
    assert np.isclose(V1[0, 0], b * b / (-2.0 * a))
    assert np.isclose(W1[0, 0], c * c / (-2.0 * a))
    assert np.all(V2 == 0.0) and np.all(W2 == 0.0)
    assert np.allclose(Vh, V1) and np.allclose(Wh, W1)


def test_reduced_hat_bases_residuals():
    rng = rng_for(12)
    sys = random_stable_qb(6, 2, 2, rng)
    red = initial_guess(sys, 3, "random", seed=7)
    hat = _solve_bases_core(red, red.spectral)
    V1, W1 = hat.V1c, hat.W1c
    f = red.spectral
    res = -V1 @ np.diag(f.lam) - red.A @ V1 - red.B @ f.Btil.T
    assert np.linalg.norm(res) <= 1e-11 * max(np.linalg.norm(V1), 1.0)
    res = -W1 @ np.diag(f.lam) - red.A.T @ W1 - red.C.T @ f.Ctil
    assert np.linalg.norm(res) <= 1e-11 * max(np.linalg.norm(W1), 1.0)


# -------------------------------------------------------------- initial guess

def test_initial_guess_deterministic():
    rng = rng_for(13)
    sys = random_stable_qb(8, 2, 3, rng)
    g1 = initial_guess(sys, 4, "random", seed=42)
    g2 = initial_guess(sys, 4, "random", seed=42)
    assert np.array_equal(g1.A, g2.A)
    assert np.array_equal(g1.B, g2.B)
    assert np.array_equal(g1.C, g2.C)
    assert np.array_equal(g1.H.mode1(), g2.H.mode1())
    for N1, N2 in zip(g1.N, g2.N):
        assert np.array_equal(N1, N2)


def test_initial_guess_always_hurwitz():
    rng = rng_for(14)
    sys = random_stable_qb(6, 2, 1, rng)
    worst = -np.inf
    for seed in range(1000):
        g = initial_guess(sys, 4, "random", seed=seed)
        worst = max(worst, np.linalg.eigvals(g.A).real.max())
    assert worst < 0.0


def test_initial_guess_shapes_and_scales():
    rng = rng_for(15)
    sys = random_stable_qb(9, 3, 2, rng)
    g = initial_guess(sys, 5, "random", seed=0)
    assert g.r == 5 and g.m == 3 and g.p == 2
    assert np.isclose(np.linalg.norm(g.H.mode1()), 0.1)
    for Nk in g.N:
        assert np.isclose(np.linalg.norm(Nk), 0.1)
    assert g.H.symmetric


def test_initial_guess_passthrough_and_unknown_kind():
    rng = rng_for(17)
    sys = random_stable_qb(5, 1, 1, rng)
    g = initial_guess(sys, 2, "random", seed=0)
    assert initial_guess(sys, 2, g, seed=0) is g
    with pytest.raises(ValueError):
        initial_guess(sys, 2, "nonsense", seed=0)


def test_given_start_must_match_order_inputs_and_outputs():
    sys = chafee_infante(10)
    with pytest.raises(ValueError, match="initial guess"):
        tqb_irka(sys, IrkaConfig(r=2, init=initial_guess(
            fitzhugh_nagumo(5), 2, "random", seed=0)))
    with pytest.raises(ValueError, match="initial guess"):
        tqb_irka(sys, IrkaConfig(r=3, init=initial_guess(
            sys, 2, "random", seed=0)))


def test_seed_is_recorded_only_for_a_drawn_start():
    sys = chafee_infante(10)
    drawn, _, _ = tqb_irka(sys, IrkaConfig(r=2, gamma=0.01, seed=3))
    given, _, _ = tqb_irka(sys, IrkaConfig(
        r=2, gamma=0.01, init=initial_guess(sys, 2, "random", seed=3)))
    assert drawn.seed == 3 and given.seed is None
    assert np.array_equal(drawn.A, given.A)


def test_a_draw_without_a_usable_seed_or_order_is_refused(monkeypatch):
    # the draw is checked before any sweep: an unseeded draw (seed=None)
    # would not repeat, and numpy raised its own errors for the others
    sys = chafee_infante(10)
    solves = []
    monkeypatch.setattr(tqb_irka_module, "solve_sylvester_shifted",
                        lambda *args, **kwargs: solves.append(1))
    for seed in (None, 1.5, 2.0, -1, "0"):
        with pytest.raises(ValueError, match="seed"):
            tqb_irka(sys, IrkaConfig(r=2, seed=seed))
        with pytest.raises(ValueError, match="seed"):
            initial_guess(sys, 2, "random", seed=seed)
    assert solves == []
    for r in (0, -1, sys.n + 1, 2.0):
        with pytest.raises(ValueError, match="order"):
            initial_guess(sys, r)
    g = initial_guess(sys, np.int64(2), seed=np.int64(3))
    assert np.array_equal(g.A, initial_guess(sys, 2, seed=3).A)


def test_balanced_truncation_start_leaves_the_linear_set():
    # a linear start (H = 0, N = 0) is a fixed point of the sweep here
    sys = chafee_infante(50)
    init = balanced_truncation(sys, 8, gamma=0.01)[0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        red, _, report = tqb_irka(sys, IrkaConfig(r=8, gamma=0.01,
                                                  init=init))
    assert report.converged
    assert np.linalg.norm(red.H.mode1()) > 1.0


# ------------------------------------------------------------------ iteration

def test_config_validation():
    rng = rng_for(18)
    sys = random_stable_qb(5, 1, 1, rng)
    with pytest.raises(ValueError):
        tqb_irka(sys, IrkaConfig(r=2, tol=0.0))
    with pytest.raises(ValueError):
        tqb_irka(sys, IrkaConfig(r=2, tol=1.5))
    with pytest.raises(ValueError):
        tqb_irka(sys, IrkaConfig(r=0))
    with pytest.raises(ValueError):
        tqb_irka(sys, IrkaConfig(r=6))
    # with no sweep there is no iterate to return
    with pytest.raises(ValueError, match="maxit"):
        tqb_irka(sys, IrkaConfig(r=2, maxit=0))
    # a non-integral order or sweep budget, even an integral float
    for cfg in (IrkaConfig(r=2.5), IrkaConfig(r=3.0),
                IrkaConfig(r=2, maxit=2.5), IrkaConfig(r=2, maxit=3.0)):
        with pytest.raises(ValueError, match="integer"):
            tqb_irka(sys, cfg)


def test_full_order_init_is_fixed_point():
    rng = rng_for(19)
    sys = random_stable_qb(4, 1, 1, rng)
    init = ReducedModel(sys.A, sys.H, sys.N, sys.B, sys.C)
    red, bases, report = tqb_irka(sys, IrkaConfig(r=4, tol=1e-8, init=init))
    assert report.converged
    assert report.iterations <= 2
    assert report.eig_change_history[-1] <= 1e-9
    assert np.allclose(np.sort(np.linalg.eigvals(red.A)),
                       np.sort(np.linalg.eigvals(sys.A)), atol=1e-9)


def test_linear_siso_hermite_interpolation():
    rng = rng_for(20)
    sys = linear_system(10, 1, 1, rng)
    cfg = IrkaConfig(r=2, tol=1e-11, maxit=500, seed=0)
    red, bases, report = tqb_irka(sys, cfg)
    assert report.converged
    lam = np.linalg.eigvals(red.A)
    for sig in -lam:
        G = (sys.C @ np.linalg.solve(sig * np.eye(sys.n) - sys.A, sys.B))[0, 0]
        Gh = (red.C @ np.linalg.solve(sig * np.eye(red.r) - red.A, red.B))[0, 0]
        assert abs(G - Gh) <= 1e-6 * abs(G)
        X = np.linalg.solve(sig * np.eye(sys.n) - sys.A, sys.B)
        dG = -(sys.C @ np.linalg.solve(sig * np.eye(sys.n) - sys.A, X))[0, 0]
        Xh = np.linalg.solve(sig * np.eye(red.r) - red.A, red.B)
        dGh = -(red.C @ np.linalg.solve(sig * np.eye(red.r) - red.A, Xh))[0, 0]
        assert abs(dG - dGh) <= 1e-6 * abs(dG)


def reference_linear_irka(sys, red0, tol, maxit):
    """Textbook two-sided rational interpolation loop, one solve per shift.

    Independent of the Sylvester-based path: builds V and W column by
    column from shifted linear solves, then projects.
    """
    n = sys.n
    lam = np.linalg.eigvals(red0.A)
    A, B, C = sys.A, sys.B, sys.C
    red = red0
    for _ in range(maxit):
        lamR, R = np.linalg.eig(red.A)
        btil = np.linalg.solve(R, red.B)
        ctil = red.C @ R
        Vc = np.zeros((n, red0.r), dtype=complex)
        Wc = np.zeros((n, red0.r), dtype=complex)
        for i in range(red0.r):
            Vc[:, i] = np.linalg.solve(-lamR[i] * np.eye(n) - A,
                                       (B @ btil[i].conj()).ravel())
            Wc[:, i] = np.linalg.solve(-lamR[i] * np.eye(n) - A.T,
                                       (C.T @ ctil[:, i].conj()).ravel())
        V = np.hstack([np.column_stack([v.real, v.imag]) if lamR[i].imag > 0
                       else v.real.reshape(n, 1)
                       for i, v in enumerate(Vc.T) if lamR[i].imag >= 0])
        W = np.hstack([np.column_stack([w.real, w.imag]) if lamR[i].imag > 0
                       else w.real.reshape(n, 1)
                       for i, w in enumerate(Wc.T) if lamR[i].imag >= 0])
        V, _ = np.linalg.qr(V)
        W, _ = np.linalg.qr(W)
        red_new = project(sys, V, W)
        lam_new = np.linalg.eigvals(red_new.A)
        change = np.abs(np.sort_complex(lam_new) - np.sort_complex(lam)).max()
        red, lam = red_new, lam_new
        if change <= tol * max(np.abs(lam).max(), 1.0):
            break
    return red


def test_linear_degeneration_matches_reference_irka():
    rng = rng_for(21)
    sys = linear_system(12, 1, 1, rng)
    init = initial_guess(sys, 3, "random", seed=4)
    red, _, report = tqb_irka(sys, IrkaConfig(r=3, tol=1e-12, maxit=400,
                                              init=init))
    assert report.converged
    ref = reference_linear_irka(sys, init, tol=1e-13, maxit=400)
    got = np.sort_complex(np.linalg.eigvals(red.A))
    want = np.sort_complex(np.linalg.eigvals(ref.A))
    assert np.allclose(got, want, atol=1e-9, rtol=1e-9)


def test_runs_deterministically():
    rng = rng_for(22)
    sys = random_stable_qb(10, 2, 2, rng)
    cfg = IrkaConfig(r=3, tol=1e-7, maxit=200, seed=11)
    red1, _, rep1 = tqb_irka(sys, cfg)
    red2, _, rep2 = tqb_irka(sys, cfg)
    assert np.array_equal(red1.A, red2.A)
    assert np.array_equal(red1.B, red2.B)
    assert rep1.eig_change_history == rep2.eig_change_history
    assert rep1.iterations == rep2.iterations


def transform_system(sys, T):
    Tinv = np.linalg.inv(T)
    Hm = T @ sys.H.apply_kron(Tinv, Tinv)
    return QBSystem(T @ sys.A @ Tinv,
                    Hessian.dense(Hm, symmetric=sys.H.symmetric),
                    [T @ Nk @ Tinv for Nk in sys.N],
                    T @ sys.B, sys.C @ Tinv)


def test_similarity_invariance():
    rng = rng_for(23)
    sys = random_stable_qb(8, 2, 2, rng)
    Q1, _ = np.linalg.qr(rng.standard_normal((8, 8)))
    Q2, _ = np.linalg.qr(rng.standard_normal((8, 8)))
    T = Q1 @ np.diag(np.exp(rng.uniform(-0.3, 0.3, 8))) @ Q2
    sys2 = transform_system(sys, T)
    cfg = IrkaConfig(r=2, tol=1e-9, maxit=300, seed=6)
    red1, _, rep1 = tqb_irka(sys, cfg)
    red2, _, rep2 = tqb_irka(sys2, cfg)
    assert rep1.converged and rep2.converged
    e1 = np.sort_complex(np.linalg.eigvals(red1.A))
    e2 = np.sort_complex(np.linalg.eigvals(red2.A))
    assert np.allclose(e1, e2, rtol=1e-7, atol=1e-7 * np.abs(e1).max())
    err1 = truncated_h2_error(sys, red1)
    err2 = truncated_h2_error(sys2, red2)
    assert abs(err1 - err2) <= 1e-7 * max(err1, err2)


def test_reflect_keeps_final_spectrum_stable():
    rng = rng_for(24)
    sys = random_stable_qb(9, 1, 1, rng)
    red, _, report = tqb_irka(sys, IrkaConfig(r=3, tol=1e-6, maxit=300,
                                              seed=1))
    assert report.converged
    assert report.final_eigs.real.max() < 0.0


def test_gamma_invariance_of_error_on_small_system():
    rng = rng_for(25)
    sys = random_stable_qb(8, 1, 1, rng)
    errs = []
    for gamma in (1.0, 0.5):
        red, _, report = tqb_irka(sys, IrkaConfig(r=2, tol=1e-8, maxit=400,
                                                  gamma=gamma, seed=2))
        assert report.converged
        errs.append(truncated_h2_error(sys, red))
    assert errs[1] <= 2.0 * errs[0] and errs[0] <= 2.0 * errs[1]


def test_maxit_returns_best_iterate_with_warning():
    rng = rng_for(26)
    sys = random_stable_qb(10, 2, 2, rng)
    cfg = IrkaConfig(r=3, tol=1e-14, maxit=3, seed=0)
    with pytest.warns(MaxIterationsExceeded):
        red, bases, report = tqb_irka(sys, cfg)
    assert not report.converged
    assert len(report.eig_change_history) == 3
    assert not red.converged
    assert red.method == "tqb-irka"
    assert min(report.eig_change_history) > 1e-14


def test_report_fields_and_metadata():
    rng = rng_for(27)
    sys = random_stable_qb(7, 1, 1, rng)
    cfg = IrkaConfig(r=2, tol=1e-6, maxit=300, gamma=0.8, seed=9)
    red, bases, report = tqb_irka(sys, cfg)
    assert isinstance(report, IrkaReport)
    assert report.converged
    assert report.eig_change_history[-1] <= cfg.tol
    assert report.iterations == len(report.eig_change_history)
    assert report.wall_time > 0.0
    assert red.gamma == 0.8 and red.seed == 9 and red.tol == 1e-6
    assert red.converged and red.iterations == report.iterations
    assert red.method == "tqb-irka"
    assert bases.V.shape == (7, 2) and bases.W.shape == (7, 2)


def test_mass_matrix_matches_standardized_run():
    rng = rng_for(29)
    n = 8
    sys = random_stable_qb(n, 1, 1, rng)
    M = rng.standard_normal((n, n))
    E = np.eye(n) + 0.3 * (M @ M.T) / np.linalg.norm(M @ M.T)
    sys_e = QBSystem(sys.A, sys.H, sys.N, sys.B, sys.C, E=E)
    Einv = np.linalg.inv(E)
    sys_std = QBSystem(Einv @ sys.A,
                       Hessian.dense(Einv @ sys.H.mode1(), symmetric=True),
                       [Einv @ Nk for Nk in sys.N], Einv @ sys.B, sys.C)
    cfg = IrkaConfig(r=2, tol=1e-9, maxit=300, seed=5)
    red_e, _, rep_e = tqb_irka(sys_e, cfg)
    red_s, _, rep_s = tqb_irka(sys_std, cfg)
    assert rep_e.converged and rep_s.converged
    e1 = np.sort_complex(np.linalg.eigvals(red_e.A))
    e2 = np.sort_complex(np.linalg.eigvals(red_s.A))
    assert np.allclose(e1, e2, rtol=1e-7, atol=1e-7 * np.abs(e1).max())


def test_quadratic_bilinear_converges_and_reduces_error():
    rng = rng_for(30)
    sys = random_stable_qb(12, 2, 2, rng)
    red2, _, rep2 = tqb_irka(sys, IrkaConfig(r=2, tol=1e-6, maxit=400,
                                             seed=3))
    red5, _, rep5 = tqb_irka(sys, IrkaConfig(r=5, tol=1e-6, maxit=400,
                                             seed=3))
    assert rep2.converged and rep5.converged
    scale = np.linalg.norm(sys.B)
    e2 = truncated_h2_error(sys, red2)
    e5 = truncated_h2_error(sys, red5)
    assert e5 <= e2 * 1.5 + 1e-12 * scale


# ------------------------------------------------------------- eig matching

def test_eig_change_sorted_pairing():
    old = np.array([-2.0 + 0.0j, -1.0 + 0.0j])
    new = np.array([-2.1 + 0.0j, -1.0 + 0.0j])
    assert np.isclose(_eig_change(old, new), 0.1 / 2.0)


def test_eig_change_pairs_by_position():
    # no matching step: a reordered spectrum counts as moved, even where
    # two eigenvalues nearly collide
    assert _eig_change(np.array([-1.0, -1.0 - 1e-12, -5.0]),
                       np.array([-5.0, -1.0, -1.0])) == 4.0


def test_eig_change_near_collision_pairs_by_position():
    old = np.array([-1.0 + 0.0j, -1.0 + 1e-13j])
    new = np.array([-1.2 + 0.0j, -1.0 + 0.0j])
    change = _eig_change(old, new)
    assert np.isclose(change, 0.2, atol=1e-9)


# ------------------------------------------------- clustered flagship spectrum

def _flagship_runs():
    """(init seed, converged, sweeps, QbmorWarning count) on the flagship.

    Its reduced spectrum has a real cluster near -4e4 that LAPACK may
    return as an exact conjugate pair with imaginary part about 1e-11;
    every consumer must then treat it as a pair, or the realified basis
    repeats a column and loses rank.
    """
    full = chafee_infante(100)
    runs = []
    for seed in (1, 6):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", QbmorWarning)
            _, _, rep = tqb_irka(full, IrkaConfig(r=10, gamma=0.01, seed=seed))
        runs.append([seed, rep.converged, rep.iterations, len(caught)])
    return runs


def _assert_settled(runs, label):
    for seed, converged, sweeps, nwarn in runs:
        assert converged and sweeps <= 30 and nwarn == 0, (label, runs)


@pytest.mark.parametrize("threads", ["1", "2"])
def test_flagship_clustered_spectrum_across_thread_counts(threads):
    # the thread count must be fixed before numpy loads, so each run gets
    # its own process; qbmor only setdefaults the BLAS variables
    src = os.path.dirname(os.path.dirname(os.path.abspath(qbmor.__file__)))
    here = os.path.dirname(os.path.abspath(__file__))
    env = {k: v for k, v in os.environ.items()
           if k not in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                        "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")}
    env.update(QBMOR_THREADS=threads, PYTHONPATH=os.pathsep.join([src, here]))
    code = ("import qbmor, json, test_tqb_irka as t; "
            "print(json.dumps(t._flagship_runs()))")
    out = subprocess.run([sys.executable, "-c", code], env=env, cwd=here,
                         capture_output=True, text=True, timeout=600)
    assert out.returncode == 0, out.stderr
    _assert_settled(json.loads(out.stdout.splitlines()[-1]),
                    "QBMOR_THREADS=%s" % threads)


def test_flagship_clustered_spectrum_under_perturbed_solves(monkeypatch):
    module = sys.modules["qbmor.tqb_irka"]
    solve = module.solve_sylvester_shifted
    rng = np.random.default_rng(0)

    def perturbed(A, lam, Rhs, E=None, transpose=False):
        # a real factor per row keeps conjugate columns conjugate
        V = solve(A, lam, Rhs, E=E, transpose=transpose)
        return V * (1.0 + 1e-14 * rng.standard_normal(V.shape[0]))[:, None]

    monkeypatch.setattr(module, "solve_sylvester_shifted", perturbed)
    _assert_settled(_flagship_runs(), "solves perturbed by 1e-14")


# ------------------------------------------------- rank-deficient bases

def test_paper_scale_converges_with_rank_deficient_bases():
    # at n = 1000 the W basis loses rank on most sweeps; completing it
    # from its own QR factor lets init seed 2 settle (random columns
    # kept it cycling past 100 sweeps)
    full = chafee_infante(500)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", QbmorWarning)
        _, _, rep = tqb_irka(full, IrkaConfig(r=10, gamma=0.01, seed=2,
                                              maxit=30))
    assert rep.converged, rep.eig_change_history


def test_flagship_error_does_not_depend_on_a_rank_deficient_init():
    # init seed 513 draws a numerically rank-deficient first W basis
    full = chafee_infante(100)
    errs = []
    for seed in (0, 513):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", QbmorWarning)
            red, _, rep = tqb_irka(full, IrkaConfig(r=10, gamma=0.01,
                                                    seed=seed))
        assert rep.converged
        errs.append(truncated_h2_error(full, red))
    assert abs(errs[1] - errs[0]) <= 0.01 * errs[0], errs
