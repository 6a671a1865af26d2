import warnings

import numpy as np
import pytest

from qbmor.errors import (
    DegradedDiagnostics, ProjectorSingular, QbmorWarning, TooLarge,
)
from qbmor.kron_tensor import Hessian
from qbmor.qb_core import QBSystem, ReducedModel, ProjectionBases, project
from qbmor.tqb_irka import IrkaConfig, tqb_irka, initial_guess, solve_bases
from qbmor.diagnostics import (
    optimality_residuals, perturbation_solves, verify_against_bruteforce,
    ResidualReport,
)

from conftest import rng_for, random_stable_qb


@pytest.fixture(scope="module")
def converged_pair():
    rng = rng_for(31)
    sys = random_stable_qb(12, 2, 2, rng)
    red, _, report = tqb_irka(sys, IrkaConfig(r=3, tol=1e-9, maxit=400,
                                              seed=1))
    assert report.converged
    # the bases returned by the iteration lag the final model by one
    # sweep; residual checks want bases solved against the final model
    bases = solve_bases(sys, red)
    return sys, red, bases


@pytest.fixture(scope="module")
def rough_pair():
    # arbitrary (non-converged) model: the algebraic identities must hold
    # for any diagonalizable Hurwitz reduced matrix
    rng = rng_for(32)
    sys = random_stable_qb(10, 2, 2, rng)
    red = initial_guess(sys, 3, "random", seed=9)
    bases = solve_bases(sys, red)
    return sys, red, bases


def rel(err, scale):
    return np.linalg.norm(err) / max(np.linalg.norm(scale), 1e-300)


def test_identities_for_arbitrary_reduced_model(rough_pair):
    sys, red, bases = rough_pair
    eps_v, eps_w, Gamma_v, Gamma_w = perturbation_solves(sys, red, bases)
    raw = project(sys, bases.V, bases.W)
    hatb = solve_bases(raw, red)
    G = bases.W.T @ bases.V
    assert rel(bases.V1c - (bases.V @ hatb.V1c + eps_v), bases.V1c) <= 1e-8
    lifted = bases.W @ np.linalg.solve(G.T, hatb.W1c)
    assert rel(bases.W1c - (lifted + eps_w), bases.W1c) <= 1e-8
    J = np.linalg.solve(G, bases.W.T @ (bases.V1c + bases.V2c))
    Vhat = hatb.V1c + hatb.V2c
    assert rel(Gamma_v - (Vhat - J), Gamma_v) <= 1e-8
    What = hatb.W1c + hatb.W2c
    Gw_direct = What - bases.V.T @ (bases.W1c + bases.W2c)
    assert rel(Gamma_w - Gw_direct, Gamma_w) <= 1e-8


def test_theorem_route_matches_direct_differences(rough_pair):
    sys, red, bases = rough_pair
    rep = optimality_residuals(sys, red, bases)
    eps_v, eps_w, Gamma_v, Gamma_w = perturbation_solves(sys, red, bases)
    raw = project(sys, bases.V, bases.W)
    hatb = solve_bases(raw, red)
    G = bases.W.T @ bases.V
    H = sys.H
    V1, W1 = bases.V1c, bases.W1c
    r = red.r

    eps_C = -(sys.C @ bases.V @ Gamma_v).T
    assert rel(rep.eps_C - eps_C, rep.eps_C) <= 1e-8
    eps_B = -Gamma_w.T @ np.linalg.solve(G, bases.W.T @ sys.B)
    assert rel(rep.eps_B - eps_B, rep.eps_B) <= 1e-8
    eps_N = np.stack([eps_w.T @ Nk @ (V1 - eps_v) + W1.T @ Nk @ eps_v
                      for Nk in sys.N], axis=2)
    assert rel(rep.eps_N - eps_N, rep.eps_N) <= 1e-8
    eps_H = (W1.T @ (H.apply_kron(eps_v, V1 - eps_v)
                     + H.apply_kron(V1, eps_v))
             + eps_w.T @ H.apply_kron(V1 - eps_v, V1 - eps_v))
    eps_H = eps_H.reshape(r, r, r)
    assert rel(rep.eps_H - eps_H, rep.eps_H) <= 1e-8
    rho = bases.V.T @ eps_w
    J = np.linalg.solve(G, bases.W.T @ (bases.V1c + bases.V2c))
    eps_lam = np.diag(-hatb.W1c.T @ Gamma_v
                      - (Gamma_w + rho).T @ hatb.V1c
                      + bases.W2c.T @ eps_v + rho.T @ J)
    assert rel(rep.eps_lambda - eps_lam, rep.eps_lambda) <= 1e-8


def test_converged_measures_are_small(converged_pair):
    sys, red, bases = converged_pair
    rep = optimality_residuals(sys, red, bases)
    assert not any(rep.degraded.values())
    assert rep.E_C <= 1e-5 and rep.E_B <= 1e-5 and rep.E_lambda <= 1e-5
    # quadratic/bilinear families are quasi-optimal, not exact, and this
    # random system is strongly nonlinear
    assert rep.E_N <= 1e-1 and rep.E_H <= 1e-1
    for _, val in rep.items():
        assert val >= 0.0 and np.isfinite(val)


def test_full_order_reduction_is_exact():
    rng = rng_for(33)
    sys = random_stable_qb(5, 1, 1, rng)
    red = ReducedModel(sys.A, sys.H, sys.N, sys.B, sys.C)
    bases = solve_bases(sys, red)
    rep = optimality_residuals(sys, red, bases)
    for _, val in rep.items():
        assert val <= 1e-9


def test_linear_fixed_point_measures():
    rng = rng_for(34)
    n = 10
    base = random_stable_qb(n, 1, 1, rng, with_hessian=False)
    sys = QBSystem(base.A, None, [np.zeros((n, n))], base.B, base.C)
    red, bases, report = tqb_irka(sys, IrkaConfig(r=2, tol=1e-11, maxit=500,
                                                  seed=0))
    assert report.converged
    rep = optimality_residuals(sys, red, bases)
    assert rep.E_C <= 1e-8 and rep.E_B <= 1e-8 and rep.E_lambda <= 1e-8
    assert rep.E_N == 0.0 and rep.E_H == 0.0

    eps_v, eps_w, _, _ = perturbation_solves(sys, red, bases)
    assert rel(eps_v, bases.V1c) <= 1e-8
    assert rel(eps_w, bases.W1c) <= 1e-8


def test_identities_at_smallest_sizes():
    rng = rng_for(35)
    sys = random_stable_qb(2, 1, 1, rng)
    red = initial_guess(sys, 1, "random", seed=2)
    bases = solve_bases(sys, red)
    eps_v, eps_w, Gamma_v, Gamma_w = perturbation_solves(sys, red, bases)
    raw = project(sys, bases.V, bases.W)
    hatb = solve_bases(raw, red)
    assert rel(bases.V1c - (bases.V @ hatb.V1c + eps_v), bases.V1c) <= 1e-10


def test_projector_singular_guard():
    n, r = 4, 2
    rng = rng_for(36)
    sys = random_stable_qb(n, 1, 1, rng)
    red = initial_guess(sys, r, "random", seed=0)
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    V1c = Q[:, :r].astype(complex)
    W = Q[:, r:2 * r]
    V = Q[:, r:2 * r] + Q[:, :r]
    zeros = np.zeros((n, r), dtype=complex)
    bases = ProjectionBases(V1c=V1c, V2c=zeros, W1c=W.astype(complex),
                            W2c=zeros, V=V, W=W)
    with pytest.raises(ProjectorSingular):
        perturbation_solves(sys, red, bases)


def test_singular_raw_pair_degrades_residuals():
    # W orthogonal to V, exactly (W^T V = 0): the raw realization does not
    # exist, so project raises SingularGram and the measures degrade to nan
    n, r = 5, 2
    sys = random_stable_qb(n, 1, 1, rng_for(43))
    red = initial_guess(sys, r, "random", seed=0)
    V, W = np.eye(n)[:, :r], np.eye(n)[:, r:2 * r]
    zeros = np.zeros((n, r), dtype=complex)
    bases = ProjectionBases(V1c=V.astype(complex), V2c=zeros,
                            W1c=W.astype(complex), W2c=zeros, V=V, W=W)
    with pytest.warns(DegradedDiagnostics, match="projector Gram matrix"):
        rep = optimality_residuals(sys, red, bases)
    assert all(rep.degraded.values())
    for _, val in rep.items():
        assert np.isnan(val)
    assert np.all(np.isfinite(rep.Phi_C))


def test_degraded_report_on_hat_failure(monkeypatch, rough_pair):
    import qbmor.diagnostics as diag
    from qbmor.errors import SingularShift

    def boom(*args, **kwargs):
        raise SingularShift("forced")

    sys, red, bases = rough_pair
    monkeypatch.setattr(diag, "_solve_bases_core", boom)
    with pytest.warns(DegradedDiagnostics):
        rep = optimality_residuals(sys, red, bases)
    assert all(rep.degraded.values())
    assert np.isnan(rep.E_C) and np.isnan(rep.E_H)
    assert np.all(np.isfinite(rep.Phi_C))


def test_report_is_deterministic(converged_pair):
    sys, red, bases = converged_pair
    r1 = optimality_residuals(sys, red, bases)
    r2 = optimality_residuals(sys, red, bases)
    assert np.array_equal(r1.eps_H, r2.eps_H)
    assert r1.items() == r2.items()


def test_output_scaling_exactly_invariant(converged_pair):
    # scaling C (system and reduced alike) rescales each family
    # homogeneously, so every measure is preserved
    sys, red, bases = converged_pair
    rep = optimality_residuals(sys, red, bases)
    alpha = 8.0
    sys2 = QBSystem(sys.A, sys.H, sys.N, sys.B, alpha * sys.C)
    red2 = ReducedModel(red.A, red.H, red.N, red.B, alpha * red.C)
    bases2 = solve_bases(sys2, red2)
    rep2 = optimality_residuals(sys2, red2, bases2)
    for (_, v1), (_, v2) in zip(rep.items(), rep2.items()):
        assert np.isclose(v1, v2, rtol=1e-9, atol=1e-14)


def test_joint_scaling_approximately_invariant(converged_pair):
    # joint B and C scaling mixes quadratic and bilinear homogeneity, so
    # invariance is only approximate
    sys, red, bases = converged_pair
    rep = optimality_residuals(sys, red, bases)
    alpha = 2.0
    sys2 = QBSystem(sys.A, sys.H, sys.N, alpha * sys.B, alpha * sys.C)
    red2 = ReducedModel(red.A, red.H, red.N, alpha * red.B, alpha * red.C)
    bases2 = solve_bases(sys2, red2)
    rep2 = optimality_residuals(sys2, red2, bases2)
    for (_, v1), (_, v2) in zip(rep.items(), rep2.items()):
        assert v2 <= 2.0 * v1 + 1e-14 and v1 <= 2.0 * v2 + 1e-14


def test_mass_matrix_pair_matches_standardized(rough_pair):
    rng = rng_for(37)
    n = 10
    sys, red, _ = rough_pair
    M = rng.standard_normal((n, n))
    E = np.eye(n) + 0.3 * (M @ M.T) / np.linalg.norm(M @ M.T)
    sys_e = QBSystem(E @ sys.A,
                     Hessian.dense(E @ sys.H.mode1(), symmetric=True),
                     [E @ Nk for Nk in sys.N], E @ sys.B, sys.C, E=E)
    bases_e = solve_bases(sys_e, red)
    rep_e = optimality_residuals(sys_e, red, bases_e)
    bases0 = solve_bases(sys, red)
    rep0 = optimality_residuals(sys, red, bases0)
    for (_, v1), (_, v2) in zip(rep_e.items(), rep0.items()):
        assert np.isclose(v1, v2, rtol=1e-6, atol=1e-12)


# --------------------------------------------------------------- brute force

def test_bruteforce_agrees_on_converged_run():
    rng = rng_for(38)
    sys = random_stable_qb(6, 2, 1, rng)
    red, bases, report = tqb_irka(sys, IrkaConfig(r=2, tol=1e-8, maxit=400,
                                                  seed=4))
    assert report.converged
    chk = verify_against_bruteforce(sys, red)
    assert chk.agreed
    for v in (chk.rel_C, chk.rel_B, chk.rel_N, chk.rel_H, chk.rel_lambda):
        assert v <= 1e-9


def test_bruteforce_agrees_on_arbitrary_model(rough_pair):
    sys, red, _ = rough_pair
    chk = verify_against_bruteforce(sys, red)
    assert chk.agreed


def test_bruteforce_linear_exact():
    rng = rng_for(39)
    n = 8
    base = random_stable_qb(n, 1, 1, rng, with_hessian=False)
    sys = QBSystem(base.A, None, [np.zeros((n, n))], base.B, base.C)
    red = initial_guess(sys, 2, "random", seed=1)
    chk = verify_against_bruteforce(sys, red)
    assert chk.agreed


def test_bruteforce_zero_output():
    rng = rng_for(40)
    base = random_stable_qb(6, 1, 1, rng)
    sys = QBSystem(base.A, base.H, base.N, base.B, np.zeros((1, 6)))
    red = initial_guess(sys, 2, "random", seed=2)
    # with C = 0 the W bases vanish; no diagnostic path orthonormalizes
    # them, so nothing warns
    with warnings.catch_warnings():
        warnings.simplefilter("error", QbmorWarning)
        chk = verify_against_bruteforce(sys, red)
    assert chk.rel_C == 0.0
    assert chk.agreed


def test_bruteforce_too_large_guard():
    rng = rng_for(41)
    sys = random_stable_qb(31, 1, 1, rng)
    red = initial_guess(sys, 2, "random", seed=0)
    with pytest.raises(TooLarge):
        verify_against_bruteforce(sys, red)


def test_report_items_order():
    rng = rng_for(42)
    sys = random_stable_qb(5, 1, 1, rng)
    red = initial_guess(sys, 2, "random", seed=0)
    bases = solve_bases(sys, red)
    rep = optimality_residuals(sys, red, bases)
    assert isinstance(rep, ResidualReport)
    assert [k for k, _ in rep.items()] == ["E_C", "E_B", "E_N", "E_H",
                                           "E_lambda"]
