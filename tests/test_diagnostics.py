import warnings
from sys import modules as sys_modules

import numpy as np
import pytest

from qbmor.benchmarks import chafee_infante, fitzhugh_nagumo
from qbmor.errors import (
    DegradedDiagnostics, MaxIterationsExceeded, QbmorWarning, SingularGram,
    TooLarge,
)
from qbmor.kron_tensor import Hessian
from qbmor.matrix_equations import shifted_lu, solve_sylvester_shifted
from qbmor.qb_core import (
    QBSystem, ReducedModel, ProjectionBases, project, rescale,
)
from qbmor.tqb_irka import IrkaConfig, tqb_irka, initial_guess, solve_bases
from qbmor.diagnostics import (
    optimality_residuals, verify_against_bruteforce, ResidualReport,
    _phi_families,
)
from qbmor.reduction_baselines import balanced_truncation

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


def perturbation_solves(sys, red, bases):
    """Oracle for the four perturbation quantities (eps_v, eps_w, Gamma_v,
    Gamma_w) of a pair without mass matrix.

    eps_v and eps_w measure how far the first basis terms stray from the
    lifted reduced-scale solutions; Gamma_v and Gamma_w do the same at
    reduced scale. All four solve shifted Sylvester equations whose
    coefficients are the oblique projector composed with A, and the
    raw-realization reduced matrix, respectively.
    """
    assert sys.E is None
    V1c, W1c, V, W = bases.V1c, bases.W1c, bases.V, bases.W
    A, B, C, H = sys.A, sys.B, sys.C, sys.H
    f = red.spectral
    lam = f.lam
    G = W.T @ V
    Pi = V @ np.linalg.solve(G, W.T)
    Piv = V1c @ np.linalg.solve(W.T @ V1c, W.T)
    Piw = W1c @ np.linalg.solve(V.T @ W1c, V.T)

    rhs_v = (Pi - Piv) @ (A @ V1c + B @ f.Btil.T)
    eps_v = -solve_sylvester_shifted(Pi @ A, lam, rhs_v)
    rhs_w = (Pi.T - Piw) @ (A.T @ W1c + C.T @ f.Ctil)
    eps_w = -solve_sylvester_shifted((A @ Pi).T, lam, rhs_w)

    bracket_v = (H.apply_kron(eps_v, V1c - eps_v)
                 + H.apply_kron(V1c, eps_v)) @ f.Htil.T
    bracket_w = 2.0 * ((H.apply_kron_mode2(eps_v, W1c)
                        + H.apply_kron_mode2(V1c, eps_w)
                        - H.apply_kron_mode2(eps_v, eps_w)) @ f.Htil2.T)
    for Nk, Ntk in zip(sys.N, f.Ntil):
        bracket_v = bracket_v + Nk @ eps_v @ Ntk.T
        bracket_w = bracket_w + Nk.T @ eps_w @ Ntk
    form = shifted_lu(project(sys, V, W).A)
    Gamma_v = -solve_sylvester_shifted(form, lam,
                                       np.linalg.solve(G, W.T @ bracket_v))
    Gamma_w = -solve_sylvester_shifted(form, lam, V.T @ bracket_w,
                                       transpose=True)
    return eps_v, eps_w, Gamma_v, Gamma_w


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


def orthogonal_transform(red, Q):
    """red in the coordinates x = Q z, for an orthogonal Q."""
    Hm = Q.T @ red.H.mode1() @ np.kron(Q, Q)
    return ReducedModel(Q.T @ red.A @ Q, Hessian.dense(Hm),
                        [Q.T @ Nk @ Q for Nk in red.N], Q.T @ red.B,
                        red.C @ Q)


def test_model_route_matches_direct_differences(rough_pair):
    # each gap is Phi of the full bases minus the same Phi of the model's
    # own bases, solved on the model itself
    sys, red, bases = rough_pair
    rep = optimality_residuals(sys, red, bases)
    hat = solve_bases(red, red)
    r = red.r
    V1, W1 = bases.V1c, bases.W1c
    V, W = V1 + bases.V2c, W1 + bases.W2c
    Vh1, Wh1 = hat.V1c, hat.W1c
    Vh, Wh = Vh1 + hat.V2c, Wh1 + hat.W2c
    assert rel(rep.eps_C - (sys.C @ V - red.C @ Vh).T, rep.eps_C) <= 1e-12
    assert rel(rep.eps_B - (W.T @ sys.B - Wh.T @ red.B), rep.eps_B) <= 1e-12
    eps_N = np.stack([W1.T @ (Nk @ V1) - Wh1.T @ Nhk @ Vh1
                      for Nk, Nhk in zip(sys.N, red.N)], axis=2)
    assert rel(rep.eps_N - eps_N, rep.eps_N) <= 1e-12
    eps_H = (W1.T @ sys.H.apply_kron(V1, V1)
             - Wh1.T @ red.H.mode1() @ np.kron(Vh1, Vh1)).reshape(r, r, r)
    assert rel(rep.eps_H - eps_H, rep.eps_H) <= 1e-12
    eps_lam = (np.diag(W1.T @ V) + np.diag(bases.W2c.T @ V1)
               - np.diag(Wh1.T @ Vh) - np.diag(hat.W2c.T @ Vh1))
    assert rel(rep.eps_lambda - eps_lam, rep.eps_lambda) <= 1e-12

    # the measures read the model, not its realization; an orthogonal
    # transform keeps the unit eigenvectors the shifts are taken in unit,
    # so the families themselves are unchanged
    Q, _ = np.linalg.qr(rng_for(44).standard_normal((r, r)))
    red_q = orthogonal_transform(red, Q)
    rep_q = optimality_residuals(sys, red_q, solve_bases(sys, red_q))
    for (_, v1), (_, v2) in zip(rep.items(), rep_q.items()):
        assert np.isclose(v1, v2, rtol=1e-8, atol=0)


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


def test_orthogonal_bases_give_finite_residuals():
    # W orthogonal to V, exactly (W^T V = 0): no Petrov-Galerkin
    # projection onto these bases exists, but the model's own bases do,
    # so every measure is finite
    n, r = 5, 2
    sys = random_stable_qb(n, 1, 1, rng_for(43))
    red = initial_guess(sys, r, "random", seed=0)
    V, W = np.eye(n)[:, :r], np.eye(n)[:, r:2 * r]
    zeros = np.zeros((n, r), dtype=complex)
    bases = ProjectionBases(V1c=V.astype(complex), V2c=zeros,
                            W1c=W.astype(complex), W2c=zeros, V=V, W=W)
    rep = optimality_residuals(sys, red, bases)
    assert not any(rep.degraded.values())
    for _, val in rep.items():
        assert np.isfinite(val)


def test_zero_eigenvalue_model_degrades_residuals():
    # a shift of exactly 0 leaves the system's pencil regular and makes the
    # model's own singular: all five measures degrade to nan
    sys = random_stable_qb(6, 1, 1, rng_for(45))
    rng = rng_for(46)
    red = ReducedModel(np.diag([0.0, -1.0, -2.0]), None,
                       [0.1 * rng.standard_normal((3, 3))],
                       rng.standard_normal((3, 1)),
                       rng.standard_normal((1, 3)))
    bases = solve_bases(sys, red)
    with pytest.warns(DegradedDiagnostics, match="singular"):
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
    monkeypatch.setattr(diag, "solve_bases", boom)
    with pytest.warns(DegradedDiagnostics):
        rep = optimality_residuals(sys, red, bases)
    assert all(rep.degraded.values())
    assert np.isnan(rep.E_C) and np.isnan(rep.E_H)
    assert np.all(np.isfinite(rep.Phi_C))


def test_residuals_need_no_projection(monkeypatch, rough_pair):
    import qbmor.qb_core as qb_core

    def boom(*args, **kwargs):
        raise SingularGram("optimality_residuals projected the system")

    sys, red, bases = rough_pair
    # every binding of project in the package, from-import copies included
    original = qb_core.project
    for module in list(sys_modules.values()):
        if (getattr(module, "__name__", "").startswith("qbmor")
                and getattr(module, "project", None) is original):
            monkeypatch.setattr(module, "project", boom)
    rep = optimality_residuals(sys, red, bases)
    assert not any(rep.degraded.values())
    for _, val in rep.items():
        assert np.isfinite(val)


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


def with_mass(sys, seed):
    """sys written as E x' = E A x + E H(x (x) x) + ... for a random SPD E."""
    n = sys.n
    M = rng_for(seed).standard_normal((n, n))
    E = np.eye(n) + 0.3 * (M @ M.T) / np.linalg.norm(M @ M.T)
    return QBSystem(E @ sys.A,
                    Hessian.dense(E @ sys.H.mode1(), symmetric=True),
                    [E @ Nk for Nk in sys.N], E @ sys.B, sys.C, E=E)


def test_mass_matrix_pair_matches_standardized(rough_pair):
    sys, red, _ = rough_pair
    sys_e = with_mass(sys, 37)
    bases_e = solve_bases(sys_e, red)
    rep_e = optimality_residuals(sys_e, red, bases_e)
    bases0 = solve_bases(sys, red)
    rep0 = optimality_residuals(sys, red, bases0)
    for (_, v1), (_, v2) in zip(rep_e.items(), rep0.items()):
        assert np.isclose(v1, v2, rtol=1e-6, atol=1e-12)


# ------------------------------------------------- readings of the model form

def residual_max(sys, red, gamma):
    """Largest of the five measures on the gamma-scaled pair."""
    ssys, sred = rescale(sys, gamma), red.rescaled(gamma)
    rep = optimality_residuals(ssys, sred, solve_bases(ssys, sred))
    assert not any(rep.degraded.values())
    return max(val for _, val in rep.items())


def raw_realization_max(sys, red, gamma):
    """Oracle: the largest measure against the realization projected onto
    the pair's unorthonormalized bases, which interpolates at the model's
    shifts and so agrees with the model only at a fixed point."""
    ssys, sred = rescale(sys, gamma), red.rescaled(gamma)
    bases = solve_bases(ssys, sred)
    raw = project(ssys, bases.V, bases.W)
    hat = solve_bases(raw, sred)
    full = _phi_families(ssys, bases.V1c, bases.V2c, bases.W1c, bases.W2c)
    own = _phi_families(raw, hat.V1c, hat.V2c, hat.W1c, hat.W2c)
    return max(np.linalg.norm((a - b).reshape(a.shape[0], -1), 2)
               / np.linalg.norm(a.reshape(a.shape[0], -1), 2)
               for a, b in zip(full, own) if np.linalg.norm(a) > 0)


def test_random_guess_is_far_from_optimal():
    fhn = fitzhugh_nagumo(67)
    assert residual_max(fhn, initial_guess(fhn, 10, "random", seed=0),
                        0.1) > 1e-2


def test_one_sweep_iterate_is_not_optimal():
    sys = chafee_infante(100)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", MaxIterationsExceeded)
        red, _, report = tqb_irka(sys, IrkaConfig(r=10, maxit=1, gamma=0.01))
    assert not report.converged
    assert residual_max(sys, red, 0.01) > 1e-4


@pytest.mark.parametrize("k", [25, 50])
def test_balanced_truncation_model_is_measured(k):
    # a BT model is not a fixed point of the iteration; at k = 50 no
    # projection onto its pair's bases exists, its own bases do
    sys = chafee_infante(k)
    red, _ = balanced_truncation(sys, 8, gamma=1.0)
    assert 1e-6 < residual_max(sys, red, 1.0) < 1.0


@pytest.mark.parametrize("seed", [0, 1])
def test_fixed_point_reads_as_the_raw_realization(seed):
    # at a fixed point the model and the realization projected onto its
    # bases are one model in two state coordinates
    fhn = fitzhugh_nagumo(67)
    red, _, report = tqb_irka(fhn, IrkaConfig(r=10, gamma=0.1, seed=seed,
                                              tol=1e-9, maxit=200))
    assert report.converged
    assert np.isclose(residual_max(fhn, red, 0.1),
                      raw_realization_max(fhn, red, 0.1), rtol=1e-6, atol=0)


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
    for case in (sys, with_mass(sys, 37)):
        assert verify_against_bruteforce(case, red).agreed


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
