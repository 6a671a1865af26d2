import numpy as np
import pytest

from conftest import rng_for, random_stable_qb
from qbmor.errors import NotStable, RankDeficient
from qbmor.kron_tensor import Hessian
from qbmor.qb_core import QBSystem
from qbmor.reduction_baselines import balanced_truncation


def linear_system(n, m, p, seed):
    rng = rng_for(seed)
    S = rng.standard_normal((n, n))
    A = -np.eye(n) * (1.0 + rng.uniform(0, 1, size=n)) + 0.3 * (S - S.T)
    return QBSystem(A=A, H=Hessian.zero(n),
                    N=[np.zeros((n, n)) for _ in range(m)],
                    B=rng.standard_normal((n, m)),
                    C=rng.standard_normal((p, n)))


def transfer(sys, s_values):
    n = sys.n
    E = np.eye(n) if sys.E is None else sys.E
    return np.array([sys.C @ np.linalg.solve(s * E - sys.A, sys.B)
                     for s in s_values])


def test_full_order_linear_is_similarity():
    sys = linear_system(10, 1, 1, seed=70)
    red, hsv = balanced_truncation(sys, 10)
    freqs = 1j * np.logspace(-2, 2, 20)
    G = transfer(sys, freqs)
    Gr = transfer(red, freqs)
    assert np.max(np.abs(G - Gr)) <= 1e-9 * np.max(np.abs(G))
    assert hsv.shape == (10,)


def test_oblique_bases_are_biorthogonal():
    sys = random_stable_qb(12, 2, 2, rng_for(71))
    red, hsv = balanced_truncation(sys, 4)
    # project() already enforced W^T V invertible; BT makes it identity
    assert red.r == 4
    assert red.method == "bt"
    assert red.converged


def test_hsv_nonincreasing_and_positive_head():
    sys = random_stable_qb(14, 2, 2, rng_for(72))
    _, hsv = balanced_truncation(sys, 3)
    assert np.all(np.diff(hsv) <= 1e-14 * hsv[0])
    assert hsv[0] > 0


def test_hsv_similarity_invariant():
    sys = random_stable_qb(9, 2, 2, rng_for(73))
    rng = rng_for(74)
    Q, _ = np.linalg.qr(rng.standard_normal((9, 9)))
    T = Q * np.exp(rng.uniform(-0.3, 0.3, size=9))
    Tinv = np.linalg.inv(T)
    sys2 = QBSystem(A=Tinv @ sys.A @ T,
                    H=Hessian.dense(Tinv @ sys.H.apply_kron(T, T)),
                    N=[Tinv @ Nk @ T for Nk in sys.N],
                    B=Tinv @ sys.B, C=sys.C @ T)
    _, hsv = balanced_truncation(sys, 3)
    _, hsv2 = balanced_truncation(sys2, 3)
    assert np.max(np.abs(hsv - hsv2)) <= 1e-9 * hsv[0]


def test_quadratic_terms_move_the_values():
    sys = random_stable_qb(10, 2, 2, rng_for(75), scale=0.05)
    lin = QBSystem(A=sys.A, H=Hessian.zero(10),
                   N=[np.zeros((10, 10)) for _ in sys.N], B=sys.B, C=sys.C)
    _, hsv = balanced_truncation(sys, 3)
    _, hsv_lin = balanced_truncation(lin, 3)
    assert np.max(np.abs(hsv - hsv_lin)) > 1e-8 * hsv[0]


def test_zero_input_map_is_rank_deficient():
    sys = linear_system(6, 1, 1, seed=76)
    dead = QBSystem(A=sys.A, H=sys.H, N=sys.N, B=np.zeros((6, 1)), C=sys.C)
    with pytest.raises(RankDeficient):
        balanced_truncation(dead, 2)


def test_uncontrollable_tail_is_rank_deficient():
    # A block diagonal, B touching only the first block: the Gramian
    # product has numerical rank 3 so r = 5 digs into the null space.
    rng = rng_for(77)
    A1 = linear_system(3, 1, 1, seed=78).A
    A2 = linear_system(3, 1, 1, seed=79).A
    A = np.block([[A1, np.zeros((3, 3))], [np.zeros((3, 3)), A2]])
    B = np.vstack([rng.standard_normal((3, 1)), np.zeros((3, 1))])
    C = rng.standard_normal((1, 6))
    sys = QBSystem(A=A, H=Hessian.zero(6), N=[np.zeros((6, 6))], B=B, C=C)
    red, hsv = balanced_truncation(sys, 3)
    assert red.r == 3
    with pytest.raises(RankDeficient):
        balanced_truncation(sys, 5)


def test_unstable_system_rejected():
    sys = linear_system(5, 1, 1, seed=80)
    bad = QBSystem(A=sys.A + 3.0 * np.eye(5), H=sys.H, N=sys.N,
                   B=sys.B, C=sys.C)
    with pytest.raises(NotStable):
        balanced_truncation(bad, 2)


def test_order_validation():
    sys = linear_system(5, 1, 1, seed=81)
    with pytest.raises(ValueError):
        balanced_truncation(sys, 0)
    with pytest.raises(ValueError):
        balanced_truncation(sys, 6)


def test_mass_matrix_matches_standardized():
    sys = random_stable_qb(8, 2, 1, rng_for(82))
    rng = rng_for(83)
    E = np.eye(8) + 0.2 * rng.standard_normal((8, 8))
    gen = QBSystem(A=E @ sys.A,
                   H=Hessian.dense(E @ sys.H.mode1(), symmetric=True),
                   N=[E @ Nk for Nk in sys.N], B=E @ sys.B, C=sys.C, E=E)
    red1, hsv1 = balanced_truncation(sys, 3)
    red2, hsv2 = balanced_truncation(gen, 3)
    assert np.max(np.abs(hsv1 - hsv2)) <= 1e-9 * hsv1[0]
    assert np.allclose(red1.A, red2.A, rtol=0, atol=1e-8 * np.abs(red1.A).max())


def test_reduced_matrix_inherits_stability_on_easy_case():
    sys = random_stable_qb(15, 1, 1, rng_for(84), scale=0.02)
    red, _ = balanced_truncation(sys, 5)
    assert np.max(np.linalg.eigvals(red.A).real) < 0


def test_damped_basis_projects_original_operators():
    # bases from the damped system, operators from the original one:
    # identical to reducing the scaled system and undoing the scaling
    sys = random_stable_qb(12, 2, 2, rng_for(85), scale=0.05)
    g = 0.37
    red_g, hsv_g = balanced_truncation(sys, 4, gamma=g)
    red_s, hsv_s = balanced_truncation(
        QBSystem(A=sys.A, H=sys.H.scaled(g), N=[g * Nk for Nk in sys.N],
                 B=sys.B, C=sys.C), 4)
    assert np.allclose(hsv_g, hsv_s, rtol=1e-12, atol=0)
    for a, b in ((red_g.A, red_s.A), (red_g.B, red_s.B), (red_g.C, red_s.C)):
        assert np.allclose(a, b, rtol=0, atol=1e-12 * np.abs(b).max())
    Hm = red_g.H.mode1()
    assert np.allclose(g * Hm, red_s.H.mode1(), rtol=0,
                       atol=1e-12 * max(np.abs(Hm).max(), 1e-30))
    assert np.allclose(g * red_g.N[0], red_s.N[0], rtol=0,
                       atol=1e-12 * max(np.abs(red_g.N[0]).max(), 1e-30))
    assert red_g.gamma == g and red_s.gamma == 1.0


def test_damping_rescues_source_dominated_balancing():
    # the reaction-diffusion benchmark drives half its states through a
    # huge quadratic source; undamped balancing spends most directions
    # there while the damped variant tracks the input-output map
    from qbmor.benchmarks import chafee_infante
    from qbmor.gramians_norms import truncated_h2_error
    sys = chafee_infante(10)
    red_plain, _ = balanced_truncation(sys, 4)
    red_damped, _ = balanced_truncation(sys, 4, gamma=0.01)
    err_plain = truncated_h2_error(sys, red_plain)
    err_damped = truncated_h2_error(sys, red_damped)
    assert err_damped < 0.1 * err_plain
    assert np.max(np.linalg.eigvals(red_damped.A).real) < 0
