import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.integrate import solve_ivp

from conftest import rng_for, random_stable_qb
import qbmor
from qbmor.benchmarks import (InputSignal, Trajectory, chafee_infante,
                              fitzhugh_nagumo, input_signal, output_errors,
                              simulate, to_csv)
from qbmor.errors import NewtonDivergence, NonFiniteState
from qbmor.kron_tensor import Hessian
from qbmor.qb_core import QBSystem, project


def vector_field(sys, x, uv):
    out = sys.A @ x + sys.H.apply(x, x) + sys.B @ uv
    for Nk, uk in zip(sys.N, uv):
        out = out + uk * (Nk @ x)
    return out


# ---------------------------------------------------------------- generators

def test_chafee_k3_hand_values():
    sys = chafee_infante(3)
    assert sys.n == 6 and sys.m == 1 and sys.C.shape == (1, 6)
    A_vv = np.array([[-17.0, 9.0, 0.0], [9.0, -17.0, 9.0], [0.0, 9.0, -8.0]])
    assert np.array_equal(sys.A[:3, :3], A_vv)
    assert np.array_equal(sys.A[3:, 3:], np.diag([-34.0, -34.0, -16.0]))
    assert np.all(sys.A[:3, 3:] == 0) and np.all(sys.A[3:, :3] == 0)
    assert sys.B[0, 0] == 9.0 and np.count_nonzero(sys.B) == 1
    assert sys.N[0][3, 0] == 18.0 and np.count_nonzero(sys.N[0]) == 1
    assert sys.C[0, 2] == 1.0 and np.count_nonzero(sys.C) == 1

    # hand-expanded symmetrized tensor
    T = np.zeros((6, 6, 6))
    for j in range(3):
        T[j, j, 3 + j] = -0.5          # v rows: -v_j w_j
        T[j, 3 + j, j] = -0.5
        T[3 + j, 3 + j, 3 + j] = -2.0  # w rows: -2 w_j^2
    for j, nbs in ((0, [1]), (1, [0, 2]), (2, [1])):
        for b in nbs:                  # w rows: (2/h^2) v_j v_nb, h^2 = 1/9
            T[3 + j, j, b] += 9.0
            T[3 + j, b, j] += 9.0
    assert np.allclose(sys.H.tensor(), T, rtol=0, atol=1e-13)


def test_chafee_lift_closure_is_algebraic():
    # on the manifold w = v*v the w rows must equal 2 v * (v rows)
    sys = chafee_infante(7)
    rng = rng_for(90)
    for _ in range(5):
        v = rng.standard_normal(7)
        x = np.concatenate([v, v * v])
        uv = rng.standard_normal(1)
        F = vector_field(sys, x, uv)
        assert np.allclose(F[7:], 2.0 * v * F[:7], rtol=1e-13, atol=1e-10)


def test_chafee_v_rows_match_stencil():
    k = 5
    sys = chafee_infante(k)
    rng = rng_for(91)
    v = rng.standard_normal(k)
    w = rng.standard_normal(k)
    u0 = 0.7
    F = vector_field(sys, np.concatenate([v, w]), np.array([u0]))
    h2 = 1.0 / (k * k)
    for j in range(k):
        left = u0 if j == 0 else v[j - 1]
        right = v[j] if j == k - 1 else v[j + 1]
        expect = (left - 2.0 * v[j] + right) / h2 + v[j] - v[j] * w[j]
        if j == k - 1:
            expect = (left - v[j]) / h2 + v[j] - v[j] * w[j]
        assert abs(F[j] - expect) <= 1e-9 * max(1.0, abs(expect))


def test_chafee_hurwitz_scan():
    for k in (10, 60, 150):
        ev = np.linalg.eigvals(chafee_infante(k).A)
        assert ev.real.max() < 0


def test_chafee_small_k_rejected():
    with pytest.raises(ValueError):
        chafee_infante(2)


def test_fhn_dimensions_and_structure():
    sys = fitzhugh_nagumo(300)
    assert sys.n == 900 and sys.m == 2 and sys.C.shape == (2, 900)
    k = 24
    sys = fitzhugh_nagumo(k)
    eps, h_par, gam, q = 0.015, 0.5, 2.0, 0.05
    hg = 0.3 / (k - 1)
    assert sys.B[0, 0] == pytest.approx(-2.0 * eps / hg)
    assert np.allclose(sys.B[:k, 1], q / eps)
    assert np.allclose(sys.B[k:2 * k, 1], q)
    assert sys.N[0][2 * k, 0] == pytest.approx(-4.0 * eps / hg)
    assert np.allclose(np.diag(sys.N[1][2 * k:, :k]), 2.0 * q / eps)
    assert np.allclose(sys.A[k:2 * k, :k], h_par * np.eye(k))
    assert np.allclose(sys.A[k:2 * k, k:2 * k], -gam * np.eye(k))
    assert sys.C[0, 0] == 1.0 and sys.C[1, k] == 1.0
    assert np.linalg.eigvals(sys.A).real.max() < 0


def test_fhn_lift_closure_is_algebraic():
    k = 6
    sys = fitzhugh_nagumo(k)
    rng = rng_for(92)
    for _ in range(5):
        v = rng.standard_normal(k)
        w = rng.standard_normal(k)
        x = np.concatenate([v, w, v * v])
        uv = rng.standard_normal(2)
        F = vector_field(sys, x, uv)
        assert np.allclose(F[2 * k:], 2.0 * v * F[:k], rtol=1e-12, atol=1e-9)


def test_fhn_v_rows_match_cubic_reaction():
    # against the unlifted PDE right-hand side with z = v*v substituted
    k = 5
    sys = fitzhugh_nagumo(k)
    eps, h_par, gam, q = 0.015, 0.5, 2.0, 0.05
    hg = 0.3 / (k - 1)
    rng = rng_for(93)
    v = rng.standard_normal(k) * 0.5
    w = rng.standard_normal(k) * 0.5
    i0 = -3.0
    F = vector_field(sys, np.concatenate([v, w, v * v]),
                     np.array([i0, 1.0]))
    for j in range(k):
        if j == 0:
            lap = (2.0 * v[1] - 2.0 * v[0]) / hg ** 2
            bdry = -2.0 * eps / hg * i0
        elif j == k - 1:
            lap = (2.0 * v[k - 2] - 2.0 * v[k - 1]) / hg ** 2
            bdry = 0.0
        else:
            lap = (v[j - 1] - 2.0 * v[j] + v[j + 1]) / hg ** 2
            bdry = 0.0
        fv = v[j] * (v[j] - 0.1) * (1.0 - v[j])
        expect = eps * lap + (fv - w[j] + q) / eps + bdry
        assert abs(F[j] - expect) <= 1e-9 * max(1.0, abs(expect))
        expect_w = h_par * v[j] - gam * w[j] + q
        assert abs(F[k + j] - expect_w) <= 1e-12 * max(1.0, abs(expect_w))


def test_fhn_small_k_rejected():
    with pytest.raises(ValueError):
        fitzhugh_nagumo(2)


# ------------------------------------------------------------- input signals

def test_named_signals():
    u = input_signal("ci_u1")
    assert u.m == 1 and u(0.0)[0] == pytest.approx(1.0)
    assert u(2.5)[0] == pytest.approx(2.0 * np.exp(-0.5))
    u = input_signal("ci_u2")
    assert u(0.5)[0] == pytest.approx(50.0)
    u = input_signal("fhn_i0_sin")
    assert u.m == 2
    assert np.allclose(u(0.0), [-50.0, 1.0])
    assert np.allclose(u(0.25), [0.0, 1.0], atol=1e-12)
    u = input_signal("fhn_i0_bump")
    assert np.allclose(u(0.0), [0.0, 1.0])
    t = 0.2
    assert u(t)[0] == pytest.approx(5.0e4 * t ** 3 * np.exp(-15.0 * t))


def test_custom_signal_interpolates():
    tab_t = np.array([0.0, 1.0, 2.0])
    tab_u = np.array([[0.0, 1.0], [2.0, 1.0], [4.0, 1.0]])
    u = input_signal("custom", table=(tab_t, tab_u))
    assert u.m == 2
    assert np.allclose(u(0.5), [1.0, 1.0])
    assert np.allclose(u(2.0), [4.0, 1.0])
    assert np.allclose(u(5.0), [4.0, 1.0])    # clamped beyond the table
    with pytest.raises(ValueError):
        input_signal("custom")
    with pytest.raises(ValueError):
        input_signal("unheard-of")


# ----------------------------------------------------------------- simulate

def constant_input(m, values, T=100.0):
    vals = np.tile(np.asarray(values, dtype=float), (2, 1))
    return input_signal("custom", table=(np.array([0.0, T]), vals))


def test_linear_scalar_closed_form():
    sys = QBSystem(A=[[-1.0]], H=Hessian.zero(1), N=[np.zeros((1, 1))],
                   B=[[1.0]], C=[[1.0]])
    tr = simulate(sys, constant_input(1, [1.0]), 1.0, 11)
    exact = 1.0 - np.exp(-tr.times)
    assert abs(tr.outputs[0, -1] - (1.0 - np.exp(-1.0))) <= 1e-8
    assert np.max(np.abs(tr.outputs[0] - exact)) <= 1e-8


def test_logistic_closed_form():
    h = Hessian.dense(np.array([[1.0]]))
    sys = QBSystem(A=[[-1.0]], H=h, N=[np.zeros((1, 1))],
                   B=[[0.0]], C=[[1.0]])
    tr = simulate(sys, constant_input(1, [0.0]), 5.0, 41, x0=[0.5])
    exact = 1.0 / (1.0 + np.exp(tr.times))
    assert np.max(np.abs(tr.outputs[0] - exact)) <= 1e-7


def test_zero_input_zero_state_stays_zero():
    sys = chafee_infante(6)
    tr = simulate(sys, constant_input(1, [0.0]), 3.0, 31)
    assert np.all(tr.outputs == 0.0)


def test_channel_mismatch_rejected():
    sys = chafee_infante(4)
    with pytest.raises(ValueError):
        simulate(sys, input_signal("fhn_i0_sin"), 1.0, 11)
    with pytest.raises(ValueError):
        simulate(sys, input_signal("ci_u1"), -1.0, 11)
    with pytest.raises(ValueError):
        simulate(sys, input_signal("ci_u1"), 1.0, 1)


def test_chafee_lift_along_trajectory():
    k = 8
    sys = chafee_infante(k)
    tr = simulate(sys, input_signal("ci_u1"), 4.0, 101, store_states=True)
    v = tr.states[:k]
    w = tr.states[k:]
    res = np.max(np.abs(w - v * v)) / (1.0 + np.max(np.abs(v)) ** 2)
    assert res <= 1e-6
    assert np.all(np.diff(tr.times) > 0)
    assert np.all(np.isfinite(tr.outputs))


def test_fhn_lift_along_trajectory():
    k = 8
    sys = fitzhugh_nagumo(k)
    tr = simulate(sys, input_signal("fhn_i0_sin"), 2.0, 81, store_states=True)
    v = tr.states[:k]
    z = tr.states[2 * k:]
    res = np.max(np.abs(z - v * v)) / (1.0 + np.max(np.abs(v)) ** 2)
    assert res <= 1e-6


def test_lift_residual_tracks_tolerance():
    k = 20
    sys = chafee_infante(k)
    u = input_signal("ci_u1")
    loose = simulate(sys, u, 3.0, 61, rtol=1e-5, atol=1e-7, store_states=True)
    tight = simulate(sys, u, 3.0, 61, rtol=1e-8, atol=1e-10, store_states=True)

    def lift(tr):
        v = tr.states[:k]
        w = tr.states[k:]
        return np.max(np.abs(w - v * v)) / (1.0 + np.max(np.abs(v)) ** 2)

    assert lift(tight) < lift(loose)


def test_identity_reduction_reproduces_output():
    sys = random_stable_qb(8, 2, 2, rng_for(94))
    red = project(sys, np.eye(8), np.eye(8), method="identity")
    tab = (np.linspace(0.0, 5.0, 41),
           np.column_stack([np.sin(np.linspace(0, 5, 41)),
                            np.cos(np.linspace(0, 5, 41))]))
    u = input_signal("custom", table=tab)
    y_full = simulate(sys, u, 5.0, 101)
    y_red = simulate(red, u, 5.0, 101)
    scale = np.abs(y_full.outputs).max()
    assert np.max(np.abs(y_full.outputs - y_red.outputs)) <= 1e-10 * scale


def test_twin_simulation_against_unlifted_cubic():
    # i0 = 0, constant q channel: the lifted QB model must track the
    # plain cubic reaction-diffusion ODE it was derived from
    k = 10
    sys = fitzhugh_nagumo(k)
    u = constant_input(2, [0.0, 1.0])
    T = 5.0
    lifted = simulate(sys, u, T, 201)

    eps, h_par, gam, q = 0.015, 0.5, 2.0, 0.05
    hg = 0.3 / (k - 1)
    D2 = (np.diag(np.full(k, -2.0)) + np.diag(np.ones(k - 1), 1)
          + np.diag(np.ones(k - 1), -1)) / hg ** 2
    D2[0, 1] = 2.0 / hg ** 2
    D2[k - 1, k - 2] = 2.0 / hg ** 2

    def f(t, x):
        v, w = x[:k], x[k:]
        fv = v * (v - 0.1) * (1.0 - v)
        return np.concatenate([eps * (D2 @ v) + (fv - w + q) / eps,
                               h_par * v - gam * w + q])

    def jac(t, x):
        v = x[:k]
        dfv = -3.0 * v * v + 2.2 * v - 0.1
        J = np.zeros((2 * k, 2 * k))
        J[:k, :k] = eps * D2 + np.diag(dfv) / eps
        J[:k, k:] = -np.eye(k) / eps
        J[k:, :k] = h_par * np.eye(k)
        J[k:, k:] = -gam * np.eye(k)
        return J

    grid = np.linspace(0.0, T, 201)
    sol = solve_ivp(f, (0.0, T), np.zeros(2 * k), method="Radau", jac=jac,
                    t_eval=grid, rtol=1e-8, atol=1e-10)
    assert sol.success
    twin = Trajectory(times=grid, outputs=sol.y[[0, k]])
    mean_rel, _ = output_errors(twin, lifted)
    assert mean_rel <= 1e-5


def test_mass_matrix_consistency():
    sys = random_stable_qb(6, 1, 1, rng_for(95))
    rng = rng_for(96)
    E = np.eye(6) + 0.2 * rng.standard_normal((6, 6))
    gen = QBSystem(A=E @ sys.A,
                   H=Hessian.dense(E @ sys.H.mode1(), symmetric=True),
                   N=[E @ Nk for Nk in sys.N], B=E @ sys.B, C=sys.C, E=E)
    tab = (np.array([0.0, 10.0]), np.array([[1.0], [1.0]]))
    u = input_signal("custom", table=tab)
    y1 = simulate(sys, u, 4.0, 81, rtol=1e-9, atol=1e-11)
    y2 = simulate(gen, u, 4.0, 81, rtol=1e-9, atol=1e-11)
    mean_rel, _ = output_errors(y1, y2)
    assert mean_rel <= 1e-6


def test_blowup_is_reported():
    # x' = x^2 blows up at t = 1/x0: the steps underflow before it, or the
    # first rhs already overflows; either way a typed error, no warnings
    h = Hessian.dense(np.array([[1.0]]))
    sys = QBSystem(A=[[0.0]], H=h, N=[np.zeros((1, 1))],
                   B=[[0.0]], C=[[1.0]])
    for x0, error in ((1.0, NewtonDivergence), (1e160, NonFiniteState)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(error):
                simulate(sys, constant_input(1, [0.0]), 2.0, 21, x0=[x0],
                         rtol=1e-5, atol=1e-7)


def test_simulate_deterministic():
    sys = chafee_infante(5)
    u = input_signal("ci_u1")
    y1 = simulate(sys, u, 2.0, 41)
    y2 = simulate(sys, u, 2.0, 41)
    assert np.array_equal(y1.outputs, y2.outputs)
    assert y1.stats == y2.stats


def test_simulate_stats_contract(monkeypatch):
    # count Radau's trial steps and Newton iterations independently, at
    # the collocation solve: one call per trial step and Jacobian state
    from scipy.integrate._ivp import radau
    solve = radau.solve_collocation_system
    calls = []

    def counted(fun, t, y, h, *args):
        out = solve(fun, t, y, h, *args)
        calls.append(((t, h), out[1]))
        return out

    monkeypatch.setattr(radau, "solve_collocation_system", counted)
    sys_ = fitzhugh_nagumo(3)
    u = input_signal("fhn_i0_sin")
    tr = simulate(sys_, u, 2.0, 21, rtol=1e-6, atol=1e-8)
    stats = tr.stats
    assert set(stats) == {"steps", "rejected", "newton_iters",
                          "jacobian_factorizations", "nfev", "njev", "nlu",
                          "jacobian_nnz"}
    assert all(type(v) is int for v in stats.values())
    assert stats["jacobian_nnz"] == sys_.n ** 2       # dense at n = 9
    assert stats["newton_iters"] >= stats["steps"] >= 1
    assert stats["jacobian_factorizations"] == stats["nlu"] >= 1

    keys = [key for key, _ in calls]
    # a retry after a Jacobian refresh repeats its trial's (t, h)
    trials = [k for i, k in enumerate(keys) if i == 0 or k != keys[i - 1]]
    steps = len({t for t, _ in trials})
    assert stats["steps"] == steps
    assert stats["rejected"] == len(trials) - steps >= 1
    assert stats["newton_iters"] == sum(n for _, n in calls)
    assert simulate(sys_, u, 2.0, 21, rtol=1e-6, atol=1e-8).stats == stats


def _copy_as(cls, sys):
    return cls(sys.A, sys.H, sys.N, sys.B, sys.C, E=sys.E, label=sys.label)


class _DenseJacobian(QBSystem):
    def jacobian(self, x, u):
        J = super().jacobian(x, u)
        return J.toarray() if sp.issparse(J) else J


class _NaNJacobian(QBSystem):
    def jacobian(self, x, u):
        J = super().jacobian(x, u)
        J.data[0] = np.nan
        return J


def test_sparse_jacobian_takes_the_dense_path_steps():
    # splu and dense LU factor the same iteration matrices, so Radau
    # takes the same steps on either path
    sys_ = chafee_infante(100)
    u = input_signal("ci_u1")
    kw = dict(rtol=1e-5, atol=1e-7)
    ys = simulate(sys_, u, 2.0, 41, **kw)
    yd = simulate(_copy_as(_DenseJacobian, sys_), u, 2.0, 41, **kw)
    for key in ("steps", "rejected", "newton_iters", "nlu"):
        assert ys.stats[key] == yd.stats[key]
    assert yd.stats["jacobian_nnz"] == sys_.n ** 2
    assert ys.stats["jacobian_nnz"] <= sys_.n ** 2 // 20
    err = np.linalg.norm(ys.outputs - yd.outputs)
    assert err <= 1e-9 * np.linalg.norm(yd.outputs)


def test_non_finite_sparse_jacobian_is_reported():
    sys_ = _copy_as(_NaNJacobian, chafee_infante(100))
    with pytest.raises(NonFiniteState):
        simulate(sys_, input_signal("ci_u1"), 1.0, 11)


def test_import_leaves_scipy_integrate_unloaded():
    # simulate imports it lazily, so no other workload pays for it
    src = os.path.dirname(os.path.dirname(os.path.abspath(qbmor.__file__)))
    code = "import sys, qbmor; print('scipy.integrate' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"


# ------------------------------------------------------------ error metrics

def synth(vals, times=None):
    times = np.linspace(0.0, 10.0, 500) if times is None else times
    return Trajectory(times=times, outputs=np.atleast_2d(vals))


def test_output_errors_trivia():
    t = np.linspace(0.0, 10.0, 500)
    y = synth(np.sin(t))
    assert output_errors(y, synth(np.sin(t))) == (0.0, 0.0)
    const = synth(np.full_like(t, 3.0))
    zero = synth(np.zeros_like(t))
    assert output_errors(const, zero) == (1.0, 1.0)
    assert output_errors(zero, zero) == (0.0, 0.0)
    m = output_errors(zero, const)
    assert m == (np.inf, np.inf)


def test_output_errors_synthetic_offset():
    t = np.linspace(0.0, 10.0, 500)
    y = synth(np.sin(t))
    yhat = synth(np.sin(t) + 0.01)
    mean_rel, linf_rel = output_errors(y, yhat)
    assert abs(mean_rel - 0.01) <= 2e-4
    assert abs(linf_rel - 0.01) <= 2e-4


def test_output_errors_grid_mismatch():
    t = np.linspace(0.0, 10.0, 500)
    y = synth(np.sin(t), times=t)
    bad = synth(np.sin(t), times=t + 0.1)
    with pytest.raises(ValueError):
        output_errors(y, bad)
    short = synth(np.sin(t[:-1]), times=t[:-1])
    with pytest.raises(ValueError):
        output_errors(y, short)


def test_csv_roundtrip(tmp_path):
    sys = chafee_infante(4)
    tr = simulate(sys, input_signal("ci_u1"), 1.0, 11)
    path = tmp_path / "traj.csv"
    to_csv(tr, str(path))
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "t,y_1"
    assert len(lines) == 12
    parsed = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    assert np.array_equal(parsed[:, 0], tr.times)
    assert np.array_equal(parsed[:, 1], tr.outputs[0])
