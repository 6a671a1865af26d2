import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.integrate import solve_ivp

from conftest import rng_for, random_stable_qb
import qbmor
import qbmor.benchmarks as benchmarks
from qbmor.benchmarks import (InputSignal, Trajectory, chafee_infante,
                              fitzhugh_nagumo, input_signal, output_errors,
                              simulate, to_csv)
from qbmor.errors import NewtonDivergence, NonFiniteState
from qbmor.kron_tensor import Hessian
from qbmor.matrix_equations import _BandLayout
from qbmor.qb_core import QBSystem, _VectorField, project


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
    A, N0 = sys.A.toarray(), sys.N[0].toarray()
    assert np.array_equal(A[:3, :3], A_vv)
    assert np.array_equal(A[3:, 3:], np.diag([-34.0, -34.0, -16.0]))
    assert np.all(A[:3, 3:] == 0) and np.all(A[3:, :3] == 0)
    assert sys.B[0, 0] == 9.0 and np.count_nonzero(sys.B) == 1
    assert N0[3, 0] == 18.0 and np.count_nonzero(N0) == 1
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
    assert np.allclose(sys.H.mode1().reshape(6, 6, 6), T, rtol=0, atol=1e-13)


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
        ev = np.linalg.eigvals(chafee_infante(k).A.toarray())
        assert ev.real.max() < 0


@pytest.mark.parametrize("make", [chafee_infante, fitzhugh_nagumo])
def test_generators_build_sparse_operators(make):
    sys = make(20)
    ops = [sys.A] + sys.N + [F for pair in sys.H.pairs for F in pair]
    assert all(isinstance(M, sp.csr_array) for M in ops)


def test_chafee_small_k_rejected():
    # and a non-integral k, an integral float too (numpy's TypeError)
    for k in (2, 3.0, 4.5, "4"):
        with pytest.raises(ValueError):
            chafee_infante(k)


def test_fhn_dimensions_and_structure():
    sys = fitzhugh_nagumo(300)
    assert sys.n == 900 and sys.m == 2 and sys.C.shape == (2, 900)
    k = 24
    sys = fitzhugh_nagumo(k)
    eps, h_par, gam, q = 0.015, 0.5, 2.0, 0.05
    hg = 0.3 / (k - 1)
    A, N0, N1 = (M.toarray() for M in [sys.A] + sys.N)
    assert sys.B[0, 0] == pytest.approx(-2.0 * eps / hg)
    assert np.allclose(sys.B[:k, 1], q / eps)
    assert np.allclose(sys.B[k:2 * k, 1], q)
    assert N0[2 * k, 0] == pytest.approx(-4.0 * eps / hg)
    assert np.allclose(np.diag(N1[2 * k:, :k]), 2.0 * q / eps)
    assert np.allclose(A[k:2 * k, :k], h_par * np.eye(k))
    assert np.allclose(A[k:2 * k, k:2 * k], -gam * np.eye(k))
    assert sys.C[0, 0] == 1.0 and sys.C[1, k] == 1.0
    assert np.linalg.eigvals(A).real.max() < 0


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
    # and a non-integral k, an integral float too (numpy's TypeError)
    for k in (2, 3.0, 4.5, "4"):
        with pytest.raises(ValueError):
            fitzhugh_nagumo(k)


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
    # values that match the times in neither orientation
    with pytest.raises(ValueError, match="disagree in length"):
        input_signal("custom", table=(tab_t, np.ones((2, 4))))
    # tables no call could evaluate: no times (numpy: "array of sample
    # points is empty"), 3-D values ("object too deep"), non-finite values
    for table in (([], []), (tab_t, np.zeros((3, 2, 1))),
                  (tab_t, [0.0, np.nan, 1.0]), (tab_t, tab_u - np.inf)):
        with pytest.raises(ValueError, match="table"):
            input_signal("custom", table=table)
    # one sample is a constant signal
    assert np.array_equal(input_signal("custom", table=([1.0], [2.0]))(0.0),
                          [2.0])


def test_custom_signal_rejects_unordered_times():
    # np.interp reads unsorted times as nonsense: these gave u(2.5) = 20
    values = np.array([0.0, 30.0, 10.0, 20.0])
    for times in ([0.0, 3.0, 1.0, 2.0], [0.0, 1.0, 1.0, 2.0],
                  [0.0, np.nan, 2.0, 3.0], [0.0, 1.0, 2.0, np.inf]):
        with pytest.raises(ValueError, match="increasing"):
            input_signal("custom", table=(times, values))
    # the same table in time order
    u = input_signal("custom", table=([0.0, 1.0, 2.0, 3.0],
                                      [0.0, 10.0, 20.0, 30.0]))
    assert np.allclose(u(2.5), [25.0])


@pytest.mark.parametrize("kind", ["ci_u1", "ci_u2", "fhn_i0_sin",
                                  "fhn_i0_bump", "custom"])
def test_batched_input_evaluation_matches_calls(kind):
    table = (np.array([0.0, 0.7, 2.0, 5.0]),
             np.array([[0.0, 1.0], [2.0, -1.0], [4.0, 3.0], [1.0, 0.5]]))
    u = input_signal(kind, table=table if kind == "custom" else None)
    rng = rng_for(47)
    # sample times, table knots, points beyond the table and stage times
    ts = np.concatenate([np.linspace(0.0, 6.0, 37), table[0],
                         rng.uniform(-1.0, 7.0, 20),
                         0.3 + 0.01 * np.array([0.155, 0.645, 1.0])])
    batch = u.at(ts)
    assert batch.shape == (u.m, ts.size)
    assert np.array_equal(batch, np.array([u(t) for t in ts]).T)
    assert np.array_equal(u.at((ts[3],)), u(ts[3])[:, None])


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


def _mass_pair():
    """A random system and the same system written with a mass matrix E."""
    sys = random_stable_qb(6, 1, 1, rng_for(95))
    E = np.eye(6) + 0.2 * rng_for(96).standard_normal((6, 6))
    gen = QBSystem(A=E @ sys.A,
                   H=Hessian.dense(E @ sys.H.mode1(), symmetric=True),
                   N=[E @ Nk for Nk in sys.N], B=E @ sys.B, C=sys.C, E=E)
    return sys, gen


def test_mass_matrix_consistency():
    sys, gen = _mass_pair()
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


def test_overflow_in_the_first_steps_is_typed():
    # from x0 = 1e150 the stages of x' = x^2 overflow while t is still 0;
    # the step-size arithmetic must turn that into a typed error, not a
    # ZeroDivisionError or a ValueError from a finiteness check
    h = Hessian.dense(np.array([[1.0]]))
    sys = QBSystem(A=[[0.0]], H=h, N=[np.zeros((1, 1))],
                   B=[[0.0]], C=[[1.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NewtonDivergence):
            simulate(sys, constant_input(1, [0.0]), 2.0, 21, x0=[1e150],
                     rtol=1e-5, atol=1e-7)


@pytest.mark.parametrize("sparse", [True, False])
def test_singular_iteration_matrix_is_typed(sparse):
    # x' = -x + x o x from x0 ~ 1e150 underflows the first step; mu I - J
    # is then singular, and splu's refusal must end as getrf's non-finite
    # solves do, in NewtonDivergence
    n = 100
    I = sp.eye_array(n, format="csr")
    A = -I if sparse else -np.eye(n) + 1e-3 * np.ones((n, n)) / n
    sys = QBSystem(A, Hessian.from_pairs([(I, I)], n),
                   [sp.csr_array((n, n))], np.zeros((n, 1)), np.ones((1, n)))
    x0 = np.linspace(0.5, 1.0, n) * 1e150
    assert sp.issparse(sys.jacobian(x0, [0.0])) == sparse
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NewtonDivergence):
            simulate(sys, constant_input(1, [0.0]), 1.0, 11, x0=x0,
                     rtol=1e-5, atol=1e-7)


def test_simulate_deterministic():
    sys = chafee_infante(5)
    u = input_signal("ci_u1")
    y1 = simulate(sys, u, 2.0, 41)
    y2 = simulate(sys, u, 2.0, 41)
    assert np.array_equal(y1.outputs, y2.outputs)
    assert y1.stats == y2.stats


def _scipy_radau(monkeypatch, sys_, u, T, samples, rtol, atol):
    """Counts and sampled states of scipy's Radau on simulate's f and
    Jacobian: the oracle the ported stepper must match step for step.

    Trial steps and Newton iterations are counted at scipy's collocation
    solve, one call per trial step and Jacobian state. A sparse Jacobian's
    iteration matrices, scipy's own mu I - J, are factored and solved by
    the library's band LU on the first Jacobian's layout in place of
    SuperLU, counted in nlu as scipy counts its own.
    """
    from scipy.integrate import Radau
    from scipy.integrate._ivp import radau
    solve = radau.solve_collocation_system
    calls = []

    def counted(fun, t, y, h, *args):
        out = solve(fun, t, y, h, *args)
        calls.append(((t, h), out[1]))
        return out

    monkeypatch.setattr(radau, "solve_collocation_system", counted)

    def f(t, x):
        return sys_.solve_mass(sys_.rhs(x, u(t)))

    def jac(t, x):
        return sys_.solve_mass(sys_.jacobian(x, u(t)))

    tq = np.linspace(0.0, T, samples)
    states = np.zeros((sys_.n, samples))
    done = 1
    with np.errstate(all="ignore"):
        solver = Radau(f, 0.0, np.zeros(sys_.n), T, rtol=rtol, atol=atol,
                       jac=jac)
        if sp.issparse(solver.J):
            layout = _BandLayout.of(solver.J)

            def lu(M):
                solver.nlu += 1
                M = M.tocoo()
                ab = np.zeros((sys_.n, layout.width), dtype=M.dtype)
                ab.reshape(-1)[layout.at(M.row, M.col)] = M.data
                return layout.lu(ab)

            solver.lu = lu
            solver.solve_lu = lambda LU, b: LU(b)
        while solver.status == "running":
            solver.step()
            stop = int(np.searchsorted(tq, solver.t, side="right"))
            if stop > done:
                states[:, done:stop] = solver.dense_output()(tq[done:stop])
                done = stop
    assert solver.status == "finished"
    keys = [key for key, _ in calls]
    # a retry after a Jacobian refresh repeats its trial's (t, h)
    trials = [k for i, k in enumerate(keys) if i == 0 or k != keys[i - 1]]
    steps = len({t for t, _ in trials})
    stats = {"steps": steps, "rejected": len(trials) - steps,
             "newton_iters": sum(n for _, n in calls),
             "jacobian_factorizations": solver.nlu,
             "njev": solver.njev, "nfev": solver.nfev}
    return stats, states


def test_simulate_stats_contract(monkeypatch):
    sys_ = fitzhugh_nagumo(3)
    u = input_signal("fhn_i0_sin")
    tr = simulate(sys_, u, 2.0, 21, rtol=1e-6, atol=1e-8)
    stats = tr.stats
    assert set(stats) == {"steps", "rejected", "newton_iters",
                          "jacobian_factorizations", "nfev", "njev",
                          "jacobian_nnz"}
    assert all(type(v) is int for v in stats.values())
    assert stats["jacobian_nnz"] == sys_.n ** 2       # dense at n = 9
    assert stats["newton_iters"] >= stats["steps"] >= 1
    assert stats["jacobian_factorizations"] >= 1
    assert stats["rejected"] >= 1

    oracle, _ = _scipy_radau(monkeypatch, sys_, u, 2.0, 21, 1e-6, 1e-8)
    for key in ("steps", "rejected", "newton_iters",
                "jacobian_factorizations", "njev"):
        assert stats[key] == oracle[key], key
    assert simulate(sys_, u, 2.0, 21, rtol=1e-6, atol=1e-8).stats == stats


def test_simulate_skips_the_argument_checks(monkeypatch):
    # the stepper evaluates the system's operator set directly; only
    # outside callers go through the checked QBSystem.rhs
    sys_ = fitzhugh_nagumo(3)
    u = input_signal("fhn_i0_sin")
    ref = simulate(sys_, u, 1.0, 11, rtol=1e-6, atol=1e-8)

    def refuse(*args, **kwargs):
        raise AssertionError("checked rhs called by the stepper")

    monkeypatch.setattr(QBSystem, "rhs", refuse)
    tr = simulate(sys_, u, 1.0, 11, rtol=1e-6, atol=1e-8)
    assert np.array_equal(tr.outputs, ref.outputs)
    assert tr.stats == ref.stats


# (system, input, horizon, rtol): the dense LAPACK path on the benchmark's
# FitzHugh-Nagumo case, a loose tolerance at which Newton fails three times
# with a fresh Jacobian and the step is halved, the splu path, and the
# mass-matrix path
_ORACLE_CASES = {
    "fhn_dense": (lambda: fitzhugh_nagumo(5), "fhn_i0_sin", 10.0, 1e-7),
    "fhn_newton_halving": (lambda: fitzhugh_nagumo(3), "fhn_i0_sin", 2.0,
                           1e-3),
    "chafee_splu": (lambda: chafee_infante(100), "ci_u1", 10.0, 1e-5),
    "mass_matrix": (lambda: _mass_pair()[1], "ci_u1", 4.0, 1e-9),
}


@pytest.mark.parametrize("case", sorted(_ORACLE_CASES))
def test_stepper_takes_scipy_radau_steps(monkeypatch, case):
    make, signal, T, rtol = _ORACLE_CASES[case]
    sys_ = make()
    u = input_signal(signal)
    atol = rtol / 100.0
    tr = simulate(sys_, u, T, 201, rtol=rtol, atol=atol, store_states=True)
    oracle, states = _scipy_radau(monkeypatch, sys_, u, T, 201, rtol, atol)
    for key in oracle:
        assert tr.stats[key] == oracle[key], key
    sparse_path = tr.stats["jacobian_nnz"] < sys_.n ** 2
    assert sparse_path == (case == "chafee_splu")
    err = np.linalg.norm(tr.states - states)
    assert err <= 1e-10 * np.linalg.norm(states)
    if case != "mass_matrix":
        # the same arithmetic in the same order; only the mass-matrix solve
        # differs, E^{-1} on three stage columns at once instead of one
        assert np.array_equal(tr.states, states)


def test_bad_initial_state_or_tolerance_rejected_before_stepping(
        monkeypatch):
    sys_ = chafee_infante(4)
    u = input_signal("ci_u1")

    def refuse(*args):
        raise AssertionError("rhs evaluated before the arguments were checked")

    monkeypatch.setattr(QBSystem, "rhs", refuse)
    monkeypatch.setattr(_VectorField, "rhs", refuse)
    for x0 in (np.zeros(sys_.n - 1), np.zeros((sys_.n, 1)),
               np.full(sys_.n, np.nan)):
        with pytest.raises(ValueError):
            simulate(sys_, u, 1.0, 11, x0=x0)
    for tol in (dict(rtol=1e-16), dict(rtol=np.nan), dict(atol=-1e-10),
                dict(rtol=np.inf), dict(atol=np.inf)):
        with pytest.raises(ValueError):
            simulate(sys_, u, 1.0, 11, **tol)
    for T in (np.nan, np.inf, 0.0):
        with pytest.raises(ValueError):
            simulate(sys_, u, T, 11)
    for samples in (10.5, 5.0, np.float64(11.0), 1, np.int64(1)):
        with pytest.raises(ValueError, match="sample points"):
            simulate(sys_, u, 1.0, samples)
    monkeypatch.undo()
    tr = simulate(sys_, u, 1.0, np.int64(11))
    assert tr.times.shape == (11,) and tr.outputs.shape == (1, 11)


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


@pytest.mark.parametrize("state", ["zero", "random"])
def test_iteration_matrix_matches_scipy_subtraction(state, monkeypatch):
    # at x = 0 the Jacobian stores explicit zeros, which scipy's
    # subtraction drops; the band the stepper factors must hold zeros
    # there, of either sign only as scipy's entries have them
    sys_ = chafee_infante(100)
    n = sys_.n
    x = np.zeros(n) if state == "zero" else rng_for(48).standard_normal(n)
    J = sys_.jacobian(x, [0.7])
    assert np.any(J.data == 0.0) == (state == "zero")
    factored = []
    lu = _BandLayout.lu

    def recording(layout, ab):
        factored.append((layout, ab.copy()))
        return lu(layout, ab)

    monkeypatch.setattr(_BandLayout, "lu", recording)
    # a stepper whose Jacobian is J at every state
    solver = benchmarks._Radau(sys_.rhs, constant_input(1, [0.7]).at,
                               lambda t, y: J, x, 1.0, 1e-6, 1e-8)
    # the iteration matrices as scipy's Radau forms them
    eye, Jc = sp.eye_array(n, format="csc"), sp.csc_array(J)
    # the last mu is an underflowed step's, infinite
    for mu in (benchmarks._MU_REAL / 0.01, benchmarks._MU_COMPLEX / 0.01,
               benchmarks._MU_COMPLEX / 5e-324):
        with np.errstate(invalid="ignore"):     # as inside simulate
            solver._lu(mu, J)
            ref = (mu * eye - Jc).tocoo()
        (layout, ours), = factored
        factored.clear()
        assert (layout.kl, layout.ku) == (3, 3)
        assert ref.nnz < J.nnz if state == "zero" else ref.nnz == J.nnz
        assert ours.shape == (n, layout.width)
        assert ours.dtype == ref.dtype
        # scipy's entries in their band places and zeros elsewhere, bit for
        # bit, signed zeros included
        want = np.zeros_like(ours)
        want.reshape(-1)[layout.at(ref.row, ref.col)] = ref.data
        assert ours.tobytes() == want.tobytes()


def test_jacobian_stores_only_its_own_cells(monkeypatch):
    # a tridiagonal A with no entry at (5, 5): its symmetric part is
    # -2 I + 2 e_5 e_5^T, so the system does not grow; the band layout
    # adds the diagonal cell that mu I - J has and J lacks
    n = 120
    A = sp.diags_array([-np.ones(n - 1), np.full(n, -2.0), np.ones(n - 1)],
                       offsets=[-1, 0, 1], format="csr")
    A[5, 5] = 0.0
    A.eliminate_zeros()
    sys_ = QBSystem(A, None, [sp.csr_array((n, n))], np.ones((n, 1)),
                    np.ones((1, n)) / n)
    assert sys_.A.nnz == 3 * n - 3
    J = sys_.jacobian(np.zeros(n), [0.3])
    assert isinstance(J, sp.csc_array) and J.nnz == 3 * n - 3
    assert 5 not in J.indices[J.indptr[5]:J.indptr[6]]
    u = input_signal("ci_u1")
    tr = simulate(sys_, u, 2.0, 101, rtol=1e-6, atol=1e-8, store_states=True)
    assert tr.stats["jacobian_nnz"] == 3 * n - 3
    oracle, states = _scipy_radau(monkeypatch, sys_, u, 2.0, 101, 1e-6, 1e-8)
    for key in oracle:
        assert tr.stats[key] == oracle[key], key
    assert np.array_equal(tr.states, states)


def test_sparse_jacobian_takes_the_dense_path_steps():
    # splu and dense LU factor the same iteration matrices, so Radau
    # takes the same steps on either path
    sys_ = chafee_infante(100)
    u = input_signal("ci_u1")
    kw = dict(rtol=1e-5, atol=1e-7)
    ys = simulate(sys_, u, 2.0, 41, **kw)
    yd = simulate(_copy_as(_DenseJacobian, sys_), u, 2.0, 41, **kw)
    for key in ("steps", "rejected", "newton_iters",
                "jacobian_factorizations"):
        assert ys.stats[key] == yd.stats[key]
    assert yd.stats["jacobian_nnz"] == sys_.n ** 2
    assert ys.stats["jacobian_nnz"] <= sys_.n ** 2 // 20
    err = np.linalg.norm(ys.outputs - yd.outputs)
    assert err <= 1e-9 * np.linalg.norm(yd.outputs)


def test_sparse_iteration_matrices_never_call_splu(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("splu called")

    monkeypatch.setattr(spla, "splu", refuse)
    sys_ = chafee_infante(100)
    tr = simulate(sys_, input_signal("ci_u1"), 2.0, 21, rtol=1e-5,
                  atol=1e-7)
    assert tr.stats["jacobian_nnz"] < sys_.n ** 2
    assert tr.stats["jacobian_factorizations"] >= 2


def test_non_finite_sparse_jacobian_is_reported():
    sys_ = _copy_as(_NaNJacobian, chafee_infante(100))
    with pytest.raises(NonFiniteState):
        simulate(sys_, input_signal("ci_u1"), 1.0, 11)


def test_non_finite_states_and_outputs_are_reported(monkeypatch):
    sys_, u = chafee_infante(4), input_signal("ci_u1")
    step = benchmarks._Radau.step

    def poisoned_state(self):
        done = step(self)
        self.y = self.y * np.nan
        return done

    def poisoned_last_samples(self):
        # the last step's collocation polynomial, which only the samples
        # read, while the state stays finite
        done = step(self)
        if self.t >= self.t_bound:
            self.Q = self.Q * np.inf
        return done

    for poisoned, match in ((poisoned_state, "state became non-finite"),
                            (poisoned_last_samples,
                             "sampled outputs are non-finite")):
        with monkeypatch.context() as m:
            m.setattr(benchmarks._Radau, "step", poisoned)
            with pytest.raises(NonFiniteState, match=match):
                simulate(sys_, u, 1.0, 11)


def _run_python(code):
    """Run code in a fresh interpreter on this qbmor, within a timeout, so
    that a run that never ends fails the test instead of hanging it."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(qbmor.__file__)))
    out = subprocess.run([sys.executable, "-c", code],
                         env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    return out.stdout.strip().splitlines()


def test_zero_atol_with_a_zero_state_is_refused():
    # atol = 0 gives the zero components of the default x0 a zero error
    # scale and the first step a NaN size; the step loop used to halve it
    # forever. A nonzero x0 runs.
    msg, steps = _run_python(
        "import numpy as np, qbmor\n"
        "sys_, u = qbmor.chafee_infante(4), qbmor.input_signal('ci_u1')\n"
        "try:\n"
        "    qbmor.simulate(sys_, u, 1.0, 11, rtol=1e-6, atol=0.0)\n"
        "except ValueError as exc:\n"
        "    print(exc)\n"
        "tr = qbmor.simulate(sys_, u, 1.0, 11, rtol=1e-6, atol=0.0,\n"
        "                    x0=np.ones(8))\n"
        "print(tr.stats['steps'])\n")
    assert msg.startswith("initial step size is nan: atol = 0.0 gives the "
                          "8 zero components of x0 (first [0, 1, 2, 3, 4])")
    assert int(steps) > 0


def test_a_nan_step_size_ends_the_run():
    # the underflow test reads a NaN step size as an underflow
    lines = _run_python(
        "import math, qbmor\n"
        "from qbmor import benchmarks\n"
        "from qbmor.errors import NewtonDivergence\n"
        "step = benchmarks._Radau.step\n"
        "def nan_after(self):\n"
        "    done = step(self)\n"
        "    self.h_abs = math.nan\n"
        "    return done\n"
        "benchmarks._Radau.step = nan_after\n"
        "try:\n"
        "    qbmor.simulate(qbmor.chafee_infante(4),\n"
        "                   qbmor.input_signal('ci_u1'), 1.0, 11)\n"
        "except NewtonDivergence as exc:\n"
        "    print(exc)\n")
    assert len(lines) == 1 and lines[0].startswith("step size underflow at")


def test_import_leaves_scipy_integrate_unloaded():
    # the stepper is qbmor's own, so not even simulate loads scipy.integrate
    src = os.path.dirname(os.path.dirname(os.path.abspath(qbmor.__file__)))
    code = ("import sys, qbmor\n"
            "qbmor.simulate(qbmor.chafee_infante(4), qbmor.input_signal("
            "'ci_u1'), 1.0, 11)\n"
            "print('scipy.integrate' in sys.modules)")
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


def test_output_errors_refuse_other_output_counts():
    # a one-output prediction used to broadcast against two reference
    # outputs and read (0.447, 0.447)
    t = np.linspace(0.0, 10.0, 500)
    y = synth(np.vstack([np.sin(t), np.cos(t)]))
    with pytest.raises(ValueError, match="output shapes"):
        output_errors(y, synth(np.sin(t)))
    with pytest.raises(ValueError, match="output shapes"):
        output_errors(synth(np.sin(t)), y)


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


def test_csv_exact_bytes(tmp_path):
    # signed zero, infinities and a tiny entry keep their text
    tr = Trajectory(times=np.array([0.0, 0.5, 1.0]),
                    outputs=np.array([[-0.0, np.inf, 1e-300],
                                      [0.1, -np.inf, -2.5]]))
    path = tmp_path / "traj.csv"
    to_csv(tr, str(path))
    assert path.read_bytes() == (b"t,y_1,y_2\n"
                                 b"0,-0,0.10000000000000001\n"
                                 b"0.5,inf,-inf\n"
                                 b"1,1e-300,-2.5\n")
