"""Acceptance gate: one test per shipped guarantee, stated tolerances.

Run with -v for a pass/fail line per item; each test also prints its
headline numbers so `-s` reads as a checklist. The large-benchmark
fixtures are module scoped and shared, so the file stays inside its
time budgets on a single CPU.
"""

import os
import subprocess
import sys as _sys
import time
import warnings

import numpy as np
import pytest

from conftest import (lifted, quadrature_h2_squared, random_dense_hessian,
                      random_pair_hessian, random_stable_qb, rng_for)
import qbmor
from qbmor import (IrkaConfig, balanced_truncation, chafee_infante,
                   fitzhugh_nagumo, input_signal, output_errors, project,
                   rescale, simulate, solve_bases, tqb_irka,
                   truncated_gramians, truncated_h2_error, truncated_h2_norm)
from qbmor.diagnostics import optimality_residuals
from qbmor.errors import QbmorWarning
from qbmor.gramians_norms import quadratic_gramians
from qbmor.kron_tensor import (Hessian, commutation_matrix, perm_M, perm_T,
                               vec)
from qbmor.matrix_equations import (solve_lyapunov, solve_sylvester_shifted,
                                    spectral_decompose)
from qbmor.qb_core import QBSystem


def _ok(num, msg):
    print("PASS %02d %s" % (num, msg))


def _rel(err, scale):
    return err / max(scale, 1e-300)


@pytest.fixture(scope="module")
def chafee100():
    return chafee_infante(100)


@pytest.fixture(scope="module")
def irka100(chafee100):
    cfg = IrkaConfig(r=10, tol=1e-5, maxit=100, gamma=0.01, seed=0)
    t0 = time.perf_counter()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", QbmorWarning)
        red, _, report = tqb_irka(chafee100, cfg)
    return red, report, time.perf_counter() - t0


def test_01_tensor_identities():
    t0 = time.perf_counter()
    rng = rng_for(1001)
    for _ in range(100):
        n = int(rng.integers(1, 5))
        m = int(rng.integers(1, 5))
        u = rng.standard_normal(n)
        v = rng.standard_normal(m)
        S = commutation_matrix(n, m)
        assert np.array_equal(S.apply(np.kron(u, v)), np.kron(v, u))
        assert np.array_equal(S.T.apply(np.kron(v, u)), np.kron(u, v))

        X = rng.standard_normal((n, m))
        Y = rng.standard_normal((n, m))
        T = perm_T(n, m)
        assert np.array_equal(T.apply(np.kron(vec(X), vec(Y))),
                              vec(np.kron(X, Y)))

        p, q, s = (int(rng.integers(1, 5)) for _ in range(3))
        A = rng.standard_normal((p, p))
        Bq = rng.standard_normal((q, q))
        Cs = rng.standard_normal((s, s))
        blk = np.zeros((q + s, q + s))
        blk[:q, :q] = Bq
        blk[q:, q:] = Cs
        K = np.kron(A, blk)
        Minv = perm_M(p, q, s).T.perm
        left = K[np.ix_(Minv, Minv)]
        right = np.zeros_like(left)
        right[:p * q, :p * q] = np.kron(A, Bq)
        right[p * q:, p * q:] = np.kron(A, Cs)
        assert np.max(np.abs(left - right)) <= 1e-13 * max(
            np.max(np.abs(right)), 1e-300)

    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 5))
        Hd = random_dense_hessian(n, rng)
        Hp = random_pair_hessian(n, int(rng.integers(1, 4)), rng)
        u = rng.standard_normal(n)
        v = rng.standard_normal(n)
        for H in (Hd, Hp):
            scale = max(H.norm() * np.linalg.norm(u) * np.linalg.norm(v),
                        1e-300)
            worst = max(worst, _rel(np.max(np.abs(
                H.apply(u, v) - H.mode1() @ np.kron(u, v))), scale))
            # symmetrizing never changes the quadratic form itself
            worst = max(worst, _rel(np.max(np.abs(
                H.symmetrized().apply(u, u) - H.apply(u, u))), scale))
    assert worst <= 1e-13
    dt = time.perf_counter() - t0
    assert dt < 5.0
    _ok(1, "tensor identities: permutations exact, mixed worst %.2e, %.2fs"
        % (worst, dt))


def test_02_solver_residuals():
    t0 = time.perf_counter()
    rng = rng_for(1002)
    worst_l = 0.0
    for n in (20, 80, 200):
        A = random_stable_qb(n, 1, 1, rng, with_hessian=False).A
        G = rng.standard_normal((n, n))
        Q = G @ G.T
        X = solve_lyapunov(A, Q)
        res = np.linalg.norm(A @ X + X @ A.T + Q) / np.linalg.norm(Q)
        worst_l = max(worst_l, res)
    assert worst_l <= 1e-9

    n = 200
    A = random_stable_qb(n, 1, 1, rng, with_hessian=False).A
    worst_s = 0.0
    for r in (7, 40):
        lam = -spectral_decompose(
            random_stable_qb(r, 1, 1, rng, with_hessian=False).A).lam
        Rhs = rng.standard_normal((n, r))
        for E in (None, np.eye(n) + 0.1 * rng.standard_normal((n, n)) / n):
            V = solve_sylvester_shifted(A, lam, Rhs, E=E)
            Emat = np.eye(n) if E is None else E
            res = np.linalg.norm(Emat @ V * lam[None, :] + A @ V + Rhs)
            worst_s = max(worst_s, res / np.linalg.norm(Rhs))
    assert worst_s <= 1e-9

    worst_e = 0.0
    for r in (5, 17, 40):
        Ahat = random_stable_qb(r, 1, 1, rng, with_hessian=False).A
        f = spectral_decompose(Ahat)
        rec = (f.R * f.lam[None, :]) @ f.Rinv
        worst_e = max(worst_e, np.linalg.norm(rec.real - Ahat)
                      / np.linalg.norm(Ahat))
        assert np.max(np.abs(rec.imag)) <= 1e-9 * np.linalg.norm(Ahat)
    assert worst_e <= 1e-9
    dt = time.perf_counter() - t0
    assert dt < 30.0
    _ok(2, "solver residuals: lyap %.2e, sylvester %.2e, spectral %.2e, %.2fs"
        % (worst_l, worst_s, worst_e, dt))


def test_03_trace_dualities():
    rng = rng_for(1003)
    worst_t = 0.0
    worst_q = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 21))
        m = int(rng.integers(1, 4))
        p = int(rng.integers(1, 4))
        sys = random_stable_qb(n, m, p, rng)
        g = truncated_gramians(sys)
        tc = float(np.trace(sys.C @ lifted(g, "P_T") @ sys.C.T))
        to = float(np.trace(sys.B.T @ lifted(g, "Q_T") @ sys.B))
        worst_t = max(worst_t, _rel(abs(tc - to), max(abs(tc), abs(to))))
        P, Q, _ = quadratic_gramians(sys)
        qc = float(np.trace(sys.C @ P @ sys.C.T))
        qo = float(np.trace(sys.B.T @ Q @ sys.B))
        worst_q = max(worst_q, _rel(abs(qc - qo), max(abs(qc), abs(qo))))
    assert worst_t <= 1e-7
    assert worst_q <= 1e-6
    _ok(3, "trace dualities on 50 systems: truncated %.2e, quadratic %.2e"
        % (worst_t, worst_q))


def test_04_norm_against_quadrature():
    t0 = time.perf_counter()
    rng = rng_for(1004)
    worst = 0.0
    for i in range(10):
        n = int(rng.integers(1, 5))
        m = 1 + i % 2
        p = 1 + (i // 2) % 2
        sys = random_stable_qb(n, m, p, rng)
        val = truncated_h2_norm(sys)
        ref = np.sqrt(quadrature_h2_squared(sys))
        worst = max(worst, _rel(abs(val - ref), ref))
    assert worst <= 1e-6
    dt = time.perf_counter() - t0
    assert dt < 120.0
    _ok(4, "norm vs kernel quadrature on 10 systems: worst %.2e, %.2fs"
        % (worst, dt))


def _hessian_routes(sys, V, W):
    G = W.T @ V
    r1 = np.linalg.solve(G, W.T @ sys.H.apply_kron(V, V))
    r2 = np.linalg.solve(G, sys.H.congruence(V, W))
    r3 = np.linalg.solve(G, W.T @ (sys.H.mode1() @ np.kron(V, V)))
    return r1, r2, r3


def test_05_reduced_hessian_routes_agree():
    rng = rng_for(1005)
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(2, 9))
        r = int(rng.integers(1, min(n, 3) + 1))
        sys = random_stable_qb(n, 1, 1, rng,
                               nterms=int(rng.integers(1, 4))
                               if rng.integers(2) else None)
        V = rng.standard_normal((n, r))
        W = V + 0.1 * rng.standard_normal((n, r))
        r1, r2, r3 = _hessian_routes(sys, V, W)
        scale = max(np.max(np.abs(r1)), 1e-300)
        worst = max(worst, _rel(np.max(np.abs(r1 - r2)), scale))
        worst = max(worst, _rel(np.max(np.abs(r1 - r3)), scale))
        red = project(sys, V, W)
        sym = Hessian.dense(r1).symmetrized().mode1()
        worst = max(worst, _rel(np.max(np.abs(red.H.mode1() - sym)), scale))

    sys = chafee_infante(50)
    rng2 = rng_for(1055)
    V, _ = np.linalg.qr(rng2.standard_normal((sys.n, 5)))
    W, _ = np.linalg.qr(rng2.standard_normal((sys.n, 5)))
    r1, r2, r3 = _hessian_routes(sys, V, W)
    scale = max(np.max(np.abs(r1)), 1e-300)
    worst = max(worst, _rel(np.max(np.abs(r1 - r2)), scale))
    worst = max(worst, _rel(np.max(np.abs(r1 - r3)), scale))
    assert worst <= 1e-12
    _ok(5, "reduced quadratic term, three routes: worst gap %.2e" % worst)


def _transfer_and_slope(A, B, C, s):
    X = np.linalg.solve(s * np.eye(A.shape[0]) - A, B)
    G = C @ X
    Gd = -C @ np.linalg.solve(s * np.eye(A.shape[0]) - A, X)
    return G, Gd


def test_06_linear_degeneration_hermite():
    rng = rng_for(1006)
    n = 10
    base = random_stable_qb(n, 1, 1, rng, with_hessian=False)
    lin = QBSystem(A=base.A, H=Hessian.zero(n), N=[np.zeros((n, n))],
                   B=base.B, C=base.C)
    cfg = IrkaConfig(r=2, tol=1e-11, maxit=500, seed=0)
    red, _, report = tqb_irka(lin, cfg)
    assert report.converged
    sigma = -spectral_decompose(red.A).lam
    worst_g = 0.0
    worst_d = 0.0
    for s in sigma:
        G, Gd = _transfer_and_slope(lin.A, lin.B, lin.C, s)
        Gr, Grd = _transfer_and_slope(red.A, red.B, red.C, s)
        worst_g = max(worst_g, _rel(abs(G[0, 0] - Gr[0, 0]), abs(G[0, 0])))
        worst_d = max(worst_d, _rel(abs(Gd[0, 0] - Grd[0, 0]), abs(Gd[0, 0])))
    assert worst_g <= 1e-6
    assert worst_d <= 1e-6
    rep = optimality_residuals(lin, red, solve_bases(lin, red))
    assert rep.E_C <= 1e-8 and rep.E_B <= 1e-8 and rep.E_lambda <= 1e-8
    _ok(6, "linear degeneration: transfer %.2e, slope %.2e, residuals "
        "%.1e/%.1e/%.1e" % (worst_g, worst_d, rep.E_C, rep.E_B, rep.E_lambda))


def test_07_flagship_reduction(chafee100, irka100):
    t0 = time.perf_counter()
    red, report, wall_irka = irka100
    assert report.converged
    assert report.iterations <= 30

    scaled_sys = rescale(chafee100, 0.01)
    scaled_red = red.rescaled(0.01)
    rep = optimality_residuals(scaled_sys, scaled_red,
                               solve_bases(scaled_sys, scaled_red))
    vals = [rep.E_C, rep.E_B, rep.E_N, rep.E_H, rep.E_lambda]
    assert max(vals) <= 1e-6

    means = []
    for kind, cap in (("ci_u1", 1e-2), ("ci_u2", 5e-2)):
        u = input_signal(kind)
        yf = simulate(chafee100, u, 10.0, 201, rtol=1e-5, atol=1e-7)
        yr = simulate(red, u, 10.0, 201, rtol=1e-5, atol=1e-7)
        mean_rel, _ = output_errors(yf, yr)
        assert mean_rel <= cap
        means.append(mean_rel)
    dt = time.perf_counter() - t0 + wall_irka
    assert dt < 300.0
    _ok(7, "flagship n=200 -> r=10: %d iters, residual max %.2e, output "
        "errors %.2e/%.2e, %.1fs" % (report.iterations, max(vals), means[0],
                                     means[1], dt))


def test_08_lifted_constraint_residual():
    results = []
    for sysk, k, rows, kind in ((chafee_infante(30), 30, slice(30, 60),
                                 "ci_u1"),
                                (fitzhugh_nagumo(24), 24, slice(48, 72),
                                 "fhn_i0_sin")):
        u = input_signal(kind)
        tr = simulate(sysk, u, 10.0, 201, rtol=1e-7, atol=1e-9,
                      store_states=True)
        v = tr.states[:k]
        lifted = tr.states[rows]
        res = np.max(np.abs(lifted - v * v)) / (1.0 + np.max(v * v))
        assert res <= 1e-6
        results.append(res)
    _ok(8, "lifted square stays consistent: %.2e (reaction-diffusion), "
        "%.2e (excitable medium)" % tuple(results))


def test_09_balancing_comparison_and_order_sweep(chafee100, irka100):
    red_irka, _, _ = irka100
    red_bt, _ = balanced_truncation(chafee100, 10, gamma=0.01)
    assert np.max(np.linalg.eigvals(red_bt.A).real) < 0.0
    err_irka = truncated_h2_error(chafee100, red_irka)
    err_bt = truncated_h2_error(chafee100, red_bt)
    assert err_bt <= 10.0 * err_irka

    sys50 = chafee_infante(50)
    errs = []
    for r in range(2, 11):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", QbmorWarning)
            init = balanced_truncation(sys50, r, gamma=0.01)[0]
            cfg = IrkaConfig(r=r, tol=1e-5, maxit=100, gamma=0.01,
                             init=init)
            red_r, _, _ = tqb_irka(sys50, cfg)
        errs.append(truncated_h2_error(sys50, red_r))
    steps = len(errs) - 1
    violations = sum(1 for a, b in zip(errs, errs[1:]) if b > 1.1 * a)
    assert violations <= int(0.10 * steps)
    _ok(9, "balancing: err %.3e vs iterative %.3e (x%.2f), order sweep "
        "%d/%d violations" % (err_bt, err_irka, err_bt / err_irka,
                              violations, steps))


def _run_cli(args):
    # the subprocess imports the same qbmor as this test, installed or not
    src = os.path.dirname(os.path.dirname(os.path.abspath(qbmor.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([_sys.executable, "-m", "qbmor.cli"] + args,
                          capture_output=True,
                          env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0, proc.stderr.decode()
    return proc.stdout


def _dir_bytes(path):
    return {f.name: f.read_bytes() for f in sorted(path.iterdir())}


def test_10_cli_determinism(tmp_path):
    sys_dir = tmp_path / "sys"
    red_dir = tmp_path / "red"
    cmds = [
        ["generate", "chafee", "--k", "10", "--out-dir", str(sys_dir)],
        ["reduce", str(sys_dir), "--method", "tqb-irka", "--r", "4",
         "--gamma", "0.01", "--seed", "1", "--out-dir", str(red_dir)],
        ["report", str(sys_dir), str(red_dir), "--what", "h2err"],
    ]
    outs = [_run_cli(c) for c in cmds]
    snap_sys = _dir_bytes(sys_dir)
    snap_red = _dir_bytes(red_dir)
    outs2 = [_run_cli(c) for c in cmds]
    assert outs == outs2
    assert _dir_bytes(sys_dir) == snap_sys
    assert _dir_bytes(red_dir) == snap_red
    _ok(10, "repeated CLI runs byte-identical: %d commands, %d files"
        % (len(cmds), len(snap_sys) + len(snap_red)))
