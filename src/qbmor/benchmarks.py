"""Benchmark generators, canonical inputs, stiff simulation, error metrics.

Both generators lift a cubic reaction term through the auxiliary state
z = v * v, which turns the semi-discretized PDE into a QB system whose
trajectories keep the lift exact up to integrator tolerance.
"""

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from qbmor.errors import NewtonDivergence, NonFiniteState
from qbmor.kron_tensor import Hessian
from qbmor.qb_core import QBSystem


@dataclass(frozen=True)
class InputSignal:
    """Named input channel bundle; calling it returns u(t) in R^m."""
    kind: str
    m: int
    _fn: Callable = field(repr=False)

    def __call__(self, t):
        return self._fn(float(t))


def input_signal(kind, table=None):
    """Canonical test inputs plus a piecewise-linear table interpolant.

    Known kinds: ci_u1, ci_u2 (single channel), fhn_i0_sin, fhn_i0_bump
    (current plus a constant unit channel feeding the q terms), custom.
    """
    if kind == "ci_u1":
        return InputSignal(kind, 1,
                           lambda t: np.array([(1.0 + math.sin(math.pi * t))
                                               * math.exp(-t / 5.0)]))
    if kind == "ci_u2":
        return InputSignal(kind, 1,
                           lambda t: np.array([25.0 * (1.0 + math.sin(math.pi * t))]))
    if kind == "fhn_i0_sin":
        return InputSignal(kind, 2,
                           lambda t: np.array([50.0 * (math.sin(2.0 * math.pi * t) - 1.0),
                                               1.0]))
    if kind == "fhn_i0_bump":
        return InputSignal(kind, 2,
                           lambda t: np.array([5.0e4 * t ** 3 * math.exp(-15.0 * t),
                                               1.0]))
    if kind == "custom":
        if table is None:
            raise ValueError("custom signals need table=(times, values)")
        ts, us = table
        ts = np.asarray(ts, dtype=float)
        us = np.atleast_2d(np.asarray(us, dtype=float))
        if us.shape[0] != ts.shape[0]:
            us = us.T
        if us.shape[0] != ts.shape[0]:
            raise ValueError("table times and values disagree in length")
        m = us.shape[1]
        cols = [us[:, j].copy() for j in range(m)]
        return InputSignal(kind, m,
                           lambda t: np.array([np.interp(t, ts, col) for col in cols]))
    raise ValueError("unknown input signal %r" % kind)


def chafee_infante(k):
    """Cubic reaction-diffusion rod with Dirichlet input at the left end.

    k interior grid points on (0, 1], h = 1/k; states (v; w) with w the
    lifted square, so n = 2k. Output is v at the right end.
    """
    if k < 3:
        raise ValueError("need at least 3 grid points")
    n = 2 * k
    inv_h2 = float(k * k)

    main = np.full(k, -2.0 * inv_h2)
    main[-1] = -inv_h2           # reflecting right end via ghost elimination
    off = np.full(k - 1, inv_h2)
    A_vv = sp.diags_array([off, main + 1.0, off], offsets=[-1, 0, 1])
    # d(v_j^2)/dt picks twice the diagonal linear coefficient
    A = sp.block_diag([A_vv, sp.diags_array(2.0 * (main + 1.0))],
                      format="csr")

    rows = np.arange(k)
    ones = np.ones(k)
    # v rows: -v_j * w_j closes the cubic term
    P1 = sp.csr_array((ones, (rows, rows)), shape=(n, n))
    Q1 = sp.csr_array((-ones, (rows, k + rows)), shape=(n, n))
    # w rows: -2 w_j^2
    P2 = sp.csr_array((ones, (k + rows, k + rows)), shape=(n, n))
    Q2 = sp.csr_array((-2.0 * ones, (k + rows, k + rows)), shape=(n, n))
    # w rows: neighbor products from the diffusion stencil
    P3 = sp.csr_array((ones, (k + rows, rows)), shape=(n, n))
    adj_r = np.concatenate([rows[:-1], rows[1:]])
    adj_c = np.concatenate([rows[1:], rows[:-1]])
    Q3 = sp.csr_array((np.full(adj_r.size, 2.0 * inv_h2),
                       (k + adj_r, adj_c)), shape=(n, n))
    H = Hessian.from_pairs([(P1, Q1), (P2, Q2), (P3, Q3)], n)

    B = np.zeros((n, 1))
    B[0, 0] = inv_h2
    N1 = sp.csr_array(([2.0 * inv_h2], ([k], [0])), shape=(n, n))
    C = np.zeros((1, n))
    C[0, k - 1] = 1.0
    return QBSystem(A=A, H=H, N=[N1], B=B, C=C, label="chafee_infante_k%d" % k)


def fitzhugh_nagumo(k):
    """Spiking-neuron cable model with Neumann current injection.

    k grid points on [0, 0.3]; states (v; w; z) with z the lifted square,
    so n = 3k. Inputs are the injected current and a constant unit channel
    carrying the q offsets; outputs are v and w at the left end.
    """
    if k < 3:
        raise ValueError("need at least 3 grid points")
    eps, h_par, gam, q = 0.015, 0.5, 2.0, 0.05
    length = 0.3
    hg = length / (k - 1)
    inv_h2 = 1.0 / (hg * hg)
    n = 3 * k

    up = np.full(k - 1, inv_h2)
    low = np.full(k - 1, inv_h2)
    up[0] = low[-1] = 2.0 * inv_h2    # zero-flux ghosts at both ends
    D2 = sp.diags_array([low, np.full(k, -2.0 * inv_h2), up],
                        offsets=[-1, 0, 1])

    Ik = sp.eye_array(k)
    A_zz = sp.diags_array(2.0 * (eps * D2.diagonal() - 0.1 / eps))
    A = sp.block_array(
        [[eps * D2 - (0.1 / eps) * Ik, -(1.0 / eps) * Ik, (1.1 / eps) * Ik],
         [h_par * Ik, -gam * Ik, None],
         [None, None, A_zz]], format="csr")

    rows = np.arange(k)
    ones = np.ones(k)
    # v rows: -(1/eps) v_j z_j closes the cubic term
    P1 = sp.csr_array((ones, (rows, rows)), shape=(n, n))
    Q1 = sp.csr_array((-ones / eps, (rows, 2 * k + rows)), shape=(n, n))
    # z rows: 2 v_j times the off-diagonal linear velocity of v_j
    Av = A[:k].tocoo()
    off = Av.row != Av.col
    P2 = sp.csr_array((ones, (2 * k + rows, rows)), shape=(n, n))
    Q2 = sp.csr_array((2.0 * Av.data[off], (2 * k + Av.row[off], Av.col[off])),
                      shape=(n, n))
    # z rows: -(2/eps) z_j^2
    P3 = sp.csr_array((ones, (2 * k + rows, 2 * k + rows)), shape=(n, n))
    Q3 = sp.csr_array((-2.0 * ones / eps, (2 * k + rows, 2 * k + rows)),
                      shape=(n, n))
    H = Hessian.from_pairs([(P1, Q1), (P2, Q2), (P3, Q3)], n)

    B = np.zeros((n, 2))
    B[0, 0] = -2.0 * eps / hg    # Neumann current enters the first v row
    B[rows, 1] = q / eps
    B[k + rows, 1] = q
    N1 = sp.csr_array(([-4.0 * eps / hg], ([2 * k], [0])), shape=(n, n))
    N2 = sp.csr_array((np.full(k, 2.0 * q / eps), (2 * k + rows, rows)),
                      shape=(n, n))
    C = np.zeros((2, n))
    C[0, 0] = 1.0
    C[1, k] = 1.0
    return QBSystem(A=A, H=H, N=[N1, N2], B=B, C=C,
                    label="fitzhugh_nagumo_k%d" % k)


@dataclass
class Trajectory:
    """Sampled solution: equidistant times, outputs, optional states."""
    times: np.ndarray
    outputs: np.ndarray
    states: Optional[np.ndarray] = None
    stats: dict = field(default_factory=dict)


def simulate(sys, u, T, samples, rtol=1e-8, atol=1e-10, x0=None,
             store_states=False):
    """Integrate a QB system driven by an input signal.

    The integrator is Radau IIA (order 5, L-stable), a port of scipy's
    `Radau` that takes the same steps (`_Radau`), on the system's own rhs
    and Jacobian with a mass matrix applied to both by
    `QBSystem.solve_mass`. Both read the operator set the system builds
    once, and each simplified Newton iteration evaluates its three stages
    in one block call of `QBSystem.rhs`, on stage inputs u(t + c_i h)
    evaluated once per trial step. Without a mass matrix a sparse
    Jacobian pattern (see `QBSystem.jacobian`) is kept as a CSC array and
    the iteration matrices are factored by `scipy.sparse.linalg.splu`;
    otherwise the Jacobian is dense and they are factored and solved by
    LAPACK getrf/getrs. Outputs are sampled on `samples` equidistant
    points from each accepted step's collocation polynomial.

    `stats` holds integer counters, kept by the stepper:

    * steps: accepted steps;
    * rejected: trial steps thrown away, by the error test or by a
      simplified Newton iteration that would not converge;
    * newton_iters: simplified Newton iterations over all trial steps;
    * jacobian_factorizations, nlu: LU factorizations of the iteration
      matrices, one real and one complex per refresh;
    * nfev, njev: rhs evaluations (one per state, three per Newton
      iteration) and Jacobian evaluations;
    * jacobian_nnz: entries stored in the last Jacobian, n^2 when it is
      dense, so it tells which LU path the run took.

    Raises ValueError for a bad horizon, sample count, input width,
    tolerance or initial state (x0 must be finite and of length n),
    NewtonDivergence when the step size underflows and NonFiniteState when
    the initial rhs, a Jacobian, the state or the sampled outputs leave the
    representable range.
    """
    if T <= 0:
        raise ValueError("horizon must be positive")
    if samples < 2:
        raise ValueError("need at least two sample points")
    if u.m != sys.m:
        raise ValueError("signal has %d channels, system expects %d"
                         % (u.m, sys.m))
    if not rtol >= 100 * _EPS or not atol >= 0:
        raise ValueError("need rtol >= 100 eps and atol >= 0")
    x_init = np.zeros(sys.n) if x0 is None else np.asarray(x0, dtype=float)
    if x_init.shape != (sys.n,) or not np.all(np.isfinite(x_init)):
        raise ValueError("x0 must be a finite state of length %d" % sys.n)

    def inputs(ts):
        return np.array([u(t) for t in ts]).T

    def f(X, U):
        return sys.solve_mass(sys.rhs(X, U))

    def jac(t, x):
        J = sys.solve_mass(sys.jacobian(x, u(t)))
        if not np.all(np.isfinite(J.data if sp.issparse(J) else J)):
            raise NonFiniteState("Jacobian became non-finite at t=%.6g" % t)
        return J

    tq = np.linspace(0.0, T, samples)
    states = np.empty((sys.n, samples))
    states[:, 0] = x_init
    done = 1
    with np.errstate(all="ignore"):
        solver = _Radau(f, inputs, jac, x_init, float(T), rtol, atol)
        while solver.t < T:
            t0 = solver.t
            if not solver.step():
                raise NewtonDivergence("step size underflow at t=%.6g" % t0)
            if not np.isfinite(solver.y).all():
                raise NonFiniteState("state became non-finite at t=%.6g"
                                     % solver.t)
            stop = int(np.searchsorted(tq, solver.t, side="right"))
            if stop > done:
                states[:, done:stop] = solver.dense(tq[done:stop])
                done = stop
    outputs = sys.C @ states
    if not np.all(np.isfinite(outputs)):
        raise NonFiniteState("sampled outputs are non-finite")
    stats = {"steps": solver.steps, "rejected": solver.rejected,
             "newton_iters": solver.newton_iters,
             "jacobian_factorizations": solver.nlu,
             "nfev": solver.nfev, "njev": solver.njev, "nlu": solver.nlu,
             "jacobian_nnz": int(solver.J.nnz if sp.issparse(solver.J)
                                 else solver.J.size)}
    return Trajectory(times=tq, outputs=outputs,
                      states=states if store_states else None, stats=stats)


# Radau IIA of order 5 (Hairer and Wanner, Solving Ordinary Differential
# Equations II, Sec. IV.8), ported step for step from scipy 1.17.1,
# scipy/integrate/_ivp/radau.py and common.py (BSD-3-Clause; Copyright (c)
# 2001-2002 Enthought, Inc., 2003 SciPy Developers): the same
# tableau, T/TI transforms, simplified Newton iteration, error estimate,
# step predictor, Jacobian reuse rule, initial step and dense output, so it
# takes the steps scipy's Radau takes. It differs in four ways: the three
# stages of a Newton iteration are one block rhs call; dense iteration
# matrices are factored and solved by LAPACK getrf/getrs without scipy's
# finiteness checks, so a NaN error estimate, where scipy raises ValueError,
# rejects the step; and the stepper counts its own steps, rejections and
# Newton iterations. Integration runs forward from t = 0 with no step bound.

_S6 = 6 ** 0.5
_C = np.array([(4 - _S6) / 10, (4 + _S6) / 10, 1])
_E = np.array([-13 - 7 * _S6, -13 + 7 * _S6, -1]) / 3
# A = T diag(MU_REAL, MU_COMPLEX, conj(MU_COMPLEX)) T^{-1}, with inverse
# eigenvalues folded in: the iteration matrices are MU / h I - J
_MU_REAL = 3 + 3 ** (2 / 3) - 3 ** (1 / 3)
_MU_COMPLEX = (3 + 0.5 * (3 ** (1 / 3) - 3 ** (2 / 3))
               - 0.5j * (3 ** (5 / 6) + 3 ** (7 / 6)))
_T = np.array([
    [0.09443876248897524, -0.14125529502095421, 0.03002919410514742],
    [0.25021312296533332, 0.20412935229379994, -0.38294211275726192],
    [1, 1, 0]])
_TI = np.array([
    [4.17871859155190428, 0.32768282076106237, 0.52337644549944951],
    [-4.17871859155190428, -0.32768282076106237, 0.47662355450055044],
    [0.50287263494578682, -2.57192694985560522, 0.59603920482822492]])
_TI_REAL = _TI[0]
_TI_COMPLEX = _TI[1] + 1j * _TI[2]
# dense output: y(t_old + x h) = y_old + Q (x, x^2, x^3), Q = Z^T P
_P = np.array([
    [13 / 3 + 7 * _S6 / 3, -23 / 3 - 22 * _S6 / 3, 10 / 3 + 5 * _S6],
    [13 / 3 - 7 * _S6 / 3, -23 / 3 + 22 * _S6 / 3, 10 / 3 - 5 * _S6],
    [1 / 3, -8 / 3, 10 / 3]])
_NEWTON_MAXITER = 6
_MIN_FACTOR = 0.2
_MAX_FACTOR = 10
_EPS = float(np.finfo(float).eps)
_GETRF_GETRS = {dt: sla.get_lapack_funcs(("getrf", "getrs"), dtype=dt)
                for dt in (np.float64, np.complex128)}


def _rms(x):
    # a numpy scalar, as in scipy: the step-size arithmetic that reads it
    # turns a zero divisor into inf or nan instead of raising
    x = x.ravel()
    return np.sqrt(x.dot(x)) / x.size ** 0.5


def _predict_factor(h_abs, h_abs_old, error_norm, error_norm_old):
    """Step-size factor of Hairer and Wanner's predictive controller."""
    if error_norm == 0:
        return math.inf
    if error_norm_old is None or h_abs_old is None:
        multiplier = 1
    else:
        multiplier = h_abs / h_abs_old * (error_norm_old / error_norm) ** 0.25
    return min(1, multiplier) * error_norm ** -0.25


class _Radau:
    """Radau IIA on a block rhs fun(X, U) -> n x q and a Jacobian jac(t, y).

    inputs(ts) gives the m x q inputs U at the times ts; a simplified
    Newton iteration's stage times are fixed, so it evaluates them once.
    jac returns a dense array or a sparse one; sparse Jacobians are kept
    in CSC and factored by splu. `step` takes one accepted step and returns
    False when the step size underflows; `dense` evaluates the last step's
    collocation polynomial.
    """

    def __init__(self, fun, inputs, jac, y0, t_bound, rtol, atol):
        self._fun, self._inputs, self._jac = fun, inputs, jac
        self.t, self.y, self.t_bound = 0.0, y0, t_bound
        self.rtol, self.atol = rtol, atol
        self.steps = self.rejected = self.newton_iters = 0
        self.nfev = self.njev = self.nlu = 0
        self.f = self._fun1(0.0, y0)
        if not np.all(np.isfinite(self.f)):
            raise NonFiniteState("rhs is non-finite at the initial state")
        self.h_abs = self._initial_step()
        self.h_abs_old = self.error_norm_old = None
        self.newton_tol = max(10 * _EPS / rtol, min(0.03, rtol ** 0.5))
        self.J = self._jacobian(0.0, y0)
        n = y0.size
        self._I = (sp.eye_array(n, format="csc") if sp.issparse(self.J)
                   else np.identity(n))
        self.current_jac = True
        self.LU_real = self.LU_complex = None
        self.t_old = self.y_old = self.Q = None

    def _fun1(self, t, y):
        return self._block(y[:, None], self._inputs((t,)))[:, 0]

    def _block(self, X, U):
        self.nfev += X.shape[1]
        return self._fun(X, U)

    def _jacobian(self, t, y):
        self.njev += 1
        J = self._jac(t, y)
        return sp.csc_array(J, dtype=float) if sp.issparse(J) else J

    def _lu(self, mu, J):
        """A solver b -> (mu I - J)^{-1} b from one LU factorization."""
        self.nlu += 1
        M = mu * self._I - J
        if sp.issparse(M):
            return spla.splu(M).solve
        getrf, getrs = _GETRF_GETRS[M.dtype.type]
        lu, piv, _ = getrf(M, overwrite_a=True)
        return lambda b: getrs(lu, piv, b, overwrite_b=True)[0]

    def _initial_step(self):
        # scipy's select_initial_step for an error of order 3
        y0, f0, T = self.y, self.f, self.t_bound
        scale = self.atol + np.abs(y0) * self.rtol
        d0, d1 = _rms(y0 / scale), _rms(f0 / scale)
        h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
        h0 = min(h0, T)
        f1 = self._fun1(h0, y0 + h0 * f0)
        d2 = _rms((f1 - f0) / scale) / h0
        if d1 <= 1e-15 and d2 <= 1e-15:
            h1 = max(1e-6, h0 * 1e-3)
        else:
            h1 = (0.01 / max(d1, d2)) ** (1 / 4)
        return min(100 * h0, h1, T)

    def dense(self, ts):
        """The last accepted step's collocation polynomial at times ts."""
        x = (ts - self.t_old) / (self.t - self.t_old)
        x2 = x * x
        p = np.array([x, x2, x2 * x])
        return self.Q.dot(p) + self.y_old[:, None]

    def _newton(self, t, y, h, Z0, scale, LU_real, LU_complex):
        """Simplified Newton on the collocation system, stages in blocks.

        Returns (converged, iterations, Z, rate) like scipy's
        solve_collocation_system; Z holds the stage increments as rows.
        """
        M_real, M_complex = _MU_REAL / h, _MU_COMPLEX / h
        U = self._inputs(t + h * _C)
        W = _TI.dot(Z0)
        Z = Z0
        dW = np.empty_like(W)
        dW_norm_old = rate = None
        converged = False
        for k in range(_NEWTON_MAXITER):
            # stages as rows, laid out as scipy's F, so the products below
            # round as scipy's do
            F = self._block(y[:, None] + Z.T, U).T
            if not np.isfinite(F).all():
                break
            f_real = F.T.dot(_TI_REAL) - M_real * W[0]
            f_complex = F.T.dot(_TI_COMPLEX) - M_complex * (W[1] + 1j * W[2])
            dW_complex = LU_complex(f_complex)
            dW[0] = LU_real(f_real)
            dW[1] = dW_complex.real
            dW[2] = dW_complex.imag
            dW_norm = _rms(dW / scale)
            if dW_norm_old is not None:
                rate = dW_norm / dW_norm_old
            if rate is not None and (
                    rate >= 1 or rate ** (_NEWTON_MAXITER - k) / (1 - rate)
                    * dW_norm > self.newton_tol):
                break
            W += dW
            Z = _T.dot(W)
            if dW_norm == 0 or (rate is not None and rate / (1 - rate)
                                * dW_norm < self.newton_tol):
                converged = True
                break
            dW_norm_old = dW_norm
        self.newton_iters += k + 1
        return converged, k + 1, Z, rate

    def step(self):
        """One accepted step; False when the step size underflows."""
        t, y, f = self.t, self.y, self.f
        min_step = 10 * (math.nextafter(t, math.inf) - t)
        if self.h_abs < min_step:
            h_abs, h_abs_old, error_norm_old = min_step, None, None
        else:
            h_abs, h_abs_old = self.h_abs, self.h_abs_old
            error_norm_old = self.error_norm_old
        J, LU_real, LU_complex = self.J, self.LU_real, self.LU_complex
        current_jac = self.current_jac
        rejected = False
        while True:
            if h_abs < min_step:
                return False
            t_new = min(t + h_abs, self.t_bound)
            h = h_abs = t_new - t
            if self.Q is None:
                Z0 = np.zeros((3, y.size))
            else:
                Z0 = self.dense(t + h * _C).T - y
            scale = self.atol + np.abs(y) * self.rtol
            while True:
                if LU_real is None or LU_complex is None:
                    LU_real = self._lu(_MU_REAL / h, J)
                    LU_complex = self._lu(_MU_COMPLEX / h, J)
                converged, n_iter, Z, rate = self._newton(
                    t, y, h, Z0, scale, LU_real, LU_complex)
                if converged or current_jac:
                    break
                J = self._jacobian(t, y)
                current_jac = True
                LU_real = LU_complex = None
            if not converged:
                h_abs *= 0.5
                LU_real = LU_complex = None
                self.rejected += 1
                continue
            y_new = y + Z[-1]
            ZE = Z.T.dot(_E) / h
            error = LU_real(f + ZE)
            scale = self.atol + np.maximum(np.abs(y), np.abs(y_new)) * self.rtol
            error_norm = _rms(error / scale)
            safety = 0.9 * (2 * _NEWTON_MAXITER + 1) / (2 * _NEWTON_MAXITER
                                                        + n_iter)
            if rejected and error_norm > 1:
                error = LU_real(self._fun1(t, y + error) + ZE)
                error_norm = _rms(error / scale)
            if error_norm <= 1:
                break
            factor = _predict_factor(h_abs, h_abs_old, error_norm,
                                     error_norm_old)
            h_abs *= max(_MIN_FACTOR, safety * factor)
            LU_real = LU_complex = None
            rejected = True
            self.rejected += 1

        recompute_jac = n_iter > 2 and rate > 1e-3
        factor = _predict_factor(h_abs, h_abs_old, error_norm, error_norm_old)
        factor = min(_MAX_FACTOR, safety * factor)
        if not recompute_jac and factor < 1.2:
            factor = 1
        else:
            LU_real = LU_complex = None
        f_new = self._fun1(t_new, y_new)
        if recompute_jac:
            J = self._jacobian(t_new, y_new)
        current_jac = recompute_jac

        self.h_abs_old, self.error_norm_old = self.h_abs, error_norm
        self.h_abs = h_abs * factor
        self.t_old, self.y_old = t, y
        self.t, self.y, self.f = t_new, y_new, f_new
        self.J, self.LU_real, self.LU_complex = J, LU_real, LU_complex
        self.current_jac = current_jac
        self.Q = Z.T.dot(_P)
        self.steps += 1
        return True


def output_errors(y, yhat):
    """Mean and worst-case relative output error on a shared grid.

    Both are normalized by the peak output norm of the reference, so a
    reference that is identically zero only matches a zero prediction.
    """
    if y.times.shape != yhat.times.shape or not np.allclose(
            y.times, yhat.times, rtol=1e-12, atol=1e-12):
        raise ValueError("trajectory grids do not match")
    diff = np.linalg.norm(y.outputs - yhat.outputs, axis=0)
    denom = float(np.linalg.norm(y.outputs, axis=0).max())
    if denom == 0.0:
        if diff.max() == 0.0:
            return 0.0, 0.0
        return math.inf, math.inf
    return float(diff.mean() / denom), float(diff.max() / denom)


def to_csv(traj, path):
    """Write (t, y_1..y_p) rows with 17 significant digits."""
    p = traj.outputs.shape[0]
    header = "t," + ",".join("y_%d" % (j + 1) for j in range(p))
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for i, t in enumerate(traj.times):
            row = [t] + [traj.outputs[j, i] for j in range(p)]
            fh.write(",".join("%.17g" % v for v in row) + "\n")
