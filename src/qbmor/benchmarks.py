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
    A_vv = np.diag(main) + np.diag(off, 1) + np.diag(off, -1) + np.eye(k)
    A = np.zeros((n, n))
    A[:k, :k] = A_vv
    # d(v_j^2)/dt picks twice the diagonal linear coefficient
    A[k:, k:] = np.diag(2.0 * np.diag(A_vv))

    rows = np.arange(k)
    ones = np.ones(k)
    # v rows: -v_j * w_j closes the cubic term
    P1 = sp.csr_matrix((ones, (rows, rows)), shape=(n, n))
    Q1 = sp.csr_matrix((-ones, (rows, k + rows)), shape=(n, n))
    # w rows: -2 w_j^2
    P2 = sp.csr_matrix((ones, (k + rows, k + rows)), shape=(n, n))
    Q2 = sp.csr_matrix((-2.0 * ones, (k + rows, k + rows)), shape=(n, n))
    # w rows: neighbor products from the diffusion stencil
    P3 = sp.csr_matrix((ones, (k + rows, rows)), shape=(n, n))
    adj_r = np.concatenate([rows[:-1], rows[1:]])
    adj_c = np.concatenate([rows[1:], rows[:-1]])
    Q3 = sp.csr_matrix((np.full(adj_r.size, 2.0 * inv_h2),
                        (k + adj_r, adj_c)), shape=(n, n))
    H = Hessian.from_pairs([(P1, Q1), (P2, Q2), (P3, Q3)], n)

    B = np.zeros((n, 1))
    B[0, 0] = inv_h2
    N1 = np.zeros((n, n))
    N1[k, 0] = 2.0 * inv_h2
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

    D2 = np.diag(np.full(k, -2.0 * inv_h2))
    D2 += np.diag(np.full(k - 1, inv_h2), 1) + np.diag(np.full(k - 1, inv_h2), -1)
    D2[0, 1] = 2.0 * inv_h2      # zero-flux ghosts at both ends
    D2[k - 1, k - 2] = 2.0 * inv_h2

    Ik = np.eye(k)
    A = np.zeros((n, n))
    A[:k, :k] = eps * D2 - (0.1 / eps) * Ik
    A[:k, k:2 * k] = -(1.0 / eps) * Ik
    A[:k, 2 * k:] = (1.1 / eps) * Ik
    A[k:2 * k, :k] = h_par * Ik
    A[k:2 * k, k:2 * k] = -gam * Ik
    A[2 * k:, 2 * k:] = np.diag(2.0 * (eps * np.diag(D2) - 0.1 / eps))

    rows = np.arange(k)
    ones = np.ones(k)
    # v rows: -(1/eps) v_j z_j closes the cubic term
    P1 = sp.csr_matrix((ones, (rows, rows)), shape=(n, n))
    Q1 = sp.csr_matrix((-ones / eps, (rows, 2 * k + rows)), shape=(n, n))
    # z rows: 2 v_j times the off-diagonal linear velocity of v_j
    Avrow = np.zeros((n, n))
    Avrow[2 * k + rows] = 2.0 * A[rows]
    Avrow[2 * k + rows, rows] = 0.0
    P2 = sp.csr_matrix((ones, (2 * k + rows, rows)), shape=(n, n))
    Q2 = sp.csr_matrix(Avrow)
    # z rows: -(2/eps) z_j^2
    P3 = sp.csr_matrix((ones, (2 * k + rows, 2 * k + rows)), shape=(n, n))
    Q3 = sp.csr_matrix((-2.0 * ones / eps, (2 * k + rows, 2 * k + rows)),
                       shape=(n, n))
    H = Hessian.from_pairs([(P1, Q1), (P2, Q2), (P3, Q3)], n)

    B = np.zeros((n, 2))
    B[0, 0] = -2.0 * eps / hg    # Neumann current enters the first v row
    B[rows, 1] = q / eps
    B[k + rows, 1] = q
    N1 = np.zeros((n, n))
    N1[2 * k, 0] = -4.0 * eps / hg
    N2 = np.zeros((n, n))
    N2[2 * k + rows, rows] = 2.0 * q / eps
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

    The integrator is scipy's Radau IIA (order 5, L-stable) on the
    system's own rhs and Jacobian, with a mass matrix folded in through one
    LU factorization. Both read the operator set the system builds once.
    Without a mass matrix a sparse Jacobian pattern (see
    `QBSystem.jacobian`) reaches Radau as a CSR array, and Radau factors
    its iteration matrices with `scipy.sparse.linalg.splu`; otherwise the
    Jacobian is dense and they are factored by dense LU. Outputs are
    sampled on `samples` equidistant points from each accepted step's
    collocation polynomial.

    `stats` holds integer counters:

    * steps: accepted steps;
    * rejected: trial steps thrown away, by the error test or by a
      simplified Newton iteration that would not converge;
    * newton_iters: simplified Newton iterations over all trial steps;
    * jacobian_factorizations, nlu: LU factorizations of the iteration
      matrices, one real and one complex per refresh;
    * nfev, njev: rhs and Jacobian evaluations;
    * jacobian_nnz: entries stored in the Jacobian handed to Radau, n^2
      when it is dense, so it tells which LU path the run took.

    Raises NewtonDivergence when the step size underflows and
    NonFiniteState when the state or the sampled outputs leave the
    representable range.
    """
    if T <= 0:
        raise ValueError("horizon must be positive")
    if samples < 2:
        raise ValueError("need at least two sample points")
    if u.m != sys.m:
        raise ValueError("signal has %d channels, system expects %d"
                         % (u.m, sys.m))
    from scipy.integrate import Radau

    x_init = np.zeros(sys.n) if x0 is None else np.asarray(x0, dtype=float)
    # E^{-1} H would be n x n^2, so E is applied by solves, never inverted
    lu_E = None if sys.E is None else sla.lu_factor(sys.E)
    evals = []                      # times f was evaluated at in one step

    def f(t, x):
        evals.append(t)
        out = sys.rhs(x, u(t), t)
        return out if lu_E is None else sla.lu_solve(lu_E, out,
                                                      check_finite=False)

    def jac(t, x):
        J = sys.jacobian(x, u(t))
        if lu_E is not None:
            J = sla.lu_solve(lu_E, J, check_finite=False)
        if not np.all(np.isfinite(J.data if sp.issparse(J) else J)):
            raise NonFiniteState("Jacobian became non-finite at t=%.6g" % t)
        return J

    tq = np.linspace(0.0, T, samples)
    states = np.empty((sys.n, samples))
    states[:, 0] = x_init
    done = 1
    steps = rejected = newton_iters = 0
    with np.errstate(all="ignore"):
        solver = Radau(f, 0.0, x_init, T, rtol=rtol, atol=atol, jac=jac)
        if not np.all(np.isfinite(solver.f)):
            raise NonFiniteState("rhs is non-finite at the initial state")
        while solver.status == "running":
            t0 = solver.t
            evals.clear()
            message = solver.step()
            if solver.status == "failed":
                raise NewtonDivergence("step size underflow at t=%.6g: %s"
                                       % (t0, message))
            if not np.all(np.isfinite(solver.y)):
                raise NonFiniteState("state became non-finite at t=%.6g"
                                     % solver.t)
            # Each Newton iteration evaluates f at the collocation nodes
            # t0 + c h, the last (c = 1) at its trial's end; a rejection may
            # add one error re-estimate at t0; the accepted end comes last.
            nodes = [tv for tv in evals[:-1] if tv != t0]
            ends = nodes[2::3]
            steps += 1
            newton_iters += len(ends)
            rejected += sum(bool(a != b) for a, b in zip(ends, ends[1:]))
            stop = int(np.searchsorted(tq, solver.t, side="right"))
            if stop > done:
                states[:, done:stop] = solver.dense_output()(tq[done:stop])
                done = stop
    outputs = sys.C @ states
    if not np.all(np.isfinite(outputs)):
        raise NonFiniteState("sampled outputs are non-finite")
    stats = {"steps": steps, "rejected": rejected,
             "newton_iters": newton_iters,
             "jacobian_factorizations": solver.nlu,
             "nfev": solver.nfev, "njev": solver.njev, "nlu": solver.nlu,
             "jacobian_nnz": int(solver.J.nnz if sp.issparse(solver.J)
                                 else solver.J.size)}
    return Trajectory(times=tq, outputs=outputs,
                      states=states if store_states else None, stats=stats)


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
