"""Truncated and quadratic Gramians plus the H2-type norms built on them.

The truncated pair (P_T, Q_T) extends the linear Gramians by the quadratic
and bilinear source terms; the quadratic pair (P, Q) is the fixed point of
the Picard iteration on the full quadratic-type Lyapunov equations. Source
terms are always evaluated through factored square roots, never through an
explicit n^2 x n^2 Kronecker product. The factors are rank-truncated: an
eigenpair of X is kept only when its eigenvalue exceeds n * eps * max|w|,
so a Gramian of numerical rank rho costs n x rho^2 in H(L (x) L), not
n x n^2. All Lyapunov solves of one Gramian set share the real Schur form
of A. A mass matrix E is folded into A, B and the n x rho source factors
through `QBSystem.solve_mass`, never into H: the equations are those of
E^{-1}A, E^{-1}B, E^{-1}H and E^{-1}N_k.
"""

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from qbmor.errors import (
    IndefiniteGramian, NoConvergence, NumericalError, SolverBreakdown,
)
from qbmor.kron_tensor import Hessian
from qbmor.qb_core import QBSystem, _dense
from qbmor.matrix_equations import hurwitz_schur, solve_lyapunov


@dataclass
class GramianBundle:
    P_l: np.ndarray
    Q_l: np.ndarray
    P_T: np.ndarray
    Q_T: np.ndarray


def _psd_sqrt(X, what):
    """Rank-truncated factor L with L L^T ~= X, by eigendecomposition.

    Only eigenpairs with w > n * eps * max|w| are kept, so L has as many
    columns as X has numerical rank; a negative eigenvalue beyond the PSD
    floor warns.
    """
    w, U = np.linalg.eigh(X)
    top = max(np.abs(w).max(), 1e-300)
    if w.min() < -1e-10 * top:
        warnings.warn("%s has negative eigenvalue %.3e beyond the PSD floor"
                      % (what, w.min()), IndefiniteGramian)
    keep = w > w.size * np.finfo(float).eps * top
    return U[:, keep] * np.sqrt(w[keep])


def _quadratic_source(sys, L):
    """H(P (x) P) H^T + sum_k N_k P N_k^T for P = L L^T, without P (x) P;
    with a mass matrix, the factors are E^{-1}[H(L (x) L), N_k L]."""
    K = sys.solve_mass(sys.H.apply_kron(L, L))
    S = K @ K.T
    for Nk in sys.N:
        NL = sys.solve_mass(Nk @ L)
        S += NL @ NL.T
    return S


def _observability_source(sys, LP, LQ):
    """H2-mode source H^(2)(P (x) Q)(H^(2))^T + sum_k N_k^T Q N_k for
    P = LP LP^T and Q = LQ LQ^T; with a mass matrix, LQ is E^{-T} LQ."""
    LQ = sys.solve_mass(LQ, transpose=True)
    K = sys.H.apply_kron_mode2(LP, LQ)
    S = K @ K.T
    for Nk in sys.N:
        NL = Nk.T @ LQ
        S += NL @ NL.T
    return S


def _check_psd(X, what):
    w = np.linalg.eigvalsh(X)
    if w.min() < -1e-10 * max(np.abs(w).max(), 1e-300):
        warnings.warn("%s is indefinite: min eigenvalue %.3e" % (what, w.min()),
                      IndefiniteGramian)


def truncated_gramians(sys):
    """Linear and truncated Gramians of a stable QB system."""
    B = sys.solve_mass(sys.B)
    S = hurwitz_schur(sys.solve_mass(sys.A))
    P_l = solve_lyapunov(S, B @ B.T)
    Q_l = solve_lyapunov(S, sys.C.T @ sys.C, transpose=True)
    # factoring P_l and Q_l also checks them for indefiniteness
    L_P = _psd_sqrt(P_l, "P_l")
    L_Q = _psd_sqrt(Q_l, "Q_l")
    P_T = solve_lyapunov(S, _quadratic_source(sys, L_P) + B @ B.T)
    Q_T = solve_lyapunov(S, _observability_source(sys, L_P, L_Q)
                         + sys.C.T @ sys.C, transpose=True)
    for X, name in ((P_T, "P_T"), (Q_T, "Q_T")):
        _check_psd(X, name)
    return GramianBundle(P_l=P_l, Q_l=Q_l, P_T=P_T, Q_T=Q_T)


def quadratic_gramians(sys, tol=1e-10, maxit=50):
    """Fixed points of the quadratic-type Lyapunov equations.

    Picard iteration seeded at the linear Gramians. Divergence usually means
    the quadratic and bilinear parts are too large; rescale the system first.
    Returns (P, Q, (iterations_P, iterations_Q)).
    """
    B = sys.solve_mass(sys.B)
    BBt = B @ B.T
    CtC = sys.C.T @ sys.C
    S = hurwitz_schur(sys.solve_mass(sys.A))

    def picard(seed_rhs, source, transpose, what):
        X = solve_lyapunov(S, seed_rhs, transpose=transpose)
        for it in range(1, maxit + 1):
            src = source(X)
            if not np.all(np.isfinite(src)):
                raise NoConvergence("%s iteration diverged (non-finite source);"
                                    " rescale the system" % what)
            try:
                Xn = solve_lyapunov(S, src + seed_rhs, transpose=transpose)
            except SolverBreakdown as exc:
                raise NoConvergence("%s iteration broke the solver; rescale "
                                    "the system" % what) from exc
            if not np.all(np.isfinite(Xn)):
                raise NoConvergence("%s iteration produced non-finite values;"
                                    " rescale the system" % what)
            with np.errstate(over="ignore"):  # overflow is caught below
                delta = np.linalg.norm(Xn - X)
                nrm = np.linalg.norm(Xn)
            X = Xn
            if not (np.isfinite(delta) and np.isfinite(nrm)):
                raise NoConvergence("%s iteration diverged (norm overflow); "
                                    "rescale the system" % what)
            if delta <= tol * max(nrm, 1e-300):
                return X, it
        raise NoConvergence("%s iteration did not settle in %d steps; rescale"
                            " the system" % (what, maxit))

    P, it_p = picard(
        BBt, lambda X: _quadratic_source(
            sys, _psd_sqrt(X, "controllability iterate")),
        False, "controllability")
    L_P = _psd_sqrt(P, "controllability factor")
    Q, it_q = picard(
        CtC, lambda X: _observability_source(
            sys, L_P, _psd_sqrt(X, "observability iterate")),
        True, "observability")
    return P, Q, (it_p, it_q)


def _dual_traces(sys, P_like, Q_like, rel, what):
    B = sys.solve_mass(sys.B)
    t_c = float(np.trace(sys.C @ P_like @ sys.C.T))
    t_o = float(np.trace(B.T @ Q_like @ B))
    scale = max(abs(t_c), abs(t_o))
    # near-total cancellation (error system of an accurate reduced model)
    # leaves traces at rounding level; the duality check needs an absolute
    # floor proportional to that level or it would compare noise with noise
    floor = 1e-12 * max(
        np.linalg.norm(sys.C) ** 2 * np.linalg.norm(P_like),
        np.linalg.norm(B) ** 2 * np.linalg.norm(Q_like), 1e-300)
    if abs(t_c - t_o) > rel * scale + floor:
        raise NumericalError("%s trace duality violated: %.17g vs %.17g"
                             % (what, t_c, t_o))
    # clip tiny negative traces from rounding
    return max(t_c, 0.0), max(t_o, 0.0)


def truncated_h2_norm(sys):
    """H2-type norm from the first three Volterra kernels.

    The controllability and observability routes are both evaluated and must
    agree to 1e-7 relative; the controllability value is returned.
    """
    g = truncated_gramians(sys)
    t_c, _ = _dual_traces(sys, g.P_T, g.Q_T, 1e-7, "truncated")
    return float(np.sqrt(t_c))


def h2_norm(sys, tol=1e-10, maxit=50):
    """H2 norm through the converged quadratic Gramians."""
    P, Q, _ = quadratic_gramians(sys, tol=tol, maxit=maxit)
    t_c, _ = _dual_traces(sys, P, Q, 1e-6, "quadratic")
    return float(np.sqrt(t_c))


def _embed_pairs(h, lead, trail):
    """Factor pairs of h as the diagonal block between `lead` and `trail`
    zero rows and columns; every factor stays sparse."""
    def embed(F):
        return sp.csr_array(sp.block_diag(
            [sp.csr_array((lead, lead)), F, sp.csr_array((trail, trail))]))
    return [(embed(L), embed(R)) for L, R in h.to_pairs().pairs]


def error_system(sys, red):
    """Augmented system whose output is the output error of the pair.

    The quadratic map acts blockwise: rows in the full part see only the
    full state, rows in the reduced part only the reduced state, so it is
    stored as structured factor pairs and never densified. A, the N_k and
    the mass matrix blkdiag(E, I_r) (absent when sys has none) are dense,
    as the Gramian path that reads them is.
    """
    n, r = sys.n, red.r
    if sys.m != red.m or sys.p != red.p:
        raise ValueError("input/output dimensions of the pair do not match")
    ntot = n + r
    Ae = sla.block_diag(_dense(sys.A), red.A)
    Be = np.vstack([sys.B, red.B])
    Ce = np.hstack([sys.C, -red.C])
    Ne = [sla.block_diag(_dense(Nk), Nhk) for Nk, Nhk in zip(sys.N, red.N)]
    Ee = None if sys.E is None else sla.block_diag(_dense(sys.E), np.eye(r))
    pairs = _embed_pairs(sys.H, 0, r) + _embed_pairs(red.H, n, 0)
    He = Hessian.from_pairs(pairs, ntot,
                            symmetric=sys.H.symmetric and red.H.symmetric)
    return QBSystem(Ae, He, Ne, Be, Ce, E=Ee, label="error")


def truncated_h2_error(sys, red):
    """Truncated H2 norm of the output error system of (sys, red)."""
    return truncated_h2_norm(error_system(sys, red))
