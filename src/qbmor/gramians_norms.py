"""Truncated and quadratic Gramians plus the H2-type norms built on them.

The truncated pair (P_T, Q_T) extends the linear Gramians by the quadratic
and bilinear source terms; the quadratic pair (P, Q) is the fixed point of
the Picard iteration on the full quadratic-type Lyapunov equations. Source
terms are always evaluated through factored square roots, never through an
explicit n^2 x n^2 Kronecker product. The factors come from LAPACK's
pivoted Cholesky in O(n^2 rho), not from an O(n^3) eigendecomposition, and
are rank-truncated: a direction of X is kept only when its eigenvalue
exceeds n * eps * max|w|, so a Gramian of numerical rank rho costs
n x rho(rho+1)/2 in the distinct columns of H(L (x) L), not n x n^2.
Factoring a Gramian also checks it against its PSD floor. All Lyapunov
solves of one Gramian set share the Schur form A = Z T Z^T (the eigenbasis
of a symmetric A) and work in its basis: the seeds enter as Z^T B and
C Z, the sources as Z^T S Z, the Gramians are held as Z^T X Z and
factored there, and one n x rho product with Z lifts a factor back for the
source terms. Only the Gramians a caller reads are moved back to the
original coordinates. A mass matrix E is folded into A, B and the n x rho
source factors through `QBSystem.solve_mass`, never into H: the equations
are those of E^{-1}A, E^{-1}B, E^{-1}H and E^{-1}N_k.
"""

import warnings

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from qbmor.errors import (
    IndefiniteGramian, NoConvergence, NumericalError, SolverBreakdown,
)
from qbmor.kron_tensor import Hessian
from qbmor.qb_core import QBSystem, _dense
from qbmor.matrix_equations import hurwitz_schur, solve_lyapunov


def _lift(Z, X):
    """Z X Z^T, symmetrized: a Schur-basis Gramian in original coordinates."""
    X = Z @ X @ Z.T
    return 0.5 * (X + X.T)


class GramianBundle:
    """Linear (P_l, Q_l) and truncated (P_T, Q_T) Gramians of a QB system.

    Held in the Schur basis Z of A (of E^{-1}A with a mass matrix):
    ``schur[name]`` is Z^T X Z. Reading the attribute P_l, Q_l, P_T or Q_T
    gives X = Z (Z^T X Z) Z^T in the original coordinates, formed on the
    first read. ``factors["P_T"]`` and ``factors["Q_T"]`` are the
    rank-truncated factors L of Z^T P_T Z and Z^T Q_T Z (see `_psd_sqrt`),
    taken once when the bundle is built.
    """

    def __init__(self, Z, P_l, Q_l, P_T, Q_T, L_P, L_Q):
        self.Z = Z
        self.schur = {"P_l": P_l, "Q_l": Q_l, "P_T": P_T, "Q_T": Q_T}
        self.factors = {"P_T": L_P, "Q_T": L_Q}
        self._original = {}

    def _get(self, name):
        if name not in self._original:
            self._original[name] = _lift(self.Z, self.schur[name])
        return self._original[name]

    P_l = property(lambda self: self._get("P_l"))
    Q_l = property(lambda self: self._get("Q_l"))
    P_T = property(lambda self: self._get("P_T"))
    Q_T = property(lambda self: self._get("Q_T"))


_PSTRF = sla.get_lapack_funcs("pstrf", dtype=np.float64)
_EPS = np.finfo(float).eps


def _eig_sqrt(X, what):
    """_psd_sqrt by eigendecomposition, for an X its residual cannot clear."""
    w, U = np.linalg.eigh(X)
    top = max(np.abs(w).max(), 1e-300)
    if w.min() < -1e-10 * top:
        warnings.warn("%s has negative eigenvalue %.3e beyond the PSD floor"
                      % (what, w.min()), IndefiniteGramian)
    keep = w > w.size * _EPS * top
    return U[:, keep] * np.sqrt(w[keep])


def _psd_sqrt(X, what):
    """Rank-truncated factor L with L L^T ~= X, checked against the PSD
    floor: an eigenvalue below -1e-10 * max|w| warns IndefiniteGramian.

    Pivoted Cholesky (LAPACK pstrf) gives X ~= F F^T, stopping once every
    diagonal entry of the Schur complement left is below eps/10 * max
    diag(X): for a PSD X that complement is PSD, so what it drops sums to
    at most a tenth of the truncation threshold below. F is rotated onto
    the eigenvectors of the rho x rho matrix F^T F, and a direction is kept
    only when its eigenvalue w exceeds n * eps * max|w|, so L has as many
    columns as X has numerical rank. Weyl's inequality bounds the smallest
    eigenvalue of X below by -||X - F F^T||_F, about n * eps * max|w| for
    a PSD X, far above the floor; only when that bound cannot clear the
    floor is X eigendecomposed, so the warning fires exactly when an
    eigendecomposition would have it.
    """
    n = X.shape[0]
    tol = 0.1 * _EPS * np.diag(X).max(initial=0.0)
    C, piv, rank, _ = _PSTRF(X, tol=tol, lower=1)
    F = np.empty((n, rank))
    F[piv - 1] = np.tril(C[:, :rank])
    w, V = np.linalg.eigh(F.T @ F)
    top = w.max(initial=0.0)
    res = np.linalg.norm(X - F @ F.T)
    # top - res bounds the largest eigenvalue of X from below
    if res > 1e-10 * (top - res):
        return _eig_sqrt(X, what)
    keep = w > n * _EPS * max(top, 1e-300)
    return F @ V[:, keep]


def _gram(factors, Z):
    """The sum of F F^T over the factors, or of Z^T F F^T Z given a basis Z.

    A factor narrower than 2n is moved into the basis (3 n^2 k flops),
    a wider one's product is (n^2 k + 4 n^3).
    """
    S = None
    for F in factors:
        if Z is None:
            part = F @ F.T
        elif F.shape[1] < 2 * F.shape[0]:
            G = Z.T @ F
            part = G @ G.T
        else:
            part = Z.T @ (F @ F.T) @ Z
        if S is None:
            S = part
        else:
            S += part
    return S


def _quadratic_source(sys, L, Z=None, seed=None):
    """H(P (x) P) H^T + sum_k N_k P N_k^T for P = L L^T, without P (x) P;
    with a mass matrix, the factors are E^{-1}[H(L (x) L), N_k L]. H(L (x) L)
    is read through its distinct columns. Given the seed factor E^{-1}B,
    B B^T is added; given a basis Z, the sum is Z^T S Z."""
    K = sys.solve_mass(sys.H.apply_kron_distinct(L))
    factors = [K] + [sys.solve_mass(Nk @ L) for Nk in sys.N]
    return _gram(factors + ([] if seed is None else [seed]), Z)


def _observability_source(sys, LP, LQ, Z=None, seed=None):
    """H2-mode source H^(2)(P (x) Q)(H^(2))^T + sum_k N_k^T Q N_k for
    P = LP LP^T and Q = LQ LQ^T; with a mass matrix, LQ is E^{-T} LQ.
    Given the seed factor C^T, C^T C is added; given a basis Z, the sum is
    Z^T S Z."""
    LQ = sys.solve_mass(LQ, transpose=True)
    factors = ([sys.H.apply_kron_mode2(LP, LQ)]
               + [Nk.T @ LQ for Nk in sys.N])
    return _gram(factors + ([] if seed is None else [seed]), Z)


def _linear_gramians(sys):
    """Z, the form of its basis, E^{-1}B, and Z^T P_l Z and Z^T Q_l Z.

    Z is the Schur basis of E^{-1}A; the seeds enter as the factors
    Z^T E^{-1}B and C Z.
    """
    S = hurwitz_schur(sys.solve_mass(sys.A))
    Z, S = S.Z, S.in_schur_basis()
    B = sys.solve_mass(sys.B)
    Bs, Cs = Z.T @ B, sys.C @ Z
    return (Z, S, B, solve_lyapunov(S, Bs @ Bs.T),
            solve_lyapunov(S, Cs.T @ Cs, transpose=True))


def truncated_gramians(sys):
    """Linear and truncated Gramians of a stable QB system, in the Schur
    basis of A (see ``GramianBundle``)."""
    Z, S, B, P_l, Q_l = _linear_gramians(sys)
    # factoring a Gramian also checks it for indefiniteness
    L_P = Z @ _psd_sqrt(P_l, "P_l")
    L_Q = Z @ _psd_sqrt(Q_l, "Q_l")
    P_T = solve_lyapunov(S, _quadratic_source(sys, L_P, Z, B))
    Q_T = solve_lyapunov(S, _observability_source(sys, L_P, L_Q, Z, sys.C.T),
                         transpose=True)
    return GramianBundle(Z, P_l, Q_l, P_T, Q_T, _psd_sqrt(P_T, "P_T"),
                         _psd_sqrt(Q_T, "Q_T"))


def quadratic_gramians(sys, tol=1e-10, maxit=50):
    """Fixed points of the quadratic-type Lyapunov equations.

    Picard iteration seeded at the linear Gramians, run in the Schur basis
    of A. Divergence usually means the quadratic and bilinear parts are
    too large; rescale the system first. Returns (P, Q, (iterations_P,
    iterations_Q)), P and Q in the original coordinates.
    """
    Z, S, B, P_l, Q_l = _linear_gramians(sys)

    def picard(X, rhs, transpose, what):
        for it in range(1, maxit + 1):
            F = rhs(X)
            if not np.all(np.isfinite(F)):
                raise NoConvergence("%s iteration diverged (non-finite source);"
                                    " rescale the system" % what)
            try:
                Xn = solve_lyapunov(S, F, transpose=transpose)
            except SolverBreakdown as exc:
                raise NoConvergence("%s iteration broke the solver; rescale "
                                    "the system" % what) from exc
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
        P_l, lambda X: _quadratic_source(
            sys, Z @ _psd_sqrt(X, "controllability iterate"), Z, B),
        False, "controllability")
    L_P = Z @ _psd_sqrt(P, "controllability factor")
    Q, it_q = picard(
        Q_l, lambda X: _observability_source(
            sys, L_P, Z @ _psd_sqrt(X, "observability iterate"), Z,
            sys.C.T),
        True, "observability")
    return _lift(Z, P), _lift(Z, Q), (it_p, it_q)


def _dual_traces(B, C, P_like, Q_like, rel, what):
    """tr(C P C^T) and tr(B^T Q B), checked to agree; B is E^{-1}B. Both
    traces and the floor's Frobenius norms are the same in any orthonormal
    basis, so Schur-basis Gramians are read with C Z and Z^T B."""
    t_c = float(np.trace(C @ P_like @ C.T))
    t_o = float(np.trace(B.T @ Q_like @ B))
    scale = max(abs(t_c), abs(t_o))
    # near-total cancellation (error system of an accurate reduced model)
    # leaves traces at rounding level; the duality check needs an absolute
    # floor proportional to that level or it would compare noise with noise
    floor = 1e-12 * max(
        np.linalg.norm(C) ** 2 * np.linalg.norm(P_like),
        np.linalg.norm(B) ** 2 * np.linalg.norm(Q_like), 1e-300)
    if abs(t_c - t_o) > rel * scale + floor:
        raise NumericalError("%s trace duality violated: %.17g vs %.17g"
                             % (what, t_c, t_o))
    # clip tiny negative traces from rounding
    return max(t_c, 0.0), max(t_o, 0.0)


def truncated_h2_norm(sys):
    """H2-type norm from the first three Volterra kernels.

    The controllability and observability routes are both evaluated and must
    agree to 1e-7 relative; the controllability value is returned. The
    traces are read in the Schur basis of the Gramians.
    """
    g = truncated_gramians(sys)
    t_c, _ = _dual_traces(g.Z.T @ sys.solve_mass(sys.B), sys.C @ g.Z,
                          g.schur["P_T"], g.schur["Q_T"], 1e-7, "truncated")
    return float(np.sqrt(t_c))


def h2_norm(sys, tol=1e-10, maxit=50):
    """H2 norm through the converged quadratic Gramians."""
    P, Q, _ = quadratic_gramians(sys, tol=tol, maxit=maxit)
    t_c, _ = _dual_traces(sys.solve_mass(sys.B), sys.C, P, Q, 1e-6,
                          "quadratic")
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
