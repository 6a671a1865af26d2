"""Truncated and quadratic Gramians plus the H2-type norms built on them.

The truncated pair (P_T, Q_T) extends the linear Gramians by the quadratic
and bilinear source terms; the quadratic pair (P, Q) is the fixed point of
the Picard iteration on the full quadratic-type Lyapunov equations. No
source term forms an explicit n^2 x n^2 Kronecker product. The truncated
sources are evaluated through factors from LAPACK's pivoted Cholesky, in
O(n^2 rho) rather than an O(n^3) eigendecomposition, truncated to the
numerical rank rho, so H(L (x) L) costs n x rho(rho+1)/2 in its distinct
columns, not n x n^2; factoring a Gramian also checks its PSD floor. Each
linear Gramian, seed and source factor is freed after its last use. The
Picard sources are formed from each iterate itself, with no factor
(``Hessian.kron_gram`` and ``Hessian.mode2_gram``), so no truncation
enters the fixed point. All Lyapunov solves of one Gramian set are given
the Schur form A = Z T Z^T, cached on the system (``QBSystem.schur``), so
they work in its basis: the seeds enter as Z^T B and C Z, the sources as
Z^T S Z, the Gramians are held as Z^T X Z, and they are lifted back by Z
for the source terms. Z is block diagonal over the decoupled blocks of A
(``hurwitz_schur``), and every basis change goes through the form's
methods, block by block. The truncated Gramians stay in that basis
(``GramianBundle``); the quadratic pair is returned in the original
coordinates. A mass matrix E is folded into A, B and the sources through
`QBSystem.solve_mass`, never into H: the equations are those of E^{-1}A,
E^{-1}B, E^{-1}H and E^{-1}N_k.
"""

import warnings

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from qbmor.errors import (
    IndefiniteGramian, NoConvergence, NumericalError, SolverBreakdown,
)
from qbmor.kron_tensor import Hessian
from qbmor.qb_core import QBSystem
from qbmor.matrix_equations import HurwitzSchur, solve_lyapunov

# Picard budget of quadratic_gramians: relative step tolerance and steps
_PICARD_TOL = 1e-10
_PICARD_MAXIT = 50


def _lift(S, X):
    """Z X Z^T of the form S, symmetrized: a Schur-basis Gramian in the
    original coordinates."""
    X = S.lift(X)
    return 0.5 * (X + X.T)


class GramianBundle:
    """Truncated Gramians (P_T, Q_T) of a QB system; not the linear ones.

    Held in the Schur basis Z of A (of E^{-1}A with a mass matrix), whose
    ``hurwitz_schur`` form is ``basis``: ``schur[name]`` is Z^T X Z, and
    ``basis.lift`` gives X = Z (Z^T X Z) Z^T. ``factors["P_T"]`` and
    ``factors["Q_T"]`` are the rank-truncated factors L of Z^T P_T Z and
    Z^T Q_T Z (see `_psd_sqrt`), taken once when the bundle is built.
    """

    def __init__(self, basis, P_T, Q_T, L_P, L_Q):
        self.basis = basis
        self.schur = {"P_T": P_T, "Q_T": Q_T}
        self.factors = {"P_T": L_P, "Q_T": L_Q}


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
    del C
    w, V = np.linalg.eigh(F.T @ F)
    top = w.max(initial=0.0)
    R = F @ F.T
    res = np.linalg.norm(np.subtract(X, R, out=R))
    del R
    # top - res bounds the largest eigenvalue of X from below
    if res > 1e-10 * (top - res):
        return _eig_sqrt(X, what)
    keep = w > n * _EPS * max(top, 1e-300)
    return F @ V[:, keep]


def _gram(factors, form):
    """Z^T (sum of F F^T over the factors, in their order) Z, given the
    ``hurwitz_schur`` form of a basis Z; a generator of factors makes each
    one just before it is summed, and it is dropped just after.

    A factor narrower than 2n is moved into the basis (3 n^2 k flops with
    a dense Z), a wider one's product is (n^2 k + 4 n^3); a block-diagonal
    Z costs its blocks' share.
    """
    S = None
    for F in factors:
        if F.shape[1] < 2 * F.shape[0]:
            F = form.left(F, transpose=True)
            part = F @ F.T
        else:
            part = form.congruence(F @ F.T)
        S = part if S is None else np.add(S, part, out=S)
        del F, part  # before the next factor is made
    return S


def _quadratic_source(sys, L, form, seed):
    """Z^T [H(P (x) P) H^T + sum_k N_k P N_k^T + B B^T] Z for P = L L^T,
    without P (x) P, given the seed factor B and the form of a basis Z;
    with a mass matrix, the factors are E^{-1}[H(L (x) L), N_k L] and the
    seed is E^{-1}B. H(L (x) L) is read through its distinct columns."""
    def factors():
        yield sys.solve_mass(sys.H.apply_kron_distinct(L))
        for Nk in sys.N:
            yield sys.solve_mass(Nk @ L)
        yield seed
    return _gram(factors(), form)


def _observability_source(sys, LP, LQ, form, seed):
    """Z^T [H^(2)(P (x) Q)(H^(2))^T + sum_k N_k^T Q N_k + C^T C] Z for
    P = LP LP^T and Q = LQ LQ^T, given the seed factor C^T and the form of
    a basis Z; with a mass matrix, LQ is E^{-T} LQ."""
    def factors():
        MQ = sys.solve_mass(LQ, transpose=True)
        yield sys.H.apply_kron_mode2(LP, MQ)
        for Nk in sys.N:
            yield Nk.T @ MQ
        yield seed
    return _gram(factors(), form)


def _linear_seed(sys, observability=False):
    """Z^T E^{-1}B B^T E^{-T} Z, or Z^T C^T C Z with observability: the
    seed of a linear Gramian in the basis Z of ``sys.schur()``."""
    S = sys.schur()
    F = (S.right(sys.C).T if observability
         else S.left(sys.solve_mass(sys.B), transpose=True))
    return F @ F.T


def _linear_gramian(sys, observability=False):
    """Z^T P_l Z, or Z^T Q_l Z with observability, in the basis Z of
    ``sys.schur()``; the seed lives only for the solve."""
    return solve_lyapunov(sys.schur(), _linear_seed(sys, observability),
                          transpose=observability)


def truncated_gramians(sys):
    """Truncated Gramians of a stable QB system, in the Schur basis of A
    (see ``GramianBundle``); a linear Gramian is dropped once factored."""
    S = sys.schur()
    # factoring a Gramian also checks it for indefiniteness
    L_P = S.left(_psd_sqrt(_linear_gramian(sys), "P_l"))
    L_Q = S.left(_psd_sqrt(_linear_gramian(sys, True), "Q_l"))
    P_T = solve_lyapunov(S, _quadratic_source(sys, L_P, S,
                                              sys.solve_mass(sys.B)))
    Q_T = solve_lyapunov(S, _observability_source(sys, L_P, L_Q, S, sys.C.T),
                         transpose=True)
    return GramianBundle(S, P_T, Q_T, _psd_sqrt(P_T, "P_T"),
                         _psd_sqrt(Q_T, "Q_T"))


def _controllability_gram(sys, P):
    """E^{-1}[H(P (x) P)H^T + sum_k N_k P N_k^T]E^{-T} for a symmetric P,
    formed from P itself (``Hessian.kron_gram``)."""
    F = sys.H.kron_gram(P)
    for Nk in sys.N:
        F += Nk @ (Nk @ P).T
    return sys.solve_mass(sys.solve_mass(F).T).T


def _observability_gram(sys, gram2, Q):
    """H^(2)(P (x) Q')(H^(2))^T + sum_k N_k^T Q' N_k for a symmetric Q and
    Q' = E^{-T} Q E^{-1}, where gram2 = ``sys.H.mode2_gram(P)``."""
    Q = sys.solve_mass(sys.solve_mass(Q, transpose=True).T, transpose=True).T
    F = gram2(Q)
    for Nk in sys.N:
        F += Nk.T @ (Nk.T @ Q).T
    return F


def quadratic_gramians(sys):
    """Fixed points of the quadratic-type Lyapunov equations.

    Picard iteration seeded at the linear Gramians, run in the Schur basis
    of A, within the module's budget (_PICARD_TOL, _PICARD_MAXIT). Each
    iterate's source is formed from the iterate itself, lifted to the
    original coordinates, with no factor and no Kronecker product:
    H(P (x) P)H^T by ``Hessian.kron_gram`` and H^(2)(P (x) Q)(H^(2))^T by
    ``Hessian.mode2_gram`` of the converged P; with a mass matrix Q enters
    as E^{-T} Q E^{-1}. Divergence usually means the quadratic and
    bilinear parts are too large; rescale the system first. Returns (P, Q,
    (iterations_P, iterations_Q)), P and Q in the original coordinates.
    """
    S = sys.schur()

    def picard(source, transpose, what):
        seed = _linear_seed(sys, transpose)  # alive for this iteration only
        X = solve_lyapunov(S, seed, transpose=transpose)  # linear Gramian
        for it in range(1, _PICARD_MAXIT + 1):
            F = S.congruence(source(_lift(S, X))) + seed
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
            if delta <= _PICARD_TOL * max(nrm, 1e-300):
                return X, it
        raise NoConvergence("%s iteration did not settle in %d steps; rescale"
                            " the system" % (what, _PICARD_MAXIT))

    P, it_p = picard(lambda P: _controllability_gram(sys, P), False,
                     "controllability")
    P = _lift(S, P)
    gram2 = sys.H.mode2_gram(P)
    Q, it_q = picard(lambda Q: _observability_gram(sys, gram2, Q), True,
                     "observability")
    return P, _lift(S, Q), (it_p, it_q)


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
    S = g.basis
    t_c, _ = _dual_traces(S.left(sys.solve_mass(sys.B), transpose=True),
                          S.right(sys.C), g.schur["P_T"], g.schur["Q_T"],
                          1e-7, "truncated")
    return float(np.sqrt(t_c))


def h2_norm(sys):
    """H2 norm through the converged quadratic Gramians."""
    P, Q, _ = quadratic_gramians(sys)
    t_c, _ = _dual_traces(sys.solve_mass(sys.B), sys.C, P, Q, 1e-6,
                          "quadratic")
    return float(np.sqrt(t_c))


def _embed_pairs(h, lead, trail):
    """Factor pairs of h as the diagonal block between `lead` and `trail`
    zero rows and columns; every factor stays sparse. A factor's CSR
    arrays are reused: its column indices shifted by `lead`, its row
    pointers padded by `lead` zero and `trail` full rows."""
    def embed(F):
        F = sp.csr_array(F)
        ptr = F.indptr
        indptr = np.concatenate([np.zeros(lead, ptr.dtype), ptr,
                                 np.full(trail, ptr[-1], ptr.dtype)])
        size = lead + F.shape[0] + trail
        return sp.csr_array((F.data, F.indices + lead, indptr),
                            shape=(size, size))
    return [(embed(L), embed(R)) for L, R in h.pairs]


def _block_diag(M, Mr):
    """blkdiag(M, Mr), a CSR array when M is sparse and dense otherwise."""
    if sp.issparse(M):
        return sp.block_diag([M, Mr], format="csr")
    return sla.block_diag(M, Mr.toarray() if sp.issparse(Mr) else Mr)


def _mass(sys):
    """sys.E, or the identity, sparse when A is."""
    if sys.E is None and sp.issparse(sys.A):
        return sp.eye_array(sys.n, format="csr")
    return np.eye(sys.n) if sys.E is None else sys.E


def error_system(sys, red):
    """Augmented system whose output is the output error of the pair.

    The quadratic map acts blockwise: rows in the full part see only the
    full state, rows in the reduced part only the reduced state, so it is
    stored as structured factor pairs and never densified. A, the N_k and
    the mass matrix blkdiag(E, E_r), with I for a missing E and absent when
    both are, are sparse when the full system's are. Its Schur form is
    that of blkdiag(E^{-1}A, E_r^{-1}A_r): the blocks of ``sys.schur()``,
    cached on sys, and those of ``red.schur()``, their rows offset by n,
    so the full model's blocks are factored once for every model compared
    with it. Both forms are taken here, so NotStable is raised unless both
    systems are stable.
    """
    n, r = sys.n, red.n
    if sys.m != red.m or sys.p != red.p:
        raise ValueError("input/output dimensions of the pair do not match")
    ntot = n + r
    Ae = _block_diag(sys.A, red.A)
    Be = np.vstack([sys.B, red.B])
    Ce = np.hstack([sys.C, -red.C])
    Ne = [_block_diag(Nk, Nhk) for Nk, Nhk in zip(sys.N, red.N)]
    Ee = (None if sys.E is None and red.E is None
          else _block_diag(_mass(sys), _mass(red)))
    pairs = _embed_pairs(sys.H, 0, r) + _embed_pairs(red.H, n, 0)
    He = Hessian.from_pairs(pairs, ntot,
                            symmetric=sys.H.symmetric and red.H.symmetric)
    schur = HurwitzSchur(
        [(b.idx, b.Z, b.T) for b in sys.schur().blocks]
        + [(np.arange(n, ntot)[b.idx], b.Z, b.T) for b in red.schur().blocks])
    return QBSystem(Ae, He, Ne, Be, Ce, E=Ee, label="error", schur=schur)


def truncated_h2_error(sys, red):
    """Truncated H2 norm of the output error system of (sys, red)."""
    return truncated_h2_norm(error_system(sys, red))
