"""Dense spectral, Lyapunov and shifted-Sylvester solvers.

All solvers are dense and deterministic on a fixed machine. Lyapunov
solves against one coefficient share its real Schur form and run the
recursive blocked Bartels-Stewart algorithm of Jonsson and Kagstrom
(RECSY, ACM TOMS 2002): almost all of their flops are matrix-matrix
products, and LAPACK trsyl solves only blocks of side at most 64. Sylvester
equations with a diagonal right coefficient are solved column by column;
a full Kronecker system is never formed. Shifted solves with one pencil
share a ``shifted_lu`` form: one LU per distinct shift, used by the V
solves with A + lam E and by the W solves with its transpose, a real LU
for a real shift, and no factorization for a conjugate partner.
"""

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from qbmor.errors import (
    NonDiagonalizable, NotStable, SolverBreakdown, SingularShift,
    PairingViolation,
)

_EIGVEC_COND_LIMIT = 1e12
# largest block side handed to LAPACK trsyl by the blocked Lyapunov solve
_TRSYL_LEAF = 64
# real part given to a purely imaginary eigenvalue by reflect_unstable
_EPS_SHIFT = 1e-8


@dataclass
class SpectralFactors:
    """Eigendecomposition A = R diag(lam) Rinv with a fixed eigenvalue order."""
    R: np.ndarray
    lam: np.ndarray
    Rinv: np.ndarray


def spectral_decompose(Ahat):
    """Diagonalize a real square matrix with a deterministic eigenvalue order.

    This is the one place that decides which eigenvalues are real. LAPACK
    returns each non-real eigenvalue of a real matrix in an exact conjugate
    pair (bit-equal real parts, bit-negated imaginary parts, conjugate
    eigenvector columns), positive imaginary part first. Sorting by
    (real part, |imaginary part|, LAPACK pair, imaginary part) keeps each
    pair adjacent with its negative imaginary part first, also when pairs
    share a real part or repeat. The rule every consumer reads: lam[i] is
    real iff lam[i].imag == 0.0; otherwise lam[i+1] == conj(lam[i]),
    R[:, i+1] == conj(R[:, i]) and Rinv[i+1] == conj(Rinv[i]), the last
    set exactly rather than left to the rounding of inv(R).
    PairingViolation is raised if the sorted output breaks the rule.
    """
    Ahat = np.asarray(Ahat, dtype=float)
    lam, R = sla.eig(Ahat)
    cond = np.linalg.cond(R)
    if not np.isfinite(cond) or cond > _EIGVEC_COND_LIMIT:
        raise NonDiagonalizable("eigenvector matrix condition %.3e exceeds "
                                "%.1e" % (cond, _EIGVEC_COND_LIMIT))
    # index of each pair's first (positive) member in LAPACK's order
    pair = np.arange(lam.size) - (lam.imag < 0.0)
    order = np.lexsort((lam.imag, pair, np.abs(lam.imag), lam.real))
    lam = lam[order]
    R = R[:, order]
    Rinv = np.linalg.inv(R)
    i = 0
    while i < lam.size:
        if lam[i].imag == 0.0:
            i += 1
            continue
        if i + 1 == lam.size or lam[i + 1] != np.conj(lam[i]):
            raise PairingViolation("eigenvalue %r has no adjacent conjugate "
                                   "partner" % (lam[i],))
        Rinv[i + 1] = np.conj(Rinv[i])
        i += 2
    return SpectralFactors(R=R, lam=lam, Rinv=Rinv)


@dataclass
class HurwitzSchur:
    """Real Schur form A = Z T Z^T of a matrix with every Re(eig) < 0."""
    T: np.ndarray
    Z: np.ndarray


def hurwitz_schur(A):
    """Real Schur form of A, checked for stability.

    In LAPACK's standardized real Schur form a 2x2 block carries the real
    part of its conjugate pair on both diagonal entries, so diag(T) holds
    the real part of every eigenvalue.
    """
    A = np.asarray(A, dtype=float)
    try:
        T, Z = sla.schur(A, output="real")
    except (np.linalg.LinAlgError, sla.LinAlgError, ValueError) as exc:
        raise SolverBreakdown("Schur factorization failed: %s" % exc) from exc
    if np.max(np.diag(T)) >= 0.0:
        raise NotStable("coefficient matrix has eigenvalue with Re >= 0")
    return HurwitzSchur(T=T, Z=Z)


def _split(T):
    """Midpoint of square T, moved by one off a 2x2 Schur block."""
    k = T.shape[0] // 2
    return k + 1 if T[k, k - 1] != 0.0 else k


def _solve_quasi_triangular(TA, TB, F, transpose):
    """Overwrite F with the Y of op(TA) Y + Y op(TB)^T = F, where TA and TB
    are upper quasi-triangular and op(T) is T, or T^T when transpose is set.

    Recursive blocked Bartels-Stewart: the larger side of Y is split, the
    half that does not depend on the other is solved first, and the other
    half's right-hand side is updated by one matrix product. Blocks of side
    at most ``_TRSYL_LEAF`` go to LAPACK trsyl. SolverBreakdown is raised
    when a block's trsyl reports nearly singular coefficients (info != 0)
    or rescales its solution to avoid overflow (scale != 1).
    """
    m, n = F.shape
    if m <= _TRSYL_LEAF and n <= _TRSYL_LEAF:
        trsyl = sla.get_lapack_funcs("trsyl", (TA, F))
        trana, tranb = ("T", "N") if transpose else ("N", "T")
        Y, scale, info = trsyl(TA, TB, F, trana=trana, tranb=tranb)
        if info != 0:
            raise SolverBreakdown("Lyapunov backend trsyl returned info=%d"
                                  % info)
        if scale != 1.0:
            raise SolverBreakdown("Lyapunov solution overflows (trsyl "
                                  "scale=%.3e)" % scale)
        F[...] = Y
    elif m >= n:
        k = _split(TA)
        A11, A12, A22 = TA[:k, :k], TA[:k, k:], TA[k:, k:]
        if transpose:
            _solve_quasi_triangular(A11, TB, F[:k], transpose)
            F[k:] -= A12.T @ F[:k]
            _solve_quasi_triangular(A22, TB, F[k:], transpose)
        else:
            _solve_quasi_triangular(A22, TB, F[k:], transpose)
            F[:k] -= A12 @ F[k:]
            _solve_quasi_triangular(A11, TB, F[:k], transpose)
    else:
        k = _split(TB)
        B11, B12, B22 = TB[:k, :k], TB[:k, k:], TB[k:, k:]
        if transpose:
            _solve_quasi_triangular(TA, B11, F[:, :k], transpose)
            F[:, k:] -= F[:, :k] @ B12
            _solve_quasi_triangular(TA, B22, F[:, k:], transpose)
        else:
            _solve_quasi_triangular(TA, B22, F[:, k:], transpose)
            F[:, :k] -= F[:, k:] @ B12.T
            _solve_quasi_triangular(TA, B11, F[:, :k], transpose)


def solve_lyapunov(A, Q, transpose=False):
    """Unique X with A X + X A^T + Q = 0 for Hurwitz A; X is symmetrized.

    A is a matrix or its ``hurwitz_schur`` form; passing the form lets
    several solves share one factorization. transpose=True solves
    A^T X + X A + Q = 0 with the same form. The steps are Bartels-Stewart:
    F = Z^T (-Q) Z, T Y + Y T^T = F (or T^T Y + Y T = F) by a recursive
    blocked solve on F in place, X = Z Y Z^T.
    """
    S = A if isinstance(A, HurwitzSchur) else hurwitz_schur(A)
    Q = np.asarray(Q, dtype=float)
    F = S.Z.T.dot((-Q).dot(S.Z))
    _solve_quasi_triangular(S.T, S.T, F, transpose)
    X = S.Z.dot(F).dot(S.Z.T)
    if not np.all(np.isfinite(X)):
        raise SolverBreakdown("Lyapunov solution contains non-finite entries")
    return 0.5 * (X + X.T)


class ShiftedLU:
    """LU factors of A + lam E, filled lazily, one per distinct shift.

    Built empty by ``shifted_lu``; ``solve_sylvester_shifted`` factors a
    shift on its first solve and reuses that factor for every later solve
    with the shift or its conjugate. ``.T`` shares the factors and solves
    with A^T + lam E^T, the plain transpose also for complex lam. A real
    shift (lam.imag == 0.0) gets a real LU.
    """

    def __init__(self, A, E, factors, trans):
        self.A = A
        self.E = E
        self._factors = factors
        self._trans = trans

    @property
    def T(self):
        return ShiftedLU(self.A, self.E, self._factors, 1 - self._trans)

    def _lu(self, lam):
        lu = self._factors.get(lam)
        if lu is None:
            real = lam.imag == 0.0
            shift = lam.real if real else lam
            if self.E is None:
                M = self.A.astype(float if real else complex)
                M.flat[::M.shape[0] + 1] += shift
            else:
                M = self.A + shift * self.E
            lu = self._factors[lam] = sla.lu_factor(M, overwrite_a=True)
        return lu

    def solve(self, lam, b):
        """x with (A + lam E) x = b, or (A^T + lam E^T) x = b on ``.T``."""
        lu = self._lu(complex(lam))
        if np.isrealobj(lu[0]):
            x = sla.lu_solve(lu, np.column_stack([b.real, b.imag]),
                             trans=self._trans, check_finite=False)
            return x[:, 0] + 1j * x[:, 1]
        return sla.lu_solve(lu, b, trans=self._trans, check_finite=False)


def shifted_lu(A, E=None):
    """Empty ``ShiftedLU`` form of A + lam E for ``solve_sylvester_shifted``."""
    return ShiftedLU(np.asarray(A, dtype=float),
                     None if E is None else np.asarray(E, dtype=float), {}, 0)


def _shifted_column(form, lam, b):
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", sla.LinAlgWarning)
            x = -form.solve(lam, b)
    except (np.linalg.LinAlgError, sla.LinAlgError, sla.LinAlgWarning,
            ValueError) as exc:
        raise SingularShift("shift %r makes A + lam E singular" % (lam,)) from exc
    if not np.all(np.isfinite(x)):
        raise SingularShift("shift %r gave a non-finite column" % (lam,))
    return x


def solve_sylvester_shifted(A, lam, Rhs, E=None):
    """Solve -E V diag(lam) - A V = Rhs column by column.

    Column i is -(A + lam_i E)^{-1} Rhs[:, i]. A is a matrix or a
    ``shifted_lu`` form (then E must be None); passing the form lets
    several solves share one factorization per distinct shift, and its
    ``.T`` solves -E^T W diag(lam) - A^T W = Rhs with the same factors.
    A real shift is factored in real arithmetic. Shifts follow the pair
    rule of ``spectral_decompose``: when lam[i].imag != 0.0 and lam[i+1]
    is exactly conj(lam[i]), the partner is never factored. Its column is
    the exact conjugate of column i when the matching Rhs columns are
    conjugate, which keeps realification exact, and otherwise
    conj(-(A + lam_i E)^{-1} conj(Rhs[:, i+1])).
    """
    if isinstance(A, ShiftedLU):
        if E is not None:
            raise ValueError("a shifted_lu form already carries E")
        form = A
    else:
        form = shifted_lu(A, E)
    lam = np.asarray(lam, dtype=complex)
    n = form.A.shape[0]
    r = lam.size
    Rhs = np.asarray(Rhs, dtype=complex).reshape(n, r)
    V = np.empty((n, r), dtype=complex)
    i = 0
    while i < r:
        V[:, i] = _shifted_column(form, lam[i], Rhs[:, i])
        if i + 1 < r and lam[i].imag != 0.0 and lam[i + 1] == np.conj(lam[i]):
            b = Rhs[:, i + 1]
            if np.allclose(b, np.conj(Rhs[:, i]), rtol=1e-12,
                           atol=1e-12 * (1.0 + np.abs(Rhs[:, i]).max())):
                V[:, i + 1] = np.conj(V[:, i])
            else:
                V[:, i + 1] = np.conj(_shifted_column(form, lam[i], np.conj(b)))
            i += 2
        else:
            i += 1
    return V


def reflect_unstable(lam):
    """Mirror right-half-plane eigenvalues and nudge purely imaginary ones
    to real part -_EPS_SHIFT.

    Both members of a conjugate pair get the same new real part, so the
    exact pair rule of ``spectral_decompose`` still holds for the output.
    """
    lam = np.asarray(lam, dtype=complex).copy()
    for i in range(lam.size):
        re = lam[i].real
        if re > 0.0:
            lam[i] = complex(-re, lam[i].imag)
        elif re == 0.0:
            lam[i] = complex(-_EPS_SHIFT, lam[i].imag)
    return lam


def realify_basis(Vc, lam):
    """Real basis with the same real span: (Re v, Im v) per conjugate pair.

    Reads the pair rule of ``spectral_decompose``: lam[i] is real iff
    lam[i].imag == 0.0, and otherwise lam[i+1] must be exactly conj(lam[i]).
    """
    Vc = np.asarray(Vc, dtype=complex)
    lam = np.asarray(lam, dtype=complex)
    n, r = Vc.shape
    out = np.empty((n, r))
    i = 0
    while i < r:
        if lam[i].imag == 0.0:
            out[:, i] = Vc[:, i].real
            i += 1
            continue
        if i + 1 >= r or lam[i + 1] != np.conj(lam[i]):
            raise PairingViolation("conjugate pair not adjacent at index %d" % i)
        out[:, i] = Vc[:, i].real
        out[:, i + 1] = Vc[:, i].imag
        i += 2
    return out
