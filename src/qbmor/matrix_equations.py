"""Spectral, Lyapunov and shifted-Sylvester solvers.

All solvers are deterministic on a fixed machine, and all but the shifted
solves of a sparse pencil and the block split of a Lyapunov coefficient
are dense. Lyapunov solves against one coefficient share its real Schur
form, taken block by block: the coefficient is split into the connected
components of its symmetric pattern, read from a sparse matrix before
anything is densified, and each component is factored by itself. An
exactly symmetric block takes its eigenbasis, where T is diagonal, and
all 1 x 1 blocks share the identity basis; a Lyapunov solve divides
wherever both blocks of a pair are diagonal. A nonsymmetric block runs
the recursive blocked Lyapunov recursion of Jonsson and Kagstrom (RECSY,
ACM TOMS 2002), which solves only the upper off-diagonal blocks of the
symmetric solution by the blocked Bartels-Stewart Sylvester recursion:
almost all of their flops are matrix-matrix products, and LAPACK trsyl
solves only blocks of side at most 64. A pair of blocks that includes a
nonsymmetric one is one Sylvester solve by that recursion. A connected
coefficient is the one-block case. A Lyapunov solve given the form works
on Schur coordinates and changes no basis; given a matrix, it wraps that
solve in the two basis changes.
Sylvester equations with a diagonal right coefficient are solved
on a ``shifted_lu`` form of the pencil A + lam E; a full Kronecker system
is never formed. All shifts of one shift vector are factored at once: one
factorization over the distinct real shifts, in real arithmetic, and one
over the distinct complex shifts that lead a conjugate pair, none for a
partner. The factors serve the V solves with A + lam E and, with
``transpose``, the W solves with its transpose. A sparse pencil's shifts
are factored as one block-diagonal matrix by SuperLU
(``scipy.sparse.linalg.splu``), a dense one's as one batch by LAPACK.
"""

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from qbmor.errors import (
    NonDiagonalizable, NotStable, SolverBreakdown, SingularShift,
    PairingViolation,
)

_EIGVEC_COND_LIMIT = 1e12
# largest block side handed to LAPACK trsyl by the blocked Lyapunov solve
_TRSYL_LEAF = 64
# real part given to a purely imaginary eigenvalue by reflect_unstable
_EPS_SHIFT = 1e-8
# a pattern filling at most this share of n^2 is factored by splu, here and
# in Radau's iteration matrix (qb_core). There splu loses to dense LU on
# chafee_infante at n = 60 (fill 0.066), is within 5 % on fitzhugh_nagumo
# there, and wins on both from n = 100 (fill 0.04) up. Per shift of A + lam I
# on chafee_infante (one complex factorization, one solve and one transposed
# solve, one BLAS thread) splu ties at n = 60 (fill 0.033; 181 against
# 174 us) and wins 2x at n = 100 (fill 0.02) and 10x at n = 200 (fill 0.01).
_SPARSE_FILL = 1.0 / 20.0


@dataclass
class SpectralFactors:
    """Eigendecomposition A = R diag(lam) Rinv with a fixed eigenvalue order."""
    R: np.ndarray
    lam: np.ndarray
    Rinv: np.ndarray


def conjugate_pairs(lam, strict=True):
    """Index arrays (real, lead, partner): the one walk of the pair rule.

    From i = 0, lam[i] is real iff lam[i].imag == 0.0; otherwise i leads,
    and i + 1 is its partner, skipped past, iff lam[i + 1] == conj(lam[i]).
    Greedy, so [a, conj(a), a, conj(a)] pairs (0, 1) and (2, 3), not 1 with
    2. A lead without a partner raises PairingViolation when strict and
    otherwise stands alone.
    """
    real, lead, partner = [], [], []
    i = 0
    while i < lam.size:
        if lam[i].imag == 0.0:
            real.append(i)
        else:
            lead.append(i)
            if i + 1 < lam.size and lam[i + 1] == np.conj(lam[i]):
                partner.append(i + 1)
                i += 1
            elif strict:
                raise PairingViolation("lam[%d] = %r has no adjacent "
                                       "conjugate partner" % (i, lam[i]))
        i += 1
    return tuple(np.array(ix, dtype=np.intp) for ix in (real, lead, partner))


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
    _, lead, partner = conjugate_pairs(lam)
    Rinv[partner] = Rinv[lead].conj()
    return SpectralFactors(R=R, lam=lam, Rinv=Rinv)


@dataclass
class SchurBlock:
    """One decoupled block of a ``HurwitzSchur`` form.

    idx holds the rows (and columns) of A in the block, as a slice when
    they are contiguous, and seg its rows in Schur coordinates. Z is the
    block's orthogonal basis, None for the identity. T is either 1-D, the
    eigenvalues of a diagonal block, or 2-D, an upper quasi-triangular
    real Schur factor.
    """
    idx: "slice | np.ndarray"
    seg: slice
    Z: "np.ndarray | None"
    T: np.ndarray


def _as_slice(idx):
    """idx as a slice when it is a contiguous ascending run."""
    if isinstance(idx, slice):
        return idx
    idx = np.asarray(idx, dtype=np.intp)
    if idx.size and idx[-1] - idx[0] == idx.size - 1 \
            and np.all(np.diff(idx) == 1):
        return slice(int(idx[0]), int(idx[-1]) + 1)
    return idx


class HurwitzSchur:
    """Real Schur form A = Z T Z^T of a matrix with every Re(eig) < 0,
    held by the decoupled blocks of A.

    Built from (idx, Z_i, T_i) per block (see ``SchurBlock``): Z is Z_i on
    the rows idx_i and the block's columns and zero elsewhere, and T is
    blkdiag(T_i). Schur coordinates list the blocks with the diagonal ones
    first, so that the eigenvalues ``d`` of all diagonal blocks fill the
    leading ``nd`` coordinates, and Lyapunov solves divide there. The
    basis changes Z F, Z^T F, F Z, F Z^T, Z^T X Z and Z Y Z^T go block by
    block.
    """

    def __init__(self, blocks):
        blocks = sorted(blocks, key=lambda b: np.ndim(b[2]) == 2)
        self.blocks = []
        start = 0
        for idx, Z, T in blocks:
            k = len(T)
            self.blocks.append(SchurBlock(_as_slice(idx),
                                          slice(start, start + k), Z, T))
            start += k
        self.n = start
        diag = [b.T for b in self.blocks if b.T.ndim == 1]
        self.d = np.concatenate(diag) if diag else np.zeros(0)
        self.nd = self.d.size

    def left(self, F, transpose=False):
        """Z F, or Z^T F with transpose."""
        out = np.empty(F.shape, dtype=np.result_type(F, float))
        for b in self.blocks:
            src, dst = (b.idx, b.seg) if transpose else (b.seg, b.idx)
            X = F[src]
            out[dst] = X if b.Z is None else (b.Z.T if transpose else b.Z) @ X
        return out

    def right(self, F, transpose=False):
        """F Z, or F Z^T with transpose."""
        out = np.empty(F.shape, dtype=np.result_type(F, float))
        for b in self.blocks:
            src, dst = (b.seg, b.idx) if transpose else (b.idx, b.seg)
            X = F[:, src]
            out[:, dst] = X if b.Z is None else X @ (b.Z.T if transpose
                                                     else b.Z)
        return out

    def congruence(self, X):
        """Z^T X Z, formed as (Z^T X) Z: X in Schur coordinates."""
        return self.right(self.left(X, transpose=True))

    def lift(self, Y):
        """Z Y Z^T, formed as (Z Y) Z^T: Y in the original coordinates."""
        return self.right(self.left(Y), transpose=True)


def _pattern(A):
    """Row, column and value of every nonzero entry of a dense or sparse A."""
    if sp.issparse(A):
        P = sp.coo_array(A)
        keep = P.data != 0.0
        return P.row[keep], P.col[keep], P.data[keep]
    rows, cols = np.nonzero(A)
    return rows, cols, A[rows, cols]


def hurwitz_schur(A):
    """Real Schur form of A by its decoupled blocks, checked for stability.

    A is split into the connected components of the pattern of
    |A| + |A^T|, read from the stored entries of a sparse A; only each
    component's own square block is densified. All 1 x 1 components make
    one diagonal block with the identity basis. A block equal to its
    transpose entry for entry is factored by ``eigh`` (a diagonal block of
    its ascending eigenvalues), any other by ``schur``; in LAPACK's
    standardized real Schur form a 2x2 block carries the real part of its
    conjugate pair on both diagonal entries, so the diagonal of T holds
    the real part of every eigenvalue either way. The eigenvalues ascend
    within each block, not across blocks. A connected A is one block.
    """
    # imported here, not with the module: its extension modules add about
    # 1 MB of resident memory to every process, and only this path uses it
    from scipy.sparse.csgraph import connected_components

    if not sp.issparse(A):
        A = np.asarray(A, dtype=float)
    n = A.shape[0]
    rows, cols, vals = _pattern(A)
    if not np.all(np.isfinite(vals)):
        raise SolverBreakdown("coefficient matrix has non-finite entries")
    count, label = connected_components(
        sp.coo_array((np.ones(rows.size), (rows, cols)), shape=(n, n)),
        directed=False)
    sizes = np.bincount(label, minlength=count)
    comps = np.split(np.argsort(label, kind="stable"), np.cumsum(sizes)[:-1])
    single = np.flatnonzero(sizes[label] == 1)
    blocks = []
    if single.size:
        d = (A.diagonal() if sp.issparse(A) else np.diag(A))[single]
        blocks.append((single, None, d))
    for idx in comps:
        if idx.size == 1:
            continue
        idx = _as_slice(idx)
        if sp.issparse(A):
            M = A[idx][:, idx].toarray()
        else:
            M = A[idx, idx] if isinstance(idx, slice) else A[np.ix_(idx, idx)]
        try:
            if np.array_equal(M, M.T):
                d, Z = sla.eigh(M)
                blocks.append((idx, Z, d))
            else:
                T, Z = sla.schur(M, output="real")
                blocks.append((idx, Z, T))
        except (np.linalg.LinAlgError, sla.LinAlgError, ValueError) as exc:
            raise SolverBreakdown("Schur factorization failed: %s"
                                  % exc) from exc
    S = HurwitzSchur(blocks)
    top = max(np.max(b.T if b.T.ndim == 1 else np.diag(b.T))
              for b in S.blocks)
    if top >= 0.0:
        raise NotStable("coefficient matrix has eigenvalue with Re >= 0")
    return S


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


def _solve_lyapunov_quasi_triangular(T, F, transpose):
    """Overwrite symmetric F with the symmetric Y of
    op(T) Y + Y op(T)^T = F, T upper quasi-triangular, op as above.

    RECSY's Lyapunov recursion: T is split, the diagonal block of Y that
    does not depend on the others is solved first (Y22, or Y11 with
    transpose), then the off-diagonal block Y12 by one
    ``_solve_quasi_triangular``, then the other diagonal block after a
    symmetric update. Only the upper block Y12 is solved, so the work is
    about half that of the Sylvester recursion on the same F.
    """
    n = F.shape[0]
    if n <= _TRSYL_LEAF:
        _solve_quasi_triangular(T, T, F, transpose)
        return
    k = _split(T)
    T11, T12, T22 = T[:k, :k], T[:k, k:], T[k:, k:]
    Y11, Y12, Y22 = F[:k, :k], F[:k, k:], F[k:, k:]
    if transpose:
        _solve_lyapunov_quasi_triangular(T11, Y11, transpose)
        Y12 -= Y11 @ T12
        _solve_quasi_triangular(T11, T22, Y12, transpose)
        U = T12.T @ Y12
        Y22 -= U + U.T
        _solve_lyapunov_quasi_triangular(T22, Y22, transpose)
    else:
        _solve_lyapunov_quasi_triangular(T22, Y22, transpose)
        Y12 -= T12 @ Y22
        _solve_quasi_triangular(T11, T22, Y12, transpose)
        U = T12 @ Y12.T
        Y11 -= U + U.T
        _solve_lyapunov_quasi_triangular(T11, Y11, transpose)
    F[k:, :k] = Y12.T


def _solve_lyapunov_blocks(S, F, transpose):
    """Overwrite symmetric F, in the Schur coordinates of the form S, with
    the Y of op(T) Y + Y op(T)^T = F, op as above, one pair of blocks at a
    time: T is block diagonal, so block (i, j) of Y depends on block (i, j)
    of F alone. Where both blocks are diagonal, Y is F / (d_i + d_j); where
    one is quasi-triangular, ``_solve_quasi_triangular`` solves the upper
    block of the pair and the lower one is its transpose; inside a
    quasi-triangular block, the Lyapunov recursion.
    """
    nd = S.nd
    if nd:
        F[:nd, :nd] /= S.d[:, None] + S.d     # every d_i + d_j < 0
    quasi = [b for b in S.blocks if b.T.ndim == 2]
    D = np.diag(S.d) if nd and quasi else None
    for j, bj in enumerate(quasi):
        sj = bj.seg
        if nd:
            _solve_quasi_triangular(D, bj.T, F[:nd, sj], transpose)
            F[sj, :nd] = F[:nd, sj].T
        for bi in quasi[:j]:
            _solve_quasi_triangular(bi.T, bj.T, F[bi.seg, sj], transpose)
            F[sj, bi.seg] = F[bi.seg, sj].T
        _solve_lyapunov_quasi_triangular(bj.T, F[sj, sj], transpose)


def solve_lyapunov(A, Q, transpose=False):
    """Unique X with A X + X A^T + Q = 0 for Hurwitz A and symmetric Q;
    X is symmetrized. A nonsymmetric Q is replaced by its symmetric part
    (Q + Q^T)/2, whose solution is the symmetric part of the exact one.
    transpose=True solves A^T X + X A + Q = 0.

    A is a matrix or its ``hurwitz_schur`` form S = Z T Z^T. Given the
    form, Q and X are Schur coordinates: T Y + Y T^T = -Q (or
    T^T Y + Y T = -Q) is solved by blocks (``_solve_lyapunov_blocks``) and
    no basis changes, so several solves share one factorization. Given a
    matrix, X is S.lift of that solve on S.congruence(Q), symmetrized,
    with S = hurwitz_schur(A): the steps of Bartels-Stewart.
    SolverBreakdown is raised when the solve fails or X comes out
    non-finite.
    """
    S = A if isinstance(A, HurwitzSchur) else hurwitz_schur(A)
    Q = np.asarray(Q, dtype=float)
    if S is not A:
        Q = S.congruence(Q)
    # the recursion reads only the upper triangle of F; halving the sum
    # leaves a symmetric Q bit-identical
    F = Q + Q.T
    F *= -0.5
    # an overflow or a non-finite Q shows as a non-finite X, reported below
    with np.errstate(over="ignore", invalid="ignore"):
        _solve_lyapunov_blocks(S, F, transpose)
    if not np.all(np.isfinite(F)):
        raise SolverBreakdown("Lyapunov solution contains non-finite entries")
    X = 0.5 * (F + F.T)
    if S is not A:
        X = S.lift(X)
        X = 0.5 * (X + X.T)
    return X


class ShiftedLU:
    """The pencil A + lam E in the form its shifted solves factor.

    Built by ``shifted_lu``, or from another form's A and E to keep
    factors of its own. A and E are CSC arrays on one shared pattern
    that includes the diagonal (E is the identity when the pencil has no
    mass matrix), or dense ndarrays (E may be None, meaning the identity).
    ``solve_sylvester_shifted`` factors every shift of a shift vector at
    once: one factorization of the real blocks A + lam_j E over its distinct
    real shifts and one of the complex blocks over its distinct complex
    shifts that lead a conjugate pair (or stand alone). A sparse pencil's
    blocks form one block-diagonal CSC matrix for one
    ``scipy.sparse.linalg.splu``; a dense pencil's form one batch for one
    ``scipy.linalg.lu_factor``. The factors of the last shift vector are
    kept, so the solves of one sweep share them, with A + lam E and with
    its transpose alike.
    """

    def __init__(self, A, E):
        self.A = A
        self.E = E
        # kept until the next shift vector: freed after each sweep's
        # solves, their memory goes back to the OS and the next sweep's
        # factorization faults it in again (16 flagship reductions at
        # n = 200, one BLAS thread: 5-6x the minor page faults, 12-50 %
        # more time in the solves)
        self._key = self._factors = None

    def factors(self, lam):
        """The ``_ShiftFactors`` of the shift vector lam, made on first use."""
        key = lam.tobytes()
        if key != self._key:
            self._key, self._factors = key, _ShiftFactors(self, lam)
        return self._factors


class _Blocks:
    """Factors of A + s_j E for the distinct shifts s of one group, made by
    one factorization call; ``solve`` puts column q of B through block
    blk[q] by one solve call (one per block for a dense pencil)."""

    def __init__(self, form, shifts):
        self.count = shifts.size
        A, E = form.A, form.E
        n = A.shape[0]
        if sp.issparse(A):
            # the blocks share the CSC pattern, offset by n rows per block
            nnz = A.indptr[-1]
            off = np.arange(self.count)[:, None]
            M = sp.csc_array(
                ((A.data + shifts[:, None] * E.data).ravel(),
                 (A.indices + n * off).ravel(),
                 np.append((A.indptr[:-1] + nnz * off).ravel(),
                           nnz * self.count)),
                shape=(n * self.count, n * self.count))
            # panels of one column: the generators' pencils have supernodes
            # of a column or two, and SuperLU's default of ten columns
            # costs a dense workspace of ten columns of M and, measured on
            # chafee_infante and fitzhugh_nagumo at n = 1000 and eight
            # shifts, twice the time
            try:
                self._lu = spla.splu(M, panel_size=1)
            except RuntimeError as exc:  # "Factor is exactly singular"
                raise SingularShift("a shift of %r makes A + lam E singular"
                                    % (shifts,)) from exc
        else:
            I = np.eye(n) if E is None else E
            M = A + shifts[:, None, None] * I
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("error", sla.LinAlgWarning)
                    self._lu = sla.lu_factor(M, overwrite_a=True,
                                             check_finite=False)
            except sla.LinAlgWarning as exc:  # an exactly zero pivot
                raise SingularShift("a shift of %r makes A + lam E singular"
                                    % (shifts,)) from exc

    def solve(self, blk, B, transpose):
        n = B.shape[0]
        if isinstance(self._lu, spla.SuperLU):
            # column q of B goes to block blk[q], at the next free column
            # of that block's share of the stacked right-hand side
            order = np.argsort(blk, kind="stable")
            first = np.searchsorted(blk[order], blk[order])
            pos = np.empty_like(blk)
            pos[order] = np.arange(blk.size) - first
            R = np.zeros((self.count, n, pos.max() + 1), dtype=B.dtype)
            R[blk, :, pos] = B.T
            X = self._lu.solve(R.reshape(self.count * n, -1),
                               trans="T" if transpose else "N")
            return X.reshape(R.shape)[blk, :, pos].T
        lu, piv = self._lu
        X = np.empty_like(B)
        for j in range(self.count):
            cols = blk == j
            X[:, cols] = sla.lu_solve((lu[j], piv[j]), B[:, cols],
                                      trans=int(transpose),
                                      check_finite=False)
        return X


class _ShiftFactors:
    """How the columns of one shift vector are solved, and their factors.

    Reads the pair rule by ``conjugate_pairs``, not strict: a partner's
    shift is never factored, and a lead without a partner stands alone. A
    real shift is factored in real arithmetic.
    """

    def __init__(self, form, lam):
        self.real, self.lead, self.partner = conjugate_pairs(lam,
                                                             strict=False)
        self.real_blocks = self.cplx_blocks = None
        if self.real.size:
            shifts, self.real_blk = np.unique(lam[self.real].real,
                                              return_inverse=True)
            self.real_blocks = _Blocks(form, shifts)
        if self.lead.size:
            shifts, self.lead_blk = np.unique(lam[self.lead],
                                              return_inverse=True)
            self.cplx_blocks = _Blocks(form, shifts)


def shifted_lu(A, E=None):
    """``ShiftedLU`` form of A + lam E for ``solve_sylvester_shifted``.

    The format is decided once here, by one rule for dense and sparse
    input: the pencil is sparse when the pattern of A, plus the diagonal
    (or E's pattern), fills at most ``_SPARSE_FILL`` of n^2, and dense
    otherwise. Sparse input is read from its stored entries, dense input
    by one scan of its n^2 cells.
    """
    if not (sp.issparse(A) or sp.issparse(E)):
        A = np.asarray(A, dtype=float)
        E = None if E is None else np.asarray(E, dtype=float)
        cells = A != 0.0
        if E is None:
            cells.flat[::A.shape[0] + 1] = True
        else:
            cells |= E != 0.0
        if np.count_nonzero(cells) > _SPARSE_FILL * cells.size:
            return ShiftedLU(A, E)
        # indexing by the flat pattern costs a tenth of coo_array(A)'s scan
        idx = np.flatnonzero(cells)
        ij = np.divmod(idx, A.shape[0])
        A = sp.coo_array((A.ravel()[idx], ij), shape=A.shape)
        if E is not None:
            E = sp.coo_array((E.ravel()[idx], ij), shape=A.shape)
    A = sp.coo_array(A, dtype=float)
    n = A.shape[0]
    Ec = (sp.eye_array(n, format="coo") if E is None
          else sp.coo_array(E, dtype=float))
    # one conversion sums A into the real and E into the imaginary part of
    # each cell of the union pattern, so neither can cancel the other out
    P = sp.csc_array((np.concatenate([A.data, 1j * Ec.data]),
                      (np.concatenate([A.row, Ec.row]),
                       np.concatenate([A.col, Ec.col]))), shape=A.shape)
    if P.nnz > _SPARSE_FILL * n * n:
        return ShiftedLU(A.toarray(), None if E is None else Ec.toarray())
    Ap = sp.csc_array((P.data.real.copy(), P.indices, P.indptr), shape=P.shape)
    Ep = sp.csc_array((P.data.imag.copy(), P.indices, P.indptr), shape=P.shape)
    return ShiftedLU(Ap, Ep)


def solve_sylvester_shifted(A, lam, Rhs, E=None, transpose=False):
    """Solve -E V diag(lam) - A V = Rhs, or -E^T V diag(lam) - A^T V = Rhs
    with transpose (the plain transpose, also for complex lam).

    Column i is -(A + lam_i E)^{-1} Rhs[:, i]. A is a matrix or a
    ``shifted_lu`` form (then E must be None); passing the form lets
    several solves with one lam share its factors, in either direction
    (see ``ShiftedLU``: at most one real and one complex factorization per
    lam). A and E may be dense or sparse arrays; ``shifted_lu`` decides
    whether the pencil is factored by ``splu`` or by dense LU. Rhs has
    shape (n, lam.size), or is a vector of length n for a single shift;
    any other shape raises ValueError. A real shift is solved in real
    arithmetic, on [Re Rhs, Im Rhs]. Shifts are paired by
    ``conjugate_pairs``, not strict; the partner i + 1 of a lead i is never
    factored. Its column is the exact conjugate of column i when the
    matching Rhs columns are conjugate to 1e-12, which keeps realification
    exact, and otherwise conj(-(A + lam_i E)^{-1} conj(Rhs[:, i+1])).
    SingularShift is raised when a shift makes the pencil exactly singular
    or a column comes out non-finite.
    """
    if isinstance(A, ShiftedLU):
        if E is not None:
            raise ValueError("a shifted_lu form already carries E")
        form = A
    else:
        form = shifted_lu(A, E)
    lam = np.asarray(lam, dtype=complex).ravel()
    n = form.A.shape[0]
    Rhs = np.asarray(Rhs, dtype=complex)
    if Rhs.shape == (n,) and lam.size == 1:
        Rhs = Rhs[:, None]
    if Rhs.shape != (n, lam.size):
        raise ValueError("Rhs shape %r, not %r" % (Rhs.shape, (n, lam.size)))
    f = form.factors(lam)
    V = np.empty((n, lam.size), dtype=complex)
    if f.real.size:
        b = Rhs[:, f.real]
        X = f.real_blocks.solve(np.tile(f.real_blk, 2),
                                np.hstack([b.real, b.imag]), transpose)
        V[:, f.real] = -(X[:, :f.real.size] + 1j * X[:, f.real.size:])
    if f.lead.size:
        b = Rhs[:, f.partner - 1]
        conj = np.all(np.abs(Rhs[:, f.partner] - b.conj())
                      <= 1e-12 * (1.0 + np.abs(b).max(axis=0, initial=0.0)
                                  + np.abs(b)), axis=0)
        own = f.partner[~conj]
        blk = np.concatenate([f.lead_blk,
                              f.lead_blk[np.searchsorted(f.lead, own - 1)]])
        X = -f.cplx_blocks.solve(
            blk, np.hstack([Rhs[:, f.lead], Rhs[:, own].conj()]), transpose)
        V[:, f.lead] = X[:, :f.lead.size]
        V[:, own] = X[:, f.lead.size:].conj()
        V[:, f.partner[conj]] = V[:, f.partner[conj] - 1].conj()
    bad = ~np.all(np.isfinite(V), axis=0)
    if bad.any():
        raise SingularShift("shift %r gave a non-finite column"
                            % (lam[np.argmax(bad)],))
    return V


def reflect_unstable(lam):
    """Mirror right-half-plane eigenvalues and nudge purely imaginary ones
    to real part -_EPS_SHIFT.

    Both members of a conjugate pair get the same new real part, so the
    exact pair rule of ``spectral_decompose`` still holds for the output.
    """
    lam = np.asarray(lam, dtype=complex).copy()
    re = lam.real
    lam.real = np.where(re > 0.0, -re, np.where(re == 0.0, -_EPS_SHIFT, re))
    return lam


def realify_basis(Vc, lam):
    """Real basis with the same real span: (Re v, Im v) per conjugate pair.

    Reads the pair rule by ``conjugate_pairs``, strict: a complex lam[i]
    without an exact conj(lam[i]) at i + 1 raises PairingViolation.
    """
    Vc = np.asarray(Vc, dtype=complex)
    lam = np.asarray(lam, dtype=complex)
    real, lead, partner = conjugate_pairs(lam)
    out = np.empty(Vc.shape)
    out[:, real] = Vc[:, real].real
    out[:, lead] = Vc[:, lead].real
    out[:, partner] = Vc[:, lead].imag
    return out
