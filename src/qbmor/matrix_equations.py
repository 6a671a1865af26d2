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
Sylvester equations with a diagonal right coefficient are solved on a
``shifted_lu`` form of the pencil A + lam E, never as a Kronecker system:
one complex factorization per shift vector, over its distinct real shifts
and conjugate-pair leads, none for a partner, serves the V solves with
A + lam E and, with ``transpose``, the W solves with its transpose. A
sparse pencil is a band matrix in the reverse Cuthill-McKee order of its
pattern, found once per form, its shifts stacked block-diagonally for one
LAPACK gbtrf; a dense pencil's shifts are one batch of dense LU. A solve
stacks its columns by shift for one solver call, gbtrs or a batched
lu_solve, and one check of the result raises SingularShift.
"""

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from qbmor.errors import (
    NonDiagonalizable, NotStable, SolverBreakdown, SingularShift,
    PairingViolation,
)

_EIGVEC_COND_LIMIT = 1e12
# largest block side handed to LAPACK trsyl by the blocked Lyapunov solve
_TRSYL_LEAF = 64
# real part given to a purely imaginary eigenvalue by reflect_unstable
_EPS_SHIFT = 1e-8
# a pattern filling at most this share of n^2 is sparse: the shifted pencil
# and Radau's mu I - J are then band matrices, and the rhs operator is dense
# above it (qb_core). For mu I - J (one factorization and one solve, real
# and complex mu, one BLAS thread) band LU ties dense getrf on chafee_infante
# and fitzhugh_nagumo at n = 20-30 (fill 0.13-0.19) and wins from n = 40
# (fill 0.1) up: 22-29 against 29-49 us at n = 40, 48-89 against 540-2040 us
# at n = 200. Per shift of A + lam I on chafee_infante (one complex LU, a
# solve and a transposed one) the band form takes 0.15-0.26 ms from n = 40
# to 200, dense LU 0.34 to 1.6 ms.
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


def hurwitz_schur(A):
    """Real Schur form of A by its decoupled blocks, checked for stability.

    A, dense or sparse, is read once as a CSR copy without its zero
    entries and split into the connected components of the pattern of
    |A| + |A^T|; only each component's own square block is densified, and
    the caller's A is left as it is. All 1 x 1 components make
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

    # a copy: csr_array of a CSR input may share its arrays, and
    # eliminate_zeros must not drop the caller's stored cells
    A = sp.csr_array(A, dtype=float, copy=True)
    A.eliminate_zeros()
    if not np.all(np.isfinite(A.data)):
        raise SolverBreakdown("coefficient matrix has non-finite entries")
    count, label = connected_components(A, directed=False)
    sizes = np.bincount(label, minlength=count)
    comps = np.split(np.argsort(label, kind="stable"), np.cumsum(sizes)[:-1])
    single = np.flatnonzero(sizes[label] == 1)
    blocks = []
    if single.size:
        blocks.append((single, None, A.diagonal()[single]))
    for idx in comps:
        if idx.size == 1:
            continue
        idx = _as_slice(idx)
        M = A[idx][:, idx].toarray()
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
    del Q
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


@dataclass(frozen=True)
class _BandLayout:
    """A sparse pattern in reverse Cuthill-McKee order for LAPACK's band LU:
    row and column i are rank[i] (order inverts it) of a band matrix with
    kl sub- and ku superdiagonals, whose band storage is n x width, one row
    per column, entry (i, j) at [j, kl + ku + i - j] in band order."""
    order: np.ndarray
    rank: np.ndarray
    kl: int
    ku: int
    width: int

    @classmethod
    def of(cls, M):
        """The layout of a sparse M's stored cells, explicit zeros too, and
        the diagonal: the pattern of both A + lam E and mu I - J."""
        # imported here, not with the module: see hurwitz_schur
        from scipy.sparse.csgraph import reverse_cuthill_mckee

        M = sp.coo_array(M)
        n = M.shape[0]
        row = np.concatenate([M.row, np.arange(n)])
        col = np.concatenate([M.col, np.arange(n)])
        # ones on the cells: RCM would drop a stored zero
        order = reverse_cuthill_mckee(sp.csr_array(
            (np.ones(row.size), (row, col)), shape=M.shape))
        rank = np.argsort(order)
        kl, ku = (int(d.max()) for d in (rank[row] - rank[col],
                                         rank[col] - rank[row]))
        return cls(order, rank, kl, ku, 2 * kl + ku + 1)

    def at(self, row, col):
        """The flat places of the cells (row, col) in band storage."""
        col = self.rank[col]
        return col * self.width + self.kl + self.ku + self.rank[row] - col

    def lu(self, ab):
        """b -> M^{-1} b from one gbtrf of M's band storage ab (overwritten);
        non-finite after an exactly zero pivot, as getrf's solves are."""
        gbtrf, gbtrs = sla.get_lapack_funcs(("gbtrf", "gbtrs"), (ab,))
        kl, ku, order, rank = self.kl, self.ku, self.order, self.rank
        lu, piv, _ = gbtrf(ab.T, kl, ku, overwrite_ab=True)
        return lambda b: gbtrs(lu, kl, ku, b[order], piv,
                               overwrite_b=True)[0][rank]


class ShiftedLU:
    """The pencil A + lam E in the form its shifted solves factor.

    Built by ``shifted_lu``, and held once per (A, E) by
    ``QBSystem.pencil``. A sparse pencil's A and E (the identity when it
    has no mass matrix) are in band storage on its ``_BandLayout``, held
    as band; a dense one's are ndarrays with band None (E may be None,
    meaning the identity). A shift vector's ``_ShiftFactors`` are one
    complex factorization of its blocks A + lam_j E: for a sparse pencil
    one LAPACK ``gbtrf`` of their block-diagonal band matrix, itself a band
    matrix with the pencil's kl and ku; for a dense one a batch for one
    ``scipy.linalg.lu_factor``, each solve one stacked call. The last shift
    vector's are kept, so the solves of one sweep share them, with A + lam E
    and its transpose alike.
    """

    def __init__(self, A, E, band=None):
        self.A = A
        self.E = E
        self.band = band
        self._key = self._factors = None

    def factors(self, lam):
        """The ``_ShiftFactors`` of the shift vector lam, made on first use."""
        key = lam.tobytes()
        if key != self._key:
            self._key, self._factors = key, _ShiftFactors(self, lam)
        return self._factors


class _ShiftFactors:
    """Factors of A + s_j E for the distinct shifts s of a nonempty shift
    vector, made by one complex factorization call, and where its columns
    go. Reads the pair rule by ``conjugate_pairs``, not strict: the columns
    ``own`` of the real shifts and the leads (alone or not) come first,
    then each partner in its lead's block, which a solve takes only when
    its Rhs is not the conjugate of its lead's; a partner's shift is never
    factored.

    A solve scatters its columns into one zero-filled stack, solves it by
    one gbtrs call (band) or one batched lu_solve on (count, n, width)
    blocks (dense), and gathers the result: row i of column q is row
    rank[i] (the identity when dense) of block blk[q], in column pos[q],
    which counts the earlier columns of that block. ``_index`` holds these
    places, flattened. A dense stack is at least two columns wide, so its
    bits do not depend on the BLAS thread count, by which OpenBLAS's
    complex getrs rounds a lone column. No pivot is checked: an exactly
    zero one makes every column of its block non-finite, and a band
    pencil's transposed solve carries that into the later blocks.
    """

    def __init__(self, form, lam):
        real, lead, self.partner = conjugate_pairs(lam, strict=False)
        self.own = np.union1d(real, lead)
        shifts, blk = np.unique(lam[self.own], return_inverse=True)
        blk = np.concatenate(
            [blk, blk[np.searchsorted(self.own, self.partner - 1)]])
        self.count = count = shifts.size
        self.band = band = form.band
        n = form.A.shape[0]
        if band is None:
            I = np.eye(n) if form.E is None else form.E
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", sla.LinAlgWarning)
                self._lu = sla.lu_factor(form.A + shifts[:, None, None] * I,
                                         overwrite_a=True, check_finite=False)
            rank = np.arange(n)
        else:
            # block j's columns in band storage, one row each: the transpose
            # of this (count n) x rows array is the stacked matrix's band
            # storage, in the Fortran order gbtrf takes
            ab = np.empty((count,) + form.A.shape, dtype=shifts.dtype)
            ab[...] = form.A
            # shifts times E only where E has entries: a broadcast product
            # over the whole band, complex by real, took 1.4 ms against
            # gbtrf's 0.9 ms for four complex shifts of fitzhugh_nagumo(334)
            at = np.flatnonzero(form.E)
            ab.reshape(count, -1)[:, at] += (shifts[:, None]
                                             * form.E.ravel()[at])
            gbtrf, self._gbtrs = sla.get_lapack_funcs(("gbtrf", "gbtrs"),
                                                      (ab,))
            self._lu, self._piv, _ = gbtrf(ab.reshape(count * n, -1).T,
                                           band.kl, band.ku, overwrite_ab=True)
            rank = band.rank
        order = np.argsort(blk, kind="stable")
        self._pos = np.empty_like(blk)
        self._pos[order] = (np.arange(blk.size)
                            - np.searchsorted(blk[order], blk[order]))
        self._index = rank[:, None] + (self._pos * count + blk) * n

    def solve(self, B, transpose, cols):
        """X with column q the solve of column q of B by its block. B holds
        the columns that the mask cols selects."""
        index = self._index[:, cols]
        n = index.shape[0]
        width = max(self._pos[cols].max() + 1, 2 if self.band is None else 1)
        R = np.zeros(self.count * n * width, dtype=complex)
        R[index] = B
        if self.band is None:
            X = sla.lu_solve(self._lu, R.reshape(width, self.count, n)
                             .transpose(1, 2, 0), trans=int(transpose),
                             check_finite=False).transpose(2, 0, 1).ravel()
        else:
            X = self._gbtrs(self._lu, self.band.kl, self.band.ku,
                            R.reshape((-1, width), order="F"), self._piv,
                            trans=int(transpose),
                            overwrite_b=True)[0].ravel(order="F")
        return X[index]


def shifted_lu(A, E=None):
    """``ShiftedLU`` form of A + lam E for ``solve_sylvester_shifted``.

    A and E, dense or sparse, are read once as COO arrays: the cells of a
    sparse input are its stored entries, explicit zeros included, and
    those of a dense one its nonzero entries. The format is decided once
    here: the pencil is sparse when the cells of A, plus the diagonal (or
    E's cells), fill at most ``_SPARSE_FILL`` of n^2, and dense
    otherwise. A sparse pencil's A and E are laid out in band storage on
    the ``_BandLayout`` of that pattern, its reverse Cuthill-McKee order,
    computed here once per form. The band is as wide as that order makes
    it, with no second sparse format for a wide one: a pattern with a
    dense row and column has a band as wide as the matrix, and its factors
    take about 3 n^2 entries per shift.
    """
    A = sp.coo_array(A, dtype=float)
    n = A.shape[0]
    Ec = (sp.eye_array(n, format="coo") if E is None
          else sp.coo_array(E, dtype=float))
    # the union pattern, each cell once
    P = sp.csr_array((np.ones(A.nnz + Ec.nnz),
                      (np.concatenate([A.row, Ec.row]),
                       np.concatenate([A.col, Ec.col]))), shape=A.shape)
    if P.nnz > _SPARSE_FILL * n * n:
        return ShiftedLU(A.toarray(), None if E is None else Ec.toarray())
    layout = _BandLayout.of(P)

    def banded(M):  # duplicate entries summed
        return np.bincount(layout.at(M.row, M.col), weights=M.data,
                           minlength=n * layout.width).reshape(n, -1)

    return ShiftedLU(banded(A), banded(Ec), layout)


def solve_sylvester_shifted(A, lam, Rhs, E=None, transpose=False):
    """Solve -E V diag(lam) - A V = Rhs, or -E^T V diag(lam) - A^T V = Rhs
    with transpose (the plain transpose, also for complex lam).

    Column i is -(A + lam_i E)^{-1} Rhs[:, i]. A is a matrix or a
    ``shifted_lu`` form (then E must be None); passing the form lets
    several solves with one lam share its factors, in either direction
    (see ``ShiftedLU``: one complex factorization per lam). A and E may be
    dense or sparse arrays; ``shifted_lu`` decides whether the pencil is
    factored as a band matrix by LAPACK's band LU or by dense LU. Rhs has
    shape (n, lam.size), or is a vector of length n for a single shift;
    any other shape raises ValueError. An empty lam factors nothing.
    Shifts are paired by ``conjugate_pairs``, not strict; the partner
    i + 1 of a lead i is never factored. Its column is the exact conjugate
    of column i when the matching Rhs columns are conjugate to 1e-12,
    which keeps realification exact, and otherwise
    conj(-(A + lam_i E)^{-1} conj(Rhs[:, i+1])). One check after the solve
    raises SingularShift naming the shifts of the non-finite columns: all
    of an exactly singular shift's (see ``_ShiftFactors``) and any of a
    non-finite Rhs column.
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
    V = np.empty((n, lam.size), dtype=complex)
    if not lam.size:
        return V
    f = form.factors(lam)
    # solving for -Rhs gives V without a negation
    Rhs = -Rhs
    b = Rhs[:, f.partner - 1]
    size = np.abs(b)
    conj = np.all(np.abs(Rhs[:, f.partner] - b.conj())
                  <= 1e-12 * (1.0 + size.max(axis=0, initial=0.0) + size),
                  axis=0)
    solo = f.partner[~conj]
    X = f.solve(np.hstack([Rhs[:, f.own], Rhs[:, solo].conj()]), transpose,
                np.concatenate([np.ones(f.own.size, dtype=bool), ~conj]))
    V[:, f.own] = X[:, :f.own.size]
    V[:, f.partner] = V[:, f.partner - 1].conj()
    V[:, solo] = X[:, f.own.size:].conj()
    bad = ~np.isfinite(V).all(axis=0)
    if bad.any():
        raise SingularShift("A + lam E is singular, or a column non-finite, "
                            "at lam = %s" % ", ".join(map(str, lam[bad])))
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
