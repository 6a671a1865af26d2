"""Kronecker and order-3 tensor primitives.

Conventions used everywhere in this package:

* vec() is column-major.
* A dense Hessian is the mode-1 unfolding Hm of an order-3 tensor T with
  Hm[i, a*n + b] = T[i, a, b] and H(u (x) v)_i = sum_{a,b} T[i,a,b] u_a v_b,
  so the frontal slices X_s = T[:, s, :] satisfy Hm = [X_1, ..., X_n].
* Permutation matrices are kept as index maps pi with (P x)[i] = x[pi[i]]
  and are never materialized outside of to_dense() in tests.
"""

import numpy as np
import scipy.sparse as sp


def vec(X):
    """Column-major vectorization."""
    return np.asarray(X).reshape(-1, order="F")


def unvec(x, shape):
    return np.asarray(x).reshape(shape, order="F")


class PermutationMatrix:
    """Permutation stored as an index map: (P x)[i] = x[perm[i]]."""

    def __init__(self, perm):
        self.perm = np.asarray(perm, dtype=np.intp)
        self.size = self.perm.size

    def apply(self, x):
        # works for vectors and for matrices (permutes rows)
        x = np.asarray(x)
        if x.shape[0] != self.size:
            raise ValueError("permutation size mismatch")
        return x[self.perm]

    def transpose(self):
        inv = np.empty_like(self.perm)
        inv[self.perm] = np.arange(self.size, dtype=np.intp)
        return PermutationMatrix(inv)

    @property
    def T(self):
        return self.transpose()

    def to_dense(self):
        P = np.zeros((self.size, self.size))
        P[np.arange(self.size), self.perm] = 1.0
        return P


def commutation_matrix(n, m):
    """S of size nm with S(u (x) v) = v (x) u for len(u)=n, len(v)=m."""
    if n < 1 or m < 1:
        raise ValueError("dimensions must be positive")
    i = np.arange(n, dtype=np.intp)
    j = np.arange(m, dtype=np.intp)
    perm = np.empty(n * m, dtype=np.intp)
    # output row j*n+i carries entry i*m+j of the input
    perm[(j[:, None] * n + i[None, :]).ravel()] = (i[None, :] * m + j[:, None]).ravel()
    return PermutationMatrix(perm)


def perm_T(n, m):
    """T with vec(X (x) Y) = T (vec X (x) vec Y) for X, Y of shape n x m."""
    if n < 1 or m < 1:
        raise ValueError("dimensions must be positive")
    ix = np.arange(n, dtype=np.intp)
    iy = np.arange(n, dtype=np.intp)
    jx = np.arange(m, dtype=np.intp)
    jy = np.arange(m, dtype=np.intp)
    JX, JY, IX, IY = np.meshgrid(jx, jy, ix, iy, indexing="ij")
    rows = (JX * m + JY) * n * n + IX * n + IY
    cols = (JX * n + IX) * n * m + (JY * n + IY)
    perm = np.empty(n * n * m * m, dtype=np.intp)
    perm[rows.ravel()] = cols.ravel()
    return PermutationMatrix(perm)


def perm_M(p, q, r):
    """M of size p(q+r) with M^T (A (x) blkdiag(B,C)) M = blkdiag(A(x)B, A(x)C)."""
    if p < 1 or q < 1 or r < 1:
        raise ValueError("dimensions must be positive")
    perm = np.empty(p * (q + r), dtype=np.intp)
    i = np.arange(p, dtype=np.intp)[:, None]
    j = np.arange(q + r, dtype=np.intp)[None, :]
    rows = i * (q + r) + j
    src = np.where(j < q, i * q + j, p * q + i * r + (j - q))
    perm[rows.ravel()] = src.ravel()
    return PermutationMatrix(perm)


def _dense_factor(M):
    if sp.issparse(M):
        return M.toarray()
    return np.asarray(M)


# entries of one row-Kronecker block of the active-row products; a larger
# product is taken in blocks of this size, or of n rows (one factor pair).
# Set between the sizes measured on chafee_infante at one BLAS thread:
# tqb_irka's products (3n x r^2, 6e4 entries at n = 200, r = 10) stay whole,
# since blocks of n rows made a sweep 20-50 % slower; the Gramian sources
# (3e5 to 1.3e6 entries at n = 200 and 500) are blocked, which held the
# peak RSS of their balanced truncations and H2 norms at 110.5 MB against
# 113.3 MB whole, in 10 of 10 alternating runs, for about 0.2 s more time
_KRON_BLOCK = 1 << 17


def _nonzero_rows(M):
    if sp.issparse(M):
        return np.diff(M.indptr) > 0
    return np.any(M != 0.0, axis=1)


def _row_kron(X, Y):
    # row i of the result is X[i,:] (x) Y[i,:]
    n, a = X.shape
    _, b = Y.shape
    return (X[:, :, None] * Y[:, None, :]).reshape(n, a * b)


def _row_kron_distinct(X, Y):
    # row i holds X[i, a] Y[i, b] for a <= b, in np.triu_indices order
    n, q = X.shape
    out = np.empty((n, q * (q + 1) // 2), dtype=np.result_type(X, Y))
    col = 0
    for a in range(q):
        np.multiply(X[:, a, None], Y[:, a:], out=out[:, col:col + q - a])
        col += q - a
    return out


class Hessian:
    """Order-3 tensor accessed through its mode-1 unfolding.

    storage is 'dense' (n x n^2 matrix) or 'pairs' (list of factor pairs
    (A_j, B_j), each n x n, with mode-1 row i = sum_j A_j(i,:) (x) B_j(i,:)).
    """

    def __init__(self, n, storage, data, symmetric=False):
        self.n = int(n)
        self.storage = storage
        self.symmetric = bool(symmetric)
        if storage == "dense":
            Hm = np.asarray(data, dtype=float)
            if Hm.shape != (self.n, self.n * self.n):
                raise ValueError("dense Hessian must be n x n^2")
            self._Hm = Hm
            self._pairs = None
        elif storage == "pairs":
            pairs = [(L, R) for (L, R) in data]
            for L, R in pairs:
                if L.shape != (self.n, self.n) or R.shape != (self.n, self.n):
                    raise ValueError("factor pairs must be n x n")
            self._pairs = pairs
            self._Hm = None
        else:
            raise ValueError("unknown storage %r" % (storage,))
        self._stack = None
        self._active = None

    @classmethod
    def dense(cls, Hm, symmetric=False):
        Hm = np.asarray(Hm, dtype=float)
        n = Hm.shape[0]
        return cls(n, "dense", Hm, symmetric=symmetric)

    @classmethod
    def from_pairs(cls, pairs, n, symmetric=False):
        return cls(n, "pairs", pairs, symmetric=symmetric)

    @classmethod
    def zero(cls, n):
        return cls(n, "pairs", [], symmetric=True)

    @property
    def is_zero(self):
        return self.storage == "pairs" and len(self._pairs) == 0

    @property
    def pairs(self):
        if self.storage != "pairs":
            raise ValueError("not in pair storage; call to_pairs() first")
        return self._pairs

    def _stacked(self):
        """The pairs stacked once into two (npairs*n) x n operators.

        CSR when any factor is sparse, so H(u (x) v) costs two matvecs.
        """
        if self._stack is None:
            Ls = [L for L, _ in self._pairs]
            Rs = [R for _, R in self._pairs]
            if any(sp.issparse(M) for M in Ls + Rs):
                self._stack = tuple(
                    sp.csr_array(sp.vstack([sp.csr_array(M) for M in Ms]))
                    for Ms in (Ls, Rs))
            else:
                self._stack = (np.vstack(Ls), np.vstack(Rs))
        return self._stack

    def _active_rows(self):
        """The rows of the stacked pairs where both factors are nonzero.

        Returns (L, R, RT, S, dest): those rows of the two stacks, R
        transposed, the CSR summation matrix S (n x rows) that adds each
        row into output row dest = its row within its pair, and dest
        itself. Built once. Only these rows contribute to
        H(X (x) Y) = S row_kron(L X, R Y), so the products skip the others
        and need no loop over the pairs.
        """
        if self._active is None:
            Ls, Rs = self._stacked()
            rows = np.flatnonzero(_nonzero_rows(Ls) & _nonzero_rows(Rs))
            dest = rows % self.n
            S = sp.csr_array((np.ones(rows.size),
                              (dest, np.arange(rows.size))),
                             shape=(self.n, rows.size))
            L, R = Ls[rows], Rs[rows]
            RT = sp.csr_array(R.T) if sp.issparse(R) else R.T
            self._active = (L, R, RT, S, dest)
        return self._active

    def _active_blocks(self, width):
        """``_active_rows`` in blocks whose row-Kronecker product with
        `width` columns has at most ``_KRON_BLOCK`` entries or n rows."""
        L, R, RT, S, dest = self._active_rows()
        step = max(self.n, _KRON_BLOCK // max(width, 1))
        if dest.size <= step:
            return [(L, R, RT, S, dest)]
        starts = range(0, dest.size, step)
        return [(L[a:a + step], R[a:a + step], R[a:a + step].T,
                 S[:, a:a + step], dest[a:a + step]) for a in starts]

    def mode1(self):
        if self.storage == "dense":
            return self._Hm
        n = self.n
        T = np.zeros((n, n, n))
        for L, R in self._pairs:
            Ld, Rd = _dense_factor(L), _dense_factor(R)
            T += Ld[:, :, None] * Rd[:, None, :]
        return T.reshape(n, n * n)

    def apply(self, u, v):
        """H(u (x) v) without forming the Kronecker product."""
        u = np.asarray(u)
        v = np.asarray(v)
        if u.shape != (self.n,) or v.shape != (self.n,):
            raise ValueError("vector length mismatch")
        if self.storage == "dense":
            return self.kron_identity(v) @ u
        if not self._pairs:
            return np.zeros(self.n, dtype=np.result_type(u, v, float))
        Ls, Rs = self._stacked()
        return ((Ls @ u) * (Rs @ v)).reshape(-1, self.n).sum(axis=0)

    def apply_kron(self, X, Y):
        """H(X (x) Y), an n x (cols(X)*cols(Y)) matrix."""
        X = np.asarray(X)
        Y = np.asarray(Y)
        if X.shape[0] != self.n or Y.shape[0] != self.n:
            raise ValueError("row dimension mismatch")
        q, s = X.shape[1], Y.shape[1]
        if self.storage == "dense":
            T = self._Hm.reshape(self.n, self.n, self.n)
            M = np.tensordot(T, X, axes=([1], [0]))       # (i, b, q)
            M = np.tensordot(M, Y, axes=([1], [0]))       # (i, q, s)
            return M.reshape(self.n, q * s)
        if not self._pairs:
            return np.zeros((self.n, q * s), dtype=np.result_type(X, Y, float))
        out = 0.0  # the first block's sum replaces it, the others add to it
        for L, R, _, S, _ in self._active_blocks(q * s):
            out += S @ _row_kron(L @ X, R @ Y)
        return out

    def apply_kron_distinct(self, X):
        """The q(q+1)/2 distinct columns of H(X (x) X) for a symmetric H.

        Column (a, b), a <= b in ``np.triu_indices(q)`` order, is
        H(x_a (x) x_b), scaled by sqrt(2) when a < b. Symmetry makes
        H(x_a (x) x_b) = H(x_b (x) x_a), so K K^T equals
        H(X (x) X) H(X (x) X)^T with about half the columns.
        """
        if not self.symmetric:
            raise ValueError("distinct Kronecker columns need a symmetric H")
        X = np.asarray(X)
        if X.shape[0] != self.n:
            raise ValueError("row dimension mismatch")
        a, b = np.triu_indices(X.shape[1])
        w = np.where(a == b, 1.0, np.sqrt(2.0))
        if self.storage == "dense":
            T = self._Hm.reshape(self.n, self.n, self.n)
            M = np.tensordot(T, X, axes=([1], [0]))       # (i, c, q)
            return np.einsum("icj,cj->ij", M[:, :, a], X[:, b]) * w
        if not self._pairs:
            return np.zeros((self.n, a.size), dtype=np.result_type(X, float))
        out = 0.0
        for L, R, _, S, _ in self._active_blocks(a.size):
            out += S @ _row_kron_distinct(L @ X, R @ X)
        return out * w

    def apply_kron_mode2(self, X, Y):
        """Mode-2 product: row b, column (q,s) is sum_{a,i} T[i,a,b] X[a,q] Y[i,s]."""
        X = np.asarray(X)
        Y = np.asarray(Y)
        if X.shape[0] != self.n or Y.shape[0] != self.n:
            raise ValueError("row dimension mismatch")
        q, s = X.shape[1], Y.shape[1]
        if self.storage == "dense":
            T = self._Hm.reshape(self.n, self.n, self.n)
            M = np.tensordot(T, X, axes=([1], [0]))       # (i, b, q)
            M = np.tensordot(M, Y, axes=([0], [0]))       # (b, q, s)
            return M.reshape(self.n, q * s)
        if not self._pairs:
            return np.zeros((self.n, q * s), dtype=np.result_type(X, Y, float))
        out = 0.0
        for L, _, RT, _, dest in self._active_blocks(q * s):
            out += RT @ _row_kron(L @ X, Y[dest])
        return out

    def kron_identity(self, x):
        """The n x n matrix H(I (x) x); column a is H(e_a (x) x).

        Read off the dense mode-1 unfolding, for either storage.
        """
        n = self.n
        return (self.mode1().reshape(n * n, n) @ np.asarray(x)).reshape(n, n)

    def congruence(self, V, W):
        """W^T H (V (x) V) as an r x r^2 matrix.

        Dense storage follows the three-step unfolding route (one GEMM per
        mode); pair storage takes ``apply_kron`` on its active rows.
        """
        V = np.asarray(V)
        W = np.asarray(W)
        if V.shape[0] != self.n or W.shape[0] != self.n:
            raise ValueError("basis row dimension mismatch")
        r = V.shape[1]
        rw = W.shape[1]
        if self.storage == "dense":
            n = self.n
            Y = (W.T @ self._Hm).reshape(rw, n, n)   # mode-1 product with W^T
            Z = Y @ V                                # mode-3 contraction
            Xt = np.einsum("ras,aq->rqs", Z, V)      # mode-2 contraction
            return Xt.reshape(rw, r * r)
        return W.T @ self.apply_kron(V, V)

    def symmetrized(self):
        """Half-sum with the (a,b)-swapped tensor; no-op if already flagged."""
        if self.symmetric:
            return self
        if self.storage == "dense":
            T = self._Hm.reshape(self.n, self.n, self.n)
            Ts = 0.5 * (T + T.transpose(0, 2, 1))
            return Hessian.dense(Ts.reshape(self.n, self.n * self.n), symmetric=True)
        pairs = []
        for L, R in self._pairs:
            pairs.append((0.5 * L, R))
            pairs.append((0.5 * R, L))
        return Hessian.from_pairs(pairs, self.n, symmetric=True)

    def scaled(self, gamma):
        if self.storage == "dense":
            return Hessian.dense(gamma * self._Hm, symmetric=self.symmetric)
        pairs = [(gamma * L, R) for L, R in self._pairs]
        return Hessian.from_pairs(pairs, self.n, symmetric=self.symmetric)

    def to_pairs(self):
        """Rewrite as factor pairs; pair s is (ones*e_s^T, T[:,s,:]).

        The selector ones*e_s^T is a sparse n x n array with n nonzeros.
        """
        if self.storage == "pairs":
            return self
        n = self.n
        T = self._Hm.reshape(n, n, n)
        rows = np.arange(n)
        pairs = []
        for s in range(n):
            L = sp.csr_array((np.ones(n), (rows, np.full(n, s))), shape=(n, n))
            pairs.append((L, T[:, s, :].copy()))
        return Hessian.from_pairs(pairs, n, symmetric=self.symmetric)

    def norm(self):
        """Frobenius norm of the mode-1 unfolding."""
        if self.storage == "dense":
            return float(np.linalg.norm(self._Hm))
        return float(np.linalg.norm(self.mode1()))


def mode_matricize(h, mu):
    """Dense mode-mu unfolding of a Hessian, mu in {1, 2, 3}."""
    if mu not in (1, 2, 3):
        raise ValueError("mu must be 1, 2 or 3")
    n = h.n
    T = h.mode1().reshape(n, n, n)
    if mu == 1:
        return T.reshape(n, n * n)
    if mu == 2:
        return T.transpose(2, 1, 0).reshape(n, n * n)
    return T.transpose(1, 2, 0).reshape(n, n * n)
