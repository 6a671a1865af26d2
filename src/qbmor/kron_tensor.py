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


def _row_kron(X, Y):
    # row i of the result is X[i,:] (x) Y[i,:]
    n, a = X.shape
    _, b = Y.shape
    return (X[:, :, None] * Y[:, None, :]).reshape(n, a * b)


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

    def tensor(self):
        """Dense (n, n, n) view T with T[i, a, b]."""
        return self.mode1().reshape(self.n, self.n, self.n)

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
        out = np.zeros((self.n, q * s), dtype=np.result_type(X, Y, float))
        for L, R in self._pairs:
            out += _row_kron(L @ X, R @ Y)
        return out

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
        out = np.zeros((self.n, q * s), dtype=np.result_type(X, Y, float))
        for L, R in self._pairs:
            out += R.T @ _row_kron(L @ X, Y)
        return out

    def kron_identity(self, x):
        """The n x n matrix H(I (x) x); column a is H(e_a (x) x)."""
        x = np.asarray(x)
        n = self.n
        if self.storage == "dense":
            return (self._Hm.reshape(n * n, n) @ x).reshape(n, n)
        if not self._pairs:
            return np.zeros((n, n), dtype=np.result_type(x, float))
        Ls, Rs = self._stacked()
        # sum_j diag(R_j x) L_j: scale the stacked rows, then add the blocks
        d = Rs @ x
        if sp.issparse(Ls):
            L = Ls.tocoo()
            return sp.coo_array((L.data * d[L.row], (L.row % n, L.col)),
                                shape=(n, n)).toarray()
        return (d[:, None] * Ls).reshape(-1, n, n).sum(axis=0)

    def congruence(self, V, W):
        """W^T H (V (x) V) as an r x r^2 matrix.

        Dense storage follows the three-step unfolding route (one GEMM per
        mode); pair storage contracts each factor pair row-wise.
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
