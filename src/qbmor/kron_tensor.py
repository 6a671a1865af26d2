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


def _dense(M):
    if sp.issparse(M):
        return M.toarray()
    return np.asarray(M, dtype=float)


# entries of one row-Kronecker block of the Hessian products: a product is
# filled in blocks of operand columns whose row-Kronecker factor holds at
# most this many entries (or one operand column's), so the active rows are
# never cut and each column is computed as in the unblocked product. At one
# BLAS thread, tqb_irka's products at n = 200, r = 10 (6e4 entries) stay
# whole, as blocks made them up to twice as slow; 2^17 raised the traced
# peak of truncated_h2_error on chafee_infante(50) from 19.3 to 27.8 n^2
_KRON_BLOCK = 1 << 16


def _nonzero_rows(M):
    if sp.issparse(M):
        return np.diff(M.indptr) > 0
    return np.any(M != 0.0, axis=1)


class Hessian:
    """Order-3 tensor accessed through its mode-1 unfolding.

    storage is 'dense' (n x n^2 matrix) or 'pairs' (list of factor pairs
    (A_j, B_j), each n x n, with mode-1 row i = sum_j A_j(i,:) (x) B_j(i,:)).
    The products read one row form, ``active_rows``, which a dense Hessian
    cuts from its tensor T. T itself serves ``mode1``, ``symmetrized``,
    ``scaled`` and the two Gram maps: a dense Hessian has up to n^2 active
    rows, so Gram maps over them would hold n^2 x n^2 intermediates, while
    contracting T holds n^3.
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
        self._active = None
        # the pair list this Hessian is the symmetrization of (``symmetrized``)
        self._half = None
        # (source, gamma) when this is gamma times source (``scaled``)
        self._scaled_from = None

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
        """The pair list; a dense Hessian's is cut from its tensor on first
        use, pair s = (1 e_s^T, T[:, s, :])."""
        if self._pairs is None:
            n = self.n
            T = self._Hm.reshape(n, n, n)
            self._pairs = [(sp.csr_array((np.ones(n), np.full(n, s),
                                          np.arange(n + 1)), shape=(n, n)),
                            T[:, s, :]) for s in range(n)]
        return self._pairs

    def active_rows(self):
        """The Hessian's one stacked form, read by its products, its Gram
        maps and the rhs operator: the rows of the stacked pairs where both
        factors are nonzero. A dense Hessian's row s*n + i is kept when
        T[i, s, :] != 0, with the CSR selector of x_s on the left.

        Returns (L, R, RT, S, dest): those rows of the two stacks, R
        transposed as CSR, the CSR summation matrix S (n x rows) that adds
        each row into output row dest = its row within its pair, and dest
        itself. Built once, and a ``scaled`` copy scales its source's L.
        Only these rows contribute to H(X (x) Y) = S row_kron(L X, R Y), so
        the products skip the others and need no loop over the pairs.
        """
        if self._active is None and self._scaled_from is not None:
            source, gamma = self._scaled_from
            L, R, RT, S, dest = source.active_rows()
            self._active = (gamma * L, R, RT, S, dest)
        if self._active is None:
            n = self.n
            if self.storage == "dense":
                Rs = self._Hm.reshape(n, n, n).transpose(1, 0, 2).reshape(
                    n * n, n)
                rows = np.flatnonzero(_nonzero_rows(Rs))
                L = sp.csr_array((np.ones(rows.size), rows // n,
                                  np.arange(rows.size + 1)),
                                 shape=(rows.size, n))
            else:
                Ls = [L for L, _ in self._pairs]
                Rs = [R for _, R in self._pairs]
                if any(sp.issparse(M) for M in Ls + Rs):
                    Ls, Rs = (sp.csr_array(sp.vstack(
                        [sp.csr_array(M) for M in Ms])) for Ms in (Ls, Rs))
                else:   # reshape, not vstack: the zero Hessian has no pairs
                    Ls, Rs = np.reshape(Ls, (-1, n)), np.reshape(Rs, (-1, n))
                rows = np.flatnonzero(_nonzero_rows(Ls) & _nonzero_rows(Rs))
                L = Ls[rows]
            dest = rows % n
            S = sp.csr_array((np.ones(rows.size),
                              (dest, np.arange(rows.size))),
                             shape=(n, rows.size))
            R = Rs[rows]
            RT = sp.csr_array(R.T)
            self._active = (L, R, RT, S, dest)
        return self._active

    def _product(self, X, Y, mode2=False, distinct=False):
        """S row_kron(L X, R Y), or R^T row_kron(L X, Y[dest]) with mode2,
        over the active rows: column (a, b) is the product with
        (L x_a) o (R y_b), for every b in a * cols(Y) + b order, or for
        b >= a in ``np.triu_indices`` order when `distinct`. Filled one
        block of operand columns a at a time, in one buffer."""
        L, R, RT, S, dest = self.active_rows()
        M, U, V = (RT, L @ X, Y[dest]) if mode2 else (S, L @ X, R @ Y)
        rows, q = U.shape
        s = V.shape[1]
        step = _KRON_BLOCK // max(rows, 1)
        edges = [0]  # operand column a fills columns edges[a]:edges[a + 1]
        cuts = [0]  # the first operand column of each block
        for a in range(q):
            edges.append(edges[-1] + s - a * distinct)
            if a and edges[-1] - edges[cuts[-1]] > step:
                cuts.append(a)
        blocks = list(zip(cuts, cuts[1:] + [q]))
        buf = np.empty(rows * max(edges[a1] - edges[a0] for a0, a1 in blocks),
                       dtype=np.result_type(U, V))
        out = None if len(blocks) == 1 else np.empty(
            (self.n, edges[-1]), dtype=np.result_type(M.dtype, U, V))
        for a0, a1 in blocks:
            c0, c1 = edges[a0], edges[a1]
            block = buf[:rows * (c1 - c0)].reshape(rows, c1 - c0)
            if not distinct:
                np.multiply(U[:, a0:a1, None], V[:, None, :],
                            out=block.reshape(rows, a1 - a0, s))
            else:
                for a in range(a0, a1):
                    np.multiply(U[:, a, None], V[:, a:],
                                out=block[:, edges[a] - c0:edges[a + 1] - c0])
            if out is None:  # one block: its product is the result, and
                del U, V     # the operands are freed before it is formed
                return M @ block
            out[:, c0:c1] = M @ block
        return out

    def mode1(self):
        if self.storage == "dense":
            return self._Hm
        n = self.n
        T = np.zeros((n, n, n))
        for L, R in self._pairs:
            Ld, Rd = _dense(L), _dense(R)
            T += Ld[:, :, None] * Rd[:, None, :]
        return T.reshape(n, n * n)

    def apply(self, u, v):
        """H(u (x) v) without forming the Kronecker product."""
        u = np.asarray(u)
        v = np.asarray(v)
        if u.shape != (self.n,) or v.shape != (self.n,):
            raise ValueError("vector length mismatch")
        return self.apply_kron(u[:, None], v[:, None])[:, 0]

    def apply_kron(self, X, Y):
        """H(X (x) Y), an n x (cols(X)*cols(Y)) matrix."""
        X = np.asarray(X)
        Y = np.asarray(Y)
        if X.shape[0] != self.n or Y.shape[0] != self.n:
            raise ValueError("row dimension mismatch")
        return self._product(X, Y)

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
        out = self._product(X, X, distinct=True)
        a, b = np.triu_indices(X.shape[1])
        out *= np.where(a == b, 1.0, np.sqrt(2.0))
        return out

    def apply_kron_mode2(self, X, Y):
        """Mode-2 product: row b, column (q,s) is sum_{a,i} T[i,a,b] X[a,q] Y[i,s]."""
        X = np.asarray(X)
        Y = np.asarray(Y)
        if X.shape[0] != self.n or Y.shape[0] != self.n:
            raise ValueError("row dimension mismatch")
        return self._product(X, Y, mode2=True)

    def kron_gram(self, P):
        """H(P (x) P)H^T for a symmetric H and a symmetric n x n P.

        No Kronecker product is formed. Dense storage contracts the tensor:
        entry (i, k) is <T_i, P T_k P> with T_i = T[i, :, :]. Pair storage
        works over the active rows L, R and the summation S of the pair list
        the Hessian was symmetrized from, or of its own list when none is
        known: with Y = R P L^T,

            H(P (x) P)H^T = S[(L P L^T) o (R P R^T) + Y o Y^T]S^T / 2,

        which holds for the symmetrization of any pair list. The half list
        has half the rows of the symmetrized one, so each of its a x a
        products is a quarter the size.
        """
        if not self.symmetric:
            raise ValueError("kron_gram needs a symmetric H")
        P = np.asarray(P)
        if P.shape != (self.n, self.n):
            raise ValueError("P must be n x n")
        if self.storage == "dense":
            n = self.n
            PTP = P @ self._Hm.reshape(n, n, n) @ P
            return self._Hm @ PTP.reshape(n, n * n).T
        pairs = self if self._half is None else self._half
        L, R, _, S, _ = pairs.active_rows()
        LP, RP = L @ P, R @ P
        Y = R @ LP.T
        M = L @ LP.T
        M *= R @ RP.T
        M += Y * Y.T
        return 0.5 * (S @ (S @ M).T)

    def mode2_gram(self, P):
        """The map Q -> H^(2)(P (x) Q)(H^(2))^T for symmetric P and Q, where
        H^(2) is the mode-2 unfolding (``apply_kron_mode2``).

        What depends on P alone is formed once. Dense storage contracts the
        tensor: the image is sum_i T_i^T P W_i with W_i = sum_k Q_ik T_k.
        Pair storage works over the active rows L, R, dest of its own list:
        the image is R^T[(L P L^T) o Q[dest, dest]]R.
        """
        P = np.asarray(P)
        if P.shape != (self.n, self.n):
            raise ValueError("P must be n x n")
        if self.storage == "dense":
            n = self.n
            T = self._Hm.reshape(n, n, n)
            # row b, column (i, a) holds (T_i^T P)[b, a]
            G = (T.transpose(0, 2, 1) @ P).transpose(1, 0, 2).reshape(n, -1)
            return lambda Q: G @ np.tensordot(Q, T, axes=(1, 0)).reshape(
                n * n, n)
        L, _, RT, _, dest = self.active_rows()
        LPL = L @ (L @ P).T

        def image(Q):
            M = LPL * Q.take(dest, axis=0).take(dest, axis=1)
            return RT @ (RT @ M).T
        return image

    def congruence(self, V, W):
        """W^T H (V (x) V) as an r x r^2 matrix, by ``apply_kron``."""
        V = np.asarray(V)
        W = np.asarray(W)
        if V.shape[0] != self.n or W.shape[0] != self.n:
            raise ValueError("basis row dimension mismatch")
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
        h = Hessian.from_pairs(pairs, self.n, symmetric=True)
        h._half = self    # for ``kron_gram``
        return h

    def scaled(self, gamma):
        """gamma times this Hessian; a pair copy keeps the list it was
        symmetrized from, scaled, and shares the active rows."""
        if self.storage == "dense":
            return Hessian.dense(gamma * self._Hm, symmetric=self.symmetric)
        pairs = [(gamma * L, R) for L, R in self._pairs]
        h = Hessian.from_pairs(pairs, self.n, symmetric=self.symmetric)
        h._scaled_from = (self, gamma)
        if self._half is not None:
            h._half = self._half.scaled(gamma)
        return h

    def stored(self):
        """What ``save_system`` writes: (kind, data, symmetric), where kind
        is 'none', 'pairs' with data the pair list, or 'mode1' with data
        the dense unfolding.

        A pair list is given as the list it was symmetrized from when that
        is known, flagged non-symmetric, for the reader to symmetrize again.
        A ``scaled`` copy gives its own list: its half list (gamma L, R)
        would symmetrize to (R / 2, gamma L), not to the bits of
        (gamma R / 2, L).
        """
        if self.is_zero:
            return "none", None, self.symmetric
        if self.storage == "dense":
            return "mode1", self._Hm, self.symmetric
        h = self._half
        if h is None or self._scaled_from is not None:
            h = self
        return "pairs", h.pairs, h.symmetric

    def norm(self):
        """Frobenius norm of the mode-1 unfolding."""
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
