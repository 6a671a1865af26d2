"""Quadratic-bilinear system container, projection, rescaling, evaluation.

A QBSystem is

    E x'(t) = A x(t) + H (x (x) x) + sum_k N_k x u_k(t) + B u(t)
    y(t)    = C x(t)

with E optional (absent means identity). The quadratic map H is a Hessian
from kron_tensor and is symmetrized on construction. Reduction produces a
ReducedModel whose mass matrix is always the identity: when E is present the
projected (W^T E V)^{-1} factor is absorbed into the reduced matrices. The
alternative of keeping a reduced E as W^T E V is deliberately not used.
"""

import os
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.io as sio
import scipy.linalg as sla
import scipy.sparse as sp

from qbmor.errors import QbmorWarning, SingularGram, NonPositiveGamma
from qbmor.kron_tensor import Hessian
from qbmor.matrix_equations import _SPARSE_FILL, spectral_decompose

# condition bound on projector Gram matrices W^T V, shared with diagnostics
_COND_LIMIT = 1e13


def _dense(M):
    if sp.issparse(M):
        return M.toarray()
    return np.asarray(M, dtype=float)


class QBSystem:
    """Immutable-by-convention container for one QB system."""

    def __init__(self, A, H, N, B, C, E=None, label=""):
        self.A = _dense(A)
        n = self.A.shape[0]
        if self.A.shape != (n, n):
            raise ValueError("A must be square")
        self.B = _dense(B).reshape(n, -1)
        self.C = _dense(C).reshape(-1, n)
        self.N = [_dense(Nk) for Nk in (N if N is not None else [])]
        if len(self.N) != self.B.shape[1]:
            raise ValueError("need one bilinear matrix per input channel")
        for Nk in self.N:
            if Nk.shape != (n, n):
                raise ValueError("bilinear matrices must be n x n")
        if H is None:
            H = Hessian.zero(n)
        if H.n != n:
            raise ValueError("Hessian dimension mismatch")
        self.H = H.symmetrized()
        self.E = None if E is None else _dense(E)
        if self.E is not None and self.E.shape != (n, n):
            raise ValueError("E must be n x n")
        self.label = label
        self._field = None

    @property
    def n(self):
        return self.A.shape[0]

    @property
    def m(self):
        return self.B.shape[1]

    @property
    def p(self):
        return self.C.shape[0]

    def _vector_field(self):
        if self._field is None:
            self._field = _VectorField.build(self)
        return self._field

    def rhs(self, x, u, t=0.0):
        """A x + H(x (x) x) + sum_k u_k N_k x + B u.

        Reads only the cached operator set (`_VectorField`): one matvec with
        the stacked operator, then the pair product and the input terms.
        """
        x = np.asarray(x)
        u = np.atleast_1d(np.asarray(u, dtype=float))
        if x.shape != (self.n,) or u.shape != (self.m,):
            raise ValueError("state/input length mismatch")
        f = self._vector_field()
        n, o, P = self.n, f.lin_rows, f.pair_rows
        y = f.K @ x
        quad = (y[o:o + P] * y[o + P:]).reshape(-1, n).sum(axis=0)
        return y[:n] + u @ y[n:o].reshape(self.m, n) + quad + self.B @ u

    def jacobian(self, x, u):
        """A + 2 H(I (x) x) + sum_k u_k N_k from the cached operator set.

        A CSR array when E is absent and the pattern (the union of A, the
        N_k and the entries the Hessian's left pair factors touch) fills at
        most `_SPARSE_FILL` of n^2; a dense ndarray otherwise. A Hessian in
        dense storage touches every entry.
        """
        x = np.asarray(x)
        u = np.atleast_1d(np.asarray(u, dtype=float))
        f = self._vector_field()
        o, P = f.lin_rows, f.pair_rows
        d = (f.K @ x)[o + P:]
        data = f.scatter @ np.concatenate(([1.0], u, 2.0 * d))
        if f.pattern is None:
            return data.reshape(self.n, self.n)
        return sp.csr_array((data, *f.pattern), shape=(self.n, self.n))

    def output(self, x):
        return self.C @ np.asarray(x)


@dataclass(frozen=True)
class _VectorField:
    """The operators of one system's rhs and Jacobian, built once.

    K stacks [A; N_1; ...; N_m; L_1; ...; L_P; R_1; ...; R_P] over the pair
    factors of the symmetrized Hessian, so one matvec K x yields every
    product the rhs needs: its first lin_rows = (m + 1) n rows are the
    linear part, the next pair_rows the L_j x and the last pair_rows the
    R_j x. Since H(I (x) x) = sum_j diag(R_j x) L_j, scatter maps
    c = [1; u; 2 R_j x ...] to the Jacobian's stored entries; pattern is
    its CSR (indices, indptr), or None when it is dense and the entries run
    over the n x n grid row by row. K is CSR when the pattern is sparse.
    """
    K: object
    lin_rows: int
    pair_rows: int
    scatter: sp.csr_array
    pattern: object

    @classmethod
    def build(cls, sys):
        n, m = sys.n, sys.m
        lin = sp.csr_array(np.vstack([sys.A] + sys.N))
        if sys.H.is_zero:
            Ls = Rs = sp.csr_array((0, n))
        else:
            Ls, Rs = (sp.csr_array(M) for M in sys.H.to_pairs()._stacked())
        # each Jacobian term: its cell row * n + col, value and index into c
        terms = [lin.tocoo(), Ls.tocoo()]
        cell = np.concatenate([(M.row.astype(np.int64) % n) * n + M.col
                               for M in terms])
        val = np.concatenate([M.data for M in terms])
        coef = np.concatenate([terms[0].row // n, m + 1 + terms[1].row])
        cells = np.unique(cell)
        sparse = cells.size <= _SPARSE_FILL * n * n
        K = sp.csr_array(sp.vstack([lin, Ls, Rs]))
        if not sparse:
            K = K.toarray()
        if sparse and sys.E is None:
            pos = np.searchsorted(cells, cell)
            grid = sp.csr_array((np.ones(cells.size), (cells // n, cells % n)),
                                shape=(n, n))
            pattern = (grid.indices, grid.indptr)
        else:
            cells, pos, pattern = np.arange(n * n), cell, None
        scatter = sp.csr_array((val, (pos, coef)),
                               shape=(cells.size, m + 1 + Ls.shape[0]))
        return cls(K=K, lin_rows=lin.shape[0], pair_rows=Ls.shape[0],
                   scatter=scatter, pattern=pattern)


@dataclass
class SpectralBundle:
    """Eigendata plus a reduced model's matrices moved into that eigenbasis."""
    R: np.ndarray
    lam: np.ndarray
    Rinv: np.ndarray
    Btil: np.ndarray          # Rinv @ Bhat
    Ctil: np.ndarray          # Chat @ R
    Ntil: list                # gamma Rinv @ Nhat_k @ R
    Htil: np.ndarray          # gamma Rinv @ Hhat (R (x) R), r x r^2
    Htil2: np.ndarray         # matching transposed-slice unfolding


class ReducedModel(QBSystem):
    """Reduced QB system plus reduction metadata and lazy eigendata."""

    def __init__(self, A, H, N, B, C, label="", method="", gamma=1.0,
                 seed=None, converged=True, iterations=0, tol=0.0, shift=0.0):
        super().__init__(A, H, N, B, C, E=None, label=label)
        self.method = method
        self.gamma = float(gamma)
        self.seed = seed
        self.converged = bool(converged)
        self.iterations = int(iterations)
        self.tol = float(tol)
        self.shift = float(shift)
        self._spectral = None

    @property
    def r(self):
        return self.n

    @property
    def spectral(self):
        if self._spectral is None:
            self._spectral = self.eigenbasis(spectral_decompose(self.A))
        return self._spectral

    def eigenbasis(self, f, lam=None, gamma=1.0):
        """This model's B, C, gamma N_k and gamma H moved into the eigenbasis f.

        f holds the spectral factors of a matrix (usually A itself); lam
        replaces f.lam in the bundle when given, e.g. reflected shifts.
        """
        R, Rinv = f.R, f.Rinv
        r = self.r
        Htil = gamma * (Rinv @ self.H.apply_kron(R, R))
        Htil2 = Htil.reshape(r, r, r).transpose(2, 1, 0).reshape(r, r * r)
        return SpectralBundle(
            R=R, lam=f.lam if lam is None else lam, Rinv=Rinv,
            Btil=Rinv @ self.B,
            Ctil=self.C @ R,
            Ntil=[gamma * (Rinv @ Nk @ R) for Nk in self.N],
            Htil=Htil, Htil2=Htil2,
        )

    def rescaled(self, gamma):
        if gamma <= 0:
            raise NonPositiveGamma("gamma must be positive")
        return ReducedModel(
            self.A, self.H.scaled(gamma), [gamma * Nk for Nk in self.N],
            self.B, self.C, label=self.label, method=self.method,
            gamma=self.gamma, seed=self.seed, converged=self.converged,
            iterations=self.iterations, tol=self.tol, shift=self.shift)


@dataclass
class ProjectionBases:
    """The two-term projection bases: the complex Sylvester solutions and
    the realified sums V = V1c + V2c, W = W1c + W2c (not orthonormalized).
    """
    V1c: np.ndarray
    V2c: np.ndarray
    W1c: np.ndarray
    W2c: np.ndarray
    V: np.ndarray
    W: np.ndarray


def orthonormalize(X):
    """Orthonormal basis of range(X), completed from its QR factor.

    The Q of a pivoted Householder QR is orthonormal at full width. When X
    is numerically rank deficient, the leading columns of Q span range(X)
    and the trailing ones are X's own near-dependent directions, so Q is
    returned as it is, with a QbmorWarning; nothing random enters.
    """
    X = np.asarray(X, dtype=float)
    n, r = X.shape
    Q, R, _ = sla.qr(X, mode="economic", pivoting=True)
    diag = np.abs(np.diag(R))
    if diag.size:
        rank = int(np.sum(diag > max(n, r) * np.finfo(float).eps * diag[0]))
        if rank < r:
            warnings.warn("basis is rank deficient (%d < %d); padding from "
                          "its QR factor" % (rank, r), QbmorWarning)
    return Q


def project(sys, V, W, **meta):
    """Petrov-Galerkin reduction onto span(V) along span(W).

    With a mass matrix the (W^T E V)^{-1} factor is used and the reduced
    system has identity mass. That factor is applied by linear solves with
    the Gram matrix, never by its explicit inverse.
    """
    V = np.asarray(V, dtype=float)
    W = np.asarray(W, dtype=float)
    G = W.T @ (V if sys.E is None else sys.E @ V)
    cond = np.linalg.cond(G)
    if not np.isfinite(cond) or cond > _COND_LIMIT:
        raise SingularGram("projector Gram matrix condition %.3e" % cond)
    Ahat = np.linalg.solve(G, W.T @ (sys.A @ V))
    Bhat = np.linalg.solve(G, W.T @ sys.B)
    Chat = sys.C @ V
    Nhat = [np.linalg.solve(G, W.T @ (Nk @ V)) for Nk in sys.N]
    Hm = np.linalg.solve(G, sys.H.congruence(V, W))
    Hhat = Hessian.dense(Hm)
    return ReducedModel(Ahat, Hhat, Nhat, Bhat, Chat, label=sys.label, **meta)


def rescale(sys, gamma):
    """Same state dynamics family with H and the N_k scaled by gamma.

    The scaled system driven by u reproduces 1/gamma times the original
    output driven by gamma*u, and reduction bases computed from the scaled
    system are valid bases for the original one.
    """
    if gamma <= 0:
        raise NonPositiveGamma("gamma must be positive")
    return QBSystem(sys.A, sys.H.scaled(gamma), [gamma * Nk for Nk in sys.N],
                    sys.B, sys.C, E=sys.E, label=sys.label)


def fold_mass_matrix(sys):
    """Same dynamics with an invertible mass matrix folded into A, H, N, B.

    E is factored once and applied to A, the N_k, B and the mode-1 Hessian
    by LU solves, never inverted; H becomes dense. Returns sys when E is
    absent.
    """
    if sys.E is None:
        return sys
    lu = sla.lu_factor(sys.E)
    H = Hessian.dense(sla.lu_solve(lu, sys.H.mode1()),
                      symmetric=sys.H.symmetric)
    return QBSystem(sla.lu_solve(lu, sys.A), H,
                    [sla.lu_solve(lu, Nk) for Nk in sys.N],
                    sla.lu_solve(lu, sys.B), sys.C, label=sys.label)


# --------------------------------------------------------------- serialization
#
# A system or reduced model is a directory: one plain-text manifest plus one
# MatrixMarket file per matrix. 17 significant digits make the round trip
# lossless for binary64.

def _write_matrix(path, M):
    if sp.issparse(M):
        M = M.tocsr()
        M.sort_indices()
        sio.mmwrite(path, M.tocoo(), precision=17)
    else:
        sio.mmwrite(path, np.asarray(M, dtype=float), precision=17)


def _read_matrix(path):
    M = sio.mmread(path)
    if sp.issparse(M):
        return sp.csr_array(M)
    return np.asarray(M, dtype=float)


def _write_manifest(path, entries):
    lines = ["# qbmor manifest"]
    for key, val in entries:
        lines.append("%s = %s" % (key, val))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _read_manifest(path):
    entries = {}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, _, val = line.partition("=")
            entries[key.strip()] = val.strip()
    return entries


def _fmt_float(x):
    return "%.17g" % float(x)


def save_system(sys, out_dir):
    """Write a system directory; returns the manifest path."""
    os.makedirs(out_dir, exist_ok=True)
    entries = [
        ("format", "qbmor-system-1"),
        ("n", str(sys.n)), ("m", str(sys.m)), ("p", str(sys.p)),
        ("label", sys.label),
    ]
    _write_matrix(os.path.join(out_dir, "a.mtx"), sys.A)
    _write_matrix(os.path.join(out_dir, "b.mtx"), sys.B)
    _write_matrix(os.path.join(out_dir, "c.mtx"), sys.C)
    entries += [("a", "a.mtx"), ("b", "b.mtx"), ("c", "c.mtx")]
    for k, Nk in enumerate(sys.N):
        name = "n_%d.mtx" % k
        _write_matrix(os.path.join(out_dir, name), Nk)
        entries.append(("n_%d" % k, name))
    if sys.E is not None:
        _write_matrix(os.path.join(out_dir, "e.mtx"), sys.E)
        entries.append(("e", "e.mtx"))
    H = sys.H
    if H.is_zero:
        entries.append(("hessian", "none"))
    elif H.storage == "pairs":
        entries.append(("hessian", "pairs"))
        entries.append(("hpairs", str(len(H.pairs))))
        for j, (L, R) in enumerate(H.pairs):
            la, rb = "hpair_a_%d.mtx" % j, "hpair_b_%d.mtx" % j
            _write_matrix(os.path.join(out_dir, la), L)
            _write_matrix(os.path.join(out_dir, rb), R)
            entries.append(("hpair_a_%d" % j, la))
            entries.append(("hpair_b_%d" % j, rb))
    else:
        entries.append(("hessian", "mode1"))
        _write_matrix(os.path.join(out_dir, "h.mtx"), H.mode1())
        entries.append(("hmode1", "h.mtx"))
    entries.append(("hessian_symmetric", "true" if H.symmetric else "false"))
    manifest = os.path.join(out_dir, "system.qbm")
    _write_manifest(manifest, entries)
    return manifest


def load_system(path):
    """Read a system directory (accepts the directory or the manifest path)."""
    if os.path.isdir(path):
        path = os.path.join(path, "system.qbm")
    man = _read_manifest(path)
    if man.get("format") != "qbmor-system-1":
        raise ValueError("not a system manifest: %s" % path)
    base = os.path.dirname(path)
    n = int(man["n"])
    m = int(man["m"])
    A = _read_matrix(os.path.join(base, man["a"]))
    B = _read_matrix(os.path.join(base, man["b"]))
    C = _read_matrix(os.path.join(base, man["c"]))
    N = [_read_matrix(os.path.join(base, man["n_%d" % k])) for k in range(m)]
    E = _read_matrix(os.path.join(base, man["e"])) if "e" in man else None
    sym = man.get("hessian_symmetric", "false") == "true"
    kind = man.get("hessian", "none")
    if kind == "none":
        H = Hessian.zero(n)
    elif kind == "pairs":
        pairs = []
        for j in range(int(man["hpairs"])):
            L = _read_matrix(os.path.join(base, man["hpair_a_%d" % j]))
            R = _read_matrix(os.path.join(base, man["hpair_b_%d" % j]))
            pairs.append((L, R))
        H = Hessian.from_pairs(pairs, n, symmetric=sym)
    else:
        Hm = _read_matrix(os.path.join(base, man["hmode1"]))
        if sp.issparse(Hm):
            Hm = Hm.toarray()
        H = Hessian.dense(Hm, symmetric=sym)
    return QBSystem(A, H, N, B, C, E=E, label=man.get("label", ""))


def save_reduced(red, out_dir):
    """Write a reduced-model directory; returns the manifest path."""
    os.makedirs(out_dir, exist_ok=True)
    entries = [
        ("format", "qbmor-reduced-1"),
        ("r", str(red.r)), ("m", str(red.m)), ("p", str(red.p)),
        ("label", red.label),
        ("method", red.method),
        ("gamma", _fmt_float(red.gamma)),
        ("seed", "" if red.seed is None else str(red.seed)),
        ("converged", "true" if red.converged else "false"),
        ("iterations", str(red.iterations)),
        ("tol", _fmt_float(red.tol)),
        ("shift", _fmt_float(red.shift)),
    ]
    _write_matrix(os.path.join(out_dir, "ahat.mtx"), red.A)
    _write_matrix(os.path.join(out_dir, "bhat.mtx"), red.B)
    _write_matrix(os.path.join(out_dir, "chat.mtx"), red.C)
    entries += [("ahat", "ahat.mtx"), ("bhat", "bhat.mtx"), ("chat", "chat.mtx")]
    for k, Nk in enumerate(red.N):
        name = "nhat_%d.mtx" % k
        _write_matrix(os.path.join(out_dir, name), Nk)
        entries.append(("nhat_%d" % k, name))
    _write_matrix(os.path.join(out_dir, "hhat.mtx"), red.H.mode1())
    entries.append(("hhat", "hhat.mtx"))
    manifest = os.path.join(out_dir, "reduced.qbm")
    _write_manifest(manifest, entries)
    return manifest


def load_reduced(path):
    if os.path.isdir(path):
        path = os.path.join(path, "reduced.qbm")
    man = _read_manifest(path)
    if man.get("format") != "qbmor-reduced-1":
        raise ValueError("not a reduced-model manifest: %s" % path)
    base = os.path.dirname(path)
    r = int(man["r"])
    m = int(man["m"])
    A = _read_matrix(os.path.join(base, man["ahat"]))
    B = _read_matrix(os.path.join(base, man["bhat"]))
    C = _read_matrix(os.path.join(base, man["chat"]))
    N = [_read_matrix(os.path.join(base, man["nhat_%d" % k])) for k in range(m)]
    Hm = _read_matrix(os.path.join(base, man["hhat"]))
    if sp.issparse(Hm):
        Hm = Hm.toarray()
    seed = man.get("seed", "")
    return ReducedModel(
        A, Hessian.dense(Hm.reshape(r, r * r), symmetric=True), N, B, C,
        label=man.get("label", ""), method=man.get("method", ""),
        gamma=float(man.get("gamma", "1")),
        seed=None if seed == "" else int(seed),
        converged=man.get("converged", "true") == "true",
        iterations=int(man.get("iterations", "0")),
        tol=float(man.get("tol", "0")),
        shift=float(man.get("shift", "0")))
