"""Quadratic-bilinear system container, projection, rescaling, evaluation.

A QBSystem is

    E x'(t) = A x(t) + H (x (x) x) + sum_k N_k x u_k(t) + B u(t)
    y(t)    = C x(t)

with E optional (absent means identity). The quadratic map H is a Hessian
from kron_tensor and is symmetrized on construction. `QBSystem.solve_mass`
is the one place E^{-1} is applied; every consumer folds E into the n x k
factors it needs, never into H. Reduction produces a ReducedModel whose
mass matrix is always the identity: when E is present the projected
(W^T E V)^{-1} factor is absorbed into the reduced matrices. The
alternative of keeping a reduced E as W^T E V is deliberately not used.
"""

import copy
import os
import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.io as sio
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from qbmor.errors import QbmorWarning, SingularGram, NonPositiveGamma
from qbmor.kron_tensor import Hessian, _dense
from qbmor.matrix_equations import (
    _SPARSE_FILL, hurwitz_schur, shifted_lu, spectral_decompose,
)

# condition bound on the projector Gram matrix W^T V (or W^T E V)
_COND_LIMIT = 1e13


def _operator(M):
    """A sparse operator as a CSR array, any other as a dense float array."""
    if sp.issparse(M):
        return sp.csr_array(M, dtype=float)
    return np.asarray(M, dtype=float)


def _channels(M, n, axis):
    """B (axis 0) or C (axis 1), dense, with n entries along axis; a 1-D M of
    length n is one channel. Other shapes raise ValueError, not reshaped."""
    M = _dense(M)
    if M.ndim == 1:
        M = np.expand_dims(M, 1 - axis)
    if M.ndim != 2 or M.shape[axis] != n:
        raise ValueError("B must have n rows and C n columns")
    return M


class QBSystem:
    """Immutable-by-convention container for one QB system.

    A, the N_k and E are kept as given: sparse ones as CSR arrays, dense
    ones as float ndarrays; B and C are dense. Every consumer works on
    either form, and only the dense Gramian path (``hurwitz_schur``, one
    decoupled block of A at a time) and the brute-force diagnostics
    densify. The operator set of ``rhs`` and ``jacobian``, the
    ``shifted_lu`` form of A + lam E with its factors, the ``hurwitz_schur``
    form of E^{-1}A and the LU of E are built on first use and cached; a
    caller that holds the ``hurwitz_schur`` form already passes it as
    ``schur``. The forms and the LU of E depend on A and E alone, so a
    ``rescaled`` copy shares them with its source (``_fixed``); the
    operator set and eigendata are each system's own (``_own``).
    """

    def __init__(self, A, H, N, B, C, E=None, label="", schur=None):
        self.A = _operator(A)
        n = self.A.shape[0]
        if self.A.shape != (n, n):
            raise ValueError("A must be square")
        self.B = _channels(B, n, 0)
        self.C = _channels(C, n, 1)
        self.N = [_operator(Nk) for Nk in (N if N is not None else [])]
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
        self.E = None if E is None else _operator(E)
        if self.E is not None and self.E.shape != (n, n):
            raise ValueError("E must be n x n")
        self.label = label
        # "field" and a ReducedModel's "spectral"
        self._own = {}
        # "pencil", "schur" and "lu_E", shared with rescaled copies
        self._fixed = {} if schur is None else {"schur": schur}

    @property
    def n(self):
        return self.A.shape[0]

    @property
    def m(self):
        return self.B.shape[1]

    @property
    def p(self):
        return self.C.shape[0]

    def rescaled(self, gamma):
        """This system with H and the N_k scaled by gamma (``rescale``).

        A shallow copy, so a ReducedModel stays one and keeps its metadata.
        It shares the caches of A and E alone, and builds its rhs operator
        and eigendata afresh. At gamma = 1 every operator holds the source's
        bits.
        """
        if not 0.0 < gamma < np.inf:
            raise NonPositiveGamma("gamma must be positive and finite")
        out = copy.copy(self)
        out.H = self.H.scaled(gamma)
        out.N = [gamma * Nk for Nk in self.N]
        out._own = {}
        return out

    def _vector_field(self):
        if "field" not in self._own:
            self._own["field"] = _VectorField.build(self)
        return self._own["field"]

    def pencil(self):
        """The ``shifted_lu`` form of A + lam E, built once per system and
        shared, with its last factors, by ``rescaled`` copies: neither
        depends on gamma."""
        if "pencil" not in self._fixed:
            self._fixed["pencil"] = shifted_lu(self.A, self.E)
        return self._fixed["pencil"]

    def schur(self):
        """``hurwitz_schur`` of E^{-1}A, built once per system: the Schur
        basis every Gramian solve of the system works in."""
        if "schur" not in self._fixed:
            self._fixed["schur"] = hurwitz_schur(self.solve_mass(self.A))
        return self._fixed["schur"]

    def solve_mass(self, X, transpose=False):
        """E^{-1} X, or E^{-T} X with transpose; X itself when E is absent.

        The one place E^{-1} is applied: by solves with one LU factorization
        of E (``splu`` when E is sparse), made on first use and cached,
        never by an explicit inverse. The result is dense; X must be real
        when E is sparse. Non-finite entries of X propagate instead of
        raising.
        """
        if self.E is None:
            return X
        if sp.issparse(X):
            X = X.toarray()
        lu = self._fixed.get("lu_E")
        if sp.issparse(self.E):
            if lu is None:
                lu = self._fixed["lu_E"] = spla.splu(sp.csc_array(self.E))
            return lu.solve(X, trans="T" if transpose else "N")
        if lu is None:
            lu = self._fixed["lu_E"] = sla.lu_factor(self.E)
        return sla.lu_solve(lu, X, trans=int(transpose), check_finite=False)

    def rhs(self, x, u):
        """A x + H(x (x) x) + sum_k u_k N_k x + B u, for a state or a block.

        x is one state (length n) with its input u (length m), or an n x q
        block of states with the m x q block of their inputs; column j of
        the result is then the rhs at (x[:, j], u[:, j]). Reads only the
        cached operator set (`_VectorField`): one product of the stacked
        operator G with z = [x; u; 1], one Hadamard product of the left and
        right factors it yields and one sum of each output row's terms,
        each column computed as a single state is, so a block and q single
        calls agree to the last bit.
        """
        x = np.asarray(x)
        u = np.asarray(u, dtype=float)
        single = x.ndim == 1
        if single:
            x, u = x[:, None], np.atleast_1d(u)[:, None]
        if x.ndim != 2 or x.shape[0] != self.n or u.shape != (self.m,
                                                              x.shape[1]):
            raise ValueError("state/input shape mismatch")
        out = self._vector_field().rhs(x, u)
        return out[:, 0] if single else out

    def jacobian(self, x, u):
        """A + 2 H(I (x) x) + sum_k u_k N_k at one state x (length n) and
        its input u (length m), from the cached operator set.

        A CSC array when E is absent and J's own cells (the union of A, the
        N_k and the entries the Hessian's left pair factors touch) fill at
        most `_SPARSE_FILL` of n^2; a dense ndarray otherwise. A Hessian in
        dense storage touches every entry. The CSC array stores exactly J's
        own cells, those that are zero at x as explicit zeros; every call
        hands out copies of one cached pattern.
        """
        x = np.asarray(x)
        u = np.atleast_1d(np.asarray(u, dtype=float))
        if x.shape != (self.n,) or u.shape != (self.m,):
            raise ValueError("state/input shape mismatch")
        f = self._vector_field()
        data = f.scatter @ (f.G @ np.concatenate((x, u, [1.0])))[f.half:]
        if f.pattern is None:
            return data.reshape(self.n, self.n)
        # the index arrays are copied: a caller that prunes or sorts the
        # result in place must not rewrite the cached pattern
        indices, indptr = f.pattern
        return sp.csc_array((data, indices.copy(), indptr.copy()),
                            shape=(self.n, self.n))


@dataclass(frozen=True)
class _VectorField:
    """The operators of one system's rhs and Jacobian, built once.

    G is one operator on z = [x; u; 1] whose rows come in blocks, one per
    term of the rhs, each the Hadamard product of a left and a right
    factor: (A x + B u) o 1, u_k o (N_k x) for each input channel, and
    (L x) o (R x) over the Hessian's ``active_rows``, the row form its
    products read. G keeps the linear block whole and the N_k rows that
    have entries. Its rows are ordered by the output row dest they add
    into, in block order.
    Its first `half` rows give the left factors and the rest the right
    ones, so with Y = G z, rhs[i] is the sum of Y[t] Y[half + t] over the
    rows t with dest[t] = i, in order. G is dense when its own entries
    fill more than `_SPARSE_FILL` of it.

    A term's Jacobian is diag(right) times its left factor's x columns,
    twice that for a Hessian pair, since the symmetrized pair list holds
    (L/2, R) and (R/2, L) together. scatter maps the right factors
    Y[half:] to the Jacobian's stored entries; pattern is its CSC
    (indices, indptr) on J's own cells, or None when it is dense and the
    entries run over the n x n grid row by row.
    """
    G: object
    half: int
    dest: np.ndarray
    scatter: sp.csr_array
    pattern: object
    _at: dict = field(default_factory=dict, repr=False)  # by block width

    def rhs(self, x, u):
        """``QBSystem.rhs`` of an n x q state block and its m x q inputs,
        unchecked; the result's transpose is C-contiguous."""
        (n, q), h, G = x.shape, self.half, self.G
        # column by column, as for a single state: inside the CSR product,
        # and by one matrix-vector product each on a dense G
        if sp.issparse(G):
            z = np.empty((G.shape[1], q))
            z[:n], z[n:-1], z[-1] = x, u, 1.0
            Y = (G @ z).T
        else:
            z = np.empty((q, G.shape[1], 1))
            z[:, :n, 0], z[:, n:-1, 0], z[:, -1] = x.T, u.T, 1.0
            Y = (G @ z)[..., 0]
        at = self._at.get(q)
        if at is None:
            at = self._at[q] = (self.dest + n * np.arange(q)[:, None]).ravel()
        prod = np.multiply(Y[:, :h], Y[:, h:], out=np.empty((q, h)))
        return np.bincount(at, weights=prod.ravel(),
                           minlength=q * n).reshape(q, n).T

    @classmethod
    def build(cls, sys):
        n, m = sys.n, sys.m
        L, R, _, _, hdest = sys.H.active_rows()
        # block columns x, u and the constant 1 of z; block rows the left
        # factors, then the right ones in the same order
        one = sp.csr_array(np.ones((n, 1)))
        chan = [sp.csr_array((np.ones(n), (np.arange(n), np.full(n, k))),
                             shape=(n, m)) for k in range(m)]
        G = sp.block_array([[sys.A, sys.B, None]]
                           + [[Nk, None, None] for Nk in sys.N]
                           + [[L, None, None], [None, None, one]]
                           + [[None, S, None] for S in chan]
                           + [[R, None, None]], format="csr")
        # kept: the linear block whole, N_k's nonempty rows, H's active rows
        nb = (m + 1) * n
        keep = np.flatnonzero((np.diff(G.indptr[:nb + 1]) > 0)
                              | (np.arange(nb) < n))
        term = np.concatenate((keep, nb + np.arange(hdest.size)))
        dest = np.concatenate((keep % n, hdest))
        order = np.argsort(dest, kind="stable")
        term, dest, half = term[order], dest[order], term.size
        G = G[np.concatenate((term, nb + hdest.size + term))]
        # each Jacobian term: its cell (row, col), value and index into the
        # right factors; the linear block's right factor is 1
        lc = G[:half, :n].tocoo()
        row, col = dest[lc.row], lc.col.astype(np.int64)
        val = np.where(term[lc.row] < nb, 1.0, 2.0) * lc.data
        cell = col * n + row    # column-major cells
        cells = np.unique(cell)
        if cells.size <= _SPARSE_FILL * n * n and sys.E is None:
            pattern = ((cells % n).astype(np.int32), np.searchsorted(
                cells, np.arange(n + 1) * n).astype(np.int32))
        else:
            cell = row * n + col
            cells, pattern = np.arange(n * n), None
        scatter = sp.csr_array((val, (np.searchsorted(cells, cell), lc.row)),
                               shape=(cells.size, half))
        if G.nnz > _SPARSE_FILL * G.shape[0] * G.shape[1]:
            G = G.toarray()
        return cls(G=G, half=half, dest=dest, scatter=scatter,
                   pattern=pattern)


@dataclass
class SpectralBundle:
    """Eigendata plus a reduced model's matrices moved into that eigenbasis."""
    R: np.ndarray
    lam: np.ndarray
    Rinv: np.ndarray
    Btil: np.ndarray          # Rinv @ Bhat
    Ctil: np.ndarray          # Chat @ R
    Ntil: list                # Rinv @ Nhat_k @ R
    Htil: np.ndarray          # Rinv @ Hhat (R (x) R), r x r^2
    Htil2: np.ndarray         # matching transposed-slice unfolding


class ReducedModel(QBSystem):
    """Reduced QB system plus reduction metadata and lazy eigendata."""

    def __init__(self, A, H, N, B, C, label="", method="", gamma=1.0,
                 seed=None, converged=True, iterations=0, tol=0.0):
        super().__init__(A, H, N, B, C, E=None, label=label)
        self.method = method
        self.gamma = float(gamma)
        self.seed = seed
        self.converged = bool(converged)
        self.iterations = int(iterations)
        self.tol = float(tol)

    @property
    def r(self):
        return self.n

    @property
    def spectral(self):
        if "spectral" not in self._own:
            self._own["spectral"] = self.eigenbasis(spectral_decompose(self.A))
        return self._own["spectral"]

    def eigenbasis(self, f):
        """This model's B, C, N_k and H moved into the eigenbasis f.

        f holds the spectral factors of a matrix (usually A itself), and
        its lam is the bundle's. H(R (x) R) contracts the r x r x r tensor:
        each ``tqb_irka`` sweep moves a fresh model, whose ``active_rows``
        cost several contractions.
        """
        R, Rinv = f.R, f.Rinv
        r = self.r
        T = self.H.mode1().reshape(r, r, r)
        HRR = np.tensordot(np.tensordot(T, R, axes=([1], [0])), R,
                           axes=([1], [0]))
        Htil = Rinv @ HRR.reshape(r, r * r)
        Htil2 = Htil.reshape(r, r, r).transpose(2, 1, 0).reshape(r, r * r)
        return SpectralBundle(
            R=R, lam=f.lam, Rinv=Rinv,
            Btil=Rinv @ self.B,
            Ctil=self.C @ R,
            Ntil=[Rinv @ Nk @ R for Nk in self.N],
            Htil=Htil, Htil2=Htil2,
        )


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
    """Same state dynamics family with H and the N_k scaled by gamma
    (``QBSystem.rescaled``).

    The scaled system driven by u reproduces 1/gamma times the original
    output driven by gamma*u, and reduction bases computed from the scaled
    system are valid bases for the original one.
    """
    return sys.rescaled(gamma)


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


def _write_matrices(out_dir, entries, matrices):
    """Write each (key, M) to out_dir/key.mtx and list the file under key."""
    for key, M in matrices:
        _write_matrix(os.path.join(out_dir, key + ".mtx"), M)
        entries.append((key, key + ".mtx"))


def _check_label(label):
    """A label is written as one manifest line and read back stripped."""
    if "\n" in label or "\r" in label or label != label.strip():
        raise ValueError("label %r is not one stripped line" % label)


def _write_manifest(path, entries):
    lines = ["# qbmor manifest"]
    for key, val in entries:
        lines.append("%s = %s" % (key, val))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


class _Manifest(dict):
    """Manifest entries; reading a missing key raises ValueError naming it."""

    def __missing__(self, key):
        raise ValueError("manifest %s lacks the key %r" % (self.path, key))


def _open_manifest(path, name, fmt, what):
    """The entries of a manifest, given it or its directory, and a reader of
    the matrix file an entry names."""
    if os.path.isdir(path):
        path = os.path.join(path, name)
    entries = _Manifest()
    entries.path = path
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, _, val = line.partition("=")
            entries[key.strip()] = val.strip()
    if entries.get("format") != fmt:
        raise ValueError("not a %s manifest: %s" % (what, path))
    base = os.path.dirname(path)
    return entries, lambda key: _read_matrix(os.path.join(base, entries[key]))


def save_system(sys, out_dir):
    """Write a system directory; returns the manifest path. The Hessian is
    written as ``Hessian.stored`` gives it, for ``load_system`` to
    symmetrize again unless it is flagged symmetric."""
    _check_label(sys.label)
    os.makedirs(out_dir, exist_ok=True)
    entries = [
        ("format", "qbmor-system-1"),
        ("n", str(sys.n)), ("m", str(sys.m)), ("p", str(sys.p)),
        ("label", sys.label),
    ]
    matrices = [("a", sys.A), ("b", sys.B), ("c", sys.C)]
    matrices += [("n_%d" % k, Nk) for k, Nk in enumerate(sys.N)]
    if sys.E is not None:
        matrices.append(("e", sys.E))
    _write_matrices(out_dir, entries, matrices)
    kind, data, symmetric = sys.H.stored()
    entries.append(("hessian", kind))
    if kind == "pairs":
        entries.append(("hpairs", str(len(data))))
        for j, (L, R) in enumerate(data):
            _write_matrices(out_dir, entries, [("hpair_a_%d" % j, L),
                                               ("hpair_b_%d" % j, R)])
    elif kind == "mode1":
        _write_matrix(os.path.join(out_dir, "h.mtx"), data)
        entries.append(("hmode1", "h.mtx"))
    entries.append(("hessian_symmetric", "true" if symmetric else "false"))
    manifest = os.path.join(out_dir, "system.qbm")
    _write_manifest(manifest, entries)
    return manifest


def load_system(path):
    """Read a system directory (accepts the directory or the manifest path).
    ``QBSystem`` symmetrizes the Hessian as stored, unless it is flagged
    symmetric."""
    man, read = _open_manifest(path, "system.qbm", "qbmor-system-1", "system")
    n = int(man["n"])
    N = [read("n_%d" % k) for k in range(int(man["m"]))]
    E = read("e") if "e" in man else None
    sym = man.get("hessian_symmetric", "false") == "true"
    kind = man.get("hessian", "none")
    if kind == "none":
        H = Hessian.zero(n)
    elif kind == "pairs":
        pairs = [(read("hpair_a_%d" % j), read("hpair_b_%d" % j))
                 for j in range(int(man["hpairs"]))]
        H = Hessian.from_pairs(pairs, n, symmetric=sym)
    else:
        H = Hessian.dense(_dense(read("hmode1")), symmetric=sym)
    return QBSystem(read("a"), H, N, read("b"), read("c"), E=E,
                    label=man.get("label", ""))


def save_reduced(red, out_dir):
    """Write a reduced-model directory; returns the manifest path."""
    _check_label(red.label)
    os.makedirs(out_dir, exist_ok=True)
    entries = [
        ("format", "qbmor-reduced-1"),
        ("r", str(red.r)), ("m", str(red.m)), ("p", str(red.p)),
        ("label", red.label),
        ("method", red.method),
        ("gamma", "%.17g" % red.gamma),
        ("seed", "" if red.seed is None else str(red.seed)),
        ("converged", "true" if red.converged else "false"),
        ("iterations", str(red.iterations)),
        ("tol", "%.17g" % red.tol),
    ]
    _write_matrices(out_dir, entries,
                    [("ahat", red.A), ("bhat", red.B), ("chat", red.C)]
                    + [("nhat_%d" % k, Nk) for k, Nk in enumerate(red.N)]
                    + [("hhat", red.H.mode1())])
    manifest = os.path.join(out_dir, "reduced.qbm")
    _write_manifest(manifest, entries)
    return manifest


def load_reduced(path):
    """Read a reduced-model directory. Like ``load_system``, it leaves the
    stored Hessian unflagged, for ``QBSystem`` to symmetrize."""
    man, read = _open_manifest(path, "reduced.qbm", "qbmor-reduced-1",
                               "reduced-model")
    r = int(man["r"])
    N = [read("nhat_%d" % k) for k in range(int(man["m"]))]
    Hm = _dense(read("hhat")).reshape(r, r * r)
    seed = man.get("seed", "")
    return ReducedModel(
        read("ahat"), Hessian.dense(Hm), N, read("bhat"),
        read("chat"), label=man.get("label", ""),
        method=man.get("method", ""), gamma=float(man.get("gamma", "1")),
        seed=None if seed == "" else int(seed),
        converged=man.get("converged", "true") == "true",
        iterations=int(man.get("iterations", "0")),
        tol=float(man.get("tol", "0")))
