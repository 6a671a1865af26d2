"""50-digit truncated H2 error of a small balanced-truncation pair.

    PYTHONPATH=src python scripts/reference_h2_error.py [k] [r]

Builds chafee_infante(k) (n = 2k, default k = 10), its order-r balanced
truncation at gamma = 0.01 (default r = 8) and their error system in
binary64 with qbmor, then solves the truncated Gramian equations of the
error system in 60-digit arithmetic (mpmath) and prints both trace routes,
sqrt(tr(C P_T C^T)) and sqrt(tr(B^T Q_T B)), to 50 digits. Every binary64
entry converts to mpmath exactly, so the reference is that of the very
matrices qbmor solves with. The Lyapunov equations are solved by the
eigendecompositions of the two diagonal blocks of A_e = blkdiag(A, A_r):
``eigsy`` for the symmetric A, ``eig`` for A_r. The tests keep the printed
value as a constant, so they do not need mpmath. It takes about a minute
at k = 10.
"""

import sys

import mpmath as mp
import numpy as np
import scipy.sparse as sp

from qbmor import balanced_truncation, chafee_infante, error_system

mp.mp.dps = 60


def to_mp(M):
    M = M.toarray() if sp.issparse(M) else np.asarray(M, dtype=float)
    return mp.matrix([[mp.mpf(float(x)) for x in row] for row in M])


def block_eig(Ae, n):
    """V, V^{-1} and the eigenvalues of blkdiag(A, A_r) split at n."""
    N = Ae.rows
    d, U = mp.eigsy(Ae[0:n, 0:n])
    lam_r, W = mp.eig(Ae[n:N, n:N])
    Winv = mp.inverse(W)
    V = mp.zeros(N, N)
    Vinv = mp.zeros(N, N)
    for i in range(n):
        for j in range(n):
            V[i, j] = U[i, j]
            Vinv[i, j] = U[j, i]
    for i in range(N - n):
        for j in range(N - n):
            V[n + i, n + j] = W[i, j]
            Vinv[n + i, n + j] = Winv[i, j]
    return [d[i] for i in range(n)] + list(lam_r), V, Vinv


def lyapunov(lam, V, Vinv, Q):
    """X of M X + X M^T + Q = 0 for M = V diag(lam) V^{-1}."""
    N = len(lam)
    F = Vinv * Q * Vinv.T
    for i in range(N):
        for j in range(N):
            F[i, j] = -F[i, j] / (lam[i] + lam[j])
    X = V * F * V.T
    return mp.matrix([[mp.re(X[i, j]) for j in range(N)] for i in range(N)])


def tensor_entries(H, N):
    """Nonzero (i, a, b, value) of the mode-1 tensor T[i, a, b]."""
    Hm = H.mode1()
    i, ab = np.nonzero(Hm)
    return [(int(ii), int(x) // N, int(x) % N, mp.mpf(float(Hm[ii, x])))
            for ii, x in zip(i, ab)]


def controllability_source(T, P, N):
    """H (P (x) P) H^T: entry (i, j) sums T[i,a,b] T[j,c,d] P[a,c] P[b,d]."""
    S = mp.zeros(N, N)
    for i, a, b, v in T:
        for j, c, d, w in T:
            S[i, j] += v * w * P[a, c] * P[b, d]
    return S


def observability_source(T, P, Q, N):
    """H^(2) (P (x) Q) H^(2)T: entry (b, b') sums
    T[i,a,b] T[i',a',b'] P[a,a'] Q[i,i']."""
    S = mp.zeros(N, N)
    for i, a, b, v in T:
        for j, c, d, w in T:
            S[b, d] += v * w * P[a, c] * Q[i, j]
    return S


def main(k=10, r=8):
    sys_ = chafee_infante(k)
    red, _ = balanced_truncation(sys_, r, gamma=0.01)
    es = error_system(sys_, red)
    n, N = sys_.n, es.n
    Ae, Be, Ce = to_mp(es.A), to_mp(es.B), to_mp(es.C)
    Ne = [to_mp(Nk) for Nk in es.N]
    T = tensor_entries(es.H, N)
    lam, V, Vinv = block_eig(Ae, n)
    # A^T = V^{-T} diag(lam) V^T
    VT, VTinv = Vinv.T, V.T
    P_l = lyapunov(lam, V, Vinv, Be * Be.T)
    Q_l = lyapunov(lam, VT, VTinv, Ce.T * Ce)
    src_p = controllability_source(T, P_l, N) + Be * Be.T
    src_q = observability_source(T, P_l, Q_l, N) + Ce.T * Ce
    for Nk in Ne:
        src_p += Nk * P_l * Nk.T
        src_q += Nk.T * Q_l * Nk
    P_T = lyapunov(lam, V, Vinv, src_p)
    Q_T = lyapunov(lam, VT, VTinv, src_q)
    t_c = sum((Ce * P_T * Ce.T)[i, i] for i in range(Ce.rows))
    t_o = sum((Be.T * Q_T * Be)[i, i] for i in range(Be.cols))
    print("k = %d, r = %d, gamma = 0.01" % (k, r))
    print("controllability route:", mp.nstr(mp.sqrt(t_c), 50))
    print("observability route:  ", mp.nstr(mp.sqrt(t_o), 50))
    print("relative gap of the traces: %s"
          % mp.nstr(abs(t_c - t_o) / t_c, 5))


if __name__ == "__main__":
    main(*[int(a) for a in sys.argv[1:]])
