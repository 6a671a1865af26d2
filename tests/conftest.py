"""Shared helpers for the test suite.

Includes random system factories and an independent quadrature oracle for
H2-type norms that never touches the Lyapunov solver under test.
"""

import numpy as np
import scipy.linalg as sla

from qbmor.gramians_norms import _linear_gramian
from qbmor.kron_tensor import Hessian


def rng_for(seed):
    return np.random.default_rng(seed)


def lifted(g, name):
    """The Gramian name of the bundle g in the original coordinates,
    Z (Z^T X Z) Z^T symmetrized."""
    X = g.basis.lift(g.schur[name])
    return 0.5 * (X + X.T)


def linear_gramian(sys, observability=False):
    """P_l of sys, or Q_l with observability, in the original coordinates:
    the library's own Schur-basis solve, lifted by the Schur form of sys
    and symmetrized."""
    X = sys.schur().lift(_linear_gramian(sys, observability))
    return 0.5 * (X + X.T)


def record_band_factors(monkeypatch):
    """List of (dtype, stacked order) of every LAPACK gbtrf call from here
    on: one entry per band factorization of a group of shifts."""
    factored = []
    get = sla.get_lapack_funcs

    def getting(names, arrays=(), *args, **kwargs):
        funcs = get(names, arrays, *args, **kwargs)
        if names != ("gbtrf", "gbtrs"):
            return funcs
        gbtrf, gbtrs = funcs

        def counting(ab, *fargs, **fkwargs):
            factored.append((ab.dtype, ab.shape[1]))
            return gbtrf(ab, *fargs, **fkwargs)

        return counting, gbtrs

    monkeypatch.setattr(sla, "get_lapack_funcs", getting)
    return factored


def random_tensor(n, rng):
    return rng.standard_normal((n, n, n))


def random_dense_hessian(n, rng, symmetric=False):
    h = Hessian.dense(rng.standard_normal((n, n * n)))
    return h.symmetrized() if symmetric else h


def random_pair_hessian(n, nterms, rng, symmetric=False):
    pairs = [(rng.standard_normal((n, n)), rng.standard_normal((n, n)))
             for _ in range(nterms)]
    h = Hessian.from_pairs(pairs, n)
    return h.symmetrized() if symmetric else h


def random_stable_qb(n, m, p, rng, scale=None, with_hessian=True, nterms=None):
    """Random QB system with Hurwitz A and smallish quadratic/bilinear parts.

    scale defaults to 0.1/n which keeps the quadratic Gramian iteration
    contractive for the sizes used in tests.
    """
    from qbmor.qb_core import QBSystem

    if scale is None:
        scale = 0.1 / n
    S = rng.standard_normal((n, n))
    A = -np.eye(n) * (1.0 + rng.uniform(0, 1, size=n)) + 0.3 * (S - S.T)
    B = rng.standard_normal((n, m))
    C = rng.standard_normal((p, n))
    N = [scale * rng.standard_normal((n, n)) for _ in range(m)]
    if with_hessian:
        T = rng.standard_normal((n, n, n))
        T = scale * T / max(np.linalg.norm(T.reshape(n, -1)), 1.0)
        h = Hessian.dense(T.reshape(n, n * n)).symmetrized()
    else:
        h = Hessian.zero(n)
    return QBSystem(A=A, H=h, N=N, B=B, C=C)


def quadrature_h2_squared(sys, rtol=1e-8):
    """Truncated H2 norm squared through matrix-exponential quadrature.

    Independent oracle: builds the two kernel integrals with composite
    Gauss-Legendre panels and doubles the panel count until the total is
    stable to rtol. No Lyapunov solves involved.
    """
    A = sys.A
    n = A.shape[0]
    lam = np.linalg.eigvals(A)
    decay = -np.max(lam.real)
    assert decay > 0
    Tstar = 40.0 / decay

    def integral(S0):
        # int_0^T e^{At} S0 e^{A^T t} dt by panelwise Gauss-Legendre
        nodes, weights = np.polynomial.legendre.leggauss(8)
        panels = 4
        prev = None
        while True:
            total = np.zeros((n, n))
            edges = np.linspace(0.0, Tstar, panels + 1)
            for a, b in zip(edges[:-1], edges[1:]):
                half = 0.5 * (b - a)
                mid = 0.5 * (a + b)
                for xi, wi in zip(nodes, weights):
                    t = mid + half * xi
                    E = sla.expm(A * t)
                    total += wi * half * (E @ S0 @ E.T)
            if prev is not None and np.linalg.norm(total - prev) <= rtol * np.linalg.norm(total):
                return total
            prev = total
            panels *= 2
            assert panels <= 512, "quadrature failed to settle"

    P1 = integral(sys.B @ sys.B.T)
    Hm = sys.H.mode1()
    S = Hm @ np.kron(P1, P1) @ Hm.T
    for Nk in sys.N:
        S = S + Nk @ P1 @ Nk.T
    P2 = integral(S)
    return float(np.trace(sys.C @ (P1 + P2) @ sys.C.T))
