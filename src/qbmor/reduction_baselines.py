"""Balanced truncation built on the truncated Gramian pair."""

import numpy as np

from qbmor.errors import RankDeficient
from qbmor.gramians_norms import truncated_gramians
from qbmor.qb_core import project, rescale


def balanced_truncation(sys, r, gamma=1.0):
    """Square-root balancing of P_T and Q_T; returns (model, hsv).

    hsv holds the full set of n Hankel-type values so callers can pick an
    order from the decay. The Gramian factors are rank-truncated, so the
    entries past their rank are exact zeros; requested orders reaching into
    the numerical null space raise RankDeficient.

    gamma damps the quadratic and bilinear terms during basis
    construction only; the returned model always projects the original
    operators. Useful when strong nonlinear sources would otherwise
    dominate the Gramians with directions the input-output map never
    excites.

    With a mass matrix the Gramians are those of the E-folded system, so
    the system is projected along E^{-T} W: that is projecting the folded
    system along W.
    """
    if not (1 <= r <= sys.n):
        raise ValueError("reduced order must satisfy 1 <= r <= n")
    # Gramians of the damped system, projection of the original one
    src = rescale(sys, gamma) if gamma != 1.0 else sys
    g = truncated_gramians(src)
    # the bundle's factors live in the Schur basis Z of the Gramians: Z is
    # orthogonal, so (Z L_Q)^T (Z L_P) = L_Q^T L_P and only the bases are
    # lifted
    L_P, L_Q = g.factors["P_T"], g.factors["Q_T"]
    U, s, Zt = np.linalg.svd(L_Q.T @ L_P, full_matrices=False)
    hsv = np.zeros(sys.n)
    hsv[:s.size] = s
    if hsv[r - 1] <= 1e-14 * hsv[0]:
        raise RankDeficient("requested order %d exceeds the numerical rank "
                            "of the Gramian product" % r)
    scale = 1.0 / np.sqrt(s[:r])
    V = g.Z @ ((L_P @ Zt[:r].T) * scale)
    W = g.Z @ ((L_Q @ U[:, :r]) * scale)
    red = project(sys, V, sys.solve_mass(W, transpose=True), method="bt",
                  gamma=gamma, seed=None, converged=True, iterations=0,
                  tol=0.0, shift=0.0)
    return red, hsv
