"""Quasi-optimal iterative reduction of QB systems.

Each sweep diagonalizes the current reduced matrix, solves four shifted
Sylvester equations for the two-term bases V = V1 + V2, W = W1 + W2 on the
gamma-rescaled system and iterate, and projects the original system onto the
orthonormalized bases. Convergence is measured by the relative change of
the reduced spectrum, old and new eigenvalues paired by their position in
the order ``spectral_decompose`` gives both.
"""

import numbers
import time
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from qbmor.errors import MaxIterationsExceeded
from qbmor.kron_tensor import Hessian
from qbmor.matrix_equations import (
    spectral_decompose, solve_sylvester_shifted, reflect_unstable,
    realify_basis,
)
from qbmor.qb_core import (
    ReducedModel, ProjectionBases, project, rescale, orthonormalize,
)


@dataclass
class IrkaConfig:
    r: int
    tol: float = 1e-5
    maxit: int = 100
    gamma: float = 1.0
    init: object = "random"      # "random" (the seeded draw) or a ReducedModel
    seed: int = 0


@dataclass
class IrkaReport:
    iterations: int
    eig_change_history: list
    converged: bool
    final_eigs: np.ndarray
    wall_time: float
    warnings: list = field(default_factory=list)


def _eig_change(old, new):
    """Largest relative eigenvalue movement, max |new - old| / |old|.

    Entry i of old is paired with entry i of new: both come in the order
    ``spectral_decompose`` gives, so no matching step is needed.
    """
    denom = np.maximum(np.abs(old), 1e-300)
    return float((np.abs(new - old) / denom).max())


def _solve_bases_core(sys, bundle):
    """``ProjectionBases`` from the four Sylvester solves, realified by the
    pair rule of bundle.lam. V1 and V2 solve with A + lam E, W1 and W2 with
    its transpose, all on the system's cached shifted_lu form, so the four
    solves share one complex factorization."""
    H = sys.H
    lam = bundle.lam
    form = sys.pencil()
    V1 = solve_sylvester_shifted(form, lam, sys.B @ bundle.Btil.T)
    rhs_v2 = H.apply_kron(V1, V1) @ bundle.Htil.T
    for Nk, Ntk in zip(sys.N, bundle.Ntil):
        rhs_v2 = rhs_v2 + Nk @ V1 @ Ntk.T
    V2 = solve_sylvester_shifted(form, lam, rhs_v2)
    W1 = solve_sylvester_shifted(form, lam, sys.C.T @ bundle.Ctil,
                                 transpose=True)
    rhs_w2 = 2.0 * (H.apply_kron_mode2(V1, W1) @ bundle.Htil2.T)
    for Nk, Ntk in zip(sys.N, bundle.Ntil):
        rhs_w2 = rhs_w2 + Nk.T @ W1 @ Ntk
    W2 = solve_sylvester_shifted(form, lam, rhs_w2, transpose=True)
    return ProjectionBases(V1c=V1, V2c=V2, W1c=W1, W2c=W2,
                           V=realify_basis(V1 + V2, lam),
                           W=realify_basis(W1 + W2, lam))


def solve_bases(sys, red):
    """Two-term projection bases for the pair (sys, red).

    Uses the reduced model's own spectral factors; gamma scaling is the
    caller's responsibility (pass an already-rescaled pair for scaled runs).
    """
    return _solve_bases_core(sys, red.spectral)


def initial_guess(sys, r, kind="random", seed=0):
    """A given ReducedModel, or the Hurwitz draw of order r from seed.

    The draw is the one random draw of a reduction, so it is repeatable:
    ValueError for a seed that is not a non-negative integer, or an order
    outside 1 <= r <= n.
    """
    if isinstance(kind, ReducedModel):
        return kind
    if kind != "random":
        raise ValueError("unknown initial guess kind %r" % (kind,))
    if not isinstance(seed, numbers.Integral) or seed < 0:
        raise ValueError("seed must be a non-negative integer, not %r"
                         % (seed,))
    if not isinstance(r, numbers.Integral) or not 1 <= r <= sys.n:
        raise ValueError("reduced order must be an integer 1 <= r <= n")
    rng = np.random.default_rng(seed)
    D = 10.0 ** rng.uniform(-1.0, 1.0, r)
    S = rng.standard_normal((r, r))
    K = rng.standard_normal((r, r))
    A = -np.diag(D) - 0.1 * (S @ S.T) + 0.5 * (K - K.T)
    T = rng.standard_normal((r, r, r))
    T = 0.5 * (T + T.transpose(0, 2, 1))
    nrm = np.linalg.norm(T.reshape(r, -1))
    if nrm > 0:
        T *= 0.1 / nrm
    H = Hessian.dense(T.reshape(r, r * r), symmetric=True)
    N = []
    for _ in range(sys.m):
        Nk = rng.standard_normal((r, r))
        Nk *= 0.1 / max(np.linalg.norm(Nk), 1e-300)
        N.append(Nk)
    B = rng.standard_normal((r, sys.m))
    C = rng.standard_normal((sys.p, r))
    return ReducedModel(A, H, N, B, C, method="init-random", seed=seed)


def tqb_irka(sys, cfg):
    """Run the fixed-point reduction; returns (model, bases, report).

    Each sweep decomposes the previous sweep's reduced matrix as it is,
    reflects unstable eigenvalues and projects onto the orthonormalized
    bases; no update is damped. The start is cfg.init: the draw of
    ``initial_guess`` from cfg.seed, or a given ReducedModel whose r, m and
    p must match (ValueError before any sweep). A rank-deficient basis is
    completed from its own QR factor (see ``orthonormalize``), so a drawn
    start is the only random draw, and cfg.seed is recorded only for it.
    One ``spectral_decompose`` per iterate gives, in its order, the stop
    test's spectrum, the next sweep's shifts and report.final_eigs; it
    raises NonDiagonalizable on any iterate, the last included, whose
    eigenvectors have condition above 1e12.
    Non-convergence within cfg.maxit raises no exception: the best iterate
    is returned with converged=False and a MaxIterationsExceeded warning.
    """
    t0 = time.perf_counter()
    if not (0.0 < cfg.tol < 1.0):
        raise ValueError("tol must lie in (0, 1)")
    if not isinstance(cfg.r, numbers.Integral) or not 1 <= cfg.r <= sys.n:
        raise ValueError("reduced order must be an integer 1 <= r <= n")
    if not isinstance(cfg.maxit, numbers.Integral) or cfg.maxit < 1:
        raise ValueError("maxit must be an integer of at least 1")

    scaled = rescale(sys, cfg.gamma)
    red = initial_guess(sys, cfg.r, cfg.init, cfg.seed)
    if (red.r, red.m, red.p) != (cfg.r, sys.m, sys.p):
        raise ValueError("initial guess has (r, m, p) = %r, expected %r"
                         % ((red.r, red.m, red.p), (cfg.r, sys.m, sys.p)))
    seed = None if isinstance(cfg.init, ReducedModel) else cfg.seed
    meta = dict(method="tqb-irka", gamma=cfg.gamma, seed=seed, tol=cfg.tol)

    f = spectral_decompose(red.A)
    best = None
    history = []
    it = 0
    for it in range(1, cfg.maxit + 1):
        bundle = red.rescaled(cfg.gamma).eigenbasis(
            replace(f, lam=reflect_unstable(f.lam)))
        bases = _solve_bases_core(scaled, bundle)
        red = project(sys, orthonormalize(bases.V), orthonormalize(bases.W),
                      converged=False, iterations=it, **meta)
        prev_eigs = f.lam
        f = spectral_decompose(red.A)
        change = _eig_change(prev_eigs, f.lam)
        history.append(change)
        if best is None or change < best[0]:
            best = (change, red, bases, it, f.lam)
        if change <= cfg.tol:
            red.converged = True
            report = IrkaReport(iterations=it, eig_change_history=history,
                                converged=True, final_eigs=f.lam,
                                wall_time=time.perf_counter() - t0)
            return red, bases, report

    change, red_best, bases_best, best_it, best_eigs = best
    msg = ("no convergence in %d sweeps; returning the sweep-%d iterate "
           "(eigenvalue change %.3e)" % (cfg.maxit, best_it, change))
    warnings.warn(msg, MaxIterationsExceeded)
    report = IrkaReport(iterations=it, eig_change_history=history,
                        converged=False,
                        final_eigs=best_eigs,
                        wall_time=time.perf_counter() - t0, warnings=[msg])
    return red_best, bases_best, report
