"""Systems with a mass matrix, E x' = A x + H(x (x) x) + sum_k N_k x u_k + B u.

The E-system here is a reference system without mass matrix written with a
diagonal E: A, the N_k and B are scaled by E, and the reference's Hessian is
E^{-1} H in pair storage. Every routine must give the reference's result on
it without forming the dense n x n^2 unfolding of the full-order Hessian.
"""

import numpy as np
import scipy.sparse as sp

from qbmor.benchmarks import chafee_infante, input_signal, simulate
from qbmor.diagnostics import optimality_residuals
from qbmor.gramians_norms import h2_norm, truncated_h2_error, truncated_h2_norm
from qbmor.kron_tensor import Hessian
from qbmor.qb_core import QBSystem, rescale
from qbmor.reduction_baselines import balanced_truncation
from qbmor.tqb_irka import initial_guess, solve_bases


def _mass_pair(k):
    base = chafee_infante(k)
    d = np.linspace(1.0, 2.0, base.n)
    E = np.diag(d)
    sys_e = QBSystem(E @ base.A, base.H, [E @ Nk for Nk in base.N],
                     E @ base.B, base.C, E=E)
    Dinv = sp.diags_array(1.0 / d)
    H_ref = Hessian.from_pairs([(sp.csr_array(Dinv @ L), R)
                                for L, R in base.H.pairs], base.n,
                               symmetric=True)
    return sys_e, QBSystem(base.A, H_ref, base.N, base.B, base.C)


def test_mass_system_matches_reference_without_dense_hessian(monkeypatch):
    sys_e, ref = _mass_pair(10)
    assert sys_e.H.storage == "pairs"
    mode1 = Hessian.mode1

    def guarded(h):
        if h.n >= sys_e.n:
            raise AssertionError("dense unfolding of a full-order Hessian")
        return mode1(h)

    monkeypatch.setattr(Hessian, "mode1", guarded)
    gamma = 0.01

    assert np.isclose(truncated_h2_norm(sys_e), truncated_h2_norm(ref),
                      rtol=1e-12, atol=0)
    assert np.isclose(h2_norm(rescale(sys_e, gamma)),
                      h2_norm(rescale(ref, gamma)), rtol=1e-12, atol=0)

    red, hsv = balanced_truncation(sys_e, 4, gamma=gamma)
    red_ref, hsv_ref = balanced_truncation(ref, 4, gamma=gamma)
    assert np.allclose(hsv, hsv_ref, rtol=0, atol=1e-10 * hsv_ref[0])
    # balanced bases are fixed only up to column signs: compare invariants
    eig = np.sort_complex(np.linalg.eigvals(red.A))
    eig_ref = np.sort_complex(np.linalg.eigvals(red_ref.A))
    assert np.allclose(eig, eig_ref, rtol=1e-8, atol=0)
    assert np.isclose(truncated_h2_error(sys_e, red),
                      truncated_h2_error(ref, red_ref), rtol=1e-8, atol=0)

    # an unconverged guess keeps the measures well above rounding level
    guess = initial_guess(sys_e, 4, "random", seed=0)
    rep = optimality_residuals(sys_e, guess, solve_bases(sys_e, guess))
    rep_ref = optimality_residuals(ref, guess, solve_bases(ref, guess))
    for (name, val), (_, val_ref) in zip(rep.items(), rep_ref.items()):
        assert val > 1e-6 and np.isclose(val, val_ref, rtol=1e-6, atol=0), name

    u = input_signal("ci_u1")
    traj = simulate(sys_e, u, 2.0, 21)
    traj_ref = simulate(ref, u, 2.0, 21)
    peak = np.abs(traj_ref.outputs).max()
    assert np.allclose(traj.outputs, traj_ref.outputs, rtol=0,
                       atol=1e-8 * peak)
