"""Result hashes of the reductions, simulations and norms qbmor computes.

    PYTHONPATH=src python scripts/result_hashes.py

Prints the BLAS thread count, then one line per result: a label with the
sweep count or the simulate stats, and the first 12 hex digits of a sha1
over each array's dtype and bytes. The results:

- tqb_irka on chafee_infante(100) at gamma = 0.01, r = 10, init seeds 0-3,
  with the optimality residuals of each model; chafee_infante(10) at r = 4,
  seeds 0-1; fitzhugh_nagumo(67) at gamma = 0.1, r = 10, seed 0. A model
  hashes A, H, B, C, the N_k and the bases V and W;
- simulate of chafee_infante(100) and of its seed-0 model on ci_u1 (T = 10,
  201 samples, rtol 1e-5), and the states of fitzhugh_nagumo(5) and (67)
  on fhn_i0_sin (T = 1, rtol 1e-7);
- balanced_truncation of chafee_infante(100) (r = 10, gamma = 0.01), its
  truncated_h2_error and h2_norm of the gamma-scaled system;
- solve_sylvester_shifted on the pencils of chafee_infante(10) (dense,
  n = 20) and chafee_infante(100) (band, n = 200), in both directions, for
  the shifts [-0.5, -0.5, -2, 1.5 -+ 2i, 3 -+ i]: a repeated real shift,
  a pair whose Rhs columns are conjugate and a pair whose partner's Rhs is
  not conjugate, the Rhs drawn from default_rng(0); the same solves on
  the form built from chafee_infante(100)'s A as a dense array;
- the hurwitz_schur blocks (rows, basis and Schur factor of each) of
  chafee_infante(100)'s A as a dense array.

Equal lines from two versions of the library mean bit-identical results;
scripts/gramian_memory.py hashes the Gramian routines themselves. The four
BLAS thread variables default to QBMOR_THREADS (itself 1 when unset), and
are read before numpy loads. A run takes about 2 s.
"""

import os

THREADS = os.environ.get("QBMOR_THREADS", "1")
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ.setdefault(_var, THREADS)

import hashlib  # noqa: E402
import warnings  # noqa: E402

import numpy as np  # noqa: E402

from qbmor import (  # noqa: E402
    IrkaConfig, balanced_truncation, chafee_infante, fitzhugh_nagumo,
    h2_norm, input_signal, optimality_residuals, rescale, simulate,
    solve_bases, tqb_irka, truncated_h2_error,
)
from qbmor.matrix_equations import (  # noqa: E402
    hurwitz_schur, shifted_lu, solve_sylvester_shifted,
)

SHIFTS = np.array([-0.5, -0.5, -2.0, 1.5 - 2.0j, 1.5 + 2.0j, 3.0 - 1.0j,
                   3.0 + 1.0j])
_STATS = ("steps", "rejected", "newton_iters", "jacobian_factorizations",
          "nfev", "njev")


def digest(*arrays):
    """First 12 hex digits of a sha1 over each array's dtype and bytes."""
    h = hashlib.sha1()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(str(a.dtype).encode())
        h.update(a.tobytes())
    return h.hexdigest()[:12]


def model_arrays(red):
    return [red.A, red.H.mode1(), red.B, red.C, *red.N]


def reduce(label, sys, r, gamma, seed, residuals=False):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        red, bases, rep = tqb_irka(sys, IrkaConfig(r=r, gamma=gamma,
                                                   seed=seed))
    print("tqb_irka %s r=%d gamma=%g seed=%d sweeps=%d %s"
          % (label, r, gamma, seed, rep.iterations,
             digest(*model_arrays(red), bases.V, bases.W)))
    if residuals:
        ssys, sred = rescale(sys, gamma), red.rescaled(gamma)
        res = optimality_residuals(ssys, sred, solve_bases(ssys, sred))
        print("residuals %s seed=%d %s" % (label, seed, digest(
            [v for _, v in res.items()], res.Phi_C, res.Phi_B, res.Phi_N,
            res.Phi_H, res.Phi_lambda)))
    return red


def run(label, sys, kind, T, samples, rtol, atol, states=False):
    traj = simulate(sys, input_signal(kind), T, samples, rtol=rtol,
                    atol=atol, store_states=states)
    arrays = [traj.times, traj.outputs]
    if states:
        arrays.append(traj.states)
    print("simulate %s %s %s %s" % (label, kind, " ".join(
        "%s=%d" % (s, traj.stats[s]) for s in _STATS), digest(*arrays)))


def shifted(label, form):
    n = form.A.shape[0]
    rhs = np.random.default_rng(0).standard_normal(
        (n, 2 * SHIFTS.size)).view(complex)
    rhs[:, 4] = rhs[:, 3].conj()
    V = [solve_sylvester_shifted(form, SHIFTS, rhs, transpose=t)
         for t in (False, True)]
    print("shifted %s %s %s" % (label, "dense" if form.band is None
                                else "band", digest(*V)))


def main():
    print("threads=%s" % THREADS)
    flagship = chafee_infante(100)
    models = [reduce("chafee(100)", flagship, 10, 0.01, seed, residuals=True)
              for seed in range(4)]
    small = chafee_infante(10)
    for seed in range(2):
        reduce("chafee(10)", small, 4, 0.01, seed)
    reduce("fhn(67)", fitzhugh_nagumo(67), 10, 0.1, 0)

    run("chafee(100)", flagship, "ci_u1", 10.0, 201, 1e-5, 1e-7)
    run("chafee(100)-r10-seed0", models[0], "ci_u1", 10.0, 201, 1e-5, 1e-7)
    for k in (5, 67):
        run("fhn(%d)" % k, fitzhugh_nagumo(k), "fhn_i0_sin", 1.0, 201,
            1e-7, 1e-9, states=True)

    gamma = 0.01
    bt, hsv = balanced_truncation(flagship, 10, gamma=gamma)
    print("balanced_truncation chafee(100) r=10 gamma=%g %s"
          % (gamma, digest(*model_arrays(bt), hsv)))
    scaled = rescale(flagship, gamma)
    print("truncated_h2_error chafee(100) bt %s" % digest(
        truncated_h2_error(scaled, bt.rescaled(gamma))))
    print("h2_norm chafee(100) gamma=%g %s" % (gamma, digest(h2_norm(scaled))))
    shifted("chafee(10)", small.pencil())
    shifted("chafee(100)", flagship.pencil())
    dense = flagship.A.toarray()
    shifted("chafee(100)-dense", shifted_lu(dense))
    S = hurwitz_schur(dense)
    print("hurwitz_schur chafee(100)-dense %s" % digest(*(
        a for b in S.blocks for a in (np.arange(S.n)[b.idx], b.T)
        + (() if b.Z is None else (b.Z,)))))


if __name__ == "__main__":
    main()
