"""Peak memory, CPU time and result hash of one Gramian routine, or of one
tqb_irka reduction, per process.

    PYTHONPATH=src python scripts/gramian_memory.py ROUTINE K [K ...]
        [--system chafee|fhn] [--gamma 0.01]

ROUTINE is one of truncated_gramians, balanced_truncation,
truncated_h2_norm, truncated_h2_error, h2_norm or tqb_irka. Each K starts
two fresh Python processes at one BLAS thread, one with tracemalloc on and
one without, as tracing costs memory and time of its own. Each builds
chafee_infante(K) (or fitzhugh_nagumo(K)), caches its Schur form and that
of its copy rescaled by gamma (except for tqb_irka, which reads neither),
and then runs the routine once:

- truncated_gramians, truncated_h2_norm and h2_norm on the rescaled copy;
- balanced_truncation(sys, 10, gamma=gamma);
- truncated_h2_error between the rescaled copy and its order-10 balanced
  truncation, rescaled alike; the truncation is made before the
  measurement starts, so only the error is timed and traced;
- tqb_irka(sys, IrkaConfig(r=10, gamma=gamma, seed=0)).

One line per K: n, the untraced process's peak resident set (ru_maxrss,
MB), the traced routine's tracemalloc peak in units of n^2 doubles
(8 n^2 bytes), the untraced routine's CPU seconds and the sha1 of what it
returned: P_T, Q_T and their
factors of a Gramian bundle; the reduced A, H, N_k, B, C and the Hankel
values of a balanced truncation; the bytes of a norm; the reduced A, H,
B, C and N_k of a tqb_irka model. A tqb_irka line also gives the sweep
count, the CPU seconds per sweep and the largest real part of the reduced
model's eigenvalues. A routine that raises a qbmor error prints the
error's name in place of the hash. The hash is the bit-identity check
between two versions of the library.
"""

import argparse
import hashlib
import json
import os
import resource
import subprocess
import sys
import time
import tracemalloc

ROUTINES = ("truncated_gramians", "balanced_truncation", "truncated_h2_norm",
            "truncated_h2_error", "h2_norm", "tqb_irka")
_THREAD_VARS = ("QBMOR_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def _arrays(out):
    """The arrays a routine returned, in a fixed order."""
    import numpy as np
    from qbmor.gramians_norms import GramianBundle

    if isinstance(out, GramianBundle):
        return [out.schur["P_T"], out.schur["Q_T"], out.factors["P_T"],
                out.factors["Q_T"]]
    if isinstance(out, tuple) and len(out) == 3:   # tqb_irka
        red = out[0]
        return [red.A, red.H.mode1(), red.B, red.C, *red.N]
    if isinstance(out, tuple):
        red, hsv = out
        return [red.A, red.H.mode1(), *red.N, red.B, red.C, hsv]
    return [np.float64(out)]


def measure(routine, system, k, gamma, traced):
    import numpy as np
    import qbmor
    from qbmor.errors import QbmorError

    build = qbmor.chafee_infante if system == "chafee" else \
        qbmor.fitzhugh_nagumo
    sys_ = build(k)
    ssys = qbmor.rescale(sys_, gamma)
    if routine != "tqb_irka":  # which reads no Schur form
        sys_.schur()
        ssys.schur()
    if routine == "tqb_irka":
        args = (sys_, qbmor.IrkaConfig(r=10, gamma=gamma, seed=0))
    elif routine == "truncated_h2_error":
        red = qbmor.balanced_truncation(sys_, 10, gamma=gamma)[0]
        args = (ssys, red.rescaled(gamma))
    elif routine == "balanced_truncation":
        args = (sys_, 10, gamma)
    else:
        args = (ssys,)
    call = getattr(qbmor, routine)
    if traced:
        tracemalloc.start()
    t0 = time.process_time()
    try:
        out = call(*args)
    except QbmorError as exc:
        out = exc
    cpu = time.process_time() - t0
    if traced:
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        return {"peak_n2": peak / (8.0 * sys_.n ** 2)}
    if isinstance(out, Exception):
        digest = type(out).__name__
    else:
        h = hashlib.sha1()
        for a in _arrays(out):
            h.update(np.ascontiguousarray(a, dtype=float).tobytes())
        digest = h.hexdigest()
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    rec = {"n": sys_.n, "rss_mb": rss, "cpu_s": cpu, "sha1": digest}
    if routine == "tqb_irka" and not isinstance(out, Exception):
        sweeps = out[2].iterations
        rec["extra"] = " sweeps=%d cpu_per_sweep=%.4f top_eig=%.6e" % (
            sweeps, cpu / sweeps, np.linalg.eigvals(out[0].A).real.max())
    return rec


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("routine", choices=ROUTINES)
    ap.add_argument("k", type=int, nargs="+")
    ap.add_argument("--system", choices=("chafee", "fhn"), default="chafee")
    ap.add_argument("--gamma", type=float, default=0.01)
    ap.add_argument("--child", choices=("plain", "traced"),
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.child:
        print(json.dumps(measure(args.routine, args.system, args.k[0],
                                 args.gamma, args.child == "traced")))
        return 0
    env = dict(os.environ, **{var: "1" for var in _THREAD_VARS})
    for k in args.k:
        rec = {}
        for child in ("plain", "traced"):
            cmd = [sys.executable, os.path.abspath(__file__), args.routine,
                   str(k), "--system", args.system, "--gamma",
                   repr(args.gamma), "--child", child]
            out = subprocess.run(cmd, env=env, check=True,
                                 stdout=subprocess.PIPE, text=True).stdout
            rec.update(json.loads(out.splitlines()[-1]))
        print("%-20s %-6s n=%-5d rss_mb=%-6.1f peak_n2=%-5.2f cpu_s=%-6.2f %s"
              % (args.routine, args.system, rec["n"], rec["rss_mb"],
                 rec["peak_n2"], rec["cpu_s"], rec["sha1"])
              + rec.get("extra", ""), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
