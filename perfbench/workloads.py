"""The reduce, verify and simulate workloads, their checks and metrics.

A workload is a setup, which builds the inputs, and a pass, a fixed list
of operations on them. Every operation goes through ``Ops.run``, which
counts it, records the warnings it raised and applies its check; a failed
operation is counted and the run goes on. README.md beside this file says
why each workload exists and which failures are known.
"""

import math
import os
import shutil
import statistics
import tempfile
import time
import traceback
import warnings
import resource
from collections import Counter, defaultdict
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

import qbmor
from qbmor import errors

from tracer import HESSIAN_METHODS, Tracer

# (name, unit, better, bound): reported with tracing off.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("wall_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.10),
)

_SIM_STATS = ("steps", "rejected", "newton_iters", "jacobian_factorizations")

# (name, unit, better): reported by the traced run.
PER_LAYER = (
    tuple((f"matrix_equations.{layer}.{what}", unit, "lower")
          for layer in ("sylvester", "spectral", "lyapunov")
          for what, unit in (("calls", "count"), ("self_s", "s")))
    + (("matrix_equations.lu_factor.count", "count", "lower"),
       ("matrix_equations.lu_factor.self_s", "s", "lower"))
    + tuple((f"gramians_norms.{fn}.self_s", "s", "lower")
            for fn in ("truncated_gramians", "quadratic_gramians",
                       "error_system"))
    + (("gramians_norms.picard_iters", "count", "lower"),)
    + tuple((f"kron_tensor.{meth}.{what}", unit, "lower")
            for meth in HESSIAN_METHODS
            for what, unit in (("calls", "count"), ("self_s", "s"),
                               ("out_mb", "MB")))
    + (("tqb_irka.sweeps", "count", "lower"),
       ("tqb_irka.s_per_sweep", "s", "lower"),
       ("tqb_irka.damping_events", "count", "lower"),
       ("tqb_irka.self_s", "s", "lower"),
       ("qb_core.pad_events", "count", "lower"))
    + tuple((f"qb_core.{fn}.{what}", unit, "lower")
            for fn in ("project", "orthonormalize")
            for what, unit in (("calls", "count"), ("self_s", "s")))
    + (("diagnostics.residuals.self_s", "s", "lower"),
       ("diagnostics.residual_max", "ratio", "lower"),
       ("diagnostics.degraded", "count", "lower"),
       ("qb_core.io.self_s", "s", "lower"),
       ("qb_core.io.bytes", "B", "lower"),
       ("reduction_baselines.bt.self_s", "s", "lower"),
       ("gramians_norms.h2_err_rel", "ratio", "lower"))
    + tuple((f"benchmarks.simulate.{kind}.{what}", unit, "lower")
            for kind in ("full", "reduced", "fhn")
            for what, unit in (("self_s", "s"),)
            + tuple((stat, "count") for stat in _SIM_STATS)
            + (("s_per_step", "s"),))
    + (("benchmarks.output_err_mean", "ratio", "lower"),
       ("benchmarks.lift_residual", "ratio", "lower"),
       ("benchmarks.rom_speedup", "ratio", "higher"),
       ("warnings.indefinite_gramian", "count", "lower"),
       ("warnings.max_iterations", "count", "lower"),
       ("checks.fail_share", "ratio", "lower"),
       ("trace.overhead_s", "s", "lower"),
       ("trace.unattributed_s", "s", "lower"))
)


# the flagship configuration of acceptance gate 7
GAMMA = 0.01
TOL = 1e-5
MAXIT = 100
LIFT_RESIDUAL = 1e-6              # acceptance gate 8

SETUPS = 3          # setup_s is the median of this many set-ups
# reduce's pass reduces from init seeds seed, seed + 1, ..., a fixed block,
# so the work and the failures of a run depend on the seed, not on speed
REDUCE_BLOCK = 16
# simulate reduces from gate 7's own init seed, whatever the seed argument:
# from other seeds the reduction takes 10 to 93 sweeps, which would swing
# setup_s more than fourfold between seeds
GATE_SEED = 0


@dataclass(frozen=True)
class Config:
    """Sizes and check bounds; the self-test shrinks them."""
    k: int = 100                  # chafee_infante(k), n = 2k: the flagship
    k_big: int = 250              # verify's large case, n = 500
    fhn_k: int = 5                # fitzhugh_nagumo(k), n = 3k
    r: int = 10
    horizon: float = 10.0
    samples: int = 201
    residual_max: float = 1e-6    # acceptance gate 7
    output_err_mean: float = 1e-2  # acceptance gate 7, input ci_u1


def _warning_kind(w):
    cat = w.category
    if cat is errors.QbmorWarning and "padding" in str(w.message):
        return "padding"
    for cls, kind in ((errors.IndefiniteGramian, "indefinite_gramian"),
                      (errors.DegradedDiagnostics, "degraded_diagnostics"),
                      (errors.MaxIterationsExceeded, "max_iterations")):
        if issubclass(cat, cls):
            return kind
    return "other:" + cat.__name__


class Ops:
    """Runs operations, applies their checks, keeps the tallies.

    A check returns None when the result passes, or (wrong, reason).
    Every failure counts in ``failed``. wrong is True when the result
    breaks what the program promises for every input: a bit-exact round
    trip, finite norms, a stable balanced-truncation model, the gate
    bounds on the gate's own configurations. Such a result, or an
    exception that is not a qbmor error, makes the run incorrect. A
    failure the program reported itself (a qbmor error, a non-converged
    flag, degraded diagnostics) or a gate bound missed outside the gate's
    configuration is counted but is not a wrong result.
    """

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.warnings = Counter()
        self.values = defaultdict(int)
        self.latency = defaultdict(list)
        self.failures = []

    def _fail(self, name, wrong, reason):
        self.failed += 1
        self.wrong += wrong
        self.failures.append({"op": name, "wrong": wrong, "reason": reason})

    def run(self, name, fn, *args, check=None, **kwargs):
        """Result of fn(*args, **kwargs), or None if it raised."""
        self.attempted += 1
        out = None
        t0 = time.perf_counter()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                if self.tracer is None:
                    out = fn(*args, **kwargs)
                else:
                    with self.tracer.span(name):
                        out = fn(*args, **kwargs)
            except errors.QbmorError as exc:
                self._fail(name, False, "%s: %s" % (type(exc).__name__, exc))
            except Exception:   # any other exception is a wrong result
                self._fail(name, True, traceback.format_exc(limit=3))
            else:
                verdict = None if check is None else check(out)
                if verdict is not None:
                    self._fail(name, *verdict)
        self.latency[name].append(time.perf_counter() - t0)
        self.warnings.update(_warning_kind(w) for w in caught)
        return out

    def missing(self, name):
        """Count an operation whose input an earlier failure withheld."""
        self.attempted += 1
        self._fail(name, False, "input unavailable after an earlier failure")

    def record_max(self, key, value):
        if math.isfinite(value):
            self.values[key] = max(self.values[key], value)


# -- checks -----------------------------------------------------------------

def _converged(out):
    report = out[2]
    if report.converged:
        return None
    return False, "no convergence in %d sweeps" % report.iterations


def _finite_positive(x):
    return None if math.isfinite(x) and x > 0 else (True, "norm %r" % x)


def _hurwitz(out):
    top = float(np.max(np.linalg.eigvals(out[0].A).real))
    return None if top < 0.0 else (True, "BT model eigenvalue %.3e" % top)


def _below(bound, what, wrong=True):
    def check(x):
        # NaN compares false, so a NaN value fails here too
        return None if x <= bound else (wrong, "%s %r > %r" % (what, x, bound))
    return check


def _residuals_within(bound):
    """Gate 7's residual bound, applied to models from any init seed.

    Gate 7 holds it for init seed 0. From another seed tqb_irka promises
    only that its shifts settled to TOL, and residuals of a few 1e-6 occur
    (init seeds 1720244896 and 1720244902), so a model over the bound is a
    failed operation, not a wrong result.
    """
    def check(rep):
        if any(rep.degraded.values()):
            return False, "diagnostics degraded to NaN"
        return _below(bound, "residual max", wrong=False)(
            max(v for _, v in rep.items()))
    return check


def _round_trip_exact(out):
    return None if out[1] else (True, "save/load round trip not bit-exact")


# -- operations made of several library calls -----------------------------

def _residuals(ssys, sred):
    return qbmor.optimality_residuals(ssys, sred, qbmor.solve_bases(ssys, sred))


def _dense(M):
    return M.toarray() if sp.issparse(M) else np.asarray(M)


def _same(a, b):
    if a is None or b is None:
        return a is None and b is None
    return np.array_equal(_dense(a), _dense(b))


def _same_system(s, t):
    if s.H.storage == "pairs" and t.H.storage == "pairs":
        same_h = len(s.H.pairs) == len(t.H.pairs) and all(
            _same(p, q) for ps, qs in zip(s.H.pairs, t.H.pairs)
            for p, q in zip(ps, qs))
    else:
        same_h = _same(s.H.mode1(), t.H.mode1())
    return (same_h and len(s.N) == len(t.N)
            and all(_same(p, q) for p, q in zip(s.N, t.N))
            and all(_same(getattr(s, x), getattr(t, x)) for x in "ABCE"))


def _round_trip(sys_, red, workdir):
    """Save and reload both models; returns (bytes written, bit-exact)."""
    d = tempfile.mkdtemp(dir=workdir)
    try:
        qbmor.save_system(sys_, os.path.join(d, "sys"))
        qbmor.save_reduced(red, os.path.join(d, "red"))
        nbytes = sum(os.path.getsize(os.path.join(root, f))
                     for root, _, files in os.walk(d) for f in files)
        sys2 = qbmor.load_system(os.path.join(d, "sys"))
        red2 = qbmor.load_reduced(os.path.join(d, "red"))
    finally:
        shutil.rmtree(d)
    return nbytes, _same_system(sys_, sys2) and _same_system(red, red2)


def _lift_residual(traj, k):
    """Lifted block z of (v; w; z) against v * v (gate 8)."""
    v = traj.states[:k]
    z = traj.states[2 * k:3 * k]
    return float(np.max(np.abs(z - v * v)) / (1.0 + np.max(v * v)))


def _reduce(ops, cfg, sys_, seed):
    """One tqb_irka reduction from a random init; returns (model, sweeps)."""
    conf = qbmor.IrkaConfig(r=cfg.r, gamma=GAMMA, tol=TOL, maxit=MAXIT,
                            init="random", seed=seed)
    out = ops.run("tqb_irka", qbmor.tqb_irka, sys_, conf, check=_converged)
    if out is None:
        return None, 0
    report = out[2]
    ops.values["tqb_irka.sweeps"] += report.iterations
    ops.values["tqb_irka.damping_events"] += sum(
        "damping" in note for note in report.warnings)
    return out[0], report.iterations


# -- workloads --------------------------------------------------------------
# setup(ops, cfg, seed) -> inputs
# run_pass(ops, cfg, inputs, seed, workdir) -> (units of work done, seconds
# of work that produced no unit); wall_s is the other pass seconds per unit.

def reduce_setup(ops, cfg, seed):
    return {"sys": qbmor.chafee_infante(cfg.k)}


def reduce_pass(ops, cfg, inputs, seed, workdir):
    """Reduce from each init seed of the block, then check each model.

    The unit of work is one fixed-point sweep: the sweep count depends on
    the init seed (10 to 93 at n = 200), the cost of a sweep barely does.
    A reduction that raises has done sweeps it cannot report, so its
    seconds are left out of the per-sweep figure.
    """
    sys_ = inputs["sys"]
    sweeps, lost_s = 0, 0.0
    for init_seed in range(seed, seed + REDUCE_BLOCK):
        red, n = _reduce(ops, cfg, sys_, init_seed)
        ops.values["tqb_irka.sweeps.seed%d" % init_seed] = n
        sweeps += n
        if red is None:
            lost_s += ops.latency["tqb_irka"][-1]
            ops.missing("diagnostics.residuals")
            ops.missing("qb_core.io")
            continue
        ssys, sred = qbmor.rescale(sys_, GAMMA), red.rescaled(GAMMA)
        rep = ops.run("diagnostics.residuals", _residuals, ssys, sred,
                      check=_residuals_within(cfg.residual_max))
        if rep is not None:
            ops.record_max("diagnostics.residual_max",
                           max(v for _, v in rep.items()))
            ops.values["diagnostics.degraded"] += any(rep.degraded.values())
        io = ops.run("qb_core.io", _round_trip, sys_, red, workdir,
                     check=_round_trip_exact)
        if io is not None:
            ops.values["qb_core.io.bytes"] += io[0]
    return sweeps, lost_s


def verify_setup(ops, cfg, seed):
    return {"sys": qbmor.chafee_infante(cfg.k),
            "big": qbmor.chafee_infante(cfg.k_big)}


def verify_pass(ops, cfg, inputs, seed, workdir):
    """Gramian-based verification; uses no random draw, so no seed."""
    sys_ = inputs["sys"]
    ops.run("reduction_baselines.bt", qbmor.balanced_truncation,
            inputs["big"], cfg.r, gamma=GAMMA, check=_hurwitz)
    bt = ops.run("reduction_baselines.bt", qbmor.balanced_truncation,
                 sys_, cfg.r, gamma=GAMMA, check=_hurwitz)
    err = None
    if bt is None:
        ops.missing("gramians_norms.h2_error")
    else:
        err = ops.run("gramians_norms.h2_error", qbmor.truncated_h2_error,
                      sys_, bt[0], check=_finite_positive)
    nrm = ops.run("gramians_norms.truncated_h2_norm", qbmor.truncated_h2_norm,
                  sys_, check=_finite_positive)
    ops.run("gramians_norms.h2_norm", qbmor.h2_norm,
            qbmor.rescale(sys_, GAMMA), check=_finite_positive)
    if err is not None and nrm is not None and nrm > 0:
        ops.record_max("gramians_norms.h2_err_rel", err / nrm)
    return 1, 0.0


def simulate_setup(ops, cfg, seed):
    """Gate 7's flagship model; like verify, uses no seed."""
    sys_ = qbmor.chafee_infante(cfg.k)
    red, _ = _reduce(ops, cfg, sys_, GATE_SEED)
    return {"sys": sys_, "red": red, "fhn": qbmor.fitzhugh_nagumo(cfg.fhn_k)}


def _simulate(ops, kind, model, u, cfg, check=None, **kwargs):
    name = "benchmarks.simulate." + kind
    if model is None:
        ops.missing(name)
        return None
    traj = ops.run(name, qbmor.simulate, model, u, cfg.horizon, cfg.samples,
                   check=check, **kwargs)
    if traj is not None:
        for stat in _SIM_STATS:
            ops.values["%s.%s" % (name, stat)] += traj.stats[stat]
    return traj


def simulate_pass(ops, cfg, inputs, seed, workdir):
    """Full and reduced flagship on ci_u1, lifted FHN on fhn_i0_sin."""
    u = qbmor.input_signal("ci_u1")
    yf = _simulate(ops, "full", inputs["sys"], u, cfg, rtol=1e-5, atol=1e-7)
    yr = _simulate(ops, "reduced", inputs["red"], u, cfg,
                   rtol=1e-5, atol=1e-7)
    if yf is None or yr is None:
        ops.missing("benchmarks.output_errors")
    else:
        errs = ops.run("benchmarks.output_errors", qbmor.output_errors, yf, yr,
                       check=lambda e: _below(cfg.output_err_mean,
                                              "mean output error")(e[0]))
        if errs is not None:
            ops.record_max("benchmarks.output_err_mean", errs[0])
    # gate 8's bound holds at its own tolerance, rtol = 1e-7
    lift = _below(LIFT_RESIDUAL, "lift residual")
    traj = _simulate(ops, "fhn", inputs["fhn"],
                     qbmor.input_signal("fhn_i0_sin"), cfg,
                     check=lambda tr: lift(_lift_residual(tr, cfg.fhn_k)),
                     rtol=1e-7, atol=1e-9, store_states=True)
    if traj is not None:
        ops.record_max("benchmarks.lift_residual",
                       _lift_residual(traj, cfg.fhn_k))
    return 1, 0.0


WORKLOADS = {
    "reduce": (reduce_setup, reduce_pass),
    "verify": (verify_setup, verify_pass),
    "simulate": (simulate_setup, simulate_pass),
}


# -- runs -------------------------------------------------------------------

def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _tally(phases):
    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    return {"correct": not any(p.wrong for p in phases),
            "attempted": attempted, "failed": failed}


def _detail(phases):
    return {"warnings": dict(sum((p.warnings for p in phases), Counter())),
            "failures": [f for p in phases for f in p.failures],
            "latency_s": [dict(p.latency) for p in phases],
            "values": [dict(p.values) for p in phases]}


def run_untraced(name, seed, cfg, workdir, startup_s=0.0):
    """End-to-end metrics: set up SETUPS times, then run one pass.

    setup_s is startup_s, the seconds from process start until the imports
    are done, plus the median set-up.
    """
    setup, run_pass = WORKLOADS[name]
    ops = Ops()
    setup_s = []
    for _ in range(SETUPS):
        t0 = time.perf_counter()
        inputs = setup(ops, cfg, seed)
        setup_s.append(time.perf_counter() - t0)
    t0 = time.perf_counter()
    units, lost_s = run_pass(ops, cfg, inputs, seed, workdir)
    pass_s = time.perf_counter() - t0
    values = {"setup_s": startup_s + statistics.median(setup_s),
              "wall_s": (pass_s - lost_s) / max(units, 1),
              "peak_rss_mb": _peak_rss_mb()}
    result = dict(_tally([ops]), metrics={
        m: {"value": values[m], "unit": unit} for m, unit, _, _ in END_TO_END})
    detail = dict(_detail([ops]), setup_s=setup_s, pass_s=pass_s,
                  units=units, lost_s=lost_s, startup_s=startup_s)
    return result, detail


def run_traced(name, seed, cfg, workdir):
    """Per-layer metrics: a traced setup, an untraced pass, then the same
    pass traced. The difference of the two passes is the trace overhead."""
    setup, run_pass = WORKLOADS[name]
    tracer = Tracer()
    setup_ops, ref_ops, traced_ops = Ops(tracer), Ops(), Ops(tracer)
    tracer.install()
    try:
        inputs = setup(setup_ops, cfg, seed)
    finally:
        tracer.uninstall()
    t0 = time.perf_counter()
    run_pass(ref_ops, cfg, inputs, seed, workdir)
    untraced_s = time.perf_counter() - t0
    tracer.install()
    try:
        r0 = time.perf_counter()
        run_pass(traced_ops, cfg, inputs, seed, workdir)
        r1 = time.perf_counter()
    finally:
        tracer.uninstall()
    summary = tracer.summary(r0, r1)
    phases = [setup_ops, ref_ops, traced_ops]
    values = _per_layer(summary, tracer, [setup_ops, traced_ops], ref_ops,
                        phases, (r1 - r0) - untraced_s)
    result = dict(_tally(phases), metrics={
        m: {"value": values[m], "unit": unit} for m, unit, _ in PER_LAYER})
    detail = dict(_detail(phases), summary=summary,
                  site_hits=dict(tracer.site_hits), spans=tracer.spans)
    return result, detail


def _per_layer(summary, tracer, traced, ref, phases, overhead_s):
    calls, self_s, total_s = (summary[k] for k in ("calls", "self_s",
                                                   "total_s"))
    vals = defaultdict(int)
    warn = Counter()
    for ops in traced:
        for key, x in ops.values.items():
            vals[key] += x
        warn.update(ops.warnings)
    m = {}
    for span in ("matrix_equations.sylvester", "matrix_equations.spectral",
                 "matrix_equations.lyapunov", "qb_core.project",
                 "qb_core.orthonormalize"):
        m[span + ".calls"] = calls.get(span, 0)
    for span in ("matrix_equations.sylvester", "matrix_equations.spectral",
                 "matrix_equations.lyapunov", "qb_core.project",
                 "qb_core.orthonormalize", "gramians_norms.truncated_gramians",
                 "gramians_norms.quadratic_gramians",
                 "gramians_norms.error_system", "tqb_irka",
                 "diagnostics.residuals", "qb_core.io",
                 "reduction_baselines.bt"):
        m[span + ".self_s"] = self_s.get(span, 0.0)
    lu = summary["lu_factor_by_parent"].get("matrix_equations.sylvester", {})
    m["matrix_equations.lu_factor.count"] = lu.get("count", 0)
    m["matrix_equations.lu_factor.self_s"] = lu.get("self_s", 0.0)
    m["gramians_norms.picard_iters"] = tracer.picard_iters
    for meth in HESSIAN_METHODS:
        span = "kron_tensor." + meth
        m[span + ".calls"] = calls.get(span, 0)
        m[span + ".self_s"] = self_s.get(span, 0.0)
        m[span + ".out_mb"] = tracer.out_bytes.get(span, 0) / 1e6
    sweeps = vals["tqb_irka.sweeps"]
    m["tqb_irka.sweeps"] = sweeps
    m["tqb_irka.s_per_sweep"] = (total_s.get("tqb_irka", 0.0) / sweeps
                                 if sweeps else 0.0)
    m["tqb_irka.damping_events"] = vals["tqb_irka.damping_events"]
    m["qb_core.pad_events"] = warn["padding"]
    for key in ("diagnostics.residual_max", "diagnostics.degraded",
                "qb_core.io.bytes", "gramians_norms.h2_err_rel",
                "benchmarks.output_err_mean", "benchmarks.lift_residual"):
        m[key] = vals[key]
    for kind in ("full", "reduced", "fhn"):
        span = "benchmarks.simulate." + kind
        m[span + ".self_s"] = self_s.get(span, 0.0)
        for stat in _SIM_STATS:
            m[span + "." + stat] = vals[span + "." + stat]
        steps = vals[span + ".steps"]
        m[span + ".s_per_step"] = (total_s.get(span, 0.0) / steps
                                   if steps else 0.0)
    full = ref.latency.get("benchmarks.simulate.full")
    red = ref.latency.get("benchmarks.simulate.reduced")
    m["benchmarks.rom_speedup"] = full[0] / red[0] if full and red else 0.0
    m["warnings.indefinite_gramian"] = warn["indefinite_gramian"]
    m["warnings.max_iterations"] = warn["max_iterations"]
    tally = _tally(phases)
    m["checks.fail_share"] = tally["failed"] / max(tally["attempted"], 1)
    m["trace.overhead_s"] = overhead_s
    m["trace.unattributed_s"] = summary["unattributed_s"]
    return m
