"""In-memory span tracer that wraps qbmor's layer functions from outside.

Nothing under ``src/`` knows about tracing. ``Tracer.install`` replaces each
traced function at every place a caller looks it up: the defining module,
every ``from ... import`` copy in another qbmor module, the package
re-export, and ``scipy.linalg.lu_factor``. ``uninstall`` puts the
originals back.

A span is ``[name, start, end, parent_index]``; spans stay in a list until
the run ends. A span's self time is its duration minus the durations of
its direct children.
"""

import functools
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

import scipy.linalg

# (defining module, function, span name). Every binding of the function
# object in a loaded qbmor module is wrapped, so the from-import copies in
# tqb_irka, gramians_norms, reduction_baselines, diagnostics and qb_core are
# covered without listing them here.
FUNCTIONS = (
    ("qbmor.matrix_equations", "spectral_decompose", "matrix_equations.spectral"),
    ("qbmor.matrix_equations", "solve_sylvester_shifted",
     "matrix_equations.sylvester"),
    ("qbmor.matrix_equations", "solve_lyapunov", "matrix_equations.lyapunov"),
    ("qbmor.qb_core", "project", "qb_core.project"),
    ("qbmor.qb_core", "orthonormalize", "qb_core.orthonormalize"),
    ("qbmor.gramians_norms", "truncated_gramians",
     "gramians_norms.truncated_gramians"),
    ("qbmor.gramians_norms", "quadratic_gramians",
     "gramians_norms.quadratic_gramians"),
    ("qbmor.gramians_norms", "error_system", "gramians_norms.error_system"),
)

# Hessian methods, patched on the class; their results are n x k^2 blocks
# whose computed size is recorded as out_mb.
HESSIAN_METHODS = ("apply_kron", "apply_kron_mode2", "congruence")

LU_SPAN = "scipy.lu_factor"


class Tracer:
    """Spans and counters of one traced run, and the patches that make them."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.site_hits = {}                 # "module:function" -> calls
        self.out_bytes = defaultdict(int)   # span name -> result bytes
        self.picard_iters = 0
        self._patches = []                  # (owner, attribute, original)

    @contextmanager
    def span(self, name):
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0,
                           self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        try:
            yield
        finally:
            self.spans[idx][2] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, fn, name, site, on_result=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.site_hits[site] += 1
            with tracer.span(name):
                out = fn(*args, **kwargs)
            if on_result is not None:
                on_result(name, out)
            return out

        return wrapper

    def _patch(self, owner, attr, name, site, on_result=None):
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        self.site_hits.setdefault(site, 0)
        setattr(owner, attr, self._wrap(original, name, site, on_result))

    def _record_bytes(self, name, out):
        self.out_bytes[name] += out.nbytes

    def _record_picard(self, name, out):
        self.picard_iters += sum(out[2])

    def install(self):
        """Wrap every traced function at all of its binding sites."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == "qbmor"
                                         or key.startswith("qbmor."))]
        hooks = {"gramians_norms.quadratic_gramians": self._record_picard}
        for mod_name, func, name in FUNCTIONS:
            # scan sys.modules, not package attributes: qbmor.tqb_irka is
            # the re-exported function and hides the module of that name
            original = getattr(sys.modules[mod_name], func)
            for mod in modules:
                if getattr(mod, func, None) is original:
                    self._patch(mod, func, name,
                                "%s:%s" % (mod.__name__, func),
                                hooks.get(name))
        hessian = sys.modules["qbmor.kron_tensor"].Hessian
        for meth in HESSIAN_METHODS:
            self._patch(hessian, meth, "kron_tensor." + meth,
                        "qbmor.kron_tensor:Hessian." + meth,
                        self._record_bytes)
        self._patch(scipy.linalg, "lu_factor", LU_SPAN,
                    "scipy.linalg:lu_factor")

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def summary(self, r0, r1):
        """Per-name calls, total and self seconds; lu_factor by parent; and
        the seconds of the interval (r0, r1) that no top-level span covers.
        """
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        calls = defaultdict(int)
        total = defaultdict(float)
        self_s = defaultdict(float)
        lu_by_parent = defaultdict(lambda: [0, 0.0])
        for i, (name, t0, t1, parent) in enumerate(self.spans):
            calls[name] += 1
            total[name] += t1 - t0
            self_s[name] += t1 - t0 - child[i]
            if name == LU_SPAN:
                key = self.spans[parent][0] if parent >= 0 else "<top>"
                lu_by_parent[key][0] += 1
                lu_by_parent[key][1] += t1 - t0 - child[i]
        covered = sum(t1 - t0 for _, t0, t1, parent in self.spans
                      if parent < 0 and t0 >= r0 and t1 <= r1)
        return {"calls": dict(calls), "total_s": dict(total),
                "self_s": dict(self_s),
                "lu_factor_by_parent": {k: {"count": v[0], "self_s": v[1]}
                                        for k, v in lu_by_parent.items()},
                "unattributed_s": (r1 - r0) - covered}
