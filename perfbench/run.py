"""Benchmark runner for qbmor.

    python3 perfbench/run.py --workload reduce --seed 0 --seconds 10 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``. The last line of stdout is the result object (correct,
attempted, failed, metrics). ``--trace 0`` reports the end-to-end metrics
with tracing off, ``--trace 1`` the per-layer metrics of a traced pass.
The line before it is the machine record, and the full record (machine,
per-operation latencies, failures, warnings and, when traced, every span)
is written to ``perfbench/out/``.

Every run does a fixed amount of work, set by the workload and the seed,
so that its operation and failure counts do not depend on the program's
speed; ``--seconds`` is recorded but does not set the run's length.
"""

import argparse
import json
import os
import platform
import subprocess
import sys
import time

THREAD_VARS = ("QBMOR_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
               "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def machine_record(seed):
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        blas = {"name": "unknown", "version": "unknown"}
    mem_kb = None
    with open("/proc/meminfo") as fh:
        for line in fh:
            if line.startswith("MemTotal:"):
                mem_kb = int(line.split()[1])
    commit = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                  capture_output=True, text=True, timeout=30)
            commit = proc.stdout.strip() or "unknown"
        except (OSError, subprocess.SubprocessError):
            commit = "unknown (git failed)"
    return {"nproc": os.cpu_count(),
            "affinity_cpus": len(os.sched_getaffinity(0)),
            "mem_total_kb": mem_kb, "blas": blas,
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "threads": {v: os.environ.get(v) for v in THREAD_VARS},
            "commit": commit, "seed": seed}


def process_age():
    """Seconds since this process started, from /proc/self/stat (Linux).

    The start time is counted in clock ticks, so it is good to 10 ms.
    """
    with open("/proc/self/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
    return time.clock_gettime(time.CLOCK_BOOTTIME) - started


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("reduce", "verify", "simulate"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    # One BLAS thread is part of every workload: the thread count changes
    # the sweep counts of tqb_irka, not just its speed. qbmor only
    # setdefault()s these, so set them all before numpy loads.
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if not os.path.isfile(os.path.join(SRC, "qbmor", "__init__.py")):
        print("run.py: no qbmor sources under %s; run from a source checkout"
              % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads
    startup_s = process_age()   # interpreter start and imports

    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    cfg = workloads.Config()
    if args.trace:
        result, detail = workloads.run_traced(args.workload, args.seed, cfg,
                                              out_dir)
    else:
        result, detail = workloads.run_untraced(args.workload, args.seed,
                                                cfg, out_dir, startup_s)
    machine = machine_record(args.seed)
    path = os.path.join(out_dir, "%s-seed%d-trace%d.json"
                        % (args.workload, args.seed, args.trace))
    with open(path, "w") as fh:
        json.dump({"machine": machine, "workload": args.workload,
                   "seconds": args.seconds, "config": vars(cfg),
                   "result": result, "detail": detail}, fh)
    print(json.dumps({"machine": machine,
                      "record": os.path.relpath(path, ROOT)}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
