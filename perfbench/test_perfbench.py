"""Self-test of the benchmark at tiny sizes.

    python3 -m pytest perfbench

Checks the metric tables against BENCHMARK.json, that the traced run
reaches every binding site it wraps on the workload that uses it, that
counts repeat, that a check fails when given a bound the program cannot
meet, and that the runner refuses to run without the package sources.
"""

import json
import math
import os
import re
import shutil
import subprocess
import sys
from dataclasses import replace

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from tracer import FUNCTIONS  # noqa: E402

# output_err_mean is gate 7's bound for r = 10 on n = 200; a 3rd-order
# model of n = 20 over one time unit does not reach it.
TINY = workloads.Config(k=10, k_big=12, fhn_k=5, r=3, horizon=1.0,
                        samples=21, output_err_mean=1.0)

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")

HESSIAN = ["qbmor.kron_tensor:Hessian." + m
           for m in ("apply_kron", "apply_kron_mode2", "congruence")]
EXPECTED_SITES = {
    "reduce": ["qbmor.tqb_irka:spectral_decompose",
               "qbmor.qb_core:spectral_decompose",
               "qbmor.tqb_irka:solve_sylvester_shifted",
               "qbmor.tqb_irka:project", "qbmor.tqb_irka:orthonormalize",
               "scipy.linalg:lu_factor"] + HESSIAN,
    "verify": ["qbmor.gramians_norms:solve_lyapunov",
               "qbmor.gramians_norms:truncated_gramians",
               "qbmor.reduction_baselines:truncated_gramians",
               "qbmor.gramians_norms:quadratic_gramians",
               "qbmor.gramians_norms:error_system",
               "qbmor.reduction_baselines:project"] + HESSIAN,
    "simulate": ["qbmor.tqb_irka:spectral_decompose",
                 "qbmor.tqb_irka:solve_sylvester_shifted",
                 "qbmor.tqb_irka:project", "qbmor.tqb_irka:orthonormalize",
                 "scipy.linalg:lu_factor"],
}
# diagnostics folds a mass matrix through orthonormalize; no benchmark
# system has one
UNREACHED_COPIES = {"qbmor.diagnostics:orthonormalize"}


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    workdir = str(tmp_path_factory.mktemp("perfbench"))
    return {name: workloads.run_traced(name, 0, TINY, workdir)
            for name in workloads.WORKLOADS}


def test_metric_tables_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in spec["end_to_end"]] == list(workloads.END_TO_END)
    assert [(m["name"], m["unit"], m["better"])
            for m in spec["per_layer"]] == list(workloads.PER_LAYER)
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(
        workloads.WORKLOADS)
    names = [m[0] for m in workloads.END_TO_END + workloads.PER_LAYER]
    assert len(names) == len(set(names))
    for name, unit, *_ in workloads.END_TO_END + workloads.PER_LAYER:
        assert NAME.fullmatch(name), name
        assert UNIT.fullmatch(unit), (name, unit)


def _check_result(result, table):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert list(result["metrics"]) == [m[0] for m in table]
    for (name, unit, *_), got in zip(table, result["metrics"].values()):
        assert got["unit"] == unit
        assert math.isfinite(got["value"]), name


def test_traced_run_reports_every_per_layer_metric(traced):
    for result, _ in traced.values():
        _check_result(result, workloads.PER_LAYER)


def test_untraced_run_reports_every_end_to_end_metric(tmp_path):
    for name in workloads.WORKLOADS:
        result, _ = workloads.run_untraced(name, 0, TINY, str(tmp_path))
        _check_result(result, workloads.END_TO_END)
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_wrapped_sites_are_hit_on_their_workload(traced):
    for name, sites in EXPECTED_SITES.items():
        hits = traced[name][1]["site_hits"]
        assert not [s for s in sites if hits.get(s, 0) == 0], name
    # every from-import copy of a wrapped function is exercised somewhere
    hit = {s for _, detail in traced.values()
           for s, n in detail["site_hits"].items() if n}
    defined_in = {func: mod for mod, func, _ in FUNCTIONS}
    copies = set()
    for site in traced["reduce"][1]["site_hits"]:
        mod, func = site.split(":")
        if mod not in (defined_in.get(func, mod), "qbmor"):
            copies.add(site)
    assert "qbmor.reduction_baselines:truncated_gramians" in copies
    assert copies - UNREACHED_COPIES <= hit


def test_counts_repeat_exactly(traced, tmp_path):
    again, _ = workloads.run_traced("reduce", 0, TINY, str(tmp_path))
    first = traced["reduce"][0]["metrics"]
    for name, unit, _ in workloads.PER_LAYER:
        if unit == "count":
            assert again["metrics"][name] == first[name], name


def test_a_bound_the_program_cannot_meet_fails_its_check(tmp_path):
    # a missed gate bound always counts as a failed operation; it makes the
    # run incorrect only on a configuration the gate itself covers
    strict = replace(TINY, residual_max=0.0)
    result, detail = workloads.run_untraced("reduce", 0, strict, str(tmp_path))
    assert result["failed"] >= 1 and result["correct"] is True
    assert detail["failures"][0]["op"] == "diagnostics.residuals"
    strict = replace(TINY, output_err_mean=0.0)
    result, detail = workloads.run_untraced("simulate", 0, strict,
                                            str(tmp_path))
    assert result["failed"] == 1 and result["correct"] is False
    assert detail["failures"][0]["op"] == "benchmarks.output_errors"


def test_runner_refuses_without_package_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "reduce",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
