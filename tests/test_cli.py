"""End-to-end checks of the command line driver via its main() entry."""

import os
import subprocess
import sys as _sys
import warnings

import numpy as np
import pytest

import qbmor
from qbmor.benchmarks import chafee_infante, fitzhugh_nagumo
from qbmor.cli import cli, main
from qbmor.errors import MaxIterationsExceeded
from qbmor.qb_core import (QBSystem, load_reduced, load_system, project,
                           save_reduced, save_system)
from qbmor.reduction_baselines import balanced_truncation
from qbmor.tqb_irka import IrkaConfig, tqb_irka


@pytest.fixture(scope="module")
def chafee_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli") / "chafee10"
    assert main(["generate", "chafee", "--k", "10",
                 "--out-dir", str(d)]) == 0
    return d


@pytest.fixture(scope="module")
def reduced_dir(chafee_dir, tmp_path_factory):
    d = tmp_path_factory.mktemp("cli") / "red4"
    assert main(["reduce", str(chafee_dir), "--r", "4", "--gamma", "0.01",
                 "--out-dir", str(d)]) == 0
    return d


def run_lines(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out.splitlines(), captured.err


def grab(lines, key):
    hits = [ln for ln in lines if ln.startswith(key + "=")]
    assert len(hits) == 1, "expected one %s= line" % key
    return hits[0].split("=", 1)[1]


def test_generate_chafee_roundtrip(tmp_path, capsys):
    out = tmp_path / "model"
    rc, lines, err = run_lines(
        capsys, ["generate", "chafee", "--k", "6", "--out-dir", str(out)])
    assert rc == 0
    assert lines[0] == "model=chafee k=6 n=12 m=1 p=1"
    manifest = grab(lines, "written")
    assert os.path.exists(manifest)

    loaded = load_system(manifest)
    ref = chafee_infante(6)
    assert np.array_equal(loaded.A.toarray(), ref.A.toarray())
    assert np.array_equal(loaded.B, ref.B)
    assert np.array_equal(loaded.C, ref.C)
    assert len(loaded.N) == 1
    assert np.array_equal(loaded.N[0].toarray(), ref.N[0].toarray())
    assert np.array_equal(loaded.H.mode1(), ref.H.mode1())


def test_generate_fhn_dims(tmp_path, capsys):
    out = tmp_path / "model"
    rc, lines, _ = run_lines(
        capsys, ["generate", "fhn", "--k", "300", "--out-dir", str(out)])
    assert rc == 0
    assert lines[0] == "model=fhn k=300 n=900 m=2 p=2"


def test_generate_fhn_roundtrip(tmp_path, capsys):
    out = tmp_path / "model"
    rc, lines, _ = run_lines(
        capsys, ["generate", "fhn", "--k", "5", "--out-dir", str(out)])
    assert rc == 0
    loaded = load_system(grab(lines, "written"))
    ref = fitzhugh_nagumo(5)
    assert np.array_equal(loaded.A.toarray(), ref.A.toarray())
    assert np.array_equal(loaded.B, ref.B)
    assert np.array_equal(loaded.C, ref.C)
    assert np.array_equal(loaded.H.mode1(), ref.H.mode1())


def test_generate_rejects_unknown_model(tmp_path, capsys):
    rc = main(["generate", "foo", "--k", "4", "--out-dir", str(tmp_path)])
    capsys.readouterr()
    assert rc == 1


def test_reduce_irka_report_lines(chafee_dir, tmp_path, capsys):
    out = tmp_path / "red"
    rc, lines, err = run_lines(
        capsys, ["reduce", str(chafee_dir), "--r", "4", "--gamma", "0.01",
                 "--out-dir", str(out)])
    assert rc == 0
    assert lines[0] == "method=tqb-irka r=4 n=20 seed=0 init=random"
    assert grab(lines, "converged").startswith("true")
    assert "wall_time" in err and not any("wall_time" in ln for ln in lines)

    rows = lines[lines.index("eig_change:") + 1:]
    changes = [float(row.split(",")[1]) for row in rows]
    assert len(changes) >= 1
    assert changes[-1] <= 1e-5

    red = load_reduced(grab(lines, "written"))
    assert red.r == 4 and red.method == "tqb-irka"
    assert red.gamma == 0.01 and red.seed == 0 and red.converged


def test_reduce_is_deterministic(chafee_dir, tmp_path, capsys):
    outs = []
    dirs = []
    for tag in ("a", "b"):
        d = tmp_path / tag
        rc = main(["reduce", str(chafee_dir), "--r", "4", "--seed", "1",
                   "--gamma", "0.01", "--out-dir", str(d)])
        captured = capsys.readouterr()
        assert rc == 0
        # the out-dir differs between runs; everything else must not
        outs.append([ln for ln in captured.out.splitlines()
                     if not ln.startswith("written=")])
        dirs.append(d)
    assert outs[0] == outs[1]
    names = sorted(os.listdir(dirs[0]))
    assert names == sorted(os.listdir(dirs[1]))
    for name in names:
        with open(dirs[0] / name, "rb") as fh:
            blob_a = fh.read()
        with open(dirs[1] / name, "rb") as fh:
            blob_b = fh.read()
        assert blob_a == blob_b, "file %s differs between runs" % name


def test_reduce_bt_hsv_table(chafee_dir, tmp_path, capsys):
    out = tmp_path / "bt"
    rc, lines, _ = run_lines(
        capsys, ["reduce", str(chafee_dir), "--method", "bt", "--r", "5",
                 "--out-dir", str(out)])
    assert rc == 0
    assert lines[0] == "method=bt r=5 n=20"
    assert float(grab(lines, "gamma")) == 1.0
    rows = lines[lines.index("hsv:") + 1:]
    hsv = [float(row.split(",")[1]) for row in rows]
    assert len(hsv) == 20
    assert all(a >= b for a, b in zip(hsv, hsv[1:]))
    assert hsv[0] > 0

    red = load_reduced(grab(lines, "written"))
    assert red.method == "bt" and red.iterations == 0 and red.converged


def test_reduce_from_the_balanced_truncation(chafee_dir, tmp_path, capsys):
    out = tmp_path / "cli"
    rc, lines, _ = run_lines(
        capsys, ["reduce", str(chafee_dir), "--r", "4", "--gamma", "0.01",
                 "--init", "bt", "--out-dir", str(out)])
    assert rc == 0
    # a given start draws nothing, so no seed is recorded
    assert lines[0] == "method=tqb-irka r=4 n=20 seed= init=bt"
    assert load_reduced(grab(lines, "written")).seed is None

    sys_ = load_system(chafee_dir)
    init = balanced_truncation(sys_, 4, gamma=0.01)[0]
    red, _, _ = tqb_irka(sys_, IrkaConfig(r=4, gamma=0.01, init=init))
    ref = tmp_path / "lib"
    save_reduced(red, ref)
    names = sorted(os.listdir(out))
    assert names == sorted(os.listdir(ref))
    for name in names:
        assert (out / name).read_bytes() == (ref / name).read_bytes(), name


def test_reduce_init_takes_only_random_and_bt(chafee_dir, tmp_path, capsys):
    # a start is the seeded draw or a given model, here the BT one
    init = next(p for p in cli.commands["reduce"].params
                if p.name == "init_kind")
    assert list(init.type.choices) == ["random", "bt"]
    rc = main(["reduce", str(chafee_dir), "--r", "2", "--init", "linear",
               "--out-dir", str(tmp_path / "l")])
    err = capsys.readouterr().err
    assert rc == 1
    assert "Invalid value for '--init'" in err
    assert not (tmp_path / "l").exists()


def test_reduce_nonconvergence_exits_2_but_writes(chafee_dir, tmp_path,
                                                  capsys):
    out = tmp_path / "nc"
    with pytest.warns(MaxIterationsExceeded):
        rc = main(["reduce", str(chafee_dir), "--r", "3", "--maxit", "1",
                   "--tol", "1e-14", "--out-dir", str(out)])
    lines = capsys.readouterr().out.splitlines()
    assert rc == 2
    assert grab(lines, "converged").startswith("false")
    red = load_reduced(grab(lines, "written"))
    assert not red.converged and red.iterations == 1


def test_reduce_invalid_requests_exit_1(chafee_dir, tmp_path, capsys):
    assert main(["reduce", str(chafee_dir), "--r", "2", "--gamma", "-1",
                 "--out-dir", str(tmp_path / "g")]) == 1
    assert main(["reduce", str(chafee_dir), "--method", "bt", "--r", "0",
                 "--out-dir", str(tmp_path / "r0")]) == 1
    assert main(["reduce", str(tmp_path / "nosuchdir"), "--r", "2",
                 "--out-dir", str(tmp_path / "x")]) == 1
    # a non-finite gamma is rejected before any work, by either method
    for method in ("tqb-irka", "bt"):
        for gamma in ("nan", "inf"):
            assert main(["reduce", str(chafee_dir), "--method", method,
                         "--r", "2", "--gamma", gamma,
                         "--out-dir", str(tmp_path / "g")]) == 1
            assert "invalid request" in capsys.readouterr().err
    # tqb_irka solves its bases on A itself: there is no shift option
    assert main(["reduce", str(chafee_dir), "--r", "2", "--shift", "0.5",
                 "--out-dir", str(tmp_path / "s")]) == 1
    capsys.readouterr()


def test_reduce_maxit_zero_exits_1(chafee_dir, tmp_path, capsys):
    rc = main(["reduce", str(chafee_dir), "--r", "2", "--maxit", "0",
               "--out-dir", str(tmp_path / "m0")])
    err = capsys.readouterr().err
    assert rc == 1
    assert "invalid request" in err and "maxit" in err


def test_manifest_without_a_key_exits_1(reduced_dir, tmp_path, capsys):
    bad = tmp_path / "bad"
    bad.mkdir()
    (bad / "system.qbm").write_text("format = qbmor-system-1\nn = 3\n")
    rc = main(["report", str(bad), str(reduced_dir), "--what", "h2err",
               "--out-dir", str(tmp_path / "rep")])
    err = capsys.readouterr().err
    assert rc == 1
    assert "invalid request" in err and "'m'" in err


def test_reduce_numerical_failure_exits_3(tmp_path, capsys):
    n = 3
    unstable = QBSystem(np.eye(n) * 0.5, None, [np.zeros((n, n))],
                        np.ones((n, 1)), np.ones((1, n)))
    sdir = tmp_path / "unstable"
    save_system(unstable, str(sdir))
    rc = main(["reduce", str(sdir), "--method", "bt", "--r", "1",
               "--out-dir", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 3
    assert "numerical failure" in err


def test_report_residuals_on_exact_copy(tmp_path, capsys):
    sys_ = chafee_infante(6)
    sdir, rdir = tmp_path / "sys", tmp_path / "copy"
    save_system(sys_, str(sdir))
    eye = np.eye(sys_.n)
    save_reduced(project(sys_, eye, eye), str(rdir))
    rc, lines, _ = run_lines(
        capsys, ["report", str(sdir), str(rdir), "--what", "residuals"])
    assert rc == 0
    assert float(grab(lines, "gamma")) == 1.0
    for key in ("E_C", "E_B", "E_N", "E_H", "E_lambda"):
        assert float(grab(lines, key)) <= 1e-9


def test_report_residuals_converged_pair(chafee_dir, reduced_dir, capsys):
    rc, lines, _ = run_lines(
        capsys, ["report", str(chafee_dir), str(reduced_dir),
                 "--what", "residuals"])
    assert rc == 0
    assert float(grab(lines, "gamma")) == 0.01
    for key in ("E_C", "E_B", "E_N", "E_H", "E_lambda"):
        assert float(grab(lines, key)) <= 1e-6


def test_report_residuals_of_a_bt_model(tmp_path, capsys):
    # a balanced-truncation model is no fixed point of the iteration, and
    # the report says so in finite numbers
    sdir, rdir = tmp_path / "sys", tmp_path / "bt"
    assert main(["generate", "chafee", "--k", "50", "--out-dir",
                 str(sdir)]) == 0
    assert main(["reduce", str(sdir), "--method", "bt", "--r", "8",
                 "--out-dir", str(rdir)]) == 0
    capsys.readouterr()
    rc, lines, _ = run_lines(
        capsys, ["report", str(sdir), str(rdir), "--what", "residuals"])
    assert rc == 0
    vals = {key: float(grab(lines, key))
            for key in ("E_C", "E_B", "E_N", "E_H", "E_lambda")}
    assert all(np.isfinite(val) for val in vals.values())
    assert vals["E_C"] > 1e-6


def test_report_h2err(chafee_dir, reduced_dir, capsys):
    rc, lines, _ = run_lines(
        capsys, ["report", str(chafee_dir), str(reduced_dir),
                 "--what", "h2err"])
    assert rc == 0
    err = float(grab(lines, "h2_error"))
    full = float(grab(lines, "h2_full"))
    rel = float(grab(lines, "h2_error_rel"))
    assert 0 < err < full
    assert abs(rel - err / full) <= 1e-12 * rel


def test_report_h2err_of_a_zero_reference(tmp_path, capsys):
    # with B = 0 the full system's norm is 0: a zero error reads 0 and any
    # other error inf, as output_errors reads a zero reference
    base = chafee_infante(10)
    zero = QBSystem(base.A, base.H, base.N, np.zeros_like(base.B), base.C)
    eye = np.eye(base.n)
    sdir = tmp_path / "sys"
    save_system(zero, str(sdir))
    for model, rel in ((zero, 0.0), (base, np.inf)):
        rdir = tmp_path / ("copy%g" % rel)
        save_reduced(project(model, eye, eye), str(rdir))
        rc, lines, _ = run_lines(
            capsys, ["report", str(sdir), str(rdir), "--what", "h2err"])
        assert rc == 0
        assert float(grab(lines, "h2_full")) == 0.0
        assert (float(grab(lines, "h2_error")) == 0.0) == (rel == 0.0)
        assert float(grab(lines, "h2_error_rel")) == rel


def test_report_simulate_writes_artifacts(chafee_dir, reduced_dir, tmp_path,
                                          capsys):
    out = tmp_path / "rep"
    rc, lines, _ = run_lines(
        capsys, ["report", str(chafee_dir), str(reduced_dir),
                 "--what", "simulate", "--input", "ci-u1",
                 "--T", "2", "--samples", "41", "--out-dir", str(out)])
    assert rc == 0
    with open(out / "full.csv") as fh:
        rows = fh.read().splitlines()
    assert rows[0] == "t,y_1"
    assert len(rows) == 42
    with open(out / "reduced.csv") as fh:
        assert len(fh.read().splitlines()) == 42
    with open(out / "metrics.txt") as fh:
        metrics = fh.read().splitlines()
    assert metrics[0] == "input=ci-u1"
    mean_rel = float(grab(metrics, "mean_rel"))
    assert np.isfinite(mean_rel) and mean_rel >= 0
    # stdout repeats the metrics lines verbatim
    assert grab(lines, "mean_rel") == grab(metrics, "mean_rel")


def test_report_usage_errors_exit_1(chafee_dir, reduced_dir, tmp_path,
                                    capsys):
    assert main(["report", str(chafee_dir), str(reduced_dir),
                 "--what", "simulate", "--out-dir", str(tmp_path)]) == 1
    rc = main(["report", str(chafee_dir), str(reduced_dir),
               "--what", "simulate", "--input", "fhn-sin",
               "--out-dir", str(tmp_path)])
    err = capsys.readouterr().err
    assert rc == 1
    assert "channels" in err


def test_report_rejects_mismatched_pair(chafee_dir, tmp_path, capsys):
    other = fitzhugh_nagumo(4)
    rdir = tmp_path / "fhnred"
    eye = np.eye(other.n)
    save_reduced(project(other, eye, eye), str(rdir))
    rc = main(["report", str(chafee_dir), str(rdir), "--what", "h2err"])
    capsys.readouterr()
    assert rc == 1


def test_console_script_entry_point(tmp_path):
    out = tmp_path / "model"
    # the subprocess imports the same qbmor as this test, installed or not
    src = os.path.dirname(os.path.dirname(os.path.abspath(qbmor.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [_sys.executable, "-m", "qbmor.cli", "generate", "chafee",
         "--k", "4", "--out-dir", str(out)],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == "model=chafee k=4 n=8 m=1 p=1"
    assert "wall_time" not in proc.stdout
