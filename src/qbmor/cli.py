"""Command-line driver for generation, reduction, and reporting.

All numeric stdout is plain structured text with 17 significant digits
and is deterministic for fixed flags; timing goes to stderr only.
"""

import os
import sys as _sys
import time

import click

from qbmor.benchmarks import (chafee_infante, fitzhugh_nagumo, input_signal,
                              output_errors, simulate, to_csv)
from qbmor.diagnostics import optimality_residuals
from qbmor.errors import NonPositiveGamma, NumericalError, QbmorError
from qbmor.gramians_norms import truncated_h2_error, truncated_h2_norm
from qbmor.qb_core import (load_reduced, load_system, rescale, save_reduced,
                           save_system)
from qbmor.reduction_baselines import balanced_truncation
from qbmor.tqb_irka import IrkaConfig, solve_bases, tqb_irka

_INPUTS = {"ci-u1": "ci_u1", "ci-u2": "ci_u2",
           "fhn-sin": "fhn_i0_sin", "fhn-bump": "fhn_i0_bump"}


@click.group(name="qbmor")
def cli():
    """Reduce quadratic-bilinear models and report on the results."""


@cli.command("generate")
@click.argument("model", type=click.Choice(["chafee", "fhn"]))
@click.option("--k", type=int, required=True, help="grid points")
@click.option("--out-dir", type=click.Path(), required=True)
def cmd_generate(model, k, out_dir):
    """Write a benchmark system to a model directory."""
    sys_ = chafee_infante(k) if model == "chafee" else fitzhugh_nagumo(k)
    path = save_system(sys_, out_dir)
    click.echo("model=%s k=%d n=%d m=%d p=%d" % (model, k, sys_.n, sys_.m,
                                                 sys_.p))
    click.echo("written=%s" % path)
    return 0


@cli.command("reduce")
@click.argument("system_path", type=click.Path(exists=True))
@click.option("--method", type=click.Choice(["tqb-irka", "bt"]),
              default="tqb-irka", show_default=True)
@click.option("--r", type=int, required=True, help="reduced order")
@click.option("--tol", type=float, default=1e-5, show_default=True)
@click.option("--maxit", type=int, default=100, show_default=True)
@click.option("--gamma", type=float, default=1.0, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--init", "init_kind",
              type=click.Choice(["random", "bt"]), default="random",
              show_default=True)
@click.option("--out-dir", type=click.Path(), required=True)
def cmd_reduce(system_path, method, r, tol, maxit, gamma, seed, init_kind,
               out_dir):
    """Reduce a stored system; exit code 2 flags non-convergence."""
    sys_ = load_system(system_path)
    t0 = time.perf_counter()
    rc = 0
    if method == "bt":
        red, hsv = balanced_truncation(sys_, r, gamma=gamma)
        path = save_reduced(red, out_dir)
        click.echo("method=bt r=%d n=%d" % (r, sys_.n))
        click.echo("gamma=%.17g" % gamma)
        click.echo("written=%s" % path)
        click.echo("hsv:")
        for i, s in enumerate(hsv):
            click.echo("%d,%.17g" % (i + 1, s))
    else:
        init = (balanced_truncation(sys_, r, gamma=gamma)[0]
                if init_kind == "bt" else init_kind)
        cfg = IrkaConfig(r=r, tol=tol, maxit=maxit, gamma=gamma, init=init,
                         seed=seed)
        red, _, report = tqb_irka(sys_, cfg)
        path = save_reduced(red, out_dir)
        click.echo("method=tqb-irka r=%d n=%d seed=%s init=%s" %
                   (r, sys_.n, "" if red.seed is None else red.seed,
                    init_kind))
        click.echo("gamma=%.17g tol=%.17g maxit=%d" % (gamma, tol, maxit))
        click.echo("written=%s" % path)
        click.echo("converged=%s iterations=%d" %
                   ("true" if report.converged else "false",
                    report.iterations))
        click.echo("eig_change:")
        for i, c in enumerate(report.eig_change_history):
            click.echo("%d,%.17g" % (i + 1, c))
        if not report.converged:
            rc = 2
    click.echo("wall_time=%.3fs" % (time.perf_counter() - t0), err=True)
    return rc


@cli.command("report")
@click.argument("system_path", type=click.Path(exists=True))
@click.argument("reduced_path", type=click.Path(exists=True))
@click.option("--what", type=click.Choice(["residuals", "h2err", "simulate"]),
              required=True)
@click.option("--input", "input_name", type=click.Choice(sorted(_INPUTS)),
              default=None, help="canonical input for --what simulate")
@click.option("--T", "horizon", type=float, default=10.0, show_default=True)
@click.option("--samples", type=int, default=500, show_default=True)
@click.option("--out-dir", type=click.Path(), default="report",
              show_default=True)
def cmd_report(system_path, reduced_path, what, input_name, horizon, samples,
               out_dir):
    """Compare a stored system against one of its reduced models."""
    sys_ = load_system(system_path)
    red = load_reduced(reduced_path)
    if red.m != sys_.m or red.p != sys_.p:
        raise click.UsageError("system and reduced model have mismatched "
                               "input/output dimensions")
    t0 = time.perf_counter()
    if what == "residuals":
        # measured at the rescaling the model was computed with
        gam = red.gamma
        pair_sys, pair_red = rescale(sys_, gam), rescale(red, gam)
        bases = solve_bases(pair_sys, pair_red)
        rep = optimality_residuals(pair_sys, pair_red, bases)
        click.echo("gamma=%.17g" % gam)
        for name, val in rep.items():
            click.echo("%s=%.17g" % (name, val))
    elif what == "h2err":
        err = truncated_h2_error(sys_, red)
        full = truncated_h2_norm(sys_)
        click.echo("h2_error=%.17g" % err)
        click.echo("h2_full=%.17g" % full)
        # a zero reference matches only a zero error (as output_errors)
        rel = err / full if full else (0.0 if err == 0.0 else float("inf"))
        click.echo("h2_error_rel=%.17g" % rel)
    else:
        if input_name is None:
            raise click.UsageError("--what simulate needs --input")
        u = input_signal(_INPUTS[input_name])
        if u.m != sys_.m:
            raise click.UsageError("input %s drives %d channels, system "
                                   "expects %d" % (input_name, u.m, sys_.m))
        os.makedirs(out_dir, exist_ok=True)
        y = simulate(sys_, u, horizon, samples)
        yr = simulate(red, u, horizon, samples)
        to_csv(y, os.path.join(out_dir, "full.csv"))
        to_csv(yr, os.path.join(out_dir, "reduced.csv"))
        mean_rel, linf_rel = output_errors(y, yr)
        lines = ["input=%s" % input_name,
                 "T=%.17g" % horizon,
                 "samples=%d" % samples,
                 "mean_rel=%.17g" % mean_rel,
                 "linf_rel=%.17g" % linf_rel]
        with open(os.path.join(out_dir, "metrics.txt"), "w") as fh:
            fh.write("\n".join(lines) + "\n")
        for ln in lines:
            click.echo(ln)
    click.echo("wall_time=%.3fs" % (time.perf_counter() - t0), err=True)
    return 0


def main(argv=None):
    """Entry point with exit codes 0 ok, 1 usage/IO, 2 no convergence,
    3 numerical failure."""
    try:
        rc = cli.main(args=argv, standalone_mode=False)
    except click.exceptions.Abort:
        click.echo("aborted", err=True)
        return 1
    except click.exceptions.ClickException as exc:
        exc.show()
        return 1
    except click.exceptions.Exit as exc:
        return exc.exit_code
    except NumericalError as exc:
        click.echo("numerical failure: %s" % exc, err=True)
        return 3
    except (NonPositiveGamma, ValueError) as exc:
        click.echo("invalid request: %s" % exc, err=True)
        return 1
    except QbmorError as exc:
        click.echo("failure: %s" % exc, err=True)
        return 3
    except OSError as exc:
        click.echo("io error: %s" % exc, err=True)
        return 1
    return rc if isinstance(rc, int) else 0


if __name__ == "__main__":
    _sys.exit(main())
