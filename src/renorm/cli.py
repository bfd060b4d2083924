"""Command-line front end: scans, flow tables, exact diagrams, verification.

Emits data tables only (CSV or JSON); plotting belongs to external
tools.  Exit codes: 0 success, 1 verification failure, 2 configuration
error, 3 numeric failure (quadrature tolerance or term budget).
"""

from __future__ import annotations

import cmath
import contextlib
import dataclasses
import functools
from pathlib import Path

import click
import numpy as np

from . import characteristic as ch
from . import diagrams as dg
from . import partition as pt
from . import tables
from . import verify as verify_mod
from .config import MAX_ORDER, ConfigError, RunConfig
from .quadrature import QuadratureFailure
from .regulator import (
    DeformedSpectrum,
    NoConvergence,
    constant_part,
    regulator_to_dict,
    singular_description,
)
from .spectrum import DivergentSum, spectrum_to_dict


class _ConfigFailure(click.ClickException):
    exit_code = 2


class _NumericFailure(click.ClickException):
    exit_code = 3


_CONFIG_ERRORS = (ConfigError, DivergentSum, ValueError)
_NUMERIC_ERRORS = (QuadratureFailure, NoConvergence)


def _guard(fn):
    """Map the library's failures to exit codes 2 and 3, with a message
    that starts with the subcommand."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except _CONFIG_ERRORS as e:
            raise _ConfigFailure(f"{fn.__name__}: {e}") from e
        except _NUMERIC_ERRORS as e:
            raise _NumericFailure(f"{fn.__name__}: {e}") from e

    return wrapper


@contextlib.contextmanager
def _stage(name: str, **point):
    """Name the stage, and the grid point if any, in a failure raised
    inside."""
    try:
        yield
    except _CONFIG_ERRORS + _NUMERIC_ERRORS as e:
        at = ", ".join(f"{k} = {v:.6g}" for k, v in point.items())
        e.args = (f"{name} at {at}: {e}" if at else f"{name}: {e}",)
        raise


def _load(ctx: click.Context) -> RunConfig:
    opts = ctx.obj
    cfg = RunConfig.from_file(opts["config"]) if opts["config"] else RunConfig.from_dict({})
    if opts["out"] is not None:
        cfg = dataclasses.replace(cfg, out=opts["out"])
    if opts["fmt"] is not None:
        cfg = dataclasses.replace(cfg, fmt=opts["fmt"])
    if opts["seed"] is not None:
        cfg = dataclasses.replace(cfg, mc=pt.McConfig(samples=cfg.mc.samples, seed=opts["seed"]))
    return cfg


def _emit(cfg: RunConfig, name: str, header: list[str], rows) -> Path:
    out = Path(cfg.out)
    if cfg.fmt == "json":
        path = out / f"{name}.json"
        tables.write_json(
            path, [{k: v for k, v in zip(header, row)} for row in rows]
        )
    else:
        path = out / f"{name}.csv"
        tables.write_csv(path, header, rows)
    return path


def _renormalized_constant(cfg: RunConfig) -> float:
    """Constant part for a command that needs the renormalized limit.

    The limit exists only when the squared reciprocals are summable; a
    spectrum without one is a configuration error, reported before the
    constant part is attempted.
    """
    spec = cfg.spectrum
    if not spec.converges(2):
        raise DivergentSum(
            f"no renormalized limit: sum of beta**-2 diverges for tail exponent {spec.tail_p}"
        )
    with _stage("kappa"):
        return constant_part(spec, cfg.regulator, tol=cfg.tol)


@click.group()
@click.option("--config", type=click.Path(), default=None, help="JSON run configuration.")
@click.option("--out", type=click.Path(), default=None, help="Output directory.")
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default=None,
              help="Table format (overrides config).")
@click.option("--seed", type=int, default=None, help="Seed for stochastic steps.")
@click.option("--threads", type=int, default=1, show_default=True,
              help="Accepted and ignored; grids are evaluated in one thread.")
@click.pass_context
def main(ctx, config, out, fmt, seed, threads):
    """Evaluate regularized Gaussian product functionals and their
    renormalized limits, and emit data tables."""
    ctx.obj = {"config": config, "out": out, "fmt": fmt, "seed": seed}


@main.command()
@click.pass_context
@_guard
def spectrum(ctx):
    """Report the spectrum's minimum, class memberships, sums, and split."""
    cfg = _load(ctx)
    spec = cfg.spectrum
    click.echo(f"spectrum: {spectrum_to_dict(spec)}")
    click.echo(f"regulator: {regulator_to_dict(cfg.regulator)}")
    rows = [("mu", spec.min_value())]
    for k in range(1, 5):
        rows.append((f"B{k}", "yes" if spec.converges(k) else "no"))
    orders = [k for k in range(2, 5) if spec.converges(k)]
    sums = dict(zip(orders, spec.inverse_power_sums(orders, cfg.tol)))
    for k in range(2, 5):
        rows.append((f"b{k}", sums.get(k, "divergent")))
    rows.append(("singular_part", singular_description(spec)))
    rows.append(("kappa", constant_part(spec, cfg.regulator, tol=cfg.tol)))
    for key, val in rows:
        click.echo(f"{key}: {tables.format_value(val)}")
    path = _emit(cfg, "spectrum_report", ["key", "value"], rows)
    click.echo(f"wrote {path}")


@main.command()
@click.pass_context
@_guard
def phi(ctx):
    """Scan the characteristic functional over the s-grid: finite
    sections, the flow at each cutoff, and the renormalized limit."""
    cfg = _load(ctx)
    spec, reg, theta = cfg.spectrum, cfg.regulator, cfg.theta
    kap = _renormalized_constant(cfg)
    s_values = cfg.s_grid.linear()
    nodes = np.array(s_values)
    # each variant over the whole s-grid in one pass: (variant, n, Lambda, logs)
    scans = []
    for n in cfg.n_grid.geometric_ints():
        with _stage("finite", n=n):
            scans.append(("finite", n, "", ch.finite_log(spec, nodes, n)))
    for lam_cut in cfg.lambda_grid.geometric():
        with _stage("flow", Lambda=lam_cut):
            log_phi = ch.flow_log(DeformedSpectrum(spec, reg, lam_cut), nodes, theta)
        scans.append(("flow", "", lam_cut, log_phi))
    with _stage("renormalized"):
        scans.append(("renormalized", "", "", ch.renormalized_log(spec, kap, nodes, theta)))

    rows = []
    for i, s in enumerate(s_values):
        for variant, n, lam_cut, log_phi in scans:
            mod, phase = np.exp(log_phi[i].real), log_phi[i].imag
            val = cmath.rect(mod, phase)
            rows.append((variant, n, lam_cut, theta, s, val.real, val.imag, mod, phase))
    header = ["variant", "n", "Lambda", "theta", "s", "re", "im", "modulus", "phase"]
    path = _emit(cfg, "phi_scan", header, rows)
    click.echo(f"wrote {path}")


@main.command()
@click.pass_context
@_guard
def z(ctx):
    """Partition tables: decay of the finite sections with the certified
    bound, and the renormalized value over the theta-grid."""
    cfg = _load(ctx)
    spec = cfg.spectrum
    kap = _renormalized_constant(cfg)
    n_values = cfg.n_grid.geometric_ints()

    def decay_row(n: int):
        with _stage("z_decay", n=n):
            return (n, pt.finite(spec, cfg.lam, n, cfg.quadrature),
                    pt.finite_bound(spec, cfg.lam, n))

    def theta_row(theta: float):
        with _stage("z_theta", theta=theta):
            return (theta, pt.renormalized(spec, kap, cfg.lam, theta, cfg.quadrature))

    def mc_row(n: int):
        with _stage("z_mc", n=n):
            est, se = pt.mc_estimate(spec, cfg.lam, n, cfg.mc)
        return (n, est, se)

    # every row first, so that a failure leaves no table behind
    decay = [decay_row(n) for n in n_values]
    profile = [theta_row(theta) for theta in cfg.theta_grid.linear()]
    mc_ns = [n for n in n_values if n <= 64] or [4]
    mc_rows = [mc_row(n) for n in mc_ns]
    path1 = _emit(cfg, "z_decay", ["n", "z_n", "bound"], decay)
    path2 = _emit(cfg, "z_theta", ["theta", "z_renormalized"], profile)
    path3 = _emit(cfg, "z_mc", ["n", "estimate", "std_error"], mc_rows)
    click.echo(f"wrote {path1}")
    click.echo(f"wrote {path2}")
    click.echo(f"wrote {path3}")


@main.command()
@click.pass_context
@_guard
def flow(ctx):
    """Cutoff-removal tables: distance of the flow to the renormalized
    limit, for both functionals, over the cutoff grid."""
    cfg = _load(ctx)
    spec, reg, theta, s = cfg.spectrum, cfg.regulator, cfg.theta, cfg.s
    kap = _renormalized_constant(cfg)
    lam, q = cfg.lam, cfg.quadrature
    lam_cuts = cfg.lambda_grid.geometric()
    with _stage("phi_renormalized", s=s):
        phi_ref = cmath.exp(ch.renormalized_log(spec, kap, s, theta))
    with _stage("z_renormalized"):
        z_ref = pt.renormalized(spec, kap, lam, theta, q)

    def phi_row(lam_cut: float):
        with _stage("flow_phi", Lambda=lam_cut):
            val = cmath.exp(ch.flow_log(DeformedSpectrum(spec, reg, lam_cut), s, theta))
        return (lam_cut, s, theta, val.real, val.imag, abs(val - phi_ref))

    def z_row(lam_cut: float):
        d = DeformedSpectrum(spec, reg, lam_cut)
        with _stage("z_flow", Lambda=lam_cut):
            val = pt.flow(d, lam, theta, q)
        with _stage("z_regularized", Lambda=lam_cut):
            raw = pt.regularized(d, lam, q)
        return (lam_cut, lam, theta, val, z_ref, abs(val - z_ref), raw)

    # every row first, so that a failure leaves no table behind
    phi_rows = [phi_row(lam_cut) for lam_cut in lam_cuts]
    z_rows = [z_row(lam_cut) for lam_cut in lam_cuts]
    path1 = _emit(
        cfg, "flow_phi", ["Lambda", "s", "theta", "re", "im", "distance_to_limit"], phi_rows
    )
    path2 = _emit(
        cfg, "flow_z",
        ["Lambda", "lambda", "theta", "z_flow", "z_renormalized", "abs_error", "z_regularized"],
        z_rows,
    )
    click.echo(f"wrote {path1}")
    click.echo(f"wrote {path2}")


@main.command()
@click.option("--order", type=int, default=None,
              help="Highest series/moment order (defaults to the config).")
@click.pass_context
@_guard
def diagrams(ctx, order):
    """Exact moment polynomials, series coefficient tables, and the
    shift-identity verdicts."""
    cfg = _load(ctx)
    order = cfg.order if order is None else order
    if not 0 <= order <= MAX_ORDER:
        raise ConfigError(f"order must lie in [0, {MAX_ORDER}]")
    spec, theta = cfg.spectrum, cfg.theta
    kap = _renormalized_constant(cfg)  # before any table is written

    full = [dg.wick_moment(k) for k in range(order + 1)]  # each built once
    verdicts = [(n, dg.renorm_identity_holds(n, full)) for n in range(min(order, 12) + 1)]
    shift_value = (kap - theta) / 2.0
    orders = [m for m in range(1, 2 * order + 1) if spec.converges(m)]
    sums = dict(zip(orders, spec.inverse_power_sums(orders, cfg.tol)))
    loop_values = [sums.get(m, dg.INFINITE) for m in range(1, 2 * order + 1)]
    series = {}
    for kind in dg.SERIES_KINDS:
        try:
            coeffs = dg.series_coefficients(kind, order, loop_values, shift_value)
            series[kind] = list(enumerate(coeffs))
        except dg.InfiniteCoefficient:
            series[kind] = [(0, 1.0)] + [(j, "infinite") for j in range(1, order + 1)]

    # every value first, so that a failure leaves no table behind
    out = Path(cfg.out)
    tables.write_moments_json(out / "moments.json", full)
    click.echo(f"wrote {out / 'moments.json'}")
    path = _emit(cfg, "renorm_identity", ["order", "verdict"], verdicts)
    click.echo(f"wrote {path}")
    for kind, rows in series.items():
        path = _emit(cfg, f"series_{kind}", ["order", "coefficient"], rows)
        click.echo(f"wrote {path}")

    if not all(v for _, v in verdicts):
        raise click.ClickException("renormalization identity failed")


@main.command()
@click.option("--list", "list_only", is_flag=True, help="List criteria without running.")
@click.pass_context
@_guard
def verify(ctx, list_only):
    """Run the acceptance suite; exit 0 only if every criterion passes."""
    if list_only:
        for name in verify_mod.criterion_names():
            click.echo(name)
        return
    cfg = _load(ctx)
    seed = ctx.obj["seed"] if ctx.obj["seed"] is not None else verify_mod.DEFAULT_SEED
    all_passed, report = verify_mod.run_suite(seed=seed)
    click.echo(report)
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    report_path = out / "verify_report.txt"
    report_path.write_text(report + "\n", encoding="utf-8", newline="\n")
    click.echo(f"wrote {report_path}")
    if not all_passed:
        raise SystemExit(1)


if __name__ == "__main__":
    main()
