"""Batch experiment runner.

Parses medium/kernel/grid parameters, evaluates the selected pipelines
(deterministic Beer baseline, both closed-form conventions, Monte Carlo
ensemble, Euler integrator cross-check), writes the curve data as CSV
and prints a text report with the convention adjudication.

Exit codes: 0 success, 1 invalid configuration (any ValueError, the
flag checks' UsageError included), 2 numerical failure (covariance
factorization).
"""

from __future__ import annotations

import argparse
import math
import sys
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .averaged import AveragedLaw, ExponentConvention, averaged_intensity
from .errors import FactorizationFailure, ReliabilityWarning
from .grf import (
    AR1_ROUTE,
    CHUNK_PATHS,
    CorrelationKernel,
    FieldSampler,
    Grid,
)
from .medium import MediumSpec, StochasticMedium, beer
from .montecarlo import (
    EnsembleStats,
    default_depths,
    path_intensity,
    path_intensity_em,
    run_ensemble,
)

MODES = ("beer", "paper", "exact", "mc", "euler-check")
COLUMNS = ("z", "beer", "averaged_paper", "averaged_exact", "mc_mean", "mc_sem")
# Paths averaged by the euler-check mode.
_EULER_CHECK_PATHS = 100

_DEFAULTS = {
    "sigma_a": 1.0,
    "alpha": 0.8,
    "i0": 10.0,
    "zeta": 1.0,
    "amplitude": 1.0,
    "kappa": 2.0,
    "length": 5.0,
    "paths": 20000,
    "seed": 12345,
    "modes": "beer,paper,exact,mc",
    "out": "slab_curves.csv",
}


class UsageError(ValueError):
    """Bad flag or flag value; a ValueError, so it maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    """argparse with our exit codes, reading any negative float as a value.

    argparse takes a token after a flag for an option unless it looks like
    ``-3`` or ``-.5``, so ``--alpha -1e-3`` or ``--sigma-a -inf`` would fail
    with "expected one argument" before the range checks could name the
    bound.  A float flag (or, as argparse allows, a prefix of one) followed
    by a token that parses as a float is joined into ``--flag=token`` first.
    """

    def __init__(self, *args, **kwargs):
        self.float_flags = set()  # filled by add_argument, also from super()
        super().__init__(*args, **kwargs)

    def add_argument(self, *args, **kwargs):
        action = super().add_argument(*args, **kwargs)
        if action.type is float:
            self.float_flags.update(action.option_strings)
        return action

    def parse_known_args(self, args=None, namespace=None):
        joined = []
        for token in sys.argv[1:] if args is None else args:
            if (
                joined
                and self._takes_float(joined[-1])
                and token.startswith("-")
                and _is_float(token)
            ):
                joined[-1] += "=" + token
            else:
                joined.append(token)
        return super().parse_known_args(joined, namespace)

    def _takes_float(self, token: str) -> bool:
        if token in self.float_flags:
            return True
        # An ambiguous prefix stays ambiguous after joining; argparse says so.
        return (
            self.allow_abbrev
            and token.startswith("--")
            and len(token) > 2
            and any(flag.startswith(token) for flag in self.float_flags)
        )

    def error(self, message):  # argparse would exit(2); we own the exit codes
        raise UsageError(message)


def _is_float(token: str) -> bool:
    try:
        float(token)
    except ValueError:
        return False
    return True


@dataclass(frozen=True)
class ExperimentConfig:
    medium: MediumSpec
    kernel: CorrelationKernel
    grid: Grid
    n_paths: int
    master_seed: int
    modes: tuple
    out: str
    workers: int = 1


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="slabatten",
        description="Laser attenuation curves in a slab with a Gaussian "
        "random absorption coefficient (units: cm, 1/cm, W/cm^2).",
    )
    p.add_argument("--sigma-a", type=float, default=_DEFAULTS["sigma_a"],
                   help="mean absorption coefficient, 1/cm")
    p.add_argument("--alpha", type=float, default=_DEFAULTS["alpha"],
                   help="relative fluctuation magnitude")
    p.add_argument("--i0", type=float, default=_DEFAULTS["i0"],
                   help="incident intensity, W/cm^2")
    p.add_argument("--zeta", type=float, default=_DEFAULTS["zeta"],
                   help="correlation length, cm")
    p.add_argument("--amplitude", type=float, default=_DEFAULTS["amplitude"],
                   help="correlation amplitude C")
    p.add_argument("--kappa", type=float, default=_DEFAULTS["kappa"],
                   help="correlation shape exponent, 1 to 2; 2 for the closed forms")
    p.add_argument("--length", type=float, default=_DEFAULTS["length"],
                   help="slab thickness L, cm")
    p.add_argument("--grid-points", type=int, default=None,
                   help="grid points (default: spacing <= zeta/10)")
    p.add_argument("--paths", type=int, default=_DEFAULTS["paths"],
                   help="Monte Carlo ensemble size")
    p.add_argument("--seed", type=int, default=_DEFAULTS["seed"],
                   help="master seed for the ensemble")
    p.add_argument("--modes", type=str, default=_DEFAULTS["modes"],
                   help="comma-separated subset of " + ",".join(MODES))
    p.add_argument("--out", type=str, default=_DEFAULTS["out"],
                   help="CSV output path")
    p.add_argument("--workers", type=int, default=1,
                   help="worker threads for the ensemble (does not affect results)")
    return p


def parse_args(argv=None) -> ExperimentConfig:
    args = build_parser().parse_args(argv)
    for name, value in vars(args).items():
        if isinstance(value, float) and not math.isfinite(value):
            raise UsageError(f"--{name.replace('_', '-')}: must be finite, got {value}")
    if args.sigma_a < 0:
        raise UsageError(f"--sigma-a: must be >= 0, got {args.sigma_a}")
    if args.alpha < 0:
        raise UsageError(f"--alpha: must be >= 0, got {args.alpha}")
    if args.i0 <= 0:
        raise UsageError(f"--i0: must be > 0, got {args.i0}")
    if args.zeta <= 0:
        raise UsageError(f"--zeta: must be > 0, got {args.zeta}")
    if args.amplitude <= 0:
        raise UsageError(f"--amplitude: must be > 0, got {args.amplitude}")
    if not 1 <= args.kappa <= 2:
        raise UsageError(f"--kappa: must lie in [1, 2], got {args.kappa}")
    if args.length <= 0:
        raise UsageError(f"--length: must be > 0, got {args.length}")
    if args.grid_points is not None and args.grid_points < 2:
        raise UsageError(f"--grid-points: must be >= 2, got {args.grid_points}")
    if args.seed < 0:
        raise UsageError(f"--seed: must be >= 0, got {args.seed}")
    if args.paths < 2:
        raise UsageError(f"--paths: must be >= 2, got {args.paths}")
    if args.workers < 1:
        raise UsageError(f"--workers: must be >= 1, got {args.workers}")

    modes = tuple(m.strip() for m in args.modes.split(",") if m.strip())
    if not modes:
        raise UsageError("--modes: at least one mode is required")
    unknown = [m for m in modes if m not in MODES]
    if unknown:
        raise UsageError(
            f"--modes: unknown mode(s) {','.join(unknown)}; valid: {','.join(MODES)}"
        )

    medium = MediumSpec(sigma_a=args.sigma_a, alpha=args.alpha, i0=args.i0)
    kernel = CorrelationKernel(
        amplitude=args.amplitude,
        correlation_length=args.zeta,
        exponent=args.kappa,
    )
    if args.grid_points is None:
        grid = Grid.for_kernel(args.length, kernel)
    else:
        grid = Grid(args.length, args.grid_points)
    return ExperimentConfig(
        medium=medium,
        kernel=kernel,
        grid=grid,
        n_paths=args.paths,
        master_seed=args.seed,
        modes=modes,
        out=args.out,
        workers=args.workers,
    )


def _fmt(value: float) -> str:
    return f"{value:.9g}"


def _config_echo(config: ExperimentConfig) -> str:
    m, k, g = config.medium, config.kernel, config.grid
    fields = [
        f"i0={_fmt(m.i0)}", f"sigma_a={_fmt(m.sigma_a)}",
        "sigma_s=0", f"alpha={_fmt(m.alpha)}",  # the slab is purely absorbing
        f"amplitude={_fmt(k.amplitude)}", f"zeta={_fmt(k.correlation_length)}",
        f"kappa={_fmt(k.exponent)}", f"length={_fmt(g.length)}",
        f"grid_points={g.n_points}", f"paths={config.n_paths}",
        f"chunk={CHUNK_PATHS}", f"seed={config.master_seed}",
        f"modes={','.join(config.modes)}",
        "units=cm,1/cm,W/cm^2",
    ]
    return "# slabatten " + " ".join(fields)


def _csv_rows(depths, columns: dict) -> list:
    rows = []
    for i in range(len(depths)):
        cells = [_fmt(float(depths[i]))]
        for name in COLUMNS[1:]:
            col = columns.get(name)
            cells.append("" if col is None else _fmt(float(col[i])))
        rows.append(",".join(cells))
    return rows


def _adjudicate(rows: list) -> list:
    """Convention verdict from the CSV rows themselves (reproducible by
    post-processing the file)."""
    header = COLUMNS
    parsed = [row.split(",") for row in rows]

    def column(name):
        j = header.index(name)
        vals = [cells[j] for cells in parsed]
        return None if any(v == "" for v in vals) else np.array([float(v) for v in vals])

    mc_mean, mc_sem = column("mc_mean"), column("mc_sem")
    if mc_mean is None:
        return ["adjudication: skipped (no Monte Carlo column)"]
    scores = {}
    for name in ("averaged_exact", "averaged_paper"):
        curve = column(name)
        if curve is None:
            continue
        usable = mc_sem > 0
        if not np.any(usable):
            continue
        z = np.abs(mc_mean[usable] - curve[usable]) / mc_sem[usable]
        scores[name] = (float(z.max()), float(z.mean()))
    if not scores:
        return ["adjudication: skipped (no analytic curve or all SEM zero)"]
    verdict = min(scores, key=lambda name: scores[name][0])
    lines = ["adjudication (|MC - curve| in SEM units, per depth):"]
    for name, (zmax, zmean) in scores.items():
        tag = "  <- tracked by the MC mean" if name == verdict else ""
        lines.append(f"  {name}: max |z| = {zmax:.2f}, mean |z| = {zmean:.2f}{tag}")
    return lines


def _euler_check_lines(config: ExperimentConfig) -> list:
    """Mean |Euler - exact| at the slab exit across grid refinements.

    Paths are sampled once on the finest grid and read on nested subgrids
    through every stride-th node (a view, no copy), so every refinement
    integrates the same realizations and the observed order is not
    washed out by path-to-path variation.  The paths arrive in row tiles;
    only the per-path errors are kept.
    """
    medium, base = config.medium, config.grid
    cells = (base.n_points - 1) * 4
    strides = (4, 2, 1)
    grids = [Grid(base.length, cells // stride + 1) for stride in strides]
    sampler = FieldSampler(config.kernel, grids[-1])
    per_path = np.empty((len(strides), _EULER_CHECK_PATHS))
    start = 0
    for values in sampler.tiles(config.master_seed, 0, _EULER_CHECK_PATHS):
        stop = start + len(values)
        for i, (stride, grid) in enumerate(zip(strides, grids)):
            path = values[:, ::stride]
            euler = path_intensity_em(medium, grid, path, base.length)
            exact = path_intensity(medium, grid, path, base.length)
            per_path[i, start:stop] = np.abs(euler - exact)
        start = stop
        del values, path  # free this tile before the next one is drawn
    lines = ["euler check (mean |Euler - exact| at z = L, nested refinements):"]
    errors = [float(np.mean(row)) for row in per_path]
    for grid, err in zip(grids, errors):
        lines.append(f"  h = {grid.spacing:.6g}: {err:.6g}")
    for i in range(1, len(errors)):
        if errors[i] > 0:
            order = np.log2(errors[i - 1] / errors[i])
            lines.append(f"  observed order (refinement {i}): {order:.2f}")
    return lines


def _negative_fraction_expectation(
    sigma_a: float, alpha: float, amplitude: float
) -> float:
    """P(G < -1/alpha) for G ~ N(0, C), Phi(-1/(alpha sqrt C)) written as
    0.5 erfc(1/(alpha sqrt(2C))); exactly 0 without fluctuations or
    without absorption, where sigma_a (1 + alpha G) is never negative."""
    if alpha <= 0 or sigma_a <= 0:
        return 0.0
    return 0.5 * math.erfc(1.0 / (alpha * math.sqrt(2.0 * amplitude)))


def _decay_rate_limit(medium: MediumSpec, kernel: CorrelationKernel) -> float:
    """Decay rate of the mean intensity for z >> zeta, exact gain.

    -d ln<I>/dz is sigma_a - alpha^2 sigma_a^2 int_0^z phi(u) du for the
    kernel phi, and int_0^inf C exp(-(u/zeta)^kappa) du = C zeta
    Gamma(1 + 1/kappa), so for every kappa the rate tends to a constant
    below sigma_a whenever alpha > 0: the mean does not return to Beer's
    law deep in the slab.
    """
    tail = kernel.amplitude * kernel.correlation_length * math.gamma(
        1.0 + 1.0 / kernel.exponent
    )
    return medium.sigma_a - medium.alpha**2 * medium.sigma_a**2 * tail


def _sampler_line(stats: EnsembleStats, grid: Grid) -> str:
    if stats.sampler_route == AR1_ROUTE:
        return "sampler: AR(1) recursion (exact for kappa = 1)"
    return (
        f"sampler: dense Cholesky, n = {grid.n_points}, "
        f"jitter = {stats.jitter:.3g}"
    )


def run(config: ExperimentConfig) -> int:
    """Run the selected pipelines, write the CSV, print the report."""
    medium, kernel, grid = config.medium, config.kernel, config.grid
    depths = default_depths(grid)
    columns: dict = {name: None for name in COLUMNS[1:]}
    report: list = ["slabatten report", _config_echo(config)[2:]]

    rate = _decay_rate_limit(medium, kernel)
    rate_line = (
        f"decay rate of the mean for z >> zeta: sigma_inf = {rate:.6g} /cm "
        f"(Beer: sigma_a = {medium.sigma_a:.6g} /cm)"
    )
    if rate <= 0:
        rate_line += "; the mean intensity does not decay with depth"
    report.append(rate_line)

    if "beer" in config.modes:
        columns["beer"] = np.atleast_1d(beer(medium, depths))
    if "paper" in config.modes:
        law = AveragedLaw(medium, kernel, ExponentConvention.PAPER_HALF)
        columns["averaged_paper"] = np.atleast_1d(averaged_intensity(law, depths))
    if "exact" in config.modes:
        law = AveragedLaw(medium, kernel, ExponentConvention.EXACT)
        columns["averaged_exact"] = np.atleast_1d(averaged_intensity(law, depths))

    stats: EnsembleStats | None = None
    if "mc" in config.modes:
        # The ensemble's warnings belong to this run's report, not stderr.
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ReliabilityWarning)
            stats = run_ensemble(
                StochasticMedium(medium, kernel),
                grid,
                config.n_paths,
                config.master_seed,
                depths=depths,
                workers=config.workers,
            )
        columns["mc_mean"] = stats.mean
        columns["mc_sem"] = stats.sem
        expected = _negative_fraction_expectation(
            medium.sigma_a, medium.alpha, kernel.amplitude
        )
        report.append(
            f"ensemble: {stats.n_paths} paths, negative-coefficient fraction = "
            f"{stats.negative_coefficient_fraction:.6g} "
            f"(exact expectation Phi(-1/(alpha*sqrt C)) = {expected:.6g})"
        )
        report.append(_sampler_line(stats, grid))
        report.append(
            "slab integral of G: skewness = "
            f"{stats.integral_skewness:.4f}, excess kurtosis = "
            f"{stats.integral_excess_kurtosis:.4f}"
        )
        report.extend(
            f"warning: {w.category.__name__}: {w.message}" for w in caught
        )

    rows = _csv_rows(depths, columns)
    text = "\n".join([_config_echo(config), ",".join(COLUMNS), *rows]) + "\n"
    Path(config.out).write_text(text, encoding="utf-8")

    report.extend(_adjudicate(rows))
    if "euler-check" in config.modes:
        report.extend(_euler_check_lines(config))
    report.append(f"wrote {config.out} ({len(rows)} rows)")
    print("\n".join(report))
    return 0


def main(argv=None) -> int:
    try:
        return run(parse_args(argv))
    except ValueError as err:
        print(f"slabatten: error: {err}", file=sys.stderr)
        return 1
    except FactorizationFailure as err:
        print(f"slabatten: numerical failure: {err}", file=sys.stderr)
        return 2


def console_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_entry()
