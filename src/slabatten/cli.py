"""Batch experiment runner.

Parses medium/kernel/grid parameters, evaluates the selected pipelines
(Beer baseline, both closed-form conventions, and the Monte Carlo
ensemble and Euler cross-check, which it schedules and montecarlo draws),
writes the curves as CSV and prints a report with the convention
adjudication.  Every warning the run meets, from any layer or thread,
ends the report once, in one sorted block of ``warning: <Category>:
<message>`` lines; a run that fails prints only its error.  ``--workers``
counts all of a run's threads: the Euler check gets one of its own only
when the ensemble leaves one of them idle on a CPU the process may use.

Exit codes: 0 success, 1 invalid configuration (any ValueError: a flag
check's UsageError, an ``--out`` that cannot be written, a run past the
memory budget, a closed-form intensity, an ensemble mean or SEM or an
Euler check error that is not finite).  A run that exits 1 writes no CSV.
Any finite flag value ends in one of the two, without a traceback.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .averaged import AveragedLaw, ExponentConvention, averaged_intensity
from .errors import ReliabilityWarning
from .grf import (
    AR1_ROUTE,
    CHUNK_PATHS,
    MEMORY_BUDGET,
    PIVOTED_ROUTE,
    CorrelationKernel,
    Grid,
    check_budget,
    sampled_share,
)
from .medium import MediumSpec, StochasticMedium, beer, squared
from .montecarlo import (
    EnsembleStats,
    default_depths,
    ensemble_bytes,
    euler_check,
    euler_check_bytes,
    run_ensemble,
    usable_cpus,
)

MODES = ("beer", "paper", "exact", "mc", "euler-check")
COLUMNS = ("z", "beer", "averaged_paper", "averaged_exact", "mc_mean", "mc_sem")

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
                   help="Monte Carlo ensemble size, even: mirrored pairs")
    p.add_argument("--seed", type=int, default=_DEFAULTS["seed"],
                   help="master seed for the ensemble")
    p.add_argument("--modes", type=str, default=_DEFAULTS["modes"],
                   help="comma-separated subset of " + ",".join(MODES))
    p.add_argument("--out", type=str, default=_DEFAULTS["out"],
                   help="CSV output path")
    p.add_argument("--workers", type=int, default=1,
                   help="threads for the ensemble (at most the CPUs) and, when "
                   "one is idle, the Euler check; results unchanged")
    return p


def parse_args(argv=None) -> ExperimentConfig:
    # argparse takes a token after a flag for an option unless it looks like
    # -3 or -.5, so --alpha -1e-3 or --sigma-a -inf would fail with "expected
    # one argument" before the range checks could name the bound.  A float
    # flag, or a -- prefix of one as argparse allows, followed by a token
    # that parses as a negative float is joined into --flag=token first; an
    # ambiguous prefix stays ambiguous after joining, and argparse says so.
    floats = ["--" + k.replace("_", "-") for k, v in _DEFAULTS.items()
              if isinstance(v, float)]
    tokens = []
    for token in sys.argv[1:] if argv is None else argv:
        flag = tokens[-1] if tokens else ""
        if token.startswith("-") and _is_float(token) and flag[2:] and any(
            f.startswith(flag) for f in floats
        ):
            tokens[-1] += "=" + token
        else:
            tokens.append(token)
    args = build_parser().parse_args(tokens)
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
    if args.paths < 4 or args.paths % 2:
        raise UsageError(f"--paths: must be even and >= 4, got {args.paths}")
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
    """The Euler check's report: ``montecarlo.euler_check``'s mean errors and
    the observed order between neighbouring refinements."""
    spacings, errors = euler_check(
        config.medium, config.kernel, config.grid, config.master_seed
    )
    lines = ["euler check (mean |Euler - exact| at z = L, nested refinements):"]
    lines += [f"  h = {h:.6g}: {err:.6g}" for h, err in zip(spacings, errors)]
    for i in range(1, len(errors)):
        if errors[i] > 0:
            order = np.log2(errors[i - 1] / errors[i])
            lines.append(f"  observed order (refinement {i}): {order:.2f}")
    return lines


def _euler_check_beside(config: ExperimentConfig, depths) -> bool:
    """Charge the Euler check to the memory budget, and say whether it runs
    on its own thread beside the ensemble: when the ensemble's chunks leave
    a worker idle on a free CPU (``usable_cpus``) and its charge and
    ``ensemble_bytes`` fit the budget together."""
    if "euler-check" not in config.modes:
        return False
    euler = euler_check_bytes(config.kernel, config.grid)
    check_budget(euler, "the Euler check on its refined grid")
    chunks = -(-config.n_paths // CHUNK_PATHS)
    if "mc" not in config.modes or chunks >= min(config.workers, usable_cpus()):
        return False
    ensemble = ensemble_bytes(
        config.kernel, config.grid, config.n_paths, depths, config.workers
    )
    return ensemble + euler <= MEMORY_BUDGET


def _check_out(path: str) -> None:
    """UsageError unless ``path`` opens to append.  Only a missing path, a
    file or a directory is opened, and a new file removed again; a link,
    FIFO or device is left to the write."""
    new = not os.path.lexists(path)
    if os.path.islink(path) or not (new or os.path.isfile(path) or os.path.isdir(path)):
        return
    try:
        open(path, "a").close()
    except OSError as err:
        raise UsageError(f"--out: {err.strerror}: {path}") from None
    if new:
        os.unlink(path)


def _negative_fraction_expectation(
    sigma_a: float, alpha: float, amplitude: float
) -> float:
    """P(G < -1/alpha) for G ~ N(0, C), Phi(-1/(alpha sqrt C)) written as
    0.5 erfc(1/(alpha sqrt(2C))); exactly 0 without fluctuations or
    without absorption, where sigma_a (1 + alpha G) is never negative, and
    where alpha sqrt(2C) underflows, as erfc(inf) is."""
    spread = alpha * math.sqrt(2.0 * amplitude)
    return 0.5 * math.erfc(1.0 / spread) if spread > 0 and sigma_a > 0 else 0.0


def _decay_rate_limit(medium: MediumSpec, kernel: CorrelationKernel) -> float:
    """Decay rate of the mean intensity for z >> zeta, exact gain.

    -d ln<I>/dz is sigma_a - alpha^2 sigma_a^2 int_0^z phi(u) du for the
    kernel phi, and int_0^inf C exp(-(u/zeta)^kappa) du = C zeta
    Gamma(1 + 1/kappa), so for every kappa the rate tends to a constant
    below sigma_a whenever alpha > 0: the mean does not return to Beer's
    law deep in the slab, and past the float range the rate is -inf.
    """
    tail = kernel.amplitude * kernel.correlation_length * math.gamma(
        1.0 + 1.0 / kernel.exponent
    )
    return medium.sigma_a - squared(medium.alpha, medium.sigma_a) * tail


def _sampler_line(stats: EnsembleStats, kernel: CorrelationKernel, grid: Grid) -> str:
    if stats.sampler_route == AR1_ROUTE:
        return (
            "sampler: AR(1) recursion at the output depths, exact OU bridge "
            "between them (kappa = 1), sampled share of the slab-integral "
            f"variance = {sampled_share(kernel, grid, stats.depths):.6g}"
        )
    if stats.sampler_route == PIVOTED_ROUTE:
        return (
            f"sampler: pivoted Cholesky, n = {grid.n_points}, rank = {stats.rank}, "
            f"left-out variance <= {stats.left_out:.3g}"
        )
    line = f"sampler: dense Cholesky, n = {grid.n_points}, jitter = {stats.jitter:.3g}"
    if grid.spacing > kernel.correlation_length:
        # The grid field's trapezoid integral then has a variance of its
        # own, not that of int G: the mean is the grid's, not the law's.
        line += (
            f"; grid step {grid.spacing:.6g} > zeta = "
            f"{kernel.correlation_length:.6g}, so the ensemble estimates the "
            "mean over the trapezoid integral of the grid field, not the "
            "continuum law"
        )
    return line


def _ensemble_lines(config: ExperimentConfig, depths, columns: dict) -> list:
    """Run the ensemble, fill its CSV columns and return its report lines."""
    medium, kernel, grid = config.medium, config.kernel, config.grid
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
    if math.isnan(stats.integral_skewness):
        moments = (
            "skewness and excess kurtosis not available "
            "(raw moments underflow or overflow)"
        )
    else:
        moments = (
            f"skewness = {stats.integral_skewness:.4f}, "
            f"excess kurtosis = {stats.integral_excess_kurtosis:.4f}"
        )
    return [
        f"ensemble: {stats.n_paths} paths, negative-coefficient fraction "
        f"Phi(-1/(alpha*sqrt C)) = {expected:.6g} (exact: G ~ N(0, C) at every node)",
        _sampler_line(stats, kernel, grid),
        f"slab integral of G: {moments}",
    ]


def run(config: ExperimentConfig) -> int:
    """Run the selected pipelines, write the CSV, print the report."""
    medium, kernel, grid = config.medium, config.kernel, config.grid
    _check_out(config.out)
    depths = default_depths(grid)
    beside = _euler_check_beside(config, depths)
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
    # Exact first: its boost is the larger, so it names the first depth.
    for convention in (ExponentConvention.EXACT, ExponentConvention.PAPER_HALF):
        if convention.value in config.modes:
            law = AveragedLaw(medium, kernel, convention)
            # Past the float range the run fails below, not with a warning.
            with np.errstate(over="ignore", invalid="ignore"):
                column = np.atleast_1d(averaged_intensity(law, depths))
            finite = np.isfinite(column)
            if not finite.all():
                raise ValueError(
                    f"the {convention.value} closed form's mean intensity is not "
                    f"finite at depth z = {depths[np.argmin(finite)]:g} cm: its "
                    "boost exp(gain*alpha^2*sigma_a^2*C*Y(z)) overflows"
                )
            columns[f"averaged_{convention.value}"] = column

    # Leaving the block joins the Euler check's thread, whatever raised.
    with ThreadPoolExecutor(max_workers=1) as pool:
        euler = pool.submit(_euler_check_lines, config) if beside else None
        if "mc" in config.modes:
            report.extend(_ensemble_lines(config, depths, columns))
        # Every pipeline ends before the CSV is written, so no failing run
        # leaves one; an error of the check's thread is raised here, as it
        # would be from the call.
        euler_lines = []
        if "euler-check" in config.modes:
            euler_lines = _euler_check_lines(config) if euler is None else euler.result()

    rows = _csv_rows(depths, columns)
    text = "\n".join([_config_echo(config), ",".join(COLUMNS), *rows]) + "\n"
    try:
        Path(config.out).write_text(text, encoding="utf-8")
    except OSError as err:
        raise UsageError(f"--out: {err.strerror}: {config.out}") from None

    report.extend(_adjudicate(rows))
    report.extend(euler_lines)
    report.append(f"wrote {config.out} ({len(rows)} rows)")
    print("\n".join(report))
    return 0


def main(argv=None) -> int:
    # The run's one warning capture.  It must be entered before any thread
    # starts and left after every thread has joined: filters and record
    # are the process's, so it then holds the warnings of run_ensemble's
    # workers and of the Euler check's thread too.  Only the package's own
    # category, ReliabilityWarning, is made "always"; every other filter
    # stays as found, so an "error" filter still raises out of main.
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ReliabilityWarning)
        try:
            code = run(parse_args(argv))
        except ValueError as err:
            print(f"slabatten: error: {err}", file=sys.stderr)
            return 1
    # Each distinct warning once, sorted: the same block at any --workers.
    for line in sorted({f"warning: {w.category.__name__}: {w.message}" for w in caught}):
        print(line)
    return code


def console_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_entry()
