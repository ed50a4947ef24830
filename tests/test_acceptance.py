"""Acceptance gate: one test per criterion, each printing a verdict line.

Verdict lines are written to the real stdout so they stay visible under
pytest's default capture.
"""

import math
import sys
import time
import warnings

import numpy as np

from slabatten import (
    AveragedLaw,
    CorrelationKernel,
    DivergentSeries,
    ExponentConvention,
    FieldPath,
    FieldSampler,
    Grid,
    MediumSpec,
    StochasticMedium,
    averaged_intensity,
    beer,
    lognormal_oracle,
    mfp_series,
    ordered_double_integral,
    outer_y,
    ode_residual,
    path_intensity,
    path_intensity_em,
    run_ensemble,
)
from slabatten.cli import COLUMNS, main

SWEEP_ZETAS = (0.1, 1.0, 5.0)
SWEEP_DEPTHS = np.linspace(0.0, 10.0, 64)


def _verdict(num: int, title: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion {num:02d}] {title}: {status}{suffix}", file=sys.__stdout__)


def _rel_gap(a: float, b: float) -> float:
    if a == b:
        return 0.0
    return abs(a - b) / max(abs(a), abs(b))


def _block(sampler, seed, chunk, count):
    """Ensemble block ``chunk`` of master seed ``seed``: its tiles' rows."""
    return np.concatenate(list(sampler.tiles(seed, chunk, count)))


def _csv_column(path, name):
    lines = path.read_text(encoding="utf-8").splitlines()
    rows = [line.split(",") for line in lines[2:]]
    j = COLUMNS.index(name)
    return np.array([float(r[j]) for r in rows])


def test_criterion_01_closed_form_self_consistency():
    start = time.perf_counter()
    worst = 0.0
    for zeta in SWEEP_ZETAS:
        kernel = CorrelationKernel(1.0, zeta, 2.0)
        for z in SWEEP_DEPTHS:
            quad = ordered_double_integral(kernel, float(z))
            closed = outer_y(zeta, float(z))
            worst = max(worst, _rel_gap(quad, closed))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-8 and elapsed < 5.0
    _verdict(1, "quadrature vs erf closed form <= 1e-8",
             ok, f"worst rel {worst:.2e}, {elapsed:.2f}s")
    assert worst <= 1e-8
    assert elapsed < 5.0


def test_criterion_02_beer_recovery_at_zero_alpha():
    medium = MediumSpec(sigma_a=1.0, alpha=0.0, i0=10.0)
    kernel = CorrelationKernel(1.0, 1.0, 2.0)
    depths = np.linspace(0.0, 5.0, 64)
    reference = beer(medium, depths)

    analytic_exact = all(
        np.array_equal(
            averaged_intensity(AveragedLaw(medium, kernel, conv), depths), reference
        )
        for conv in ExponentConvention
    )
    stats = run_ensemble(
        StochasticMedium(medium, kernel), Grid(5.0, 51), 500, master_seed=2
    )
    mc_exact = np.array_equal(stats.mean, beer(medium, stats.depths))
    sem_zero = bool(np.all(stats.sem == 0.0))
    ok = analytic_exact and mc_exact and sem_zero
    _verdict(2, "alpha=0 recovers Beer exactly (MC SEM=0)", ok)
    assert analytic_exact
    assert mc_exact
    assert sem_zero


def test_criterion_03_convention_adjudication():
    start = time.perf_counter()
    medium = MediumSpec(sigma_a=1.0, alpha=0.1, i0=10.0)
    kernel = CorrelationKernel(1.0, 1.0, 2.0)
    sm = StochasticMedium(medium, kernel)
    depths = [1.0, 2.0, 3.0]
    stats = run_ensemble(sm, Grid(3.0, 301), 100_000, master_seed=101, depths=depths)

    law_exact = AveragedLaw(medium, kernel, ExponentConvention.EXACT)
    law_half = AveragedLaw(medium, kernel, ExponentConvention.PAPER_HALF)
    z_exact = [
        abs(m - averaged_intensity(law_exact, d)) / s
        for d, m, s in zip(depths, stats.mean, stats.sem)
    ]
    z_half_deepest = (
        abs(stats.mean[-1] - averaged_intensity(law_half, 3.0)) / stats.sem[-1]
    )
    elapsed = time.perf_counter() - start
    ok = max(z_exact) <= 3.0 and z_half_deepest > 5.0 and elapsed < 60.0
    _verdict(
        3,
        "MC adjudicates EXACT over PAPER_HALF",
        ok,
        f"max z(EXACT) {max(z_exact):.2f}, z(PAPER_HALF at L) {z_half_deepest:.1f}, "
        f"{elapsed:.1f}s",
    )
    assert max(z_exact) <= 3.0
    assert z_half_deepest > 5.0
    assert elapsed < 60.0


def test_criterion_04_lognormal_identity_triangle():
    worst = 0.0
    for zeta in SWEEP_ZETAS:
        medium = MediumSpec(sigma_a=1.0, alpha=0.8, i0=10.0)
        kernel = CorrelationKernel(1.0, zeta, 2.0)
        sm = StochasticMedium(medium, kernel)
        law = AveragedLaw(medium, kernel, ExponentConvention.EXACT)
        for z in SWEEP_DEPTHS:
            worst = max(
                worst,
                _rel_gap(lognormal_oracle(sm, float(z)),
                         float(averaged_intensity(law, float(z)))),
            )
    ok = worst <= 1e-8
    _verdict(4, "lognormal oracle vs EXACT closed form <= 1e-8",
             ok, f"worst rel {worst:.2e}")
    assert worst <= 1e-8


def test_criterion_05_figure_setup_reproduction(tmp_path):
    boosted = True
    for alpha in (0.8, 0.5):
        out = tmp_path / f"fig_{alpha}.csv"
        code = main(["--alpha", str(alpha), "--modes", "beer,paper",
                     "--out", str(out)])
        assert code == 0
        z = _csv_column(out, "z")
        beer_col = _csv_column(out, "beer")
        paper_col = _csv_column(out, "averaged_paper")
        interior = z > 0
        boosted = boosted and bool(np.all(paper_col[interior] > beer_col[interior]))

    out = tmp_path / "fig_tiny.csv"
    assert main(["--alpha", "0.001", "--modes", "beer,paper", "--out", str(out)]) == 0
    beer_col = _csv_column(out, "beer")
    paper_col = _csv_column(out, "averaged_paper")
    max_gap = float(np.max(np.abs(paper_col - beer_col) / beer_col))
    ok = boosted and max_gap < 1e-5
    _verdict(5, "reference curves: boosted above Beer, converging as alpha->0",
             ok, f"max rel gap at alpha=1e-3: {max_gap:.2e}")
    assert boosted
    assert max_gap < 1e-5


def test_criterion_06_sampler_statistics():
    start = time.perf_counter()
    kernel = CorrelationKernel(1.0, 1.0, 2.0)
    grid = Grid(5.0, 101)  # h = 0.05
    sampler = FieldSampler(kernel, grid)
    n = 100_000
    sq_sum = np.zeros(grid.n_points)
    t_sums = np.zeros(4)
    for chunk, begin in enumerate(range(0, n, 8192)):
        count = min(8192, n - begin)
        block = _block(sampler, 60, chunk, count)
        sq_sum += (block**2).sum(axis=0)
        segs = 0.5 * grid.spacing * (block[:, 1:] + block[:, :-1])
        t = segs.sum(axis=1)
        t_sums += [t.sum(), (t**2).sum(), (t**3).sum(), (t**4).sum()]

    variance = sq_sum / n
    var_dev = float(np.max(np.abs(variance - 1.0)))
    var_ok = var_dev < 3.0 * math.sqrt(2.0 / n)

    m1 = t_sums[0] / n
    m2 = t_sums[1] / n - m1**2
    m3 = t_sums[2] / n - 3 * m1 * t_sums[1] / n + 2 * m1**3
    m4 = (t_sums[3] / n - 4 * m1 * t_sums[2] / n
          + 6 * m1**2 * t_sums[1] / n - 3 * m1**4)
    skew = m3 / m2**1.5
    exkurt = m4 / m2**2 - 3.0
    sem = math.sqrt(m2 / n)
    mean_ok = abs(m1) < 3.0 * sem
    skew_ok = abs(skew) < 0.05
    kurt_ok = abs(exkurt) < 0.1
    elapsed = time.perf_counter() - start
    ok = var_ok and mean_ok and skew_ok and kurt_ok and elapsed < 120.0
    _verdict(
        6,
        "sampler moments Gaussian at 1e5 paths",
        ok,
        f"max var dev {var_dev:.4f}, skew {skew:.4f}, exkurt {exkurt:.4f}, "
        f"mean/sem {abs(m1) / sem:.2f}, {elapsed:.1f}s",
    )
    assert var_ok
    assert mean_ok
    assert skew_ok
    assert kurt_ok
    assert elapsed < 120.0


def test_criterion_07_ode_form_check():
    medium = MediumSpec(sigma_a=1.0, alpha=0.5, i0=10.0)
    kernel = CorrelationKernel(1.0, 1.0, 2.0)
    worst = 0.0
    for convention in ExponentConvention:
        law = AveragedLaw(medium, kernel, convention)
        for z in np.linspace(0.5, 5.0, 10):
            worst = max(worst, ode_residual(law, float(z), 1e-4))
    law = AveragedLaw(medium, kernel, ExponentConvention.EXACT)
    ratio = ode_residual(law, 2.0, 4e-3) / ode_residual(law, 2.0, 2e-3)
    ok = worst < 1e-6 and 3.0 < ratio < 5.0
    _verdict(7, "closed form satisfies its ODE to O(h^2)",
             ok, f"worst residual {worst:.2e}, halving ratio {ratio:.2f}")
    assert worst < 1e-6
    assert 3.0 < ratio < 5.0


def test_criterion_08_mfp_series_oracle():
    def direct(alpha, amplitude, q_max):
        total = 0.0
        for q in range(1, q_max + 1):
            bracket = 0.5 * (amplitude ** (q / 2) + (-1) ** q * amplitude ** (q / 2))
            total += (-1) ** q * abs(alpha * bracket ** (1.0 / q)) ** q
        return total

    worst = 0.0
    for alpha in (0.05, 0.1, 0.2):
        for amplitude in (0.5, 1.0, 2.0):
            sm = StochasticMedium(
                MediumSpec(sigma_a=1.0, alpha=alpha),
                CorrelationKernel(amplitude, 1.0, 2.0),
            )
            got = mfp_series(sm).shift
            want = direct(alpha, amplitude, 20)
            worst = max(worst, _rel_gap(got, want))

    raised = 0
    for alpha, amplitude in ((1.5, 1.0), (1.0, 1.0), (0.9, 1.3)):
        with warnings.catch_warnings():
            # alpha >= 1 also trips the fluctuation-magnitude warning,
            # which is not under test here
            warnings.simplefilter("ignore")
            sm = StochasticMedium(
                MediumSpec(sigma_a=1.0, alpha=alpha),
                CorrelationKernel(amplitude, 1.0, 2.0),
            )
        try:
            mfp_series(sm)
        except DivergentSeries:
            raised += 1
    ok = worst <= 1e-14 and raised == 3
    _verdict(8, "MFP series matches direct sum to 14 digits; divergence raised",
             ok, f"worst rel {worst:.1e}, {raised}/3 divergent raised")
    assert worst <= 1e-14
    assert raised == 3


def test_criterion_09_euler_cross_check_order():
    medium = MediumSpec(sigma_a=1.0, alpha=0.3, i0=10.0)
    kernel = CorrelationKernel(1.0, 1.0, 2.0)
    fine_grid = Grid(3.0, 401)
    sampler = FieldSampler(kernel, fine_grid)
    block = FieldPath.from_values(fine_grid, _block(sampler, 17, 0, 100))

    mean_errors = []
    for stride in (8, 4, 2, 1):
        paths = block.restrict(stride)
        errs = np.abs(path_intensity_em(medium, paths, 3.0)
                      - path_intensity(medium, paths, 3.0))
        mean_errors.append(float(np.mean(errs)))
    ratios = [a / b for a, b in zip(mean_errors, mean_errors[1:])]
    ok = all(1.7 < r < 2.3 for r in ratios)
    _verdict(9, "Euler error decays at order h on 100 fixed paths",
             ok, "halving ratios " + ", ".join(f"{r:.2f}" for r in ratios))
    assert ok, f"ratios {ratios}"


def test_criterion_10_byte_identical_csv(tmp_path):
    args = ["--alpha", "0.2", "--length", "3", "--grid-points", "31",
            "--paths", "9000", "--seed", "424242"]  # three 4096-path chunks
    outputs = []
    for tag, workers in (("a", 1), ("b", 1), ("c", 4)):
        out = tmp_path / f"run_{tag}.csv"
        assert main(args + ["--workers", str(workers), "--out", str(out)]) == 0
        outputs.append(out.read_bytes())
    ok = outputs[0] == outputs[1] == outputs[2]
    _verdict(10, "byte-identical CSV across reruns and worker counts", ok)
    assert ok
