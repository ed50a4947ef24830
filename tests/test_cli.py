"""Experiment runner: flags, CSV contract, report, exit codes."""

import math
import os
import subprocess
import sys
import traceback
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import slabatten
from slabatten import (
    CorrelationKernel,
    MediumSpec,
    ReliabilityWarning,
    cli,
    grf,
    montecarlo,
)
from slabatten.cli import (
    COLUMNS,
    UsageError,
    _DEFAULTS,
    _decay_rate_limit,
    _euler_check_beside,
    _euler_check_bytes,
    _negative_fraction_expectation,
    main,
    parse_args,
)
from slabatten.montecarlo import default_depths, ensemble_bytes


def _read_csv(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0].startswith("# slabatten")
    assert lines[1] == ",".join(COLUMNS)
    rows = [line.split(",") for line in lines[2:]]
    return lines[0], rows


def _column(rows, name):
    j = COLUMNS.index(name)
    cells = [r[j] for r in rows]
    if all(c == "" for c in cells):
        return None
    return np.array([float(c) for c in cells])


class TestParseArgs:
    def test_defaults_reproduce_the_reference_setup(self):
        config = parse_args([])
        assert config.medium.i0 == 10.0
        assert config.medium.sigma_a == 1.0
        assert config.medium.alpha == 0.8
        assert config.kernel.amplitude == 1.0
        assert config.kernel.correlation_length == 1.0
        assert config.kernel.exponent == 2.0
        assert config.grid.length == 5.0
        assert config.grid.spacing <= 0.1
        assert config.n_paths == _DEFAULTS["paths"]
        assert config.master_seed == _DEFAULTS["seed"]
        assert config.modes == ("beer", "paper", "exact", "mc")
        assert config.out == _DEFAULTS["out"]

    @pytest.mark.parametrize(
        "argv,flag",
        [
            (["--alpha", "-0.1"], "--alpha"),
            (["--sigma-a", "-1"], "--sigma-a"),
            (["--zeta", "0"], "--zeta"),
            (["--amplitude", "-2"], "--amplitude"),
            (["--kappa", "0.5"], "--kappa"),
            (["--kappa", "2.5"], "--kappa"),
            (["--kappa", "3", "--modes", "beer"], "--kappa"),
            (["--length", "0"], "--length"),
            (["--grid-points", "1"], "--grid-points"),
            (["--paths", "1"], "--paths"),
            (["--i0", "0"], "--i0"),
            (["--modes", "beer,warp"], "--modes"),
            (["--modes", ""], "--modes"),
            (["--workers", "0"], "--workers"),
        ],
    )
    def test_bad_values_name_the_flag(self, argv, flag):
        with pytest.raises(UsageError, match=flag.replace("-", "\\-")):
            parse_args(argv)

    @pytest.mark.parametrize(
        "flag", ["--sigma-a", "--alpha", "--i0", "--zeta", "--amplitude", "--kappa",
                 "--length"],
    )
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_float_flags_name_the_flag(self, flag, value):
        with pytest.raises(UsageError, match=flag.replace("-", "\\-") + ": must be finite"):
            parse_args([flag, value])

    def test_unknown_flag_is_a_usage_error(self):
        with pytest.raises(UsageError):
            parse_args(["--warp-factor", "9"])

    def test_explicit_grid_override(self):
        config = parse_args(["--grid-points", "7", "--length", "3"])
        assert config.grid.n_points == 7
        assert config.grid.length == 3.0


class TestMainExitCodes:
    def test_usage_error_exits_1(self, capsys):
        assert main(["--alpha", "-0.1"]) == 1
        assert "--alpha" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv,needle",
        [
            (["--sigma-s", "1"], "--sigma-s"),
            (["--alpha", "nan", "--modes", "beer,exact"], "--alpha"),
            (["--zeta", "inf"], "--zeta"),
            (["--length", "nan"], "--length"),
            (["--amplitude", "nan"], "--amplitude"),
            (["--kappa", "nan"], "--kappa"),
            # no field has a kernel with kappa > 2
            (["--kappa", "2.5", "--modes", "mc"], "--kappa: must lie in [1, 2]"),
            (["--kappa", "3", "--modes", "beer"], "--kappa: must lie in [1, 2]"),
            (["--grid-points", "10000000000", "--modes", "beer"], "budget"),
            (["--zeta", "1e-9", "--modes", "beer"], "budget"),
            (["--zeta", "1e-300"], "budget"),
            (["--zeta", "1e-320", "--modes", "beer"], "budget"),
            # Negative values argparse alone would read as options
            # ("expected one argument") reach the range checks.
            (["--alpha", "-1e-3"], "--alpha: must be >= 0"),
            (["--sigma-a", "-inf"], "--sigma-a: must be finite"),
            (["--zeta", "-1e-3"], "--zeta: must be > 0"),
            (["--alp", "-1e-3"], "--alpha: must be >= 0"),
            # a flag in the value's place is not joined as a value
            (["--alpha", "--modes", "beer"], "argument --alpha: expected one argument"),
            # numpy's SeedSequence would reject it without naming the flag,
            # and a run without a sampler would not notice it at all
            (["--seed", "-1", "--modes", "beer"], "--seed: must be >= 0"),
            # mirrored pairs, and two of them for a sample variance
            (["--paths", "2"], "--paths: must be even and >= 4"),
            (["--paths", "3"], "--paths: must be even and >= 4"),
            (["--paths", "5"], "--paths: must be even and >= 4"),
            # zeta**kappa overflows inside the kernel
            (["--zeta", "1e300"], "overflows"),
            # an --out the CSV cannot be written to; the last --out wins
            (["--modes", "beer", "--out", "/nonexistent/dir/x.csv"],
             "--out: No such file or directory: /nonexistent/dir/x.csv"),
            (["--modes", "beer,mc", "--paths", "10", "--out", "."],
             "--out: Is a directory: ."),
        ],
    )
    def test_bad_numbers_exit_1_without_a_traceback(self, tmp_path, capsys, argv, needle):
        out = tmp_path / "x.csv"
        assert main(["--out", str(out)] + argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("slabatten: error:")
        assert needle in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_closed_form_with_wrong_kernel_exits_1(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        code = main(["--kappa", "1", "--modes", "paper", "--out", str(out)])
        assert code == 1
        assert "kappa" in capsys.readouterr().err

    def test_large_alpha_is_quiet_and_exits_0(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        code = main(["--alpha", "1.5", "--modes", "beer", "--out", str(out)])
        assert code == 0
        assert out.exists()
        report = capsys.readouterr().out.splitlines()
        assert report[-1].startswith(f"wrote {out} (")
        assert [line for line in report if line.startswith("warning:")] == []

    def test_mean_that_does_not_decay_is_reported_and_exits_0(self, tmp_path, capsys):
        # sigma_inf = 1 - 0.64 * 3 * sqrt(pi)/2 < 0
        out = tmp_path / "x.csv"
        code = main(["--zeta", "3", "--modes", "beer,exact", "--out", str(out)])
        assert code == 0
        report = capsys.readouterr().out
        assert "sigma_inf = -0.701556 /cm" in report
        assert "the mean intensity does not decay with depth" in report

    def test_rate_exactly_zero_is_reported_as_not_decaying(self, tmp_path, capsys):
        # sigma_inf = 2 - 0.25 * 4 * 1 * 2 * Gamma(2) = 0
        out = tmp_path / "x.csv"
        code = main([
            "--sigma-a", "2", "--alpha", "0.5", "--amplitude", "1", "--zeta", "2",
            "--kappa", "1", "--modes", "beer", "--out", str(out),
        ])
        assert code == 0
        report = capsys.readouterr().out
        assert (
            "sigma_inf = 0 /cm (Beer: sigma_a = 2 /cm); "
            "the mean intensity does not decay with depth\n"
        ) in report

    def test_rate_is_reported_without_closed_form_modes(self, tmp_path, capsys):
        # kappa 1.5 has no closed form; the rate needs none
        out = tmp_path / "x.csv"
        code = main(["--kappa", "1.5", "--modes", "beer", "--out", str(out)])
        assert code == 0
        rate = 1.0 - 0.64 * math.gamma(1.0 + 1.0 / 1.5)
        assert f"sigma_inf = {rate:.6g} /cm (Beer: sigma_a = 1 /cm)\n" in capsys.readouterr().out
        assert "sigma_inf" not in out.read_text(encoding="utf-8")

    @pytest.mark.parametrize(
        "kernel_flags,length,n,sampler_line",
        [
            (
                ["--kappa", "1.5", "--amplitude", "2.5"], "1", 11,
                "sampler: pivoted Cholesky, n = 11, rank = 11, left-out variance <= 2.5e-12",
            ),
            (
                ["--kappa", "1.2", "--zeta", "0.3", "--amplitude", "0.7"], "4", 41,
                "sampler: pivoted Cholesky, n = 41, rank = 41, left-out variance <= 7e-13",
            ),
            (
                ["--kappa", "2", "--amplitude", "2.5"], "10", 41,
                "sampler: pivoted Cholesky, n = 41, rank = 39, left-out variance <= 2.5e-12",
            ),
        ],
        ids=["kappa1.5", "kappa1.2", "kappa2-coarse-grid"],
    )
    def test_a_lapack_failure_is_reported_as_the_pivoted_factor(
        self, tmp_path, capsys, monkeypatch, kernel_flags, length, n, sampler_line
    ):
        # No accepted kernel fails at the jitter on these grids, so the one
        # LAPACK factorization is made to fail; the pivoted factor takes over.
        calls = []

        def failing(matrix):
            calls.append(None)
            raise np.linalg.LinAlgError("not positive definite")

        monkeypatch.setattr(np.linalg, "cholesky", failing)
        out = tmp_path / "x.csv"
        code = main([
            "--alpha", "0.2", *kernel_flags, "--modes", "mc", "--paths", "10",
            "--grid-points", str(n), "--length", length, "--out", str(out),
        ])
        captured = capsys.readouterr()
        assert (code, captured.err, len(calls)) == (0, "", 1)
        rows = out.read_text(encoding="utf-8").splitlines()
        assert len([row for row in rows if not row.startswith(("#", "z"))]) == n
        lines = [line for line in captured.out.splitlines() if line.startswith("sampler:")]
        assert lines == [sampler_line]

    def test_grid_beyond_the_memory_budget_exits_1(self, tmp_path, capsys, monkeypatch):
        def build(kernel, grid):
            raise AssertionError("covariance built")

        monkeypatch.setattr(grf, "covariance_matrix", build)
        out = tmp_path / "x.csv"
        code = main([
            "--zeta", "0.01", "--length", "10", "--modes", "mc", "--paths", "10",
            "--out", str(out),
        ])
        assert code == 1
        assert "10001 points" in capsys.readouterr().err

    def test_dense_ensemble_past_the_budget_exits_1_before_factoring(
        self, tmp_path, capsys, monkeypatch
    ):
        # The factor alone fits; with ten workers' buffers it does not, and
        # the run says so before the 9400-point factor is built.
        def build(*args):
            raise AssertionError("factor built")

        monkeypatch.setattr(grf, "covariance_matrix", build)
        monkeypatch.setattr(grf, "_pivoted_cholesky", build)
        out = tmp_path / "x.csv"
        code = main([
            "--grid-points", "9400", "--paths", "40960", "--modes", "mc",
            "--workers", "10", "--out", str(out),
        ])
        assert code == 1
        assert "10 worker(s)' tiles on 9400 points" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_euler_check_past_the_budget_exits_1_before_any_pipeline(
        self, tmp_path, capsys, monkeypatch, workers
    ):
        def refuse(*args, **kwargs):
            raise AssertionError("ensemble ran")

        monkeypatch.setattr(cli, "run_ensemble", refuse)
        out = tmp_path / "x.csv"
        out.write_text("kept\n", encoding="utf-8")
        missing = tmp_path / "y.csv"
        # the dense route's factor on 11 997 refined points, and AR(1)
        # tiles of 50 rows (the 64-row floor, balanced) on 2 800 001
        for flags, needs in [
            (["--kappa", "1.5", "--zeta", "0.5", "--grid-points", "3000"], ""),
            (["--kappa", "1", "--zeta", "0.01", "--length", "10",
              "--grid-points", "700001"], "needs about 2.19 GiB"),
        ]:
            for path in (out, missing):
                code = main([
                    *flags, "--modes", "beer,mc,euler-check", "--paths", "2000",
                    "--workers", workers, "--out", str(path),
                ])
                assert code == 1
                err = capsys.readouterr().err
                assert "the Euler check on its refined grid" in err and needs in err
        # the probe of --out neither truncates a file nor leaves one behind
        assert out.read_text(encoding="utf-8") == "kept\n"
        assert not missing.exists()

    def test_unwritable_out_exits_1_before_the_ensemble(self, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("ensemble ran")

        monkeypatch.setattr(cli, "run_ensemble", refuse)
        assert main(["--modes", "beer,mc", "--out", "."]) == 1
        assert capsys.readouterr().err == "slabatten: error: --out: Is a directory: .\n"

    def test_dangling_link_out_keeps_its_link(self, tmp_path, capsys):
        # The probe leaves a link, FIFO or device to the write: a failed run
        # neither creates the link's target nor removes the link, and a run
        # writes the CSV through it.
        out, target = tmp_path / "x.csv", tmp_path / "target.csv"
        out.symlink_to(target)
        euler = ["--kappa", "1.5", "--zeta", "0.5", "--modes", "beer,euler-check"]
        assert main([*euler, "--grid-points", "3000", "--out", str(out)]) == 1
        assert out.is_symlink() and not target.exists()
        assert main(["--grid-points", "21", "--paths", "50", "--out", str(out)]) == 0
        assert out.is_symlink()
        assert len(_read_csv(target)[1]) == 21

    def test_link_into_a_missing_directory_exits_1_at_the_write(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        out.symlink_to(tmp_path / "missing" / "x.csv")
        assert main(["--modes", "beer", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == f"slabatten: error: --out: No such file or directory: {out}\n"
        assert out.is_symlink()

    def test_all_sem_zero_skips_the_adjudication(self, tmp_path, capsys):
        # Without fluctuations every path gives Beer's law: the SEM is 0.
        code = main([
            "--alpha", "0", "--modes", "exact,mc", "--paths", "50",
            "--grid-points", "21", "--out", str(tmp_path / "x.csv"),
        ])
        assert code == 0
        report = capsys.readouterr().out.splitlines()
        assert "adjudication: skipped (no analytic curve or all SEM zero)" in report

    def test_colored_noise_on_the_same_grid_needs_no_covariance(
        self, tmp_path, capsys, monkeypatch
    ):
        def build(kernel, grid):
            raise AssertionError("covariance built")

        monkeypatch.setattr(grf, "covariance_matrix", build)
        out = tmp_path / "x.csv"
        code = main([
            "--kappa", "1", "--zeta", "0.01", "--length", "10",
            "--modes", "mc,euler-check", "--paths", "10", "--out", str(out),
        ])
        assert code == 0
        report = capsys.readouterr().out
        assert "grid_points=10001" in report
        assert "euler check" in report

    @pytest.mark.parametrize("kappa", ["1", "1.5", "2"])
    def test_correlation_length_whose_power_underflows_runs(self, tmp_path, kappa):
        # zeta ** kappa underflows to 0; the kernel scales the lag first, so
        # the field is white noise on these nodes instead of NaN
        out = tmp_path / "x.csv"
        code = main([
            "--kappa", kappa, "--zeta", "1e-170", "--grid-points", "11",
            "--modes", "beer,mc", "--paths", "200", "--out", str(out),
        ])
        assert code == 0
        _, rows = _read_csv(out)
        cells = [float(cell) for row in rows for cell in row if cell]
        assert len(cells) == 11 * 4 and all(math.isfinite(c) for c in cells)

    def test_colored_noise_sampling_without_closed_forms_is_fine(self, tmp_path):
        out = tmp_path / "x.csv"
        code = main([
            "--kappa", "1", "--modes", "beer,mc", "--paths", "50",
            "--grid-points", "21", "--length", "2", "--alpha", "0.2",
            "--out", str(out),
        ])
        assert code == 0


class TestNegativeFractionExpectation:
    @pytest.mark.parametrize("alpha", [0.1, 0.8, 3.0])
    @pytest.mark.parametrize("amplitude", [0.25, 1.0, 2.5])
    def test_matches_scipy_ndtr(self, alpha, amplitude):
        from scipy.special import ndtr

        expected = ndtr(-1.0 / (alpha * math.sqrt(amplitude)))
        got = _negative_fraction_expectation(1.0, alpha, amplitude)
        assert abs(got - expected) <= 1e-15
        # Far in the tail (x = 1/(alpha sqrt C) up to 20) one ulp of the
        # argument moves Phi(-x) by about x^2 ulp relative, in either form;
        # against 40-digit mpmath both are within 7e-14 at x = 20.
        assert got == pytest.approx(expected, rel=1e-12, abs=0.0)

    def test_zero_without_fluctuations(self):
        assert _negative_fraction_expectation(1.0, 0.0, 1.0) == 0.0

    def test_zero_without_absorption(self):
        # sigma_a (1 + alpha G) is identically 0 at sigma_a = 0
        assert _negative_fraction_expectation(0.0, 0.8, 1.0) == 0.0


class TestDecayRateLimit:
    def test_exponential_kernel(self):
        # Gamma(2) = 1: the kernel integrates to C zeta
        medium = MediumSpec(sigma_a=2.0, alpha=0.3)
        kernel = CorrelationKernel(1.5, 0.7, 1.0)
        expected = 2.0 - 0.09 * 4.0 * 1.5 * 0.7
        assert _decay_rate_limit(medium, kernel) == pytest.approx(expected, rel=1e-15)

    def test_squared_exponential_kernel(self):
        # the slope TestAsymptotics reads off the closed form
        medium = MediumSpec(sigma_a=1.0, alpha=0.5)
        kernel = CorrelationKernel(1.0, 2.0, 2.0)
        expected = 1.0 - 0.25 * (math.sqrt(math.pi) / 2.0) * 2.0
        assert _decay_rate_limit(medium, kernel) == pytest.approx(expected, rel=1e-15)

    def test_beer_rate_without_fluctuations(self):
        medium = MediumSpec(sigma_a=1.3, alpha=0.0)
        assert _decay_rate_limit(medium, CorrelationKernel(1.0, 1.0, 1.5)) == 1.3

    @pytest.mark.parametrize("kappa", [1.0, 1.25, 1.5, 1.75, 2.0])
    def test_matches_the_quadrature_of_the_kernel(self, kappa):
        from scipy.integrate import quad

        medium = MediumSpec(sigma_a=1.2, alpha=0.4)
        kernel = CorrelationKernel(0.8, 0.6, kappa)
        tail, _ = quad(lambda u: kernel.evaluate(0.0, u), 0.0, math.inf, epsabs=0.0, epsrel=1e-13)
        expected = 1.2 - 0.16 * 1.44 * tail
        assert _decay_rate_limit(medium, kernel) == pytest.approx(expected, rel=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(
        sigma_a=st.floats(min_value=0.0, max_value=10.0),
        alpha=st.floats(min_value=0.0, max_value=0.99),
        amplitude=st.floats(min_value=0.01, max_value=10.0),
        zeta=st.floats(min_value=0.01, max_value=10.0),
        kappa=st.floats(min_value=1.0, max_value=2.0),
    )
    def test_between_the_exponential_and_gaussian_kernel_rates(
        self, sigma_a, alpha, amplitude, zeta, kappa
    ):
        # Gamma(1 + 1/kappa) falls from 1 at kappa 1 to sqrt(pi)/2 at kappa 2
        rate = _decay_rate_limit(
            MediumSpec(sigma_a=sigma_a, alpha=alpha),
            CorrelationKernel(amplitude, zeta, kappa),
        )
        drop = alpha**2 * sigma_a**2 * amplitude * zeta
        slack = 1e-12 * (sigma_a + drop)
        assert rate <= sigma_a
        assert sigma_a - drop - slack <= rate
        assert rate <= sigma_a - drop * math.sqrt(math.pi) / 2.0 + slack


class TestCsvContract:
    def test_analytic_modes_only(self, tmp_path):
        out = tmp_path / "curves.csv"
        code = main([
            "--modes", "beer,paper,exact", "--length", "4",
            "--grid-points", "41", "--out", str(out),
        ])
        assert code == 0
        _, rows = _read_csv(out)
        z = _column(rows, "z")
        assert np.all(np.diff(z) > 0)
        for name in ("beer", "averaged_paper", "averaged_exact"):
            col = _column(rows, name)
            assert col is not None and np.all(col > 0)
        assert _column(rows, "mc_mean") is None
        assert _column(rows, "mc_sem") is None

    def test_formatted_with_nine_significant_digits(self, tmp_path):
        out = tmp_path / "curves.csv"
        main(["--modes", "beer", "--grid-points", "11", "--length", "1",
              "--out", str(out)])
        _, rows = _read_csv(out)
        beer_cells = [r[COLUMNS.index("beer")] for r in rows]
        value = float(beer_cells[-1])
        assert beer_cells[-1] == f"{value:.9g}"
        assert value == pytest.approx(10.0 * math.exp(-1.0), rel=1e-8)

    def test_no_fluctuations_collapses_the_analytic_columns(self, tmp_path):
        out = tmp_path / "curves.csv"
        main(["--alpha", "0", "--modes", "beer,paper,exact", "--out", str(out)])
        _, rows = _read_csv(out)
        for r in rows:
            assert r[COLUMNS.index("beer")] == r[COLUMNS.index("averaged_paper")]
            assert r[COLUMNS.index("beer")] == r[COLUMNS.index("averaged_exact")]

    def test_mc_columns_and_report(self, tmp_path, capsys):
        out = tmp_path / "curves.csv"
        code = main([
            "--alpha", "0.1", "--paths", "400", "--grid-points", "21",
            "--length", "2", "--seed", "7", "--out", str(out),
        ])
        assert code == 0
        report = capsys.readouterr().out
        _, rows = _read_csv(out)
        sem = _column(rows, "mc_sem")
        assert np.all(sem >= 0)
        assert np.all(_column(rows, "mc_mean") > 0)
        assert "adjudication" in report
        assert "negative-coefficient fraction" in report
        rate = 1.0 - 0.01 * math.sqrt(math.pi) / 2.0
        assert (
            f"decay rate of the mean for z >> zeta: sigma_inf = {rate:.6g} /cm "
            "(Beer: sigma_a = 1 /cm)\n"
        ) in report
        assert "free path" not in report
        assert "skewness" in report

    def test_reliability_warning_goes_to_the_report(self, tmp_path, capsys):
        out = tmp_path / "curves.csv"
        with warnings.catch_warnings(record=True) as leaked:
            warnings.simplefilter("always")
            code = main(["--paths", "200", "--out", str(out)])
        assert code == 0
        assert not [w for w in leaked if w.category is ReliabilityWarning]
        captured = capsys.readouterr()
        assert "warning: ReliabilityWarning: exponent std 2.24 > 1.5" in captured.out
        assert "ReliabilityWarning" not in captured.err
        echo, _ = _read_csv(out)
        assert "chunk=4096" in echo.split()
        # the slab is purely absorbing; the token keeps the echo line stable
        assert "sigma_s=0" in echo.split()

    @pytest.mark.parametrize(
        "kappa,zeta,line",
        [
            (
                "1",
                "1",
                # 1 - 20 * 2 (0.1 - 2 tanh(0.05)) / (2 (2 + expm1(-2)))
                "sampler: AR(1) recursion at the output depths, exact OU bridge "
                "between them (kappa = 1), sampled share of the slab-integral "
                "variance = 0.998533",
            ),
            (
                "2",
                "1",
                "sampler: pivoted Cholesky, n = 21, rank = 13, "
                "left-out variance <= 1e-12",
            ),
            (
                "2",
                "1e-170",
                # a grid step past zeta gives the trapezoid its own variance
                "sampler: dense Cholesky, n = 21, jitter = 1e-12; grid step 0.1 "
                "> zeta = 1e-170, so the ensemble estimates the mean over the "
                "trapezoid integral of the grid field, not the continuum law",
            ),
        ],
        ids=["kappa1", "kappa2", "kappa2-coarse-grid"],
    )
    def test_report_names_the_sampling_route(self, tmp_path, capsys, kappa, zeta, line):
        out = tmp_path / "curves.csv"
        code = main([
            "--kappa", kappa, "--zeta", zeta, "--alpha", "0.2", "--modes", "mc",
            "--paths", "50", "--grid-points", "21", "--length", "2", "--out", str(out),
        ])
        assert code == 0
        report = capsys.readouterr().out.splitlines()
        assert [r for r in report if r.startswith("sampler:")] == [line]
        assert "sampler" not in out.read_text(encoding="utf-8")

    @pytest.mark.parametrize(
        "flags,expected",
        [
            (["--alpha", "0.8"], "0.10565"),
            (["--alpha", "0"], "0"),
            # no absorption, so no negative coefficient, whatever G does
            (["--sigma-a", "0"], "0"),
            # alpha sqrt C = 0.01: alpha >= 1 alone makes no coefficient negative
            (["--alpha", "1", "--amplitude", "1e-4"], "0"),
            # alpha sqrt C = 2: a small alpha with a large C makes 31 % negative
            (["--alpha", "0.5", "--amplitude", "16"], "0.308538"),
        ],
    )
    def test_negative_fraction_shown_with_its_exact_expectation(
        self, tmp_path, capsys, flags, expected
    ):
        out = tmp_path / "curves.csv"
        with warnings.catch_warnings():
            # alpha = 0 must give the exact 0 without a division by zero
            warnings.simplefilter("error", RuntimeWarning)
            code = main(flags + [
                "--modes", "mc", "--paths", "50",
                "--grid-points", "21", "--length", "2", "--out", str(out),
            ])
        assert code == 0
        report = capsys.readouterr().out.splitlines()
        assert [line for line in report if line.startswith("ensemble:")] == [
            "ensemble: 50 paths, negative-coefficient fraction "
            f"Phi(-1/(alpha*sqrt C)) = {expected} (exact: G ~ N(0, C) at every node)"
        ]
        assert "E<1/|A|>" not in "\n".join(report)
        assert "warning: RuntimeWarning" not in "\n".join(report)
        # no warning keyed on alpha: only the heavy-tail check may speak
        categories = {line.split(": ")[1] for line in report if line.startswith("warning:")}
        assert categories <= {"ReliabilityWarning"}

    @pytest.mark.parametrize(
        "flags,share",
        [
            # the parent's own configurations
            (["--zeta", "0.05"], "0.987089"),
            (["--zeta", "0.5", "--grid-points", "11"], "0.915816"),
            # 2.5e20-zeta steps: 1 - V(L)/Var cancels to -2.2e-16, where the
            # share is (2 (2 tanh(1.25e20)) - 1) / 5e20
            (["--zeta", "1e-20", "--length", "5", "--grid-points", "3"], "6e-21"),
            # L/zeta = 1e600 is inf: every tanh is 1, the share 0
            (["--zeta", "1e-300", "--length", "1e300", "--grid-points", "3"], "0"),
            # L/zeta = 5e-13 in 100 steps: the share is 1 - 1e-17, which the
            # tanh form would round to 0.998384
            (["--zeta", "1e13", "--grid-points", "101"], "1"),
            # C L^2 underflows, and with it Var int_0^L G: the share, 1 - x/6
            # for x = L/zeta, is 1 (x is 1e-310 at zeta 1e10)
            (["--length", "1e-300"], "1"),
            (["--length", "1e-300", "--zeta", "1e10"], "1"),
            (["--amplitude", "1e-300", "--length", "1e-20"], "1"),
        ],
        ids=["zeta0.05", "zeta0.5-coarse", "zeta1e-20", "past-the-float-range", "zeta1e13",
             "thin", "thin-subnormal-x", "faint"],
    )
    def test_sampled_share_of_the_slab_variance(self, tmp_path, capsys, flags, share):
        out = tmp_path / "curves.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = main(["--kappa", "1", *flags, "--modes", "beer,mc", "--paths", "10",
                         "--out", str(out)])
        assert code == 0
        report = capsys.readouterr().out.splitlines()
        assert [line for line in report if line.startswith("sampler:")] == [
            "sampler: AR(1) recursion at the output depths, exact OU bridge "
            "between them (kappa = 1), sampled share of the slab-integral "
            f"variance = {share}"
        ]
        _, cells = _read_csv(out)
        assert all(math.isfinite(float(cell)) for row in cells for cell in row if cell)

    def test_euler_check_holds_tiles_not_its_whole_block(self, tmp_path):
        # 100 paths on the 4001-point refined grid (1001 points at zeta
        # 0.05) are 3.2 MB as one block; the Euler check streams them in
        # 512 KiB row tiles (a slab 100 zeta thick takes no 64-row floor),
        # reads the coarser grids as views, builds its Euler step factors
        # in one buffer and keeps only per-path errors.
        out = tmp_path / "curves.csv"
        tracemalloc.start()
        try:
            code = main([
                "--kappa", "1", "--zeta", "0.05", "--modes", "euler-check",
                "--out", str(out),
            ])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < 4 * grf._TILE_BYTES

    @pytest.mark.parametrize(
        "zeta,heights",
        [("0.05", [15] * 2 + [14] * 5), ("0.01", [50, 50])],
        ids=["L100zeta-512KiB", "L500zeta-floor"],
    )
    def test_euler_check_tiles_take_the_floor_only_past_150_zeta(
        self, tmp_path, monkeypatch, zeta, heights
    ):
        # On 4001 refined nodes 512 KiB is 16 rows: 7 tiles of the 100
        # paths.  A slab of 500 zeta may cut the AR(1) scan into several
        # entries, whose loop each tile repeats, so it keeps 64-row tiles.
        drawn = []
        normals = grf.FieldSampler.normals

        def recording(self, *args, **kwargs):
            for tile in normals(self, *args, **kwargs):
                drawn.append(tile.shape)
                yield tile

        monkeypatch.setattr(grf.FieldSampler, "normals", recording)
        code = main([
            "--kappa", "1", "--zeta", zeta, "--grid-points", "1001",
            "--modes", "euler-check", "--out", str(tmp_path / "curves.csv"),
        ])
        assert code == 0
        assert drawn == [(rows, 4001) for rows in heights]

    def test_euler_check_mode_reports_order(self, tmp_path, capsys):
        out = tmp_path / "curves.csv"
        code = main([
            "--alpha", "0.3", "--modes", "beer,euler-check", "--paths", "50",
            "--grid-points", "21", "--length", "2", "--out", str(out),
        ])
        assert code == 0
        report = capsys.readouterr().out
        assert "euler check" in report
        assert "observed order" in report


class TestDeterminism:
    def test_rerun_is_byte_identical(self, tmp_path):
        args = ["--alpha", "0.2", "--paths", "300", "--grid-points", "21",
                "--length", "2", "--seed", "99"]
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    @pytest.mark.parametrize(
        "kappa,modes",
        [("1", "beer,mc"), ("2", "beer,paper,exact,mc")],
        ids=["kappa1", "kappa2"],
    )
    def test_worker_count_is_byte_invariant(self, tmp_path, kappa, modes):
        # 9000 paths are three 4096-path chunks, so four workers share them
        args = ["--alpha", "0.2", "--paths", "9000", "--grid-points", "21",
                "--length", "2", "--seed", "99", "--kappa", kappa, "--modes", modes]
        out1, out2 = tmp_path / "w1.csv", tmp_path / "w4.csv"
        assert main(args + ["--workers", "1", "--out", str(out1)]) == 0
        assert main(args + ["--workers", "4", "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_euler_check_error_leaves_no_csv(
        self, tmp_path, capsys, monkeypatch, workers
    ):
        def fail(config):
            raise ValueError("probe message")

        monkeypatch.setattr(cli, "_euler_check_lines", fail)
        out = tmp_path / "x.csv"
        code = main([
            "--modes", "beer,mc,euler-check", "--paths", "50", "--grid-points", "21",
            "--workers", workers, "--out", str(out),
        ])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err == "slabatten: error: probe message\n"
        assert captured.out == ""
        assert not out.exists()

    def test_euler_check_runs_beside_the_ensemble_only_within_the_budget(
        self, monkeypatch
    ):
        def beside(*flags):
            config = parse_args(["--modes", "mc,euler-check", *flags])
            return _euler_check_beside(config, default_depths(config.grid))

        def cpus(count):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)),
                                raising=False)

        # Only beside an ensemble that leaves a worker idle on a free CPU:
        # on 2 CPUs, 12 000 paths (three chunks) fill both at --workers 4.
        cpus(2)
        assert not beside("--workers", "4", "--paths", "12000")
        assert beside("--workers", "2", "--paths", "2000")
        # On 8: 20 000 paths are five 4096-path chunks, 4096 paths one.
        cpus(8)
        assert beside("--workers", "2", "--paths", "4096")
        assert not beside("--workers", "1", "--paths", "4096")
        assert not beside("--workers", "2", "--paths", "4098")
        assert not beside("--workers", "5")
        assert beside("--workers", "6")
        # Each fits the budget alone, the two together do not: the Euler
        # check's dense build on 9 437 points takes 2.14e9 bytes.
        flags = ["--modes", "mc,euler-check", "--grid-points", "2360", "--paths", "4096"]
        config = parse_args(flags)
        depths = default_depths(config.grid)
        euler = _euler_check_bytes(config)
        ensemble = ensemble_bytes(config.kernel, config.grid, config.n_paths, depths, 2)
        assert max(euler, ensemble) <= grf.MEMORY_BUDGET < euler + ensemble
        assert not beside(*flags[2:], "--workers", "2")


@pytest.mark.parametrize("workers", ["1", "2"])
@pytest.mark.parametrize(
    "kappa,points",
    [("1", "21"), ("1", "301"), ("2", "21"), ("2", "301")],
    ids=["kappa1-nodes", "kappa1-subsampled", "kappa2-nodes", "kappa2-subsampled"],
)
def test_memory_bounds_never_undercount_the_charges(
    tmp_path, monkeypatch, kappa, points, workers
):
    # Every budget charge of a run, by what made it, the ensemble (its
    # sampler, its workers' tiles) or the Euler check, and the (rows, nodes)
    # of every tile of normals each drew.  The charges each pipeline plans
    # with, before anything is built, must be its sampler with the tallest
    # tile it really drew, on both routes, with the depths the grid's own
    # nodes (21 points) and 256 of 301.
    charges = {"ensemble": [], "euler": []}
    drawn = {"ensemble": [], "euler": []}
    check_budget = grf.check_budget
    normals = grf.FieldSampler.normals

    def stage():
        stack = {frame.name for frame in traceback.extract_stack()}
        if "_euler_check_lines" in stack:
            return "euler"
        return "ensemble" if "run_ensemble" in stack or "chunk_partials" in stack else None

    def recording(needed, what):
        run = stage()
        if run is not None:
            charges[run].append(needed)
        check_budget(needed, what)

    def recording_normals(self, *args, **kwargs):
        run = stage()
        for tile in normals(self, *args, **kwargs):
            drawn[run].append((len(tile), self.nodes.size))
            yield tile

    monkeypatch.setattr(grf, "check_budget", recording)
    monkeypatch.setattr(montecarlo, "check_budget", recording)
    monkeypatch.setattr(grf.FieldSampler, "normals", recording_normals)
    argv = ["--kappa", kappa, "--zeta", "0.5", "--grid-points", points,
            "--paths", "5000", "--modes", "beer,mc,euler-check",
            "--workers", workers, "--out", str(tmp_path / "x.csv")]
    assert main(argv) == 0
    config = parse_args(argv)
    depths = default_depths(config.grid)
    nodes = grf.stepping_nodes(config.kernel, config.grid, depths)
    rows = max(rows for rows, _ in drawn["ensemble"])
    # 5000 paths are two blocks, streamed by as many workers
    if kappa == "1":
        gathered = 0 if np.array_equal(depths, nodes) else depths.size
        streamed = 8 * montecarlo._STREAM_ARRAYS * int(workers) * rows * (nodes.size + gathered)
    else:
        # no node values: the integrated factor, at rank <= n, and per
        # worker its buffers of normals and of at most d + 1 integrals
        columns = depths.size + 1
        streamed = 8 * (nodes.size * columns + int(workers) * rows * (nodes.size + columns))
    bound = ensemble_bytes(config.kernel, config.grid, config.n_paths, depths, config.workers)
    assert bound == grf.sampler_bytes(config.kernel, nodes.size, streamed)
    assert max(charges["ensemble"]) <= bound
    # the Euler check's finest grid sets its charge
    rows, n = max(drawn["euler"], key=lambda tile: tile[1])
    bound = _euler_check_bytes(config)
    assert bound == grf.sampler_bytes(config.kernel, n, 8 * 2 * rows * n)
    assert max(charges["euler"]) <= bound


# Overflows in several layers and threads (the squares of the slab
# integrals, the Euler products), yet every CSV column is finite: alpha
# 1e-200 keeps each pair factor cosh(alpha sigma_a I) at 1.  The grid
# covariance's lags overflow too, silently: the kernel there is exp(-inf) = 0.
OVERFLOWING = ["--length", "1e160", "--alpha", "1e-200", "--grid-points", "11",
               "--paths", "200"]


def _run_cli(tmp_path, *flags):
    """Run the CLI in a fresh interpreter, where warnings that escape it
    reach stderr as in any run (the suite turns RuntimeWarnings into
    errors); return the process and the CSV it wrote."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path(slabatten.__file__).parents[1]), env.get("PYTHONPATH", "")) if p
    )
    out = tmp_path / "out.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "slabatten.cli", *flags, "--out", str(out)],
        env=env, cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    return proc, out.read_bytes() if proc.returncode == 0 else None


@pytest.mark.parametrize(
    "flags,expected",
    [
        (["--alpha", "0.8", "--paths", "20000"],
         "warning: ReliabilityWarning: exponent std 2.24 > 1.5"),
        (OVERFLOWING + ["--modes", "beer,exact,mc"],
         "warning: RuntimeWarning: overflow encountered in multiply"),
    ],
    ids=["readme", "overflowing"],
)
def test_each_warning_ends_the_report_once_and_none_reaches_stderr(
    tmp_path, flags, expected
):
    reports = []
    for workers in ("1", "2"):
        proc, _ = _run_cli(tmp_path, *flags, "--workers", workers)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""
        reports.append(proc.stdout)
    assert reports[0] == reports[1]
    report = reports[0].splitlines()
    block = [line for line in report if line.startswith("warning:")]
    assert report[len(report) - len(block):] == block == sorted(set(block))
    assert [line for line in block if line.startswith(expected)] != []


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("workers", ["1", "2"])
def test_the_warning_capture_keeps_an_error_filter(tmp_path, workers):
    with pytest.raises(RuntimeWarning):
        main([*OVERFLOWING, "--modes", "beer,exact,mc,euler-check",
              "--workers", workers, "--out", str(tmp_path / "x.csv")])


def test_warnings_of_many_workers_read_as_those_of_one(tmp_path, capsys):
    # Five chunks overflow, each on a worker thread, with more workers than
    # cores and threads switched often: the block must neither lose nor
    # repeat nor reorder a line.
    argv = ["--length", "1e160", "--alpha", "1e-200", "--grid-points", "11",
            "--paths", "20000", "--modes", "beer,mc", "--out", str(tmp_path / "x.csv")]
    reports = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("default", RuntimeWarning)  # expected here
            for workers in ("1", "4"):
                assert main([*argv, "--workers", workers]) == 0
                reports.append(capsys.readouterr().out)
    finally:
        sys.setswitchinterval(interval)
    assert reports[0] == reports[1]
    # the squares of the chunks' slab integrals
    assert "warning: RuntimeWarning: overflow encountered in multiply" in reports[0].splitlines()


@pytest.mark.parametrize(
    "flags",
    [OVERFLOWING, ["--kappa", "1", "--zeta", "0.05", "--paths", "2000"]],
    ids=["overflowing", "fine-grid"],
)
def test_output_is_the_same_with_the_euler_check_beside_the_ensemble(tmp_path, flags):
    runs = []
    for workers in ("1", "2"):
        proc, csv = _run_cli(
            tmp_path, *flags, "--modes", "beer,mc,euler-check", "--workers", workers
        )
        runs.append((proc.returncode, proc.stdout, proc.stderr, csv))
    assert runs[0] == runs[1]
    if flags[0] == "--length":
        # the check's Euler products overflow, beside the ensemble or not
        assert runs[0][0] == 1 and runs[0][3] is None
        return
    assert runs[0][0] == 0, runs[0][2]
    report = runs[0][1].splitlines()
    section = report[report.index(
        "euler check (mean |Euler - exact| at z = L, nested refinements):"
    ):]
    assert not [line for line in section if line.startswith("warning:")]


@pytest.mark.parametrize("workers", ["1", "2"])
def test_an_ensemble_past_the_float_range_exits_1_and_writes_no_csv(tmp_path, workers):
    # kappa 2, zeta 1 on 100 cm steps: the grid's trapezoid integral has far
    # more variance than the continuum's, and from z = 400 cm the squares of
    # the pair factors cosh(alpha sigma_a I) overflow, so the SEM is nan.
    proc, csv = _run_cli(
        tmp_path, "--length", "1000", "--grid-points", "11", "--modes", "beer,mc",
        "--paths", "200", "--workers", workers,
    )
    assert proc.returncode == 1 and csv is None
    assert not (tmp_path / "out.csv").exists()
    assert proc.stdout == ""
    assert proc.stderr == (
        "slabatten: error: the ensemble mean or SEM is not finite at depth "
        "z = 400 cm: the pair factors cosh(alpha*sigma_a*I) of the sampled "
        "integrals I, or their squares, overflow\n"
    )


@pytest.mark.parametrize("workers", ["1", "2"])
def test_an_euler_check_past_the_float_range_exits_1_and_writes_no_csv(tmp_path, workers):
    # 1e159 cm steps: the Euler products overflow to inf, so the mean error
    # is not finite; at --workers 2 the check runs beside the ensemble.
    proc, csv = _run_cli(
        tmp_path, *OVERFLOWING, "--modes", "beer,mc,euler-check", "--workers", workers
    )
    assert proc.returncode == 1 and csv is None
    assert not (tmp_path / "out.csv").exists()
    assert proc.stdout == ""
    assert proc.stderr == (
        "slabatten: error: the Euler check's mean error is not finite at "
        "h = 1e+159 cm: the Euler products or the pathwise intensities overflow\n"
    )


@pytest.mark.parametrize(
    "amplitude, modes, message",
    [
        ("1e3", "beer,paper,exact", "the exact closed form's mean intensity is not "
         "finite at depth z = 1.9 cm"),
        ("1e3", "beer,paper,mc", "the paper closed form's mean intensity is not "
         "finite at depth z = 3.1 cm"),
        ("1e300", "beer,paper,exact,mc,euler-check", "the exact closed form's mean "
         "intensity is not finite at depth z = 0.1 cm"),
    ],
    ids=["exact-from-1.9", "paper-from-3.1", "every-depth"],
)
def test_a_closed_form_past_the_float_range_exits_1_and_writes_no_csv(
    tmp_path, amplitude, modes, message
):
    # The boost exp(gain alpha^2 sigma_a^2 C Y(z)) passes the float range;
    # the run stops before the ensemble and the Euler check start.
    proc, csv = _run_cli(
        tmp_path, "--amplitude", amplitude, "--modes", modes, "--paths", "4"
    )
    assert proc.returncode == 1 and csv is None
    assert not (tmp_path / "out.csv").exists()
    assert proc.stdout == ""
    assert proc.stderr == (
        f"slabatten: error: {message}: its boost "
        "exp(gain*alpha^2*sigma_a^2*C*Y(z)) overflows\n"
    )


@pytest.mark.parametrize(
    "flags, rows",
    [
        (["--amplitude", "1e308"], 51),
        (["--zeta", "1e150", "--length", "1e160", "--grid-points", "11"], 11),
    ],
    ids=["C-Y-past-the-float-range", "Y-past-the-float-range"],
)
def test_a_zero_alpha_gives_beers_law(tmp_path, flags, rows):
    # C Y(z) passes the float range from z = 2.6 cm at C = 1e308, and Y(z)
    # itself once zeta z does, yet the boost's gain alpha^2 sigma_a^2 C is 0
    # and the law is Beer's.
    proc, _ = _run_cli(tmp_path, *flags, "--alpha", "0", "--modes", "beer,exact")
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    _, cells = _read_csv(tmp_path / "out.csv")
    beer, exact = COLUMNS.index("beer"), COLUMNS.index("averaged_exact")
    assert len(cells) == rows
    assert [r[exact] for r in cells] == [r[beer] for r in cells]


@pytest.mark.parametrize(
    "flags",
    [
        [*OVERFLOWING, "--modes", "beer,mc"],
        ["--length", "1e-300", "--modes", "beer,mc", "--paths", "8"],
        ["--amplitude", "1e-300", "--modes", "beer,exact,mc", "--paths", "8"],
    ],
    ids=["overflowing", "thin", "faint"],
)
def test_slab_integral_moments_past_the_float_range_are_not_available(tmp_path, flags):
    # The slab integrals are about 1e160, so their squares overflow, or
    # about 1e-300 or 1e-150 (sqrt C L), so their squares or fourth powers
    # underflow; every CSV column stays finite, as alpha 1e-200 keeps each
    # overflowing pair factor at 1.
    proc, csv = _run_cli(tmp_path, *flags)
    assert proc.returncode == 0, proc.stderr
    report = proc.stdout.splitlines()
    assert [line for line in report if line.startswith("slab integral of G:")] == [
        "slab integral of G: skewness and excess kurtosis not available "
        "(raw moments underflow or overflow)"
    ]
    assert "0.0000" not in proc.stdout
    assert "nan" not in csv.decode()
    assert "scalar divide" not in proc.stdout
