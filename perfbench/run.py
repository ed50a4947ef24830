#!/usr/bin/env python3
"""slabatten benchmark: three workloads, end-to-end metrics, traced per-layer run.

Run from the repository root (needs only the sources under ``src/``; nothing
is installed or built):

    python3 perfbench/run.py --workload reference --seed 1 --seconds 20 --trace 0

Workloads (one closed-loop caller: the next call starts when the previous
one has ended, each call in a fresh interpreter):

reference
    The README command at default flags (kappa 2, zeta 1, L 5, 51 points,
    modes beer,paper,exact,mc, 20 000 paths, --workers 1).  Per-path
    seeding plus the factor mat-vec in FieldSampler.sample_block dominates.
fine-grid
    --kappa 1 --zeta 0.05 (1001 points) --modes beer,mc,euler-check with
    2000 paths at --workers 2.  FieldSampler construction on the 4001-point
    Euler refinement grid dominates; the only threaded workload.
analytic-sweep
    Library calls without a sampler: 256 depths on [0, 10] for four
    kernels, closed form under both conventions (kappa 2), the ordered
    quadrature cumulant exponent and the square-quadrature lognormal oracle.

With ``--trace 0`` the last stdout line carries the end-to-end metrics,
measured untraced.  With ``--trace 1`` it carries the per-layer metrics,
from calls run under the span tracer (spans.py), alternating with untraced
calls so that the tracing overhead is measured too.  Every call's outputs
are checked; a failed check or nonzero exit counts as a failed call.
Files go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# A run must end within 180 s; no call starts once less than twice the
# longest call so far is left before this budget.
BUDGET_S = 170.0
MIN_TIMED_CALLS = 3
# wall_s drops this share of the fastest and of the slowest calls, then
# averages the rest.  On a shared 2-vCPU Xeon VM the speed switched between
# a fast and a slow state about 1.3x apart, each lasting seconds to minutes;
# the median of a run lands on either state, while the mean follows the
# share of time spent in each.
TRIM = 0.1
HEADER = "z,beer,averaged_paper,averaged_exact,mc_mean,mc_sem"
MAX_ROWS = 256  # montecarlo.default_depths caps the CSV at this many rows
REL_TOL = 1e-9
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "fraction",
}
PER_LAYER = {
    "grf.sample_block.s": "s",
    "grf.sample_block.wall_s": "s",
    "grf.sample_block.calls": "count",
    "grf.sample_block.paths": "count",
    "grf.sample_block.us_per_path": "us",
    "grf.sample_block.gflops": "GFLOP/s",
    "grf.transform.flops": "flop_computed",
    "grf.covariance_matrix.s": "s",
    "grf.covariance_matrix.calls": "count",
    "grf.covariance.bytes": "B_computed",
    "grf.factor.s": "s",
    "grf.factor.calls": "count",
    "grf.factor.max_n": "count",
    "grf.factor.jitter": "1",
    "grf.factor.flops": "flop_computed",
    "grf.factor.gflops": "GFLOP/s",
    "montecarlo.run_ensemble.s": "s",
    "montecarlo.run_ensemble.calls": "count",
    "montecarlo.reduce.s": "s",
    "montecarlo.reduce.us_per_path": "us",
    "montecarlo.speedup_w2": "x",
    "montecarlo.rel_sem_at_L": "1",
    "montecarlo.max_z_exact": "sem",
    "montecarlo.max_z_oracle": "sem",
    "proc.sys_s": "s",
    "proc.minflt": "count",
    "montecarlo.lognormal_oracle.s": "s",
    "montecarlo.lognormal_oracle.calls": "count",
    "montecarlo.lognormal_oracle.max_rel_err_k1": "1",
    "quadrature.ordered.s": "s",
    "quadrature.ordered.calls": "count",
    "quadrature.square.s": "s",
    "quadrature.square.calls": "count",
    "quadrature.ordered.max_rel_err": "1",
    "quadrature.square.max_rel_err_k1": "1",
    "averaged.averaged_intensity.s": "s",
    "averaged.averaged_intensity.calls": "count",
    "medium.mfp_series.s": "s",
    "medium.mfp_mc_estimate.s": "s",
    "cli.main.s": "s",
    "cli.self.s": "s",
    "cli.csv_bytes": "B",
    "cli.warnings": "count",
    "cli.warnings.ReliabilityWarning": "count",
    "cli.warnings.FluctuationWarning": "count",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.spans": "count",
}
# Layers whose share of the traced wall time the report prints.
SHARE_LAYERS = ("grf.sample_block.wall_s", "grf.factor.s", "grf.covariance_matrix.s",
                "montecarlo.reduce.s", "quadrature.ordered.s", "quadrature.square.s",
                "medium.mfp_mc_estimate.s", "cli.self.s")

SIZES = {
    "full": {"ref_paths": 20000, "fg_zeta": 0.05, "fg_paths": 2000, "sweep_depths": 256},
    "tiny": {"ref_paths": 2000, "fg_zeta": 0.5, "fg_paths": 100, "sweep_depths": 8},
}
SWEEP_KERNELS = ((2.0, 1.0), (2.0, 0.25), (1.0, 1.0), (1.0, 0.25))
SWEEP_LENGTH = 10.0
MEDIUM = {"sigma_a": 1.0, "alpha": 0.8, "i0": 10.0}  # the CLI defaults
LENGTH = 5.0


class BenchError(Exception):
    """The benchmark cannot run here (no sources, or the child cannot start)."""


def grid_points(zeta):
    """Grid.for_kernel's point count at 10 points per correlation length."""
    return max(2, math.ceil(LENGTH / (zeta / 10)) + 1)


# ---------------------------------------------------------------------------
# Output checks


def check_csv(text, n_points, filled):
    """Config echo, header, row count and which columns are filled."""
    lines = text.splitlines()
    if len(lines) < 2 or not lines[0].startswith("# slabatten "):
        return ["CSV config echo missing"]
    problems = []
    if f"grid_points={n_points}" not in lines[0].split():
        problems.append(f"config echo lacks grid_points={n_points}")
    if lines[1] != HEADER:
        problems.append(f"CSV header {lines[1]!r}")
    rows = lines[2:]
    if len(rows) != min(n_points, MAX_ROWS):
        problems.append(f"{len(rows)} CSV rows, expected {min(n_points, MAX_ROWS)}")
    columns = HEADER.split(",")
    for row in rows:
        cells = row.split(",")
        ok = len(cells) == len(columns) and all(
            (cells[j] != "" and math.isfinite(float(cells[j]))) == (name in filled)
            for j, name in enumerate(columns)
        )
        if not ok:
            problems.append(f"bad CSV row {row!r}")
            break
    return problems


def csv_columns(text):
    lines = text.splitlines()
    names = lines[1].split(",")
    rows = [line.split(",") for line in lines[2:]]
    return {name: [float(r[j]) if r[j] else None for r in rows] for j, name in enumerate(names)}


def max_z(cols, curve):
    zs = [abs(m - c) / s for m, s, c in zip(cols["mc_mean"], cols["mc_sem"], curve) if s > 0]
    return max(zs, default=0.0)


def ordered_exact(kappa, zeta, z):
    """Ordered covariance integral Y(z) for unit amplitude, by hand."""
    if kappa == 2.0:
        u = z / zeta
        return 0.5 * zeta * (math.sqrt(math.pi) * z * math.erf(u) + zeta * math.expm1(-u * u))
    x = z / zeta
    return zeta * zeta * (x + math.expm1(-x))  # zeta*z - zeta^2 (1 - e^(-z/zeta))


# ---------------------------------------------------------------------------
# Workloads


class Workload:
    name = ""
    paths = 0

    def __init__(self, size, rng):
        self.size = SIZES[size]
        self.rng = rng

    def warmup(self):
        return self.timed()

    def timed(self):
        raise NotImplementedError

    def evaluate(self, spec, result):
        """Failed output checks, and accuracy numbers (reported, not gated)."""
        raise NotImplementedError


class Reference(Workload):
    name = "reference"

    def __init__(self, size, rng):
        super().__init__(size, rng)
        self.paths = self.size["ref_paths"]

    def timed(self):
        seed = self.rng.randrange(2**31)
        out = OUT / "reference.csv"
        argv = ["--alpha", "0.8", "--kappa", "2", "--zeta", "1", "--length", str(LENGTH),
                "--modes", "beer,paper,exact,mc", "--workers", "1",
                "--paths", str(self.paths), "--seed", str(seed), "--out", str(out)]
        return {"kind": "cli", "argv": argv, "out": str(out)}

    def evaluate(self, spec, result):
        problems = check_csv(result["csv"], grid_points(1.0), HEADER.split(","))
        verdict = [line.strip() for line in result["stdout"].splitlines()
                   if line.rstrip().endswith("<- tracked by the MC mean")]
        if len(verdict) != 1 or not verdict[0].startswith("averaged_exact:"):
            problems.append(f"adjudication verdict {verdict!r}, expected averaged_exact")
        if problems:
            return problems, {}
        cols = csv_columns(result["csv"])
        return problems, {
            "montecarlo.rel_sem_at_L": cols["mc_sem"][-1] / cols["mc_mean"][-1],
            "montecarlo.max_z_exact": max_z(cols, cols["averaged_exact"]),
        }


class FineGrid(Workload):
    name = "fine-grid"

    def __init__(self, size, rng):
        super().__init__(size, rng)
        self.paths = self.size["fg_paths"]
        self.zeta = self.size["fg_zeta"]
        self.seed = rng.randrange(2**31)  # one ensemble per run: w1 and w2 must agree
        self.reference_csv = None

    def spec(self, workers):
        out = OUT / f"fine-grid-w{workers}.csv"
        argv = ["--kappa", "1", "--zeta", str(self.zeta), "--length", str(LENGTH),
                "--modes", "beer,mc,euler-check", "--workers", str(workers),
                "--paths", str(self.paths), "--seed", str(self.seed), "--out", str(out)]
        return {"kind": "cli", "argv": argv, "out": str(out), "workers": workers}

    def warmup(self):
        return self.spec(1)

    def timed(self):
        return self.spec(2)

    def evaluate(self, spec, result):
        filled = ("z", "beer", "mc_mean", "mc_sem")
        problems = check_csv(result["csv"], grid_points(self.zeta), filled)
        if spec["workers"] == 1:
            self.reference_csv = result["csv"]
        elif result["csv"] != self.reference_csv:
            problems.append("workers-2 CSV differs from the workers-1 CSV")
        if problems:
            return problems, {}
        cols = csv_columns(result["csv"])
        a2s2 = (MEDIUM["alpha"] * MEDIUM["sigma_a"]) ** 2
        # E<I> = Beer * exp(Var/2), Var = a2s2 * 2 Y(z) for the kappa-1 kernel.
        law = [b * math.exp(a2s2 * ordered_exact(1.0, self.zeta, z))
               for z, b in zip(cols["z"], cols["beer"])]
        return problems, {
            "montecarlo.rel_sem_at_L": cols["mc_sem"][-1] / cols["mc_mean"][-1],
            "montecarlo.max_z_oracle": max_z(cols, law),
        }


class AnalyticSweep(Workload):
    name = "analytic-sweep"

    def timed(self):
        n = self.size["sweep_depths"]
        h = SWEEP_LENGTH / (n - 1)
        # Jittered grid: seed-dependent depths with a seed-independent cost.
        inner = [i * h + (self.rng.random() - 0.5) * h for i in range(1, n - 1)]
        return {"kind": "sweep", "depths": [0.0, *inner, SWEEP_LENGTH],
                "kernels": SWEEP_KERNELS, "medium": MEDIUM}

    def evaluate(self, spec, result):
        a2s2 = (MEDIUM["alpha"] * MEDIUM["sigma_a"]) ** 2
        problems, ordered_err, square_err_k1, oracle_err_k1 = [], 0.0, 0.0, 0.0
        for row in result["sweep"]:
            kappa, zeta = row["kappa"], row["zeta"]
            for i, z in enumerate(spec["depths"]):
                beer = MEDIUM["i0"] * math.exp(-MEDIUM["sigma_a"] * z)
                ordered, oracle = row["ordered"][i], row["oracle"][i]
                if kappa == 2.0:
                    exact, paper = row["exact"][i], row["paper"][i]
                    pairs = (("ordered", exact, beer * math.exp(ordered)),
                             ("square", exact, oracle),
                             ("ordered (paper)", paper, beer * math.exp(0.5 * ordered)))
                    for route, closed, quad in pairs:
                        if abs(closed - quad) > REL_TOL * abs(closed):
                            problems.append(f"kappa 2 zeta {zeta} z {z:.6g}: closed form "
                                            f"{closed!r} vs {route} quadrature {quad!r}")
                y = ordered_exact(kappa, zeta, z)
                if y == 0.0:
                    continue
                rel = abs(ordered / a2s2 - y) / y
                ordered_err = max(ordered_err, rel)
                if kappa == 1.0:
                    if rel > REL_TOL:
                        problems.append(f"kappa 1 zeta {zeta} z {z:.6g}: ordered quadrature "
                                        f"off by {rel:.3g} relative")
                    square = 2.0 * math.log(oracle / beer) / a2s2
                    square_err_k1 = max(square_err_k1, abs(square - 2.0 * y) / (2.0 * y))
                    law = beer * math.exp(a2s2 * y)
                    oracle_err_k1 = max(oracle_err_k1, abs(oracle - law) / law)
        return problems[:5], {"quadrature.ordered.max_rel_err": ordered_err,
                              "quadrature.square.max_rel_err_k1": square_err_k1,
                              "montecarlo.lognormal_oracle.max_rel_err_k1": oracle_err_k1}


WORKLOADS = {w.name: w for w in (Reference, FineGrid, AnalyticSweep)}


# ---------------------------------------------------------------------------
# Calls


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), str(HERE), env.get("PYTHONPATH", "")) if p
    )
    return env


def call(spec, trace, deadline):
    """Run one workload call in a fresh interpreter and check its outputs."""
    OUT.mkdir(parents=True, exist_ok=True)
    spec = dict(spec, trace=bool(trace))
    spec_path, result_path = OUT / "call.spec.json", OUT / "call.result.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    if result_path.exists():
        result_path.unlink()
    if "out" in spec and os.path.exists(spec["out"]):
        os.unlink(spec["out"])
    timeout = max(1.0, deadline - time.monotonic())
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), str(spec_path), str(result_path)],
            cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        return {"problems": [f"timed out after {timeout:.0f} s"], "elapsed": timeout}
    elapsed = time.monotonic() - t_spawn
    if not result_path.exists():
        return {"problems": [f"no result (exit {proc.returncode})"], "elapsed": elapsed,
                "stderr": proc.stderr[-2000:]}
    result = json.loads(result_path.read_text(encoding="utf-8"))
    result.update(elapsed=elapsed, setup_s=result["t_import"] - t_spawn,
                  returncode=proc.returncode, stderr=proc.stderr[-2000:])
    problems = []
    if proc.returncode != 0 or result["exit"] != 0:
        problems.append(f"exit code {proc.returncode} (main returned {result['exit']})")
    if Path(result["src"]).resolve().parent.parent != SRC.resolve():
        problems.append(f"imported slabatten from {result['src']}, not {SRC}")
    if "out" in spec:
        try:
            result["csv"] = Path(spec["out"]).read_text(encoding="utf-8")
        except OSError as err:
            problems.append(f"CSV not written: {err}")
    result["problems"] = problems
    return result


class Session:
    """The calls of one run: checks, counts and the time budget."""

    def __init__(self, workload):
        self.workload = workload
        self.start = time.monotonic()
        self.deadline = self.start + BUDGET_S
        self.attempted = 0
        self.failed = 0
        self.longest = 0.0
        self.log = []

    def do(self, spec, trace=False):
        result = call(spec, trace, self.deadline)
        self.attempted += 1
        self.longest = max(self.longest, result["elapsed"])
        if not result["problems"]:
            try:
                result["problems"], result["outcome"] = self.workload.evaluate(spec, result)
            except (KeyError, IndexError, TypeError, ValueError, ZeroDivisionError) as err:
                result["problems"] = [f"unreadable output: {err!r}"]
        if result["problems"]:
            self.failed += 1
            print(f"FAILED {self.workload.name}: {'; '.join(result['problems'])}", file=sys.stderr)
            if result.get("stderr"):
                print(result["stderr"], file=sys.stderr)
        self.log.append({k: v for k, v in result.items()
                         if k not in ("csv", "stdout", "sweep", "spans")} | {"trace": trace})
        return result

    def more(self, seconds, done, minimum):
        now = time.monotonic()
        if now + 2 * self.longest > self.deadline:
            return False
        return done < minimum or now - self.start < seconds


def ok(results):
    return [r for r in results if not r["problems"]]


def median_of(results, key):
    values = [r[key] for r in ok(results)]
    if not values:
        raise BenchError("every measured call failed")
    return statistics.median(values)


def trimmed_mean(values):
    values = sorted(values)
    k = int(len(values) * TRIM)
    return statistics.fmean(values[k:len(values) - k])


def warm_up(workload, session):
    session.do(workload.warmup())
    if "t_import" not in session.log[-1]:
        raise BenchError("the first call produced no result")


def end_to_end(workload, session, seconds):
    warm_up(workload, session)
    timed = []
    while session.more(seconds, len(timed), MIN_TIMED_CALLS):
        timed.append(session.do(workload.timed()))
    metrics = {
        "setup_s": median_of(timed, "setup_s"),
        "wall_s": trimmed_mean([r["wall_s"] for r in ok(timed)]),
        "peak_rss_mb": median_of(timed, "rss_mb"),
        "ok_frac": 1.0 - session.failed / session.attempted,
    }
    return metrics, timed


def traced_metrics(result):
    m = spans.layer_metrics(result.get("spans", []))
    warnings = result.get("warnings", [])
    m["cli.warnings"] = len(warnings)
    for category in ("ReliabilityWarning", "FluctuationWarning"):
        m["cli.warnings." + category] = warnings.count(category)
    m["cli.csv_bytes"] = len(result.get("csv", "").encode("utf-8"))
    m["trace.wall_s"] = result["wall_s"]
    m["proc.sys_s"] = result["sys_s"]
    m["proc.minflt"] = result["minflt"]
    m.update(result.get("outcome", {}))
    return m


def per_layer(workload, session, seconds):
    """Alternate untraced and traced calls; medians of each layer metric."""
    warm_up(workload, session)
    plain, traced, rows = [], [], []
    while session.more(seconds, len(traced), 1):
        extra = {}
        if isinstance(workload, FineGrid):
            # Reduction self time and thread speed-up come from a workers-1 run.
            w1 = session.do(workload.spec(1), trace=True)
            if not w1["problems"]:
                extra = traced_metrics(w1)
        plain.append(session.do(workload.timed()))
        traced.append(session.do(workload.timed(), trace=True))
        if traced[-1]["problems"]:
            continue
        m = traced_metrics(traced[-1])
        if extra:
            m["montecarlo.reduce.s"] = extra["montecarlo.reduce.s"]
            m["montecarlo.reduce.us_per_path"] = extra["montecarlo.reduce.us_per_path"]
            if m["montecarlo.run_ensemble.s"] > 0:
                m["montecarlo.speedup_w2"] = (extra["montecarlo.run_ensemble.s"]
                                              / m["montecarlo.run_ensemble.s"])
        rows.append(m)
    metrics = {name: statistics.median(r.get(name, 0.0) for r in rows) if rows else 0.0
               for name in PER_LAYER}
    metrics["trace.overhead_s"] = median_of(traced, "wall_s") - median_of(plain, "wall_s")
    last = next((r for r in reversed(traced) if "spans" in r), None)
    if last is not None:
        (OUT / f"{workload.name}.spans.json").write_text(
            json.dumps({"fields": ["name", "start", "end", "parent", "thread", "attrs"],
                        "missing": last.get("missing", []), "spans": last["spans"]}),
            encoding="utf-8")
    return metrics, traced


# ---------------------------------------------------------------------------
# Environment and report


def git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(seed):
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (KeyError, TypeError, ValueError) as err:
        blas = {"error": repr(err)}
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "thread_vars": {k: os.environ[k] for k in THREAD_VARS if k in os.environ},
        "git_commit": git_commit(),
        "seed": seed,
    }


def summary(values, unit):
    return f"{statistics.median(values):.6g} {unit} (median of {len(values)}; " \
           f"min {min(values):.6g}, max {max(values):.6g})" if values else "n/a"


def report(workload, metrics, calls, session, trace):
    print(f"workload {workload.name}: {session.attempted} calls attempted, "
          f"{session.failed} failed, {len(calls)} counted")
    good = ok(calls)
    if not trace:
        print(f"  {'wall_s':<12} {metrics['wall_s']:.6g} s ({TRIM:.0%}-trimmed mean; "
              f"per call {summary([r['wall_s'] for r in good], 's')})")
        for key, name, unit in (("setup_s", "setup_s", "s"), ("rss_mb", "peak_rss_mb", "MB")):
            print(f"  {name:<12} {summary([r[key] for r in good], unit)}")
        if workload.paths:
            print(f"  {'paths_per_s':<12} "
                  f"{summary([workload.paths / r['wall_s'] for r in good], '1/s')}")
        else:
            print(f"  {'paths_per_s':<12} n/a (no ensemble)")
        print(f"  {'failed_frac':<12} {session.failed / session.attempted:.6g} "
              f"({session.failed}/{session.attempted})")
        return
    for name, unit in PER_LAYER.items():
        print(f"  {name:<36} {metrics[name]:.6g} {unit}")
    wall = metrics["trace.wall_s"]
    if wall > 0:
        shares = ", ".join(f"{name} {100 * metrics[name] / wall:.1f}%"
                           for name in SHARE_LAYERS if metrics[name] > 0)
        print(f"  shares of traced wall: {shares}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(SIZES), default="full",
                        help="tiny shrinks every workload for the smoke test")
    args = parser.parse_args(argv)

    if not (SRC / "slabatten" / "__init__.py").is_file():
        print(f"perfbench: no slabatten sources under {SRC}", file=sys.stderr)
        return 2
    rng = random.Random(f"{args.workload}:{args.seed}")
    workload = WORKLOADS[args.workload](args.size, rng)
    session = Session(workload)
    env = environment(args.seed)
    print("env " + json.dumps(env))
    try:
        if args.trace:
            metrics, calls = per_layer(workload, session, args.seconds)
        else:
            metrics, calls = end_to_end(workload, session, args.seconds)
    except BenchError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 1
    units = PER_LAYER if args.trace else END_TO_END
    report(workload, metrics, calls, session, args.trace)
    OUT.mkdir(parents=True, exist_ok=True)
    record = {"workload": workload.name, "trace": args.trace, "env": env,
              "metrics": metrics, "calls": session.log}
    (OUT / f"{workload.name}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1), encoding="utf-8")
    print(json.dumps({
        "correct": session.failed == 0,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
