#!/usr/bin/env python3
"""In-process, warm layer times of one Monte Carlo ensemble, in µs per path.

    PYTHONPATH=src python3 tools/ensemble_layers.py [--paths 20000]

For three configurations (kappa 2 on 51 and 501 points, kappa 1 stepped at
all 501 grid points; zeta 1, L 5, alpha 0.8, sigma_a 1) it times
``run_ensemble`` with each layer of ``WRAPPED`` wrapped where it looks the
layer up, and its ``normals``, each ``standard_normal`` draw of the keyed
streams, through ``grf.default_rng``.  Every route draws a block's normals
into one buffer; the dense routes turn each tile into its integrals by one
``product`` with the ``basis``, the AR(1) route by ``FieldSampler.transform``
in place and ``running_integral``, its reading at the depths left in ``rest``.
A layer called inside another counts toward the outer one only, as the
basis's ``running_integral`` does.  The dense routes report
``DENSE_LAYERS``, the AR(1) route ``AR1_LAYERS``, between ``run_ensemble``
and ``rest``, the time no layer covers: medians of ``--repeat`` calls over
the path count, after at least 1 s of calls per process, as OpenBLAS is
slow for about its first second.
``minflt_per_run_ensemble`` gives the minor page faults of the first (cold)
call and the median of the timed ones.  ``missing`` names each layer a route
must run that was never called; if any is, the tool exits 1.
"""

import argparse
import contextlib
import json
import resource
import statistics
import sys
import threading
import time
import warnings
from types import SimpleNamespace

import numpy as np

from slabatten import CorrelationKernel, FieldSampler, Grid, MediumSpec, StochasticMedium
from slabatten import ReliabilityWarning, default_depths, grf, montecarlo, run_ensemble

DENSE_LAYERS = ("factor", "basis", "normals", "product", "reduction", "moments")
AR1_LAYERS = ("factor", "normals", "transform", "running_integral", "reduction", "moments")
# layer -> (the object run_ensemble looks it up on, its name there)
WRAPPED = {
    "factor": (FieldSampler, "__init__"),
    "basis": (montecarlo, "_integrated_factor"),
    "transform": (FieldSampler, "transform"),
    "running_integral": (montecarlo, "running_integral"),
    "product": (np, "matmul"),
    "reduction": (montecarlo, "_pair_factor_sums"),
    "moments": (montecarlo, "_power_sums"),
}


@contextlib.contextmanager
def timed_layers():
    """Wrap every layer for the block; yield the seconds of its calls per layer."""
    spent, inside = {}, threading.local()

    def timed(name, fn):
        def wrapper(*args, **kwargs):
            if getattr(inside, "layer", False):
                return fn(*args, **kwargs)
            inside.layer, t0 = True, time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                spent.setdefault(name, []).append(time.perf_counter() - t0)
                inside.layer = False
        return wrapper

    rng = grf.default_rng
    originals = [(owner, attr, getattr(owner, attr)) for owner, attr in WRAPPED.values()]
    for name, (owner, attr, original) in zip(WRAPPED, originals):
        setattr(owner, attr, timed(name, original))
    grf.default_rng = lambda *args: SimpleNamespace(
        standard_normal=timed("normals", rng(*args).standard_normal)
    )
    try:
        yield spent
    finally:
        grf.default_rng = rng
        for owner, attr, original in originals:
            setattr(owner, attr, original)


def minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--paths", type=int, default=20000)
    parser.add_argument("--repeat", type=int, default=11)
    args = parser.parse_args()
    warnings.simplefilter("ignore", ReliabilityWarning)  # alpha 0.8 is heavy-tailed at L
    medium = MediumSpec(sigma_a=1.0, alpha=0.8, i0=10.0)
    result, faults, missing = {}, {}, []
    warm_until = time.perf_counter() + 1.0
    for kappa, n_points, all_points in ((2.0, 51, False), (2.0, 501, False), (1.0, 501, True)):
        grid = Grid(5.0, n_points)
        depths = grid.points if all_points else default_depths(grid)
        sm = StochasticMedium(medium, CorrelationKernel(1.0, 1.0, kappa))
        f0 = minor_faults()
        run_ensemble(sm, grid, args.paths, 1, depths=depths)
        first = minor_faults() - f0
        while time.perf_counter() < warm_until:
            run_ensemble(sm, grid, args.paths, 1, depths=depths)
        runs, minflt, called = [], [], set()
        for r in range(args.repeat):
            with timed_layers() as spent:
                f0, t0 = minor_faults(), time.perf_counter()
                stats = run_ensemble(sm, grid, args.paths, 1 + r, depths=depths)
                wall = time.perf_counter() - t0
            minflt.append(minor_faults() - f0)
            layers = AR1_LAYERS if stats.sampler_route == grf.AR1_ROUTE else DENSE_LAYERS
            run = {name: sum(spent.get(name, ())) for name in layers}
            runs.append({"run_ensemble": wall, **run, "rest": wall - sum(run.values())})
            called |= spent.keys()
        key = f"kappa{kappa:g}_{n_points}pts_{np.size(depths)}depths"
        result[key] = {name: round(1e6 * statistics.median(run[name] for run in runs)
                                   / args.paths, 3) for name in runs[0]}
        faults[key] = {"first": first, "median": statistics.median(minflt)}
        missing += [f"{key}.{name}" for name in layers if name not in called]
    print(json.dumps({"paths": args.paths, "us_per_path": result,
                      "minflt_per_run_ensemble": faults, "missing": missing}))
    return 1 if missing else 0


if __name__ == "__main__":
    sys.exit(main())
