#!/usr/bin/env python3
"""In-process, warm layer times of one Monte Carlo ensemble, in µs per path.

    PYTHONPATH=src python3 tools/ensemble_layers.py [--paths 20000]

For three configurations (kappa 2 on 51 and 501 points, kappa 1 stepped at
all 501 grid points; zeta 1, L 5, alpha 0.8, sigma_a 1) it times
``run_ensemble`` as a whole, then replays its chunk loop with the package's
own calls and times each layer.  On the dense route (kappa 2) the layers
are the normals, drawn into one buffer per chunk, the product with the
integrated factor into another, the reduction at the depths (factors and
their sums, in place) and the slab integral's raw moments.  On the AR(1)
route (kappa 1) they are the normals, the transform to node values,
``running_integral``, the reduction and the moments.  The replay draws one
row per antithetic pair, as ``run_ensemble`` does, of the sampler's
``rank`` normals.  Each figure is the median of ``--repeat`` runs, divided
by the path count.  ``minflt_per_run_ensemble`` gives the minor page
faults of the first (cold) ``run_ensemble`` call and the median of the
timed ones, so allocation churn shows.  ``replays_run_ensemble`` says
whether the replay's sums give the timed ``run_ensemble`` call's SEM over
mean at every depth and slab-integral skewness for the same seed, so a
replay that drifts from it shows.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import time
import warnings

import numpy as np

from slabatten import CorrelationKernel, FieldSampler, Grid, MediumSpec, StochasticMedium
from slabatten import ReliabilityWarning, default_depths, run_ensemble
from slabatten.grf import AR1_ROUTE, CHUNK_PATHS, depth_reader, running_integral
from slabatten.grf import stepping_nodes, tile_rows
from slabatten.montecarlo import _central_moments, _integrated_factor

DENSE_LAYERS = ("normals", "product", "reduction", "moments")
AR1_LAYERS = ("normals", "transform", "running_integral", "reduction", "moments")


def replay(kernel, grid, depths, n_paths, seed):
    """One ensemble's chunk loop: its seconds per layer and its sums (the
    pair factors less 1 and their squares per depth and the slab
    integrals' raw moments)."""
    scale = 0.8
    nodes = stepping_nodes(kernel, grid, depths)
    sampler = FieldSampler(kernel, grid, nodes)
    weights, _ = sampler.step_weights()
    read = depth_reader(nodes, depths, grid.spacing)
    dense = sampler.route != AR1_ROUTE
    if dense:
        basis = _integrated_factor(sampler.factor, weights, read)
    spent = dict.fromkeys(DENSE_LAYERS if dense else AR1_LAYERS, 0.0)
    factor_sum, factor_sq_sum, raw = 0.0, 0.0, np.zeros(4)
    clock = time.perf_counter
    for chunk in range(-(-n_paths // CHUNK_PATHS)):
        drawn = min(CHUNK_PATHS, n_paths - chunk * CHUNK_PATHS) // 2
        out = None
        if dense:
            rows = tile_rows(kernel, nodes.size, grid.length, drawn)
            out = np.empty((rows, sampler.rank))
            product = np.empty((rows, basis.shape[1]))
        tiles = sampler.normals(seed, chunk, drawn, out=out)
        slab, start = np.empty(drawn), 0
        while True:
            t0 = clock()
            normals = next(tiles, None)
            spent["normals"] += clock() - t0
            if normals is None:
                break
            rows = len(normals)
            t0 = clock()
            if dense:
                integrals = np.matmul(normals, basis, out=product[:rows])
                slab[start : start + rows] = integrals[:, -1]
                spent["product"] += clock() - t0
            else:
                values = sampler._transform(normals)
                t1 = clock()
                sums = running_integral(values, weights)
                slab[start : start + rows] = sums[:, -1]
                integrals = read(sums)
                spent["transform"] += t1 - t0
                spent["running_integral"] += clock() - t1
            start += rows
            t0 = clock()
            with np.errstate(over="ignore"):
                integrals *= scale
                np.cosh(integrals, out=integrals)
                integrals -= 1.0
                factor_sum = factor_sum + integrals.sum(axis=0)
                np.square(integrals, out=integrals)
                factor_sq_sum = factor_sq_sum + integrals.sum(axis=0)
            spent["reduction"] += clock() - t0
        t0 = clock()
        square = slab * slab
        raw += [slab.sum(), square.sum(), (square * slab).sum(), (square * square).sum()]
        spent["moments"] += clock() - t0
    d = depths.size
    return spent, (factor_sum[:d], factor_sq_sum[:d], raw)


def matches(stats, sums):
    """Whether a replay's sums give ``run_ensemble``'s result ``stats`` for
    the same seed: its SEM over mean per depth, which the depth's Beer and
    bridge prefactor cancels from, and its slab-integral skewness."""
    factor_sum, factor_sq_sum, raw = sums
    pairs = stats.n_paths // 2
    variance = np.maximum((factor_sq_sum - factor_sum**2 / pairs) / (pairs - 1), 0.0)
    ratio = np.sqrt(variance / pairs) / (1.0 + factor_sum / pairs)
    m2, m3, _ = _central_moments(raw, pairs)
    return bool(
        np.allclose(ratio, stats.sem / stats.mean, rtol=1e-9, atol=0.0)
        and math.isclose(
            m3 / m2**1.5, stats.integral_skewness, rel_tol=1e-9, abs_tol=1e-12
        )
    )


def minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--paths", type=int, default=20000)
    parser.add_argument("--repeat", type=int, default=11)
    args = parser.parse_args()
    warnings.simplefilter("ignore", ReliabilityWarning)  # alpha 0.8 is heavy-tailed at L
    medium = MediumSpec(sigma_a=1.0, alpha=0.8, i0=10.0)
    result, agree, faults = {}, {}, {}
    for kappa, n_points, all_points in ((2.0, 51, False), (2.0, 501, False), (1.0, 501, True)):
        kernel = CorrelationKernel(1.0, 1.0, kappa)
        grid = Grid(5.0, n_points)
        depths = grid.points if all_points else default_depths(grid)
        sm = StochasticMedium(medium, kernel)
        f0 = minor_faults()
        run_ensemble(sm, grid, args.paths, 1, depths=depths)  # warm up
        first = minor_faults() - f0
        walls, minflt, layers, replayed = [], [], {}, True
        for r in range(args.repeat):
            f0, t0 = minor_faults(), time.perf_counter()
            stats = run_ensemble(sm, grid, args.paths, 1 + r, depths=depths)
            walls.append(time.perf_counter() - t0)
            minflt.append(minor_faults() - f0)
            spent, sums = replay(kernel, grid, depths, args.paths, 1 + r)
            replayed &= matches(stats, sums)
            for name, s in spent.items():
                layers.setdefault(name, []).append(s)
        per_path = {"run_ensemble": statistics.median(walls)}
        per_path.update((name, statistics.median(s)) for name, s in layers.items())
        key = f"kappa{kappa:g}_{n_points}pts_{np.size(depths)}depths"
        result[key] = {name: round(1e6 * s / args.paths, 3) for name, s in per_path.items()}
        agree[key] = replayed
        faults[key] = {"first": first, "median": statistics.median(minflt)}
    print(json.dumps({
        "paths": args.paths,
        "us_per_path": result,
        "minflt_per_run_ensemble": faults,
        "replays_run_ensemble": agree,
    }))


if __name__ == "__main__":
    main()
