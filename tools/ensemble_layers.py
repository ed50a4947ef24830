#!/usr/bin/env python3
"""In-process, warm layer times of one Monte Carlo ensemble, in µs per path.

    PYTHONPATH=src python3 tools/ensemble_layers.py [--paths 20000]

For three configurations (kappa 2 on 51 and 501 points, kappa 1 stepped at
all 501 grid points; zeta 1, L 5, alpha 0.8, sigma_a 1) it times
``run_ensemble`` as a whole, then replays its chunk loop with the package's
own calls and times each layer: the normals, the transform to field values,
``running_integral``, the reduction at the depths (factors and their sums),
the negative count and the slab integral's raw moments.  The replay draws
one row per antithetic pair, as ``run_ensemble`` does.  Each figure is the
median of ``--repeat`` runs, divided by the path count.
"""

from __future__ import annotations

import argparse
import json
import statistics
import time
import warnings

import numpy as np
from numpy.random import SeedSequence, default_rng

from slabatten import CorrelationKernel, FieldSampler, Grid, MediumSpec, StochasticMedium
from slabatten import ReliabilityWarning, default_depths, run_ensemble
from slabatten.grf import CHUNK_PATHS, depth_reader, running_integral
from slabatten.grf import stepping_nodes, tile_rows

LAYERS = ("normals", "transform", "running_integral", "reduction", "negatives", "moments")


def replay(kernel, grid, depths, n_paths, seed):
    """One ensemble's chunk loop, its seconds per layer."""
    scale, cut = 0.8, -1.0 / 0.8
    nodes = stepping_nodes(kernel, grid, depths)
    sampler = FieldSampler(kernel, grid, nodes)
    weights, _ = sampler.step_weights()
    read = depth_reader(nodes, depths, grid.spacing)
    spent = dict.fromkeys(LAYERS, 0.0)
    clock = time.perf_counter
    for chunk in range(-(-n_paths // CHUNK_PATHS)):
        count = min(CHUNK_PATHS, n_paths - chunk * CHUNK_PATHS)
        drawn = count // 2
        rows = tile_rows(kernel, nodes.size, drawn)
        n_tiles = max(1, -(-drawn // rows))
        base, extra = divmod(drawn, n_tiles)
        stream = default_rng(SeedSequence(seed, spawn_key=(chunk,)))
        slab, start = np.empty(drawn), 0
        for t in range(n_tiles):
            t0 = clock()
            normals = stream.standard_normal((base + (t < extra), nodes.size))
            t1 = clock()
            values = sampler._transform(normals)
            t2 = clock()
            sums = running_integral(values, weights)
            slab[start : start + len(values)] = sums[:, -1]
            start += len(values)
            t3 = clock()
            factors = read(sums)
            factors *= scale
            np.cosh(factors, out=factors)
            factors -= 1.0
            factors.sum(axis=0)
            np.square(factors, out=factors)
            factors.sum(axis=0)
            t4 = clock()
            np.count_nonzero(values < cut)
            np.count_nonzero(values > -cut)
            t5 = clock()
            for name, dt in zip(LAYERS, (t1 - t0, t2 - t1, t3 - t2, t4 - t3, t5 - t4)):
                spent[name] += dt
        t0 = clock()
        square = slab * slab
        [slab.sum(), square.sum(), (square * slab).sum(), (square * square).sum()]
        spent["moments"] += clock() - t0
    return spent


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--paths", type=int, default=20000)
    parser.add_argument("--repeat", type=int, default=11)
    args = parser.parse_args()
    warnings.simplefilter("ignore", ReliabilityWarning)  # alpha 0.8 is heavy-tailed at L
    medium = MediumSpec(sigma_a=1.0, alpha=0.8, i0=10.0)
    result = {}
    for kappa, n_points, all_points in ((2.0, 51, False), (2.0, 501, False), (1.0, 501, True)):
        kernel = CorrelationKernel(1.0, 1.0, kappa)
        grid = Grid(5.0, n_points)
        depths = grid.points if all_points else default_depths(grid)
        sm = StochasticMedium(medium, kernel)
        run_ensemble(sm, grid, args.paths, 1, depths=depths)  # warm up
        walls, layers = [], {name: [] for name in LAYERS}
        for r in range(args.repeat):
            t0 = time.perf_counter()
            run_ensemble(sm, grid, args.paths, 1 + r, depths=depths)
            walls.append(time.perf_counter() - t0)
            for name, s in replay(kernel, grid, depths, args.paths, 1 + r).items():
                layers[name].append(s)
        per_path = {"run_ensemble": statistics.median(walls)}
        per_path.update((name, statistics.median(s)) for name, s in layers.items())
        key = f"kappa{kappa:g}_{n_points}pts_{np.size(depths)}depths"
        result[key] = {name: round(1e6 * s / args.paths, 3) for name, s in per_path.items()}
    print(json.dumps({"paths": args.paths, "us_per_path": result}))


if __name__ == "__main__":
    main()
