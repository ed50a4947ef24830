"""The exact pathwise referee of the ensemble's integrator, shared by the
test modules: the trapezoid integral of a path and its exact intensity,
both built on ``grf.running_integral`` and ``grf.depth_reader``, the one
integrator ``run_ensemble`` uses, and the paths drawn as its pipelines
draw them (``drawn_tiles``, ``drawn_block``)."""

import numpy as np

from slabatten import beer
from slabatten.grf import checked_depths, checked_values, depth_reader, running_integral
from slabatten.grf import tile_rows


def drawn_tiles(sampler, seed, chunk, count, values=True):
    """Block ``chunk`` of master seed ``seed`` as the pipelines draw it:
    ``count`` rows of normals drawn tile by tile into one buffer of the
    tallest tile (``FieldSampler.normals``) and, with ``values``, made node
    values (``FieldSampler.transform``), each tile copied out of the buffer."""
    rows = tile_rows(sampler.kernel, sampler.nodes.size, sampler.grid.length, count)
    buffer = np.empty((rows, sampler.rank))
    for tile in sampler.normals(seed, chunk, count, out=buffer):
        yield (sampler.transform(tile) if values else tile).copy()


def drawn_block(sampler, seed, chunk, count, values=True):
    """``drawn_tiles``' rows in one array."""
    return np.concatenate(list(drawn_tiles(sampler, seed, chunk, count, values)))


def integral_at(grid, values, depths):
    """Trapezoid integral of the field from 0 to each depth, linear between nodes.

    ``values`` holds one path, shape ``(n,)``, or a block of paths, shape
    ``(rows, n)``, with ``values[..., q]`` the field at Z_q (dimensionless;
    the integral is in cm), and ``depths`` is a scalar or an array.  The
    result, ``running_integral`` with weights ``h/2`` read by
    ``depth_reader`` as the ensemble reads it, has shape
    ``values.shape[:-1] + np.shape(depths)`` and is exactly 0 at depth 0.
    Raises ValueError for values of any other shape (``checked_values``)
    and OutOfDomain for depths outside [0, L], NaN included
    (``checked_depths``).
    """
    values = checked_values(grid, values)
    depths = np.asarray(checked_depths(depths, grid.length), dtype=float)
    read = depth_reader(grid.points, depths, grid.spacing)
    # [()] gives a numpy scalar for one path and one depth
    return read(running_integral(values, 0.5 * grid.spacing))[()]


def path_intensity(medium, grid, values, depths):
    """Exact pathwise intensity I0*exp(-sigma_a*z - alpha*sigma_a*int_0^z G).

    ``values`` is one path ``(n,)`` or a block ``(rows, n)`` on ``grid``.
    One value per path row and depth: the result has shape
    ``values.shape[:-1] + np.shape(depths)``.
    """
    integral = integral_at(grid, values, depths)
    return beer(medium, depths) * np.exp(-medium.alpha * medium.sigma_a * integral)
