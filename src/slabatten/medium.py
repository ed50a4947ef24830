"""The purely absorbing slab: its parameters, Beer's decay and the
fluctuating absorption coefficient."""

from __future__ import annotations

import math
from dataclasses import KW_ONLY, dataclass

import numpy as np

from .grf import CorrelationKernel, checked_depths


@dataclass(frozen=True)
class MediumSpec:
    """Parameters of a purely absorbing slab.

    sigma_a : mean absorption coefficient, 1/cm, >= 0.
    alpha   : relative magnitude of absorption fluctuations, >= 0.
    i0      : incident beam intensity, W/cm^2, > 0.

    Fields after sigma_a are keyword-only.  Any alpha >= 0 is valid and
    quiet; the CLI prints the exact negative fraction Phi(-1/(alpha sqrt C)).
    """

    sigma_a: float
    _: KW_ONLY
    alpha: float = 0.0
    i0: float = 1.0

    def __post_init__(self) -> None:
        if not 0 <= self.sigma_a < math.inf:
            raise ValueError(f"sigma_a must be finite and >= 0, got {self.sigma_a}")
        if not 0 <= self.alpha < math.inf:
            raise ValueError(f"alpha must be finite and >= 0, got {self.alpha}")
        if not 0 < self.i0 < math.inf:
            raise ValueError(f"i0 must be finite and > 0, got {self.i0}")


def squared(x: float, y: float = 1.0) -> float:
    """``x**2 * y**2``, or, where Python's ``**`` raises past the float
    range, ``(x y)^2``, inf where that passes it too."""
    try:
        return x**2 * y**2
    except OverflowError:
        with np.errstate(over="ignore"):
            return float(np.square(x * y))


def beer(medium: MediumSpec, z):
    """Pure-absorption exponential decay I0 * exp(-sigma_a * z), z >= 0."""
    # np.exp, not math.exp, keeps a scalar's bits equal to an array's.
    return medium.i0 * np.exp(-medium.sigma_a * checked_depths(z))


@dataclass(frozen=True)
class StochasticMedium:
    """Medium whose absorption coefficient carries a Gaussian fluctuation.

    Along a sampled path the coefficient is sigma_a * (1 + alpha * G(z));
    its ensemble mean is sigma_a and its standard deviation
    alpha * sigma_a * sqrt(C).  Gaussian tails make it negative at a plane
    with probability Phi(-1 / (alpha * sqrt(C))); such values are kept
    as-is, since clamping would bias the moments, and the CLI report
    states that probability.
    """

    medium: MediumSpec
    kernel: CorrelationKernel

