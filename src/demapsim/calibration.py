"""Affine conversion blocks: observation-to-voltage map and per-bit
least-squares output calibration."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import Nodes
from .constellation import Constellation

# Per-bit calibration grid: uniform over [-7d - GRID_SIGMA_SPAN*sigma,
# +7d + GRID_SIGMA_SPAN*sigma]; beyond that both curves are straight and
# only shift the fitted offset.
GRID_SIGMA_SPAN = 4.0
GRID_POINTS = 2001


@dataclass(frozen=True)
class AffineMap:
    scale: float
    offset: float

    def __call__(self, x):
        y = self.scale * np.asarray(x, dtype=float) + self.offset
        return y.view(Nodes) if type(x) is Nodes and self.scale > 0.0 else y  # rounding keeps a rising map's order

    def inverse(self, y):
        if self.scale == 0.0:
            raise ValueError("affine map with zero scale is not invertible")
        return (np.asarray(y, dtype=float) - self.offset) / self.scale


def input_map(c: Constellation, vmin: float, vmax: float) -> AffineMap:
    """Map observations linearly so -7d lands on vmin and +7d on vmax."""
    if not vmax > vmin:
        raise ValueError(f"need vmax > vmin, got ({vmin}, {vmax})")
    span = float(c.points[-1] - c.points[0])  # 14 d
    return AffineMap(scale=(vmax - vmin) / span, offset=(vmax + vmin) / 2.0)


def calibration_grid(c: Constellation, sigma: float, n_points: int = GRID_POINTS) -> np.ndarray:
    """Observation grid used to discretize the output-map objective."""
    hi = float(c.points[-1]) + GRID_SIGMA_SPAN * sigma
    return np.linspace(-hi, hi, n_points)


def fit_output_map(k: int, vout_curve, ref_llr, grid: np.ndarray) -> AffineMap:
    """Ordinary least squares of the reference LLR on (vout, 1).

    Returns the (gamma_k, zeta_k) minimizing the squared amplitude error
    over the samples on ``grid``.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.size < 2 or not grid.min() < grid.max():
        raise ValueError("calibration grid needs at least 2 distinct points")
    v = np.asarray(vout_curve, dtype=float)
    ref = np.asarray(ref_llr, dtype=float)
    if v.shape != grid.shape or ref.shape != grid.shape:
        raise ValueError("curve samples must match the grid shape")
    v_mean = v.mean()
    dv = v - v_mean
    denom = float(dv @ dv)
    if denom <= 1e-30 * max(1.0, float(np.abs(v).max()) ** 2) * grid.size:
        raise ValueError(f"output curve for bit {k} is constant on the grid; affine fit is rank deficient")
    gamma = float(dv @ (ref - ref.mean())) / denom
    zeta = float(ref.mean() - gamma * v_mean)
    return AffineMap(scale=gamma, offset=zeta)
