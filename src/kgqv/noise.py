"""Reproducible space-time white noise on the rotated lattice.

A realization holds one Gaussian increment per lattice cell (variance
eps^2, the cell area; the rotation preserves area) and one per layer-1
seed triangle (variance eps^2/2, the triangle area).  Values are a pure
function of (master_seed, index, kind), so regeneration, sub-window
generation, and any evaluation order give bit-identical draws.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .coords import RotatedGrid

_SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True, eq=False)
class NoiseField:
    """White-noise increments over cells and layer-1 triangles.

    ``cells[ii, jj]`` is the increment over the cell whose bottom vertex
    is lattice index (i_min + ii, j_min + jj); entries below the initial
    anti-diagonal are zero and never read.  ``tris[k]`` belongs to the
    layer-1 point (i_min + 1 + k, -i_min - k).  Arrays are read-only.
    """

    grid: RotatedGrid
    master_seed: int
    cells: np.ndarray
    tris: np.ndarray

    def increment_over_cell(self, i: int, j: int) -> float:
        if not self.grid.contains_index(i, j):
            raise IndexError(
                f"cell bottom ({i}, {j}) outside the window or below the initial line"
            )
        return float(self.cells[i - self.grid.i_min, j - self.grid.j_min])

    def increment_over_seed_triangle(self, i: int) -> float:
        k = i - (self.grid.i_min + 1)
        if not 0 <= k < self.tris.shape[0]:
            raise IndexError(f"no layer-1 point with first index {i} in the window")
        return float(self.tris[k])


def generate(grid: RotatedGrid, master_seed: int) -> NoiseField:
    """Draw the full noise realization for a window, deterministically."""
    rows, cols = grid.shape
    # both cells of a pair share i + j, so a pair is drawn whole or not at all
    cells = _kernels.lattice_normals(
        grid.i_min, grid.j_min, (rows, cols), 0, master_seed, sig_min=0
    )
    cells *= grid.eps
    tris = (grid.eps / _SQRT2) * _kernels.triangle_normals(
        grid.i_min + 1, rows - 1, master_seed
    )
    cells.setflags(write=False)
    tris.setflags(write=False)
    return NoiseField(grid=grid, master_seed=int(master_seed), cells=cells, tris=tris)

