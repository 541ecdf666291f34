"""Hashed n-cube grid index: equal-width binning with a sorted occupancy table.

The bounding box is cut into ``(k*y + 1)`` equal intervals per dimension,
giving ``(k*y + 1)**dims`` cubes. One hash maps each point to exactly one cube,
for the build (all rows in a single pass) and for ``locate_cube`` alike. The
build sorts the rows by cube into one table: the occupied cubes, the rows they
hold and an offset per cube. Cube loads are the differences of the offsets,
and the approximate median counts points per cube slab, then selects among
the stopping slab's points only instead of sorting the data.

Cube count grows exponentially with dimensionality, so construction refuses
configurations whose total cube count exceeds a hard cap. The refusal error
carries the exact count so callers can report the blow-up instead of crashing.
Only occupied cubes are stored; `grid_stats` measures how empty the dense cube
space would be, which is the scheme's practical failure mode at high d.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .core import Dataset, Point
from .kdtree import select_rank

__all__ = [
    "GridFeasibilityError",
    "GridConfig",
    "GridIndex",
    "GridStats",
    "build_grid",
    "locate_cube",
    "grid_find_median",
    "grid_stats",
]

DEFAULT_CUBE_CAP = 2**24


class GridFeasibilityError(ValueError):
    """Cube count exceeds the cap; carries the exact (possibly astronomical) count."""

    def __init__(self, cubes_per_dim: int, dims: int, total_cubes: int, cap: int):
        self.cubes_per_dim = cubes_per_dim
        self.dims = dims
        self.total_cubes = total_cubes
        self.cap = cap
        super().__init__(
            f"grid of {cubes_per_dim}^{dims} = {total_cubes} cubes exceeds the cap of {cap}; "
            f"the scheme is impractical at this dimensionality"
        )

    def marker(self) -> str:
        """Compact refusal tag for report cells, e.g. 'REFUSED(M=3^64)'."""
        return f"REFUSED(M={self.cubes_per_dim}^{self.dims})"


@dataclass(frozen=True)
class GridConfig:
    """Grid shape: y splits per dimension scaled by k, for a given dimensionality.

    ``effective_splits = k*y`` so ``cubes_per_dim = k*y + 1``; higher k gives a
    finer grid (better median accuracy, more cubes). ``total_cubes`` is exact
    arbitrary-precision arithmetic, checked against ``cube_cap`` on
    construction.
    """

    splits_y: int
    multiplier_k: int = 1
    dims: int = 1
    cube_cap: int = DEFAULT_CUBE_CAP

    def __post_init__(self):
        if self.splits_y < 1:
            raise ValueError("splits_y must be at least 1")
        if self.multiplier_k < 1:
            raise ValueError("multiplier_k must be at least 1")
        if self.dims < 1:
            raise ValueError("dims must be at least 1")
        if not 1 <= self.cube_cap <= 2**62:
            raise ValueError("cube_cap must be in [1, 2**62]")
        if self.total_cubes > self.cube_cap:
            raise GridFeasibilityError(self.cubes_per_dim, self.dims, self.total_cubes, self.cube_cap)

    @property
    def effective_splits(self) -> int:
        return self.multiplier_k * self.splits_y

    @property
    def cubes_per_dim(self) -> int:
        return self.effective_splits + 1

    @property
    def total_cubes(self) -> int:
        return self.cubes_per_dim**self.dims


class GridIndex:
    """Immutable occupancy index over a dataset's own bounding box.

    Occupancy is one table sorted by cube: ``cubes`` holds the occupied flat
    cube indices in ascending order, ``rows`` the dataset rows grouped by cube
    (ascending within a cube), and cube ``cubes[i]`` owns
    ``rows[starts[i]:starts[i+1]]``. The build hashes every point exactly once.
    """

    __slots__ = ("config", "dataset", "mins", "maxs", "widths", "cubes", "rows", "starts")

    def __init__(self, config: GridConfig, dataset: Dataset, mins, maxs, widths, cubes, rows, starts):
        self.config = config
        self.dataset = dataset
        self.mins = mins
        self.maxs = maxs
        self.widths = widths
        self.cubes = cubes
        self.rows = rows
        self.starts = starts


def _hash(coords: np.ndarray, mins: np.ndarray, widths: np.ndarray, cubes: int) -> np.ndarray:
    """Flat cube index of each in-bounds row: row-major, dimension 0 first.

    Max-boundary values clamp into the last cube; a zero-width dimension puts
    every row in cell 0.
    """
    safe = np.where(widths > 0, widths, 1.0)
    cells = np.floor((coords - mins) / safe).astype(np.int64)
    cells[:, widths == 0] = 0
    np.clip(cells, 0, cubes - 1, out=cells)
    return cells @ (cubes ** np.arange(coords.shape[1], dtype=np.int64))


def build_grid(ds: Dataset, cfg: GridConfig) -> GridIndex:
    """Hash every point to its cube in one pass over the data."""
    if cfg.dims != ds.dims:
        raise ValueError(f"grid config is for {cfg.dims} dims, dataset has {ds.dims}")
    mins = ds.coords.min(axis=0)
    maxs = ds.coords.max(axis=0)
    widths = (maxs - mins) / cfg.cubes_per_dim
    flat = _hash(ds.coords, mins, widths, cfg.cubes_per_dim)
    # the same keys in the narrowest unsigned type: numpy radix-sorts keys of 16 bits or less
    rows = np.argsort(flat.astype(np.min_scalar_type(cfg.total_cubes - 1)), kind="stable")
    ordered = flat[rows]
    starts = np.flatnonzero(np.concatenate(([True], ordered[1:] != ordered[:-1], [True])))
    return GridIndex(cfg, ds, mins, maxs, widths, ordered[starts[:-1]], rows, starts)


def locate_cube(p, grid: GridIndex) -> int:
    """Flattened cube index of a point; max-boundary points belong to the last cube.

    Points outside the grid's bounds, NaN included, are a hard error: grids
    are built from the dataset's own bounds, so such a point signals misuse.
    """
    coords = p.coords if isinstance(p, Point) else np.asarray(p, dtype=np.float64)
    if coords.shape != (grid.config.dims,):
        raise ValueError(f"point has shape {coords.shape}, grid expects ({grid.config.dims},)")
    outside = ~((coords >= grid.mins) & (coords <= grid.maxs))
    if outside.any():
        j = int(np.argmax(outside))
        raise ValueError(
            f"coordinate {coords[j]} outside grid bounds [{grid.mins[j]}, {grid.maxs[j]}] in dimension {j}"
        )
    return int(_hash(coords[None, :], grid.mins, grid.widths, grid.config.cubes_per_dim)[0])


def grid_find_median(grid: GridIndex, dim: int) -> float:
    """Median along a dimension via the cube-slab walk.

    Accumulates slab populations in ascending coordinate order until the
    running total reaches ceil(P/2), then selects the needed rank among the
    stopping slab's points only. Because slabs are coordinate-ordered, the
    returned value's true rank is within the largest slab population of the
    median rank.
    """
    if not 0 <= dim < grid.config.dims:
        raise ValueError(f"dimension {dim} out of range")
    cubes = grid.config.cubes_per_dim
    slabs = (grid.cubes // cubes**dim) % cubes
    loads = np.diff(grid.starts)
    through = np.cumsum(np.bincount(slabs, weights=loads, minlength=cubes).astype(np.int64))
    rank = (grid.dataset.n + 1) // 2
    stop = int(np.searchsorted(through, rank))
    before = int(through[stop - 1]) if stop else 0
    positions = grid.rows[np.repeat(slabs == stop, loads)]
    values = grid.dataset.coords[positions, dim]
    return select_rank(values, rank - before - 1)


@dataclass(frozen=True)
class GridStats:
    """Occupancy report; quantifies how sparse the dense cube space would be."""

    total_cubes: int
    occupied: int
    empty: int
    max_load: int
    mean_nonzero_load: float
    occupied_fraction: float

    def to_dict(self) -> dict:
        return {
            "M": self.total_cubes,
            "occupied": self.occupied,
            "empty": self.empty,
            "max_load": self.max_load,
            "mean_nonzero_load": self.mean_nonzero_load,
            "occupied_fraction": self.occupied_fraction,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


def grid_stats(grid: GridIndex) -> GridStats:
    loads = np.diff(grid.starts)
    occupied = len(loads)
    total = grid.config.total_cubes
    return GridStats(
        total_cubes=total,
        occupied=occupied,
        empty=total - occupied,
        max_load=int(loads.max()),
        mean_nonzero_load=int(loads.sum()) / occupied,
        occupied_fraction=occupied / total,
    )
