import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from spacepart.core import Dataset
from spacepart.grid import (
    GridConfig,
    GridFeasibilityError,
    build_grid,
    grid_find_median,
    grid_stats,
    locate_cube,
)

from conftest import random_dataset


class TestGridConfig:
    def test_two_by_two(self):
        cfg = GridConfig(splits_y=1, multiplier_k=1, dims=2)
        assert cfg.cubes_per_dim == 2
        assert cfg.total_cubes == 4

    def test_multiplier(self):
        cfg = GridConfig(splits_y=2, multiplier_k=3, dims=2)
        assert cfg.effective_splits == 6
        assert cfg.cubes_per_dim == 7
        assert cfg.total_cubes == 49

    def test_high_dim_refusal_carries_exact_count(self):
        with pytest.raises(GridFeasibilityError) as exc:
            GridConfig(splits_y=2, multiplier_k=1, dims=64)
        err = exc.value
        assert err.total_cubes == 3**64
        assert err.marker() == "REFUSED(M=3^64)"

    def test_cap_is_inclusive(self):
        GridConfig(splits_y=1, multiplier_k=1, dims=24, cube_cap=2**24)  # exactly at cap
        with pytest.raises(GridFeasibilityError):
            GridConfig(splits_y=1, multiplier_k=1, dims=25, cube_cap=2**24)

    def test_validation(self):
        with pytest.raises(ValueError):
            GridConfig(splits_y=0, dims=2)
        with pytest.raises(ValueError):
            GridConfig(splits_y=1, multiplier_k=0, dims=2)


class TestLocate:
    def _corner_grid(self):
        ds = Dataset([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0], [10.0, 10.0]])
        return ds, build_grid(ds, GridConfig(1, 1, dims=2))

    def test_corner_points_fill_all_cubes(self):
        _, grid = self._corner_grid()
        assert grid.occupied_cubes == 4
        assert grid_stats(grid).occupied_fraction == 1.0

    def test_origin_and_far_corner(self):
        _, grid = self._corner_grid()
        assert locate_cube((0.0, 0.0), grid) == 0
        assert locate_cube((10.0, 10.0), grid) == 3  # max boundary clamps into the last cube

    def test_row_major_flattening(self):
        _, grid = self._corner_grid()
        assert locate_cube((10.0, 0.0), grid) == 1  # cell (1, 0)
        assert locate_cube((0.0, 10.0), grid) == 2  # cell (0, 1)

    def test_outside_bounds_is_an_error(self):
        _, grid = self._corner_grid()
        with pytest.raises(ValueError, match="dimension 0"):
            locate_cube((-0.1, 5.0), grid)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_coordinate_is_an_error(self, bad):
        _, grid = self._corner_grid()
        with pytest.raises(ValueError, match="dimension 1"):
            locate_cube((5.0, bad), grid)

    def test_degenerate_dimension(self):
        ds = Dataset([[1.0, 5.0], [2.0, 5.0]])
        grid = build_grid(ds, GridConfig(1, 1, dims=2))
        assert locate_cube((1.5, 5.0), grid) in (0, 1)


class TestBuild:
    def test_counts_partition_the_dataset(self):
        ds = random_dataset(1, 500, 3)
        grid = build_grid(ds, GridConfig(2, 2, dims=3))
        assert np.all(np.diff(grid.cubes) > 0)
        assert grid.starts[0] == 0 and grid.starts[-1] == 500
        assert np.array_equal(np.sort(grid.rows), np.arange(500))
        for start, end in zip(grid.starts[:-1], grid.starts[1:]):
            assert np.all(np.diff(grid.rows[start:end]) > 0)
        assert grid.build_passes == 1

    def test_every_point_is_where_locate_says(self):
        ds = random_dataset(2, 120, 2)
        grid = build_grid(ds, GridConfig(3, 1, dims=2))
        for row in range(ds.n):
            flat = locate_cube(ds.coords[row], grid)
            i = int(np.searchsorted(grid.cubes, flat))
            assert grid.cubes[i] == flat
            assert row in grid.rows[grid.starts[i] : grid.starts[i + 1]]

    @pytest.mark.parametrize("dims, y", [(2, 1), (8, 2), (12, 2), (20, 2)], ids=["uint8", "uint16", "uint32", "uint64"])
    def test_table_is_a_stable_sort_of_the_cube_ids(self, dims, y):
        # the sort runs on keys of the narrowest type that holds every cube id
        rng = np.random.default_rng(dims)
        coords = np.round(rng.normal(size=(300, dims)), 1)
        coords[rng.random(coords.shape) < 0.3] = -0.0
        grid = build_grid(Dataset(coords), GridConfig(y, 1, dims=dims, cube_cap=2**62))
        flat = np.array([locate_cube(row, grid) for row in coords])
        rows = np.argsort(flat, kind="stable")
        cubes, starts = np.unique(flat[rows], return_index=True)
        assert grid.rows.tolist() == rows.tolist() and grid.cubes.tolist() == cubes.tolist()
        assert grid.starts.tolist() == [*starts.tolist(), len(coords)]
        assert grid.cubes.dtype == grid.rows.dtype == grid.starts.dtype == np.int64

    def test_dims_mismatch(self):
        ds = random_dataset(3, 10, 2)
        with pytest.raises(ValueError):
            build_grid(ds, GridConfig(1, 1, dims=3))


def slab_walk_oracle(values, cubes):
    """Slab-walk median along one coordinate column, computed without the grid."""
    lo, hi = values.min(), values.max()
    width = (hi - lo) / cubes
    if width == 0:
        slab = np.zeros(len(values), dtype=np.int64)
    else:
        slab = np.clip(np.floor((values - lo) / width), 0, cubes - 1).astype(np.int64)
    rank = (len(values) + 1) // 2
    through = np.cumsum(np.bincount(slab, minlength=cubes))
    stop = int(np.argmax(through >= rank))
    before = int(through[stop - 1]) if stop else 0
    return np.sort(values[slab == stop])[rank - before - 1]


def sort_median_rank(values, v):
    """1-indexed rank window of value v in the sorted order (first, last)."""
    s = np.sort(values)
    first = int(np.searchsorted(s, v, side="left")) + 1
    last = int(np.searchsorted(s, v, side="right"))
    return first, last


class TestSlabMedian:
    def test_stops_in_first_slab_still_exact(self):
        ds = Dataset([[1.0], [1.1], [1.2], [9.9]])
        grid = build_grid(ds, GridConfig(1, 1, dims=1))
        # slab 0 holds three of four points, so the walk stops there
        assert grid_find_median(grid, 0) == sorted([1.0, 1.1, 1.2, 9.9])[1]

    def test_ten_point_walk(self):
        ds = Dataset([[float(v)] for v in range(10)])
        grid = build_grid(ds, GridConfig(1, 1, dims=1))
        # slab 0 holds {0..4} (width 4.5), the walk stops there at count 5
        assert grid_find_median(grid, 0) == 4.0

    def test_exactness_on_uniform_2d(self):
        ds = random_dataset(4, 10_000, 2)
        grid = build_grid(ds, GridConfig(8, 1, dims=2))
        for dim in (0, 1):
            med = grid_find_median(grid, dim)
            assert med == np.sort(ds.coords[:, dim])[(ds.n - 1) // 2]

    @given(st.integers(0, 10_000), st.integers(1, 200), st.integers(1, 2), st.integers(1, 6), st.integers(1, 3))
    def test_rank_error_within_slab_population(self, seed, n, d, y, k):
        rng = np.random.default_rng(seed)
        ds = Dataset(rng.uniform(-10, 10, size=(n, d)))
        grid = build_grid(ds, GridConfig(y, k, dims=d))
        dim = seed % d
        v = grid_find_median(grid, dim)
        values = ds.coords[:, dim]
        first, last = sort_median_rank(values, v)
        assert first <= last, "returned value must occur in the data"
        target = (n + 1) // 2
        cubes = grid.config.cubes_per_dim
        slab = np.floor((values - grid.mins[dim]) / (grid.widths[dim] or 1.0)).clip(0, cubes - 1)
        max_slab = int(np.bincount(slab.astype(int), minlength=cubes).max())
        distance = 0 if first <= target <= last else min(abs(first - target), abs(last - target))
        assert distance <= max_slab

    @given(
        st.integers(0, 10_000),
        st.integers(1, 200),
        st.integers(1, 3),
        st.integers(1, 6),
        st.integers(1, 3),
        st.booleans(),
    )
    def test_equals_slab_walk_oracle(self, seed, n, d, y, k, ties):
        rng = np.random.default_rng(seed)
        coords = rng.integers(0, 5, size=(n, d)).astype(float) if ties else rng.uniform(-10, 10, size=(n, d))
        if d == 3:
            coords[:, 2] = 1.5  # a zero-width dimension
        grid = build_grid(Dataset(coords), GridConfig(y, k, dims=d))
        for dim in range(d):
            assert grid_find_median(grid, dim) == slab_walk_oracle(coords[:, dim], grid.config.cubes_per_dim)

    def test_empty_grid_impossible_but_bad_dim_errors(self):
        ds = random_dataset(5, 10, 2)
        grid = build_grid(ds, GridConfig(1, 1, dims=2))
        with pytest.raises(ValueError):
            grid_find_median(grid, 2)


class TestStats:
    def test_one_point_in_four_cubes(self):
        ds = Dataset([[0.0, 0.0], [10.0, 10.0]])
        grid = build_grid(ds, GridConfig(1, 1, dims=2))
        stats = grid_stats(grid)
        assert stats.total_cubes == 4
        assert stats.occupied == 2
        assert stats.empty == 2
        assert stats.occupied_fraction == 0.5

    def test_sparsity_on_moderate_dims(self):
        ds = random_dataset(6, 1000, 8)
        grid = build_grid(ds, GridConfig(2, 1, dims=8))
        stats = grid_stats(grid)
        assert stats.total_cubes == 6561
        assert stats.occupied_fraction < 0.2
        assert stats.empty > stats.occupied

    def test_json_fields(self):
        ds = random_dataset(7, 50, 2)
        stats = grid_stats(build_grid(ds, GridConfig(2, 1, dims=2)))
        doc = json.loads(stats.to_json())
        assert set(doc) == {"M", "occupied", "empty", "max_load", "mean_nonzero_load", "occupied_fraction"}
        assert doc["M"] == 9  # (2*1 + 1) ** 2
