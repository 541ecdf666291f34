"""Seed selection strategies for Voronoi splits.

Four ways to pick the k split centers of one node:

- ``random``: uniform sample without replacement. No balance guarantee either
  way; every load distribution is equally likely.
- ``gnat``: greedy farthest-point spread. After a uniform first pick, each
  next seed maximizes the *sum* of distances to the seeds chosen so far.
- ``kmeanspp``: squared-distance weighted sampling. Each next seed is drawn
  with probability proportional to its squared distance from the nearest
  already-chosen seed, which gravitates toward cluster centroids.
- ``median``: the two points straddling the median of the highest-variance
  dimension, reproducing an axis median split (fanout 2 only). The axis
  comes from ``core._widest_axis``, the kd-tree's split-dimension choice, so
  on the same rows both pick the same axis.

Every strategy is a pure function of (points, k, seed): ties break toward the
lowest point id and sampling uses an inverse-CDF over an explicit uniform
variate, so results are independent of evaluation order.

random, gnat and kmeanspp run through one selector, ``select_positions``,
over a squared-distance column provider: the public ``seeds_*`` functions
pass the exact elementwise column, the Voronoi tree build passes its
expansion kernel. ``SeedStrategy`` holds the one check of a strategy name.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import STRATEGY_KINDS, Point, _widest_axis, as_point_arrays, make_rng
from .kdtree import select_median

__all__ = [
    "STRATEGY_KINDS",
    "SeedStrategy",
    "SeedSet",
    "seeds_random",
    "seeds_gnat",
    "seeds_kmeanspp",
    "seeds_median",
    "weighted_index",
    "sq_column",
]


@dataclass(frozen=True)
class SeedStrategy:
    """A strategy kind plus the seed that makes its draws reproducible."""

    kind: str
    seed: int = 0

    def __post_init__(self):
        if self.kind not in STRATEGY_KINDS:
            raise ValueError(f"unknown seeding strategy {self.kind!r}, expected one of {STRATEGY_KINDS}")


@dataclass(frozen=True)
class SeedSet:
    """Ordered centers drawn from the input point set, in selection order."""

    centers: tuple[Point, ...]

    def __post_init__(self):
        ids = [c.id for c in self.centers]
        if len(self.centers) < 1:
            raise ValueError("a seed set needs at least one center")
        if len(set(ids)) != len(ids):
            raise ValueError("seed centers must be distinct points")

    @property
    def k(self) -> int:
        return len(self.centers)


def weighted_index(weights: np.ndarray, u: float) -> int:
    """Inverse-CDF bucket of a uniform variate u in [0, 1) under the given weights.

    Zero-weight entries have empty buckets and can never be returned. The total
    weight must be positive.
    """
    weights = np.asarray(weights, dtype=np.float64)
    cum = np.cumsum(weights)
    total = cum[-1]
    if not total > 0:
        raise ValueError("total weight must be positive")
    return int(np.searchsorted(cum, u * total, side="right"))


def sq_column(coords: np.ndarray, center: np.ndarray) -> np.ndarray:
    """Exact squared distances from every row to one center (no expansion tricks)."""
    diff = coords - center
    return np.einsum("ij,ij->i", diff, diff)


def _pick_lowest_id(candidates: np.ndarray, ids: np.ndarray) -> int:
    return int(candidates[np.argmin(ids[candidates])])


def _seed_set(coords, ids, positions) -> SeedSet:
    return SeedSet(tuple(Point(int(ids[i]), coords[i]) for i in positions))


def select_positions(kind: str, ids: np.ndarray, k: int, rng: np.random.Generator, column, node_coords):
    """The one selector behind ``seeds_*`` and the tree build: k positions plus their columns.

    ``kind`` is random, gnat or kmeanspp (median seeding works on one axis,
    not on distance columns) and the caller has already checked that k fits.
    ``column(p)`` returns the squared distances from every point to the point
    at position ``p``; ``node_coords()`` returns the points' coordinate rows
    and is only called to count distinct locations when kmeans++ runs out of
    them. kmeans++ and farthest-sum selection reuse the columns they compute
    while sampling, so k seeds cost k column passes.
    """
    n = len(ids)
    if kind == "random":
        positions = [int(i) for i in rng.choice(n, size=k, replace=False)]
        return positions, [column(p) for p in positions]
    first = int(rng.integers(n))
    positions = [first]
    cols = [column(first)]
    if kind == "kmeanspp":
        nearest = cols[0].copy()
        while len(positions) < k:
            if not nearest.sum() > 0:
                distinct = len(np.unique(node_coords(), axis=0))
                raise ValueError(
                    f"cannot place {k} centers: the points span only {distinct} distinct locations"
                )
            nxt = weighted_index(nearest, float(rng.random()))
            positions.append(nxt)
            cols.append(column(nxt))
            if len(positions) < k:  # the weights of the next draw; nothing reads them after the last
                np.minimum(nearest, cols[-1], out=nearest)
    else:
        # greedy farthest-sum: the next seed is the unchosen point with the
        # largest sum of Euclidean distances to the seeds so far, lowest id on ties
        sum_dist = np.sqrt(cols[0])
        chosen = np.zeros(n, dtype=bool)
        chosen[first] = True
        while len(positions) < k:
            masked = np.where(chosen, -np.inf, sum_dist)
            nxt = _pick_lowest_id(np.flatnonzero(masked == masked.max()), ids)
            positions.append(nxt)
            chosen[nxt] = True
            cols.append(column(nxt))
            sum_dist = sum_dist + np.sqrt(cols[-1])
    return positions, cols


def _select(kind: str, points, k: int, rng, least: int) -> SeedSet:
    coords, ids = as_point_arrays(points)
    n = coords.shape[0]
    if not least <= k <= n:
        need = f" (need {least} <= k <= n)" if least > 1 else ""
        raise ValueError(f"cannot draw {k} seeds from {n} points{need}")
    positions, _ = select_positions(
        kind, ids, k, make_rng(rng), lambda p: sq_column(coords, coords[p]), lambda: coords
    )
    return _seed_set(coords, ids, positions)


def seeds_random(points, k: int, rng) -> SeedSet:
    """k distinct points sampled uniformly without replacement."""
    return _select("random", points, k, rng, least=1)


def seeds_gnat(points, k: int, rng) -> SeedSet:
    """Farthest-sum greedy seeds: maximize total distance to the seeds so far."""
    return _select("gnat", points, k, rng, least=2)


def seeds_kmeanspp(points, k: int, rng) -> SeedSet:
    """Squared-distance weighted sampling after a uniform first center.

    Each round samples the next center with probability proportional to the
    squared distance to the nearest chosen center; points at distance zero can
    never be drawn. Raises when the points offer fewer distinct locations than
    requested centers.
    """
    return _select("kmeanspp", points, k, rng, least=2)


def seeds_median(points, k: int = 2) -> SeedSet:
    """The two points straddling the median of the highest-variance dimension.

    Returns (below, above): the point with the largest coordinate <= median and
    the point with the smallest coordinate strictly above it, ties broken by
    lowest id. A Voronoi split compared along that dimension reproduces an axis
    median split. Only defined for k = 2.
    """
    coords, ids = as_point_arrays(points)
    positions, _ = median_positions(coords, ids, k)
    return _seed_set(coords, ids, positions)


def median_positions(coords: np.ndarray, ids: np.ndarray, k: int = 2) -> tuple[list[int], int]:
    """Straddling pair around the axis median; also returns the chosen axis."""
    if k != 2:
        raise ValueError(f"median seeding only supports k=2, got k={k}")
    n = coords.shape[0]
    if n < 2:
        raise ValueError("median seeding needs at least 2 points")
    axis = _widest_axis(coords)
    col = coords[:, axis]
    median = select_median(col)

    below = np.flatnonzero(col <= median)
    below_best = below[col[below] == col[below].max()]
    lo = _pick_lowest_id(below_best, ids)

    above = np.flatnonzero(col > median)
    if len(above) == 0:
        raise ValueError(f"no point lies above the median along dimension {axis}; cannot straddle it")
    above_best = above[col[above] == col[above].min()]
    hi = _pick_lowest_id(above_best, ids)
    return [lo, hi], axis
