"""Workload definitions and their inputs, generated from the workload seed.

Every workload runs the same closed loop of operations (one client, one
operation at a time): ``spacepart partition`` with the kd-tree and with the
Voronoi split tree, the two in-process builds, ``spacepart grid-stats`` and a
batch of point queries through vtrees built in set-up. What differs is the
data, and so which layer dominates: ``partition-hd`` streams a file larger
than the last-level cache through the distance kernel, ``partition-ld``
spends its time in the Python split driver, the kd quickselect and the
assignment CSV.

The grid is infeasible at d=1024 (3^1024 cubes), so on ``partition-hd``
``grid-stats`` runs on a second file holding the leading ``GRID_DIMS``
coordinates of the same points. On ``partition-ld`` it runs on the data file.

The program receives only the files and arrays made here; nothing in the
program decides what the data looks like.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

FANOUT = 2
SEEDING = "kmeanspp"
CLUSTERS = 8
SPREAD = 5.0
PROBE_NOISE = 1.0
GRID_DIMS = 8
GRID_Y = 2
GRID_K = 1
GRID_PER_REP = 2
QUERY_TREES = 4
MIN_REPS = 6


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    d: int
    data: str  # "mixture" or "uniform"
    m: int
    eps: float
    probes: int  # queries per repetition, the same probes every time


WORKLOADS = {
    w.name: w
    for w in (
        Workload("partition-hd", n=20000, d=1024, data="mixture", m=64, eps=0.25, probes=1000),
        Workload("partition-ld", n=200000, d=8, data="uniform", m=256, eps=0.2, probes=1000),
    )
}


def toy(w: Workload) -> Workload:
    """The same workload at a size that runs in well under a second."""
    return replace(w, n=min(w.n, 600), d=min(w.d, 16), m=min(w.m, 8), probes=min(w.probes, 40))


def vtree_seed(seed: int, tree: int) -> int:
    """The vtree ``--seed`` of a run's tree number ``tree``.

    Set-up builds trees 0 to ``QUERY_TREES - 1`` for the queries; repetition
    r builds tree ``QUERY_TREES + r`` in-process and the CLI builds it again.
    Route latency and balance depend on the tree's shape as much as on the
    data (per-probe p99 differs by 2x between two seeds on one dataset), so
    the probes go through several trees in turn and balance is a median over
    several trees.
    """
    return int(np.random.SeedSequence([seed, tree]).generate_state(1)[0] >> 1)


def write_ndpt(path: Path, coords: np.ndarray) -> None:
    """The program's binary format: b'NDPT', u32 n, u32 d, row-major <f8."""
    with open(path, "wb") as f:
        f.write(b"NDPT")
        f.write(struct.pack("<II", *coords.shape))
        f.write(np.ascontiguousarray(coords, dtype="<f8").tobytes())


@dataclass
class Inputs:
    coords: np.ndarray
    probes: np.ndarray
    data_path: Path
    grid_path: Path


def make_inputs(w: Workload, seed: int, workdir: Path) -> Inputs:
    """Generate the points and probes of one run and write the input files."""
    rng = np.random.default_rng([seed, zlib.crc32(w.name.encode())])
    if w.data == "mixture":
        centers = rng.uniform(0.0, 100.0, size=(CLUSTERS, w.d))
        coords = centers[np.arange(w.n) % CLUSTERS] + rng.normal(0.0, SPREAD, size=(w.n, w.d))
    else:
        coords = rng.uniform(0.0, 100.0, size=(w.n, w.d))
    rows = rng.integers(w.n, size=w.probes)
    probes = coords[rows] + rng.normal(0.0, PROBE_NOISE, size=(w.probes, w.d))
    data_path = workdir / "data.bin"
    write_ndpt(data_path, coords)
    if w.d > GRID_DIMS:
        grid_path = workdir / "grid.bin"
        write_ndpt(grid_path, coords[:, :GRID_DIMS])
    else:
        grid_path = data_path
    return Inputs(coords, probes, data_path, grid_path)


def grid_oracle(coords: np.ndarray) -> dict:
    """Occupancy of the equal-width grid, computed without the program.

    Each dimension of the bounding box is cut into ``GRID_K*GRID_Y + 1``
    intervals; a point on the upper bound belongs to the last one.
    """
    cubes = GRID_K * GRID_Y + 1
    mins, maxs = coords.min(axis=0), coords.max(axis=0)
    widths = (maxs - mins) / cubes
    safe = np.where(widths > 0, widths, 1.0)
    cells = np.clip(np.floor((coords - mins) / safe).astype(np.int64), 0, cubes - 1)
    cells[:, widths == 0] = 0
    _, loads = np.unique(cells, axis=0, return_counts=True)
    total = cubes ** coords.shape[1]
    return {"M": total, "occupied": len(loads), "empty": total - len(loads), "max_load": int(loads.max())}
