#!/usr/bin/env python3
"""Print three sha256 digests: over fixed-seed build outputs, query answers and grid answers.

Run it on two checkouts; equal build digests (first line) mean every covered
build wrote the same tree JSON, the same assignment CSV bytes and the same leaf
ids (or failed with the same message). ``scan_count`` is left out, so a change
of that counter alone does not move the digest. Equal query digests (second
line) mean every vtree build that did not fail answered 20 fixed probes per
dataset with the same ``route_point_counted`` leaf and comparison count and the
same ``affected_partitions`` set at the build's eps. Equal grid digests (third
line) mean every fixed grid reported the same ``grid_stats`` JSON, the same
``grid_find_median`` in every dimension, the same ``locate_cube`` for every
row, and the same error text for finite probes just outside each bound.

Covered: kd, and vtree with random, gnat, kmeanspp and median seeding (seeds
0 and 1), at m in {2, 5, 16} and eps in {0, 0.5}, on a float set, a set where
every location repeats and a set with custom ids. Grids: y in {1, 2, 3} and k in
{1, 2} over 1-d data with ties, 2-d data with a zero-width dimension, and 8-d
data with both.

    python scripts/output_digest.py

The script imports the package from the ``src/`` next to it, so it measures the
checkout it lives in.
"""

import hashlib
import os
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from spacepart.core import Dataset, write_assignment_csv  # noqa: E402
from spacepart.grid import GridConfig, build_grid, grid_find_median, grid_stats, locate_cube  # noqa: E402
from spacepart.kdtree import kd_partition, kd_tree_to_json  # noqa: E402
from spacepart.vtree import affected_partitions, build_vtree, route_point_counted, vtree_to_json  # noqa: E402

STRATEGIES = ("random", "gnat", "kmeanspp", "median")
SEEDS = (0, 1)
M_VALUES = (2, 5, 16)
EPS_VALUES = (0.0, 0.5)
PROBES = 20
GRID_Y = (1, 2, 3)
GRID_K = (1, 2)


def datasets():
    rng = np.random.default_rng(20160401)
    floats = Dataset(rng.uniform(-10.0, 10.0, size=(90, 3)))
    locations = rng.integers(0, 4, size=(9, 2)).astype(float)
    duplicates = Dataset(locations[rng.permutation(np.repeat(np.arange(9), 7))])
    custom_ids = Dataset(rng.normal(size=(70, 4)), ids=rng.permutation(1000)[:70] * 3 + 7)
    return {"float": floats, "duplicates": duplicates, "custom-ids": custom_ids}


def probes(ds):
    """Half build points, half build points moved by noise; drawn from their own generator."""
    rng = np.random.default_rng(20160402)
    out = ds.coords[rng.integers(ds.n, size=PROBES)]
    out[PROBES // 2 :] += rng.normal(0.0, 0.5, size=(PROBES - PROBES // 2, ds.dims))
    return out


def builds():
    """(label, build, probes, eps) per build; probes is None for kd builds, which have no query walk."""
    for name, ds in datasets().items():
        queries = probes(ds)
        for m in M_VALUES:
            for eps in EPS_VALUES:
                yield (
                    f"{name} kd m={m} eps={eps}",
                    lambda ds=ds, m=m, eps=eps: kd_partition(ds, m, eps=eps),
                    None,
                    eps,
                )
                for strategy in STRATEGIES:
                    for seed in SEEDS:
                        yield (
                            f"{name} vtree:{strategy} seed={seed} m={m} eps={eps}",
                            lambda ds=ds, m=m, eps=eps, s=strategy, seed=seed: build_vtree(
                                ds, m, strategy=s, eps=eps, seed=seed
                            ),
                            queries,
                            eps,
                        )


def grid_datasets():
    rng = np.random.default_rng(20160403)
    ties = Dataset(rng.integers(0, 6, size=(40, 1)).astype(float))
    flat = np.column_stack([rng.uniform(-3.0, 3.0, size=60), np.full(60, 2.5)])
    both = np.round(rng.normal(size=(300, 8)), 1)
    both[:, 5] = -1.0
    return {"1d-ties": ties, "2d-flat": Dataset(flat), "8d-ties-flat": Dataset(both)}


def grid_answers(ds, y, k) -> bytes:
    grid = build_grid(ds, GridConfig(y, k, dims=ds.dims))
    out = [grid_stats(grid).to_json()]
    out += [repr(grid_find_median(grid, dim)) for dim in range(ds.dims)]
    out += [str(locate_cube(row, grid)) for row in ds.coords]
    for dim in range(ds.dims):
        for edge, step in ((grid.mins, -1.0), (grid.maxs, 1.0)):
            probe = ds.coords[0].copy()
            probe[dim] = edge[dim] + step
            try:
                out.append(str(locate_cube(probe, grid)))
            except ValueError as e:
                out.append(f"error: {e}")
    return ";".join(out).encode()


def outputs(tree, csv_path) -> bytes:
    if hasattr(tree, "leaf_nodes"):
        tree_json, assignment, leaf_ids = vtree_to_json(tree), tree.leaf_assignment, sorted(tree.leaf_nodes)
    else:
        tree_json, assignment, leaf_ids = kd_tree_to_json(tree), tree.assignment, sorted(tree.leaf_sizes)
    write_assignment_csv(assignment, csv_path)
    return b"\0".join([tree_json.encode(), Path(csv_path).read_bytes(), repr(leaf_ids).encode()])


def answers(tree, queries, eps) -> bytes:
    out = []
    for p in queries:
        leaf, comparisons = route_point_counted(tree, p)
        out.append(f"{leaf}:{comparisons}:{sorted(affected_partitions(tree, p, eps))}")
    return ";".join(out).encode()


def main():
    digest, query_digest = hashlib.sha256(), hashlib.sha256()
    count = queried = 0
    with tempfile.TemporaryDirectory() as tmp:
        csv_path = os.path.join(tmp, "assignment.csv")
        for label, build, queries, eps in builds():
            try:
                tree = build()
                payload = outputs(tree, csv_path)
            except ValueError as e:
                tree, payload = None, f"error: {e}".encode()
            digest.update(label.encode() + b"\0" + payload + b"\n")
            count += 1
            if tree is not None and queries is not None:
                query_digest.update(label.encode() + b"\0" + answers(tree, queries, eps) + b"\n")
                queried += 1
    print(f"{count} builds  sha256 {digest.hexdigest()}")
    print(f"{queried} vtree builds x {PROBES} probes  sha256 {query_digest.hexdigest()}")
    grid_digest = hashlib.sha256()
    grids = 0
    for name, ds in grid_datasets().items():
        for y in GRID_Y:
            for k in GRID_K:
                grid_digest.update(f"{name} y={y} k={k}".encode() + b"\0" + grid_answers(ds, y, k) + b"\n")
                grids += 1
    print(f"{grids} grids  sha256 {grid_digest.hexdigest()}")


if __name__ == "__main__":
    main()
