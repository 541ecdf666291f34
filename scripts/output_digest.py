#!/usr/bin/env python3
"""Print eight sha256 digests: build outputs, query answers, grid answers, 1024-d queries, assignment CSVs,
variances, builds over several variance blocks and vtree builds whose distance columns read several blocks.

Run it on two checkouts; equal build digests (first line) mean every covered
build wrote the same tree JSON, the same assignment CSV bytes and the same leaf
ids (or failed with the same message). ``scan_count`` is left out, so a change
of that counter alone does not move the digest. Equal query digests (second
line) mean every vtree build that did not fail answered 20 fixed probes per
dataset with the same ``route_point_counted`` leaf and comparison count and the
same ``affected_partitions`` set at the build's eps. Equal grid digests (third
line) mean every fixed grid reported the same ``grid_stats`` JSON, the same
``grid_find_median`` in every dimension, the same ``locate_cube`` for every
row, and the same error text for finite probes just outside each bound. Equal
high-dimensional query digests (fourth line) mean the same answers, in the
same three parts, for 40 fixed probes through 1024-d trees, where every
distance is a 1024-term dot product. Equal CSV digests (fifth line) mean
``write_assignment_csv`` wrote the same bytes for fixed custom-id assignments,
whose ids in shuffled order take every decimal width from 1 to 19 digits and
either sign, at m up to 70000, with no, some or all rows affected. Equal
variance digests (sixth line) mean ``variance_per_dimension``, the
split-dimension variance of kd and median seeding, returned the same bytes on
fixed datasets far from the origin. Equal block digests (seventh line) mean
kd and median-seeded vtree builds with nodes larger than one 16 MB block,
whose column variances read them a piece at a time (``core._piece_rows``),
wrote the same tree JSON, assignment CSV bytes and leaf ids. Equal
column-block digests (eighth line) mean the same of random, gnat and kmeans++
vtree builds in which some node under half of the dataset is larger than one
block, so that its distance columns read it a piece at a time. Lines 1, 7 and
8 hash tree JSON, in which each vtree center is its id and ``coords_b64``, the
base64 of its float64 bytes, so they equal between checkouts only if every
center's coordinates do bit for bit.

Lines 3, 5, 6 and 7 go through no BLAS call, so they do not depend on the
BLAS library or its thread count, and ``tests/test_output_digest.py`` pins
them. Lines 1, 2, 4 and 8 go through threaded matrix-vector products and are
compared by running this script on two checkouts.

Covered: kd, and vtree with random, gnat, kmeanspp and median seeding (seeds
0 and 1), at m in {2, 5, 16} and eps in {0, 0.5}, on a float set, a set where
every location repeats and a set with custom ids. Grids: y in {1, 2, 3} and k in
{1, 2} over 1-d data with ties, 2-d data with a zero-width dimension, and 8-d
data with both. High-dimensional queries: a 600x1024 Gaussian mixture, vtree
with kmeanspp seeding at m=16 and eps in {0, 0.25}. CSVs: the ids at each width's edges
plus 0, 50 or 40000 random ones, at m in {1, 7, 256, 70000}. Variances: normal
data of n in {1, 2, 17, 4097} rows and d in {1, ..., 9, 64, 1024} columns, shifted
by 0, 1e4, 1e8 and -1e12. Blocks: a 5000x1024 Gaussian mixture at m=16 and eps
0.25, and 300000x8 uniform data at m=32 and eps 0.2, both from seed 1. Column
blocks: the same 5000x1024 mixture at m=16 and eps 0.25, vtree seeds 0 and 1.

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

from spacepart.core import (  # noqa: E402
    Dataset,
    PartitionAssignment,
    generate_gaussian_mixture,
    generate_uniform,
    variance_per_dimension,
    write_assignment_csv,
)
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
HD_PROBES = 40
HD_EPS_VALUES = (0.0, 0.25)
CSV_ROWS = (0, 50, 40000)
CSV_M_VALUES = (1, 7, 256, 70000)
CSV_AFFECTED = (0.0, 0.5, 1.0)
VAR_ROWS = (1, 2, 17, 4097)
VAR_DIMS = (*range(1, 10), 64, 1024)
VAR_OFFSETS = (0.0, 1e4, 1e8, -1e12)
BLOCK_SEED = 1
BLOCK_MIXTURE = (5000, 1024, 8)


def datasets():
    rng = np.random.default_rng(20160401)
    floats = Dataset(rng.uniform(-10.0, 10.0, size=(90, 3)))
    locations = rng.integers(0, 4, size=(9, 2)).astype(float)
    duplicates = Dataset(locations[rng.permutation(np.repeat(np.arange(9), 7))])
    custom_ids = Dataset(rng.normal(size=(70, 4)), ids=rng.permutation(1000)[:70] * 3 + 7)
    return {"float": floats, "duplicates": duplicates, "custom-ids": custom_ids}


def probes(ds, count=PROBES):
    """Half build points, half build points moved by noise; drawn from their own generator."""
    rng = np.random.default_rng(20160402)
    out = ds.coords[rng.integers(ds.n, size=count)]
    out[count // 2 :] += rng.normal(0.0, 0.5, size=(count - count // 2, ds.dims))
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


def csv_assignments():
    """(label, assignment) for custom ids of every decimal width, in shuffled order."""
    rng = np.random.default_rng(20160405)
    edges = [0, 2**62, 2**63 - 1, -1, -10, -(2**63)] + [v for k in range(1, 19) for v in (10**k - 1, 10**k)]
    for rows in CSV_ROWS:
        for m in CSV_M_VALUES:
            for share in CSV_AFFECTED:
                # a random 63-bit value shifted right by 0 to 62 bits: every width is common
                spread = rng.integers(0, 2**63 - 1, size=rows, dtype=np.int64) >> rng.integers(0, 63, size=rows)
                ids = rng.permutation(np.unique(np.concatenate([spread, edges])))
                labels = rng.integers(0, m, size=ids.size)
                affected = ids[rng.random(ids.size) < share]
                yield f"csv rows={ids.size} m={m} affected={share}", PartitionAssignment.from_arrays(m, ids, labels, affected)


def variance_datasets():
    """(label, dataset) of normal data with a spread per column, shifted far from the origin."""
    rng = np.random.default_rng(20160406)
    for n in VAR_ROWS:
        for d in VAR_DIMS:
            coords = rng.normal(size=(n, d)) * rng.uniform(0.1, 100.0, size=d)
            for offset in VAR_OFFSETS:
                yield f"variance {n}x{d} offset={offset}", Dataset(coords + offset)


def block_builds():
    """(label, build) of kd and median vtree builds whose nodes span several variance blocks."""
    for label, ds, m, eps in (
        ("5000x1024 mixture", generate_gaussian_mixture(*BLOCK_MIXTURE, seed=BLOCK_SEED), 16, 0.25),
        ("300000x8 uniform", generate_uniform(300000, 8, seed=BLOCK_SEED), 32, 0.2),
    ):
        yield f"{label} kd m={m} eps={eps}", lambda ds=ds, m=m, eps=eps: kd_partition(ds, m, eps=eps)
        yield (
            f"{label} vtree:median m={m} eps={eps}",
            lambda ds=ds, m=m, eps=eps: build_vtree(ds, m, strategy="median", eps=eps, seed=0),
        )


def column_block_builds():
    """(label, build) of random, gnat and kmeans++ vtree builds with a node under half of the data over one block."""
    ds = generate_gaussian_mixture(*BLOCK_MIXTURE, seed=BLOCK_SEED)
    for strategy in STRATEGIES[:3]:
        for seed in SEEDS:
            yield (
                f"5000x1024 mixture vtree:{strategy} seed={seed} m=16 eps=0.25",
                lambda s=strategy, seed=seed: build_vtree(ds, 16, strategy=s, eps=0.25, seed=seed),
            )


def build_digest(builds) -> tuple[int, str]:
    """The number of builds and the sha256 of their labels and ``outputs``."""
    digest = hashlib.sha256()
    count = 0
    with tempfile.TemporaryDirectory() as tmp:
        csv_path = os.path.join(tmp, "assignment.csv")
        for label, build in builds:
            digest.update(label.encode() + b"\0" + outputs(build(), csv_path) + b"\n")
            count += 1
    return count, digest.hexdigest()


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


def build_and_query_lines() -> list[str]:
    """Lines 1 and 2: the small builds' outputs and their vtrees' query answers."""
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
    return [
        f"{count} builds  sha256 {digest.hexdigest()}",
        f"{queried} vtree builds x {PROBES} probes  sha256 {query_digest.hexdigest()}",
    ]


def grid_line() -> str:
    grid_digest = hashlib.sha256()
    grids = 0
    for name, ds in grid_datasets().items():
        for y in GRID_Y:
            for k in GRID_K:
                grid_digest.update(f"{name} y={y} k={k}".encode() + b"\0" + grid_answers(ds, y, k) + b"\n")
                grids += 1
    return f"{grids} grids  sha256 {grid_digest.hexdigest()}"


def hd_query_line() -> str:
    hd_digest = hashlib.sha256()
    hd = generate_gaussian_mixture(600, 1024, 8, seed=20160404)
    hd_queries = probes(hd, HD_PROBES)
    for eps in HD_EPS_VALUES:
        tree = build_vtree(hd, 16, strategy="kmeanspp", eps=eps, seed=0)
        label = f"1024-d vtree:kmeanspp eps={eps}"
        hd_digest.update(label.encode() + b"\0" + answers(tree, hd_queries, eps) + b"\n")
    return f"{len(HD_EPS_VALUES)} 1024-d vtree builds x {HD_PROBES} probes  sha256 {hd_digest.hexdigest()}"


def csv_line() -> str:
    csv_digest = hashlib.sha256()
    files = 0
    with tempfile.TemporaryDirectory() as tmp:
        csv_path = os.path.join(tmp, "assignment.csv")
        for label, assignment in csv_assignments():
            write_assignment_csv(assignment, csv_path)
            csv_digest.update(label.encode() + b"\0" + Path(csv_path).read_bytes() + b"\n")
            files += 1
    return f"{files} assignment CSVs  sha256 {csv_digest.hexdigest()}"


def variance_line() -> str:
    var_digest = hashlib.sha256()
    sets = 0
    for label, ds in variance_datasets():
        var_digest.update(label.encode() + b"\0" + variance_per_dimension(ds).tobytes() + b"\n")
        sets += 1
    return f"{sets} variance datasets  sha256 {var_digest.hexdigest()}"


def block_line() -> str:
    return "%d builds over several variance blocks  sha256 %s" % build_digest(block_builds())


def column_block_line() -> str:
    return "%d vtree builds over several column blocks  sha256 %s" % build_digest(column_block_builds())


def main():
    lines = build_and_query_lines()
    lines += [grid_line(), hd_query_line(), csv_line(), variance_line(), block_line(), column_block_line()]
    print("\n".join(lines))


if __name__ == "__main__":
    main()
