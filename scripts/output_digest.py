#!/usr/bin/env python3
"""Print one sha256 over the outputs of fixed-seed builds.

Run it on two checkouts; equal digests mean every covered build wrote the same
tree JSON, the same assignment CSV bytes and the same leaf ids (or failed with
the same message). ``scan_count`` is left out, so a change of that counter
alone does not move the digest.

Covered: kd, and vtree with random, gnat, kmeanspp and median seeding (seeds
0 and 1), at m in {2, 5, 16} and eps in {0, 0.5}, on a float set, a set where
every location repeats and a set with custom ids.

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
from spacepart.kdtree import kd_partition, kd_tree_to_json  # noqa: E402
from spacepart.vtree import build_vtree, vtree_to_json  # noqa: E402

STRATEGIES = ("random", "gnat", "kmeanspp", "median")
SEEDS = (0, 1)
M_VALUES = (2, 5, 16)
EPS_VALUES = (0.0, 0.5)


def datasets():
    rng = np.random.default_rng(20160401)
    floats = Dataset(rng.uniform(-10.0, 10.0, size=(90, 3)))
    locations = rng.integers(0, 4, size=(9, 2)).astype(float)
    duplicates = Dataset(locations[rng.permutation(np.repeat(np.arange(9), 7))])
    custom_ids = Dataset(rng.normal(size=(70, 4)), ids=rng.permutation(1000)[:70] * 3 + 7)
    return {"float": floats, "duplicates": duplicates, "custom-ids": custom_ids}


def builds():
    for name, ds in datasets().items():
        for m in M_VALUES:
            for eps in EPS_VALUES:
                yield f"{name} kd m={m} eps={eps}", lambda ds=ds, m=m, eps=eps: kd_partition(ds, m, eps=eps)
                for strategy in STRATEGIES:
                    for seed in SEEDS:
                        yield (
                            f"{name} vtree:{strategy} seed={seed} m={m} eps={eps}",
                            lambda ds=ds, m=m, eps=eps, s=strategy, seed=seed: build_vtree(
                                ds, m, strategy=s, eps=eps, seed=seed
                            ),
                        )


def outputs(tree, csv_path) -> bytes:
    if hasattr(tree, "leaf_nodes"):
        tree_json, assignment, leaf_ids = vtree_to_json(tree), tree.leaf_assignment, sorted(tree.leaf_nodes)
    else:
        tree_json, assignment, leaf_ids = kd_tree_to_json(tree), tree.assignment, sorted(tree.leaf_sizes)
    write_assignment_csv(assignment, csv_path)
    return b"\0".join([tree_json.encode(), Path(csv_path).read_bytes(), repr(leaf_ids).encode()])


def main():
    digest = hashlib.sha256()
    count = 0
    with tempfile.TemporaryDirectory() as tmp:
        csv_path = os.path.join(tmp, "assignment.csv")
        for label, build in builds():
            try:
                payload = outputs(build(), csv_path)
            except ValueError as e:
                payload = f"error: {e}".encode()
            digest.update(label.encode() + b"\0" + payload + b"\n")
            count += 1
    print(f"{count} builds  sha256 {digest.hexdigest()}")


if __name__ == "__main__":
    main()
