"""Baseline partitioner: recursive median splits on the highest-variance dimension.

Each split takes the highest-variance dimension of the points at that node
from ``core._widest_axis``, the argmax of ``core._column_variance``, the
routine behind ``variance_per_dimension`` and median seeding, so all three
pick the same axis for the same rows. It finds the lower median along that
dimension with ``np.partition``, and routes points left/right with a
deterministic tie rule that guarantees the two sides differ by at most one
point. Leaves are the partitions.

The split reads a node's rows in the dataset, and its variance reads them
as ``core._piece_rows`` says (a copy of the node up to one 16 MB block, a
piece at a time beyond and at the root); its split dimension is one column
of them. So a split whose variances are finite holds at most one block on
top of the dataset up to ``core._EINSUM_MAX_COLUMNS`` columns, where the
copy takes its own deviations, and at most two with wider rows (see
``core._widest_axis``).

``scan_count`` counts rows read: one pass each for variance, selection and
labelling per split, plus the eps band pass when eps > 0 (at eps = 0 the band
is the set of median ties the labelling pass already found). The benchmark
uses it to expose how much repeated scanning the scheme needs compared to a
Voronoi split tree.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Optional, Union

import numpy as np

from .core import Dataset, PartitionAssignment, _widest_axis, split_largest_leaf

__all__ = [
    "KdNode",
    "KdPartitionTree",
    "select_rank",
    "select_median",
    "kd_partition",
    "kd_route",
    "kd_tree_to_dict",
    "kd_tree_to_json",
]


def select_rank(values, rank: int) -> float:
    """Value at the given 0-based rank of the sorted order of a 1-D sequence.

    Selection is ``np.partition`` (C introselect) on a copy of the values; the
    result is a pure function of the input. A zero comes back as +0.0 whatever
    the sign of the zero selected, so a median never depends on row order.
    """
    vals = np.asarray(values, dtype=np.float64)
    if vals.ndim != 1:
        raise ValueError(f"expected a 1-D sequence, got shape {vals.shape}")
    if not len(vals):
        raise ValueError("cannot select from an empty sequence")
    if not 0 <= rank < len(vals):
        raise ValueError(f"rank {rank} out of range for {len(vals)} values")
    return float(np.partition(vals, rank)[rank]) + 0.0  # -0.0 + 0.0 is +0.0


def select_median(values) -> float:
    """Lower median: the element at rank floor((len-1)/2) of the sorted order."""
    n = len(values)
    if n == 0:
        raise ValueError("cannot take the median of an empty sequence")
    return select_rank(values, (n - 1) // 2)


@dataclass
class KdNode:
    """One median split. ``left``/``right`` are child nodes or leaf partition ids.

    Points with coordinate strictly below ``split_value`` go left, strictly
    above go right; points exactly at the median go left in ascending id order
    until the left side holds ceil(count/2) points (``tie_left_max_id`` records
    the largest id sent left, None when no tie point went left).
    """

    split_dim: int
    split_value: float
    point_count: int
    left: Union["KdNode", int]
    right: Union["KdNode", int]
    tie_left_max_id: Optional[int]


@dataclass
class KdPartitionTree:
    root: Union[KdNode, int]
    leaf_count: int
    assignment: PartitionAssignment
    eps: float
    scan_count: int
    leaf_sizes: dict[int, int]


def kd_partition(ds: Dataset, m: int, eps: float = 0.0) -> KdPartitionTree:
    """Split a dataset into m partitions by recursive median splitting.

    Splits the currently largest leaf (ties: lowest leaf id) until m leaves
    exist; every split halves its node to within one point. A point is
    affected when it lies within ``eps`` of any split hyperplane on its own
    root-to-leaf path.

    ``core.split_largest_leaf`` runs the loop and owns the rows; each split
    here cuts one node at the median, reading its rows in the dataset, and
    hangs it from its slot.
    """
    if m < 1:
        raise ValueError("m must be at least 1")
    if m > ds.n:
        raise ValueError(f"cannot make {m} partitions from {ds.n} points")
    if not eps >= 0:
        raise ValueError("eps must be non-negative")

    top = SimpleNamespace(root=0)  # the slot the root hangs from
    scan = 0

    def split(slot, rows, room):
        nonlocal scan
        n_node = ds.n if rows is None else len(rows)

        split_dim = _widest_axis(ds.coords, rows)
        col = ds.coords[:, split_dim] if rows is None else ds.coords[rows, split_dim]
        median = select_median(col)

        left_mask = col < median
        eq_pos = np.flatnonzero(col == median)
        need = (n_node + 1) // 2 - int(left_mask.sum())
        eq_ids = ds.ids[eq_pos if rows is None else rows[eq_pos]]
        order = np.argsort(eq_ids, kind="stable")
        left_mask[eq_pos[order[:need]]] = True
        tie_left_max_id = int(eq_ids[order[need - 1]]) if need > 0 else None
        scan += 3 * n_node  # variance, selection, labelling

        if eps > 0:
            near = np.abs(col - median) <= eps
            scan += n_node
        else:  # |col - median| <= 0 is exactly the tie set found above
            near = eq_pos

        kd_node = KdNode(split_dim=split_dim, split_value=median, point_count=n_node,
                         left=None, right=None, tie_left_max_id=tie_left_max_id)
        setattr(*slot, kd_node)
        return ~left_mask, near, [(kd_node, "left"), (kd_node, "right")]

    leaves, label_rows, affected = split_largest_leaf(ds.n, m, split, (top, "root"))
    for lid, (slot, _) in leaves.items():
        setattr(*slot, lid)
    assignment = PartitionAssignment.from_arrays(m, ds.ids, label_rows, ds.ids[affected])
    return KdPartitionTree(
        root=top.root,
        leaf_count=m,
        assignment=assignment,
        eps=eps,
        scan_count=scan,
        leaf_sizes={lid: len(rows) for lid, (_, rows) in leaves.items()},
    )


def kd_route(tree: KdPartitionTree, point_id: int, coords) -> int:
    """Replay the recorded routing of a build point; returns its leaf id.

    Intended for verification: ties at a median are resolved with the recorded
    id cutoff, so this reproduces the build-time assignment exactly.
    """
    coords = np.asarray(coords, dtype=np.float64)
    node = tree.root
    while isinstance(node, KdNode):
        v = coords[node.split_dim]
        if v < node.split_value:
            node = node.left
        elif v > node.split_value:
            node = node.right
        elif node.tie_left_max_id is not None and point_id <= node.tie_left_max_id:
            node = node.left
        else:
            node = node.right
    return node


def kd_tree_to_dict(tree: KdPartitionTree) -> dict:
    def rec(node):
        if isinstance(node, KdNode):
            return {
                "split_dim": node.split_dim,
                "split_value": node.split_value,
                "count": node.point_count,
                "tie_left_max_id": node.tie_left_max_id,
                "left": rec(node.left),
                "right": rec(node.right),
            }
        return {"leaf": node, "count": tree.leaf_sizes[node]}

    return {"kind": "kdtree", "leaf_count": tree.leaf_count, "eps": tree.eps, "root": rec(tree.root)}


def kd_tree_to_json(tree: KdPartitionTree) -> str:
    return json.dumps(kd_tree_to_dict(tree), sort_keys=True)
