"""Voronoi split tree: recursive nearest-center partitioning with seeded centers.

Each internal node holds a handful of seed centers drawn from its own points;
every point routes to its nearest center and the process repeats inside each
cell until the requested number of leaf partitions exists. Points whose
distance gap to a rival center is at most ``2*eps`` are flagged affected (for
two centers this covers everything within ``eps`` of the bisecting hyperplane,
and is a conservative superset of that band in general).

Nodes built with median seeding compare along the seeding axis only, which
makes the split coincide with an axis median split. Internal nodes never
store points, only center data and counts; the finished tree stores points in
its leaves alone. Walking the tree bottom-up yields the order in which
per-partition cluster results should be merged.

Distance kernel: ``expansion_column`` computes squared distances as
|p|^2 - 2 p.c + |c|^2 with precomputed row norms, clamped at zero. One BLAS
column per center replaces per-center subtraction passes, which is what makes
high-dimensional builds cheap; construction (seeding included) and
verification go through it.

Single-point queries (``route_point``, ``affected_partitions``) do the
kernel's float operations in the kernel's order on the 1-D probe row: one
``ddot`` per center, the BLAS call numpy also makes for the kernel's
``(1, d) @ (d,)`` product on a one-row input, and Python floats in place of
per-node arrays. So their distances equal ``VNode.squared_distances`` and
``distances_from`` bit for bit. A probe is made C-contiguous first, so that
its answers do not depend on its memory layout. A tree's first query builds
its walk table (``_walk_table``), nested tuples in which a leaf is its
partition id and a node without an axis holds one ``(center coords, center
sqnorm, child)`` entry per center, and the tree keeps it. Over the entries
the walks inline the arithmetic and keep a running minimum seeded with the
first center and replaced only on a strict ``<``: the first minimum, which is
what ``dists.index(min(dists))`` and ``np.argmin`` pick, ties and all-inf
nodes included. Axis nodes, which only median seeding makes, keep their
``VNode`` in the table and call ``_axis_distances``, one subtraction per
center. The build, the JSON and the CSV never build the table; a tree must
not be changed after its first query.

Labeller: ``_split_rows`` turns per-center columns into labels, the affected
mask and child counts, for the build and for public ``assign_to_centers``
alike; the latter feeds it the plain elementwise columns, where exact zero
self-distances matter more than throughput. ``core.split_largest_leaf``,
shared with the kd-tree, owns the split order, the node rows, the labels and
the affected rows; this module only cuts one node. ``scan_count`` counts rows
read in the kd-tree's units: n for the row norms, then the node's rows once
per distance column and once for labelling, per split attempt (median seeding:
variance, selection, two axis columns, labelling). Gathers, and the passes
over the whole dataset of a node that reads it in place, are layout, not
algorithm, and are not counted.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence, Union

import numpy as np

from .core import Dataset, PartitionAssignment, Point, as_point_arrays, make_rng, split_largest_leaf
from .seeding import SeedStrategy, median_positions, select_positions, sq_column

__all__ = [
    "VNode",
    "VTreeConfig",
    "VTree",
    "MergeStep",
    "MergeOrder",
    "assign_to_centers",
    "build_vtree",
    "route_point",
    "route_point_counted",
    "affected_partitions",
    "merge_order",
    "vtree_to_dict",
    "vtree_to_json",
]


def row_sqnorms(coords: np.ndarray) -> np.ndarray:
    return np.einsum("ij,ij->i", coords, coords)


def expansion_column(coords: np.ndarray, sqnorms: np.ndarray, center: np.ndarray, center_sqnorm) -> np.ndarray:
    """Squared distances from every row to one center: clamped |p|^2 - 2 p.c + |c|^2."""
    return np.maximum(sqnorms - 2.0 * (coords @ center) + center_sqnorm, 0.0)


@dataclass
class VNode:
    """One tree node. Leaves carry their member rows; internal nodes do not.

    ``axis`` is set on nodes split with median seeding: distances to centers
    are then measured along that dimension only, so the cell boundary is the
    axis midpoint between the two straddling seeds.
    """

    level: int
    centers: tuple[Point, ...] = ()
    center_sqnorms: tuple[float, ...] = ()
    child_counts: tuple[int, ...] = ()
    overlap_count: int = 0
    children: tuple["VNode", ...] = ()
    partition_id: Optional[int] = None
    axis: Optional[int] = None
    members: Optional[np.ndarray] = None

    @property
    def is_leaf(self) -> bool:
        return not self.children

    def squared_distances(self, coords: np.ndarray) -> np.ndarray:
        """Per-center squared distances, one expansion column per center.

        Same arithmetic as the build's column kernel, so recomputing a node's
        own rows reproduces its recorded split.
        """
        coords = np.atleast_2d(coords)
        if self.axis is not None:
            ax = np.array([c.coords[self.axis] for c in self.centers])
            diff = coords[:, self.axis : self.axis + 1] - ax[None, :]
            return diff * diff
        sqnorms = row_sqnorms(coords)
        cols = [
            expansion_column(coords, sqnorms, c.coords, sq_c)
            for c, sq_c in zip(self.centers, self.center_sqnorms)
        ]
        return np.column_stack(cols)

    def distances_from(self, coords: np.ndarray) -> np.ndarray:
        """Real distances to this node's centers (axis distance on median nodes)."""
        coords = np.atleast_2d(coords)
        if self.axis is not None:
            ax = np.array([c.coords[self.axis] for c in self.centers])
            return np.abs(coords[:, self.axis : self.axis + 1] - ax[None, :])
        return np.sqrt(self.squared_distances(coords))


@dataclass(frozen=True)
class VTreeConfig:
    fanout: int
    eps: float
    strategy: str
    partition_count: int
    seed: int


@dataclass
class VTree:
    levels: int
    root: VNode
    leaf_assignment: PartitionAssignment
    config: VTreeConfig
    scan_count: int
    leaf_nodes: dict[int, VNode]
    dims: int

    @property
    def leaf_count(self) -> int:
        return self.config.partition_count

    @cached_property
    def _walk(self):
        """The query walks' table (``_walk_table`` of the root), built on the first query."""
        return _walk_table(self.root)


def assign_to_centers(points, centers: Sequence[Point], eps: float = 0.0):
    """Assign each point to its nearest center and flag boundary points.

    Returns ``(per_center_ids, affected_ids)``: one id list per center in
    center order, and the set of assigned points whose distance gap to some
    rival center is at most ``2*eps``. Equidistant points go to the lowest
    center index and are affected for any eps >= 0.
    """
    centers = tuple(centers)
    if not centers:
        raise ValueError("need at least one center")
    if not eps >= 0:
        raise ValueError("eps must be non-negative")
    coords, ids = as_point_arrays(points)
    cols = [sq_column(coords, c.coords) for c in centers]
    labels, affected, _ = _split_rows(cols, None, eps, len(centers))
    per_center = [[int(i) for i in ids[labels == c]] for c in range(len(centers))]
    return per_center, {int(i) for i in ids[affected]}


def _split_rows(cols, axis, eps: float, k: int):
    """Labels, affected mask and child counts from per-center distance columns.

    Columns are squared distances (axis nodes: real axis distances); squared
    values order identically, and the 2*eps margin test moves to real values
    only when eps is positive. Labels go to the nearest center, ties to the
    lowest center index; a tied point is affected for any eps.
    """
    if k == 1:
        n = len(cols[0])
        return np.zeros(n, dtype=np.int64), np.zeros(n, dtype=bool), np.array([n])
    if k == 2:
        c0, c1 = cols
        labels = (c1 < c0).astype(np.int64)
        if eps == 0.0:
            affected = c0 == c1
        elif axis is not None:
            affected = np.abs(c0 - c1) <= 2.0 * eps
        else:
            affected = np.abs(np.sqrt(c0) - np.sqrt(c1)) <= 2.0 * eps
        ones = int(labels.sum())
        counts = np.array([len(labels) - ones, ones], dtype=np.int64)
        return labels, affected, counts

    dists = np.column_stack(cols)
    labels = np.argmin(dists, axis=1)
    if eps > 0.0 and axis is None:
        dists = np.sqrt(dists)
    two = np.partition(dists, 1, axis=1)
    affected = (two[:, 1] - two[:, 0]) <= 2.0 * eps
    return labels, affected, np.bincount(labels, minlength=k)


def build_vtree(
    ds: Dataset,
    m: int,
    fanout: int = 2,
    strategy: Union[str, SeedStrategy] = "kmeanspp",
    eps: float = 0.0,
    seed: Optional[int] = None,
) -> VTree:
    """Grow a Voronoi split tree until the dataset is cut into m leaf partitions.

    Always splits the currently largest leaf (ties: lowest partition id). The
    last split shrinks its fanout when fewer children are needed to reach
    exactly m leaves. A split that produces an empty child is retried once
    with fresh seed draws and then accepted (deterministic strategies
    reproduce the same split and are accepted as-is). Reproducible from the
    seed. ``core.split_largest_leaf`` runs the loop and owns the rows; this
    function only cuts one node, and gathers it first when it holds under
    half of the dataset (median seeding always gathers). Only final leaves
    get ``members``.
    """
    if not isinstance(strategy, SeedStrategy):
        strategy = SeedStrategy(strategy)
    kind = strategy.kind
    if seed is None:
        seed = strategy.seed
    if m < 1:
        raise ValueError("m must be at least 1")
    if m > ds.n:
        raise ValueError(f"cannot make {m} partitions from {ds.n} points")
    if not eps >= 0:
        raise ValueError("eps must be non-negative")
    if fanout < 2:
        raise ValueError("fanout must be at least 2")
    if kind == "median" and fanout != 2:
        raise ValueError("median seeding requires fanout 2")

    needs_sqnorms = kind != "median"
    sqnorms = None
    if needs_sqnorms:
        sqnorms = row_sqnorms(ds.coords)
        bad = int(np.argmax(sqnorms))  # the first inf, if any: its expansions would be inf or NaN
        if sqnorms[bad] == np.inf:
            raise ValueError(f"row {bad}'s squared norm overflows float64")
    rng = make_rng(seed)
    scan = ds.n if needs_sqnorms else 0

    def split(vnode, node, room):
        nonlocal scan
        if 2 * node.n < ds.n:  # the matvec's bits depend on the shape of the rows it reads
            node.gather()
        k = min(fanout, room, node.n)
        if kind == "median":
            coords = node.gather().coords
            positions, axis = median_positions(coords, node.ids, k)
            cols = [np.abs(coords[:, axis] - coords[p, axis]) for p in positions]
            labels, aff_mask, counts = _split_rows(cols, axis, eps, k)
            scan += 5 * node.n  # variance, selection, two axis columns, labelling
        else:
            axis, ids = None, node.take(node.ids)

            def column(p):
                r, sq = node.ref_row(p), node.sqnorms
                return node.take(expansion_column(node.coords, sq, node.coords[r], sq[r]))

            for attempt in (0, 1):
                positions, cols = select_positions(kind, ids, k, rng, column, lambda: node.take(node.coords))
                labels, aff_mask, counts = _split_rows(cols, None, eps, k)
                scan += (k + 1) * node.n  # k distance columns and labelling
                if counts.min() > 0 or attempt == 1:
                    break

        refs = [node.ref_row(p) for p in positions]
        vnode.centers = tuple(Point(int(node.ids[r]), node.coords[r].copy()) for r in refs)
        vnode.center_sqnorms = tuple(float(node.sqnorms[r]) for r in refs) if needs_sqnorms else ()
        vnode.child_counts = tuple(int(c) for c in counts)
        vnode.overlap_count = int(aff_mask.sum())
        vnode.axis = axis
        vnode.children = tuple(VNode(level=vnode.level + 1) for _ in range(k))
        return labels, aff_mask, vnode.children

    root = VNode(level=0)
    leaves, label_rows, affected = split_largest_leaf(ds.coords, ds.ids, sqnorms, m, split, root)

    for pid, (leaf, rows) in leaves.items():
        leaf.partition_id, leaf.members = pid, rows
    leaf_nodes = {pid: leaf for pid, (leaf, _) in sorted(leaves.items())}
    assignment = PartitionAssignment.from_arrays(m, ds.ids, label_rows, ds.ids[affected])

    levels = max(leaf.level for leaf in leaf_nodes.values())
    config = VTreeConfig(fanout=fanout, eps=eps, strategy=kind, partition_count=m, seed=int(seed))
    return VTree(
        levels=levels,
        root=root,
        leaf_assignment=assignment,
        config=config,
        scan_count=scan,
        leaf_nodes=leaf_nodes,
        dims=ds.dims,
    )


def _check_point(tree: VTree, p) -> tuple[np.ndarray, float]:
    """A validated probe as a C-contiguous 1-D float64 row plus its ``row_sqnorms`` value.

    A strided probe is copied: numpy sums a view in another order than the
    same coordinates in a contiguous row. The 1-D ``einsum`` gives the same
    float as ``row_sqnorms`` on the one-row input ``row[None, :]`` without that
    call's 2-D dispatch. The squared norm must be finite: with an infinite norm
    every distance is inf, routing falls to child 0 and the margin test
    (inf - inf) follows no child. A finite norm implies finite coordinates, so
    the norm comes first and the coordinates are scanned only when it is not
    finite, to tell non-finite coordinates from an overflowing norm.
    """
    row = np.asarray(p.coords if isinstance(p, Point) else p, dtype=np.float64, order="C")
    if row.shape != (tree.dims,):
        raise ValueError(f"point has shape {row.shape}, tree expects ({tree.dims},)")
    row_sq = float(np.einsum("i,i->", row, row))
    if not math.isfinite(row_sq):
        if not np.isfinite(row).all():
            raise ValueError("point has non-finite coordinates")
        raise ValueError("point's squared norm overflows float64")
    return row, row_sq


def _axis_distances(node: VNode, row: np.ndarray, real: bool) -> list[float]:
    """One probe's distances to an axis node's centers, bit for bit as ``distances_from``
    gives them (``real``) or ``squared_distances``."""
    v = float(row[node.axis])
    offsets = [v - float(c.coords[node.axis]) for c in node.centers]
    return [abs(t) for t in offsets] if real else [t * t for t in offsets]


def _walk_table(node: VNode):
    """The query walks' view of a subtree, in nested tuples.

    A leaf is its partition id. A node without an axis is ``(None, entries)``
    with one ``(center coords, center sqnorm, child)`` entry per center; an
    axis node is ``(node, children)``.
    """
    if node.is_leaf:
        return node.partition_id
    children = tuple(_walk_table(child) for child in node.children)
    if node.axis is not None:
        return node, children
    return None, tuple(zip([c.coords for c in node.centers], node.center_sqnorms, children))


def route_point_counted(tree: VTree, p) -> tuple[int, int]:
    """Leaf partition id for a point plus the number of distance comparisons.

    Each level takes the first center at the minimum distance, as ``np.argmin``
    does on the node kernel's row: a running minimum seeded with the first
    center and replaced only on a strict ``<`` is ``dists.index(min(dists))``,
    ties and all-inf nodes included.
    """
    row, row_sq = _check_point(tree, p)
    dot = row.dot
    t = tree._walk
    comparisons = 0
    while type(t) is tuple:
        node, entries = t
        if node is not None:
            dists = _axis_distances(node, row, real=False)
            comparisons += len(dists)
            t = entries[dists.index(min(dists))]
            continue
        comparisons += len(entries)
        coords, sq_c, best = entries[0]
        dmin = max(row_sq - 2.0 * float(dot(coords)) + sq_c, 0.0)
        for coords, sq_c, child in entries[1:]:
            d = max(row_sq - 2.0 * float(dot(coords)) + sq_c, 0.0)
            if d < dmin:
                dmin, best = d, child
        t = best
    return t, comparisons


def route_point(tree: VTree, p) -> int:
    """Descend the tree choosing the nearest center at each node."""
    return route_point_counted(tree, p)[0]


def affected_partitions(tree: VTree, p, eps: float) -> set[int]:
    """All leaves a point could interact with inside the 2*eps distance margin.

    Follows every center whose distance exceeds the node minimum by at most
    ``2*eps``; always contains the point's own routed leaf. One pass over a
    node's centers keeps the distances and a running minimum, seeded and
    updated as in ``route_point_counted``, so ``dmin`` is ``min(dists)``.
    """
    if not eps >= 0:
        raise ValueError("eps must be non-negative")
    row, row_sq = _check_point(tree, p)
    dot, margin, sqrt = row.dot, 2.0 * eps, math.sqrt
    out: set[int] = set()
    stack = [tree._walk]
    while stack:
        t = stack.pop()
        if type(t) is not tuple:
            out.add(t)
            continue
        node, entries = t
        if node is not None:
            dists = _axis_distances(node, row, real=True)
            dmin, pairs = min(dists), zip(dists, entries)
        else:
            coords, sq_c, child = entries[0]
            dmin = sqrt(max(row_sq - 2.0 * float(dot(coords)) + sq_c, 0.0))
            pairs = [(dmin, child)]
            for coords, sq_c, child in entries[1:]:
                d = sqrt(max(row_sq - 2.0 * float(dot(coords)) + sq_c, 0.0))
                pairs.append((d, child))
                if d < dmin:
                    dmin = d
        for d, child in pairs:
            if d - dmin <= margin:
                stack.append(child)
    return out


@dataclass(frozen=True)
class MergeStep:
    children: tuple[int, ...]
    parent: int


@dataclass(frozen=True)
class MergeOrder:
    """Bottom-up merge schedule: leaves are groups 0..m-1, internal groups follow."""

    steps: tuple[MergeStep, ...]
    leaf_count: int

    def replay(self) -> int:
        """Apply the steps; returns the final group id, validating coverage."""
        available = set(range(self.leaf_count))
        coverage = {pid: frozenset([pid]) for pid in available}
        for step in self.steps:
            for child in step.children:
                if child not in available:
                    raise ValueError(f"merge step consumes unavailable group {child}")
                available.remove(child)
            coverage[step.parent] = frozenset().union(*(coverage[c] for c in step.children))
            available.add(step.parent)
        if len(available) != 1:
            raise ValueError(f"merge order leaves {len(available)} groups instead of one")
        final = available.pop()
        if coverage[final] != frozenset(range(self.leaf_count)):
            raise ValueError("merge order does not cover every partition exactly once")
        return final


def merge_order(tree: VTree) -> MergeOrder:
    """Post-order traversal emitting one (children -> parent group) step per split."""
    steps: list[MergeStep] = []
    counter = tree.leaf_count

    def rec(node: VNode) -> int:
        nonlocal counter
        if node.is_leaf:
            return node.partition_id
        group_ids = tuple(rec(child) for child in node.children)
        gid = counter
        counter += 1
        steps.append(MergeStep(children=group_ids, parent=gid))
        return gid

    rec(tree.root)
    return MergeOrder(steps=tuple(steps), leaf_count=tree.leaf_count)


def vtree_to_dict(tree: VTree) -> dict:
    def rec(node: VNode):
        if node.is_leaf:
            return {"leaf": node.partition_id, "count": len(node.members)}
        return {
            "level": node.level,
            "centers": [{"id": c.id, "coords": c.coords.tolist()} for c in node.centers],
            "counts": list(node.child_counts),
            "overlap_count": node.overlap_count,
            "axis": node.axis,
            "children": [rec(child) for child in node.children],
        }

    cfg = tree.config
    return {
        "kind": "vtree",
        "m": cfg.partition_count,
        "fanout": cfg.fanout,
        "eps": cfg.eps,
        "strategy": cfg.strategy,
        "seed": cfg.seed,
        "levels": tree.levels,
        "root": rec(tree.root),
    }


def vtree_to_json(tree: VTree) -> str:
    return json.dumps(vtree_to_dict(tree), sort_keys=True)
