"""Voronoi split tree: recursive nearest-center partitioning with seeded centers.

Each internal node holds a handful of seed centers drawn from its own points;
every point routes to its nearest center and the process repeats inside each
cell until the requested number of leaf partitions exists. Points whose
distance gap to a rival center is at most ``2*eps`` are flagged affected (for
two centers this covers everything within ``eps`` of the bisecting hyperplane,
and is a conservative superset of that band in general).

Nodes built with median seeding take their labels from the kd-tree's axis
median cut (``kdtree.median_cut``), so the split is kd's split, rows tied at
the median included. Their centers straddle the cut, and queries compare
along its axis only: a build row routes to its label except where its two
axis distances are equal, and such a row is affected at every eps. Internal
nodes never store points, only center data and counts; the finished tree
stores points in its leaves alone. Walking the tree bottom-up yields the
order in which per-partition cluster results should be merged.

Distance kernel: ``expansion_column`` computes squared distances as
|p|^2 - 2 p.c + |c|^2 with precomputed row norms, clamped at zero. One BLAS
column per center replaces per-center subtraction passes, which is what makes
high-dimensional builds cheap; construction (seeding included) and
verification go through it. The column is the kernel's only array: the
doubling, the subtraction, the center's norm and the clamp are written into
the matvec's own output.

Single-point queries (``route_point``, ``affected_partitions``) do the
kernel's float operations in the kernel's order on the 1-D probe row: one
``ddot`` per center, the BLAS call numpy also makes for the kernel's
``(1, d) @ (d,)`` product on a one-row input, and Python floats in place of
per-node arrays. So their distances equal ``VNode.squared_distances`` and
``distances_from`` bit for bit. A probe is made C-contiguous first, so that
its answers do not depend on its memory layout. A tree's first query builds
its walk table (``_walk_table``) and the tree keeps it. In the table a leaf
is its partition id and a node of two centers is one flat tuple ``(coords 0,
sqnorm 0, child 0, coords 1, sqnorm 1, child 1)``. A node of more centers is
a ``_Wide`` tuple of ``(coords, sqnorm, child)`` entries, and an axis node,
which only median seeding makes, an ``_Axis`` pair of its ``VNode`` and its
children; the walks tell them apart by type. They clamp each distance at
zero inline and take the first minimum, as ``np.argmin`` does: a two-center
node takes child 1 only on a strict ``<``, a wider one keeps a running
minimum seeded at +inf with child 0. Probe and center norms are finite, so a
distance lies in [0, +inf] and is never NaN; it is +inf where ``-2 p.c``
overflows. Axis nodes compare real axis distances (``_axis_distances``, one
subtraction per center) in both walks. ``affected_partitions`` follows a
child unless its distance exceeds the node minimum by more than ``2*eps``
(``not d - dmin > margin``). So a node whose distances are all +inf, where
``inf - inf`` is NaN, follows every child, as a tie does, and the routed
leaf is always in the set. A route's comparison count is the sum of the
fanouts on the one path to its leaf, so the table build records it per leaf
and ``route_point_counted`` looks it up after the walk. The build, the JSON
and the CSV never build the table; a tree must not be changed after its
first query.

Labeller: ``_split_rows`` turns per-center columns into labels, the affected
mask and child counts, for random, gnat and kmeans++ splits and for public
``assign_to_centers`` alike; the latter feeds it the plain elementwise
columns, where exact zero self-distances matter more than throughput. A
median split takes its labels from the cut and writes the margin test on its
two axis columns itself. ``_split_rows``' callers hand over columns they own:
at k = 2 the labels are bool and the margin test takes its square roots and
difference in the columns themselves. kmeans++ copies its first column as the
running minimum of its draws only when a third center is drawn.
``core.split_largest_leaf``, shared with the kd-tree, owns the split order,
the node rows, the labels and the affected rows; this module only cuts one
node. ``scan_count`` counts rows read in the kd-tree's units: n for the row
norms, then the node's rows once per distance column and once for labelling,
per split attempt (median seeding: variance, selection, two axis columns,
labelling). Copies, piece reads, and the passes over the whole dataset of a
node that reads it in place, are layout, not algorithm, and are not counted.

A random, gnat or kmeans++ split copies at most one 16 MB block of its node
(``_distance_column`` says how it reads the node, under ``core._piece_rows``'s
rule). A median split reads its node in place, as kd's split does: its
variance under the same rule, then one column of the node's rows.
"""

from __future__ import annotations

import base64
import json
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .core import (
    Dataset,
    PartitionAssignment,
    Point,
    _block_rows,
    _piece_rows,
    _pieces,
    as_point_arrays,
    check_strategy,
    make_rng,
    split_largest_leaf,
)
from .seeding import median_positions, select_positions, sq_column

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
    """Squared distances from every row to one center: clamped |p|^2 - 2 p.c + |c|^2.

    The bits of ``np.maximum(sqnorms - 2.0 * (coords @ center) + center_sqnorm,
    0.0)``: the same operations in the same order, each written into the
    matvec's own output, so the column is the only array it makes.
    """
    col = coords @ center
    np.multiply(col, 2.0, out=col)
    np.subtract(sqnorms, col, out=col)
    np.add(col, center_sqnorm, out=col)
    return np.maximum(col, 0.0, out=col)


@dataclass
class VNode:
    """One tree node. Leaves carry their member rows; internal nodes do not.

    ``axis`` is set on nodes split with median seeding: distances to centers
    are then measured along that dimension only, so a query's cell boundary
    is the axis midpoint between the two straddling seeds.
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
        """The query walks' table (``_walk_table`` of the root) and each leaf's
        comparison count, the sum of the fanouts on its path, built on the first query."""
        counts = {}
        stack = [(self.root, 0)]
        while stack:
            node, count = stack.pop()
            if node.is_leaf:
                counts[node.partition_id] = count
            else:
                stack.extend((child, count + len(node.centers)) for child in node.children)
        return _walk_table(self.root), counts


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
    labels, affected, _ = _split_rows(cols, eps, len(centers))
    per_center = [[int(i) for i in ids[labels == c]] for c in range(len(centers))]
    return per_center, {int(i) for i in ids[affected]}


def _split_rows(cols, eps: float, k: int):
    """Labels, affected mask and child counts from per-center squared distance columns.

    Squared values order identically, and the 2*eps margin test moves to
    real values only when eps is positive. Labels go to the nearest center,
    ties to the lowest center index; a tied point is affected for any eps.

    At k = 2 the labels are bool (child 1 or not), and the margin test takes
    its square roots and difference in the columns themselves, so the caller
    hands over columns it owns and does not read again.
    """
    if k == 1:
        n = len(cols[0])
        return np.zeros(n, dtype=np.int64), np.zeros(n, dtype=bool), np.array([n])
    if k == 2:
        c0, c1 = cols
        labels = c1 < c0
        if eps > 0.0:
            np.sqrt(c0, out=c0)
            np.sqrt(c1, out=c1)
        affected = c0 == c1 if eps == 0.0 else np.abs(np.subtract(c0, c1, out=c0), out=c0) <= 2.0 * eps
        ones = int(labels.sum())
        counts = np.array([len(labels) - ones, ones], dtype=np.int64)
        return labels, affected, counts

    dists = np.column_stack(cols)
    labels = np.argmin(dists, axis=1)
    if eps > 0.0:
        dists = np.sqrt(dists)
    two = np.partition(dists, 1, axis=1)
    affected = (two[:, 1] - two[:, 0]) <= 2.0 * eps
    return labels, affected, np.bincount(labels, minlength=k)


def _distance_column(coords: np.ndarray, sqnorms: np.ndarray, rows, n_data: int):
    """``column(p)`` of a random, gnat or kmeans++ split: the expansion column of the node's row ``p``.

    The node is the dataset rows ``rows`` (None: all ``n_data`` of them) of
    ``coords``, whose row norms are ``sqnorms``. A node of at least half of
    the dataset reads the dataset in place: a column over every row, cut down
    to the node. A smaller node is read as ``core._piece_rows`` says: one
    that fits one block is copied, and a larger one never is, each column
    taking its rows a piece at a time into one buffer that all the node's
    columns share.

    So a split holds at most one block on top of the dataset, its row norms and
    per-row columns. The matvec's bits depend on the shape of the rows it
    reads, so all of a node's columns read it the same way, and coincident
    centers still tie.

    A copy is faster up to one block, so the block decides. In-process
    kmeans++ builds (2-vCPU Xeon, 2 MB L2 per core; median time ratios of 12
    to 16 alternated pairs) that read every node under half of the dataset in
    pieces took 1.16x the time on 200000x8 data (m=256), 1.10x on 20000x1024
    (m=64) and 1.02-1.03x on 1500 and 4000x1024 (m=8): pieces take the node
    once per column, a copy once. Copying up to 4 MB took 1.11x on
    20000x1024, up to 64 MB 1.06x, and up to 32 MB 0.96x for a copy twice as
    large.

    A piece's rows are a multiple of four (at least four) and a one-row tail
    joins the piece before it (``core._pieces``): OpenBLAS's gemv kernels
    take rows four at a time and a one-row product takes another kernel, so
    the pieces group the rows as the whole node's matvec does. The bits then
    differ only where BLAS threads split that matvec elsewhere (0 to 2 of
    9001 rows at d = 1024 with two OpenBLAS threads), and outputs only if a
    choice turns on them.
    """
    n, d = (n_data if rows is None else len(rows)), coords.shape[1]
    if 2 * n >= n_data:

        def column(p):
            r = p if rows is None else rows[p]
            col = expansion_column(coords, sqnorms, coords[r], sqnorms[r])
            return col if rows is None else np.take(col, rows)

        return column

    node_sq = np.take(sqnorms, rows)
    if n <= _block_rows(d):
        node = np.take(coords, rows, axis=0)
        return lambda p: expansion_column(node, node_sq, node[p], node_sq[p])

    buf = np.empty((_piece_rows(d) + 1, d))

    def column(p):
        center = coords[rows[p]]  # a dataset row, never a view of the buffer
        out = np.empty(n)
        for lo, hi, piece in _pieces(coords, rows, n, buf):
            out[lo:hi] = expansion_column(piece, node_sq[lo:hi], center, node_sq[p])
        return out

    return column


def build_vtree(
    ds: Dataset,
    m: int,
    fanout: int = 2,
    strategy: str = "kmeanspp",
    eps: float = 0.0,
    seed: int = 0,
) -> VTree:
    """Grow a Voronoi split tree until the dataset is cut into m leaf partitions.

    Always splits the currently largest leaf (ties: lowest partition id). The
    last split shrinks its fanout when fewer children are needed to reach
    exactly m leaves. A split that produces an empty child is retried once
    with fresh seed draws and then accepted (deterministic strategies
    reproduce the same split and are accepted as-is). Reproducible from the
    seed. ``core.split_largest_leaf`` runs the loop and owns the rows; this
    function only cuts one node, read as ``_distance_column`` says (median
    seeding: in place, as ``kdtree.median_cut`` reads it). Only final leaves
    get ``members``.
    """
    kind = check_strategy(strategy)
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

    def split(vnode, rows, room):
        nonlocal scan

        def node(values):  # the node's rows of a per-row array of the dataset
            return values if rows is None else np.take(values, rows, axis=0)

        n = ds.n if rows is None else len(rows)
        k = min(fanout, room, n)
        if kind == "median":
            positions, axis, col, labels = median_positions(ds.coords, ds.ids, k, rows)
            c0, c1 = (np.abs(col - col[p]) for p in positions)
            # the margin test on real axis distances: ties at eps 0, else a gap of at most 2*eps
            aff_mask = c0 == c1 if eps == 0.0 else np.abs(np.subtract(c0, c1, out=c0), out=c0) <= 2.0 * eps
            ones = int(labels.sum())
            counts = np.array([n - ones, ones], dtype=np.int64)
            scan += 5 * n  # variance, selection, two axis columns, labelling
        else:
            column = _distance_column(ds.coords, sqnorms, rows, ds.n)
            ids, axis = node(ds.ids), None
            for attempt in (0, 1):
                positions, cols = select_positions(kind, ids, k, rng, column, lambda: node(ds.coords))
                labels, aff_mask, counts = _split_rows(cols, eps, k)
                scan += (k + 1) * n  # k distance columns and labelling
                if counts.min() > 0 or attempt == 1:
                    break

        refs = positions if rows is None else rows[positions]
        vnode.centers = tuple(Point(int(ds.ids[r]), ds.coords[r].copy()) for r in refs)
        vnode.center_sqnorms = tuple(float(sqnorms[r]) for r in refs) if needs_sqnorms else ()
        vnode.child_counts = tuple(int(c) for c in counts)
        vnode.overlap_count = int(aff_mask.sum())
        vnode.axis = axis
        vnode.children = tuple(VNode(level=vnode.level + 1) for _ in range(k))
        return labels, aff_mask, vnode.children

    root = VNode(level=0)
    leaves, label_rows, affected = split_largest_leaf(ds.n, m, split, root)

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
    every distance is inf or NaN, routing falls to child 0 and the affected
    set says nothing. A finite norm implies finite coordinates, so
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


class _Wide(tuple):
    """A walk-table node of more than two centers: one ``(coords, sqnorm, child)`` entry per center."""

    __slots__ = ()


class _Axis(tuple):
    """A walk-table axis node: ``(VNode, child tables)``."""

    __slots__ = ()


def _walk_table(node: VNode):
    """The query walks' view of a subtree, in tuples told apart by type.

    A leaf is its partition id. A node without an axis is the flat tuple
    ``(coords 0, sqnorm 0, child 0, coords 1, sqnorm 1, child 1)`` when it
    has two centers, else a ``_Wide`` of ``(coords, sqnorm, child)`` entries;
    an axis node is an ``_Axis`` of ``(node, children)``.
    """
    if node.is_leaf:
        return node.partition_id
    children = tuple(_walk_table(child) for child in node.children)
    if node.axis is not None:
        return _Axis((node, children))
    entries = tuple(zip([c.coords for c in node.centers], node.center_sqnorms, children))
    if len(entries) == 2:
        return entries[0] + entries[1]
    return _Wide(entries)


def route_point(tree: VTree, p) -> int:
    """Descend the tree choosing the nearest center at each node.

    Each level takes the first center at the minimum distance, as ``np.argmin``
    does on the node kernel's row, ties and all-inf nodes included. An axis
    node compares its real axis distances, as ``affected_partitions`` does:
    their squares order the same, except where they overflow or underflow to
    one float, which would route a probe outside its affected set.
    """
    row, row_sq = _check_point(tree, p)
    dot = row.dot
    t = tree._walk[0]
    while True:
        kind = type(t)
        if kind is tuple:
            c0, s0, t0, c1, s1, t1 = t
            x = row_sq - 2.0 * float(dot(c0)) + s0
            if x < 0.0:
                x = 0.0
            y = row_sq - 2.0 * float(dot(c1)) + s1
            if y < 0.0:
                y = 0.0
            t = t1 if y < x else t0
        elif kind is _Wide:
            dmin, best = math.inf, t[0][2]
            for coords, sq_c, child in t:
                d = row_sq - 2.0 * float(dot(coords)) + sq_c
                if d < 0.0:
                    d = 0.0
                if d < dmin:
                    dmin, best = d, child
            t = best
        elif kind is _Axis:
            node, children = t
            dists = _axis_distances(node, row, real=True)
            t = children[dists.index(min(dists))]
        else:
            return t


def route_point_counted(tree: VTree, p) -> tuple[int, int]:
    """Leaf partition id for a point plus the number of distance comparisons.

    The count is the sum of the fanouts on the path to the leaf, which the
    walk table records per leaf; the walk is ``route_point``'s.
    """
    leaf = route_point(tree, p)
    return leaf, tree._walk[1][leaf]


def affected_partitions(tree: VTree, p, eps: float) -> set[int]:
    """All leaves a point could interact with inside the 2*eps distance margin.

    Follows every center whose distance does not exceed the node minimum by
    more than ``2*eps``; always contains the point's own routed leaf, also
    where every distance at a node is +inf and their gaps are NaN. Distances
    and the minimum are computed as in ``route_point``.
    """
    if not eps >= 0:
        raise ValueError("eps must be non-negative")
    row, row_sq = _check_point(tree, p)
    dot, margin, sqrt = row.dot, 2.0 * eps, math.sqrt
    out: set[int] = set()
    stack = [tree._walk[0]]
    push = stack.append
    while stack:
        t = stack.pop()
        kind = type(t)
        if kind is tuple:
            c0, s0, t0, c1, s1, t1 = t
            x = row_sq - 2.0 * float(dot(c0)) + s0
            if x < 0.0:
                x = 0.0
            y = row_sq - 2.0 * float(dot(c1)) + s1
            if y < 0.0:
                y = 0.0
            x, y = sqrt(x), sqrt(y)
            if y < x:
                push(t1)
                if not x - y > margin:
                    push(t0)
            else:
                push(t0)
                if not y - x > margin:
                    push(t1)
        elif kind is _Wide:
            dmin, dists = math.inf, []
            for coords, sq_c, _ in t:
                d = row_sq - 2.0 * float(dot(coords)) + sq_c
                if d < 0.0:
                    d = 0.0
                d = sqrt(d)
                dists.append(d)
                if d < dmin:
                    dmin = d
            stack.extend(child for d, (_, _, child) in zip(dists, t) if not d - dmin > margin)
        elif kind is _Axis:
            node, children = t
            dists = _axis_distances(node, row, real=True)
            dmin = min(dists)
            stack.extend(child for d, child in zip(dists, children) if not d - dmin > margin)
        else:
            out.add(t)
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


def _coords_b64(coords: np.ndarray) -> str:
    """Base64 of the little-endian IEEE-754 float64 bytes of ``coords``.

    ``np.frombuffer(base64.b64decode(s), "<f8")`` gives them back bit for bit.
    """
    return base64.b64encode(coords.astype("<f8").tobytes()).decode("ascii")


def vtree_to_dict(tree: VTree) -> dict:
    """The tree as plain data; a center is its point ``id`` and ``coords_b64``."""
    def rec(node: VNode):
        if node.is_leaf:
            return {"leaf": node.partition_id, "count": len(node.members)}
        return {
            "level": node.level,
            "centers": [{"id": c.id, "coords_b64": _coords_b64(c.coords)} for c in node.centers],
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
