"""Core data model: points, datasets, synthetic generators, and partition metrics.

Everything downstream (the kd-tree, the grid index, the Voronoi split tree and
the benchmark harness) consumes the types defined here. All types are immutable
after construction and safe to share across threads; every randomized function
takes an explicit seed.
"""

from __future__ import annotations

import heapq
import math
import re
import string
from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

__all__ = [
    "Point",
    "Dataset",
    "PartitionAssignment",
    "PartitionMetrics",
    "make_rng",
    "euclidean_distance",
    "variance_per_dimension",
    "generate_uniform",
    "generate_gaussian_mixture",
    "compute_metrics",
    "balance_floor",
    "split_largest_leaf",
    "write_assignment_csv",
    "read_assignment_csv",
]

# The Voronoi split tree's seeding strategies (``seeding``). The name list lives
# here so that the CLI can offer it without importing the tree's modules.
STRATEGY_KINDS = ("random", "gnat", "kmeanspp", "median")


def make_rng(seed: int | np.random.Generator) -> np.random.Generator:
    """Return a PCG64-backed generator for the given integer seed.

    PCG64 is the single PRNG used everywhere in this package so that any
    randomized result is reproducible from the integer seed alone. Passing an
    existing Generator returns it unchanged (lets callers thread one stream
    through several draws).
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.Generator(np.random.PCG64(int(seed)))


@dataclass(frozen=True)
class Point:
    """A single point: a non-negative integer id plus a float64 coordinate row."""

    id: int
    coords: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "coords", np.asarray(self.coords, dtype=np.float64))
        if self.id < 0:
            raise ValueError(f"point id must be non-negative, got {self.id}")
        if self.coords.ndim != 1:
            raise ValueError("point coords must be one-dimensional")
        if not np.isfinite(self.coords).all():
            raise ValueError(f"point {self.id} has non-finite coordinates")

    @property
    def dims(self) -> int:
        return self.coords.shape[0]


class Dataset:
    """An immutable in-memory collection of n-dimensional points.

    Coordinates live in a C-contiguous ``(n, dims)`` float64 array; ``ids`` is a
    parallel int64 array of unique non-negative identifiers (defaults to the
    row index). Per-dimension ``(min, max)`` bounds are computed lazily.

    Every coordinate must be finite. One read-only pass sums them; only when
    that sum is not finite are the rows scanned, to name the first bad one or
    to accept finite data whose sum overflowed. Custom ids are checked for
    uniqueness on a sorted copy.
    """

    __slots__ = ("coords", "ids", "_bounds")

    def __init__(self, coords, ids=None):
        coords = np.ascontiguousarray(coords, dtype=np.float64)
        if coords.ndim != 2:
            raise ValueError(f"coords must be a 2-d array, got shape {coords.shape}")
        n, dims = coords.shape
        if n == 0:
            raise ValueError("a dataset must contain at least one point")
        if dims == 0:
            raise ValueError("a dataset must have at least one dimension")
        with np.errstate(over="ignore", invalid="ignore"):
            total = coords.sum()
        if not np.isfinite(total):  # a NaN or inf makes the sum so, and so does an overflow
            finite = np.isfinite(coords)
            if not finite.all():
                bad = int(np.flatnonzero(~finite.all(axis=1))[0])
                raise ValueError(f"non-finite value in point row {bad}")
        if ids is None:
            ids = np.arange(n, dtype=np.int64)
        else:
            ids = np.asarray(ids, dtype=np.int64)
            if ids.shape != (n,):
                raise ValueError(f"ids must have shape ({n},), got {ids.shape}")
            if (ids < 0).any():
                raise ValueError("point ids must be non-negative")
            ordered = np.sort(ids)
            if (ordered[1:] == ordered[:-1]).any():
                raise ValueError("point ids must be unique")
        self.coords = coords
        self.ids = ids
        self._bounds = None
        coords.setflags(write=False)
        ids.setflags(write=False)

    @property
    def n(self) -> int:
        return self.coords.shape[0]

    @property
    def dims(self) -> int:
        return self.coords.shape[1]

    def __len__(self) -> int:
        return self.n

    def point(self, row: int) -> Point:
        """Point at a given row position (not id)."""
        return Point(int(self.ids[row]), self.coords[row])

    @property
    def points(self) -> list[Point]:
        return [self.point(i) for i in range(self.n)]

    @property
    def bounds(self) -> tuple[tuple[float, float], ...]:
        """Per-dimension (min, max), cached after the first call."""
        if self._bounds is None:
            mins = self.coords.min(axis=0)
            maxs = self.coords.max(axis=0)
            self._bounds = tuple((float(lo), float(hi)) for lo, hi in zip(mins, maxs))
        return self._bounds


def _coords_of(p) -> np.ndarray:
    if isinstance(p, Point):
        return p.coords
    return np.asarray(p, dtype=np.float64)


def as_point_arrays(points) -> tuple[np.ndarray, np.ndarray]:
    """Coerce a Dataset or an iterable of Points into (coords, ids) arrays."""
    if isinstance(points, Dataset):
        return points.coords, points.ids
    pts = list(points)
    if not pts:
        raise ValueError("need at least one point")
    coords = np.stack([p.coords for p in pts])
    ids = np.array([p.id for p in pts], dtype=np.int64)
    return coords, ids


def euclidean_distance(a, b) -> float:
    """Euclidean distance between two points (or raw coordinate sequences).

    Raises ValueError on dimensionality mismatch.
    """
    ca, cb = _coords_of(a), _coords_of(b)
    if ca.shape != cb.shape:
        raise ValueError(f"dimensionality mismatch: {ca.shape[0]} vs {cb.shape[0]}")
    diff = ca - cb
    return float(math.sqrt(float(np.dot(diff, diff))))


# the widest rows summed by einsum: on 1.6 and 20 million values its column sum was
# 19-27% faster than numpy's at 128 columns, and within 10% either way from 256 on.
# A column-sum microbenchmark choice: no workload runs between 9 and 1023 columns,
# so nothing verifies the cutoff end to end
_EINSUM_MAX_COLUMNS = 128
# values in one block: 2**21 float64s, 16 MB, the most that kd's variance and the
# vtree's distance columns read of a node in one piece (see ``_piece_rows``)
_BLOCK_VALUES = 1 << 21
# values in one piece of a node larger than one block: 2**17 float64s, 1 MB, so
# that the rows a piece takes are still in a core's L2 when they are read again
_PIECE_VALUES = 1 << 17


def _block_rows(d: int) -> int:
    """The rows of ``d`` columns in one block."""
    return max(1, _BLOCK_VALUES // d)


def _piece_rows(d: int) -> int:
    """The rows of ``d`` columns that a node larger than one block is read in, a piece at a time.

    This is the one read rule of kd's variance (``_column_variance``) and
    the vtree's distance columns (``vtree._distance_column``): a node of at
    most one block (``_block_rows``) is read whole, and a larger one a piece
    of these rows at a time through one buffer, so no copy outgrows a block.
    The variance also reads narrow rows in place a piece at a time, whatever
    their size.
    A piece holds a multiple of four rows, at least four, for the vtree's
    matvec (``vtree._distance_column`` says why); the variance's bits do not
    depend on the piece size. ``_pieces`` cuts the rows. The vtree also reads
    a node of at least half of the dataset in place, and median seeding
    copies every node.

    In-process builds on a 2-vCPU Xeon with 2 MB of L2 per core: 16 MB
    pieces made partition-hd vtree builds (20000x1024, m=64) 1.12x the time
    of copying each node whole, and 1 MB pieces 0.90x. kd builds on the same
    data (medians of 8 alternated rounds) took 0.76 s with 16 MB pieces,
    0.64 s with 2 MB and 0.60 s with 1 MB or 512 KB.
    """
    return max(4, _PIECE_VALUES // d // 4 * 4)


def _pieces(coords: np.ndarray, rows, n: int, buf: np.ndarray):
    """``(lo, hi, piece)``: rows ``lo:hi`` of the ``n`` rows ``coords[rows]`` (None: ``coords``), a piece at a time.

    A piece holds ``len(buf) - 1`` rows, and a one-row tail joins the piece
    before it (``vtree._distance_column`` says why); ``n`` = 1 gives no piece.
    A piece is a view of ``coords`` when ``rows`` is None and otherwise a copy of
    its rows in ``buf``, which the next piece overwrites.
    """
    edges = [*range(0, n - 1, len(buf) - 1), n]
    for lo, hi in zip(edges, edges[1:]):
        if rows is None:
            yield lo, hi, coords[lo:hi]
        else:  # the rows are valid; "clip" spares the copy that "raise" makes for ``out``
            yield lo, hi, np.take(coords, rows[lo:hi], axis=0, out=buf[: hi - lo], mode="clip")


def _column_sum(x: np.ndarray) -> np.ndarray:
    """Each column of C-contiguous rows summed row after row from row 0, as ``var`` sums it."""
    return np.einsum("ij->j", x) if x.shape[1] <= _EINSUM_MAX_COLUMNS else np.add.reduce(x, axis=0)


def _column_variance(coords: np.ndarray, rows=None) -> np.ndarray:
    """Population variance of each column of ``coords[rows]``: ``coords[rows].var(axis=0)``'s bits.

    ``rows`` (None: every row) are row numbers of the ``(n, d)`` float64
    ``coords``. numpy's ``var`` sums the columns of C-contiguous rows with one
    d-element inner loop per row; ``einsum("ij->j")`` adds the same rows in
    the same order without that per-row cost, so it sums rows up to
    ``_EINSUM_MAX_COLUMNS`` wide and ``np.add.reduce`` wider ones. The mean,
    the subtraction, the square and the final divide are numpy's own.

    The rows are read as ``_piece_rows`` says. A node's ``rows`` that fit
    one block are copied whole, and their deviations overwrite the copy, so
    a narrow split holds one block. Rows wider than ``_EINSUM_MAX_COLUMNS``
    that fit one block go to ``var`` itself, whose deviations are a second
    array as large as the rows: a wide split holds at most two blocks. All
    other inputs are read a piece at a time (``_pieces``), rows read in
    place (a dataset's coordinates, median seeding's node copy) at any size,
    and each piece's deviations go to one reused buffer of at most a piece.
    Row 0 of that buffer carries each column's running sum into the next
    piece's sum, so every column is still summed row after row and the bits
    do not depend on the piece size. The mean of all rows takes no pieces,
    as a column sum makes no temporary; the mean of ``rows`` takes each
    piece once more. d = 1, whose one contiguous column numpy sums
    pairwise, and non-contiguous ``coords`` without ``rows``, which it may
    sum in yet another order, go to ``var``.
    """
    n, d = (coords.shape[0] if rows is None else len(rows)), coords.shape[1]
    fits = n <= _block_rows(d)
    if d == 1 or (rows is None and not coords.flags.c_contiguous) or (fits and d > _EINSUM_MAX_COLUMNS):
        return (coords if rows is None else np.take(coords, rows, axis=0)).var(axis=0)
    if fits and rows is not None:
        x = np.take(coords, rows, axis=0)  # a third faster than coords[rows]
        np.subtract(x, np.einsum("ij->j", x) / n, out=x)
        np.square(x, out=x)
        return np.einsum("ij->j", x) / n
    # row 0: the running column sums. One row takes no piece and keeps its variance, 0
    buf = np.empty((min(n, _piece_rows(d)) + 2, d))
    if rows is None:
        mean = _column_sum(coords) / n
    else:
        buf[0] = 0.0
        for lo, hi, _ in _pieces(coords, rows, n, buf[1:]):
            buf[0] = _column_sum(buf[: hi - lo + 1])
        mean = buf[0] / n
    buf[0] = 0.0
    for lo, hi, x in _pieces(coords, rows, n, buf[1:]):
        dev = buf[1 : hi - lo + 1]
        np.square(np.subtract(x, mean, out=dev), out=dev)
        buf[0] = _column_sum(buf[: hi - lo + 1])
    return buf[0] / n


def _widest_axis(coords: np.ndarray, rows=None) -> int:
    """The split axis of kd and median seeding: the column of ``coords[rows]`` with the largest variance.

    The argmax of ``_column_variance``. Rows near 1e160 overflow their
    variances to inf, and the first inf would win whatever the spread; then
    the rows, scaled by the power of two that brings their largest magnitude
    into [0.5, 1), are taken again. The scaling is exact except for values it
    pushes below the normal range, so the axis follows the real spread.
    Finite variances never take that path; it copies the rows whole, so it
    is not held to the read rule of ``_piece_rows``, under which a narrow
    split holds one block, a one-block node's copy that takes its own
    deviations, and a wide split at most two, that copy and ``var``'s.
    """
    with np.errstate(over="ignore"):
        var = _column_variance(coords, rows)
    axis = int(np.argmax(var))
    if var[axis] == np.inf:
        x = coords if rows is None else coords[rows]
        axis = int(np.argmax(_column_variance(np.ldexp(x, -np.frexp(np.abs(x).max())[1]))))
    return axis


def variance_per_dimension(ds: Dataset) -> np.ndarray:
    """Population variance of each coordinate across all points.

    This is the split-dimension variance of the kd-tree partitioner and of
    median seeding: both take their axis from ``_widest_axis``, the argmax of
    ``_column_variance`` over their node's rows, so all three give one
    answer. A variance that overflows is returned as inf; only the axis
    choice looks past it. Each column is summed row after row, from row 0
    down, for the mean and again for the squared deviations; at d = 1 the
    one column is summed pairwise, as numpy's ``var`` does. The bits depend
    on the layout, so callers pass C-contiguous rows (a dataset's
    coordinates and a copy of a node's rows are).
    """
    return _column_variance(ds.coords)


def generate_uniform(n: int, d: int, lo: float = 0.0, hi: float = 100.0, seed: int = 0) -> Dataset:
    """n points with i.i.d. uniform coordinates in [lo, hi), reproducible from seed."""
    if n < 1 or d < 1:
        raise ValueError("n and d must be at least 1")
    if not lo < hi:
        raise ValueError(f"need lo < hi, got lo={lo}, hi={hi}")
    rng = make_rng(seed)
    return Dataset(rng.uniform(lo, hi, size=(n, d)))


def generate_gaussian_mixture(
    n: int,
    d: int,
    k: int,
    spread: float = 5.0,
    seed: int = 0,
    center_lo: float = 0.0,
    center_hi: float = 100.0,
) -> Dataset:
    """Clustered synthetic data: k uniform cluster centers, points round-robin.

    Point i belongs to cluster ``i % k`` and is the center plus isotropic
    Gaussian noise with standard deviation ``spread``. Reproducible from seed.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    if n < k:
        raise ValueError(f"need n >= k, got n={n}, k={k}")
    if d < 1:
        raise ValueError("d must be at least 1")
    if not spread > 0:
        raise ValueError("spread must be positive")
    rng = make_rng(seed)
    centers = rng.uniform(center_lo, center_hi, size=(k, d))
    labels = np.arange(n) % k
    coords = centers[labels] + rng.normal(0.0, spread, size=(n, d))
    return Dataset(coords)


class PartitionAssignment:
    """Total map from point id to partition id, plus the affected-point set.

    ``labels`` covers every point of the source dataset exactly once (the
    partitions are disjoint and complete); ``affected`` flags points close
    enough to a split boundary that neighbouring partitions interact through
    them when cluster results are merged.

    Backed by parallel id/label arrays; the mapping and set views materialize
    lazily on first access.
    """

    __slots__ = ("partition_count", "_ids", "_label_rows", "_affected_ids", "_labels", "_affected")

    def __init__(self, partition_count: int, labels: Mapping[int, int], affected: Iterable[int] = ()):
        labels = dict(labels)
        if not labels:
            raise ValueError("labels must not be empty")
        ids = np.fromiter(labels.keys(), dtype=np.int64, count=len(labels))
        rows = np.fromiter(labels.values(), dtype=np.int64, count=len(labels))
        self._init_arrays(partition_count, ids, rows, np.fromiter((int(i) for i in affected), dtype=np.int64))

    @classmethod
    def from_arrays(cls, partition_count: int, ids, label_rows, affected_ids=()) -> "PartitionAssignment":
        """Construct from parallel arrays; ids must already be unique."""
        self = cls.__new__(cls)
        self._init_arrays(
            partition_count,
            np.asarray(ids, dtype=np.int64),
            np.asarray(label_rows, dtype=np.int64),
            np.asarray(affected_ids, dtype=np.int64),
        )
        return self

    def _init_arrays(self, partition_count, ids, rows, affected_ids):
        if partition_count < 1:
            raise ValueError("partition_count must be at least 1")
        if ids.shape != rows.shape or ids.ndim != 1 or len(ids) == 0:
            raise ValueError("labels must be a non-empty map of point id to partition id")
        if len(rows) and (rows.min() < 0 or rows.max() >= partition_count):
            bad = int(rows[(rows < 0) | (rows >= partition_count)][0])
            raise ValueError(f"partition id {bad} out of range [0, {partition_count})")
        if len(affected_ids) and not np.isin(affected_ids, ids).all():
            raise ValueError("affected set references unknown point ids")
        self.partition_count = partition_count
        self._ids = ids
        self._label_rows = rows
        self._affected_ids = affected_ids
        self._labels = None
        self._affected = None

    @property
    def labels(self) -> dict[int, int]:
        if self._labels is None:
            self._labels = {int(i): int(p) for i, p in zip(self._ids, self._label_rows)}
        return self._labels

    @property
    def affected(self) -> frozenset[int]:
        if self._affected is None:
            self._affected = frozenset(int(i) for i in self._affected_ids)
        return self._affected

    @property
    def n(self) -> int:
        return len(self._ids)

    def sizes(self) -> np.ndarray:
        """Per-partition point counts (length partition_count, empty ones included)."""
        return np.bincount(self._label_rows, minlength=self.partition_count)

    def validate_against(self, ds: Dataset) -> None:
        """Check completeness: the label keys are exactly the dataset's ids."""
        if not np.array_equal(np.sort(self._ids), np.sort(ds.ids)):
            raise ValueError("assignment does not cover the dataset exactly")


@dataclass(frozen=True)
class PartitionMetrics:
    """Quality measurements of one partitioning run.

    ``bias`` is max partition size divided by the ideal size N/m; 1.0 means a
    perfect balance (the floor is ceil(N/m)*m/N when m does not divide N).
    ``size_cv`` is the coefficient of variation of the sizes, a secondary
    balance signal.
    """

    sizes: tuple[int, ...]
    bias: float
    size_cv: float
    affected_count: int


def compute_metrics(assignment: PartitionAssignment) -> PartitionMetrics:
    sizes = assignment.sizes()
    n = int(sizes.sum())
    m = assignment.partition_count
    ideal = n / m
    bias = float(sizes.max() / ideal)
    size_cv = float(sizes.std() / ideal)
    return PartitionMetrics(
        sizes=tuple(int(s) for s in sizes),
        bias=bias,
        size_cv=size_cv,
        affected_count=len(assignment.affected),
    )


def balance_floor(n: int, m: int) -> float:
    """Lowest achievable bias for n points in m partitions: ceil(n/m)*m/n."""
    return math.ceil(n / m) * m / n


def split_largest_leaf(n: int, m: int, split, root_tag=None):
    """The split loop of both trees: grow m leaves of ``n`` dataset rows, always splitting the largest.

    Owns the node rows, the affected mask and the labels; a builder only cuts
    one node. A node is its dataset row numbers: None at the root, an
    ascending int64 array below it. ``split(tag, rows, room)`` cuts a leaf
    into 2 to ``room`` children (``room`` counts the leaves still missing,
    this one included) and returns per-row child labels, the affected rows
    (mask or positions, both over ``rows``) and one tag per child; whatever
    it copies of the node goes when it returns. Ties between equally large
    leaves go to the lowest leaf id; child 0 keeps its parent's id, the
    others take the next unused ids. Returns ``{leaf id: (tag, dataset
    rows)}``, every dataset row's leaf id and the affected mask.
    """
    affected = np.zeros(n, dtype=bool)
    leaves = {0: (root_tag, None)}
    heap = [(-n, 0)]
    next_id = 1
    while len(leaves) < m:
        _, lid = heapq.heappop(heap)
        tag, rows = leaves.pop(lid)
        child_labels, aff, tags = split(tag, rows, m - len(leaves))
        affected[aff if rows is None else rows[aff]] = True
        for c, child_tag in enumerate(tags):
            pid = lid if c == 0 else next_id + c - 1
            child = np.flatnonzero(child_labels == c)
            child = child if rows is None else rows[child]
            leaves[pid] = (child_tag, child)
            heapq.heappush(heap, (-len(child), pid))
        next_id += len(tags) - 1
        del child_labels, aff  # per-row arrays of this split, not held through the next
    labels = np.empty(n, dtype=np.int64)
    for lid, (tag, rows) in leaves.items():
        rows = np.arange(n) if rows is None else rows
        labels[rows] = lid
        leaves[lid] = (tag, rows)
    return leaves, labels, affected


# rows formatted per write: each block's text and its temporaries stay well under
# a megabyte, so the whole file's text is never in memory at once
_CSV_BLOCK = 1 << 14
_POWERS_OF_TEN = np.array([10**k for k in range(1, 20)], dtype=np.uint64)
_CSV_INT = re.compile(r"-?[0-9]+")  # a read field: ASCII digits only, unlike int()


def _decimal_width(value) -> int:
    """The number of decimal digits of a non-negative integer below 2**64."""
    return int(np.searchsorted(_POWERS_OF_TEN, value, side="right")) + 1


def _put_decimal(text: np.ndarray, keep: np.ndarray, values: np.ndarray) -> None:
    """Write unsigned ``values`` right-aligned as ASCII digits into the columns of ``text``.

    ``keep``, of the same shape, then flags every digit but the leading zeros;
    a zero keeps its last digit.
    """
    for k in range(text.shape[1] - 1, -1, -1):
        keep[:, k] = values != 0
        values, text[:, k] = np.divmod(values, 10)
    keep[:, -1] = True
    text += ord("0")


def write_assignment_csv(assignment: PartitionAssignment, path) -> None:
    """Write one `point-id,partition-id,affected-flag` row per point, ordered by id.

    The text is the one ``f"{id},{partition},{flag}\\n"`` gives per row, but it is
    formatted as arrays, a block of rows at a time: each row is a fixed-width
    row of ASCII digits, sized to the block's widest id and partition id, and
    the leading zeros are masked out on write.
    """
    ids, labels = assignment._ids, assignment._label_rows
    if not (ids[1:] > ids[:-1]).all():  # binary inputs come in ascending id order: no sort
        order = np.argsort(ids)
        ids, labels = ids[order], labels[order]
    flags = np.zeros(len(ids), dtype=np.uint8)
    flags[np.searchsorted(ids, assignment._affected_ids)] = 1  # affected ids are known ids
    with open(path, "wb") as f:
        for lo in range(0, len(ids), _CSV_BLOCK):
            block = slice(lo, lo + _CSV_BLOCK)
            negative = ids[block] < 0  # only a read assignment file can carry them
            # -(-2**63) wraps to itself, whose unsigned view is its magnitude 2**63
            magnitudes = np.where(negative, -ids[block], ids[block]).view(np.uint64)
            parts = labels[block].view(np.uint64)  # partition ids are non-negative
            wi, wp = _decimal_width(magnitudes.max()), _decimal_width(parts.max())
            # columns: sign, id digits, comma, partition digits, comma, flag, newline
            text = np.empty((len(parts), wi + wp + 5), dtype=np.uint8)
            keep = np.ones(text.shape, dtype=bool)
            text[:, 0], keep[:, 0] = ord("-"), negative
            _put_decimal(text[:, 1 : wi + 1], keep[:, 1 : wi + 1], magnitudes)
            text[:, wi + 1] = text[:, -3] = ord(",")
            _put_decimal(text[:, wi + 2 : -3], keep[:, wi + 2 : -3], parts)
            text[:, -2] = flags[block] + ord("0")
            text[:, -1] = ord("\n")
            f.write(text[keep])


def read_assignment_csv(path) -> PartitionAssignment:
    """Read `point-id,partition-id,affected-flag` rows; every error names the file and its line.

    A field is ASCII decimal digits with an optional leading ``-``, what the
    writer emits: ``int`` alone would also take digit groups (``1_0``) and
    non-ASCII digits (``١``). Ids are int64 and partition ids non-negative. An
    undecodable byte becomes a lone surrogate, which the field check names.
    """
    labels: dict[int, int] = {}
    affected = []
    lineno = 0
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip(string.whitespace)  # str.strip() would also take non-ASCII spaces
            if not line:
                continue
            where = f"{path}: line {lineno}"
            parts = line.split(",")
            if len(parts) != 3:
                raise ValueError(f"{where}: expected 3 fields, got {len(parts)}")
            try:  # int() also raises on a digit string over its length limit
                if not all(_CSV_INT.fullmatch(x) for x in parts):
                    raise ValueError
                pt, part, flag = (int(x) for x in parts)
            except ValueError:
                raise ValueError(f"{where}: expected three integers, got {line!r}") from None
            if not -(2**63) <= pt < 2**63:
                raise ValueError(f"{where}: point id {pt} is outside int64")
            if not 0 <= part < 2**63:
                raise ValueError(f"{where}: partition id {part} is not a non-negative int64")
            if pt in labels:
                raise ValueError(f"{where}: point id {pt} appears twice")
            if flag not in (0, 1):
                raise ValueError(f"{where}: affected flag must be 0 or 1, got {flag}")
            labels[pt] = part
            if flag:
                affected.append(pt)
    if not labels:
        raise ValueError(f"{path}: line {lineno + 1}: end of file before any assignment row")
    return PartitionAssignment(max(labels.values()) + 1, labels, affected)
