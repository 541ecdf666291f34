import dataclasses
import itertools
import json
import math
import types
from fractions import Fraction

import numpy as np
import pytest

from spacepart import vtree as vtree_module
from spacepart.cli import main
from spacepart.core import Dataset, Point, make_rng
from spacepart.dataio import save_dataset
from spacepart.kdtree import kd_partition
from spacepart.vtree import (
    VNode,
    _axis_distances,
    _check_point,
    affected_partitions,
    assign_to_centers,
    build_vtree,
    merge_order,
    route_point,
    route_point_counted,
    row_sqnorms,
    vtree_to_dict,
    vtree_to_json,
)

from conftest import integer_dataset, random_dataset


def centers_2d():
    return [Point(0, np.array([0.0, 0.0])), Point(1, np.array([10.0, 0.0]))]


def internal_nodes(root):
    stack = [root]
    while stack:
        node = stack.pop()
        if not node.is_leaf:
            yield node
            stack.extend(node.children)


class TestAssignToCenters:
    def test_plainly_nearest(self):
        pts = [Point(7, np.array([3.0, 0.0]))]
        lists, affected = assign_to_centers(pts, centers_2d(), eps=0.0)
        assert lists == [[7], []]
        assert affected == set()

    def test_equidistant_goes_to_lowest_index_and_is_affected(self):
        pts = [Point(1, np.array([5.0, 0.0]))]
        lists, affected = assign_to_centers(pts, centers_2d(), eps=0.0)
        assert lists == [[1], []]
        assert affected == {1}

    def test_margin_matches_bisector_distance(self):
        # point at x=5.4: distances 5.4 and 4.6, margin 0.8 <= 2*0.5,
        # and the bisector x=5 really is 0.4 <= eps away
        pts = [Point(0, np.array([5.4, 0.0]))]
        lists, affected = assign_to_centers(pts, centers_2d(), eps=0.5)
        assert lists == [[], [0]]
        assert affected == {0}
        lists, affected = assign_to_centers(pts, centers_2d(), eps=0.1)
        assert affected == set()

    def test_empty_centers(self):
        with pytest.raises(ValueError):
            assign_to_centers([Point(0, np.array([0.0]))], [], eps=0.0)

    def test_brute_force_cross_check(self):
        ds = random_dataset(6, 200, 2)
        centers = [ds.point(0), ds.point(1), ds.point(2)]
        eps = 2.0
        lists, affected = assign_to_centers(ds, centers, eps=eps)
        for row in range(ds.n):
            p = ds.point(row)
            dists = [float(np.sqrt(((p.coords - c.coords) ** 2).sum())) for c in centers]
            best = int(np.argmin(dists))
            assert p.id in lists[best]
            margin = sorted(dists)[1] - sorted(dists)[0]
            assert (p.id in affected) == (margin <= 2 * eps + 1e-12) or abs(margin - 2 * eps) < 1e-9


class TestBuild:
    def test_single_partition(self):
        ds = random_dataset(0, 25, 3)
        tree = build_vtree(ds, 1, seed=0)
        assert tree.levels == 0
        assert tree.root.is_leaf
        assert set(tree.leaf_assignment.labels.values()) == {0}
        assert tree.leaf_assignment.affected == frozenset()
        assert merge_order(tree).steps == ()

    def test_median_matches_kd_on_square(self):
        ds = Dataset([[0.0, 0.0], [1.0, 0.0], [0.0, 10.0], [1.0, 10.0]])
        vt = build_vtree(ds, 2, strategy="median", seed=0)
        kd = kd_partition(ds, 2)
        assert vt.leaf_assignment.labels == kd.assignment.labels

    def test_sizes_sum(self):
        ds = random_dataset(5, 333, 4)
        for strategy in ("random", "gnat", "kmeanspp", "median"):
            tree = build_vtree(ds, 7, strategy=strategy, seed=3)
            sizes = tree.leaf_assignment.sizes()
            assert sizes.sum() == 333 and len(sizes) == 7

    def test_validation(self):
        ds = random_dataset(1, 10, 2)
        with pytest.raises(ValueError):
            build_vtree(ds, 0)
        with pytest.raises(ValueError):
            build_vtree(ds, 11)
        with pytest.raises(ValueError):
            build_vtree(ds, 4, strategy="median", fanout=3)
        with pytest.raises(ValueError):
            build_vtree(ds, 4, fanout=1)
        with pytest.raises(ValueError):
            build_vtree(ds, 4, strategy="sorcery")

    @pytest.mark.parametrize("eps", [-0.5, float("nan")])
    def test_rejects_bad_eps(self, eps):
        ds = random_dataset(3, 20, 2)
        with pytest.raises(ValueError, match="eps must be non-negative"):
            build_vtree(ds, 2, eps=eps)
        with pytest.raises(ValueError, match="eps must be non-negative"):
            assign_to_centers(ds, centers_2d(), eps=eps)
        tree = build_vtree(ds, 2, seed=0)
        with pytest.raises(ValueError, match="eps must be non-negative"):
            affected_partitions(tree, ds.point(0), eps)

    def test_deterministic(self):
        ds = random_dataset(9, 120, 8)
        a = build_vtree(ds, 6, strategy="kmeanspp", seed=42)
        b = build_vtree(ds, 6, strategy="kmeanspp", seed=42)
        assert a.leaf_assignment.labels == b.leaf_assignment.labels
        assert vtree_to_json(a) == vtree_to_json(b)
        c = build_vtree(ds, 6, strategy="kmeanspp", seed=43)
        assert vtree_to_json(a) != vtree_to_json(c)

    def test_voronoi_invariant_every_node(self):
        ds = random_dataset(11, 180, 3)
        for strategy in ("random", "gnat", "kmeanspp", "median"):
            tree = build_vtree(ds, 8, strategy=strategy, seed=1)
            self._check_node(tree.root, np.arange(ds.n), ds, tree)

    def _check_node(self, node, rows, ds, tree):
        if node.is_leaf:
            want = {int(i) for i in ds.ids[node.members]}
            assert {int(i) for i in ds.ids[rows]} == want
            return
        dists = node.distances_from(ds.coords[rows])
        labels = np.argmin(dists, axis=1)
        assert np.all(dists[np.arange(len(rows)), labels] <= dists.min(axis=1))
        counts = np.bincount(labels, minlength=len(node.centers))
        assert tuple(int(c) for c in counts) == node.child_counts
        for child_index, child in enumerate(node.children):
            self._check_node(child, rows[labels == child_index], ds, tree)

    def test_internal_nodes_store_no_points(self):
        ds = random_dataset(13, 256, 5)
        tree = build_vtree(ds, 9, strategy="kmeanspp", seed=2)
        assert all(node.members is None for node in internal_nodes(tree.root))
        leaf_total = sum(len(leaf.members) for leaf in tree.leaf_nodes.values())
        assert leaf_total == ds.n

    def test_affected_accumulates_across_levels(self):
        ds = random_dataset(19, 150, 2)
        tight = build_vtree(ds, 4, strategy="kmeanspp", eps=0.0, seed=7)
        loose = build_vtree(ds, 4, strategy="kmeanspp", eps=5.0, seed=7)
        assert tight.leaf_assignment.labels == loose.leaf_assignment.labels
        assert len(tight.leaf_assignment.affected) <= len(loose.leaf_assignment.affected)
        assert len(loose.leaf_assignment.affected) > 0
        total_overlap = sum(n.overlap_count for n in internal_nodes(loose.root))
        assert total_overlap >= len(loose.leaf_assignment.affected)

    def test_fanout_schedule(self):
        ds = random_dataset(23, 243, 4)
        tree = build_vtree(ds, 9, fanout=3, strategy="kmeanspp", seed=11)
        assert len(tree.root.children) == 3
        sizes = tree.leaf_assignment.sizes()
        assert sizes.sum() == 243 and len(sizes) == 9

    def test_last_split_shrinks_fanout(self):
        ds = random_dataset(29, 100, 2)
        tree = build_vtree(ds, 4, fanout=3, strategy="kmeanspp", seed=0)
        assert tree.leaf_count == 4
        assert tree.leaf_assignment.sizes().sum() == 100

    @pytest.mark.parametrize("fanout", [2, 3])
    def test_kmeanspp_scan_count_is_rows_read(self, fanout):
        # n for the row norms, then per split k distance columns plus labelling
        # over the node's rows; continuous data, so no split is retried
        ds = random_dataset(19, 512, 4)
        one_split = build_vtree(ds, fanout, fanout=fanout, strategy="kmeanspp", seed=3)
        assert one_split.scan_count == ds.n + (fanout + 1) * ds.n
        tree = build_vtree(ds, 9, fanout=fanout, strategy="kmeanspp", seed=3)
        passes = sum((len(node.centers) + 1) * sum(node.child_counts) for node in internal_nodes(tree.root))
        assert tree.scan_count == ds.n + passes

    def test_median_scan_count_is_rows_read(self):
        # variance, selection, two axis columns and labelling per split; each
        # of the 3 levels of a 512-point, 8-leaf build reads all 512 rows
        ds = random_dataset(19, 512, 4)
        assert build_vtree(ds, 8, strategy="median").scan_count == 5 * ds.n * 3

    def test_duplicate_heavy_data_survives(self):
        coords = np.ones((40, 2))
        coords[-1] = [9.0, 9.0]
        tree = build_vtree(Dataset(coords), 2, strategy="random", seed=1)
        sizes = tree.leaf_assignment.sizes()
        assert sizes.sum() == 40

    @staticmethod
    def overflowing_norms():
        """50 uniform rows, then 50 rows scaled by 1e160: finite, but their squared norms overflow."""
        coords = make_rng(0).uniform(size=(100, 8))
        coords[50:] *= 1e160
        return Dataset(coords)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("strategy", ["random", "gnat", "kmeanspp"])
    def test_overflowing_row_norm_is_an_error(self, strategy):
        with pytest.raises(ValueError, match="^row 50's squared norm overflows float64$"):
            build_vtree(self.overflowing_norms(), 4, strategy=strategy, seed=1)

    def test_median_seeding_needs_no_row_norms(self):
        with np.errstate(over="ignore"):  # the column variance overflows; the medians do not
            tree = build_vtree(self.overflowing_norms(), 4, strategy="median")
        assert tree.leaf_assignment.sizes().tolist() == [25, 25, 25, 25]

    def test_cli_reports_an_overflowing_row_norm(self, tmp_path, capsys):
        data = tmp_path / "huge.bin"
        save_dataset(self.overflowing_norms(), data)
        assert main(["partition", "-m", "4", "-i", str(data)]) == 2
        assert "error: row 50's squared norm overflows float64" in capsys.readouterr().err
        assert not (tmp_path / "huge.assignment.csv").exists()


class TestRouting:
    def test_every_build_point_routes_home(self):
        ds = random_dataset(31, 200, 6)
        for strategy in ("random", "gnat", "kmeanspp", "median"):
            tree = build_vtree(ds, 8, strategy=strategy, seed=4)
            for row in range(ds.n):
                pid = int(ds.ids[row])
                assert route_point(tree, ds.point(row)) == tree.leaf_assignment.labels[pid]

    def test_point_at_center_routes_to_its_leaf(self):
        ds = random_dataset(37, 64, 2)
        tree = build_vtree(ds, 4, strategy="kmeanspp", seed=9)
        node = tree.root
        center = node.centers[0]
        leaf = route_point(tree, center)
        assert leaf == tree.leaf_assignment.labels[center.id]

    def test_comparison_budget(self):
        ds = random_dataset(41, 256, 2)
        tree = build_vtree(ds, 8, strategy="kmeanspp", seed=1)
        for row in range(0, ds.n, 17):
            _, comparisons = route_point_counted(tree, ds.point(row))
            assert comparisons <= 2 * tree.levels

    def test_dimension_mismatch(self):
        ds = random_dataset(43, 20, 3)
        tree = build_vtree(ds, 2, seed=0)
        with pytest.raises(ValueError):
            route_point(tree, np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            affected_partitions(tree, np.array([1.0, 2.0]), eps=0.0)

    # the squared norm is computed before the coordinates are scanned; neither may warn
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_probe(self, bad):
        ds = random_dataset(43, 20, 3)
        tree = build_vtree(ds, 4, seed=0)
        for probe in (np.array([1.0, bad, 2.0]), np.array([1e160, bad, 2.0])):
            for query in (route_point, route_point_counted, lambda t, p: affected_partitions(t, p, 0.5)):
                with pytest.raises(ValueError, match="^point has non-finite coordinates$"):
                    query(tree, probe)

    @pytest.mark.filterwarnings("error")
    def test_probe_whose_squared_norm_overflows(self):
        # finite coordinates, but |p|^2 is inf: every distance would be inf,
        # routing would take child 0 and the affected set would come out empty
        ds = random_dataset(47, 200, 16)
        tree = build_vtree(ds, 8, seed=0)
        probe = np.full(16, 1e160)
        for query in (route_point, route_point_counted, lambda t, p: affected_partitions(t, p, 0.5)):
            with pytest.raises(ValueError, match="^point's squared norm overflows float64$"):
                query(tree, probe)

    def test_strided_probe_answers_as_its_contiguous_copy(self):
        # near-ties at center-pair midpoints, where the order of a probe's sums
        # decides the route: a stride-2 view must get its copy's answers
        for seed in range(6):
            rng = make_rng(seed)
            ds = Dataset(rng.normal(size=(300, 7)))
            tree = build_vtree(ds, 16, strategy="kmeanspp", seed=seed)
            mids = [(a.coords + b.coords) / 2.0 for node in internal_nodes(tree.root)
                    for a, b in itertools.combinations(node.centers, 2)]
            mids = np.repeat(mids, 20, axis=0)  # 20 noisy probes around each midpoint
            block = np.zeros((len(mids), 14))
            block[:, ::2] = mids + rng.normal(0.0, 1e-15, size=mids.shape)
            for view in block[:, ::2]:
                copy = view.copy()
                assert not view.flags.c_contiguous
                assert route_point_counted(tree, view) == route_point_counted(tree, copy)
                assert affected_partitions(tree, view, 0.0) == affected_partitions(tree, copy, 0.0)


def brute_force_affected(tree, coords, eps):
    """Independent multi-path enumeration over explicit root-to-leaf paths."""
    results = set()

    def descend(node):
        if node.is_leaf:
            results.add(node.partition_id)
            return
        dists = node.distances_from(np.asarray(coords, dtype=float)[None, :])[0]
        dmin = dists.min()
        for j in range(len(node.centers)):
            if dists[j] - dmin <= 2 * eps:
                descend(node.children[j])

    descend(tree.root)
    return results


class TestAffectedPartitions:
    def test_zero_eps_is_route(self):
        ds = random_dataset(47, 128, 2)
        tree = build_vtree(ds, 8, strategy="kmeanspp", seed=3)
        for row in range(0, ds.n, 11):
            p = ds.point(row)
            assert affected_partitions(tree, p, eps=0.0) == {route_point(tree, p)}

    def test_equidistant_point_reaches_both_subtrees(self):
        ds = Dataset([[0.0, 0.0], [10.0, 0.0], [0.0, 1.0], [10.0, 1.0]])
        tree = build_vtree(ds, 2, strategy="median", seed=0)
        lo, hi = tree.root.centers
        mid = (lo.coords + hi.coords) / 2.0
        out = affected_partitions(tree, mid, eps=0.0)
        assert len(out) == 2

    def test_superset_of_route_and_matches_brute_force(self):
        for seed in range(8):
            ds = random_dataset(seed, 100, 2)
            tree = build_vtree(ds, 8, strategy="kmeanspp", seed=seed)
            probe_rows = range(0, ds.n, 7)
            for eps in (0.0, 1.0, 10.0):
                for row in probe_rows:
                    p = ds.point(row)
                    got = affected_partitions(tree, p, eps)
                    assert route_point(tree, p) in got
                    assert got == brute_force_affected(tree, p.coords, eps)


def reference_route(tree, coords):
    """Route through the batch kernel: ``VNode.squared_distances`` plus ``np.argmin``."""
    row = np.asarray(coords, dtype=float)[None, :]
    node, comparisons = tree.root, 0
    while not node.is_leaf:
        comparisons += len(node.centers)
        node = node.children[int(np.argmin(node.squared_distances(row)[0]))]
    return node.partition_id, comparisons


QUERY_BUILDS = [
    ("random", 2),
    ("gnat", 2),
    ("kmeanspp", 2),
    ("median", 2),
    ("random", 4),
    ("gnat", 4),
    ("kmeanspp", 4),
]


def query_probes(ds, tree, seed):
    """Build points, noisy points, every center, and the midpoint of every center pair.

    On integer data the midpoints are exact, so a probe that reaches the
    node whose centers they split is tied between them.
    """
    rng = np.random.default_rng(seed)
    probes = [ds.coords[row] for row in range(0, ds.n, 3)]
    probes += list(ds.coords[rng.integers(ds.n, size=30)] + rng.normal(0.0, 1.0, size=(30, ds.dims)))
    for node in internal_nodes(tree.root):
        probes += [c.coords for c in node.centers]
        probes += [(a.coords + b.coords) / 2.0 for a, b in itertools.combinations(node.centers, 2)]
    return probes


class TestQueryWalk:
    """The per-probe walk against reference walks through the batch node kernel."""

    # 8 and 1024 are the benchmark workloads' dimensions, where the walks'
    # inline distances are 8- and 1024-term dot products; 37 float dimensions
    # give sums whose rounding depends on the order of the products, and 1 a
    # single product
    WALK_DATA = {
        "float": lambda: random_dataset(73, 300, 5),
        "integer": lambda: integer_dataset(79, 300, 4),
        "float-8d": lambda: random_dataset(73, 300, 8),
        "float-1024d": lambda: random_dataset(73, 300, 1024),
        "float-37d": lambda: random_dataset(73, 300, 37),
        "float-1d": lambda: random_dataset(73, 300, 1),
    }

    @pytest.mark.parametrize("data", list(WALK_DATA))
    @pytest.mark.parametrize("strategy,fanout", QUERY_BUILDS)
    def test_route_and_affected_match_reference_walks(self, data, strategy, fanout):
        ds = self.WALK_DATA[data]()
        ties = 0
        for m in (2, 7, 64):
            tree = build_vtree(ds, m, fanout=fanout, strategy=strategy, seed=m)
            assert (strategy == "median") == all(n.axis is not None for n in internal_nodes(tree.root))
            for p in query_probes(ds, tree, m):
                assert route_point_counted(tree, p) == reference_route(tree, p)
                for eps in (0.0, 0.5):
                    got = affected_partitions(tree, p, eps)
                    assert got == brute_force_affected(tree, p, eps)
                    if eps == 0.0 and len(got) > 1:
                        ties += 1
        if data == "integer":
            assert ties > 0  # exact midpoints did reach their nodes

    # the axis (median) nodes' distances; the walks inline the others, which
    # the reference walks above check
    KERNEL_DATA = {
        "float": lambda: random_dataset(83, 200, 37),
        "integer": lambda: integer_dataset(83, 200, 6),
        "float-1d": lambda: random_dataset(83, 200, 1),
        "float-8d": lambda: random_dataset(83, 200, 8),
        "float-1024d": lambda: random_dataset(83, 200, 1024),
    }

    @pytest.mark.parametrize("data", list(KERNEL_DATA))
    @pytest.mark.parametrize("strategy,fanout", [("median", 2)])
    def test_probe_distances_equal_node_kernel_bit_for_bit(self, data, strategy, fanout):
        ds = self.KERNEL_DATA[data]()
        tree = build_vtree(ds, 16, fanout=fanout, strategy=strategy, seed=5)
        probes = query_probes(ds, tree, 5)[::4]
        for node in internal_nodes(tree.root):
            for p in probes:
                row = _check_point(tree, p)[0]
                assert row.shape == (ds.dims,)
                squared = np.array(_axis_distances(node, row, real=False))
                real = np.array(_axis_distances(node, row, real=True))
                assert squared.tobytes() == node.squared_distances(row[None, :])[0].tobytes()
                assert real.tobytes() == node.distances_from(row[None, :])[0].tobytes()

    @pytest.mark.parametrize("d", [1, 7, 8, 9, 17, 37, 1023, 1024, 1025])
    def test_probe_sqnorm_equals_row_sqnorms(self, d):
        # the walks' 1-D norm must be the float row_sqnorms gives on the row's
        # contiguous copy, for a contiguous row and for a strided view alike
        rng = np.random.default_rng(d)
        tree = types.SimpleNamespace(dims=d)
        for scale in (1e-3, 1.0, 1e3, 1e100):
            block = rng.normal(size=(20, 2 * d)) * scale
            for row in list(block[:, :d]) + list(block[:, ::2]):
                assert row.shape == (d,)
                assert _check_point(tree, row)[1] == float(row_sqnorms(row.copy()[None, :])[0])

    @staticmethod
    def hand_built(tree, centers, sqnorms):
        """``tree`` with its root replaced by one node over the given centers, each child a leaf."""
        root = VNode(
            level=0,
            centers=tuple(Point(i, np.array(c, dtype=float)) for i, c in enumerate(centers)),
            center_sqnorms=tuple(sqnorms),
            children=tuple(VNode(level=1, partition_id=i) for i in range(len(centers))),
        )
        return dataclasses.replace(tree, root=root, dims=2, levels=1)

    @pytest.mark.parametrize("case", ["all-inf", "four-way-tie"])
    def test_edge_nodes_follow_first_minimum(self, case):
        base = build_vtree(random_dataset(5, 20, 2), 2, strategy="kmeanspp", seed=1)
        if case == "all-inf":
            # every center distance is +inf: the walk must still pick child 0
            tree = self.hand_built(base, [(1.0, 0.0), (0.0, 1.0), (2.0, 2.0)], [math.inf] * 3)
            first = 0
        else:
            # centers 1-4 are each exactly 1 from the origin, center 0 is 3 away
            centers = [(3.0, 0.0), (1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0)]
            tree = self.hand_built(base, centers, [c[0] ** 2 + c[1] ** 2 for c in centers])
            first = 1
        probe = np.zeros(2)
        dists = tree.root.squared_distances(probe[None, :])[0].tolist()
        assert dists.index(min(dists)) == first
        assert route_point_counted(tree, probe) == reference_route(tree, probe) == (first, len(dists))
        assert route_point(tree, probe) == first
        for eps in (0.0, 0.5, 10.0):
            with np.errstate(invalid="ignore"):  # inf - inf in the reference's margin test
                expected = brute_force_affected(tree, probe, eps)
            assert affected_partitions(tree, probe, eps) == expected

    def test_walk_table_is_built_once_by_the_first_query(self, monkeypatch, tmp_path, capsys):
        built = []
        real = vtree_module._walk_table

        def counting(node):
            built.append(node)
            return real(node)

        monkeypatch.setattr(vtree_module, "_walk_table", counting)
        ds = random_dataset(7, 200, 3)
        tree = build_vtree(ds, 8, strategy="kmeanspp", eps=0.5, seed=2)
        vtree_to_json(tree)
        data = tmp_path / "data.bin"
        assert main(["gen", "--uniform", "-n", "100", "-d", "2", "--seed", "1", "-o", str(data)]) == 0
        out = str(tmp_path / "run")
        assert main(["partition", "--scheme", "vtree", "-m", "4", "--eps", "0.1", "-i", str(data), "-o", out]) == 0
        capsys.readouterr()
        assert built == [] and "_walk" not in vars(tree)

        p = ds.coords[0]
        leaf = route_point(tree, p)
        table = vars(tree)["_walk"]
        route_point_counted(tree, ds.coords[1])
        assert leaf in affected_partitions(tree, p, 0.5)
        assert tree._walk is table
        assert [node for node in built if node is tree.root] == [tree.root]
        assert len(built) == len(list(internal_nodes(tree.root))) + tree.leaf_count

    @pytest.mark.xfail(strict=True, reason="the expansion kernel cancels on probes with a huge norm")
    def test_huge_probe_follows_exact_distances(self):
        # |p|^2 = 1.024e303 swamps 2 p.c and |c|^2: both root distances round
        # to the same float, so the walk takes child 0 (exactly, child 1 is
        # nearer) and every leaf looks tied at eps 0
        ds = Dataset(np.random.default_rng(0).normal(size=(500, 1024)))
        tree = build_vtree(ds, 64, strategy="kmeanspp", seed=0)
        probe = np.full(1024, 1e150)
        exact_probe = [Fraction(v) for v in probe]

        def exact_distances(node):
            return [sum((a - Fraction(b)) ** 2 for a, b in zip(exact_probe, c.coords)) for c in node.centers]

        node = tree.root
        while not node.is_leaf:
            dists = exact_distances(node)
            node = node.children[dists.index(min(dists))]
        exact_leaf = node.partition_id
        tied, stack = set(), [tree.root]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                tied.add(node.partition_id)
                continue
            dists = exact_distances(node)
            stack.extend(child for child, d in zip(node.children, dists) if d == min(dists))
        assert route_point(tree, probe) == exact_leaf
        assert affected_partitions(tree, probe, 0.0) == tied


class TestMergeOrder:
    def test_binary_four_leaves(self):
        ds = random_dataset(53, 64, 2)
        tree = build_vtree(ds, 4, strategy="kmeanspp", seed=1)
        order = merge_order(tree)
        assert len(order.steps) == 3
        assert order.replay() >= 4

    def test_fanout_three_nine_leaves(self):
        ds = random_dataset(59, 243, 3)
        tree = build_vtree(ds, 9, fanout=3, strategy="kmeanspp", seed=2)
        order = merge_order(tree)
        assert len(order.steps) == 4
        order.replay()

    def test_each_leaf_used_once(self):
        ds = random_dataset(61, 200, 2)
        tree = build_vtree(ds, 11, strategy="gnat", seed=3)
        order = merge_order(tree)
        seen = [c for step in order.steps for c in step.children if c < tree.leaf_count]
        assert sorted(seen) == list(range(11))
        order.replay()


class TestSerialization:
    def test_json_structure(self):
        ds = random_dataset(67, 50, 2)
        tree = build_vtree(ds, 3, strategy="kmeanspp", eps=0.5, seed=6)
        doc = json.loads(vtree_to_json(tree))
        assert doc["kind"] == "vtree"
        assert doc["m"] == 3 and doc["strategy"] == "kmeanspp"
        root = doc["root"]
        assert {"level", "centers", "counts", "overlap_count", "children"} <= set(root)
        assert len(root["centers"][0]["coords"]) == 2

    def test_dict_counts_match_assignment(self):
        ds = random_dataset(71, 80, 2)
        tree = build_vtree(ds, 4, strategy="random", seed=8)
        doc = vtree_to_dict(tree)

        def leaf_counts(node):
            if "leaf" in node:
                return {node["leaf"]: node["count"]}
            out = {}
            for child in node["children"]:
                out.update(leaf_counts(child))
            return out

        sizes = tree.leaf_assignment.sizes()
        assert leaf_counts(doc["root"]) == {i: int(sizes[i]) for i in range(4)}
