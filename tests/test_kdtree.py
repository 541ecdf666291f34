import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from spacepart.core import Dataset
from spacepart.kdtree import (
    KdNode,
    kd_partition,
    kd_route,
    kd_tree_to_dict,
    kd_tree_to_json,
    select_median,
    select_rank,
)

from conftest import random_dataset


class TestSelection:
    def test_examples(self):
        assert select_median([1, 3, 2]) == 2
        assert select_median([5]) == 5
        assert select_median([4, 1, 3, 2]) == 2

    def test_empty(self):
        with pytest.raises(ValueError):
            select_median([])

    def test_rank_bounds(self):
        with pytest.raises(ValueError):
            select_rank([1.0, 2.0], 2)

    def test_rejects_2d_input(self):
        with pytest.raises(ValueError, match="1-D"):
            select_rank(np.zeros((3, 2)), 0)

    @pytest.mark.parametrize("values", [[0.0, -0.0, 1.0], [-0.0, 0.0, 1.0]])
    def test_zero_median_is_positive_zero(self, values):
        assert math.copysign(1.0, select_median(values)) == 1.0

    @given(st.lists(st.integers(-100, 100), min_size=1, max_size=200))
    def test_median_matches_sort(self, values):
        assert select_median(values) == sorted(values)[(len(values) - 1) // 2]

    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=100), st.data())
    def test_rank_matches_sort(self, values, data):
        rank = data.draw(st.integers(0, len(values) - 1))
        assert select_rank(values, rank) == sorted(values)[rank]


def walk_internal(node):
    if isinstance(node, KdNode):
        yield node
        yield from walk_internal(node.left)
        yield from walk_internal(node.right)


def walk_with_rows(node, ds, rows):
    """Yield (node, rows of its points) by replaying the recorded routing."""
    if not isinstance(node, KdNode):
        return
    yield node, rows
    col = ds.coords[rows, node.split_dim]
    left = col < node.split_value
    if node.tie_left_max_id is not None:
        left |= (col == node.split_value) & (ds.ids[rows] <= node.tie_left_max_id)
    yield from walk_with_rows(node.left, ds, rows[left])
    yield from walk_with_rows(node.right, ds, rows[~left])


class TestKdPartition:
    def test_four_point_example(self):
        ds = Dataset([[0.0, 0.0], [1.0, 0.0], [0.0, 10.0], [1.0, 10.0]])
        tree = kd_partition(ds, 2)
        assert tree.root.split_dim == 1  # variance 25 beats 0.25
        labels = tree.assignment.labels
        assert labels[0] == labels[1] and labels[2] == labels[3]
        assert labels[0] != labels[2]

    def test_single_partition(self):
        ds = random_dataset(0, 20, 3)
        tree = kd_partition(ds, 1)
        assert tree.root == 0
        assert set(tree.assignment.labels.values()) == {0}
        assert tree.assignment.affected == frozenset()
        assert tree.scan_count == 0

    def test_m_validation(self):
        ds = random_dataset(0, 5, 2)
        with pytest.raises(ValueError):
            kd_partition(ds, 0)
        with pytest.raises(ValueError):
            kd_partition(ds, 6)

    @pytest.mark.parametrize("eps", [-1.0, float("nan")])
    def test_rejects_bad_eps(self, eps):
        with pytest.raises(ValueError, match="eps must be non-negative"):
            kd_partition(random_dataset(0, 5, 2), 2, eps=eps)

    @pytest.mark.parametrize("zeros", [(0.0, -0.0), (-0.0, 0.0)])
    def test_zero_split_value_is_positive_zero(self, zeros):
        # the split column holds both zeros and its lower median is one of them
        ds = Dataset([[-2.0, 0.0], [zeros[0], 0.0], [zeros[1], 0.0], [2.0, 0.0]])
        tree = kd_partition(ds, 2)
        assert tree.root.split_dim == 0
        assert math.copysign(1.0, tree.root.split_value) == 1.0
        assert '"split_value": 0.0' in kd_tree_to_json(tree)

    def test_uniform_quarters(self):
        ds = random_dataset(7, 100, 2)
        tree = kd_partition(ds, 4)
        assert sorted(tree.assignment.sizes()) == [25, 25, 25, 25]

    def test_every_split_balanced(self):
        for seed in range(10):
            n = 16 + seed * 37
            ds = random_dataset(seed, n, 3)
            tree = kd_partition(ds, 8)
            for node in walk_internal(tree.root):
                left = node.left.point_count if isinstance(node.left, KdNode) else tree.leaf_sizes[node.left]
                right = node.right.point_count if isinstance(node.right, KdNode) else tree.leaf_sizes[node.right]
                assert abs(left - right) <= 1
                assert left + right == node.point_count

    def test_balanced_with_heavy_duplicates(self):
        rng = np.random.default_rng(3)
        coords = rng.integers(0, 3, size=(101, 2)).astype(float)
        tree = kd_partition(Dataset(coords), 4)
        sizes = tree.assignment.sizes()
        assert sizes.sum() == 101
        assert sizes.max() - sizes.min() <= math.ceil(math.log2(4))

    def test_split_sides_respect_median(self):
        ds = random_dataset(11, 200, 4)
        tree = kd_partition(ds, 8)
        coords = {int(i): ds.coords[row] for row, i in enumerate(ds.ids)}

        def check(node, members):
            if not isinstance(node, KdNode):
                assert {tree.assignment.labels[i] for i in members} == {node}
                return
            left, right = [], []
            for pid in members:
                v = coords[pid][node.split_dim]
                side = kd_route_one(node, pid, v)
                (left if side == "L" else right).append(pid)
                if side == "L":
                    assert v <= node.split_value
                else:
                    assert v >= node.split_value
            assert len(left) == (len(members) + 1) // 2
            check(node.left, left)
            check(node.right, right)

        def kd_route_one(node, pid, v):
            if v < node.split_value:
                return "L"
            if v > node.split_value:
                return "R"
            if node.tie_left_max_id is not None and pid <= node.tie_left_max_id:
                return "L"
            return "R"

        check(tree.root, list(tree.assignment.labels))

    def test_route_agrees_with_assignment(self):
        ds = random_dataset(13, 150, 3)
        tree = kd_partition(ds, 8)
        for row in range(ds.n):
            pid = int(ds.ids[row])
            assert kd_route(tree, pid, ds.coords[row]) == tree.assignment.labels[pid]

    def test_determinism(self):
        ds = random_dataset(5, 128, 6)
        a = kd_partition(ds, 8)
        b = kd_partition(ds, 8)
        assert a.assignment.labels == b.assignment.labels
        assert kd_tree_to_json(a) == kd_tree_to_json(b)

    def test_affected_points_near_split(self):
        coords = [[float(i)] for i in range(10)]
        ds = Dataset(coords)
        tree = kd_partition(ds, 2, eps=1.5)
        # lower median of 0..9 is 4; points within 1.5 of it are 3, 4, 5
        assert tree.root.split_value == 4.0
        assert tree.assignment.affected == {3, 4, 5}

    def test_affected_at_zero_eps_is_median_points_only(self):
        ds = random_dataset(17, 64, 2)
        tree = kd_partition(ds, 4, eps=0.0)
        # continuous data: each of the 3 splits flags exactly its median point
        assert len(tree.assignment.affected) == 3

    def test_scan_count_scales_with_levels(self):
        ds = random_dataset(19, 512, 4)
        tree = kd_partition(ds, 8)
        levels = 3
        assert tree.scan_count >= 3 * ds.n * levels  # variance + partition + affected per level
        assert tree.scan_count <= 40 * ds.n * levels

    @pytest.mark.parametrize("eps, passes", [(0.0, 3), (0.5, 4)])
    def test_scan_count_is_rows_read(self, eps, passes):
        # variance, selection and labelling per split, plus the band at eps > 0;
        # each of the 3 levels of a 512-point, 8-leaf build reads all 512 rows
        ds = random_dataset(19, 512, 4)
        assert kd_partition(ds, 8, eps=eps).scan_count == passes * ds.n * 3

    @pytest.mark.parametrize(
        "ds",
        [
            random_dataset(31, 300, 5),
            Dataset(np.random.default_rng(4).integers(0, 3, size=(257, 3)).astype(float)),
            Dataset(
                np.random.default_rng(6).normal(size=(120, 2)),
                ids=np.random.default_rng(7).permutation(10_000)[:120] * 7 + 3,
            ),
        ],
        ids=["float", "integer-ties", "custom-ids"],
    )
    def test_split_value_is_sorted_lower_median(self, ds):
        tree = kd_partition(ds, 16, eps=0.25)
        nodes = list(walk_with_rows(tree.root, ds, np.arange(ds.n)))
        assert len(nodes) == 15
        for node, rows in nodes:
            assert len(rows) == node.point_count
            col = np.sort(ds.coords[rows, node.split_dim])
            assert node.split_value == col[(node.point_count - 1) // 2]

    @pytest.mark.parametrize("eps", [0.0, 1.0])
    def test_affected_is_union_of_split_bands_with_ties(self, eps):
        ds = Dataset(np.random.default_rng(4).integers(0, 5, size=(257, 3)).astype(float))
        tree = kd_partition(ds, 16, eps=eps)
        expected = set()
        for node, rows in walk_with_rows(tree.root, ds, np.arange(ds.n)):
            near = np.abs(ds.coords[rows, node.split_dim] - node.split_value) <= eps
            expected.update(ds.ids[rows[near]].tolist())
        assert tree.assignment.affected == expected

    def test_json_structure(self):
        ds = random_dataset(23, 32, 2)
        tree = kd_partition(ds, 4)
        doc = json.loads(kd_tree_to_json(tree))
        assert doc["kind"] == "kdtree"
        root = doc["root"]
        assert {"split_dim", "split_value", "count", "left", "right"} <= set(root)
        assert doc["leaf_count"] == 4

    def test_non_power_of_two(self):
        ds = random_dataset(29, 90, 3)
        tree = kd_partition(ds, 5)
        sizes = tree.assignment.sizes()
        assert sizes.sum() == 90 and len(sizes) == 5
        # largest-first: 90 -> 45+45 -> 23+22 twice -> the remaining 23 splits
        assert sorted(sizes) == [11, 12, 22, 22, 23]
