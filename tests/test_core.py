import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spacepart.core as core
from spacepart.core import (
    Dataset,
    PartitionAssignment,
    Point,
    balance_floor,
    compute_metrics,
    euclidean_distance,
    generate_gaussian_mixture,
    generate_uniform,
    read_assignment_csv,
    split_largest_leaf,
    variance_per_dimension,
    write_assignment_csv,
)
from spacepart.kdtree import kd_partition
from spacepart.seeding import median_positions
from spacepart.vtree import build_vtree

# Clean grid-valued coordinates: distinct values differ by at least 1e-3, so
# no squared difference underflows and metric properties hold numerically.
coord = st.integers(-(10**6), 10**6).map(lambda v: v / 1000.0)


def vec(dims):
    return st.lists(coord, min_size=dims, max_size=dims).map(np.array)


class TestEuclideanDistance:
    def test_three_four_five(self):
        assert euclidean_distance((0.0, 0.0), (3.0, 4.0)) == 5.0

    def test_identity(self):
        p = Point(0, np.array([1.5, -2.0, 7.0]))
        assert euclidean_distance(p, p) == 0.0

    def test_high_dim_unit_cube_diagonal(self):
        a = np.zeros(1024)
        b = np.ones(1024)
        assert euclidean_distance(a, b) == 32.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            euclidean_distance((0.0, 0.0), (1.0, 2.0, 3.0))

    @given(st.integers(1, 6).flatmap(lambda d: st.tuples(vec(d), vec(d))))
    def test_symmetry_and_nonnegativity(self, pair):
        a, b = pair
        assert euclidean_distance(a, b) == euclidean_distance(b, a) >= 0.0

    @given(st.integers(1, 6).flatmap(lambda d: st.tuples(vec(d), vec(d))))
    def test_zero_iff_identical(self, pair):
        a, b = pair
        d = euclidean_distance(a, b)
        if np.array_equal(a, b):
            assert d == 0.0
        else:
            assert d > 0.0

    @given(st.integers(1, 6).flatmap(lambda d: st.tuples(vec(d), vec(d), vec(d))))
    def test_triangle_inequality(self, triple):
        a, b, c = triple
        d_ac = euclidean_distance(a, c)
        d_ab = euclidean_distance(a, b)
        d_bc = euclidean_distance(b, c)
        assert d_ac <= d_ab + d_bc + 1e-9 * max(1.0, d_ac)


def variance_oracle(coords):
    """Naive two-pass population variance, one dimension at a time."""
    n, d = len(coords), len(coords[0])
    out = []
    for j in range(d):
        mean = sum(coords[i][j] for i in range(n)) / n
        out.append(sum((coords[i][j] - mean) ** 2 for i in range(n)) / n)
    return out


class TestVariancePerDimension:
    def test_two_points(self):
        ds = Dataset([[0.0, 0.0], [0.0, 10.0]])
        assert list(variance_per_dimension(ds)) == [0.0, 25.0]

    def test_single_point(self):
        ds = Dataset([[3.0, 4.0, 5.0]])
        assert list(variance_per_dimension(ds)) == [0.0, 0.0, 0.0]

    def test_four_points_vs_oracle(self):
        coords = [[0.0, 0.0], [1.0, 0.0], [0.0, 10.0], [1.0, 10.0]]
        ds = Dataset(coords)
        got = variance_per_dimension(ds)
        oracle = variance_oracle(coords)
        assert oracle == [0.25, 25.0]
        np.testing.assert_allclose(got, oracle, rtol=1e-9)

    def test_empty_dataset_impossible(self):
        with pytest.raises(ValueError):
            Dataset(np.empty((0, 3)))

    @given(st.integers(0, 10**6), st.integers(1, 60), st.integers(1, 5))
    def test_matches_oracle(self, seed, n, d):
        rng = np.random.default_rng(seed)
        coords = rng.uniform(-50, 50, size=(n, d))
        got = variance_per_dimension(Dataset(coords))
        want = variance_oracle(coords.tolist())
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-12)

    @pytest.mark.parametrize(
        "n, d",
        # all but 200001 x 1024, which would need 1.6 GB
        [(n, d) for n in (1, 2, 3, 17, 4097, 200_001) for d in (*range(1, 10), 16, 128, 1024) if n * d <= 5_000_000],
    )
    def test_column_variance_has_numpys_bits(self, n, d):
        # on the whole data and on a copy of a node's rows, far from the origin too;
        # Fortran-ordered rows take numpy's own var
        rng = np.random.default_rng(n * 1031 + d)
        base = rng.normal(size=(n, d)) * rng.uniform(0.1, 100.0, size=d)
        rows = np.sort(rng.choice(n, size=max(1, n // 3), replace=False))
        for offset in (0.0, 1e4, 1e8, -1e12):
            x = base + offset
            node = np.take(x, rows, axis=0)
            for arr in (x, node, np.asfortranarray(node)):
                assert core._column_variance(arr).tobytes() == arr.var(axis=0).tobytes()
            assert variance_per_dimension(Dataset(x)).tobytes() == x.var(axis=0).tobytes()

    @pytest.mark.parametrize("d", [1, 2, 8, 128, 129, 1024])
    @pytest.mark.parametrize("rows_past_step", [-1, 0, 1, "3step+5", "piece-1", "piece+1"])
    def test_row_blocks_have_numpys_bits(self, d, rows_past_step):
        # node row counts on either side of one piece, of one block and across
        # several, picked in ascending order from a dataset with 1/16 more rows, far
        # from the origin too; the input is read-only, as a dataset's coordinates
        # are, so a kernel that wrote to it would raise
        step, piece = core._block_rows(d), core._piece_rows(d)
        sizes = {"3step+5": 3 * step + 5, "piece-1": piece - 1, "piece+1": piece + 1}
        n = sizes[rows_past_step] if rows_past_step in sizes else step + rows_past_step
        rng = np.random.default_rng(n * 7 + d)
        base = rng.normal(size=(n + n // 16 + 3, d)) * rng.uniform(0.1, 100.0, size=d)
        rows = np.sort(rng.choice(len(base), size=n, replace=False))
        for offset in (0.0, 1e4, 1e8, -1e12):
            x = base + offset
            node = x[rows]
            x.setflags(write=False)
            node.setflags(write=False)
            want = node.var(axis=0).tobytes()
            assert core._column_variance(x, rows).tobytes() == want
            assert core._column_variance(node).tobytes() == want

    @pytest.mark.parametrize("d", [2, 8, 129, 1024, 40000])
    def test_row_pieces_have_numpys_bits(self, d):
        # inputs over one block are read a piece at a time: one block + 1 row (the
        # fewest read in pieces), a multiple of the piece rows and one row either
        # side, and several pieces plus a short tail. At d = 40000 a piece is 4
        # rows. Rows picked in ascending order and the same rows as one array,
        # far from the origin too; the input is read-only, as a dataset's is
        block, piece = core._block_rows(d), core._piece_rows(d)
        whole = (block // piece + 1) * piece  # the fewest whole pieces over one block
        sizes = (block + 1, whole - 1, whole, whole + 1, whole + 3 * piece + 3)
        assert min(sizes) > block
        rng = np.random.default_rng(d)
        base = rng.normal(size=(max(sizes) * 17 // 16, d)) * rng.uniform(0.1, 100.0, size=d)
        for offset in (0.0, 1e8, -1e12):
            x = base + offset
            x.setflags(write=False)
            for n in sizes:
                rows = np.sort(rng.choice(len(x), size=n, replace=False))
                node = x[rows]
                node.setflags(write=False)
                want = node.var(axis=0).tobytes()
                assert core._column_variance(x, rows).tobytes() == want, (offset, n)
                assert core._column_variance(node).tobytes() == want, (offset, n)

    @pytest.mark.filterwarnings("error")
    def test_overflowing_variances_pick_the_widest_axis(self):
        # 50 uniform rows and 50 rows near 1e160, column 5 ten times wider: every
        # variance overflows, and the axis must still follow the real spread
        coords = core.make_rng(0).uniform(size=(100, 8))
        coords[50:] *= 1e160
        coords[:, 5] *= 10.0
        ds = Dataset(coords)
        with np.errstate(over="ignore"):
            assert np.isinf(variance_per_dimension(ds)).all()
        assert core._widest_axis(ds.coords) == 5
        assert core._widest_axis(ds.coords, np.arange(100)) == 5
        assert kd_partition(ds, 2).root.split_dim == 5
        assert median_positions(ds.coords, ds.ids)[1] == 5
        assert build_vtree(ds, 2, strategy="median", seed=0).root.axis == 5

    @pytest.mark.parametrize("d", [3, 8, 1024])
    def test_kd_median_seeding_and_variance_pick_one_axis(self, d):
        # every column is a permutation of the same values: the variances are equal
        # but for rounding, so the axis follows the routine's exact bits
        rng = np.random.default_rng(d)
        values = rng.normal(size=600) * 10.0 + 1e8
        ds = Dataset(np.column_stack([rng.permutation(values) for _ in range(d)]))
        variances = variance_per_dimension(ds)
        assert len(set(variances.tolist())) > 1
        axis = int(np.argmax(variances))
        assert kd_partition(ds, 2).root.split_dim == axis
        assert median_positions(ds.coords, ds.ids)[1] == axis
        assert build_vtree(ds, 2, strategy="median", seed=0).root.axis == axis

    def test_large_matches_oracle(self):
        rng = np.random.default_rng(42)
        coords = rng.uniform(0, 100, size=(10_000, 64))
        got = variance_per_dimension(Dataset(coords))
        want = coords.var(axis=0, ddof=0)  # same formula, separate call path
        mean = coords.mean(axis=0)
        manual = ((coords - mean) ** 2).sum(axis=0) / len(coords)
        np.testing.assert_allclose(got, manual, rtol=1e-9)
        np.testing.assert_allclose(got, want, rtol=1e-12)


class TestGenerators:
    def test_uniform_contract(self):
        ds = generate_uniform(100, 2, lo=-1.0, hi=3.0, seed=11)
        assert (ds.n, ds.dims) == (100, 2)
        assert (ds.coords >= -1.0).all() and (ds.coords < 3.0).all()

    def test_uniform_deterministic(self):
        a = generate_uniform(50, 3, seed=9)
        b = generate_uniform(50, 3, seed=9)
        assert np.array_equal(a.coords, b.coords)
        c = generate_uniform(50, 3, seed=10)
        assert not np.array_equal(a.coords, c.coords)

    def test_uniform_bad_range(self):
        with pytest.raises(ValueError):
            generate_uniform(10, 2, lo=5.0, hi=5.0)

    def test_uniform_large_scale(self):
        ds = generate_uniform(40_000, 1024, seed=0)
        assert (ds.n, ds.dims) == (40_000, 1024)

    def test_mixture_deterministic(self):
        a = generate_gaussian_mixture(64, 4, k=3, spread=2.0, seed=5)
        b = generate_gaussian_mixture(64, 4, k=3, spread=2.0, seed=5)
        assert np.array_equal(a.coords, b.coords)

    def test_mixture_zero_noise_limit(self):
        ds = generate_gaussian_mixture(4, 3, k=4, spread=1e-12, seed=2)
        # round-robin with n == k puts one point at each center
        dists = [
            min(euclidean_distance(ds.coords[i], ds.coords[j]) for j in range(4) if j != i)
            for i in range(4)
        ]
        assert min(dists) > 1.0  # centers are far apart relative to the noise
        spreads = ds.coords - generate_gaussian_mixture(4, 3, k=4, spread=1e-12, seed=2).coords
        assert np.abs(spreads).max() == 0.0

    def test_mixture_round_robin_sizes(self):
        n, k = 1500, 8
        counts = np.bincount(np.arange(n) % k)
        assert sorted(counts.tolist()) == [187] * 4 + [188] * 4

    def test_mixture_k_greater_than_n(self):
        with pytest.raises(ValueError):
            generate_gaussian_mixture(3, 2, k=4)


class TestMetrics:
    def _assignment(self, sizes):
        labels = {}
        pid = 0
        for part, size in enumerate(sizes):
            for _ in range(size):
                labels[pid] = part
                pid += 1
        return PartitionAssignment(len(sizes), labels)

    def test_perfect_balance(self):
        m = compute_metrics(self._assignment([25, 25, 25, 25]))
        assert m.bias == 1.0 and m.size_cv == 0.0

    def test_worst_two_way(self):
        m = compute_metrics(self._assignment([100, 0]))
        assert m.bias == 2.0

    def test_three_way(self):
        m = compute_metrics(self._assignment([50, 30, 20]))
        assert m.bias == 1.5
        assert sum(m.sizes) == 100

    def test_single_partition(self):
        m = compute_metrics(self._assignment([17]))
        assert m.bias == 1.0

    @given(st.lists(st.integers(0, 40), min_size=1, max_size=8).filter(lambda s: sum(s) > 0))
    def test_sizes_sum_and_bias_floor(self, sizes):
        m = compute_metrics(self._assignment(sizes))
        n, parts = sum(sizes), len(sizes)
        assert sum(m.sizes) == n
        assert m.bias >= 1.0 - 1e-12
        assert m.bias >= balance_floor(n, parts) - 1e-12 or max(sizes) < math.ceil(n / parts)

    def test_balance_floor(self):
        assert balance_floor(100, 4) == 1.0
        assert balance_floor(10, 3) == pytest.approx(1.2)


class TestAssignmentValidation:
    def test_label_out_of_range(self):
        with pytest.raises(ValueError):
            PartitionAssignment(2, {0: 2})

    def test_affected_must_be_labelled(self):
        with pytest.raises(ValueError):
            PartitionAssignment(2, {0: 1}, affected=[5])

    def test_validate_against(self):
        ds = Dataset([[0.0], [1.0]])
        good = PartitionAssignment(1, {0: 0, 1: 0})
        good.validate_against(ds)
        with pytest.raises(ValueError):
            PartitionAssignment(1, {0: 0}).validate_against(ds)


# every decimal width boundary of a non-negative int64, and the extremes of either sign
_EDGE_IDS = sorted({0, 2**62, 2**63 - 1, -1, -10, -(2**63)} | {v for k in range(1, 19) for v in (10**k - 1, 10**k)})


def _per_row_csv(ids, labels, affected) -> bytes:
    """The reference text: one f-string per row, in id order."""
    flagged = set(np.asarray(affected, dtype=np.int64).tolist())
    rows = sorted(zip(np.asarray(ids, dtype=np.int64).tolist(), np.asarray(labels, dtype=np.int64).tolist()))
    return "".join(f"{i},{p},{int(i in flagged)}\n" for i, p in rows).encode()


class TestAssignmentCsv:
    def test_rows_by_id_with_flags(self, tmp_path):
        a = PartitionAssignment(3, {12: 2, 3: 0, 700: 1, 5: 0}, affected=[700, 3, 3])
        path = tmp_path / "a.csv"
        write_assignment_csv(a, path)
        assert path.read_bytes() == b"3,0,1\n5,0,0\n12,2,0\n700,1,1\n"
        back = read_assignment_csv(path)
        assert back.labels == a.labels and back.affected == a.affected

    def test_matches_per_row_form_across_blocks(self, tmp_path):
        # more rows than one formatting block, ids out of order
        rng = np.random.default_rng(4)
        ids = rng.permutation(40_000) * 3
        labels = rng.integers(0, 7, size=ids.size)
        affected = ids[rng.random(ids.size) < 0.1]
        a = PartitionAssignment.from_arrays(7, ids, labels, affected)
        path = tmp_path / "big.csv"
        write_assignment_csv(a, path)
        flagged = set(affected.tolist())
        want = "".join(f"{i},{a.labels[i]},{int(i in flagged)}\n" for i in sorted(a.labels))
        assert path.read_text() == want

    @pytest.mark.parametrize("order", ["ascending", "shuffled", "descending"])
    def test_same_bytes_whatever_the_id_order(self, tmp_path, order):
        # custom ids; the smallest and the largest id are affected
        ids = np.array([2, 9, 40, 41, 77, 300, 1000])
        labels = np.array([1, 0, 2, 2, 0, 1, 0])
        perm = {"ascending": np.arange(7), "shuffled": np.array([1, 3, 6, 0, 5, 4, 2]),
                "descending": np.arange(7)[::-1]}[order]
        a = PartitionAssignment.from_arrays(3, ids[perm], labels[perm], [1000, 41, 2])
        path = tmp_path / "a.csv"
        write_assignment_csv(a, path)
        assert path.read_bytes() == b"2,1,1\n9,0,0\n40,2,0\n41,2,1\n77,0,0\n300,1,0\n1000,0,1\n"

    @settings(max_examples=200)
    @given(
        ids=st.lists(st.one_of(st.sampled_from(_EDGE_IDS), st.integers(-(2**63), 2**63 - 1)),
                     min_size=1, max_size=80, unique=True),
        m=st.integers(1, 70_000),
        affected=st.sampled_from(["none", "some", "all"]),
        data=st.data(),
    )
    def test_matches_per_row_form_at_every_digit_width(self, tmp_path_factory, ids, m, affected, data):
        # ids in any order, of every width from 1 to 19 digits and either sign
        labels = data.draw(st.lists(st.integers(0, m - 1), min_size=len(ids), max_size=len(ids)))
        flagged = {"none": [], "all": ids, "some": [i for i in ids if data.draw(st.booleans())]}[affected]
        a = PartitionAssignment.from_arrays(m, ids, labels, flagged)
        path = tmp_path_factory.mktemp("csv") / "a.csv"
        write_assignment_csv(a, path)
        assert path.read_bytes() == _per_row_csv(ids, labels, flagged)

    def test_rows_at_block_edges(self, tmp_path):
        # three full blocks and a last one of one row. Block 0 is negative but for
        # its last row, 0; the id width then grows at each edge, to the 19 digits
        # of the last row. The rows on both sides of each edge are affected, and
        # the partition id width changes at the first edge.
        block = core._CSV_BLOCK
        ids = np.concatenate([[-(2**63)], np.arange(-(block - 2), block + 1), 10**12 + np.arange(block), [2**63 - 1]])
        assert len(ids) == 3 * block + 1
        rng = np.random.default_rng(11)
        labels = rng.integers(0, 70_000, size=ids.size)
        labels[block - 1 : block + 1] = [9, 10]
        flagged = ids[[r for k in range(1, 4) for r in (k * block - 1, k * block)]]
        a = PartitionAssignment.from_arrays(70_000, ids[::-1], labels[::-1], flagged)
        path = tmp_path / "edges.csv"
        write_assignment_csv(a, path)
        assert path.read_bytes() == _per_row_csv(ids, labels, flagged)

    @pytest.mark.parametrize(
        "text, problem",
        [
            ("0,0,0\n1,1,0\n0,1,1\n", "line 3: point id 0 appears twice"),
            ("0,0,0\n1,1,7\n", "line 2: affected flag must be 0 or 1, got 7"),
            ("0,0,0\n\n2,x,0\n", "line 3: expected three integers, got '2,x,0'"),
        ],
        ids=["repeated-id", "flag-7", "non-integer"],
    )
    def test_malformed_rows_name_file_and_line(self, tmp_path, text, problem):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(ValueError) as err:
            read_assignment_csv(path)
        assert str(err.value) == f"{path}: {problem}"

    @pytest.mark.parametrize(
        "data, problem",
        [
            (b"0,0,0\n1,\xff1,0\n", "line 2: expected three integers, got '1,\\udcff1,0'"),
            (b"1_0,0,1\n", "line 1: expected three integers, got '1_0,0,1'"),
            ("0,0,0\n\u0661,0,0\n".encode(), "line 2: expected three integers, got '\u0661,0,0'"),
            ("0,0,0\u00a0\n".encode(), "line 1: expected three integers, got '0,0,0\\xa0'"),
            (b"+1,0,0\n", "line 1: expected three integers, got '+1,0,0'"),
            (b"9223372036854775808,0,0\n", "line 1: point id 9223372036854775808 is outside int64"),
            (b"1,-1,0\n", "line 1: partition id -1 is not a non-negative int64"),
            (b"\n\n", "line 3: end of file before any assignment row"),
        ],
        ids=["non-utf8-byte", "digit-group", "non-ascii-digit", "no-break-space", "plus-sign", "id-past-int64",
             "negative-partition", "no-rows"],
    )
    def test_fields_other_than_ascii_decimal_name_file_and_line(self, tmp_path, data, problem):
        path = tmp_path / "bad.csv"
        path.write_bytes(data)
        with pytest.raises(ValueError) as err:
            read_assignment_csv(path)
        assert str(err.value) == f"{path}: {problem}"

    @settings(max_examples=100)
    @given(
        ids=st.lists(st.one_of(st.sampled_from(_EDGE_IDS), st.integers(-(2**63), 2**63 - 1)),
                     min_size=1, max_size=40, unique=True),
        data=st.data(),
    )
    def test_read_gives_back_what_was_written(self, tmp_path_factory, ids, data):
        # negative ids included: the writer emits them
        labels = data.draw(st.lists(st.integers(0, 300), min_size=len(ids), max_size=len(ids)))
        flagged = [i for i in ids if data.draw(st.booleans())]
        path = tmp_path_factory.mktemp("csv") / "a.csv"
        write_assignment_csv(PartitionAssignment.from_arrays(max(labels) + 1, ids, labels, flagged), path)
        back = read_assignment_csv(path)
        assert back.partition_count == max(labels) + 1
        assert back.labels == dict(zip(ids, labels)) and back.affected == frozenset(flagged)


class TestSplitLargestLeaf:
    @staticmethod
    def drive(n, m, split):
        # every split is held to the rows contract: the root gets None, any other
        # node ascending int64 dataset rows, a subset of its parent's rows; the
        # split under test sees the root as all n rows
        parents = {}

        def checked(tag, rows, room):
            if tag == "root":
                assert rows is None
                rows = np.arange(n)
            else:
                assert rows.dtype == np.int64 and (rows[1:] > rows[:-1]).all()
                assert np.isin(rows, parents[tag]).all()
            labels, aff, tags = split(tag, rows, room)
            parents.update((child, rows) for child in tags)
            return labels, aff, tags

        return split_largest_leaf(n, m, checked, "root")

    @staticmethod
    def halves(log):
        def split(tag, rows, room):
            log.append((int(rows[0]), room))
            cut = (len(rows) + 1) // 2
            return (np.arange(len(rows)) >= cut).astype(np.int64), [], [f"{tag}.0", f"{tag}.1"]

        return split

    def test_largest_first_ties_to_lowest_id(self):
        log = []
        leaves, labels, affected = self.drive(10, 4, self.halves(log))
        rows = {lid: rows.tolist() for lid, (_, rows) in leaves.items()}
        assert rows == {0: [0, 1, 2], 1: [5, 6, 7], 2: [3, 4], 3: [8, 9]}
        assert leaves[2][0] == "root.0.1" and leaves[1][0] == "root.1.0"
        # rooms: leaves still missing when each split starts
        assert [room for _, room in log] == [4, 3, 2]
        assert [first for first, _ in log] == [0, 0, 5]
        assert labels.tolist() == [0, 0, 0, 2, 2, 1, 1, 1, 3, 3]
        assert not affected.any()

    def test_wide_split_takes_consecutive_ids(self):
        def split(tag, rows, room):
            k = min(3, room)
            return np.arange(len(rows)) % k, [], [f"{tag}.{c}" for c in range(k)]

        leaves, _, _ = self.drive(12, 6, split)
        assert sorted(leaves) == list(range(6))
        # root -> 0, 1, 2; leaf 0 -> 0, 3, 4; leaf 1 has room for two children only -> 1, 5
        rows = {lid: tuple(rows.tolist()) for lid, (_, rows) in leaves.items()}
        assert rows == {0: (0, 9), 1: (1, 7), 2: (2, 5, 8, 11), 3: (3,), 4: (6,), 5: (4, 10)}

    def test_single_leaf_is_not_split(self):
        leaves, labels, affected = self.drive(5, 1, lambda tag, rows, room: pytest.fail("split called"))
        assert list(leaves) == [0] and leaves[0][0] == "root"
        assert leaves[0][1].dtype == np.int64 and leaves[0][1].tolist() == [0, 1, 2, 3, 4]
        assert labels.tolist() == [0] * 5 and not affected.any()

    def test_node_layout_and_bookkeeping(self):
        # shuffled values, so values and dataset rows differ
        values = np.random.default_rng(3).permutation(10).astype(float)
        seen, children, flagged = [], {}, []

        def split(tag, rows, room):
            seen.append(tag)
            own = values[rows]
            # child 0 gets the ceil(n/2) smallest values; the largest of them is affected,
            # named by its position in the node or by a mask over the node, in turn
            cut = np.sort(own)[(len(rows) + 1) // 2 - 1]
            flagged.append(cut)
            labels = (own > cut).astype(np.int64)
            for c in (0, 1):
                children[f"{tag}.{c}"] = sorted(own[labels == c])
            aff = own == cut
            return labels, np.flatnonzero(aff) if len(seen) % 2 else aff, [f"{tag}.0", f"{tag}.1"]

        leaves, labels, affected = self.drive(10, 7, split)
        # sizes: root 10 -> 5 + 5; .0 and .1 5 -> 3 + 2; .0.0 and .1.0 3 -> 2 + 1; .0.0.0 2 -> 1 + 1
        assert seen == ["root", "root.0", "root.1", "root.0.0", "root.1.0", "root.0.0.0"]
        # leaf rows, labels and the affected mask against a recomputation from the values
        assert sorted(leaves) == list(range(7))
        for lid, (tag, rows) in leaves.items():
            assert rows.dtype == np.int64
            assert sorted(values[rows]) == children[tag]
            assert (labels[rows] == lid).all()
        assert sum(len(rows) for _, rows in leaves.values()) == 10
        assert np.array_equal(affected, np.isin(values, flagged))


def assert_peak_within(build, ds, limit):
    """The tracemalloc peak of ``build(ds)`` is at most ``limit`` times the data."""
    tracemalloc.start()
    try:
        build(ds)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    ratio = peak / ds.coords.nbytes
    assert ratio <= limit, f"peak allocation {ratio:.2f}x the data, limit {limit}x"


class TestBuildMemory:
    """Both builders stay near the dataset: no node's copy outlives its split."""

    @pytest.mark.parametrize(
        "build, limit",
        [
            (lambda ds: build_vtree(ds, 16, strategy="random", seed=0), 0.75),
            (lambda ds: build_vtree(ds, 16, strategy="gnat", seed=0), 0.75),
            (lambda ds: build_vtree(ds, 16, strategy="kmeanspp", seed=0), 0.75),
            # kd and median seeding take the variance of the whole root, whose 256
            # columns go to numpy's var: one n x d temporary
            (lambda ds: build_vtree(ds, 16, strategy="median", seed=0), 1.25),
            (lambda ds: kd_partition(ds, 16), 1.25),
        ],
        ids=["random", "gnat", "kmeanspp", "median", "kd"],
    )
    def test_peak_allocation_within_limit_of_data(self, build, limit):
        ds = generate_gaussian_mixture(4000, 256, 8, seed=0)
        assert_peak_within(build, ds, limit)

    @pytest.mark.parametrize(
        "build, limit",
        [
            # 8000x1024 is 65 MB, four 16 MB variance blocks: a split holds a node's
            # copy of at most one block plus var's deviations of it (0.50x), and
            # neither kd nor median seeding copies a larger node. Both peaked at 1.00x
            # when the whole root's variance was one temporary. At m=4 every split is
            # of a node over one block, read a piece at a time (0.02x); median seeding
            # peaked at 0.52x there when it copied every node
            (lambda ds: kd_partition(ds, 16), 0.6),
            (lambda ds: build_vtree(ds, 16, strategy="median", seed=0), 0.6),
            (lambda ds: build_vtree(ds, 4, strategy="median", seed=0), 0.05),
            # random, gnat and kmeans++ read a node under half of the data that spans
            # several blocks through one 1 MB buffer; they peaked at 0.39-0.44x
            # when such a node was copied whole
            (lambda ds: build_vtree(ds, 16, strategy="random", seed=0), 0.3),
            (lambda ds: build_vtree(ds, 16, strategy="gnat", seed=0), 0.3),
            (lambda ds: build_vtree(ds, 16, strategy="kmeanspp", seed=0), 0.3),
        ],
        ids=["kd", "median", "median-m4", "random", "gnat", "kmeanspp"],
    )
    def test_peak_allocation_of_nodes_over_several_blocks(self, build, limit):
        ds = generate_gaussian_mixture(8000, 1024, 8, seed=0)
        assert_peak_within(build, ds, limit)

    @pytest.mark.parametrize(
        "build, limit",
        [
            # 100000x8 is 6.4 MB, under one block. kd reads the root's variance a 1 MB
            # piece at a time and its children's copies take their own deviations
            # (0.65x); median seeding cuts as kd does, plus its two axis distance
            # columns (0.71x; 0.89x when it copied every node). kmeans++ copies a node
            # under half of the data, and its kernel, labels and margin test add no
            # column-sized temporary to it (0.98x). The root's deviations and a
            # temporary per kernel step peaked at 1.15x, 1.21x and 1.13x
            (lambda ds: kd_partition(ds, 16, eps=0.2), 0.75),
            (lambda ds: build_vtree(ds, 16, strategy="median", eps=0.2, seed=0), 0.75),
            (lambda ds: build_vtree(ds, 16, strategy="kmeanspp", eps=0.2, seed=0), 1.05),
        ],
        ids=["kd", "median", "kmeanspp"],
    )
    def test_peak_allocation_of_narrow_rows(self, build, limit):
        ds = generate_uniform(100000, 8, seed=0)
        assert_peak_within(build, ds, limit)


class TestDataset:
    def test_bounds(self):
        ds = Dataset([[0.0, 5.0], [2.0, -1.0]])
        assert ds.bounds == ((0.0, 2.0), (-1.0, 5.0))

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="row 1"):
            Dataset([[0.0], [float("nan")]])

    def test_rejects_duplicate_ids(self):
        with pytest.raises(ValueError):
            Dataset([[0.0], [1.0]], ids=[3, 3])

    @pytest.mark.parametrize("ids", [[7, 1, 4, 1], [0, 5, 2**62, 9, 2**62], [2, 2, 0]])
    def test_duplicate_ids_anywhere(self, ids):
        with pytest.raises(ValueError, match="^point ids must be unique$"):
            Dataset(np.zeros((len(ids), 1)), ids=ids)

    def test_unique_ids_kept_in_their_order(self):
        ds = Dataset(np.zeros((4, 1)), ids=[9, 2**62, 0, 3])
        assert ds.ids.tolist() == [9, 2**62, 0, 3]

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "rows",
        [[[1e308], [1e308]], [[1e308, 1e308], [-1e308, -1e308]], [[-1e308, 1.0], [-1e308, 2.0], [5.0, 1e308]]],
        ids=["sum-inf", "sum-nan", "mixed"],
    )
    def test_accepts_finite_rows_whose_sum_overflows(self, rows):
        assert Dataset(rows).coords.tolist() == rows

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_names_first_non_finite_row_among_huge_values(self, bad):
        coords = np.full((6, 3), 1e308)
        coords[1::2] *= -1.0
        coords[3, 2] = bad
        coords[5, 0] = np.nan
        with pytest.raises(ValueError, match="^non-finite value in point row 3$"):
            Dataset(coords)

    def test_from_points_round_trip(self):
        ds = Dataset([[1.0, 2.0], [3.0, 4.0]], ids=[4, 9])
        assert [p.id for p in ds.points] == [4, 9]
        assert ds.point(1).coords.tolist() == [3.0, 4.0]
