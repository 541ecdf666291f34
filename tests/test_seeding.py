import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from spacepart.core import Dataset, euclidean_distance, make_rng
from spacepart.vtree import build_vtree
from spacepart.seeding import (
    SeedSet,
    SeedStrategy,
    seeds_gnat,
    seeds_kmeanspp,
    seeds_median,
    seeds_random,
    select_positions,
    sq_column,
    weighted_index,
)

from conftest import integer_dataset, random_dataset


def line_dataset(values):
    return Dataset([[float(v)] for v in values])


class TestStrategyTypes:
    def test_kind_validation(self):
        with pytest.raises(ValueError):
            SeedStrategy("fancy")
        assert SeedStrategy("gnat", seed=3).seed == 3

    def test_seed_set_requires_distinct_ids(self):
        ds = line_dataset([0, 1])
        with pytest.raises(ValueError):
            SeedSet((ds.point(0), ds.point(0)))


class TestRandom:
    def test_exhaustive(self):
        ds = line_dataset([5, 6, 7])
        out = seeds_random(ds, 3, rng=0)
        assert sorted(c.id for c in out.centers) == [0, 1, 2]

    def test_deterministic(self):
        ds = random_dataset(0, 30, 2)
        a = seeds_random(ds, 4, rng=9)
        b = seeds_random(ds, 4, rng=9)
        assert [c.id for c in a.centers] == [c.id for c in b.centers]

    def test_too_many(self):
        with pytest.raises(ValueError):
            seeds_random(line_dataset([1, 2]), 3, rng=0)

    def test_single_draw_uniform(self):
        ds = line_dataset([0, 1, 2, 3])
        rng = make_rng(123)
        counts = np.zeros(4)
        trials = 10_000
        for _ in range(trials):
            counts[seeds_random(ds, 1, rng=rng).centers[0].id] += 1
        freqs = counts / trials
        assert np.abs(freqs - 0.25).max() <= 0.02


class TestGnat:
    def test_farthest_from_zero(self):
        ds = line_dataset([0, 1, 10])
        for seed in range(40):
            out = seeds_gnat(ds, 2, rng=seed)
            if out.centers[0].id == 0:
                assert out.centers[1].id == 2  # the point at 10
                return
        pytest.fail("no seed produced a first pick of point 0")

    def test_tie_broken_by_lowest_id(self):
        # ids 0..3 at 0, 4, 5, 10; from {0, 10} both middle points sum to 10
        ds = line_dataset([0, 4, 5, 10])
        for seed in range(60):
            out = seeds_gnat(ds, 3, rng=seed)
            if out.centers[0].id == 0:
                assert out.centers[1].id == 3
                assert out.centers[2].id == 1  # 4+6 == 5+5, lower id wins
                return
        pytest.fail("no seed produced a first pick of point 0")

    def test_second_seed_maximizes_distance(self):
        ds = integer_dataset(1, 50, 3)
        out = seeds_gnat(ds, 2, rng=5)
        first, second = out.centers
        best = max(euclidean_distance(first, p) for p in ds.points)
        assert euclidean_distance(first, second) == best

    @given(st.integers(0, 500), st.integers(3, 40), st.integers(2, 5))
    def test_stepwise_maximality(self, seed, n, k):
        k = min(k, n)
        ds = integer_dataset(seed, n, 2)
        out = seeds_gnat(ds, k, rng=seed)
        centers = list(out.centers)
        chosen = {centers[0].id}
        for i in range(1, k):
            sums = {
                p.id: sum(euclidean_distance(p, c) for c in centers[:i])
                for p in ds.points
                if p.id not in chosen
            }
            best = max(sums.values())
            winners = sorted(pid for pid, s in sums.items() if s == best)
            assert centers[i].id == winners[0]
            chosen.add(centers[i].id)


class TestKmeanspp:
    def test_weighted_index_buckets(self):
        w = np.array([0.0, 1.0, 4.0])
        assert weighted_index(w, 0.0) == 1
        assert weighted_index(w, 0.19) == 1
        assert weighted_index(w, 0.2) == 2
        assert weighted_index(w, 0.999) == 2

    def test_weighted_index_skips_zero_weight(self):
        assert weighted_index(np.array([0.0, 0.0, 3.0]), 0.0) == 2

    def test_zero_total_weight(self):
        with pytest.raises(ValueError):
            weighted_index(np.array([0.0, 0.0]), 0.5)

    def test_two_distinct_points_forced(self):
        ds = line_dataset([3, 8])
        out = seeds_kmeanspp(ds, 2, rng=0)
        assert sorted(c.id for c in out.centers) == [0, 1]

    def test_duplicate_points_error_names_distinct_count(self):
        ds = Dataset([[1.0], [1.0], [1.0]])
        with pytest.raises(ValueError, match="1 distinct"):
            seeds_kmeanspp(ds, 2, rng=0)

    def test_empirical_distribution(self):
        ds = line_dataset([0, 1, 2])
        kept = 0
        second = np.zeros(3)
        seed = 0
        while kept < 2000:
            out = seeds_kmeanspp(ds, 2, rng=seed)
            seed += 1
            if out.centers[0].id == 0:
                second[out.centers[1].id] += 1
                kept += 1
        freqs = second / kept
        assert freqs[0] == 0.0
        assert abs(freqs[1] - 0.2) <= 0.03
        assert abs(freqs[2] - 0.8) <= 0.03

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_matches_a_selector_that_copies_the_running_minimum(self, k):
        # the selector keeps the first column itself unless a third center is drawn;
        # its positions and every column it returns must be the reference's
        def reference(coords, seed):
            rng = make_rng(seed)
            positions = [int(rng.integers(len(coords)))]
            nearest = sq_column(coords, coords[positions[0]]).copy()
            while len(positions) < k:
                positions.append(weighted_index(nearest, float(rng.random())))
                nearest = np.minimum(nearest, sq_column(coords, coords[positions[-1]]))
            return positions

        for ds in (random_dataset(5, 120, 3), integer_dataset(6, 120, 2)):
            coords, ids = ds.coords, ds.ids
            for seed in range(12):
                want = reference(coords, seed)
                assert [c.id for c in seeds_kmeanspp(ds, k, rng=seed).centers] == ids[want].tolist()
                positions, cols = select_positions(
                    "kmeanspp", ids, k, make_rng(seed), lambda p: sq_column(coords, coords[p]), lambda: coords
                )
                assert positions == want
                assert all(np.array_equal(col, sq_column(coords, coords[p])) for p, col in zip(positions, cols))

    def test_deterministic(self):
        ds = random_dataset(3, 40, 2)
        a = seeds_kmeanspp(ds, 5, rng=77)
        b = seeds_kmeanspp(ds, 5, rng=77)
        assert [c.id for c in a.centers] == [c.id for c in b.centers]


class TestMedian:
    def test_line_example(self):
        ds = line_dataset([1, 2, 3, 4])
        out = seeds_median(ds)
        assert [c.id for c in out.centers] == [1, 2]  # values 2 and 3

    def test_picks_top_variance_dimension(self):
        ds = Dataset([[0.0, 0.0], [1.0, 0.0], [0.0, 10.0], [1.0, 10.0]])
        out = seeds_median(ds)
        assert [c.id for c in out.centers] == [0, 2]
        assert out.centers[0].coords.tolist() == [0.0, 0.0]
        assert out.centers[1].coords.tolist() == [0.0, 10.0]

    def test_two_points(self):
        ds = line_dataset([7, 3])
        out = seeds_median(ds)
        assert sorted(c.id for c in out.centers) == [0, 1]

    def test_k_must_be_two(self):
        with pytest.raises(ValueError):
            seeds_median(line_dataset([1, 2, 3]), k=3)

    def test_all_equal_along_axis(self):
        with pytest.raises(ValueError):
            seeds_median(Dataset([[5.0], [5.0], [5.0]]))


@pytest.mark.parametrize("strategy", ["random", "gnat", "kmeanspp"])
def test_common_contract(strategy):
    fn = {"random": seeds_random, "gnat": seeds_gnat, "kmeanspp": seeds_kmeanspp}[strategy]
    ds = random_dataset(8, 60, 3)
    for k in (2, 3, 5):
        out = fn(ds, k, rng=k)
        ids = [c.id for c in out.centers]
        assert len(ids) == k == out.k
        assert len(set(ids)) == k
        assert set(ids) <= set(int(i) for i in ds.ids)


@pytest.mark.parametrize("strategy", ["random", "gnat", "kmeanspp"])
def test_build_picks_the_public_seeds(strategy):
    # integer coordinates make the exact and the expansion kernel agree bit
    # for bit, so the tree's root centers must be the public seeders' choice
    fn = {"random": seeds_random, "gnat": seeds_gnat, "kmeanspp": seeds_kmeanspp}[strategy]
    for case in range(50):
        n, d = 4 + 3 * case % 57, 1 + case % 4
        ds = integer_dataset(case, n, d)
        for seed in (0, 5, 1234):
            for k in (2, 3):
                tree = build_vtree(ds, k, fanout=k, strategy=strategy, seed=seed)
                want = fn(ds, k, seed).centers
                assert [c.id for c in tree.root.centers] == [c.id for c in want]
                assert all(np.array_equal(a.coords, b.coords) for a, b in zip(tree.root.centers, want))
