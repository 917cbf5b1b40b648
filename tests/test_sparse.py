import numpy as np
import pytest

from trustdae.sparse import SparseInteractions, sample_complement

from conftest import make_tiny_store


def store_with(n, m, ratings, trusts=()):
    return SparseInteractions(n, m, list(ratings), list(trusts))


class TestRows:
    def test_sorted_row(self):
        s = store_with(2, 10, [(0, 3), (0, 1), (0, 7)])
        assert s.row(0, "rating").tolist() == [1, 3, 7]

    def test_empty_trust_row(self):
        s = store_with(3, 5, [(0, 1)], [(0, 1)])
        assert s.row(2, "trust").tolist() == []

    def test_out_of_range(self):
        s = store_with(2, 5, [(0, 1)])
        with pytest.raises(IndexError):
            s.row(2, "rating")

    def test_read_only(self):
        s = store_with(2, 5, [(0, 1), (0, 2)])
        row = s.row(0, "rating")
        with pytest.raises(ValueError):
            row[0] = 9

    def test_membership(self):
        s = store_with(2, 5, [(0, 1), (0, 4), (1, 0)])
        row0, row1 = s.row(0).tolist(), s.row(1).tolist()
        assert 4 in row0 and 3 not in row0
        assert 0 in row1 and 4 not in row1

    @pytest.mark.parametrize("which", ["rating", "trust"])
    def test_rows_concatenate_rows_in_user_order(self, which):
        s = make_tiny_store(seed=4)
        users = [5, 0, 5, 3, 7, 1]
        owner, cols = s.rows(users, which)
        assert owner.tolist() == [r for r, u in enumerate(users) for _ in s.row(u, which)]
        assert cols.tolist() == [i for u in users for i in s.row(u, which).tolist()]

    def test_rows_of_no_users_and_bad_users(self):
        s = store_with(2, 5, [(0, 1), (1, 2)])
        owner, cols = s.rows([], "rating")
        assert len(owner) == len(cols) == 0
        for bad in ([2], [-1]):
            with pytest.raises(IndexError):
                s.rows(bad, "rating")

    def test_duplicate_pair_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            store_with(2, 5, [(0, 1), (0, 1)])

    def test_bounds_checked(self):
        with pytest.raises(ValueError):
            store_with(2, 5, [(0, 5)])
        with pytest.raises(ValueError):
            store_with(2, 5, [(2, 0)])


class TestNegativeSampling:
    def test_sizes_and_disjointness(self):
        s = store_with(4, 1000, [(0, i) for i in range(4)], [(0, 1), (0, 2)])
        rng = np.random.default_rng(0)
        items, users = s.sample_item_negatives(0, rng), s.sample_user_negatives(0, rng)
        assert len(items) == 4 and len(users) == 2
        assert not set(items.tolist()) & {0, 1, 2, 3}
        assert not set(users.tolist()) & {1, 2}
        assert len(set(items.tolist())) == 4

    def test_empty_positive_set(self):
        s = store_with(3, 5, [(0, 1)])
        rng = np.random.default_rng(1)
        items, users = s.sample_item_negatives(2, rng), s.sample_user_negatives(2, rng)
        assert len(items) == 0 and len(users) == 0

    def test_complement_exhaustion(self):
        # more positives than free slots: the whole complement is returned
        s = store_with(1, 6, [(0, i) for i in range(4)])
        neg = s.sample_item_negatives(0, np.random.default_rng(2))
        assert sorted(neg.tolist()) == [4, 5]

    def test_same_seed_same_samples(self):
        s = make_tiny_store(seed=5)
        rng_a, rng_b = np.random.default_rng(42), np.random.default_rng(42)
        a = (s.sample_item_negatives(1, rng_a), s.sample_user_negatives(1, rng_a))
        b = (s.sample_item_negatives(1, rng_b), s.sample_user_negatives(1, rng_b))
        assert np.array_equal(a[0], b[0])
        assert np.array_equal(a[1], b[1])

    def test_fresh_sample_per_call(self):
        s = store_with(1, 500, [(0, i) for i in range(8)])
        rng = np.random.default_rng(3)
        a = s.sample_item_negatives(0, rng)
        b = s.sample_item_negatives(0, rng)
        assert not np.array_equal(a, b)

    def test_rejection_regime_uniform(self):
        # occupancy 4/20 uses rejection sampling; 1e5 calls, 3 sigma band
        positives = np.array([2, 7, 11, 19])
        m = 20
        rng = np.random.default_rng(123)
        counts = np.zeros(m, dtype=np.int64)
        calls = 100_000
        for _ in range(calls):
            counts[sample_complement(rng, m, positives, 4)] += 1
        assert counts[positives].sum() == 0
        eligible = np.setdiff1d(np.arange(m), positives)
        p = 4 / len(eligible)
        sd = np.sqrt(calls * p * (1 - p))
        assert np.all(np.abs(counts[eligible] - calls * p) <= 3 * sd)

    def test_dense_regime_uniform(self):
        # occupancy 10/16 switches to complement enumeration
        positives = np.arange(10)
        m = 16
        rng = np.random.default_rng(7)
        counts = np.zeros(m, dtype=np.int64)
        calls = 20_000
        for _ in range(calls):
            counts[sample_complement(rng, m, positives, 3)] += 1
        assert counts[positives].sum() == 0
        p = 3 / 6
        sd = np.sqrt(calls * p * (1 - p))
        assert np.all(np.abs(counts[10:] - calls * p) <= 4 * sd)
