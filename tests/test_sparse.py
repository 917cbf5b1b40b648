import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trustdae import sparse
from trustdae.sparse import SparseInteractions, sample_complement
from trustdae.streams import KeyedStreams, stream

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
        items = s.sample_item_negatives([0], KeyedStreams(0, 1, 0, s.n))
        users = s.sample_user_negatives([0], KeyedStreams(0, 2, 0, s.n))
        assert len(items) == 4 and len(users) == 2
        assert not set(items.tolist()) & {0, 1, 2, 3}
        assert not set(users.tolist()) & {1, 2}
        assert len(set(items.tolist())) == 4

    def test_empty_positive_set(self):
        s = store_with(3, 5, [(0, 1)])
        items = s.sample_item_negatives([2], KeyedStreams(1, 1, 0, s.n))
        users = s.sample_user_negatives([2], KeyedStreams(1, 2, 0, s.n))
        assert len(items) == 0 and len(users) == 0

    def test_complement_exhaustion(self):
        # more positives than free slots: the whole complement is returned
        s = store_with(1, 6, [(0, i) for i in range(4)])
        neg = s.sample_item_negatives([0], KeyedStreams(2, 1, 0, s.n))
        assert sorted(neg.tolist()) == [4, 5]

    def test_same_seed_same_samples(self):
        s = make_tiny_store(seed=5)
        a, b = ((s.sample_item_negatives([1], KeyedStreams(42, 1, 0, s.n)),
                 s.sample_user_negatives([1], KeyedStreams(42, 2, 0, s.n))) for _ in range(2))
        assert np.array_equal(a[0], b[0])
        assert np.array_equal(a[1], b[1])

    def test_fresh_sample_per_call(self):
        # a keyed stream is fresh by its key, not by the call: each epoch's
        # key gives a different sample
        s = store_with(1, 500, [(0, i) for i in range(8)])
        a = s.sample_item_negatives([0], KeyedStreams(3, 1, 0, s.n))
        b = s.sample_item_negatives([0], KeyedStreams(3, 1, 1, s.n))
        assert not np.array_equal(a, b)
        assert np.array_equal(a, s.sample_item_negatives([0], KeyedStreams(3, 1, 0, s.n)))

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


def per_user_reference(store, users, seed, tag, epoch, which):
    """`sample_complement` of each user's row on its own `stream`, laid end to end."""
    domain = store.m if which == "rating" else store.n
    parts = [np.empty(0, dtype=np.int64)]
    for u in users:
        row = store.row(u, which)
        parts.append(sample_complement(stream(seed, tag, epoch, u), domain, row,
                                       min(len(row), domain - len(row))))
    return np.concatenate(parts)


def batched(store, users, streams, which):
    sample = store.sample_item_negatives if which == "rating" else store.sample_user_negatives
    return sample(users, streams)


@st.composite
def stores(draw):
    """A store whose rows are empty, exactly a quarter full, over half full
    or of any length, over domains from 1 up."""
    n = draw(st.integers(1, 12))
    m = draw(st.integers(1, 48))

    def rows(domain):
        out = []
        for _ in range(n):
            kind = draw(st.sampled_from(["empty", "quarter", "over_half", "any"]))
            if kind == "empty":
                length = 0
            elif kind == "quarter" and domain % 4 == 0:
                length = domain // 4
            elif kind == "over_half":
                length = draw(st.integers(domain // 2 + 1, domain))
            else:
                length = draw(st.integers(0, domain))
            out.append(draw(st.permutations(range(domain)))[:length])
        return out

    ratings = [(u, i) for u, row in enumerate(rows(m)) for i in row]
    trusts = [(u, v) for u, row in enumerate(rows(n)) for v in row]
    return SparseInteractions(n, m, ratings, trusts)


class TestBatchedSampling:
    @settings(max_examples=150, deadline=None)
    @given(store=stores(), data=st.data())
    def test_equals_per_user_reference(self, store, data):
        users = data.draw(st.lists(st.integers(0, store.n - 1), max_size=15))
        seed = data.draw(st.integers(0, 2**64))
        epoch = data.draw(st.integers(0, 2**33))
        for which, tag in (("rating", 1), ("trust", 2)):
            want = per_user_reference(store, users, seed, tag, epoch, which)
            got = batched(store, users, KeyedStreams(seed, tag, epoch, store.n), which)
            assert np.array_equal(got, want)

    def test_domain_of_one(self):
        store = store_with(1, 1, [(0, 0)])
        streams = KeyedStreams(0, 1, 0, store.n)
        for which in ("rating", "trust"):
            assert len(batched(store, [0, 0], streams, which)) == 0

    def test_short_first_draws_finish_by_reference(self, monkeypatch):
        # rows a quarter full sample by rejection; 20 draws over 40 values
        # often hold fewer than 10 new negatives, which sends the row to
        # `sample_complement`
        rng = np.random.default_rng(4)
        n, m = 300, 40
        store = store_with(n, m, [(u, int(i)) for u in range(n)
                                  for i in rng.choice(m, 10, replace=False)])
        users = rng.permutation(n).tolist()
        want = per_user_reference(store, users, 9, 1, 3, "rating")
        calls = []

        def counted(*args):
            calls.append(args)
            return sample_complement(*args)

        monkeypatch.setattr(sparse, "sample_complement", counted)
        assert np.array_equal(batched(store, users, KeyedStreams(9, 1, 3, n), "rating"), want)
        assert 0 < len(calls) < n


class TestSampleComplementBounds:
    @pytest.mark.parametrize("domain,positives,size", [
        (10, [1], 10),          # rejection regime: used to draw forever
        (10, [], 11),
        (4, [0, 1], 3),         # complement regime
        (10, [1], -1),
    ])
    def test_impossible_size_raises(self, domain, positives, size):
        with pytest.raises(ValueError, match=f"domain of {domain} with {len(positives)} positives"):
            sample_complement(np.random.default_rng(0), domain, np.array(positives, dtype=np.int64),
                              size)

    def test_whole_complement_allowed(self):
        got = sample_complement(np.random.default_rng(0), 10, np.array([1]), 9)
        assert sorted(got.tolist()) == [0, 2, 3, 4, 5, 6, 7, 8, 9]
