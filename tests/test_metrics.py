import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import trustdae as td
from trustdae import metrics
from trustdae.metrics import (BucketStats, aggregate_folds, bucket_by_degree,
                              ci95_half_width, evaluate_fold, FoldMetrics)

import bruteforce
from conftest import ap_one, exclusion_mask, ndcg_one, rank_one, rank_rows


def assert_block_matches_bruteforce(scores, train, n):
    """`rank_top_n` of a (B, m) block, row r excluding the items of train[r],
    leaves the scores as they were and lists each row as the brute-force sort."""
    b, m = scores.shape
    before = scores.copy()
    top = td.rank_top_n(scores, exclusion_mask(train, m), n)
    assert np.array_equal(scores, before)
    assert top.shape == (b, n) and top.dtype == np.int64
    for r in range(b):
        excluded = set(np.asarray(train[r], dtype=np.int64).tolist())
        length = min(n, m - len(excluded))
        assert (top[r, length:] == -1).all()
        assert top[r, :length].tolist() == bruteforce.rank_by_score(
            scores[r].tolist(), excluded, n)


class TestRankTopN:
    def test_decreasing_scores(self):
        scores = np.linspace(1, 0, 8)
        assert rank_one(scores, [], 3).tolist() == [0, 1, 2]

    def test_training_positive_excluded(self):
        scores = np.array([9.0, 1.0, 2.0, 3.0])
        assert rank_one(scores, [0], 2).tolist() == [3, 2]

    def test_tie_break_by_index(self):
        scores = np.ones(6)
        assert rank_one(scores, [1], 3).tolist() == [0, 2, 3]

    def test_short_candidate_list(self):
        scores = np.ones(4)
        assert len(rank_one(scores, [0, 1, 2], 10)) == 1

    def test_duplicate_training_positives(self):
        # the candidate count comes from the mask, so a repeated positive
        # does not shorten the list
        assert rank_one(np.ones(4), [0, 0, 1], 10).tolist() == [2, 3]

    def test_does_not_mutate_scores(self):
        scores = np.array([1.0, 2.0])
        rank_one(scores, [1], 1)
        assert scores[1] == 2.0

    def test_nan_scores_rejected(self):
        # NaN would sort after the masked training positives (-inf), so ranking
        # these scores by value would put training positive 2 in the list
        with pytest.raises(ValueError, match="NaN"):
            rank_one(np.array([np.nan, np.nan, 0.5, 0.4]), [2], 3)

    @pytest.mark.parametrize("bad_row", [0, 2])
    def test_nan_in_any_row_rejected(self, bad_row):
        scores = np.ones((3, 5))
        scores[bad_row, 4] = np.nan
        with pytest.raises(ValueError, match="NaN"):
            rank_rows(scores, [[], [1], [2]], 2)

    @pytest.mark.parametrize("shape", [(3, 4), (2, 5), (5,)])
    def test_mask_shape_mismatch_rejected(self, shape):
        with pytest.raises(ValueError, match="one shape"):
            td.rank_top_n(np.ones((3, 5)), np.zeros(shape, dtype=bool), 2)

    def test_logits_above_sigmoid_saturation_stay_apart(self):
        # both logits are 1.0 after sigmoid, where a probability ranking
        # would order them by index; the logit ranking puts item 1 first
        assert td.model.sigmoid(np.array([40.0, 41.0])).tolist() == [1.0, 1.0]
        assert rank_one(np.array([40.0, 41.0]), [], 2).tolist() == [1, 0]

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=200, deadline=None)
    def test_block_matches_bruteforce(self, seed):
        # integer scores for heavy ties, infinities that only the mask may
        # exclude, repeated and empty positive sets, n up to past m, and
        # empty blocks
        rng = np.random.default_rng(seed)
        b, m = int(rng.integers(0, 8)), int(rng.integers(1, 25))
        n = int(rng.integers(1, m + 5))
        scores = rng.integers(0, 4, size=(b, m)).astype(float)
        scores[rng.random((b, m)) < 0.1] = -np.inf
        scores[rng.random((b, m)) < 0.05] = np.inf
        train = [rng.integers(0, m, size=rng.integers(0, m + 2)) for _ in range(b)]
        assert_block_matches_bruteforce(scores, train, n)

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=60, deadline=None)
    def test_wide_block_matches_bruteforce(self, seed):
        # m >= 16n, so the cut is bounded by column groups of width >= 2,
        # with the columns past the last full group in no group; ties,
        # infinities and exclusion sets as above
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 51))
        b, m = int(rng.integers(1, 7)), int(rng.integers(16 * n, 3001))
        scores = rng.integers(0, 4, size=(b, m)).astype(float)
        scores[rng.random((b, m)) < 0.1] = -np.inf
        scores[rng.random((b, m)) < 0.05] = np.inf
        train = [rng.integers(0, m, size=rng.integers(0, rng.choice([1, 3 * n, m + 2])))
                 for _ in range(b)]
        assert_block_matches_bruteforce(scores, train, n)

    @pytest.mark.parametrize("m, n", [(37, 2), (500, 3), (1000, 7)])
    def test_whole_row_ties_at_the_bound(self, m, n):
        assert_block_matches_bruteforce(np.full((2, m), 0.5), [[], [0, 5, m - 1]], n)

    @pytest.mark.parametrize("m, n", [(100, 1), (803, 4), (2000, 10)])
    def test_every_group_maximum_excluded(self, m, n):
        # distinct scores; each column group's maximum is excluded, so the
        # bound comes from the groups' runners-up
        scores = np.random.default_rng(m).permutation(m)[None, :].astype(float)
        width = m // (8 * n)
        g = m // width
        groups = [np.arange(j, g * width, g) for j in range(g)]
        best = [int(cols[np.argmax(scores[0, cols])]) for cols in groups]
        assert width >= 2 and len(set(best)) == g
        assert_block_matches_bruteforce(scores, [best], n)

    @pytest.mark.parametrize("n", [2, 5, 40])
    def test_fewer_groups_than_n(self, n):
        # m = n - 1 columns make n - 1 groups of one, too few for a bound
        m = n - 1
        scores = np.random.default_rng(n).integers(0, 3, size=(3, m)).astype(float)
        assert_block_matches_bruteforce(scores, [[], [0], list(range(m))], n)


class TestKernelsAgainstHandValues:
    def test_ap_hits_at_one_and_three(self):
        items = np.array([5, 9, 7, 0, 1, 2, 3, 4, 6, 8])
        got = ap_one(items, {5, 7}, 10)
        assert got == (1.0 + 2.0 / 3.0) / 2.0
        assert abs(got - 0.83333) < 1e-4

    def test_ap_perfect_and_empty(self):
        items = np.arange(10)
        assert ap_one(items, set(range(15)), 10) == 1.0
        assert ap_one(items, {99}, 10) == 0.0

    def test_ndcg_hits_at_one_and_three(self):
        items = np.array([5, 9, 7, 0, 1, 2, 3, 4, 6, 8])
        got = ndcg_one(items, {5, 7}, 10)
        expect = 1.5 / (1.0 + 1.0 / math.log2(3))
        assert got == expect
        assert abs(got - 0.9197) < 1e-4

    def test_ndcg_single_hit_at_top(self):
        assert ndcg_one(np.array([3, 1, 2]), {3}, 10) == 1.0

    def test_ndcg_no_hits(self):
        assert ndcg_one(np.arange(5), {99}, 5) == 0.0

    def test_empty_test_set_rejected(self):
        with pytest.raises(ValueError):
            ap_one(np.arange(3), set(), 3)
        with pytest.raises(ValueError):
            ndcg_one(np.arange(3), set(), 3)


class TestKernelProperties:
    def test_matches_bruteforce(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            m = int(rng.integers(5, 31))
            n_at = int(rng.integers(1, 11))
            scores = rng.random(m)
            train = rng.choice(m, size=rng.integers(0, m - 2), replace=False)
            rest = np.setdiff1d(np.arange(m), train)
            test = set(rng.choice(rest, size=rng.integers(1, len(rest) + 1),
                                  replace=False).tolist())
            ranked = rank_one(scores, train, n_at)
            assert ranked.tolist() == bruteforce.rank_by_score(
                scores.tolist(), set(train.tolist()), n_at)
            assert ap_one(ranked, test, n_at) == \
                bruteforce.ap_at_n(ranked.tolist(), test, n_at)
            assert ndcg_one(ranked, test, n_at) == \
                bruteforce.ndcg_at_n(ranked.tolist(), test, n_at)

    def test_tail_permutation_invariance(self):
        rng = np.random.default_rng(1)
        items = np.arange(10)
        test = {0, 3}
        base_ap = ap_one(items, test, 10)
        base_nd = ndcg_one(items, test, 10)
        for _ in range(20):
            tail = items[4:].copy()
            rng.shuffle(tail)  # below the last relevant rank
            shuffled = np.concatenate([items[:4], tail])
            assert ap_one(shuffled, test, 10) == base_ap
            assert ndcg_one(shuffled, test, 10) == base_nd

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_monotone_transform_invariance(self, seed):
        rng = np.random.default_rng(seed)
        scores = rng.random(20)
        train = [3, 8]
        test = {1, 5, 9}
        base = rank_one(scores, train, 10)
        for transformed in (scores * 7.5 + 2, np.exp(scores)):
            other = rank_one(transformed, train, 10)
            assert other.tolist() == base.tolist()
            assert ap_one(other, test, 10) == ap_one(base, test, 10)

    def test_range(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            items = rng.permutation(12)[:10]
            test = set(rng.choice(12, size=3, replace=False).tolist())
            assert 0.0 <= ap_one(items, test, 10) <= 1.0
            assert 0.0 <= ndcg_one(items, test, 10) <= 1.0


class TestBlockKernels:
    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=200, deadline=None)
    def test_rows_equal_bruteforce(self, seed):
        # lists shorter than n, rows with no hits and with every slot a hit,
        # test sets above and below n, hit columns past n
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 13))
        b, width = int(rng.integers(1, 9)), n + int(rng.integers(0, 4))
        lists, tests = [], []
        hits = np.zeros((b, width), dtype=bool)
        for r in range(b):
            ranked = rng.permutation(30)[:rng.integers(0, width + 1)].tolist()
            mode = rng.integers(0, 3)
            if mode == 0:     # no hits
                test = set(range(30, 30 + int(rng.integers(1, 20))))
            elif mode == 1:   # every listed item a hit, maybe more test items
                test = set(ranked) | set(range(30, 30 + int(rng.integers(0, 20))))
                test = test or {31}
            else:
                test = set(rng.choice(40, size=rng.integers(1, 25), replace=False).tolist())
            hits[r, :len(ranked)] = [i in test for i in ranked]
            lists.append(ranked)
            tests.append(test)
        counts = [len(t) for t in tests]
        ap = td.average_precision(hits, counts, n)
        nd = td.ndcg(hits, counts, n)
        assert ap.shape == nd.shape == (b,)
        for r in range(b):
            assert ap[r] == bruteforce.ap_at_n(lists[r], tests[r], n)
            assert nd[r] == bruteforce.ndcg_at_n(lists[r], tests[r], n)

    def test_empty_test_row_in_block_rejected(self):
        hits = np.zeros((3, 4), dtype=bool)
        for kernel in (td.average_precision, td.ndcg):
            with pytest.raises(ValueError, match="nonempty"):
                kernel(hits, [2, 0, 1], 4)


class TestEvaluateFold:
    def test_short_lists_match_bruteforce(self):
        # m < top_n leaves every list short; item 0 is a test item of users
        # whose lists end before the padded slots, which must not count as hits.
        # A padded slot holds -1, which indexes item m - 1, so user 2 also has
        # a test item there
        n, m = 6, 5
        rng = np.random.default_rng(4)
        train_pairs = [(u, i) for u in range(n) for i in range(1, m) if rng.random() < 0.4]
        test_pairs = [(u, 0) for u in range(n) if u % 2] + [(2, 1), (2, m - 1), (4, 3)]
        test_pairs = [p for p in test_pairs if p not in train_pairs]
        assert (2, m - 1) in test_pairs
        train = td.SparseInteractions(n, m, train_pairs, [])
        test = td.SparseInteractions(n, m, test_pairs, [])
        scores = rng.random((n, m))
        fm = evaluate_fold(lambda users: scores[users], train, test, 10)
        for u, ap, nd in zip(fm.users, fm.ap, fm.ndcg):
            ranked = bruteforce.rank_by_score(scores[u].tolist(), set(train.row(u).tolist()), 10)
            test_set = set(test.row(u).tolist())
            assert ap == bruteforce.ap_at_n(ranked, test_set, 10)
            assert nd == bruteforce.ndcg_at_n(ranked, test_set, 10)
        assert fm.map_at_n > 0

    def test_skips_users_without_test_items(self):
        train = td.SparseInteractions(3, 6, [(0, 0), (1, 1), (2, 2)], [])
        test = td.SparseInteractions(3, 6, [(0, 3), (2, 4)], [])
        fm = evaluate_fold(lambda users: np.tile(np.arange(6, dtype=float), (len(users), 1)),
                           train, test, 3)
        assert fm.users.tolist() == [0, 2]
        assert fm.train_counts.tolist() == [1, 1]

    @pytest.mark.parametrize("m", [3, 7, 2**17 + 1, 2**18 + 5])
    def test_blocks_cover_evaluable_users_in_order(self, m):
        n = 9
        train = td.SparseInteractions(n, m, [(u, u % m) for u in range(n)], [])
        test = td.SparseInteractions(n, m, [(u, (u + 1) % m) for u in range(n) if u % 3], [])
        asked = []

        def score_fn(users):
            asked.append(list(users))
            return np.zeros((len(users), m))

        evaluate_fold(score_fn, train, test, 2)
        assert [u for block in asked for u in block] == [u for u in range(n) if u % 3]
        assert max(len(block) for block in asked) <= max(1, 2**18 // m)

    @pytest.mark.parametrize("variant", ["tdae", "pop"])
    def test_fold_metrics_independent_of_block_size(self, block_ds, monkeypatch, variant):
        split = td.split_folds(block_ds, 5, seed=3)
        train, test = td.materialize_split(block_ds, split, 1)
        if variant == "pop":
            model = td.pop_fit(train)
            score_fn = lambda users: td.pop_scores(model, users)  # noqa: E731
        else:
            hp = td.Hyperparams(latent_dim=6, epochs=3, seed=2)
            params, _ = td.train(train, hp)
            score_fn = lambda users: td.predict_scores(  # noqa: E731
                params, train, users, hp.alpha)
        results = []
        for users_per_block in (1, 2, train.n):
            monkeypatch.setattr(metrics, "SCORE_BLOCK_ENTRIES", users_per_block * train.m)
            results.append(evaluate_fold(score_fn, train, test, 10))
        for other in results[1:]:
            for field in ("users", "train_counts", "ap", "ndcg"):
                assert np.array_equal(getattr(other, field), getattr(results[0], field))
        assert results[0].map_at_n > 0

    def test_mean_definitions(self):
        fm = FoldMetrics(top_n=5, users=np.array([0, 1]),
                         train_counts=np.array([3, 4]),
                         ap=np.array([0.5, 1.0]), ndcg=np.array([0.25, 0.75]))
        assert fm.map_at_n == 0.75
        assert fm.ndcg_at_n == 0.5


class TestBuckets:
    def make_folds(self):
        return [FoldMetrics(top_n=5, users=np.arange(4),
                            train_counts=np.array([5, 10, 30, 250]),
                            ap=np.array([0.1, 0.2, 0.3, 0.4]),
                            ndcg=np.array([0.1, 0.2, 0.3, 0.4]))]

    def test_interval_construction(self):
        buckets = bucket_by_degree(self.make_folds(), [5, 20, 200])
        labels = [b.label for b in buckets]
        assert labels == ["[5,20)", "[20,200)", "[200,inf)"]
        assert buckets[0].n_users == 2
        assert math.isclose(buckets[0].map_at_n, 0.15)

    def test_single_bucket_equals_global(self):
        folds = self.make_folds()
        buckets = bucket_by_degree(folds, [5])
        assert len(buckets) == 1
        assert math.isclose(buckets[0].map_at_n, folds[0].map_at_n)

    def test_empty_bucket_absent(self):
        buckets = bucket_by_degree(self.make_folds(), [5, 20, 200, 10_000])
        assert all(b.label != "[10000,inf)" for b in buckets)

    def test_bad_edges(self):
        with pytest.raises(ValueError):
            bucket_by_degree(self.make_folds(), [5, 5])


class TestAggregation:
    def test_ci95(self):
        vals = [0.1, 0.2, 0.3, 0.4, 0.5]
        expect = 1.96 * np.std(vals, ddof=1) / math.sqrt(5)
        assert math.isclose(ci95_half_width(vals), expect, rel_tol=1e-12)
        assert ci95_half_width([0.3]) == 0.0

    def test_aggregate_report(self):
        folds = [FoldMetrics(top_n=5, users=np.array([0]),
                             train_counts=np.array([6]),
                             ap=np.array([v]), ndcg=np.array([v / 2]))
                 for v in (0.2, 0.4)]
        report = aggregate_folds(folds, bucket_edges=[5])
        assert math.isclose(report.map_mean, 0.3)
        assert math.isclose(report.ndcg_mean, 0.15)
        assert report.fold_map == [0.2, 0.4]
        assert isinstance(report.buckets[0], BucketStats)
        rows = report.csv_rows()
        assert rows[0] == "metric,cutoff,bucket,mean,ci95"
        assert any(row.startswith("map,5,all,") for row in rows)
