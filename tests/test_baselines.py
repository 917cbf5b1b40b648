import numpy as np
import pytest

import trustdae as td
from trustdae.baselines import ablation_config, pop_fit, pop_scores

import bruteforce
from conftest import make_tiny_store, rank_one, rank_rows


class TestPop:
    def test_counts(self):
        s = td.SparseInteractions(4, 5, [(0, 2), (1, 2), (3, 2), (0, 0)], [])
        model = pop_fit(s)
        assert model.item_counts.tolist() == [1, 0, 3, 0, 0]
        assert model.item_counts.sum() == s.nnz("rating")

    def test_scores_identical_across_users(self):
        s = make_tiny_store(seed=0)
        model = pop_fit(s)
        assert np.array_equal(pop_scores(model, [0])[0], pop_scores(model, [5])[0])
        block = pop_scores(model, [0, 3, 5])
        assert block.shape == (3, s.m)
        assert (block == model.item_counts).all()

    def test_exclusion_personalizes_lists(self):
        s = td.SparseInteractions(2, 4, [(0, 0), (0, 1), (1, 2), (1, 3)], [])
        model = pop_fit(s)
        top0, top1 = rank_rows(pop_scores(model, [0, 1]), [s.row(0), s.row(1)], 2)
        assert set(top0.tolist()) == {2, 3}
        assert set(top1.tolist()) == {0, 1}

    def test_most_popular_non_training_first(self):
        s = td.SparseInteractions(4, 4, [(0, 1), (1, 1), (2, 1), (0, 3), (3, 0)], [])
        model = pop_fit(s)
        assert rank_one(pop_scores(model, [3])[0], s.row(3), 1).tolist() == [1]

    def test_all_zero_ties_by_index(self):
        s = td.SparseInteractions(2, 5, [(0, 4)], [])
        model = pop_fit(s)
        empty = pop_scores(model, [1]) * 0
        assert rank_rows(empty, [[]], 3)[0].tolist() == [0, 1, 2]

    def test_map_matches_bruteforce(self, block_ds):
        split = td.split_folds(block_ds, 5, seed=4)
        train, test = td.materialize_split(block_ds, split, 2)
        model = pop_fit(train)
        fm = td.evaluate_fold(lambda users: pop_scores(model, users), train, test, 10)
        expect = bruteforce.popularity_ap_per_user(
            model.item_counts.tolist(),
            [train.row(u).tolist() for u in range(train.n)],
            [test.row(u).tolist() for u in range(train.n)], 10)
        assert fm.ap.tolist() == expect
        assert fm.map_at_n == float(np.mean(expect))


class TestAblations:
    def test_variants(self):
        base = td.Hyperparams(alpha=0.8, beta=0.01)
        assert ablation_config(base, "tdae") == base
        assert ablation_config(base, "tdae0") == base.replace(beta=0.0)
        assert ablation_config(base, "tdae0").alpha == 0.8
        assert ablation_config(base, "rating_only").alpha == 1.0
        assert ablation_config(base, "rating_only").beta == 0.01
        assert ablation_config(base, "trust_only").alpha == 0.0

    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            ablation_config(td.Hyperparams(), "bpr")
