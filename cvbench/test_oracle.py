"""Tests of the benchmark's output oracle on hand-worked cases."""

import math

import numpy as np
import pytest

from oracle import ap_at_n, check_fold, dense_scores, ndcg_at_n, popularity, top_n


def test_hand_worked_list():
    ranked = np.array([7, 2, 5, 9, 1])
    relevant = np.array([2, 9, 4])
    # hits at ranks 2 and 4, both with precision 1/2; three relevant items
    assert ap_at_n(ranked, relevant, 5) == pytest.approx((1 / 2 + 2 / 4) / 3)
    dcg = 1 / math.log2(3) + 1 / math.log2(5)
    ideal = 1 + 1 / math.log2(3) + 1 / math.log2(4)
    assert ndcg_at_n(ranked, relevant, 5) == pytest.approx(dcg / ideal)
    # cutoff 2: one hit at rank 2, normalised by min(2, 3)
    assert ap_at_n(ranked, relevant, 2) == pytest.approx(0.5 / 2)
    assert ndcg_at_n(ranked, relevant, 2) == pytest.approx(
        (1 / math.log2(3)) / (1 + 1 / math.log2(3)))
    assert ap_at_n(np.array([2, 9, 4]), relevant, 10) == pytest.approx(1.0)
    assert ndcg_at_n(np.array([2, 9, 4]), relevant, 10) == pytest.approx(1.0)


def test_tied_scores_break_to_smaller_index_and_skip_excluded():
    scores = np.array([0.5, 0.9, 0.5, 0.9, 0.1, 0.5])
    assert top_n(scores, np.array([1]), 4).tolist() == [3, 0, 2, 5]
    assert top_n(scores, np.array([1]), 10).tolist() == [3, 0, 2, 5, 4]
    assert top_n(np.zeros(4), np.array([0, 2]), 3).tolist() == [1, 3]


def test_dense_scores_one_dimension():
    params = {
        "rating_enc_w": np.array([[1.0], [2.0]]), "rating_enc_b": np.array([0.5]),
        "trust_enc_w": np.array([[3.0], [0.0]]), "trust_enc_b": np.array([0.0]),
        "rating_dec_w": np.array([[1.0], [-1.0]]), "rating_dec_b": np.array([0.0, 0.25]),
    }
    s = lambda x: 1 / (1 + math.exp(-x))  # noqa: E731
    # user 1 rated item 1 and trusts user 0
    code = 0.8 * s(2.0 + 0.5) + 0.2 * s(3.0)
    got = dense_scores(params, np.array([[0.0, 1.0]]), np.array([[1.0, 0.0]]),
                       np.array([1]), alpha=0.8)
    assert got[0] == pytest.approx([s(code), s(-code + 0.25)])


def test_check_fold_popularity_and_exclusion():
    # item 0 is the most popular; users never see their training items again
    train = np.array([[0, 0], [1, 0], [2, 0], [0, 1], [1, 2]])
    test = np.array([[0, 3], [1, 1], [2, 2]])
    assert popularity(train, 4).tolist() == [3, 1, 1, 0]
    params = {
        "rating_enc_w": np.zeros((4, 1)), "rating_enc_b": np.zeros(1),
        "trust_enc_w": np.zeros((3, 1)), "trust_enc_b": np.zeros(1),
        "rating_dec_w": np.zeros((4, 1)), "rating_dec_b": np.array([0.0, 0.0, 0.0, 1.0]),
    }
    check = check_fold(params, 0.8, 3, 4, train, test, np.empty((0, 2), np.int64), 1)
    assert check.users == 3
    assert check.lists_with_train_positive == 0
    # every user's model list is [3]: a hit for user 0 only
    assert check.map_at_n == pytest.approx(1 / 3)
    # popularity lists: user 0 -> [2], user 1 -> [1], user 2 -> [1]
    assert check.pop_map_at_n == pytest.approx(1 / 3)
