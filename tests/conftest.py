import numpy as np
import pytest

import trustdae as td
from trustdae import synth
from trustdae.cli import ExperimentConfig, run_cross_validation
from trustdae.gradcheck import random_store
from trustdae.model import Sample, row_starts


@pytest.fixture(scope="session")
def block_ds():
    """The planted-community acceptance dataset."""
    return synth.make_block_dataset(seed=1)


@pytest.fixture(scope="session")
def synth_runner(block_ds):
    """Cached 5-fold cross-validation on the block dataset.

    Returns fold MAP@10 values for (variant, seed) from the shipped
    `run_cross_validation`, with the experiment seed driving both the split
    and the per-fold training streams.
    """
    cache = {}

    def run(variant, seed):
        key = (variant, seed)
        if key not in cache:
            _, folds = run_cross_validation(block_ds, ExperimentConfig(variant=variant, seed=seed))
            cache[key] = np.array([fm.map_at_n for fm in folds])
        return cache[key]

    return run


def make_tiny_store(seed=0):
    """Small random interaction store for unit tests."""
    return random_store(np.random.default_rng(seed))


def flat_sample(n, m, rating_in, trust_in, targets_r, targets_t, user=None):
    """One user's `Sample` against a FlatParams of n users and m items, laid
    out from the corrupted rows, the (indices, binary targets) of each view
    and, for a store with per-user vectors, the user."""
    enc_t, bias, dec, user0 = row_starts(n, m)
    bpos = np.concatenate([targets_r[0], targets_t[0] + m]).astype(np.int64)
    users = [] if user is None else [user0 + user]
    pos = np.concatenate([rating_in.indices, trust_in.indices + enc_t, [bias, bias + 1],
                          bpos + dec, users]).astype(np.int64)
    a = len(rating_in.indices)
    return Sample(pos, bpos, np.concatenate([targets_r[1], targets_t[1]]).astype(float),
                  a, a + len(trust_in.indices), len(targets_r[0]), rating_in.value)


def one_row_hits(items, test, n):
    """One ranked list as the (1, n) hit block and test count of the block kernels."""
    test = set(int(i) for i in test)
    ranked = [int(i) for i in items][:n]
    hits = np.zeros((1, n), dtype=bool)
    hits[0, :len(ranked)] = [i in test for i in ranked]
    return hits, [len(test)]


def ap_one(items, test, n):
    """`average_precision` of a single ranked list."""
    return float(td.average_precision(*one_row_hits(items, test, n), n)[0])


def ndcg_one(items, test, n):
    """`ndcg` of a single ranked list."""
    return float(td.ndcg(*one_row_hits(items, test, n), n)[0])


def exclusion_mask(rows, m):
    """(len(rows), m) block marking the items listed in each of `rows`."""
    mask = np.zeros((len(rows), m), dtype=bool)
    for r, row in enumerate(rows):
        mask[r, np.asarray(row, dtype=np.int64)] = True
    return mask


def rank_rows(scores, rows, n):
    """`rank_top_n` with row r's excluded items listed in rows[r]; returns
    each row's list with the -1 padding stripped."""
    scores = np.asarray(scores)
    top = td.rank_top_n(scores, exclusion_mask(rows, scores.shape[1]), n)
    return [row[row >= 0] for row in top]


def rank_one(scores, excluded, n):
    """`rank_rows` on a block of one row."""
    return rank_rows(np.asarray(scores)[None, :], [excluded], n)[0]
