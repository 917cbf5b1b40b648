import numpy as np
import pytest

import trustdae as td
from trustdae import baselines, metrics, synth
from trustdae.cli import fold_seed


@pytest.fixture(scope="session")
def block_ds():
    """The planted-community acceptance dataset."""
    return synth.make_block_dataset(seed=1)


@pytest.fixture(scope="session")
def synth_runner(block_ds):
    """Cached 5-fold cross-validation on the block dataset.

    Returns fold MAP@10 values for (variant, seed); mirrors cmd_run's
    seeding (the experiment seed drives both the split and the per-fold
    training streams).
    """
    cache = {}

    def run(variant, seed):
        key = (variant, seed)
        if key in cache:
            return cache[key]
        split = td.split_folds(block_ds, 5, seed=seed)
        vals = []
        for fold in range(5):
            train_set, test_set = td.materialize_split(block_ds, split, fold)
            if variant == "pop":
                model = baselines.pop_fit(train_set)
                score_fn = lambda users: baselines.pop_scores(model, users)  # noqa: E731
            else:
                hp = baselines.ablation_config(
                    td.Hyperparams(latent_dim=10, epochs=50, seed=seed), variant)
                hp = hp.replace(seed=fold_seed(seed, fold))
                params, _ = td.train(train_set, hp)
                score_fn = lambda users, _p=params, _a=hp.alpha: td.predict_scores(  # noqa: E731
                    _p, train_set, users, _a)
            fm = metrics.evaluate_fold(score_fn, train_set, test_set, 10)
            vals.append(fm.map_at_n)
        cache[key] = np.array(vals)
        return cache[key]

    return run


def make_tiny_store(seed=0, n=8, m=12):
    """Small random interaction store for unit tests."""
    rng = np.random.default_rng(seed)
    pairs = set()
    for u in range(n):
        for i in rng.choice(m, size=rng.integers(2, 6), replace=False):
            pairs.add((u, int(i)))
    edges = set()
    for u in range(n):
        for v in rng.choice(n, size=rng.integers(0, 3), replace=False):
            if int(v) != u:
                edges.add((u, int(v)))
    return td.SparseInteractions(n, m, sorted(pairs), sorted(edges))


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
