"""In-process rate of full-catalogue evaluation on a random store.

    python3 scripts/eval_rate.py [--tree DIR] [--users 2000] [--items 100000]
        [--repeats 5]

It builds a random store with numpy alone, no download: each user rates
TRAIN_ITEMS + TEST_ITEMS distinct items drawn uniformly from the
catalogue, split into a training and a test row, and trusts TRUST other
users. The model is an untrained `init_params` at LATENT_DIM, so its
scores are close to independent across items: the ranking's best case,
not the popularity-shaped scores of a trained model. Each repeat times one
`evaluate_fold` at top 10 of every user, with `predict_scores` and
`rank_top_n` timed inside it, and the script prints the min and median
over repeats of users/s and of the two spans. `--tree` names the checkout
whose `src/` is imported (by default this one), so two checkouts can be
timed by the same script.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

TRUST = 10
TOP_N = 10
LATENT_DIM = 10
TRAIN_ITEMS = 30
TEST_ITEMS = 8
SEED = 0


def random_split(np, td, users: int, items: int):
    """(train, test) SparseInteractions over one random set of rows."""
    rng = np.random.default_rng(SEED)
    per_user = TRAIN_ITEMS + TEST_ITEMS
    owner = np.repeat(np.arange(users), per_user)
    cols = np.concatenate([rng.choice(items, per_user, replace=False) for _ in range(users)])
    in_train = np.tile(np.arange(per_user) < TRAIN_ITEMS, users)
    a = np.repeat(np.arange(users), TRUST)
    b = np.concatenate([rng.choice(users - 1, TRUST, replace=False) for _ in range(users)])
    trusts = np.stack([a, b + (b >= a)], axis=1)  # skip self-trust
    pairs = np.stack([owner, cols], axis=1)
    return (td.SparseInteractions(users, items, pairs[in_train], trusts),
            td.SparseInteractions(users, items, pairs[~in_train], trusts))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--tree", type=Path, default=Path(__file__).resolve().parents[1])
    parser.add_argument("--users", type=int, default=2000)
    parser.add_argument("--items", type=int, default=100_000)
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args(argv)
    if TRAIN_ITEMS + TEST_ITEMS > args.items or TRUST >= args.users:
        parser.error("rows must fit the catalogue and the community")
    if args.repeats < 1:
        parser.error("--repeats must be >= 1")
    sys.path.insert(0, str(args.tree.resolve() / "src"))
    import numpy as np
    import trustdae as td
    from trustdae import metrics

    train, test = random_split(np, td, args.users, args.items)
    params = td.init_params(args.users, args.items, LATENT_DIM, seed=SEED)
    spans = {"predict": 0.0, "rank": 0.0}

    def timed(name, fn):
        def call(*a):
            start = time.perf_counter()
            out = fn(*a)
            spans[name] += time.perf_counter() - start
            return out
        return call

    score_fn = timed("predict", lambda users: td.predict_scores(params, train, users, 0.8))
    rank_top_n = metrics.rank_top_n
    metrics.rank_top_n = timed("rank", rank_top_n)
    rates, predict_s, rank_s = [], [], []
    try:
        for _ in range(args.repeats):
            spans.update(predict=0.0, rank=0.0)
            start = time.perf_counter()
            fold = metrics.evaluate_fold(score_fn, train, test, TOP_N)
            rates.append(len(fold.users) / (time.perf_counter() - start))
            predict_s.append(spans["predict"])
            rank_s.append(spans["rank"])
    finally:
        metrics.rank_top_n = rank_top_n
    print(f"users={args.users} m={args.items} k={LATENT_DIM} "
          f"block={max(1, metrics.SCORE_BLOCK_ENTRIES // args.items)} "
          f"repeats={args.repeats} map@{TOP_N}={fold.map_at_n!r}")
    for name, values, unit in (("eval_users_per_s", rates, "1/s"),
                               ("predict_s", predict_s, "s"), ("rank_s", rank_s, "s")):
        print(f"{name}: min {min(values):.4g} median {float(np.median(values)):.4g} {unit}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
