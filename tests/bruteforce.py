"""Independent brute-force transcriptions of the ranking formulas and the
preprocessing rules.

Everything here is written without incremental bookkeeping: precision is
recounted from scratch at each cutoff, rankings are built with plain
sorts, and preprocessing walks the records one at a time with dicts and
sets. Used as the oracle the package code must agree with exactly.
"""

import math

import numpy as np

from trustdae.dataset import DatasetError


def precision_at_k(ranked, test_set, k):
    hits = sum(1 for item in ranked[:k] if item in test_set)
    return hits / k


def ap_at_n(ranked, test_set, n):
    total = 0.0
    for k in range(1, n + 1):
        rel = 1 if k <= len(ranked) and ranked[k - 1] in test_set else 0
        if rel:
            total += precision_at_k(ranked, test_set, k) * rel
    return total / min(n, len(test_set))


def dcg_at_n(ranked, test_set, n):
    total = 0.0
    for k in range(1, n + 1):
        rel = 1 if k <= len(ranked) and ranked[k - 1] in test_set else 0
        total += (2 ** rel - 1) / math.log2(k + 1)
    return total


def ndcg_at_n(ranked, test_set, n):
    ideal = 0.0
    for k in range(1, min(n, len(test_set)) + 1):
        ideal += (2 ** 1 - 1) / math.log2(k + 1)
    return dcg_at_n(ranked, test_set, n) / ideal


def rank_by_score(scores, train_set, n):
    """Full sort by (-score, index), then drop training items; top n."""
    order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    kept = [i for i in order if i not in train_set]
    return kept[:n]


def popularity_ap_per_user(counts, train_rows, test_rows, n):
    """AP@n of ranking each evaluable user by global item counts."""
    values = []
    for u in range(len(train_rows)):
        test_set = set(test_rows[u])
        if not test_set:
            continue
        ranked = rank_by_score(list(counts), set(train_rows[u]), n)
        values.append(ap_at_n(ranked, test_set, n))
    return values


def binarize_and_filter(ratings, trusts, min_count):
    """Record-by-record preprocessing of (user, item, score) and (truster, trustee) rows.

    Returns (user_ids, item_ids, dense rating pairs, dense trust pairs).
    """
    seen, pairs = set(), []
    for user, item, score in ratings:
        if score >= 4 and (user, item) not in seen:
            seen.add((user, item))
            pairs.append((user, item))
    while True:
        user_cnt, item_cnt = {}, {}
        for u, i in pairs:
            user_cnt[u] = user_cnt.get(u, 0) + 1
            item_cnt[i] = item_cnt.get(i, 0) + 1
        kept = [(u, i) for u, i in pairs
                if user_cnt[u] >= min_count and item_cnt[i] >= min_count]
        if len(kept) == len(pairs):
            break
        pairs = kept
    if not pairs:
        raise DatasetError("no interactions left after filtering")
    user_index, item_index = {}, {}
    for u, i in pairs:
        user_index.setdefault(u, len(user_index))
        item_index.setdefault(i, len(item_index))
    seen, edges = set(), []
    for a, b in trusts:
        if a == b or (a, b) in seen:
            continue
        seen.add((a, b))
        if a in user_index and b in user_index:
            edges.append([user_index[a], user_index[b]])
    return (list(user_index), list(item_index),
            [[user_index[u], item_index[i]] for u, i in pairs], edges)


def split_folds(pairs, user_ids, n_folds, seed):
    """Deal each user's positives, permuted by the (seed, user) stream, round-robin."""
    rows = [[] for _ in user_ids]
    for pos, (u, _) in enumerate(pairs):
        rows[u].append(pos)
    folds = [None] * len(pairs)
    for u, positions in enumerate(rows):
        if len(positions) < n_folds:
            raise DatasetError(f"user {user_ids[u]!r} has {len(positions)} positives, "
                               f"fewer than {n_folds} folds")
        perm = np.random.default_rng([seed, u]).permutation(len(positions))
        for j, slot in enumerate(perm):
            folds[positions[slot]] = j % n_folds
    return folds
