"""Output oracle for one cross-validation fold.

Shares no code with the program's scoring, ranking or metric code. From
a fold's checkpoint it recomputes every evaluated user's item scores with
its own dense forward pass, ranks the items by (-score, item index) with
the user's training positives left out, and computes AP@N and NDCG@N
from their formulas. It also ranks by its own item popularity counts,
which cannot tell one planted community's block from another.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def _logistic(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-x))


def dense_scores(params: dict[str, np.ndarray], rating_rows: np.ndarray,
                 trust_rows: np.ndarray, users: np.ndarray, alpha: float) -> np.ndarray:
    """Item scores of `users` from dense 0/1 input rows, clean (no corruption)."""
    z_r = rating_rows @ params["rating_enc_w"] + params["rating_enc_b"]
    z_t = trust_rows @ params["trust_enc_w"] + params["trust_enc_b"]
    if params.get("user_vecs") is not None:
        z_r = z_r + params["user_vecs"][users]
        z_t = z_t + params["user_vecs"][users]
    code = alpha * _logistic(z_r) + (1.0 - alpha) * _logistic(z_t)
    return _logistic(code @ params["rating_dec_w"].T + params["rating_dec_b"])


def top_n(scores: np.ndarray, excluded: np.ndarray, n: int) -> np.ndarray:
    """First n items by descending score, ties to the smaller index, `excluded` left out."""
    candidates = np.setdiff1d(np.arange(len(scores)), excluded)
    order = np.lexsort((candidates, -scores[candidates]))
    return candidates[order[:n]]


def ap_at_n(ranked: np.ndarray, relevant: np.ndarray, n: int) -> float:
    """Mean over the first min(n, |relevant|) recall points of precision@rank."""
    hits = np.isin(ranked[:n], relevant)
    precision = np.cumsum(hits) / np.arange(1, len(hits) + 1)
    return float(precision[hits].sum() / min(n, len(relevant)))


def ndcg_at_n(ranked: np.ndarray, relevant: np.ndarray, n: int) -> float:
    """Binary-gain DCG@n over the DCG of min(n, |relevant|) hits on top."""
    discount = 1.0 / np.log2(np.arange(2, n + 2))
    hits = np.isin(ranked[:n], relevant)
    return float(discount[:len(hits)][hits].sum() / discount[:min(n, len(relevant))].sum())


def popularity(train_pairs: np.ndarray, m: int) -> np.ndarray:
    """Training positives per item."""
    return np.bincount(train_pairs[:, 1], minlength=m).astype(np.float64)


def _rows(pairs: np.ndarray, n: int) -> list[np.ndarray]:
    """Sorted columns of each of the n rows of a (row, column) pair array."""
    pairs = pairs[np.lexsort((pairs[:, 1], pairs[:, 0]))]
    bounds = np.searchsorted(pairs[:, 0], np.arange(n + 1))
    return [pairs[bounds[u]:bounds[u + 1], 1] for u in range(n)]


@dataclass
class FoldCheck:
    users: int
    map_at_n: float
    ndcg_at_n: float
    pop_map_at_n: float
    lists_with_train_positive: int


def check_fold(params: dict[str, np.ndarray], alpha: float, n: int, m: int,
               train_pairs: np.ndarray, test_pairs: np.ndarray,
               trust_pairs: np.ndarray, cutoff: int, block: int = 256) -> FoldCheck:
    """Recompute one fold's mean AP/NDCG and the popularity MAP on its own.

    Pairs are (user, column) index arrays; a user is evaluated when it has
    a test positive. Users are scored `block` at a time to bound memory.
    """
    train_of, test_of = _rows(train_pairs, n), _rows(test_pairs, n)
    users = np.array([u for u in range(n) if len(test_of[u])], dtype=np.int64)
    pop = popularity(train_pairs, m)
    aps, ndcgs, pop_aps, leaks = [], [], [], 0
    for lo in range(0, len(users), block):
        chunk = users[lo:lo + block]
        rating_rows = np.zeros((len(chunk), m))
        trust_rows = np.zeros((len(chunk), n))
        for r, u in enumerate(chunk):
            rating_rows[r, train_of[u]] = 1.0
        mine = trust_pairs[np.isin(trust_pairs[:, 0], chunk)]
        trust_rows[np.searchsorted(chunk, mine[:, 0]), mine[:, 1]] = 1.0
        scores = dense_scores(params, rating_rows, trust_rows, chunk, alpha)
        for r, u in enumerate(chunk):
            ranked = top_n(scores[r], train_of[u], cutoff)
            leaks += bool(np.isin(ranked, train_of[u]).any())
            aps.append(ap_at_n(ranked, test_of[u], cutoff))
            ndcgs.append(ndcg_at_n(ranked, test_of[u], cutoff))
            pop_aps.append(ap_at_n(top_n(pop, train_of[u], cutoff), test_of[u], cutoff))
    return FoldCheck(users=len(users), map_at_n=float(np.mean(aps)),
                     ndcg_at_n=float(np.mean(ndcgs)),
                     pop_map_at_n=float(np.mean(pop_aps)),
                     lists_with_train_positive=leaks)
