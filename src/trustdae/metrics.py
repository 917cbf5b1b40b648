"""Ranking evaluation: precision/AP/NDCG kernels, degree buckets, fold CIs.

Relevance is binary, so the 2^rel - 1 numerator of the DCG gain reduces
to rel itself. Users whose test set is empty are excluded from every
mean. Scoring, ranking and the AP/NDCG kernels run on blocks of users:
a block's training rows become a (B, m) mask of excluded items, its lists
a (B, n) item matrix padded with -1, and its hits a (B, n) boolean matrix
read from a mask of its test rows. The kernels add along each row left
to right in rank order, so an independent per-list transcription of the
formulas reproduces them exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .sparse import SparseInteractions

# score entries asked of a score function at once: a float64 block of
# 2**18 entries is 2 MiB, so evaluation memory does not grow with the user count
SCORE_BLOCK_ENTRIES = 2 ** 18


def rank_top_n(scores: np.ndarray, excluded: np.ndarray, n: int) -> np.ndarray:
    """Top-n items of each row of a (B, m) score block, excluded items left out.

    `excluded` is a (B, m) boolean block. Row r of the (B, n) int64 result
    is in the order (-score, item index), with -1 in the slots past
    min(n, m - excluded[r].sum()). NaN scores have no rank and raise ValueError.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    scores = np.asarray(scores, dtype=np.float64)
    excluded = np.asarray(excluded, dtype=bool)
    if scores.ndim != 2 or excluded.shape != scores.shape:
        raise ValueError("scores and excluded must be (B, m) blocks of one shape")
    if np.isnan(scores).any():
        raise ValueError("scores contain NaN")
    b, m = scores.shape
    kept = ~excluded
    # a row's bound is the n-th largest maximum of ~8n disjoint column groups
    # (the first `cut` columns laid out as `width` rows), each a distinct
    # kept item's score: at most the n-th largest kept score, so the top n,
    # ties included, are at or above it
    width = max(1, m // (8 * n))
    groups = m // width
    cut = groups * width
    group_max = np.max(scores[:, :cut].reshape(b, width, groups), axis=1, initial=-np.inf,
                       where=kept[:, :cut].reshape(b, width, groups))
    bound = (np.partition(group_max, groups - n, axis=1)[:, groups - n] if groups >= n
             else np.full(b, -np.inf))
    cand_r, cand_i = np.divmod(np.flatnonzero(kept & (scores >= bound[:, None])), m)
    order = np.lexsort((cand_i, -scores[cand_r, cand_i], cand_r))
    # the sort keeps the ascending cand_r in place, so a candidate's slot is
    # its distance from its row's first candidate
    slot = np.arange(len(cand_r)) - np.searchsorted(cand_r, cand_r)
    listed = slot < n
    top = np.full((b, n), -1, dtype=np.int64)
    top[cand_r[listed], slot[listed]] = cand_i[order][listed]
    return top


def _check_kernel_args(hits, test_counts, n: int) -> tuple[np.ndarray, np.ndarray]:
    if n < 1:
        raise ValueError("n must be >= 1")
    hits = np.asarray(hits, dtype=bool)
    test_counts = np.asarray(test_counts, dtype=np.int64)
    if hits.ndim != 2 or test_counts.shape != (len(hits),):
        raise ValueError("hits must be a (B, L) block with one test count per row")
    if (test_counts < 1).any():
        raise ValueError("every test row must be nonempty")
    return hits[:, :n], test_counts


def _row_totals(values: np.ndarray) -> np.ndarray:
    """Each row summed left to right, in rank order."""
    if values.shape[1] == 0:
        return np.zeros(len(values))
    return np.cumsum(values, axis=1)[:, -1]


def average_precision(hits, test_counts, n: int) -> np.ndarray:
    """AP@n of each row of a (B, L) hit block: precision at each hit rank,
    averaged over min(n, #test items).

    hits[r, j] says whether rank j + 1 of row r's list holds a test item,
    test_counts[r] is the size of row r's test set; ranks past n are ignored.
    """
    hits, test_counts = _check_kernel_args(hits, test_counts, n)
    precision = np.cumsum(hits, axis=1) / np.arange(1, hits.shape[1] + 1)
    return _row_totals(np.where(hits, precision, 0.0)) / np.minimum(n, test_counts)


def ndcg(hits, test_counts, n: int) -> np.ndarray:
    """NDCG@n of each row of a (B, L) hit block, with binary gains; the ideal
    list has min(n, #test) hits on top. Arguments as for `average_precision`.
    """
    hits, test_counts = _check_kernel_args(hits, test_counts, n)
    discount = np.array([1.0 / math.log2(rank + 1) for rank in range(1, n + 1)])
    dcg = _row_totals(np.where(hits, discount[:hits.shape[1]], 0.0))
    return dcg / np.cumsum(discount)[np.minimum(n, test_counts) - 1]


def _row_mask(data: SparseInteractions, users: np.ndarray) -> np.ndarray:
    """(len(users), m) block marking the rated items of each of `users`."""
    owner, cols = data.rows(users, "rating")
    mask = np.zeros((len(users), data.m), dtype=bool)
    mask[owner, cols] = True
    return mask


@dataclass
class FoldMetrics:
    """Per-user metric values for one train/test materialization."""

    top_n: int
    users: np.ndarray
    train_counts: np.ndarray
    ap: np.ndarray
    ndcg: np.ndarray

    @property
    def map_at_n(self) -> float:
        return float(self.ap.mean()) if len(self.ap) else 0.0

    @property
    def ndcg_at_n(self) -> float:
        return float(self.ndcg.mean()) if len(self.ndcg) else 0.0


@dataclass
class BucketStats:
    label: str
    n_users: int
    map_at_n: float
    ndcg_at_n: float


@dataclass
class MetricsReport:
    """Cross-fold aggregate: means with 95% half-widths over fold values."""

    top_n: int
    map_mean: float
    map_ci95: float
    ndcg_mean: float
    ndcg_ci95: float
    fold_map: list[float]
    fold_ndcg: list[float]
    buckets: list[BucketStats] | None = None

    def csv_rows(self) -> list[str]:
        rows = ["metric,cutoff,bucket,mean,ci95"]
        rows.append(f"map,{self.top_n},all,{self.map_mean!r},{self.map_ci95!r}")
        rows.append(f"ndcg,{self.top_n},all,{self.ndcg_mean!r},{self.ndcg_ci95!r}")
        for b in self.buckets or []:
            rows.append(f"map,{self.top_n},{b.label},{b.map_at_n!r},")
            rows.append(f"ndcg,{self.top_n},{b.label},{b.ndcg_at_n!r},")
        return rows

    def table(self) -> str:
        lines = [f"{'metric':<10}{'bucket':<14}{'mean':>12}{'ci95':>12}",
                 f"{'map@' + str(self.top_n):<10}{'all':<14}{self.map_mean:>12.4f}{self.map_ci95:>12.4f}",
                 f"{'ndcg@' + str(self.top_n):<10}{'all':<14}{self.ndcg_mean:>12.4f}{self.ndcg_ci95:>12.4f}"]
        for b in self.buckets or []:
            lines.append(f"{'map@' + str(self.top_n):<10}{b.label:<14}{b.map_at_n:>12.4f}{'-':>12}")
        return "\n".join(lines)


def evaluate_fold(score_fn: Callable[[np.ndarray], np.ndarray], train: SparseInteractions,
                  test: SparseInteractions, top_n: int) -> FoldMetrics:
    """Rank every evaluable user and collect AP/NDCG.

    `score_fn(users)` returns the (len(users), m) score block of those
    users. It is asked for the users with a nonempty test row, in
    increasing order, in blocks of max(1, SCORE_BLOCK_ENTRIES // m).
    """
    test_counts = test.counts("rating")
    users = np.flatnonzero(test_counts)
    block = max(1, SCORE_BLOCK_ENTRIES // train.m)
    aps, ndcgs = [np.empty(0)], [np.empty(0)]
    for start in range(0, len(users), block):
        chunk = users[start:start + block]
        top = rank_top_n(score_fn(chunk), _row_mask(train, chunk), top_n)
        # a -1 slot past the end of a short list reads column m - 1: never a hit
        hits = (top >= 0) & np.take_along_axis(_row_mask(test, chunk), top, axis=1)
        aps.append(average_precision(hits, test_counts[chunk], top_n))
        ndcgs.append(ndcg(hits, test_counts[chunk], top_n))
    return FoldMetrics(top_n=top_n, users=users,
                       train_counts=train.counts("rating")[users],
                       ap=np.concatenate(aps), ndcg=np.concatenate(ndcgs))


def bucket_by_degree(folds: list[FoldMetrics], edges: list[int]) -> list[BucketStats]:
    """Pool user-fold evaluations into training-count buckets.

    Edges [a, b, c] define buckets [a,b), [b,c), [c,inf); empty buckets
    are omitted rather than reported as zero.
    """
    if any(b <= a for a, b in zip(edges, edges[1:])):
        raise ValueError("bucket edges must be strictly increasing")
    counts = np.concatenate([f.train_counts for f in folds])
    ap = np.concatenate([f.ap for f in folds])
    nd = np.concatenate([f.ndcg for f in folds])
    out = []
    bounds = list(zip(edges, edges[1:] + [None]))
    for lo, hi in bounds:
        mask = counts >= lo if hi is None else (counts >= lo) & (counts < hi)
        if not mask.any():
            continue
        label = f"[{lo},inf)" if hi is None else f"[{lo},{hi})"
        out.append(BucketStats(label=label, n_users=int(mask.sum()),
                               map_at_n=float(ap[mask].mean()),
                               ndcg_at_n=float(nd[mask].mean())))
    return out


def ci95_half_width(values: list[float]) -> float:
    """1.96 * sample std / sqrt(#folds); zero when only one fold."""
    if len(values) < 2:
        return 0.0
    return float(1.96 * np.std(values, ddof=1) / math.sqrt(len(values)))


def aggregate_folds(folds: list[FoldMetrics],
                    bucket_edges: list[int] | None = None) -> MetricsReport:
    fold_map = [f.map_at_n for f in folds]
    fold_ndcg = [f.ndcg_at_n for f in folds]
    buckets = bucket_by_degree(folds, bucket_edges) if bucket_edges else None
    return MetricsReport(top_n=folds[0].top_n,
                         map_mean=float(np.mean(fold_map)),
                         map_ci95=ci95_half_width(fold_map),
                         ndcg_mean=float(np.mean(fold_ndcg)),
                         ndcg_ci95=ci95_half_width(fold_ndcg),
                         fold_map=fold_map, fold_ndcg=fold_ndcg,
                         buckets=buckets)
