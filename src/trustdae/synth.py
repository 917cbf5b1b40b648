"""Synthetic planted-community dataset for end-to-end checks.

Users are split into equal communities, each owning a disjoint block of
items. A user rates items inside their own block with fixed probability
(score 5, so everything survives binarization) and trusts other members
of their community. Latent models must separate the blocks; popularity
ranking cannot.
"""

from __future__ import annotations

import numpy as np

from .dataset import Dataset, binarize_and_filter


def make_block_raw(n_users: int = 200, n_items: int = 300, n_communities: int = 4,
                   block_items: int = 60, p_rate: float = 0.3,
                   p_trust: float = 0.1, seed: int = 0
                   ) -> tuple[np.ndarray, np.ndarray]:
    """Raw records with planted block structure, as `load_raw` returns them."""
    for name, count in (("n_users", n_users), ("n_items", n_items),
                        ("n_communities", n_communities), ("block_items", block_items)):
        if count < 1:
            raise ValueError(f"{name} must be >= 1, not {count}")
    for name, p in (("p_rate", p_rate), ("p_trust", p_trust)):
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"{name} must be in [0, 1], not {p}")
    if n_communities * block_items > n_items:
        raise ValueError("item blocks exceed the item count")
    if n_users % n_communities != 0:
        raise ValueError("n_users must divide evenly into communities")
    rng = np.random.default_rng(seed)
    per_comm = n_users // n_communities
    # each user's row: one draw per item of their block, then one per member
    draws = rng.random((n_users, block_items + per_comm))
    comm = np.arange(n_users) // per_comm
    u, j = np.nonzero(draws[:, :block_items] < p_rate)
    ratings = np.empty((len(u), 3), dtype=object)
    ratings[:, 0] = u.astype(str)
    ratings[:, 1] = (comm[u] * block_items + j).astype(str)
    ratings[:, 2] = 5
    a, j = np.nonzero(draws[:, block_items:] < p_trust)
    b = comm[a] * per_comm + j
    a, b = a[a != b], b[a != b]
    trusts = np.empty((len(a), 2), dtype=object)
    trusts[:, 0] = a.astype(str)
    trusts[:, 1] = b.astype(str)
    return ratings, trusts


def make_block_dataset(min_count: int = 5, **kw) -> Dataset:
    ratings, trusts = make_block_raw(**kw)
    return binarize_and_filter(ratings, trusts, min_count=min_count)


def write_raw_files(ratings: np.ndarray, trusts: np.ndarray,
                    ratings_path, trusts_path) -> None:
    with open(ratings_path, "w", encoding="utf-8") as fh:
        fh.writelines(f"{u} {i} {s}\n" for u, i, s in ratings.tolist())
    with open(trusts_path, "w", encoding="utf-8") as fh:
        fh.writelines(f"{a} {b}\n" for a, b in trusts.tolist())
