"""Raw file ingestion, implicit-feedback preprocessing, and fold splits.

Ratings of 4 stars or more become binary positives; users and items with
fewer than `min_count` positives are dropped iteratively until the counts
stabilize. Surviving records get dense indices in order of first
appearance, which makes the binary cache byte-reproducible.
"""

from __future__ import annotations

import gzip
import hashlib
import os
import struct
from dataclasses import dataclass, field

import numpy as np

from .sparse import SparseInteractions

_CACHE_MAGIC = b"TRDAEDS1"


class DatasetError(Exception):
    """Raised for ingestion or preprocessing failures."""


class ParseError(DatasetError):
    """Malformed input line; message carries file and line number."""


@dataclass(frozen=True)
class RawRating:
    user: str
    item: str
    score: int


@dataclass(frozen=True)
class RawTrust:
    truster: str
    trustee: str


@dataclass
class Dataset:
    """Filtered binary interactions with dense indices.

    `ratings` and `trusts` are (count, 2) int64 arrays of dense index
    pairs; `user_ids` / `item_ids` map dense index back to the external
    identifier.
    """

    n: int
    m: int
    ratings: np.ndarray
    trusts: np.ndarray
    user_ids: list[str]
    item_ids: list[str]
    user_index: dict[str, int] = field(repr=False, default_factory=dict)
    item_index: dict[str, int] = field(repr=False, default_factory=dict)

    def __post_init__(self):
        if not self.user_index:
            self.user_index = {u: i for i, u in enumerate(self.user_ids)}
        if not self.item_index:
            self.item_index = {it: i for i, it in enumerate(self.item_ids)}

    def stats(self) -> dict[str, float]:
        return {
            "users": self.n,
            "items": self.m,
            "ratings": len(self.ratings),
            "trusts": len(self.trusts),
            "rating_density": len(self.ratings) / (self.n * self.m),
            "trust_density": len(self.trusts) / (self.n * self.n),
        }


@dataclass
class FoldSplit:
    """Assignment of each rating (aligned with Dataset.ratings) to a fold."""

    n_folds: int
    folds: np.ndarray


def _open_text(path):
    if str(path).endswith(".gz"):
        return gzip.open(path, "rt", encoding="utf-8")
    return open(path, "r", encoding="utf-8")


def _fields(line: str) -> list[str]:
    return line.replace(",", " ").split()


def load_raw(ratings_path, trusts_path) -> tuple[list[RawRating], list[RawTrust]]:
    """Parse rating and trust files; lines are (user item score) / (truster trustee)."""
    ratings: list[RawRating] = []
    with _open_text(ratings_path) as fh:
        for lineno, line in enumerate(fh, start=1):
            parts = _fields(line)
            if not parts:
                continue
            if len(parts) != 3:
                raise ParseError(f"{ratings_path}:{lineno}: expected 3 fields, got {len(parts)}")
            try:
                score = int(parts[2])
            except ValueError:
                raise ParseError(f"{ratings_path}:{lineno}: score {parts[2]!r} is not an integer") from None
            if not 1 <= score <= 5:
                raise ParseError(f"{ratings_path}:{lineno}: score out of range at line {lineno}")
            ratings.append(RawRating(parts[0], parts[1], score))
    trusts: list[RawTrust] = []
    with _open_text(trusts_path) as fh:
        for lineno, line in enumerate(fh, start=1):
            parts = _fields(line)
            if not parts:
                continue
            if len(parts) != 2:
                raise ParseError(f"{trusts_path}:{lineno}: expected 2 fields, got {len(parts)}")
            trusts.append(RawTrust(parts[0], parts[1]))
    return ratings, trusts


def binarize_and_filter(raw: list[RawRating], trusts: list[RawTrust],
                        min_count: int = 5) -> Dataset:
    """Keep ratings >= 4 as positives and drop thin users/items to a fixed point.

    Dropping a user can push an item below the threshold and vice versa,
    so the filter iterates until no row or column changes. Trust edges are
    deduplicated, stripped of self-loops, and restricted to surviving users.
    """
    if min_count < 1:
        raise ValueError("min_count must be >= 1")
    seen: set[tuple[str, str]] = set()
    pairs: list[tuple[str, str]] = []
    for r in raw:
        if r.score < 4:
            continue
        key = (r.user, r.item)
        if key in seen:
            continue
        seen.add(key)
        pairs.append(key)

    while True:
        user_cnt: dict[str, int] = {}
        item_cnt: dict[str, int] = {}
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

    user_index: dict[str, int] = {}
    item_index: dict[str, int] = {}
    for u, i in pairs:
        if u not in user_index:
            user_index[u] = len(user_index)
        if i not in item_index:
            item_index[i] = len(item_index)

    edge_seen: set[tuple[str, str]] = set()
    edges: list[tuple[int, int]] = []
    for t in trusts:
        if t.truster == t.trustee:
            continue
        key = (t.truster, t.trustee)
        if key in edge_seen:
            continue
        edge_seen.add(key)
        if t.truster in user_index and t.trustee in user_index:
            edges.append((user_index[t.truster], user_index[t.trustee]))

    ratings = np.array([(user_index[u], item_index[i]) for u, i in pairs],
                       dtype=np.int64).reshape(-1, 2)
    trusts_arr = np.array(edges, dtype=np.int64).reshape(-1, 2)
    user_ids = sorted(user_index, key=user_index.get)
    item_ids = sorted(item_index, key=item_index.get)
    return Dataset(n=len(user_ids), m=len(item_ids), ratings=ratings,
                   trusts=trusts_arr, user_ids=user_ids, item_ids=item_ids,
                   user_index=user_index, item_index=item_index)


def split_folds(ds: Dataset, n_folds: int = 5, seed: int = 0) -> FoldSplit:
    """Per-user stratified assignment of positives to folds.

    Each user's positives are permuted with a stream keyed by (seed, user)
    and dealt round-robin, so per-user fold sizes differ by at most one.
    """
    if n_folds < 2:
        raise ValueError("n_folds must be >= 2")
    folds = np.empty(len(ds.ratings), dtype=np.int64)
    rows: list[list[int]] = [[] for _ in range(ds.n)]
    for pos, (u, _) in enumerate(ds.ratings):
        rows[int(u)].append(pos)
    for u, positions in enumerate(rows):
        if len(positions) < n_folds:
            raise DatasetError(
                f"user {ds.user_ids[u]!r} has {len(positions)} positives, fewer than {n_folds} folds")
        rng = np.random.default_rng([seed, u])
        perm = rng.permutation(len(positions))
        for j, slot in enumerate(perm):
            folds[positions[slot]] = j % n_folds
    return FoldSplit(n_folds=n_folds, folds=folds)


def materialize_split(ds: Dataset, split: FoldSplit,
                      test_fold: int) -> tuple[SparseInteractions, SparseInteractions]:
    """Train interactions (all other folds plus every trust edge) and held-out test."""
    if not 0 <= test_fold < split.n_folds:
        raise ValueError(f"test_fold {test_fold} out of range [0, {split.n_folds})")
    mask = split.folds == test_fold
    train = SparseInteractions(ds.n, ds.m, ds.ratings[~mask], ds.trusts)
    test = SparseInteractions(ds.n, ds.m, ds.ratings[mask],
                              np.empty((0, 2), dtype=np.int64))
    return train, test


def save_cache(ds: Dataset, path) -> None:
    """Write the canonical binary cache; byte-identical for identical datasets."""
    users = "\n".join(ds.user_ids).encode("utf-8")
    items = "\n".join(ds.item_ids).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(_CACHE_MAGIC)
        fh.write(struct.pack("<6Q", ds.n, ds.m, len(ds.ratings), len(ds.trusts),
                             len(users), len(items)))
        fh.write(users)
        fh.write(items)
        fh.write(np.ascontiguousarray(ds.ratings, dtype="<i8").tobytes())
        fh.write(np.ascontiguousarray(ds.trusts, dtype="<i8").tobytes())


def load_cache(path) -> Dataset:
    """Read a cache written by `save_cache`, rejecting truncated or corrupt files."""
    with open(path, "rb") as fh:
        end = os.fstat(fh.fileno()).st_size
        if fh.read(len(_CACHE_MAGIC)) != _CACHE_MAGIC:
            raise DatasetError(f"{path}: not a dataset cache (bad header)")

        def read(size: int, what: str) -> bytes:
            if size > end - fh.tell():   # also keeps a corrupt size from allocating
                raise DatasetError(f"{path}: truncated cache ({what})")
            return fh.read(size)

        n, m, n_r, n_t, ul, il = struct.unpack("<6Q", read(48, "header"))
        user_ids = read(ul, "user ids").decode("utf-8").split("\n") if ul else []
        item_ids = read(il, "item ids").decode("utf-8").split("\n") if il else []
        ratings = np.frombuffer(read(16 * n_r, "ratings"), dtype="<i8").reshape(n_r, 2).astype(np.int64)
        trusts = np.frombuffer(read(16 * n_t, "trusts"), dtype="<i8").reshape(n_t, 2).astype(np.int64)
    if len(user_ids) != n or len(item_ids) != m:
        raise DatasetError(f"{path}: truncated or corrupt cache")
    for name, pairs, bounds in (("ratings", ratings, (n, m)), ("trusts", trusts, (n, n))):
        if (pairs < 0).any() or (pairs >= bounds).any():
            raise DatasetError(f"{path}: {name} hold an index out of range")
    return Dataset(n=n, m=m, ratings=ratings, trusts=trusts,
                   user_ids=user_ids, item_ids=item_ids)


def cache_sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()
