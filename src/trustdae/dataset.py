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
import zlib
from dataclasses import dataclass

import numpy as np

from .sparse import SparseInteractions

_CACHE_MAGIC = b"TRDAEDS1"


class DatasetError(Exception):
    """Raised for ingestion or preprocessing failures."""


class ParseError(DatasetError):
    """Malformed input line; message carries file and line number."""


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


def _rows(path, width: int):
    """Yield (line number, fields) for each nonblank line; fields split on whitespace or commas."""
    try:
        try:
            with _open_text(path) as fh:
                for lineno, line in enumerate(fh, start=1):
                    parts = line.replace(",", " ").split()
                    if not parts:
                        continue
                    if len(parts) != width:
                        raise ParseError(
                            f"{path}:{lineno}: expected {width} fields, got {len(parts)}")
                    yield lineno, parts
        except UnicodeDecodeError:
            # text mode decodes ahead in chunks, so the line count read so
            # far is not the bad line's number; find it again in binary
            raise ParseError(f"{path}:{_undecodable_line(path)}: not valid UTF-8") from None
    # a truncated gzip file ends early, one with damaged bytes fails to
    # inflate, and a file that is not gzip at all has no gzip header
    except (EOFError, zlib.error, gzip.BadGzipFile) as exc:
        raise ParseError(f"{path}: damaged gzip file: {exc}") from None


def _undecodable_line(path) -> int:
    """Number of the first line of `path` that is not valid UTF-8.

    Lines end at "\n", "\r\n" or a lone "\r", as in text mode; neither
    byte occurs inside a UTF-8 multibyte sequence, so splitting the bytes
    there splits no character.
    """
    lineno = 0
    with (gzip.open if str(path).endswith(".gz") else open)(path, "rb") as fh:
        for chunk in fh:
            for line in chunk.replace(b"\r\n", b"\n").split(b"\r"):
                lineno += 1
                try:
                    line.decode("utf-8")
                except UnicodeDecodeError:
                    return lineno
    return lineno


def load_raw(ratings_path, trusts_path) -> tuple[np.ndarray, np.ndarray]:
    """Parse rating and trust files; lines are (user item score) / (truster trustee).

    Returns two object arrays in file order: ratings, (count, 3) rows of
    user id, item id and integer score; trusts, (count, 2) rows of truster
    and trustee id. Ids stay strings, so "01" and "1" are different users.
    """
    cells: list = []
    for lineno, (user, item, score) in _rows(ratings_path, 3):
        try:
            value = int(score)
        except ValueError:
            raise ParseError(f"{ratings_path}:{lineno}: score {score!r} is not an integer") from None
        if not 1 <= value <= 5:
            raise ParseError(f"{ratings_path}:{lineno}: score {value} out of range [1, 5]")
        cells += (user, item, value)
    ratings = np.array(cells, dtype=object).reshape(-1, 3)
    del cells   # not kept alive while the trust file is parsed
    trusts = [field for _, parts in _rows(trusts_path, 2) for field in parts]
    return ratings, np.array(trusts, dtype=object).reshape(-1, 2)


def _factorize(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Code each value by its first appearance, in one dict pass.

    Returns the distinct values in first-appearance order and the code of
    every value. Nothing is sorted, so ids compare as exact Python strings.
    """
    index: dict = {}
    codes = np.fromiter((index.setdefault(v, len(index)) for v in values.tolist()),
                        dtype=np.int64, count=len(values))
    return np.array(list(index), dtype=object), codes


def _dense_ids(codes: np.ndarray, names: np.ndarray) -> tuple[np.ndarray, list[str]]:
    """Number the distinct codes in order of first appearance.

    Returns the dense id of every code (-1 for codes that do not occur)
    and the names in dense order.
    """
    present, first = np.unique(codes, return_index=True)
    order = present[np.argsort(first)]
    dense = np.full(len(names), -1, dtype=np.int64)
    dense[order] = np.arange(len(order))
    return dense, names[order].tolist()


def _first_occurrences(a: np.ndarray, b: np.ndarray, width: int) -> np.ndarray:
    """Sorted positions of the first occurrence of each (a, b) code pair."""
    _, first = np.unique(a * width + b, return_index=True)
    return np.sort(first)


def binarize_and_filter(ratings: np.ndarray, trusts: np.ndarray,
                        min_count: int = 5) -> Dataset:
    """Keep ratings >= 4 as positives and drop thin users/items to a fixed point.

    Takes the arrays `load_raw` returns. Ids are factorized by first
    appearance in one dict pass, so no string is sorted and ids compare as
    exact strings. A repeated (user, item) positive keeps its first
    occurrence. Dropping a user can push an item below the threshold and
    vice versa, so the filter iterates until no row or column changes.
    Trust edges lose self-loops and repeats (the first occurrence stays)
    and are restricted to surviving users.
    """
    if min_count < 1:
        raise ValueError("min_count must be >= 1")
    pos = ratings[ratings[:, 2].astype(np.int64) >= 4]
    # rating users and trust endpoints share one code space
    names, codes = _factorize(np.concatenate([pos[:, 0], trusts.ravel()]))
    item_names, items = _factorize(pos[:, 1])
    users = codes[:len(pos)]
    keep = _first_occurrences(users, items, len(item_names))
    users, items = users[keep], items[keep]
    while True:
        ok = ((np.bincount(users, minlength=len(names))[users] >= min_count)
              & (np.bincount(items, minlength=len(item_names))[items] >= min_count))
        if ok.all():
            break
        users, items = users[ok], items[ok]
    if not len(users):
        raise DatasetError("no interactions left after filtering")

    user_of, user_ids = _dense_ids(users, names)
    item_of, item_ids = _dense_ids(items, item_names)
    ends = codes[len(pos):].reshape(-1, 2)
    ends = ends[ends[:, 0] != ends[:, 1]]
    edges = user_of[ends[_first_occurrences(ends[:, 0], ends[:, 1], len(names))]]
    return Dataset(n=len(user_ids), m=len(item_ids),
                   ratings=np.column_stack([user_of[users], item_of[items]]),
                   trusts=edges[(edges >= 0).all(axis=1)],
                   user_ids=user_ids, item_ids=item_ids)


def split_folds(ds: Dataset, n_folds: int = 5, seed: int = 0) -> FoldSplit:
    """Per-user stratified assignment of positives to folds.

    Each user's positives, in rating order, are permuted with a stream
    keyed by (seed, user) and dealt round-robin, so per-user fold sizes
    differ by at most one.
    """
    if n_folds < 2:
        raise ValueError("n_folds must be >= 2")
    users = ds.ratings[:, 0]
    order = np.argsort(users, kind="stable")
    folds = np.empty(len(users), dtype=np.int64)
    start = 0
    for u, count in enumerate(np.bincount(users, minlength=ds.n).tolist()):
        if count < n_folds:
            raise DatasetError(
                f"user {ds.user_ids[u]!r} has {count} positives, fewer than {n_folds} folds")
        positions = order[start:start + count]
        start += count
        perm = np.random.default_rng([seed, u]).permutation(count)
        folds[positions[perm]] = np.arange(count) % n_folds
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
    """Write the canonical binary cache; byte-identical for identical datasets.

    Ids are stored newline-separated, so an id holding a newline is rejected.
    """
    for ids in (ds.user_ids, ds.item_ids):
        bad = next((i for i in ids if "\n" in i), None)
        if bad is not None:
            raise DatasetError(f"id {bad!r} holds a newline, which the cache cannot store")
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
    """Read a cache written by `save_cache`, rejecting truncated or corrupt
    files and bytes after the trust pairs."""
    with open(path, "rb") as fh:
        end = os.fstat(fh.fileno()).st_size
        if fh.read(len(_CACHE_MAGIC)) != _CACHE_MAGIC:
            raise DatasetError(f"{path}: not a dataset cache (bad header)")

        def read(size: int, what: str) -> bytes:
            if size > end - fh.tell():   # also keeps a corrupt size from allocating
                raise DatasetError(f"{path}: truncated cache ({what})")
            return fh.read(size)

        n, m, n_r, n_t, ul, il = struct.unpack("<6Q", read(48, "header"))
        user_blob, item_blob = read(ul, "user ids"), read(il, "item ids")
        try:
            users, items = user_blob.decode("utf-8"), item_blob.decode("utf-8")
        except UnicodeDecodeError:
            raise DatasetError(f"{path}: ids are not valid UTF-8") from None
        # the counts, not the blob sizes, tell no ids from one empty id
        user_ids = users.split("\n") if n or users else []
        item_ids = items.split("\n") if m or items else []
        ratings = np.frombuffer(read(16 * n_r, "ratings"), dtype="<i8").reshape(n_r, 2).astype(np.int64)
        trusts = np.frombuffer(read(16 * n_t, "trusts"), dtype="<i8").reshape(n_t, 2).astype(np.int64)
        if fh.tell() != end:
            raise DatasetError(f"{path}: {end - fh.tell()} bytes after the trust pairs")
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
