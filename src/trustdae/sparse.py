"""Per-user sparse rows of the binary rating and trust matrices.

Rows are stored CSR-style (offset array plus sorted column indices), so
iterating a user's positives is a slice and the sampler's membership test
is a binary search.
Negative sampling draws uniformly without replacement from the complement
of a row, sized to match the row itself.
"""

from __future__ import annotations

import numpy as np

# Above this row occupancy rejection sampling wastes too many draws;
# enumerate the complement instead.
_REJECTION_OCCUPANCY = 0.25


def _build_csr(n_rows: int, n_cols: int, pairs: np.ndarray, what: str):
    """Turn an array of (row, col) pairs into (indptr, sorted indices)."""
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    if len(pairs):
        rows, cols = pairs[:, 0], pairs[:, 1]
        if rows.min() < 0 or rows.max() >= n_rows:
            raise ValueError(f"{what} row index out of range [0, {n_rows})")
        if cols.min() < 0 or cols.max() >= n_cols:
            raise ValueError(f"{what} column index out of range [0, {n_cols})")
        order = np.lexsort((cols, rows))
        rows, cols = rows[order], cols[order]
        if len(pairs) > 1:
            dup = (np.diff(rows) == 0) & (np.diff(cols) == 0)
            if dup.any():
                raise ValueError(f"duplicate {what} pair")
        indptr = np.zeros(n_rows + 1, dtype=np.int64)
        np.add.at(indptr, rows + 1, 1)
        np.cumsum(indptr, out=indptr)
    else:
        cols = np.empty(0, dtype=np.int64)
        indptr = np.zeros(n_rows + 1, dtype=np.int64)
    cols.flags.writeable = False
    indptr.flags.writeable = False
    return indptr, cols


def sample_complement(rng: np.random.Generator, domain: int,
                      positives: np.ndarray, size: int) -> np.ndarray:
    """Uniform sample without replacement from {0..domain-1} minus positives.

    `positives` must be sorted. Sparse rows are handled by rejection
    sampling with a binary-search membership test; dense rows fall back to
    materializing the complement.
    """
    if size == 0:
        return np.empty(0, dtype=np.int64)
    n_pos = len(positives)
    if n_pos > _REJECTION_OCCUPANCY * domain:
        complement = np.setdiff1d(np.arange(domain, dtype=np.int64),
                                  positives, assume_unique=True)
        return rng.choice(complement, size=size, replace=False)
    out = np.empty(size, dtype=np.int64)
    taken = 0
    seen: set[int] = set()
    while taken < size:
        draw = rng.integers(0, domain, size=max(16, 2 * (size - taken)))
        if n_pos:
            at = np.searchsorted(positives, draw)
            hit = (at < n_pos) & (positives[np.minimum(at, n_pos - 1)] == draw)
        else:
            hit = np.zeros(len(draw), dtype=bool)
        for x, h in zip(draw.tolist(), hit.tolist()):
            if h or x in seen:
                continue
            seen.add(x)
            out[taken] = x
            taken += 1
            if taken == size:
                break
    return out


class SparseInteractions:
    """Immutable per-user rows: ratings over items, trust over users."""

    def __init__(self, n: int, m: int, rating_pairs, trust_pairs):
        self.n = int(n)
        self.m = int(m)
        self._rating_indptr, self._rating_cols = _build_csr(
            self.n, self.m, rating_pairs, "rating")
        self._trust_indptr, self._trust_cols = _build_csr(
            self.n, self.n, trust_pairs, "trust")

    def _select(self, which: str):
        if which == "rating":
            return self._rating_indptr, self._rating_cols, self.m
        if which == "trust":
            return self._trust_indptr, self._trust_cols, self.n
        raise ValueError(f"unknown matrix {which!r}")

    def row(self, u: int, which: str = "rating") -> np.ndarray:
        """Sorted column indices of user u's row, as a read-only view."""
        if not 0 <= u < self.n:
            raise IndexError(f"user index {u} out of range [0, {self.n})")
        indptr, cols, _ = self._select(which)
        return cols[indptr[u]:indptr[u + 1]]

    def rows(self, users, which: str = "rating") -> tuple[np.ndarray, np.ndarray]:
        """The rows of `users` laid end to end, as (owner, cols).

        cols[j] is a column of the row of users[owner[j]]; the rows follow
        the order of `users`, each sorted, so owner is nondecreasing.
        """
        users = np.asarray(users, dtype=np.int64)
        if len(users) and (users.min() < 0 or users.max() >= self.n):
            raise IndexError(f"user index out of range [0, {self.n})")
        indptr, cols, _ = self._select(which)
        starts = indptr[users]
        lengths = indptr[users + 1] - starts
        owner = np.repeat(np.arange(len(users)), lengths)
        # position j of the concatenation is j - offset[owner] into its row
        shift = np.repeat(starts - (np.cumsum(lengths) - lengths), lengths)
        return owner, cols[np.arange(len(owner)) + shift]

    def counts(self, which: str = "rating") -> np.ndarray:
        indptr, _, _ = self._select(which)
        return np.diff(indptr)

    def nnz(self, which: str = "rating") -> int:
        _, cols, _ = self._select(which)
        return len(cols)

    def sample_item_negatives(self, u: int, rng: np.random.Generator) -> np.ndarray:
        row = self.row(u, "rating")
        return sample_complement(rng, self.m, row, min(len(row), self.m - len(row)))

    def sample_user_negatives(self, u: int, rng: np.random.Generator) -> np.ndarray:
        row = self.row(u, "trust")
        return sample_complement(rng, self.n, row, min(len(row), self.n - len(row)))
