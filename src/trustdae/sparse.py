"""Per-user sparse rows of the binary rating and trust matrices.

Rows are stored CSR-style (offset array plus sorted column indices), so
iterating a user's positives is a slice and the sampler's membership test
is a binary search.
Negative sampling draws uniformly without replacement from the complement
of a row, sized to match the row itself. `sample_complement` defines one
row's sample; the store samples many rows at once, with the same values:
the first draws of all its rejection-sampled rows come from one
`KeyedStreams.integers` call, which computes short rows' values in numpy.
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
    n_pos = len(positives)
    if not 0 <= size <= domain - n_pos:
        raise ValueError(f"cannot draw {size} of the {domain - n_pos} values "
                         f"free in a domain of {domain} with {n_pos} positives")
    if size == 0:
        return np.empty(0, dtype=np.int64)
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


def negative_sizes(lengths: np.ndarray, domain: int) -> np.ndarray:
    """Negatives sampled for rows of `lengths` positives: as many as the
    row holds, or the whole complement if that is smaller."""
    return np.minimum(lengths, domain - lengths)


def negative_draws(lengths: np.ndarray, domain: int) -> np.ndarray:
    """How many values `sample_complement`'s first generator call draws for
    rows of `lengths` positives: max(16, 2*size) by rejection, size from an
    enumerated complement, none when the size is 0."""
    size = negative_sizes(lengths, domain)
    draws = np.where(lengths > _REJECTION_OCCUPANCY * domain, size, np.maximum(16, 2 * size))
    return np.where(size > 0, draws, 0)


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

    def sample_item_negatives(self, users, streams) -> np.ndarray:
        """`sample_complement` of each of `users`' rating rows, sized as the
        row or its complement if smaller, laid end to end in user order;
        u's generator is the stream of u in `streams`, a `KeyedStreams`."""
        return self._sample_negatives(users, streams, "rating")

    def sample_user_negatives(self, users, streams) -> np.ndarray:
        """As `sample_item_negatives`, over the trust rows."""
        return self._sample_negatives(users, streams, "trust")

    def _sample_negatives(self, users, streams, which: str) -> np.ndarray:
        """Each row draws the values of `sample_complement`'s first generator
        call: the rejection-sampled rows in one `streams.integers` call, the
        others each from `streams.seat(u)`. Rows over a quarter full choose
        from their complement, read off one (rows, domain) mask, which is at
        most four bytes per positive. The rejection draws of all rows are
        filtered at once:
        in one stable sort of the rows' positive keys `owner*domain + col`
        followed by the draw keys, a draw is accepted exactly when it leads
        its run of equal keys, being neither a positive nor a repeat. A row
        keeps its first `size` accepted draws; a row whose first call falls
        short is seated and drawn by `sample_complement` itself."""
        indptr, _, domain = self._select(which)
        users = np.asarray(users, dtype=np.int64)
        lengths = indptr[users + 1] - indptr[users]
        sizes = negative_sizes(lengths, domain)
        draws = negative_draws(lengths, domain)
        starts = np.cumsum(sizes) - sizes
        out = np.empty(int(sizes.sum()), dtype=np.int64)
        enumerated = lengths > _REJECTION_OCCUPANCY * domain
        listed = np.flatnonzero(enumerated & (sizes > 0))
        if len(listed):
            # row r of `free` marks the complement of users[listed[r]]'s row
            free = np.ones((len(listed), domain), dtype=bool)
            free[self.rows(users[listed], which)] = False
            for row, r in zip(free, listed.tolist()):
                size, at = int(sizes[r]), int(starts[r])
                out[at:at + size] = streams.seat(int(users[r])).choice(
                    np.flatnonzero(row), size=size, replace=False)
        rejected = np.flatnonzero(~enumerated & (sizes > 0))
        if not len(rejected):
            return out
        counts = draws[rejected]
        drawn = streams.integers(users[rejected], counts, domain)
        owner = np.repeat(np.arange(len(rejected)), counts)
        pos_owner, pos_cols = self.rows(users[rejected], which)
        keys = np.concatenate([pos_owner * domain + pos_cols, owner * domain + drawn])
        order = np.argsort(keys, kind="stable")
        leads = np.empty(len(keys), dtype=bool)
        leads[order] = np.concatenate([[True], np.diff(keys[order]) != 0])
        accepted = leads[len(pos_cols):]
        taken = np.cumsum(accepted)
        ends = np.cumsum(counts)
        before = np.concatenate([[0], taken[ends[:-1] - 1]])
        rank = taken - 1 - np.repeat(before, counts)
        keep = accepted & (rank < np.repeat(sizes[rejected], counts))
        out[(starts[rejected][owner] + rank)[keep]] = drawn[keep]
        short = taken[ends - 1] - before < sizes[rejected]
        for r in rejected[short].tolist():
            u, size, at = int(users[r]), int(sizes[r]), int(starts[r])
            out[at:at + size] = sample_complement(streams.seat(u), domain, self.row(u, which),
                                                  size)
        return out
