"""Workload shapes and the seeded generator of raw rating and trust files.

Every workload plants communities: each community owns a block of items
and a set of users. Each user rates `head_in` of the `head_items` leading
items of its own block, `items_in` of the rest of that block and
`items_out` items of other blocks, and trusts `trust_in` members of its
own community and `trust_out` other users. A latent model can find a
user's block; a popularity ranking cannot, because every block is equally
popular. Row lengths are fixed, so the seed changes which items and users
a row holds but not how much work the run does.

The raw files also carry what real dumps carry and `preprocess` must
remove: 1-3 star ratings (dropped by binarisation), drive-by users with
fewer than `min_count` positives (dropped by the filter, together with
the trust edges that touch them), and one self-loop per user.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    communities: int
    users_per_community: int
    items_per_block: int
    items_in: int           # ratings of 4-5 stars per user, own block past its head
    items_out: int          # ratings of 4-5 stars per user, other blocks
    trust_in: int           # trust edges per user, own community
    trust_out: int          # trust edges per user, other communities
    low_per_user: int       # 1-3 star ratings per planted user
    drive_by_users: int     # users with fewer than min_count positives
    epochs: int
    folds: int = 5
    lr: float = 0.5
    min_count: int = 5
    latent_dim: int = 10    # the program's latent_dim
    head_items: int = 0     # leading items of each block, the block's head
    head_in: int = 0        # ratings of 4-5 stars per user, own block's head

    @property
    def config(self) -> list[str]:
        """Settings of `preprocess` and `run` beyond file paths."""
        return [f"epochs={self.epochs}", f"folds={self.folds}", f"lr={self.lr}",
                f"min_count={self.min_count}", f"latent_dim={self.latent_dim}"]


WORKLOADS = {w.name: w for w in [
    Workload(
        name="many_users",
        why="many users with short rows over a small catalogue: per-user "
            "overhead of training and rejection sampling, and the most raw "
            "records to ingest",
        communities=8, users_per_community=60, items_per_block=20,
        items_in=9, items_out=0, trust_in=5, trust_out=0,
        low_per_user=100, drive_by_users=30000, epochs=2),
    Workload(
        name="wide_catalogue",
        why="few users over a catalogue of about 12,700 items: "
            "full-catalogue scoring and ranking, catalogue-sized checkpoints",
        communities=3, users_per_community=130, items_per_block=4500,
        items_in=300, items_out=0, trust_in=40, trust_out=0,
        low_per_user=20, drive_by_users=2000, epochs=2, folds=2, lr=0.1,
        head_items=50, head_in=40, latent_dim=20),
    Workload(
        name="dense_rows",
        why="rows fill over a quarter of a small catalogue and community: "
            "complement-enumeration sampling, long gathers and backprop",
        communities=3, users_per_community=50, items_per_block=160,
        items_in=144, items_out=32, trust_in=40, trust_out=10,
        low_per_user=20, drive_by_users=200, epochs=3, lr=0.1),
]}


def input_seed(workload: str, seed: int) -> int:
    """Generator seed of one (workload, --seed) pair."""
    digest = hashlib.sha256(f"{workload}:{seed}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


@dataclass
class RawInputs:
    """Generated records as integer arrays, in file order."""

    ratings: np.ndarray   # (count, 3): user, item, score
    trusts: np.ndarray    # (count, 2): truster, trustee


def _distinct(rng, lo: int, hi: int, count: int, skip_lo: int = 0, skip_hi: int = 0):
    """`count` distinct integers of [lo, hi) outside [skip_lo, skip_hi)."""
    width = skip_hi - skip_lo
    draw = lo + rng.choice(hi - lo - width, size=count, replace=False)
    return draw + width * (draw >= skip_lo)


def generate(w: Workload, seed: int) -> RawInputs:
    rng = np.random.default_rng(input_seed(w.name, seed))
    c, upc, ipb = w.communities, w.users_per_community, w.items_per_block
    n_planted, m = c * upc, c * ipb
    ratings, trusts = [], []
    for u in range(n_planted):
        comm = u // upc
        block, members = (comm * ipb, (comm + 1) * ipb), (comm * upc, (comm + 1) * upc)
        head = block[0] + w.head_items
        items = np.concatenate([_distinct(rng, block[0], head, w.head_in),
                                _distinct(rng, head, block[1], w.items_in),
                                _distinct(rng, 0, m, w.items_out, *block)])
        low = rng.integers(0, m, size=w.low_per_user)
        ratings.append(np.column_stack([
            np.full(len(items) + len(low), u),
            np.concatenate([items, low]),
            np.concatenate([rng.integers(4, 6, size=len(items)),
                            rng.integers(1, 4, size=len(low))])]))
        trusted = np.concatenate([_distinct(rng, *members, w.trust_in, u, u + 1),
                                  _distinct(rng, 0, n_planted, w.trust_out, *members),
                                  [u]])
        trusts.append(np.column_stack([np.full(len(trusted), u), trusted]))
    # drive-by users: too few positives to survive, trusting planted users
    # and trusted by them
    drive_ids = n_planted + np.arange(w.drive_by_users)
    owners = np.repeat(drive_ids, 1 + np.arange(w.drive_by_users) % (w.min_count - 1))
    ratings.append(np.column_stack([
        owners, rng.integers(0, m, size=len(owners)),
        rng.integers(1, 6, size=len(owners))]))
    trusts.append(np.column_stack([
        drive_ids, rng.integers(0, n_planted, size=w.drive_by_users)]))
    trusts.append(np.column_stack([
        rng.integers(0, n_planted, size=w.drive_by_users), drive_ids]))
    r = np.concatenate(ratings).astype(np.int64)
    t = np.concatenate(trusts).astype(np.int64)
    return RawInputs(ratings=r[rng.permutation(len(r))],
                     trusts=t[rng.permutation(len(t))])


def write_files(raw: RawInputs, ratings_path: Path, trusts_path: Path) -> None:
    """External ids are prefixed strings, so dense indices are the program's own."""
    with open(ratings_path, "w", encoding="utf-8") as fh:
        fh.writelines(f"u{u} i{i} {s}\n" for u, i, s in raw.ratings.tolist())
    with open(trusts_path, "w", encoding="utf-8") as fh:
        fh.writelines(f"u{a} u{b}\n" for a, b in raw.trusts.tolist())


@dataclass
class Filtered:
    """The benchmark's own binarise-and-filter result, in generator ids."""

    users: np.ndarray      # surviving user ids, sorted
    items: np.ndarray      # surviving item ids, sorted
    ratings: np.ndarray    # (count, 2) positive pairs
    trusts: np.ndarray     # (count, 2) edges among surviving users


def binarize_and_filter(raw: RawInputs, min_count: int) -> Filtered:
    """Independent restatement of the preprocessing rules, used for counts."""
    pos = raw.ratings[raw.ratings[:, 2] >= 4, :2]
    pos = np.unique(pos, axis=0)
    while True:
        users, u_cnt = np.unique(pos[:, 0], return_counts=True)
        items, i_cnt = np.unique(pos[:, 1], return_counts=True)
        keep = (np.isin(pos[:, 0], users[u_cnt >= min_count])
                & np.isin(pos[:, 1], items[i_cnt >= min_count]))
        if keep.all():
            break
        pos = pos[keep]
    users, items = np.unique(pos[:, 0]), np.unique(pos[:, 1])
    t = np.unique(raw.trusts, axis=0)
    t = t[(t[:, 0] != t[:, 1]) & np.isin(t[:, 0], users) & np.isin(t[:, 1], users)]
    return Filtered(users=users, items=items, ratings=pos, trusts=t)
