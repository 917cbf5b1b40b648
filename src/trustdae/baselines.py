"""Non-personalized popularity baseline and the ablation variants."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import Hyperparams
from .sparse import SparseInteractions

VARIANTS = ("tdae", "tdae0", "rating_only", "trust_only", "pop")


@dataclass
class PopModel:
    """Items scored by how many users interacted with them in training."""

    item_counts: np.ndarray


def pop_fit(train: SparseInteractions) -> PopModel:
    _, items = train.rows(np.arange(train.n), "rating")
    return PopModel(item_counts=np.bincount(items, minlength=train.m))


def pop_scores(model: PopModel, users) -> np.ndarray:
    """Same scores for every user, as a read-only (len(users), m) view of the
    counts; personalization happens only through the exclusion of each
    user's own training positives at ranking time."""
    return np.broadcast_to(model.item_counts, (len(users), len(model.item_counts)))


def ablation_config(base: Hyperparams, variant: str) -> Hyperparams:
    """Hyperparameters for a named variant of the full model.

    tdae0 disables the cross-view penalty; rating_only / trust_only pin
    the fusion weight to one view. Everything else is untouched, so
    paired runs consume identical randomness.
    """
    if variant == "tdae":
        return base
    if variant == "tdae0":
        return base.replace(beta=0.0)
    if variant == "rating_only":
        return base.replace(alpha=1.0)
    if variant == "trust_only":
        return base.replace(alpha=0.0)
    raise ValueError(f"unknown variant {variant!r}; expected one of {VARIANTS}")
