"""Per-user sampled SGD with keyed random streams.

Each (epoch, user) pair owns independent sub-streams for corruption,
item negatives and user negatives, all derived from the master seed.
Runs with the same seed are therefore bit-identical, and variants that
differ only in loss coefficients consume randomness identically.

l2 decay is folded into a per-tensor scale factor: one multiplication per
user step instead of a full-matrix subtraction, so the per-epoch cost
stays proportional to the interaction count times the latent dimension.
The scaled store answers the forward pass's row reads directly, so
training runs the same sample builder, forward and backward code as the
gradient check.
"""

from __future__ import annotations

import time
from dataclasses import astuple, dataclass

import numpy as np

from .model import (MAP_TENSORS, ForwardTrace, Hyperparams, ModelParams, corrupt,
                    forward_sampled, init_params)
from .objective import (LossBreakdown, backprop_core, correlative_term,
                        logistic_loss, loss_breakdown)
from .sparse import SparseInteractions

# purpose tags for the keyed streams; the values are part of every stream
# key, so renumbering them changes the negatives, corruption and shuffle
_CORRUPT, _ITEM_NEG, _USER_NEG, _SHUFFLE = 0, 1, 2, 5

# a tensor's scale is folded into its array once it falls below this, long
# before lr/scale can overflow (Bottou, "Stochastic Gradient Descent
# Tricks", 2012)
_MIN_SCALE = 1e-100


class TrainingError(RuntimeError):
    pass


@dataclass
class EpochStats:
    epoch: int
    loss: LossBreakdown
    wall_time: float
    param_norm: float


@dataclass
class TrainLog:
    epochs: list[EpochStats]
    stop_reason: str = "max_epochs"

    CSV_HEADER = ("epoch,rating_recon,trust_recon,correlative,"
                  "weight_decay,map_decay,total,param_norm,wall_time")

    def csv_rows(self) -> list[str]:
        rows = [self.CSV_HEADER]
        for e in self.epochs:
            parts = [str(e.epoch)] + [repr(v) for v in astuple(e.loss)]
            parts += [repr(e.param_norm), repr(e.wall_time)]
            rows.append(",".join(parts))
        return rows


def stream(seed: int, *key: int) -> np.random.Generator:
    """Independent generator for a (seed, tag, ...) key."""
    return np.random.default_rng((seed,) + key)


class _Scaled:
    """A tensor stored as scale * array so decay is O(1) per step."""

    __slots__ = ("arr", "scale", "factor")

    def __init__(self, arr: np.ndarray, factor: float):
        self.arr = arr.astype(np.float64, copy=True)
        self.scale = 1.0
        self.factor = factor

    def __getitem__(self, idx) -> np.ndarray:
        return self.arr[idx] * self.scale

    def decay(self) -> None:
        self.scale *= self.factor
        if self.scale < _MIN_SCALE:
            self.arr *= self.scale
            self.scale = 1.0

    def sub_rows(self, idx, vals, lr: float) -> None:
        self.arr[idx] -= (lr / self.scale) * vals


class _ScaledParams:
    """All model tensors in scaled form, under ModelParams' field names,
    each with its per-step decay factor 1 - lr*lam/n."""

    def __init__(self, params: ModelParams, hp: Hyperparams):
        n = params.n
        decay_w = 1.0 - hp.lr * hp.weight_decay / n
        decay_m = 1.0 - hp.lr * hp.map_decay / n
        self.user_vecs = None
        self._tensors = [(name, _Scaled(arr, decay_m if name in MAP_TENSORS else decay_w))
                         for name, arr in params.tensors()]
        for name, s in self._tensors:
            setattr(self, name, s)

    def tensors(self) -> list[tuple[str, _Scaled]]:
        """(name, scaled tensor) for every present tensor, in field order."""
        return self._tensors

    def snapshot(self) -> ModelParams:
        return ModelParams(**{name: s[...] for name, s in self.tensors()})


def per_user_cost(train: SparseInteractions, hp: Hyperparams) -> int:
    """Multiply-accumulate budget of one epoch: sampled coordinates times k.

    The implementation must stay within a constant factor of this count;
    it is what makes the per-epoch cost independent of the full n*m grid.
    """
    total = 0
    r_counts = train.counts("rating")
    t_counts = train.counts("trust")
    for o_r, o_t in zip(r_counts.tolist(), t_counts.tolist()):
        s_r = min(o_r, train.m - o_r)
        s_t = min(o_t, train.n - o_t)
        total += (o_r + s_r + o_t + s_t) * hp.latent_dim
    return total


def _user_trace(params, data: SparseInteractions, hp: Hyperparams, u: int,
                rng_items, rng_users, rng_corrupt) -> ForwardTrace:
    """User u's forward pass on `params`: clean binary targets over the
    observed positives plus fresh negatives, the corrupted rows as inputs."""
    pos_r, pos_t = data.row(u, "rating"), data.row(u, "trust")
    neg_r = data.sample_item_negatives(u, rng_items)
    neg_t = data.sample_user_negatives(u, rng_users)
    targets_r = (np.concatenate([pos_r, neg_r]),
                 np.concatenate([np.ones(len(pos_r)), np.zeros(len(neg_r))]))
    targets_t = (np.concatenate([pos_t, neg_t]),
                 np.concatenate([np.ones(len(pos_t)), np.zeros(len(neg_t))]))
    rating_in = corrupt(pos_r, hp.corruption, rng_corrupt)
    trust_in = corrupt(pos_t, hp.corruption, rng_corrupt)
    return forward_sampled(params, hp, rating_in, trust_in, targets_r, targets_t, u)


def _user_step(store: _ScaledParams, hp: Hyperparams,
               trace: ForwardTrace) -> tuple[float, float, float]:
    """One SGD step on `trace`'s user, in place: params*(1 - lr*lam/n) - lr*grad.

    Returns the (rating, trust, cross-view) loss terms before the step.
    """
    rating_u = float(logistic_loss(trace.rating_y, trace.rating_pred).sum())
    trust_u = float(logistic_loss(trace.trust_y, trace.trust_pred).sum())
    corr_u = correlative_term(trace.z_rating, trace.z_trust,
                              store.map_trust_to_rating[...],
                              store.map_rating_to_trust[...])
    pieces = backprop_core(store, hp, trace)
    for _, s in store.tensors():
        s.decay()
    for name, rows, vals in pieces:
        getattr(store, name).sub_rows(rows, vals, hp.lr)
    return rating_u, trust_u, corr_u


def train(train_data: SparseInteractions, hp: Hyperparams,
          checkpoint=None, checkpoint_every: int = 0) -> tuple[ModelParams, TrainLog]:
    """SGD over users, one full pass per epoch.

    For every user in a freshly shuffled order: resample negatives, corrupt
    the inputs, run the forward pass, and take one gradient step. Decay is
    applied per user step at 1/n strength, so an epoch amounts to one full
    decay application. An epoch's logged loss is the mean of the steps'
    losses plus the end-of-epoch decay norms at 1/n strength. Early
    stopping needs `patience` epochs in a row that miss the best total so
    far by `stop_tol` relative. `checkpoint(epoch, params)` is invoked
    every `checkpoint_every` epochs and at termination when provided.
    """
    if train_data.nnz("rating") == 0:
        raise TrainingError("training data has no rating interactions")
    n = train_data.n
    scaled = _ScaledParams(init_params(
        n, train_data.m, hp.latent_dim, hp.seed, user_embedding=hp.user_embedding), hp)

    log = TrainLog(epochs=[])
    stall = 0
    for epoch in range(hp.epochs):
        tic = time.perf_counter()
        rating_sum = trust_sum = corr_sum = 0.0
        order = stream(hp.seed, _SHUFFLE, epoch).permutation(n)
        for u in order.tolist():
            trace = _user_trace(scaled, train_data, hp, u,
                                stream(hp.seed, _ITEM_NEG, epoch, u),
                                stream(hp.seed, _USER_NEG, epoch, u),
                                stream(hp.seed, _CORRUPT, epoch, u))
            rating_u, trust_u, corr_u = _user_step(scaled, hp, trace)
            if not np.isfinite(rating_u + trust_u + corr_u):
                raise TrainingError(f"non-finite loss at epoch {epoch}, user {u}")
            rating_sum += rating_u
            trust_sum += trust_u
            corr_sum += corr_u

        params = scaled.snapshot()
        wd, md = params.decay_norms()
        epoch_loss = loss_breakdown(hp, rating_sum / n, trust_sum / n,
                                    corr_sum / n, wd / n, md / n)
        if not np.isfinite(epoch_loss.total):
            raise TrainingError(f"non-finite parameters after epoch {epoch}")
        log.epochs.append(EpochStats(epoch=epoch, loss=epoch_loss,
                                     wall_time=time.perf_counter() - tic,
                                     param_norm=params.norm()))
        if checkpoint is not None and checkpoint_every and (epoch + 1) % checkpoint_every == 0:
            checkpoint(epoch, params)
        if hp.early_stop and epoch > 0:
            best = min(e.loss.total for e in log.epochs[:-1])
            rel = (best - epoch_loss.total) / max(abs(best), 1e-12)
            stall = stall + 1 if rel < hp.stop_tol else 0
            if stall >= hp.patience:
                log.stop_reason = "early_stop"
                break

    if checkpoint is not None:
        checkpoint(len(log.epochs) - 1, params)
    return params, log
