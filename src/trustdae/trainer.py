"""Per-user sampled SGD with keyed random streams.

Each (epoch, user) pair owns independent sub-streams for corruption,
item negatives and user negatives, all derived from the master seed.
Runs with the same seed are therefore bit-identical, and variants that
differ only in loss coefficients consume randomness identically.
`stream` defines every stream. The per-user ones are not built by it:
each epoch and purpose has one `KeyedStreams`, which draws exactly as
`stream` would and computes the short rows of a chunk in one pass.

An epoch's samples are built ahead of its steps, a chunk of users at a
time in epoch order (`SAMPLE_CHUNK_DRAWS` bounds a chunk): the chunk's
rows draw in one pass per purpose the values of the generator calls that
`sample_complement` makes on each row and of one `random` call a user
for `corrupt`, and the filtering, corruption masks and targets around
them are computed for the whole chunk at once. The per-user loop only
slices the chunk's arrays, so the draws and every step are those of
building each sample on its own.

l2 decay is folded into one scale factor per decay group of the flat
store (`FlatParams`): one multiplication per user step instead of a
full-matrix subtraction, so the per-epoch cost stays proportional to the
interaction count times the latent dimension. A step gathers its rows
from the store once and scatters its update into it once, and training
runs the same sample builder, forward and backward code as the gradient
check.
"""

from __future__ import annotations

import time
from dataclasses import astuple, dataclass

import numpy as np

from .model import (FlatParams, ForwardTrace, Hyperparams, ModelParams, Sample, corrupt,
                    forward_sampled, init_params, row_starts)
from .objective import MAP_TENSORS, LossBreakdown, backprop_core, decay_coef, total_loss
# looked up here by the benchmark's span tracer (cvbench/tracing.py)
from .objective import correlative_term, logistic_loss  # noqa: F401
from .sparse import SparseInteractions, negative_draws, negative_sizes
from .streams import KeyedStreams, _spans, check_numpy, stream

# purpose tags for the keyed streams; the values are part of every stream
# key, so renumbering them changes the negatives, corruption and shuffle
_CORRUPT, _ITEM_NEG, _USER_NEG, _SHUFFLE = 0, 1, 2, 5

# the users whose samples are built together make at most this many draws
# (negatives' first draws and corruption uniforms) before their last user;
# a chunk's arrays take about 40 bytes a draw
SAMPLE_CHUNK_DRAWS = 2**14

# a decay group's scale is folded into its buffers once it falls below this,
# long before lr/scale can overflow (Bottou, "Stochastic Gradient Descent
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


class _DecayedParams(FlatParams):
    """A FlatParams whose two decay groups, the maps and every other tensor,
    decay in O(1) a step: each group's scale is multiplied by its factor
    1 - lr*lam/n, which every member of the group shares."""

    def __init__(self, params: ModelParams, hp: Hyperparams):
        super().__init__(params)
        self.factor, self.map_factor = (1.0 - hp.lr * decay_coef(hp, name) / params.n
                                        for name in ("rating_enc_w", MAP_TENSORS[0]))

    def decay(self) -> None:
        self.scale *= self.factor
        if self.scale < _MIN_SCALE:
            self.rows *= self.scale
            self.biases *= self.scale
            self.scale = 1.0
        self.map_scale *= self.map_factor
        if self.map_scale < _MIN_SCALE:
            self.maps *= self.map_scale
            self.map_scale = 1.0


def _chunk_samples(data: SparseInteractions, q: float, users: np.ndarray, streams,
                   user_rows: bool):
    """`_samples` of a chunk of one user or more: every user's target
    positions and binary targets (per view, positives then negatives), then
    their store rows, laid end to end, the positives among them corrupted
    at once; then one slice of each per user."""
    items, others, noise = streams
    _, bias, dec, user0 = row_starts(data.n, data.m)
    views = []
    # trust columns move by m, to their rows of trust_enc_w and trust_dec_b
    for which, domain, offset, sample, keyed in (
            ("rating", data.m, 0, data.sample_item_negatives, items),
            ("trust", data.n, data.m, data.sample_user_negatives, others)):
        negatives = sample(users, keyed)
        owner, cols = data.rows(users, which)
        lengths = np.bincount(owner, minlength=len(users))
        views.append((cols + offset, negatives + offset, lengths,
                      negative_sizes(lengths, domain)))
    (pos_r, neg_r, len_r, size_r), (pos_t, neg_t, len_t, size_t) = views
    sizes_r = len_r + size_r
    sizes = sizes_r + len_t + size_t
    edges = np.concatenate([[0], np.cumsum(sizes)])
    bpos, y = np.empty(edges[-1], dtype=np.int64), np.empty(edges[-1])
    for at, lengths, values, target in ((0, len_r, pos_r, 1.0), (len_r, size_r, neg_r, 0.0),
                                        (sizes_r, len_t, pos_t, 1.0),
                                        (sizes_r + len_t, size_t, neg_t, 0.0)):
        span = _spans(edges[:-1] + at, lengths)
        bpos[span], y[span] = values, target
    cols = bpos[y == 1.0]   # each user's rating row, then trust row
    in_edges = np.concatenate([[0], np.cumsum(len_r + len_t)])
    kept = corrupt(np.arange(in_edges[-1]), q, noise.random(users, len_r + len_t))
    cut = np.searchsorted(kept.indices, in_edges)
    kept_r = np.searchsorted(kept.indices, in_edges[:-1] + len_r) - cut[:-1]
    kept_in = np.diff(cut)
    row_edges = np.concatenate([[0], np.cumsum(kept_in + 2 + sizes + int(user_rows))])
    starts = row_edges[:-1] + kept_in
    pos = np.empty(row_edges[-1], dtype=np.int64)
    pos[_spans(row_edges[:-1], kept_in)] = cols[kept.indices]
    pos[starts], pos[starts + 1] = bias, bias + 1
    pos[_spans(starts + 2, sizes)] = bpos + dec
    if user_rows:
        pos[row_edges[1:] - 1] = user0 + users
    at, at_rows = edges.tolist(), row_edges.tolist()
    for i, (a, b, t) in enumerate(zip(kept_r.tolist(), kept_in.tolist(), sizes_r.tolist())):
        yield Sample(pos[at_rows[i]:at_rows[i + 1]], bpos[at[i]:at[i + 1]],
                     y[at[i]:at[i + 1]], a, b, t, kept.value)


def _epoch_streams(seed: int, epoch: int, n: int) -> list[KeyedStreams]:
    """The item-negative, user-negative and corruption streams of `epoch`,
    once numpy's generator is known to draw as they compute (`check_numpy`)."""
    check_numpy()
    return [KeyedStreams(seed, tag, epoch, n) for tag in (_ITEM_NEG, _USER_NEG, _CORRUPT)]


def _samples(data: SparseInteractions, q: float, users, streams, user_rows: bool):
    """Each of `users`' training `Sample` in turn, laid out against the
    flat store of `data`'s n and m, with per-user rows when `user_rows`:
    the rating and trust rows corrupted at rate q as inputs, and per view
    the clean binary targets over the row's positives and fresh negatives.

    `streams` = (items, others, noise), the `KeyedStreams` of an epoch's
    item negatives, user negatives and corruption (`_epoch_streams`). Each
    user draws the values of `sample_complement`'s calls on its rows and of
    one `random` call for `corrupt` from its streams, as it would alone,
    but the samples are built a chunk of users at a time, each chunk of
    about SAMPLE_CHUNK_DRAWS draws or one user.
    """
    users = np.asarray(users, dtype=np.int64)
    len_r, len_t = data.counts("rating")[users], data.counts("trust")[users]
    draws = (len_r + len_t + negative_draws(len_r, data.m)
             + negative_draws(len_t, data.n))
    chunk = (np.cumsum(draws) - draws) // SAMPLE_CHUNK_DRAWS
    for part in np.split(users, np.flatnonzero(np.diff(chunk)) + 1):
        if len(part):
            yield from _chunk_samples(data, q, part, streams, user_rows)


def _user_step(store: _DecayedParams, hp: Hyperparams,
               trace: ForwardTrace) -> tuple[float, float, float]:
    """One SGD step on `trace`'s user, in place: params*(1 - lr*lam/n) - lr*grad.

    Returns the (rating, trust, cross-view) loss terms before the step.
    """
    terms, (g_rows, g_biases, g_maps) = backprop_core(hp, trace)
    store.decay()
    step = hp.lr / store.scale
    store.rows[trace.sample.pos] -= step * g_rows
    store.biases[trace.sample.bpos] -= step * g_biases
    store.maps -= (hp.lr / store.map_scale) * g_maps
    return terms


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
    store = _DecayedParams(init_params(
        n, train_data.m, hp.latent_dim, hp.seed, user_embedding=hp.user_embedding), hp)

    log = TrainLog(epochs=[])
    stall = 0
    for epoch in range(hp.epochs):
        tic = time.perf_counter()
        sums = [0.0, 0.0, 0.0]
        order = stream(hp.seed, _SHUFFLE, epoch).permutation(n)
        samples = _samples(train_data, hp.corruption, order, _epoch_streams(hp.seed, epoch, n),
                           hp.user_embedding)
        for u, sample in zip(order.tolist(), samples, strict=True):
            terms = _user_step(store, hp, forward_sampled(store, hp, sample))
            if not np.isfinite(sum(terms)):
                raise TrainingError(f"non-finite loss at epoch {epoch}, user {u}")
            sums = [total + term for total, term in zip(sums, terms)]

        params = store.snapshot()
        epoch_loss = total_loss(params, hp, [total / n for total in sums])
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
