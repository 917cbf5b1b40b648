"""Per-user sampled SGD with keyed random streams.

Each (epoch, user) pair owns independent sub-streams for corruption,
item negatives and user negatives, all derived from the master seed.
Runs with the same seed are therefore bit-identical, and variants that
differ only in loss coefficients consume randomness identically.
`stream` defines every stream. The per-user ones are not built by it:
each epoch computes every user's SeedSequence state at once and re-seats
one generator per purpose from it, which draws exactly as `stream` would.

An epoch's samples are built ahead of its steps, a chunk of users at a
time in epoch order (`SAMPLE_CHUNK_DRAWS` bounds a chunk): each user's
streams make exactly the generator calls of `sample_complement` and
`corrupt` on its rows, and the filtering, corruption masks and targets
around them are computed for the whole chunk at once. The per-user loop
only slices the chunk's arrays, so the draws and every step are those of
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

# purpose tags for the keyed streams; the values are part of every stream
# key, so renumbering them changes the negatives, corruption and shuffle
_CORRUPT, _ITEM_NEG, _USER_NEG, _SHUFFLE = 0, 1, 2, 5

# numpy's SeedSequence constants (NEP 19): the pool-of-4 entropy hash and
# mix, then generate_state's output hash
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
# PCG64's 128-bit LCG multiplier (O'Neill, "PCG", 2014)
_PCG64_MULT = (2549297995355413924 << 64) + 4865540595714422341
_MASK32, _MASK128 = 2**32 - 1, 2**128 - 1

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


def stream(seed: int, *key: int) -> np.random.Generator:
    """Independent generator for a (seed, tag, ...) key."""
    return np.random.default_rng((seed,) + key)


def _seed_states(key: tuple[int, ...], users: np.ndarray) -> np.ndarray:
    """`SeedSequence(key + (u,)).generate_state(4, np.uint64)` for every u
    in `users`, one row each, in uint32 arithmetic on all users at once.

    As SeedSequence does, each int is read as its little-endian 32-bit
    words (0 as one word); the first four words fill the pool, and each
    word past the fourth is then mixed into every pool word. `key` holds
    three ints or more, and every user is below 2**32, one word.
    """
    u32 = np.uint32
    hash_a = _INIT_A

    def hashmix(value):
        nonlocal hash_a
        value = value ^ u32(hash_a)
        hash_a = hash_a * _MULT_A & _MASK32
        value = value * u32(hash_a)
        return value ^ (value >> u32(16))

    def mix(x, y):
        value = u32(_MIX_MULT_L) * x - u32(_MIX_MULT_R) * y
        return value ^ (value >> u32(16))

    users = np.asarray(users, dtype=np.uint32)
    words = [np.full(len(users), value >> shift & _MASK32, dtype=np.uint32)
             for value in key for shift in range(0, max(value.bit_length(), 1), 32)]
    words.append(users)
    pool = [hashmix(word) for word in words[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    out = np.empty((len(users), 8), dtype=np.uint32)
    hash_b = _INIT_B
    for i in range(8):
        value = pool[i % 4] ^ u32(hash_b)
        hash_b = hash_b * _MULT_B & _MASK32
        value = value * u32(hash_b)
        out[:, i] = value ^ (value >> u32(16))
    # each uint64 is a little-endian pair of words, as in generate_state
    return out.astype("<u4").view("<u8").astype(np.uint64)


def _user_streams(seed: int, tag: int, epoch: int, n: int):
    """u -> a generator that draws exactly as `stream(seed, tag, epoch, u)`.

    Every call returns the same generator, re-seated, so each call spends
    the one before. The PCG64 state is what `pcg64_set_seed` makes of row
    u of `_seed_states`: inc = 2*initseq + 1; from state 0, one LCG step,
    add initstate, one more step.
    """
    states = _seed_states((seed, tag, epoch), np.arange(n))
    rng = np.random.Generator(np.random.PCG64(0))
    bit_generator = rng.bit_generator

    def seat(u: int) -> np.random.Generator:
        init_hi, init_lo, seq_hi, seq_lo = states[u].tolist()
        inc = ((seq_hi << 64 | seq_lo) << 1 | 1) & _MASK128
        state = ((inc + (init_hi << 64 | init_lo)) * _PCG64_MULT + inc) & _MASK128
        bit_generator.state = {"bit_generator": "PCG64", "has_uint32": 0, "uinteger": 0,
                               "state": {"state": state, "inc": inc}}
        return rng

    return seat


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


def _spans(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Positions starts[i] + j for j < lengths[i], laid end to end."""
    offsets = np.cumsum(lengths) - lengths
    return np.repeat(starts - offsets, lengths) + np.arange(lengths.sum())


def _chunk_samples(data: SparseInteractions, q: float, users: np.ndarray, seats,
                   user_rows: bool):
    """`_samples` of a chunk of one user or more: every user's target
    positions and binary targets (per view, positives then negatives), then
    their store rows, laid end to end, the positives among them corrupted
    at once; then one slice of each per user."""
    items, others, noise = seats
    _, bias, dec, user0 = row_starts(data.n, data.m)
    views = []
    # trust columns move by m, to their rows of trust_enc_w and trust_dec_b
    for which, domain, offset, sample, seat in (
            ("rating", data.m, 0, data.sample_item_negatives, items),
            ("trust", data.n, data.m, data.sample_user_negatives, others)):
        negatives = sample(users, seat)
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
    uniforms = [noise(u).random(k) for u, k in zip(users.tolist(), (len_r + len_t).tolist()) if k]
    kept = corrupt(np.arange(in_edges[-1]), q, np.concatenate([np.empty(0), *uniforms]))
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


def _samples(data: SparseInteractions, q: float, users, seats, user_rows: bool):
    """Each of `users`' training `Sample` in turn, laid out against the
    flat store of `data`'s n and m, with per-user rows when `user_rows`:
    the rating and trust rows corrupted at rate q as inputs, and per view
    the clean binary targets over the row's positives and fresh negatives.

    `seats` = (items, others, noise): u -> u's generator at the start of its
    item-negative, user-negative or corruption stream. Each user's streams
    make the calls of `sample_complement` and `corrupt` on its rows, so the
    draws are the same, but the samples are built a chunk of users at a
    time, each chunk of about SAMPLE_CHUNK_DRAWS draws or one user.
    """
    users = np.asarray(users, dtype=np.int64)
    len_r, len_t = data.counts("rating")[users], data.counts("trust")[users]
    draws = (len_r + len_t + negative_draws(len_r, data.m)
             + negative_draws(len_t, data.n))
    chunk = (np.cumsum(draws) - draws) // SAMPLE_CHUNK_DRAWS
    for part in np.split(users, np.flatnonzero(np.diff(chunk)) + 1):
        if len(part):
            yield from _chunk_samples(data, q, part, seats, user_rows)


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
        seats = [_user_streams(hp.seed, tag, epoch, n)
                 for tag in (_ITEM_NEG, _USER_NEG, _CORRUPT)]
        samples = _samples(train_data, hp.corruption, order, seats, hp.user_embedding)
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
