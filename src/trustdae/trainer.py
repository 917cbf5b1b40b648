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

from .model import ForwardTrace, Hyperparams, ModelParams, Row, corrupt, forward_sampled, init_params
from .objective import LossBreakdown, backprop_core, data_terms, decay_coef, total_loss
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
        self.user_vecs = None
        self._tensors = [(name, _Scaled(arr, 1.0 - hp.lr * decay_coef(hp, name) / params.n))
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


def _spans(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Positions starts[i] + j for j < lengths[i], laid end to end."""
    offsets = np.cumsum(lengths) - lengths
    return np.repeat(starts - offsets, lengths) + np.arange(lengths.sum())


def _chunk_samples(data: SparseInteractions, q: float, users: np.ndarray, seats):
    """`_samples` of a chunk of one user or more: per view, the targets
    (positives, then negatives) of every user laid end to end; the positives
    of both views (rating row, then trust row) laid end to end likewise for
    corruption; then one slice of each per user."""
    items, others, noise = seats
    targets, positives = [], []
    for which, domain, sample, seat in (("rating", data.m, data.sample_item_negatives, items),
                                        ("trust", data.n, data.sample_user_negatives, others)):
        negatives = sample(users, seat)
        owner, cols = data.rows(users, which)
        lengths = np.bincount(owner, minlength=len(users))
        sizes = negative_sizes(lengths, domain)
        edges = np.concatenate([[0], np.cumsum(lengths + sizes)])
        idx, y = np.empty(edges[-1], dtype=np.int64), np.zeros(edges[-1])
        at = _spans(edges[:-1], lengths)
        idx[at], y[at] = cols, 1.0
        idx[_spans(edges[:-1] + lengths, sizes)] = negatives
        targets.append((idx, y, edges.tolist()))
        positives.append((cols, lengths))
    (pos_r, len_r), (pos_t, len_t) = positives
    edges = np.concatenate([[0], np.cumsum(len_r + len_t)])
    cols = np.empty(edges[-1], dtype=np.int64)
    cols[_spans(edges[:-1], len_r)] = pos_r
    cols[_spans(edges[:-1] + len_r, len_t)] = pos_t
    uniforms = [noise(u).random(k) for u, k in zip(users.tolist(), (len_r + len_t).tolist()) if k]
    kept = corrupt(np.arange(edges[-1]), q, np.concatenate([np.empty(0), *uniforms]))
    inputs = cols[kept.indices]
    cut_r = np.searchsorted(kept.indices, edges[:-1] + len_r).tolist()
    cut = np.searchsorted(kept.indices, edges).tolist()
    (idx_r, y_r, at_r), (idx_t, y_t, at_t) = targets
    for i in range(len(users)):
        yield (Row(inputs[cut[i]:cut_r[i]], kept.value),
               Row(inputs[cut_r[i]:cut[i + 1]], kept.value),
               (idx_r[at_r[i]:at_r[i + 1]], y_r[at_r[i]:at_r[i + 1]]),
               (idx_t[at_t[i]:at_t[i + 1]], y_t[at_t[i]:at_t[i + 1]]))


def _samples(data: SparseInteractions, q: float, users, seats):
    """Each of `users`' training sample in turn, as `forward_sampled` takes
    it: the rating and trust rows corrupted at rate q as inputs, and per
    view the clean binary targets over the row's positives and fresh
    negatives.

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
            yield from _chunk_samples(data, q, part, seats)


def _user_step(store: _ScaledParams, hp: Hyperparams,
               trace: ForwardTrace) -> tuple[float, float, float]:
    """One SGD step on `trace`'s user, in place: params*(1 - lr*lam/n) - lr*grad.

    Returns the (rating, trust, cross-view) loss terms before the step.
    """
    terms = data_terms(store, trace)
    pieces = backprop_core(store, hp, trace)
    for _, s in store.tensors():
        s.decay()
    for name, rows, vals in pieces:
        getattr(store, name).sub_rows(rows, vals, hp.lr)
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
    scaled = _ScaledParams(init_params(
        n, train_data.m, hp.latent_dim, hp.seed, user_embedding=hp.user_embedding), hp)

    log = TrainLog(epochs=[])
    stall = 0
    for epoch in range(hp.epochs):
        tic = time.perf_counter()
        sums = [0.0, 0.0, 0.0]
        order = stream(hp.seed, _SHUFFLE, epoch).permutation(n)
        seats = [_user_streams(hp.seed, tag, epoch, n)
                 for tag in (_ITEM_NEG, _USER_NEG, _CORRUPT)]
        samples = _samples(train_data, hp.corruption, order, seats)
        for u, sample in zip(order.tolist(), samples, strict=True):
            terms = _user_step(scaled, hp, forward_sampled(scaled, hp, *sample, u))
            if not np.isfinite(sum(terms)):
                raise TrainingError(f"non-finite loss at epoch {epoch}, user {u}")
            sums = [total + term for total, term in zip(sums, terms)]

        params = scaled.snapshot()
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
