"""Per-user sampled SGD with keyed random streams.

Each (epoch, user) pair owns independent sub-streams for corruption,
item negatives and user negatives, all derived from the master seed.
Runs with the same seed are therefore bit-identical, and variants that
differ only in loss coefficients consume randomness identically.
`stream` defines every stream. The per-user ones are not built by it:
each epoch computes every user's SeedSequence state at once and re-seats
one generator per purpose from it, which draws exactly as `stream` would.

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

from .model import ForwardTrace, Hyperparams, ModelParams, corrupt, forward_sampled, init_params
from .objective import LossBreakdown, backprop_core, data_terms, decay_coef, total_loss
# looked up here by the benchmark's span tracer (cvbench/tracing.py)
from .objective import correlative_term, logistic_loss  # noqa: F401
from .sparse import SparseInteractions

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
        items, users, noise = (_user_streams(hp.seed, tag, epoch, n)
                               for tag in (_ITEM_NEG, _USER_NEG, _CORRUPT))
        for u in order.tolist():
            trace = _user_trace(scaled, train_data, hp, u, items(u), users(u), noise(u))
            terms = _user_step(scaled, hp, trace)
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
