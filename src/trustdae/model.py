"""The network: input corruption, two encoders, weighted fusion, two decoders.

A user is represented twice, from their rating row and from their trust
row. Both sparse rows are dropout-corrupted, encoded through sigmoid
layers into k-dimensional codes, fused by a convex combination, and the
fused code is decoded back into per-item and per-user logits, whose
sigmoids are the reconstructions. Prediction runs the same pass on clean
inputs, for a block of users, and decodes only the items.

A training step reads the parameters through `FlatParams`, which keeps
them in three flat buffers, so the step gathers every weight row it reads
at once and every decoder bias at once, from positions its `Sample` holds.
"""

from __future__ import annotations

import json
import math
import os
import struct
from dataclasses import dataclass, fields, replace
from typing import NamedTuple

import numpy as np

from .sparse import SparseInteractions

_CKPT_MAGIC = b"TRDAECK1"

# encoder rows gathered at once when predict_scores encodes a block: the
# gather and its slot indices hold 4096 * k floats and ints each (320 KiB
# apiece at k=10), whatever the block
ENCODE_CHUNK_ROWS = 4096

# each tensor's dimensions over the user count n, item count m and code size k,
# in ModelParams' field order; a checkpoint must agree on n, m and k throughout
_TENSOR_DIMS = {"rating_enc_w": "mk", "trust_enc_w": "nk", "rating_enc_b": "k",
                "trust_enc_b": "k", "rating_dec_w": "mk", "rating_dec_b": "m",
                "trust_dec_w": "nk", "trust_dec_b": "n", "map_trust_to_rating": "kk",
                "map_rating_to_trust": "kk", "user_vecs": "nk"}


@dataclass(frozen=True)
class Hyperparams:
    """Training configuration; defaults are the shipped desk-scale settings."""

    latent_dim: int = 10
    alpha: float = 0.8          # fusion weight on the rating-view code
    beta: float = 0.01          # cross-view regularizer weight
    corruption: float = 0.2     # per-coordinate dropout probability
    weight_decay: float = 0.01  # l2 coefficient on network tensors
    map_decay: float = 0.01     # l2 coefficient on the cross-view maps
    lr: float = 0.5
    epochs: int = 50
    seed: int = 0
    top_n: int = 10
    user_embedding: bool = False
    early_stop: bool = False
    patience: int = 5
    stop_tol: float = 1e-5

    def __post_init__(self):
        for name in ("beta", "weight_decay", "map_decay", "lr", "stop_tol"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.latent_dim < 1:
            raise ValueError("latent_dim must be >= 1")
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError("alpha must be in [0, 1]")
        if self.beta < 0.0:
            raise ValueError("beta must be >= 0")
        if not 0.0 <= self.corruption < 1.0:
            raise ValueError("corruption must be in [0, 1)")
        if self.weight_decay < 0.0 or self.map_decay < 0.0:
            raise ValueError("decay coefficients must be >= 0")
        if self.lr < 0.0:
            raise ValueError("lr must be >= 0")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.top_n < 1:
            raise ValueError("top_n must be >= 1")
        if self.patience < 1:
            raise ValueError("patience must be >= 1")

    def replace(self, **kw) -> "Hyperparams":
        return replace(self, **kw)


@dataclass
class ModelParams:
    """All trainable tensors.

    Encoders map rating rows (m inputs) and trust rows (n inputs) to k
    dims; decoders map the fused k-vector back out. The two k x k maps
    predict each view's code from the other. `user_vecs` is the optional
    additive per-user vector, absent by default.
    """

    rating_enc_w: np.ndarray   # (m, k)
    trust_enc_w: np.ndarray    # (n, k)
    rating_enc_b: np.ndarray   # (k,)
    trust_enc_b: np.ndarray    # (k,)
    rating_dec_w: np.ndarray   # (m, k)
    rating_dec_b: np.ndarray   # (m,)
    trust_dec_w: np.ndarray    # (n, k)
    trust_dec_b: np.ndarray    # (n,)
    map_trust_to_rating: np.ndarray  # (k, k)
    map_rating_to_trust: np.ndarray  # (k, k)
    user_vecs: np.ndarray | None = None  # (n, k)

    @property
    def n(self) -> int:
        return self.trust_enc_w.shape[0]

    @property
    def m(self) -> int:
        return self.rating_enc_w.shape[0]

    @property
    def k(self) -> int:
        return self.rating_enc_w.shape[1]

    def tensors(self):
        """Yield (name, array) for every present tensor, in field order."""
        for f in fields(self):
            arr = getattr(self, f.name)
            if arr is not None:
                yield f.name, arr

    def norm(self) -> float:
        return float(np.sqrt(sum(float((a * a).sum()) for _, a in self.tensors())))


class Row(NamedTuple):
    """A sparse binary row: nonzero positions, all sharing one value."""

    indices: np.ndarray
    value: float


class Sample(NamedTuple):
    """One user's training sample, as positions into a `FlatParams` store.

    `pos` are rows of the store's k-wide buffer: the rating inputs
    (pos[:a]), the trust inputs (pos[a:b]), the two encoder-bias rows, the
    decoder rows at the rating targets and then at the trust targets, and
    last, when the store has per-user vectors, the user's row. `bpos` are
    the decoder biases at the same targets and `y` their binary targets;
    the first t of each are the rating view's. Every input carries `value`.
    """

    pos: np.ndarray
    bpos: np.ndarray
    y: np.ndarray
    a: int
    b: int
    t: int
    value: float


def row_starts(n: int, m: int) -> tuple[int, int, int, int]:
    """The first rows of trust_enc_w, the encoder biases, the decoder weights
    and user_vecs in `FlatParams.rows`; trust_dec_b, too, starts at m."""
    return m, m + n, m + n + 2, 2 * (m + n + 1)


class FlatParams:
    """ModelParams' tensors in three flat buffers, each read as buffer * scale.

    `rows` (R, k) holds every k-wide row: rating_enc_w, trust_enc_w, the
    two encoder biases, rating_dec_w, trust_dec_w, then user_vecs when
    present (`row_starts`); `biases` holds rating_dec_b, then trust_dec_b.
    The two share `scale`. `maps` (2, k, k) holds map_trust_to_rating and
    map_rating_to_trust, read with `map_scale`. Both scales start at 1.
    """

    def __init__(self, params: ModelParams):
        self.n, self.m = params.n, params.m
        users = [] if params.user_vecs is None else [params.user_vecs]
        self.rows = np.concatenate([params.rating_enc_w, params.trust_enc_w,
                                    params.rating_enc_b[None], params.trust_enc_b[None],
                                    params.rating_dec_w, params.trust_dec_w, *users])
        self.biases = np.concatenate([params.rating_dec_b, params.trust_dec_b])
        self.maps = np.stack([params.map_trust_to_rating, params.map_rating_to_trust])
        self.scale = self.map_scale = 1.0

    def views(self) -> ModelParams:
        """The buffers' tensors as views into them, unscaled."""
        return self._split(self.rows, self.biases, self.maps)

    def snapshot(self) -> ModelParams:
        """The parameters, as views into one scaled copy of each buffer."""
        return self._split(self.rows * self.scale, self.biases * self.scale,
                           self.maps * self.map_scale)

    def _split(self, rows, biases, maps) -> ModelParams:
        enc_t, bias, dec, users = row_starts(self.n, self.m)
        return ModelParams(
            rating_enc_w=rows[:enc_t], trust_enc_w=rows[enc_t:bias],
            rating_enc_b=rows[bias], trust_enc_b=rows[bias + 1],
            rating_dec_w=rows[dec:dec + self.m], rating_dec_b=biases[:self.m],
            trust_dec_w=rows[dec + self.m:users], trust_dec_b=biases[self.m:],
            map_trust_to_rating=maps[0], map_rating_to_trust=maps[1],
            user_vecs=rows[users:] if len(rows) > users else None)


@dataclass
class ForwardTrace:
    """One user's sample and the activations of its pass, kept for backprop.

    `rows` are the store's scaled rows at `sample.pos` and `maps` its two
    scaled cross-view maps; `codes` holds the rating view's code, then the
    trust view's; `logit` holds the decoders' logits at the sample's
    targets, aligned with `sample.y`.
    """

    sample: Sample
    rows: np.ndarray
    maps: np.ndarray
    codes: np.ndarray   # (2, k)
    fused: np.ndarray
    logit: np.ndarray


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function: exp(-log(1 + e^-x))."""
    x = np.asarray(x, dtype=np.float64)
    return np.exp(-np.logaddexp(0.0, -x))


def init_params(n: int, m: int, k: int, seed: int,
                user_embedding: bool = False) -> ModelParams:
    """Glorot-uniform weights, zero biases, identity cross-view maps."""
    if min(n, m, k) < 1:
        raise ValueError("n, m, k must all be >= 1")
    rng = np.random.default_rng(seed)

    def glorot(rows, cols):
        limit = np.sqrt(6.0 / (rows + cols))
        return rng.uniform(-limit, limit, size=(rows, cols))

    return ModelParams(
        rating_enc_w=glorot(m, k),
        trust_enc_w=glorot(n, k),
        rating_enc_b=np.zeros(k),
        trust_enc_b=np.zeros(k),
        rating_dec_w=glorot(m, k),
        rating_dec_b=np.zeros(m),
        trust_dec_w=glorot(n, k),
        trust_dec_b=np.zeros(n),
        map_trust_to_rating=np.eye(k),
        map_rating_to_trust=np.eye(k),
        user_vecs=glorot(n, k) if user_embedding else None,
    )


def corrupt(indices: np.ndarray, q: float, draws) -> Row:
    """Drop each nonzero coordinate with probability q, rescale survivors.

    A coordinate survives when its uniform is at least q; survivors carry
    1/(1-q) so the corrupted row is unbiased. `draws` is a generator, from
    which exactly len(indices) uniforms are taken even at q=0, which keeps
    stream consumption a function of the row length alone, or those
    uniforms, already drawn.
    """
    indices = np.asarray(indices, dtype=np.int64)
    if isinstance(draws, np.random.Generator):
        draws = draws.random(len(indices))
    return Row(indices[draws >= q], 1.0 / (1.0 - q))


def _codes(params: ModelParams, sum_r: np.ndarray, sum_t: np.ndarray,
           users) -> tuple[np.ndarray, np.ndarray]:
    """Sigmoid codes of both views from the encoders' input sums of one user
    ((k,) sums, `users` an int) or of a block ((B, k) sums, `users` (B,)):
    the biases and, when present, the per-user vectors are added."""
    pre_r = sum_r + params.rating_enc_b[...]
    pre_t = sum_t + params.trust_enc_b[...]
    if params.user_vecs is not None:
        if users is None:
            raise ValueError("user index required when user_vecs are enabled")
        user_vecs = params.user_vecs[users]
        pre_r = pre_r + user_vecs
        pre_t = pre_t + user_vecs
    return sigmoid(pre_r), sigmoid(pre_t)


def encode(params: ModelParams, rating_row: Row, trust_row: Row,
           user: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Sigmoid codes of both views, accumulating only nonzero inputs."""
    return _codes(params,
                  params.rating_enc_w[rating_row.indices].sum(axis=0) * rating_row.value,
                  params.trust_enc_w[trust_row.indices].sum(axis=0) * trust_row.value,
                  user)


def fuse(z_rating: np.ndarray, z_trust: np.ndarray, alpha: float) -> np.ndarray:
    """Convex combination of the two view codes."""
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must be in [0, 1]")
    return alpha * z_rating + (1.0 - alpha) * z_trust


def forward_sampled(store: FlatParams, hp: Hyperparams, sample: Sample) -> ForwardTrace:
    """Forward pass materializing outputs only at the sample's targets.

    The one forward pass of training and the gradient check. It makes one
    gather of the store's rows at `sample.pos`, one of its decoder biases
    at `sample.bpos` and one read of its maps. The inputs are taken as
    given (already corrupted or clean); this function is deterministic,
    which is what the finite-difference check relies on.
    """
    a, b, t = sample.a, sample.b, sample.t
    mid, end = b + 2 + t, b + 2 + len(sample.y)
    rows = store.rows[sample.pos] * store.scale
    logit = store.biases[sample.bpos] * store.scale
    pre = np.array([rows[:a].sum(axis=0), rows[a:b].sum(axis=0)]) * sample.value + rows[b:b + 2]
    if len(rows) > end:   # the user's row
        pre += rows[end]
    codes = sigmoid(pre)
    fused = fuse(codes[0], codes[1], hp.alpha)
    logit[:t] += rows[b + 2:mid] @ fused
    logit[t:] += rows[mid:end] @ fused
    return ForwardTrace(sample, rows, store.maps * store.map_scale, codes, fused, logit)


def predict_scores(params: ModelParams, train: SparseInteractions, users,
                   alpha: float) -> np.ndarray:
    """Item logits of `users`, one row each: clean inputs, no corruption or rescaling.

    Ranking runs on these logits rather than on probabilities: sigmoid is
    monotone, and skipping it keeps apart logits whose float64
    probabilities round to one value (every logit above about 36.7 maps to 1.0).
    The block is encoded at once: its input sums follow `encode`'s order and
    the two share `_codes`, so every fused code is bit-identical to the
    per-user one.
    """
    users = np.asarray(users, dtype=np.int64)
    codes = _codes(params, _block_row_sums(params.rating_enc_w, train, users, "rating"),
                   _block_row_sums(params.trust_enc_w, train, users, "trust"), users)
    scores = fuse(*codes, alpha) @ params.rating_dec_w.T
    scores += params.rating_dec_b
    return scores


def _block_row_sums(w: np.ndarray, train: SparseInteractions, users: np.ndarray,
                    which: str) -> np.ndarray:
    """Row r is the sum of w's rows at the columns of users[r]'s row, summed
    in the order of `encode`, so the block's codes are bit-identical to it.

    `np.add.at` adds in index order, which is the order of
    `w[row].sum(axis=0)` over a gather of two or more columns; it runs on
    the flattened block, where it is several times faster than on (B, k)
    rows, and gathers at most ENCODE_CHUNK_ROWS rows of w at a time. A
    one-column gather is summed pairwise by numpy, so it keeps encode's
    per-row sum.
    """
    owner, cols = train.rows(users, which)
    k = w.shape[1]
    out = np.zeros((len(users), k))
    if k == 1:
        bounds = np.searchsorted(owner, np.arange(len(users) + 1))
        for r in range(len(users)):
            out[r] = w[cols[bounds[r]:bounds[r + 1]]].sum(axis=0)
        return out
    for start in range(0, len(cols), ENCODE_CHUNK_ROWS):
        stop = start + ENCODE_CHUNK_ROWS
        slots = owner[start:stop, None] * k + np.arange(k)
        np.add.at(out.reshape(-1), slots.reshape(-1), w[cols[start:stop]].reshape(-1))
    return out


def save_checkpoint(params: ModelParams, hp: Hyperparams, path) -> None:
    """Versioned binary checkpoint; round-trips bit-exactly."""
    names = [name for name, _ in params.tensors()]
    header = {
        "hyperparams": {f.name: getattr(hp, f.name) for f in fields(hp)},
        "tensors": [[name, list(getattr(params, name).shape)] for name in names],
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(_CKPT_MAGIC)
        fh.write(struct.pack("<Q", len(blob)))
        fh.write(blob)
        for name in names:
            fh.write(np.ascontiguousarray(getattr(params, name), dtype="<f8").tobytes())


def _is_tensor_entry(entry) -> bool:
    """Whether a header entry is [name, shape]: a string and non-negative ints."""
    return (isinstance(entry, list) and len(entry) == 2 and isinstance(entry[0], str)
            and isinstance(entry[1], list)
            and all(type(d) is int and d >= 0 for d in entry[1]))


def _check_tensors(path, tensors: dict[str, np.ndarray], hp: Hyperparams) -> None:
    """Reject a tensor set or shapes that do not form one model of `hp`."""
    want = [name for name in _TENSOR_DIMS if name != "user_vecs" or hp.user_embedding]
    for name in tensors:
        if name not in want:
            raise ValueError(f"{path}: unexpected tensor {name} "
                             f"(user_embedding={hp.user_embedding})")
    for name in want:
        if name not in tensors:
            raise ValueError(f"{path}: missing tensor {name}")
    dims = {"k": hp.latent_dim}
    for name in want:
        spec, shape = _TENSOR_DIMS[name], tensors[name].shape
        expect = tuple(dims.setdefault(d, size) for d, size in zip(spec, shape))
        if len(shape) != len(spec) or shape != expect:
            raise ValueError(f"{path}: tensor {name} has shape {shape}, expected "
                             f"({', '.join(spec)}) = {expect} with latent_dim={hp.latent_dim}")


def load_checkpoint(path) -> tuple[ModelParams, Hyperparams]:
    """Read a checkpoint written by `save_checkpoint`.

    Truncated files, bytes after the last tensor, a header that is not
    UTF-8 JSON, lacks a key, holds a tensor entry other than [name,
    non-negative dims] or lists a tensor twice, bad hyperparameters, a
    tensor set that does not match `user_embedding`, and tensors that
    disagree on n, m or k (k = `latent_dim`) raise ValueError naming the file.
    """
    with open(path, "rb") as fh:
        end = os.fstat(fh.fileno()).st_size
        if fh.read(len(_CKPT_MAGIC)) != _CKPT_MAGIC:
            raise ValueError(f"{path}: not a model checkpoint (bad header)")

        def read(size: int, what: str) -> bytes:
            if size > end - fh.tell():   # also keeps a corrupt size from allocating
                raise ValueError(f"{path}: truncated checkpoint ({what})")
            return fh.read(size)

        (blob_len,) = struct.unpack("<Q", read(8, "header"))
        blob = read(blob_len, "header")
        try:
            header = json.loads(blob.decode("utf-8"))
            specs, settings = header["tensors"], header["hyperparams"]
        except (ValueError, KeyError, TypeError) as exc:   # ValueError: not UTF-8 JSON
            raise ValueError(f"{path}: bad checkpoint header "
                             f"({type(exc).__name__}: {exc})") from None
        if not isinstance(specs, list):
            raise ValueError(f"{path}: bad checkpoint header (tensors: {specs!r})")
        for entry in specs:
            if not _is_tensor_entry(entry):
                raise ValueError(f"{path}: bad checkpoint header (tensor entry {entry!r})")
        kw = {}
        for name, shape in specs:
            if name in kw:
                raise ValueError(f"{path}: bad checkpoint header (tensor {name} listed twice)")
            count = math.prod(shape)
            arr = np.frombuffer(read(8 * count, f"tensor {name}"), dtype="<f8").reshape(shape)
            kw[name] = arr.astype(np.float64)
        if fh.tell() != end:
            raise ValueError(f"{path}: {end - fh.tell()} bytes after the last tensor")
    try:
        hp = Hyperparams(**settings)
    except (TypeError, ValueError) as exc:   # an unknown name or a value out of range
        raise ValueError(f"{path}: bad hyperparameters ({exc})") from None
    _check_tensors(path, kw, hp)
    return ModelParams(**kw), hp
