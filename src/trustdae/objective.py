"""Per-user sampled training objective and its exact analytic gradients.

The loss for one user sums logistic losses, exact on the decoder logits,
over the observed positives plus the sampled negatives of both views, a
cross-view penalty tying the two codes together, and l2 terms on all
tensors. Targets are the clean binary values, though the inputs are corrupted.

Gradient derivation, with e = sigmoid(logit) - target per coordinate:
    d/d(dec_w row j) = e_j * fused            d/d(dec_b_j) = e_j
    g_fused          = sum_j e_j * dec_w[j]   over both decoders
    g_zr = alpha*g_fused     + 2*beta*(d_r - M1^T d_t)
    g_zt = (1-alpha)*g_fused + 2*beta*(d_t - M0^T d_r)
        where d_r = z_r - M0 z_t, d_t = z_t - M1 z_r
    d/d(enc pre-activation) = g_z * z * (1 - z)
    d/d(enc_w row i) = input_value_i * g_pre   (zeroed inputs contribute nothing)
    d/d(M0) = -2*beta * outer(d_r, z_t), likewise M1.

The l2 rule is kept here alone (`decay_coef`, `total_loss`): the
cross-view maps take `map_decay`, every other tensor `weight_decay`, each
at a 1/n share (n = params.n), as each of the trainer's per-user steps
applies it, so a sweep over all users applies the l2 terms once per epoch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import ForwardTrace, Hyperparams, ModelParams, sigmoid

# the cross-view maps, decayed with map_decay; every other tensor takes weight_decay
MAP_TENSORS = ("map_trust_to_rating", "map_rating_to_trust")


@dataclass
class LossBreakdown:
    rating_recon: float
    trust_recon: float
    correlative: float
    weight_decay: float
    map_decay: float
    total: float


def logistic_loss(y, x):
    """Elementwise -y*log(p) - (1-y)*log(1-p) at p = sigmoid(x), for binary
    targets y and logits x: log(1 + e^((1-2y) x)), exact at any logit."""
    return np.logaddexp(0.0, (1.0 - 2.0 * np.asarray(y, dtype=np.float64)) * x)


def correlative_term(z_rating: np.ndarray, z_trust: np.ndarray,
                     map_t2r: np.ndarray, map_r2t: np.ndarray) -> float:
    """Squared residuals of predicting each view's code from the other."""
    d_r = z_rating - map_t2r @ z_trust
    d_t = z_trust - map_r2t @ z_rating
    return float(d_r @ d_r + d_t @ d_t)


def decay_coef(hp: Hyperparams, name: str) -> float:
    """The l2 coefficient of the tensor called `name`."""
    return hp.map_decay if name in MAP_TENSORS else hp.weight_decay


def total_loss(params: ModelParams, hp: Hyperparams, terms) -> LossBreakdown:
    """The (rating, trust, cross-view) data `terms`, the 1/n share of the
    squared l2 norms of `params`' two decay groups, and their weighted total."""
    rating_recon, trust_recon, corr = terms
    wd = sum(float((a * a).sum()) for name, a in params.tensors() if name not in MAP_TENSORS)
    md = sum(float((a * a).sum()) for name, a in params.tensors() if name in MAP_TENSORS)
    wd, md = wd / params.n, md / params.n
    total = (rating_recon + trust_recon + hp.beta * corr
             + 0.5 * hp.weight_decay * wd + 0.5 * hp.map_decay * md)
    return LossBreakdown(rating_recon, trust_recon, corr, wd, md, total)


def data_terms(params, trace: ForwardTrace) -> tuple[float, float, float]:
    """The (rating, trust, cross-view) data terms of one user's loss over the
    sampled coordinates and targets of `trace`; `params` may be any store
    the forward pass reads."""
    return (float(logistic_loss(trace.rating_y, trace.rating_logit).sum()),
            float(logistic_loss(trace.trust_y, trace.trust_logit).sum()),
            correlative_term(trace.z_rating, trace.z_trust,
                             params.map_trust_to_rating[...],
                             params.map_rating_to_trust[...]))


def user_loss(params: ModelParams, hp: Hyperparams, trace: ForwardTrace) -> LossBreakdown:
    """Loss of one user over the sampled coordinates and targets of `trace`,
    with the 1/n share of the l2 terms."""
    return total_loss(params, hp, data_terms(params, trace))


def backprop_core(params, hp: Hyperparams,
                  trace: ForwardTrace) -> list[tuple[str, object, np.ndarray]]:
    """Data gradient of one user's reconstruction + cross-view loss.

    The one backward pass of training and the gradient check, for every
    alpha and beta; at beta = 0 the maps' pieces are exactly zero. Decay is
    left out: the trainer applies it multiplicatively and `user_gradients`
    adds it densely. Returns one (tensor name, rows, values) piece per
    present tensor, where rows is an index array, one row, or `...` for
    the whole tensor, and values may be one (k,) row shared by all the
    piece's rows (the encoder weights, whose inputs all carry one value).
    `params` may be any store the forward pass reads. Target indices
    within each view must be distinct (observed and sampled sets are
    disjoint by construction), otherwise the row updates would collide.
    """
    e_r = sigmoid(trace.rating_logit) - trace.rating_y
    e_t = sigmoid(trace.trust_logit) - trace.trust_y
    z_r, z_t, fused = trace.z_rating, trace.z_trust, trace.fused
    g_fused = trace.rating_dec_rows.T @ e_r + trace.trust_dec_rows.T @ e_t

    m0 = params.map_trust_to_rating[...]
    m1 = params.map_rating_to_trust[...]
    d_r = z_r - m0 @ z_t
    d_t = z_t - m1 @ z_r
    g_zr = hp.alpha * g_fused + 2.0 * hp.beta * (d_r - m1.T @ d_t)
    g_zt = (1.0 - hp.alpha) * g_fused + 2.0 * hp.beta * (d_t - m0.T @ d_r)
    g_pre_r = g_zr * z_r * (1.0 - z_r)
    g_pre_t = g_zt * z_t * (1.0 - z_t)
    rating_in, trust_in = trace.rating_in, trace.trust_in
    pieces = [
        ("rating_enc_w", rating_in.indices, rating_in.value * g_pre_r),
        ("trust_enc_w", trust_in.indices, trust_in.value * g_pre_t),
        ("rating_enc_b", ..., g_pre_r),
        ("trust_enc_b", ..., g_pre_t),
        ("rating_dec_w", trace.rating_idx, e_r[:, None] * fused[None, :]),
        ("rating_dec_b", trace.rating_idx, e_r),
        ("trust_dec_w", trace.trust_idx, e_t[:, None] * fused[None, :]),
        ("trust_dec_b", trace.trust_idx, e_t),
        ("map_trust_to_rating", ..., -2.0 * hp.beta * np.outer(d_r, z_t)),
        ("map_rating_to_trust", ..., -2.0 * hp.beta * np.outer(d_t, z_r)),
    ]
    if params.user_vecs is not None:
        pieces.append(("user_vecs", trace.user, g_pre_r + g_pre_t))
    return pieces


def user_gradients(params: ModelParams, hp: Hyperparams, trace: ForwardTrace) -> ModelParams:
    """Dense exact gradient of `user_loss`, one array per model tensor."""
    grads = ModelParams(**{name: decay_coef(hp, name) / params.n * arr
                           for name, arr in params.tensors()})
    for name, rows, vals in backprop_core(params, hp, trace):
        getattr(grads, name)[rows] += vals
    for name, arr in grads.tensors():
        if not np.isfinite(arr).all():
            raise FloatingPointError(f"non-finite gradient in {name}")
    return grads
