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

from .model import FlatParams, ForwardTrace, Hyperparams, ModelParams, sigmoid

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


def user_loss(params: ModelParams, hp: Hyperparams, trace: ForwardTrace) -> LossBreakdown:
    """Loss of one user over the sampled coordinates and targets of `trace`,
    with the 1/n share of the l2 terms of `params`."""
    return total_loss(params, hp, backprop_core(hp, trace)[0])


def backprop_core(hp: Hyperparams, trace: ForwardTrace):
    """The (rating, trust, cross-view) data terms of one user's loss and
    their gradient, both from one set of intermediates.

    The one loss and backward pass of training and the gradient check, for
    every alpha and beta; at beta = 0 the maps' gradient is exactly zero.
    Decay is left out: the trainer applies it multiplicatively and
    `user_gradients` adds it densely. Returns (terms, (rows, biases, maps)):
    gradient values laid out like `trace.sample.pos` and `.bpos`, and the
    (2, k, k) gradient of the maps. Positions must be distinct (observed
    and sampled targets are disjoint by construction), otherwise the row
    updates would collide.
    """
    s, rows, z, fused = trace.sample, trace.rows, trace.codes, trace.fused
    a, b, t = s.a, s.b, s.t
    mid, end = b + 2 + t, b + 2 + len(s.y)
    loss = logistic_loss(s.y, trace.logit)
    e = sigmoid(trace.logit) - s.y
    m0, m1 = trace.maps
    resid = z - np.array([m0 @ z[1], m1 @ z[0]])   # d_r, d_t
    terms = (float(loss[:t].sum()), float(loss[t:].sum()),
             float(resid[0] @ resid[0] + resid[1] @ resid[1]))

    g_fused = rows[b + 2:mid].T @ e[:t] + rows[mid:end].T @ e[t:]
    g_z = (np.array([[hp.alpha], [1.0 - hp.alpha]]) * g_fused
           + 2.0 * hp.beta * (resid - np.array([m1.T @ resid[1], m0.T @ resid[0]])))
    g_pre = g_z * z * (1.0 - z)
    g_rows = np.empty_like(rows)
    g_rows[:b] = s.value * np.repeat(g_pre, (a, b - a), axis=0)   # each view's inputs
    g_rows[b:b + 2] = g_pre
    np.multiply.outer(e, fused, out=g_rows[b + 2:end])
    if len(rows) > end:   # the user's row
        g_rows[end] = g_pre[0] + g_pre[1]
    g_maps = resid[:, :, None] * z[::-1, None, :]
    g_maps *= -2.0 * hp.beta
    return terms, (g_rows, e, g_maps)


def user_gradients(params: ModelParams, hp: Hyperparams, trace: ForwardTrace) -> ModelParams:
    """Dense exact gradient of `user_loss`, one array per model tensor."""
    flat = FlatParams(params)
    grads = flat.views()
    for name, arr in grads.tensors():
        arr *= decay_coef(hp, name) / params.n
    _, (g_rows, g_biases, g_maps) = backprop_core(hp, trace)
    flat.rows[trace.sample.pos] += g_rows
    flat.biases[trace.sample.bpos] += g_biases
    flat.maps += g_maps
    for name, arr in grads.tensors():
        if not np.isfinite(arr).all():
            raise FloatingPointError(f"non-finite gradient in {name}")
    return grads
