"""Finite-difference verification of the analytic gradients.

Perturbs every parameter entry in turn, recomputes the full per-user loss
through the forward pass with the corruption pattern and targets held
fixed, and compares the central difference against the analytic value.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .model import Hyperparams, ModelParams, corrupt, forward_sampled, init_params
from .objective import user_gradients, user_loss
from .sparse import SparseInteractions
from .trainer import _user_targets

# changes to the suite's default setup that take it down each forward/backward
# path `train` can take: corrupted inputs, the per-user vector, and beta=0
# (the tdae0 variant), where the cross-view maps get no data gradient
PATHS = {"clean": {}, "corrupted": {"corruption": 0.3},
         "user_embedding": {"user_embedding": True}, "tdae0": {"beta": 0.0}}


@dataclass
class GradCheckReport:
    instances: int
    entries: int
    max_rel_err: float
    max_abs_err: float
    failures: int
    elapsed: float

    @property
    def ok(self) -> bool:
        return self.failures == 0


def _loss_of(params, hp, rating_in, trust_in, targets_r, targets_t,
             user, decay_scale) -> float:
    trace = forward_sampled(params, hp, rating_in, trust_in,
                            targets_r[0], targets_t[0], user=user)
    return user_loss(params, hp, trace, targets_r, targets_t, decay_scale).total


def fd_gradients(params, hp, rating_in, trust_in, targets_r, targets_t,
                 user=None, decay_scale: float = 1.0, step: float = 1e-5) -> ModelParams:
    """Central finite differences of the per-user loss, entry by entry."""
    work = params.copy()
    out = {}
    for name, arr in work.tensors():
        g = np.zeros_like(arr)
        flat = arr.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            up = _loss_of(work, hp, rating_in, trust_in, targets_r, targets_t,
                          user, decay_scale)
            flat[i] = orig - step
            down = _loss_of(work, hp, rating_in, trust_in, targets_r, targets_t,
                            user, decay_scale)
            flat[i] = orig
            gflat[i] = (up - down) / (2.0 * step)
        out[name] = g
    return ModelParams(**out)


def compare(analytic: ModelParams, numeric: ModelParams,
            rel_tol: float = 1e-4, abs_tol: float = 1e-8):
    """(max relative error, max absolute error, failure count) over all entries.

    An entry passes when its absolute error is under `abs_tol` or its
    error relative to the larger magnitude is under `rel_tol`. Below a
    magnitude of `abs_tol / rel_tol` the absolute rule alone decides, and
    the relative error there is finite-difference noise, so the reported
    maximum relative error covers only the entries at or above it.
    """
    max_rel = 0.0
    max_abs = 0.0
    failures = 0
    for (_, a), (_, f) in zip(analytic.tensors(), numeric.tensors()):
        diff = np.abs(a - f)
        denom = np.maximum(np.abs(a), np.abs(f))
        rel = diff / np.maximum(denom, 1e-300)
        max_rel = max(max_rel, float(rel[denom >= abs_tol / rel_tol].max(initial=0.0)))
        max_abs = max(max_abs, float(diff.max(initial=0.0)))
        failures += int(np.count_nonzero((diff >= abs_tol) & (rel >= rel_tol)))
    return max_rel, max_abs, failures


def random_instance(n: int, m: int, k: int, hp: Hyperparams, seed: int,
                    user_embedding: bool = False):
    """A small random store, params and one user's corrupted pass + targets."""
    rng = np.random.default_rng(seed)
    pairs = set()
    for u in range(n):
        for i in rng.choice(m, size=rng.integers(2, min(6, m)), replace=False):
            pairs.add((u, int(i)))
    edges = set()
    for u in range(n):
        for v in rng.choice(n, size=rng.integers(0, 3), replace=False):
            if int(v) != u:
                edges.add((u, int(v)))
    store = SparseInteractions(n, m, sorted(pairs), sorted(edges))
    params = init_params(n, m, k, seed=seed, user_embedding=user_embedding)
    u = int(rng.integers(0, n))

    targets_r, targets_t, pos_r, pos_t = _user_targets(store, u, rng, rng)
    rating_in, _ = corrupt(pos_r, hp.corruption, rng)
    trust_in, _ = corrupt(pos_t, hp.corruption, rng)
    return store, params, u, rating_in, trust_in, targets_r, targets_t


def run_suite(instances: int = 20, n: int = 8, m: int = 12, k: int = 4,
              hp: Hyperparams | None = None, seed0: int = 0,
              decay_scale: float = 1.0, step: float = 1e-5,
              rel_tol: float = 1e-4, abs_tol: float = 1e-8,
              **changes) -> GradCheckReport:
    """Run the oracle on `instances` random setups and pool the errors.

    The setup is `hp`, by default the shipped settings at latent dimension
    k without corruption, with any hyperparameter `changes` applied; its
    `user_embedding` decides whether the instances carry per-user vectors.
    """
    if hp is None:
        hp = Hyperparams(latent_dim=k, corruption=0.0)
    hp = hp.replace(**changes)
    tic = time.perf_counter()
    max_rel = 0.0
    max_abs = 0.0
    failures = 0
    entries = 0
    for j in range(instances):
        _, params, u, rating_in, trust_in, targets_r, targets_t = random_instance(
            n, m, k, hp, seed=seed0 + j, user_embedding=hp.user_embedding)
        trace = forward_sampled(params, hp, rating_in, trust_in,
                                targets_r[0], targets_t[0], user=u)
        analytic = user_gradients(params, hp, trace, targets_r, targets_t,
                                  decay_scale=decay_scale)
        numeric = fd_gradients(params, hp, rating_in, trust_in, targets_r,
                               targets_t, user=u, decay_scale=decay_scale,
                               step=step)
        rel, ab, fails = compare(analytic, numeric, rel_tol, abs_tol)
        max_rel = max(max_rel, rel)
        max_abs = max(max_abs, ab)
        failures += fails
        entries += sum(arr.size for _, arr in analytic.tensors())
    return GradCheckReport(instances=instances, entries=entries,
                           max_rel_err=max_rel, max_abs_err=max_abs,
                           failures=failures, elapsed=time.perf_counter() - tic)
