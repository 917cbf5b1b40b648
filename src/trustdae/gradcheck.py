"""Finite-difference verification of the analytic gradients.

Perturbs every parameter entry in turn, recomputes the full per-user loss
through the forward pass on the corrupted inputs and targets that one
forward trace carries, and compares the central difference against the
analytic value.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .model import FlatParams, Hyperparams, ModelParams, forward_sampled, init_params
from .objective import user_gradients, user_loss
from .sparse import SparseInteractions
from .trainer import _epoch_streams, _samples

# central-difference step and the pass rule of `compare`
FD_STEP = 1e-5
REL_TOL = 1e-4
ABS_TOL = 1e-8

# changes to the suite's default setup for each case of the one forward and
# backward pass: corrupted inputs, the per-user vector, and beta=0 (the tdae0
# variant), where the cross-view maps' data gradient is exactly zero
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


def fd_gradients(params, hp, trace) -> ModelParams:
    """Central finite differences of the per-user loss, entry by entry.

    Each evaluation reruns the forward pass on `trace`'s sample, over a
    flat copy of `params` whose views are perturbed.
    """
    store = FlatParams(params)
    work = store.views()

    def loss() -> float:
        return user_loss(work, hp, forward_sampled(store, hp, trace.sample)).total

    out = {}
    for name, arr in work.tensors():
        g = np.zeros_like(arr)
        flat = arr.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + FD_STEP
            up = loss()
            flat[i] = orig - FD_STEP
            down = loss()
            flat[i] = orig
            gflat[i] = (up - down) / (2.0 * FD_STEP)
        out[name] = g
    return ModelParams(**out)


def compare(analytic: ModelParams, numeric: ModelParams):
    """(max relative error, max absolute error, failure count) over all entries.

    An entry passes when its absolute error is under ABS_TOL or its error
    relative to the larger magnitude is under REL_TOL. Below a magnitude of
    ABS_TOL / REL_TOL the absolute rule alone decides, and the relative
    error there is finite-difference noise, so the reported maximum
    relative error covers only the entries at or above it.
    """
    max_rel = 0.0
    max_abs = 0.0
    failures = 0
    for (_, a), (_, f) in zip(analytic.tensors(), numeric.tensors()):
        diff = np.abs(a - f)
        denom = np.maximum(np.abs(a), np.abs(f))
        rel = diff / np.maximum(denom, 1e-300)
        max_rel = max(max_rel, float(rel[denom >= ABS_TOL / REL_TOL].max(initial=0.0)))
        max_abs = max(max_abs, float(diff.max(initial=0.0)))
        failures += int(np.count_nonzero((diff >= ABS_TOL) & (rel >= REL_TOL)))
    return max_rel, max_abs, failures


def random_store(rng: np.random.Generator) -> SparseInteractions:
    """A random 8-user, 12-item store: 2-5 ratings and 0-2 trust edges a user."""
    n, m = 8, 12
    pairs = set()
    for u in range(n):
        for i in rng.choice(m, size=rng.integers(2, 6), replace=False):
            pairs.add((u, int(i)))
    edges = set()
    for u in range(n):
        for v in rng.choice(n, size=rng.integers(0, 3), replace=False):
            if int(v) != u:
                edges.add((u, int(v)))
    return SparseInteractions(n, m, sorted(pairs), sorted(edges))


def random_instance(hp: Hyperparams, seed: int):
    """(params, trace): params of `hp`'s latent_dim and user_embedding over a
    random store, and one random user's training sample and forward pass,
    built as the trainer builds it, from the keyed streams of epoch 0."""
    rng = np.random.default_rng(seed)
    data = random_store(rng)
    params = init_params(data.n, data.m, hp.latent_dim, seed=seed,
                         user_embedding=hp.user_embedding)
    u = int(rng.integers(0, data.n))
    sample = next(_samples(data, hp.corruption, [u], _epoch_streams(seed, 0, data.n),
                           hp.user_embedding))
    return params, forward_sampled(FlatParams(params), hp, sample)


def run_suite(instances: int = 20, seed0: int = 0, **changes) -> GradCheckReport:
    """Run the oracle on `instances` random setups and pool the errors.

    The setup is the shipped settings at latent dimension 4 without
    corruption, with any hyperparameter `changes` applied; its
    `user_embedding` decides whether the instances carry per-user vectors.
    """
    hp = Hyperparams(latent_dim=4, corruption=0.0).replace(**changes)
    tic = time.perf_counter()
    max_rel = 0.0
    max_abs = 0.0
    failures = 0
    entries = 0
    for j in range(instances):
        params, trace = random_instance(hp, seed=seed0 + j)
        analytic = user_gradients(params, hp, trace)
        rel, ab, fails = compare(analytic, fd_gradients(params, hp, trace))
        max_rel = max(max_rel, rel)
        max_abs = max(max_abs, ab)
        failures += fails
        entries += sum(arr.size for _, arr in analytic.tensors())
    return GradCheckReport(instances=instances, entries=entries,
                           max_rel_err=max_rel, max_abs_err=max_abs,
                           failures=failures, elapsed=time.perf_counter() - tic)
