import itertools
from dataclasses import astuple

import numpy as np
import pytest

import trustdae as td
from trustdae import synth
from trustdae.gradcheck import random_instance
from trustdae.model import FlatParams, ModelParams, corrupt, forward_sampled
from trustdae.sparse import sample_complement
from trustdae import streams as keyed_streams
from trustdae.streams import SHORT_OUTPUTS, KeyedStreams, _seed_states, stream
from trustdae.trainer import (_CORRUPT, _ITEM_NEG, _SHUFFLE, _USER_NEG, TrainingError,
                              _DecayedParams, _epoch_streams, _samples, _user_step)

from conftest import flat_sample, make_tiny_store


def small_train_set(seed=0):
    ds = synth.make_block_dataset(n_users=40, n_items=60, n_communities=2,
                                  block_items=30, p_rate=0.4, p_trust=0.15,
                                  seed=seed)
    split = td.split_folds(ds, 5, seed=seed)
    return td.materialize_split(ds, split, 0)


def replayed_rows(data, hp, u, epoch):
    """User u's corrupted rows and (indices, binary targets) of each view at
    `epoch`, rebuilt from the reference definitions `stream`,
    `sample_complement` and `corrupt`."""
    pos_r, pos_t = data.row(u, "rating"), data.row(u, "trust")
    neg_r = sample_complement(stream(hp.seed, _ITEM_NEG, epoch, u), data.m, pos_r,
                              min(len(pos_r), data.m - len(pos_r)))
    neg_t = sample_complement(stream(hp.seed, _USER_NEG, epoch, u), data.n, pos_t,
                              min(len(pos_t), data.n - len(pos_t)))
    noise = stream(hp.seed, _CORRUPT, epoch, u)
    rating_in = corrupt(pos_r, hp.corruption, noise)
    trust_in = corrupt(pos_t, hp.corruption, noise)
    targets_r = (np.concatenate([pos_r, neg_r]),
                 np.concatenate([np.ones(len(pos_r)), np.zeros(len(neg_r))]))
    targets_t = (np.concatenate([pos_t, neg_t]),
                 np.concatenate([np.ones(len(pos_t)), np.zeros(len(neg_t))]))
    return rating_in, trust_in, targets_r, targets_t


def replayed_sample(data, hp, u, epoch):
    """`replayed_rows` as a `Sample` against the flat store of `data` and `hp`."""
    return flat_sample(data.n, data.m, *replayed_rows(data, hp, u, epoch),
                       u if hp.user_embedding else None)


def replayed_trace(params, data, hp, u, epoch):
    """User u's forward pass at `epoch` on `params`, from `replayed_sample`."""
    return forward_sampled(FlatParams(params), hp, replayed_sample(data, hp, u, epoch))


class TestTrain:
    def test_zero_lr_is_identity(self):
        train_set, _ = small_train_set()
        hp = td.Hyperparams(latent_dim=4, epochs=3, lr=0.0, seed=1)
        params, _ = td.train(train_set, hp)
        init = td.init_params(train_set.n, train_set.m, 4, seed=1)
        for (_, a), (_, b) in zip(params.tensors(), init.tensors()):
            assert np.array_equal(a, b)

    def test_deterministic(self):
        train_set, _ = small_train_set()
        hp = td.Hyperparams(latent_dim=4, epochs=3, seed=7)
        p1, log1 = td.train(train_set, hp)
        p2, log2 = td.train(train_set, hp)
        for (_, a), (_, b) in zip(p1.tensors(), p2.tensors()):
            assert np.array_equal(a, b)
        assert [e.loss.total for e in log1.epochs] == [e.loss.total for e in log2.epochs]

    def test_loss_descends(self):
        train_set, _ = small_train_set()
        hp = td.Hyperparams(latent_dim=6, epochs=15, seed=0)
        _, log = td.train(train_set, hp)
        assert log.epochs[-1].loss.total < log.epochs[0].loss.total
        assert len(log.epochs) == 15
        assert log.stop_reason == "max_epochs"

    def test_empty_store_rejected(self):
        empty = td.SparseInteractions(3, 4, [], [])
        with pytest.raises(TrainingError):
            td.train(empty, td.Hyperparams(latent_dim=2, epochs=1))

    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    def test_non_finite_aborts_with_context(self, monkeypatch):
        train_set, _ = small_train_set()

        def poisoned(n, m, k, seed, user_embedding=False):
            params = td.init_params(n, m, k, seed, user_embedding)
            params.rating_enc_w[0, 0] = np.nan
            return params

        monkeypatch.setattr("trustdae.trainer.init_params", poisoned)
        with pytest.raises(TrainingError, match="epoch 0, user"):
            td.train(train_set, td.Hyperparams(latent_dim=3, epochs=1))

    def test_non_finite_parameters_abort_after_epoch(self, monkeypatch):
        # nobody rates item 4, so its encoder row enters no step's loss,
        # only the end-of-epoch decay norm
        store = td.SparseInteractions(4, 5, [(u, i) for u in range(4) for i in range(3)],
                                      [])

        def poisoned(n, m, k, seed, user_embedding=False):
            params = td.init_params(n, m, k, seed, user_embedding)
            params.rating_enc_w[4, 0] = np.inf
            return params

        monkeypatch.setattr("trustdae.trainer.init_params", poisoned)
        with pytest.raises(TrainingError, match="after epoch 0"):
            td.train(store, td.Hyperparams(latent_dim=3, epochs=2))

    def test_param_norm_stays_bounded(self):
        train_set, _ = small_train_set()
        hp = td.Hyperparams(latent_dim=6, epochs=20, seed=0, weight_decay=0.01)
        init_norm = td.init_params(train_set.n, train_set.m, 6, 0).norm()
        _, log = td.train(train_set, hp)
        assert all(e.param_norm <= 100 * init_norm for e in log.epochs)

    # seed 2**40 takes two entropy words, so the user's word lies past
    # SeedSequence's pool of four
    @pytest.mark.parametrize("seed", [3, 2**40], ids=["small_seed", "seed_2_40"])
    def test_logged_loss_is_mean_training_step_loss(self, seed):
        # with lr=0 the parameters never move, so every step's loss is the
        # checked objective at the initial parameters on that step's streams,
        # replayed here from their definition
        train_set, _ = small_train_set()
        n = train_set.n
        hp = td.Hyperparams(latent_dim=4, epochs=2, lr=0.0, seed=seed)
        _, log = td.train(train_set, hp)
        params = td.init_params(n, train_set.m, 4, seed=seed)
        for e, stats in enumerate(log.epochs):
            parts = []
            for u in range(n):
                trace = replayed_trace(params, train_set, hp, u, e)
                parts.append(astuple(td.user_loss(params, hp, trace)))
            np.testing.assert_allclose(astuple(stats.loss), np.mean(parts, axis=0),
                                       rtol=1e-12, atol=0)

    def test_early_stop(self):
        train_set, _ = small_train_set()
        hp = td.Hyperparams(latent_dim=4, epochs=40, lr=1e-8, seed=0,
                            early_stop=True, patience=3, stop_tol=1e-5)
        _, log = td.train(train_set, hp)
        assert log.stop_reason == "early_stop"
        assert len(log.epochs) < 40

    def test_scale_renormalized_before_underflow(self):
        # each user step decays by 1 - 7.5/8; the bare scale underflowed
        # near epoch 31 and lr/scale turned the loss non-finite
        hp = td.Hyperparams(latent_dim=4, lr=1.0, weight_decay=7.5, epochs=60)
        _, log = td.train(make_tiny_store(seed=0), hp)
        assert len(log.epochs) == 60
        assert all(np.isfinite(e.loss.total) for e in log.epochs)
        assert log.epochs[-1].loss.total < log.epochs[0].loss.total

    def test_checkpoint_callback(self):
        train_set, _ = small_train_set()
        seen = []
        td.train(train_set, td.Hyperparams(latent_dim=3, epochs=4, seed=0),
                 checkpoint=lambda e, p: seen.append(e), checkpoint_every=2)
        assert seen == [1, 3, 3]  # every 2 epochs plus termination


class TestSampleChunks:
    def dense_train_set(self):
        # rows over a quarter full take the enumerated complement
        ds = synth.make_block_dataset(n_users=40, n_items=40, n_communities=2,
                                      block_items=20, p_rate=0.7, p_trust=0.6, seed=3)
        return td.materialize_split(ds, td.split_folds(ds, 5, seed=3), 0)[0]

    @pytest.mark.parametrize("dense", [False, True], ids=["sparse_rows", "dense_rows"])
    def test_samples_equal_per_user_reference(self, dense):
        train_set = self.dense_train_set() if dense else small_train_set()[0]
        hp = td.Hyperparams(latent_dim=3, corruption=0.3, seed=2**40 + 3)
        params = td.init_params(train_set.n, train_set.m, 3, seed=0)
        users = np.random.default_rng(5).permutation(train_set.n)
        got = list(_samples(train_set, hp.corruption, users, _epoch_streams(hp.seed, 4, train_set.n),
                            hp.user_embedding))
        assert len(got) == train_set.n
        for u, sample in zip(users.tolist(), got):
            want = replayed_sample(train_set, hp, u, 4)
            for field, a, b in zip(sample._fields, sample, want):
                assert np.array_equal(a, b), (u, field)
            logits = [forward_sampled(FlatParams(params), hp, s).logit for s in (sample, want)]
            assert np.array_equal(*logits), u

    @pytest.mark.parametrize("budget", [1, 17])
    def test_draw_budget_leaves_training_unchanged(self, monkeypatch, budget):
        train_set = self.dense_train_set()
        hp = td.Hyperparams(latent_dim=4, epochs=2, seed=6)
        want, log_want = td.train(train_set, hp)
        monkeypatch.setattr("trustdae.trainer.SAMPLE_CHUNK_DRAWS", budget)
        got, log_got = td.train(train_set, hp)
        for (name, a), (_, b) in zip(got.tensors(), want.tensors()):
            assert np.array_equal(a, b), name
        assert [astuple(e.loss) for e in log_got.epochs] == [astuple(e.loss) for e in log_want.epochs]

    def test_one_uniform_call_draws_as_two(self):
        # a user's corruption takes one `random(len_r + len_t)` call where
        # `corrupt` on each row takes two; a numpy whose PCG64 fills them
        # differently fails here rather than changing the inputs
        for seed, (a, b) in enumerate([(0, 5), (3, 0), (1, 1), (7, 12), (40, 33)]):
            one = stream(seed, _CORRUPT, 0, 0).random(a + b)
            rng = stream(seed, _CORRUPT, 0, 0)
            assert np.array_equal(one, np.concatenate([rng.random(a), rng.random(b)]))


class TestDecayPath:
    def test_alpha_one_beta_zero_trust_encoder_decays_only(self):
        train_set, _ = small_train_set()
        hp = td.Hyperparams(latent_dim=4, epochs=3, alpha=1.0, beta=0.0, seed=2)
        params, _ = td.train(train_set, hp)
        init = td.init_params(train_set.n, train_set.m, 4, seed=2)
        factor = 1.0 - hp.lr * hp.weight_decay / train_set.n
        scale = 1.0
        for _ in range(train_set.n * hp.epochs):
            scale *= factor
        assert np.array_equal(params.trust_enc_w, init.trust_enc_w * scale)
        assert np.array_equal(params.trust_enc_b, init.trust_enc_b * scale)

    def test_trust_replacement_leaves_rating_streams_alone(self):
        # keyed streams depend only on (seed, tag, epoch, user): the draws
        # consumed for corruption and rating negatives cannot see trust data
        a = stream(3, 0, 5, 7).random(8)
        b = stream(3, 0, 5, 7).random(8)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, stream(3, 1, 5, 7).random(8))
        assert not np.array_equal(a, stream(3, 0, 6, 7).random(8))


def _draws(rng):
    """Every kind of draw the trainer makes, in one sequence: bounded integers
    below and above 2**32 (rejection sampling), two `random` calls in a row
    (`corrupt` on both views), `choice` without replacement (complement
    sampling) and `permutation` (the epoch shuffle)."""
    return [rng.integers(0, 1200, size=37), rng.integers(0, 2**40, size=5),
            rng.random(3), rng.random(8), rng.choice(np.arange(50, 90), 11, replace=False),
            rng.permutation(25), rng.integers(0, 7, size=1)]


# seeds of one, two and three 32-bit words
STREAM_SEEDS = [0, 2**32 - 1, 2**32, 2**40, 7, 2_894_012_311, 2**64 + 9]


class TestUserStreams:
    # training re-implements numpy's SeedSequence and PCG64 seeding; a numpy
    # that seeds differently fails here rather than changing every draw
    def test_states_equal_seed_sequence(self):
        rng = np.random.default_rng(11)
        keys = [(0, 0, 0), (2**32 - 1, 2, 2**32 - 1), (5, 1, 3)]
        # keys of more than four words in all, whose words past the pool are
        # mixed in afterwards
        keys += [(2**32, 1, 0), (2**40, 5, 3), (2**64 + 9, 0, 2**32 + 1)]
        keys += [tuple(rng.integers(0, 2**32, size=3).tolist()) for _ in range(20)]
        for key in keys:
            users = [0, 1, 2**32 - 1] + rng.integers(0, 2**32, size=20).tolist()
            got = _seed_states(key, np.array(users))
            for u, row in zip(users, got):
                want = np.random.SeedSequence(key + (u,)).generate_state(4, np.uint64)
                assert np.array_equal(row, want), (key, u)

    @pytest.mark.parametrize("seed", STREAM_SEEDS)
    def test_reseated_generator_draws_as_stream(self, seed):
        # one generator serves every user in turn, whatever the seed's word count
        n = 70_001
        for tag, epoch in [(_ITEM_NEG, 0), (_CORRUPT, 49), (_USER_NEG, 2**31 + 5)]:
            seat = KeyedStreams(seed, tag, epoch, n).seat
            for u in [0, n - 1, 1, 12_345, 0]:
                got, want = _draws(seat(u)), _draws(stream(seed, tag, epoch, u))
                for a, b in zip(got, want):
                    assert np.array_equal(a, b), (seed, tag, epoch, u)

    @pytest.mark.parametrize("seed", STREAM_SEEDS)
    def test_keyed_draws_equal_stream(self, seed, monkeypatch):
        # rows on both sides of SHORT_OUTPUTS, odd and even, in shuffled
        # order; integers take two values an output, and at 2**31 + 1 about
        # half their candidates are rejected, which sends the row to its
        # seated generator, as a domain of 2**32 sends every row
        key = (seed, _ITEM_NEG, 2**33 + 1)
        ids = [0, 1, 2**32 - 1]
        streams = KeyedStreams(*key, 0)
        # user i of `streams` is ids[i], without the rows of all users below
        streams._keys = keyed_streams._seated(key, np.array(ids))
        seated = []
        seat = streams.seat
        monkeypatch.setattr(streams, "seat", lambda i: seated.append(i) or seat(i))
        rows = np.random.default_rng(seed % 2**32).permutation(
            [(i, k) for i in range(len(ids)) for k in range(4 * SHORT_OUTPUTS + 4)])
        users, counts = rows.T

        def want(call):
            return np.concatenate([call(stream(*key, ids[i]), k)
                                   for i, k in zip(users.tolist(), counts.tolist())])

        long = np.count_nonzero(counts > SHORT_OUTPUTS)
        for draw, call in ((streams.raw, lambda rng, k: rng.bit_generator.random_raw(k)),
                           (streams.random, np.random.Generator.random)):
            seated.clear()
            assert np.array_equal(draw(users, counts), want(call))
            assert len(seated) == long
        long = np.count_nonzero(counts > 2 * SHORT_OUTPUTS)
        for domain in (1, 2, 3, 160, 1200, 2**32 - 1, 2**31 + 1, 2**32):
            seated.clear()
            got = streams.integers(users, counts, domain)
            assert np.array_equal(got, want(lambda rng, k: rng.integers(0, domain, size=k)))
            if domain == 2**31 + 1:
                assert long < len(seated) < len(rows)
            else:
                assert len(seated) == (len(rows) if domain == 2**32 else long)

    @pytest.mark.parametrize("corrupted", ["multiplier", "jump_table"])
    def test_numpy_check_fails_on_other_draws(self, monkeypatch, corrupted):
        check = keyed_streams.check_numpy.__wrapped__   # past the cached pass
        check()
        if corrupted == "multiplier":
            monkeypatch.setattr(keyed_streams, "_PCG64_MULT", keyed_streams._PCG64_MULT ^ 4)
            table = keyed_streams._jump_table()
        else:
            table = keyed_streams._JUMP.copy()
            table[3, -1] ^= 1   # low word of the last jump's C
        monkeypatch.setattr(keyed_streams, "_JUMP", table)
        with pytest.raises(RuntimeError, match=f"numpy {np.__version__}"):
            check()

    def test_epoch_streams_run_the_numpy_check(self, monkeypatch):
        def other_numpy():
            raise RuntimeError("other draws")

        monkeypatch.setattr("trustdae.trainer.check_numpy", other_numpy)
        with pytest.raises(RuntimeError, match="other draws"):
            _epoch_streams(0, 0, 4)


class TestUserStep:
    @pytest.mark.parametrize("changes", [
        {}, {"user_embedding": True}, {"beta": 0.0}])
    def test_step_follows_checked_gradient(self, changes):
        # the trainer's scaled step equals plain SGD on the gradient that
        # the finite-difference oracle checks; distinct decay coefficients
        # tell apart which tensors take which
        hp = td.Hyperparams(latent_dim=4, weight_decay=0.5, map_decay=0.2,
                            **changes)
        for seed in range(5):
            params, trace = random_instance(hp, seed=seed)
            grads = td.user_gradients(params, hp, trace)
            scaled = _DecayedParams(params, hp)
            _user_step(scaled, hp, trace)
            stepped = scaled.snapshot()
            for (name, got), (_, p), (_, g) in zip(
                    stepped.tensors(), params.tensors(), grads.tensors()):
                np.testing.assert_allclose(got, p - hp.lr * g, rtol=1e-12,
                                           atol=0, err_msg=name)


class TestDecayGroups:
    def test_group_shares_renormalisation(self, monkeypatch):
        # at this _MIN_SCALE the weights' scale (factor 1 - 0.5*0.5/n) is
        # folded into its buffers every ~16 steps and the maps' (factor
        # 1 - 0.5*0.3/n) every ~27, both first within epoch 0; training
        # still follows plain SGD with dense decay,
        # p*(1 - lr*lam/n) - lr*data_gradient = p - lr*user_gradients
        train_set, _ = small_train_set()
        n = train_set.n
        hp = td.Hyperparams(latent_dim=3, epochs=2, weight_decay=0.5, map_decay=0.3, seed=4)
        monkeypatch.setattr("trustdae.trainer._MIN_SCALE", 0.9)
        folded = {"weights": [], "maps": []}
        decay, steps = _DecayedParams.decay, itertools.count()

        def spy(store):
            decay(store)
            step = next(steps)
            for group, scale in (("weights", store.scale), ("maps", store.map_scale)):
                if scale == 1.0:
                    folded[group].append(step)

        monkeypatch.setattr(_DecayedParams, "decay", spy)
        got, _ = td.train(train_set, hp)
        p = td.init_params(n, train_set.m, 3, seed=hp.seed)
        for epoch in range(hp.epochs):
            for u in stream(hp.seed, _SHUFFLE, epoch).permutation(n).tolist():
                g = td.user_gradients(p, hp, replayed_trace(p, train_set, hp, u, epoch))
                p = ModelParams(**{name: a - hp.lr * b
                                   for (name, a), (_, b) in zip(p.tensors(), g.tensors())})
        for (name, a), (_, b) in zip(got.tensors(), p.tensors()):
            np.testing.assert_allclose(a, b, rtol=1e-10, atol=0, err_msg=name)
        assert folded["weights"][0] < n and folded["maps"][0] < n
        assert folded["weights"] != folded["maps"]


class TestFlatLayout:
    @pytest.mark.parametrize("changes", [{}, {"user_embedding": True}, {"latent_dim": 1},
                                         {"latent_dim": 1, "user_embedding": True}])
    def test_gathers_equal_named_reads(self, changes):
        # every user's gathered rows and biases are the snapshot's named
        # tensors at the reference rows and targets; at corruption 0.6 some
        # rating rows empty, and some random-store users trust nobody
        hp = td.Hyperparams(latent_dim=3, corruption=0.6, seed=11).replace(**changes)
        empty = set()
        for seed in range(3):
            data = make_tiny_store(seed)
            rng = np.random.default_rng(seed)
            store = FlatParams(td.init_params(data.n, data.m, hp.latent_dim, seed,
                                              hp.user_embedding))
            for buf in (store.rows, store.biases, store.maps):
                buf[...] = rng.normal(size=buf.shape)
            store.scale, store.map_scale = rng.uniform(0.5, 2.0, size=2).tolist()
            named = store.snapshot()
            users = rng.permutation(data.n)
            samples = _samples(data, hp.corruption, users, _epoch_streams(hp.seed, 0, data.n),
                               hp.user_embedding)
            for u, sample in zip(users.tolist(), samples, strict=True):
                rating_in, trust_in, (idx_r, _), (idx_t, _) = replayed_rows(data, hp, u, 0)
                trace = forward_sampled(store, hp, sample)
                rows = [named.rating_enc_w[rating_in.indices], named.trust_enc_w[trust_in.indices],
                        named.rating_enc_b[None], named.trust_enc_b[None],
                        named.rating_dec_w[idx_r], named.trust_dec_w[idx_t]]
                if hp.user_embedding:
                    rows.append(named.user_vecs[u][None])
                assert np.array_equal(trace.rows, np.concatenate(rows)), u
                assert np.array_equal(store.biases[sample.bpos] * store.scale,
                                      np.concatenate([named.rating_dec_b[idx_r],
                                                      named.trust_dec_b[idx_t]])), u
                assert np.array_equal(trace.maps, np.stack([named.map_trust_to_rating,
                                                            named.map_rating_to_trust]))
                # the forward pass's codes are `encode`'s, bit for bit
                user = u if hp.user_embedding else None
                assert np.array_equal(trace.codes, td.encode(named, rating_in, trust_in, user))
                empty |= {view for view, row in (("rating", rating_in), ("trust", trust_in))
                          if len(row.indices) == 0}
        assert empty == {"rating", "trust"}

    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("user_embedding", [False, True])
    def test_fresh_snapshot_is_init_params(self, k, user_embedding):
        init = td.init_params(7, 9, k, seed=4, user_embedding=user_embedding)
        snap = FlatParams(init).snapshot()
        assert [name for name, _ in snap.tensors()] == [name for name, _ in init.tensors()]
        for (name, a), (_, b) in zip(snap.tensors(), init.tensors()):
            assert a.shape == b.shape and a.tobytes() == b.tobytes(), name


class TestPerUserCost:
    def test_empty(self):
        s = td.SparseInteractions(4, 9, [], [])
        assert td.per_user_cost(s, td.Hyperparams(latent_dim=8)) == 0

    def test_hand_example(self):
        # one active user: (4 + 4 + 2 + 2) * 8 = 96
        s = td.SparseInteractions(50, 1000,
                                  [(0, i) for i in range(4)],
                                  [(0, 1), (0, 2)])
        assert td.per_user_cost(s, td.Hyperparams(latent_dim=8)) == 96

    def test_linear_in_k(self):
        s = make_tiny_store(seed=4)
        c1 = td.per_user_cost(s, td.Hyperparams(latent_dim=5))
        c2 = td.per_user_cost(s, td.Hyperparams(latent_dim=10))
        assert c2 == 2 * c1


class TestTrainLog:
    def test_csv_shape(self):
        train_set, _ = small_train_set()
        _, log = td.train(train_set, td.Hyperparams(latent_dim=3, epochs=2, seed=0))
        rows = log.csv_rows()
        assert rows[0].startswith("epoch,rating_recon")
        assert len(rows) == 3
        assert rows[1].split(",")[0] == "0"
