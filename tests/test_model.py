import dataclasses
import json
import math
import struct
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import trustdae as td
from trustdae.model import sigmoid

from conftest import flat_sample, make_tiny_store


class TestSigmoid:
    def test_values(self):
        x = np.linspace(-8, 8, 201)
        np.testing.assert_allclose(sigmoid(x), 1 / (1 + np.exp(-x)), atol=1e-14)
        assert sigmoid(np.array([0.0]))[0] == 0.5

    def test_extremes_finite(self):
        out = sigmoid(np.array([-1000.0, 1000.0]))
        assert np.isfinite(out).all()
        assert out[0] >= 0.0 and out[1] <= 1.0


class TestInit:
    def test_stated_initialization(self):
        p = td.init_params(6, 9, 4, seed=0)
        assert np.all(p.rating_enc_b == 0) and np.all(p.trust_dec_b == 0)
        assert np.array_equal(p.map_trust_to_rating, np.eye(4))
        assert np.array_equal(p.map_rating_to_trust, np.eye(4))
        limit = np.sqrt(6 / (9 + 4))
        assert np.abs(p.rating_enc_w).max() <= limit
        assert np.abs(p.rating_dec_w).max() <= limit
        assert p.user_vecs is None

    def test_deterministic(self):
        a = td.init_params(6, 9, 4, seed=3)
        b = td.init_params(6, 9, 4, seed=3)
        for (_, x), (_, y) in zip(a.tensors(), b.tensors()):
            assert np.array_equal(x, y)

    def test_user_embedding_shape(self):
        p = td.init_params(6, 9, 4, seed=0, user_embedding=True)
        assert p.user_vecs.shape == (6, 4)


class TestCorrupt:
    def test_no_corruption_is_identity(self):
        idx = np.array([1, 5, 9])
        row = td.corrupt(idx, 0.0, np.random.default_rng(0))
        assert np.array_equal(row.indices, idx) and row.value == 1.0

    def test_survivor_scale(self):
        idx = np.arange(50)
        row = td.corrupt(idx, 0.2, np.random.default_rng(1))
        # the survivors are the coordinates whose uniform draw is >= q
        keep = np.random.default_rng(1).random(len(idx)) >= 0.2
        assert row.value == 1.25
        assert np.array_equal(row.indices, idx[keep])

    def test_stream_consumption_independent_of_q(self):
        # both q values consume exactly len(idx) draws
        idx = np.arange(10)
        r1, r2 = np.random.default_rng(5), np.random.default_rng(5)
        td.corrupt(idx, 0.0, r1)
        td.corrupt(idx, 0.7, r2)
        assert r1.random() == r2.random()

    def test_unbiased(self):
        idx = np.arange(100_000)
        row = td.corrupt(idx, 0.2, np.random.default_rng(2))
        mean = row.value * len(row.indices) / len(idx)
        assert abs(mean - 1.0) < 0.01


class TestEncodeFuseDecode:
    def test_zero_input_gives_half(self):
        p = td.init_params(5, 7, 3, seed=0)
        z_r, z_t = td.encode(p, td.Row(np.array([], dtype=np.int64), 1.0),
                             td.Row(np.array([], dtype=np.int64), 1.0))
        assert np.allclose(z_r, 0.5) and np.allclose(z_t, 0.5)

    def test_single_nonzero_matches_definition(self):
        p = td.init_params(5, 7, 3, seed=1)
        row = td.Row(np.array([4]), 1.25)
        z_r, _ = td.encode(p, row, td.Row(np.array([], dtype=np.int64), 1.0))
        expect = sigmoid(1.25 * p.rating_enc_w[4] + p.rating_enc_b)
        np.testing.assert_allclose(z_r, expect, atol=1e-15)

    def test_sparse_equals_dense(self):
        rng = np.random.default_rng(9)
        for trial in range(10):
            n, m, k = rng.integers(2, 20), rng.integers(2, 20), rng.integers(1, 6)
            p = td.init_params(int(n), int(m), int(k), seed=trial)
            idx_r = np.sort(rng.choice(m, size=rng.integers(0, m), replace=False))
            idx_t = np.sort(rng.choice(n, size=rng.integers(0, n), replace=False))
            dense_r = np.zeros(m)
            dense_r[idx_r] = 1.25
            dense_t = np.zeros(n)
            dense_t[idx_t] = 1.25
            z_r, z_t = td.encode(p, td.Row(idx_r, 1.25), td.Row(idx_t, 1.25))
            np.testing.assert_allclose(
                z_r, sigmoid(p.rating_enc_w.T @ dense_r + p.rating_enc_b), atol=1e-12)
            np.testing.assert_allclose(
                z_t, sigmoid(p.trust_enc_w.T @ dense_t + p.trust_enc_b), atol=1e-12)

    def test_fuse_boundaries_and_example(self):
        z_r, z_t = np.array([0.2, 0.4]), np.array([0.6, 0.8])
        assert np.array_equal(td.fuse(z_r, z_t, 1.0), z_r)
        assert np.array_equal(td.fuse(z_r, z_t, 0.0), z_t)
        np.testing.assert_allclose(td.fuse(z_r, z_t, 0.5), [0.4, 0.6])

    @given(st.floats(0, 1), st.floats(0, 1))
    @settings(max_examples=30, deadline=None)
    def test_fuse_monotone_in_alpha(self, a1, a2):
        z_r = np.array([0.9, 0.7])
        z_t = np.array([0.1, 0.3])  # z_r >= z_t elementwise
        lo, hi = min(a1, a2), max(a1, a2)
        assert np.all(td.fuse(z_r, z_t, hi) >= td.fuse(z_r, z_t, lo))

    def test_decode_center(self):
        p = td.init_params(5, 7, 3, seed=2)
        r_hat = sigmoid(p.rating_dec_w @ np.zeros(3) + p.rating_dec_b)
        t_hat = sigmoid(p.trust_dec_w @ np.zeros(3) + p.trust_dec_b)
        assert np.allclose(r_hat, 0.5) and np.allclose(t_hat, 0.5)

    def test_sampled_logits_match_full(self):
        p = td.init_params(5, 7, 3, seed=3)
        hp = td.Hyperparams(latent_dim=3)
        idx_i, idx_u = np.array([1, 6]), np.array([0, 4])
        sample = flat_sample(5, 7, td.Row(np.array([2, 3]), 1.0), td.Row(np.array([1]), 1.0),
                             (idx_i, np.array([1.0, 0.0])), (idx_u, np.array([0.0, 1.0])))
        trace = td.forward_sampled(td.FlatParams(p), hp, sample)
        r_full = p.rating_dec_w @ trace.fused + p.rating_dec_b
        t_full = p.trust_dec_w @ trace.fused + p.trust_dec_b
        np.testing.assert_array_equal(trace.logit[:2], r_full[idx_i])
        np.testing.assert_array_equal(trace.logit[2:], t_full[idx_u])


def per_user_logits(p, s, users, alpha):
    """Each user's fused code from `encode` + `fuse`, decoded by one block matmul."""
    fused = np.array([td.fuse(*td.encode(p, td.Row(s.row(u, "rating"), 1.0),
                                         td.Row(s.row(u, "trust"), 1.0), u), alpha)
                      for u in users])
    return fused @ p.rating_dec_w.T + p.rating_dec_b


class TestPredict:
    def test_deterministic(self):
        s = make_tiny_store(seed=1)
        p = td.init_params(s.n, s.m, 4, seed=0)
        a = td.predict_scores(p, s, [2], 0.8)
        b = td.predict_scores(p, s, [2], 0.8)
        assert np.array_equal(a, b)
        assert a.shape == (1, s.m) and np.isfinite(a).all()

    def test_block_rows_are_decoder_logits(self):
        # each row decodes the user's clean-input fused code, without sigmoid;
        # a block product may differ from a per-user one in the last ulp
        s = make_tiny_store(seed=3)
        p = td.init_params(s.n, s.m, 4, seed=1, user_embedding=True)
        users = [5, 0, 3]
        block = td.predict_scores(p, s, users, 0.8)
        assert block.shape == (len(users), s.m)
        for r, u in enumerate(users):
            z_r, z_t = td.encode(p, td.Row(s.row(u, "rating"), 1.0),
                                 td.Row(s.row(u, "trust"), 1.0), u)
            logits = p.rating_dec_w @ td.fuse(z_r, z_t, 0.8) + p.rating_dec_b
            np.testing.assert_allclose(block[r], logits, rtol=1e-14, atol=1e-15)

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=60, deadline=None)
    def test_block_equals_per_user_encode(self, seed):
        # empty rating and trust rows, user vectors, unsorted lists with
        # repeats, and gathers that cross the chunk boundary
        rng = np.random.default_rng(seed)
        n, m, k = int(rng.integers(1, 15)), int(rng.integers(1, 40)), int(rng.integers(1, 6))
        ratings = [(u, i) for u in range(n) for i in range(m) if rng.random() < rng.random()]
        trusts = [(u, v) for u in range(n) for v in range(n)
                  if u != v and rng.random() < 0.4 * rng.random()]
        s = td.SparseInteractions(n, m, ratings, trusts)
        p = td.init_params(n, m, k, seed=seed, user_embedding=bool(rng.integers(0, 2)))
        p.rating_enc_b += rng.standard_normal(k)
        p.rating_dec_b += rng.standard_normal(m)
        users = rng.integers(0, n, size=rng.integers(1, 2 * n + 1))
        alpha = float(rng.choice([0.0, 0.8, 1.0, rng.random()]))
        expect = per_user_logits(p, s, users, alpha)
        for chunk in (1, 3, 7, td.model.ENCODE_CHUNK_ROWS):
            with mock.patch.object(td.model, "ENCODE_CHUNK_ROWS", chunk):
                assert np.array_equal(td.predict_scores(p, s, users, alpha), expect)

    @pytest.mark.parametrize("k", [1, 10])
    def test_long_rows_keep_encode_summation_order(self, k):
        # rows of 9 to 340 items: a pairwise segment sum (np.add.reduceat)
        # differs from encode's sum here in the last bits
        rng = np.random.default_rng(k)
        n, m = 12, 400
        lengths = [9, 17, 64, 129, 200, 340, 0, 12, 33, 90, 150, 8]
        ratings = [(u, int(i)) for u, size in enumerate(lengths)
                   for i in rng.choice(m, size=size, replace=False)]
        trusts = [(u, v) for u in range(n) for v in range(n) if u != v]
        s = td.SparseInteractions(n, m, ratings, trusts)
        p = td.init_params(n, m, k, seed=3)
        p.rating_enc_w += rng.standard_normal((m, k))
        users = rng.permutation(n)
        assert np.array_equal(td.predict_scores(p, s, users, 0.8),
                              per_user_logits(p, s, users, 0.8))

    def test_alpha_one_ignores_trust(self):
        s1 = make_tiny_store(seed=1)
        # same rating rows, trust rows replaced wholesale
        ratings = [(u, int(i)) for u in range(s1.n) for i in s1.row(u, "rating")]
        s2 = td.SparseInteractions(s1.n, s1.m, ratings,
                                   [(u, (u + 3) % s1.n) for u in range(s1.n)])
        p = td.init_params(s1.n, s1.m, 4, seed=0)
        for u in range(s1.n):
            assert np.array_equal(td.predict_scores(p, s1, [u], 1.0),
                                  td.predict_scores(p, s2, [u], 1.0))

    def test_alpha_zero_ignores_ratings(self):
        s1 = make_tiny_store(seed=2)
        trusts = [(u, int(v)) for u in range(s1.n) for v in s1.row(u, "trust")]
        s2 = td.SparseInteractions(s1.n, s1.m,
                                   [(u, (u * 2) % s1.m) for u in range(s1.n)],
                                   trusts)
        p = td.init_params(s1.n, s1.m, 4, seed=0)
        for u in range(s1.n):
            assert np.array_equal(td.predict_scores(p, s1, [u], 0.0),
                                  td.predict_scores(p, s2, [u], 0.0))


def _with_tensors(header, tensors):
    """`header` as JSON bytes, with its tensor list replaced by `tensors`."""
    return json.dumps(dict(header, tensors=tensors)).encode("utf-8")


class TestCheckpoint:
    def test_roundtrip_bit_exact(self, tmp_path):
        hp = td.Hyperparams(latent_dim=4, epochs=7, seed=5)
        p = td.init_params(6, 9, 4, seed=1)
        p.rating_enc_b += 0.125  # make biases nontrivial
        path = tmp_path / "model.ckpt"
        td.save_checkpoint(p, hp, path)
        p2, hp2 = td.load_checkpoint(path)
        assert hp2 == hp
        for (na, a), (nb, b) in zip(p.tensors(), p2.tensors()):
            assert na == nb and np.array_equal(a, b)

    def test_roundtrip_with_user_vecs(self, tmp_path):
        hp = td.Hyperparams(latent_dim=3, user_embedding=True)
        p = td.init_params(4, 5, 3, seed=2, user_embedding=True)
        td.save_checkpoint(p, hp, tmp_path / "m.ckpt")
        p2, hp2 = td.load_checkpoint(tmp_path / "m.ckpt")
        assert np.array_equal(p.user_vecs, p2.user_vecs)
        assert hp2.user_embedding

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk"
        path.write_bytes(b"garbage")
        with pytest.raises(ValueError):
            td.load_checkpoint(path)

    @pytest.mark.parametrize("cut,match", [
        (lambda size: 8 + 4, "header"),
        (lambda size: 8 + 8 + 10, "header"),
        (lambda size: size - 8, "tensor map_rating_to_trust"),
    ], ids=["short_length", "short_blob", "short_tensor"])
    def test_truncated(self, tmp_path, cut, match):
        path = tmp_path / "model.ckpt"
        td.save_checkpoint(td.init_params(4, 5, 3, seed=0), td.Hyperparams(), path)
        data = path.read_bytes()
        path.write_bytes(data[:cut(len(data))])
        with pytest.raises(ValueError, match=f"model.ckpt: truncated checkpoint .*{match}"):
            td.load_checkpoint(path)

    @staticmethod
    def _write(path, hp, tensors):
        """A checkpoint file of the given (name, array) pairs, written
        without `save_checkpoint`, so that it may be inconsistent."""
        header = {"hyperparams": dataclasses.asdict(hp),
                  "tensors": [[name, list(arr.shape)] for name, arr in tensors]}
        blob = json.dumps(header).encode("utf-8")
        with open(path, "wb") as fh:
            fh.write(b"TRDAECK1" + struct.pack("<Q", len(blob)) + blob)
            for _, arr in tensors:
                fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())

    @pytest.mark.parametrize("blob,match", [
        (lambda h: b"\xff" + json.dumps(h).encode("utf-8"), "bad checkpoint header"),
        (lambda h: json.dumps({"hyperparams": h["hyperparams"]}).encode("utf-8"),
         "bad checkpoint header .*tensors"),
        (lambda h: json.dumps(dict(h, hyperparams=dict(h["hyperparams"], depth=2)))
         .encode("utf-8"), "bad hyperparameters .*depth"),
        (lambda h: _with_tensors(h, [["rating_enc_w", [-1, 3]]]), "bad checkpoint header"),
        (lambda h: _with_tensors(h, [["rating_enc_w"]]), "bad checkpoint header"),
        (lambda h: _with_tensors(h, [[2.5, 3]]), "bad checkpoint header"),
        (lambda h: _with_tensors(h, [["rating_enc_w", "ab"]]), "bad checkpoint header"),
        (lambda h: _with_tensors(h, 5), "bad checkpoint header"),
        # 2**64 entries wrap to 0 in int64 arithmetic
        (lambda h: _with_tensors(h, [["rating_enc_w", [2**32, 2**32]]]),
         "truncated checkpoint .*rating_enc_w"),
    ], ids=["not_utf8", "no_tensors", "unknown_hyperparameter", "negative_dim",
            "no_shape", "number_name", "string_shape", "tensors_not_list",
            "overflowing_shape"])
    def test_bad_header(self, tmp_path, blob, match):
        params, hp = td.init_params(4, 7, 3, seed=0), td.Hyperparams(latent_dim=3)
        header = {"hyperparams": dataclasses.asdict(hp),
                  "tensors": [[name, list(arr.shape)] for name, arr in params.tensors()]}
        data = blob(header)
        path = tmp_path / "model.ckpt"
        with open(path, "wb") as fh:
            fh.write(b"TRDAECK1" + struct.pack("<Q", len(data)) + data)
            for _, arr in params.tensors():
                fh.write(arr.astype("<f8").tobytes())
        with pytest.raises(ValueError, match=f"model.ckpt: {match}"):
            td.load_checkpoint(path)

    def test_writer_matches_save_checkpoint(self, tmp_path):
        hp = td.Hyperparams(latent_dim=3)
        p = td.init_params(4, 7, 3, seed=0)
        td.save_checkpoint(p, hp, tmp_path / "a.ckpt")
        self._write(tmp_path / "b.ckpt", hp, list(p.tensors()))
        p2, hp2 = td.load_checkpoint(tmp_path / "b.ckpt")
        assert hp2 == hp
        assert all(np.array_equal(a, b) for (_, a), (_, b) in zip(p.tensors(), p2.tensors()))

    @pytest.mark.parametrize("edit,match", [
        (lambda hp, t: (hp, t + [("extra_w", np.zeros((7, 3)))]), "unexpected tensor extra_w"),
        (lambda hp, t: (hp, [x for x in t if x[0] != "trust_dec_b"]), "missing tensor trust_dec_b"),
        (lambda hp, t: (hp, [(name, arr[:6] if name == "rating_dec_w" else arr)
                             for name, arr in t]), r"tensor rating_dec_w has shape \(6, 3\)"),
        (lambda hp, t: (hp, [(name, arr[:3] if name == "trust_dec_b" else arr)
                             for name, arr in t]), r"tensor trust_dec_b has shape \(3,\)"),
        (lambda hp, t: (hp.replace(latent_dim=4), t), r"tensor rating_enc_w .*latent_dim=4"),
        (lambda hp, t: (hp.replace(user_embedding=True), t), "missing tensor user_vecs"),
        (lambda hp, t: (hp, t + [("user_vecs", np.zeros((4, 3)))]), "unexpected tensor user_vecs"),
        (lambda hp, t: (hp.replace(user_embedding=True), t + [("user_vecs", np.zeros((4, 2)))]),
         r"tensor user_vecs has shape \(4, 2\)"),
        # a second copy would otherwise replace the first
        (lambda hp, t: (hp, t + [("rating_enc_w", np.full((7, 3), 9.0))]),
         r"bad checkpoint header \(tensor rating_enc_w listed twice\)"),
    ], ids=["unknown", "missing", "rows_m", "rows_n", "latent_dim", "no_user_vecs",
            "stray_user_vecs", "user_vecs_k", "duplicate"])
    def test_inconsistent(self, tmp_path, edit, match):
        hp, tensors = edit(td.Hyperparams(latent_dim=3),
                           list(td.init_params(4, 7, 3, seed=0).tensors()))
        path = tmp_path / "model.ckpt"
        self._write(path, hp, tensors)
        with pytest.raises(ValueError, match=f"model.ckpt: {match}"):
            td.load_checkpoint(path)


    def test_bytes_after_last_tensor(self, tmp_path):
        path = tmp_path / "model.ckpt"
        self._write(path, td.Hyperparams(latent_dim=3),
                    list(td.init_params(4, 7, 3, seed=0).tensors()))
        with open(path, "ab") as fh:
            fh.write(bytes(16))
        with pytest.raises(ValueError, match="model.ckpt: 16 bytes after the last tensor"):
            td.load_checkpoint(path)


class TestHyperparams:
    @pytest.mark.parametrize("kw", [
        {"alpha": 1.5}, {"alpha": -0.1}, {"beta": -1.0}, {"corruption": 1.0},
        {"corruption": -0.2}, {"lr": -0.5}, {"epochs": 0}, {"latent_dim": 0},
        {"seed": -1}, {"top_n": 0}, {"weight_decay": -0.1},
    ])
    def test_invalid_rejected(self, kw):
        with pytest.raises(ValueError):
            td.Hyperparams(**kw)

    @pytest.mark.parametrize("name", ["lr", "beta", "weight_decay", "map_decay", "stop_tol"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            td.Hyperparams(**{name: value})

    @pytest.mark.parametrize("patience", [0, -2])
    def test_patience_below_one_rejected(self, patience):
        # with early_stop, such a run stopped after its second epoch
        # whatever the loss did
        with pytest.raises(ValueError, match="patience must be >= 1"):
            td.Hyperparams(patience=patience)
