import math

import numpy as np
import pytest

import trustdae as td
from trustdae.gradcheck import compare, fd_gradients, random_instance, run_suite
from trustdae.model import FlatParams, Row, forward_sampled
from trustdae.objective import backprop_core

from conftest import flat_sample


def empty_targets():
    return (np.array([], dtype=np.int64), np.array([]))


def make_setup(seed=0, beta=0.01, alpha=0.8, q=0.0, decay=0.01, map_decay=None):
    hp = td.Hyperparams(latent_dim=4, alpha=alpha, beta=beta, corruption=q,
                        weight_decay=decay,
                        map_decay=decay if map_decay is None else map_decay)
    params, trace = random_instance(hp, seed=seed)
    return hp, params, trace


class TestLogisticLoss:
    def test_hand_values(self):
        assert math.isclose(td.logistic_loss(1, 0.0), math.log(2), rel_tol=1e-12)
        assert math.isclose(td.logistic_loss(0, 0.0), math.log(2), rel_tol=1e-12)

    def test_limit_to_zero(self):
        assert td.logistic_loss(1, 40.0) < 1e-15
        assert td.logistic_loss(0, -40.0) < 1e-15

    def test_wrong_side_grows_with_the_logit(self):
        # a clamp at 1e-7 would cap both at about 16.1
        assert math.isclose(td.logistic_loss(1, -40.0), 40.0, rel_tol=1e-12)
        assert math.isclose(td.logistic_loss(0, 40.0), 40.0, rel_tol=1e-12)

    def test_extreme_logits_finite(self):
        got = td.logistic_loss(np.array([1.0, 0.0, 1.0, 0.0]),
                               np.array([1000.0, -1000.0, -1000.0, 1000.0]))
        assert np.isfinite(got).all()
        np.testing.assert_array_equal(got, [0.0, 0.0, 1000.0, 1000.0])


class TestCorrelativeTerm:
    def test_exact_reconstruction_is_zero(self):
        z = np.array([0.3, 0.9])
        assert td.correlative_term(z, z, np.eye(2), np.eye(2)) == 0.0

    def test_unit_vector_expansion(self):
        k = 3
        z_r = np.zeros(k)
        z_r[0] = 1.0
        theta1 = np.arange(9, dtype=float).reshape(3, 3) / 10
        got = td.correlative_term(z_r, np.zeros(k), np.eye(k), theta1)
        expect = 1.0 + float((theta1 @ z_r) @ (theta1 @ z_r))
        assert math.isclose(got, expect, rel_tol=1e-12)

    def test_scalar_case(self):
        got = td.correlative_term(np.array([0.4]), np.array([0.2]),
                                  np.array([[1.0]]), np.array([[1.0]]))
        assert math.isclose(got, 0.08, rel_tol=1e-12)


class TestUserLoss:
    def test_recon_only_when_regularizers_off(self):
        hp, params, trace = make_setup(beta=0.0, decay=0.0)
        lb = td.user_loss(params, hp, trace)
        recon = td.logistic_loss(trace.sample.y, trace.logit).sum()
        assert math.isclose(lb.total, recon, rel_tol=1e-12)

    def test_breakdown_identity(self):
        hp, params, trace = make_setup(seed=3)
        lb = td.user_loss(params, hp, trace)
        expect = (lb.rating_recon + lb.trust_recon + hp.beta * lb.correlative
                  + 0.5 * hp.weight_decay * lb.weight_decay
                  + 0.5 * hp.map_decay * lb.map_decay)
        assert math.isclose(lb.total, expect, rel_tol=1e-12)
        assert min(lb.rating_recon, lb.trust_recon, lb.correlative,
                   lb.weight_decay, lb.map_decay) >= 0
        # the step's cross-view term is the reference definition's, bit for bit
        assert lb.correlative == td.correlative_term(*trace.codes, *trace.maps)

    def test_perfect_predictions_give_near_zero_recon(self):
        # steer the decoder bias so every target is hit almost exactly
        hp = td.Hyperparams(latent_dim=2, beta=0.0, corruption=0.0,
                            weight_decay=0.0, map_decay=0.0)
        params = td.init_params(4, 6, 2, seed=0)
        params.rating_dec_w *= 0.0
        params.rating_dec_b[:] = [40.0, 40.0, -40.0, -40.0, 40.0, -40.0]
        idx = np.arange(6)
        y = np.array([1.0, 1.0, 0.0, 0.0, 1.0, 0.0])
        row = Row(np.array([0]), 1.0)
        sample = flat_sample(4, 6, row, row, (idx, y), empty_targets())
        lb = td.user_loss(params, hp, forward_sampled(FlatParams(params), hp, sample))
        assert lb.rating_recon < 1e-6

    def test_decay_only_quadratic_derivative(self):
        # no reconstruction targets, beta=0: d total / d W_ij = lambda/n * W_ij
        hp = td.Hyperparams(latent_dim=4, beta=0.0, corruption=0.0,
                            weight_decay=0.01, map_decay=0.01)
        params = td.init_params(8, 12, 4, seed=1)
        empty_row = Row(np.array([], dtype=np.int64), 1.0)
        sample = flat_sample(8, 12, empty_row, empty_row, empty_targets(), empty_targets())
        trace = forward_sampled(FlatParams(params), hp, sample)
        grads = td.user_gradients(params, hp, trace)
        np.testing.assert_allclose(grads.rating_enc_w,
                                   hp.weight_decay / params.n * params.rating_enc_w,
                                   atol=1e-15)
        np.testing.assert_allclose(grads.map_trust_to_rating,
                                   hp.map_decay / params.n * params.map_trust_to_rating,
                                   atol=1e-15)

    def test_permutation_invariance(self):
        # the rating targets, their decoder rows and biases permuted alike
        hp, params, trace = make_setup(seed=5)
        s = trace.sample
        perm = np.random.default_rng(0).permutation(s.t)
        pos, bpos, y = s.pos.copy(), s.bpos.copy(), s.y.copy()
        pos[s.b + 2:s.b + 2 + s.t] = pos[s.b + 2:][perm]
        bpos[:s.t], y[:s.t] = bpos[perm], y[perm]
        trace2 = forward_sampled(FlatParams(params), hp, s._replace(pos=pos, bpos=bpos, y=y))
        a = td.user_loss(params, hp, trace).total
        b = td.user_loss(params, hp, trace2).total
        assert math.isclose(a, b, rel_tol=1e-12)


class TestUserGradients:
    def test_finite_difference_agreement(self):
        report = run_suite(instances=5, seed0=50)
        assert report.ok, f"max_rel={report.max_rel_err}"
        # the reported relative error covers entries large enough for it
        # to mean something, so it is nonzero on working code
        assert 0.0 < report.max_rel_err < 1e-4

    def test_finite_difference_with_corruption_and_distinct_decays(self):
        hp, params, trace = make_setup(seed=9, q=0.3, decay=0.5, map_decay=0.2)
        analytic = td.user_gradients(params, hp, trace)
        numeric = fd_gradients(params, hp, trace)
        rel, _, fails = compare(analytic, numeric)
        assert fails == 0, rel

    def test_finite_difference_at_saturated_logits(self):
        # in each view, one positive target is pushed below logit -20 and one
        # negative above +20, where a clamped probability would flatten the loss
        hp, params, trace = make_setup(seed=2)
        s = trace.sample
        for y, idx, w, b in ((s.y[:s.t], s.bpos[:s.t], params.rating_dec_w, params.rating_dec_b),
                             (s.y[s.t:], s.bpos[s.t:] - params.m,
                              params.trust_dec_w, params.trust_dec_b)):
            pos, neg = idx[np.flatnonzero(y == 1)[0]], idx[np.flatnonzero(y == 0)[0]]
            b[pos], b[neg] = -25.0, 25.0
            logits = w[[pos, neg]] @ trace.fused + b[[pos, neg]]
            assert logits[0] < -20.0 and logits[1] > 20.0
        trace = forward_sampled(FlatParams(params), hp, s)
        analytic = td.user_gradients(params, hp, trace)
        rel, _, fails = compare(analytic, fd_gradients(params, hp, trace))
        assert fails == 0, rel

    def test_finite_difference_with_user_embedding(self):
        report = run_suite(instances=3, seed0=70, user_embedding=True)
        assert report.ok

    def test_alpha_one_beta_zero_trust_encoder_gets_decay_only(self):
        hp, params, trace = make_setup(seed=11, alpha=1.0, beta=0.0)
        grads = td.user_gradients(params, hp, trace)
        np.testing.assert_array_equal(grads.trust_enc_w,
                                      hp.weight_decay / params.n * params.trust_enc_w)
        np.testing.assert_array_equal(grads.trust_enc_b,
                                      hp.weight_decay / params.n * params.trust_enc_b)

    def test_dropped_inputs_contribute_nothing(self):
        hp, params, trace = make_setup(seed=13, q=0.5, decay=0.0)
        grads = td.user_gradients(params, hp, trace)
        touched = set(trace.sample.pos[:trace.sample.a].tolist())
        for i in range(params.m):
            if i not in touched:
                assert np.all(grads.rating_enc_w[i] == 0.0)

    def test_correlative_gradient_vanishes_at_joint_fixed_point(self):
        # identical encoders and inputs give z_r == z_t; with identity maps
        # both residuals vanish, so only decay remains
        hp = td.Hyperparams(latent_dim=3, alpha=0.5, beta=1.0, corruption=0.0,
                            weight_decay=0.0, map_decay=0.0)
        params = td.init_params(6, 6, 3, seed=2)
        params.trust_enc_w = params.rating_enc_w.copy()
        params.trust_enc_b = params.rating_enc_b.copy()
        row = Row(np.array([1, 4]), 1.0)
        sample = flat_sample(6, 6, row, row, empty_targets(), empty_targets())
        trace = forward_sampled(FlatParams(params), hp, sample)
        assert np.array_equal(*trace.codes)
        grads = td.user_gradients(params, hp, trace)
        for _, arr in grads.tensors():
            assert np.all(arr == 0.0)

    @pytest.mark.parametrize("beta", [0.0, 0.01])
    @pytest.mark.parametrize("user_embedding", [False, True])
    def test_one_piece_per_present_tensor(self, beta, user_embedding):
        # one backward pass for every beta: a gradient row for every row the
        # step reads, the user's only with per-user vectors, one value per
        # decoder bias, and the maps' gradient, exactly zero at beta = 0
        hp = td.Hyperparams(latent_dim=4, beta=beta, user_embedding=user_embedding)
        params, trace = random_instance(hp, seed=23)
        s = trace.sample
        _, (g_rows, g_biases, g_maps) = backprop_core(hp, trace)
        assert len(s.pos) == s.b + 2 + len(s.y) + user_embedding
        assert g_rows.shape == (len(s.pos), 4) and g_biases.shape == s.bpos.shape
        assert g_maps.shape == (2, 4, 4)
        assert np.all(g_maps == 0.0) == (beta == 0.0)

    def test_bit_identical_evaluations(self):
        hp, params, trace = make_setup(seed=17)
        a = td.user_gradients(params, hp, trace)
        b = td.user_gradients(params, hp, trace)
        for (_, x), (_, y) in zip(a.tensors(), b.tensors()):
            assert np.array_equal(x, y)

    def test_non_finite_raises_with_name(self):
        hp, params, trace = make_setup(seed=19)
        params.rating_dec_w[0, 0] = np.nan
        trace.logit = trace.logit.copy()
        trace.logit[0] = np.nan
        with pytest.raises(FloatingPointError, match="rating_dec_w|rating_enc"), \
                np.errstate(invalid="ignore"):
            td.user_gradients(params, hp, trace)
