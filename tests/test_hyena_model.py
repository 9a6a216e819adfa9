import math

import numpy as np
import pytest

from helpers import tiny_student_config

from l2t_hyena import hyena
from l2t_hyena.errors import NumericalError, ShapeError, VocabError


class TestInit:
    def test_deterministic(self):
        cfg = hyena.HyenaConfig(vocab_size=50, dim=8, n_blocks=2, max_seq_len=16,
                                filter_pos_dim=5, filter_hidden=8)
        p1 = hyena.init_model(cfg, seed=7)
        p2 = hyena.init_model(cfg, seed=7)
        assert set(p1) == set(p2)
        for k in p1:
            assert np.array_equal(p1[k], p2[k]), k

    def test_seed_changes_something(self):
        cfg = hyena.HyenaConfig(vocab_size=50, dim=8, n_blocks=1, max_seq_len=16,
                                filter_pos_dim=5, filter_hidden=8)
        p7 = hyena.init_model(cfg, seed=7)
        p8 = hyena.init_model(cfg, seed=8)
        assert any(not np.array_equal(p7[k], p8[k]) for k in p7)

    def test_param_count_matches_hand_count(self):
        # V=10,D=4,blocks=1,order=2,L=8,k=3,P=5,F=8,e=2:
        #   embeddings 40+32, final norm 8, block:
        #   48+12 in-proj, 36 short, 40+8+64+8 filter, 8 decay,
        #   16+4 out-proj, 16 norms, 32+8+32+4 mlp = 336
        cfg = hyena.HyenaConfig(vocab_size=10, dim=4, n_blocks=1, order=2,
                                short_kernel=3, max_seq_len=8, filter_pos_dim=5,
                                filter_hidden=8, mlp_expansion=2)
        assert hyena.param_count(cfg) == 416
        params = hyena.init_model(cfg, seed=0)
        assert sum(a.size for a in params.values()) == 416

    def test_shapes_match_declared(self):
        cfg = tiny_student_config()
        params = hyena.init_model(cfg, seed=1)
        shapes = hyena.param_shapes(cfg)
        assert set(params) == set(shapes)
        for k, s in shapes.items():
            assert params[k].shape == s, k

    def test_decay_positive_and_log_spaced(self):
        cfg = tiny_student_config()
        params = hyena.init_model(cfg, seed=1)
        d = params["block0.decay"]
        assert np.all(d > 0)
        assert d.min() == pytest.approx(cfg.decay_fastest, rel=1e-5)
        assert d.max() == pytest.approx(cfg.decay_slowest, rel=1e-5)


class TestOperator:
    def test_zero_input_zero_output_with_zero_biases(self):
        cfg = tiny_student_config()
        params = hyena.init_model(cfg, seed=2)
        bp = hyena.block_params(params, 0)
        u = np.zeros((2, 6, 4), np.float32)
        y = hyena.hyena_operator(u, bp, cfg.order)
        assert np.abs(y).max() == 0.0

    def test_order_one_collapses_to_plain_convolution(self):
        cfg = tiny_student_config(order=1)
        params = hyena.init_model(cfg, seed=3, dtype=np.float64)
        bp = hyena.block_params(params, 0)
        D = cfg.dim
        # Force the gate stream to a constant 1 and make every short kernel
        # the identity tap, so the operator is out_proj(conv(v, h)).
        bp["w_in"][:, D:] = 0.0
        bp["b_in"][D:] = 1.0
        bp["short_kernels"][:] = 0.0
        bp["short_kernels"][:, 0] = 1.0
        rng = np.random.default_rng(4)
        u = rng.standard_normal((2, 6, D))
        y = hyena.hyena_operator(u, bp, cfg.order)
        h, _ = hyena.generate_filters(
            bp["filt_w1"], bp["filt_b1"], bp["filt_w2"], bp["filt_b2"],
            bp["decay"], 6,
        )
        v = u @ bp["w_in"][:, :D]
        expected = hyena.fft_causal_conv(v, h[0]) @ bp["w_out"] + bp["b_out"]
        assert np.allclose(y, expected, atol=1e-12)

    def test_causality_single_perturbation(self):
        for seed in range(6):
            cfg = tiny_student_config(vocab_size=11, max_seq_len=10)
            params = hyena.init_model(cfg, seed=seed)
            rng = np.random.default_rng(100 + seed)
            tokens = rng.integers(0, 11, (2, 10))
            t = int(rng.integers(1, 10))
            logits = hyena.forward(tokens, params, cfg)
            perturbed = tokens.copy()
            perturbed[0, t] = (perturbed[0, t] + 1) % 11
            logits2 = hyena.forward(perturbed, params, cfg)
            before = np.abs(logits2[0, :t] - logits[0, :t]).max()
            scale = np.abs(logits[0, :t]).max()
            assert before <= 1e-6 * max(scale, 1.0)
            # The perturbed position itself must react (model is not degenerate).
            assert np.abs(logits2[0, t:] - logits[0, t:]).max() > 0


class TestForward:
    def test_single_token_shape_finite(self):
        cfg = tiny_student_config(max_seq_len=6)
        params = hyena.init_model(cfg, seed=5)
        logits = hyena.forward(np.array([[3]]), params, cfg)
        assert logits.shape == (1, 1, 7)
        assert np.all(np.isfinite(logits))

    def test_identical_rows_identical_logits(self):
        cfg = tiny_student_config(vocab_size=9, max_seq_len=8)
        params = hyena.init_model(cfg, seed=6)
        rng = np.random.default_rng(0)
        row = rng.integers(0, 9, (1, 8))
        tokens = np.concatenate([row, rng.integers(0, 9, (2, 8)), row], axis=0)
        logits = hyena.forward(tokens, params, cfg)
        assert np.array_equal(logits[0], logits[3])

    def test_bit_identical_repeat(self):
        cfg = tiny_student_config(max_seq_len=6)
        params = hyena.init_model(cfg, seed=7)
        tokens = np.random.default_rng(1).integers(0, 7, (3, 6))
        a = hyena.forward(tokens, params, cfg)
        b = hyena.forward(tokens, params, cfg)
        assert np.array_equal(a, b)

    def test_vocab_error(self):
        cfg = tiny_student_config()
        params = hyena.init_model(cfg, seed=8)
        with pytest.raises(VocabError):
            hyena.forward(np.array([[7]]), params, cfg)

    def test_too_long_sequence(self):
        cfg = tiny_student_config(max_seq_len=4)
        params = hyena.init_model(cfg, seed=8)
        with pytest.raises(ShapeError):
            hyena.forward(np.zeros((1, 5), dtype=int), params, cfg)

    def test_full_size_logit_shape(self):
        cfg = hyena.HyenaConfig(vocab_size=10_000)
        params = hyena.init_model(cfg, seed=9)
        tokens = np.random.default_rng(2).integers(0, 10_000, (128, 64))
        logits = hyena.forward(tokens, params, cfg)
        assert logits.shape == (128, 64, 10_000)


class TestLayerNormContract:
    def test_normalized_moments(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((4, 6, 32)).astype(np.float32) * 3.0 + 1.5
        g = np.ones(32, np.float32)
        b = np.zeros(32, np.float32)
        _, (xhat, _) = hyena._layer_norm(x, g, b)
        assert np.abs(xhat.mean(axis=-1)).max() <= 1e-5
        assert np.abs(xhat.var(axis=-1) - 1.0).max() <= 1e-3


class TestLosses:
    def test_uniform_two_way(self):
        logits = np.zeros((1, 1, 2))
        assert hyena.cross_entropy(logits, np.array([[0]])) == pytest.approx(
            math.log(2.0), abs=1e-12
        )

    def test_saturated_target(self):
        logits = np.zeros((1, 1, 10))
        logits[0, 0, 3] = 100.0
        assert hyena.cross_entropy(logits, np.array([[3]])) < 1e-40

    def test_matches_naive_softmax_log(self):
        rng = np.random.default_rng(4)
        logits = rng.standard_normal((1, 2, 3))
        targets = rng.integers(0, 3, (1, 2))
        probs = np.exp(logits) / np.exp(logits).sum(-1, keepdims=True)
        naive = -np.log(
            np.take_along_axis(probs, targets[..., None], -1)[..., 0]
        ).mean()
        assert hyena.cross_entropy(logits, targets) == pytest.approx(naive, abs=1e-12)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            hyena.softmax_xent(np.zeros((2, 3, 4)), np.zeros((2, 4), dtype=int))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_eval_ce_equals_training_ce(self, dtype):
        cfg = tiny_student_config()
        params = hyena.init_model(cfg, seed=11, dtype=dtype)
        rng = np.random.default_rng(7)
        tokens = rng.integers(0, 7, (3, 6))
        targets = rng.integers(0, 7, (3, 6))
        logits = hyena.forward(tokens, params, cfg)
        _, ce, _, _ = hyena.student_loss_and_grads(tokens, targets, params, cfg,
                                                   0.4, 0.01)
        assert hyena.cross_entropy(logits, targets) == ce

    def test_logit_l2(self):
        assert hyena.logit_l2(np.zeros((2, 3, 4))) == 0.0
        assert hyena.logit_l2(np.full((2, 3, 4), 2.0)) == 4.0
        rng = np.random.default_rng(5)
        x = rng.standard_normal((2, 2, 3))
        assert hyena.logit_l2(x) == pytest.approx((x ** 2).mean(), abs=0)


class TestStudentLoss:
    def _setup(self):
        cfg = tiny_student_config()
        params = hyena.init_model(cfg, seed=10, dtype=np.float64)
        rng = np.random.default_rng(6)
        tokens = rng.integers(0, 7, (2, 6))
        targets = rng.integers(0, 7, (2, 6))
        return cfg, params, tokens, targets

    def test_baseline_reduction(self):
        cfg, params, tokens, targets = self._setup()
        loss, ce, l2, _ = hyena.student_loss_and_grads(
            tokens, targets, params, cfg, lam=None, beta=0.01
        )
        assert loss == ce
        loss0, ce0, _, _ = hyena.student_loss_and_grads(
            tokens, targets, params, cfg, lam=0.5, beta=0.0
        )
        assert loss0 == ce0

    def test_beta_linearity(self):
        cfg, params, tokens, targets = self._setup()
        _, ce1, _, _ = hyena.student_loss_and_grads(tokens, targets, params, cfg, 0.5, 0.02)
        l1, _, _, _ = hyena.student_loss_and_grads(tokens, targets, params, cfg, 0.5, 0.02)
        l2_, _, _, _ = hyena.student_loss_and_grads(tokens, targets, params, cfg, 0.5, 0.04)
        assert (l2_ - ce1) == pytest.approx(2.0 * (l1 - ce1), rel=1e-12)

    def test_grads_keyed_like_params(self):
        cfg, params, tokens, targets = self._setup()
        _, _, _, grads = hyena.student_loss_and_grads(
            tokens, targets, params, cfg, 0.3, 0.01
        )
        assert set(grads) == set(params)
        for k in params:
            assert grads[k].shape == params[k].shape

    def test_non_finite_raises(self):
        cfg, params, tokens, targets = self._setup()
        params["tok_emb"][0, 0] = np.nan
        with pytest.raises(NumericalError):
            hyena.student_loss_and_grads(tokens, targets, params, cfg, 0.3, 0.01)


class TestWeightTying:
    def test_no_separate_output_matrix(self):
        cfg = tiny_student_config()
        shapes = hyena.param_shapes(cfg)
        vxd = [k for k, s in shapes.items() if s == (cfg.vocab_size, cfg.dim)]
        assert vxd == ["tok_emb"]

    def test_embedding_perturbation_moves_output_side(self):
        cfg = tiny_student_config()
        params = hyena.init_model(cfg, seed=11)
        tokens = np.full((1, 3), 2)
        logits = hyena.forward(tokens, params, cfg)
        # Token 5 never appears in the input, so only the tied output
        # projection can react to a change in its embedding row.
        params["tok_emb"][5, 1] += 0.3
        logits2 = hyena.forward(tokens, params, cfg)
        assert np.abs(logits2[..., 5] - logits[..., 5]).max() > 1e-4
        assert np.allclose(
            np.delete(logits, 5, axis=-1), np.delete(logits2, 5, axis=-1)
        )
