import math
import os
import subprocess
import sys
import tracemalloc
import weakref

import numpy as np
import pytest

from helpers import (
    cache_nbytes,
    paper_student_config,
    param_count,
    reference_backward,
    reference_forward,
    reference_init_model,
    student_loss_and_grads,
    tiny_student_config,
)

from l2t_hyena import hyena
from l2t_hyena.errors import DataError, NumericalError


class TestInit:
    def test_deterministic(self):
        cfg = paper_student_config(vocab_size=50, dim=8, n_blocks=2, max_seq_len=16,
                                  filter_pos_dim=5, filter_hidden=8)
        p1 = hyena.init_model(cfg, seed=7)
        p2 = hyena.init_model(cfg, seed=7)
        assert set(p1) == set(p2)
        for k in p1:
            assert np.array_equal(p1[k], p2[k]), k

    def test_seed_changes_something(self):
        cfg = paper_student_config(vocab_size=50, dim=8, n_blocks=1, max_seq_len=16,
                                  filter_pos_dim=5, filter_hidden=8)
        p7 = hyena.init_model(cfg, seed=7)
        p8 = hyena.init_model(cfg, seed=8)
        assert any(not np.array_equal(p7[k], p8[k]) for k in p7)

    def test_param_count_matches_hand_count(self):
        # V=10,D=4,blocks=1,order=2,L=8,k=3,P=5,F=8,e=2:
        #   embeddings 40+32, final norm 8, block:
        #   48+12 in-proj, 36 short, 40+8+64+8 filter, 8 decay,
        #   16+4 out-proj, 16 norms, 32+8+32+4 mlp = 336
        cfg = paper_student_config(vocab_size=10, dim=4, n_blocks=1, order=2,
                                  short_kernel=3, max_seq_len=8, filter_pos_dim=5,
                                  filter_hidden=8, mlp_expansion=2)
        assert param_count(cfg) == 416
        params = hyena.init_model(cfg, seed=0)
        assert sum(a.size for a in params.values()) == 416

    def test_shapes_match_declared(self):
        cfg = tiny_student_config()
        params = hyena.init_model(cfg, seed=1)
        shapes = hyena.param_shapes(cfg)
        assert set(params) == set(shapes)
        for k, s in shapes.items():
            assert params[k].shape == s, k

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("cfg", [
        paper_student_config(vocab_size=10_000),
        paper_student_config(vocab_size=50, dim=16, n_blocks=3, order=3, max_seq_len=32),
    ], ids=["paper-shape", "order-3"])
    def test_matches_reference_bit_for_bit(self, cfg, dtype):
        params = hyena.init_model(cfg, seed=11, dtype=dtype)
        ref = reference_init_model(cfg, seed=11, dtype=dtype)
        assert list(params) == list(ref)
        for k in ref:
            assert params[k].dtype == ref[k].dtype, k
            assert np.array_equal(params[k], ref[k]), k

    def test_block_params_takes_only_its_own_block(self):
        cfg = tiny_student_config(n_blocks=12)
        params = hyena.init_model(cfg, seed=4)
        fields = [k.partition(".")[2] for k in params if k.startswith("block0.")]
        assert len(fields) == 18
        for i in range(cfg.n_blocks):
            bp = hyena.block_params(params, i)
            assert list(bp) == fields  # block1. must not pick up block10.*
            for f in fields:
                assert bp[f] is params[f"block{i}.{f}"]

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
        params["tok_emb"][:] = 0.0
        params["pos_emb"][:] = 0.0
        tokens = np.zeros((2, 6), np.int64)
        _, blocks, *_ = hyena.forward(tokens, params, cfg, want_cache=True)
        _, z, streams, _, convs, *_ = blocks[0]
        for y in [z, *streams, *convs]:
            assert np.abs(y).max() == 0.0

    def test_order_one_collapses_to_plain_convolution(self):
        cfg = tiny_student_config(order=1)
        params = hyena.init_model(cfg, seed=3, dtype=np.float64)
        bp = hyena.block_params(params, 0)
        D, L = cfg.dim, 6
        # Force the gate stream to a constant 1 and make every short kernel
        # the identity tap, so the operator is out_proj(conv(v, h)); zero the
        # MLP's output so the block is x + operator(norm1(x)).
        bp["w_in"][:, D:] = 0.0
        bp["b_in"][D:] = 1.0
        bp["short_kernels"][:] = 0.0
        bp["short_kernels"][:, 0] = 1.0
        bp["mlp_w2"][:] = 0.0
        bp["mlp_b2"][:] = 0.0
        rng = np.random.default_rng(4)
        tokens = rng.integers(0, cfg.vocab_size, (2, L))
        logits = hyena.forward(tokens, params, cfg)
        x = params["tok_emb"][tokens] + params["pos_emb"][:L]
        u, _ = hyena._layer_norm(x, bp["norm1_g"], bp["norm1_b"])
        h, _ = hyena.generate_filters(bp, L)
        v = u @ bp["w_in"][:, :D] + bp["b_in"][:D]
        x = x + (hyena.fft_causal_conv(v, h[0]) @ bp["w_out"] + bp["b_out"])
        xf, _ = hyena._layer_norm(x, params["final_norm_g"], params["final_norm_b"])
        expected = xf @ params["tok_emb"].T
        assert np.allclose(logits, expected, atol=1e-12)

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
        with pytest.raises(DataError, match="token ids must lie"):
            hyena.forward(np.array([[7]]), params, cfg)

    def test_too_long_sequence(self):
        cfg = tiny_student_config(max_seq_len=4)
        params = hyena.init_model(cfg, seed=8)
        with pytest.raises(ValueError, match="exceeds max_seq_len"):
            hyena.forward(np.zeros((1, 5), dtype=int), params, cfg)

    def test_logits_are_c_contiguous(self):
        # loss_and_dlogits overwrites the logits through a row view.
        cfg = tiny_student_config(vocab_size=9, max_seq_len=8)
        params = hyena.init_model(cfg, seed=6)
        tokens = np.random.default_rng(3).integers(0, 9, (3, 8))
        for logits in (hyena.forward(tokens, params, cfg),
                       hyena.forward(tokens, params, cfg, want_cache=True)[-1]):
            assert logits.shape == (3, 8, 9)
            assert logits.flags.c_contiguous

    def test_full_size_logit_shape(self):
        cfg = paper_student_config(vocab_size=10_000)
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

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", [(4, 64, 256), (2, 33, 64), (3, 7, 5)])
    def test_matches_mean_var_form_bit_for_bit(self, dtype, shape):
        # One centred copy with np.var's own arithmetic gives x.var's bits.
        rng = np.random.default_rng(21)
        x = (rng.standard_normal(shape) * 3.0 + 1.5).astype(dtype)
        g = rng.standard_normal(shape[-1]).astype(dtype)
        b = rng.standard_normal(shape[-1]).astype(dtype)
        y, (xhat, inv) = hyena._layer_norm(x, g, b)
        mu = x.mean(axis=-1, keepdims=True)
        ref_inv = 1.0 / np.sqrt(x.var(axis=-1, keepdims=True) + np.asarray(hyena.LN_EPS, dtype))
        ref_xhat = (x - mu) * ref_inv
        assert np.array_equal(inv, ref_inv)
        assert np.array_equal(xhat, ref_xhat)
        assert np.array_equal(y, g * ref_xhat + b)
        assert y.dtype == xhat.dtype == inv.dtype == dtype


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
        with pytest.raises(ValueError, match="vs targets"):
            hyena.softmax_xent(np.zeros((2, 3, 4)), np.zeros((2, 4), dtype=int))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_eval_ce_equals_training_ce(self, dtype):
        cfg = tiny_student_config()
        params = hyena.init_model(cfg, seed=11, dtype=dtype)
        rng = np.random.default_rng(7)
        tokens = rng.integers(0, 7, (3, 6))
        targets = rng.integers(0, 7, (3, 6))
        logits = hyena.forward(tokens, params, cfg)
        _, ce, _, _ = student_loss_and_grads(tokens, targets, params, cfg, 0.4, 0.01)
        assert hyena.cross_entropy(logits, targets) == ce

    def test_logit_l2(self):
        def l2(logits):
            sx = hyena.softmax_xent(logits, np.zeros(logits.shape[:2], dtype=int))
            return hyena.loss_and_dlogits(logits, sx, 0.5, 0.01)[2]

        assert l2(np.zeros((2, 3, 4))) == 0.0
        assert l2(np.full((2, 3, 4), 2.0)) == 4.0
        rng = np.random.default_rng(5)
        x = rng.standard_normal((2, 2, 3))
        assert l2(x.copy()) == pytest.approx((x ** 2).mean(), abs=0)

    def test_non_contiguous_logits_rejected_untouched(self):
        # A reshape of a transposed view is a copy: the dlogits written into
        # it would be lost, and the logits read back as if they were dlogits.
        rng = np.random.default_rng(7)
        logits = rng.standard_normal((5, 3, 7)).transpose(1, 0, 2)
        before = logits.copy()
        sx = hyena.softmax_xent(logits, rng.integers(0, 7, (3, 5)))
        with pytest.raises(ValueError, match="C-contiguous"):
            hyena.loss_and_dlogits(logits, sx, 0.5, 0.01)
        assert np.array_equal(logits, before)


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
        loss, ce, l2, _ = student_loss_and_grads(
            tokens, targets, params, cfg, lam=0.0, beta=0.01
        )
        assert loss == ce
        loss0, ce0, _, _ = student_loss_and_grads(
            tokens, targets, params, cfg, lam=0.5, beta=0.0
        )
        assert loss0 == ce0

    def test_beta_linearity(self):
        cfg, params, tokens, targets = self._setup()
        _, ce1, _, _ = student_loss_and_grads(tokens, targets, params, cfg, 0.5, 0.02)
        l1, _, _, _ = student_loss_and_grads(tokens, targets, params, cfg, 0.5, 0.02)
        l2_, _, _, _ = student_loss_and_grads(tokens, targets, params, cfg, 0.5, 0.04)
        assert (l2_ - ce1) == pytest.approx(2.0 * (l1 - ce1), rel=1e-12)

    def test_grads_keyed_like_params(self):
        cfg, params, tokens, targets = self._setup()
        _, _, _, grads = student_loss_and_grads(
            tokens, targets, params, cfg, 0.3, 0.01
        )
        assert set(grads) == set(params)
        for k in params:
            assert grads[k].shape == params[k].shape

    def test_non_finite_raises(self):
        cfg, params, tokens, targets = self._setup()
        params["tok_emb"][0, 0] = np.nan
        with pytest.raises(NumericalError):
            student_loss_and_grads(tokens, targets, params, cfg, 0.3, 0.01)

    def test_cache_serves_one_reverse_pass(self):
        # The reverse pass empties the cache; a second pass over it, or a
        # cache of another depth, is refused rather than skipping blocks.
        cfg, params, tokens, targets = self._setup()
        cache = hyena.forward(tokens, params, cfg, want_cache=True)
        sx = hyena.softmax_xent(cache[-1], targets)
        hyena.loss_and_grads_from_logits(cache, sx, params, 0.3, 0.01)
        assert cache == []
        with pytest.raises(ValueError, match="one reverse pass"):
            hyena.loss_and_grads_from_logits(cache, sx, params, 0.3, 0.01)

        deep = tiny_student_config(n_blocks=cfg.n_blocks + 1)
        deep_params = hyena.init_model(deep, seed=10, dtype=np.float64)
        cache = hyena.forward(tokens, deep_params, deep, want_cache=True)
        logits, kept = cache[-1], cache[-1].copy()
        n = len(cache[1])
        with pytest.raises(ValueError, match="one reverse pass"):
            hyena.loss_and_grads_from_logits(cache, sx, params, 0.3, 0.01)
        assert len(cache) == 4 and len(cache[1]) == n and cache[-1] is logits
        assert np.array_equal(logits, kept)

    def test_block_mlp_cache_freed_before_its_operator_pass(self, monkeypatch):
        # Each block's u1 and phi are released after norm2's reverse pass, so
        # none is alive while its own operator's reverse pass runs; blocks
        # still waiting in the cache keep theirs.
        cfg = tiny_student_config(dim=8, n_blocks=3, order=2)
        params = hyena.init_model(cfg, seed=13)
        rng = np.random.default_rng(14)
        tokens = rng.integers(0, cfg.vocab_size, (2, 6))
        targets = rng.integers(0, cfg.vocab_size, (2, 6))
        cache = hyena.forward(tokens, params, cfg, want_cache=True)
        sx = hyena.softmax_xent(cache[-1], targets)
        refs = [(weakref.ref(b[6]), weakref.ref(b[7])) for b in cache[1]]
        alive = []
        conv_backward = hyena._fft_causal_conv_backward

        def recording(*args):
            alive.append([r() is not None for pair in refs for r in pair])
            return conv_backward(*args)

        monkeypatch.setattr(hyena, "_fft_causal_conv_backward", recording)
        hyena.loss_and_grads_from_logits(cache, sx, params, 0.3, 0.01)
        assert len(alive) == cfg.n_blocks * cfg.order
        for call, flags in enumerate(alive):
            block = cfg.n_blocks - 1 - call // cfg.order
            assert flags == [True] * 2 * block + [False] * 2 * (cfg.n_blocks - block), call

    def test_head_arrays_freed_before_first_block_reverse_pass(self, monkeypatch):
        # The dlogits and the final norm's xhat have no reader after the
        # final norm's reverse pass; the spent cache keeps no reference to
        # either.
        cfg = tiny_student_config(dim=8, n_blocks=2)
        params = hyena.init_model(cfg, seed=13)
        rng = np.random.default_rng(15)
        tokens = rng.integers(0, cfg.vocab_size, (2, 6))
        targets = rng.integers(0, cfg.vocab_size, (2, 6))
        cache = hyena.forward(tokens, params, cfg, want_cache=True)
        sx = hyena.softmax_xent(cache[-1], targets)
        refs = [weakref.ref(cache[3]), weakref.ref(cache[2][0])]  # logits, xhat
        alive = []
        gelu_backward = hyena._gelu_backward

        def recording(*args):
            alive.append([r() is not None for r in refs])
            return gelu_backward(*args)

        monkeypatch.setattr(hyena, "_gelu_backward", recording)
        hyena.loss_and_grads_from_logits(cache, sx, params, 0.3, 0.01)
        assert alive == [[False, False]] * cfg.n_blocks

    def test_reverse_pass_peak_within_one_mlp_activation_of_cache(self):
        # The reverse pass frees each cached array and each temporary at its
        # last reader, so at its peak it holds at most one (B, L, e*D) array
        # beyond the whole cache: e units of B*L*D. An order that keeps
        # dx @ w2.T and u1 * phi alive together at the last block's MLP
        # reads 9.2 units over at this shape.
        B, L, D, V, e = 8, 256, 32, 64, 4
        cfg = tiny_student_config(vocab_size=V, dim=D, n_blocks=2, max_seq_len=L,
                                  mlp_expansion=e)
        params = hyena.init_model(cfg, seed=3)
        tracemalloc.start()
        try:
            tokens, targets = np.random.default_rng(4).integers(0, V, (2, B, L))
            cache = hyena.forward(tokens, params, cfg, want_cache=True)
            sx = hyena.softmax_xent(cache[-1], targets)
            held = cache_nbytes(cache)
            outside = tracemalloc.get_traced_memory()[0] - held
            tracemalloc.reset_peak()
            hyena.loss_and_grads_from_logits(cache, sx, params, 0.3, 0.01)
            peak = tracemalloc.get_traced_memory()[1] - outside
        finally:
            tracemalloc.stop()
        assert peak <= held + e * B * L * D * 4

    @staticmethod
    def _assert_matches_reference(cfg, dtype, tokens, targets, case):
        params = hyena.init_model(cfg, seed=12, dtype=dtype)
        loss, ce, l2, grads = student_loss_and_grads(tokens, targets, params, cfg, 0.4, 0.01)
        ref_logits, ref_cache = reference_forward(tokens, params, cfg)
        logits = hyena.forward(tokens, params, cfg)
        assert np.array_equal(logits, ref_logits), case
        sx = hyena.softmax_xent(ref_logits, targets)
        ref_losses = list(hyena.loss_and_dlogits(ref_logits, sx, 0.4, 0.01))
        ref_grads = reference_backward(ref_logits, ref_cache, params)
        assert [loss, ce, l2] == ref_losses, case
        assert list(grads) == list(ref_grads), case
        for k in grads:
            assert grads[k].dtype == dtype, (case, k)
            assert np.array_equal(grads[k], ref_grads[k]), (case, k)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_cached_gelu_matches_reference_bit_for_bit(self, dtype):
        # The block cache keeps the normal CDF instead of GELU(u1), each
        # block's passes run inline and each dense product is one 2-D GEMM;
        # logits, loss and every gradient, in key order, must equal the
        # references' from-scratch formulas and 3-D products exactly.
        rng = np.random.default_rng(8)
        tokens = rng.integers(0, 7, (3, 6))
        targets = rng.integers(0, 7, (3, 6))
        for order in (1, 2, 3):
            for short_kernel in (1, 3, 5):
                for n_blocks in (1, 3):
                    cfg = tiny_student_config(dim=8, n_blocks=n_blocks, order=order,
                                              short_kernel=short_kernel)
                    self._assert_matches_reference(
                        cfg, dtype, tokens, targets,
                        f"order={order} k={short_kernel} blocks={n_blocks}",
                    )

    @pytest.mark.parametrize("batch, seq_len, vocab", [(4, 64, 300), (32, 32, 66)],
                             ids=["B4-L64-V300", "smoke-B32-L32-V66"])
    def test_matches_reference_bit_for_bit_at_blas_shapes(self, batch, seq_len, vocab):
        # Shapes whose products take OpenBLAS's blocked kernels, where a
        # (B*L, K) GEMM and B stacked (L, K) GEMMs could split the work
        # differently; the second is the README smoke run's.
        cfg = paper_student_config(vocab, dim=64, n_blocks=2, max_seq_len=seq_len)
        rng = np.random.default_rng(9)
        tokens = rng.integers(0, vocab, (batch, seq_len))
        targets = rng.integers(0, vocab, (batch, seq_len))
        self._assert_matches_reference(cfg, np.float32, tokens, targets,
                                       f"B={batch} L={seq_len} V={vocab}")

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("order", [2, 3])
    def test_cache_nbytes_closed_form(self, order, dtype):
        # What forward keeps for the reverse pass, byte for byte: per block
        # the layer norms, z and its streams, the filter net, convs, u1 and
        # phi; then the tokens, the final norm and the logits.
        cfg = tiny_student_config(vocab_size=11, dim=8, n_blocks=2, order=order,
                                  max_seq_len=10, filter_pos_dim=5, filter_hidden=6,
                                  mlp_expansion=3)
        params = hyena.init_model(cfg, seed=5, dtype=dtype)
        B, L = 3, 10
        tokens = np.random.default_rng(6).integers(0, 11, (B, L))
        cache = hyena.forward(tokens, params, cfg, want_cache=True)
        s = np.dtype(dtype).itemsize
        D, N, e = cfg.dim, cfg.order, cfg.mlp_expansion
        P, F = cfg.filter_pos_dim, cfg.filter_hidden
        block = s * (B * L * D * (3 * N + 4 + 2 * e) + 2 * B * L + L * P
                     + 2 * L * F + 2 * N * L * D)
        rest = tokens.nbytes + s * (B * L * D + B * L + B * L * cfg.vocab_size)
        assert cache_nbytes(cache) == cfg.n_blocks * block + rest


# The tied head's dxf = dlogits @ tok_emb has the vocabulary as its inner
# dimension; past K = 4096 OpenBLAS splits such a float32 product differently
# on 1 and 2 threads (ROADMAP item 11).
_GEMM_CHILD = """
import hashlib
import numpy as np
from l2t_hyena import hyena
rng = np.random.default_rng(11)
x = rng.standard_normal((1, 64, 9847)).astype(np.float32)
w = rng.standard_normal((9847, 16)).astype(np.float32)
print(hashlib.sha256(hyena._gemm(x, w).tobytes()).hexdigest())
"""


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="needs 2 CPUs for 2 BLAS threads")
@pytest.mark.xfail(strict=False, reason="ROADMAP item 11: a float32 GEMM with K > 4096 "
                   "changes its bits with the BLAS thread count")
def test_gemm_bits_do_not_depend_on_blas_thread_count():
    src = os.path.dirname(os.path.dirname(hyena.__file__))
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-c", _GEMM_CHILD], capture_output=True,
                              text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        digests.append(proc.stdout.strip())
    assert digests[0] == digests[1]


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
