import hashlib
import math

import numpy as np
import pytest

from l2t_hyena import config, corpus, dln, hyena, trainer
from l2t_hyena.errors import NumericalError


def _params_checksum(params):
    h = hashlib.sha256()
    for k in sorted(params):
        h.update(k.encode())
        h.update(np.ascontiguousarray(params[k]).tobytes())
    return h.hexdigest()


class TestAdamW:
    def test_zero_gradient_decay_factor(self):
        cfg = trainer.OptimizerConfig(learning_rate=2e-4, weight_decay=0.15)
        params = {"w": np.array([1.0, -2.0, 0.5])}
        state = trainer.AdamWState(params)
        grads = {"w": np.zeros(3)}
        expected = params["w"].copy()
        for _ in range(100):
            prev = params["w"].copy()
            trainer.adamw_step(params, grads, state, cfg, lr_now=2e-4)
            step_expected = prev * (1.0 - 2e-4 * 0.15)
            assert np.abs(params["w"] - step_expected).max() <= 1e-12
            expected *= 1.0 - 2e-4 * 0.15
        assert np.allclose(params["w"], expected, rtol=1e-10)

    def test_first_step_unit_gradient(self):
        cfg = trainer.OptimizerConfig(learning_rate=1e-3, weight_decay=0.0)
        params = {"w": np.array([0.0])}
        state = trainer.AdamWState(params)
        trainer.adamw_step(params, {"w": np.array([1.0])}, state, cfg, lr_now=1e-3)
        assert params["w"][0] == pytest.approx(-1e-3 / (1.0 + 1e-8), rel=1e-12)

    def test_constant_gradient_sign_limit(self):
        cfg = trainer.OptimizerConfig(learning_rate=1e-3, weight_decay=0.0)
        params = {"w": np.array([0.0])}
        state = trainer.AdamWState(params)
        g = {"w": np.array([0.37])}
        prev = 0.0
        for t in range(10_000):
            trainer.adamw_step(params, g, state, cfg, lr_now=1e-3)
            if t == 9_999:
                delta = params["w"][0] - prev
            prev = params["w"][0]
        assert abs(delta / 1e-3 + 1.0) < 1e-3  # update -> -lr * sign(g)

    def test_non_finite_gradient_rejected(self):
        cfg = trainer.OptimizerConfig(learning_rate=1e-3, weight_decay=0.0)
        params = {"w": np.zeros(2)}
        state = trainer.AdamWState(params)
        with pytest.raises(NumericalError):
            trainer.adamw_step(params, {"w": np.array([1.0, np.nan])}, state, cfg, 1e-3)

    def test_weight_tying_survives_update(self):
        params = {"tok_emb": np.ones((3, 2), np.float32)}
        view = params["tok_emb"]
        cfg = trainer.OptimizerConfig(learning_rate=1e-2, weight_decay=0.1)
        state = trainer.AdamWState(params)
        trainer.adamw_step(params, {"tok_emb": np.ones((3, 2), np.float32)},
                           state, cfg, 1e-2)
        assert params["tok_emb"] is view  # updated in place, storage shared


class TestCosineWarmup:
    @pytest.mark.parametrize(
        "lr_max,lr_min,warmup,total",
        [(2e-4, 2e-6, 226, 1130), (1.0, 0.0, 5, 50), (3e-3, 1e-5, 1, 7)],
    )
    def test_boundary_values(self, lr_max, lr_min, warmup, total):
        assert abs(trainer.cosine_warmup_lr(warmup, total, warmup, lr_max, lr_min)
                   - lr_max) <= 1e-12 * lr_max
        assert abs(trainer.cosine_warmup_lr(total, total, warmup, lr_max, lr_min)
                   - lr_min) <= 1e-12 * max(lr_min, lr_max)
        mid = warmup + (total - warmup) // 2
        if (total - warmup) % 2 == 0:
            expected_mid = lr_min + 0.5 * (lr_max - lr_min)
            assert abs(trainer.cosine_warmup_lr(mid, total, warmup, lr_max, lr_min)
                       - expected_mid) <= 1e-12 * lr_max

    def test_linear_ramp(self):
        for step in range(10):
            lr = trainer.cosine_warmup_lr(step, 100, 10, 1.0, 0.01)
            assert lr == pytest.approx((step + 1) / 10, rel=1e-12)

    def test_monotone_decay_after_warmup(self):
        lrs = [trainer.cosine_warmup_lr(s, 50, 5, 1.0, 0.01) for s in range(5, 51)]
        assert all(a >= b for a, b in zip(lrs, lrs[1:]))


class TestClip:
    def test_under_limit_unchanged(self):
        grads = {"a": np.array([3.0, 4.0])}
        _, norm = trainer.clip_grad_norm(grads, 10.0)
        assert norm == pytest.approx(5.0, abs=1e-12)
        assert np.array_equal(grads["a"], [3.0, 4.0])

    def test_over_limit_scaled(self):
        grads = {"a": np.array([3.0, 4.0])}
        _, norm = trainer.clip_grad_norm(grads, 1.0)
        assert norm == pytest.approx(5.0, abs=1e-12)
        assert np.allclose(grads["a"], [0.6, 0.8], rtol=1e-12)

    def test_global_across_arrays(self):
        grads = {"a": np.array([3.0]), "b": np.array([4.0])}
        trainer.clip_grad_norm(grads, 1.0)
        assert grads["a"][0] == pytest.approx(0.6, rel=1e-12)
        assert grads["b"][0] == pytest.approx(0.8, rel=1e-12)

    def test_post_clip_norm_law(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            grads = {
                f"g{i}": rng.standard_normal(rng.integers(1, 20))
                for i in range(int(rng.integers(1, 5)))
            }
            max_norm = float(rng.uniform(0.1, 5.0))
            _, total = trainer.clip_grad_norm(grads, max_norm)
            after = math.sqrt(sum(float(np.sum(g ** 2)) for g in grads.values()))
            assert after <= total + 1e-12
            assert after == pytest.approx(min(total, max_norm), rel=1e-6)


class TestEvaluate:
    def _uniform_model(self, V=10):
        cfg = hyena.HyenaConfig(vocab_size=V, dim=4, n_blocks=1, max_seq_len=4,
                                filter_pos_dim=5, filter_hidden=4, mlp_expansion=2)
        params = hyena.init_model(cfg, seed=0)
        params["tok_emb"][:] = 0.0  # tied output projection -> all-zero logits
        return cfg, params

    def test_uniform_model_perplexity_is_vocab_size(self):
        cfg, params = self._uniform_model(V=10)
        ids = np.random.default_rng(1).integers(0, 10, 100).astype(np.int32)
        batches = corpus.make_batches(ids, 2, 4)
        val_loss, ppl = trainer.evaluate(params, cfg, batches)
        assert val_loss == pytest.approx(math.log(10), rel=1e-6)
        assert ppl == pytest.approx(10.0, rel=1e-6)

    def test_perplexity_is_exp_of_loss(self):
        cfg, params = self._uniform_model()
        params["tok_emb"][:] = np.random.default_rng(2).standard_normal(
            params["tok_emb"].shape
        ).astype(np.float32) * 0.05
        ids = np.random.default_rng(3).integers(0, 10, 200).astype(np.int32)
        batches = corpus.make_batches(ids, 2, 4)
        val_loss, ppl = trainer.evaluate(params, cfg, batches)
        assert ppl == math.exp(val_loss)  # identity, exact to fp

    def test_diverged_model_raises_numerical_error(self):
        cfg = hyena.HyenaConfig(vocab_size=10, dim=4, n_blocks=1, max_seq_len=4,
                                filter_pos_dim=5, filter_hidden=4, mlp_expansion=2)
        params = hyena.init_model(cfg, seed=0)
        params["tok_emb"] *= 1e5  # validation loss far above math.exp's range
        ids = np.random.default_rng(2).integers(0, 10, 100).astype(np.int32)
        with pytest.raises(NumericalError, match="no finite perplexity"):
            trainer.evaluate(params, cfg, corpus.make_batches(ids, 2, 4))

    def test_non_finite_loss_raises_numerical_error(self):
        cfg, params = self._uniform_model()
        params["tok_emb"][0, 0] = np.nan
        ids = np.random.default_rng(5).integers(0, 10, 100).astype(np.int32)
        with pytest.raises(NumericalError):
            trainer.evaluate(params, cfg, corpus.make_batches(ids, 2, 4))

    def test_side_effect_free(self):
        cfg, params = self._uniform_model()
        ids = np.random.default_rng(4).integers(0, 10, 120).astype(np.int32)
        batches = corpus.make_batches(ids, 2, 4)
        before = _params_checksum(params)
        r1 = trainer.evaluate(params, cfg, batches)
        r2 = trainer.evaluate(params, cfg, batches)
        assert r1 == r2
        assert _params_checksum(params) == before


def _tiny_run_config(synth, out_dir, **overrides):
    flags = dict(
        mode="l2t",
        train_path=synth["train"],
        valid_path=synth["valid"],
        out_dir=str(out_dir),
        epochs=2,
        warmup_epochs=1,
        batch_size=16,
        seq_len=16,
        dim=16,
        n_blocks=1,
        max_vocab=100,
        filter_pos_dim=5,
        filter_hidden=8,
        activation_threshold=8,
        teacher_k=8,
        deterministic=True,
        seed=3,
    )
    flags.update(overrides)
    return config.resolve_config(flag_values=flags)


class TestTrainStep:
    def _state_and_batch(self, synth_corpus, tmp_path, **overrides):
        cfg = _tiny_run_config(synth_corpus, tmp_path, **overrides)
        lines = corpus.read_lines(cfg.train_path)
        vocab = corpus.build_vocab(lines, cfg.max_vocab)
        ids = corpus.encode(lines, vocab)
        batches = corpus.make_batches(ids, cfg.batch_size, cfg.seq_len)
        state = trainer.init_train_state(cfg, len(vocab), len(batches))
        return state, batches

    def test_below_threshold_only_student_updates(self, synth_corpus, tmp_path):
        state, batches = self._state_and_batch(synth_corpus, tmp_path)
        dln_before = _params_checksum(state.dln_params)
        teacher_before = _params_checksum(state.teacher_params)
        student_before = _params_checksum(state.student)
        m = trainer.train_step(state, batches[0])
        assert not m["teacher_active"]
        assert len(state.buffer) == 1
        assert _params_checksum(state.dln_params) == dln_before
        assert _params_checksum(state.teacher_params) == teacher_before
        assert _params_checksum(state.student) != student_before

    def test_teacher_and_dln_update_after_threshold(self, synth_corpus, tmp_path):
        state, batches = self._state_and_batch(synth_corpus, tmp_path,
                                               activation_threshold=2)
        trainer.train_step(state, batches[0])
        dln_before = _params_checksum(state.dln_params)
        teacher_before = _params_checksum(state.teacher_params)
        m = trainer.train_step(state, batches[1])
        assert m["teacher_active"]
        assert _params_checksum(state.dln_params) != dln_before
        assert _params_checksum(state.teacher_params) != teacher_before

    def test_baseline_skips_adaptive_components(self, synth_corpus, tmp_path):
        state, batches = self._state_and_batch(synth_corpus, tmp_path,
                                               mode="baseline")
        dln_before = _params_checksum(state.dln_params)
        teacher_before = _params_checksum(state.teacher_params)
        norm_count = state.norm_state.count
        for b in batches[:3]:
            m = trainer.train_step(state, b)
            assert m["lambda"] == 0.0
            assert m["loss"] == m["ce"]
        assert len(state.buffer) == 0
        assert state.norm_state.count == norm_count
        assert _params_checksum(state.dln_params) == dln_before
        assert _params_checksum(state.teacher_params) == teacher_before

    def test_numerical_error_carries_step_index(self, synth_corpus, tmp_path):
        state, batches = self._state_and_batch(synth_corpus, tmp_path)
        state.step = 17
        state.student["tok_emb"][0, 0] = np.nan
        with pytest.raises(NumericalError, match="step 17"):
            trainer.train_step(state, batches[0])


class TestTrainLoop:
    def test_history_and_checkpoints(self, synth_corpus, tmp_path):
        cfg = _tiny_run_config(synth_corpus, tmp_path / "run")
        history, info = trainer.train(cfg, quiet=True)
        assert len(history.epochs) == 2
        for row in history.epochs:
            assert row["val_ppl"] == math.exp(row["val_loss"])
            assert row["seconds"] == 0.0  # deterministic mode zeroes timing
        assert (tmp_path / "run" / "best.l2th").exists()
        assert (tmp_path / "run" / "last.l2th").exists()
        assert info["best"]["epoch"] in (0, 1)
        assert info["corpus"]["vocab_size"] <= 100

    def test_run_to_run_determinism(self, synth_corpus, tmp_path):
        cfg1 = _tiny_run_config(synth_corpus, tmp_path / "a")
        cfg2 = _tiny_run_config(synth_corpus, tmp_path / "b")
        h1, i1 = trainer.train(cfg1, quiet=True)
        h2, i2 = trainer.train(cfg2, quiet=True)
        assert h1.steps == h2.steps
        assert h1.epochs == h2.epochs
        assert i1["best"] == i2["best"]

    def test_lambda_tracks_dln_and_stays_in_unit_interval(self, synth_corpus,
                                                          tmp_path):
        cfg = _tiny_run_config(synth_corpus, tmp_path / "run")
        history, _ = trainer.train(cfg, quiet=True)
        lams = [m["lambda"] for m in history.steps]
        assert all(0.0 < v < 1.0 for v in lams)

    def test_baseline_full_run_leaves_adaptive_params_at_init(self, synth_corpus,
                                                              tmp_path):
        from l2t_hyena import checkpoint

        cfg = _tiny_run_config(synth_corpus, tmp_path / "run", mode="baseline")
        trainer.train(cfg, quiet=True)
        archive = checkpoint.load_archive(tmp_path / "run" / "last.l2th")
        fresh = trainer.init_train_state(cfg, archive["student/tok_emb"].shape[0],
                                         batches_per_epoch=1)
        for k, v in fresh.dln_params.items():
            assert np.array_equal(archive["dln/" + k], v.astype(np.float32)), k
        for k, v in fresh.teacher_params.items():
            assert np.array_equal(archive["teacher/" + k], v.astype(np.float32)), k
        assert archive["norm/count"] == 0.0

    def test_vocab_dump_written(self, synth_corpus, tmp_path):
        cfg = _tiny_run_config(synth_corpus, tmp_path / "run")
        trainer.train(cfg, quiet=True)
        vocab_lines = (tmp_path / "run" / "vocab.txt").read_text().splitlines()
        assert corpus.UNK_TOKEN in vocab_lines and corpus.EOS_TOKEN in vocab_lines
        assert len(vocab_lines) <= cfg.max_vocab

    def test_schedule_totals(self, synth_corpus, tmp_path):
        cfg = _tiny_run_config(synth_corpus, tmp_path / "run")
        lines = corpus.read_lines(cfg.train_path)
        vocab = corpus.build_vocab(lines, cfg.max_vocab)
        ids = corpus.encode(lines, vocab)
        n_batches = len(corpus.make_batches(ids, cfg.batch_size, cfg.seq_len))
        state = trainer.init_train_state(cfg, len(vocab), n_batches)
        assert state.total_steps == cfg.epochs * n_batches
        assert state.warmup_steps == cfg.warmup_epochs * n_batches


class TestFeatureNormFrozenDuringEval:
    def test_eval_does_not_touch_norm_state(self, synth_corpus, tmp_path):
        cfg = _tiny_run_config(synth_corpus, tmp_path / "run")
        lines = corpus.read_lines(cfg.train_path)
        vocab = corpus.build_vocab(lines, cfg.max_vocab)
        ids = corpus.encode(lines, vocab)
        batches = corpus.make_batches(ids, cfg.batch_size, cfg.seq_len)
        state = trainer.init_train_state(cfg, len(vocab), len(batches))
        trainer.train_step(state, batches[0])
        count = state.norm_state.count
        trainer.evaluate(state.student, state.model_cfg, batches[:2])
        assert state.norm_state.count == count
