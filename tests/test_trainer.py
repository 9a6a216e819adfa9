import copy
import hashlib
import math
import os
import shutil
import weakref

import numpy as np
import pytest

from helpers import RUN_DIR_FILES, csv_column, paper_student_config, run_dir_files

from l2t_hyena import config, corpus, dln, hyena, teacher, trainer
from l2t_hyena.errors import ConfigError, NumericalError


def _params_checksum(params):
    h = hashlib.sha256()
    for k in sorted(params):
        h.update(k.encode())
        h.update(np.ascontiguousarray(params[k]).tobytes())
    return h.hexdigest()


class TestAdamW:
    def test_zero_gradient_decay_factor(self):
        params = {"w": np.array([1.0, -2.0, 0.5])}
        state = trainer.AdamWState(params, weight_decay=0.15, beta1=0.9, beta2=0.999, eps=1e-8)
        grads = {"w": np.zeros(3)}
        expected = params["w"].copy()
        for _ in range(100):
            prev = params["w"].copy()
            trainer.adamw_step(params, grads, state, lr_now=2e-4)
            step_expected = prev * (1.0 - 2e-4 * 0.15)
            assert np.abs(params["w"] - step_expected).max() <= 1e-12
            expected *= 1.0 - 2e-4 * 0.15
        assert np.allclose(params["w"], expected, rtol=1e-10)

    def test_first_step_unit_gradient(self):
        params = {"w": np.array([0.0])}
        state = trainer.AdamWState(params, weight_decay=0.0, beta1=0.9, beta2=0.999, eps=1e-8)
        trainer.adamw_step(params, {"w": np.array([1.0])}, state, lr_now=1e-3)
        assert params["w"][0] == pytest.approx(-1e-3 / (1.0 + 1e-8), rel=1e-12)

    def test_constant_gradient_sign_limit(self):
        params = {"w": np.array([0.0])}
        state = trainer.AdamWState(params, weight_decay=0.0, beta1=0.9, beta2=0.999, eps=1e-8)
        g = {"w": np.array([0.37])}
        prev = 0.0
        for t in range(10_000):
            trainer.adamw_step(params, g, state, lr_now=1e-3)
            if t == 9_999:
                delta = params["w"][0] - prev
            prev = params["w"][0]
        assert abs(delta / 1e-3 + 1.0) < 1e-3  # update -> -lr * sign(g)

    def test_weight_tying_survives_update(self):
        params = {"tok_emb": np.ones((3, 2), np.float32)}
        view = params["tok_emb"]
        state = trainer.AdamWState(params, weight_decay=0.1, beta1=0.9, beta2=0.999, eps=1e-8)
        trainer.adamw_step(params, {"tok_emb": np.ones((3, 2), np.float32)},
                           state, 1e-2)
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
        norm = trainer.clip_grad_norm(grads, 10.0)
        assert norm == pytest.approx(5.0, abs=1e-12)
        assert np.array_equal(grads["a"], [3.0, 4.0])

    def test_over_limit_scaled(self):
        grads = {"a": np.array([3.0, 4.0])}
        norm = trainer.clip_grad_norm(grads, 1.0)
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
            total = trainer.clip_grad_norm(grads, max_norm)
            after = math.sqrt(sum(float(np.sum(g ** 2)) for g in grads.values()))
            assert after <= total + 1e-12
            assert after == pytest.approx(min(total, max_norm), rel=1e-6)


class TestEvaluate:
    def _uniform_model(self, V=10):
        cfg = paper_student_config(vocab_size=V, dim=4, n_blocks=1, max_seq_len=4,
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
        cfg = paper_student_config(vocab_size=10, dim=4, n_blocks=1, max_seq_len=4,
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


def _tiny_run_config(tiny_flags, out_dir, **overrides):
    return config.resolve_config(flag_values=tiny_flags(out_dir=str(out_dir), **overrides))


def test_each_component_gets_its_own_optimizer_settings(tiny_flags, tmp_path):
    cfg = _tiny_run_config(tiny_flags, tmp_path, wd_student=0.2, wd_teacher=0.03,
                           wd_dln=0.07, adam_beta1=0.8, adam_beta2=0.95,
                           adam_eps=1e-6, buffer_capacity=40)
    state = trainer.init_train_state(cfg, vocab_size=50, batches_per_epoch=3)
    for opt, params, wd in ((state.opt_student, state.student, 0.2),
                            (state.opt_teacher, state.teacher_params, 0.03),
                            (state.opt_dln, state.dln_params, 0.07)):
        assert opt.weight_decay == wd
        assert (opt.beta1, opt.beta2, opt.eps) == (0.8, 0.95, 1e-6)
        assert opt.t == 0
        assert set(opt.m) == set(opt.v) == set(params)
    assert state.buffer.rows.shape == (40, cfg.dln_hidden + 2) and len(state.buffer) == 0


def test_state_arrays_are_the_shape_tables(tiny_flags, tmp_path):
    # validate_config prices these tables, so they must be what is allocated.
    cfg = _tiny_run_config(tiny_flags, tmp_path, n_blocks=2)
    state = trainer.init_train_state(cfg, vocab_size=50, batches_per_epoch=3)
    tables = {"student/": hyena.param_shapes(state.model_cfg),
              "dln/": dln.param_shapes(cfg.dln_hidden),
              "teacher/": teacher.param_shapes(cfg.dln_hidden, cfg.teacher_hidden)}
    expected = [(p + k, s) for p, t in tables.items() for k, s in t.items()]
    expected += [("norm/mean", (dln.N_FEATURES,)), ("norm/var", (dln.N_FEATURES,))]
    arrays = trainer.archive_arrays(state)
    assert [(k, a.shape) for k, a in arrays.items()] == expected


def _state_checksum(state):
    """Every array and counter a training step reads or writes."""
    arrays = dict(trainer.archive_arrays(state))
    for name in ("opt_student", "opt_dln", "opt_teacher"):
        opt = getattr(state, name)
        arrays.update((f"{name}/m/{k}", v) for k, v in opt.m.items())
        arrays.update((f"{name}/v/{k}", v) for k, v in opt.v.items())
        arrays[f"{name}/t"] = np.array(opt.t)
    mem = state.buffer
    arrays.update({"buffer/rows": mem.rows, "buffer/count": np.array(mem.count),
                   "step": np.array(state.step)})
    return _params_checksum(arrays), repr(state.sample_rng.bit_generator.state)


class TestTrainStep:
    def _state_and_batch(self, tiny_flags, tmp_path, **overrides):
        cfg = _tiny_run_config(tiny_flags, tmp_path, **overrides)
        lines = corpus.read_lines(cfg.train_path)
        vocab = corpus.build_vocab(lines, cfg.max_vocab)
        ids = corpus.encode(lines, vocab)
        batches = corpus.make_batches(ids, cfg.batch_size, cfg.seq_len)
        state = trainer.init_train_state(cfg, len(vocab), len(batches))
        return state, batches

    def test_below_threshold_only_student_updates(self, tiny_flags, tmp_path):
        state, batches = self._state_and_batch(tiny_flags, tmp_path)
        dln_before = _params_checksum(state.dln_params)
        teacher_before = _params_checksum(state.teacher_params)
        student_before = _params_checksum(state.student)
        m = trainer.train_step(state, batches[0])
        assert not m["teacher_active"]
        assert len(state.buffer) == 1
        assert _params_checksum(state.dln_params) == dln_before
        assert _params_checksum(state.teacher_params) == teacher_before
        assert _params_checksum(state.student) != student_before

    def test_teacher_and_dln_update_after_threshold(self, tiny_flags, tmp_path):
        state, batches = self._state_and_batch(tiny_flags, tmp_path,
                                               activation_threshold=2)
        trainer.train_step(state, batches[0])
        dln_before = _params_checksum(state.dln_params)
        teacher_before = _params_checksum(state.teacher_params)
        m = trainer.train_step(state, batches[1])
        assert m["teacher_active"]
        assert _params_checksum(state.dln_params) != dln_before
        assert _params_checksum(state.teacher_params) != teacher_before

    def test_zero_dln_rate_freezes_the_dln(self, tiny_flags, tmp_path):
        # AdamW subtracts 0 * (...): every DLN array keeps its bits, while the
        # teacher trains and lambda still moves with the features.
        state, batches = self._state_and_batch(tiny_flags, tmp_path, lr_dln=0.0,
                                               activation_threshold=2)
        dln_before = _params_checksum(state.dln_params)
        teacher_before = _params_checksum(state.teacher_params)
        records = [trainer.train_step(state, b) for b in batches[:6]]
        assert [m["teacher_active"] for m in records] == [False] + [True] * 5
        assert state.opt_dln.t == 5
        assert _params_checksum(state.dln_params) == dln_before
        assert _params_checksum(state.teacher_params) != teacher_before
        assert len({m["lambda"] for m in records}) == 6
        with pytest.raises(ConfigError, match="lr_dln must be >= 0, got -1e-30"):
            _tiny_run_config(tiny_flags, tmp_path, lr_dln=-1e-30)

    def test_decay_is_clamped_to_its_floor(self, tiny_flags, tmp_path):
        # A decay rate the update leaves non-positive is raised to DECAY_FLOOR.
        state, batches = self._state_and_batch(tiny_flags, tmp_path)
        state.student["block0.decay"][0, 0] = -1.0
        trainer.train_step(state, batches[0])
        assert state.student["block0.decay"][0, 0] == trainer.DECAY_FLOOR
        for i in range(state.model_cfg.n_blocks):
            assert np.all(state.student[f"block{i}.decay"] >= trainer.DECAY_FLOOR)

    def test_baseline_skips_adaptive_components(self, tiny_flags, tmp_path):
        state, batches = self._state_and_batch(tiny_flags, tmp_path,
                                               mode="baseline")
        dln_before = _params_checksum(state.dln_params)
        teacher_before = _params_checksum(state.teacher_params)
        norm_before = state.norm_state.mean.copy(), state.norm_state.var.copy()
        for b in batches[:3]:
            m = trainer.train_step(state, b)
            assert m["lambda"] == 0.0
            assert m["loss"] == m["ce"]
        assert len(state.buffer) == 0
        assert np.array_equal(state.norm_state.mean, norm_before[0])
        assert np.array_equal(state.norm_state.var, norm_before[1])
        assert _params_checksum(state.dln_params) == dln_before
        assert _params_checksum(state.teacher_params) == teacher_before

    def test_record_holds_the_fields_its_readers_read(self, tiny_flags, tmp_path,
                                                      monkeypatch):
        # The step columns, and the epoch row's lr_student, teacher_huber and
        # teacher_active; the teacher's and DLN's rates only on their updates.
        keys = {*trainer.STEP_COLUMNS, "lr_student", "teacher_huber", "teacher_active"}
        rates, lr = [], trainer._lr

        def recording_lr(state, lr_max):
            rates.append(lr_max)
            return lr(state, lr_max)

        monkeypatch.setattr(trainer, "_lr", recording_lr)
        for mode, active in (("baseline", [False, False]), ("l2t", [False, True])):
            state, batches = self._state_and_batch(tiny_flags, tmp_path, mode=mode,
                                                   activation_threshold=2)
            rc = state.run_cfg
            for i, want in enumerate(active):
                rates.clear()
                m = trainer.train_step(state, batches[i])
                assert set(m) == keys and m["step"] == i
                assert m["teacher_active"] is want
                assert (m["teacher_huber"] > 0.0) is want
                updated = (rc.lr_teacher, rc.lr_dln) if want else ()
                assert rates == [rc.lr_student, *updated]

    @pytest.mark.parametrize("mode", ["l2t", "baseline"])
    def test_logits_freed_before_first_block_reverse_pass(self, tiny_flags, tmp_path,
                                                          mode, monkeypatch):
        # The (B, L, V) logits, overwritten with dlogits, are released once
        # the tied head's reverse products have read them: train_step keeps
        # no reference, and the cache hands them over.
        state, batches = self._state_and_batch(tiny_flags, tmp_path, mode=mode)
        refs, alive = [], []
        forward, gelu_backward = hyena.forward, hyena._gelu_backward

        def recording_forward(*args, **kwargs):
            cache = forward(*args, **kwargs)
            refs.append(weakref.ref(cache[-1]))
            return cache

        def recording_gelu_backward(*args):
            alive.append(refs[-1]() is not None)
            return gelu_backward(*args)

        monkeypatch.setattr(hyena, "forward", recording_forward)
        monkeypatch.setattr(hyena, "_gelu_backward", recording_gelu_backward)
        trainer.train_step(state, batches[0])
        assert alive == [False] * state.model_cfg.n_blocks

    def test_non_finite_teacher_gradient_raises(self, tiny_flags, tmp_path):
        state, batches = self._state_and_batch(tiny_flags, tmp_path,
                                               activation_threshold=1)
        state.teacher_params["w3"][0, 0] = np.nan
        teacher_before = _params_checksum(state.teacher_params)
        with pytest.raises(NumericalError, match="step 0: non-finite gradient norm"):
            trainer.train_step(state, batches[0])
        # Rejected on the norm, before any AdamW step touches the teacher.
        assert _params_checksum(state.teacher_params) == teacher_before
        assert state.opt_teacher.t == 0

    def test_numerical_error_carries_step_index(self, tiny_flags, tmp_path):
        state, batches = self._state_and_batch(tiny_flags, tmp_path)
        state.step = 17
        state.student["tok_emb"][0, 0] = np.nan
        with pytest.raises(NumericalError, match="step 17"):
            trainer.train_step(state, batches[0])

    def test_deep_copy_trains_bit_identically_and_apart(self, tiny_flags, tmp_path):
        # Benchmarks replay steps from deep copies of a warmed-up state.
        state, batches = self._state_and_batch(tiny_flags, tmp_path,
                                               activation_threshold=2)
        for i in range(3):
            trainer.train_step(state, batches[i % len(batches)])
        before = _state_checksum(state)
        twin = copy.deepcopy(state)
        assert _state_checksum(twin) == before
        later = [batches[i % len(batches)] for i in range(3, 7)]
        twin_metrics = [trainer.train_step(twin, b) for b in later]
        assert all(m["teacher_active"] for m in twin_metrics)
        assert _state_checksum(state) == before
        assert [trainer.train_step(state, b) for b in later] == twin_metrics
        assert _state_checksum(state) == _state_checksum(twin) != before

    def test_float64_shadow_stays_within_rounding(self, smoke_flags, tmp_path):
        # float32's own distance from exact arithmetic, the yardstick for
        # changes that move the last bits.
        cfg = config.resolve_config(flag_values=smoke_flags(tmp_path, batch_size=8,
                                                            activation_threshold=8))
        lines = corpus.read_lines(cfg.train_path)
        vocab = corpus.build_vocab(lines, cfg.max_vocab)
        batches = corpus.make_batches(corpus.encode(lines, vocab), cfg.batch_size,
                                      cfg.seq_len)[:60]
        state = trainer.init_train_state(cfg, len(vocab), len(batches))
        shadow = copy.deepcopy(state)

        def float_dicts(st):
            opts = (st.opt_student, st.opt_dln, st.opt_teacher)
            return [st.student, st.dln_params, st.teacher_params,
                    *(o.m for o in opts), *(o.v for o in opts)]

        for d in float_dicts(shadow):
            d.update((k, v.astype(np.float64)) for k, v in d.items())
        # Measured: at most 1.6e-7 relative in loss and 1.1e-7 in lambda.
        for batch in batches:
            m32, m64 = trainer.train_step(state, batch), trainer.train_step(shadow, batch)
            assert abs(m32["loss"] - m64["loss"]) <= 1e-5 * m64["loss"]
            assert abs(m32["lambda"] - m64["lambda"]) <= 1e-5
        assert m64["teacher_active"]
        for st, dtype in ((state, np.float32), (shadow, np.float64)):
            assert all(a.dtype == dtype for d in float_dicts(st) for a in d.values())


class TestTrainLoop:
    def test_history_and_checkpoints(self, tiny_run):
        info, out = tiny_run.info, tiny_run.out
        assert info["best"]["val_ppl"] == math.exp(info["best"]["val_loss"])
        # The CSV holds 9 significant digits.
        val_loss = csv_column(out / "metrics_epoch.csv", "val_loss")
        val_ppl = csv_column(out / "metrics_epoch.csv", "val_ppl")
        assert len(val_ppl) == 2
        assert val_ppl == pytest.approx([math.exp(v) for v in val_loss], rel=1e-8)
        # deterministic mode zeroes timing
        assert csv_column(out / "metrics_epoch.csv", "seconds") == [0.0, 0.0]
        assert (out / "best.l2th").exists()
        assert (out / "last.l2th").exists()
        assert info["best"]["epoch"] in (0, 1)
        assert info["corpus"]["vocab_size"] <= 100
        assert "steps" not in info and "epochs" not in info

    def test_summary_is_read_back_and_final_comes_from_the_epoch_rows(self, tiny_run):
        info, out = tiny_run.info, tiny_run.out
        # The CSV holds 9 significant digits; deterministic seconds are 0.0.
        last_loss = csv_column(out / "metrics_epoch.csv", "train_loss")[-1]
        assert info["final"]["train_loss"] == pytest.approx(last_loss, rel=1e-8)
        assert info["final"]["total_seconds"] == 0.0
        assert trainer.load_summary(str(out)) == {
            "best_val_ppl": info["best"]["val_ppl"],
            "best_val_loss": info["best"]["val_loss"],
            "best_epoch": info["best"]["epoch"],
            "final_train_loss": info["final"]["train_loss"],
            "total_seconds": info["final"]["total_seconds"],
        }

    def test_run_to_run_determinism(self, tiny_run, tiny_flags, tmp_path):
        # The session's run (through the CLI) against a second run of the same
        # config: every file either writes is the same but for its out_dir.
        trainer.train(_tiny_run_config(tiny_flags, tmp_path / "b"))
        first, second = run_dir_files(tiny_run.out), run_dir_files(tmp_path / "b")
        assert first.keys() == RUN_DIR_FILES
        assert first == second

    @staticmethod
    def _fail_at(monkeypatch, fail_step):
        step = trainer.train_step

        def failing_step(state, batch):
            if state.step == fail_step:
                raise NumericalError(f"step {state.step}: injected")
            return step(state, batch)

        monkeypatch.setattr(trainer, "train_step", failing_step)

    def test_aborted_run_keeps_finished_epochs(self, tiny_run, tiny_flags, tmp_path,
                                               monkeypatch):
        per_epoch = tiny_run.info["corpus"]["batches_per_epoch"]
        self._fail_at(monkeypatch, per_epoch + 3)  # partway through epoch 1
        out = tmp_path / "aborted"
        with pytest.raises(NumericalError, match="injected"):
            trainer.train(_tiny_run_config(tiny_flags, out))
        # Header plus epoch 0, byte-equal to the uninterrupted run's first rows.
        for name, n_rows in (("metrics_step.csv", per_epoch), ("metrics_epoch.csv", 1)):
            full = (tiny_run.out / name).read_text().splitlines(keepends=True)
            assert (out / name).read_text() == "".join(full[: 1 + n_rows])
        assert (out / "last.l2th").exists()
        assert not (out / "metrics.json").exists()

    def test_rerun_leaves_no_earlier_checkpoint(self, tiny_run, tiny_flags, tmp_path,
                                                monkeypatch):
        # A checkpoint left beside the new run's vocab.txt would be evaluated
        # with a vocabulary it was not trained on.
        out = tmp_path / "rerun"
        shutil.copytree(tiny_run.out, out)
        self._fail_at(monkeypatch, 2)  # before epoch 0 ends
        with pytest.raises(NumericalError, match="injected"):
            trainer.train(_tiny_run_config(tiny_flags, out))
        assert sorted(os.listdir(out)) == ["config_resolved.txt", "metrics_epoch.csv",
                                           "metrics_step.csv", "vocab.txt"]

    def test_lambda_tracks_dln_and_stays_in_unit_interval(self, tiny_run):
        lams = csv_column(tiny_run.out / "metrics_step.csv", "lambda")
        assert all(0.0 < v < 1.0 for v in lams)

    def test_baseline_full_run_leaves_adaptive_params_at_init(self, tiny_flags,
                                                              tmp_path):
        from l2t_hyena import checkpoint

        cfg = _tiny_run_config(tiny_flags, tmp_path / "run", mode="baseline")
        trainer.train(cfg)
        archive = checkpoint.load_archive(tmp_path / "run" / "last.l2th")
        fresh = trainer.init_train_state(cfg, archive["student/tok_emb"].shape[0],
                                         batches_per_epoch=1)
        for k, v in fresh.dln_params.items():
            assert np.array_equal(archive["dln/" + k], v.astype(np.float32)), k
        for k, v in fresh.teacher_params.items():
            assert np.array_equal(archive["teacher/" + k], v.astype(np.float32)), k
        assert np.array_equal(archive["norm/mean"], fresh.norm_state.mean)
        assert np.array_equal(archive["norm/var"], fresh.norm_state.var)

    def test_vocab_dump_written(self, tiny_run, tiny_flags):
        vocab_lines = (tiny_run.out / "vocab.txt").read_text().splitlines()
        assert corpus.UNK_TOKEN in vocab_lines and corpus.EOS_TOKEN in vocab_lines
        assert len(vocab_lines) <= tiny_flags()["max_vocab"]

    def test_schedule_totals(self, tiny_flags, tmp_path):
        cfg = _tiny_run_config(tiny_flags, tmp_path / "run")
        lines = corpus.read_lines(cfg.train_path)
        vocab = corpus.build_vocab(lines, cfg.max_vocab)
        ids = corpus.encode(lines, vocab)
        n_batches = len(corpus.make_batches(ids, cfg.batch_size, cfg.seq_len))
        state = trainer.init_train_state(cfg, len(vocab), n_batches)
        assert state.total_steps == cfg.epochs * n_batches
        assert state.warmup_steps == cfg.warmup_epochs * n_batches


class TestFeatureNormFrozenDuringEval:
    def test_eval_does_not_touch_norm_state(self, tiny_flags, tmp_path):
        cfg = _tiny_run_config(tiny_flags, tmp_path / "run")
        lines = corpus.read_lines(cfg.train_path)
        vocab = corpus.build_vocab(lines, cfg.max_vocab)
        ids = corpus.encode(lines, vocab)
        batches = corpus.make_batches(ids, cfg.batch_size, cfg.seq_len)
        state = trainer.init_train_state(cfg, len(vocab), len(batches))
        trainer.train_step(state, batches[0])
        norm_before = state.norm_state.mean.copy(), state.norm_state.var.copy()
        trainer.evaluate(state.student, state.model_cfg, batches[:2])
        assert np.array_equal(state.norm_state.mean, norm_before[0])
        assert np.array_equal(state.norm_state.var, norm_before[1])
