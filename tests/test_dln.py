import math

import numpy as np
import pytest

from helpers import finite_diff_failures

from l2t_hyena import dln, hyena


def _uniform_logits(B, L, V):
    return np.zeros((B, L, V))


def _features(logits, targets):
    return dln.extract_features(hyena.softmax_xent(logits, targets))


class TestExtractFeatures:
    def test_uniform_case(self):
        logits = _uniform_logits(2, 3, 4)
        targets = np.zeros((2, 3), dtype=int)
        f = _features(logits, targets)
        assert f.shape == (3, 5)
        assert np.allclose(f[:, 0], 0.25)                 # confidence
        assert np.allclose(f[:, 1], 0.25)                 # target probability
        assert np.allclose(f[:, 2], 0.0)                  # margin
        assert np.allclose(f[:, 3], 1.0)                  # normalized entropy
        assert np.allclose(f[:, 4], math.log(4.0))        # cross-entropy

    def test_saturated_case(self):
        logits = np.zeros((1, 2, 6))
        targets = np.array([[4, 4]])
        logits[..., 4] = 100.0
        f = _features(logits, targets)
        assert np.allclose(f[:, 0], 1.0, atol=1e-12)
        assert np.allclose(f[:, 2], 0.0, atol=1e-12)
        assert np.allclose(f[:, 3], 0.0, atol=1e-12)
        assert np.allclose(f[:, 4], 0.0, atol=1e-12)

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(0)
        logits = rng.standard_normal((2, 3, 5))
        targets = rng.integers(0, 5, (2, 3))
        f = _features(logits, targets)
        p = np.exp(logits) / np.exp(logits).sum(-1, keepdims=True)
        pt = np.take_along_axis(p, targets[..., None], -1)[..., 0]
        naive = np.stack(
            [
                p.max(-1),
                pt,
                p.max(-1) - pt,
                (-(p * np.log(p)).sum(-1)) / math.log(5),
                -np.log(pt),
            ],
            axis=-1,
        ).mean(axis=0)
        assert np.abs(f - naive).max() < 1e-10

    def test_feature_ranges_property(self):
        rng = np.random.default_rng(1)
        for _ in range(1000):
            B = int(rng.integers(1, 4))
            L = int(rng.integers(1, 5))
            V = int(rng.integers(2, 9))
            logits = rng.standard_normal((B, L, V)) * rng.uniform(0.1, 10.0)
            targets = rng.integers(0, V, (B, L))
            f = _features(logits, targets)
            assert np.all(f[:, 0] > 0) and np.all(f[:, 0] <= 1)
            assert np.all(f[:, 1] > 0) and np.all(f[:, 1] <= 1)
            assert np.all(f[:, 2] >= 0) and np.all(f[:, 2] < 1)
            assert np.all(f[:, 3] >= -1e-12) and np.all(f[:, 3] <= 1 + 1e-12)
            assert np.all(f[:, 4] >= 0)

    def test_margin_zero_iff_target_is_argmax(self):
        rng = np.random.default_rng(2)
        logits = rng.standard_normal((1, 4, 6))
        argmax = logits[0].argmax(-1)
        f_hit = _features(logits, argmax[None, :])
        assert np.all(f_hit[:, 2] == 0.0)
        wrong = (argmax + 1) % 6
        f_miss = _features(logits, wrong[None, :])
        assert np.all(f_miss[:, 2] > 0.0)

    def test_batch_permutation_invariance(self):
        rng = np.random.default_rng(3)
        logits = rng.standard_normal((4, 3, 5))
        targets = rng.integers(0, 5, (4, 3))
        perm = rng.permutation(4)
        f1 = _features(logits, targets)
        f2 = _features(logits[perm], targets[perm])
        assert np.abs(f1 - f2).max() < 1e-12


class TestNormalizeFeatures:
    def test_identity_at_reference_state(self):
        rng = np.random.default_rng(4)
        f = rng.standard_normal((6, 5))
        state = dln.FeatureNormState()
        out = dln.normalize_features(f, state, training=False)
        assert np.allclose(out, f, rtol=1e-5)  # off only by the 1e-5 epsilon
        assert state.count == 0

    def test_constant_column_maps_to_zero(self):
        f = np.full((4, 5), 3.0)
        state = dln.FeatureNormState(mean=np.full(5, 3.0), var=np.ones(5))
        out = dln.normalize_features(f, state, training=False)
        assert np.abs(out).max() == 0.0

    def test_ema_contracts_toward_batch_mean(self):
        rng = np.random.default_rng(5)
        f = rng.standard_normal((8, 5)) + 2.0
        state = dln.FeatureNormState()
        batch_mean = f.mean(axis=0)
        d0 = np.abs(state.mean - batch_mean)
        dln.normalize_features(f, state, training=True)
        d1 = np.abs(state.mean - batch_mean)
        dln.normalize_features(f, state, training=True)
        d2 = np.abs(state.mean - batch_mean)
        assert np.all(d1 < d0) and np.all(d2 < d1)
        assert state.count == 2

    def test_eval_mode_leaves_state_untouched(self):
        rng = np.random.default_rng(6)
        f = rng.standard_normal((8, 5))
        state = dln.FeatureNormState()
        mean0, var0 = state.mean.copy(), state.var.copy()
        dln.normalize_features(f, state, training=False)
        assert np.array_equal(state.mean, mean0)
        assert np.array_equal(state.var, var0)
        assert state.count == 0


class TestDlnForward:
    def test_zeroed_final_layer_gives_half(self):
        params = dln.init_dln(seed=1)
        params["mlp.w4"][:] = 0.0
        params["mlp.b4"][:] = 0.0
        f = np.random.default_rng(7).standard_normal((4, 5)).astype(np.float32)
        tape = dln.dln_forward(f, params)
        assert tape.lam == 0.5
        assert tape.summary.shape == (32,)

    def test_weight_strictly_in_unit_interval(self):
        rng = np.random.default_rng(8)
        for seed in range(10):
            params = dln.init_dln(seed=seed)
            f = (rng.standard_normal((5, 5)) * rng.uniform(0.1, 20)).astype(np.float32)
            lam = dln.dln_forward(f, params).lam
            assert 0.0 < lam < 1.0

    def test_sequence_sensitivity(self):
        params = dln.init_dln(seed=2, dtype=np.float64)
        row = np.random.default_rng(9).standard_normal((1, 5))
        s1 = dln.dln_forward(row, params).summary
        s2 = dln.dln_forward(np.vstack([row, row]), params).summary
        assert not np.allclose(s1, s2)

    def test_hidden_state_bounded(self):
        params = dln.init_dln(seed=3, dtype=np.float64)
        f = np.random.default_rng(10).standard_normal((50, 5)) * 5.0
        summary = dln.dln_forward(f, params).summary
        assert np.all(np.abs(summary) < 1.0)

    def test_empty_sequence_rejected(self):
        params = dln.init_dln(seed=4)
        with pytest.raises(Exception):
            dln.dln_forward(np.zeros((0, 5)), params)


class TestDlnGrads:
    def test_zero_upstream(self):
        params = dln.init_dln(seed=5, dtype=np.float64)
        f = np.random.default_rng(11).standard_normal((3, 5))
        grads = dln.dln_grads(dln.dln_forward(f, params), params, 0.0)
        assert all(np.all(g == 0) for g in grads.values())

    def test_runs_back_through_the_tape_only(self, monkeypatch):
        params = dln.init_dln(seed=8, dtype=np.float64)
        f = np.random.default_rng(14).standard_normal((4, 5))
        tape = dln.dln_forward(f, params)
        expected = dln.dln_grads(tape, params, 0.9)

        def no_forward(*args):
            raise AssertionError("dln_grads re-ran a forward pass")

        monkeypatch.setattr(dln, "_gru_forward", no_forward)
        monkeypatch.setattr(dln, "_mlp_forward", no_forward)
        grads = dln.dln_grads(tape, params, 0.9)
        for k in expected:
            assert np.array_equal(grads[k], expected[k]), k

    def test_upstream_linearity(self):
        params = dln.init_dln(seed=6, dtype=np.float64)
        f = np.random.default_rng(12).standard_normal((3, 5))
        tape = dln.dln_forward(f, params)
        g1 = dln.dln_grads(tape, params, 1.3)
        g2 = dln.dln_grads(tape, params, 2.6)
        for k in g1:
            assert np.allclose(2.0 * g1[k], g2[k], rtol=1e-12)

    def test_finite_difference_agreement(self):
        params = dln.init_dln(seed=7, hidden=4, mlp_widths=(6, 6, 4),
                              dtype=np.float64)
        f = np.random.default_rng(13).standard_normal((3, 5))
        upstream = 1.7
        grads = dln.dln_grads(dln.dln_forward(f, params), params, upstream)

        def objective():
            return upstream * dln.dln_forward(f, params).lam

        failures = finite_diff_failures(params, grads, objective)
        assert failures == [], failures[:5]
