from collections import deque

import numpy as np
import pytest
from scipy import stats

from helpers import (
    ReferenceExperience,
    finite_diff_failures,
    reference_init_teacher,
    reference_push_experience,
    reference_sample_prioritized,
    reference_teacher_step,
    teacher_predict,
)

from l2t_hyena import hyena, teacher
from l2t_hyena.errors import NumericalError


def _memory(capacity, dim=4):
    return teacher.ReplayMemory(capacity, dim)


def _push(mem, loss, lam=0.5, seed=0):
    """One experience; rows are told apart by their ``lam``."""
    summary = np.random.default_rng(seed).standard_normal(mem.rows.shape[1] - 2)
    teacher.push_experience(mem, summary, lam, loss)


def _lams(mem):
    return mem.rows[:len(mem), -2].tolist()


class TestBuffer:
    def test_single_push(self):
        mem = _memory(500)
        _push(mem, 1.0)
        assert len(mem) == 1

    def test_fifo_at_full_capacity(self):
        mem = _memory(500)
        for i in range(501):
            _push(mem, 1.0, lam=float(i))
        assert len(mem) == 500
        assert _lams(mem) == list(range(1, 501))  # experience #1 (lam 0) evicted

    def test_fifo_exhaustive_capacity_three(self):
        mem = _memory(3)
        for i in range(10):
            _push(mem, 1.0, lam=float(i), seed=i)
            expected = list(range(max(0, i - 2), i + 1))
            assert _lams(mem) == expected
            assert len(mem) <= 3
            # The summary and loss columns move with their row.
            for row, j in enumerate(expected):
                assert np.array_equal(mem.rows[row, :-2],
                                      np.random.default_rng(j).standard_normal(4))

    def test_non_finite_rejected(self):
        mem = _memory(5)
        with pytest.raises(NumericalError, match="rejected experience"):
            _push(mem, float("nan"))
        with pytest.raises(NumericalError, match="rejected experience"):
            _push(mem, float("inf"))
        bad = np.random.default_rng(0).standard_normal(4)
        bad[0] = np.nan
        with pytest.raises(NumericalError, match="rejected experience"):
            teacher.push_experience(mem, bad, 0.5, 1.0)
        with pytest.raises(NumericalError, match="rejected experience"):
            _push(mem, -0.5)
        assert len(mem) == 0  # rejected pushes leave the buffer unchanged

    def test_rejected_push_into_full_memory_evicts_nothing(self):
        mem = _memory(3)
        for i in range(3):
            _push(mem, 1.0 + i, lam=float(i), seed=i)
        before = mem.rows.copy()
        with pytest.raises(NumericalError, match="rejected experience"):
            _push(mem, 1.0, lam=float("nan"))
        assert len(mem) == 3
        assert np.array_equal(mem.rows, before)


class TestPrioritizedSampling:
    def test_loss_proportional_rates(self):
        mem = _memory(10)
        _push(mem, 1.0, lam=0.0)
        _push(mem, 3.0, lam=1.0)
        rng = np.random.default_rng(123)
        rows = teacher.sample_prioritized(mem, 100_000, rng)
        rate = np.mean(mem.rows[rows, -2] == 1.0)
        assert abs(rate - 0.75) < 0.01

    def test_uniform_when_losses_equal(self):
        mem = _memory(10)
        for i in range(10):
            _push(mem, 2.0, lam=float(i))
        rng = np.random.default_rng(7)
        rows = teacher.sample_prioritized(mem, 100_000, rng)
        counts = np.bincount(mem.rows[rows, -2].astype(int), minlength=10)
        assert stats.chisquare(counts).pvalue > 0.001

    def test_single_experience_always_returned(self):
        mem = _memory(10)
        _push(mem, 0.5, lam=9.0)
        rng = np.random.default_rng(8)
        rows = teacher.sample_prioritized(mem, 50, rng)
        assert all(mem.rows[rows, -2] == 9.0)

    def test_zero_loss_uses_floor(self):
        mem = _memory(10)
        _push(mem, 0.0, lam=0.0)
        _push(mem, 0.0, lam=1.0)
        rng = np.random.default_rng(9)
        rows = teacher.sample_prioritized(mem, 1000, rng)
        picked = set(mem.rows[rows, -2].tolist())
        assert picked == {0.0, 1.0}

    def test_empty_buffer(self):
        with pytest.raises(ValueError, match="empty memory buffer"):
            teacher.sample_prioritized(_memory(3), 1, np.random.default_rng(0))

    def test_deterministic_given_rng_state(self):
        mem = _memory(10)
        for i in range(5):
            _push(mem, float(i + 1), lam=float(i))
        d1 = teacher.sample_prioritized(mem, 20, np.random.default_rng(5))
        d2 = teacher.sample_prioritized(mem, 20, np.random.default_rng(5))
        assert mem.rows[d1, -2].tolist() == mem.rows[d2, -2].tolist()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("capacity", [3, 500])
def test_memory_matches_deque_reference(capacity, dtype):
    """Pushes, eviction, sampled rows and teacher steps equal the deque's, bit for bit."""
    dim, k = 6, 32
    rng = np.random.default_rng(capacity)
    params = hyena.init_dense(1, teacher.param_shapes(dim, 8), dtype)
    mem = teacher.ReplayMemory(capacity, dim)
    ref = deque(maxlen=capacity)
    n_push = capacity + capacity // 2 + 5
    for i in range(n_push):
        summary = rng.standard_normal(dim).astype(dtype)
        lam = float(rng.uniform(0.05, 0.95))
        loss = 0.0 if i % 4 == 0 else float(rng.uniform(0.0, 5.0))
        teacher.push_experience(mem, summary, lam, loss)
        reference_push_experience(ref, ReferenceExperience(summary.copy(), lam, loss, i))
        assert len(mem) == len(ref)
        if i % 7 and i != n_push - 1:
            continue
        items = list(ref)
        assert np.array_equal(mem.rows[:len(mem), :-2], np.stack([e.summary for e in items]))
        assert mem.rows[:len(mem), -2].tolist() == [e.lam_used for e in items]
        assert mem.rows[:len(mem), -1].tolist() == [e.student_loss for e in items]

        rows = teacher.sample_prioritized(mem, k, np.random.default_rng(i))
        draws = reference_sample_prioritized(ref, k, np.random.default_rng(i))
        assert np.array_equal(mem.rows[rows, :-2], np.stack([e.summary for e in draws]))
        assert mem.rows[rows, -2].tolist() == [e.lam_used for e in draws]
        assert mem.rows[rows, -1].tolist() == [e.student_loss for e in draws]

        grads, hub = teacher.teacher_step(mem, params, k, np.random.default_rng(i), 1.0)
        ref_grads, ref_hub = reference_teacher_step(ref, params, k,
                                                    np.random.default_rng(i), 1.0)
        assert hub == ref_hub
        assert grads.keys() == ref_grads.keys()
        for name in grads:
            assert grads[name].dtype == dtype
            assert np.array_equal(grads[name], ref_grads[name]), name


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_init_matches_layer_by_layer_draws(dtype):
    params = hyena.init_dense(4, teacher.param_shapes(6, 16), dtype)
    ref = reference_init_teacher(4, 6, 16, dtype)
    assert list(params) == list(ref)
    for k in ref:
        assert params[k].dtype == dtype and np.array_equal(params[k], ref[k]), k


class TestPredict:
    def test_zero_weights_zero_output(self):
        params = hyena.init_dense(0, teacher.param_shapes(4, 8))
        for v in params.values():
            v[:] = 0.0
        assert teacher_predict(np.ones(4), 0.7, params) == 0.0

    def test_bit_identical_repeat(self):
        params = hyena.init_dense(1, teacher.param_shapes(4, 8))
        s = np.random.default_rng(2).standard_normal(4)
        assert teacher_predict(s, 0.3, params) == teacher_predict(
            s, 0.3, params
        )

    def test_lipschitz_in_lambda(self):
        params = hyena.init_dense(3, teacher.param_shapes(4, 8), np.float64)
        lip = 1.0
        for w in ("w1", "w2", "w3"):
            lip *= np.linalg.svd(params[w], compute_uv=False)[0]
        s = np.random.default_rng(4).standard_normal(4)
        base = teacher_predict(s, 0.5, params)
        for eps in (1e-3, 1e-2, 0.1):
            moved = teacher_predict(s, 0.5 + eps, params)
            assert abs(moved - base) <= lip * eps + 1e-12


class TestHuber:
    def test_quadratic_branch(self):
        assert teacher.huber(0.5, 0.0, 1.0) == pytest.approx(0.125, abs=1e-15)

    def test_linear_branch(self):
        assert teacher.huber(2.0, 0.0, 1.0) == pytest.approx(1.5, abs=1e-15)

    def test_zero_residual(self):
        assert teacher.huber(3.0, 3.0, 1.0) == 0.0

    def test_c1_continuity_at_joint(self):
        delta = 1.0
        h = 1e-8
        below = teacher.huber(delta - h, 0.0, delta)
        above = teacher.huber(delta + h, 0.0, delta)
        assert abs(above - below) < 3e-8  # value continuous
        # one-sided slopes on each side of the joint agree to O(h)
        slope_below = (teacher.huber(delta - h, 0, delta)
                       - teacher.huber(delta - 2 * h, 0, delta)) / h
        slope_above = (teacher.huber(delta + 2 * h, 0, delta)
                       - teacher.huber(delta + h, 0, delta)) / h
        assert abs(slope_below - delta) < 1e-6
        assert abs(slope_above - delta) < 1e-6


class TestTeacherStep:
    def test_zero_teacher_loss_composition(self):
        params = hyena.init_dense(0, teacher.param_shapes(4, 8))
        for v in params.values():
            v[:] = 0.0
        mem = _memory(5)
        _push(mem, 2.0)
        _, hub = teacher.teacher_step(mem, params, k=1,
                                      rng=np.random.default_rng(0), delta=1.0)
        assert hub == pytest.approx(1.5, abs=1e-12)

    def test_deterministic_given_rng(self):
        params = hyena.init_dense(1, teacher.param_shapes(4, 8))
        mem = _memory(5)
        for i in range(4):
            _push(mem, 1.0 + i, lam=float(i), seed=i)
        g1, h1 = teacher.teacher_step(mem, params, 8, np.random.default_rng(3), 1.0)
        g2, h2 = teacher.teacher_step(mem, params, 8, np.random.default_rng(3), 1.0)
        assert h1 == h2
        for k in g1:
            assert np.array_equal(g1[k], g2[k])

    def test_finite_difference_agreement(self):
        params = hyena.init_dense(2, teacher.param_shapes(4, 8), np.float64)
        mem = _memory(10)
        rng = np.random.default_rng(5)
        for i in range(6):
            teacher.push_experience(
                mem,
                rng.standard_normal(4),
                float(rng.uniform(0.1, 0.9)),
                float(rng.uniform(0.2, 3.0)),
            )
        grads, _ = teacher.teacher_step(mem, params, k=5,
                                        rng=np.random.default_rng(42), delta=1.0)

        def objective():
            rows = teacher.sample_prioritized(mem, 5, np.random.default_rng(42))
            preds = [teacher_predict(mem.rows[r, :-2], mem.rows[r, -2], params)
                     for r in rows]
            return float(
                np.mean([teacher.huber(p, mem.rows[r, -1], 1.0)
                         for p, r in zip(preds, rows)])
            )

        failures = finite_diff_failures(params, grads, objective)
        assert failures == [], failures[:5]


class TestDlnFeedback:
    def test_zero_teacher_gives_zero_feedback(self):
        params = hyena.init_dense(0, teacher.param_shapes(4, 8))
        for v in params.values():
            v[:] = 0.0
        assert teacher.dln_feedback(np.append(np.ones(4), 0.5), params) == 0.0

    def test_matches_finite_difference(self):
        params = hyena.init_dense(1, teacher.param_shapes(6, 16), np.float64)
        s = np.random.default_rng(2).standard_normal(6)
        lam = 0.4
        fb = teacher.dln_feedback(np.append(s, lam), params)
        h = 1e-7
        fd = (
            teacher_predict(s, lam + h, params)
            - teacher_predict(s, lam - h, params)
        ) / (2 * h)
        assert abs(fb - fd) < 1e-6

    def test_bit_identical_with_frozen_teacher(self):
        params = hyena.init_dense(3, teacher.param_shapes(4, 8))
        s = np.random.default_rng(4).standard_normal(4)
        assert teacher.dln_feedback(np.append(s, 0.3), params) == teacher.dln_feedback(
            np.append(s, 0.3), params
        )

    def test_monotone_teacher_drives_weight_down(self):
        # Fit the teacher on synthetic data where loss increases with the
        # weight; the DLN's single step must then reduce its proposed weight.
        from l2t_hyena import dln as dln_mod

        rng = np.random.default_rng(10)
        params = hyena.init_dense(5, teacher.param_shapes(32, 16), np.float64)
        mem = _memory(200, dim=32)
        for _ in range(200):
            lam = float(rng.uniform(0.05, 0.95))
            summary = rng.standard_normal(32) * 0.1
            teacher.push_experience(mem, summary, lam, 2.0 * lam + 1.0)
        for _ in range(400):
            grads, _ = teacher.teacher_step(mem, params, 64, rng, delta=1.0)
            for k in params:
                params[k] -= 0.05 * grads[k]

        s_probe = rng.standard_normal(32) * 0.1
        slope = teacher.dln_feedback(np.append(s_probe, 0.5), params)
        assert slope > 0  # teacher learned: higher weight -> higher loss

        dln_params = hyena.init_dense(6, dln_mod.param_shapes(32), np.float64)
        f = rng.standard_normal((4, 5))
        tape = dln_mod.dln_forward(f, dln_params)
        lam0 = tape.lam
        upstream = teacher.dln_feedback(np.append(tape.hs[-1], lam0), params)
        grads = dln_mod.dln_grads(tape, dln_params, upstream)
        for k in dln_params:
            dln_params[k] -= 1e-2 * grads[k]
        lam1 = dln_mod.dln_forward(f, dln_params).lam
        assert lam1 < lam0
