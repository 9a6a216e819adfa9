import numpy as np
import pytest
from scipy import stats

from helpers import finite_diff_failures

from l2t_hyena import teacher
from l2t_hyena.errors import EmptyBuffer, InvalidExperience


def _exp(loss, step=0, dim=4, seed=0, lam=0.5):
    rng = np.random.default_rng(seed)
    return teacher.Experience(
        summary=rng.standard_normal(dim), lam_used=lam, student_loss=loss, step=step
    )


class TestBuffer:
    def test_single_push(self):
        buf = teacher.MemoryBuffer(500)
        teacher.push_experience(buf, _exp(1.0))
        assert len(buf) == 1

    def test_fifo_at_full_capacity(self):
        buf = teacher.MemoryBuffer(500)
        for i in range(501):
            teacher.push_experience(buf, _exp(1.0, step=i))
        assert len(buf) == 500
        steps = [e.step for e in buf]
        assert steps == list(range(1, 501))  # experience #1 (step 0) evicted

    def test_fifo_exhaustive_capacity_three(self):
        buf = teacher.MemoryBuffer(3)
        for i in range(10):
            teacher.push_experience(buf, _exp(1.0, step=i))
            expected = list(range(max(0, i - 2), i + 1))
            assert [e.step for e in buf] == expected
            assert len(buf) <= 3

    def test_non_finite_rejected(self):
        buf = teacher.MemoryBuffer(5)
        with pytest.raises(InvalidExperience):
            teacher.push_experience(buf, _exp(float("nan")))
        with pytest.raises(InvalidExperience):
            teacher.push_experience(buf, _exp(float("inf")))
        bad = _exp(1.0)
        bad.summary[0] = np.nan
        with pytest.raises(InvalidExperience):
            teacher.push_experience(buf, bad)
        with pytest.raises(InvalidExperience):
            teacher.push_experience(buf, _exp(-0.5))
        assert len(buf) == 0  # rejected pushes leave the buffer unchanged


class TestPrioritizedSampling:
    def test_loss_proportional_rates(self):
        buf = teacher.MemoryBuffer(10)
        teacher.push_experience(buf, _exp(1.0, step=0))
        teacher.push_experience(buf, _exp(3.0, step=1))
        rng = np.random.default_rng(123)
        draws = teacher.sample_prioritized(buf, 100_000, rng)
        rate = np.mean([e.step == 1 for e in draws])
        assert abs(rate - 0.75) < 0.01

    def test_uniform_when_losses_equal(self):
        buf = teacher.MemoryBuffer(10)
        for i in range(10):
            teacher.push_experience(buf, _exp(2.0, step=i))
        rng = np.random.default_rng(7)
        draws = teacher.sample_prioritized(buf, 100_000, rng)
        counts = np.bincount([e.step for e in draws], minlength=10)
        assert stats.chisquare(counts).pvalue > 0.001

    def test_single_experience_always_returned(self):
        buf = teacher.MemoryBuffer(10)
        teacher.push_experience(buf, _exp(0.5, step=9))
        rng = np.random.default_rng(8)
        draws = teacher.sample_prioritized(buf, 50, rng)
        assert all(e.step == 9 for e in draws)

    def test_zero_loss_uses_floor(self):
        buf = teacher.MemoryBuffer(10)
        teacher.push_experience(buf, _exp(0.0, step=0))
        teacher.push_experience(buf, _exp(0.0, step=1))
        rng = np.random.default_rng(9)
        draws = teacher.sample_prioritized(buf, 1000, rng)
        picked = {e.step for e in draws}
        assert picked == {0, 1}

    def test_empty_buffer(self):
        with pytest.raises(EmptyBuffer):
            teacher.sample_prioritized(teacher.MemoryBuffer(3), 1,
                                       np.random.default_rng(0))

    def test_deterministic_given_rng_state(self):
        buf = teacher.MemoryBuffer(10)
        for i in range(5):
            teacher.push_experience(buf, _exp(float(i + 1), step=i))
        d1 = teacher.sample_prioritized(buf, 20, np.random.default_rng(5))
        d2 = teacher.sample_prioritized(buf, 20, np.random.default_rng(5))
        assert [e.step for e in d1] == [e.step for e in d2]


class TestPredict:
    def test_zero_weights_zero_output(self):
        params = teacher.init_teacher(seed=0, summary_dim=4, hidden=8)
        for v in params.values():
            v[:] = 0.0
        assert teacher.teacher_predict(np.ones(4), 0.7, params) == 0.0

    def test_bit_identical_repeat(self):
        params = teacher.init_teacher(seed=1, summary_dim=4, hidden=8)
        s = np.random.default_rng(2).standard_normal(4)
        assert teacher.teacher_predict(s, 0.3, params) == teacher.teacher_predict(
            s, 0.3, params
        )

    def test_lipschitz_in_lambda(self):
        params = teacher.init_teacher(seed=3, summary_dim=4, hidden=8,
                                      dtype=np.float64)
        lip = 1.0
        for w in ("w1", "w2", "w3"):
            lip *= np.linalg.svd(params[w], compute_uv=False)[0]
        s = np.random.default_rng(4).standard_normal(4)
        base = teacher.teacher_predict(s, 0.5, params)
        for eps in (1e-3, 1e-2, 0.1):
            moved = teacher.teacher_predict(s, 0.5 + eps, params)
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
        params = teacher.init_teacher(seed=0, summary_dim=4, hidden=8)
        for v in params.values():
            v[:] = 0.0
        buf = teacher.MemoryBuffer(5)
        teacher.push_experience(buf, _exp(2.0))
        _, hub = teacher.teacher_step(buf, params, k=1,
                                      rng=np.random.default_rng(0), delta=1.0)
        assert hub == pytest.approx(1.5, abs=1e-12)

    def test_deterministic_given_rng(self):
        params = teacher.init_teacher(seed=1, summary_dim=4, hidden=8)
        buf = teacher.MemoryBuffer(5)
        for i in range(4):
            teacher.push_experience(buf, _exp(1.0 + i, step=i, seed=i))
        g1, h1 = teacher.teacher_step(buf, params, 8, np.random.default_rng(3))
        g2, h2 = teacher.teacher_step(buf, params, 8, np.random.default_rng(3))
        assert h1 == h2
        for k in g1:
            assert np.array_equal(g1[k], g2[k])

    def test_finite_difference_agreement(self):
        params = teacher.init_teacher(seed=2, summary_dim=4, hidden=8,
                                      dtype=np.float64)
        buf = teacher.MemoryBuffer(10)
        rng = np.random.default_rng(5)
        for i in range(6):
            teacher.push_experience(
                buf,
                teacher.Experience(
                    summary=rng.standard_normal(4),
                    lam_used=float(rng.uniform(0.1, 0.9)),
                    student_loss=float(rng.uniform(0.2, 3.0)),
                    step=i,
                ),
            )
        grads, _ = teacher.teacher_step(buf, params, k=5,
                                        rng=np.random.default_rng(42), delta=1.0)

        def objective():
            batch = teacher.sample_prioritized(buf, 5, np.random.default_rng(42))
            preds = [teacher.teacher_predict(e.summary, e.lam_used, params)
                     for e in batch]
            return float(
                np.mean([teacher.huber(p, e.student_loss, 1.0)
                         for p, e in zip(preds, batch)])
            )

        failures = finite_diff_failures(params, grads, objective)
        assert failures == [], failures[:5]


class TestDlnFeedback:
    def test_zero_teacher_gives_zero_feedback(self):
        params = teacher.init_teacher(seed=0, summary_dim=4, hidden=8)
        for v in params.values():
            v[:] = 0.0
        assert teacher.dln_feedback(np.ones(4), 0.5, params) == 0.0

    def test_matches_finite_difference(self):
        params = teacher.init_teacher(seed=1, summary_dim=6, hidden=16,
                                      dtype=np.float64)
        s = np.random.default_rng(2).standard_normal(6)
        lam = 0.4
        fb = teacher.dln_feedback(s, lam, params)
        h = 1e-7
        fd = (
            teacher.teacher_predict(s, lam + h, params)
            - teacher.teacher_predict(s, lam - h, params)
        ) / (2 * h)
        assert abs(fb - fd) < 1e-6

    def test_bit_identical_with_frozen_teacher(self):
        params = teacher.init_teacher(seed=3, summary_dim=4, hidden=8)
        s = np.random.default_rng(4).standard_normal(4)
        assert teacher.dln_feedback(s, 0.3, params) == teacher.dln_feedback(
            s, 0.3, params
        )

    def test_monotone_teacher_drives_weight_down(self):
        # Fit the teacher on synthetic data where loss increases with the
        # weight; the DLN's single step must then reduce its proposed weight.
        from l2t_hyena import dln as dln_mod

        rng = np.random.default_rng(10)
        params = teacher.init_teacher(seed=5, summary_dim=32, hidden=16,
                                      dtype=np.float64)
        buf = teacher.MemoryBuffer(200)
        for i in range(200):
            lam = float(rng.uniform(0.05, 0.95))
            summary = rng.standard_normal(32) * 0.1
            teacher.push_experience(
                buf,
                teacher.Experience(summary=summary, lam_used=lam,
                                   student_loss=2.0 * lam + 1.0, step=i),
            )
        for _ in range(400):
            grads, _ = teacher.teacher_step(buf, params, 64, rng, delta=1.0)
            for k in params:
                params[k] -= 0.05 * grads[k]

        s_probe = rng.standard_normal(32) * 0.1
        slope = teacher.dln_feedback(s_probe, 0.5, params)
        assert slope > 0  # teacher learned: higher weight -> higher loss

        dln_params = dln_mod.init_dln(seed=6, dtype=np.float64)
        f = rng.standard_normal((4, 5))
        tape = dln_mod.dln_forward(f, dln_params)
        lam0 = tape.lam
        upstream = teacher.dln_feedback(tape.summary, lam0, params)
        grads = dln_mod.dln_grads(tape, dln_params, upstream)
        for k in dln_params:
            dln_params[k] -= 1e-2 * grads[k]
        lam1 = dln_mod.dln_forward(f, dln_params).lam
        assert lam1 < lam0
