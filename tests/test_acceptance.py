"""Acceptance suite: every release criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one
``ACCEPTANCE <name>: PASS`` line per criterion. The full-scale comparison
is report-only and needs a real corpus (set ``L2T_PTB_DIR``); it is skipped
otherwise.
"""

import json
import math
import os

import numpy as np
import pytest
from scipy import stats

from helpers import (
    RUN_DIR_FILES,
    csv_column,
    direct_causal_conv,
    finite_diff_failures,
    paper_student_config,
    run_dir_files,
    student_loss_and_grads,
    teacher_predict,
    tiny_student_config,
)

from l2t_hyena import checkpoint, cli, config, corpus, dln, hyena, teacher, trainer


def _report(name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {name}: {status}{suffix}")
    assert ok, f"{name}: {detail}"


def _flags_to_args(flags: dict) -> list[str]:
    args = []
    for key, value in flags.items():
        flag = "--" + key.replace("_", "-")
        if isinstance(value, bool):
            if value:
                args.append(flag)
        else:
            args.extend([flag, str(value)])
    return args


@pytest.fixture(scope="module")
def det_run_pair(smoke_flags, tmp_path_factory):
    """Two identical deterministic smoke runs, used by several criteria."""
    root = tmp_path_factory.mktemp("acceptance")
    runs = []
    for tag in ("a", "b"):
        out = root / f"det_{tag}"
        rc = cli.main(["train"] + _flags_to_args(smoke_flags(out)))
        assert rc == 0
        runs.append(out)
    return runs


def test_fft_convolution_oracle():
    rng = np.random.default_rng(2024)
    cases = {1: 30, 2: 30, 3: 30, 16: 30, 33: 30, 64: 25, 257: 25}
    assert sum(cases.values()) == 200
    worst32 = worst64 = 0.0
    for L, n_cases in cases.items():
        for _ in range(n_cases):
            B = int(rng.integers(1, 4))
            D = int(rng.integers(1, 6))
            u = rng.standard_normal((B, L, D))
            h = rng.standard_normal((L, D))
            ref64 = direct_causal_conv(u, h)
            err64 = np.abs(hyena.fft_causal_conv(u, h) - ref64).max()
            worst64 = max(worst64, err64 / np.abs(ref64).max())
            u32, h32 = u.astype(np.float32), h.astype(np.float32)
            ref32 = direct_causal_conv(u32, h32)
            err32 = np.abs(hyena.fft_causal_conv(u32, h32) - ref32).max()
            worst32 = max(worst32, err32 / np.abs(ref32).max())
    _report(
        "fft-convolution-oracle",
        worst32 <= 1e-5 and worst64 <= 1e-10,
        f"max rel err 32-bit {worst32:.3e} (tol 1e-5), "
        f"64-bit {worst64:.3e} (tol 1e-10), 200 cases",
    )


def test_causality_suite():
    rng = np.random.default_rng(7)
    worst = 0.0
    for case in range(50):
        L = int(rng.integers(4, 13))
        cfg = tiny_student_config(
            vocab_size=int(rng.integers(5, 20)),
            dim=int(rng.integers(2, 5)) * 2,
            n_blocks=int(rng.integers(1, 3)),
            max_seq_len=L,
        )
        params = hyena.init_model(cfg, seed=1000 + case)
        tokens = rng.integers(0, cfg.vocab_size, (2, L))
        t = int(rng.integers(1, L))
        logits = hyena.forward(tokens, params, cfg)
        perturbed = tokens.copy()
        perturbed[0, t] = (perturbed[0, t] + 1) % cfg.vocab_size
        logits2 = hyena.forward(perturbed, params, cfg)
        diff = np.abs(logits2[0, :t] - logits[0, :t]).max()
        scale = max(float(np.abs(logits[0, :t]).max()), 1e-12)
        worst = max(worst, diff / scale)
    _report(
        "causality-suite",
        worst <= 1e-6,
        f"50 model/input pairs, worst pre-perturbation drift {worst:.3e} (tol 1e-6)",
    )


def test_gradient_checks():
    failures = []

    # Student: every parameter array of the tiny configuration.
    cfg = tiny_student_config()
    params = hyena.init_model(cfg, seed=3, dtype=np.float64)
    rng = np.random.default_rng(5)
    tokens = rng.integers(0, cfg.vocab_size, (2, 6))
    targets = rng.integers(0, cfg.vocab_size, (2, 6))
    lam, beta = 0.37, 0.01
    _, _, _, grads = student_loss_and_grads(tokens, targets, params, cfg, lam, beta)

    def student_loss():
        logits = hyena.forward(tokens, params, cfg)
        z = logits - logits.max(-1, keepdims=True)
        lse = np.log(np.exp(z).sum(-1))
        zt = np.take_along_axis(z, targets[..., None], -1)[..., 0]
        return float((lse - zt).mean() + lam * beta * np.mean(logits ** 2))

    failures += finite_diff_failures(params, grads, student_loss)
    n_student = sum(p.size for p in params.values())

    # DLN: GRU and MLP together.
    dparams = hyena.init_dense(7, dln.param_shapes(4, (6, 6, 4)), np.float64)
    f = rng.standard_normal((3, 5))
    upstream = 1.7
    dgrads = dln.dln_grads(dln.dln_forward(f, dparams), dparams, upstream)

    def dln_objective():
        return upstream * dln.dln_forward(f, dparams).lam

    failures += finite_diff_failures(dparams, dgrads, dln_objective)
    n_dln = sum(p.size for p in dparams.values())

    # Teacher MLP, plus its derivative w.r.t. the weight input.
    tparams = hyena.init_dense(9, teacher.param_shapes(4, 8), np.float64)
    mem = teacher.ReplayMemory(10, 4, np.float64)
    for _ in range(6):
        teacher.push_experience(
            mem,
            rng.standard_normal(4),
            float(rng.uniform(0.1, 0.9)),
            float(rng.uniform(0.2, 3.0)),
        )
    tgrads, _ = teacher.teacher_step(mem, tparams, k=5,
                                     rng=np.random.default_rng(42), delta=1.0)

    def teacher_objective():
        rows = teacher.sample_prioritized(mem, 5, np.random.default_rng(42))
        return float(np.mean([
            teacher.huber(
                teacher_predict(mem.summary[r], mem.lam[r], tparams),
                mem.loss[r], 1.0,
            )
            for r in rows
        ]))

    failures += finite_diff_failures(tparams, tgrads, teacher_objective)
    n_teacher = sum(p.size for p in tparams.values())

    s = rng.standard_normal(4)
    lam0 = 0.45
    fb = teacher.dln_feedback(s, lam0, tparams)
    h = 1e-7
    fd = (teacher_predict(s, lam0 + h, tparams)
          - teacher_predict(s, lam0 - h, tparams)) / (2 * h)
    lambda_ok = abs(fb - fd) <= 1e-6

    _report(
        "gradient-checks",
        not failures and lambda_ok,
        f"{n_student} student + {n_dln} dln + {n_teacher} teacher entries, "
        f"{len(failures)} disagreements; d/dlambda gap {abs(fb - fd):.2e}",
    )


def test_optimizer_and_schedule_laws():
    # AdamW decoupled decay with zero gradients, per-step exactness.
    params = {"w": np.array([1.0, -0.5, 2.0])}
    state = trainer.AdamWState(params, weight_decay=0.15, beta1=0.9, beta2=0.999, eps=1e-8)
    zero = {"w": np.zeros(3)}
    decay_ok = True
    for _ in range(100):
        prev = params["w"].copy()
        trainer.adamw_step(params, zero, state, lr_now=2e-4)
        if np.abs(params["w"] - prev * (1.0 - 2e-4 * 0.15)).max() > 1e-12:
            decay_ok = False

    sched_ok = True
    for lr_max, lr_min, warmup, total in ((2e-4, 2e-6, 226, 1130), (1.0, 0.0, 4, 100)):
        ramp_end = trainer.cosine_warmup_lr(warmup, total, warmup, lr_max, lr_min)
        final = trainer.cosine_warmup_lr(total, total, warmup, lr_max, lr_min)
        mid = trainer.cosine_warmup_lr(
            warmup + (total - warmup) // 2, total, warmup, lr_max, lr_min
        )
        sched_ok &= abs(ramp_end - lr_max) <= 1e-12
        sched_ok &= abs(final - lr_min) <= 1e-12
        sched_ok &= abs(mid - (lr_max + lr_min) / 2.0) <= 1e-12

    rng = np.random.default_rng(0)
    clip_ok = True
    for _ in range(50):
        grads = {f"g{i}": rng.standard_normal(int(rng.integers(1, 30)))
                 for i in range(int(rng.integers(1, 4)))}
        max_norm = float(rng.uniform(0.05, 4.0))
        total_norm = trainer.clip_grad_norm(grads, max_norm)
        after = math.sqrt(sum(float(np.sum(g ** 2)) for g in grads.values()))
        target = min(total_norm, max_norm)
        clip_ok &= abs(after - target) <= 1e-6 * target

    _report(
        "optimizer-schedule-laws",
        decay_ok and sched_ok and clip_ok,
        f"decay {decay_ok}, cosine {sched_ok}, clip {clip_ok}",
    )


def test_prioritized_sampling():
    # Rows are told apart by their lambda values 0, 1, 2, ...
    mem = teacher.ReplayMemory(10, 4)
    for step, loss in enumerate((1.0, 3.0)):
        teacher.push_experience(mem, np.zeros(4), float(step), loss)
    rows = teacher.sample_prioritized(mem, 100_000, np.random.default_rng(123))
    rate = float(np.mean(mem.lam[rows] == 1.0))
    rate_ok = abs(rate - 0.75) <= 0.01

    mem = teacher.ReplayMemory(16, 4)
    for step in range(10):
        teacher.push_experience(mem, np.zeros(4), float(step), 2.0)
    rows = teacher.sample_prioritized(mem, 100_000, np.random.default_rng(7))
    counts = np.bincount(mem.lam[rows].astype(int), minlength=10)
    pvalue = float(stats.chisquare(counts).pvalue)
    chi_ok = pvalue > 0.001

    fifo_ok = True
    mem = teacher.ReplayMemory(3, 2)
    for i in range(10):
        teacher.push_experience(mem, np.zeros(2), float(i), 1.0)
        fifo_ok &= mem.lam[:len(mem)].tolist() == list(range(max(0, i - 2), i + 1))

    _report(
        "prioritized-sampling",
        rate_ok and chi_ok and fifo_ok,
        f"pick rate {rate:.4f} (want 0.75 +/- 0.01), chi-square p {pvalue:.4f}, "
        f"fifo {fifo_ok}",
    )


def test_loss_identities():
    # perplexity == exp(val_loss), exactly as floats
    cfg = paper_student_config(vocab_size=12, dim=4, n_blocks=1, max_seq_len=4,
                              filter_pos_dim=5, filter_hidden=4, mlp_expansion=2)
    params = hyena.init_model(cfg, seed=0)
    ids = np.random.default_rng(1).integers(0, 12, 120).astype(np.int32)
    batches = corpus.make_batches(ids, 2, 4)
    val_loss, ppl = trainer.evaluate(params, cfg, batches)
    exp_ok = ppl == math.exp(val_loss)

    uniform = np.zeros((1, 2, 12))
    targets = np.array([[3, 4]])
    ce = hyena.cross_entropy(uniform, targets)
    feats = dln.extract_features(hyena.softmax_xent(uniform, targets))
    uniform_ok = (
        abs(ce - math.log(12)) < 1e-12
        and np.abs(feats[:, 3] - 1.0).max() < 1e-12
    )

    huber_ok = (
        abs(teacher.huber(0.5, 0.0, 1.0) - 0.125) < 1e-15
        and abs(teacher.huber(2.0, 0.0, 1.0) - 1.5) < 1e-15
    )
    _report(
        "loss-identities",
        exp_ok and uniform_ok and huber_ok,
        f"exp identity {exp_ok}, uniform CE/entropy {uniform_ok}, huber {huber_ok}",
    )


def test_determinism(det_run_pair):
    a, b = (run_dir_files(out) for out in det_run_pair)
    differ = sorted(name for name in a.keys() | b.keys() if a.get(name) != b.get(name))
    _report(
        "determinism",
        a.keys() == RUN_DIR_FILES and not differ,
        f"files: {', '.join(sorted(a))}; differing but for out_dir: "
        f"{', '.join(differ) or 'none'}",
    )


def test_learning_smoke(smoke_flags, tmp_path):
    results = {}
    lambda_ok = True
    for mode in ("baseline", "l2t"):
        out = tmp_path / f"learn_{mode}"
        # 51 steps per epoch at this batching; 5 epochs cover 255 steps.
        rc = cli.main(["train"] + _flags_to_args(
            smoke_flags(out, mode=mode, epochs=5, warmup_epochs=1)
        ))
        assert rc == 0
        losses = csv_column(out / "metrics_step.csv", "loss")
        assert len(losses) >= 200
        drop = (losses[0] - losses[199]) / losses[0]
        results[mode] = drop
        if mode == "l2t":
            lams = csv_column(out / "metrics_step.csv", "lambda")
            lambda_ok = all(0.0 < v < 1.0 for v in lams)
    ok = results["baseline"] >= 0.20 and results["l2t"] >= 0.20 and lambda_ok
    _report(
        "learning-smoke",
        ok,
        f"loss drop at step 200: baseline {results['baseline']:.1%}, "
        f"l2t {results['l2t']:.1%} (need >= 20%); lambda in (0,1): {lambda_ok}",
    )


def test_checkpoint_round_trip(det_run_pair, tmp_path):
    run = det_run_pair[0]
    best = run / "best.l2th"

    arrays = checkpoint.load_archive(best)
    resaved = tmp_path / "resaved.l2th"
    checkpoint.save_archive(arrays, resaved)
    bytes_ok = best.read_bytes() == resaved.read_bytes()

    metrics = json.loads((run / "metrics.json").read_text())
    eval_dir = tmp_path / "eval"
    rc = cli.main(["eval", "--checkpoint", str(best), "--out", str(eval_dir)])
    assert rc == 0
    reloaded = json.loads((eval_dir / "eval.json").read_text())["val_ppl"]
    in_process = metrics["best"]["val_ppl"]
    eval_ok = abs(reloaded - in_process) <= 1e-6 * in_process
    _report(
        "checkpoint-round-trip",
        bytes_ok and eval_ok,
        f"save/load/save identical: {bytes_ok}; reload ppl {reloaded:.6f} vs "
        f"in-process {in_process:.6f}",
    )


@pytest.mark.skipif(
    "L2T_PTB_DIR" not in os.environ,
    reason="soft full-scale criterion: set L2T_PTB_DIR to a directory with "
    "ptb.train.txt and ptb.valid.txt",
)
def test_full_scale_soft_report(tmp_path):
    """Report-only: full-size runs on the real corpus, three seeds per mode."""
    root = os.environ["L2T_PTB_DIR"]
    results = {"baseline": [], "l2t": []}
    times = {"baseline": [], "l2t": []}
    for seed in (1, 2, 3):
        for mode in ("baseline", "l2t"):
            out = tmp_path / f"ptb_{mode}_{seed}"
            rc = cli.main([
                "train",
                "--train-path", os.path.join(root, "ptb.train.txt"),
                "--valid-path", os.path.join(root, "ptb.valid.txt"),
                "--out-dir", str(out), "--mode", mode, "--seed", str(seed),
            ])
            assert rc == 0
            doc = json.loads((out / "metrics.json").read_text())
            results[mode].append(doc["best"]["val_ppl"])
            times[mode].append(doc["final"]["total_seconds"])
    in_band = [95.0 <= p <= 140.0 for p in results["baseline"]]
    wins = [l <= b for b, l in zip(results["baseline"], results["l2t"])]
    overhead = [t / b - 1.0 for b, t in zip(times["baseline"], times["l2t"])]
    print(
        "ACCEPTANCE full-scale (SOFT, report only): "
        f"baseline ppl {results['baseline']} (expected band [95, 140]: {in_band}); "
        f"l2t ppl {results['l2t']} (l2t <= baseline per seed: {wins}); "
        f"l2t wall-clock overhead {[f'{o:.0%}' for o in overhead]}"
    )
