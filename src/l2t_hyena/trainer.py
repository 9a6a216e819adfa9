"""Training orchestration: AdamW, cosine schedule, the adaptive-loss loop.

Each of the three components (student, teacher, DLN) has its own AdamW
optimizer and cosine-annealed learning rate with linear warmup. One
training step runs, in order: student forward and its one row softmax;
features from that softmax and the DLN's weight proposal; the student update,
whose loss overwrites the softmax; experience storage; and, once the buffer
holds enough history, one teacher update and one DLN update from the tape of
the DLN forward. Baseline mode runs the student on plain cross-entropy and
leaves the other two components untouched.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

from . import checkpoint, corpus, dln, hyena, teacher
from .config import RunConfig
from .errors import NumericalError

DECAY_FLOOR = 1e-6
_MAX_EXP_ARG = 709.78  # math.exp overflows above log(float max) = 709.7827...


@dataclass
class OptimizerConfig:
    learning_rate: float
    weight_decay: float
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8


class AdamWState:
    """First/second moments per array plus the shared step counter."""

    def __init__(self, params: dict[str, np.ndarray]):
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}
        self.t = 0


def adamw_step(
    params: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
    state: AdamWState,
    cfg: OptimizerConfig,
    lr_now: float,
) -> None:
    """Decoupled-weight-decay Adam update, in place.

    p <- p - lr * (mhat / (sqrt(vhat) + eps) + weight_decay * p), with the
    usual bias-corrected moment estimates.
    """
    state.t += 1
    bc1 = 1.0 - cfg.beta1 ** state.t
    bc2 = 1.0 - cfg.beta2 ** state.t
    for name, p in params.items():
        g = grads[name]
        if not np.all(np.isfinite(g)):
            raise NumericalError(f"non-finite gradient for {name!r}")
        m = state.m[name]
        v = state.v[name]
        m *= cfg.beta1
        m += (1.0 - cfg.beta1) * g
        v *= cfg.beta2
        v += (1.0 - cfg.beta2) * np.square(g)
        update = (m / bc1) / (np.sqrt(v / bc2) + cfg.eps)
        p -= lr_now * (update + cfg.weight_decay * p)


def cosine_warmup_lr(
    step: int, total_steps: int, warmup_steps: int, lr_max: float, lr_min: float
) -> float:
    """Linear ramp to lr_max over warmup, then half-cosine down to lr_min."""
    if step < warmup_steps:
        return lr_max * (step + 1) / warmup_steps
    span = max(total_steps - warmup_steps, 1)
    progress = (step - warmup_steps) / span
    return lr_min + 0.5 * (lr_max - lr_min) * (1.0 + math.cos(math.pi * progress))


def clip_grad_norm(
    grads: dict[str, np.ndarray], max_norm: float
) -> tuple[dict[str, np.ndarray], float]:
    """Global-norm clipping across all arrays, in place. Returns the pre-clip norm."""
    sq = 0.0
    for g in grads.values():
        sq += float(np.sum(np.square(g, dtype=np.float64)))
    total = math.sqrt(sq)
    if total > max_norm:
        scale = max_norm / total
        for g in grads.values():
            g *= scale
    return grads, total


def evaluate(
    params: dict[str, np.ndarray],
    model_cfg: hyena.HyenaConfig,
    batches: list[corpus.TokenBatch],
) -> tuple[float, float]:
    """Token-weighted validation cross-entropy and exp of it. Side-effect free."""
    total_ce = 0.0
    total_tokens = 0
    for b in batches:
        logits = hyena.forward(b.inputs, params, model_cfg)
        n = b.targets.size
        total_ce += hyena.cross_entropy(logits, b.targets) * n
        total_tokens += n
    val_loss = total_ce / total_tokens
    if not val_loss < _MAX_EXP_ARG:  # also catches nan
        raise NumericalError(f"validation loss {val_loss} has no finite perplexity")
    return val_loss, math.exp(val_loss)


@dataclass
class TrainingHistory:
    steps: list[dict] = field(default_factory=list)
    epochs: list[dict] = field(default_factory=list)


@dataclass
class TrainState:
    run_cfg: RunConfig
    model_cfg: hyena.HyenaConfig
    student: dict[str, np.ndarray]
    dln_params: dict[str, np.ndarray]
    teacher_params: dict[str, np.ndarray]
    norm_state: dln.FeatureNormState
    buffer: teacher.MemoryBuffer
    opt_student: AdamWState
    opt_dln: AdamWState
    opt_teacher: AdamWState
    cfg_student: OptimizerConfig
    cfg_dln: OptimizerConfig
    cfg_teacher: OptimizerConfig
    sample_rng: np.random.Generator
    total_steps: int
    warmup_steps: int
    step: int = 0


def _component_seeds(seed: int) -> tuple[int, int, int, int]:
    children = np.random.SeedSequence(seed).spawn(4)
    return tuple(int(c.generate_state(1)[0]) for c in children)


def model_config_from_run(run_cfg: RunConfig, vocab_size: int) -> hyena.HyenaConfig:
    return hyena.HyenaConfig(
        vocab_size=vocab_size,
        dim=run_cfg.dim,
        n_blocks=run_cfg.n_blocks,
        order=run_cfg.order,
        short_kernel=run_cfg.short_kernel,
        max_seq_len=run_cfg.seq_len,
        filter_pos_dim=run_cfg.filter_pos_dim,
        filter_hidden=run_cfg.filter_hidden,
        mlp_expansion=run_cfg.mlp_expansion,
        decay_fastest=run_cfg.decay_fastest,
        decay_slowest=run_cfg.decay_slowest,
    )


def init_train_state(
    run_cfg: RunConfig, vocab_size: int, batches_per_epoch: int
) -> TrainState:
    model_cfg = model_config_from_run(run_cfg, vocab_size)
    adam = (run_cfg.adam_beta1, run_cfg.adam_beta2, run_cfg.adam_eps)
    s_student, s_dln, s_teacher, s_sample = _component_seeds(run_cfg.seed)
    student = hyena.init_model(model_cfg, s_student)
    dln_params = dln.init_dln(s_dln, hidden=run_cfg.dln_hidden)
    teacher_params = teacher.init_teacher(
        s_teacher, summary_dim=run_cfg.dln_hidden, hidden=run_cfg.teacher_hidden
    )
    return TrainState(
        run_cfg=run_cfg,
        model_cfg=model_cfg,
        student=student,
        dln_params=dln_params,
        teacher_params=teacher_params,
        norm_state=dln.FeatureNormState(),
        buffer=teacher.MemoryBuffer(run_cfg.buffer_capacity),
        opt_student=AdamWState(student),
        opt_dln=AdamWState(dln_params),
        opt_teacher=AdamWState(teacher_params),
        cfg_student=OptimizerConfig(run_cfg.lr_student, run_cfg.wd_student, *adam),
        cfg_dln=OptimizerConfig(run_cfg.lr_dln, run_cfg.wd_dln, *adam),
        cfg_teacher=OptimizerConfig(run_cfg.lr_teacher, run_cfg.wd_teacher, *adam),
        sample_rng=np.random.default_rng(s_sample),
        total_steps=run_cfg.epochs * batches_per_epoch,
        warmup_steps=run_cfg.warmup_epochs * batches_per_epoch,
    )


def _lr(state: TrainState, lr_max: float, scheduled: bool) -> float:
    if not scheduled:
        return lr_max
    return cosine_warmup_lr(
        state.step, state.total_steps, state.warmup_steps, lr_max, lr_max / 100.0
    )


def _clamp_decay(state: TrainState) -> None:
    # Optimizer steps must not drive the filter decay rates non-positive.
    for i in range(state.model_cfg.n_blocks):
        arr = state.student[f"block{i}.decay"]
        np.maximum(arr, DECAY_FLOOR, out=arr)


def train_step(state: TrainState, batch: corpus.TokenBatch) -> dict:
    """One optimizer step for the student (and, in l2t mode, the rest).

    Returns the step's scalar metrics. A non-finite loss or gradient raises
    NumericalError tagged with the step index.
    """
    rc = state.run_cfg
    l2t = rc.mode == "l2t"
    try:
        logits, cache = hyena.forward(batch.inputs, state.student, state.model_cfg,
                                      want_cache=True)

        sx = hyena.softmax_xent(logits, batch.targets)
        tape = None
        if l2t:
            # Features first: the loss below overwrites sx.p with dlogits.
            feats = dln.extract_features(sx)
            f_norm = dln.normalize_features(feats, state.norm_state, training=True)
            tape = dln.dln_forward(f_norm, state.dln_params)
        lam = tape.lam if l2t else None

        loss, ce, l2, sgrads = hyena.loss_and_grads_from_logits(
            logits, cache, sx, state.student, state.model_cfg, lam, rc.beta,
        )
        del logits, cache, sx
        _, snorm = clip_grad_norm(sgrads, rc.clip_norm)
        if not math.isfinite(snorm):
            raise NumericalError(f"non-finite student gradient norm {snorm}")
        lr_student = _lr(state, rc.lr_student, scheduled=True)
        adamw_step(state.student, sgrads, state.opt_student, state.cfg_student,
                   lr_student)
        _clamp_decay(state)

        metrics = {
            "step": state.step,
            "loss": loss,
            "ce": ce,
            "l2": l2,
            "lambda": lam if lam is not None else 0.0,
            "grad_norm_student": snorm,
            "grad_norm_teacher": 0.0,
            "grad_norm_dln": 0.0,
            "lr_student": lr_student,
            "lr_teacher": _lr(state, rc.lr_teacher, rc.schedule_teacher),
            "lr_dln": _lr(state, rc.lr_dln, rc.schedule_dln),
            "teacher_huber": 0.0,
            "teacher_active": False,
        }

        if l2t:
            teacher.push_experience(
                state.buffer,
                teacher.Experience(summary=tape.summary.copy(), lam_used=lam,
                                   student_loss=loss, step=state.step),
            )
            if len(state.buffer) >= rc.activation_threshold:
                tgrads, huber_loss = teacher.teacher_step(
                    state.buffer, state.teacher_params, rc.teacher_k,
                    state.sample_rng, rc.huber_delta,
                )
                _, tnorm = clip_grad_norm(tgrads, rc.clip_norm)
                adamw_step(
                    state.teacher_params, tgrads, state.opt_teacher,
                    state.cfg_teacher, metrics["lr_teacher"],
                )

                upstream = teacher.dln_feedback(tape.summary, lam, state.teacher_params)
                dgrads = dln.dln_grads(tape, state.dln_params, upstream)
                _, dnorm = clip_grad_norm(dgrads, rc.clip_norm)
                adamw_step(
                    state.dln_params, dgrads, state.opt_dln, state.cfg_dln,
                    metrics["lr_dln"],
                )
                metrics["teacher_huber"] = huber_loss
                metrics["teacher_active"] = True
                metrics["grad_norm_teacher"] = tnorm
                metrics["grad_norm_dln"] = dnorm
    except NumericalError as exc:
        raise NumericalError(f"step {state.step}: {exc}") from None

    state.step += 1
    return metrics


def archive_arrays(state: TrainState) -> dict[str, np.ndarray]:
    arrays = {}
    for prefix, params in (("student/", state.student), ("dln/", state.dln_params),
                           ("teacher/", state.teacher_params)):
        arrays.update((prefix + k, v) for k, v in params.items())
    arrays["norm/mean"] = state.norm_state.mean
    arrays["norm/var"] = state.norm_state.var
    arrays["norm/count"] = np.array(float(state.norm_state.count))
    return arrays


def train(run_cfg: RunConfig, quiet: bool = False):
    """Full training run: returns (history, info dict with best/final stats).

    Writes ``best.l2th`` (lowest validation perplexity so far) and
    ``last.l2th`` into the output directory as training progresses.
    """
    train_lines = corpus.read_lines(run_cfg.train_path)
    valid_lines = corpus.read_lines(run_cfg.valid_path)
    vocab = corpus.build_vocab(train_lines, run_cfg.max_vocab)
    train_ids = corpus.encode(train_lines, vocab)
    valid_ids = corpus.encode(valid_lines, vocab)
    batches = corpus.make_batches(train_ids, run_cfg.batch_size, run_cfg.seq_len)
    val_batches = corpus.make_batches(valid_ids, run_cfg.batch_size, run_cfg.seq_len)

    state = init_train_state(run_cfg, len(vocab), len(batches))
    os.makedirs(run_cfg.out_dir, exist_ok=True)
    corpus.save_vocab(vocab, os.path.join(run_cfg.out_dir, "vocab.txt"))
    best_path = os.path.join(run_cfg.out_dir, "best.l2th")
    last_path = os.path.join(run_cfg.out_dir, "last.l2th")

    history = TrainingHistory()
    best = {"epoch": -1, "val_loss": math.inf, "val_ppl": math.inf}
    total_seconds = 0.0
    train_loss_mean = math.nan

    for epoch in range(run_cfg.epochs):
        t0 = time.perf_counter()
        loss_sum = 0.0
        lam_sum = 0.0
        huber_sum = 0.0
        huber_count = 0
        lr_last = 0.0
        for batch in batches:
            m = train_step(state, batch)
            history.steps.append(m)
            loss_sum += m["loss"]
            lam_sum += m["lambda"]
            lr_last = m["lr_student"]
            if m["teacher_active"]:
                huber_sum += m["teacher_huber"]
                huber_count += 1
        val_loss, val_ppl = evaluate(state.student, state.model_cfg, val_batches)
        seconds = time.perf_counter() - t0
        if run_cfg.deterministic:
            seconds = 0.0  # wall-clock would break bit-reproducible metrics
        total_seconds += seconds

        train_loss_mean = loss_sum / len(batches)
        row = {
            "epoch": epoch,
            "train_loss": train_loss_mean,
            "val_loss": val_loss,
            "val_ppl": val_ppl,
            "mean_lambda": lam_sum / len(batches),
            "teacher_huber": huber_sum / huber_count if huber_count else 0.0,
            "lr_student": lr_last,
            "seconds": seconds,
        }
        history.epochs.append(row)
        if not quiet:
            print(
                f"epoch {epoch}: train_loss {row['train_loss']:.4f} "
                f"val_loss {val_loss:.4f} val_ppl {val_ppl:.2f} "
                f"mean_lambda {row['mean_lambda']:.4f} ({seconds:.1f}s)"
            )
        if val_ppl < best["val_ppl"]:
            best = {"epoch": epoch, "val_loss": val_loss, "val_ppl": val_ppl}
            checkpoint.save_archive(archive_arrays(state), best_path)
        checkpoint.save_archive(archive_arrays(state), last_path)

    info = {
        "corpus": {
            "train_tokens": int(train_ids.size),
            "valid_tokens": int(valid_ids.size),
            "vocab_size": len(vocab),
            "valid_oov_rate": corpus.oov_rate(valid_lines, vocab),
            "batches_per_epoch": len(batches),
        },
        "best": best,
        "final": {"train_loss": train_loss_mean, "total_seconds": total_seconds},
        # Resuming restarts memory accumulation: the replay buffer has no
        # serialized form.
        "notes": {"replay_buffer_checkpointed": False},
    }
    return history, info
