"""Training orchestration: AdamW, cosine schedule, the adaptive-loss loop.

Each component (student, teacher, DLN) has an AdamW state holding its own
weight decay and Adam settings, and a cosine-annealed learning rate with
linear warmup; ``_update`` clips, checks and steps every one of them, and
AdamW walks each large array in block-sized slices. A training step runs:
student forward and one pass over the logits' row softmax, which keeps
per-position terms only; features from those terms and the DLN's weight
proposal; the student update, whose loss overwrites the logits with
dlogits; experience storage in the teacher's replay memory; and, once it
holds enough history, one teacher and one DLN update from the DLN's tape.
Baseline mode trains only the student with lambda = 0: plain cross-entropy.
``train`` runs the epochs and is the one writer of the run directory;
``load_student`` and ``load_summary`` are its readers, and only this module
names its files.
"""

from __future__ import annotations

import json
import math
import os
import time
from dataclasses import dataclass

import numpy as np

from . import checkpoint, corpus, dln, hyena, teacher
from .config import RunConfig, echo_config, model_config_from_run, resolve_config
from .errors import CheckpointError, DataError, NumericalError

DECAY_FLOOR = 1e-6
CONFIG_FILE = "config_resolved.txt"
VOCAB_FILE = "vocab.txt"
SUMMARY_FILE = "metrics.json"
STEP_COLUMNS = ("step", "loss", "ce", "l2", "lambda", "grad_norm_student")
EPOCH_COLUMNS = (
    "epoch", "train_loss", "val_loss", "val_ppl",
    "mean_lambda", "teacher_huber", "lr_student", "seconds",
)
_MAX_EXP_ARG = 709.78  # math.exp overflows above log(float max) = 709.7827...


class AdamWState:
    """One component's AdamW settings, moments per array and step counter."""

    def __init__(self, params: dict[str, np.ndarray], weight_decay: float,
                 beta1: float, beta2: float, eps: float):
        self.weight_decay = weight_decay
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}
        self.t = 0


def _adamw_slice(p, g, m, v, t1, t2, consts: tuple) -> None:
    # adamw_step's operations on one slice, in the order of its formula; t1
    # and t2 are scratch. Each product is commutative, so the bits match.
    beta1, beta2, bc1, bc2, eps, weight_decay, lr_now = consts
    m *= beta1
    m += np.multiply(g, 1.0 - beta1, t1)
    v *= beta2
    np.square(g, t1)
    t1 *= 1.0 - beta2
    v += t1
    np.divide(v, bc2, t1)
    np.sqrt(t1, t1)
    t1 += eps
    np.divide(m, bc1, t2)
    t2 /= t1
    t2 += np.multiply(p, weight_decay, t1)
    t2 *= lr_now
    p -= t2


def adamw_step(
    params: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
    opt: AdamWState,
    lr_now: float,
) -> None:
    """Decoupled-weight-decay Adam update, in place.

    p <- p - lr * (mhat / (sqrt(vhat) + eps) + weight_decay * p), with the
    usual bias-corrected moment estimates. An array larger than
    ``hyena.BLOCK`` is updated in slices of that many elements through two
    scratch buffers of its dtype, so no temporary is the size of a large
    parameter; its parameter and moments must be C-contiguous, as every
    array the package creates is. Gradients are not checked here:
    ``_update`` has already rejected a non-finite global norm.
    """
    opt.t += 1
    consts = (opt.beta1, opt.beta2, 1.0 - opt.beta1 ** opt.t, 1.0 - opt.beta2 ** opt.t,
              opt.eps, opt.weight_decay, lr_now)
    block = hyena.BLOCK
    for name, p in params.items():
        arrays = (p, grads[name], opt.m[name], opt.v[name])
        if p.size <= block:  # one slice: the arrays themselves
            _adamw_slice(*arrays, np.empty_like(p), np.empty_like(p), consts)
            continue
        flat = [a.reshape(-1) for a in arrays]
        t1, t2 = np.empty((2, block), p.dtype)
        for a in range(0, p.size, block):
            parts = [f[a:a + block] for f in flat]
            n = len(parts[0])
            _adamw_slice(*parts, t1[:n], t2[:n], consts)


def cosine_warmup_lr(
    step: int, total_steps: int, warmup_steps: int, lr_max: float, lr_min: float
) -> float:
    """Linear ramp to lr_max over warmup, then half-cosine down to lr_min."""
    if step < warmup_steps:
        return lr_max * (step + 1) / warmup_steps
    span = max(total_steps - warmup_steps, 1)
    progress = (step - warmup_steps) / span
    return lr_min + 0.5 * (lr_max - lr_min) * (1.0 + math.cos(math.pi * progress))


def _sum_squares(x: np.ndarray, buf: np.ndarray):
    """``np.sum(np.square(x, dtype=buf.dtype))`` of a flat ``x``, squared through ``buf``.

    Splits ``x`` where NumPy's pairwise summation splits it: in halves, the
    split rounded down to a multiple of 8. Each part that fits ``buf`` (at
    least 128 elements unless it is all of ``x``) is one ``np.sum``, so the
    result has the same bits as the whole-array sum without its temporary.
    """
    n = len(x)
    if n <= len(buf):
        return np.square(x, out=buf[:n], dtype=buf.dtype).sum()
    half = n // 2
    half -= half % 8
    return _sum_squares(x[:half], buf) + _sum_squares(x[half:], buf)


def clip_grad_norm(grads: dict[str, np.ndarray], max_norm: float) -> float:
    """Global-norm clipping across all arrays, in place. Returns the pre-clip norm.

    Each array's float64 sum of squares is ``np.sum``'s, squared through one
    buffer of at most ``hyena.BLOCK`` elements instead of a float64 copy.
    """
    buf = np.empty(min(max((g.size for g in grads.values()), default=0), hyena.BLOCK))
    sq = 0.0
    for g in grads.values():
        sq += float(_sum_squares(g.reshape(-1), buf))
    total = math.sqrt(sq)
    if total > max_norm:
        scale = max_norm / total
        for g in grads.values():
            g *= scale
    return total


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
class TrainState:
    run_cfg: RunConfig
    model_cfg: hyena.HyenaConfig
    student: dict[str, np.ndarray]
    dln_params: dict[str, np.ndarray]
    teacher_params: dict[str, np.ndarray]
    norm_state: dln.FeatureNormState
    buffer: teacher.ReplayMemory
    opt_student: AdamWState
    opt_dln: AdamWState
    opt_teacher: AdamWState
    sample_rng: np.random.Generator
    total_steps: int
    warmup_steps: int
    step: int = 0


def _component_seeds(seed: int) -> tuple[int, int, int, int]:
    children = np.random.SeedSequence(seed).spawn(4)
    return tuple(int(c.generate_state(1)[0]) for c in children)


def init_train_state(
    run_cfg: RunConfig, vocab_size: int, batches_per_epoch: int
) -> TrainState:
    model_cfg = model_config_from_run(run_cfg, vocab_size)
    adam = (run_cfg.adam_beta1, run_cfg.adam_beta2, run_cfg.adam_eps)
    s_student, s_dln, s_teacher, s_sample = _component_seeds(run_cfg.seed)
    student = hyena.init_model(model_cfg, s_student)
    dln_params = hyena.init_dense(s_dln, dln.param_shapes(run_cfg.dln_hidden))
    teacher_params = hyena.init_dense(
        s_teacher, teacher.param_shapes(run_cfg.dln_hidden, run_cfg.teacher_hidden))
    return TrainState(
        run_cfg=run_cfg,
        model_cfg=model_cfg,
        student=student,
        dln_params=dln_params,
        teacher_params=teacher_params,
        norm_state=dln.FeatureNormState(),
        buffer=teacher.ReplayMemory(run_cfg.buffer_capacity, run_cfg.dln_hidden),
        opt_student=AdamWState(student, run_cfg.wd_student, *adam),
        opt_dln=AdamWState(dln_params, run_cfg.wd_dln, *adam),
        opt_teacher=AdamWState(teacher_params, run_cfg.wd_teacher, *adam),
        sample_rng=np.random.default_rng(s_sample),
        total_steps=run_cfg.epochs * batches_per_epoch,
        warmup_steps=run_cfg.warmup_epochs * batches_per_epoch,
    )


def _lr(state: TrainState, lr_max: float) -> float:
    return cosine_warmup_lr(
        state.step, state.total_steps, state.warmup_steps, lr_max, lr_max / 100.0
    )


def _update(state: TrainState, params: dict[str, np.ndarray],
            grads: dict[str, np.ndarray], opt: AdamWState, lr_now: float) -> float:
    """Clip, reject a non-finite norm, AdamW step. Returns the pre-clip norm."""
    norm = clip_grad_norm(grads, state.run_cfg.clip_norm)
    if not math.isfinite(norm):
        raise NumericalError(f"non-finite gradient norm {norm}")
    adamw_step(params, grads, opt, lr_now)
    return norm


def _clamp_decay(state: TrainState) -> None:
    # Optimizer steps must not drive the filter decay rates non-positive.
    for i in range(state.model_cfg.n_blocks):
        arr = state.student[f"block{i}.decay"]
        np.maximum(arr, DECAY_FLOOR, out=arr)


def train_step(state: TrainState, batch: corpus.TokenBatch) -> dict:
    """One optimizer step for the student (and, in l2t mode, the rest).

    Returns the step's record, built after the updates: the ``STEP_COLUMNS``
    (step, loss, ce, l2, lambda, grad_norm_student), and ``lr_student``,
    ``teacher_huber`` (0.0 unless ``teacher_active``) and ``teacher_active``,
    which ``train``'s epoch row reads. A non-finite loss or gradient raises
    NumericalError tagged with the step index.
    """
    rc = state.run_cfg
    l2t = rc.mode == "l2t"
    huber_loss, active = 0.0, False
    try:
        # The cache owns the logits, its last entry; the reverse pass frees them.
        cache = hyena.forward(batch.inputs, state.student, state.model_cfg,
                              want_cache=True)
        sx = hyena.softmax_xent(cache[-1], batch.targets, features=l2t)
        lam = 0.0
        if l2t:
            # The loss below needs the DLN's weight, and overwrites logits.
            feats = dln.extract_features(sx)
            f_norm = dln.normalize_features(feats, state.norm_state)
            tape = dln.dln_forward(f_norm, state.dln_params)
            lam = tape.lam

        loss, ce, l2, sgrads = hyena.loss_and_grads_from_logits(
            cache, sx, state.student, lam, rc.beta,
        )
        lr_student = _lr(state, rc.lr_student)
        snorm = _update(state, state.student, sgrads, state.opt_student, lr_student)
        _clamp_decay(state)

        if l2t:
            teacher.push_experience(state.buffer, tape.hs[-1], lam, loss)
            active = len(state.buffer) >= rc.activation_threshold
            if active:
                tgrads, huber_loss = teacher.teacher_step(
                    state.buffer, state.teacher_params, rc.teacher_k,
                    state.sample_rng, rc.huber_delta,
                )
                _update(state, state.teacher_params, tgrads, state.opt_teacher,
                        _lr(state, rc.lr_teacher))

                upstream = teacher.dln_feedback(tape.hs[-1], lam, state.teacher_params)
                dgrads = dln.dln_grads(tape, state.dln_params, upstream)
                _update(state, state.dln_params, dgrads, state.opt_dln, _lr(state, rc.lr_dln))
    except NumericalError as exc:
        raise NumericalError(f"step {state.step}: {exc}") from None

    metrics = {
        "step": state.step,
        "loss": loss,
        "ce": ce,
        "l2": l2,
        "lambda": lam,
        "grad_norm_student": snorm,
        "lr_student": lr_student,
        "teacher_huber": huber_loss,
        "teacher_active": active,
    }
    state.step += 1
    return metrics


def archive_arrays(state: TrainState) -> dict[str, np.ndarray]:
    norm = {"mean": state.norm_state.mean, "var": state.norm_state.var}
    return {prefix + k: v
            for prefix, params in (("student/", state.student), ("dln/", state.dln_params),
                                   ("teacher/", state.teacher_params), ("norm/", norm))
            for k, v in params.items()}


def _fmt(value) -> str:
    """One CSV cell: floats get 9 significant digits."""
    return f"{value:.9g}" if isinstance(value, float) else str(value)


def _append_rows(path: str, columns: tuple[str, ...], rows: list[dict]) -> None:
    with open(path, "a", encoding="utf-8") as fh:
        for row in rows:
            fh.write(",".join(_fmt(row[c]) for c in columns) + "\n")


def write_json(out_dir: str, name: str, doc: dict) -> None:
    """``doc`` as indented JSON and a newline, in ``out_dir``, which it creates if needed."""
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, name), "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def train(run_cfg: RunConfig) -> dict:
    """Full training run, the only writer of ``run_cfg.out_dir``.

    Before the first step it writes ``config_resolved.txt``, ``vocab.txt``
    and the headers of ``metrics_step.csv`` and ``metrics_epoch.csv``. As
    each epoch ends it appends that epoch's step rows and epoch row and
    saves ``last.l2th`` and, when validation perplexity is the lowest so
    far, ``best.l2th``; a run that raises keeps its finished epochs. At the
    end it writes the run's summary, ``metrics.json``, whose ``final`` stats
    derive from the epoch rows, and returns it. The checkpoints and summary
    of an earlier run in the directory are removed first, so none is left
    beside another run's vocabulary.
    """
    train_lines = corpus.read_lines(run_cfg.train_path)
    valid_lines = corpus.read_lines(run_cfg.valid_path)
    vocab = corpus.build_vocab(train_lines, run_cfg.max_vocab)
    train_ids = corpus.encode(train_lines, vocab)
    valid_ids = corpus.encode(valid_lines, vocab)
    batches = corpus.make_batches(train_ids, run_cfg.batch_size, run_cfg.seq_len)
    val_batches = corpus.make_batches(valid_ids, run_cfg.batch_size, run_cfg.seq_len)

    state = init_train_state(run_cfg, len(vocab), len(batches))

    def path(name: str) -> str:
        return os.path.join(run_cfg.out_dir, name)

    os.makedirs(run_cfg.out_dir, exist_ok=True)
    for name in ("best.l2th", "last.l2th", SUMMARY_FILE):
        # An earlier run's, which this run's vocabulary would not describe.
        if os.path.isfile(path(name)):
            os.remove(path(name))
    with open(path(CONFIG_FILE), "w", encoding="utf-8") as fh:
        fh.write(echo_config(run_cfg))
    corpus.save_vocab(vocab, path(VOCAB_FILE))
    for name, columns in (("metrics_step.csv", STEP_COLUMNS),
                          ("metrics_epoch.csv", EPOCH_COLUMNS)):
        with open(path(name), "w", encoding="utf-8") as fh:
            fh.write(",".join(columns) + "\n")

    best = {"epoch": -1, "val_loss": math.inf, "val_ppl": math.inf}
    rows = []

    for epoch in range(run_cfg.epochs):
        t0 = time.perf_counter()
        steps = [train_step(state, batch) for batch in batches]
        val_loss, val_ppl = evaluate(state.student, state.model_cfg, val_batches)
        seconds = time.perf_counter() - t0
        if run_cfg.deterministic:
            seconds = 0.0  # wall-clock would break bit-reproducible metrics

        hubers = [m["teacher_huber"] for m in steps if m["teacher_active"]]
        row = {
            "epoch": epoch,
            "train_loss": sum(m["loss"] for m in steps) / len(steps),
            "val_loss": val_loss,
            "val_ppl": val_ppl,
            "mean_lambda": sum(m["lambda"] for m in steps) / len(steps),
            "teacher_huber": sum(hubers) / len(hubers) if hubers else 0.0,
            "lr_student": steps[-1]["lr_student"],
            "seconds": seconds,
        }
        rows.append(row)
        _append_rows(path("metrics_step.csv"), STEP_COLUMNS, steps)
        _append_rows(path("metrics_epoch.csv"), EPOCH_COLUMNS, [row])
        print(
            f"epoch {epoch}: train_loss {row['train_loss']:.4f} "
            f"val_loss {val_loss:.4f} val_ppl {val_ppl:.2f} "
            f"mean_lambda {row['mean_lambda']:.4f} ({seconds:.1f}s)"
        )
        arrays = archive_arrays(state)
        if val_ppl < best["val_ppl"]:
            best = {"epoch": epoch, "val_loss": val_loss, "val_ppl": val_ppl}
            checkpoint.save_archive(arrays, path("best.l2th"))
        checkpoint.save_archive(arrays, path("last.l2th"))

    summary = {
        "mode": run_cfg.mode,
        "corpus": {
            "train_tokens": int(train_ids.size),
            "valid_tokens": int(valid_ids.size),
            "vocab_size": len(vocab),
            "valid_oov_rate": corpus.oov_rate(valid_lines, vocab),
            "batches_per_epoch": len(batches),
        },
        "best": best,
        "final": {"train_loss": rows[-1]["train_loss"],
                  "total_seconds": sum(r["seconds"] for r in rows)},
        # Resuming restarts memory accumulation: the replay buffer has no
        # serialized form.
        "notes": {"replay_buffer_checkpointed": False},
    }
    write_json(run_cfg.out_dir, SUMMARY_FILE, summary)
    return summary


def load_student(checkpoint_path: str) -> tuple[RunConfig, corpus.Vocab,
                                                 hyena.HyenaConfig, dict[str, np.ndarray]]:
    """The student a ``train`` run saved: its run config, vocabulary, shape and arrays.

    The checkpoint is opened first (``CheckpointError``, exit 5), then the
    ``config_resolved.txt`` (``ConfigError``, exit 2) and ``vocab.txt``
    (``DataError``, exit 3) that ``train`` wrote beside it. The ``student/``
    arrays must be exactly those the config and vocabulary imply, each of
    its implied shape; arrays under other prefixes are not read.
    """
    archive = checkpoint.load_archive(checkpoint_path)
    run_dir = os.path.dirname(checkpoint_path)
    run_cfg = resolve_config(os.path.join(run_dir, CONFIG_FILE))
    vocab = corpus.load_vocab(os.path.join(run_dir, VOCAB_FILE))
    model_cfg = model_config_from_run(run_cfg, len(vocab))
    shapes = {"student/" + k: v for k, v in hyena.param_shapes(model_cfg).items()}
    key = min({k for k in archive if k.startswith("student/")} ^ shapes.keys(), default=None)
    if key is not None:
        what = "is missing" if key in shapes else "has unexpected"
        raise CheckpointError(f"checkpoint {what} array {key!r}")
    for key, shape in shapes.items():
        if archive[key].shape != shape:
            raise CheckpointError(f"shape mismatch for {key!r}: checkpoint "
                                  f"{archive[key].shape}, config implies {shape}")
    return run_cfg, vocab, model_cfg, {k.removeprefix("student/"): archive[k] for k in shapes}


def load_summary(run_dir: str) -> dict:
    """``compare``'s figures from the summary ``train`` wrote in ``run_dir``.

    A missing or malformed ``metrics.json``, or a best perplexity or final
    train loss that is not finite and > 0, raises ``DataError`` (exit 3).
    """
    path = os.path.join(run_dir, SUMMARY_FILE)
    if not os.path.isfile(path):
        raise DataError(f"no {SUMMARY_FILE} in {run_dir!r}")
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        summary = {
            "best_val_ppl": float(doc["best"]["val_ppl"]),
            "best_val_loss": float(doc["best"]["val_loss"]),
            "best_epoch": int(doc["best"]["epoch"]),
            "final_train_loss": float(doc["final"]["train_loss"]),
            "total_seconds": float(doc["final"]["total_seconds"]),
        }
    except (KeyError, TypeError, ValueError) as exc:  # JSONDecodeError is a ValueError
        raise DataError(f"malformed {SUMMARY_FILE} in {run_dir!r}: {exc}")
    for key in ("best_val_ppl", "final_train_loss"):  # compare divides by both
        if not 0.0 < summary[key] < float("inf"):  # also rejects nan
            raise DataError(f"{key} in {path!r} must be finite and > 0, got {summary[key]}")
    return summary
