"""Memory-augmented teacher: replay buffer plus a loss-predicting MLP.

The buffer, a deque bounded by ``buffer_capacity``, keeps the latest
experiences, each pairing a DLN summary vector and the weight it proposed
with the student loss that actually resulted. Training draws from it with
probability proportional to stored loss, fits the MLP prediction under Huber
loss, and the trained predictor's sensitivity to the weight input is what
the DLN descends. The predictor is a ReLU MLP built, run and differentiated
by ``hyena.init_mlp``, ``hyena.mlp_forward`` and ``hyena.mlp_backward``.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from . import hyena
from .errors import NumericalError

PRIORITY_FLOOR = 1e-6


@dataclass
class Experience:
    summary: np.ndarray  # DLN GRU summary, stored detached
    lam_used: float
    student_loss: float
    step: int


def push_experience(buffer: deque[Experience], exp: Experience) -> None:
    """Append, evicting the oldest entry when full. Rejects non-finite data."""
    if (
        not np.all(np.isfinite(exp.summary))
        or not math.isfinite(exp.lam_used)
        or not math.isfinite(exp.student_loss)
        or exp.student_loss < 0.0
    ):
        raise NumericalError(f"rejected experience at step {exp.step}")
    buffer.append(exp)


def sample_prioritized(
    buffer: deque[Experience], k: int, rng: np.random.Generator
) -> list[Experience]:
    """k draws with replacement, P(i) proportional to max(loss_i, floor)."""
    n = len(buffer)
    if n == 0:
        raise ValueError("cannot sample from an empty memory buffer")
    items = list(buffer)
    weights = np.maximum(
        np.array([e.student_loss for e in items], dtype=np.float64), PRIORITY_FLOOR
    )
    probs = weights / weights.sum()
    idx = rng.choice(n, size=k, replace=True, p=probs)
    return [items[i] for i in idx]


def init_teacher(
    seed: int, summary_dim: int, hidden: int, dtype=np.float32
) -> dict[str, np.ndarray]:
    """3-layer ReLU MLP over [summary, weight] -> predicted student loss."""
    rng = np.random.default_rng(seed)
    return hyena.init_mlp(rng, (summary_dim + 1, hidden, hidden, 1), dtype)


def huber(pred, target, delta: float):
    """0.5 d^2 inside |d| <= delta, linear with matched slope outside."""
    d = np.abs(np.asarray(pred, dtype=np.float64) - target)
    out = np.where(d <= delta, 0.5 * d * d, delta * (d - 0.5 * delta))
    return float(out) if out.ndim == 0 else out


def teacher_step(
    buffer: deque[Experience],
    params: dict[str, np.ndarray],
    k: int,
    rng: np.random.Generator,
    delta: float,
):
    """One prioritized minibatch: mean Huber loss and its exact gradients."""
    batch = sample_prioritized(buffer, k, rng)
    dtype = params["w1"].dtype
    x = np.stack(
        [np.concatenate([e.summary, [e.lam_used]]) for e in batch]
    ).astype(dtype)
    targets = np.array([e.student_loss for e in batch], dtype=dtype)

    acts = hyena.mlp_forward(x, params)
    pred = acts[-1][:, 0]
    diff = pred - targets
    loss = float(np.mean(huber(pred, targets, delta)))

    # dHuber/dpred = clip(diff, -delta, delta); mean over the minibatch.
    dpred = (np.clip(diff, -delta, delta) / k).astype(dtype)[:, None]
    _, grads = hyena.mlp_backward(dpred, acts, params)
    return grads, loss


def dln_feedback(
    summary: np.ndarray, lam: float, params: dict[str, np.ndarray]
) -> float:
    """d(predicted loss)/d(weight) at (summary, lam), teacher held fixed.

    This scalar is the upstream derivative handed to ``dln.dln_grads``: the
    DLN then moves its weight downhill on the teacher's predicted loss.
    """
    x = np.concatenate([summary, [lam]]).astype(params["w1"].dtype)
    dx, _ = hyena.mlp_backward(np.ones(1, x.dtype), hyena.mlp_forward(x, params), params)
    return float(dx[-1])
