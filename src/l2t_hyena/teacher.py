"""Memory-augmented teacher: replay buffer plus a loss-predicting MLP.

The buffer, a deque bounded by ``buffer_capacity``, keeps the latest
experiences, each pairing a DLN summary vector and the weight it proposed
with the student loss that actually resulted. Training draws from it with
probability proportional to stored loss, fits the MLP prediction under Huber
loss, and the trained predictor's sensitivity to the weight input is what
the DLN descends.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from . import hyena
from .errors import EmptyBuffer, InvalidExperience

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
        raise InvalidExperience(f"rejected experience at step {exp.step}")
    buffer.append(exp)


def sample_prioritized(
    buffer: deque[Experience], k: int, rng: np.random.Generator
) -> list[Experience]:
    """k draws with replacement, P(i) proportional to max(loss_i, floor)."""
    n = len(buffer)
    if n == 0:
        raise EmptyBuffer("cannot sample from an empty memory buffer")
    items = list(buffer)
    weights = np.maximum(
        np.array([e.student_loss for e in items], dtype=np.float64), PRIORITY_FLOOR
    )
    probs = weights / weights.sum()
    idx = rng.choice(n, size=k, replace=True, p=probs)
    return [items[i] for i in idx]


def init_teacher(
    seed: int, summary_dim: int = 32, hidden: int = 128, dtype=np.float32
) -> dict[str, np.ndarray]:
    """3-layer ReLU MLP over [summary, weight] -> predicted student loss."""
    rng = np.random.default_rng(seed)
    return {
        "w1": hyena.glorot(rng, (summary_dim + 1, hidden), dtype),
        "b1": np.zeros(hidden, dtype),
        "w2": hyena.glorot(rng, (hidden, hidden), dtype),
        "b2": np.zeros(hidden, dtype),
        "w3": hyena.glorot(rng, (hidden, 1), dtype),
        "b3": np.zeros(1, dtype),
    }


def _mlp_forward(x: np.ndarray, params: dict[str, np.ndarray]):
    a1 = np.maximum(x @ params["w1"] + params["b1"], 0.0)
    a2 = np.maximum(a1 @ params["w2"] + params["b2"], 0.0)
    y = a2 @ params["w3"] + params["b3"]
    return y[..., 0], (x, a1, a2)


def teacher_predict(
    summary: np.ndarray, lam: float, params: dict[str, np.ndarray]
) -> float:
    """Predicted student loss for a summary and a proposed weight (unbounded)."""
    x = np.concatenate([summary, [lam]]).astype(params["w1"].dtype)
    pred, _ = _mlp_forward(x, params)
    return float(pred)


def huber(pred, target, delta: float = 1.0):
    """0.5 d^2 inside |d| <= delta, linear with matched slope outside."""
    d = np.abs(np.asarray(pred, dtype=np.float64) - target)
    out = np.where(d <= delta, 0.5 * d * d, delta * (d - 0.5 * delta))
    return float(out) if out.ndim == 0 else out


def teacher_step(
    buffer: deque[Experience],
    params: dict[str, np.ndarray],
    k: int,
    rng: np.random.Generator,
    delta: float = 1.0,
):
    """One prioritized minibatch: mean Huber loss and its exact gradients."""
    batch = sample_prioritized(buffer, k, rng)
    dtype = params["w1"].dtype
    x = np.stack(
        [np.concatenate([e.summary, [e.lam_used]]) for e in batch]
    ).astype(dtype)
    targets = np.array([e.student_loss for e in batch], dtype=dtype)

    pred, (xin, a1, a2) = _mlp_forward(x, params)
    diff = pred - targets
    loss = float(np.mean(huber(pred, targets, delta)))

    # dHuber/dpred = clip(diff, -delta, delta); mean over the minibatch.
    dpred = (np.clip(diff, -delta, delta) / k).astype(dtype)[:, None]
    grads = {}
    grads["w3"] = a2.T @ dpred
    grads["b3"] = dpred.sum(axis=0)
    da2 = (dpred @ params["w3"].T) * (a2 > 0)
    grads["w2"] = a1.T @ da2
    grads["b2"] = da2.sum(axis=0)
    da1 = (da2 @ params["w2"].T) * (a1 > 0)
    grads["w1"] = xin.T @ da1
    grads["b1"] = da1.sum(axis=0)
    return grads, loss


def dln_feedback(
    summary: np.ndarray, lam: float, params: dict[str, np.ndarray]
) -> float:
    """d(predicted loss)/d(weight) at (summary, lam), teacher held fixed.

    This scalar is the upstream derivative handed to ``dln.dln_grads``: the
    DLN then moves its weight downhill on the teacher's predicted loss.
    """
    x = np.concatenate([summary, [lam]]).astype(params["w1"].dtype)
    _, (xin, a1, a2) = _mlp_forward(x, params)
    da2 = params["w3"][:, 0] * (a2 > 0)
    da1 = (da2 @ params["w2"].T) * (a1 > 0)
    dx = da1 @ params["w1"].T
    return float(dx[-1])
