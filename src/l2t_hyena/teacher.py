"""Memory-augmented teacher: replay memory plus a loss-predicting MLP.

The memory, ``ReplayMemory``, keeps the latest ``buffer_capacity``
experiences as rows of one float64 table, oldest first: each row
``[summary | lam | loss]`` pairs a DLN summary vector and the weight it
proposed with the student loss that actually resulted. Training draws rows
with probability proportional to stored loss, fits the MLP prediction under
Huber loss, and the trained predictor's sensitivity to the weight input is
what the DLN descends. The predictor is a ReLU MLP declared by
``param_shapes``, drawn by ``hyena.init_dense``, run by ``hyena.mlp_forward``
and differentiated by ``hyena.mlp_backward``.
"""

from __future__ import annotations

import numpy as np

from . import hyena
from .errors import NumericalError

PRIORITY_FLOOR = 1e-6


class ReplayMemory:
    """``rows[:count]``, oldest first: float64 ``[summary | lam | loss]`` rows."""

    def __init__(self, capacity: int, summary_dim: int):
        self.rows = np.zeros((capacity, summary_dim + 2))
        self.count = 0

    def __len__(self) -> int:
        return self.count


def push_experience(mem: ReplayMemory, summary: np.ndarray, lam: float,
                    loss: float) -> np.ndarray:
    """Append a finite row, evicting the oldest when full; return its ``[summary | lam]``."""
    row = np.append(summary, (lam, loss))
    if not np.all(np.isfinite(row)) or loss < 0.0:
        raise NumericalError(f"rejected experience (lambda {lam}, loss {loss})")
    if mem.count == len(mem.rows):
        # Shift rather than wrap, so that rows [:count] stay oldest first.
        mem.rows[:-1] = mem.rows[1:]
    else:
        mem.count += 1
    mem.rows[mem.count - 1] = row
    return row[:-1]


def sample_prioritized(mem: ReplayMemory, k: int, rng: np.random.Generator) -> np.ndarray:
    """k row indices drawn with replacement, P(i) proportional to max(loss_i, floor)."""
    if mem.count == 0:
        raise ValueError("cannot sample from an empty memory buffer")
    weights = np.maximum(mem.rows[:mem.count, -1], PRIORITY_FLOOR)
    return rng.choice(mem.count, size=k, replace=True, p=weights / weights.sum())


def param_shapes(summary_dim: int, hidden: int) -> dict[str, tuple[int, ...]]:
    """3-layer ReLU MLP over [summary, weight] -> predicted student loss."""
    return hyena.mlp_shapes((summary_dim + 1, hidden, hidden, 1))


def huber(pred, target, delta: float):
    """0.5 d^2 inside |d| <= delta, linear with matched slope outside; float64, elementwise."""
    d = np.abs(np.asarray(pred, dtype=np.float64) - target)
    return np.where(d <= delta, 0.5 * d * d, delta * (d - 0.5 * delta))


def teacher_step(
    mem: ReplayMemory,
    params: dict[str, np.ndarray],
    k: int,
    rng: np.random.Generator,
    delta: float,
):
    """One prioritized minibatch: mean Huber loss and its exact gradients."""
    idx = sample_prioritized(mem, k, rng)
    dtype = params["w1"].dtype
    x = mem.rows[idx, :-1].astype(dtype)
    targets = mem.rows[idx, -1].astype(dtype)

    acts = hyena.mlp_forward(x, params)
    pred = acts[-1][:, 0]
    diff = pred - targets
    loss = float(np.mean(huber(pred, targets, delta)))

    # dHuber/dpred = clip(diff, -delta, delta); mean over the minibatch.
    dpred = (np.clip(diff, -delta, delta) / k).astype(dtype)[:, None]
    _, grads = hyena.mlp_backward(dpred, acts, params)
    return grads, loss


def dln_feedback(x: np.ndarray, params: dict[str, np.ndarray]) -> float:
    """d(predicted loss)/d(weight) at input row ``x = [summary | lam]``, teacher fixed.

    This scalar is the upstream derivative handed to ``dln.dln_grads``: the
    DLN then moves its weight downhill on the teacher's predicted loss.
    """
    x = x.astype(params["w1"].dtype)
    dx, _ = hyena.mlp_backward(np.ones(1, x.dtype), hyena.mlp_forward(x, params), params)
    return float(dx[-1])
