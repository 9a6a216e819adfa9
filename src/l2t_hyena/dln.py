"""Dynamic loss network: logits statistics -> GRU summary -> scalar weight.

Five per-position statistics are read off the student's softmax, the same
``hyena.softmax_xent`` result the training loss then consumes (averaged
over the batch so each training step yields one (L, 5) sequence), z-scored
against running moments, summarized by a GRU, and mapped through a 4-layer
ReLU MLP (``hyena.mlp_forward``, whose reverse pass is ``hyena.mlp_backward``)
and a sigmoid to the regularization weight in (0, 1).

Feature columns, in order:

    0  prediction confidence   max_v p[v]
    1  target probability      p[target]
    2  error margin            max_v p[v] - p[target]
    3  normalized entropy      H(p) / ln V
    4  cross-entropy           -ln p[target]

The features are plain statistics of the logits: no gradient flows from the
weight back into the student through them. The weight's gradient reaches
only the GRU/MLP parameters (via the teacher's feedback scalar).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import hyena
from .errors import ShapeError

NORM_EPS = 1e-5


@dataclass
class FeatureNormState:
    """Running per-feature moments, EMA-updated during training only."""

    mean: np.ndarray = field(default_factory=lambda: np.zeros(5))
    var: np.ndarray = field(default_factory=lambda: np.ones(5))
    momentum: float = 0.99
    count: int = 0


def extract_features(sx: hyena.SoftmaxXent) -> np.ndarray:
    """Batch-averaged (L, 5) difficulty statistics of the student's softmax."""
    pt = sx.pt[..., 0]
    conf = sx.p.max(axis=-1)
    margin = conf - pt
    # H = lse - E_p[z]; avoids p*log(p) underflow for saturated rows.
    entropy = (sx.lse - (sx.p * sx.z).sum(axis=-1)) / math.log(sx.p.shape[-1])
    feats = np.stack([conf, pt, margin, entropy, sx.ce], axis=-1)  # (B, L, 5)
    return feats.mean(axis=0)


def normalize_features(
    f: np.ndarray, state: FeatureNormState, training: bool
) -> np.ndarray:
    """Z-score ``f`` with the running moments; EMA-update them if training."""
    out = ((f - state.mean) / np.sqrt(state.var + NORM_EPS)).astype(f.dtype)
    if training:
        m = state.momentum
        state.mean = m * state.mean + (1.0 - m) * f.mean(axis=0)
        state.var = m * state.var + (1.0 - m) * f.var(axis=0)
        state.count += 1
    return out


def init_dln(
    seed: int,
    hidden: int = 32,
    mlp_widths: tuple[int, int, int] = (64, 64, 32),
    in_dim: int = 5,
    dtype=np.float32,
) -> dict[str, np.ndarray]:
    """GRU (in_dim -> hidden) plus a 4-layer MLP ending in one raw weight."""
    rng = np.random.default_rng(seed)
    params: dict[str, np.ndarray] = {}
    for gate in ("z", "r", "h"):
        params[f"gru.w_{gate}"] = hyena.glorot(rng, (in_dim, hidden), dtype)
        params[f"gru.u_{gate}"] = hyena.glorot(rng, (hidden, hidden), dtype)
        params[f"gru.b_{gate}"] = np.zeros(hidden, dtype)
    params.update(hyena.init_mlp(rng, (hidden, *mlp_widths, 1), dtype, "mlp."))
    return params


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def _gru_forward(f: np.ndarray, params: dict[str, np.ndarray]):
    H = params["gru.b_z"].shape[0]
    h = np.zeros(H, dtype=f.dtype)
    steps = []
    for t in range(f.shape[0]):
        x = f[t]
        z = _sigmoid(x @ params["gru.w_z"] + h @ params["gru.u_z"] + params["gru.b_z"])
        r = _sigmoid(x @ params["gru.w_r"] + h @ params["gru.u_r"] + params["gru.b_r"])
        n = np.tanh(
            x @ params["gru.w_h"] + (r * h) @ params["gru.u_h"] + params["gru.b_h"]
        )
        steps.append((x, h, z, r, n))
        h = (1.0 - z) * h + z * n
    return h, steps


class DLNTape(NamedTuple):
    """One ``dln_forward``: its weight and what ``dln_grads`` runs back through."""

    lam: float
    summary: np.ndarray  # the GRU's final state, which is also acts[0]
    steps: list          # per position: (x, h_prev, z, r, candidate)
    acts: list           # MLP input, then each layer's output


def dln_forward(f_norm: np.ndarray, params: dict[str, np.ndarray]) -> DLNTape:
    """Consume normalized features; the tape holds the weight in (0,1) and summary.

    GRU gating: z and r are sigmoid gates, the candidate is
    tanh(x W_h + (r * h) U_h + b_h), and h' = (1 - z) * h + z * candidate,
    from a zero initial state.
    """
    if f_norm.ndim != 2 or f_norm.shape[0] < 1:
        raise ShapeError(f"feature sequence must be (L, n_features), got {f_norm.shape}")
    summary, steps = _gru_forward(f_norm, params)
    acts = hyena.mlp_forward(summary, params, 4, "mlp.")
    return DLNTape(float(_sigmoid(float(acts[-1][0]))), summary, steps, acts)


def dln_grads(
    tape: DLNTape,
    params: dict[str, np.ndarray],
    upstream: float,
) -> dict[str, np.ndarray]:
    """Exact gradients of (upstream * weight) w.r.t. every DLN array.

    ``upstream`` is d(objective)/d(weight); the chain runs back through the
    sigmoid, the MLP, and the GRU across all L steps of ``tape``, which
    ``dln_forward`` must have recorded with these same ``params``.
    """
    lam, _, steps, acts = tape
    # Zeros in parameter order first: clip_grad_norm sums in dict order.
    grads = {k: np.zeros_like(v) for k, v in params.items()}
    dy = np.array([upstream * lam * (1.0 - lam)], dtype=acts[-1].dtype)
    dh, mlp_grads = hyena.mlp_backward(dy, acts, params, "mlp.")
    grads.update(mlp_grads)
    for t in range(len(steps) - 1, -1, -1):
        x, h_prev, z, r, n = steps[t]
        dz = dh * (n - h_prev)
        dn = dh * z
        dh_prev = dh * (1.0 - z)

        da_n = dn * (1.0 - n * n)
        grads["gru.w_h"] += np.outer(x, da_n)
        grads["gru.u_h"] += np.outer(r * h_prev, da_n)
        grads["gru.b_h"] += da_n
        drh = da_n @ params["gru.u_h"].T
        dr = drh * h_prev
        dh_prev = dh_prev + drh * r

        da_z = dz * z * (1.0 - z)
        grads["gru.w_z"] += np.outer(x, da_z)
        grads["gru.u_z"] += np.outer(h_prev, da_z)
        grads["gru.b_z"] += da_z
        dh_prev = dh_prev + da_z @ params["gru.u_z"].T

        da_r = dr * r * (1.0 - r)
        grads["gru.w_r"] += np.outer(x, da_r)
        grads["gru.u_r"] += np.outer(h_prev, da_r)
        grads["gru.b_r"] += da_r
        dh_prev = dh_prev + da_r @ params["gru.u_r"].T

        dh = dh_prev
    return grads
