"""Dynamic loss network: logits statistics -> GRU summary -> scalar weight.

Five per-position statistics are read off the student's softmax: the
per-position terms that ``hyena.softmax_xent`` keeps (sum of exponentials,
p[target], log-sum-exp, E_p[z] and cross-entropy; the (B, L, V) softmax
itself is never stored), averaged over the batch so each training step
yields one (L, 5) sequence; max p is 1 / sum_e, as the row max has z = 0.
They are z-scored against running moments, summarized by a GRU whose input
projections and weight gradients are whole-sequence products (only the
hidden-state recurrence runs per position), and mapped through a 4-layer
ReLU MLP (``hyena.mlp_forward``, whose reverse pass is
``hyena.mlp_backward``) and a sigmoid to the regularization weight in (0, 1).

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
from scipy.special import expit

from . import hyena

N_FEATURES = 5
NORM_EPS = 1e-5
NORM_MOMENTUM = 0.99


@dataclass
class FeatureNormState:
    """Running per-feature moments, EMA-updated by every training step."""

    mean: np.ndarray = field(default_factory=lambda: np.zeros(N_FEATURES))
    var: np.ndarray = field(default_factory=lambda: np.ones(N_FEATURES))


def extract_features(sx: hyena.SoftmaxXent) -> np.ndarray:
    """Batch-averaged (L, 5) difficulty statistics of the student's softmax."""
    conf = 1.0 / sx.sum_e  # max p, exp(0) / sum_e
    margin = conf - sx.pt
    # H = lse - E_p[z]; avoids p*log(p) underflow for saturated rows.
    entropy = (sx.lse - sx.mean_z) / math.log(sx.vocab)
    feats = np.stack([conf, sx.pt, margin, entropy, sx.ce], axis=-1)  # (B, L, 5)
    return feats.mean(axis=0)


def normalize_features(f: np.ndarray, state: FeatureNormState) -> np.ndarray:
    """Z-score ``f`` with the running moments, then EMA-update them with ``f``."""
    out = ((f - state.mean) / np.sqrt(state.var + NORM_EPS)).astype(f.dtype)
    m = NORM_MOMENTUM
    state.mean = m * state.mean + (1.0 - m) * f.mean(axis=0)
    state.var = m * state.var + (1.0 - m) * f.var(axis=0)
    return out


def param_shapes(hidden: int, mlp_widths=(64, 64, 32)) -> dict[str, tuple[int, ...]]:
    """GRU (N_FEATURES -> hidden), then a ReLU MLP (hidden, *mlp_widths, 1), in order."""
    shapes: dict[str, tuple[int, ...]] = {}
    for g in "zrh":
        shapes.update({f"gru.w_{g}": (N_FEATURES, hidden), f"gru.u_{g}": (hidden, hidden),
                       f"gru.b_{g}": (hidden,)})
    shapes.update(hyena.mlp_shapes((hidden, *mlp_widths, 1), "mlp."))
    return shapes


def _gru_forward(f: np.ndarray, params: dict[str, np.ndarray]):
    L, H = f.shape[0], params["gru.b_z"].shape[0]
    # Input projections of every position in one product, columns [z | r | h].
    w, b = (np.hstack([params[f"gru.{k}_{g}"] for g in "zrh"]) for k in "wb")
    a_zr, a_n = np.hsplit(f @ w + b, [2 * H])
    u_zr, u_h = np.hstack([params["gru.u_z"], params["gru.u_r"]]), params["gru.u_h"]
    hs = np.zeros((L + 1, H), dtype=f.dtype)
    zr, n = np.empty((L, 2 * H), dtype=f.dtype), np.empty((L, H), dtype=f.dtype)
    z, r = np.hsplit(zr, 2)
    for t in range(L):
        h = hs[t]
        expit(a_zr[t] + h @ u_zr, out=zr[t])
        np.tanh(a_n[t] + (r[t] * h) @ u_h, out=n[t])
        hs[t + 1] = (1.0 - z[t]) * h + z[t] * n[t]
    return hs, z, r, n


class DLNTape(NamedTuple):
    """One ``dln_forward``: its weight and what ``dln_grads`` runs back through."""

    lam: float
    f: np.ndarray        # (L, N_FEATURES) normalized features, the GRU's input
    hs: np.ndarray       # (L+1, H) GRU states, hs[0] = 0; hs[-1] = acts[0], the summary
    z: np.ndarray        # (L, H) update gate of each position
    r: np.ndarray        # (L, H) reset gate
    n: np.ndarray        # (L, H) candidate state
    acts: list           # MLP input, then each layer's output


def dln_forward(f_norm: np.ndarray, params: dict[str, np.ndarray]) -> DLNTape:
    """Consume normalized features; the tape holds the weight in (0,1) and GRU states.

    GRU gating: z and r are sigmoid gates, the candidate is
    tanh(x W_h + (r * h) U_h + b_h), and h' = (1 - z) * h + z * candidate,
    from a zero initial state.
    """
    if f_norm.ndim != 2 or f_norm.shape[0] < 1:
        raise ValueError(f"feature sequence must be (L, n_features), got {f_norm.shape}")
    hs, z, r, n = _gru_forward(f_norm, params)
    acts = hyena.mlp_forward(hs[-1], params, "mlp.")
    return DLNTape(float(expit(float(acts[-1][0]))), f_norm, hs, z, r, n, acts)


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
    lam, f, hs, z, r, n, acts = tape
    h_prev = hs[:-1]
    dy = np.array([upstream * lam * (1.0 - lam)], dtype=acts[-1].dtype)
    dh, mlp_grads = hyena.mlp_backward(dy, acts, params, "mlp.")
    # Per-position factors of the gate pre-activation gradients, all positions at once.
    dz_dh = (n - h_prev) * z * (1.0 - z)
    dn_dh = z * (1.0 - n * n)
    dr_drh = h_prev * r * (1.0 - r)
    keep = 1.0 - z
    u_zr_t = np.hstack([params["gru.u_z"], params["gru.u_r"]]).T
    da_zr = np.empty((len(z), 2 * z.shape[1]), dtype=dh.dtype)
    da_z, da_r = np.hsplit(da_zr, 2)
    da_n = np.empty_like(da_z)
    for t in range(len(z) - 1, -1, -1):
        da_n[t] = dh * dn_dh[t]
        drh = da_n[t] @ params["gru.u_h"].T
        da_z[t] = dh * dz_dh[t]
        da_r[t] = drh * dr_drh[t]
        dh = dh * keep[t] + drh * r[t] + da_zr[t] @ u_zr_t
    grads = dict.fromkeys(params)  # parameter order: clip_grad_norm sums in dict order
    grads.update(mlp_grads)
    for g, da_g, x_g in (("z", da_z, h_prev), ("r", da_r, h_prev), ("h", da_n, r * h_prev)):
        grads[f"gru.w_{g}"] = f.T @ da_g
        grads[f"gru.u_{g}"] = x_g.T @ da_g
        grads[f"gru.b_{g}"] = da_g.sum(axis=0)
    return grads
