"""Shared test utilities: independent oracles and synthetic data.

Everything here is deliberately simple and separate from the library code:
the direct convolution and its reverse pass are visible O(L^2) sums,
gradients come from central finite differences, and the synthetic corpus is
a first-order Markov chain whose bigram structure a tiny model can learn
quickly. ``student_loss_and_grads`` is a one-call entry point into the
student's forward and reverse passes, for tests only, as are ``decode`` (ids
back to tokens), ``teacher_predict`` (one teacher prediction),
``param_count`` (the student's size), ``cache_nbytes`` (the memory a
``hyena.forward`` cache holds), and ``csv_column`` and ``run_dir_files``
(what a training run wrote); the library itself never needs them.

References keep the code the library replaced with faster or shorter
versions: the student passes with GELU and its derivative each computed from
scratch around ``hyena._normal_cdf``, the gated long convolution as a
function of its own, with its nested cache, and every dense product as a
stacked 3-D matmul (``reference_forward``/``reference_backward``,
``reference_operator_forward``/``reference_operator_backward`` and
``reference_linear_backward``), the
per-position GRU with its ``np.outer`` BPTT
(``gru_reference``/``gru_reference_grads``), the student initializer that
spelled out every block array
(``reference_init_model``), the DLN's and teacher's initializers with their
own draw loops (``reference_init_dln``, ``reference_init_teacher``), and the
``build_vocab`` that evicted the tail to seat the specials
(``reference_build_vocab``), the replay memory as a bounded deque of
``ReferenceExperience`` records with its push, sampler and teacher step
(``reference_push_experience``, ``reference_sample_prioritized``,
``reference_teacher_step``), and the whole-array loss, norm and optimizer
passes that the library now walks in blocks: the (B, L, V) softmax with its
features and dlogits (``reference_softmax_xent``,
``reference_extract_features``, ``reference_dlogits``),
``reference_clip_grad_norm`` and ``reference_adamw_step``.
"""

from __future__ import annotations

import csv
import dataclasses
import math
import os
import struct
from collections import Counter, deque
from typing import NamedTuple

import numpy as np

from l2t_hyena import corpus, dln, hyena, teacher, trainer
from l2t_hyena.config import RunConfig, model_config_from_run
from l2t_hyena.errors import DataError, NumericalError


def direct_causal_conv(u: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Reference y[b,t,d] = sum_{s=0..t} h[s,d] u[b,t-s,d], no FFT."""
    B, L, D = u.shape
    y = np.zeros_like(u)
    for t in range(L):
        y[:, t, :] = (h[: t + 1, :] * u[:, t::-1, :][:, : t + 1, :]).sum(axis=1)
    return y


def direct_causal_conv_backward(dy: np.ndarray, u: np.ndarray, h: np.ndarray):
    """Reference (du, dh) of ``direct_causal_conv`` as direct correlations.

    du[b,j,d] = sum_{s<L-j} h[s,d] dy[b,j+s,d] and
    dh[s,d] = sum_b sum_{t>=s} dy[b,t,d] u[b,t-s,d], no FFT.
    """
    L = u.shape[1]
    du = np.zeros_like(u)
    dh = np.zeros_like(h)
    for s in range(L):
        du[:, : L - s, :] += h[s] * dy[:, s:, :]
        dh[s] = (dy[:, s:, :] * u[:, : L - s, :]).sum(axis=(0, 1))
    return du, dh


def direct_short_conv(u: np.ndarray, kernels: np.ndarray) -> np.ndarray:
    """Reference depthwise causal conv with zero left-padding."""
    B, L, C = u.shape
    k = kernels.shape[1]
    y = np.zeros_like(u)
    for b in range(B):
        for t in range(L):
            for c in range(C):
                acc = 0.0
                for s in range(k):
                    if t - s >= 0:
                        acc += kernels[c, s] * u[b, t - s, c]
                y[b, t, c] = acc
    return y


def finite_diff_failures(params, grads, loss_fn, eps=1e-6, abs_tol=1e-4, rel_tol=1e-3):
    """Entries where analytic and central-difference gradients disagree.

    An entry fails only if it misses both the absolute and the relative
    tolerance, i.e. error > max(abs_tol, rel_tol * |fd|).
    """
    failures = []
    for name, p in params.items():
        g = grads[name]
        it = np.nditer(p, flags=["multi_index"])
        for _ in it:
            ix = it.multi_index
            orig = p[ix]
            p[ix] = orig + eps
            up = loss_fn()
            p[ix] = orig - eps
            dn = loss_fn()
            p[ix] = orig
            fd = (up - dn) / (2.0 * eps)
            err = abs(fd - float(g[ix]))
            if err > abs_tol and err > rel_tol * abs(fd):
                failures.append((name, ix, fd, float(g[ix])))
    return failures


def student_loss_and_grads(tokens, targets, params, cfg, lam, beta):
    """(loss, ce, l2, grads) of ``hyena.loss_and_grads_from_logits`` from fresh tokens."""
    cache = hyena.forward(tokens, params, cfg, want_cache=True)
    sx = hyena.softmax_xent(cache[-1], targets)
    return hyena.loss_and_grads_from_logits(cache, sx, params, lam, beta)


def cache_nbytes(cache) -> int:
    """Summed ``nbytes`` of the distinct base buffers under a ``hyena.forward`` cache.

    Walks with a stack rather than a recursive closure: a closure would form
    a reference cycle holding every base until the next garbage collection.
    """
    bases: dict[int, np.ndarray] = {}
    stack = [cache]
    while stack:
        obj = stack.pop()
        if isinstance(obj, (tuple, list)):
            stack.extend(obj)
        elif isinstance(obj, np.ndarray):
            while isinstance(obj.base, np.ndarray):
                obj = obj.base
            bases[id(obj)] = obj
    return sum(a.nbytes for a in bases.values())


_INV_SQRT2PI = 1.0 / math.sqrt(2.0 * math.pi)


# Both take Phi from hyena._normal_cdf, which test_hyena_ops.py checks
# against float64 erf; these pin the GELU around it.
def gelu_reference(x: np.ndarray) -> np.ndarray:
    return x * hyena._normal_cdf(x)


def gelu_grad_reference(x: np.ndarray) -> np.ndarray:
    return hyena._normal_cdf(x) + x * np.exp(-0.5 * x * x) * _INV_SQRT2PI


# The references below multiply (B, L, K) activations as 3-D products on
# purpose: NumPy's stacked matmul runs one GEMM per batch row, while the
# library reshapes each dense product into one (B*L, K) GEMM. The bit-for-bit
# tests compare the two, at shapes large enough for BLAS's blocked kernels.
def reference_linear_backward(dy, x, w):
    """(dx, dw, db) of y = x @ w + b, with dx as the stacked product dy @ w.T."""
    dy2 = dy.reshape(-1, dy.shape[-1])
    return dy @ w.T, x.reshape(-1, x.shape[-1]).T @ dy2, dy2.sum(axis=0)


def reference_operator_forward(a, bp):
    """(y, cache) of the gated long convolution, as its own function."""
    D = a.shape[2]
    order = bp["decay"].shape[0]
    z = a @ bp["w_in"] + bp["b_in"]
    zc = hyena.short_conv(z, bp["short_kernels"])
    streams = [zc[:, :, n * D : (n + 1) * D] for n in range(order + 1)]
    h, filt_cache = hyena.generate_filters(bp, a.shape[1])
    zs = [streams[0]]
    convs = []
    for n in range(order):
        c = hyena.fft_causal_conv(zs[-1], h[n])
        convs.append(c)
        zs.append(streams[n + 1] * c)
    y = zs[-1] @ bp["w_out"] + bp["b_out"]
    return y, (a, z, streams, h, filt_cache, zs, convs)


def reference_operator_backward(dy, cache, bp):
    """(da, grads) of ``reference_operator_forward``, grads keyed without a prefix."""
    a, z, streams, h, filt_cache, zs, convs = cache
    order = len(convs)
    g = {}
    dcur, g["w_out"], g["b_out"] = reference_linear_backward(dy, zs[-1], bp["w_out"])
    dstreams = [None] * (order + 1)
    dh = np.empty_like(h)
    for n in range(order - 1, -1, -1):
        dstreams[n + 1] = dcur * convs[n]
        dc = dcur * streams[n + 1]
        dcur, dh[n] = hyena._fft_causal_conv_backward(dc, zs[n], h[n])
    dstreams[0] = dcur
    g["filt_w1"], g["filt_b1"], g["filt_w2"], g["filt_b2"], g["decay"] = (
        hyena._generate_filters_backward(dh, filt_cache, bp)
    )
    dzc = np.concatenate(dstreams, axis=2)
    dz, g["short_kernels"] = hyena._short_conv_backward(dzc, z, bp["short_kernels"])
    da, g["w_in"], g["b_in"] = reference_linear_backward(dz, a, bp["w_in"])
    return da, g


def reference_forward(tokens, params, cfg):
    """Logits and the cache ``reference_backward`` reads; it keeps each block's GELU output."""
    L = tokens.shape[1]
    x = params["tok_emb"][tokens] + params["pos_emb"][:L]
    block_caches = []
    for i in range(cfg.n_blocks):
        bp = hyena.block_params(params, i)
        a, ln1_cache = hyena._layer_norm(x, bp["norm1_g"], bp["norm1_b"])
        hy, op_cache = reference_operator_forward(a, bp)
        x = x + hy
        c, ln2_cache = hyena._layer_norm(x, bp["norm2_g"], bp["norm2_b"])
        u1 = c @ bp["mlp_w1"] + bp["mlp_b1"]
        g1 = gelu_reference(u1)
        x = x + (g1 @ bp["mlp_w2"] + bp["mlp_b2"])
        block_caches.append((ln1_cache, op_cache, ln2_cache, c, u1, g1))
    xf, lnf_cache = hyena._layer_norm(x, params["final_norm_g"], params["final_norm_b"])
    return xf @ params["tok_emb"].T, (tokens, block_caches, lnf_cache, xf)


def reference_backward(dlogits, cache, params):
    """Gradients from ``reference_forward``'s cache, GELU' recomputed from u1."""
    tokens, block_caches, lnf_cache, xf = cache
    V = dlogits.shape[-1]
    grads = {}
    dtok = dlogits.reshape(-1, V).T @ xf.reshape(-1, xf.shape[-1])
    dx, grads["final_norm_g"], grads["final_norm_b"] = hyena._layer_norm_backward(
        dlogits @ params["tok_emb"], lnf_cache, params["final_norm_g"]
    )
    for i in range(len(block_caches) - 1, -1, -1):
        bp = hyena.block_params(params, i)
        ln1_cache, op_cache, ln2_cache, c, u1, g1 = block_caches[i]
        p = f"block{i}."
        dg1, grads[p + "mlp_w2"], grads[p + "mlp_b2"] = reference_linear_backward(
            dx, g1, bp["mlp_w2"]
        )
        dc, grads[p + "mlp_w1"], grads[p + "mlp_b1"] = reference_linear_backward(
            dg1 * gelu_grad_reference(u1), c, bp["mlp_w1"]
        )
        dln2, grads[p + "norm2_g"], grads[p + "norm2_b"] = hyena._layer_norm_backward(
            dc, ln2_cache, bp["norm2_g"]
        )
        dx = dx + dln2
        da, op_grads = reference_operator_backward(dx, op_cache, bp)
        for name, val in op_grads.items():
            grads[p + name] = val
        dln1, grads[p + "norm1_g"], grads[p + "norm1_b"] = hyena._layer_norm_backward(
            da, ln1_cache, bp["norm1_g"]
        )
        dx = dx + dln1
    np.add.at(dtok, tokens, dx)
    grads["tok_emb"] = dtok
    dpos = np.zeros_like(params["pos_emb"])
    dpos[: tokens.shape[1]] = dx.sum(axis=0)
    grads["pos_emb"] = dpos
    return grads


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def gru_reference(f: np.ndarray, params: dict[str, np.ndarray]):
    """The DLN's GRU one position at a time: (final state, per-position steps)."""
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


def gru_reference_grads(steps, params: dict[str, np.ndarray], dh: np.ndarray):
    """The nine GRU gradients given d(objective)/d(final state), by per-position BPTT."""
    grads = {k: np.zeros_like(v) for k, v in params.items() if k.startswith("gru.")}
    for x, h_prev, z, r, n in reversed(steps):
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


def decode(ids, vocab: corpus.Vocab) -> list[str]:
    """Tokens of ``ids``; an id outside the vocabulary raises ``DataError``."""
    out = []
    for i in ids:
        if i < 0 or i >= len(vocab.id_to_token):
            raise DataError(f"id {i} outside vocabulary of size {len(vocab)}")
        out.append(vocab.id_to_token[i])
    return out


def teacher_predict(
    summary: np.ndarray, lam: float, params: dict[str, np.ndarray]
) -> float:
    """The teacher's predicted student loss for a summary and a proposed weight."""
    x = np.concatenate([summary, [lam]]).astype(params["w1"].dtype)
    return float(hyena.mlp_forward(x, params)[-1][0])


def param_count(cfg: hyena.HyenaConfig) -> int:
    """Total parameter count (equals ``hyena``'s docstring formula)."""
    return sum(math.prod(shape) for shape in hyena.param_shapes(cfg).values())


@dataclasses.dataclass
class ReferenceExperience:
    summary: np.ndarray  # DLN GRU summary, stored detached
    lam_used: float
    student_loss: float
    step: int


def reference_push_experience(buffer: deque, exp: ReferenceExperience) -> None:
    """Append, evicting the oldest entry when full. Rejects non-finite data."""
    if (
        not np.all(np.isfinite(exp.summary))
        or not math.isfinite(exp.lam_used)
        or not math.isfinite(exp.student_loss)
        or exp.student_loss < 0.0
    ):
        raise NumericalError(f"rejected experience at step {exp.step}")
    buffer.append(exp)


def reference_sample_prioritized(buffer: deque, k: int, rng: np.random.Generator):
    """k draws with replacement, P(i) proportional to max(loss_i, floor)."""
    n = len(buffer)
    if n == 0:
        raise ValueError("cannot sample from an empty memory buffer")
    items = list(buffer)
    weights = np.maximum(
        np.array([e.student_loss for e in items], dtype=np.float64),
        teacher.PRIORITY_FLOOR,
    )
    probs = weights / weights.sum()
    idx = rng.choice(n, size=k, replace=True, p=probs)
    return [items[i] for i in idx]


def reference_teacher_step(buffer: deque, params, k: int, rng: np.random.Generator,
                           delta: float):
    """``teacher.teacher_step`` on the deque: (gradients, mean Huber loss)."""
    batch = reference_sample_prioritized(buffer, k, rng)
    dtype = params["w1"].dtype
    x = np.stack(
        [np.concatenate([e.summary, [e.lam_used]]) for e in batch]
    ).astype(dtype)
    targets = np.array([e.student_loss for e in batch], dtype=dtype)
    acts = hyena.mlp_forward(x, params)
    pred = acts[-1][:, 0]
    loss = float(np.mean(teacher.huber(pred, targets, delta)))
    dpred = (np.clip(pred - targets, -delta, delta) / k).astype(dtype)[:, None]
    _, grads = hyena.mlp_backward(dpred, acts, params)
    return grads, loss


class ReferenceSoftmaxXent(NamedTuple):
    z: np.ndarray    # (B, L, V) logits minus their row max
    p: np.ndarray    # (B, L, V) softmax
    lse: np.ndarray  # (B, L) log-sum-exp of z
    ce: np.ndarray   # (B, L) cross-entropy lse - z[target]
    idx: np.ndarray  # (B, L, 1) targets as int64
    pt: np.ndarray   # (B, L, 1) p[target]


def reference_softmax_xent(logits: np.ndarray, targets: np.ndarray) -> ReferenceSoftmaxXent:
    """The whole-array softmax that ``hyena.softmax_xent`` walks in row blocks."""
    z = logits - logits.max(axis=-1, keepdims=True)
    p = np.exp(z)
    sum_p = p.sum(axis=-1, keepdims=True)
    lse = np.log(sum_p[..., 0])
    idx = targets[..., None].astype(np.int64)
    ce = lse - np.take_along_axis(z, idx, axis=-1)[..., 0]
    p /= sum_p
    return ReferenceSoftmaxXent(z, p, lse, ce, idx, np.take_along_axis(p, idx, axis=-1))


def reference_extract_features(sx: ReferenceSoftmaxXent) -> np.ndarray:
    """``dln.extract_features`` read off the whole (B, L, V) softmax."""
    pt = sx.pt[..., 0]
    conf = sx.p.max(axis=-1)
    entropy = (sx.lse - (sx.p * sx.z).sum(axis=-1)) / math.log(sx.p.shape[-1])
    return np.stack([conf, pt, conf - pt, entropy, sx.ce], axis=-1).mean(axis=0)


def reference_dlogits(logits: np.ndarray, sx: ReferenceSoftmaxXent,
                      lam_beta: float) -> np.ndarray:
    """dlogits of the student loss; overwrites ``sx.p`` as the whole-array loss did."""
    B, L, V = logits.shape
    dlogits = sx.p
    np.put_along_axis(dlogits, sx.idx, sx.pt - 1.0, axis=-1)
    dlogits /= B * L
    if lam_beta != 0.0:
        dlogits += (2.0 * lam_beta / (B * L * V)) * logits
    return dlogits


def reference_clip_grad_norm(grads: dict[str, np.ndarray], max_norm: float) -> float:
    """``trainer.clip_grad_norm`` with a float64 square of each whole array."""
    sq = 0.0
    for g in grads.values():
        sq += float(np.sum(np.square(g, dtype=np.float64)))
    total = math.sqrt(sq)
    if total > max_norm:
        scale = max_norm / total
        for g in grads.values():
            g *= scale
    return total


def reference_adamw_step(params, grads, opt: trainer.AdamWState, lr_now: float) -> None:
    """``trainer.adamw_step`` as whole-array expressions, each with its temporaries."""
    opt.t += 1
    bc1 = 1.0 - opt.beta1 ** opt.t
    bc2 = 1.0 - opt.beta2 ** opt.t
    for name, p in params.items():
        g = grads[name]
        m = opt.m[name]
        v = opt.v[name]
        m *= opt.beta1
        m += (1.0 - opt.beta1) * g
        v *= opt.beta2
        v += (1.0 - opt.beta2) * np.square(g)
        update = (m / bc1) / (np.sqrt(v / bc2) + opt.eps)
        p -= lr_now * (update + opt.weight_decay * p)


def overflowing_checkpoint_header() -> bytes:
    """33-byte archive: one array "x" of rank 4 claiming dims 0xFFFFFFFF, no data."""
    return (b"L2TH" + struct.pack("<I", 1) + struct.pack("<I", 1) + b"x"
            + struct.pack("<5I", 4, *[0xFFFFFFFF] * 4))


def paper_student_config(vocab_size: int, **overrides) -> hyena.HyenaConfig:
    """The student of the default ``RunConfig`` with ``overrides`` applied."""
    cfg = model_config_from_run(RunConfig(), vocab_size)
    return dataclasses.replace(cfg, **overrides)


def tiny_student_config(vocab_size: int = 7, **overrides) -> hyena.HyenaConfig:
    base = dict(
        dim=4, n_blocks=1, order=2, short_kernel=3,
        max_seq_len=6, filter_pos_dim=5, filter_hidden=8, mlp_expansion=2,
    )
    base.update(overrides)
    return paper_student_config(vocab_size, **base)


def reference_init_model(cfg: hyena.HyenaConfig, seed: int, dtype=np.float32):
    """``hyena.init_model`` with every array and its draw written out in order."""
    rng = np.random.default_rng(seed)
    D, N, k = cfg.dim, cfg.order, cfg.short_kernel
    P, F = cfg.filter_pos_dim, cfg.filter_hidden
    C = (N + 1) * D
    E = cfg.mlp_expansion * D

    params = {}
    params["tok_emb"] = rng.normal(0.0, 0.01, (cfg.vocab_size, D)).astype(dtype)
    params["pos_emb"] = rng.normal(0.0, 0.01, (cfg.max_seq_len, D)).astype(dtype)
    decay_row = np.exp(
        np.linspace(math.log(cfg.decay_fastest), math.log(cfg.decay_slowest), D)
    )
    for i in range(cfg.n_blocks):
        p = f"block{i}."
        params[p + "w_in"] = hyena.glorot(rng, (D, C), dtype)
        params[p + "b_in"] = np.zeros(C, dtype)
        params[p + "short_kernels"] = rng.uniform(
            -math.sqrt(1.0 / k), math.sqrt(1.0 / k), (C, k)
        ).astype(dtype)
        params[p + "filt_w1"] = rng.uniform(-1.0 / P, 1.0 / P, (P, F)).astype(dtype)
        params[p + "filt_b1"] = np.zeros(F, dtype)
        params[p + "filt_w2"] = hyena.glorot(rng, (F, N * D), dtype)
        params[p + "filt_b2"] = np.zeros(N * D, dtype)
        params[p + "decay"] = np.tile(decay_row, (N, 1)).astype(dtype)
        params[p + "w_out"] = hyena.glorot(rng, (D, D), dtype)
        params[p + "b_out"] = np.zeros(D, dtype)
        params[p + "norm1_g"] = np.ones(D, dtype)
        params[p + "norm1_b"] = np.zeros(D, dtype)
        params[p + "norm2_g"] = np.ones(D, dtype)
        params[p + "norm2_b"] = np.zeros(D, dtype)
        params[p + "mlp_w1"] = hyena.glorot(rng, (D, E), dtype)
        params[p + "mlp_b1"] = np.zeros(E, dtype)
        params[p + "mlp_w2"] = hyena.glorot(rng, (E, D), dtype)
        params[p + "mlp_b2"] = np.zeros(D, dtype)
    params["final_norm_g"] = np.ones(D, dtype)
    params["final_norm_b"] = np.zeros(D, dtype)
    return params


def _reference_init_mlp(rng, widths, dtype, prefix=""):
    params = {}
    for i in range(1, len(widths)):
        params[f"{prefix}w{i}"] = hyena.glorot(rng, (widths[i - 1], widths[i]), dtype)
        params[f"{prefix}b{i}"] = np.zeros(widths[i], dtype)
    return params


def reference_init_dln(seed: int, hidden: int, mlp_widths=(64, 64, 32), dtype=np.float32):
    """The DLN initializer with its per-gate loop, then the MLP's layers, drawn in order."""
    rng = np.random.default_rng(seed)
    params = {}
    for gate in ("z", "r", "h"):
        params[f"gru.w_{gate}"] = hyena.glorot(rng, (dln.N_FEATURES, hidden), dtype)
        params[f"gru.u_{gate}"] = hyena.glorot(rng, (hidden, hidden), dtype)
        params[f"gru.b_{gate}"] = np.zeros(hidden, dtype)
    params.update(_reference_init_mlp(rng, (hidden, *mlp_widths, 1), dtype, "mlp."))
    return params


def reference_init_teacher(seed: int, summary_dim: int, hidden: int, dtype=np.float32):
    """The teacher initializer: a (summary_dim + 1, hidden, hidden, 1) MLP's layers in order."""
    rng = np.random.default_rng(seed)
    return _reference_init_mlp(rng, (summary_dim + 1, hidden, hidden, 1), dtype)


def reference_build_vocab(lines, max_size: int) -> list[str]:
    """``corpus.build_vocab``'s ``id_to_token``: rank all, cut, evict to seat specials."""
    specials = (corpus.UNK_TOKEN, corpus.EOS_TOKEN)
    freq = Counter()
    n_lines = 0
    for line in lines:
        n_lines += 1
        freq.update(line.split())
    freq[corpus.EOS_TOKEN] += n_lines
    if corpus.UNK_TOKEN not in freq:
        freq[corpus.UNK_TOKEN] = 0
    chosen = sorted(freq.items(), key=lambda kv: (-kv[1], kv[0]))[:max_size]
    kept = {tok for tok, _ in chosen}
    for special in specials:
        if special not in kept:
            for i in range(len(chosen) - 1, -1, -1):
                if chosen[i][0] not in specials:
                    del chosen[i]
                    break
            chosen.append((special, freq[special]))
            kept.add(special)
    chosen.sort(key=lambda kv: (-kv[1], kv[0]))
    return [tok for tok, _ in chosen]


def write_smoke_cfg(path, tiny_flags) -> None:
    """Write conftest's ``tiny_flags`` as a ``key: value`` config file."""
    path.write_text("".join(
        f"{key}: {'true' if value is True else value}\n"
        for key, value in tiny_flags().items()
    ))


def write_markov_corpus(
    path,
    n_tokens: int,
    n_types: int = 64,
    p_follow: float = 0.9,
    structure_seed: int = 0,
    sample_seed: int = 0,
    line_len: int = 20,
) -> None:
    """First-order Markov text: each type has one preferred successor.

    ``structure_seed`` fixes the transition table, so train/valid splits
    generated with different ``sample_seed`` values share the same learnable
    structure.
    """
    rng_structure = np.random.default_rng(structure_seed)
    successor = rng_structure.permutation(n_types)
    rng = np.random.default_rng(sample_seed)
    tokens = []
    cur = int(rng.integers(n_types))
    for _ in range(n_tokens):
        tokens.append(f"w{cur:03d}")
        if rng.random() < p_follow:
            cur = int(successor[cur])
        else:
            cur = int(rng.integers(n_types))
    with open(path, "w", encoding="utf-8") as fh:
        for i in range(0, len(tokens), line_len):
            fh.write(" ".join(tokens[i : i + line_len]) + "\n")


RUN_DIR_FILES = {"config_resolved.txt", "vocab.txt", "metrics_step.csv",
                 "metrics_epoch.csv", "metrics.json", "best.l2th", "last.l2th"}


def csv_column(path, name: str) -> list[float]:
    """One column of a run's metrics CSV, as floats."""
    with open(path, newline="", encoding="utf-8") as fh:
        return [float(row[name]) for row in csv.DictReader(fh)]


def run_dir_files(out) -> dict[str, bytes]:
    """Every file in the run directory ``out``, by name, with its ``out_dir`` masked.

    ``config_resolved.txt`` is the one file that records the run's own
    ``out_dir``, which is all that two identical runs into different
    directories may write differently; that value becomes ``<out_dir>``.
    """
    files = {}
    for name in sorted(os.listdir(out)):
        with open(os.path.join(out, name), "rb") as fh:
            files[name] = fh.read()
    mask = f"out_dir: {out}".encode("utf-8")
    assert files["config_resolved.txt"].count(mask) == 1, "out_dir is not recorded once"
    files["config_resolved.txt"] = files["config_resolved.txt"].replace(mask, b"<out_dir>")
    return files
