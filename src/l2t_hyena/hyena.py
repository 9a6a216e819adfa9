"""The student language model: a stack of gated long-convolution blocks.

Architecture, given tokens (B, L):

    x = tok_emb[tokens] + pos_emb[:L]
    repeat n_blocks times:
        x = x + hyena_operator(layer_norm(x))      # gated FFT convolutions
        x = x + mlp(layer_norm(x))                 # GELU MLP, expansion 4
    logits = layer_norm(x) @ tok_emb.T             # tied output projection

The operator projects its input to ``order + 1`` streams, applies a short
depthwise causal convolution to each, then alternates long causal
convolutions with elementwise gating. Long-convolution filters are not free
parameters: a two-layer sine-activated network maps positional features to
filter taps, which are then windowed by per-channel exponential decay.

Parameters live in a flat ``dict[str, np.ndarray]`` (see ``init_model``),
which is also the checkpoint schema. All gradients are computed analytically
by the ``loss_and_grads_from_logits`` reverse pass, which starts from the
step's one ``softmax_xent`` (the DLN reads the same softmax); no autograd.

Parameter count (``param_count``) with V=vocab, D=dim, L=max_seq_len,
N=order, k=short_kernel, P=filter_pos_dim, F=filter_hidden, e=mlp_expansion:

    V*D + L*D + 2*D + n_blocks * (
        D*(N+1)*D + (N+1)*D        # input projection
        + (N+1)*D*k                # short depthwise kernels
        + P*F + F + F*N*D + N*D    # filter network
        + N*D                      # decay rates
        + D*D + D                  # output projection
        + 4*D                      # two layer norms
        + 2*e*D*D + e*D + D )      # MLP
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.special import erf

from .errors import NumericalError, ShapeError, VocabError

LN_EPS = 1e-5


@dataclass
class HyenaConfig:
    vocab_size: int
    dim: int = 256
    n_blocks: int = 6
    order: int = 2
    short_kernel: int = 3
    max_seq_len: int = 64
    filter_pos_dim: int = 17
    filter_hidden: int = 64
    mlp_expansion: int = 4
    decay_fastest: float = 0.3
    decay_slowest: float = 30.0

    def validate(self) -> None:
        if self.vocab_size < 1 or self.dim < 1 or self.n_blocks < 1:
            raise ValueError("vocab_size, dim, n_blocks must be positive")
        if self.order < 1:
            raise ValueError("order must be >= 1")
        if self.short_kernel < 1 or self.short_kernel % 2 == 0:
            raise ValueError("short_kernel must be odd and >= 1")
        if self.max_seq_len < 1:
            raise ValueError("max_seq_len must be positive")
        if self.filter_pos_dim < 1 or self.filter_pos_dim % 2 == 0:
            raise ValueError("filter_pos_dim must be odd (1 linear + sin/cos pairs)")
        if self.decay_fastest <= 0 or self.decay_slowest < self.decay_fastest:
            raise ValueError("need 0 < decay_fastest <= decay_slowest")


BLOCK_FIELDS = (
    "w_in", "b_in", "short_kernels",
    "filt_w1", "filt_b1", "filt_w2", "filt_b2", "decay",
    "w_out", "b_out",
    "norm1_g", "norm1_b", "norm2_g", "norm2_b",
    "mlp_w1", "mlp_b1", "mlp_w2", "mlp_b2",
)


def block_params(params: dict[str, np.ndarray], i: int) -> dict[str, np.ndarray]:
    """View of one block's arrays, keyed without the ``block{i}.`` prefix."""
    prefix = f"block{i}."
    return {f: params[prefix + f] for f in BLOCK_FIELDS}


def param_count(cfg: HyenaConfig) -> int:
    """Closed-form total parameter count (matches the docstring formula)."""
    D, N, k = cfg.dim, cfg.order, cfg.short_kernel
    P, F, e = cfg.filter_pos_dim, cfg.filter_hidden, cfg.mlp_expansion
    C = (N + 1) * D
    per_block = (
        D * C + C
        + C * k
        + P * F + F + F * N * D + N * D
        + N * D
        + D * D + D
        + 4 * D
        + 2 * e * D * D + e * D + D
    )
    return cfg.vocab_size * D + cfg.max_seq_len * D + 2 * D + cfg.n_blocks * per_block


def param_shapes(cfg: HyenaConfig) -> dict[str, tuple[int, ...]]:
    """Expected shape of every named parameter array, in checkpoint order."""
    D, N, k = cfg.dim, cfg.order, cfg.short_kernel
    P, F = cfg.filter_pos_dim, cfg.filter_hidden
    C = (N + 1) * D
    E = cfg.mlp_expansion * D
    shapes: dict[str, tuple[int, ...]] = {
        "tok_emb": (cfg.vocab_size, D),
        "pos_emb": (cfg.max_seq_len, D),
    }
    for i in range(cfg.n_blocks):
        p = f"block{i}."
        shapes.update({
            p + "w_in": (D, C), p + "b_in": (C,),
            p + "short_kernels": (C, k),
            p + "filt_w1": (P, F), p + "filt_b1": (F,),
            p + "filt_w2": (F, N * D), p + "filt_b2": (N * D,),
            p + "decay": (N, D),
            p + "w_out": (D, D), p + "b_out": (D,),
            p + "norm1_g": (D,), p + "norm1_b": (D,),
            p + "norm2_g": (D,), p + "norm2_b": (D,),
            p + "mlp_w1": (D, E), p + "mlp_b1": (E,),
            p + "mlp_w2": (E, D), p + "mlp_b2": (D,),
        })
    shapes["final_norm_g"] = (D,)
    shapes["final_norm_b"] = (D,)
    return shapes


def glorot(rng: np.random.Generator, shape: tuple[int, int], dtype) -> np.ndarray:
    """Glorot-uniform matrix; the initializer of every projection in the package."""
    bound = math.sqrt(6.0 / (shape[0] + shape[1]))
    return rng.uniform(-bound, bound, shape).astype(dtype)


def init_model(cfg: HyenaConfig, seed: int, dtype=np.float32) -> dict[str, np.ndarray]:
    """Deterministically initialize all trainable arrays from ``seed``.

    Projections are Glorot-uniform, embeddings normal(0, 0.01), the first
    filter layer uniform(+-1/pos_dim) to suit the sine activation, and decay
    rates log-spaced across channels in [decay_fastest, decay_slowest].
    """
    cfg.validate()
    rng = np.random.default_rng(seed)
    D, N, k = cfg.dim, cfg.order, cfg.short_kernel
    P, F = cfg.filter_pos_dim, cfg.filter_hidden
    C = (N + 1) * D
    E = cfg.mlp_expansion * D

    params: dict[str, np.ndarray] = {}
    params["tok_emb"] = rng.normal(0.0, 0.01, (cfg.vocab_size, D)).astype(dtype)
    params["pos_emb"] = rng.normal(0.0, 0.01, (cfg.max_seq_len, D)).astype(dtype)
    decay_row = np.exp(
        np.linspace(math.log(cfg.decay_fastest), math.log(cfg.decay_slowest), D)
    )
    for i in range(cfg.n_blocks):
        p = f"block{i}."
        params[p + "w_in"] = glorot(rng, (D, C), dtype)
        params[p + "b_in"] = np.zeros(C, dtype)
        params[p + "short_kernels"] = rng.uniform(
            -math.sqrt(1.0 / k), math.sqrt(1.0 / k), (C, k)
        ).astype(dtype)
        params[p + "filt_w1"] = rng.uniform(-1.0 / P, 1.0 / P, (P, F)).astype(dtype)
        params[p + "filt_b1"] = np.zeros(F, dtype)
        params[p + "filt_w2"] = glorot(rng, (F, N * D), dtype)
        params[p + "filt_b2"] = np.zeros(N * D, dtype)
        params[p + "decay"] = np.tile(decay_row, (N, 1)).astype(dtype)
        params[p + "w_out"] = glorot(rng, (D, D), dtype)
        params[p + "b_out"] = np.zeros(D, dtype)
        params[p + "norm1_g"] = np.ones(D, dtype)
        params[p + "norm1_b"] = np.zeros(D, dtype)
        params[p + "norm2_g"] = np.ones(D, dtype)
        params[p + "norm2_b"] = np.zeros(D, dtype)
        params[p + "mlp_w1"] = glorot(rng, (D, E), dtype)
        params[p + "mlp_b1"] = np.zeros(E, dtype)
        params[p + "mlp_w2"] = glorot(rng, (E, D), dtype)
        params[p + "mlp_b2"] = np.zeros(D, dtype)
    params["final_norm_g"] = np.ones(D, dtype)
    params["final_norm_b"] = np.zeros(D, dtype)
    assert sum(a.size for a in params.values()) == param_count(cfg)
    return params


# ---------------------------------------------------------------------------
# primitives
# ---------------------------------------------------------------------------

def positional_filter_features(L: int, pos_dim: int) -> np.ndarray:
    """(L, pos_dim) filter-network input: t/L plus sin/cos harmonics.

    Column 0 is t/L; columns (2j+1, 2j+2) are sin/cos of 2*pi*f_j*t/L with
    K = (pos_dim-1)/2 frequencies geometrically spaced from 1 to max(L/2, 1).
    """
    if pos_dim % 2 == 0 or pos_dim < 1:
        raise ValueError("pos_dim must be odd")
    t = np.arange(L, dtype=np.float64) / max(L, 1)
    out = np.empty((L, pos_dim), dtype=np.float64)
    out[:, 0] = t
    n_freq = (pos_dim - 1) // 2
    if n_freq:
        freqs = np.geomspace(1.0, max(L / 2.0, 1.0), n_freq)
        phase = 2.0 * np.pi * freqs[None, :] * t[:, None]
        out[:, 1::2] = np.sin(phase)
        out[:, 2::2] = np.cos(phase)
    return out


def generate_filters(
    filt_w1: np.ndarray,
    filt_b1: np.ndarray,
    filt_w2: np.ndarray,
    filt_b2: np.ndarray,
    decay: np.ndarray,
    L: int,
):
    """Long-convolution taps h (order, L, dim) from the implicit filter net.

    h[n, t, d] = ffn(features(t))[n, d] * exp(-decay[n, d] * t / L). Pure
    function of its arguments; repeated calls are bit-identical.
    """
    dtype = filt_w1.dtype
    N, D = decay.shape
    feats = positional_filter_features(L, filt_w1.shape[0]).astype(dtype)
    s1 = feats @ filt_w1 + filt_b1
    sin1 = np.sin(s1)
    raw = (sin1 @ filt_w2 + filt_b2).reshape(L, N, D).transpose(1, 0, 2)
    t_frac = (np.arange(L, dtype=np.float64) / max(L, 1)).astype(dtype)[None, :, None]
    win = np.exp(-decay[:, None, :] * t_frac)
    h = (raw * win).astype(dtype)
    cache = (feats, s1, sin1, win, h, t_frac)
    return h, cache


def _generate_filters_backward(dh: np.ndarray, cache, filt_w2: np.ndarray):
    feats, s1, sin1, win, h, t_frac = cache
    N, L, D = dh.shape
    ddecay = -(dh * h * t_frac).sum(axis=1)
    draw = (dh * win).transpose(1, 0, 2).reshape(L, N * D)
    dw2 = sin1.T @ draw
    db2 = draw.sum(axis=0)
    ds1 = (draw @ filt_w2.T) * np.cos(s1)
    dw1 = feats.T @ ds1
    db1 = ds1.sum(axis=0)
    return dw1, db1, dw2, db2, ddecay


def _next_pow2(n: int) -> int:
    return 1 << (n - 1).bit_length()


def fft_causal_conv(u: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Per-channel causal convolution y[b,t,d] = sum_{s<=t} h[s,d] u[b,t-s,d].

    Computed by zero-padding to the next power of two >= 2L, which makes the
    circular FFT product equal to the linear convolution on [0, L).
    """
    if u.ndim != 3 or h.ndim != 2 or u.shape[1:] != h.shape:
        raise ShapeError(f"conv shapes disagree: u {u.shape}, h {h.shape}")
    L = u.shape[1]
    nfft = _next_pow2(2 * L)
    uf = np.fft.rfft(u, n=nfft, axis=1)
    hf = np.fft.rfft(h, n=nfft, axis=0)
    y = np.fft.irfft(uf * hf[None], n=nfft, axis=1)[:, :L, :]
    return np.ascontiguousarray(y, dtype=u.dtype)


def _fft_causal_conv_backward(dy: np.ndarray, u: np.ndarray, h: np.ndarray):
    # du is correlation of dy with h, dh correlation of dy with u (summed
    # over batch); both are circular products with a conjugated spectrum.
    L = u.shape[1]
    nfft = _next_pow2(2 * L)
    dyf = np.fft.rfft(dy, n=nfft, axis=1)
    hf = np.fft.rfft(h, n=nfft, axis=0)
    uf = np.fft.rfft(u, n=nfft, axis=1)
    du = np.fft.irfft(dyf * np.conj(hf)[None], n=nfft, axis=1)[:, :L, :]
    dh = np.fft.irfft((dyf * np.conj(uf)).sum(axis=0), n=nfft, axis=0)[:L, :]
    return (
        np.ascontiguousarray(du, dtype=u.dtype),
        np.ascontiguousarray(dh, dtype=h.dtype),
    )


def short_conv(u: np.ndarray, kernels: np.ndarray) -> np.ndarray:
    """Depthwise causal convolution with per-channel kernels (C, k)."""
    if u.ndim != 3 or kernels.ndim != 2 or u.shape[2] != kernels.shape[0]:
        raise ShapeError(f"short_conv shapes disagree: u {u.shape}, kernels {kernels.shape}")
    y = kernels[:, 0] * u
    for s in range(1, kernels.shape[1]):
        y[:, s:, :] += kernels[:, s] * u[:, :-s, :]
    return y


def _short_conv_backward(dy: np.ndarray, u: np.ndarray, kernels: np.ndarray):
    k = kernels.shape[1]
    du = kernels[:, 0] * dy
    dk = np.empty_like(kernels)
    dk[:, 0] = (dy * u).sum(axis=(0, 1))
    for s in range(1, k):
        du[:, :-s, :] += kernels[:, s] * dy[:, s:, :]
        dk[:, s] = (dy[:, s:, :] * u[:, :-s, :]).sum(axis=(0, 1))
    return du, dk


def _layer_norm(x: np.ndarray, g: np.ndarray, b: np.ndarray):
    mu = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + np.asarray(LN_EPS, x.dtype))
    xhat = (x - mu) * inv
    return g * xhat + b, (xhat, inv)


def _layer_norm_backward(dy: np.ndarray, cache, g: np.ndarray):
    xhat, inv = cache
    dg = (dy * xhat).sum(axis=(0, 1))
    db = dy.sum(axis=(0, 1))
    dxhat = dy * g
    dx = inv * (
        dxhat
        - dxhat.mean(axis=-1, keepdims=True)
        - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)
    )
    return dx, dg, db


_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT2PI = 1.0 / math.sqrt(2.0 * math.pi)


def _gelu(x: np.ndarray) -> np.ndarray:
    return 0.5 * x * (1.0 + erf(x * _INV_SQRT2))


def _gelu_grad(x: np.ndarray) -> np.ndarray:
    return 0.5 * (1.0 + erf(x * _INV_SQRT2)) + x * np.exp(-0.5 * x * x) * _INV_SQRT2PI


def _mm_acc(x: np.ndarray, dy: np.ndarray) -> np.ndarray:
    """x^T dy with leading axes flattened: the weight gradient of y = x @ w."""
    return x.reshape(-1, x.shape[-1]).T @ dy.reshape(-1, dy.shape[-1])


# ---------------------------------------------------------------------------
# the gated-convolution operator
# ---------------------------------------------------------------------------

def _hyena_op_forward(a: np.ndarray, bp: dict[str, np.ndarray], order: int):
    B, L, D = a.shape
    z = a @ bp["w_in"] + bp["b_in"]
    zc = short_conv(z, bp["short_kernels"])
    streams = [zc[:, :, n * D : (n + 1) * D] for n in range(order + 1)]
    h, filt_cache = generate_filters(
        bp["filt_w1"], bp["filt_b1"], bp["filt_w2"], bp["filt_b2"], bp["decay"], L
    )
    zs = [streams[0]]  # z^1 = v, then each gated conv output
    convs = []
    for n in range(order):
        c = fft_causal_conv(zs[-1], h[n])
        convs.append(c)
        zs.append(streams[n + 1] * c)
    y = zs[-1] @ bp["w_out"] + bp["b_out"]
    cache = (a, z, streams, h, filt_cache, zs, convs)
    return y, cache


def hyena_operator(u: np.ndarray, bp: dict[str, np.ndarray], order: int) -> np.ndarray:
    """Order-N gated long convolution of (B, L, D) input ``u``."""
    y, _ = _hyena_op_forward(u, bp, order)
    return y


def _hyena_op_backward(dy: np.ndarray, cache, bp: dict[str, np.ndarray], order: int):
    a, z, streams, h, filt_cache, zs, convs = cache
    g: dict[str, np.ndarray] = {}
    g["w_out"] = _mm_acc(zs[-1], dy)
    g["b_out"] = dy.sum(axis=(0, 1))
    dcur = dy @ bp["w_out"].T

    D = a.shape[2]
    dstreams = [None] * (order + 1)
    dh = np.empty_like(h)
    for n in range(order - 1, -1, -1):
        dstreams[n + 1] = dcur * convs[n]
        dc = dcur * streams[n + 1]
        dcur, dh[n] = _fft_causal_conv_backward(dc, zs[n], h[n])
    dstreams[0] = dcur

    g["filt_w1"], g["filt_b1"], g["filt_w2"], g["filt_b2"], g["decay"] = (
        _generate_filters_backward(dh, filt_cache, bp["filt_w2"])
    )

    dzc = np.concatenate(dstreams, axis=2)
    dz, g["short_kernels"] = _short_conv_backward(dzc, z, bp["short_kernels"])
    g["w_in"] = _mm_acc(a, dz)
    g["b_in"] = dz.sum(axis=(0, 1))
    da = dz @ bp["w_in"].T
    return da, g


# ---------------------------------------------------------------------------
# full model
# ---------------------------------------------------------------------------

def forward(
    tokens: np.ndarray,
    params: dict[str, np.ndarray],
    cfg: HyenaConfig,
    want_cache: bool = False,
):
    """Logits (B, L, V) for a batch of token ids.

    With ``want_cache`` the per-layer intermediates needed by the reverse
    pass are returned as well.
    """
    tokens = np.asarray(tokens)
    B, L = tokens.shape
    if L > cfg.max_seq_len:
        raise ShapeError(f"sequence length {L} exceeds max_seq_len {cfg.max_seq_len}")
    if tokens.min() < 0 or tokens.max() >= cfg.vocab_size:
        raise VocabError(
            f"token ids must lie in [0, {cfg.vocab_size}); "
            f"got range [{tokens.min()}, {tokens.max()}]"
        )
    tok_emb = params["tok_emb"]
    x = tok_emb[tokens] + params["pos_emb"][:L]

    block_caches = []
    for i in range(cfg.n_blocks):
        bp = block_params(params, i)
        a, ln1_cache = _layer_norm(x, bp["norm1_g"], bp["norm1_b"])
        hy, op_cache = _hyena_op_forward(a, bp, cfg.order)
        x = x + hy
        c, ln2_cache = _layer_norm(x, bp["norm2_g"], bp["norm2_b"])
        u1 = c @ bp["mlp_w1"] + bp["mlp_b1"]
        g1 = _gelu(u1)
        x = x + (g1 @ bp["mlp_w2"] + bp["mlp_b2"])
        if want_cache:
            block_caches.append((ln1_cache, op_cache, ln2_cache, c, u1, g1))
    xf, lnf_cache = _layer_norm(x, params["final_norm_g"], params["final_norm_b"])
    logits = xf @ tok_emb.T
    if not want_cache:
        return logits
    return logits, (tokens, block_caches, lnf_cache, xf)


def _backward(
    dlogits: np.ndarray,
    cache,
    params: dict[str, np.ndarray],
    cfg: HyenaConfig,
) -> dict[str, np.ndarray]:
    tokens, block_caches, lnf_cache, xf = cache
    tok_emb = params["tok_emb"]
    B, L, V = dlogits.shape

    grads: dict[str, np.ndarray] = {}
    # Tied projection: the embedding matrix collects gradient from the
    # output side here and from the input lookup at the end.
    dtok = _mm_acc(dlogits, xf)  # (V, D)
    dxf = dlogits @ tok_emb
    dx, grads["final_norm_g"], grads["final_norm_b"] = _layer_norm_backward(
        dxf, lnf_cache, params["final_norm_g"]
    )

    for i in range(cfg.n_blocks - 1, -1, -1):
        bp = block_params(params, i)
        ln1_cache, op_cache, ln2_cache, c, u1, g1 = block_caches[i]
        p = f"block{i}."

        dm = dx
        grads[p + "mlp_w2"] = _mm_acc(g1, dm)
        grads[p + "mlp_b2"] = dm.sum(axis=(0, 1))
        du1 = (dm @ bp["mlp_w2"].T) * _gelu_grad(u1)
        grads[p + "mlp_w1"] = _mm_acc(c, du1)
        grads[p + "mlp_b1"] = du1.sum(axis=(0, 1))
        dc = du1 @ bp["mlp_w1"].T
        dln2, grads[p + "norm2_g"], grads[p + "norm2_b"] = _layer_norm_backward(
            dc, ln2_cache, bp["norm2_g"]
        )
        dx = dx + dln2

        da, op_grads = _hyena_op_backward(dx, op_cache, bp, cfg.order)
        for name, val in op_grads.items():
            grads[p + name] = val
        dln1, grads[p + "norm1_g"], grads[p + "norm1_b"] = _layer_norm_backward(
            da, ln1_cache, bp["norm1_g"]
        )
        dx = dx + dln1

    np.add.at(dtok, tokens, dx)
    grads["tok_emb"] = dtok
    dpos = np.zeros_like(params["pos_emb"])
    dpos[:L] = dx.sum(axis=0)
    grads["pos_emb"] = dpos
    return grads


# ---------------------------------------------------------------------------
# losses
# ---------------------------------------------------------------------------

class SoftmaxXent(NamedTuple):
    """The row softmax of (B, L, V) logits and its per-position terms."""

    z: np.ndarray    # (B, L, V) logits minus their row max
    p: np.ndarray    # (B, L, V) softmax; the training loss turns it into dlogits
    lse: np.ndarray  # (B, L) log-sum-exp of z
    ce: np.ndarray   # (B, L) cross-entropy lse - z[target]
    idx: np.ndarray  # (B, L, 1) targets as int64
    pt: np.ndarray   # (B, L, 1) p[target]


def softmax_xent(logits: np.ndarray, targets: np.ndarray) -> SoftmaxXent:
    """Max-shifted softmax and next-token cross-entropy, computed once."""
    if logits.shape[:2] != targets.shape:
        raise ShapeError(f"logits {logits.shape} vs targets {targets.shape}")
    z = logits - logits.max(axis=-1, keepdims=True)
    p = np.exp(z)
    sum_p = p.sum(axis=-1, keepdims=True)
    p /= sum_p
    lse = np.log(sum_p[..., 0])
    idx = targets[..., None].astype(np.int64)
    ce = lse - np.take_along_axis(z, idx, axis=-1)[..., 0]
    return SoftmaxXent(z, p, lse, ce, idx, np.take_along_axis(p, idx, axis=-1))


def cross_entropy(logits: np.ndarray, targets: np.ndarray) -> float:
    """Mean next-token cross-entropy, stabilized by max subtraction."""
    return float(softmax_xent(logits, targets).ce.mean())


def logit_l2(logits: np.ndarray) -> float:
    """Mean squared logit over every (batch, position, vocab) entry."""
    return float(np.mean(np.square(logits)))


def loss_and_grads_from_logits(
    logits: np.ndarray,
    cache,
    sx: SoftmaxXent,
    params: dict[str, np.ndarray],
    cfg: HyenaConfig,
    lam: float | None,
    beta: float,
):
    """``student_loss_and_grads`` from a cached forward; overwrites ``sx.p`` with dlogits."""
    B, L, V = logits.shape
    ce = float(sx.ce.mean())
    l2 = logit_l2(logits)

    lam_beta = 0.0 if lam is None else float(lam) * float(beta)
    loss = ce + lam_beta * l2
    if not math.isfinite(loss):
        raise NumericalError(f"non-finite student loss (ce={ce}, l2={l2})")

    dlogits = sx.p
    np.put_along_axis(dlogits, sx.idx, sx.pt - 1.0, axis=-1)
    dlogits /= B * L
    if lam_beta != 0.0:
        dlogits += (2.0 * lam_beta / (B * L * V)) * logits

    grads = _backward(dlogits.astype(logits.dtype, copy=False), cache, params, cfg)
    return loss, ce, l2, grads


def student_loss_and_grads(
    tokens: np.ndarray,
    targets: np.ndarray,
    params: dict[str, np.ndarray],
    cfg: HyenaConfig,
    lam: float | None,
    beta: float,
):
    """Loss = CE + lam * beta * logit_l2 and its exact parameter gradients.

    ``lam=None`` is baseline mode: the loss is plain cross-entropy and no
    regularization gradient flows (``lam * beta == 0`` behaves identically).
    Returns (loss, ce, l2, grads) with grads keyed exactly like ``params``.
    """
    logits, cache = forward(tokens, params, cfg, want_cache=True)
    sx = softmax_xent(logits, targets)
    return loss_and_grads_from_logits(logits, cache, sx, params, cfg, lam, beta)
