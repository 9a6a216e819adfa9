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

Parameters live in a flat ``dict[str, np.ndarray]`` whose names, shapes and
order ``param_shapes`` declares once; it is also the checkpoint schema. All
gradients are computed analytically by the ``loss_and_grads_from_logits``
reverse pass; no autograd. The logits are the step's only (B, L, V) array,
and two walks over their row blocks read them: ``softmax_xent`` keeps
per-position terms only (row max, sum of exponentials, cross-entropy,
target probability and E_p[z], which the DLN reads), and
``loss_and_dlogits`` squares each block for the regularizer's mean squared
logit, then overwrites it with its dlogits.

``forward`` runs each block's operations in order and ``_backward`` runs
them in reverse, in one loop each. ``forward(..., want_cache=True)``
returns the cache alone, ``[tokens, blocks, lnf, logits]``, so the logits
have one owner from the moment they exist: the caller reads them as
``cache[-1]``, ``loss_and_grads_from_logits`` turns them into dlogits in
place, and ``_backward`` empties the list in one ``clear()``, so a spent
cache is ``[]`` and serves no second reverse pass. What a block keeps is
one flat tuple, built in ``forward`` and unpacked in ``_backward``:

    (ln1, z, streams, filt, convs, ln2, u1, phi)

``ln1``/``ln2``/``lnf`` are the layer norms' ``(xhat, inv)``; ``z`` is the
input projection before the short conv and ``streams`` the ``order + 1``
views of its output; ``filt`` is ``generate_filters``' cache: the taps
``h``, and ``t / L`` as a view of the features; ``convs`` are the long
convolutions' outputs; ``u1`` is the MLP's pre-activation and ``phi`` its
GELU's normal CDF. What one elementwise pass rebuilds bit for bit is
rebuilt, not kept ("Training Deep Nets with Sublinear Memory Cost", Chen
et al., 2016): ``_backward`` recomputes every layer norm's output (``a``,
``c`` and the final ``xf``) as ``g * xhat + b`` and each gated product
``streams[n + 1] * convs[n]`` where it is used, and writes the stream
gradients in place into one (B, L, C) array.

Every array, cached or not, is dropped at its last reader, so the reverse
pass holds at most one (B, L, e*D) temporary beyond the cache; the tests
pin the order with weak references. The dense-layer reverse pass
``linear_backward``, the ReLU MLP helpers (``mlp_shapes``, ``mlp_forward``,
``mlp_backward``) and ``init_dense`` also serve the DLN and the teacher.

Parameter count (``param_count`` in ``tests/helpers.py``) with V=vocab,
D=dim, L=max_seq_len, N=order, k=short_kernel, P=filter_pos_dim,
F=filter_hidden, e=mlp_expansion:

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

import functools
import importlib.machinery
import importlib.util
import math
import os
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DataError, NumericalError


def _scipy_extension(subdir: str, name: str):
    """SciPy's compiled module ``scipy/<subdir>/<name>``, loaded from its file.

    Neither ``scipy/__init__`` nor the ~300 modules that ``scipy.fft`` and
    ``scipy.special`` import run, which keeps about 18 MB off the peak RSS.
    """
    scipy = importlib.util.find_spec("scipy")
    where = os.path.join(scipy.submodule_search_locations[0] if scipy else "scipy", subdir)
    spec = importlib.machinery.PathFinder.find_spec(name, [where]) if scipy else None
    if not spec:
        suffix = importlib.machinery.EXTENSION_SUFFIXES[0]
        raise ImportError(f"SciPy's compiled module {os.path.join(where, name)}{suffix} "
                          "was not found; l2t_hyena needs scipy>=1.17.1")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# What scipy.fft.rfft/irfft call, and the ufunc that is scipy.special.expit.
_pocketfft = _scipy_extension(os.path.join("fft", "_pocketfft"), "pypocketfft")
_expit = _scipy_extension("special", "_special_ufuncs").expit

LN_EPS = 1e-5
# Elements per block of the passes over the big arrays: the loss walks row
# blocks of the (B*L, V) logits, max(1, BLOCK // V) rows at a time, and the
# gradient norm and AdamW walk block-sized slices of the larger arrays. Each
# goes through scratch buffers of one block, which stay in cache between its
# operations.
BLOCK = 1 << 16


@dataclass
class HyenaConfig:
    """Student shape; ``config.model_config_from_run`` fills it from ``RunConfig``."""

    vocab_size: int
    dim: int
    n_blocks: int
    order: int
    short_kernel: int
    max_seq_len: int
    filter_pos_dim: int
    filter_hidden: int
    mlp_expansion: int
    decay_fastest: float
    decay_slowest: float


def block_params(params: dict[str, np.ndarray], i: int) -> dict[str, np.ndarray]:
    """View of one block's arrays, keyed without the ``block{i}.`` prefix."""
    prefix = f"block{i}."
    n = len(prefix)
    return {k[n:]: v for k, v in params.items() if k.startswith(prefix)}


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
            **mlp_shapes((P, F, N * D), p + "filt_"),
            p + "decay": (N, D),
            p + "w_out": (D, D), p + "b_out": (D,),
            p + "norm1_g": (D,), p + "norm1_b": (D,),
            p + "norm2_g": (D,), p + "norm2_b": (D,),
            **mlp_shapes((D, E, D), p + "mlp_"),
        })
    shapes["final_norm_g"] = (D,)
    shapes["final_norm_b"] = (D,)
    return shapes


def glorot(rng: np.random.Generator, shape: tuple[int, int], dtype) -> np.ndarray:
    """Glorot-uniform matrix; the initializer of every projection in the package."""
    bound = math.sqrt(6.0 / (shape[0] + shape[1]))
    return rng.uniform(-bound, bound, shape).astype(dtype)


def _gemm(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """x @ w as one 2-D GEMM over all rows of x's leading axes, shaped (..., N)."""
    return (x.reshape(-1, x.shape[-1]) @ w).reshape(*x.shape[:-1], w.shape[-1])


def linear_backward(dy: np.ndarray, x: np.ndarray, w: np.ndarray):
    """(dx, dw, db) of y = x @ w + b, with the leading axes of x and dy as the batch."""
    dy2 = dy.reshape(-1, dy.shape[-1])
    return _gemm(dy, w.T), x.reshape(-1, x.shape[-1]).T @ dy2, dy2.sum(axis=0)


def mlp_shapes(widths, prefix: str = "") -> dict[str, tuple[int, ...]]:
    """``{prefix}w{i}`` (widths[i-1], widths[i]) and ``{prefix}b{i}``, i = 1..len(widths)-1."""
    shapes: dict[str, tuple[int, ...]] = {}
    for i in range(1, len(widths)):
        shapes[f"{prefix}w{i}"] = (widths[i - 1], widths[i])
        shapes[f"{prefix}b{i}"] = (widths[i],)
    return shapes


def init_dense(seed: int, shapes: dict[str, tuple[int, ...]], dtype=np.float32):
    """Glorot matrices and zero vectors for a shape table, drawn from ``seed`` in its order."""
    rng = np.random.default_rng(seed)
    return {name: glorot(rng, shape, dtype) if len(shape) == 2 else np.zeros(shape, dtype)
            for name, shape in shapes.items()}


def mlp_forward(x: np.ndarray, params: dict[str, np.ndarray], prefix: str = ""):
    """Activations of a ReLU MLP, one layer per ``{prefix}w{i}``: input, hidden, linear output."""
    n_layers = sum(1 for k in params if k.startswith(prefix + "w"))
    acts = [x]
    for i in range(1, n_layers + 1):
        y = acts[-1] @ params[f"{prefix}w{i}"] + params[f"{prefix}b{i}"]
        acts.append(y if i == n_layers else np.maximum(y, 0.0))
    return acts


def mlp_backward(dy: np.ndarray, acts: list, params: dict[str, np.ndarray], prefix: str = ""):
    """(dx, grads) of ``mlp_forward`` given d(output); grads run from the last layer back."""
    grads: dict[str, np.ndarray] = {}
    for i in range(len(acts) - 1, 0, -1):
        if i < len(acts) - 1:
            # acts[i] is post-ReLU; its positive entries mark active units.
            dy = dy * (acts[i] > 0)
        dy, grads[f"{prefix}w{i}"], grads[f"{prefix}b{i}"] = linear_backward(
            dy, acts[i - 1], params[f"{prefix}w{i}"]
        )
    return dy, grads


def init_model(cfg: HyenaConfig, seed: int, dtype=np.float32) -> dict[str, np.ndarray]:
    """Deterministically initialize every array of ``param_shapes`` from ``seed``.

    Embeddings are normal(0, 0.01), short kernels uniform(+-1/sqrt(k)), the
    first filter layer uniform(+-1/pos_dim) to suit the sine activation,
    decay rates log-spaced across channels in [decay_fastest, decay_slowest],
    layer-norm gains one, other matrices Glorot-uniform and other vectors zero.
    """
    rng = np.random.default_rng(seed)
    decay_row = np.exp(
        np.linspace(math.log(cfg.decay_fastest), math.log(cfg.decay_slowest), cfg.dim)
    )
    params: dict[str, np.ndarray] = {}
    for name, shape in param_shapes(cfg).items():
        field = name.rpartition(".")[2]
        if field.endswith("_emb"):
            arr = rng.normal(0.0, 0.01, shape)
        elif field == "short_kernels":
            bound = math.sqrt(1.0 / shape[1])
            arr = rng.uniform(-bound, bound, shape)
        elif field == "filt_w1":
            arr = rng.uniform(-1.0 / shape[0], 1.0 / shape[0], shape)
        elif field == "decay":
            arr = np.tile(decay_row, (shape[0], 1))
        elif field.endswith("_g"):
            arr = np.ones(shape)
        elif len(shape) == 2:
            arr = glorot(rng, shape, dtype)
        else:
            arr = np.zeros(shape)
        params[name] = arr.astype(dtype, copy=False)
    return params


# ---------------------------------------------------------------------------
# primitives
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=64)
def positional_filter_features(L: int, pos_dim: int) -> np.ndarray:
    """(L, pos_dim) filter-network input: t/L plus sin/cos harmonics.

    Column 0 is t/L; columns (2j+1, 2j+2) are sin/cos of 2*pi*f_j*t/L with
    K = (pos_dim-1)/2 frequencies geometrically spaced from 1 to max(L/2, 1).
    Built once per (L, pos_dim), for every block of every forward, and
    returned read-only, since each caller gets the same array.
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
    out.flags.writeable = False
    return out


def generate_filters(bp: dict[str, np.ndarray], L: int):
    """Long-convolution taps h (order, L, dim) from a block's implicit filter net.

    h[n, t, d] = ffn(features(t))[n, d] * exp(-decay[n, d] * t / L), with the
    net's ``filt_*`` arrays and ``decay`` read from ``bp``. Pure function of
    its arguments; repeated calls are bit-identical.
    """
    w1, decay = bp["filt_w1"], bp["decay"]
    N, D = decay.shape
    feats = positional_filter_features(L, w1.shape[0]).astype(w1.dtype)
    s1 = feats @ w1 + bp["filt_b1"]
    sin1 = np.sin(s1)
    raw = (sin1 @ bp["filt_w2"] + bp["filt_b2"]).reshape(L, N, D).transpose(1, 0, 2)
    t_frac = feats[None, :, :1]  # column 0 holds t / L
    win = np.exp(-decay[:, None, :] * t_frac)
    h = raw * win
    cache = (feats, s1, sin1, win, h, t_frac)
    return h, cache


def _generate_filters_backward(dh: np.ndarray, cache, bp: dict[str, np.ndarray]):
    feats, s1, sin1, win, h, t_frac = cache
    N, L, D = dh.shape
    ddecay = -(dh * h * t_frac).sum(axis=1)
    draw = (dh * win).transpose(1, 0, 2).reshape(L, N * D)
    dsin1, dw2, db2 = linear_backward(draw, sin1, bp["filt_w2"])
    _, dw1, db1 = linear_backward(dsin1 * np.cos(s1), feats, bp["filt_w1"])
    return dw1, db1, dw2, db2, ddecay


def _next_pow2(n: int) -> int:
    return 1 << (n - 1).bit_length()


# scipy.fft.rfft(x, n, axis) and irfft(xf, n, axis) as SciPy calls pocketfft:
# zero-padded to n, norm codes 0 (unscaled) and 2 (scaled by 1/n), one thread.
def _rfft(x: np.ndarray, n: int, axis: int) -> np.ndarray:
    padded = np.zeros(x.shape[:axis] + (n,) + x.shape[axis + 1:], x.dtype)
    padded[tuple(map(slice, x.shape))] = x
    return _pocketfft.r2c(padded, (axis,), True, 0, None, 1)


def _irfft(xf: np.ndarray, n: int, axis: int) -> np.ndarray:
    return _pocketfft.c2r(xf, (axis,), n, False, 2, None, 1)


def fft_causal_conv(u: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Per-channel causal convolution y[b,t,d] = sum_{s<=t} h[s,d] u[b,t-s,d].

    Computed by zero-padding to the next power of two >= 2L, which makes the
    circular FFT product equal to the linear convolution on [0, L). The
    transforms are SciPy's pocketfft, called as ``scipy.fft.rfft``/``irfft``
    call it, with the same bits; NumPy's float32 ``rfft`` took 1.1 ms against
    0.37-0.46 ms at (4, 64, 256) and gives different bits.
    """
    if u.ndim != 3 or h.ndim != 2 or u.shape[1:] != h.shape:
        raise ValueError(f"conv shapes disagree: u {u.shape}, h {h.shape}")
    L = u.shape[1]
    nfft = _next_pow2(2 * L)
    uf = _rfft(u, nfft, 1)
    hf = _rfft(h, nfft, 0)
    y = _irfft(uf * hf[None], nfft, 1)[:, :L, :]
    return np.ascontiguousarray(y, dtype=u.dtype)


def _fft_causal_conv_backward(dy: np.ndarray, u: np.ndarray, h: np.ndarray):
    # du is correlation of dy with h, dh correlation of dy with u (summed
    # over batch); both are circular products with a conjugated spectrum.
    # Each input and spectrum is dropped once read, which frees dy and u if
    # the caller passed its only references; du is a view of its irfft.
    L = u.shape[1]
    nfft = _next_pow2(2 * L)
    dyf = _rfft(dy, nfft, 1)
    del dy
    uf = _rfft(u, nfft, 1)
    del u
    np.conj(uf, out=uf)
    uf *= dyf
    dh = _irfft(uf.sum(axis=0), nfft, 0)[:L, :]
    del uf
    dyf *= np.conj(_rfft(h, nfft, 0))
    return _irfft(dyf, nfft, 1)[:, :L, :], np.ascontiguousarray(dh, dtype=h.dtype)


def short_conv(u: np.ndarray, kernels: np.ndarray) -> np.ndarray:
    """Depthwise causal convolution with per-channel kernels (C, k)."""
    if u.ndim != 3 or kernels.ndim != 2 or u.shape[2] != kernels.shape[0]:
        raise ValueError(f"short_conv shapes disagree: u {u.shape}, kernels {kernels.shape}")
    taps = np.ascontiguousarray(kernels.T)  # tap s of each channel as a row, not a strided column
    y = taps[0] * u
    for s in range(1, len(taps)):
        y[:, s:, :] += taps[s] * u[:, :-s, :]
    return y


def _short_conv_backward(dy: np.ndarray, u: np.ndarray, kernels: np.ndarray):
    taps = np.ascontiguousarray(kernels.T)
    du = taps[0] * dy
    dk = np.empty_like(kernels)
    dk[:, 0] = (dy * u).sum(axis=(0, 1))
    for s in range(1, len(taps)):
        du[:, :-s, :] += taps[s] * dy[:, s:, :]
        dk[:, s] = (dy[:, s:, :] * u[:, :-s, :]).sum(axis=(0, 1))
    return du, dk


def _layer_norm(x: np.ndarray, g: np.ndarray, b: np.ndarray):
    # np.var's own arithmetic on the one centred copy, which becomes xhat.
    xhat = x - x.mean(axis=-1, keepdims=True)
    var = np.square(xhat).sum(axis=-1, keepdims=True) / x.shape[-1]
    inv = 1.0 / np.sqrt(var + np.asarray(LN_EPS, x.dtype))
    xhat *= inv
    return g * xhat + b, (xhat, inv)


def _layer_norm_backward(dy: np.ndarray, cache, g: np.ndarray):
    xhat, inv = cache
    dg = (dy * xhat).sum(axis=(0, 1))
    db = dy.sum(axis=(0, 1))
    # inv * (dxhat - mean(dxhat) - xhat * mean(dxhat * xhat)), in place in dxhat.
    dxhat = dy * g
    m = dxhat.mean(axis=-1, keepdims=True)
    mx = (dxhat * xhat).mean(axis=-1, keepdims=True)
    dxhat -= m
    dxhat -= xhat * mx
    dxhat *= inv
    return dxhat, dg, db


_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT2PI = 1.0 / math.sqrt(2.0 * math.pi)
# Eigen's float32 erf(x) = x * P(x^2) / Q(x^2) on x clamped to [-4, 4], past
# which erf is +-1 in float32; coefficients from the highest power down.
_ERF_P = (-2.72614225801306e-10, 2.77068142495902e-08, -2.10102402082508e-06,
          -5.69250639462346e-05, -7.34990630326855e-04, -2.95459980854025e-03,
          -1.60960333262415e-02)
_ERF_Q = (-1.45660718464996e-05, -2.13374055278905e-04, -1.68282697438203e-03,
          -7.37332916720468e-03, -1.42647390514189e-02)


def _horner(x2: np.ndarray, coeffs, out: np.ndarray) -> None:
    np.multiply(x2, coeffs[0], out=out)
    for c in coeffs[1:-1]:
        out += c
        out *= x2
    out += coeffs[-1]


def _normal_cdf(u: np.ndarray) -> np.ndarray:
    """Phi(u) = 0.5 * (1 + erf(u / sqrt 2)), the GELU's gate.

    Both precisions take the rational ``erf`` above through two
    ``BLOCK``-sized scratch buffers and clip Phi to [0, 1]: within 2.3e-7 of
    the exact Phi in float32 and 3.2e-8 in float64, so a float64 run differs
    from a float32 one by rounding alone. SciPy's float32 ``erf`` widens each
    element to double and calls a scalar routine, about 5x slower. The +, *,
    / and clip are each correctly rounded under IEEE 754, so the bits do not
    depend on the CPU's SIMD level.
    """
    flat = u.reshape(-1)
    out = np.empty_like(flat)
    x2, p = np.empty((2, min(flat.size, BLOCK)), u.dtype)
    for a in range(0, flat.size, BLOCK):
        ub = flat[a:a + BLOCK]
        k = len(ub)
        o, x2b, pb = out[a:a + k], x2[:k], p[:k]
        np.clip(np.multiply(ub, _INV_SQRT2, out=o), -4.0, 4.0, out=o)  # x
        np.multiply(o, o, out=x2b)
        _horner(x2b, _ERF_P, pb)
        pb *= o
        _horner(x2b, _ERF_Q, o)
        pb /= o  # erf(x)
        np.add(pb, 1.0, out=o)
        o *= 0.5
        np.clip(o, 0.0, 1.0, out=o)
    return out.reshape(u.shape)


def _gelu_backward(dy: np.ndarray, u: np.ndarray, phi: np.ndarray, w: np.ndarray) -> np.ndarray:
    """(dy @ w.T) * GELU'(u), GELU' = phi + u * exp(-u^2 / 2) / sqrt(2 pi).

    GELU' takes one buffer, in the order of that expression, so the bits are
    its own. Once GELU' has read phi, ``dy @ w.T`` is written into phi's
    buffer: the caller hands over phi, which ends as that product.
    """
    t = u * -0.5
    t *= u
    np.exp(t, out=t)
    t *= u
    t *= _INV_SQRT2PI
    t += phi
    dg = np.matmul(dy.reshape(-1, dy.shape[-1]), w.T, out=phi.reshape(-1, w.shape[0]))
    t *= dg.reshape(t.shape)
    return t


# ---------------------------------------------------------------------------
# full model
# ---------------------------------------------------------------------------

def forward(
    tokens: np.ndarray,
    params: dict[str, np.ndarray],
    cfg: HyenaConfig,
    want_cache: bool = False,
):
    """Logits (B, L, V), C-contiguous, for a batch of token ids.

    Each dense product flattens its (B, L, K) operand to one (B*L, K) GEMM
    and shapes the result back: larger GEMM panels than one GEMM per batch
    row, with the same bits. With ``want_cache`` it returns instead the
    cache the reverse pass reads, ``[tokens, blocks, lnf, logits]``, with
    one flat tuple per block (see the module docstring).
    """
    tokens = np.asarray(tokens)
    B, L = tokens.shape
    if L > cfg.max_seq_len:
        raise ValueError(f"sequence length {L} exceeds max_seq_len {cfg.max_seq_len}")
    if tokens.min() < 0 or tokens.max() >= cfg.vocab_size:
        raise DataError(
            f"token ids must lie in [0, {cfg.vocab_size}); "
            f"got range [{tokens.min()}, {tokens.max()}]"
        )
    D = cfg.dim
    tok_emb = params["tok_emb"]
    x = tok_emb[tokens] + params["pos_emb"][:L]

    blocks = []
    for i in range(cfg.n_blocks):
        bp = block_params(params, i)
        # x + hyena(norm1(x)): project to order + 1 streams, short conv,
        # then alternate long convolutions with gating by the next stream.
        a, ln1 = _layer_norm(x, bp["norm1_g"], bp["norm1_b"])
        z = _gemm(a, bp["w_in"]) + bp["b_in"]
        del a
        zc = short_conv(z, bp["short_kernels"])
        streams = [zc[:, :, n * D : (n + 1) * D] for n in range(cfg.order + 1)]
        h, filt = generate_filters(bp, L)
        gated = streams[0]  # z^1 = v, then each gated conv output
        convs = []
        for n in range(cfg.order):
            convs.append(fft_causal_conv(gated, h[n]))
            gated = streams[n + 1] * convs[-1]
        x = x + (_gemm(gated, bp["w_out"]) + bp["b_out"])
        del gated, zc
        # x + mlp(norm2(x)), GELU through its normal CDF phi.
        c, ln2 = _layer_norm(x, bp["norm2_g"], bp["norm2_b"])
        u1 = _gemm(c, bp["mlp_w1"]) + bp["mlp_b1"]
        del c
        phi = _normal_cdf(u1)
        x = x + (_gemm(u1 * phi, bp["mlp_w2"]) + bp["mlp_b2"])
        if want_cache:
            blocks.append((ln1, z, streams, filt, convs, ln2, u1, phi))
        del ln1, z, streams, h, filt, convs, ln2, u1, phi
    xf, lnf = _layer_norm(x, params["final_norm_g"], params["final_norm_b"])
    del x
    logits = _gemm(xf, tok_emb.T)
    return [tokens, blocks, lnf, logits] if want_cache else logits


def _backward(cache, params: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    # The names below take over the cache's arrays, the dlogits among them,
    # and each is dropped after its last reader.
    tokens, blocks, lnf, dlogits = cache
    cache.clear()
    tok_emb = params["tok_emb"]
    B, L, V = dlogits.shape
    D = tok_emb.shape[1]

    grads: dict[str, np.ndarray] = {}
    # Tied projection: the embedding matrix collects gradient from the
    # output side here and from the input lookup at the end.
    xf = params["final_norm_g"] * lnf[0] + params["final_norm_b"]
    dtok = dlogits.reshape(-1, V).T @ xf.reshape(-1, D)  # (V, D), no bias
    del xf
    dxf = _gemm(dlogits, tok_emb)
    del dlogits
    dx, grads["final_norm_g"], grads["final_norm_b"] = _layer_norm_backward(
        dxf, lnf, params["final_norm_g"]
    )
    del dxf, lnf

    for i in range(len(blocks) - 1, -1, -1):
        bp = block_params(params, i)
        # pop() leaves the unpacked names as the only references to the block's arrays.
        ln1, z, streams, filt, convs, ln2, u1, phi = blocks.pop()
        h = filt[4]  # the taps, kept in generate_filters' cache
        g: dict[str, np.ndarray] = {}  # this block's gradients, in clip_grad_norm's order

        # The MLP and norm2, then the operator and norm1, each in reverse;
        # c, the gated products and a are rebuilt by forward's own expressions.
        # mlp_w2's gradients read a u1 * phi temporary; then phi's buffer takes dx @ w2.T.
        dx2 = dx.reshape(-1, D)
        g["mlp_w2"] = (u1 * phi).reshape(-1, u1.shape[-1]).T @ dx2
        g["mlp_b2"] = dx2.sum(axis=0)
        du1 = _gelu_backward(dx, u1, phi, bp["mlp_w2"])
        del u1, phi
        c = bp["norm2_g"] * ln2[0] + bp["norm2_b"]
        dc, g["mlp_w1"], g["mlp_b1"] = linear_backward(du1, c, bp["mlp_w1"])
        del du1, c
        dln2, g["norm2_g"], g["norm2_b"] = _layer_norm_backward(dc, ln2, bp["norm2_g"])
        dx += dln2
        del dc, ln2, dln2

        N = len(convs)
        dcur, g["w_out"], g["b_out"] = linear_backward(dx, streams[N] * convs[N - 1], bp["w_out"])
        # Each stream's gradient goes straight into its slice of dzc.
        dzc = np.empty_like(z)
        dh = np.empty_like(h)
        for n in range(N - 1, -1, -1):
            np.multiply(dcur, convs[n], out=dzc[:, :, (n + 1) * D : (n + 2) * D])
            dcur, dh[n] = _fft_causal_conv_backward(
                dcur * streams[n + 1], streams[n] * convs[n - 1] if n else streams[0], h[n]
            )
        dzc[:, :, :D] = dcur
        del streams, convs, dcur
        g["filt_w1"], g["filt_b1"], g["filt_w2"], g["filt_b2"], g["decay"] = (
            _generate_filters_backward(dh, filt, bp)
        )
        dz, g["short_kernels"] = _short_conv_backward(dzc, z, bp["short_kernels"])
        del dzc, z
        a = bp["norm1_g"] * ln1[0] + bp["norm1_b"]
        da, g["w_in"], g["b_in"] = linear_backward(dz, a, bp["w_in"])
        del dz, a
        dln1, g["norm1_g"], g["norm1_b"] = _layer_norm_backward(da, ln1, bp["norm1_g"])
        dx += dln1
        del da, dln1
        grads.update((f"block{i}.{k}", v) for k, v in g.items())

    _add_rows(dtok, tokens, dx)
    grads["tok_emb"] = dtok
    dpos = np.zeros_like(params["pos_emb"])
    dpos[:L] = dx.sum(axis=0)
    grads["pos_emb"] = dpos
    return grads


def _add_rows(out: np.ndarray, ids: np.ndarray, rows: np.ndarray) -> None:
    """``np.add.at(out, ids, rows)`` for a C-contiguous (V, D) ``out``, with its bits.

    One scatter over flat element indices: each element receives the same
    additions in the same order as in add.at's row form, which is 3-5x slower.
    """
    D = out.shape[1]
    np.add.at(out.reshape(-1), (ids[..., None] * D + np.arange(D)).ravel(), rows.ravel())


# ---------------------------------------------------------------------------
# losses
# ---------------------------------------------------------------------------

class SoftmaxXent(NamedTuple):
    """Per-position terms of the row softmax of (B, L, V) logits, each (B, L).

    The softmax itself is not kept: with z = logits - shift it is
    exp(z) / sum_e, which the loss recomputes block by block. Its largest
    entry is 1 / sum_e, since the row max has z = 0. Without ``features``,
    ``mean_z`` is None.
    """

    shift: np.ndarray    # row max of the logits
    sum_e: np.ndarray    # sum of exp(z); log(sum_e) is the log-sum-exp of z
    ce: np.ndarray       # cross-entropy log(sum_e) - z[target]
    pt: np.ndarray       # p[target]
    targets: np.ndarray  # target ids
    mean_z: np.ndarray   # E_p[z], the row sum of p * z
    vocab: int           # V


def softmax_xent(logits: np.ndarray, targets: np.ndarray,
                 features: bool = True) -> SoftmaxXent:
    """Row softmax terms and next-token cross-entropy, in one pass over the logits.

    The pass walks row blocks of ``logits.reshape(-1, V)`` through one
    block buffer for z and, for the DLN's ``features``, one for p; logits
    are only read. Every term is the same elementwise operation or row
    reduction as on the whole array, so no bit depends on the block size.
    """
    if logits.shape[:2] != targets.shape:
        raise ValueError(f"logits {logits.shape} vs targets {targets.shape}")
    V = logits.shape[-1]
    x, t = logits.reshape(-1, V), targets.reshape(-1)
    n, rows = len(x), max(1, BLOCK // V)
    z = np.empty((min(rows, n), V), x.dtype)
    p = np.empty_like(z) if features else z
    shift, zt, sum_e, mean_z = np.empty((4, n), x.dtype)
    ar = np.arange(len(z))
    for a in range(0, n, rows):
        xb = x[a:a + rows]
        k = len(xb)
        b, zb, pb = a + k, z[:k], p[:k]
        xb.max(axis=-1, out=shift[a:b])
        np.subtract(xb, shift[a:b, None], out=zb)
        zt[a:b] = zb[ar[:k], t[a:b]]
        np.exp(zb, out=pb)
        pb.sum(axis=-1, out=sum_e[a:b])
        if features:
            pb /= sum_e[a:b, None]
            pb *= zb
            pb.sum(axis=-1, out=mean_z[a:b])
    terms = (shift, sum_e, np.log(sum_e) - zt, np.exp(zt) / sum_e, t,
             mean_z if features else None)
    return SoftmaxXent(*(a if a is None else a.reshape(targets.shape) for a in terms), V)


def cross_entropy(logits: np.ndarray, targets: np.ndarray) -> float:
    """Mean next-token cross-entropy; eval needs no feature terms."""
    return float(softmax_xent(logits, targets, features=False).ce.mean())


def loss_and_dlogits(logits: np.ndarray, sx: SoftmaxXent, lam: float, beta: float):
    """Loss = CE + lam * beta * l2, l2 the mean squared logit, as (loss, ce, l2).

    Overwrites the (B, L, V) ``logits`` with dlogits in one walk over their
    row blocks. Each block is squared for l2 before it is overwritten: its
    row sums, in the logits' dtype, are totalled in float64. The block's CE
    dlogits, (softmax - onehot) / n, are built in a scratch block, the
    softmax recomputed from ``sx.shift`` and ``sx.sum_e`` with the bits the
    features read; the block becomes x * 2 lam beta / (n V) plus them.
    Baseline mode is ``lam = 0``. Raises NumericalError if the loss is not
    finite, and ValueError for logits that are not C-contiguous, which
    ``reshape`` would copy, so the dlogits would be lost.
    """
    if not logits.flags.c_contiguous:
        raise ValueError("logits must be C-contiguous: they are overwritten with dlogits")
    V = logits.shape[-1]
    x = logits.reshape(-1, V)
    n = len(x)
    shift, sum_e, t = sx.shift.reshape(-1), sx.sum_e.reshape(-1), sx.targets.reshape(-1)
    lam_beta = float(lam) * float(beta)
    rows = max(1, BLOCK // V)
    z = np.empty((min(rows, n), V), x.dtype)
    row_sq = np.empty(n, x.dtype)
    ar = np.arange(len(z))
    for a in range(0, n, rows):
        xb = x[a:a + rows]
        k = len(xb)
        b, zb = a + k, z[:k]
        np.square(xb, out=zb)
        zb.sum(axis=-1, out=row_sq[a:b])
        np.subtract(xb, shift[a:b, None], out=zb)
        np.exp(zb, out=zb)
        zb /= sum_e[a:b, None]
        zb[ar[:k], t[a:b]] -= 1.0
        zb /= n
        xb *= 2.0 * lam_beta / (n * V)
        xb += zb
    ce = float(sx.ce.mean())
    l2 = float(row_sq.sum(dtype=np.float64)) / (n * V)
    loss = ce + lam_beta * l2
    if not math.isfinite(loss):
        raise NumericalError(f"non-finite student loss (ce={ce}, l2={l2})")
    return loss, ce, l2


def loss_and_grads_from_logits(
    cache,
    sx: SoftmaxXent,
    params: dict[str, np.ndarray],
    lam: float,
    beta: float,
):
    """``loss_and_dlogits``, then the reverse pass from the dlogits.

    Starts from a ``forward`` cache and its ``softmax_xent``; the logits
    the cache carries end as dlogits, which the reverse pass frees once it
    has read them, if the caller holds no other reference. A cache serves
    one reverse pass: this empties it. Returns (loss, ce, l2, grads) with
    grads keyed exactly like ``params``.
    """
    n_blocks = sum(1 for k in params if k.endswith(".w_in"))
    if len(cache) != 4 or len(cache[1]) != n_blocks:
        raise ValueError(
            f"not an unspent forward cache of a {n_blocks}-block student; "
            "a forward cache serves one reverse pass"
        )
    loss, ce, l2 = loss_and_dlogits(cache[-1], sx, lam, beta)
    return loss, ce, l2, _backward(cache, params)
