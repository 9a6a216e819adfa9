"""Shared test utilities: independent oracles and synthetic data.

Everything here is deliberately simple and separate from the library code:
the direct convolution is a visible O(L^2) sum, gradients come from central
finite differences, and the synthetic corpus is a first-order Markov chain
whose bigram structure a tiny model can learn quickly. ``hyena_operator`` and
``student_loss_and_grads`` are one-call entry points into the student's
forward and reverse passes, for tests only.
"""

from __future__ import annotations

import struct

import numpy as np

from l2t_hyena import hyena


def direct_causal_conv(u: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Reference y[b,t,d] = sum_{s=0..t} h[s,d] u[b,t-s,d], no FFT."""
    B, L, D = u.shape
    y = np.zeros_like(u)
    for t in range(L):
        y[:, t, :] = (h[: t + 1, :] * u[:, t::-1, :][:, : t + 1, :]).sum(axis=1)
    return y


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


def hyena_operator(u: np.ndarray, bp: dict[str, np.ndarray], order: int) -> np.ndarray:
    """Order-N gated long convolution of (B, L, D) input ``u``."""
    y, _ = hyena._hyena_op_forward(u, bp, order)
    return y


def student_loss_and_grads(tokens, targets, params, cfg, lam, beta):
    """(loss, ce, l2, grads) of ``hyena.loss_and_grads_from_logits`` from fresh tokens."""
    logits, cache = hyena.forward(tokens, params, cfg, want_cache=True)
    sx = hyena.softmax_xent(logits, targets)
    return hyena.loss_and_grads_from_logits(logits, cache, sx, params, cfg, lam, beta)


def overflowing_checkpoint_header() -> bytes:
    """33-byte archive: one array "x" of rank 4 claiming dims 0xFFFFFFFF, no data."""
    return (b"L2TH" + struct.pack("<I", 1) + struct.pack("<I", 1) + b"x"
            + struct.pack("<5I", 4, *[0xFFFFFFFF] * 4))


def tiny_student_config(**overrides) -> hyena.HyenaConfig:
    base = dict(
        vocab_size=7, dim=4, n_blocks=1, order=2, short_kernel=3,
        max_seq_len=6, filter_pos_dim=5, filter_hidden=8, mlp_expansion=2,
    )
    base.update(overrides)
    return hyena.HyenaConfig(**base)


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
