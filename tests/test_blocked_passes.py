"""The blocked passes over the big arrays against their whole-array references.

``hyena.softmax_xent``, ``cross_entropy`` and ``loss_and_dlogits`` walk row
blocks of the logits; ``trainer.clip_grad_norm`` and ``adamw_step`` walk
block-sized slices of each array. Each must equal its whole-array reference
in ``helpers`` bit for bit, in float32 and float64, and none may allocate a
temporary the size of the arrays it walks. The loss's mean squared logit
``l2`` sums in another order than ``np.mean`` and is held to a float64
reference within a measured bound.
"""

import copy
import tracemalloc

import numpy as np
import pytest

from helpers import (
    reference_adamw_step,
    reference_clip_grad_norm,
    reference_dlogits,
    reference_extract_features,
    reference_softmax_xent,
)

from l2t_hyena import dln, hyena, trainer

BLOCK = hyena.BLOCK
DTYPES = [np.float32, np.float64]
PAPER_TOK_EMB = 2_454_272  # 9,587 x 256 elements, the paper-shape tok_emb
TIED = (3, 40, 6)  # integer logits in [-2, 2]: most rows tie at their max

LOGIT_SHAPES = [
    (2, 3, 5),          # all rows in one block
    (3, 37, 999),       # 111 rows, 65 to a block: the last block is short
    (2, 3, BLOCK + 3),  # V larger than a block: one row to a block
    (4, 64, 9587),      # paper-shape
    TIED,
]
# Relative error of l2 against a float64 np.mean, measured: at most 1.2e-8
# in float32 (rows summed in float32) and 1.4e-16 in float64 on these cases,
# and 3.7e-8 / 2.5e-16 over these shapes at logit scales 0.01 to 30.
L2_RTOL = {np.float32: 1e-7, np.float64: 1e-15}


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("shape", LOGIT_SHAPES)
def test_loss_terms_features_and_dlogits_match_whole_array(shape, dtype):
    rng = np.random.default_rng(sum(shape))
    if shape == TIED:
        logits = rng.integers(-2, 3, shape).astype(dtype)
    else:
        logits = (3.0 * rng.standard_normal(shape)).astype(dtype)
    targets = rng.integers(0, shape[-1], shape[:2])
    ref = reference_softmax_xent(logits, targets)
    sx = hyena.softmax_xent(logits, targets)
    assert np.array_equal(sx.lse, ref.lse)
    assert np.array_equal(sx.ce, ref.ce)
    assert np.array_equal(sx.pt, ref.pt[..., 0])
    assert np.array_equal(dln.extract_features(sx), reference_extract_features(ref))
    assert hyena.cross_entropy(logits, targets) == float(ref.ce.mean())

    ref_l2 = float(np.mean(np.square(logits, dtype=np.float64)))
    beta = 0.01
    for lam in (0.0, 0.5):  # baseline training skips the feature terms
        work = logits.copy()
        sx = hyena.softmax_xent(work, targets, features=lam != 0.0)
        loss, ce, l2 = hyena.loss_and_dlogits(work, sx, lam, beta)
        want = reference_dlogits(logits, reference_softmax_xent(logits, targets),
                                 lam * beta)
        assert np.array_equal(work, want)  # the logits are overwritten in place
        assert ce == float(ref.ce.mean()) and loss == ce + lam * beta * l2
        assert abs(l2 - ref_l2) <= L2_RTOL[dtype] * ref_l2


SUM_SIZES = [1, 7, 8, 9, 127, 128, 129, 1000,
             BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 9, PAPER_TOK_EMB]


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("n", SUM_SIZES)
def test_sum_squares_splits_where_numpy_does(n, dtype):
    # Fails if a NumPy release changes its pairwise summation. The 128-element
    # buffer splits every size above 128, down to NumPy's smallest leaves.
    x = np.random.default_rng(n).standard_normal(n).astype(dtype)
    for acc in (np.float64, dtype):
        want = np.sum(np.square(x, dtype=acc))
        for size in {min(n, BLOCK), min(n, 128)}:
            got = trainer._sum_squares(x, np.empty(size, acc))
            assert got.dtype == want.dtype and got == want, (size, acc)


@pytest.mark.parametrize("dtype", DTYPES)
def test_clip_and_adamw_match_whole_array(dtype):
    rng = np.random.default_rng(3)
    sizes = {"below": BLOCK - 1, "block": BLOCK, "above": BLOCK + 1,
             "tok_emb": PAPER_TOK_EMB, "tiny": 3}
    params = {k: rng.standard_normal(n).astype(dtype) for k, n in sizes.items()}
    params["matrix"] = rng.standard_normal((300, 257)).astype(dtype)
    ref_params = copy.deepcopy(params)
    opt = trainer.AdamWState(params, 0.1, 0.9, 0.999, 1e-8)
    ref_opt = trainer.AdamWState(ref_params, 0.1, 0.9, 0.999, 1e-8)
    for max_norm in (1e-3, 1e9):  # clipped, then not
        grads = {k: rng.standard_normal(p.shape).astype(dtype) for k, p in params.items()}
        ref_grads = copy.deepcopy(grads)
        norm = trainer.clip_grad_norm(grads, max_norm)
        assert norm == reference_clip_grad_norm(ref_grads, max_norm)
        trainer.adamw_step(params, grads, opt, 1e-3)
        reference_adamw_step(ref_params, ref_grads, ref_opt, 1e-3)
        for k in params:
            assert np.array_equal(grads[k], ref_grads[k]), k
            assert np.array_equal(params[k], ref_params[k]), k
            assert np.array_equal(opt.m[k], ref_opt.m[k]), k
            assert np.array_equal(opt.v[k], ref_opt.v[k]), k


def _peak_alloc(fn) -> int:
    """Peak bytes that ``fn()`` allocates above what was allocated before it."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_loss_pass_allocates_no_logits_sized_array():
    rng = np.random.default_rng(0)
    logits = rng.standard_normal((4, 64, 8192)).astype(np.float32)
    targets = rng.integers(0, 8192, (4, 64))

    def step():
        sx = hyena.softmax_xent(logits, targets)
        dln.extract_features(sx)
        hyena.loss_and_dlogits(logits, sx, 0.5, 0.01)

    assert _peak_alloc(step) < logits.nbytes / 4


def test_clip_and_adamw_allocate_a_few_blocks():
    rng = np.random.default_rng(1)
    params = {"w": rng.standard_normal((1000, 1000)).astype(np.float32),
              "b": rng.standard_normal(1000).astype(np.float32)}
    grads = {k: rng.standard_normal(p.shape).astype(np.float32) for k, p in params.items()}
    opt = trainer.AdamWState(params, 0.1, 0.9, 0.999, 1e-8)

    def update():
        trainer.clip_grad_norm(grads, 1e-3)
        trainer.adamw_step(params, grads, opt, 1e-3)

    assert _peak_alloc(update) < 4 * BLOCK * 8
