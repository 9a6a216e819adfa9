"""Independent reference computations for the benchmark's correctness checks.

Nothing here calls the program's own loss or convolution code: the
log-softmax is written out in float64 and the convolution is a visible
O(L^2) sum. Tolerances are float32 rounding allowances, fixed before any
measurement.
"""

from __future__ import annotations

import numpy as np

# |float32 result - float64 reference| allowed on a cross-entropy in nats.
CE_ABS_TOL = 1e-4
# Relative allowance on the mean squared logit and on the step loss, whose
# float64 recomputation runs a whole float32 forward again.
REL_TOL = 1e-4
# Relative allowance of the float32 FFT convolution against the direct sum.
CONV_REL_TOL = 1e-5


class Checks:
    """Collects named pass/fail results; a run is correct when all pass."""

    def __init__(self):
        self.failures: list[str] = []

    def expect(self, ok: bool, what: str) -> None:
        if not ok:
            self.failures.append(what)


def ce_and_l2_f64(logits: np.ndarray, targets: np.ndarray) -> tuple[float, float]:
    """Mean cross-entropy by an explicit float64 log-softmax, and mean logit^2."""
    z = np.asarray(logits, dtype=np.float64)
    m = z.max(axis=-1, keepdims=True)
    log_norm = m[..., 0] + np.log(np.exp(z - m).sum(axis=-1))
    zt = np.take_along_axis(z, targets[..., None].astype(np.int64), axis=-1)[..., 0]
    return float((log_norm - zt).mean()), float(np.mean(z * z))


def direct_causal_conv(u: np.ndarray, h: np.ndarray) -> np.ndarray:
    """y[b, t, c] = sum_{s <= t} h[s, c] * u[b, t - s, c] in float64, per channel."""
    B, L, C = u.shape
    y = np.zeros((B, L, C))
    t = np.arange(L)
    lag = t[:, None] - t[None, :]
    for c in range(C):
        toeplitz = np.where(lag >= 0, h[np.clip(lag, 0, None), c], 0.0)
        y[:, :, c] = u[:, :, c].astype(np.float64) @ toeplitz.T
    return y


def rel_err(a: np.ndarray, ref: np.ndarray) -> float:
    return float(np.abs(a - ref).max() / max(np.abs(ref).max(), 1e-30))
