"""A fixed reference kernel that measures the machine's speed during a run.

The benchmark's machine is shared: the same code runs 10-30 % faster or
slower from one minute to the next, and every timing of a run moves together
(see README.md). ``Kernel`` is a small computation written here, apart from
the program, with the operation mix of a training step in shares of
comparable size: a Python loop of small array operations (the DLN's GRU,
per-step overhead), a float32 matrix product with a softmax (tied logits,
the loss) and a real FFT (the long convolutions). The worker runs it after
every timed call of the program; each timing ``t`` is then reported as
``t * REFERENCE_S / k``, where ``k`` is the kernel's time right after it.
That is the time the call would take on a machine where the kernel takes
``REFERENCE_S``: a change of the machine's speed moves ``t`` and ``k`` alike
and cancels, a change of the program moves ``t`` alone and shows in full.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# About the kernel's median time after a call of the program on the machine
# described in README.md, with one BLAS thread. A fixed constant: it sets the
# scale of the reported figures, not their ratios between two versions of the
# program.
REFERENCE_S = 0.0037


class Kernel:
    def __init__(self):
        rng = np.random.default_rng(0)
        self.gru_in = rng.standard_normal((8, 160, 32)).astype(np.float32)
        self.gru_w = (rng.standard_normal((64, 32)) * 0.1).astype(np.float32)
        self.x = rng.standard_normal((64, 256)).astype(np.float32)
        self.w = (rng.standard_normal((256, 1024)) * 0.05).astype(np.float32)
        self.u = rng.standard_normal((4, 256, 32)).astype(np.float32)
        self.inputs = (self.gru_in, self.gru_w, self.x, self.w, self.u)

    def _run(self) -> float:
        h = np.zeros((8, 32), np.float32)
        for t in range(self.gru_in.shape[1]):
            z = np.concatenate([self.gru_in[:, t], h], axis=1) @ self.gru_w
            h = np.tanh(z) * 0.5 + h * 0.5
        z = self.x @ self.w
        p = np.exp(z - z.max(axis=1, keepdims=True))
        p /= p.sum(axis=1, keepdims=True)
        g = self.x.T @ p
        y = np.fft.irfft(np.fft.rfft(self.u, n=512, axis=1) ** 2, n=512, axis=1)
        return float(h.sum() + g.sum() + y[:, :256].sum())

    def __call__(self, runs: int = 1) -> float:
        """Mean seconds of ``runs`` runs of the kernel, its inputs in cache.

        Reading the inputs first, untimed, keeps what the program's call left
        in the caches out of the figure. A single run's time varies by 10-20 %
        from one run to the next, so calls much longer than the kernel are
        followed by several runs; the mean, unlike the median, does not
        depend on how many.
        """
        for a in self.inputs:
            a.sum()
        t0 = time.perf_counter()
        for _ in range(runs):
            self._run()
        return (time.perf_counter() - t0) / runs


def at_reference(times: list[float], kernel_times: list[float]) -> float:
    """Median of the program's times, each scaled by the kernel time after it."""
    return statistics.median(t * REFERENCE_S / k for t, k in zip(times, kernel_times))
