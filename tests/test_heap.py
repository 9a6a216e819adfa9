"""The heap policy set when ``l2t_hyena`` is imported.

A long-context step frees its forward cache and temporaries (a few MiB
each). Under glibc's default thresholds the heap trims that memory off its
top and the next step faults it back in page by page; with the thresholds
the package pins, the next step reuses it. The count is taken in a fresh
interpreter, so no earlier test's allocations shape the heap. The policy's
branches are checked in-process against a recording stand-in for the C
library, so the non-glibc ones run on glibc too.
"""

from __future__ import annotations

import ctypes
import os
import subprocess
import sys

import pytest

import l2t_hyena

MEASURED_STEPS = 3
MAX_FAULTS_PER_STEP = 100

CHILD = f"""
import resource

import numpy as np

from l2t_hyena import corpus, trainer
from l2t_hyena.config import RunConfig

B, L, V = 2, 1024, 64
cfg = RunConfig(mode="baseline", batch_size=B, seq_len=L, dim=32, n_blocks=1)
rng = np.random.default_rng(0)
batches = [corpus.TokenBatch(inputs=rng.integers(0, V, (B, L), dtype=np.int32),
                             targets=rng.integers(0, V, (B, L), dtype=np.int32))
           for _ in range(2)]
state = trainer.init_train_state(cfg, V, len(batches))
for i in range(3):
    trainer.train_step(state, batches[i % 2])
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for i in range({MEASURED_STEPS}):
    trainer.train_step(state, batches[i % 2])
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


def _glibc() -> bool:
    try:
        return os.confstr("CS_GNU_LIBC_VERSION").startswith("glibc")
    except (AttributeError, ValueError, OSError):
        return False


@pytest.mark.skipif(not _glibc(), reason="the heap policy applies to glibc only")
def test_long_context_step_takes_no_page_faults():
    src = os.path.dirname(os.path.dirname(l2t_hyena.__file__))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", CHILD], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    per_step = int(proc.stdout.split()[-1]) / MEASURED_STEPS
    assert per_step < MAX_FAULTS_PER_STEP, f"{per_step:.0f} minor faults per step"


class _RecordingLibC:
    """Stands in for ``ctypes.CDLL(None)``: ``mallopt`` records its calls."""

    def __init__(self, calls: list):
        def mallopt(param, value):
            calls.append((param, value))
            return 1
        self.mallopt = mallopt


def _unknown_name(name):
    raise ValueError("unrecognized configuration name")


@pytest.mark.parametrize("confstr", [lambda name: "musl 1.2.4", _unknown_name, None],
                         ids=["other-libc", "unknown-name", "no-confstr"])
def test_heap_policy_is_a_no_op_off_glibc(monkeypatch, confstr):
    calls = []
    monkeypatch.setattr(ctypes, "CDLL", lambda name: _RecordingLibC(calls))
    if confstr is None:
        monkeypatch.delattr(os, "confstr")
    else:
        monkeypatch.setattr(os, "confstr", confstr)
    l2t_hyena._pin_heap_thresholds()
    assert calls == []


def test_heap_policy_sets_both_thresholds_on_glibc(monkeypatch):
    calls = []
    monkeypatch.setattr(ctypes, "CDLL", lambda name: _RecordingLibC(calls))
    monkeypatch.setattr(os, "confstr", lambda name: "glibc 2.36")
    l2t_hyena._pin_heap_thresholds()
    assert calls == [(-3, 32 << 20), (-1, 64 << 20)]
