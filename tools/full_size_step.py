"""Peak RSS, step times and page faults of full-size training steps, one process per mode.

    python3 tools/full_size_step.py              # 2 steps per mode
    python3 tools/full_size_step.py --steps 4

Trains perfbench's ``paper-shape`` student (D=256, 6 blocks, L=64, a vocabulary
of up to 10,000 types) at the paper's batch size, 128, on a synthetic Markov
corpus written with ``tests/helpers.py``'s ``write_markov_corpus`` (10,000
types, 120,000 training and 12,000 validation tokens; the validation text
fills one 128x64 batch, as a real run's set-up needs). Each mode runs in a
process of its own, one after the other, so that each peak RSS is its own
mode's. A process sets up the run as ``train`` does (read, vocabulary,
encode, batches, ``init_train_state``), then times ``--steps`` calls of
``trainer.train_step``. It prints one line per mode:

    <mode> vocab <V> setup_rss_mb <MB> peak_rss_mb <MB> step_s <s> ... minflt <n> ...

``setup_rss_mb`` is the peak RSS before the first step; ``minflt`` is each
step's count of minor page faults (``ru_minflt`` before and after the call).
At this size they come from the arrays of 32 MiB or more, which the heap
maps and unmaps on every step. Like ``perfbench/run.py`` it pins one BLAS
thread and a fixed string-hash seed.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import tempfile
import time

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ["PYTHONHASHSEED"] = "0"

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests"),
                os.path.join(ROOT, "perfbench")]

BATCH_SIZE = 128
MODES = ("l2t", "baseline")
N_TYPES = 10_000
TRAIN_TOKENS = 120_000
VALID_TOKENS = 12_000


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def run_mode(mode: str, corpus_dir: str, steps: int) -> dict:
    import workloads

    from l2t_hyena import corpus, trainer
    from l2t_hyena.config import resolve_config

    train_path = os.path.join(corpus_dir, "train.txt")
    valid_path = os.path.join(corpus_dir, "valid.txt")
    cfg = resolve_config(None, dict(
        workloads.get("paper-shape").config, batch_size=BATCH_SIZE, mode=mode,
        seed=workloads.MODEL_SEED, train_path=train_path, valid_path=valid_path,
        out_dir=os.path.join(corpus_dir, mode),
    ))
    train_lines = corpus.read_lines(train_path)
    vocab = corpus.build_vocab(train_lines, cfg.max_vocab)
    batches = corpus.make_batches(corpus.encode(train_lines, vocab),
                                  cfg.batch_size, cfg.seq_len)
    corpus.make_batches(corpus.encode(corpus.read_lines(valid_path), vocab),
                        cfg.batch_size, cfg.seq_len)
    state = trainer.init_train_state(cfg, len(vocab), len(batches))
    setup_rss = peak_rss_mb()
    step_s, minflt = [], []
    for i in range(steps):
        f0, t0 = minor_faults(), time.perf_counter()
        trainer.train_step(state, batches[i % len(batches)])
        step_s.append(time.perf_counter() - t0)
        minflt.append(minor_faults() - f0)
    return {"mode": mode, "vocab": len(vocab), "setup_rss_mb": setup_rss,
            "peak_rss_mb": peak_rss_mb(), "step_s": step_s, "minflt": minflt}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--steps", type=int, default=2)
    ap.add_argument("--worker", nargs=2, metavar=("MODE", "CORPUS_DIR"), help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.worker:
        print(json.dumps(run_mode(*args.worker, args.steps)))
        return 0

    from helpers import write_markov_corpus

    with tempfile.TemporaryDirectory() as tmp:
        write_markov_corpus(os.path.join(tmp, "train.txt"), TRAIN_TOKENS, n_types=N_TYPES,
                            structure_seed=0, sample_seed=1)
        write_markov_corpus(os.path.join(tmp, "valid.txt"), VALID_TOKENS, n_types=N_TYPES,
                            structure_seed=0, sample_seed=2)
        for mode in MODES:
            proc = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--worker", mode, tmp,
                 "--steps", str(args.steps)],
                stdout=subprocess.PIPE, text=True,
            )
            if proc.returncode != 0:
                print(f"{mode}: worker exited {proc.returncode}", file=sys.stderr)
                return 1
            r = json.loads(proc.stdout.splitlines()[-1])
            steps = " ".join(f"{s:.3f}" for s in r["step_s"])
            faults = " ".join(str(n) for n in r["minflt"])
            print(f"{mode} vocab {r['vocab']} setup_rss_mb {r['setup_rss_mb']:.1f} "
                  f"peak_rss_mb {r['peak_rss_mb']:.1f} step_s {steps} minflt {faults}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
