"""Print the sha256 of the README quick-start run's outputs, in both modes.

    python3 tools/smoke_hashes.py

Writes the README's synthetic Markov corpus (``tests/helpers.py``'s
``write_markov_corpus``, structure seed 0, sample seeds 1 and 2) and its
``smoke.cfg`` (deterministic, default seed 1) into a temporary directory and
trains four runs: one per mode; an l2t run with ``buffer_capacity`` 20
(``l2t-cap20``), whose replay memory fills and evicts; and a wider l2t run
(``l2t-wide``: dim 192, one block, seq_len 64), whose ``mlp_w1``/``mlp_w2``
and (batch, seq_len, vocab) logits each span several of the blocks that the
loss, the gradient norm and AdamW walk. It prints one line per
output file: ``<run> <file> <sha256>`` for ``metrics_step.csv``,
``metrics_epoch.csv``, ``last.l2th`` and the summary ``metrics.json``. It
then scores each run's ``best.l2th`` with the README's ``eval`` line and
prints the hash of its ``eval.json``; it exits 1 unless that ``val_ppl``
equals the run's best (read through ``trainer.load_summary``), which it
prints as ``<run> best_val_ppl <repr>``, so a change that moves the bits
also shows how far the metrics moved. Last, it
runs the README's ``compare`` line on the ``baseline`` and ``l2t`` runs and
prints the hash of its ``compare.json``. Two runs of the same code print
the same lines, so a change that claims bit-identical runs must leave them
as they are.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]

from helpers import write_markov_corpus  # noqa: E402

from l2t_hyena import cli, trainer  # noqa: E402

SMOKE_CFG = """\
train_path: train.txt
valid_path: valid.txt
epochs: 2
warmup_epochs: 1
batch_size: 32
seq_len: 32
dim: 64
n_blocks: 2
max_vocab: 200
lr_student: 0.001
activation_threshold: 16
deterministic: true
"""
OUTPUTS = ("metrics_step.csv", "metrics_epoch.csv", "last.l2th", "metrics.json")
RUNS = {
    "baseline": ["--mode", "baseline"],
    "l2t": ["--mode", "l2t"],
    "l2t-cap20": ["--mode", "l2t", "--buffer-capacity", "20"],
    "l2t-wide": ["--mode", "l2t", "--dim", "192", "--n-blocks", "1", "--seq-len", "64",
                 "--activation-threshold", "8"],
}


def sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def quiet_cli(run: str, argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(argv)
    if rc != cli.EXIT_OK:
        print(f"{run}: {argv[0]} exited {rc}", file=sys.stderr)
    return rc


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)  # the config names the corpus files relative to here
        write_markov_corpus("train.txt", 50_000, structure_seed=0, sample_seed=1)
        write_markov_corpus("valid.txt", 5_000, structure_seed=0, sample_seed=2)
        with open("smoke.cfg", "w", encoding="utf-8") as fh:
            fh.write(SMOKE_CFG)
        for run, flags in RUNS.items():
            out_dir = os.path.join("runs", run)
            rc = quiet_cli(run, ["train", "--config", "smoke.cfg", *flags,
                                 "--out-dir", out_dir])
            if rc != cli.EXIT_OK:
                return rc
            for name in OUTPUTS:
                print(f"{run} {name} {sha256(os.path.join(out_dir, name))}")
            eval_dir = os.path.join("evals", run)
            rc = quiet_cli(run, ["eval", "--checkpoint", os.path.join(out_dir, "best.l2th"),
                                 "--out", eval_dir])
            if rc != cli.EXIT_OK:
                return rc
            with open(os.path.join(eval_dir, "eval.json"), encoding="utf-8") as fh:
                scored = json.load(fh)["val_ppl"]
            best = trainer.load_summary(out_dir)["best_val_ppl"]
            if scored != best:
                print(f"{run}: eval val_ppl {scored!r} is not the run's best {best!r}",
                      file=sys.stderr)
                return 1
            print(f"{run} eval.json {sha256(os.path.join(eval_dir, 'eval.json'))}")
            print(f"{run} best_val_ppl {best!r}")
        rc = quiet_cli("compare", ["compare", os.path.join("runs", "baseline"),
                                   os.path.join("runs", "l2t"), "--out", "compare"])
        if rc != cli.EXIT_OK:
            return rc
        print(f"compare compare.json {sha256(os.path.join('compare', 'compare.json'))}")
        os.chdir(ROOT)
    return 0


if __name__ == "__main__":
    sys.exit(main())
