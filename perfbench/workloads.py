"""Workload definitions and the synthetic corpus generator.

Each workload is a first-order Markov corpus plus a trainer configuration.
The generator lives here, apart from the program: the trainer only ever sees
the text files written by ``write_corpus``. A corpus has a transition table
fixed per workload (``structure_seed``) and a training text drawn from the
run's ``--seed``, so every seed gives a different text from the same
language, and the language's entropy bounds do not depend on the seed.

Generator: each of ``n_types`` word types has one preferred successor (a
random permutation). With probability ``p_follow`` the chain moves to it;
otherwise it jumps to a type drawn from a Zipf(``zipf_s``) law over a random
ranking of the types (``zipf_s == 0`` is a uniform jump). Text is written
``LINE_LEN`` words per line, and the corpus reader appends ``<eos>`` to every
line.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field

import numpy as np

# Words per line of the written corpus; the reader adds <eos> to each line.
LINE_LEN = 20
# Initial weights are the same in every run (RunConfig.seed), so *_val_ppl
# varies only with the training text.
MODEL_SEED = 1


@dataclass(frozen=True)
class Workload:
    name: str
    n_types: int
    p_follow: float
    zipf_s: float
    train_tokens: int
    valid_tokens: int
    structure_seed: int
    # RunConfig overrides; out_dir, mode, seed and paths are filled in per run.
    config: dict = field(default_factory=dict)
    warmup_steps: int = 2
    # Training steps after which *_val_ppl is read; fixed, so it is deterministic.
    fixed_steps: int = 10
    # Untraced steps before the traced run's compared segment begins.
    trace_after_steps: int = 2
    # Upper limit of the val-perplexity check: "unigram" (the language's
    # unigram perplexity: the model used context) or "uniform" (the
    # vocabulary size: the model learned something). The lower limit is
    # always the language's entropy bound.
    ppl_ceiling: str = "uniform"
    # Runs of the reference kernel (calibrate.py) after each timed call:
    # about 3 % of a step's time where steps take hundreds of milliseconds.
    kernel_runs: int = 1


# activation_threshold=1 makes the teacher and DLN update on every step, so
# every timed l2t step pays for them; lr_student=1e-3 with no warm-up lets the
# short runs learn enough that *_val_ppl checks something. Why each workload
# exists is in BENCHMARK.json.
_COMMON = dict(epochs=4, warmup_epochs=0, activation_threshold=1, lr_student=1e-3)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="paper-shape",
            n_types=10_000, p_follow=0.5, zipf_s=1.0,
            train_tokens=120_000, valid_tokens=4_200, structure_seed=11,
            config=dict(_COMMON, batch_size=4, seq_len=64, dim=256, n_blocks=6,
                        max_vocab=10_000),
            warmup_steps=2, fixed_steps=20, kernel_runs=4,
        ),
        Workload(
            name="long-ctx",
            n_types=300, p_follow=0.9, zipf_s=0.0,
            train_tokens=160_000, valid_tokens=16_500, structure_seed=12,
            config=dict(_COMMON, batch_size=4, seq_len=1024, dim=64, n_blocks=2),
            warmup_steps=2, fixed_steps=16, kernel_runs=4,
        ),
        Workload(
            name="smoke-learn",
            n_types=64, p_follow=0.9, zipf_s=0.0,
            train_tokens=50_000, valid_tokens=5_000, structure_seed=0,
            config=dict(_COMMON, batch_size=8, seq_len=32, dim=64, n_blocks=2,
                        max_vocab=200),
            warmup_steps=20, fixed_steps=560, ppl_ceiling="unigram",
            trace_after_steps=510,
        ),
    )
}

# Self-test sizes: the same code paths and checks, in seconds. The smoke-learn
# variant stays learnable (8 types, a 40-entry buffer that fills) so that its
# perplexity check still means something.
TINY = {
    "paper-shape": dict(
        n_types=300, train_tokens=6_000, valid_tokens=600, fixed_steps=4,
        config=dict(_COMMON, batch_size=2, seq_len=16, dim=16, n_blocks=2,
                    filter_hidden=8, max_vocab=250),
        kernel_runs=1,
    ),
    "long-ctx": dict(
        n_types=40, train_tokens=8_000, valid_tokens=1_100, fixed_steps=3,
        config=dict(_COMMON, batch_size=2, seq_len=256, dim=8, n_blocks=1,
                    filter_hidden=8),
        kernel_runs=1,
    ),
    "smoke-learn": dict(
        n_types=8, train_tokens=6_000, valid_tokens=1_000, warmup_steps=5,
        fixed_steps=160, trace_after_steps=45,
        config=dict(_COMMON, batch_size=4, seq_len=16, dim=16, n_blocks=1,
                    filter_hidden=8, max_vocab=200, lr_student=1e-2,
                    buffer_capacity=40, dln_hidden=8, teacher_hidden=16),
    ),
}


def get(name: str, tiny: bool = False) -> Workload:
    w = WORKLOADS[name]
    return dataclasses.replace(w, **TINY[name]) if tiny else w


def transition_table(w: Workload) -> tuple[np.ndarray, np.ndarray]:
    """(successor permutation, jump distribution) fixed by ``structure_seed``."""
    rng = np.random.default_rng(w.structure_seed)
    successor = rng.permutation(w.n_types)
    weights = 1.0 / np.arange(1, w.n_types + 1, dtype=np.float64) ** w.zipf_s
    jump = np.empty(w.n_types)
    jump[rng.permutation(w.n_types)] = weights / weights.sum()
    return successor, jump


def sample_types(w: Workload, n_tokens: int, seed: int) -> list[int]:
    successor, jump = transition_table(w)
    rng = np.random.default_rng(seed)
    follow = (rng.random(n_tokens) < w.p_follow).tolist()
    jumps = rng.choice(w.n_types, size=n_tokens, p=jump).tolist()
    succ = successor.tolist()
    cur = jumps[-1]
    out = []
    for i in range(n_tokens):
        out.append(cur)
        cur = succ[cur] if follow[i] else jumps[i]
    return out


def write_corpus(w: Workload, seed: int, train_path: str, valid_path: str) -> None:
    """Train text sampled from ``seed``; a valid text fixed per workload.

    A fixed held-out text keeps the run-to-run spread of *_val_ppl down to
    what training on different samples causes.
    """
    train_seed = int(np.random.SeedSequence([seed, w.structure_seed]).generate_state(1)[0])
    valid_seed = int(np.random.SeedSequence([w.structure_seed]).generate_state(1)[0])
    for path, n, s in ((train_path, w.train_tokens, train_seed),
                       (valid_path, w.valid_tokens, valid_seed)):
        words = [f"w{t:05d}" for t in sample_types(w, n, s)]
        with open(path, "w", encoding="utf-8") as fh:
            for i in range(0, n, LINE_LEN):
                fh.write(" ".join(words[i : i + LINE_LEN]) + "\n")


def language_bounds(w: Workload) -> dict:
    """Perplexity bounds of the token stream, from the transition table alone.

    The stream is ``LINE_LEN`` words then ``<eos>``, repeated. ``unigram_ppl``
    is exp of the entropy of the stationary token distribution (words and
    ``<eos>``): the best a model that ignores context can do.
    ``entropy_ppl`` is exp of the entropy rate, ``LINE_LEN / (LINE_LEN + 1)``
    times the words' conditional entropy (``<eos>`` is predictable from the
    position in the line): no model can beat it in expectation.
    ``logloss_sd`` is the per-token standard deviation of the true model's
    log-loss, from which a sampling tolerance for a finite valid set follows.
    """
    successor, jump = transition_table(w)
    p = w.p_follow
    pi = jump.copy()
    for _ in range(2000):
        nxt = p * np.bincount(successor, weights=pi, minlength=w.n_types) + (1 - p) * jump
        if np.abs(nxt - pi).max() < 1e-15:
            pi = nxt
            break
        pi = nxt
    # Row i puts (1-p)*jump[j] on every j, plus p on successor[i].
    base = (1 - p) * jump
    base_terms = -base * np.log(base)
    peak = base[successor] + p
    row_h = (base_terms.sum() - base_terms[successor]) - peak * np.log(peak)
    # Second moment of -log q for the variance of the per-token log-loss.
    base_sq = base * np.log(base) ** 2
    row_m2 = (base_sq.sum() - base_sq[successor]) + peak * np.log(peak) ** 2
    h_cond = float(pi @ row_h)
    m2 = float(pi @ row_m2)
    frac_words = LINE_LEN / (LINE_LEN + 1)
    rate = frac_words * h_cond
    # Per token: words contribute their log-loss, <eos> contributes 0.
    var = frac_words * m2 - rate ** 2
    unigram = np.append(frac_words * pi, 1.0 - frac_words)
    h_unigram = float(-(unigram * np.log(unigram)).sum())
    return {
        "unigram_ppl": math.exp(h_unigram),
        "entropy_ppl": math.exp(rate),
        "logloss_sd": math.sqrt(max(var, 0.0)),
    }
