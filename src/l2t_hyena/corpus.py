"""Word-level corpus ingestion: vocabulary, encoding, and contiguous batches.

The corpus format is pre-tokenized text (one sentence per line, tokens
separated by whitespace). An ``<eos>`` token is appended to every line and
``<unk>`` absorbs out-of-vocabulary tokens at encode time. Vocabulary ids
are assigned by descending frequency with lexicographic tie-breaking, so
identical input files always produce identical vocabularies.
"""

from __future__ import annotations

import heapq
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .errors import DataError

UNK_TOKEN = "<unk>"
EOS_TOKEN = "<eos>"


@dataclass
class Vocab:
    """Tokens in id order; the token-to-id table and special ids derive from them."""

    id_to_token: list[str]
    token_to_id: dict[str, int] = field(init=False)
    unk_id: int = field(init=False)
    eos_id: int = field(init=False)

    def __post_init__(self) -> None:
        self.token_to_id = {tok: i for i, tok in enumerate(self.id_to_token)}
        self.unk_id = self.token_to_id[UNK_TOKEN]
        self.eos_id = self.token_to_id[EOS_TOKEN]

    def __len__(self) -> int:
        return len(self.id_to_token)


@dataclass
class TokenBatch:
    """One training batch: ``targets[b, t]`` is the stream successor of ``inputs[b, t]``."""

    inputs: np.ndarray  # (batch_size, seq_len) int32
    targets: np.ndarray  # (batch_size, seq_len) int32


def read_lines(path: str) -> list[str]:
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:  # drops a leading BOM
            return fh.read().splitlines()
    except UnicodeDecodeError as exc:
        raise DataError(f"{path!r} is not UTF-8 text: {exc}")


def build_vocab(lines: Iterable[str], max_size: int) -> Vocab:
    """Build a frequency-ordered vocabulary of at most ``max_size`` tokens.

    ``<eos>`` is counted once per line; ``<unk>`` is added (frequency of its
    literal occurrences, possibly zero) and both specials are guaranteed a
    slot even when ``max_size`` truncates the tail of the distribution.
    """
    if max_size < 2:
        raise ValueError("max_size must allow at least <unk> and <eos>")
    freq: Counter[str] = Counter()
    n_lines = 0
    for line in lines:
        n_lines += 1
        freq.update(line.split())
    if sum(freq.values()) == 0:
        raise DataError("corpus contains no tokens")
    freq[EOS_TOKEN] += n_lines

    def rank(kv):
        return -kv[1], kv[0]

    specials = (UNK_TOKEN, EOS_TOKEN)
    words = [kv for kv in freq.items() if kv[0] not in specials]
    chosen = heapq.nsmallest(max_size - 2, words, key=rank)
    chosen += [(tok, freq[tok]) for tok in specials]  # a missing <unk> counts 0
    return Vocab([tok for tok, _ in sorted(chosen, key=rank)])


def encode(lines: Iterable[str], vocab: Vocab) -> np.ndarray:
    """Encode lines to ids: one id per token plus ``eos_id`` per line."""
    t2i = vocab.token_to_id
    unk = vocab.unk_id
    eos = vocab.eos_id
    ids: list[int] = []
    for line in lines:
        for tok in line.split():
            ids.append(t2i.get(tok, unk))
        ids.append(eos)
    return np.asarray(ids, dtype=np.int32)


def oov_rate(lines: Iterable[str], vocab: Vocab) -> float:
    """Fraction of word tokens (``<eos>`` excluded) absent from the vocabulary."""
    total = 0
    oov = 0
    for line in lines:
        for tok in line.split():
            total += 1
            if tok not in vocab.token_to_id:
                oov += 1
    return oov / total if total else 0.0


def make_batches(ids: np.ndarray, batch_size: int, seq_len: int) -> list[TokenBatch]:
    """Split the id stream into continuous-lane next-token batches.

    Lane ``b`` covers a contiguous stretch of the stream; each batch advances
    every lane by ``seq_len``. The trailing remainder is dropped. Raises
    :class:`DataError` when not even one batch fits.
    """
    n = len(ids)
    lane_len = n // batch_size
    n_batches = (lane_len - 1) // seq_len if lane_len >= 1 else 0
    if n_batches < 1:
        raise DataError(
            f"{n} tokens cannot fill one {batch_size}x{seq_len} batch (+1 target)"
        )
    lanes = np.asarray(ids[: lane_len * batch_size], dtype=np.int32).reshape(
        batch_size, lane_len
    )
    batches = []
    for i in range(n_batches):
        lo = i * seq_len
        batches.append(
            TokenBatch(
                inputs=lanes[:, lo : lo + seq_len].copy(),
                targets=lanes[:, lo + 1 : lo + seq_len + 1].copy(),
            )
        )
    return batches


def save_vocab(vocab: Vocab, path: str) -> None:
    """Write one token per line in id order; ``load_vocab`` reads it back."""
    with open(path, "w", encoding="utf-8") as fh:
        for tok in vocab.id_to_token:
            fh.write(tok + "\n")


def load_vocab(path: str) -> Vocab:
    """Read a ``save_vocab`` file back: line ``i`` holds the token of id ``i``.

    Raises :class:`DataError` naming ``path`` when the file cannot be read,
    is not UTF-8 text, holds a line that is not exactly one token (empty,
    or with whitespace), repeats a token, or lacks ``<unk>`` or ``<eos>``.
    """
    try:
        tokens = read_lines(path)
    except OSError as exc:
        raise DataError(f"cannot read vocabulary {path!r}: {exc.strerror}")
    seen: set[str] = set()
    for i, tok in enumerate(tokens):
        if tok.split() != [tok]:
            raise DataError(f"vocabulary {path!r} line {i + 1} is not one token: {tok!r}")
        if tok in seen:
            raise DataError(f"vocabulary {path!r} repeats token {tok!r}")
        seen.add(tok)
    for special in (UNK_TOKEN, EOS_TOKEN):
        if special not in seen:
            raise DataError(f"vocabulary {path!r} has no {special} token")
    return Vocab(tokens)
