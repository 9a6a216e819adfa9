import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import decode, reference_build_vocab

from l2t_hyena import corpus
from l2t_hyena.errors import DataError


def test_build_vocab_frequency_and_specials():
    vocab = corpus.build_vocab(["a b a"], max_size=10)
    # a:2, then <eos>:1 and b:1 tie broken lexicographically, <unk>:0 last
    assert len(vocab) == 4
    assert vocab.token_to_id["a"] < vocab.token_to_id["b"]
    assert vocab.id_to_token[0] == "a"
    assert set(vocab.id_to_token) == {"a", "b", corpus.UNK_TOKEN, corpus.EOS_TOKEN}
    assert vocab.unk_id != vocab.eos_id


def test_build_vocab_empty_stream():
    with pytest.raises(DataError, match="no tokens"):
        corpus.build_vocab([], max_size=10)
    with pytest.raises(DataError, match="no tokens"):
        corpus.build_vocab([""], max_size=10)


def test_build_vocab_truncation_keeps_specials():
    # Nine distinct rare tokens + a frequent one; cap at 4 slots.
    lines = ["common " * 5 + " ".join(f"r{i}" for i in range(9))]
    vocab = corpus.build_vocab(lines, max_size=4)
    assert len(vocab) == 4
    assert corpus.UNK_TOKEN in vocab.token_to_id
    assert corpus.EOS_TOKEN in vocab.token_to_id
    assert "common" in vocab.token_to_id


def test_build_vocab_max_size_cap():
    lines = [" ".join(f"t{i}" for i in range(50))]
    vocab = corpus.build_vocab(lines, max_size=20)
    assert len(vocab) == 20


# Few types and short lines, so frequencies tie often; literal specials included.
_tokens = st.sampled_from(["a", "b", "c", "d", "e", "f", "g", "h", "<unk>", "<eos>"])
_lines = st.lists(st.lists(_tokens, max_size=6).map(" ".join), min_size=1, max_size=8)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(lines=_lines, max_size=st.integers(2, 12))
def test_build_vocab_matches_reference(lines, max_size):
    if not any(line.split() for line in lines):
        with pytest.raises(DataError, match="no tokens"):
            corpus.build_vocab(lines, max_size)
        return
    vocab = corpus.build_vocab(lines, max_size)
    assert vocab.id_to_token == reference_build_vocab(lines, max_size)


def test_encode_basic_and_unk():
    vocab = corpus.build_vocab(["a b", "a"], max_size=10)
    ids = corpus.encode(["a b"], vocab)
    assert ids.tolist() == [
        vocab.token_to_id["a"], vocab.token_to_id["b"], vocab.eos_id,
    ]
    ids = corpus.encode(["a z"], vocab)
    assert ids.tolist() == [vocab.token_to_id["a"], vocab.unk_id, vocab.eos_id]


def test_encode_length_is_tokens_plus_lines():
    lines = ["a b c", "d e", "f"]
    vocab = corpus.build_vocab(lines, max_size=100)
    ids = corpus.encode(lines, vocab)
    assert len(ids) == 6 + 3


def test_decode_round_trip_with_unk_substitution():
    lines = ["a b c", "a q b"]
    vocab = corpus.build_vocab(["a b c a b"], max_size=100)
    for line in lines:
        ids = corpus.encode([line], vocab)
        tokens = decode(ids, vocab)
        expected = [
            t if t in vocab.token_to_id else corpus.UNK_TOKEN for t in line.split()
        ] + [corpus.EOS_TOKEN]
        assert tokens == expected


def test_make_batches_shift_by_one():
    ids = np.arange(10, dtype=np.int32)
    batches = corpus.make_batches(ids, batch_size=1, seq_len=3)
    assert len(batches) == 3
    assert [b.inputs[0].tolist() for b in batches] == [[0, 1, 2], [3, 4, 5], [6, 7, 8]]
    assert [b.targets[0].tolist() for b in batches] == [[1, 2, 3], [4, 5, 6], [7, 8, 9]]


def test_make_batches_shift_property_exhaustive():
    # Every (lane, position) target must be the stream successor of its input.
    ids = np.arange(101, dtype=np.int32)
    batch_size, seq_len = 4, 5
    lane_len = len(ids) // batch_size
    batches = corpus.make_batches(ids, batch_size, seq_len)
    assert len(batches) == (lane_len - 1) // seq_len
    for b in batches:
        assert np.array_equal(b.targets, b.inputs + 1)
    # Lanes are contiguous stretches of the stream.
    first = batches[0].inputs
    for lane in range(batch_size):
        assert first[lane, 0] == lane * lane_len


def test_make_batches_count_formula():
    # floor((floor(930000/128) - 1)/64) = 113
    ids = np.zeros(930_000, dtype=np.int32)
    assert len(corpus.make_batches(ids, 128, 64)) == 113


def test_make_batches_too_small():
    with pytest.raises(DataError, match="cannot fill one"):
        corpus.make_batches(np.arange(10, dtype=np.int32), batch_size=4, seq_len=4)


def test_corpus_determinism(tmp_path):
    lines = ["the cat sat", "the dog sat", "a cat ran"] * 7
    v1 = corpus.build_vocab(lines, 50)
    v2 = corpus.build_vocab(list(lines), 50)
    assert v1.id_to_token == v2.id_to_token
    ids1 = corpus.encode(lines, v1)
    ids2 = corpus.encode(lines, v2)
    assert np.array_equal(ids1, ids2)
    b1 = corpus.make_batches(ids1, 2, 4)
    b2 = corpus.make_batches(ids2, 2, 4)
    for x, y in zip(b1, b2):
        assert np.array_equal(x.inputs, y.inputs)
        assert np.array_equal(x.targets, y.targets)
    p1, p2 = tmp_path / "v1.txt", tmp_path / "v2.txt"
    corpus.save_vocab(v1, p1)
    corpus.save_vocab(v2, p2)
    assert p1.read_bytes() == p2.read_bytes()


@pytest.mark.parametrize("blob, match", [
    (None, "cannot read vocabulary"),
    (b"<unk>\n<eos>\n\xe9t\xe9\n", "not UTF-8"),
    (b"<unk>\n<eos>\na\na\n", "repeats token 'a'"),
    (b"<unk>\n<eos>\na b\n", "line 3 is not one token"),
    (b"<unk>\n\n<eos>\n", "line 2 is not one token"),
    (b"<unk>\na\n", "no <eos>"),
    (b"", "no <unk>"),
], ids=["missing", "latin1", "duplicate", "whitespace", "empty-line", "no-eos",
        "empty-file"])
def test_load_vocab_rejects_unusable_file(tmp_path, blob, match):
    path = tmp_path / "vocab.txt"
    if blob is not None:
        path.write_bytes(blob)
    with pytest.raises(DataError, match=match) as info:
        corpus.load_vocab(str(path))
    assert str(path) in str(info.value)


def test_read_lines_drops_a_leading_byte_order_mark(tmp_path):
    path = tmp_path / "train.txt"
    path.write_bytes("\ufeffa b a\nb a\n".encode("utf-8"))
    lines = corpus.read_lines(str(path))
    assert lines == ["a b a", "b a"]
    assert corpus.build_vocab(lines, 10).id_to_token == ["a", "<eos>", "b", "<unk>"]


def test_oov_rate():
    vocab = corpus.build_vocab(["a b"], max_size=10)
    assert corpus.oov_rate(["a b"], vocab) == 0.0
    assert corpus.oov_rate(["a q"], vocab) == pytest.approx(0.5)


@pytest.mark.skipif(
    "L2T_PTB_TRAIN" not in os.environ,
    reason="set L2T_PTB_TRAIN to a PTB train file to pin real-corpus stats",
)
def test_ptb_regression_constants():
    lines = corpus.read_lines(os.environ["L2T_PTB_TRAIN"])
    vocab = corpus.build_vocab(lines, 10_000)
    assert len(vocab) == 10_000
    ids = corpus.encode(lines, vocab)
    # Stream length is tokens + one eos per line; expected near 930k.
    assert 837_000 <= len(ids) <= 1_023_000
