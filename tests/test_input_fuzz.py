"""Property: the four input readers turn any input into a result or an
``L2THyenaError`` (which the CLI maps to its exit code), never another
exception."""

import struct

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from l2t_hyena import checkpoint, config, corpus
from l2t_hyena.errors import L2THyenaError

_FUZZ = settings(derandomize=True, database=None, max_examples=300, deadline=None)
_HEADER = checkpoint.MAGIC + struct.pack("<I", checkpoint.VERSION)


@pytest.fixture(scope="module")
def fuzz_file(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "input"


def _only_package_errors(read, path, blob):
    path.write_bytes(blob)
    try:
        read(str(path))
    except L2THyenaError:
        pass


_u32 = st.one_of(st.integers(0, 70), st.sampled_from([2**31, 2**32 - 1]),
                 st.integers(0, 2**32 - 1))


@st.composite
def _record(draw):
    """One array record in the v1 layout, with each field free to be implausible."""
    name = draw(st.one_of(st.text(min_size=1, max_size=6).map(str.encode),
                          st.binary(max_size=8)))
    dims = draw(st.lists(_u32, max_size=5))
    rank = draw(st.one_of(st.just(len(dims)), _u32))
    data = draw(st.binary(max_size=64))
    return b"".join([struct.pack("<I", len(name)), name, struct.pack("<I", rank),
                     *(struct.pack("<I", d) for d in dims), data])


@_FUZZ
@given(blob=st.one_of(
    st.binary(max_size=256),
    st.binary(max_size=256).map(lambda b: _HEADER + b),
    st.lists(_record(), max_size=3).map(lambda rs: _HEADER + b"".join(rs)),
))
def test_load_archive_any_bytes(fuzz_file, blob):
    _only_package_errors(checkpoint.load_archive, fuzz_file, blob)


_config_line = st.tuples(
    st.sampled_from(sorted(config.FIELD_TYPES) + ["no_such_key"]),
    st.one_of(st.text(max_size=12), st.integers().map(str), st.floats().map(repr),
              st.sampled_from(["true", "false", "l2t", "baseline"])),
).map(lambda kv: f"{kv[0]}: {kv[1]}")


@_FUZZ
@given(blob=st.one_of(
    st.binary(max_size=256),
    st.lists(_config_line, max_size=8).map(lambda ls: "\n".join(ls).encode("utf-8")),
))
def test_parse_config_any_bytes(fuzz_file, blob):
    _only_package_errors(config.resolve_config, fuzz_file, blob)


@_FUZZ
@given(blob=st.one_of(st.binary(max_size=256),
                     st.text(max_size=256).map(lambda s: s.encode("utf-8"))),
       max_vocab=st.integers(3, 20),
       batch_size=st.integers(1, 8), seq_len=st.integers(1, 8))
def test_corpus_pipeline_any_bytes(fuzz_file, blob, max_vocab, batch_size, seq_len):
    def pipeline(path):
        lines = corpus.read_lines(path)
        ids = corpus.encode(lines, corpus.build_vocab(lines, max_vocab))
        return corpus.make_batches(ids, batch_size, seq_len)

    _only_package_errors(pipeline, fuzz_file, blob)


_vocab_line = st.one_of(st.sampled_from([corpus.UNK_TOKEN, corpus.EOS_TOKEN, "a", "b", "",
                                         "a b", "\t"]),
                        st.text(max_size=4))


@_FUZZ
@given(blob=st.one_of(
    st.binary(max_size=256),
    st.lists(_vocab_line, max_size=6).map(lambda ls: "\n".join(ls).encode("utf-8")),
))
def test_load_vocab_any_bytes(fuzz_file, blob):
    fuzz_file.write_bytes(blob)
    try:
        vocab = corpus.load_vocab(str(fuzz_file))
    except L2THyenaError:
        return
    assert isinstance(vocab, corpus.Vocab)
    assert vocab.token_to_id == {tok: i for i, tok in enumerate(vocab.id_to_token)}
    assert vocab.id_to_token[vocab.unk_id] == corpus.UNK_TOKEN
    assert vocab.id_to_token[vocab.eos_id] == corpus.EOS_TOKEN


@_FUZZ
@given(lines=st.lists(st.text(max_size=24), max_size=6), max_vocab=st.integers(2, 12))
def test_load_vocab_inverts_save_vocab(fuzz_file, lines, max_vocab):
    assume(any(line.split() for line in lines))
    built = corpus.build_vocab(lines, max_vocab)
    corpus.save_vocab(built, str(fuzz_file))
    assert corpus.load_vocab(str(fuzz_file)) == built
