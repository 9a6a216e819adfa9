import contextlib
import io
from types import SimpleNamespace

import pytest

from helpers import write_markov_corpus, write_smoke_cfg

from l2t_hyena import cli, trainer


@pytest.fixture(scope="session")
def synth_corpus(tmp_path_factory):
    """Session-wide synthetic corpus: 50k train tokens, 5k validation."""
    root = tmp_path_factory.mktemp("synth")
    train = root / "train.txt"
    valid = root / "valid.txt"
    write_markov_corpus(train, 50_000, structure_seed=0, sample_seed=1)
    write_markov_corpus(valid, 5_000, structure_seed=0, sample_seed=2)
    return {"train": str(train), "valid": str(valid)}


@pytest.fixture(scope="session")
def smoke_flags(synth_corpus):
    """Flag dict for the small deterministic run used across the suite."""

    def make(out_dir, **overrides):
        flags = dict(
            mode="l2t",
            train_path=synth_corpus["train"],
            valid_path=synth_corpus["valid"],
            out_dir=str(out_dir),
            epochs=2,
            warmup_epochs=1,
            batch_size=32,
            seq_len=32,
            dim=64,
            n_blocks=2,
            max_vocab=200,
            lr_student=1e-3,
            activation_threshold=16,
            deterministic=True,
            seed=7,
        )
        flags.update(overrides)
        return flags

    return make


@pytest.fixture(scope="session")
def tiny_flags(synth_corpus):
    """Flag dict for the smallest run the suite trains: one block, dim 16."""

    def make(**overrides):
        flags = dict(
            train_path=synth_corpus["train"],
            valid_path=synth_corpus["valid"],
            epochs=2,
            warmup_epochs=1,
            batch_size=16,
            seq_len=16,
            dim=16,
            n_blocks=1,
            max_vocab=100,
            filter_pos_dim=5,
            filter_hidden=8,
            activation_threshold=8,
            teacher_k=8,
            deterministic=True,
            seed=3,
        )
        flags.update(overrides)
        return flags

    return make


@pytest.fixture(scope="session")
def tiny_run(tiny_flags, tmp_path_factory):
    """The ``tiny_flags`` run, trained once per session through ``cli train``.

    ``cfg_path`` is the config file it was trained from, ``out`` its output
    directory, ``stdout`` what it printed, and ``info`` the summary
    ``trainer.train`` returned. Tests read it and write nothing into ``out``.
    """
    root = tmp_path_factory.mktemp("tiny_run")
    cfg_path = root / "smoke.cfg"
    write_smoke_cfg(cfg_path, tiny_flags)
    out = root / "run"
    returned = []
    train = trainer.train

    def recording_train(cfg):
        returned.append(train(cfg))
        return returned[-1]

    stdout = io.StringIO()
    with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stdout(stdout):
        mp.setattr(trainer, "train", recording_train)
        rc = cli.main(["train", "--config", str(cfg_path), "--out-dir", str(out)])
    assert rc == 0
    info, = returned
    return SimpleNamespace(cfg_path=cfg_path, out=out, stdout=stdout.getvalue(), info=info)
