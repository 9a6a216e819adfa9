import dataclasses
import importlib.util
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from helpers import (
    RUN_DIR_FILES,
    overflowing_checkpoint_header,
    write_markov_corpus,
    write_smoke_cfg,
)

from l2t_hyena import checkpoint, cli, config, corpus, hyena, trainer
from l2t_hyena.errors import CheckpointError, ConfigError, DataError, NumericalError


class TestConfigParsing:
    def test_builtin_defaults(self, tmp_path):
        path = tmp_path / "empty.cfg"
        path.write_text("")
        cfg = config.resolve_config(str(path), {"mode": "l2t"})
        assert cfg.lr_student == 2e-4 and cfg.wd_student == 0.15
        assert cfg.lr_teacher == 2e-6 and cfg.wd_teacher == 0.01
        assert cfg.lr_dln == 5e-7 and cfg.wd_dln == 0.01
        assert cfg.epochs == 10 and cfg.batch_size == 128 and cfg.seq_len == 64
        assert cfg.dim == 256 and cfg.n_blocks == 6 and cfg.order == 2
        assert cfg.short_kernel == 3 and cfg.max_vocab == 10000
        assert cfg.buffer_capacity == 500 and cfg.warmup_epochs == 2

    def test_flag_overrides_file(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("epochs: 10\nwarmup_epochs: 1\n")
        cfg = config.resolve_config(str(path), {"epochs": 2})
        assert cfg.epochs == 2

    def test_file_overrides_default(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("epochs: 4\nbatch_size: 8\n")
        cfg = config.resolve_config(str(path))
        assert cfg.epochs == 4 and cfg.batch_size == 8

    def test_byte_order_mark_is_not_part_of_the_first_key(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_bytes("\ufeffepochs: 4\n".encode("utf-8"))
        assert config.resolve_config(str(path)).epochs == 4

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("no_such_key: 3\n")
        with pytest.raises(ConfigError, match="no_such_key"):
            config.resolve_config(str(path))

    def test_out_of_range_rejected(self):
        for flags, message in [
            ({"wd_student": -1.0}, "wd_student"),
            ({"mode": "banana"}, "mode"),
            ({"short_kernel": 4}, "short_kernel"),
            ({"epochs": 2, "warmup_epochs": 2}, "warmup_epochs"),
            ({"buffer_capacity": 10, "activation_threshold": 11}, "activation_threshold"),
            ({"max_vocab": 2}, "max_vocab must be >= 3, got 2"),
            ({"filter_pos_dim": 4}, "filter_pos_dim must be odd, got 4"),
            ({"adam_beta1": 1.0}, r"adam_beta1 must be in \[0, 1\), got 1.0"),
            ({"adam_beta2": -0.1}, r"adam_beta2 must be in \[0, 1\), got -0.1"),
            ({"no_such_key": 1}, "unknown config key 'no_such_key'"),
        ]:
            with pytest.raises(ConfigError, match=message) as exc:
                config.resolve_config(flag_values=flags)
            assert exc.value.exit_code == 2
        cfg = config.resolve_config(flag_values={"buffer_capacity": 10,
                                                 "activation_threshold": 10})
        assert cfg.activation_threshold == cfg.buffer_capacity

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "key", [k for k, typ in config.FIELD_TYPES.items() if typ is float])
    def test_non_finite_float_rejected(self, key, value):
        # nan passes every `<= 0` range check, so finiteness is checked first.
        with pytest.raises(ConfigError, match=f"{key} must be finite"):
            config.resolve_config(flag_values={key: value})

    def test_bad_value_type(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("epochs: often\n")
        with pytest.raises(ConfigError, match="epochs"):
            config.resolve_config(str(path))

    def test_comments_and_blank_lines(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("# a comment\n\nepochs: 3\n")
        assert config.resolve_config(str(path)).epochs == 3

    def test_repeated_key_exits_config(self, tmp_path, capsys):
        # A second line for a key is refused, not silently kept over the first.
        cfg_path = tmp_path / "twice.cfg"
        cfg_path.write_text("lr_student: 1e-3\nepochs: 4\n\nlr_student: 5e-4\n")
        with pytest.raises(ConfigError, match=r"twice.cfg:4: key 'lr_student' already set on "
                                              r"line 1"):
            config.resolve_config(str(cfg_path))
        rc = cli.main(["train", "--config", str(cfg_path), "--out-dir", str(tmp_path / "o")])
        assert rc == ConfigError.exit_code
        assert "'lr_student' already set on line 1" in capsys.readouterr().err

    def test_non_utf8_file_exits_config(self, tmp_path, capsys):
        cfg_path = tmp_path / "latin1.cfg"
        cfg_path.write_bytes(b"dim: 8\n\xff\n")
        rc = cli.main(["train", "--config", str(cfg_path), "--out-dir", str(tmp_path / "o")])
        assert rc == ConfigError.exit_code
        assert "latin1.cfg" in capsys.readouterr().err

    def test_echo_round_trip(self, tmp_path):
        cfg = config.resolve_config(flag_values={
            "mode": "baseline", "epochs": 3, "lr_student": 1.5e-4,
            "train_path": "/data/x.txt", "deterministic": True,
        })
        path = tmp_path / "echo.cfg"
        path.write_text(config.echo_config(cfg))
        cfg2 = config.resolve_config(str(path))
        assert cfg == cfg2

    def test_every_flag_parses_as_its_file_line(self, tiny_flags, tmp_path, monkeypatch):
        # Every key at a value other than its default, given once as the
        # echoed file and once as the train flags argparse types.
        cfg = config.resolve_config(flag_values=tiny_flags(
            mode="baseline", out_dir=str(tmp_path / "o"), order=3, short_kernel=5,
            mlp_expansion=2, decay_fastest=0.1, decay_slowest=20.5, dln_hidden=12,
            teacher_hidden=24, buffer_capacity=40, huber_delta=0.75, beta=0.02,
            lr_student=1.5e-4, wd_student=0.1, lr_teacher=3e-6, wd_teacher=0.02,
            lr_dln=0.0, wd_dln=0.03, adam_beta1=0.8, adam_beta2=0.99, adam_eps=1e-7,
            clip_norm=0.5))
        default = config.RunConfig()
        assert len(config.FIELD_TYPES) == 37
        assert [k for k in config.FIELD_TYPES if getattr(cfg, k) == getattr(default, k)] == []
        path = tmp_path / "tiny.cfg"
        path.write_text(config.echo_config(cfg))
        argv = ["train"]
        for line in path.read_text().splitlines():
            key, _, value = line.partition(": ")
            flag = "--" + key.replace("_", "-")
            argv += [flag] if config.FIELD_TYPES[key] is bool else [flag, value]
        resolved = []
        monkeypatch.setattr(trainer, "train", lambda run_cfg: resolved.append(run_cfg) or
                            {"best": {"epoch": 0, "val_ppl": 1.0}})
        assert cli.main(argv) == 0
        assert resolved == [config.resolve_config(str(path))] == [cfg]


class TestTrainCommand:
    def test_smoke_train_outputs(self, tiny_run):
        out = tiny_run.out
        lines = (out / "metrics_epoch.csv").read_text().splitlines()
        assert lines[0] == ("epoch,train_loss,val_loss,val_ppl,mean_lambda,"
                            "teacher_huber,lr_student,seconds")
        assert len(lines) == 3  # header + 2 epochs
        step_lines = (out / "metrics_step.csv").read_text().splitlines()
        assert step_lines[0] == "step,loss,ce,l2,lambda,grad_norm_student"
        assert (out / "metrics_epoch.csv").read_text().endswith("\n")
        assert (out / "config_resolved.txt").exists()
        assert (out / "best.l2th").exists() and (out / "last.l2th").exists()
        assert "epoch 0:" in tiny_run.stdout

    def test_missing_corpus_names_path(self, tmp_path, capsys):
        rc = cli.main([
            "train", "--train-path", str(tmp_path / "absent.txt"),
            "--valid-path", str(tmp_path / "absent.txt"),
            "--out-dir", str(tmp_path / "o"),
        ])
        assert rc == DataError.exit_code
        assert "absent.txt" in capsys.readouterr().err

    def test_non_utf8_corpus_exits_data(self, synth_corpus, tmp_path, capsys):
        bad = tmp_path / "latin1.txt"
        bad.write_bytes(b"w001 w002\n\xe9t\xe9\n")
        rc = cli.main(["train", "--train-path", str(bad), "--valid-path", synth_corpus["valid"],
                       "--out-dir", str(tmp_path / "o")])
        assert rc == DataError.exit_code
        assert "latin1.txt" in capsys.readouterr().err

    def test_threshold_above_buffer_capacity_exits_config(self, tiny_flags, tmp_path,
                                                          capsys):
        # The replay buffer could never reach the threshold: no teacher or DLN update.
        cfg_path = tmp_path / "smoke.cfg"
        write_smoke_cfg(cfg_path, tiny_flags)
        rc = cli.main(["train", "--config", str(cfg_path), "--buffer-capacity", "4",
                       "--out-dir", str(tmp_path / "o")])
        assert rc == ConfigError.exit_code
        assert "buffer_capacity" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_bad_flag_value_exits_config(self, synth_corpus, tmp_path, capsys):
        rc = cli.main([
            "train", "--train-path", synth_corpus["train"],
            "--valid-path", synth_corpus["valid"],
            "--epochs", "many", "--out-dir", str(tmp_path / "o"),
        ])
        assert rc == ConfigError.exit_code

    @pytest.mark.parametrize("flags", [["--epochs", "many"], ["--epochs", "many", "--epochs", "3"]],
                             ids=["once", "repeated"])
    def test_bad_flag_value_exits_config_in_new_process(self, flags):
        # argparse calls config.parse_value on each occurrence of the flag; its
        # ConfigError is reported as a bad file value is, with no usage text
        # or traceback, even when a later occurrence parses.
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-m", "l2t_hyena", "train", *flags],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == ConfigError.exit_code
        assert proc.stderr == "config error: bad value 'many' for key 'epochs' (expected int)\n"
        assert proc.stdout == ""

    def test_nan_clip_norm_exits_config(self, tiny_flags, tmp_path, capsys):
        # `total > nan` is never true: a nan clip norm would switch clipping off.
        cfg_path = tmp_path / "smoke.cfg"
        write_smoke_cfg(cfg_path, tiny_flags)
        rc = cli.main(["train", "--config", str(cfg_path), "--clip-norm", "nan",
                       "--out-dir", str(tmp_path / "o")])
        assert rc == ConfigError.exit_code
        assert "clip_norm must be finite" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("message, shown", [
        ("Unable to allocate 8.00 TiB for an array with shape (1099511627776,)",
         "Unable to allocate 8.00 TiB for an array with shape (1099511627776,)"),
        ("", "an allocation failed"),
    ], ids=["numpy", "bare"])
    def test_out_of_memory_exits_config(self, tiny_flags, tmp_path, capsys, monkeypatch,
                                        message, shown):
        # A config whose arrays do not fit: NumPy raises MemoryError allocating them.
        def allocate(*args, **kwargs):
            raise MemoryError(message)

        monkeypatch.setattr(hyena, "init_model", allocate)
        cfg_path = tmp_path / "smoke.cfg"
        write_smoke_cfg(cfg_path, tiny_flags)
        rc = cli.main(["train", "--config", str(cfg_path), "--out-dir", str(tmp_path / "o")])
        assert rc == ConfigError.exit_code
        err = capsys.readouterr().err
        assert err == f"config error: out of memory: {shown}\n"

    def test_out_of_memory_exits_config_in_new_process(self, tiny_flags, tmp_path):
        # The child caps its address space, so the first large request fails
        # at once instead of meeting a host that overcommits. At dim 2**29
        # block0.mlp_w1 would take 2**63 bytes, which validate_config rejects
        # before any allocation.
        import resource

        cap = 3_000_000_000

        def limit():
            resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

        proc = self._train_in_new_process(tiny_flags, tmp_path, str(2 ** 28), limit)
        assert proc.returncode == ConfigError.exit_code, proc.stderr
        assert proc.stderr.startswith("config error: out of memory: Unable to allocate")
        assert "Traceback" not in proc.stderr

    @staticmethod
    def _train_in_new_process(tiny_flags, tmp_path, dim, preexec_fn=None):
        cfg_path = tmp_path / "smoke.cfg"
        write_smoke_cfg(cfg_path, tiny_flags)
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        return subprocess.run(
            [sys.executable, "-m", "l2t_hyena", "train", "--config", str(cfg_path),
             "--dim", dim, "--out-dir", str(tmp_path / "o")],
            capture_output=True, text=True, env=env, preexec_fn=preexec_fn,
        )

    @pytest.mark.parametrize("flag, value, array", [
        ("--dim", 2 ** 62, "student/tok_emb"),
        ("--max-vocab", 10 ** 16, "logits"),
        ("--mlp-expansion", 2 ** 55, "student/block0.mlp_w1"),
        ("--order", 2 ** 55, "student/block0.w_in"),
        ("--buffer-capacity", 2 ** 60, "replay memory"),
        ("--order", 6 * 10 ** 15, "student/block0.w_in"),  # 8 bytes: drawn in float64
        ("--short-kernel", 2 ** 62 - 1, "student/block0.short_kernels"),
        ("--filter-hidden", 2 ** 62, "student/block0.filt_w1"),
        ("--filter-pos-dim", 2 ** 62 - 1, "student/block0.filt_w1"),
        ("--dln-hidden", 2 ** 31, "dln/gru.u_z"),
        ("--teacher-hidden", 2 ** 62, "teacher/w1"),
        ("--teacher-hidden", 2 ** 31, "teacher/w2"),
        ("--teacher-k", 2 ** 62, "teacher batch"),
    ])
    def test_array_past_index_range_exits_config(self, tiny_flags, tmp_path, capsys,
                                                 flag, value, array):
        # NumPy would raise "array is too big" (a ValueError) allocating it.
        cfg_path = tmp_path / "smoke.cfg"
        write_smoke_cfg(cfg_path, tiny_flags)
        rc = cli.main(["train", "--config", str(cfg_path), flag, str(value),
                       "--out-dir", str(tmp_path / "o")])
        assert rc == ConfigError.exit_code
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {array} would take ") and err.count("\n") == 1
        assert not (tmp_path / "o").exists()

    def test_array_past_index_range_exits_config_in_new_process(self, tiny_flags, tmp_path):
        proc = self._train_in_new_process(tiny_flags, tmp_path, "4611686018427387904")
        assert proc.returncode == ConfigError.exit_code, proc.stderr
        assert proc.stderr.startswith("config error: student/tok_emb would take ")
        assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr

    def test_resolved_config_reproduces_run_config(self, tiny_run):
        cfg_path, out = tiny_run.cfg_path, tiny_run.out
        echoed = config.resolve_config(str(out / "config_resolved.txt"))
        direct = config.resolve_config(str(cfg_path), {"out_dir": str(out)})
        assert echoed == direct


def _hand_built_run(run_dir, cfg, vocab, arrays, name):
    """A checkpoint with the config and vocabulary ``train`` would write beside it."""
    (run_dir / "config_resolved.txt").write_text(config.echo_config(cfg))
    corpus.save_vocab(vocab, run_dir / "vocab.txt")
    ckpt = run_dir / name
    checkpoint.save_archive(arrays, ckpt)
    return ckpt


class TestEvalCommand:
    def test_eval_matches_training_best(self, tiny_run, tmp_path):
        out = tiny_run.out
        metrics = json.loads((out / "metrics.json").read_text())
        eval_out = tmp_path / "eval"
        rc = cli.main(["eval", "--checkpoint", str(out / "best.l2th"), "--out", str(eval_out)])
        assert rc == 0
        doc = json.loads((eval_out / "eval.json").read_text())
        assert doc["val_ppl"] == pytest.approx(metrics["best"]["val_ppl"],
                                               rel=1e-6)

    def test_checkpoint_alone_reproduces_best_exactly(self, tiny_run, synth_corpus,
                                                      tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert cli.main(["eval", "--checkpoint", str(tiny_run.out / "best.l2th")]) == 0
        doc = json.loads((tmp_path / "eval.json").read_text())
        metrics = json.loads((tiny_run.out / "metrics.json").read_text())
        assert doc["val_ppl"] == metrics["best"]["val_ppl"]
        assert doc["valid_path"] == synth_corpus["valid"]

    def test_eval_writes_only_into_out(self, tiny_run, tmp_path, monkeypatch):
        # eval.json once went to the config's out_dir, by default runs/<mode>.
        monkeypatch.chdir(tmp_path)
        assert cli.main(["eval", "--checkpoint", str(tiny_run.out / "best.l2th")]) == 0
        assert set(os.listdir(tiny_run.out)) == RUN_DIR_FILES
        assert os.listdir(tmp_path) == ["eval.json"]

    def test_valid_path_scores_another_file(self, tiny_run, tmp_path):
        ckpt = str(tiny_run.out / "best.l2th")
        other = tmp_path / "other_valid.txt"
        write_markov_corpus(other, 5_000, structure_seed=5, sample_seed=2)
        rc = cli.main(["eval", "--checkpoint", ckpt,
                       "--valid-path", str(other), "--out", str(tmp_path / "e")])
        assert rc == 0
        doc = json.loads((tmp_path / "e" / "eval.json").read_text())
        assert doc["valid_path"] == str(other)
        run_cfg, vocab, model_cfg, params = trainer.load_student(ckpt)
        batches = corpus.make_batches(corpus.encode(corpus.read_lines(other), vocab),
                                      run_cfg.batch_size, run_cfg.seq_len)
        assert doc["val_ppl"] == trainer.evaluate(params, model_cfg, batches)[1]
        assert doc["val_ppl"] != tiny_run.info["best"]["val_ppl"]

    def test_missing_run_config_exits_config(self, tiny_run, tmp_path, capsys):
        ckpt = tmp_path / "best.l2th"
        ckpt.write_bytes((tiny_run.out / "best.l2th").read_bytes())
        rc = cli.main(["eval", "--checkpoint", str(ckpt), "--out", str(tmp_path / "e")])
        assert rc == ConfigError.exit_code
        err = capsys.readouterr().err
        assert err.startswith("config error:") and str(tmp_path / "config_resolved.txt") in err

    def test_missing_vocabulary_exits_data(self, tiny_run, tmp_path, capsys):
        for name in ("best.l2th", "config_resolved.txt"):
            (tmp_path / name).write_bytes((tiny_run.out / name).read_bytes())
        rc = cli.main(["eval", "--checkpoint", str(tmp_path / "best.l2th"),
                       "--out", str(tmp_path / "e")])
        assert rc == DataError.exit_code
        err = capsys.readouterr().err
        assert err.startswith("data error:") and str(tmp_path / "vocab.txt") in err

    def test_eval_fresh_process_matches(self, tiny_run, tmp_path):
        out = tiny_run.out
        eval_a = tmp_path / "eval_a"
        assert cli.main(["eval", "--checkpoint", str(out / "best.l2th"),
                         "--out", str(eval_a)]) == 0
        eval_b = tmp_path / "eval_b"
        proc = self._eval_in_new_process(out / "best.l2th", eval_b)
        assert proc.returncode == 0, proc.stderr
        a = json.loads((eval_a / "eval.json").read_text())
        b = json.loads((eval_b / "eval.json").read_text())
        assert a["val_ppl"] == pytest.approx(b["val_ppl"], rel=1e-6)

    @staticmethod
    def _eval_in_new_process(ckpt, out):
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        return subprocess.run(
            [sys.executable, "-m", "l2t_hyena", "eval", "--checkpoint", str(ckpt),
             "--out", str(out)],
            capture_output=True, text=True, env=env,
        )

    def test_overflowing_header_exits_checkpoint(self, tmp_path):
        bad = tmp_path / "overflow.l2th"
        bad.write_bytes(overflowing_checkpoint_header())
        proc = self._eval_in_new_process(bad, tmp_path / "e")
        assert proc.returncode == CheckpointError.exit_code, proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("checkpoint error:")

    def test_diverged_model_exits_numerical(self, tiny_flags, tmp_path):
        cfg = config.resolve_config(flag_values=tiny_flags())
        vocab = corpus.build_vocab(corpus.read_lines(cfg.train_path), cfg.max_vocab)
        params = hyena.init_model(config.model_config_from_run(cfg, len(vocab)), seed=0)
        params["tok_emb"] *= 1e5
        ckpt = _hand_built_run(tmp_path, cfg, vocab,
                               {"student/" + k: v for k, v in params.items()}, "diverged.l2th")
        proc = self._eval_in_new_process(ckpt, tmp_path / "e")
        assert proc.returncode == NumericalError.exit_code, proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("numerical error:")

    def test_nan_weight_exits_checkpoint(self, tiny_flags, tmp_path):
        cfg = config.resolve_config(flag_values=tiny_flags())
        vocab = corpus.build_vocab(corpus.read_lines(cfg.train_path), cfg.max_vocab)
        params = hyena.init_model(config.model_config_from_run(cfg, len(vocab)), seed=0)
        params["block0.w_out"][2, 3] = np.nan
        ckpt = _hand_built_run(tmp_path, cfg, vocab,
                               {"student/" + k: v for k, v in params.items()}, "nan.l2th")
        rc = cli.main(["eval", "--checkpoint", str(ckpt), "--out", str(tmp_path / "e")])
        assert rc == CheckpointError.exit_code

    def test_non_utf8_corpus_exits_data(self, tiny_run, tmp_path, capsys):
        # A readable checkpoint: eval opens it before the corpus.
        bad = tmp_path / "latin1.txt"
        bad.write_bytes(b"w001 w002\n\xe9t\xe9\n")
        rc = cli.main(["eval", "--checkpoint", str(tiny_run.out / "best.l2th"),
                       "--valid-path", str(bad), "--out", str(tmp_path / "o")])
        assert rc == DataError.exit_code
        assert "latin1.txt" in capsys.readouterr().err

    def test_missing_checkpoint_reported_before_missing_corpus(self, tmp_path, capsys):
        ckpt = tmp_path / "absent.l2th"
        rc = cli.main(["eval", "--checkpoint", str(ckpt),
                       "--valid-path", str(tmp_path / "absent.txt"),
                       "--out", str(tmp_path / "o")])
        assert rc == CheckpointError.exit_code
        err = capsys.readouterr().err
        assert err.startswith("checkpoint error:") and str(ckpt) in err

    def test_truncated_checkpoint(self, tiny_run, tmp_path, capsys):
        blob = (tiny_run.out / "best.l2th").read_bytes()
        bad = tmp_path / "cut.l2th"
        bad.write_bytes(blob[: len(blob) // 2])
        rc = cli.main(["eval", "--checkpoint", str(bad), "--out", str(tmp_path / "e")])
        assert rc == CheckpointError.exit_code

    def test_stray_trailing_byte_exits_checkpoint(self, tiny_run, tmp_path, capsys):
        bad = tmp_path / "stray.l2th"
        bad.write_bytes((tiny_run.out / "best.l2th").read_bytes() + b"\x00")
        rc = cli.main(["eval", "--checkpoint", str(bad), "--out", str(tmp_path / "e")])
        assert rc == CheckpointError.exit_code == 5
        assert "while reading name length" in capsys.readouterr().err

    @pytest.mark.parametrize("is_dir", [False, True], ids=["missing", "directory"])
    def test_unreadable_checkpoint_exits_checkpoint(self, tmp_path, capsys, is_dir):
        # Nothing else is beside it: the checkpoint is read before the run's files.
        ckpt = tmp_path / "nope.l2th"
        if is_dir:
            ckpt.mkdir()
        rc = cli.main(["eval", "--checkpoint", str(ckpt), "--out", str(tmp_path / "e")])
        assert rc == CheckpointError.exit_code
        err = capsys.readouterr().err
        assert err.startswith("checkpoint error:") and str(ckpt) in err

    def test_mismatched_model_shape(self, tiny_run, tmp_path):
        for name in ("best.l2th", "vocab.txt"):
            (tmp_path / name).write_bytes((tiny_run.out / name).read_bytes())
        resolved = (tiny_run.out / "config_resolved.txt").read_text()
        assert resolved.count("\ndim: 16\n") == 1
        (tmp_path / "config_resolved.txt").write_text(
            resolved.replace("\ndim: 16\n", "\ndim: 32\n"))
        rc = cli.main(["eval", "--checkpoint", str(tmp_path / "best.l2th"),
                       "--out", str(tmp_path / "e")])
        assert rc == CheckpointError.exit_code

    @pytest.mark.parametrize("archive_blocks, run_blocks, what", [
        (2, 1, "has unexpected"), (1, 2, "is missing"),
    ], ids=["extra-block", "missing-block"])
    def test_block_count_mismatch_exits_checkpoint(self, tiny_flags, tmp_path, capsys,
                                                   archive_blocks, run_blocks, what):
        # Same dim and vocabulary: every array both runs declare has its shape.
        cfg = config.resolve_config(flag_values=tiny_flags(n_blocks=run_blocks))
        vocab = corpus.build_vocab(corpus.read_lines(cfg.train_path), cfg.max_vocab)
        model_cfg = config.model_config_from_run(cfg, len(vocab))
        params = hyena.init_model(dataclasses.replace(model_cfg, n_blocks=archive_blocks), seed=0)
        ckpt = _hand_built_run(tmp_path, cfg, vocab,
                               {"student/" + k: v for k, v in params.items()}, "blocks.l2th")
        rc = cli.main(["eval", "--checkpoint", str(ckpt), "--out", str(tmp_path / "e")])
        assert rc == CheckpointError.exit_code
        err = capsys.readouterr().err
        assert err.startswith(f"checkpoint error: checkpoint {what} array 'student/block1.b_in'")

    def test_random_init_full_size_model_near_uniform(self, tmp_path):
        # Corpus containing every one of 9998 word types at least once, so the
        # vocabulary is exactly 10000 with the two specials. A freshly
        # initialized full-size model must score close to the uniform bound.
        rng = np.random.default_rng(0)
        types = [f"t{i:04d}" for i in range(9998)]
        train_tokens = types + [types[i] for i in rng.integers(0, 9998, 30_000)]
        train_path = tmp_path / "train.txt"
        with open(train_path, "w") as fh:
            for i in range(0, len(train_tokens), 20):
                fh.write(" ".join(train_tokens[i : i + 20]) + "\n")
        valid_path = tmp_path / "valid.txt"
        with open(valid_path, "w") as fh:
            vfiller = rng.integers(0, 9998, 9_000)
            for i in range(0, 9_000, 20):
                fh.write(" ".join(types[j] for j in vfiller[i : i + 20]) + "\n")

        cfg = config.resolve_config(flag_values=dict(
            train_path=str(train_path), valid_path=str(valid_path),
            out_dir=str(tmp_path / "out"), seed=11,
        ))
        lines = corpus.read_lines(cfg.train_path)
        vocab = corpus.build_vocab(lines, cfg.max_vocab)
        assert len(vocab) == 10_000
        state = trainer.init_train_state(cfg, len(vocab), batches_per_epoch=1)
        ckpt = _hand_built_run(tmp_path, cfg, vocab, trainer.archive_arrays(state), "init.l2th")
        rc = cli.main(["eval", "--checkpoint", str(ckpt), "--out", str(tmp_path / "out")])
        assert rc == 0
        doc = json.loads((tmp_path / "out" / "eval.json").read_text())
        assert abs(doc["val_ppl"] - 10_000) / 10_000 < 0.02


class TestCompareCommand:
    def _fake_run(self, path, ppl, loss, epoch, train_loss, seconds):
        os.makedirs(path, exist_ok=True)
        doc = {
            "best": {"epoch": epoch, "val_loss": loss, "val_ppl": ppl},
            "final": {"train_loss": train_loss, "total_seconds": seconds},
        }
        with open(os.path.join(path, "metrics.json"), "w") as fh:
            json.dump(doc, fh)

    def test_reduction_arithmetic(self, tmp_path, capsys):
        a = tmp_path / "base"
        b = tmp_path / "l2t"
        self._fake_run(a, 110.4, 4.7, 3, 3.1, 100.0)
        self._fake_run(b, 102.6, 4.6, 5, 1.91, 131.0)
        rc = cli.main(["compare", str(a), str(b), "--out", str(tmp_path)])
        assert rc == 0
        report = json.loads((tmp_path / "compare.json").read_text())
        assert report["deltas"]["ppl_reduction_abs"] == pytest.approx(7.8, abs=1e-9)
        rel = report["deltas"]["ppl_reduction_rel"]
        assert round(100 * rel, 1) == 7.1
        # 3.1 -> 1.91 is a 38.4% reduction by the invariant's arithmetic
        train_rel = report["deltas"]["final_train_loss_reduction_rel"]
        assert round(100 * train_rel, 1) == 38.4
        assert report["deltas"]["time_ratio"] == pytest.approx(1.31, abs=1e-9)
        assert "7.1%" in capsys.readouterr().out

    def test_identical_runs_zero_deltas(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        self._fake_run(a, 50.0, 3.9, 2, 3.0, 10.0)
        self._fake_run(b, 50.0, 3.9, 2, 3.0, 10.0)
        assert cli.main(["compare", str(a), str(b), "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "compare.json").read_text())
        assert report["deltas"]["ppl_reduction_abs"] == 0.0
        assert report["deltas"]["ppl_reduction_rel"] == 0.0
        assert report["deltas"]["time_ratio"] == 1.0

    @pytest.mark.parametrize("base_s, l2t_s", [(0.0, 0.0), (0.0, 12.0), (10.0, 0.0)])
    def test_untimed_run_has_no_time_ratio(self, tmp_path, capsys, base_s, l2t_s):
        # --deterministic runs write total_seconds 0.0.
        a, b = tmp_path / "base", tmp_path / "l2t"
        self._fake_run(a, 50.0, 3.9, 2, 3.0, base_s)
        self._fake_run(b, 49.0, 3.8, 2, 2.9, l2t_s)
        assert cli.main(["compare", str(a), str(b), "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "compare.json").read_text())
        assert report["deltas"]["time_ratio"] is None
        assert "training time ratio (l2t/baseline): n/a" in capsys.readouterr().out

    @pytest.mark.parametrize("text", ['{"best": ', '{"final": {"train_loss": 3.0}}'],
                             ids=["not-json", "no-best"])
    def test_malformed_metrics_is_a_data_error(self, tmp_path, capsys, text):
        base, l2t = tmp_path / "base", tmp_path / "l2t"
        self._fake_run(l2t, 50.0, 3.9, 2, 3.0, 10.0)
        base.mkdir()
        (base / "metrics.json").write_text(text)
        rc = cli.main(["compare", str(base), str(l2t), "--out", str(tmp_path)])
        assert rc == 3
        assert f"malformed metrics.json in {str(base)!r}" in capsys.readouterr().err
        assert not (tmp_path / "compare.json").exists()

    @pytest.mark.parametrize("ppl, train_loss", [
        (50.0, 0.0), (50.0, -1.0), (0.0, 3.0), (float("nan"), 3.0), (50.0, float("inf")),
    ])
    def test_degenerate_metrics_are_report_errors(self, tmp_path, capsys, ppl, train_loss):
        base, l2t = tmp_path / "base", tmp_path / "l2t"
        self._fake_run(base, ppl, 3.9, 2, train_loss, 10.0)
        self._fake_run(l2t, 50.0, 3.9, 2, 3.0, 10.0)
        rc = cli.main(["compare", str(base), str(l2t), "--out", str(tmp_path)])
        assert rc == DataError.exit_code
        assert "must be finite and > 0" in capsys.readouterr().err
        assert not (tmp_path / "compare.json").exists()

    def test_missing_out_directory_is_created(self, tmp_path, capsys):
        a, b = tmp_path / "base", tmp_path / "l2t"
        self._fake_run(a, 50.0, 3.9, 2, 3.0, 10.0)
        self._fake_run(b, 49.0, 3.8, 2, 2.9, 10.0)
        out = tmp_path / "reports" / "new"
        assert cli.main(["compare", str(a), str(b), "--out", str(out)]) == 0
        report = json.loads((out / "compare.json").read_text())
        assert report["l2t"]["best_val_ppl"] == 49.0
        assert capsys.readouterr().err == ""

    def test_missing_metrics_is_report_error(self, tmp_path, capsys):
        a = tmp_path / "a"
        os.makedirs(a)
        rc = cli.main(["compare", str(a), str(a), "--out", str(tmp_path)])
        assert rc == DataError.exit_code

    def test_compare_reads_the_summary_train_wrote(self, tiny_run, tmp_path):
        out = tmp_path / "report"
        assert cli.main(["compare", str(tiny_run.out), str(tiny_run.out),
                         "--out", str(out)]) == 0
        report = json.loads((out / "compare.json").read_text())
        deltas = report["deltas"]
        assert deltas["ppl_reduction_abs"] == 0.0
        assert deltas["ppl_reduction_rel"] == 0.0
        assert deltas["final_train_loss_reduction_rel"] == 0.0
        assert deltas["time_ratio"] is None  # a --deterministic run is untimed
        for side in ("baseline", "l2t"):
            assert report[side]["best_val_ppl"] == tiny_run.info["best"]["val_ppl"]


def test_readme_smoke_cfg_is_the_one_the_hash_tool_runs():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    spec = importlib.util.spec_from_file_location(
        "smoke_hashes", os.path.join(root, "tools", "smoke_hashes.py"))
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    with open(os.path.join(root, "README.md"), encoding="utf-8") as fh:
        readme = fh.read()
    _, heredoc = readme.split("cat > smoke.cfg <<'EOF'\n", 1)
    assert heredoc.split("EOF\n", 1)[0] == tool.SMOKE_CFG


class TestEvalIdentity:
    def test_perplexity_identity_on_table_values(self):
        # exp(4.7) = 109.95; consistent with a 1-decimal-rounded loss whose
        # true value may sit anywhere in [4.65, 4.75].
        assert math.exp(4.7) == pytest.approx(109.947, abs=1e-3)
        lo, hi = math.exp(4.65), math.exp(4.75)
        assert lo < 110.4 < hi
