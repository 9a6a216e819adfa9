import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from helpers import overflowing_checkpoint_header

from l2t_hyena import checkpoint, cli, config, corpus, hyena, trainer
from l2t_hyena.errors import ConfigError


class TestConfigParsing:
    def test_builtin_defaults(self, tmp_path):
        path = tmp_path / "empty.cfg"
        path.write_text("")
        cfg = config.parse_config(str(path), {"mode": "l2t"})
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
        cfg = config.parse_config(str(path), {"epochs": 2})
        assert cfg.epochs == 2

    def test_file_overrides_default(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("epochs: 4\nbatch_size: 8\n")
        cfg = config.parse_config(str(path))
        assert cfg.epochs == 4 and cfg.batch_size == 8

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("no_such_key: 3\n")
        with pytest.raises(ConfigError, match="no_such_key"):
            config.parse_config(str(path))

    def test_out_of_range_rejected(self):
        with pytest.raises(ConfigError, match="wd_student"):
            config.resolve_config(flag_values={"wd_student": -1.0})
        with pytest.raises(ConfigError, match="mode"):
            config.resolve_config(flag_values={"mode": "banana"})
        with pytest.raises(ConfigError, match="short_kernel"):
            config.resolve_config(flag_values={"short_kernel": 4})
        with pytest.raises(ConfigError, match="warmup_epochs"):
            config.resolve_config(flag_values={"epochs": 2, "warmup_epochs": 2})

    def test_bad_value_type(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("epochs: often\n")
        with pytest.raises(ConfigError, match="epochs"):
            config.parse_config(str(path))

    def test_comments_and_blank_lines(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("# a comment\n\nepochs: 3\n")
        assert config.parse_config(str(path)).epochs == 3

    def test_echo_round_trip(self, tmp_path):
        cfg = config.resolve_config(flag_values={
            "mode": "baseline", "epochs": 3, "lr_student": 1.5e-4,
            "train_path": "/data/x.txt", "deterministic": True,
        })
        path = tmp_path / "echo.cfg"
        path.write_text(config.echo_config(cfg))
        cfg2 = config.parse_config(str(path))
        assert cfg == cfg2


def _write_smoke_cfg(path, synth_corpus):
    path.write_text(
        f"train_path: {synth_corpus['train']}\n"
        f"valid_path: {synth_corpus['valid']}\n"
        "epochs: 2\nwarmup_epochs: 1\nbatch_size: 16\nseq_len: 16\n"
        "dim: 16\nn_blocks: 1\nmax_vocab: 100\nfilter_pos_dim: 5\n"
        "filter_hidden: 8\nactivation_threshold: 8\nteacher_k: 8\n"
        "deterministic: true\nseed: 3\n"
    )


class TestTrainCommand:
    def test_smoke_train_outputs(self, synth_corpus, tmp_path, capsys):
        cfg_path = tmp_path / "smoke.cfg"
        _write_smoke_cfg(cfg_path, synth_corpus)
        out = tmp_path / "run"
        rc = cli.main(["train", "--config", str(cfg_path), "--out-dir", str(out)])
        assert rc == 0
        lines = (out / "metrics_epoch.csv").read_text().splitlines()
        assert lines[0] == ("epoch,train_loss,val_loss,val_ppl,mean_lambda,"
                            "teacher_huber,lr_student,seconds")
        assert len(lines) == 3  # header + 2 epochs
        step_lines = (out / "metrics_step.csv").read_text().splitlines()
        assert step_lines[0] == "step,loss,ce,l2,lambda,grad_norm_student"
        assert (out / "metrics_epoch.csv").read_text().endswith("\n")
        assert (out / "config_resolved.txt").exists()
        assert (out / "best.l2th").exists() and (out / "last.l2th").exists()
        captured = capsys.readouterr()
        assert "epoch 0:" in captured.out

    def test_missing_corpus_names_path(self, tmp_path, capsys):
        rc = cli.main([
            "train", "--train-path", str(tmp_path / "absent.txt"),
            "--valid-path", str(tmp_path / "absent.txt"),
            "--out-dir", str(tmp_path / "o"),
        ])
        assert rc == cli.EXIT_DATA
        assert "absent.txt" in capsys.readouterr().err

    def test_bad_flag_value_exits_config(self, synth_corpus, tmp_path, capsys):
        rc = cli.main([
            "train", "--train-path", synth_corpus["train"],
            "--valid-path", synth_corpus["valid"],
            "--epochs", "many", "--out-dir", str(tmp_path / "o"),
        ])
        assert rc == cli.EXIT_CONFIG

    def test_resolved_config_reproduces_run_config(self, synth_corpus, tmp_path):
        cfg_path = tmp_path / "smoke.cfg"
        _write_smoke_cfg(cfg_path, synth_corpus)
        out = tmp_path / "run"
        assert cli.main(["train", "--config", str(cfg_path),
                         "--out-dir", str(out)]) == 0
        echoed = config.parse_config(str(out / "config_resolved.txt"))
        direct = config.parse_config(str(cfg_path), {"out_dir": str(out)})
        assert echoed == direct

    def test_csv_json_agreement(self, synth_corpus, tmp_path):
        cfg_path = tmp_path / "smoke.cfg"
        _write_smoke_cfg(cfg_path, synth_corpus)
        out = tmp_path / "run"
        assert cli.main(["train", "--config", str(cfg_path),
                         "--out-dir", str(out)]) == 0
        doc_text = (out / "metrics.json").read_text()
        doc = json.loads(doc_text)
        epoch_lines = (out / "metrics_epoch.csv").read_text().splitlines()
        header = epoch_lines[0].split(",")
        for row, line in zip(doc["epochs"], epoch_lines[1:]):
            for col, cell in zip(header, line.split(",")):
                # the printed JSON token must equal the CSV cell exactly
                assert f'"{col}": {cell}' in doc_text or cell == str(row[col])
        step_lines = (out / "metrics_step.csv").read_text().splitlines()
        assert len(doc["steps"]) == len(step_lines) - 1


class TestEvalCommand:
    def test_eval_matches_training_best(self, synth_corpus, tmp_path):
        cfg_path = tmp_path / "smoke.cfg"
        _write_smoke_cfg(cfg_path, synth_corpus)
        out = tmp_path / "run"
        assert cli.main(["train", "--config", str(cfg_path),
                         "--out-dir", str(out)]) == 0
        metrics = json.loads((out / "metrics.json").read_text())
        eval_out = tmp_path / "eval"
        rc = cli.main([
            "eval", "--checkpoint", str(out / "best.l2th"),
            "--config", str(cfg_path), "--out-dir", str(eval_out),
        ])
        assert rc == 0
        doc = json.loads((eval_out / "eval.json").read_text())
        assert doc["val_ppl"] == pytest.approx(metrics["best"]["val_ppl"],
                                               rel=1e-6)

    def test_eval_fresh_process_matches(self, synth_corpus, tmp_path):
        cfg_path = tmp_path / "smoke.cfg"
        _write_smoke_cfg(cfg_path, synth_corpus)
        out = tmp_path / "run"
        assert cli.main(["train", "--config", str(cfg_path),
                         "--out-dir", str(out)]) == 0
        eval_a = tmp_path / "eval_a"
        assert cli.main(["eval", "--checkpoint", str(out / "best.l2th"),
                         "--config", str(cfg_path),
                         "--out-dir", str(eval_a)]) == 0
        eval_b = tmp_path / "eval_b"
        proc = subprocess.run(
            [sys.executable, "-m", "l2t_hyena", "eval",
             "--checkpoint", str(out / "best.l2th"),
             "--config", str(cfg_path), "--out-dir", str(eval_b)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        a = json.loads((eval_a / "eval.json").read_text())
        b = json.loads((eval_b / "eval.json").read_text())
        assert a["val_ppl"] == pytest.approx(b["val_ppl"], rel=1e-6)

    @staticmethod
    def _eval_in_new_process(cfg_path, ckpt, out):
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        return subprocess.run(
            [sys.executable, "-m", "l2t_hyena", "eval", "--checkpoint", str(ckpt),
             "--config", str(cfg_path), "--out-dir", str(out)],
            capture_output=True, text=True, env=env,
        )

    def test_overflowing_header_exits_checkpoint(self, synth_corpus, tmp_path):
        cfg_path = tmp_path / "smoke.cfg"
        _write_smoke_cfg(cfg_path, synth_corpus)
        bad = tmp_path / "overflow.l2th"
        bad.write_bytes(overflowing_checkpoint_header())
        proc = self._eval_in_new_process(cfg_path, bad, tmp_path / "e")
        assert proc.returncode == cli.EXIT_CHECKPOINT, proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("checkpoint error:")

    def test_diverged_model_exits_numerical(self, synth_corpus, tmp_path):
        cfg_path = tmp_path / "smoke.cfg"
        _write_smoke_cfg(cfg_path, synth_corpus)
        cfg = config.parse_config(str(cfg_path), {})
        vocab = corpus.build_vocab(corpus.read_lines(cfg.train_path), cfg.max_vocab)
        params = hyena.init_model(trainer.model_config_from_run(cfg, len(vocab)), seed=0)
        params["tok_emb"] *= 1e5
        ckpt = tmp_path / "diverged.l2th"
        checkpoint.save_archive({"student/" + k: v for k, v in params.items()}, ckpt)
        proc = self._eval_in_new_process(cfg_path, ckpt, tmp_path / "e")
        assert proc.returncode == cli.EXIT_NUMERICAL, proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("numerical error:")

    def test_truncated_checkpoint(self, synth_corpus, tmp_path, capsys):
        cfg_path = tmp_path / "smoke.cfg"
        _write_smoke_cfg(cfg_path, synth_corpus)
        out = tmp_path / "run"
        assert cli.main(["train", "--config", str(cfg_path),
                         "--out-dir", str(out)]) == 0
        blob = (out / "best.l2th").read_bytes()
        bad = tmp_path / "cut.l2th"
        bad.write_bytes(blob[: len(blob) // 2])
        rc = cli.main(["eval", "--checkpoint", str(bad),
                       "--config", str(cfg_path),
                       "--out-dir", str(tmp_path / "e")])
        assert rc == cli.EXIT_CHECKPOINT

    def test_mismatched_model_shape(self, synth_corpus, tmp_path):
        cfg_path = tmp_path / "smoke.cfg"
        _write_smoke_cfg(cfg_path, synth_corpus)
        out = tmp_path / "run"
        assert cli.main(["train", "--config", str(cfg_path),
                         "--out-dir", str(out)]) == 0
        rc = cli.main(["eval", "--checkpoint", str(out / "best.l2th"),
                       "--config", str(cfg_path), "--dim", "32",
                       "--out-dir", str(tmp_path / "e")])
        assert rc == cli.EXIT_CHECKPOINT

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
        ckpt = tmp_path / "init.l2th"
        checkpoint.save_archive(trainer.archive_arrays(state), ckpt)
        rc = cli.main(["eval", "--checkpoint", str(ckpt),
                       "--train-path", str(train_path),
                       "--valid-path", str(valid_path),
                       "--out-dir", str(tmp_path / "out"), "--seed", "11"])
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

    def test_missing_metrics_is_report_error(self, tmp_path, capsys):
        a = tmp_path / "a"
        os.makedirs(a)
        rc = cli.main(["compare", str(a), str(a), "--out", str(tmp_path)])
        assert rc == cli.EXIT_DATA


class TestEvalIdentity:
    def test_perplexity_identity_on_table_values(self):
        # exp(4.7) = 109.95; consistent with a 1-decimal-rounded loss whose
        # true value may sit anywhere in [4.65, 4.75].
        assert math.exp(4.7) == pytest.approx(109.947, abs=1e-3)
        lo, hi = math.exp(4.65), math.exp(4.75)
        assert lo < 110.4 < hi
