"""Command-line entry point: train, eval, and compare.

    l2t-hyena train --config cfg.txt [--mode baseline|l2t] [--seed N]
                    [--deterministic] [--<any-config-key> value ...]
    l2t-hyena eval --checkpoint runs/l2t/best.l2th [--valid-path FILE] [--out DIR]
    l2t-hyena compare runs/baseline runs/l2t [--out DIR]

Exit codes: 0 success, else the ``exit_code`` of the raised error class
(``errors.py``): 2 config (also a ``MemoryError``: arrays the config sizes
that do not fit), 3 data (also any ``OSError``), 4 numerical, 5 checkpoint.

``train`` resolves the config and hands it to ``trainer.train``, which
alone writes the run directory. ``eval`` reads the student, config and
vocabulary of the checkpoint's run (``trainer.load_student``) and scores
``--valid-path``, by default the run's ``valid_path``. ``compare`` reads
each run's summary through ``trainer.load_summary``. ``eval`` and
``compare`` write their report into ``--out``, creating it if needed.
"""

from __future__ import annotations

import argparse
import sys

from . import config, corpus, trainer
from .errors import ConfigError, DataError, L2THyenaError

EXIT_OK = 0


def cmd_train(args) -> int:
    flag_values = {}
    for key in config.FIELD_TYPES:
        raw = getattr(args, key)
        if raw is not None:
            flag_values[key] = raw if isinstance(raw, bool) else config.parse_value(key, raw)
    cfg = config.parse_config(args.config, flag_values)
    best = trainer.train(cfg)["best"]
    print(f"best epoch {best['epoch']}: val_ppl {best['val_ppl']:.4f} -> {cfg.out_dir}")
    return EXIT_OK


def cmd_eval(args) -> int:
    run_cfg, vocab, model_cfg, params = trainer.load_student(args.checkpoint)
    valid_path = args.valid_path or run_cfg.valid_path
    val_batches = corpus.make_batches(
        corpus.encode(corpus.read_lines(valid_path), vocab),
        run_cfg.batch_size, run_cfg.seq_len,
    )
    val_loss, val_ppl = trainer.evaluate(params, model_cfg, val_batches)
    print(f"val_loss {val_loss:.6f} val_ppl {val_ppl:.4f}")
    trainer.write_json(args.out, "eval.json", {"checkpoint": args.checkpoint,
                                               "valid_path": valid_path,
                                               "val_loss": val_loss, "val_ppl": val_ppl})
    return EXIT_OK


def cmd_compare(args) -> int:
    base = trainer.load_summary(args.dir_baseline)
    l2t = trainer.load_summary(args.dir_l2t)
    ppl_abs = base["best_val_ppl"] - l2t["best_val_ppl"]
    deltas = {
        "ppl_reduction_abs": ppl_abs,
        "ppl_reduction_rel": ppl_abs / base["best_val_ppl"],
        "final_train_loss_reduction_rel": (
            (base["final_train_loss"] - l2t["final_train_loss"]) / base["final_train_loss"]
        ),
        # --deterministic runs write total_seconds 0: no ratio to report.
        "time_ratio": (
            l2t["total_seconds"] / base["total_seconds"]
            if base["total_seconds"] > 0 and l2t["total_seconds"] > 0
            else None
        ),
    }
    rows = [
        ("best val perplexity", base["best_val_ppl"], l2t["best_val_ppl"]),
        ("best val loss", base["best_val_loss"], l2t["best_val_loss"]),
        ("best epoch", base["best_epoch"], l2t["best_epoch"]),
        ("final train loss", base["final_train_loss"], l2t["final_train_loss"]),
        ("total seconds", base["total_seconds"], l2t["total_seconds"]),
    ]
    print(f"{'metric':<22}{'baseline':>14}{'l2t':>14}")
    for name, a, b in rows:
        print(f"{name:<22}{a:>14.9g}{b:>14.9g}")
    print(
        f"perplexity reduction: {deltas['ppl_reduction_abs']:.4g} absolute, "
        f"{100.0 * deltas['ppl_reduction_rel']:.1f}% relative"
    )
    print(
        f"final train loss reduction: "
        f"{100.0 * deltas['final_train_loss_reduction_rel']:.1f}% relative"
    )
    ratio = deltas["time_ratio"]
    print(f"training time ratio (l2t/baseline): {'n/a' if ratio is None else f'{ratio:.4g}'}")
    trainer.write_json(args.out, "compare.json", {"baseline": base, "l2t": l2t, "deltas": deltas})
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="l2t-hyena",
                                description="Adaptive-loss language model trainer")
    sub = p.add_subparsers(dest="command", required=True)

    t = sub.add_parser("train", help="train a model and export metrics")
    t.add_argument("--config", default=None, help="flat key-value config file")
    for key, typ in config.FIELD_TYPES.items():
        flag = "--" + key.replace("_", "-")
        if typ is bool:
            t.add_argument(flag, dest=key, action="store_true", default=None)
        else:
            t.add_argument(flag, dest=key, default=None, metavar=typ.__name__.upper())
    t.set_defaults(func=cmd_train)

    e = sub.add_parser("eval", help="evaluate a checkpoint with its training run's config")
    e.add_argument("--checkpoint", required=True, help="a checkpoint train wrote")
    e.add_argument("--valid-path", help="corpus to score (default: the run's valid_path)")
    e.add_argument("--out", default=".", help="directory for eval.json")
    e.set_defaults(func=cmd_eval)

    c = sub.add_parser("compare", help="compare a baseline run with an l2t run")
    c.add_argument("dir_baseline")
    c.add_argument("dir_l2t")
    c.add_argument("--out", default=".", help="directory for compare.json")
    c.set_defaults(func=cmd_compare)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (L2THyenaError, OSError, MemoryError) as exc:
        if isinstance(exc, MemoryError):  # arrays sized by the config do not fit
            exc = ConfigError(f"out of memory: {str(exc) or 'an allocation failed'}")
        cls = type(exc) if isinstance(exc, L2THyenaError) else DataError
        print(f"{cls.kind} error: {exc}", file=sys.stderr)
        return cls.exit_code


if __name__ == "__main__":
    sys.exit(main())
