"""Command-line entry point: train, eval, and compare.

    l2t-hyena train --config cfg.txt [--mode baseline|l2t] [--seed N]
                    [--deterministic] [--<any-config-key> value ...]
    l2t-hyena eval --checkpoint runs/l2t/best.l2th --config cfg.txt
    l2t-hyena compare runs/baseline runs/l2t

Exit codes: 0 success, else the ``exit_code`` of the raised error class
(``errors.py``): 2 config, 3 data (also any ``OSError``), 4 numerical,
5 checkpoint.

All CSV floats are printed with 9 significant digits, and ``metrics.json``
reuses the identical formatting so the two exports agree byte-for-byte on
every shared value.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

from . import checkpoint, config, corpus, trainer
from .errors import DataError, L2THyenaError

EXIT_OK = 0

STEP_COLUMNS = ("step", "loss", "ce", "l2", "lambda", "grad_norm_student")
EPOCH_COLUMNS = (
    "epoch", "train_loss", "val_loss", "val_ppl",
    "mean_lambda", "teacher_huber", "lr_student", "seconds",
)


def _fmt(value) -> str:
    """One value as printed in both CSV and JSON: floats get 9 sig. digits."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.9g}"
    return str(value)


def _json_dumps(obj, indent: int = 0) -> str:
    """Deterministic JSON with the same float formatting as the CSV files."""
    pad = "  " * indent
    if obj is None:
        return "null"
    if isinstance(obj, (bool, int, float)):
        return _fmt(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = ",\n".join("  " * (indent + 1) + _json_dumps(v, indent + 1) for v in obj)
        return "[\n" + inner + "\n" + pad + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = ",\n".join(
            "  " * (indent + 1) + json.dumps(str(k)) + ": " + _json_dumps(v, indent + 1)
            for k, v in obj.items()
        )
        return "{\n" + inner + "\n" + pad + "}"
    raise TypeError(f"cannot serialize {type(obj)!r}")


def _write_csv(path: str, columns: tuple[str, ...], rows: list[dict]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(row[c]) for c in columns) + "\n")


def write_metrics(out_dir: str, cfg: config.RunConfig, history, info) -> None:
    step_rows = [{c: m[c] for c in STEP_COLUMNS} for m in history.steps]
    epoch_rows = [{c: r[c] for c in EPOCH_COLUMNS} for r in history.epochs]
    _write_csv(os.path.join(out_dir, "metrics_step.csv"), STEP_COLUMNS, step_rows)
    _write_csv(os.path.join(out_dir, "metrics_epoch.csv"), EPOCH_COLUMNS, epoch_rows)
    doc = {
        "mode": cfg.mode,
        "config": dataclasses.asdict(cfg),
        "corpus": info["corpus"],
        "steps": step_rows,
        "epochs": epoch_rows,
        "best": info["best"],
        "final": info["final"],
        "notes": info["notes"],
    }
    with open(os.path.join(out_dir, "metrics.json"), "w", encoding="utf-8") as fh:
        fh.write(_json_dumps(doc) + "\n")


def _resolved_config(args) -> config.RunConfig:
    flag_values = {}
    for key in config.FIELD_TYPES:
        raw = getattr(args, key, None)
        if raw is None:
            continue
        flag_values[key] = raw if isinstance(raw, bool) else config.parse_value(key, raw)
    return config.parse_config(args.config, flag_values)


def cmd_train(args) -> int:
    cfg = _resolved_config(args)
    os.makedirs(cfg.out_dir, exist_ok=True)
    with open(os.path.join(cfg.out_dir, "config_resolved.txt"), "w",
              encoding="utf-8") as fh:
        fh.write(config.echo_config(cfg))
    history, info = trainer.train(cfg)
    write_metrics(cfg.out_dir, cfg, history, info)
    print(
        f"best epoch {info['best']['epoch']}: "
        f"val_ppl {info['best']['val_ppl']:.4f} -> {cfg.out_dir}"
    )
    return EXIT_OK


def cmd_eval(args) -> int:
    cfg = _resolved_config(args)
    archive = checkpoint.load_archive(args.checkpoint)
    train_lines = corpus.read_lines(cfg.train_path)
    valid_lines = corpus.read_lines(cfg.valid_path)
    vocab = corpus.build_vocab(train_lines, cfg.max_vocab)
    val_batches = corpus.make_batches(
        corpus.encode(valid_lines, vocab), cfg.batch_size, cfg.seq_len
    )
    model_cfg = trainer.model_config_from_run(cfg, len(vocab))
    params = trainer.student_params_from_archive(archive, model_cfg)
    val_loss, val_ppl = trainer.evaluate(params, model_cfg, val_batches)
    print(f"val_loss {val_loss:.6f} val_ppl {val_ppl:.4f}")
    os.makedirs(cfg.out_dir, exist_ok=True)
    doc = {"checkpoint": args.checkpoint, "val_loss": val_loss, "val_ppl": val_ppl}
    with open(os.path.join(cfg.out_dir, "eval.json"), "w", encoding="utf-8") as fh:
        fh.write(_json_dumps(doc) + "\n")
    return EXIT_OK


def _load_run_metrics(run_dir: str) -> dict:
    path = os.path.join(run_dir, "metrics.json")
    if not os.path.isfile(path):
        raise DataError(f"no metrics.json in {run_dir!r}")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        metrics = {
            "best_val_ppl": float(doc["best"]["val_ppl"]),
            "best_val_loss": float(doc["best"]["val_loss"]),
            "best_epoch": int(doc["best"]["epoch"]),
            "final_train_loss": float(doc["final"]["train_loss"]),
            "total_seconds": float(doc["final"]["total_seconds"]),
        }
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        raise DataError(f"malformed metrics.json in {run_dir!r}: {exc}")
    for key in ("best_val_ppl", "final_train_loss"):  # compare_runs divides by both
        if not 0.0 < metrics[key] < float("inf"):  # also rejects nan
            raise DataError(f"{key} in {path!r} must be finite and > 0, got {metrics[key]}")
    return metrics


def compare_runs(run_dir_baseline: str, run_dir_l2t: str) -> dict:
    """Side-by-side report of two run directories plus reduction arithmetic."""
    base = _load_run_metrics(run_dir_baseline)
    l2t = _load_run_metrics(run_dir_l2t)
    ppl_abs = base["best_val_ppl"] - l2t["best_val_ppl"]
    report = {
        "baseline": base,
        "l2t": l2t,
        "deltas": {
            "ppl_reduction_abs": ppl_abs,
            "ppl_reduction_rel": ppl_abs / base["best_val_ppl"],
            "final_train_loss_reduction_rel": (
                (base["final_train_loss"] - l2t["final_train_loss"])
                / base["final_train_loss"]
            ),
            # --deterministic runs write total_seconds 0: no ratio to report.
            "time_ratio": (
                l2t["total_seconds"] / base["total_seconds"]
                if base["total_seconds"] > 0 and l2t["total_seconds"] > 0
                else None
            ),
        },
    }
    return report


def cmd_compare(args) -> int:
    report = compare_runs(args.dir_baseline, args.dir_l2t)
    base, l2t, deltas = report["baseline"], report["l2t"], report["deltas"]
    rows = [
        ("best val perplexity", base["best_val_ppl"], l2t["best_val_ppl"]),
        ("best val loss", base["best_val_loss"], l2t["best_val_loss"]),
        ("best epoch", base["best_epoch"], l2t["best_epoch"]),
        ("final train loss", base["final_train_loss"], l2t["final_train_loss"]),
        ("total seconds", base["total_seconds"], l2t["total_seconds"]),
    ]
    print(f"{'metric':<22}{'baseline':>14}{'l2t':>14}")
    for name, a, b in rows:
        print(f"{name:<22}{_fmt(a):>14}{_fmt(b):>14}")
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
    out_path = os.path.join(args.out, "compare.json")
    with open(out_path, "w", encoding="utf-8") as fh:
        fh.write(_json_dumps(report) + "\n")
    return EXIT_OK


def _add_override_flags(sp: argparse.ArgumentParser) -> None:
    for key, typ in config.FIELD_TYPES.items():
        flag = "--" + key.replace("_", "-")
        if typ is bool:
            sp.add_argument(flag, dest=key, action="store_true", default=None)
        else:
            sp.add_argument(flag, dest=key, default=None, metavar=typ.__name__.upper())


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="l2t-hyena",
                                description="Adaptive-loss language model trainer")
    sub = p.add_subparsers(dest="command", required=True)

    t = sub.add_parser("train", help="train a model and export metrics")
    t.add_argument("--config", default=None, help="flat key-value config file")
    _add_override_flags(t)
    t.set_defaults(func=cmd_train)

    e = sub.add_parser("eval", help="evaluate a checkpoint on the validation set")
    e.add_argument("--checkpoint", required=True)
    e.add_argument("--config", default=None)
    _add_override_flags(e)
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
    except (L2THyenaError, OSError) as exc:
        cls = type(exc) if isinstance(exc, L2THyenaError) else DataError
        print(f"{cls.kind} error: {exc}", file=sys.stderr)
        return cls.exit_code


if __name__ == "__main__":
    sys.exit(main())
