"""Run configuration: defaults, flat key-value config files, overrides.

File grammar: one ``key: value`` per line; blank lines and lines starting
with ``#`` are ignored; keys and values are whitespace-trimmed. Booleans
are ``true``/``false``. Unknown keys are rejected. Command-line flags
override file values, which override the built-in defaults.

``echo_config`` renders a resolved config back into this grammar with
full-precision floats, so re-parsing the echoed file reproduces the exact
same configuration.
"""

from __future__ import annotations

import dataclasses
import math
import typing

import numpy as np

from . import dln, hyena, teacher
from .errors import ConfigError


@dataclasses.dataclass
class RunConfig:
    # run
    mode: str = "l2t"  # "l2t" or "baseline"
    train_path: str = ""
    valid_path: str = ""
    out_dir: str = ""
    seed: int = 1
    deterministic: bool = False
    # corpus / batching
    max_vocab: int = 10000
    batch_size: int = 128
    seq_len: int = 64
    epochs: int = 10
    warmup_epochs: int = 2
    # student model
    dim: int = 256
    n_blocks: int = 6
    order: int = 2
    short_kernel: int = 3
    filter_pos_dim: int = 17
    filter_hidden: int = 64
    mlp_expansion: int = 4
    decay_fastest: float = 0.3
    decay_slowest: float = 30.0
    # adaptive-loss components
    dln_hidden: int = 32
    teacher_hidden: int = 128
    buffer_capacity: int = 500
    teacher_k: int = 32
    activation_threshold: int = 64
    huber_delta: float = 1.0
    beta: float = 0.01  # scale of the logit-regularization term
    # optimization
    lr_student: float = 2e-4
    wd_student: float = 0.15
    lr_teacher: float = 2e-6
    wd_teacher: float = 0.01
    lr_dln: float = 5e-7
    wd_dln: float = 0.01
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    clip_norm: float = 1.0


FIELD_TYPES: dict[str, type] = typing.get_type_hints(RunConfig)


def parse_value(key: str, text: str):
    """Parse one raw value string to the key's declared type."""
    if key not in FIELD_TYPES:
        raise ConfigError(f"unknown config key {key!r}")
    typ = FIELD_TYPES[key]
    text = text.strip()
    try:
        if typ is bool:
            if text not in ("true", "false"):
                raise ValueError
            return text == "true"
        if typ is int:
            return int(text)
        if typ is float:
            return float(text)
        return text
    except ValueError:
        raise ConfigError(f"bad value {text!r} for key {key!r} (expected {typ.__name__})")


def parse_config_file(path: str) -> dict:
    """Read a flat key-value file, each key at most once, into a typed override dict."""
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:  # drops a leading BOM
            lines = fh.read().splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc}")
    values, seen = {}, {}
    for lineno, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if ":" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected 'key: value', got {line!r}")
        key, _, raw = stripped.partition(":")
        key = key.strip()
        if key in seen:
            raise ConfigError(f"{path}:{lineno}: key {key!r} already set on line {seen[key]}")
        seen[key] = lineno
        values[key] = parse_value(key, raw)
    return values


def _positive(cfg, key):
    if getattr(cfg, key) <= 0:
        raise ConfigError(f"{key} must be > 0, got {getattr(cfg, key)}")


def _non_negative(cfg, key):
    if getattr(cfg, key) < 0:
        raise ConfigError(f"{key} must be >= 0, got {getattr(cfg, key)}")


def validate_config(cfg: RunConfig) -> None:
    for key, typ in FIELD_TYPES.items():
        # nan passes every range check below; inf passes most of them.
        if typ is float and not math.isfinite(getattr(cfg, key)):
            raise ConfigError(f"{key} must be finite, got {getattr(cfg, key)}")
    if cfg.mode not in ("l2t", "baseline"):
        raise ConfigError(f"mode must be 'l2t' or 'baseline', got {cfg.mode!r}")
    for key in ("batch_size", "seq_len", "epochs", "dim", "n_blocks", "order",
                "filter_hidden", "mlp_expansion", "dln_hidden", "teacher_hidden",
                "buffer_capacity", "teacher_k", "activation_threshold",
                "huber_delta", "clip_norm", "decay_fastest",
                "lr_student", "lr_teacher", "lr_dln", "adam_eps"):
        _positive(cfg, key)
    for key in ("wd_student", "wd_teacher", "wd_dln", "beta", "warmup_epochs", "seed"):
        _non_negative(cfg, key)
    if cfg.max_vocab < 3:
        raise ConfigError(f"max_vocab must be >= 3, got {cfg.max_vocab}")
    if cfg.short_kernel < 1 or cfg.short_kernel % 2 == 0:
        raise ConfigError(f"short_kernel must be odd and >= 1, got {cfg.short_kernel}")
    if cfg.filter_pos_dim < 1 or cfg.filter_pos_dim % 2 == 0:
        raise ConfigError(f"filter_pos_dim must be odd, got {cfg.filter_pos_dim}")
    if cfg.decay_slowest < cfg.decay_fastest:
        raise ConfigError("decay_slowest must be >= decay_fastest")
    if cfg.activation_threshold > cfg.buffer_capacity:
        # The replay memory never holds more than buffer_capacity experiences.
        raise ConfigError(
            f"activation_threshold ({cfg.activation_threshold}) must be <= "
            f"buffer_capacity ({cfg.buffer_capacity})"
        )
    if cfg.warmup_epochs >= cfg.epochs:
        raise ConfigError(
            f"warmup_epochs ({cfg.warmup_epochs}) must be < epochs ({cfg.epochs})"
        )
    for key in ("adam_beta1", "adam_beta2"):
        v = getattr(cfg, key)
        if not 0.0 <= v < 1.0:
            raise ConfigError(f"{key} must be in [0, 1), got {v}")
    # Every parameter as the checkpoint names it, one student block standing
    # for all, then the largest activations; V is max_vocab and an element 8
    # bytes, as parameters are drawn in float64. Past NumPy's index range an
    # allocation raises "array is too big", which is not a MemoryError.
    student = model_config_from_run(dataclasses.replace(cfg, n_blocks=1), cfg.max_vocab)
    sizes = {}
    for prefix, shapes in (("student/", hyena.param_shapes(student)),
                           ("dln/", dln.param_shapes(cfg.dln_hidden)),
                           ("teacher/", teacher.param_shapes(cfg.dln_hidden,
                                                             cfg.teacher_hidden))):
        sizes.update((prefix + name, math.prod(shape)) for name, shape in shapes.items())
    n, S = cfg.batch_size * cfg.seq_len, cfg.dln_hidden
    sizes.update({"logits": n * cfg.max_vocab, "MLP activations": n * cfg.mlp_expansion * cfg.dim,
                  "positional features": cfg.seq_len * cfg.filter_pos_dim,
                  "replay memory": cfg.buffer_capacity * S,
                  "teacher batch": cfg.teacher_k * (S + 1)})
    limit = int(np.iinfo(np.intp).max)
    for name, size in sizes.items():
        if 8 * size > limit:
            raise ConfigError(f"{name} would take {8 * size} bytes, past NumPy's "
                              f"limit of {limit}")


def model_config_from_run(cfg: RunConfig, vocab_size: int) -> hyena.HyenaConfig:
    """The student's shape: every ``HyenaConfig`` field ``RunConfig`` shares by name."""
    shared = {f.name: getattr(cfg, f.name) for f in dataclasses.fields(hyena.HyenaConfig)
              if hasattr(cfg, f.name)}
    return hyena.HyenaConfig(vocab_size=vocab_size, max_seq_len=cfg.seq_len, **shared)


def resolve_config(file_values: dict | None = None, flag_values: dict | None = None) -> RunConfig:
    """defaults <- config file <- command-line flags, then validate."""
    cfg = RunConfig()
    for source in (file_values or {}, flag_values or {}):
        for key, value in source.items():
            if key not in FIELD_TYPES:
                raise ConfigError(f"unknown config key {key!r}")
            setattr(cfg, key, value)
    if not cfg.out_dir:
        cfg.out_dir = f"runs/{cfg.mode}"
    validate_config(cfg)
    return cfg


def parse_config(path: str | None = None, flag_values: dict | None = None) -> RunConfig:
    file_values = parse_config_file(path) if path else None
    return resolve_config(file_values, flag_values)


def _render(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def echo_config(cfg: RunConfig) -> str:
    """Render the resolved config in the file grammar (round-trips exactly)."""
    lines = [f"{key}: {_render(getattr(cfg, key))}" for key in FIELD_TYPES]
    return "\n".join(lines) + "\n"
