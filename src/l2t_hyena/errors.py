"""Exception types shared across the package: one class per CLI exit code.

Every failure a user can cause (a bad config, corpus, report directory or
checkpoint, or a diverging run) raises one of the four subclasses below.
Each declares the ``exit_code`` the CLI returns and the ``kind`` it prints,
so ``cli.main`` needs a single handler. Internal invariants that no user
input reaches (array shapes, sampling an empty buffer) raise ``ValueError``.
"""


class L2THyenaError(Exception):
    """Base class for all deliberate errors raised by this package."""

    exit_code: int
    kind: str


class ConfigError(L2THyenaError):
    """A configuration file or flag is malformed or out of range."""

    exit_code = 2
    kind = "config"


class DataError(L2THyenaError):
    """A corpus, vocabulary, token id or run directory cannot be used."""

    exit_code = 3
    kind = "data"


class NumericalError(L2THyenaError):
    """A loss, gradient or experience became non-finite; the run must abort."""

    exit_code = 4
    kind = "numerical"


class CheckpointError(L2THyenaError):
    """A checkpoint file is unreadable, corrupt, truncated, or mismatched."""

    exit_code = 5
    kind = "checkpoint"
