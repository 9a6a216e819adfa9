"""Exception types shared across the package.

Every error the engine can raise deliberately is one of these, so the CLI
can map failures to stable exit codes.
"""


class L2THyenaError(Exception):
    """Base class for all deliberate errors raised by this package."""


class EmptyCorpus(L2THyenaError):
    """The input text contained no tokens."""


class CorpusEncodingError(L2THyenaError):
    """A corpus file is not UTF-8 text."""


class CorpusTooSmall(L2THyenaError):
    """Not enough tokens to form a single (batch_size, seq_len) batch."""


class VocabError(L2THyenaError):
    """A token id is outside the vocabulary range."""


class ShapeError(L2THyenaError):
    """Array arguments disagree on shape."""


class NumericalError(L2THyenaError):
    """A loss or gradient became non-finite; the run must abort."""


class InvalidExperience(L2THyenaError):
    """An experience with non-finite fields was rejected by the buffer."""


class EmptyBuffer(L2THyenaError):
    """Sampling was requested from an empty memory buffer."""


class ConfigError(L2THyenaError):
    """A configuration file or flag is malformed or out of range."""


class CheckpointError(L2THyenaError):
    """A checkpoint file is corrupt, truncated, or mismatched."""


class ReportError(L2THyenaError):
    """A comparison run directory is missing its metrics."""
