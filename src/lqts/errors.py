"""Exception hierarchy shared across the library.

The CLI maps ``UsageError`` to exit code 1 and every other ``LqtsError``
(data / numerical problems) to exit code 2.
"""


class LqtsError(Exception):
    """Base class for all library errors."""


class UsageError(LqtsError):
    """Invalid invocation: bad flags, missing required inputs."""


class CorpusError(LqtsError):
    """Malformed gallery, proxy table, feature file or model file."""


class DimensionMismatchError(LqtsError):
    """Operands live in different descriptor spaces."""


class ZeroVectorError(LqtsError):
    """A similarity was requested for a zero-norm vector."""


class DegenerateSetError(LqtsError):
    """A set has no usable variation (e.g. all exemplars identical)."""


class TrainingError(LqtsError):
    """Regression training could not start (empty or non-finite corpus)."""
