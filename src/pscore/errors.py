"""Exception hierarchy shared by all pscore modules."""

from __future__ import annotations


class PScoreError(Exception):
    """Base class for every error raised by this package."""


class ParseError(PScoreError):
    """Input file is structurally malformed (bad JSON, bad CSV header, ...)."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class ValidationError(PScoreError):
    """A parsed value violates the record contract (missing field, bad type)."""

    def __init__(self, message: str, line: int | None = None, field: str | None = None):
        self.line = line
        self.field = field
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class DatasetError(PScoreError):
    """The assembled dataset cannot support the model (empty, silent group)."""


class ParameterError(PScoreError):
    """A user-supplied parameter is outside its allowed range."""


class ChainError(PScoreError):
    """A constructed chain block violates its stochasticity invariants."""


class DisconnectedChainError(PScoreError):
    """The reduced chain is not irreducible.

    ``components`` holds the partition of group indices when it is known
    (connectivity check); it is ``None`` when reducibility was detected
    during state elimination.
    """

    def __init__(self, message: str, components: tuple[frozenset[int], ...] | None = None):
        self.components = components
        super().__init__(message)


class DegenerateInputError(PScoreError):
    """All scores are zero, so normalization is undefined."""


class InternalError(PScoreError):
    """An internal consistency check failed; indicates a bug, not bad input."""
