"""Exception hierarchy shared by all pscore modules."""

from __future__ import annotations


class PScoreError(Exception):
    """Base class for every error raised by this package."""


class _LocatedError(PScoreError):
    """Bad input that may name its file, entry, line and field; ``str`` gives ``file: entry i: line N: message``."""

    file: str | None = None  # set by locating, as is entry: the 0-based index of a JSON array or list item
    entry: int | None = None

    def __init__(self, message: str, line: int | None = None, field: str | None = None):
        self.line = line
        self.field = field
        super().__init__(message)

    def __str__(self) -> str:
        file = "" if self.file is None else f"{self.file}: "
        entry = "" if self.entry is None else f"entry {self.entry}: "
        line = "" if self.line is None else f"line {self.line}: "
        return file + entry + line + super().__str__()


class ParseError(_LocatedError):
    """Input file is structurally malformed (bad JSON, bad CSV header, ...)."""


class ValidationError(_LocatedError):
    """A parsed value violates the record contract (missing field, bad type)."""


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
