"""Error types shared across the package.

Every error carries a short machine-readable code; the CLI maps DomainError
to exit status 1, ParseError (bad surface syntax or malformed input
documents) to exit status 2, and any other exception to `internal_error`
with exit status 3.
"""

from __future__ import annotations


class ExtcalcError(Exception):
    """Base class; `code` is stable and safe to match on.

    `details` is an optional JSON-ready payload (for example a violation
    list) that the CLI forwards inside the error envelope.
    """

    code = "error"

    def __init__(self, message: str, *, code: str | None = None, details=None):
        super().__init__(message)
        if code is not None:
            self.code = code
        self.details = details

    @property
    def message(self) -> str:
        return str(self)


class DomainError(ExtcalcError):
    """A well-formed request whose mathematical preconditions fail."""

    code = "domain_error"


class ParseError(ExtcalcError):
    """Bad surface syntax; `position` is a 0-based offset when known."""

    code = "parse_error"

    def __init__(self, message: str, *, position: int | None = None, code: str | None = None):
        super().__init__(message, code=code)
        self.position = position
