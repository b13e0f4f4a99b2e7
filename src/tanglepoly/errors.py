"""Exception hierarchy shared across the package.

ParseError and InvalidDiagramError signal problems with input text or with
diagram structure; DomainError signals a precondition failure on otherwise
well-formed data (bad root index, invalid enhancement, unusable site).
The command line maps these onto distinct exit codes.
"""


class TangleError(Exception):
    """Base class for all package errors."""


class ParseError(TangleError):
    """Syntax error in .tng or manifest text, carrying a line number."""

    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


class InvalidDiagramError(TangleError):
    """A diagram violates a structural invariant (label counts, thick rules,
    planarity)."""


class DomainError(TangleError):
    """Well-formed input outside the domain of the requested operation."""
