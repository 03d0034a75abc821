"""Shared exception types.

Everything raised on bad input derives from ValueError so callers that
do not care about the fine-grained class can catch one thing.
"""

import json
import math


class ReachkeepError(ValueError):
    exit_code = 2  # the CLI's exit status: bad arguments or unreadable inputs


class ParseError(ReachkeepError):
    """Malformed text input. Carries the 1-based line number."""

    def __init__(self, message: str, line_no: int | None = None):
        self.line_no = line_no
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)


class BoundsError(ReachkeepError):
    """A vertex or path id is outside the declared range."""


class ParameterError(ReachkeepError):
    """A numeric parameter is outside its documented domain."""


class CyclicGraphError(ReachkeepError):
    """A DAG-only entry point received a graph with a directed cycle."""


class InfeasiblePairError(ReachkeepError):
    """The requested demand pair is not reachable in the input graph."""


class SizeLimitError(ReachkeepError):
    """Input exceeds the size regime an exhaustive routine accepts."""


class MissingEntryError(ReachkeepError, KeyError):
    """A table or index lookup had no entry for the requested key."""

    exit_code = 1

    def __str__(self) -> str:
        # KeyError's own __str__ would print the message in quotes
        return Exception.__str__(self)


def check_finite_positive(name: str, value: float) -> None:
    """Reject a real knob that is NaN, infinite, zero, negative or a bool."""
    if type(value) is bool or not (math.isfinite(value) and value > 0):
        raise ParameterError(f"{name} must be finite and positive, got {value}")


def check_count(name: str, value: int) -> None:
    """Reject a count that is not an integer of at least 1."""
    # type(), not isinstance(): a bool is an int, and a float would be truncated.
    if type(value) is not int or value < 1:
        raise ParameterError(f"{name} must be an integer >= 1, got {value!r}")


def check_unused(kind: str, name: str, value: object, default: object) -> None:
    """Reject a knob that kind ignores unless a manifest records it as its
    default: [1, 2] matches (1, 2), but True is not 1, nor 0.0 is 0."""
    if json.dumps(value, default=repr) != json.dumps(default):
        raise ParameterError(f"{kind} does not use {name}, got {name}={value!r}")
