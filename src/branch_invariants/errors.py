"""Exception types shared across the package.

Validation failures name the violated admissibility condition so callers
(and the command line front end) can report a one-line diagnostic.
InternalInvariantViolation is reserved for states the algorithms are
supposed to make impossible; seeing one means a bug, not bad input.
Every self-checking function raises it through check_rows, which runs
rows of the identity table (see invariants.IDENTITIES).
"""

from __future__ import annotations

from typing import Any, Callable, Iterable

# all arithmetic is checked against this range; Python ints never wrap,
# so exceeding it raises instead of silently producing huge values
INT64_MIN = -(2**63)
INT64_MAX = 2**63 - 1

# an error message quotes at most this many characters of an input
ECHO_LIMIT = 40


class BranchInvariantError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(BranchInvariantError, ValueError):
    """Input fails an admissibility condition."""


class NotSingularError(ValidationError):
    """The data describes a smooth branch (no characteristic pairs, or n < 2)."""


class NonIncreasingError(ValidationError):
    """Exponents or generators are not strictly increasing where required."""


class DivisibilityViolationError(ValidationError):
    """An exponent is divisible by the running gcd, so it is not characteristic."""


class GcdNotOneError(ValidationError):
    """The gcd chain does not terminate at 1."""


class NotPlaneError(ValidationError):
    """The semigroup is not the value semigroup of a plane branch."""


class DomainError(ValidationError):
    """Argument outside the domain of a numeric helper."""


class OverflowLimitError(BranchInvariantError):
    """An intermediate value left the signed 64-bit range."""


class InternalInvariantViolation(BranchInvariantError):
    """A cross-check that must hold by construction failed."""


class NegativeGapCountError(InternalInvariantViolation):
    """A gap count came out negative, so the report it came from is inconsistent."""


def check_int64(*values: int) -> None:
    """The package's one integer rule: each value exactly an int, in signed 64 bits.

    A float, str, bool or numpy integer raises DomainError naming its type,
    before the range test, which raises OverflowLimitError.
    """
    for v in values:
        if type(v) is not int:
            raise DomainError(f"expected an int, got {type(v).__name__} {echo_plain(repr(v))}")
        if v < INT64_MIN or v > INT64_MAX:
            raise OverflowLimitError(f"value {echo_plain(v)} exceeds the signed 64-bit range")


def echo(text: str) -> str:
    """repr(text) for an error message, cut to fit in ECHO_LIMIT + 2 characters.

    A cut quotes the longest head (at most ECHO_LIMIT characters, never split
    inside an escape) whose repr fits, then gives the length of text.
    """
    head = text[:ECHO_LIMIT]
    while len(repr(head)) > ECHO_LIMIT + 2:
        head = head[:-1]
    return repr(text) if head == text else f"{head!r}... ({len(text)} characters)"


def echo_plain(value: object) -> str:
    """str(value) unquoted for an error message, unless long or unprintable: then echo."""
    text = str(value)
    return text if len(text) <= ECHO_LIMIT and text.isprintable() else echo(text)


def exact_div(a: int, b: int, what: str) -> int:
    """Division that must be exact; a remainder means a broken formula."""
    q, r = divmod(a, b)
    if r != 0:
        raise InternalInvariantViolation(f"{what}: {a} is not divisible by {b}")
    return q


def failing_rows(rows: Iterable[tuple[str, Callable]], v: Any, names=None) -> list:
    """(name, detail) of every row that fails on v, in table order.

    A row is (name, check), check(v) returning None when its identity
    holds and a one-line detail otherwise; names, if given, picks the rows
    to run.
    """
    if names is not None:
        rows = [row for row in rows if row[0] in names]
    return [(name, detail) for name, check in rows if (detail := check(v)) is not None]


def check_rows(rows, v: Any, names=None, subject=None) -> None:
    """Raise InternalInvariantViolation naming the first of failing_rows."""
    failures = failing_rows(rows, v, names)
    if failures:
        name, detail = failures[0]
        where = "" if subject is None else f"{subject}: "
        raise InternalInvariantViolation(f"{where}{name} failed: {detail}")
