"""Exception hierarchy: one class per CLI exit code under a common base.

Exit codes follow the CLI contract: 2 for violated preconditions or bad
input, 3 for a spent budget, 4 for internal inconsistencies (a step that
is guaranteed to succeed failed, i.e. a bug). Exit 3 comes only from the
`--budget` of the box enumeration of `enumerate`.
"""


class QforgeError(Exception):
    """Base of every qforge error; never raised itself."""

    exit_code = 2


class PreconditionError(QforgeError):
    """Malformed input or a violated precondition of an operation."""


class SearchExhaustedError(QforgeError):
    """A bounded search or enumeration ran out of its budget; never truncate silently."""

    exit_code = 3


class InternalInconsistencyError(QforgeError):
    """A theorem-guaranteed step failed: always a bug, surfaced loudly."""

    exit_code = 4
