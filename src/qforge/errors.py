"""Exception hierarchy.

Exit codes follow the CLI contract: 2 for violated preconditions or bad
input, 3 for exhausted bounded searches, 4 for internal inconsistencies
(a step that is guaranteed to succeed failed, i.e. a bug).
"""


class QforgeError(Exception):
    exit_code = 2


class PreconditionError(QforgeError):
    """Operation precondition violated."""


class DegenerateLatticeError(QforgeError):
    """Gram determinant is zero where a non-degenerate form is required."""


class DimensionMismatchError(QforgeError):
    pass


class BudgetExceededError(QforgeError):
    """An enumeration would exceed its configured budget; never truncate silently."""

    exit_code = 3


class InvalidPrimeError(QforgeError):
    pass


class ZeroArgumentError(QforgeError):
    pass


class RankMismatchError(QforgeError):
    pass


class NotMonicError(QforgeError):
    pass


class InconsistentTargetsError(QforgeError):
    """Prescribed Hilbert symbols violate a local obstruction or the product formula."""


class SearchExhaustedError(QforgeError):
    exit_code = 3


class NotFoundWithinBoundError(QforgeError):
    exit_code = 3


class IsotropicFormError(QforgeError):
    """Binary form represents zero, so it has no Pell automorph."""


class NotBinaryError(QforgeError):
    pass


class BadInputError(QforgeError):
    pass


class DegenerateDirectionError(QforgeError):
    """Transvection direction gives a too-small Jordan cell; retry with another vector."""


class NotIsometryError(QforgeError):
    pass


class WrongSignatureError(QforgeError):
    pass


class UnsupportedLatticeError(QforgeError):
    pass


class AntiIsometryNotFoundError(QforgeError):
    exit_code = 3


class InternalInconsistencyError(QforgeError):
    """A theorem-guaranteed step failed: always a bug, surfaced loudly."""

    exit_code = 4
