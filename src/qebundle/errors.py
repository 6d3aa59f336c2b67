"""Exception types raised by the construction and verification pipeline.

Every non-positive alpha or beta_i is a PositivityError, whoever finds it.
"""


class QEError(Exception):
    """Base class for all package-specific errors."""


class NegativeDiscriminantError(QEError):
    """Endpoint quadratic (1/2)x^2 + 2(n+1)x - E has no real roots."""


class NonPositiveKappa0Error(QEError):
    """kappa0, the large root of the left-end quadratic, is not positive (or is NaN)."""


class PositivityError(QEError):
    """A profile violates alpha > 0 or beta_i > 0 where a metric needs it.

    Carries the first offender's ``s`` and ``value`` (NaN is not
    positive), and ``factor``: i for beta_i, None for alpha.
    """

    def __init__(self, message, *, s, value, factor):
        super().__init__(message)
        self.s = s
        self.value = value
        self.factor = factor


class NoSignChangeError(QEError):
    """The boundary defect never changes sign over the scanned bracket.

    ``scan_table`` holds (kappa0, defect) pairs so the caller can widen
    the bracket with full information; a NaN defect marks a positivity
    failure or an overflow.
    """

    def __init__(self, message, scan_table=None):
        super().__init__(message)
        self.scan_table = scan_table or []
