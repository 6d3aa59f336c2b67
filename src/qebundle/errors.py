"""Exception types raised by the construction and verification pipeline."""


class QEError(Exception):
    """Base class for all package-specific errors."""


class NegativeDiscriminantError(QEError):
    """Endpoint quadratic (1/2)x^2 + 2(n+1)x - E has no real roots."""


class NonPositiveKappa0Error(QEError):
    """The large root of the left-end quadratic is not positive."""


class SingularVError(QEError):
    """Some beta_i <= 0 at an evaluation point where V > 0 is required."""


class PositivityError(QEError):
    """A profile violates beta_i > 0 or alpha > 0 on the interior.

    Carries the first offending location when available.
    """

    def __init__(self, message, s=None, factor=None):
        super().__init__(message)
        self.s = s
        self.factor = factor


class NonPositiveAlphaError(QEError):
    """alpha <= 0 at an interior node during t-reconstruction."""


class NoSignChangeError(QEError):
    """The boundary defect never changes sign over the scanned bracket.

    ``scan_table`` holds (kappa0, defect) pairs so the caller can widen
    the bracket with full information; NaN defects mark positivity
    failures, or a left root that is not positive, at that kappa0.
    """

    def __init__(self, message, scan_table=None):
        super().__init__(message)
        self.scan_table = scan_table or []
