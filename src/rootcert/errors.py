"""Exception hierarchy shared across the package.  The errors that
reject an argument as out of range are ValueErrors too."""


class RootCertError(Exception):
    """Base class for all errors raised by rootcert."""


class LeadingCoefficientZero(RootCertError, ValueError):
    """The leading coefficient of a polynomial is zero."""


class DegreeMismatch(RootCertError, ValueError):
    """A point is not a vector of at least 2 components, or not f.degree long."""


class NonDistinctComponents(RootCertError):
    """An approximation vector has two (exactly) equal components."""


class BadExponent(RootCertError, ValueError):
    """p-norm exponent outside [1, inf]."""


class OutsideDomain(RootCertError):
    """An Ehrlich denominator vanishes: x lies outside the iteration domain."""


class NotCertified(RootCertError):
    """A bound was requested without a valid certificate at that point."""


class UnsupportedCombination(RootCertError):
    """The requested (method, p) combination is not covered by the theory."""
