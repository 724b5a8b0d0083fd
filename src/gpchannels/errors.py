"""Exception types shared across the package."""


class InvalidDistributionError(ValueError):
    """A probability vector has negative entries beyond slack or does not sum to 1."""


class UnsupportedDimensionError(ValueError):
    """The requested dimension has no supported basis construction."""


class NotCompletelyPositiveError(ValueError):
    """Channel eigenvalues violate the complete-positivity conditions."""
