"""Shared exception types."""


class VerificationError(RuntimeError):
    """An exact identity that a construction guarantees failed to hold.

    reports holds the relation reports a build verified up to and including
    a failed relation check, and is empty for other failures."""

    def __init__(self, message, reports=()):
        super().__init__(message)
        self.reports = reports


class OracleError(VerificationError):
    """A conjugator record violated its contract: it is not a record of
    G's degree with one pair per Phi generator, or a pair does not
    multiply to the identity."""


class DimensionBoundError(VerificationError):
    """Orbit closure exceeded the proven dimension bound."""
