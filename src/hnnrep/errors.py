"""Shared exception types."""


class VerificationError(RuntimeError):
    """An exact identity that a construction guarantees failed to hold.

    reports holds the relation reports a build verified up to and including
    a failed relation check, and is empty for other failures."""

    def __init__(self, message, reports=()):
        super().__init__(message)
        self.reports = reports


class OracleError(VerificationError):
    """A conjugator oracle violated its contract on sampled inputs."""


class DimensionBoundError(VerificationError):
    """Orbit closure exceeded the proven dimension bound."""
