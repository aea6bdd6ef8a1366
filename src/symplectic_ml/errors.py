"""Exception types shared across the package."""


class SymplecticMlError(Exception):
    """Base class for every error raised by this package."""


class ShapeMismatch(SymplecticMlError):
    """An array argument has the wrong shape for the requested operation."""


class BadFactor(SymplecticMlError):
    """A sampling stride is not a positive divisor of the step count."""


class IntegrationDiverged(SymplecticMlError):
    """A trajectory left the bounded regime or produced non-finite values."""

    def __init__(self, message, step=None):
        super().__init__(message)
        self.step = step


class EmptyBatch(SymplecticMlError):
    """A loss or update was requested over zero samples."""


class WindowLengthMismatch(SymplecticMlError):
    """A rollout window does not match the expected length."""


class TooShort(SymplecticMlError):
    """No trajectory is long enough to cut a single window."""


class EmptyDataset(SymplecticMlError):
    """A dataset operation was requested on zero trajectories."""


class DivergedTraining(SymplecticMlError):
    """Training produced a non-finite validation loss."""


class RejectionExhausted(SymplecticMlError):
    """Initial-condition sampling hit its attempt limit, or was asked for an
    energy whose momentum would overflow float64."""


class FormatVersionMismatch(SymplecticMlError):
    """A stored file declares an unsupported format version."""


class CorruptRecord(SymplecticMlError):
    """A stored file fails checksum or structural validation."""


class LengthMismatch(SymplecticMlError):
    """Two sequences that must be aligned have different lengths."""


class ZeroEnergy(SymplecticMlError):
    """A relative energy error was requested against a zero true energy."""


class DegenerateR(SymplecticMlError):
    """QR re-orthonormalisation produced a non-positive diagonal entry."""
