"""Exception types shared across the library."""


class LmgError(Exception):
    """Base class for all library errors."""


class NotIntegerSpin(LmgError):
    """Operation requires integer total spin J (even particle number)."""


class OverflowRisk(LmgError):
    """A result or an intermediate would leave the float64 range."""


class NotSymmetric(LmgError):
    """Dense eigensolver input is not symmetric within tolerance."""


class DimensionMismatch(LmgError):
    """Operands have incompatible dimensions."""


class DimensionTooLarge(LmgError):
    """Characteristic-polynomial routine called beyond its conditioning guard."""


class EmptySpectrum(LmgError):
    """Spectrum classification called with no eigenvalues."""


class MethodUnavailable(LmgError):
    """Requested eigenvalue method is not applicable at this problem size."""


class NonFiniteInput(LmgError):
    """A model parameter is NaN or infinite."""


class NotConverged(LmgError):
    """An iterative solver reached its step cap before its stopping test held."""
