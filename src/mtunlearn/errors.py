"""Exception hierarchy shared across the library."""


class MtUnlearnError(Exception):
    """Base class for all library errors."""


class DimensionError(MtUnlearnError):
    """Operand shapes are incompatible."""


class DegenerateBasisError(MtUnlearnError):
    """A matrix expected to have full column rank does not."""


class CurvatureError(MtUnlearnError):
    """A matrix expected to be symmetric positive definite is not."""


class EmptySubsetError(MtUnlearnError):
    """An operation received an empty collection of supervision pairs."""


class NonFiniteError(MtUnlearnError):
    """A value that must be finite is NaN or infinite."""


class StepSizeError(MtUnlearnError):
    """Training or unlearning diverged (loss became infinite or NaN)."""


class CapacityError(MtUnlearnError):
    """Requested subspace layout does not fit in the available rank."""


class SizeGuardError(MtUnlearnError):
    """A dense computation was requested above its size guard."""


class ConfigError(MtUnlearnError):
    """Invalid or incomplete configuration."""
