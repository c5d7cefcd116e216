"""Exception types shared across the package."""


class RigidkitError(Exception):
    """Base class for all errors raised by rigidkit."""


class SizeMismatch(RigidkitError):
    pass


class NotNilpotent(RigidkitError):
    pass


class NotInGroup(RigidkitError):
    pass


class UnknownRoot(RigidkitError):
    pass


class ParseError(RigidkitError):
    pass


class DegeneratePlane(RigidkitError):
    pass


class ShapeMismatch(RigidkitError):
    pass


class ZeroParameter(RigidkitError):
    pass


class OutOfRange(RigidkitError):
    pass


class NotOnSphere(RigidkitError):
    pass


class VariantUnsupported(RigidkitError):
    pass


class OppositeRoots(RigidkitError):
    pass


class DecompositionResidual(RigidkitError):
    """A commutator decomposition whose certificate residual exceeds the tolerance."""

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual


class UnknownSuite(RigidkitError):
    pass


class SideConditionViolated(RigidkitError):
    pass
