"""Exception hierarchy shared across the toolkit."""


class GridSynthError(Exception):
    """Base class for all toolkit errors."""


class OutOfBounds(GridSynthError):
    """A non-periodic coordinate lies outside the grid bounds."""


class NonAxisAligned(GridSynthError):
    """Four vertices do not form an axis-aligned rectangle."""


class NegativeSide(GridSynthError):
    """A center/sides rectangle encoding has a negative side length."""


class EmptyInputSet(GridSynthError):
    """No input lattice point falls inside the input bounds."""


class EmptyTarget(GridSynthError):
    """A target stage contains no fully covered grid cell."""


class NonFinite(GridSynthError):
    """Numerical integration produced a non-finite value."""


class SchemaError(GridSynthError):
    """A problem-spec document violates the schema.

    Carries the offending field path for agent feedback.
    """

    def __init__(self, message, path=""):
        self.path = path
        super().__init__(f"{path}: {message}" if path else message)


class GeometryError(GridSynthError):
    """Spec geometry is inconsistent (out of bounds, inverted, ...)."""


class OutsideWinningSet(GridSynthError):
    """The controller is undefined at the queried state (fail-safe)."""


class ClientError(GridSynthError):
    """LLM client transport failure or exhausted mock script."""

    def __init__(self, message, transcript=None):
        self.transcript = transcript
        super().__init__(message)


class UnsupportedDimension(GridSynthError):
    """Rendering requires at least two state dimensions."""
