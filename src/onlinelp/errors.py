"""Exception types shared across the package."""

__all__ = [
    "OnlineLpError",
    "DimensionMismatch",
    "BadSpec",
    "ParseError",
    "DegenerateWindow",
    "StreamExhausted",
    "NonpositiveReward",
    "AllZeroBids",
    "InternalError",
    "CycleLimitExceeded",
]


class OnlineLpError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatch(OnlineLpError):
    """Array shapes disagree with the declared dimensions."""


class BadSpec(OnlineLpError):
    """A generator specification is invalid or incomplete."""


class ParseError(OnlineLpError):
    """An instance file is not valid JSON or violates the schema."""


class DegenerateWindow(OnlineLpError):
    """The learning window is empty or leaves no decisions to make."""


class StreamExhausted(OnlineLpError):
    """step() was called after all n arrivals were already processed."""


class NonpositiveReward(OnlineLpError):
    """An operation requires strictly positive rewards."""


class AllZeroBids(OnlineLpError):
    """Every bid in an adwords table is zero."""


class InternalError(OnlineLpError):
    """The solver reached a state that should be impossible on valid input."""


class CycleLimitExceeded(InternalError):
    """The simplex pivot cap was hit before reaching optimality."""
