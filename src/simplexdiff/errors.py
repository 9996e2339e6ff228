"""Exception hierarchy for simplexdiff."""


class SimplexDiffError(Exception):
    """Base class for all library errors."""


class NegativeComponent(SimplexDiffError):
    """A state component is below zero beyond tolerance."""


class SumViolation(SimplexDiffError):
    """Components do not satisfy the unit-sum requirement."""


class InvalidParameter(SimplexDiffError, ValueError):
    """An input breaks its number, count, flag or shape rule; field names it."""

    def __init__(self, field, message):
        self.field = field
        super().__init__(f"{field}: {message}")


class SingularNesting(SimplexDiffError):
    """A nested remainder appears as 0/0 at an interior evaluation point."""


class DegenerateState(SimplexDiffError):
    """Drift or diffusion failed at a state: raised, non-finite or not PSD."""


class InsufficientSnapshots(SimplexDiffError):
    """Rate cross-validation needs an interior snapshot with even spacing."""


class UnsupportedProcess(SimplexDiffError):
    """No analytic stationary moments are available for this process."""


class ConfigError(SimplexDiffError):
    """Run configuration failed to parse or validate."""
