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


class DirichletConstraintViolated(SimplexDiffError):
    """(1-S_a) b_a / kappa_a is not constant across components."""


class SingularNesting(SimplexDiffError):
    """A nested remainder appears as 0/0 at an interior evaluation point."""


class NotPositiveSemiDefinite(SimplexDiffError):
    """A diffusion matrix has a negative eigenvalue or diagonal entry beyond roundoff."""


class DegenerateState(SimplexDiffError):
    """Drift or diffusion evaluation failed at the input state."""


class EvaluationFailure(SimplexDiffError):
    """Drift/diffusion raised while being audited on a boundary face."""


class EnsembleTooSmall(SimplexDiffError):
    """Moment estimation needs at least two particles."""


class InsufficientSnapshots(SimplexDiffError):
    """Rate cross-validation needs at least three recorded snapshots."""


class UnsupportedProcess(SimplexDiffError):
    """No analytic stationary moments are available for this process."""


class ConfigError(SimplexDiffError):
    """Run configuration failed to parse or validate."""
