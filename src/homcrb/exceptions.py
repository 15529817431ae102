"""Exception types shared across the package.

The CLI maps these onto exit codes: ConfigError -> 2,
DegenerateModelError/DegenerateFimError -> 3, numerical failures
(CutLocusError, DivergenceError, DomainError, EvaluationError,
LiftFailureError, NotInAlgebraError) -> 4.
"""


class HomCrbError(Exception):
    """Base class for all package errors."""


class ConfigError(HomCrbError):
    """Invalid experiment configuration."""


class NotInAlgebraError(HomCrbError):
    """Matrix does not lie in the span of the algebra basis."""


class CutLocusError(HomCrbError):
    """Log map evaluated at or too close to the cut locus."""


class DomainError(HomCrbError):
    """Input outside the domain of the requested map."""


class BasisClosureError(HomCrbError):
    """Conjugation or bracket left the span of the algebra basis."""


class SubalgebraError(HomCrbError):
    """Claimed subalgebra is not closed under the Lie bracket."""


class DegenerateSeedError(HomCrbError):
    """Seed vectors cannot complete the basis (dependent on h)."""


class LiftFailureError(HomCrbError):
    """Horizontal-lift fixed point iteration did not converge."""

    def __init__(self, message, iterations=None, residual=None):
        super().__init__(message)
        self.iterations = iterations
        self.residual = residual


class DegenerateModelError(HomCrbError):
    """Singular or near-singular FIM; carries diagnostics."""

    def __init__(self, message, condition_number=None, rank_gap=None):
        super().__init__(message)
        self.condition_number = condition_number
        self.rank_gap = rank_gap


class DegenerateFimError(DegenerateModelError):
    """Singular FIM encountered at a scoring iterate."""


class DivergenceError(HomCrbError):
    """Optimization diverged; carries the trace up to failure."""

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace


class EvaluationError(HomCrbError):
    """A user-supplied function returned a non-finite value."""
