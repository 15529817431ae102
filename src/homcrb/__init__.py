"""Fisher information and Cramer-Rao analysis on homogeneous spaces of
real matrix Lie groups, with generalized Fisher scoring for maximum
likelihood estimation and Monte-Carlo experiment harnesses."""

from . import crb, fisher, groups, homspace, models, scoring
from .exceptions import (
    ConfigError,
    CutLocusError,
    DegenerateFimError,
    DegenerateModelError,
    DivergenceError,
    DomainError,
    EvaluationError,
    HomCrbError,
    LiftFailureError,
    NotInAlgebraError,
    SubalgebraError,
)
from .groups import AlgebraVector, GroupDescriptor, GroupElement, PsiMatrix
from .homspace import CosetError, ReductiveStructure, Side

__version__ = "0.1.0"

__all__ = [
    "AlgebraVector",
    "ConfigError",
    "CosetError",
    "CutLocusError",
    "DegenerateFimError",
    "DegenerateModelError",
    "DivergenceError",
    "DomainError",
    "EvaluationError",
    "GroupDescriptor",
    "GroupElement",
    "HomCrbError",
    "LiftFailureError",
    "NotInAlgebraError",
    "PsiMatrix",
    "ReductiveStructure",
    "Side",
    "SubalgebraError",
    "__version__",
    "crb",
    "fisher",
    "groups",
    "homspace",
    "models",
    "scoring",
]
