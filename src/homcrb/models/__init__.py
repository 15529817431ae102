"""Concrete statistical models over matrix Lie groups."""

from .base import ModelBase, invariance_defect
from .gaussian import GaussianMeanModel
from .landmark import LandmarkModel, se3_element
from .network import (
    NetworkModel,
    canonicalize_positions,
    load_graph,
    network_dimensions,
    network_fim,
    rigidity_matrix,
)
from .spd import SpdModel, spd_grad

__all__ = [
    "GaussianMeanModel",
    "LandmarkModel",
    "ModelBase",
    "NetworkModel",
    "SpdModel",
    "canonicalize_positions",
    "invariance_defect",
    "load_graph",
    "network_dimensions",
    "network_fim",
    "rigidity_matrix",
    "se3_element",
    "spd_grad",
]
