"""Gaussian location model on the abelian group (R^d, +).

The reference model for classical sanity checks: x ~ N(t, sigma^2 I)
with the translation t living on the unipotent embedding of R^d in
GL(d+1)+. H is trivial, so the coset space is the group itself, the
left and right FIMs coincide, and the sample mean is efficient.
"""

from __future__ import annotations

import numpy as np

from .. import groups
from ..groups import GroupElement
from ..homspace import Side, build_reductive
from .base import GaussianModel


class GaussianMeanModel(GaussianModel):
    """x ~ N(t, sigma^2 I) for a translation parameter t in R^d."""

    invariant_fim = True

    def __init__(self, dim: int = 1, noise: float = 1.0):
        if dim < 1:
            raise ValueError("dim must be >= 1")
        if noise <= 0:
            raise ValueError("noise must be positive")
        self.dim = dim
        self.noise = float(noise)
        self._set_noise(self.noise, (dim,))
        self.descriptor = groups.translation_group(dim)
        self.struct = build_reductive(self.descriptor, [], side=Side.G_MOD_H)

    def translation(self, g: GroupElement) -> np.ndarray:
        return self._mean(g.matrix)

    def _mean(self, G) -> np.ndarray:
        return G[..., : self.dim, self.dim]

    def element(self, t) -> GroupElement:
        M = np.eye(self.dim + 1)
        M[: self.dim, self.dim] = np.asarray(t, dtype=float)
        return GroupElement(self.descriptor, M)

    def _terms(self, G, directions) -> np.ndarray:
        """The mean moves along X at its translation part: coordinates."""
        return directions

    def sample_mean_element(self, observations) -> GroupElement:
        return self.element(np.asarray(observations, dtype=float).mean(axis=0))
