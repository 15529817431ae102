"""Gaussian location model on the abelian group (R^d, +).

The reference model for classical sanity checks: x ~ N(t, sigma^2 I)
with the translation t living on the unipotent embedding of R^d in
GL(d+1)+. H is trivial, so the coset space is the group itself, the
left and right FIMs coincide, and the sample mean is efficient.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from .. import groups
from ..groups import GroupElement
from ..homspace import LIVF, Side, build_reductive
from .base import GaussianModel


def _sample_trivial(rng: np.random.Generator, descriptor) -> GroupElement:
    return groups.identity_element(descriptor)


class GaussianMeanModel(GaussianModel):
    """x ~ N(t, sigma^2 I) for a translation parameter t in R^d."""

    invariant_fim = True
    # The group is abelian: Ad is the identity, so livf == rivf.
    terms_op = LIVF

    def __init__(self, dim: int = 1, noise: float = 1.0):
        if dim < 1:
            raise ValueError("dim must be >= 1")
        if noise <= 0:
            raise ValueError("noise must be positive")
        self.dim = dim
        self.noise = float(noise)
        self._set_noise(self.noise, (dim,))
        self.descriptor = groups.translation_group(dim)
        self.struct = build_reductive(
            self.descriptor,
            [],
            side=Side.G_MOD_H,
            subgroup_sampler=partial(_sample_trivial, descriptor=self.descriptor),
        )

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
