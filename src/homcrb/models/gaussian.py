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
from ..homspace import Side, build_reductive
from .base import ModelBase


def _sample_trivial(rng: np.random.Generator, descriptor) -> GroupElement:
    return groups.identity_element(descriptor)


class GaussianMeanModel(ModelBase):
    """x ~ N(t, sigma^2 I) for a translation parameter t in R^d."""

    invariant_fim = True

    def __init__(self, dim: int = 1, noise: float = 1.0):
        if dim < 1:
            raise ValueError("dim must be >= 1")
        if noise <= 0:
            raise ValueError("noise must be positive")
        self.dim = dim
        self.noise = float(noise)
        self.descriptor = groups.translation_group(dim)
        self.struct = build_reductive(
            self.descriptor,
            [],
            side=Side.G_MOD_H,
            subgroup_sampler=partial(_sample_trivial, descriptor=self.descriptor),
        )

    def translation(self, g: GroupElement) -> np.ndarray:
        return g.matrix[: self.dim, self.dim]

    def element(self, t) -> GroupElement:
        M = np.eye(self.dim + 1)
        M[: self.dim, self.dim] = np.asarray(t, dtype=float)
        return GroupElement(self.descriptor, M)

    def sample(self, g: GroupElement, m: int, rng: np.random.Generator):
        return self.translation(g)[None, :] + self.noise * rng.standard_normal(
            (m, self.dim)
        )

    def loglik_batch(self, observations, g: GroupElement) -> np.ndarray:
        x = np.asarray(observations, dtype=float)
        resid = x - self.translation(g)[None, :]
        return -0.5 * np.einsum("mi,mi->m", resid, resid) / self.noise**2

    def summarize(self, observations):
        x = np.asarray(observations, dtype=float)
        return x.shape[0], x.mean(axis=0), float(np.einsum("mi,mi->", x, x))

    def total_loglik(self, summary, g: GroupElement) -> float:
        m, xbar, sq = summary
        t = self.translation(g)
        return float(
            -0.5 * (sq - 2.0 * m * xbar @ t + m * t @ t) / self.noise**2
        )

    # The group is abelian: Ad is the identity, so livf == rivf and the
    # op argument is irrelevant.
    def analytic_gradient_batch(self, observations, g, directions, op):
        x = np.asarray(observations, dtype=float)
        resid = x - self.translation(g)[None, :]
        V = np.stack([d.coords for d in directions])
        return resid @ V.T / self.noise**2

    def analytic_fim(self, g, directions, op):
        V = np.stack([d.coords for d in directions])
        return V @ V.T / self.noise**2

    def total_grad_m(self, summary, g: GroupElement) -> np.ndarray:
        m, xbar, _ = summary
        resid = xbar - self.translation(g)
        V = np.stack([d.coords for d in self.struct.m_basis])
        return m * (V @ resid) / self.noise**2

    def sample_mean_element(self, observations) -> GroupElement:
        return self.element(np.asarray(observations, dtype=float).mean(axis=0))
