"""Shared statistical-model machinery.

A model couples a group descriptor and a reductive structure with a
sampling rule and a log-likelihood that is invariant along the fibers:
l(x|g) = l(x|gh) on G/H, l(x|g) = l(x|hg) on H\\G. Log-likelihoods are
unnormalized (additive constants in g are irrelevant everywhere).

Derivative operators are identified by the translation side: "livf"
differentiates t -> l(x | g exp(tX)), "rivf" t -> l(x | exp(tX) g).
Models implement their analytic formulas in one natural operator and
translate directions through Ad for the other, using
X^L_g = (Ad_g X)^R_g and X^R_g = (Ad_{g^-1} X)^L_g.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from .. import groups
from ..groups import GroupElement
from ..homspace import (
    LIVF,
    RIVF,
    ReductiveStructure,
    Side,
    natural_operator,
    translate_directions,
)

__all__ = [
    "LIVF",
    "RIVF",
    "ModelBase",
    "invariance_defect",
    "natural_operator",
    "translate_directions",
]


class ModelBase:
    """Default plumbing over the required per-model methods.

    Subclasses must set .descriptor and .struct and implement
    sample(g, m, rng), loglik_batch(x, g), and (optionally) the analytic
    methods analytic_gradient_batch / analytic_fim.
    """

    descriptor: groups.GroupDescriptor
    struct: ReductiveStructure
    # True when the reduced FIM is the same at every g, as for a group
    # acting transitively on the parameter space: fim_reduced then
    # computes it once per model.
    invariant_fim = False
    _reduced_fim = None

    @property
    def side(self) -> Side:
        return self.struct.side

    # -- observations ----------------------------------------------------

    def sample(self, g: GroupElement, m: int, rng: np.random.Generator):
        raise NotImplementedError

    def n_observations(self, observations) -> int:
        return len(observations)

    def loglik_batch(self, observations, g: GroupElement) -> np.ndarray:
        raise NotImplementedError

    def loglik(self, x, g: GroupElement) -> float:
        return float(self.loglik_batch(self._as_batch(x), g)[0])

    def _as_batch(self, x):
        return np.asarray(x, dtype=float)[None, ...]

    def summarize(self, observations):
        """Sufficient statistic for total likelihood/gradient; default is
        the raw observation array."""
        return observations

    def total_loglik(self, summary, g: GroupElement) -> float:
        return float(np.sum(self.loglik_batch(summary, g)))

    # -- analytic derivatives (optional) ----------------------------------

    def analytic_gradient_batch(
        self, observations, g: GroupElement, directions, op: str
    ) -> np.ndarray | None:
        return None

    def analytic_fim(self, g: GroupElement, directions, op: str) -> np.ndarray | None:
        return None

    # -- derived conveniences ---------------------------------------------

    def gradient_batch(
        self,
        observations,
        g: GroupElement,
        directions,
        op: str,
        fd_step: float | None = None,
    ) -> np.ndarray:
        """(n_obs, n_directions) derivative array; analytic if available,
        vectorized central differences otherwise."""
        out = self.analytic_gradient_batch(observations, g, directions, op)
        if out is not None:
            return out
        return self._fd_gradient_batch(observations, g, directions, op, fd_step)

    def _fd_gradient_batch(self, observations, g, directions, op, fd_step=None):
        h = fd_step or groups.default_step(g)
        loglik = partial(self.loglik_batch, observations)
        return np.column_stack(
            [groups.central_difference(loglik, g, d, h, op) for d in directions]
        )

    def total_grad_m(self, summary, g: GroupElement) -> np.ndarray:
        """Sum over observations of the m-basis gradient (natural operator
        of the model's side). Subclasses override with sufficient-statistic
        fast paths."""
        grads = self.gradient_batch(
            summary, g, self.struct.m_basis, natural_operator(self.side)
        )
        return grads.sum(axis=0)

    def fim_reduced(self, g: GroupElement) -> np.ndarray | None:
        """Single-observation reduced FIM over the m-basis, if analytic.
        With invariant_fim, the first result is kept and the same
        read-only array is returned at every g."""
        if self._reduced_fim is not None:
            return self._reduced_fim
        F = self.analytic_fim(g, self.struct.m_basis, natural_operator(self.side))
        if self.invariant_fim and F is not None:
            F = self._reduced_fim = groups._frozen(F)
        return F


def invariance_defect(
    model: ModelBase,
    g: GroupElement,
    n_samples: int,
    rng: np.random.Generator,
) -> float:
    """max |l(x|g) - l(x|hg or gh)| over sampled x and h in H."""
    if model.struct.subgroup_sampler is None:
        raise ValueError("model structure has no subgroup sampler")
    worst = 0.0
    for _ in range(n_samples):
        x = model.sample(g, 1, rng)
        h = model.struct.subgroup_sampler(rng)
        moved = (g @ h) if model.side == Side.G_MOD_H else (h @ g)
        worst = max(
            worst,
            float(
                np.abs(
                    model.loglik_batch(x, g) - model.loglik_batch(x, moved)
                ).max()
            ),
        )
    return worst
