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
from ..exceptions import DomainError
from ..groups import GroupElement
from ..homspace import (
    LIVF,
    RIVF,
    ReductiveStructure,
    Side,
    act,
    natural_operator,
    translate_directions,
)

__all__ = [
    "LIVF",
    "RIVF",
    "GaussianModel",
    "ModelBase",
    "invariance_defect",
    "natural_operator",
    "translate_directions",
    "whitened_gram",
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
        self, observations, g: GroupElement, directions, op: str
    ) -> np.ndarray:
        """(n_obs, n_directions) derivative array; analytic if available,
        vectorized central differences otherwise."""
        out = self.analytic_gradient_batch(observations, g, directions, op)
        if out is not None:
            return out
        return self._fd_gradient_batch(observations, g, directions, op)

    def _fd_gradient_batch(self, observations, g, directions, op):
        h = groups.default_step(g)
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


def whitened_gram(terms, sigma) -> np.ndarray:
    """Gram matrix sum_b t_b t_b' / sigma_b^2 of direction terms t
    (n_dirs, n_blocks, ...), with sigma shaped to broadcast over one
    direction's terms: the single-observation FIM of Gaussian blocks."""
    A = (terms / sigma).reshape(len(terms), -1)
    return A @ A.T


class GaussianModel(ModelBase):
    """Additive Gaussian measurements x_b ~ N(mu_b(g), sigma_b^2 I).

    The first axis of an observation indexes its blocks b (landmarks,
    edges, coordinates), each with its own sigma_b. Along a direction X
    the score is sum_b <x_b - mu_b, X mu_b> / sigma_b^2 and the FIM is
    the Gram matrix of the sigma-whitened derivatives X mu_b (for range
    measurements, the classical form of Patwari et al., IEEE SPM 2005).

    Subclasses set .descriptor and .struct, call _set_noise, and write
    _mean(g), the noise-free observation, and _terms(g, directions), the
    (n_dirs, *shape) derivatives of the mean along terms_op directions.
    _terms and _residual (x - mu by default) may both be taken through
    one orthogonal map per block, which changes neither score nor FIM.
    """

    terms_op = RIVF

    def _set_noise(self, sigma, shape) -> np.ndarray:
        """Per-block sigma for observations of the given shape, read-only;
        1/sigma^2 once (None when some sigma is 0: no density); and the
        einsum subscripts of one observation's axes. Returns the
        (n_blocks,) sigmas. Raises ValueError on a non-finite sigma."""
        flat = groups._frozen(
            np.broadcast_to(np.asarray(sigma, dtype=float), shape[:1]).copy()
        )
        if not np.isfinite(flat).all():
            raise ValueError("noise standard deviations must be finite")
        self._sigma = flat.reshape(shape[:1] + (1,) * (len(shape) - 1))
        self._inv_var = None if np.any(flat == 0) else groups._frozen(1.0 / flat**2)
        self._axes = "b" + "jkl"[: len(shape) - 1]
        return flat

    def _weights(self) -> np.ndarray:
        """1/sigma^2 per block; a zero-noise model has no density and no FIM."""
        if self._inv_var is None:
            raise DomainError("zero-noise model has no likelihood density")
        return self._inv_var

    def _mean(self, g: GroupElement) -> np.ndarray:
        raise NotImplementedError

    def _terms(self, g: GroupElement, directions) -> np.ndarray:
        raise NotImplementedError

    def _residual(self, x, g: GroupElement) -> np.ndarray:
        """x - mu(g), for one observation or a batch, in the frame of _terms."""
        return x - self._mean(g)

    def _m_terms(self, g: GroupElement) -> np.ndarray:
        return self._terms(g, self.struct.m_basis)

    def sample(self, g: GroupElement, m: int, rng: np.random.Generator):
        mu = self._mean(g)
        return mu[None] + self._sigma * rng.standard_normal((m,) + mu.shape)

    def loglik_batch(self, observations, g: GroupElement) -> np.ndarray:
        x = np.asarray(observations, dtype=float)
        mu = self._mean(g)
        if x.shape[1:] != mu.shape:
            raise ValueError(f"observations must be (n, *{mu.shape})")
        resid = x - mu
        a = self._axes
        return -0.5 * np.einsum(f"m{a},m{a},b->m", resid, resid, self._weights())

    def summarize(self, observations):
        """(m, mean observation, per-block sum of squares)."""
        x = np.asarray(observations, dtype=float)
        a = self._axes
        return x.shape[0], x.mean(axis=0), np.einsum(f"m{a},m{a}->b", x, x)

    def total_loglik(self, summary, g: GroupElement) -> float:
        m, xbar, sq = summary
        mu = self._mean(g)
        dot = f"{self._axes},{self._axes}->b"
        per_block = sq - 2.0 * m * np.einsum(dot, xbar, mu) + m * np.einsum(dot, mu, mu)
        return float(-0.5 * np.sum(self._weights() * per_block))

    def analytic_gradient_batch(self, observations, g, directions, op):
        terms = self._terms(g, translate_directions(directions, g, self.terms_op, op))
        resid = self._residual(np.asarray(observations, dtype=float), g)
        a = self._axes
        return np.einsum(f"d{a},m{a},b->md", terms, resid, self._weights())

    def analytic_fim(self, g, directions, op):
        self._weights()  # raises for a zero-noise model
        terms = self._terms(g, translate_directions(directions, g, self.terms_op, op))
        return whitened_gram(terms, self._sigma)

    def total_grad_m(self, summary, g: GroupElement) -> np.ndarray:
        m, xbar, _ = summary
        resid = self._residual(xbar, g)
        a = self._axes
        return m * np.einsum(f"d{a},{a},b->d", self._m_terms(g), resid, self._weights())


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
        moved = act(g, h, model.side)
        worst = max(
            worst,
            float(
                np.abs(
                    model.loglik_batch(x, g) - model.loglik_batch(x, moved)
                ).max()
            ),
        )
    return worst
