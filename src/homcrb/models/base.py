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

Scoring runs many trials at once, so the methods it reads (total_loglik,
total_grad_m, fim_reduced) take a stack of raw (B, d, d) iterate matrices
and a stack of per-trial summaries (scoring.stack_summaries), one row per
trial.
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
    """Shared plumbing of a model given by its analytic formulas.

    Subclasses set .descriptor and .struct and implement sample(g, m,
    rng); summarize(x), a sufficient statistic led by the observation
    count; loglik_batch(x, g); total_loglik(summary, G) and
    total_grad_m(summary, G) over a stack; analytic_gradient_batch(x, g,
    directions, op); natural_fim(G, directions); and, unless
    invariant_fim is set, _fim_stack(G), the reduced FIM at each matrix
    of a (B, d, d) stack.
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

    def sample(self, g: GroupElement, m: int, rng: np.random.Generator):
        raise NotImplementedError

    def loglik_batch(self, observations, g: GroupElement) -> np.ndarray:
        raise NotImplementedError

    def loglik(self, x, g: GroupElement) -> float:
        return float(self.loglik_batch(self._as_batch(x), g)[0])

    def _as_batch(self, x):
        return np.asarray(x, dtype=float)[None, ...]

    def natural_fim(self, G, directions) -> np.ndarray:
        """Single-observation FIM along directions of the natural operator
        at a raw matrix G, or at each matrix of a (B, d, d) stack, whose
        directions may then be (B, k, n_G), one set per matrix. A (k, k)
        array when it does not depend on the point, else (B, k, k)."""
        raise NotImplementedError

    def analytic_fim(self, g: GroupElement, directions, op) -> np.ndarray:
        """Single-observation FIM along op directions at g: natural_fim of
        the directions translated to the natural operator."""
        nat = natural_operator(self.side)
        return self.natural_fim(g.matrix, translate_directions(directions, g, nat, op))

    def _fd_gradient_batch(self, observations, g, directions, op):
        """Central-difference reference for analytic_gradient_batch: one
        kernel call over every direction."""
        loglik = partial(self.loglik_batch, observations)
        h = groups.default_step(g)
        return groups.central_differences(loglik, g, directions, h, op, boxed=True).T

    def fim_reduced(self, G) -> np.ndarray:
        """Single-observation reduced FIM over the m-basis at each matrix
        of a (B, d, d) stack. With invariant_fim it is one read-only
        (n, n) array for every row, computed once per model; otherwise a
        (B, n, n) stack."""
        if self._reduced_fim is not None:
            return self._reduced_fim
        if not self.invariant_fim:
            return self._fim_stack(G)
        F = self.analytic_fim(
            GroupElement(self.descriptor, G[0]), self.struct.m_basis, natural_operator(self.side)
        )
        self._reduced_fim = groups._frozen(F)
        return self._reduced_fim


def whitened_gram(terms, sigma) -> np.ndarray:
    """Gram matrix sum_b t_b t_b' / sigma_b^2 of direction terms t
    (..., n_dirs, n_blocks, ...), with sigma shaped to broadcast over one
    direction's terms: the single-observation FIM of Gaussian blocks, one
    per leading stack index."""
    A = terms / sigma
    A = A.reshape(A.shape[: A.ndim - np.ndim(sigma)] + (-1,))
    return A @ np.swapaxes(A, -1, -2)


class GaussianModel(ModelBase):
    """Additive Gaussian measurements x_b ~ N(mu_b(g), sigma_b^2 I).

    The first axis of an observation indexes its blocks b (landmarks,
    edges, coordinates), each with its own sigma_b. Along a direction X
    the score is sum_b <x_b - mu_b, X mu_b> / sigma_b^2 and the FIM is
    the Gram matrix of the sigma-whitened derivatives X mu_b (for range
    measurements, the classical form of Patwari et al., IEEE SPM 2005).

    Subclasses set .descriptor and .struct, call _set_noise, and write
    _mean(G), the noise-free observation, and _terms(G, directions), the
    (n_dirs, *shape) derivatives of the mean along terms_op directions,
    which must be the natural operator of the model's side. Both take a
    raw matrix G or a (B, d, d) stack of them and then gain a leading
    stack axis; terms that do not depend on g may leave it out. _terms
    and _residual (x - mu by default) may both be taken through one
    orthogonal map per block, which changes neither score nor FIM.
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

    def _mean(self, G) -> np.ndarray:
        raise NotImplementedError

    def _terms(self, G, directions) -> np.ndarray:
        raise NotImplementedError

    def _residual(self, x, G) -> np.ndarray:
        """x - mu(G), for one observation or a batch at one matrix, or one
        row of x per matrix of a stack, in the frame of _terms."""
        return x - self._mean(G)

    def _m_terms(self, G) -> np.ndarray:
        return self._terms(G, self.struct.m_basis)

    def sample(self, g: GroupElement, m: int, rng: np.random.Generator):
        mu = self._mean(g.matrix)
        return mu[None] + self._sigma * rng.standard_normal((m,) + mu.shape)

    def loglik_batch(self, observations, g: GroupElement) -> np.ndarray:
        x = np.asarray(observations, dtype=float)
        mu = self._mean(g.matrix)
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

    def total_loglik(self, summary, G) -> np.ndarray:
        m, xbar, sq = summary
        m = m[:, None]
        mu = self._mean(G)
        dot = f"z{self._axes},z{self._axes}->zb"
        per_block = sq - 2.0 * m * np.einsum(dot, xbar, mu) + m * np.einsum(dot, mu, mu)
        return -0.5 * np.sum(self._weights() * per_block, axis=-1)

    def analytic_gradient_batch(self, observations, g, directions, op):
        terms = self._terms(g.matrix, translate_directions(directions, g, self.terms_op, op))
        resid = self._residual(np.asarray(observations, dtype=float), g.matrix)
        a = self._axes
        return np.einsum(f"d{a},m{a},b->md", terms, resid, self._weights())

    def natural_fim(self, G, directions):
        self._weights()  # raises for a zero-noise model
        return whitened_gram(self._terms(G, directions), self._sigma)

    def _fim_stack(self, G) -> np.ndarray:
        self._weights()  # raises for a zero-noise model
        return whitened_gram(self._m_terms(G), self._sigma)

    def total_grad_m(self, summary, G) -> np.ndarray:
        m, xbar, _ = summary
        resid = self._residual(xbar, G)
        a = self._axes
        grad = np.einsum(f"...d{a},...{a},b->...d", self._m_terms(G), resid, self._weights())
        return m[:, None] * grad


def invariance_defect(
    model: ModelBase,
    g: GroupElement,
    n_samples: int,
    rng: np.random.Generator,
) -> float:
    """max |l(x|g) - l(x|hg or gh)| over sampled x and h in H."""
    if model.struct.subgroup_sampler is None:
        raise ValueError("model structure has no subgroup sampler")
    if n_samples < 1:
        raise ValueError("the invariance check needs n_samples >= 1")
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
