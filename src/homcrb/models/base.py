"""Shared statistical-model machinery.

A model couples a group descriptor and a reductive structure with a
sampling rule and a log-likelihood that is invariant along the fibers:
l(x|g) = l(x|gh) on G/H, l(x|g) = l(x|hg) on H\\G. Log-likelihoods are
unnormalized (additive constants in g are irrelevant everywhere).

Derivative operators are identified by the translation side: "livf"
differentiates t -> l(x | g exp(tX)), "rivf" t -> l(x | exp(tX) g).
Models state their analytic score and FIM once, along directions of the
natural operator of their side (LIVFs on G/H, RIVFs on H\\G); fisher
translates the directions of the other operator through Ad.

Scoring runs many trials at once and calls the model once per iterate:
evaluate(summary, G, with_fim) returns the log-likelihood, the m-gradient
and, when the step rule reads it, the reduced FIM, from one pass over the
terms they share. It takes a stack of raw (B, d, d) iterate matrices and
a stack of per-trial summaries (stack_summaries), one row per trial.
total_loglik and total_grad_m are its first two parts, and fim_reduced
gives its third bit for bit.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from .. import groups
from ..exceptions import DomainError
from ..groups import GroupElement
from ..homspace import ReductiveStructure, Side, act, natural_operator

__all__ = [
    "GaussianModel",
    "ModelBase",
    "invariance_defect",
    "stack_summaries",
    "whitened_gram",
]


def stack_summaries(summaries) -> tuple:
    """One stacked summary from per-trial model summaries: each part gains
    a leading trial axis. The first part is the observation counts."""
    return tuple(np.array(parts) for parts in zip(*summaries))


class ModelBase:
    """Shared plumbing of a model given by its analytic formulas.

    Subclasses set .descriptor and .struct and implement sample(g, m,
    rng); summarize(x), a sufficient statistic led by the observation
    count; loglik_batch(x, g); evaluate(summary, G, with_fim) over a
    stack; and, along directions of the natural operator only,
    analytic_gradient_batch(x, g, directions) and natural_fim(G,
    directions).
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

    def evaluate(self, summary, G, with_fim: bool = True):
        """(total_loglik, total_grad_m, fim_reduced) at each matrix of a
        (B, d, d) stack, bit for bit, from one pass over the terms they
        share; the FIM is None unless with_fim. Scoring's one model call
        per iterate."""
        raise NotImplementedError

    def total_loglik(self, summary, G) -> np.ndarray:
        """(B,) log-likelihood of each trial's observations at its matrix."""
        return self.evaluate(summary, G, with_fim=False)[0]

    def total_grad_m(self, summary, G) -> np.ndarray:
        """(B, n) summed gradient of each trial's log-likelihood along the
        m-basis at its matrix."""
        return self.evaluate(summary, G, with_fim=False)[1]

    def natural_fim(self, G, directions) -> np.ndarray:
        """Single-observation FIM along directions of the natural operator
        at a raw matrix G, or at each matrix of a (B, d, d) stack, whose
        directions may then be (B, k, n_G), one set per matrix. A (k, k)
        array when it does not depend on the point, else (B, k, k)."""
        raise NotImplementedError

    def _fd_gradient_batch(self, observations, g, directions):
        """Central-difference reference for analytic_gradient_batch: one
        kernel call over every direction."""
        loglik = partial(self.loglik_batch, observations)
        h = groups.default_step(g)
        op = natural_operator(self.side)
        return groups.central_differences(loglik, g, directions, h, op, boxed=True).T

    def fim_reduced(self, G) -> np.ndarray:
        """Single-observation reduced FIM, natural_fim over the m-basis, at
        each matrix of a (B, d, d) stack. With invariant_fim it is one
        read-only (n, n) array for every row, computed once per model;
        otherwise a (B, n, n) stack."""
        if self._reduced_fim is not None:
            return self._reduced_fim
        F = self.natural_fim(G, self.struct.m_basis)
        if self.invariant_fim:
            self._reduced_fim = F = groups._frozen(F)
        return F


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
    (n_dirs, *shape) derivatives of the mean along directions of the
    natural operator of the model's side. Both take a
    raw matrix G or a (B, d, d) stack of them and then gain a leading
    stack axis; terms that do not depend on g may leave it out. _terms
    and _residual (x - mu by default) may both be taken through one
    orthogonal map per block, which changes neither score nor FIM. A
    model whose mean and m-terms share work computes both in one pass in
    _mean_and_m_terms(G).
    """

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

    def _residual(self, x, G, mu) -> np.ndarray:
        """x - mu, mu = _mean(G), for one observation or a batch at one
        matrix, or one row of x per matrix of a stack, in the frame of
        _terms."""
        return x - mu

    def _mean_and_m_terms(self, G) -> tuple[np.ndarray, np.ndarray]:
        return self._mean(G), self._terms(G, self.struct.m_basis)

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

    def evaluate(self, summary, G, with_fim: bool = True):
        m, xbar, sq = summary
        m = m[:, None]
        mu, terms = self._mean_and_m_terms(G)
        weights = self._weights()
        a = self._axes
        dot = f"z{a},z{a}->zb"
        per_block = sq - 2.0 * m * np.einsum(dot, xbar, mu) + m * np.einsum(dot, mu, mu)
        ll = -0.5 * np.sum(weights * per_block, axis=-1)
        resid = self._residual(xbar, G, mu)
        grad = m * np.einsum(f"...d{a},...{a},b->...d", terms, resid, weights)
        if not with_fim:
            return ll, grad, None
        return ll, grad, self.fim_reduced(G) if self.invariant_fim else self._gram(terms)

    def analytic_gradient_batch(self, observations, g, directions):
        terms = self._terms(g.matrix, directions)
        x = np.asarray(observations, dtype=float)
        resid = self._residual(x, g.matrix, self._mean(g.matrix))
        a = self._axes
        return np.einsum(f"d{a},m{a},b->md", terms, resid, self._weights())

    def natural_fim(self, G, directions):
        return self._gram(self._terms(G, directions))

    def _gram(self, terms) -> np.ndarray:
        self._weights()  # raises for a zero-noise model
        return whitened_gram(terms, self._sigma)


def invariance_defect(
    model: ModelBase,
    g: GroupElement,
    n_samples: int,
    rng: np.random.Generator,
) -> float:
    """max over i of |l(x_i|g) - l(x_i|h_i g or g h_i)|, for one sampled
    batch of n_samples observations x_i and one stack of n_samples draws
    h_i from H: one total_loglik call on 2 n_samples rows, each summarizing
    one observation, row i at g and row n_samples + i at the moved point."""
    n_samples = groups._count(n_samples, "n_samples")
    x = model.sample(g, n_samples, rng)
    alone = [model.summarize(x[i : i + 1]) for i in range(n_samples)]
    H = model.struct.sample_subgroup(rng, n_samples)
    G = np.concatenate([np.broadcast_to(g.matrix, H.shape), act(g.matrix, H, model.side)])
    ll = model.total_loglik(stack_summaries(alone * 2), G)
    return float(np.abs(ll[n_samples:] - ll[:n_samples]).max())
