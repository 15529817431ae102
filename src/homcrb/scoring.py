"""Generalized Fisher scoring on coset spaces, plus a plain gradient
ascent baseline. Both run one ascent loop and differ only in the step
rule.

The scoring step preconditions the summed m-gradient with the inverse
reduced FIM and retracts through the group exponential:

    g <- g exp((Pi' Fbar^-1 grad / m)^)   on G/H,
    g <- exp((Pi' Fbar^-1 grad / m)^) g   on H\\G.

The h-components of every step are zero by construction, so iterates
never move along the fiber. Convergence is declared on the natural-
gradient step norm, which is invariant to basis rescaling.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import crb, fisher, groups
from .exceptions import DegenerateFimError, DivergenceError
from .groups import GroupElement
from .homspace import act

ANALYTIC, MONTE_CARLO, FROZEN_AT_INITIAL = "analytic", "monte-carlo", "frozen-at-initial"
_FIM_MODES = (ANALYTIC, MONTE_CARLO, FROZEN_AT_INITIAL)
_DIVERGENCE_DROP = 1e3
_DRIFT_LIMIT = 1e-12


def as_integer(value, name: str) -> int:
    """value as an int. A bool, a non-number or a number with a fractional
    part raises ValueError instead of being truncated."""
    if isinstance(value, numbers.Integral) and not isinstance(value, bool):
        return int(value)
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise ValueError(f"{name} must be an integer, got {value!r}")


@dataclass(frozen=True)
class ScoringOptions:
    max_iterations: int = 100
    gradient_tolerance: float = 1e-10
    fim_mode: str = ANALYTIC
    step_scale: float = 1.0
    mc_fim_samples: int = 20_000

    def __post_init__(self):
        for name in ("max_iterations", "mc_fim_samples"):
            count = as_integer(getattr(self, name), name)
            if count < 1:
                raise ValueError(f"{name} must be >= 1")
            object.__setattr__(self, name, count)
        for name in ("gradient_tolerance", "step_scale"):
            value = getattr(self, name)
            if isinstance(value, bool) or not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and positive, got {value!r}")
        if self.fim_mode not in _FIM_MODES:
            raise ValueError(f"fim_mode must be one of {_FIM_MODES}")


@dataclass
class ScoringTrace:
    iterates: list[GroupElement]
    logliks: list[float]
    step_norms: list[float]
    grad_norms: list[float]
    converged: bool
    iterations_used: int
    max_drift: float = 0.0

    @property
    def final(self) -> GroupElement:
        return self.iterates[-1]


def _fim_provider(model, g0: GroupElement, opts: ScoringOptions, random_state):
    """Reduced FIM callable (k, g) for iterate k at g: analytic per
    iterate (iterate 0 reuses the FIM at g0) when available, frozen
    Monte-Carlo at g0 otherwise."""
    if opts.fim_mode == MONTE_CARLO:

        def per_iterate_mc(k, g):
            seed = None if random_state is None else [random_state, k + 1]
            return fisher.fim(
                model,
                g,
                fisher.REDUCED,
                fisher.MC_GRADIENT,
                opts.mc_fim_samples,
                random_state=seed,
            ).matrix

        return per_iterate_mc
    F0 = model.fim_reduced(g0)
    if F0 is None:
        F0 = fisher.fim(
            model,
            g0,
            fisher.REDUCED,
            fisher.MC_GRADIENT,
            opts.mc_fim_samples,
            random_state=random_state,
        ).matrix
    elif opts.fim_mode == ANALYTIC:
        return lambda k, g: F0 if k == 0 else model.fim_reduced(g)
    return lambda k, g: F0


def _apply_step(model, g: GroupElement, step_m: np.ndarray) -> tuple[GroupElement, float]:
    struct = model.struct
    coords = np.concatenate([np.zeros(struct.n_H), step_m])
    step = groups._exp(struct.basis_matrix @ coords, struct.group)
    g_next = GroupElement(struct.group, act(g.matrix, step, struct.side))
    drift = groups.manifold_defect(g_next)
    if drift > _DRIFT_LIMIT:
        g_next = groups.polar_project(g_next)
    return g_next, drift


def _ascend(
    model,
    observations,
    g0: GroupElement,
    step_rule,
    max_iterations: int,
    gradient_tolerance: float,
) -> ScoringTrace:
    """The one ascent loop: step = step_rule(k, g, mean m-gradient) is
    retracted side-aware; stops once the step norm falls below the
    tolerance (recorded, not applied) or after max_iterations applications.
    Raises DivergenceError when the log-likelihood is not finite or drops
    by more than 1e3 below its best value."""
    struct = model.struct
    m = model.n_observations(observations)
    summary = model.summarize(observations)
    gram_m = struct.gram[struct.n_H :, struct.n_H :]

    g = g0
    trace = ScoringTrace(
        iterates=[g0],
        logliks=[model.total_loglik(summary, g0)],
        step_norms=[],
        grad_norms=[],
        converged=False,
        iterations_used=0,
    )

    def measure(k: int, point: GroupElement) -> np.ndarray:
        mean_grad = model.total_grad_m(summary, point) / m
        step = step_rule(k, point, mean_grad)
        trace.grad_norms.append(float(np.linalg.norm(mean_grad)))
        trace.step_norms.append(math.sqrt(float(step @ gram_m @ step)))
        return step

    for k in range(max_iterations):
        step = measure(k, g)
        if trace.step_norms[-1] <= gradient_tolerance:
            trace.converged = True
            break
        g, drift = _apply_step(model, g, step)
        trace.max_drift = max(trace.max_drift, drift)
        ll = model.total_loglik(summary, g)
        trace.iterates.append(g)
        trace.logliks.append(ll)
        if not math.isfinite(ll) or ll < max(trace.logliks) - _DIVERGENCE_DROP:
            raise DivergenceError(
                f"log-likelihood {ll:g} is not finite or dropped by more than "
                f"{_DIVERGENCE_DROP:g}",
                trace=trace,
            )
    else:
        measure(max_iterations, g)
        trace.converged = trace.step_norms[-1] <= gradient_tolerance
    trace.iterations_used = len(trace.iterates) - 1
    return trace


def fisher_scoring(
    model,
    observations,
    g0: GroupElement,
    opts: ScoringOptions | None = None,
    random_state=None,
) -> ScoringTrace:
    """Natural-gradient maximum-likelihood iteration; no step size.

    Stops once the preconditioned step norm falls below the tolerance
    (recorded, not applied) or after max_iterations applications. Raises
    DegenerateFimError on a FIM with condition number above 1e12; each
    distinct FIM array is checked once.
    """
    opts = opts or ScoringOptions()
    provider = _fim_provider(model, g0, opts, random_state)
    checked = [None]  # the last FIM whose conditioning passed

    def natural_step(k: int, g: GroupElement, mean_grad: np.ndarray) -> np.ndarray:
        F = provider(k, g)
        # An invariant or frozen FIM comes back as the same array every
        # iterate; a per-iterate FIM is a new array and is checked again.
        if F is not checked[0]:
            crb.check_conditioning(F, DegenerateFimError, "reduced FIM at iterate")
            checked[0] = F
        return opts.step_scale * np.linalg.solve(F, mean_grad)

    return _ascend(
        model,
        observations,
        g0,
        natural_step,
        opts.max_iterations,
        opts.gradient_tolerance,
    )


def gradient_ascent(
    model,
    observations,
    g0: GroupElement,
    step0: float,
    decay: float = 1.0,
    max_iterations: int = 100,
    gradient_tolerance: float = 1e-10,
) -> ScoringTrace:
    """First-order baseline g <- g exp((alpha_k Pi' grad / m)^) with
    alpha_k = step0 decay^k; needs tuning, unlike Fisher scoring."""
    if step0 <= 0:
        raise ValueError("step0 must be positive")
    if not (0.0 < decay <= 1.0):
        raise ValueError("decay must be in (0, 1]")

    def decayed_step(k: int, g: GroupElement, mean_grad: np.ndarray) -> np.ndarray:
        return step0 * decay**k * mean_grad

    return _ascend(
        model, observations, g0, decayed_step, max_iterations, gradient_tolerance
    )


def mle(
    model,
    observations,
    g0: GroupElement,
    opts: ScoringOptions | None = None,
    random_state=None,
) -> GroupElement:
    """Final Fisher-scoring iterate."""
    return fisher_scoring(model, observations, g0, opts, random_state).final
