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

The loop runs a stack of trials at once: raw (B, d, d) iterates, the
trials' stacked summaries, and the rows still active. Each trial keeps
its own convergence test, iteration cap and divergence test, and a trial
that fails leaves the stack with its exception. fisher_scoring and
gradient_ascent are stacks of one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import crb, fisher, groups
from .exceptions import DegenerateFimError, DivergenceError
from .groups import GroupDescriptor, GroupElement
from .homspace import act
from .models.base import stack_summaries

ANALYTIC, MONTE_CARLO, FROZEN_AT_INITIAL = "analytic", "monte-carlo", "frozen-at-initial"
_FIM_MODES = (ANALYTIC, MONTE_CARLO, FROZEN_AT_INITIAL)
_DIVERGENCE_DROP = 1e3
_DRIFT_LIMIT = 1e-12


def _positive(value, name: str) -> None:
    if isinstance(value, bool) or not (math.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be finite and positive, got {value!r}")


@dataclass(frozen=True)
class ScoringOptions:
    max_iterations: int = 100
    gradient_tolerance: float = 1e-10
    fim_mode: str = ANALYTIC
    mc_fim_samples: int = 20_000

    def __post_init__(self):
        for name in ("max_iterations", "mc_fim_samples"):
            object.__setattr__(self, name, groups._count(getattr(self, name), name))
        _positive(self.gradient_tolerance, "gradient_tolerance")
        if self.fim_mode not in _FIM_MODES:
            raise ValueError(f"fim_mode must be one of {_FIM_MODES}")


@dataclass
class ScoringTrace:
    """One trial's run. Its iterates are recorded as raw matrices and
    boxed, each a validated GroupElement, when read."""

    descriptor: GroupDescriptor
    matrices: list[np.ndarray]
    logliks: list[float]
    step_norms: list[float] = field(default_factory=list)
    grad_norms: list[float] = field(default_factory=list)
    converged: bool = False
    iterations_used: int = 0
    max_drift: float = 0.0

    @property
    def iterates(self) -> list[GroupElement]:
        return [GroupElement(self.descriptor, M) for M in self.matrices]

    @property
    def final(self) -> GroupElement:
        return GroupElement(self.descriptor, self.matrices[-1])


def _check_observations(summary) -> None:
    """ValueError, before any step, when a trial's summary is not finite:
    a NaN or inf observation would otherwise surface as a non-finite
    iterate."""
    if all(np.isfinite(part).all() for part in summary):
        return
    finite = np.logical_and.reduce(
        [np.isfinite(part).reshape(len(part), -1).all(axis=1) for part in summary]
    )
    raise ValueError(
        f"observations of trial {int(np.argmin(finite))} of the stack "
        "have non-finite entries"
    )


def _child_seed(entropy, k: int):
    """Seed of iterate k's Monte-Carlo FIM in a trial's entropy (an int or
    a sequence of ints); None draws fresh entropy."""
    return None if entropy is None else [*np.ravel(entropy).tolist(), k + 1]


def _natural_step(model, opts: ScoringOptions, entropies):
    """Step rule F^-1 grad over a stack, and the iterates at which it
    reads the analytic reduced FIM: every iterate, only g0 when frozen at
    g0, or none in monte-carlo mode, which draws a Monte-Carlo estimate
    per iterate from each trial's own entropy. Each distinct FIM array is
    checked once; a trial whose FIM has a condition number above 1e12
    leaves with DegenerateFimError."""
    checked = [None, None]  # the last FIM array checked, and its errors

    def rule(k, rows, G, mean_grad, F):
        # An invariant FIM is the same (n, n) array at every iterate; any
        # other is an (A, n, n) array, one matrix per active row: new at
        # each iterate, or the one at g0 narrowed with the rows.
        S = F
        if opts.fim_mode == MONTE_CARLO:
            seeds = [_child_seed(entropies[r], k) for r in rows]
            S = fisher._fim_stack(
                model, G, fisher.REDUCED, fisher.MC_GRADIENT, opts.mc_fim_samples, seeds
            )
            fisher.check_fims(S, fisher.MC_GRADIENT)
        if S is not checked[0]:
            checked[:] = S, crb.conditioning_errors(S, DegenerateFimError, "reduced FIM at iterate")
        errors = checked[1]
        if S.ndim == 2:
            errors = dict.fromkeys(range(len(rows)), errors[0]) if errors else {}
        if not errors:
            return np.linalg.solve(S, mean_grad[..., None])[..., 0], {}
        steps = np.full(mean_grad.shape, np.nan)
        ok = np.array([i not in errors for i in range(len(rows))])
        if ok.any():  # then S is a stack: a shared singular S fails every row
            steps[ok] = np.linalg.solve(S[ok], mean_grad[ok, :, None])[..., 0]
        return steps, errors

    fim_iterates = {ANALYTIC: range(opts.max_iterations + 1), FROZEN_AT_INITIAL: range(1)}
    return rule, fim_iterates.get(opts.fim_mode, range(0))


def _apply_steps(model, G, steps) -> tuple[np.ndarray, np.ndarray]:
    """Retract each row's m-step side-aware: the next iterates and their
    drift before projection; rows drifted past 1e-12 are polar-projected.
    Raises ValueError, as boxing would, when an iterate is not finite or
    not in the group."""
    struct = model.struct
    desc = struct.group
    coords = np.zeros((len(steps), desc.algebra_dim))
    coords[:, struct.n_H :] = steps
    E = groups._exp_stack((struct.basis_matrix @ coords[..., None])[..., 0], desc)
    G_next = act(G, E, struct.side)
    drift, errors = groups._membership_stack(G_next, desc)
    drifted = drift > _DRIFT_LIMIT
    if not errors and np.count_nonzero(drifted):
        G_next[drifted] = [groups._polar(M, desc) for M in G_next[drifted]]
        errors = groups._membership_stack(G_next[drifted], desc)[1]
    if errors:
        raise errors[min(errors)]
    return G_next, drift


def _ascend(
    model, summary, G0, step_rule, fim_iterates, max_iterations: int, gradient_tolerance: float
):
    """The one ascent loop, over a stack of trials: a row's step =
    step_rule(k, rows, G, mean m-gradients, F) is retracted side-aware;
    the row stops once its step norm falls below the tolerance (recorded,
    not applied) or after max_iterations applications, and leaves with
    DivergenceError when its log-likelihood is not finite or drops by
    more than 1e3 below its best value. The model is evaluated once per
    iterate, at every row that stepped, with the reduced FIM at the
    iterates in fim_iterates; F is the last FIM it returned, narrowed
    with the rows, or None. Returns (traces, failed): per
    trial its ScoringTrace, which for a failed trial ends at its failure,
    and {trial: the exception that ended it}."""
    _check_observations(summary)
    ll, grad, F = model.evaluate(summary, G0, 0 in fim_iterates)
    traces = [ScoringTrace(model.struct.group, [M], [v]) for M, v in zip(G0, ll.tolist())]
    failed = {}
    best = ll.tolist()  # per trial, its best log-likelihood so far
    # The stack rows still ascending, their summaries and iterates, and
    # the model's m-gradients and FIM there. The per-trial decisions
    # below run on Python floats, one loop per step.
    rows, part, G = np.arange(len(G0)), summary, G0

    def measure(k):
        """Each active row's step and step norm, recorded in its trace;
        a row whose step rule failed gets NaN and its exception."""
        mean_grad = grad / part[0][:, None]
        steps, errors = step_rule(k, rows, G, mean_grad, F)
        grad_norms = np.sqrt(np.vecdot(mean_grad, mean_grad)).tolist()
        norms = np.sqrt((steps[:, None, :] @ steps[:, :, None])[:, 0, 0]).tolist()
        for i, r in enumerate(rows.tolist()):
            if i in errors:
                failed[r] = errors[i]
            else:
                traces[r].grad_norms.append(grad_norms[i])
                traces[r].step_norms.append(norms[i])
        return steps, norms, errors

    def keep(going: list) -> bool:
        """Narrow the stack to the rows at the positions going; False
        when none is left."""
        nonlocal rows, part, G, grad, F
        if len(going) < len(rows):
            rows, part, G, grad = rows[going], tuple(p[going] for p in part), G[going], grad[going]
            F = F[going] if F is not None and F.ndim == 3 else F
        return bool(going)

    for k in range(max_iterations):
        steps, norms, errors = measure(k)
        going = []
        for i, r in enumerate(rows.tolist()):
            if norms[i] <= gradient_tolerance:
                traces[r].converged = True
            elif i not in errors:
                going.append(i)
        if not keep(going):
            break
        G, drift = _apply_steps(model, G, steps[going])
        ll, grad, fim = model.evaluate(part, G, k + 1 in fim_iterates)
        F = F if fim is None else fim
        going = []
        for i, (r, v, dv) in enumerate(zip(rows.tolist(), ll.tolist(), drift.tolist())):
            trace = traces[r]
            trace.max_drift = max(trace.max_drift, dv)
            trace.matrices.append(G[i])
            trace.logliks.append(v)
            best[r] = max(best[r], v)
            if not math.isfinite(v) or v < best[r] - _DIVERGENCE_DROP:
                failed[r] = DivergenceError(
                    f"log-likelihood {v:g} is not finite or dropped by more than "
                    f"{_DIVERGENCE_DROP:g}",
                    trace=trace,
                )
            else:
                going.append(i)
        if not keep(going):
            break
    else:
        _, norms, errors = measure(max_iterations)
        for i, r in enumerate(rows.tolist()):
            traces[r].converged = i not in errors and norms[i] <= gradient_tolerance
    for trace in traces:
        trace.iterations_used = len(trace.matrices) - 1
    return traces, failed


def _one(result) -> ScoringTrace:
    """The trace of a stack of one, or its failure raised."""
    traces, failed = result
    if failed:
        raise failed[0]
    return traces[0]


def fisher_scoring_stack(
    model,
    summary,
    G0,
    opts: ScoringOptions | None = None,
    random_states=None,
) -> tuple[list[ScoringTrace], dict]:
    """Natural-gradient maximum-likelihood iteration for a stack of
    trials: summary from stack_summaries, G0 their (B, d, d) starting
    matrices, random_states each trial's Monte-Carlo FIM entropy (an
    int, a sequence of ints, or None). Returns (traces, failed): one
    ScoringTrace per trial, a failed trial's ending at its failure, and
    {trial: exception} for each trial that failed: DivergenceError, or
    DegenerateFimError on a FIM with condition number above 1e12."""
    opts = opts or ScoringOptions()
    entropies = [None] * len(G0) if random_states is None else list(random_states)
    return _ascend(
        model,
        summary,
        G0,
        *_natural_step(model, opts, entropies),
        opts.max_iterations,
        opts.gradient_tolerance,
    )


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
    distinct FIM array is checked once. A stack of one.
    """
    summary = stack_summaries([model.summarize(observations)])
    return _one(fisher_scoring_stack(model, summary, g0.matrix[None], opts, [random_state]))


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
    alpha_k = step0 decay^k; needs tuning, unlike Fisher scoring. The
    arguments are checked as ScoringOptions checks its own."""
    _positive(step0, "step0")
    if isinstance(decay, bool) or not (0.0 < decay <= 1.0):
        raise ValueError(f"decay must be in (0, 1], got {decay!r}")
    max_iterations = groups._count(max_iterations, "max_iterations")
    _positive(gradient_tolerance, "gradient_tolerance")

    def decayed_step(k, rows, G, mean_grad, F):
        return step0 * decay**k * mean_grad, {}

    summary = stack_summaries([model.summarize(observations)])
    return _one(
        _ascend(
            model, summary, g0.matrix[None], decayed_step, range(0), max_iterations,
            gradient_tolerance,
        )
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
