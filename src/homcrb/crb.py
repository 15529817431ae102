"""Cramer-Rao bounds on groups and homogeneous spaces.

Estimator statistics are collected in the adapted basis: trial estimates
are horizontally lifted, so their invariant errors live in m and the
bias/covariance carry the h-block-zero pattern. The exact group bound is
Phi F^+ Phi' with Phi the expected log-derivative correction
E[Psi_{-eta}] (left errors) or E[Psi_{eta'}] (right errors) plus the
bias Jacobian; unbiasedness (zero Jacobian) is the default assumption.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from . import fisher, groups, scoring
from .exceptions import DegenerateModelError, LiftFailureError
from .groups import GroupElement
from .homspace import (
    ReductiveStructure,
    Side,
    coset_errors,
    ill_conditioned,
    natural_operator,
    raw_error,
    selector_pi,
)

log = logging.getLogger("homcrb.crb")

PINV_RCOND = 1e-10


def conditioning_errors(
    F: np.ndarray, error: type[DegenerateModelError], what: str
) -> dict:
    """{index: error carrying its condition number} for each matrix of an
    (n, n) F (index 0) or of an (A, n, n) stack whose condition number is
    not <= COND_LIMIT. The test is homspace.ill_conditioned: a matrix that
    is exactly symmetric with |lambda|_max / |lambda|_min from eigvalsh
    below COND_LIMIT / 10 passes without an SVD; every other one gets
    np.linalg.cond, and a matrix whose SVD does not converge, as for a NaN
    entry, has condition number NaN."""
    return {
        i: error(
            f"{what} is numerically singular (condition number {cond:.3e})",
            condition_number=cond,
        )
        for i, cond in ill_conditioned(F).items()
    }


def check_conditioning(
    F: np.ndarray, error: type[DegenerateModelError], what: str
) -> None:
    """Raise error, with the condition number, for the first matrix of an
    (n, n) F or an (A, n, n) stack whose condition number is not <=
    COND_LIMIT."""
    errors = conditioning_errors(F, error, what)
    if errors:
        raise errors[min(errors)]


def _bound_ready_matrix(fim_matrix: fisher.FimMatrix) -> np.ndarray:
    """Hessian-form Monte-Carlo estimates can carry tiny negative
    eigenvalues from second-difference noise; floor them at zero before
    inverting (logged). Other estimations are PSD by construction."""
    F = fim_matrix.matrix
    if fim_matrix.estimation != fisher.MC_HESSIAN:
        return F
    eigvals, eigvecs = np.linalg.eigh(F)
    if eigvals.min() >= 0.0:
        return F
    log.info(
        "flooring %d negative eigenvalues (min %.3e) of a Hessian-form FIM",
        int(np.sum(eigvals < 0)),
        float(eigvals.min()),
    )
    return (eigvecs * np.maximum(eigvals, 0.0)) @ eigvecs.T

GROUP_EXACT_LEFT = "group-exact-left"
GROUP_EXACT_RIGHT = "group-exact-right"
HOMOGENEOUS_EXACT = "homogeneous-exact"
HOMOGENEOUS_THIRD_ORDER = "homogeneous-third-order-unbiased"


@dataclass(frozen=True, eq=False)
class EstimatorStats:
    """Monte-Carlo error statistics of an estimator at a reference point.

    error_coords hold the lifted invariant errors (left-invariant eta on
    G/H, right-invariant eta' on H\\G); variance_on_G uses the raw,
    unlifted group error, which is what fails to approach the CRB in the
    presence of symmetries.
    """

    struct: ReductiveStructure
    error_coords: np.ndarray  # (n_trials, n_G) adapted coordinates
    bias: np.ndarray
    covariance: np.ndarray
    variance_on_G: float
    variance_on_coset: float
    n_trials: int


def estimator_stats(
    g_ref: GroupElement,
    estimates,
    struct: ReductiveStructure,
) -> EstimatorStats:
    """Lift the estimates, as one stack, onto the cross-section through
    g_ref and form bias, covariance, and the two variances. The first
    trial whose lift fails raises, LiftFailureError naming its index."""
    lifted = coset_errors(g_ref, np.array([est.matrix for est in estimates]), struct)
    if lifted.errors:
        idx = min(lifted.errors)
        exc = lifted.errors[idx]
        if isinstance(exc, LiftFailureError):
            raise LiftFailureError(
                f"trial {idx}: {exc}",
                iterations=exc.iterations,
                residual=exc.residual,
            ) from exc
        raise exc
    raw_sq = [np.linalg.norm(raw) ** 2 for raw in lifted.raw]
    coords = lifted.eta_struct
    n = len(coords)
    bias = coords.mean(axis=0)
    centered = coords - bias
    covariance = (centered.T @ centered) / n
    reduced = coords[:, struct.n_H :]
    variance_on_coset = float(np.mean(np.einsum("ti,ti->t", reduced, reduced)))
    return EstimatorStats(
        struct=struct,
        error_coords=coords,
        bias=bias,
        covariance=covariance,
        variance_on_G=float(np.mean(raw_sq)),
        variance_on_coset=variance_on_coset,
        n_trials=n,
    )


@dataclass(frozen=True, eq=False)
class CrbReport:
    bound_matrix: np.ndarray
    bound_trace: float
    variant: str
    phi: np.ndarray | None
    delta: np.ndarray | None


def _report(matrix: np.ndarray, variant: str, phi=None, delta=None) -> CrbReport:
    matrix = 0.5 * (matrix + matrix.T)  # kill rounding asymmetry
    return CrbReport(
        bound_matrix=matrix,
        bound_trace=float(np.trace(matrix)),
        variant=variant,
        phi=phi,
        delta=delta,
    )


def phi_matrix(
    stats: EstimatorStats, bias_jacobian: np.ndarray | None = None
) -> np.ndarray:
    """Phi = E[Psi_{-eta}] (G/H) or E[Psi_{eta'}] (H\\G), plus the bias
    Jacobian when one is supplied (unbiasedness is assumed otherwise)."""
    struct = stats.struct
    sign = -1.0 if struct.side == Side.G_MOD_H else 1.0
    n_G = struct.group.algebra_dim
    acc = np.zeros((n_G, n_G))
    for row in stats.error_coords:
        acc += struct.psi(sign * row)
    acc /= max(len(stats.error_coords), 1)
    if bias_jacobian is not None:
        acc = acc + bias_jacobian
    return acc


def crb_group(fim_matrix: fisher.FimMatrix, phi: np.ndarray) -> CrbReport:
    """Exact group-level bound Phi F^+ Phi' (Moore-Penrose, relative
    singular-value threshold 1e-10). The frame and the Phi variant must
    match: left FIM with the left-error Phi, right FIM with the
    right-error Phi'."""
    if fim_matrix.frame not in (fisher.LEFT, fisher.RIGHT):
        raise ValueError("crb_group expects a left- or right-frame FIM")
    F_pinv = np.linalg.pinv(
        _bound_ready_matrix(fim_matrix), rcond=PINV_RCOND, hermitian=True
    )
    variant = (
        GROUP_EXACT_LEFT if fim_matrix.frame == fisher.LEFT else GROUP_EXACT_RIGHT
    )
    return _report(phi @ F_pinv @ phi.T, variant, phi=phi)


def _checked_inverse(fim_matrix: fisher.FimMatrix) -> np.ndarray:
    F = _bound_ready_matrix(fim_matrix)
    check_conditioning(F, DegenerateModelError, "reduced FIM")
    return np.linalg.inv(F)


def crb_homogeneous(
    fim_reduced: fisher.FimMatrix,
    phi: np.ndarray,
    struct: ReductiveStructure,
) -> CrbReport:
    """Coset-space bound (Pi Phi Pi') Fbar^-1 (Pi Phi Pi')'."""
    if fim_reduced.frame != fisher.REDUCED:
        raise ValueError("crb_homogeneous expects a reduced-frame FIM")
    F_inv = _checked_inverse(fim_reduced)
    Pi = selector_pi(struct)
    core = Pi @ phi @ Pi.T
    return _report(core @ F_inv @ core.T, HOMOGENEOUS_EXACT, phi=phi)


def crb_third_order(fim_reduced: fisher.FimMatrix, delta: np.ndarray) -> CrbReport:
    """Third-order unbiased bound (I + Delta) Fbar^-1 (I + Delta)'."""
    if fim_reduced.frame != fisher.REDUCED:
        raise ValueError("crb_third_order expects a reduced-frame FIM")
    F_inv = _checked_inverse(fim_reduced)
    core = np.eye(F_inv.shape[0]) + delta
    return _report(core @ F_inv @ core.T, HOMOGENEOUS_THIRD_ORDER, delta=delta)


def delta_matrix(errors, struct: ReductiveStructure) -> np.ndarray:
    """Delta = Pi E[ad_eta^2 / 12] Pi' from error samples, an (N, n_G)
    array of adapted coordinates.

    ad is linear in eta, so sum_eta ad_eta^2 = sum_r ad_r^2 over the rows
    r of the triangular factor R of the stacked samples (R'R = sum eta
    eta'), which has at most n_G rows.
    """
    coords = np.asarray(errors, dtype=float)
    if len(coords) == 0:
        return np.zeros((struct.n_Theta, struct.n_Theta))
    rows = np.linalg.qr(coords, mode="r") @ struct.basis
    acc = groups.ad_squared_sum(rows, struct.group)
    mean = struct.in_adapted(acc) / (12.0 * len(coords))
    return mean[struct.n_H :, struct.n_H :].copy()


def variance_bound(fim_reduced: fisher.FimMatrix) -> float:
    """tr(Fbar^-1): the coset-space variance bound for unbiased
    estimators, representative-independent under Ad_H-invariance."""
    if fim_reduced.frame != fisher.REDUCED:
        raise ValueError("variance_bound expects a reduced-frame FIM")
    return float(variance_bounds(_bound_ready_matrix(fim_reduced)))


def variance_bounds(F: np.ndarray) -> np.ndarray:
    """tr(Fbar^-1) of a reduced FIM matrix or of each of an (A, n, n)
    stack; the first numerically singular one raises."""
    check_conditioning(F, DegenerateModelError, "reduced FIM")
    return np.trace(np.linalg.inv(F), axis1=-2, axis2=-1)


def efficiency_residual(
    model,
    observations,
    g_ref: GroupElement,
    estimates,
    struct: ReductiveStructure,
    c: float | None = None,
) -> float:
    """Mean over trials of |eta - b - c Phi Pi' Fbar^-1 grad|.

    Zero exactly when the estimator is efficient at that c; when c is
    None a 1-D least-squares fit over the trials picks it. The true bias
    b is taken as zero (unbiasedness default).
    """
    if len(observations) != len(estimates):
        raise ValueError("need one observation set per estimate")
    stats = estimator_stats(g_ref, estimates, struct)
    phi = phi_matrix(stats)
    F1 = fisher.fim(model, g_ref, fisher.REDUCED).matrix
    Pi = selector_pi(struct)
    core = phi @ Pi.T
    summary = scoring.stack_summaries([model.summarize(obs) for obs in observations])
    G = np.broadcast_to(g_ref.matrix, (len(observations),) + g_ref.matrix.shape)
    grads = model.total_grad_m(summary, G)
    V = np.array(
        [core @ np.linalg.solve(m * F1, grad) for m, grad in zip(summary[0], grads)]
    )
    E = stats.error_coords
    if c is None:
        denom = float(np.einsum("ti,ti->", V, V))
        if denom == 0.0:
            c = 0.0
        else:
            c = float(np.einsum("ti,ti->", E, V)) / denom
    R = E - c * V
    return float(np.mean([np.linalg.norm(r) for r in R]))


def bias_jacobian(
    model,
    g_ref: GroupElement,
    estimator_fn,
    struct: ReductiveStructure,
    n_samples: int,
    h: float = 1e-3,
    random_state=None,
    obs_per_trial: int = 1,
) -> np.ndarray:
    """Finite-difference Jacobian of the Monte-Carlo bias along the
    adapted basis directions, with common random numbers across the +/-
    perturbations of each direction."""
    n_G = struct.group.algebra_dim
    base_entropy = 0 if random_state is None else int(random_state)

    def bias_at(g: GroupElement, seed_salt: int) -> np.ndarray:
        acc = np.zeros(n_G)
        for t in range(n_samples):
            rng = np.random.default_rng([base_entropy, seed_salt, t])
            obs = model.sample(g, obs_per_trial, rng)
            acc += raw_error(g, estimator_fn(obs, g), struct)
        return acc / n_samples

    op = natural_operator(struct.side)
    J = np.zeros((n_G, n_G))
    for j, direction in enumerate(struct.basis):
        J[:, j] = groups.central_difference(
            lambda g: bias_at(g, j), g_ref, direction, h, op
        )
    return J
