"""Fisher Information Matrices in the left, right, and reduced frames.

All matrices are expressed in the adapted basis of the model's reductive
structure. The left frame differentiates along LIVFs (curves g exp(tE)),
the right frame along RIVFs (curves exp(tE) g); the reduced frame is the
m-block in the natural operator of the side (LIVFs on G/H, RIVFs on
H\\G), i.e. the frame whose full matrix has a vanishing h-block.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import groups
from .groups import GroupElement
from .homspace import (
    LIVF,
    RIVF,
    ReductiveStructure,
    Side,
    act,
    natural_operator,
    translate_directions_stack,
)

LEFT, RIGHT, REDUCED = "left", "right", "reduced"
ANALYTIC, MC_GRADIENT, MC_HESSIAN = (
    "analytic",
    "monte-carlo-gradient",
    "monte-carlo-hessian",
)

DEFAULT_MC_SAMPLES = 100_000


@dataclass(frozen=True, eq=False)
class FimMatrix:
    """Symmetric information matrix in a stated frame at a stated point."""

    frame: str
    at: GroupElement
    matrix: np.ndarray
    estimation: str
    n_samples: int

    def __post_init__(self):
        object.__setattr__(self, "matrix", groups._frozen(self.matrix))
        if self.matrix.ndim != 2:
            raise ValueError("FIM must be square")
        check_fims(self.matrix, self.estimation)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def check_fims(F: np.ndarray, estimation: str) -> None:
    """Raise ValueError unless every matrix of a (..., n, n) stack is a
    FIM of the given estimation: square, finite, symmetric to 1e-8 of its
    largest entry (or of 1) and, unless Hessian-form, positive
    semidefinite to the same scale."""
    if F.ndim < 2 or F.shape[-1] != F.shape[-2]:
        raise ValueError("FIM must be square")
    if not np.isfinite(F).all():
        raise ValueError("FIM must be finite")
    scale = np.maximum(1.0, np.abs(F).max(axis=(-2, -1), initial=0.0))
    asym = np.abs(F - np.swapaxes(F, -1, -2)).max(axis=(-2, -1), initial=0.0)
    if np.any(asym > 1e-8 * scale):
        raise ValueError("FIM must be symmetric to 1e-8")
    # Hessian-form Monte Carlo estimates may dip below zero from
    # second-difference noise; outer-product and analytic forms may not.
    if estimation in (ANALYTIC, MC_GRADIENT):
        if np.any(np.linalg.eigvalsh(F).min(axis=-1, initial=np.inf) < -1e-8 * scale):
            raise ValueError("FIM must be positive semidefinite")


def frame_directions(struct: ReductiveStructure, frame: str) -> tuple[np.ndarray, str]:
    """(directions as rows, derivative operator) defining a frame's entries."""
    if frame == REDUCED:
        return struct.m_basis, natural_operator(struct.side)
    if frame == LEFT:
        return struct.basis, LIVF
    if frame == RIGHT:
        return struct.basis, RIVF
    raise ValueError(f"unknown frame {frame!r}")


def fim(
    model,
    g: GroupElement,
    frame: str = REDUCED,
    method: str = ANALYTIC,
    n_samples: int = DEFAULT_MC_SAMPLES,
    random_state=None,
) -> FimMatrix:
    """E[D_i l D_j l] over the frame's directions: a stack of one
    through _fim_stack.

    Analytic reads the model's natural_fim; the Monte-Carlo gradient form
    averages outer products of per-draw analytic scores over common
    draws, which keeps the estimate positive semidefinite exactly.
    """
    F = _fim_stack(model, g.matrix[None], frame, method, n_samples, [random_state])[0]
    return FimMatrix(frame, g, F, method, 0 if method == ANALYTIC else n_samples)


def _fim_stack(
    model, X, frame, method=ANALYTIC, n_samples=DEFAULT_MC_SAMPLES, seeds=None
) -> np.ndarray:
    """(B, n, n) FIMs of a frame at each matrix of a (B, d, d) stack, not
    yet validated (check_fims): one natural_fim call, or per matrix one
    Monte-Carlo estimate drawn from its own seed (seeds: one per matrix,
    default fresh entropy)."""
    directions, op = frame_directions(model.struct, frame)
    if method == ANALYTIC:
        nat = natural_operator(model.struct.side)
        D = translate_directions_stack(directions, X, model.struct.group, nat, op)
        return np.broadcast_to(model.natural_fim(X, D), (len(X),) + (len(directions),) * 2)
    if method != MC_GRADIENT:
        raise ValueError(f"unknown FIM method {method!r}")
    if n_samples < 1:
        raise ValueError("Monte-Carlo estimation needs n_samples >= 1")
    out = []
    for x, seed in zip(X, seeds or [None] * len(X)):
        g = GroupElement(model.struct.group, x)
        draws = model.sample(g, n_samples, np.random.default_rng(seed))
        G = model.analytic_gradient_batch(draws, g, directions, op)
        out.append((G.T @ G) / n_samples)
    return np.array(out)


def fim_hessian(
    model,
    g: GroupElement,
    frame: str = REDUCED,
    n_samples: int = DEFAULT_MC_SAMPLES,
    random_state=None,
) -> FimMatrix:
    """-E[D_j D_i l] via nested central differences with step
    1e-4 (1 + |g|) over common draws, symmetrized as (M + M') / 2 since
    the identity holds for either derivative ordering."""
    if n_samples < 1:
        raise ValueError("Monte-Carlo estimation needs n_samples >= 1")
    directions, op = frame_directions(model.struct, frame)
    rng = np.random.default_rng(random_state)
    draws = model.sample(g, n_samples, rng)
    step = 1e-4 * (1.0 + float(np.linalg.norm(g.matrix)))

    def mean_loglik(p):
        return np.mean(model.loglik_batch(draws, p))

    def inner(p):
        return groups.central_differences(mean_loglik, p, directions, step, op, boxed=True)

    # M[j, i] = D_j D_i: outer perturbation j, inner i.
    M = groups.central_differences(inner, g, directions, step, op, boxed=True)
    F = -0.5 * (M + M.T)
    return FimMatrix(frame, g, F, MC_HESSIAN, n_samples)


def grad_loglik(model, x, g: GroupElement) -> np.ndarray:
    """Gradient of l(x|.) at g along the m-basis invariant vector fields
    (LIVFs on G/H, RIVFs on H\\G), from the model's analytic score."""
    directions, op = frame_directions(model.struct, REDUCED)
    G = model.analytic_gradient_batch(model._as_batch(x), g, directions, op)
    return G[0]


@dataclass(frozen=True)
class FimPropertyReport:
    """Deviations for the four structural FIM properties.

    On G/H: (1) h-block of the left FIM, (2) fiber constancy of the right
    FIM, (3) F^L = Ad_g' F^R Ad_g, (4) F^L_{gh} = Ad_h' F^L_g Ad_h.
    On H\\G the frames swap: (1) h-block of the right FIM, (2) fiber
    constancy of the left FIM, (4) F^R_{hg} = Ad_{h^-1}' F^R_g Ad_{h^-1}.
    """

    frames_swapped: bool
    method: str
    h_block: float
    fiber_constancy: float
    adjoint_relation: float
    fiber_conjugation: float

    @property
    def max_deviation(self) -> float:
        return max(
            self.h_block,
            self.fiber_constancy,
            self.adjoint_relation,
            self.fiber_conjugation,
        )

    def ok(self, tol: float) -> bool:
        return self.max_deviation <= tol


def _spectral(A: np.ndarray) -> np.ndarray:
    """Largest singular value of a matrix or of each of a stack."""
    return np.linalg.norm(A, 2, axis=(-2, -1))


def verify_fim_properties_stack(
    model,
    g: GroupElement,
    H,
    n_samples: int = DEFAULT_MC_SAMPLES,
    random_state=None,
    method: str = ANALYTIC,
) -> np.ndarray:
    """The four frame-relation deviations of FimPropertyReport at g, one
    row (h_block, fiber_constancy, adjoint_relation, fiber_conjugation)
    per matrix of a (K, d, d) stack H of subgroup samples.

    The left and right FIMs at g and at the K moved points act(g, h) are
    one stack per frame, validated together; the Ad matrices of g and of
    each h (h^-1 on H\\G) are one stack. The h-block and the adjoint
    relation read g alone, so each row repeats them. A Monte-Carlo FIM
    draws from [random_state, salt]: salt 0 (left) and 1 (right) at g, 2
    and 3 at every moved point, so each row is the one-h call's.
    """
    struct = model.struct
    desc = struct.group
    swapped = struct.side == Side.H_MOD_G
    H = np.asarray(H, dtype=float)
    if H.ndim != 3 or H.shape[1:] != g.matrix.shape:
        raise ValueError(f"subgroup samples must be a (K, d, d) stack, got {H.shape}")
    X = np.concatenate([g.matrix[None], act(g.matrix, H, struct.side)])
    errors = groups._membership_stack(np.concatenate([H, X[1:]]), desc)[1]
    if errors:
        raise errors[min(errors, key=lambda r: (r % len(H), r // len(H)))]

    def seeds(salt_g, salt_moved):
        if random_state is None:
            return None
        return [[random_state, salt_g]] + [[random_state, salt_moved]] * len(H)

    FL = _fim_stack(model, X, LEFT, method, n_samples, seeds(0, 2))
    FR = _fim_stack(model, X, RIGHT, method, n_samples, seeds(1, 3))
    check_fims(np.stack([FL, FR]), method)
    conj_at = groups._inverse_matrix(H, desc) if swapped else H
    Ad = struct.in_adapted(groups._adjoint(np.concatenate([g.matrix[None], conj_at]), desc))
    Ad_g, Ad_h = Ad[0], Ad[1:]
    n_H = struct.n_H

    block = (FR if swapped else FL)[0]
    h_block = max(
        np.abs(block[:n_H, :]).max(initial=0.0), np.abs(block[:, :n_H]).max(initial=0.0)
    )
    # On H\G the left FIM is constant on fibers and the right one conjugates.
    fiber_F, conj_F = (FL, FR) if swapped else (FR, FL)
    fiber = _spectral(fiber_F[1:] - fiber_F[0])
    adjoint_rel = _spectral(FL[0] - Ad_g.T @ FR[0] @ Ad_g)
    conj = _spectral(conj_F[1:] - np.swapaxes(Ad_h, -1, -2) @ conj_F[0] @ Ad_h)
    K = len(H)
    return np.column_stack([np.full(K, h_block), fiber, np.full(K, adjoint_rel), conj])


def verify_fim_properties(
    model,
    g: GroupElement,
    h_sample: GroupElement,
    n_samples: int = DEFAULT_MC_SAMPLES,
    random_state=None,
    method: str = ANALYTIC,
) -> FimPropertyReport:
    """Check the block/fiber/adjoint relations between the FIM frames: a
    stack of one through verify_fim_properties_stack."""
    devs = verify_fim_properties_stack(
        model, g, h_sample.matrix[None], n_samples, random_state, method
    )[0]
    return FimPropertyReport(model.struct.side == Side.H_MOD_G, method, *devs.tolist())
