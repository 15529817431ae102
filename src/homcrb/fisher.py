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
from .homspace import LIVF, RIVF, ReductiveStructure, Side, act, natural_operator

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
        F = self.matrix
        if F.ndim != 2 or F.shape[0] != F.shape[1]:
            raise ValueError("FIM must be square")
        scale = max(1.0, float(np.abs(F).max(initial=0.0)))
        if float(np.abs(F - F.T).max(initial=0.0)) > 1e-8 * scale:
            raise ValueError("FIM must be symmetric to 1e-8")
        # Hessian-form Monte Carlo estimates may dip below zero from
        # second-difference noise; outer-product and analytic forms may not.
        if self.estimation in (ANALYTIC, MC_GRADIENT):
            if float(np.linalg.eigvalsh(F).min()) < -1e-8 * scale:
                raise ValueError("FIM must be positive semidefinite")

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


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
    """E[D_i l D_j l] over the frame's directions.

    Analytic dispatches to the model; the Monte-Carlo gradient form
    averages outer products of per-draw analytic scores over common
    draws, which keeps the estimate positive semidefinite exactly.
    """
    directions, op = frame_directions(model.struct, frame)
    if method == ANALYTIC:
        return FimMatrix(frame, g, model.analytic_fim(g, directions, op), ANALYTIC, 0)
    if method != MC_GRADIENT:
        raise ValueError(f"unknown FIM method {method!r}")
    if n_samples < 1:
        raise ValueError("Monte-Carlo estimation needs n_samples >= 1")
    rng = np.random.default_rng(random_state)
    draws = model.sample(g, n_samples, rng)
    G = model.analytic_gradient_batch(draws, g, directions, op)
    return FimMatrix(frame, g, (G.T @ G) / n_samples, MC_GRADIENT, n_samples)


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


def _spectral(A: np.ndarray) -> float:
    return float(np.linalg.norm(A, 2))


def verify_fim_properties(
    model,
    g: GroupElement,
    h_sample: GroupElement,
    n_samples: int = DEFAULT_MC_SAMPLES,
    random_state=None,
    method: str = ANALYTIC,
) -> FimPropertyReport:
    """Check the block/fiber/adjoint relations between the FIM frames."""
    struct = model.struct
    swapped = struct.side == Side.H_MOD_G
    moved = act(g, h_sample, struct.side)

    def F(point, frame, salt):
        seed = None if random_state is None else [random_state, salt]
        return fim(
            model, point, frame, method, n_samples, random_state=seed
        ).matrix

    FL_g, FR_g = F(g, LEFT, 0), F(g, RIGHT, 1)
    FL_m, FR_m = F(moved, LEFT, 2), F(moved, RIGHT, 3)
    Ad_g = struct.adjoint(g)
    n_H = struct.n_H

    block_mat = FR_g if swapped else FL_g
    h_block = float(
        max(
            np.abs(block_mat[:n_H, :]).max(initial=0.0),
            np.abs(block_mat[:, :n_H]).max(initial=0.0),
        )
    )
    fiber = _spectral(FL_m - FL_g) if swapped else _spectral(FR_m - FR_g)
    adjoint_rel = _spectral(FL_g - Ad_g.T @ FR_g @ Ad_g)
    if swapped:
        Ad_hinv = struct.adjoint(h_sample.inverse())
        conj = _spectral(FR_m - Ad_hinv.T @ FR_g @ Ad_hinv)
    else:
        Ad_h = struct.adjoint(h_sample)
        conj = _spectral(FL_m - Ad_h.T @ FL_g @ Ad_h)
    return FimPropertyReport(
        frames_swapped=swapped,
        method=method,
        h_block=h_block,
        fiber_constancy=fiber,
        adjoint_relation=adjoint_rel,
        fiber_conjugation=conj,
    )
