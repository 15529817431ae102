"""Reductive homogeneous-space structures.

A ReductiveStructure fixes an ordered basis of the Lie algebra split as
an h-block (the subalgebra of the isotropy/symmetry subgroup H) followed
by an m-block (the complement modeling the tangent space of the coset
space). All Fisher/CRB matrices downstream are expressed in this adapted
basis; the basis is declared orthonormal, i.e. the inner product on the
algebra is the Euclidean one on adapted coordinates.

Gram-Schmidt runs under an optional factored metric <x, y> = (Mx)'(My)
given in descriptor coordinates. Passing the Ad-matrix of a translation
lets callers obtain Ad_H-invariant complements (the orthogonal complement
of h under the naive coordinate metric is generally *not* reductive).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from . import groups
from .exceptions import (
    CutLocusError,
    DegenerateSeedError,
    LiftFailureError,
    SubalgebraError,
)
from .groups import LIVF, RIVF, AlgebraVector, GroupDescriptor, GroupElement


class Side(enum.Enum):
    """Which side the symmetry subgroup acts on."""

    G_MOD_H = "G/H"  # left cosets gH, H acts on the right
    H_MOD_G = "H\\G"  # right cosets Hg, H acts on the left


def natural_operator(side: Side) -> str:
    """Operator whose full FIM has a vanishing h-block on this side."""
    return LIVF if side == Side.G_MOD_H else RIVF


def translate_directions(directions, g: GroupElement, from_op: str, to_op: str):
    """Directions to feed a from_op formula so it evaluates to_op
    derivatives, via X^L_g = (Ad_g X)^R_g and X^R_g = (Ad_{g^-1} X)^L_g."""
    if from_op == to_op:
        return list(directions)
    Ad = groups.adjoint_matrix(g if to_op == LIVF else g.inverse())
    desc = g.descriptor
    return [AlgebraVector(desc, Ad @ d.coords) for d in directions]


_GS_SKIP_TOL = 1e-8
_LIFT_TOL = 1e-10
_LIFT_MAX_ITER = 100
# Ad_H invariance: unit m-directions tested per sampled h, and the tolerance.
_ADH_DIRECTIONS = 20
_ADH_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class ReductiveStructure:
    """Adapted basis of g: indices [0, n_H) span h, [n_H, n_G) span m."""

    group: GroupDescriptor
    side: Side
    n_H: int
    n_Theta: int
    basis: tuple[AlgebraVector, ...]
    gram: np.ndarray  # inner product of the adapted basis (default identity)
    subgroup_sampler: Callable[[np.random.Generator], GroupElement] | None = None

    def __post_init__(self):
        n_G = self.group.algebra_dim
        if self.n_H + self.n_Theta != n_G or len(self.basis) != n_G:
            raise ValueError("basis must split n_G as n_H + n_Theta")
        B = np.column_stack([b.coords for b in self.basis])
        cond = np.linalg.cond(B)
        if not np.isfinite(cond) or cond > 1e12:
            raise ValueError(f"adapted basis is singular (condition {cond:.3e})")
        object.__setattr__(self, "gram", groups._frozen(self.gram))
        object.__setattr__(self, "_B", groups._frozen(B))
        object.__setattr__(self, "_B_inv", groups._frozen(np.linalg.inv(B)))

    # -- coordinates ---------------------------------------------------

    @property
    def basis_matrix(self) -> np.ndarray:
        """Columns are adapted basis vectors in descriptor coordinates."""
        return self._B

    @property
    def h_basis(self) -> tuple[AlgebraVector, ...]:
        return self.basis[: self.n_H]

    @property
    def m_basis(self) -> tuple[AlgebraVector, ...]:
        return self.basis[self.n_H :]

    def coords_of(self, X: AlgebraVector) -> np.ndarray:
        """Adapted coordinates of an algebra element."""
        return self._B_inv @ X.coords

    def from_coords(self, coords) -> AlgebraVector:
        return AlgebraVector(self.group, self._B @ np.asarray(coords, dtype=float))

    def norm(self, coords) -> float:
        c = np.asarray(coords, dtype=float)
        return math.sqrt(float(c @ self.gram @ c))

    # -- group actions in adapted coordinates ---------------------------

    def in_adapted(self, op) -> np.ndarray:
        """Matrix of a linear map on g, given in descriptor coordinates,
        in the adapted basis."""
        return self._B_inv @ op @ self._B

    def adjoint(self, g: GroupElement) -> np.ndarray:
        return self.in_adapted(groups.adjoint_matrix(g))

    def ad(self, X: AlgebraVector) -> np.ndarray:
        return self.in_adapted(groups.ad_matrix(X))

    def psi(self, struct_coords) -> np.ndarray:
        """Psi matrix (series to order 10) of the element with the given
        adapted coordinates."""
        return groups._psi_series(self.ad(self.from_coords(struct_coords)), 10)[0]

    def with_gram(self, gram) -> "ReductiveStructure":
        """Copy with a replaced inner product (used for fault injection)."""
        return replace(self, gram=np.asarray(gram, dtype=float))


# ---------------------------------------------------------------------------
# Construction


def build_reductive(
    group: GroupDescriptor,
    h_basis: Sequence[AlgebraVector],
    seed_m: Sequence[AlgebraVector] | None = None,
    side: Side = Side.G_MOD_H,
    metric_factor: np.ndarray | None = None,
    metric_factor_inv: np.ndarray | None = None,
    subgroup_sampler: Callable[[np.random.Generator], GroupElement] | None = None,
) -> ReductiveStructure:
    """Split g = h + m with m built by Gram-Schmidt from seed vectors.

    The inner product used for orthonormalization is <x, y> = (Mx)'(My)
    with M = metric_factor (identity when omitted), in descriptor
    coordinates; an analytic inverse may be supplied to avoid a linear
    solve when exact basis arithmetic matters. Seeds whose residual
    against the running span falls below 1e-8 are skipped; the standard
    descriptor basis is used when no seeds are given.
    """
    n_G = group.algebra_dim
    n_H = len(h_basis)
    M = None if metric_factor is None else np.asarray(metric_factor, dtype=float)
    M_inv = (
        None if metric_factor_inv is None else np.asarray(metric_factor_inv, dtype=float)
    )

    def transform(c):
        return c if M is None else M @ c

    def untransform(y):
        if M is None:
            return y
        return M_inv @ y if M_inv is not None else np.linalg.solve(M, y)

    # Orthonormalize h in order; verify it is a subalgebra.
    h_t: list[np.ndarray] = []
    for vec in h_basis:
        w = transform(np.array(vec.coords))
        for q in h_t:
            w = w - (q @ w) * q
        nw = float(np.linalg.norm(w))
        if nw < _GS_SKIP_TOL * max(1.0, float(np.linalg.norm(transform(vec.coords)))):
            raise SubalgebraError("h basis vectors are linearly dependent")
        h_t.append(w / nw)
    for i in range(n_H):
        for j in range(i + 1, n_H):
            br = groups.bracket(h_basis[i], h_basis[j])
            y = transform(np.array(br.coords))
            for q in h_t:
                y = y - (q @ y) * q
            if np.linalg.norm(y) > 1e-8 * max(1.0, float(np.linalg.norm(br.coords))):
                raise SubalgebraError(
                    f"h is not closed under bracket at ({i},{j}): "
                    f"residual {np.linalg.norm(y):.3e}"
                )

    if seed_m is None:
        seed_m = [
            AlgebraVector(group, row) for row in np.eye(n_G)
        ]  # standard basis in index order

    accepted = list(h_t)
    m_t: list[np.ndarray] = []
    for vec in seed_m:
        if len(m_t) == n_G - n_H:
            break
        w = transform(np.array(vec.coords))
        scale = float(np.linalg.norm(w))
        for q in accepted:
            w = w - (q @ w) * q
        nw = float(np.linalg.norm(w))
        if nw < _GS_SKIP_TOL * max(1.0, scale):
            continue
        w = w / nw
        accepted.append(w)
        m_t.append(w)
    if len(m_t) < n_G - n_H:
        raise DegenerateSeedError(
            f"seeds span only {len(m_t)} of the {n_G - n_H} m-directions"
        )

    basis = tuple(
        AlgebraVector(group, untransform(y)) for y in list(h_t) + m_t
    )
    return ReductiveStructure(
        group=group,
        side=side,
        n_H=n_H,
        n_Theta=n_G - n_H,
        basis=basis,
        gram=np.eye(n_G),
        subgroup_sampler=subgroup_sampler,
    )


def structure_from_bases(
    group: GroupDescriptor,
    h_basis: Sequence[AlgebraVector],
    m_basis: Sequence[AlgebraVector],
    side: Side,
    subgroup_sampler: Callable[[np.random.Generator], GroupElement] | None = None,
) -> ReductiveStructure:
    """Direct constructor with no orthonormalization or subalgebra checks.

    Needed for models whose symmetry directions are not closed under the
    bracket (the sensor network's degenerate directions); the caller owns
    the validity of the split.
    """
    n_G = group.algebra_dim
    basis = tuple(h_basis) + tuple(m_basis)
    return ReductiveStructure(
        group=group,
        side=side,
        n_H=len(h_basis),
        n_Theta=n_G - len(h_basis),
        basis=basis,
        gram=np.eye(n_G),
        subgroup_sampler=subgroup_sampler,
    )


# ---------------------------------------------------------------------------
# Ad_H invariance check


@dataclass(frozen=True)
class AdInvarianceReport:
    invariant: bool
    worst_norm_deviation: float
    worst_orthogonality_defect: float
    worst_offblock_norm: float
    n_samples: int

    @property
    def worst(self) -> float:
        return max(
            self.worst_norm_deviation,
            self.worst_orthogonality_defect,
            self.worst_offblock_norm,
        )


def check_adH_invariance(
    struct: ReductiveStructure,
    n_samples: int,
    random_state: np.random.Generator | int | None = None,
) -> AdInvarianceReport:
    """Sample h in H and test that Ad_h preserves m, its norms, and the
    h/m block-diagonal form of the adjoint in adapted coordinates."""
    if struct.subgroup_sampler is None:
        raise ValueError("structure has no subgroup sampler")
    rng = np.random.default_rng(random_state)
    n_H, n_T = struct.n_H, struct.n_Theta
    G_m = struct.gram[n_H:, n_H:]
    worst_norm = worst_orth = worst_off = 0.0
    for _ in range(n_samples):
        h = struct.subgroup_sampler(rng)
        A = struct.adjoint(h)
        A_m = A[n_H:, n_H:]
        off = max(
            float(np.abs(A[:n_H, n_H:]).max(initial=0.0)),
            float(np.abs(A[n_H:, :n_H]).max(initial=0.0)),
        )
        worst_off = max(worst_off, off)
        worst_orth = max(
            worst_orth, float(np.abs(A_m.T @ G_m @ A_m - G_m).max())
        )
        for _ in range(_ADH_DIRECTIONS):
            z = rng.standard_normal(n_T)
            z /= np.linalg.norm(z)
            Az = A_m @ z
            dev = abs(
                math.sqrt(float(Az @ G_m @ Az)) - math.sqrt(float(z @ G_m @ z))
            )
            worst_norm = max(worst_norm, dev)
    return AdInvarianceReport(
        invariant=max(worst_norm, worst_orth, worst_off) <= _ADH_TOL,
        worst_norm_deviation=worst_norm,
        worst_orthogonality_defect=worst_orth,
        worst_offblock_norm=worst_off,
        n_samples=n_samples,
    )


# ---------------------------------------------------------------------------
# Coset errors via horizontal lifting


def relative_element(g_ref: GroupElement, g: GroupElement, side: Side) -> GroupElement:
    """g_ref^-1 g on G/H, g g_ref^-1 on H\\G: the group error of g
    against g_ref before any lift."""
    return (g_ref.inverse() @ g) if side == Side.G_MOD_H else (g @ g_ref.inverse())


def raw_error(
    g_ref: GroupElement, g: GroupElement, struct: ReductiveStructure
) -> np.ndarray:
    """Adapted coordinates of log(relative_element(g_ref, g)), unlifted."""
    return struct.coords_of(groups.log(relative_element(g_ref, g, struct.side)))


@dataclass(frozen=True)
class CosetError:
    """Invariant error between an estimate's coset and a reference.

    eta_full is the algebra element Y in m with (G/H side)
    lift = g_ref exp(Y) up to fiber motion, in descriptor coordinates;
    eta_struct are its adapted coordinates (h-block ~ 0 by construction)
    and eta_reduced the m-block.
    """

    eta_full: AlgebraVector
    eta_struct: np.ndarray
    eta_reduced: np.ndarray
    lift: GroupElement
    iterations: int


def coset_error(
    g_ref: GroupElement,
    g_est: GroupElement,
    struct: ReductiveStructure,
) -> CosetError:
    """Horizontally lift g_est onto the cross-section through g_ref.

    Fixed-point iteration on H: kill the h-component of
    log(g_ref^-1 g_est h) (G/H side) or log(h g_est g_ref^-1) (H\\G side).
    """
    left_side = struct.side == Side.G_MOD_H
    base = relative_element(g_ref, g_est, struct.side)
    h_acc = groups.identity_element(struct.group)
    last_residual = math.inf
    for it in range(_LIFT_MAX_ITER + 1):
        arg = (base @ h_acc) if left_side else (h_acc @ base)
        try:
            Y = groups.log(arg)
        except CutLocusError as exc:
            raise LiftFailureError(
                f"horizontal lift left the log domain after {it} iterations: {exc}",
                iterations=it,
                residual=last_residual,
            ) from exc
        c = struct.coords_of(Y)
        h_part = c[: struct.n_H]
        last_residual = float(np.linalg.norm(h_part))
        if last_residual <= _LIFT_TOL:
            lift = (g_est @ h_acc) if left_side else (h_acc @ g_est)
            c = np.array(c)
            return CosetError(
                eta_full=Y,
                eta_struct=c,
                eta_reduced=c[struct.n_H :].copy(),
                lift=lift,
                iterations=it,
            )
        correction = struct.from_coords(
            np.concatenate([-h_part, np.zeros(struct.n_Theta)])
        )
        step = groups.exp(correction)
        h_acc = (h_acc @ step) if left_side else (step @ h_acc)
    raise LiftFailureError(
        f"horizontal lift did not converge in {_LIFT_MAX_ITER} iterations "
        f"(h-residual {last_residual:.3e}); estimate too far from the coset",
        iterations=_LIFT_MAX_ITER,
        residual=last_residual,
    )


def selector_pi(struct: ReductiveStructure) -> np.ndarray:
    """The block matrix [0 I] extracting m-coordinates."""
    return np.hstack(
        [np.zeros((struct.n_Theta, struct.n_H)), np.eye(struct.n_Theta)]
    )


# ---------------------------------------------------------------------------
# S^2 = SO(3)/SO(2) Riemannian cross-check


def _sample_rotation_about_e3(rng: np.random.Generator) -> GroupElement:
    angle = rng.uniform(-math.pi, math.pi)
    coords = np.array([0.0, 0.0, angle])
    return groups.exp(AlgebraVector(groups.so3(), coords))


def sphere_structure() -> ReductiveStructure:
    """SO(3)/SO(2) with h = span(e3^): the unit sphere via g -> g e3."""
    desc = groups.so3()
    h = [AlgebraVector(desc, np.array([0.0, 0.0, 1.0]))]
    return build_reductive(
        desc, h, side=Side.G_MOD_H, subgroup_sampler=_sample_rotation_about_e3
    )


def sphere_point(g: GroupElement) -> np.ndarray:
    """Coset representative point on S^2 (stabilizer of e3)."""
    return g.matrix @ np.array([0.0, 0.0, 1.0])


def sphere_riemannian_check(
    g_ref: GroupElement,
    g_est: GroupElement,
    s2_struct: ReductiveStructure,
) -> tuple[np.ndarray, np.ndarray]:
    """Group coset error vs the closed-form spherical log, both in the
    pushforward basis of the m-block LIVFs. The two agree because SO(3)
    carries a bi-invariant metric and S^2 is naturally reductive."""
    u, v = sphere_point(g_ref), sphere_point(g_est)
    c = float(np.clip(u @ v, -1.0, 1.0))
    if c < -1.0 + 1e-9:
        raise CutLocusError("points are antipodal; spherical log undefined")
    err = coset_error(g_ref, g_est, s2_struct)

    theta = math.acos(c)
    tangent = v - c * u
    nt = float(np.linalg.norm(tangent))
    log_uv = (theta / nt) * tangent if nt > 1e-16 else np.zeros(3)

    # Pushforward of the m-basis LIVFs: d/dt pi(g exp(t E_i)) = g E_i e3.
    e3 = np.array([0.0, 0.0, 1.0])
    frame = np.column_stack(
        [g_ref.matrix @ (b.matrix @ e3) for b in s2_struct.m_basis]
    )
    coords_int, *_ = np.linalg.lstsq(frame, log_uv, rcond=None)
    return err.eta_reduced, coords_int
