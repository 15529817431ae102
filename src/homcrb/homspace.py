"""Reductive homogeneous-space structures.

A ReductiveStructure fixes an ordered basis of the Lie algebra split as
an h-block (the subalgebra of the isotropy/symmetry subgroup H) followed
by an m-block (the complement modeling the tangent space of the coset
space). All Fisher/CRB matrices downstream are expressed in this adapted
basis; the basis is orthonormal, i.e. the inner product on the algebra
is the Euclidean one on adapted coordinates. A set of algebra
directions is a (k, n_G) array of descriptor coordinates, one row per
direction, and the adapted basis is one such array.

Gram-Schmidt runs under an optional factored metric <x, y> = (Mx)'(My)
given in descriptor coordinates. Passing the Ad-matrix of a translation
lets callers obtain Ad_H-invariant complements (the orthogonal complement
of h under the naive coordinate metric is generally *not* reductive).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
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


def translate_directions(directions, G, desc: GroupDescriptor, from_op: str, to_op: str):
    """Directions (rows) to feed a from_op formula so it evaluates to_op
    derivatives at a raw matrix G, via X^L_g = (Ad_g X)^R_g and
    X^R_g = (Ad_{g^-1} X)^L_g; at each matrix of a (B, d, d) stack the
    directions are (B, k, n_G), one set per matrix. Unchanged (and
    shared) when from_op is to_op."""
    if from_op == to_op:
        return directions
    Ad = groups._adjoint(G if to_op == LIVF else groups._inverse_matrix(G, desc), desc)
    return directions @ np.swapaxes(Ad, -1, -2)


_GS_SKIP_TOL = 1e-8
_LIFT_TOL = 1e-10
_LIFT_MAX_ITER = 100
# Ad_H invariance: tolerance on the off-blocks of Ad_h and on how far
# Ad_h restricted to m is from orthogonal in the orthonormal adapted basis.
_ADH_TOL = 1e-8
# Condition number above which a basis or a FIM is numerically singular.
COND_LIMIT = 1e12
# A certificate below this bound clears a matrix without an SVD: a
# tenfold margin over the rounding of the certificate and of the SVD.
_CLEAR_LIMIT = COND_LIMIT / 10
# Spectral radius below which a unit direction of h counts as not rotating
# (a nilpotent one, as a translation): sample_subgroup keeps its length.
_STILL_RATE = 1e-8


def ill_conditioned(A, inverse=None) -> dict[int, float]:
    """{index: condition number} of each matrix of an (n, n) A (index 0)
    or an (N, n, n) stack whose 2-norm condition number is not <=
    COND_LIMIT: np.linalg.cond's, NaN where its SVD does not converge, as
    for a NaN entry.

    A matrix is cleared without an SVD when a certificate bounds its
    condition number below COND_LIMIT / 10: ||A||_F ||A^-1||_F when its
    inverse is given, else lambda_max / lambda_min from eigvalsh when it
    is exactly symmetric and positive definite. Every other matrix (near
    the limit, singular, indefinite, not finite, asymmetric or not
    square) goes to np.linalg.cond, so each verdict and each number is
    the SVD's."""
    A = np.asarray(A)
    stack = A.reshape((-1,) + A.shape[-2:])
    cleared = _certified(stack, inverse)
    if np.count_nonzero(cleared) == len(stack):
        return {}
    rows = np.flatnonzero(~cleared)
    A = stack[rows]
    try:
        conds = np.linalg.cond(A)
    except np.linalg.LinAlgError:  # one matrix fails the whole stack: redo the finite ones
        finite = np.isfinite(A).all(axis=(-2, -1))
        conds = np.where(finite, np.linalg.cond(np.where(finite[:, None, None], A, 0.0)), np.nan)
    return {
        i: cond
        for i, cond in zip(rows.tolist(), conds.tolist())
        if not (math.isfinite(cond) and cond <= COND_LIMIT)
    }


def _spectral_radius(x, d: GroupDescriptor) -> np.ndarray:
    """Largest |eigenvalue| of the algebra matrix of each row of a (B, n)
    coordinate array; the largest over the factors of a product."""
    if d.family == groups.PRODUCT:
        return np.max([_spectral_radius(x[:, c], f) for f, _, c in d.blocks], axis=0)
    flat = d.algebra_basis.reshape(d.algebra_dim, -1)
    W = (x @ flat).reshape(len(x), d.matrix_dim, d.matrix_dim)
    return np.abs(np.linalg.eigvals(W)).max(axis=-1)


def _certified(stack, inverse) -> np.ndarray:
    """Per matrix of an (N, n, n) stack, whether a certificate bounds its
    condition number below _CLEAR_LIMIT (ill_conditioned)."""
    if stack.shape[-1] != stack.shape[-2] or not stack.size:
        return np.zeros(len(stack), dtype=bool)
    if inverse is not None:
        with np.errstate(over="ignore", invalid="ignore"):
            inverse = np.reshape(inverse, stack.shape)
            bound = np.linalg.norm(stack, axis=(-2, -1)) * np.linalg.norm(inverse, axis=(-2, -1))
        return bound < _CLEAR_LIMIT
    if not (stack == stack.mT).all():  # some matrix is asymmetric or has a NaN
        symmetric = (stack == stack.mT).all(axis=(-2, -1))
        cleared = np.zeros(len(stack), dtype=bool)
        if symmetric.any():
            cleared[symmetric] = _certified(stack[symmetric], None)
        return cleared
    try:
        eig = np.linalg.eigvalsh(stack)  # ascending
    except np.linalg.LinAlgError:
        return np.zeros(len(stack), dtype=bool)
    # Divided, not multiplied, so that nothing overflows; a NaN
    # eigenvalue, as of an inf entry, clears nothing.
    return eig[:, -1] / _CLEAR_LIMIT < eig[:, 0]


@dataclass(frozen=True, eq=False)
class ReductiveStructure:
    """Adapted basis of g, one row per basis vector in descriptor
    coordinates: rows [0, n_H) span h, [n_H, n_G) span m. The caller owns
    the validity of the split (build_reductive checks h is a subalgebra)."""

    group: GroupDescriptor
    side: Side
    n_H: int
    basis: np.ndarray
    # Draws from H as a (k, d, d) stack, for a structure whose h does not
    # generate H (sample_subgroup); None draws exp(theta X) over h.
    subgroup_sampler: Callable[[np.random.Generator, int], np.ndarray] | None = None

    def __post_init__(self):
        n_G = self.group.algebra_dim
        # Held column-major, so that basis_matrix is C-contiguous: numpy's
        # matrix-vector product rounds differently for the two layouts,
        # and the outputs pinned in tests/golden use this one.
        B = groups._frozen(np.transpose(self.basis)).T
        if B.shape != (n_G, n_G):
            raise ValueError(f"basis shape {B.shape} != ({n_G}, {n_G})")
        if not 0 <= self.n_H <= n_G:
            raise ValueError(f"n_H = {self.n_H} outside [0, {n_G}]")
        try:
            B_inv = np.linalg.inv(B.T)
        except np.linalg.LinAlgError:  # exactly singular: the SVD below says so
            B_inv = None
        singular = ill_conditioned(B, None if B_inv is None else B_inv.T)
        if singular:
            raise ValueError(f"adapted basis is singular (condition {singular[0]:.3e})")
        object.__setattr__(self, "basis", B)
        object.__setattr__(self, "_B_inv", groups._frozen(B_inv))

    # -- coordinates ---------------------------------------------------

    @property
    def n_Theta(self) -> int:
        return self.group.algebra_dim - self.n_H

    @property
    def basis_matrix(self) -> np.ndarray:
        """Columns are adapted basis vectors in descriptor coordinates."""
        return self.basis.T

    @property
    def h_basis(self) -> np.ndarray:
        return self.basis[: self.n_H]

    @property
    def m_basis(self) -> np.ndarray:
        return self.basis[self.n_H :]

    def coords_of(self, X: AlgebraVector) -> np.ndarray:
        """Adapted coordinates of an algebra element."""
        return self._B_inv @ X.coords

    def from_coords(self, coords) -> AlgebraVector:
        return AlgebraVector(self.group, self.basis_matrix @ np.asarray(coords, float))

    # -- group actions in adapted coordinates ---------------------------

    def in_adapted(self, op) -> np.ndarray:
        """Matrix of a linear map on g, given in descriptor coordinates,
        in the adapted basis; of each map of a (B, n_G, n_G) stack."""
        return self._B_inv @ op @ self.basis_matrix

    def adjoint(self, g: GroupElement) -> np.ndarray:
        return self.in_adapted(groups.adjoint_matrix(g))

    def sample_subgroup(self, rng: np.random.Generator, k: int) -> np.ndarray:
        """A (k, d, d) stack of draws from H, checked for membership once:
        exp(theta X) from one exp stack, with theta uniform on [-pi, pi]
        and X a uniformly random direction of h in adapted coordinates,
        scaled to spectral radius 1 so that every one-parameter subgroup
        it rotates along is swept through angle pi (a direction that does
        not rotate keeps unit length); the identity stack when H is
        trivial; subgroup_sampler's stack when it is set."""
        k = groups._count(k, "k")
        desc = self.group
        if self.subgroup_sampler is not None:
            H = self.subgroup_sampler(rng, k)
        elif self.n_H == 0:
            H = np.tile(np.eye(desc.matrix_dim), (k, 1, 1))
        else:
            u = rng.standard_normal((k, self.n_H))
            theta = rng.uniform(-math.pi, math.pi, (k, 1))
            x = (u / np.linalg.norm(u, axis=1, keepdims=True)) @ self.h_basis
            rate = _spectral_radius(x, desc)[:, None]
            H = groups._exp_stack(theta / np.where(rate > _STILL_RATE, rate, 1.0) * x, desc)
        errors = groups._membership_stack(H, desc)[1]
        if errors:
            raise errors[min(errors)]
        return H

    def psi(self, struct_coords) -> np.ndarray:
        """Psi matrix (series to order 10) of the element with the given
        adapted coordinates."""
        x = self.basis_matrix @ np.asarray(struct_coords, float)
        return groups._psi_series(self.in_adapted(groups._ad(x, self.group)), 10)[0]


# ---------------------------------------------------------------------------
# Construction


def build_reductive(
    group: GroupDescriptor,
    h_basis: Sequence[np.ndarray],
    seed_m: Sequence[np.ndarray] | None = None,
    side: Side = Side.G_MOD_H,
    metric: tuple[np.ndarray, np.ndarray] | None = None,
) -> ReductiveStructure:
    """Split g = h + m with m built by Gram-Schmidt from seed vectors;
    h and the seeds are rows of descriptor coordinates.

    The inner product used for orthonormalization is <x, y> = (Mx)'(My)
    in descriptor coordinates, with metric = (M, M^-1) given as a pair so
    that the basis arithmetic stays exact (identity when omitted). Seeds
    whose residual against the running span falls below 1e-8 are skipped;
    the standard descriptor basis is used when no seeds are given.
    """
    n_G = group.algebra_dim
    n_H = len(h_basis)
    M, M_inv = (None, None) if metric is None else metric

    def transform(c):
        return c if M is None else M @ c

    def untransform(y):
        return y if M is None else M_inv @ y

    # Orthonormalize h in order; verify it is a subalgebra.
    h_vecs = [AlgebraVector(group, vec) for vec in h_basis]
    h_t: list[np.ndarray] = []
    for vec in h_basis:
        w = transform(np.array(vec, dtype=float))
        for q in h_t:
            w = w - (q @ w) * q
        nw = float(np.linalg.norm(w))
        if nw < _GS_SKIP_TOL * max(1.0, float(np.linalg.norm(transform(vec)))):
            raise SubalgebraError("h basis vectors are linearly dependent")
        h_t.append(w / nw)
    for i in range(n_H):
        for j in range(i + 1, n_H):
            br = groups.bracket(h_vecs[i], h_vecs[j])
            y = transform(np.array(br.coords))
            for q in h_t:
                y = y - (q @ y) * q
            if np.linalg.norm(y) > 1e-8 * max(1.0, float(np.linalg.norm(br.coords))):
                raise SubalgebraError(
                    f"h is not closed under bracket at ({i},{j}): "
                    f"residual {np.linalg.norm(y):.3e}"
                )

    if seed_m is None:
        seed_m = np.eye(n_G)  # standard basis in index order

    accepted = list(h_t)
    m_t: list[np.ndarray] = []
    for vec in seed_m:
        if len(m_t) == n_G - n_H:
            break
        w = transform(np.array(vec, dtype=float))
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

    basis = np.array([untransform(y) for y in h_t + m_t])
    return ReductiveStructure(group, side, n_H, basis)


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
    h/m block-diagonal form of the adjoint in adapted coordinates, for
    one stack of n_samples draws. The basis is orthonormal, so the
    largest change of a unit m-vector's length under Ad_h is that of
    A_m's singular values from 1."""
    n_samples = groups._count(n_samples, "n_samples")
    n_H = struct.n_H
    H = struct.sample_subgroup(np.random.default_rng(random_state), n_samples)
    A = struct.in_adapted(groups._adjoint(H, struct.group))
    A_m = A[:, n_H:, n_H:]
    worst_off = max(
        float(np.abs(A[:, :n_H, n_H:]).max(initial=0.0)),
        float(np.abs(A[:, n_H:, :n_H]).max(initial=0.0)),
    )
    worst_orth = float(np.abs(np.swapaxes(A_m, -1, -2) @ A_m - np.eye(struct.n_Theta)).max())
    sigma = np.linalg.svd(A_m, compute_uv=False)
    worst_norm = float(np.abs(sigma - 1.0).max())
    return AdInvarianceReport(
        invariant=max(worst_norm, worst_orth, worst_off) <= _ADH_TOL,
        worst_norm_deviation=worst_norm,
        worst_orthogonality_defect=worst_orth,
        worst_offblock_norm=worst_off,
        n_samples=n_samples,
    )


# ---------------------------------------------------------------------------
# Coset errors via horizontal lifting


def act(g, x, side: Side):
    """g x on G/H, x g on H\\G, for elements or raw matrices: x multiplies
    g on the side H acts on, so for x in H the result stays in g's coset."""
    return (g @ x) if side == Side.G_MOD_H else (x @ g)


def relative_matrix(g_ref: GroupElement, G, side: Side) -> np.ndarray:
    """g_ref^-1 g on G/H, g g_ref^-1 on H\\G, for a raw matrix g or each
    matrix of a (B, d, d) stack: the group error of g against g_ref
    before any lift, so act(g_ref, it, side) is g. Nothing is boxed."""
    return act(groups._inverse_matrix(g_ref.matrix, g_ref.descriptor), G, side)


def raw_error(
    g_ref: GroupElement, g: GroupElement, struct: ReductiveStructure
) -> np.ndarray:
    """Adapted coordinates of the log of relative_matrix(g_ref, g), unlifted."""
    rel = relative_matrix(g_ref, g.matrix, struct.side)
    coords, errors = groups._log_stack(rel[None], struct.group)
    if errors:
        raise errors[0]
    return struct._B_inv @ coords[0]


@dataclass(frozen=True)
class CosetError:
    """Invariant error between an estimate's coset and a reference.

    eta_struct are the adapted coordinates of the algebra element Y in m
    with (G/H side) lift = g_ref exp(Y) up to fiber motion (h-block ~ 0
    by construction), and eta_reduced their m-block. lift is g_est itself
    when it needed no correction. raw holds the adapted coordinates of
    the unlifted error, the lift's first iterate: what raw_error returns.
    """

    eta_struct: np.ndarray
    eta_reduced: np.ndarray
    lift: GroupElement
    iterations: int
    raw: np.ndarray


@dataclass(frozen=True, eq=False)
class CosetErrors:
    """The coset errors of a stack of estimates against one reference,
    one row per estimate (see CosetError). A row whose lift failed is NaN
    in eta_struct, with its exception in errors; raw is NaN too when its
    first log failed. corrections holds each row's accumulated h, set in
    the rows lifted with 1 or more iterations."""

    eta_struct: np.ndarray  # (B, n_G)
    raw: np.ndarray  # (B, n_G)
    iterations: np.ndarray  # (B,)
    errors: dict  # {row: exception}
    corrections: np.ndarray  # (B, d, d)


def coset_errors(
    g_ref: GroupElement, estimates, struct: ReductiveStructure
) -> CosetErrors:
    """Horizontally lift each matrix of a (B, d, d) stack of estimates
    onto the cross-section through g_ref; the one lift, run on the rows
    still active.

    Fixed-point iteration on H: kill the h-component of
    log(g_ref^-1 g_est h) (G/H side) or log(h g_est g_ref^-1) (H\\G side).
    A row leaves the stack with LiftFailureError when its log reaches the
    cut locus or it has not converged after 100 iterations; another
    package error of its log (DomainError) is kept as it is.
    """
    side, desc, n_H = struct.side, struct.group, struct.n_H
    base = relative_matrix(g_ref, np.asarray(estimates, dtype=float), side)
    B = len(base)
    eta = np.full((B, desc.algebra_dim), np.nan)
    iterations = np.zeros(B, dtype=int)
    residual = [math.inf] * B  # per row, its last h-residual
    h_acc = np.empty_like(base)
    errors = {}
    # The stack rows still lifting, their relative elements and their
    # accumulated h (None until the first correction).
    rows, arg, h = np.arange(B), base, None
    for it in range(_LIFT_MAX_ITER + 1):
        y, failed = groups._log_stack(arg, desc)
        c = (struct._B_inv @ y[..., None])[..., 0]
        if it == 0:
            raw = c
        h_part = c[:, :n_H]
        going, done = [], []
        norms = np.sqrt(np.vecdot(h_part, h_part)).tolist()
        for i, (r, norm) in enumerate(zip(rows.tolist(), norms)):
            if i in failed:
                exc = failed[i]
                if isinstance(exc, CutLocusError):
                    lift_exc = LiftFailureError(
                        f"horizontal lift left the log domain after {it} iterations: {exc}",
                        iterations=it,
                        residual=residual[r],
                    )
                    lift_exc.__cause__, exc = exc, lift_exc
                errors[r] = exc
                continue
            residual[r] = norm
            (done if norm <= _LIFT_TOL else going).append(i)
        if done:
            eta[rows[done]] = c[done]
            iterations[rows[done]] = it
            if h is not None:
                h_acc[rows[done]] = h[done]
        if not going:
            break
        if len(going) < len(rows):
            rows, base, h_part = rows[going], base[going], h_part[going]
            h = None if h is None else h[going]
        coords = np.zeros((len(rows), desc.algebra_dim))
        coords[:, :n_H] = -h_part
        correction = groups._exp_stack((struct.basis_matrix @ coords[..., None])[..., 0], desc)
        h = correction if h is None else act(h, correction, side)
        arg = act(base, h, side)
    else:
        for r in rows.tolist():
            errors[r] = LiftFailureError(
                f"horizontal lift did not converge in {_LIFT_MAX_ITER} iterations "
                f"(h-residual {residual[r]:.3e}); estimate too far from the coset",
                iterations=_LIFT_MAX_ITER,
                residual=residual[r],
            )
    return CosetErrors(eta, raw, iterations, errors, h_acc)


def coset_error(
    g_ref: GroupElement,
    g_est: GroupElement,
    struct: ReductiveStructure,
) -> CosetError:
    """Horizontally lift g_est onto the cross-section through g_ref: a
    stack of one through coset_errors, whose failure is raised here."""
    out = coset_errors(g_ref, g_est.matrix[None], struct)
    if out.errors:
        raise out.errors[0]
    lift = g_est
    if out.iterations[0] > 0:
        lift = GroupElement(
            struct.group, act(g_est.matrix, out.corrections[0], struct.side)
        )
    eta = out.eta_struct[0]
    return CosetError(
        eta_struct=eta,
        eta_reduced=eta[struct.n_H :].copy(),
        lift=lift,
        iterations=int(out.iterations[0]),
        raw=out.raw[0],
    )


def selector_pi(struct: ReductiveStructure) -> np.ndarray:
    """The block matrix [0 I] extracting m-coordinates."""
    return np.hstack(
        [np.zeros((struct.n_Theta, struct.n_H)), np.eye(struct.n_Theta)]
    )


# ---------------------------------------------------------------------------
# S^2 = SO(3)/SO(2) Riemannian cross-check


def sphere_structure() -> ReductiveStructure:
    """SO(3)/SO(2) with h = span(e3^): the unit sphere via g -> g e3."""
    return build_reductive(groups.so3(), np.eye(3)[2:])


def sphere_riemannian_checks(
    refs: np.ndarray, estimates: np.ndarray, s2_struct: ReductiveStructure
) -> tuple[np.ndarray, np.ndarray]:
    """Group coset errors against the closed-form spherical logs, for a
    (B, 3, 3) stack of reference rotations and one of estimates: the
    (B, 2) m-coordinates of each lift and of each log in the pushforward
    basis of the m-block LIVFs at its reference. The two agree because
    SO(3) carries a bi-invariant metric and S^2 is naturally reductive.

    The relative elements a^-1 b lift from the identity as one
    coset_errors stack, and the 3 x 2 frame systems are solved together.
    The lowest row that is antipodal (CutLocusError) or whose lift fails
    raises."""
    e3 = np.array([0.0, 0.0, 1.0])
    u, v = refs[..., 2], estimates[..., 2]  # the points g e3 on S^2
    c = np.clip(np.vecdot(u, v), -1.0, 1.0)
    identity = groups.identity_element(s2_struct.group)
    lifted = coset_errors(identity, refs.transpose(0, 2, 1) @ estimates, s2_struct)
    errors = dict(lifted.errors)
    for i in np.flatnonzero(c < -1.0 + 1e-9).tolist():
        errors[i] = CutLocusError("points are antipodal; spherical log undefined")
    if errors:
        raise errors[min(errors)]

    tangent = v - c[:, None] * u
    nt = np.sqrt(np.vecdot(tangent, tangent))
    scale = np.divide(np.arccos(c), nt, out=np.zeros_like(nt), where=nt > 1e-16)
    log_uv = scale[:, None] * tangent

    # Pushforward of the m-basis LIVFs: d/dt pi(g exp(t E_i)) = g E_i e3.
    desc = s2_struct.group
    pushed = np.array([groups.wedge(b, desc) @ e3 for b in s2_struct.m_basis])
    frame = refs @ pushed.T  # (B, 3, 2)
    normal = frame.transpose(0, 2, 1)
    coords_int = np.linalg.solve(normal @ frame, normal @ log_uv[..., None])[..., 0]
    return lifted.eta_struct[:, s2_struct.n_H :], coords_int


def sphere_riemannian_check(
    g_ref: GroupElement,
    g_est: GroupElement,
    s2_struct: ReductiveStructure,
) -> tuple[np.ndarray, np.ndarray]:
    """sphere_riemannian_checks of one pair: (group m-error, spherical
    log coordinates)."""
    eta, coords = sphere_riemannian_checks(g_ref.matrix[None], g_est.matrix[None], s2_struct)
    return eta[0], coords[0]
