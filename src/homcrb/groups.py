"""Matrix Lie group primitives.

Group elements are square real matrices tagged with a descriptor that
carries the matrix dimension and an ordered basis {E_i} of the Lie
algebra. Vectors in the algebra are identified with their coordinates in
that basis (the vee form); wedge is the inverse map. Closed-form exp/log
are provided for SO(3), SE(2) and SE(3); GL(n)+ (and unipotent subgroups
used for translation groups) fall back to dense scaling-and-squaring.

Each operation is a kernel on raw arrays, and a product's kernel runs its
factors as stacks, one per factor family. A public function boxes the
kernel's result once, so a GroupElement is validated where it leaves the
API, not per factor. Stack kernels (_exp_stack, _log_stack,
_membership_stack) run the same closed forms over a leading axis of rows,
the trials of a campaign or the factors of a product.

Conventions: SE(2)/SE(3) coordinates are ordered rotation-first, i.e.
X = (omega, v) with wedge(X) = [[omega^, v], [0, 0]].
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable

import numpy as np
from scipy.linalg import expm, logm
from scipy.special import bernoulli

from .exceptions import (
    BasisClosureError,
    CutLocusError,
    DomainError,
    EvaluationError,
    HomCrbError,
    NotInAlgebraError,
)

# Families with dedicated closed forms; everything else goes through expm/logm.
SO3, SE2, SE3, GLN_PLUS, PRODUCT = "SO3", "SE2", "SE3", "GLnPlus", "Product"

_BRACKET_TOL = 1e-10
_VEE_RESIDUAL_TOL = 1e-6
_CUT_LOCUS_MARGIN = 1e-6
_SMALL_ANGLE = 1e-4
# Within this distance of pi, the SO(3) log's theta / sin(theta), with
# theta from acos of the trace, loses digits as 1e-16 / (pi - theta)^2,
# and so does the 1 + cos(theta) of the SE(3) log's Jacobian: both switch
# to forms that keep full precision there.
_NEAR_PI = 0.1

# Derivative operators: "livf" differentiates t -> f(g exp(tX)), "rivf"
# differentiates t -> f(exp(tX) g).
LIVF, RIVF = "livf", "rivf"


def _frozen(a) -> np.ndarray:
    a = np.ascontiguousarray(np.asarray(a, dtype=float))
    a.setflags(write=False)
    return a


def _layout(factors):
    """(factor, matrix rows, coordinates) per factor of a product, and the
    product's matrix and algebra dimensions."""
    blocks, r, c = [], 0, 0
    for f in factors:
        blocks.append((f, slice(r, r + f.matrix_dim), slice(c, c + f.algebra_dim)))
        r, c = r + f.matrix_dim, c + f.algebra_dim
    return tuple(blocks), r, c


@dataclass(frozen=True, eq=False)
class GroupDescriptor:
    """A matrix Lie group: name tag, matrix size, and ordered algebra basis.
    A product keeps only its factors and their `blocks`, one
    (factor, matrix rows, coordinates) per factor; its basis is None."""

    name: str
    family: str
    matrix_dim: int
    algebra_dim: int
    algebra_basis: np.ndarray | None  # (n_G, d, d), read-only; None for a product
    factors: tuple["GroupDescriptor", ...] = ()
    blocks: tuple = field(init=False, repr=False)  # set from factors

    def __post_init__(self):
        blocks, d_sum, n_sum = _layout(self.factors)
        object.__setattr__(self, "blocks", blocks)
        n, d = self.algebra_dim, self.matrix_dim
        if self.family == PRODUCT:
            if self.algebra_basis is not None:
                raise ValueError("a product keeps only its factors, not a dense basis")
            if (d, n) != (d_sum, n_sum):
                raise ValueError("product dimensions != sums of factor dimensions")
            return
        object.__setattr__(self, "algebra_basis", _frozen(self.algebra_basis))
        if self.algebra_basis.shape != (n, d, d):
            raise ValueError(
                f"algebra basis shape {self.algebra_basis.shape} != ({n}, {d}, {d})"
            )
        flat = self.algebra_basis.reshape(n, -1)
        gram = flat @ flat.T
        if np.linalg.matrix_rank(gram) < n:
            raise ValueError("algebra basis matrices are linearly dependent")
        try:
            structure_constants(self)
        except BasisClosureError as exc:
            raise ValueError(str(exc)) from exc


def block_diagonal(parts) -> np.ndarray:
    """Square matrices placed corner to corner on the diagonal, zeros
    elsewhere: a product-group matrix from its factors' blocks."""
    out = np.zeros((sum(len(p) for p in parts),) * 2)
    k = 0
    for p in parts:
        out[k : k + len(p), k : k + len(p)] = p
        k += len(p)
    return out


@lru_cache(maxsize=None)
def _vee_solver(descriptor: GroupDescriptor):
    """Least-squares projector onto the algebra basis (cached per descriptor)."""
    flat = descriptor.algebra_basis.reshape(descriptor.algebra_dim, -1)
    gram = flat @ flat.T
    proj = np.linalg.solve(gram, flat)  # coords = proj @ X.ravel()
    return flat, proj


def _vee_lstsq(X, descriptor: GroupDescriptor):
    """Coordinates and least-squares residual of each matrix in a
    (..., d, d) stack."""
    flat, proj = _vee_solver(descriptor)
    x = np.asarray(X, dtype=float)
    x = x.reshape(x.shape[:-2] + (-1,))
    coords = x @ proj.T
    return coords, np.linalg.norm(coords @ flat - x, axis=-1)


@lru_cache(maxsize=None)
def structure_constants(descriptor: GroupDescriptor) -> np.ndarray:
    """(n, n, n) tensor C with C[k] = ad_{E_k}, so ad_X = sum_k X^k C[k],
    for a group that is not a product (a product's ad is block diagonal).

    Every bracket [E_i, E_j] is projected at once; BasisClosureError is
    raised when one leaves the span.
    """
    E = descriptor.algebra_basis
    EE = E[:, None] @ E  # [i, j] = E_i E_j
    br = EE - EE.swapaxes(0, 1)
    coords, res = _vee_lstsq(br, descriptor)
    bad = res > _BRACKET_TOL * np.maximum(1.0, np.abs(br).max(axis=(-2, -1)))
    if bad.any():
        i, j = np.argwhere(bad)[0]  # bad is symmetric, so i < j
        raise BasisClosureError(
            f"basis not closed under bracket at ({i},{j}), residual {res[i, j]:.2e}"
        )
    return _frozen(coords.transpose(0, 2, 1))  # C[i, :, j] = vee([E_i, E_j])


@dataclass(frozen=True, eq=False)
class GroupElement:
    """A point on the group: square matrix plus its descriptor. `defect`
    is the rotation-block defect the membership test measured (0 for
    GL(n)+); manifold_defect reports it."""

    descriptor: GroupDescriptor
    matrix: np.ndarray
    defect: float = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "matrix", _frozen(self.matrix))
        d = self.descriptor.matrix_dim
        if self.matrix.shape != (d, d):
            raise ValueError(f"matrix shape {self.matrix.shape} != ({d}, {d})")
        # Before any membership test: a NaN defect compares False, and det
        # warns on non-finite input.
        if not np.isfinite(self.matrix).all():
            raise ValueError("matrix has non-finite entries")
        object.__setattr__(
            self, "defect", _check_membership(self.matrix, self.descriptor)
        )

    def inverse(self) -> "GroupElement":
        return GroupElement(self.descriptor, _inverse_matrix(self.matrix, self.descriptor))

    def __matmul__(self, other: "GroupElement") -> "GroupElement":
        if other.descriptor is not self.descriptor:
            raise ValueError("cannot compose elements of different groups")
        return GroupElement(self.descriptor, self.matrix @ other.matrix)


@dataclass(frozen=True, eq=False)
class AlgebraVector:
    """Coordinates of a Lie algebra element w.r.t. the descriptor basis."""

    descriptor: GroupDescriptor
    coords: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "coords", _frozen(self.coords))
        if self.coords.shape != (self.descriptor.algebra_dim,):
            raise ValueError(
                f"coords length {self.coords.shape} != ({self.descriptor.algebra_dim},)"
            )

    @property
    def matrix(self) -> np.ndarray:
        return wedge(self.coords, self.descriptor)

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.coords))


@dataclass(frozen=True)
class PsiMatrix:
    """Truncated log-derivative operator Psi_X in the descriptor basis."""

    matrix: np.ndarray
    source: AlgebraVector
    truncation_order: int
    truncation_error_bound: float


# ---------------------------------------------------------------------------
# Membership checks


@lru_cache(maxsize=None)
def _eye(k: int) -> np.ndarray:
    return _frozen(np.eye(k))


def _det(M):
    """Determinant of a matrix or of each matrix of a (B, n, n) stack, by
    cofactor expansion up to 3 x 3: a LAPACK call costs several times
    more on these sizes."""
    n = M.shape[-1]
    if n not in (2, 3):
        return np.linalg.det(M)
    # Python floats for one matrix, (B,) arrays for a stack: the same
    # operations either way.
    entries = M.tolist() if M.ndim == 2 else M.transpose(1, 2, 0)
    if n == 2:
        (a, b), (c, d) = entries
        return a * d - b * c
    (a, b, c), (d, e, f), (g, h, i) = entries
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def _rotation_defect(R):
    """max |R'R - I| and |det R - 1|, for one matrix or per matrix of a stack."""
    if R.ndim == 2:
        return max(float(np.abs(R.T @ R - _eye(R.shape[0])).max()), abs(_det(R) - 1.0))
    gap = np.abs(R.transpose(0, 2, 1) @ R - _eye(R.shape[-1])).reshape(len(R), -1)
    return np.maximum(gap.max(axis=1), np.abs(_det(R) - 1.0))


def _check_membership(mat: np.ndarray, descriptor: GroupDescriptor) -> float:
    """Raises ValueError unless mat is in the group to 1e-9; returns the
    rotation-block defect (the largest over product factors, 0 for GL(n)+)."""
    fam = descriptor.family
    if fam == SO3:
        defect = _rotation_defect(mat)
        if defect > 1e-9:
            raise ValueError("matrix is not in SO(3) to 1e-9")
        return defect
    if fam in (SE2, SE3):
        d = descriptor.matrix_dim
        defect = _rotation_defect(mat[: d - 1, : d - 1])
        if defect > 1e-9:
            raise ValueError(f"rotation block is not in SO({d - 1}) to 1e-9")
        if np.abs(mat[-1] - _eye(d)[-1]).max() > 1e-9:
            raise ValueError("bottom row must be (0, ..., 0, 1)")
        return defect
    if fam == GLN_PLUS:
        if _det(mat) <= 0:
            raise ValueError("determinant must be positive")
        # The one proper GL(n)+ subgroup is translation_group: I + its span.
        d, n = descriptor.matrix_dim, descriptor.algebra_dim
        residual = _vee_lstsq(mat - _eye(d), descriptor)[1] if d * d > n else 0.0
        if residual > 1e-9:
            raise ValueError("matrix is not a translation: g - I leaves the span")
        return 0.0
    if fam == PRODUCT:
        defects, errors = _family_membership(mat[None], descriptor)
        if errors:
            raise errors[0]
        return float(defects[0])
    raise ValueError(f"unknown group family {fam!r}")


def manifold_defect(g: GroupElement) -> float:
    """Distance from the rotation-block constraints (0 for GL(n)+), as
    measured when g was constructed."""
    return g.defect


def _inverse_matrix(mat: np.ndarray, descriptor: GroupDescriptor) -> np.ndarray:
    fam = descriptor.family
    if fam == SO3:
        return mat.T.copy()
    if fam in (SE2, SE3):
        d = descriptor.matrix_dim
        out = _eye(d).copy()
        R = mat[: d - 1, : d - 1]
        out[: d - 1, : d - 1] = R.T
        out[: d - 1, -1] = -R.T @ mat[: d - 1, -1]
        return out
    if fam == PRODUCT:
        return block_diagonal(
            [_inverse_matrix(mat[rows, rows], f) for f, rows, _ in descriptor.blocks]
        )
    return np.linalg.inv(mat)


# ---------------------------------------------------------------------------
# Descriptor factories


def hat(v) -> np.ndarray:
    """Skew matrix of a 3-vector, or of each row of a (B, 3) array:
    hat(v) @ w = v x w."""
    v = np.asarray(v, dtype=float)
    if v.ndim == 1:
        x, y, z = v
        return np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])
    W = np.zeros(v.shape[:-1] + (3, 3))
    x, y, z = v[..., 0], v[..., 1], v[..., 2]
    W[..., 0, 1], W[..., 0, 2] = -z, y
    W[..., 1, 0], W[..., 1, 2] = z, -x
    W[..., 2, 0], W[..., 2, 1] = -y, x
    return W


@lru_cache(maxsize=None)
def so3() -> GroupDescriptor:
    basis = np.stack([hat(e) for e in np.eye(3)])
    return GroupDescriptor(SO3, SO3, 3, 3, basis)


@lru_cache(maxsize=None)
def se2() -> GroupDescriptor:
    # Coordinates (omega, vx, vy).
    E = np.zeros((3, 3, 3))
    E[0, 0, 1], E[0, 1, 0] = -1.0, 1.0
    E[1, 0, 2] = 1.0
    E[2, 1, 2] = 1.0
    return GroupDescriptor(SE2, SE2, 3, 3, E)


@lru_cache(maxsize=None)
def se3() -> GroupDescriptor:
    # Coordinates (omega_1..3, v_1..3).
    E = np.zeros((6, 4, 4))
    for i, e in enumerate(np.eye(3)):
        E[i, :3, :3] = hat(e)
        E[3 + i, i, 3] = 1.0
    return GroupDescriptor(SE3, SE3, 4, 6, E)


@lru_cache(maxsize=None)
def glnplus(n: int) -> GroupDescriptor:
    """GL(n)+ with the matrix-unit basis in row-major order."""
    E = np.zeros((n * n, n, n))
    for i in range(n):
        for j in range(n):
            E[i * n + j, i, j] = 1.0
    return GroupDescriptor(f"GL({n})+", GLN_PLUS, n, n * n, E)


@lru_cache(maxsize=None)
def translation_group(d: int) -> GroupDescriptor:
    """(R^d, +) embedded as unipotent matrices I + t in GL(d+1)+; an
    element's g - I must lie in the translation span."""
    E = np.zeros((d, d + 1, d + 1))
    for i in range(d):
        E[i, i, d] = 1.0
    return GroupDescriptor(f"T({d})<GL({d + 1})+", GLN_PLUS, d + 1, d, E)


def product_group(factors, name: str | None = None) -> GroupDescriptor:
    """Block-diagonal product; built and validated once per (factors, name)."""
    return _product_group(tuple(factors), name)


@lru_cache(maxsize=None)
def _product_group(factors, name):
    name = name or " x ".join(f.name for f in factors)
    _, d, n = _layout(factors)
    return GroupDescriptor(name, PRODUCT, d, n, None, factors)


def identity_element(descriptor: GroupDescriptor) -> GroupElement:
    return GroupElement(descriptor, np.eye(descriptor.matrix_dim))


# ---------------------------------------------------------------------------
# wedge / vee


def wedge(v, descriptor: GroupDescriptor) -> np.ndarray:
    """Map coordinates to the algebra matrix sum_i v^i E_i (block diagonal
    for a product)."""
    v = np.asarray(v, dtype=float)
    if v.shape != (descriptor.algebra_dim,):
        raise ValueError(
            f"coordinate vector length {v.shape} != ({descriptor.algebra_dim},)"
        )
    if descriptor.family == PRODUCT:
        return block_diagonal([wedge(v[cols], f) for f, _, cols in descriptor.blocks])
    return np.tensordot(v, descriptor.algebra_basis, axes=1)


def vee(X, descriptor: GroupDescriptor) -> np.ndarray:
    """Coordinates of an algebra matrix (least squares against the basis,
    block by block for a product, whose residual counts off-block entries)."""
    X = np.asarray(X, dtype=float)
    if X.shape != (descriptor.matrix_dim,) * 2:
        raise ValueError(f"matrix shape {X.shape} incompatible with descriptor")
    if descriptor.family == PRODUCT:
        blocks = descriptor.blocks
        coords = np.concatenate([_vee_lstsq(X[r, r], f)[0] for f, r, _ in blocks])
        residual = np.linalg.norm(X - wedge(coords, descriptor))
    else:
        coords, residual = _vee_lstsq(X, descriptor)
    if residual > _VEE_RESIDUAL_TOL * max(1.0, float(np.linalg.norm(X))):
        raise NotInAlgebraError(
            f"matrix is not in the algebra span: residual {residual:.3e}"
        )
    return coords


def bracket(X: AlgebraVector, Y: AlgebraVector) -> AlgebraVector:
    d = X.descriptor
    A, B = X.matrix, Y.matrix
    return AlgebraVector(d, vee(A @ B - B @ A, d))


# ---------------------------------------------------------------------------
# exp


def _so3_terms(omega):
    """(W, W^2, a, b, c) for W = hat(omega), theta = |omega|: a = sin t / t,
    b = (1 - cos t) / t^2, c = (t - sin t) / t^3, by 4th-order Taylor near
    0. exp(W) = I + a W + b W^2; the left Jacobian is I + b W + c W^2."""
    theta = math.sqrt(omega @ omega)  # np.linalg.norm's arithmetic
    W = hat(omega)
    if theta < _SMALL_ANGLE:
        t2 = theta * theta
        a = 1.0 - t2 / 6.0 + t2 * t2 / 120.0
        b = 0.5 - t2 / 24.0 + t2 * t2 / 720.0
        c = 1.0 / 6.0 - t2 / 120.0 + t2 * t2 / 5040.0
    else:
        a = math.sin(theta) / theta
        b = (1.0 - math.cos(theta)) / theta**2
        c = (theta - math.sin(theta)) / theta**3
    return W, W @ W, a, b, c


def _so3_left_jacobian_inv(omega) -> np.ndarray:
    theta = math.sqrt(omega @ omega)
    W = hat(omega)
    if theta < _SMALL_ANGLE:
        c = 1.0 / 12.0
    elif math.pi - theta < _NEAR_PI:
        # (1 + cos) / sin = sin / (1 - cos), without the cancellation in 1 + cos.
        c = 1.0 / theta**2 - math.sin(theta) / (2.0 * theta * (1.0 - math.cos(theta)))
    else:
        c = 1.0 / theta**2 - (1.0 + math.cos(theta)) / (
            2.0 * theta * math.sin(theta)
        )
    return _eye(3) - 0.5 * W + c * (W @ W)


def _se2_V(theta: float) -> np.ndarray:
    if abs(theta) < _SMALL_ANGLE:
        t2 = theta * theta
        a = 1.0 - t2 / 6.0 + t2 * t2 / 120.0
        b = theta / 2.0 - theta * t2 / 24.0
    else:
        a = math.sin(theta) / theta
        b = (1.0 - math.cos(theta)) / theta
    return np.array([[a, -b], [b, a]])


def exp(X: AlgebraVector) -> GroupElement:
    """Group exponential; closed form per family, expm fallback for GL(n)+."""
    return GroupElement(X.descriptor, _exp(X.coords, X.descriptor))


def _exp(x, d: GroupDescriptor) -> np.ndarray:
    fam = d.family
    if fam == SO3:
        W, W2, a, b, _ = _so3_terms(x)
        return _eye(3) + a * W + b * W2
    if fam == SE2:
        theta, v = float(x[0]), x[1:]
        c, s = math.cos(theta), math.sin(theta)
        M = _eye(3).copy()
        M[:2, :2] = [[c, -s], [s, c]]
        M[:2, 2] = _se2_V(theta) @ v
        return M
    if fam == SE3:
        omega, v = x[:3], x[3:]
        W, W2, a, b, c = _so3_terms(omega)
        M = _eye(4).copy()
        M[:3, :3] = _eye(3) + a * W + b * W2
        M[:3, 3] = (_eye(3) + b * W + c * W2) @ v
        return M
    if fam == PRODUCT:
        return _exp_stack(x[None], d)[0]
    return expm(wedge(x, d))


# ---------------------------------------------------------------------------
# log


def _so3_log(R) -> np.ndarray:
    cos_theta = min(1.0, max(-1.0, 0.5 * (float(np.trace(R)) - 1.0)))
    theta = math.acos(cos_theta)
    if math.pi - theta < _CUT_LOCUS_MARGIN:
        raise CutLocusError(
            f"rotation angle {theta:.9f} within {_CUT_LOCUS_MARGIN} of pi"
        )
    skew = 0.5 * np.array([R[2, 1] - R[1, 2], R[0, 2] - R[2, 0], R[1, 0] - R[0, 1]])
    if theta < _SMALL_ANGLE:
        t2 = theta * theta
        return (1.0 + t2 / 6.0 + 7.0 * t2 * t2 / 360.0) * skew
    if math.pi - theta < _NEAR_PI:
        return _so3_log_near_pi(R, cos_theta, skew)
    return (theta / math.sin(theta)) * skew


def _so3_log_near_pi(R, cos_theta: float, skew: np.ndarray) -> np.ndarray:
    """theta * axis with the axis from the symmetric part of R, which is
    (1 - cos) a a' + cos I, and its sign and sin(theta) from the skew part
    (sin) a: both to full precision where sin(theta) -> 0."""
    S = 0.5 * (R + R.T) - cos_theta * _eye(3)
    k = int(np.argmax(np.diag(S)))
    axis = S[:, k] / math.sqrt(S[k, k] * (1.0 - cos_theta))
    sin_theta = float(axis @ skew)
    if sin_theta < 0.0:
        axis, sin_theta = -axis, -sin_theta
    return math.atan2(sin_theta, cos_theta) * axis


def log(g: GroupElement) -> AlgebraVector:
    """Principal group logarithm; raises CutLocusError near angle pi."""
    return AlgebraVector(g.descriptor, _log(g.matrix, g.descriptor))


def _log(mat: np.ndarray, d: GroupDescriptor) -> np.ndarray:
    fam = d.family
    if fam == SO3:
        return _so3_log(mat)
    if fam == SE2:
        theta = math.atan2(mat[1, 0], mat[0, 0])
        if math.pi - abs(theta) < _CUT_LOCUS_MARGIN:
            raise CutLocusError(f"rotation angle {theta:.9f} within margin of pi")
        v = np.linalg.solve(_se2_V(theta), mat[:2, 2])
        return np.concatenate([[theta], v])
    if fam == SE3:
        omega = _so3_log(mat[:3, :3])
        v = _so3_left_jacobian_inv(omega) @ mat[:3, 3]
        return np.concatenate([omega, v])
    if fam == PRODUCT:
        coords, errors = _log_stack(mat[None], d)
        if errors:
            raise errors[0]
        return coords[0]
    # GL(n)+: dense principal log; real-negative eigenvalues have no real log.
    eigvals = np.linalg.eigvals(mat)
    if np.any((eigvals.real < 0) & (np.abs(eigvals.imag) < 1e-12)):
        raise DomainError("matrix has real-negative eigenvalues; principal log undefined")
    L = logm(mat)
    if np.abs(L.imag).max() > 1e-9:
        raise DomainError("matrix log is not real")
    return vee(L.real, d)


# ---------------------------------------------------------------------------
# Adjoint representations


def adjoint_matrix(g: GroupElement) -> np.ndarray:
    """Matrix of Ad_g: columns are vee(g E_i g^-1)."""
    return _adjoint(g.matrix, g.descriptor)


def _adjoint(mat: np.ndarray, descriptor: GroupDescriptor) -> np.ndarray:
    """Ad of a group matrix. A product's is block diagonal, one factor's
    Ad per block, so no (n_G, d, d) conjugate is formed; other families
    conjugate the whole basis and project it at once."""
    if descriptor.family == PRODUCT:
        return block_diagonal(
            [_adjoint(mat[rows, rows], f) for f, rows, _ in descriptor.blocks]
        )
    M = mat @ descriptor.algebra_basis @ _inverse_matrix(mat, descriptor)
    coords, residual = _vee_lstsq(M, descriptor)
    bad = residual > _VEE_RESIDUAL_TOL * np.maximum(
        1.0, np.linalg.norm(M, axis=(-2, -1))
    )
    if bad.any():
        raise BasisClosureError(
            f"Ad_g left the algebra span: residual {residual[bad][0]:.3e}"
        )
    return coords.T


def ad_matrix(X: AlgebraVector) -> np.ndarray:
    """Matrix of ad_X (columns vee([X^, E_i])) from the cached structure
    constants; a product's is block diagonal."""
    return _ad(X.coords, X.descriptor)


def _ad(x, descriptor: GroupDescriptor) -> np.ndarray:
    if descriptor.family == PRODUCT:
        return block_diagonal([_ad(x[cols], f) for f, _, cols in descriptor.blocks])
    return np.tensordot(x, structure_constants(descriptor), axes=1)


def ad_squared_sum(rows, descriptor: GroupDescriptor) -> np.ndarray:
    """sum_r ad_{x_r}^2 over the rows x_r of a (k, n) array; a product's is
    block diagonal, so no (k, n, n) stack of the whole product is formed."""
    if descriptor.family == PRODUCT:
        blocks = descriptor.blocks
        return block_diagonal([ad_squared_sum(rows[:, c], f) for f, _, c in blocks])
    ad = _ad(rows, descriptor)
    return (ad @ ad).sum(axis=0)


# ---------------------------------------------------------------------------
# Psi (derivative of the log map) via the Bernoulli series


@lru_cache(maxsize=None)
def _bernoulli_even(order: int) -> tuple[float, ...]:
    """beta_{2n}/(2n)! for n = 1..order//2 (even Bernoulli numbers only)."""
    nmax = order // 2
    b = bernoulli(2 * nmax)
    return tuple(float(b[2 * n]) / math.factorial(2 * n) for n in range(1, nmax + 1))


def _psi_series(ad: np.ndarray, order: int) -> tuple[np.ndarray, np.ndarray]:
    """(I + ad/2 + sum_n beta_{2n}/(2n)! ad^{2n}, ad^{2 nmax}) for the
    even terms n = 1..nmax = order // 2."""
    n = ad.shape[0]
    out = np.eye(n) + 0.5 * ad
    ad2 = ad @ ad
    power = np.eye(n)
    for coeff in _bernoulli_even(order):
        power = power @ ad2
        out = out + coeff * power
    return out, power


def psi_matrix(X: AlgebraVector, order: int = 10) -> PsiMatrix:
    """Psi_X = I + ad_X/2 + sum_n beta_{2n}/(2n)! ad_X^{2n}, truncated.

    The even-series form never references beta_1, so no sign convention is
    needed. The bound on the dropped term (next even power) is reported.
    """
    if order < 2:
        raise ValueError("order must be >= 2")
    ad = ad_matrix(X)
    out, power = _psi_series(ad, order)
    # Magnitude of the first neglected even term.
    next_coeff = _bernoulli_even(order + 2)[-1]
    next_term = float(np.linalg.norm(power @ (ad @ ad), 2)) * abs(next_coeff)
    return PsiMatrix(out, X, order, next_term)


# ---------------------------------------------------------------------------
# Invariant vector field derivatives (finite differences)


def default_step(g: GroupElement) -> float:
    return 1e-6 * (1.0 + float(np.linalg.norm(g.matrix)))


def central_difference(
    fn: Callable[[GroupElement], float | np.ndarray],
    g: GroupElement,
    x: np.ndarray,
    h: float,
    op: str,
) -> float | np.ndarray:
    """(fn(g+) - fn(g-)) / 2h with g+- = g exp(+-hX) for op "livf" and
    exp(+-hX) g for "rivf", where X has coordinates x in g's descriptor;
    fn may return an array. Raises EvaluationError on a non-finite result."""
    d = g.descriptor
    if np.shape(x) != (d.algebra_dim,):
        raise ValueError(f"direction length {np.shape(x)} != ({d.algebra_dim},)")

    def point(t: float) -> GroupElement:
        e = _exp(t * x, d)
        return GroupElement(d, g.matrix @ e if op == LIVF else e @ g.matrix)

    f_plus, f_minus = fn(point(h)), fn(point(-h))
    # Checked before subtracting: inf - inf would warn, then read as NaN.
    if not (np.all(np.isfinite(f_plus)) and np.all(np.isfinite(f_minus))):
        raise EvaluationError("function returned a non-finite value")
    value = (f_plus - f_minus) / (2.0 * h)
    if not np.all(np.isfinite(value)):
        raise EvaluationError("function returned a non-finite value")
    return value


def _field_derivative(fn, g: GroupElement, X: AlgebraVector, h, op: str) -> float:
    if X.descriptor is not g.descriptor:
        raise ValueError("direction and point belong to different groups")
    return float(central_difference(fn, g, X.coords, h or default_step(g), op))


def livf_derivative(fn, g: GroupElement, X: AlgebraVector, h: float | None = None) -> float:
    """Central-difference d/dt fn(g exp(tX)) at t = 0."""
    return _field_derivative(fn, g, X, h, LIVF)


def rivf_derivative(fn, g: GroupElement, X: AlgebraVector, h: float | None = None) -> float:
    """Central-difference d/dt fn(exp(tX) g) at t = 0."""
    return _field_derivative(fn, g, X, h, RIVF)


# ---------------------------------------------------------------------------
# Misc helpers


def random_algebra_vector(
    descriptor: GroupDescriptor, rng: np.random.Generator, scale: float = 1.0
) -> AlgebraVector:
    return AlgebraVector(descriptor, scale * rng.standard_normal(descriptor.algebra_dim))


def random_element(
    descriptor: GroupDescriptor, rng: np.random.Generator, scale: float = 1.0
) -> GroupElement:
    return exp(random_algebra_vector(descriptor, rng, scale))


def polar_project(g: GroupElement) -> GroupElement:
    """Re-orthonormalize rotation blocks via the polar decomposition."""
    return GroupElement(g.descriptor, _polar(g.matrix, g.descriptor))


def _polar_rotation(R) -> np.ndarray:
    """The rotation nearest R: U V' from the SVD, with det +1 kept."""
    U, _, Vt = np.linalg.svd(R)
    P = U @ Vt
    if np.linalg.det(P) < 0:
        U = U.copy()
        U[:, -1] *= -1.0
        P = U @ Vt
    return P


def _polar(mat: np.ndarray, d: GroupDescriptor) -> np.ndarray:
    fam = d.family
    if fam == SO3:
        return _polar_rotation(mat)
    if fam in (SE2, SE3):
        M = np.array(mat)
        k = d.matrix_dim - 1
        M[:k, :k] = _polar_rotation(M[:k, :k])
        M[-1, :] = 0.0
        M[-1, -1] = 1.0
        return M
    if fam == PRODUCT:
        return block_diagonal([_polar(mat[rows, rows], f) for f, rows, _ in d.blocks])
    return mat


# ---------------------------------------------------------------------------
# Stack kernels
#
# The closed forms above over a leading axis of B rows: the trials of a
# campaign, or the factors of a product. Each row comes out bit for bit as
# the one-element kernel computes it: norms are vecdot square roots, as in
# np.linalg.norm; powers, acos and atan2 come from libm, as for Python
# floats; matrix-vector products are batched matmuls. A stack of one, and
# each rare row near pi, runs the one-element kernel itself. A row that
# fails comes back in an {index: exception} dict instead of raising.


@lru_cache(maxsize=None)
def _factor_stacks(descriptor: GroupDescriptor):
    """A product's factors grouped by descriptor, in order of first
    appearance: (factor, block entries, coordinates (k, n_f), block
    positions (k,)) per group, each group one stack of B k rows. The
    block entries index a flattened product matrix, block by block."""
    d = descriptor.matrix_dim
    grouped = {}
    for pos, (f, rows, cols) in enumerate(descriptor.blocks):
        r = np.arange(rows.start, rows.stop)
        entry = grouped.setdefault(id(f), (f, [], [], []))
        entry[1].append((r[:, None] * d + r[None, :]).ravel())
        entry[2].append(np.arange(cols.start, cols.stop))
        entry[3].append(pos)
    return tuple(
        (f, np.concatenate(e), np.array(c), np.array(p)) for f, e, c, p in grouped.values()
    )


def _blocks(mats: np.ndarray, entries: np.ndarray, f: GroupDescriptor) -> np.ndarray:
    """(B k, d_f, d_f) diagonal blocks at the given entries of a stack."""
    blocks = mats.reshape(len(mats), -1)[:, entries]
    return blocks.reshape(-1, f.matrix_dim, f.matrix_dim)


def _first_factor_errors(errors: dict, pos: np.ndarray, failed: dict) -> None:
    """Fold a factor stack's {B k row: exception} into failed, {row:
    (block position, exception)}, keeping each row's first block."""
    k = len(pos)
    for i, exc in errors.items():
        row, j = divmod(i, k)
        if row not in failed or pos[j] < failed[row][0]:
            failed[row] = (pos[j], exc)


def _one_by_one(kernel, mats, d: GroupDescriptor, rows, out):
    """out[i] = kernel(mats[i], d) for the given rows; a row whose kernel
    raises a package error is NaN, with the error in the returned dict."""
    errors = {}
    for i in rows:
        try:
            out[i] = kernel(mats[i], d)
        except HomCrbError as exc:
            out[i] = np.nan
            errors[i] = exc
    return out, errors


def _so3_terms_stack(omega):
    """_so3_terms of each row of a (B, 3) array; a, b, c shaped (B, 1, 1)."""
    theta = np.sqrt(np.vecdot(omega, omega))
    t2 = theta * theta
    a = 1.0 - t2 / 6.0 + t2 * t2 / 120.0
    b = 0.5 - t2 / 24.0 + t2 * t2 / 720.0
    c = 1.0 / 6.0 - t2 / 120.0 + t2 * t2 / 5040.0
    big = theta >= _SMALL_ANGLE
    t = theta[big]
    s = np.sin(t)
    a[big] = s / t
    b[big] = (1.0 - np.cos(t)) / np.float_power(t, 2)
    c[big] = (t - s) / np.float_power(t, 3)
    W = hat(omega)
    return W, W @ W, a[:, None, None], b[:, None, None], c[:, None, None]


def _se2_V_stack(theta) -> np.ndarray:
    t2 = theta * theta
    a = 1.0 - t2 / 6.0 + t2 * t2 / 120.0
    b = theta / 2.0 - theta * t2 / 24.0
    big = np.abs(theta) >= _SMALL_ANGLE
    t = theta[big]
    a[big] = np.sin(t) / t
    b[big] = (1.0 - np.cos(t)) / t
    V = np.empty((len(theta), 2, 2))
    V[:, 0, 0], V[:, 0, 1], V[:, 1, 0], V[:, 1, 1] = a, -b, b, a
    return V


def _exp_stack(x, d: GroupDescriptor) -> np.ndarray:
    """_exp of each row of a (B, n) coordinate array: (B, dim, dim)."""
    fam, B = d.family, len(x)
    if fam == PRODUCT:
        out = np.zeros((B, d.matrix_dim, d.matrix_dim))
        flat = out.reshape(B, -1)
        for f, entries, cols, _ in _factor_stacks(d):
            blocks = _exp_stack(x[:, cols].reshape(-1, f.algebra_dim), f)
            flat[:, entries] = blocks.reshape(B, -1)
        return out
    if B == 1:
        return _exp(x[0], d)[None]
    if fam == SO3:
        W, W2, a, b, _ = _so3_terms_stack(x)
        return _eye(3) + a * W + b * W2
    if fam == SE2:
        theta = x[:, 0]
        c, s = np.cos(theta), np.sin(theta)
        M = np.zeros((B, 3, 3))
        M[:, 0, 0], M[:, 0, 1], M[:, 1, 0], M[:, 1, 1], M[:, 2, 2] = c, -s, s, c, 1.0
        M[:, :2, 2] = (_se2_V_stack(theta) @ x[:, 1:, None])[..., 0]
        return M
    if fam == SE3:
        W, W2, a, b, c = _so3_terms_stack(x[:, :3])
        M = np.zeros((B, 4, 4))
        M[:, 3, 3] = 1.0
        M[:, :3, :3] = _eye(3) + a * W + b * W2
        M[:, :3, 3] = ((_eye(3) + b * W + c * W2) @ x[:, 3:, None])[..., 0]
        return M
    flat = d.algebra_basis.reshape(d.algebra_dim, -1)
    return expm((x[:, None, :] @ flat).reshape(B, d.matrix_dim, d.matrix_dim))


def _so3_log_stack(R):
    """_so3_log of the rows of a (B, 3, 3) stack that are not within
    _NEAR_PI of pi, and the mask of those that are (left NaN)."""
    cos_theta = np.minimum(
        1.0, np.maximum(-1.0, 0.5 * (R[:, 0, 0] + R[:, 1, 1] + R[:, 2, 2] - 1.0))
    )
    theta = np.array([math.acos(c) for c in cos_theta.tolist()])
    skew = 0.5 * np.stack(
        [R[:, 2, 1] - R[:, 1, 2], R[:, 0, 2] - R[:, 2, 0], R[:, 1, 0] - R[:, 0, 1]],
        axis=-1,
    )
    near_pi = math.pi - theta < _NEAR_PI
    t2 = theta * theta
    scale = 1.0 + t2 / 6.0 + 7.0 * t2 * t2 / 360.0
    big = (theta >= _SMALL_ANGLE) & ~near_pi
    scale[big] = theta[big] / np.sin(theta[big])
    scale[near_pi] = np.nan
    return scale[:, None] * skew, near_pi


def _log_stack(mats, d: GroupDescriptor) -> tuple[np.ndarray, dict]:
    """_log of each matrix of a (B, dim, dim) stack: (B, n) coordinates,
    NaN in the rows whose log is undefined, and {row: exception} for
    those rows (CutLocusError, or DomainError for GL(n)+)."""
    fam, B = d.family, len(mats)
    out = np.empty((B, d.algebra_dim))
    if fam == PRODUCT:
        failed = {}
        for f, entries, cols, pos in _factor_stacks(d):
            coords, errors = _log_stack(_blocks(mats, entries, f), f)
            out[:, cols] = coords.reshape((B,) + cols.shape)
            _first_factor_errors(errors, pos, failed)
        return out, {row: exc for row, (_, exc) in failed.items()}
    if B == 1 or fam not in (SO3, SE2, SE3):
        return _one_by_one(_log, mats, d, range(B), out)
    if fam == SO3:
        out[:], special = _so3_log_stack(mats)
    elif fam == SE2:
        theta = np.array(
            [math.atan2(s, c) for s, c in zip(mats[:, 1, 0].tolist(), mats[:, 0, 0].tolist())]
        )
        special = math.pi - np.abs(theta) < _CUT_LOCUS_MARGIN
        out[:, 0] = theta
        out[:, 1:] = np.linalg.solve(_se2_V_stack(theta), mats[:, :2, 2, None])[..., 0]
    else:
        omega, special = _so3_log_stack(mats[:, :3, :3])
        # _so3_left_jacobian_inv takes theta from omega again.
        theta = np.sqrt(np.vecdot(omega, omega))
        special |= math.pi - theta < _NEAR_PI
        c = np.full(B, 1.0 / 12.0)
        big = (theta >= _SMALL_ANGLE) & ~special
        t = theta[big]
        c[big] = 1.0 / np.float_power(t, 2) - (1.0 + np.cos(t)) / (2.0 * t * np.sin(t))
        W = hat(omega)
        J_inv = _eye(3) - 0.5 * W + c[:, None, None] * (W @ W)
        out[:, :3] = omega
        out[:, 3:] = (J_inv @ mats[:, :3, 3, None])[..., 0]
    return _one_by_one(_log, mats, d, np.flatnonzero(special), out)


def _row_errors(*checks, errors=None) -> dict:
    """{row: ValueError}, added to errors, from (mask, message) checks in
    order: a row gets the message of the first check that flags it."""
    errors = {} if errors is None else errors
    for mask, message in checks:
        if np.count_nonzero(mask):
            for i in np.flatnonzero(mask):
                errors.setdefault(i, ValueError(message))
    return errors


@lru_cache(maxsize=None)
def _block_entries(descriptor: GroupDescriptor) -> np.ndarray:
    """Every diagonal-block entry of a flattened product matrix."""
    return np.concatenate([entries for _, entries, _, _ in _factor_stacks(descriptor)])


def _family_membership(mats, d: GroupDescriptor) -> tuple[np.ndarray, dict]:
    """_check_membership of each finite matrix of a (B, dim, dim) stack:
    the defects, and {row: ValueError} for the rows outside the group,
    with the message that row would raise alone."""
    fam, B, dim = d.family, len(mats), d.matrix_dim
    if B == 1 and fam != PRODUCT:
        try:
            return np.array([_check_membership(mats[0], d)]), {}
        except ValueError as exc:
            return np.zeros(1), {0: exc}
    if fam == SO3:
        defect = _rotation_defect(mats)
        return defect, _row_errors((defect > 1e-9, "matrix is not in SO(3) to 1e-9"))
    if fam in (SE2, SE3):
        defect = _rotation_defect(mats[:, : dim - 1, : dim - 1])
        bottom = np.abs(mats[:, -1] - _eye(dim)[-1]).max(axis=1)
        return defect, _row_errors(
            (defect > 1e-9, f"rotation block is not in SO({dim - 1}) to 1e-9"),
            (bottom > 1e-9, "bottom row must be (0, ..., 0, 1)"),
        )
    if fam == GLN_PLUS:
        checks = [(_det(mats) <= 0, "determinant must be positive")]
        if dim * dim > d.algebra_dim:
            residual = _vee_lstsq(mats - _eye(dim), d)[1]
            checks.append(
                (residual > 1e-9, "matrix is not a translation: g - I leaves the span")
            )
        return np.zeros(B), _row_errors(*checks)
    if fam == PRODUCT:
        defect, failed = None, {}
        for f, entries, _, pos in _factor_stacks(d):
            factor_defect, errors = _family_membership(_blocks(mats, entries, f), f)
            factor_defect = factor_defect.reshape(B, -1).max(axis=1)
            defect = factor_defect if defect is None else np.maximum(defect, factor_defect)
            _first_factor_errors(errors, pos, failed)
        nonzero = mats.reshape(B, -1) != 0
        outside = nonzero.sum(axis=1) != nonzero[:, _block_entries(d)].sum(axis=1)
        return defect, _row_errors(
            (outside, "product element must be block diagonal"),
            errors={row: exc for row, (_, exc) in failed.items()},
        )
    raise ValueError(f"unknown group family {fam!r}")


def _membership_stack(mats, d: GroupDescriptor) -> tuple[np.ndarray, dict]:
    """The GroupElement checks, finiteness first, of each matrix of a
    (B, dim, dim) stack: the defects, and {row: ValueError} for the rows
    that would not box."""
    finite = np.isfinite(mats).reshape(len(mats), -1).all(axis=1)
    if np.count_nonzero(finite) == len(mats):
        return _family_membership(mats, d)
    defects, errors = _family_membership(
        np.where(finite[:, None, None], mats, _eye(d.matrix_dim)), d
    )
    for i in np.flatnonzero(~finite):
        errors[i] = ValueError("matrix has non-finite entries")
    return defects, errors
