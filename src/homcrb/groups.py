"""Matrix Lie group primitives.

Group elements are square real matrices tagged with a descriptor that
carries the matrix dimension and an ordered basis {E_i} of the Lie
algebra. Vectors in the algebra are identified with their coordinates in
that basis (the vee form); wedge is the inverse map. Closed-form exp/log
are provided for SO(3), SE(2) and SE(3); GL(n)+ (and unipotent subgroups
used for translation groups) fall back to dense scaling-and-squaring.

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


@dataclass(frozen=True, eq=False)
class GroupDescriptor:
    """A matrix Lie group: name tag, matrix size, and ordered algebra basis."""

    name: str
    family: str
    matrix_dim: int
    algebra_dim: int
    algebra_basis: np.ndarray  # (n_G, d, d), read-only
    factors: tuple["GroupDescriptor", ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "algebra_basis", _frozen(self.algebra_basis))
        n, d = self.algebra_dim, self.matrix_dim
        if self.algebra_basis.shape != (n, d, d):
            raise ValueError(
                f"algebra basis shape {self.algebra_basis.shape} != ({n}, {d}, {d})"
            )
        if self.family == PRODUCT:
            self._check_product_basis()
            return
        flat = self.algebra_basis.reshape(n, -1)
        gram = flat @ flat.T
        if np.linalg.matrix_rank(gram) < n:
            raise ValueError("algebra basis matrices are linearly dependent")
        try:
            structure_constants(self)
        except BasisClosureError as exc:
            raise ValueError(str(exc)) from exc

    def _check_product_basis(self):
        """Factors are validated descriptors, so a product only has to be
        their block embedding: matching dimensions, each diagonal block
        equal to its factor's basis, and nothing outside the blocks."""
        if self.algebra_dim != sum(f.algebra_dim for f in self.factors):
            raise ValueError("product algebra_dim != sum of factor dims")
        if self.matrix_dim != sum(f.matrix_dim for f in self.factors):
            raise ValueError("product matrix_dim != sum of factor dims")
        inside = 0
        for f, (rows, cols) in zip(self.factors, self.factor_slices):
            block = self.algebra_basis[cols, rows, rows]
            if not np.array_equal(block, f.algebra_basis):
                raise ValueError(f"product basis block differs from factor {f.name}")
            inside += np.count_nonzero(block)
        if np.count_nonzero(self.algebra_basis) != inside:
            raise ValueError("product basis has entries outside the factor blocks")

    @property
    def factor_slices(self) -> list[tuple[slice, slice]]:
        """(matrix block, coordinate block) slice pairs, one per factor."""
        out = []
        r = c = 0
        for f in self.factors:
            out.append((slice(r, r + f.matrix_dim), slice(c, c + f.algebra_dim)))
            r += f.matrix_dim
            c += f.algebra_dim
        return out


@lru_cache(maxsize=None)
def _vee_solver(descriptor: GroupDescriptor):
    """Least-squares projector onto the algebra basis (cached per descriptor)."""
    flat = descriptor.algebra_basis.reshape(descriptor.algebra_dim, -1)
    gram = flat @ flat.T
    proj = np.linalg.solve(gram, flat)  # coords = proj @ X.ravel()
    return flat, proj


def _vee_lstsq(X, descriptor: GroupDescriptor):
    flat, proj = _vee_solver(descriptor)
    x = np.asarray(X, dtype=float).ravel()
    coords = proj @ x
    residual = float(np.linalg.norm(flat.T @ coords - x))
    return coords, residual


@lru_cache(maxsize=None)
def structure_constants(descriptor: GroupDescriptor) -> np.ndarray:
    """(n, n, n) tensor C with C[k] = ad_{E_k}, so ad_X = sum_k X^k C[k].

    A product is assembled from its factors' blocks (brackets across
    factors vanish). Other families solve vee([E_i, E_j]) once per pair
    i < j and raise BasisClosureError when a bracket leaves the span.
    """
    n = descriptor.algebra_dim
    C = np.zeros((n, n, n))
    if descriptor.family == PRODUCT:
        for f, (_, cols) in zip(descriptor.factors, descriptor.factor_slices):
            C[cols, cols, cols] = structure_constants(f)
        return _frozen(C)
    E = descriptor.algebra_basis
    for i in range(n):
        for j in range(i + 1, n):
            br = E[i] @ E[j] - E[j] @ E[i]
            coords, res = _vee_lstsq(br, descriptor)
            if res > _BRACKET_TOL * max(1.0, float(np.abs(br).max())):
                raise BasisClosureError(
                    f"basis not closed under bracket at ({i},{j}), residual {res:.2e}"
                )
            C[i, :, j] = coords
            C[j, :, i] = -coords
    return _frozen(C)


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


def _det(M) -> float:
    """Determinant, by cofactor expansion up to 3 x 3: a LAPACK call
    costs several times more on these sizes."""
    n = M.shape[0]
    if n == 2:
        (a, b), (c, d) = M.tolist()
        return a * d - b * c
    if n == 3:
        (a, b, c), (d, e, f), (g, h, i) = M.tolist()
        return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    return float(np.linalg.det(M))


def _rotation_defect(R) -> float:
    return max(float(np.abs(R.T @ R - _eye(R.shape[0])).max()), abs(_det(R) - 1.0))


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
        return 0.0
    if fam == PRODUCT:
        defect = 0.0
        for f, (rows, _) in zip(descriptor.factors, descriptor.factor_slices):
            defect = max(defect, _check_membership(mat[rows, rows], f))
            off = mat[rows].copy()
            off[:, rows] = 0.0
            if np.abs(off).max() > 0:
                raise ValueError("product element must be block diagonal")
        return defect
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
        out = np.eye(d)
        R = mat[: d - 1, : d - 1]
        out[: d - 1, : d - 1] = R.T
        out[: d - 1, -1] = -R.T @ mat[: d - 1, -1]
        return out
    if fam == PRODUCT:
        out = np.zeros_like(mat)
        for f, (rows, _) in zip(descriptor.factors, descriptor.factor_slices):
            out[rows, rows] = _inverse_matrix(mat[rows, rows], f)
        return out
    return np.linalg.inv(mat)


# ---------------------------------------------------------------------------
# Descriptor factories


def hat(v) -> np.ndarray:
    """Skew matrix of a 3-vector: hat(v) @ w = v x w."""
    x, y, z = v
    return np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])


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
    """(R^d, +) embedded as unipotent matrices in GL(d+1)+."""
    E = np.zeros((d, d + 1, d + 1))
    for i in range(d):
        E[i, i, d] = 1.0
    return GroupDescriptor(f"T({d})<GL({d + 1})+", GLN_PLUS, d + 1, d, E)


def product_group(factors, name: str | None = None) -> GroupDescriptor:
    """Block-diagonal product; built and validated once per (factors, name)."""
    return _product_group(tuple(factors), name)


@lru_cache(maxsize=None)
def _product_group(factors, name):
    d = sum(f.matrix_dim for f in factors)
    n = sum(f.algebra_dim for f in factors)
    E = np.zeros((n, d, d))
    r = c = 0
    for f in factors:
        E[c : c + f.algebra_dim, r : r + f.matrix_dim, r : r + f.matrix_dim] = (
            f.algebra_basis
        )
        r += f.matrix_dim
        c += f.algebra_dim
    name = name or " x ".join(f.name for f in factors)
    return GroupDescriptor(name, PRODUCT, d, n, E, factors)


def identity_element(descriptor: GroupDescriptor) -> GroupElement:
    return GroupElement(descriptor, np.eye(descriptor.matrix_dim))


# ---------------------------------------------------------------------------
# wedge / vee


def wedge(v, descriptor: GroupDescriptor) -> np.ndarray:
    """Map coordinates to the algebra matrix sum_i v^i E_i."""
    v = np.asarray(v, dtype=float)
    if v.shape != (descriptor.algebra_dim,):
        raise ValueError(
            f"coordinate vector length {v.shape} != ({descriptor.algebra_dim},)"
        )
    return np.tensordot(v, descriptor.algebra_basis, axes=1)


def vee(X, descriptor: GroupDescriptor) -> np.ndarray:
    """Coordinates of an algebra matrix (least squares against the basis)."""
    X = np.asarray(X, dtype=float)
    if X.shape != (descriptor.matrix_dim,) * 2:
        raise ValueError(f"matrix shape {X.shape} incompatible with descriptor")
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


def _so3_coeffs(theta: float) -> tuple[float, float]:
    """(sin t / t, (1 - cos t) / t^2) with 4th-order Taylor near 0."""
    if theta < _SMALL_ANGLE:
        t2 = theta * theta
        return 1.0 - t2 / 6.0 + t2 * t2 / 120.0, 0.5 - t2 / 24.0 + t2 * t2 / 720.0
    return math.sin(theta) / theta, (1.0 - math.cos(theta)) / theta**2


def _so3_exp(omega) -> np.ndarray:
    theta = float(np.linalg.norm(omega))
    W = hat(omega)
    a, b = _so3_coeffs(theta)
    return _eye(3) + a * W + b * (W @ W)


def _so3_left_jacobian(omega) -> np.ndarray:
    theta = float(np.linalg.norm(omega))
    W = hat(omega)
    if theta < _SMALL_ANGLE:
        t2 = theta * theta
        b = 0.5 - t2 / 24.0 + t2 * t2 / 720.0
        c = 1.0 / 6.0 - t2 / 120.0 + t2 * t2 / 5040.0
    else:
        b = (1.0 - math.cos(theta)) / theta**2
        c = (theta - math.sin(theta)) / theta**3
    return _eye(3) + b * W + c * (W @ W)


def _so3_left_jacobian_inv(omega) -> np.ndarray:
    theta = float(np.linalg.norm(omega))
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
    d = X.descriptor
    fam = d.family
    if fam == SO3:
        return GroupElement(d, _so3_exp(X.coords))
    if fam == SE2:
        theta, v = float(X.coords[0]), X.coords[1:]
        c, s = math.cos(theta), math.sin(theta)
        M = np.eye(3)
        M[:2, :2] = [[c, -s], [s, c]]
        M[:2, 2] = _se2_V(theta) @ v
        return GroupElement(d, M)
    if fam == SE3:
        omega, v = X.coords[:3], X.coords[3:]
        M = np.eye(4)
        M[:3, :3] = _so3_exp(omega)
        M[:3, 3] = _so3_left_jacobian(omega) @ v
        return GroupElement(d, M)
    if fam == PRODUCT:
        M = np.eye(d.matrix_dim)
        for f, (rows, cols) in zip(d.factors, d.factor_slices):
            M[rows, rows] = exp(AlgebraVector(f, X.coords[cols])).matrix
        return GroupElement(d, M)
    return GroupElement(d, expm(X.matrix))


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
    d = g.descriptor
    fam = d.family
    if fam == SO3:
        return AlgebraVector(d, _so3_log(g.matrix))
    if fam == SE2:
        theta = math.atan2(g.matrix[1, 0], g.matrix[0, 0])
        if math.pi - abs(theta) < _CUT_LOCUS_MARGIN:
            raise CutLocusError(f"rotation angle {theta:.9f} within margin of pi")
        v = np.linalg.solve(_se2_V(theta), g.matrix[:2, 2])
        return AlgebraVector(d, np.concatenate([[theta], v]))
    if fam == SE3:
        omega = _so3_log(g.matrix[:3, :3])
        v = _so3_left_jacobian_inv(omega) @ g.matrix[:3, 3]
        return AlgebraVector(d, np.concatenate([omega, v]))
    if fam == PRODUCT:
        coords = np.zeros(d.algebra_dim)
        for f, (rows, cols) in zip(d.factors, d.factor_slices):
            coords[cols] = log(GroupElement(f, g.matrix[rows, rows])).coords
        return AlgebraVector(d, coords)
    # GL(n)+: dense principal log; real-negative eigenvalues have no real log.
    eigvals = np.linalg.eigvals(g.matrix)
    if np.any((eigvals.real < 0) & (np.abs(eigvals.imag) < 1e-12)):
        raise DomainError("matrix has real-negative eigenvalues; principal log undefined")
    L = logm(g.matrix)
    if np.abs(L.imag).max() > 1e-9:
        raise DomainError("matrix log is not real")
    return AlgebraVector(d, vee(L.real, d))


# ---------------------------------------------------------------------------
# Adjoint representations


def adjoint_matrix(g: GroupElement) -> np.ndarray:
    """Matrix of Ad_g: columns are vee(g E_i g^-1)."""
    d = g.descriptor
    ginv = _inverse_matrix(g.matrix, d)
    cols = []
    for E in d.algebra_basis:
        M = g.matrix @ E @ ginv
        coords, residual = _vee_lstsq(M, d)
        if residual > _VEE_RESIDUAL_TOL * max(1.0, float(np.linalg.norm(M))):
            raise BasisClosureError(
                f"Ad_g left the algebra span: residual {residual:.3e}"
            )
        cols.append(coords)
    return np.array(cols).T


def ad_matrix(X: AlgebraVector) -> np.ndarray:
    """Matrix of ad_X (columns vee([X^, E_i])) from the cached structure
    constants."""
    return np.tensordot(X.coords, structure_constants(X.descriptor), axes=1)


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
    X: AlgebraVector,
    h: float,
    op: str,
) -> float | np.ndarray:
    """(fn(g+) - fn(g-)) / 2h with g+- = g exp(+-hX) for op "livf" and
    exp(+-hX) g for "rivf"; fn may return an array. Raises EvaluationError
    on a non-finite result."""
    e_plus = exp(AlgebraVector(X.descriptor, h * X.coords))
    e_minus = exp(AlgebraVector(X.descriptor, -h * X.coords))
    if op == LIVF:
        f_plus, f_minus = fn(g @ e_plus), fn(g @ e_minus)
    else:
        f_plus, f_minus = fn(e_plus @ g), fn(e_minus @ g)
    # Checked before subtracting: inf - inf would warn, then read as NaN.
    if not (np.all(np.isfinite(f_plus)) and np.all(np.isfinite(f_minus))):
        raise EvaluationError("function returned a non-finite value")
    value = (f_plus - f_minus) / (2.0 * h)
    if not np.all(np.isfinite(value)):
        raise EvaluationError("function returned a non-finite value")
    return value


def livf_derivative(fn, g: GroupElement, X: AlgebraVector, h: float | None = None) -> float:
    """Central-difference d/dt fn(g exp(tX)) at t = 0."""
    return float(central_difference(fn, g, X, h or default_step(g), LIVF))


def rivf_derivative(fn, g: GroupElement, X: AlgebraVector, h: float | None = None) -> float:
    """Central-difference d/dt fn(exp(tX) g) at t = 0."""
    return float(central_difference(fn, g, X, h or default_step(g), RIVF))


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
    d = g.descriptor
    fam = d.family

    def polar(R):
        U, _, Vt = np.linalg.svd(R)
        P = U @ Vt
        if np.linalg.det(P) < 0:  # keep det +1
            U = U.copy()
            U[:, -1] *= -1.0
            P = U @ Vt
        return P

    if fam == SO3:
        return GroupElement(d, polar(g.matrix))
    if fam in (SE2, SE3):
        M = np.array(g.matrix)
        k = d.matrix_dim - 1
        M[:k, :k] = polar(M[:k, :k])
        M[-1, :] = 0.0
        M[-1, -1] = 1.0
        return GroupElement(d, M)
    if fam == PRODUCT:
        M = np.array(g.matrix)
        for f, (rows, _) in zip(d.factors, d.factor_slices):
            M[rows, rows] = polar_project(GroupElement(f, g.matrix[rows, rows])).matrix
        return GroupElement(d, M)
    return g
