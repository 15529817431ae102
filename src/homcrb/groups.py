"""Matrix Lie group primitives.

Group elements are square real matrices tagged with a descriptor that
carries the matrix dimension and an ordered basis {E_i} of the Lie
algebra. Vectors in the algebra are identified with their coordinates in
that basis (the vee form); wedge is the inverse map. Closed-form exp/log
are provided for SO(3), SE(2) and SE(3), and a closed-form log for
GL(2)+; the other exps, and the logs of GL(n)+ for n >= 3 and of the
unipotent translation groups, use dense scaling-and-squaring.

Each of exp, log and the membership test is one stack kernel on raw
arrays (_exp_stack, _log_stack, _membership_stack) over a leading axis of
rows: campaign trials, product factors, or one element as a stack of one;
special rows (near pi, the cut locus, logm's GL(n)+ logs) run row by
row inside it. A public function boxes the kernel's result once, so a
GroupElement is validated where it leaves the API; central_differences
runs the finite differences along a stack of directions the same way.

scipy is imported by the first dense expm or logm, not by importing this
module: a process that never exponentiates or takes a dense log does not
load it.

Conventions: SE(2)/SE(3) coordinates are ordered rotation-first, i.e.
X = (omega, v) with wedge(X) = [[omega^, v], [0, 0]].
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable

import numpy as np

from .exceptions import (
    BasisClosureError,
    CutLocusError,
    DomainError,
    EvaluationError,
    HomCrbError,
    NotInAlgebraError,
)

# Families with dedicated closed forms (and GL(2)+'s log); everything else
# goes through expm/logm.
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


def expm(A: np.ndarray) -> np.ndarray:
    """scipy.linalg.expm of a matrix or of each of a stack."""
    from scipy.linalg import expm as scipy_expm

    return scipy_expm(A)


def logm(A: np.ndarray) -> np.ndarray:
    """scipy.linalg.logm (principal log, possibly complex) of a matrix."""
    from scipy.linalg import logm as scipy_logm

    return scipy_logm(A)


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
    elsewhere: a product-group matrix from its factors' blocks. Each part
    may be a (..., n, n) stack, all with the same leading shape."""
    n = sum(p.shape[-1] for p in parts)
    out = np.zeros(parts[0].shape[:-2] + (n, n))
    k = 0
    for p in parts:
        w = p.shape[-1]
        out[..., k : k + w, k : k + w] = p
        k += w
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
    GL(n)+); manifold_defect reports it. A caller passes it in only for
    a matrix that _membership_stack has just passed, which then skips the
    repeat of the test; every other matrix is tested here."""

    descriptor: GroupDescriptor
    matrix: np.ndarray
    defect: float | None = field(default=None, kw_only=True, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "matrix", _frozen(self.matrix))
        d = self.descriptor.matrix_dim
        if self.matrix.shape != (d, d):
            raise ValueError(f"matrix shape {self.matrix.shape} != ({d}, {d})")
        if self.defect is None:
            defects, errors = _membership_stack(self.matrix[None], self.descriptor)
            if errors:
                raise errors[0]
            object.__setattr__(self, "defect", float(defects[0]))

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


_MINOR_A, _MINOR_B = np.array([1, 0, 0]), np.array([2, 2, 1])


def _det(M):
    """Determinant of each matrix of a (B, n, n) stack, by cofactor
    expansion up to 3 x 3: a LAPACK call costs several times more on
    these sizes."""
    n = M.shape[-1]
    if n not in (2, 3):
        return np.linalg.det(M)
    if n == 2:
        (a, b), (c, d) = M.transpose(1, 2, 0)
        return a * d - b * c
    # a (e i - f h) - b (d i - f g) + c (d h - e g), the three minors at once.
    minors = M[:, 1, _MINOR_A] * M[:, 2, _MINOR_B] - M[:, 1, _MINOR_B] * M[:, 2, _MINOR_A]
    terms = M[:, 0] * minors
    return terms[:, 0] - terms[:, 1] + terms[:, 2]


def _rotation_defect(R):
    """max |R'R - I| and |det R - 1| of each matrix of a (B, n, n) stack."""
    gap = np.abs(R.transpose(0, 2, 1) @ R - _eye(R.shape[-1])).reshape(len(R), -1)
    return np.maximum(gap.max(axis=1), np.abs(_det(R) - 1.0))


def manifold_defect(g: GroupElement) -> float:
    """Distance from the rotation-block constraints (0 for GL(n)+), as
    measured when g was constructed."""
    return g.defect


def _inverse_matrix(mat: np.ndarray, descriptor: GroupDescriptor) -> np.ndarray:
    """Inverse of a group matrix or of each matrix of a (B, d, d) stack;
    a product's blocks are inverted as one stack per factor family."""
    fam = descriptor.family
    if fam == SO3:
        return np.swapaxes(mat, -1, -2).copy()
    if fam in (SE2, SE3):
        k = descriptor.matrix_dim - 1
        Rt = np.swapaxes(mat[..., :k, :k], -1, -2)
        out = np.zeros(mat.shape)
        out[..., :k, :k] = Rt
        out[..., :k, k:] = -Rt @ mat[..., :k, k:]
        out[..., k, k] = 1.0
        return out
    if fam == PRODUCT:
        mats = mat.reshape((-1,) + mat.shape[-2:])
        out = np.zeros(mats.shape)
        flat = out.reshape(len(mats), -1)
        for f, entries, _, _ in _factor_stacks(descriptor):
            blocks = _inverse_matrix(_blocks(mats, entries, f), f)
            flat[:, entries] = blocks.reshape(len(mats), -1)
        return out.reshape(mat.shape)
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
# exp / log: row 0 of the stack kernels on a stack of one


def exp(X: AlgebraVector) -> GroupElement:
    """Group exponential; closed form per family, expm for GL(n)+."""
    return GroupElement(X.descriptor, _exp_stack(X.coords[None], X.descriptor)[0])


def log(g: GroupElement) -> AlgebraVector:
    """Principal group logarithm; raises CutLocusError near angle pi and
    DomainError where a GL(n)+ matrix has no real principal log."""
    coords, errors = _log_stack(g.matrix[None], g.descriptor)
    if errors:
        raise errors[0]
    return AlgebraVector(g.descriptor, coords[0])


# ---------------------------------------------------------------------------
# Adjoint representations


def adjoint_matrix(g: GroupElement) -> np.ndarray:
    """Matrix of Ad_g: columns are vee(g E_i g^-1)."""
    return _adjoint(g.matrix, g.descriptor)


def _adjoint(mat: np.ndarray, descriptor: GroupDescriptor) -> np.ndarray:
    """Ad of a group matrix or of each matrix of a (B, d, d) stack. A
    product's is block diagonal, one factor's Ad per block, so no
    (n_G, d, d) conjugate is formed; other families conjugate the whole
    basis and project it at once."""
    if descriptor.family == PRODUCT:
        return block_diagonal(
            [_adjoint(mat[..., rows, rows], f) for f, rows, _ in descriptor.blocks]
        )
    inv = _inverse_matrix(mat, descriptor)
    M = mat[..., None, :, :] @ descriptor.algebra_basis @ inv[..., None, :, :]
    coords, residual = _vee_lstsq(M, descriptor)
    bad = residual > _VEE_RESIDUAL_TOL * np.maximum(
        1.0, np.linalg.norm(M, axis=(-2, -1))
    )
    if bad.any():
        raise BasisClosureError(
            f"Ad_g left the algebra span: residual {residual[bad][0]:.3e}"
        )
    return np.swapaxes(coords, -1, -2)


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


# beta_{2n}/(2n)! for n = 1..21: each exact rational rounded once to the
# nearest double.
_BERNOULLI_EVEN = (
    0.08333333333333333,
    -0.001388888888888889,
    3.306878306878307e-05,
    -8.267195767195768e-07,
    2.08767569878681e-08,
    -5.284190138687493e-10,
    1.3382536530684679e-11,
    -3.3896802963225827e-13,
    8.586062056277845e-15,
    -2.174868698558062e-16,
    5.5090028283602295e-18,
    -1.3954464685812522e-19,
    3.534707039629467e-21,
    -8.953517427037546e-23,
    2.267952452337683e-24,
    -5.744790668872202e-26,
    1.455172475614865e-27,
    -3.6859949406653103e-29,
    9.336734257095045e-31,
    -2.36502241570063e-32,
    5.990671762482134e-34,
)
# psi_matrix of order k also bounds the first dropped term, which takes
# (k + 2) // 2 coefficients.
_PSI_MAX_ORDER = 2 * len(_BERNOULLI_EVEN) - 1


def _bernoulli_even(order: int) -> tuple[float, ...]:
    """beta_{2n}/(2n)! for n = 1..order//2 (even Bernoulli numbers only)."""
    return _BERNOULLI_EVEN[: order // 2]


def _psi_series(ad: np.ndarray, order: int) -> tuple[np.ndarray, np.ndarray]:
    """(I + ad/2 + sum_n beta_{2n}/(2n)! ad^{2n}, ad^{2 nmax}) for the
    even terms n = 1..nmax = order // 2, for one (n, n) ad or each of a
    (B, n, n) stack."""
    n = ad.shape[-1]
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
    if order > _PSI_MAX_ORDER:
        raise ValueError(f"order must be <= {_PSI_MAX_ORDER}")
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


def central_differences(
    fn, g: GroupElement, directions, h: float, op: str, boxed: bool = False
) -> np.ndarray:
    """(fn(g+) - fn(g-)) / 2h along each row x_i of a (k, n) coordinate
    array, with g+- = g exp(+-h X_i) for op "livf", exp(+-h X_i) g for
    "rivf": the one central-difference kernel. The 2k points, one exp
    stack of [hX; -hX], pass one membership test (the lowest row that
    would not box raises its ValueError) before fn is called once on
    their (2, k, d, d) stack, plus half first, rows in direction order;
    fn returns an array led by (2, k). With boxed, fn instead takes each
    point as a GroupElement carrying the defect that test measured, and
    may return an array. Returns the (k, ...) derivatives; raises
    EvaluationError on a non-finite value."""
    d = g.descriptor
    x = np.asarray(directions, dtype=float)
    if x.ndim != 2 or x.shape[1] != d.algebra_dim:
        raise ValueError(f"direction length {x.shape[1:]} != ({d.algebra_dim},)")
    e = _exp_stack(np.concatenate([h * x, -h * x]), d)
    points = g.matrix @ e if op == LIVF else e @ g.matrix
    defects, errors = _membership_stack(points, d)
    if errors:
        raise errors[min(errors)]
    if boxed:
        values = np.array([
            fn(GroupElement(d, p, defect=float(e))) for p, e in zip(points, defects)
        ])
        f_plus, f_minus = values.reshape((2, len(x)) + values.shape[1:])
    else:
        f_plus, f_minus = fn(points.reshape((2, len(x)) + points.shape[1:]))
    # Checked before subtracting: inf - inf would warn, then read as NaN.
    if not (np.isfinite(f_plus).all() and np.isfinite(f_minus).all()):
        raise EvaluationError("function returned a non-finite value")
    value = (f_plus - f_minus) / (2.0 * h)
    if not np.isfinite(value).all():
        raise EvaluationError("function returned a non-finite value")
    return value


def central_difference(
    fn: Callable[[GroupElement], float | np.ndarray],
    g: GroupElement,
    x: np.ndarray,
    h: float,
    op: str,
) -> float | np.ndarray:
    """central_differences along the one direction x, with fn taking each
    of the two points boxed as a GroupElement; fn may return an array."""
    d = g.descriptor
    if np.shape(x) != (d.algebra_dim,):
        raise ValueError(f"direction length {np.shape(x)} != ({d.algebra_dim},)")
    return central_differences(fn, g, np.reshape(x, (1, -1)), h, op, boxed=True)[0]


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
# The one kernel of each of exp, log and the membership test, over a
# leading axis of B rows: the trials of a campaign, the factors of a
# product, or a stack of one for a single element. Every row comes out
# bit for bit as it does in a stack of one, so a row does not depend on
# the stack it runs in: norms are vecdot square roots; powers, acos and
# atan2 come from libm, as for Python floats; matrix-vector products are
# batched matmuls. The rare special rows run their own code row by row
# inside the kernel: SO(3) angles within _NEAR_PI of pi, the cut locus
# and every GL(n)+ log. A row that fails comes back in an
# {index: exception} dict instead of raising.


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


def _so3_terms_stack(omega):
    """(W, W^2, a, b, c) for W = hat(omega), theta = |omega| of each row
    of a (B, 3) array: a = sin t / t, b = (1 - cos t) / t^2 and
    c = (t - sin t) / t^3, by 4th-order Taylor near 0, shaped (B, 1, 1).
    exp(W) = I + a W + b W^2; the left Jacobian is I + b W + c W^2."""
    theta = np.sqrt(np.vecdot(omega, omega))
    big = theta >= _SMALL_ANGLE
    n_big = np.count_nonzero(big)
    if n_big < len(theta):
        t2 = theta * theta
        a = 1.0 - t2 / 6.0 + t2 * t2 / 120.0
        b = 0.5 - t2 / 24.0 + t2 * t2 / 720.0
        c = 1.0 / 6.0 - t2 / 120.0 + t2 * t2 / 5040.0
    else:
        a, b, c = np.empty((3,) + theta.shape)
    if n_big:
        t = theta[big]
        s = np.sin(t)
        a[big] = s / t
        b[big] = (1.0 - np.cos(t)) / np.float_power(t, 2)
        c[big] = (t - s) / np.float_power(t, 3)
    W = hat(omega)
    return W, W @ W, a[:, None, None], b[:, None, None], c[:, None, None]


def _se2_V_stack(theta) -> np.ndarray:
    """The (B, 2, 2) translation Jacobians [[a, -b], [b, a]] of SE(2) at
    the angles theta: a = sin t / t, b = (1 - cos t) / t, by Taylor near 0."""
    big = np.abs(theta) >= _SMALL_ANGLE
    n_big = np.count_nonzero(big)
    if n_big < len(theta):
        t2 = theta * theta
        a = 1.0 - t2 / 6.0 + t2 * t2 / 120.0
        b = theta / 2.0 - theta * t2 / 24.0
    else:
        a, b = np.empty((2,) + theta.shape)
    if n_big:
        t = theta[big]
        a[big] = np.sin(t) / t
        b[big] = (1.0 - np.cos(t)) / t
    V = np.empty((len(theta), 2, 2))
    V[:, 0, 0], V[:, 0, 1], V[:, 1, 0], V[:, 1, 1] = a, -b, b, a
    return V


def _exp_stack(x, d: GroupDescriptor) -> np.ndarray:
    """exp of each row of a (B, n) coordinate array: (B, dim, dim), by
    closed form for SO(3), SE(2) and SE(3), by a stacked expm of the
    wedges for GL(n)+, and per factor family for a product."""
    fam, B = d.family, len(x)
    if fam == PRODUCT:
        out = np.zeros((B, d.matrix_dim, d.matrix_dim))
        flat = out.reshape(B, -1)
        for f, entries, cols, _ in _factor_stacks(d):
            blocks = _exp_stack(x[:, cols].reshape(-1, f.algebra_dim), f)
            flat[:, entries] = blocks.reshape(B, -1)
        return out
    if fam in (SO3, SE3):
        W, W2, a, b, c = _so3_terms_stack(x[:, :3])
        R = _eye(3) + a * W + b * W2
        if fam == SO3:
            return R
        M = np.zeros((B, 4, 4))
        M[:, 3, 3] = 1.0
        M[:, :3, :3] = R
        M[:, :3, 3] = ((_eye(3) + b * W + c * W2) @ x[:, 3:, None])[..., 0]
        return M
    if fam == SE2:
        theta = x[:, 0]
        c, s = np.cos(theta), np.sin(theta)
        M = np.zeros((B, 3, 3))
        M[:, 0, 0], M[:, 0, 1], M[:, 1, 0], M[:, 1, 1], M[:, 2, 2] = c, -s, s, c, 1.0
        M[:, :2, 2] = (_se2_V_stack(theta) @ x[:, 1:, None])[..., 0]
        return M
    flat = d.algebra_basis.reshape(d.algebra_dim, -1)
    return expm((x[:, None, :] @ flat).reshape(B, d.matrix_dim, d.matrix_dim))


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


_SKEW_ROWS, _SKEW_COLS = np.array([2, 0, 1]), np.array([1, 2, 0])


def _so3_log_stack(R) -> tuple[np.ndarray, dict]:
    """Rotation vectors of a (B, 3, 3) stack, theta from acos of the
    trace: (B, 3), NaN in the rows within _CUT_LOCUS_MARGIN of pi, and
    {row: CutLocusError} for those rows. Rows within _NEAR_PI of pi run
    _so3_log_near_pi one by one."""
    cos_theta = np.minimum(
        1.0, np.maximum(-1.0, 0.5 * (R[:, 0, 0] + R[:, 1, 1] + R[:, 2, 2] - 1.0))
    )
    thetas = [math.acos(c) for c in cos_theta.tolist()]
    theta = np.array(thetas)
    # (R21 - R12, R02 - R20, R10 - R01) / 2
    skew = 0.5 * (R[:, _SKEW_ROWS, _SKEW_COLS] - R[:, _SKEW_COLS, _SKEW_ROWS])
    near_pi = math.pi - theta < _NEAR_PI
    big = (theta >= _SMALL_ANGLE) & ~near_pi
    if np.count_nonzero(theta < _SMALL_ANGLE):
        t2 = theta * theta
        scale = 1.0 + t2 / 6.0 + 7.0 * t2 * t2 / 360.0
    else:
        scale = np.full_like(theta, np.nan)  # near-pi rows are replaced below
    if np.count_nonzero(big):
        scale[big] = theta[big] / np.sin(theta[big])
    omega = scale[:, None] * skew
    errors = {}
    for i in np.flatnonzero(near_pi).tolist():
        if math.pi - thetas[i] < _CUT_LOCUS_MARGIN:
            errors[i] = CutLocusError(
                f"rotation angle {thetas[i]:.9f} within {_CUT_LOCUS_MARGIN} of pi"
            )
            omega[i] = np.nan
        else:
            omega[i] = _so3_log_near_pi(R[i], float(cos_theta[i]), skew[i])
    return omega, errors


_NO_REAL_LOG = "matrix has real-negative eigenvalues; principal log undefined"
_SINGULAR = "matrix is singular; principal log undefined"
# A matrix with no real log is singular where det == 0 or an eigenvalue is
# within this fraction of its largest entry from 0.
_ZERO_EIGENVALUE = 1e-12
# Below this |u| = |delta| / t^2, the GL(2)+ log sums k as a series.
_GL2_SERIES = 1e-3


def _gl2_log_stack(mats) -> tuple[np.ndarray, dict]:
    """Principal logs of a (B, 2, 2) stack in closed form: (B, 2, 2), NaN
    in the non-finite rows and in the rows with no real log, and {row:
    DomainError} for the latter. With t = tr A / 2, N = A - t I and
    N^2 = delta I, delta = ((a - d) / 2)^2 + b c (the discriminant, free
    of the cancellation in t^2 - det) and s = sqrt|delta|:
    log A = log(det A) / 2 I + k N, k = atan2(s, t) / s for a complex
    pair, artanh(s / t) / s for a real pair and, below _GL2_SERIES,
    sum_n u^n / (2n + 1) / t with u = delta / t^2 (Jordan rows too)."""
    B = len(mats)
    finite = np.isfinite(mats).reshape(B, -1).all(axis=1)
    if np.count_nonzero(finite) < B:
        mats = np.where(finite[:, None, None], mats, _eye(2))
    a, b, c, e = mats[:, 0, 0], mats[:, 0, 1], mats[:, 1, 0], mats[:, 1, 1]
    t, h = 0.5 * (a + e), 0.5 * (a - e)
    delta = h * h + b * c
    s = np.sqrt(np.abs(delta))
    det = a * e - b * c
    # A real eigenvalue t - s <= 0, or a complex pair within 1e-12 of the
    # negative axis.
    undefined = finite & (
        (det <= 0) | ((delta >= 0) & (t <= s)) | ((delta < 0) & (t < 0) & (s < 1e-12))
    )
    half_log_det, k = np.full((2, B), np.nan)
    ok = finite & ~undefined
    if np.count_nonzero(ok):
        # libm per row, so that a row's bits do not depend on the stack.
        half_log_det[ok] = 0.5 * np.array([math.log(x) for x in det[ok].tolist()])
        t2 = t * t
        series = ok & (t > 0) & (np.abs(delta) < _GL2_SERIES * t2)
        complex_pair = ok & ~series & (delta < 0)
        real_pair = ok & ~series & (delta > 0)
        if np.count_nonzero(series):
            u = delta[series] / t2[series]
            poly = 1.0 / 11.0
            for m in (9.0, 7.0, 5.0, 3.0, 1.0):
                poly = 1.0 / m + u * poly
            k[series] = poly / t[series]
        if np.count_nonzero(complex_pair):
            angles = map(math.atan2, s[complex_pair].tolist(), t[complex_pair].tolist())
            k[complex_pair] = np.array(list(angles)) / s[complex_pair]
        if np.count_nonzero(real_pair):
            ratios = (s[real_pair] / t[real_pair]).tolist()
            k[real_pair] = np.array([math.atanh(r) for r in ratios]) / s[real_pair]
    L = np.empty((B, 2, 2))
    L[:, 0, 0], L[:, 1, 1] = half_log_det + k * h, half_log_det - k * h
    L[:, 0, 1], L[:, 1, 0] = k * b, k * c
    errors = {}
    for i in np.flatnonzero(undefined).tolist():
        # The smaller eigenvalue modulus: ||t| - s| for a real pair, |t + i s|
        # for a complex one.
        if delta[i] >= 0:
            smaller = abs(abs(t[i]) - s[i])
        else:
            smaller = math.hypot(t[i], s[i])
        singular = det[i] == 0 or smaller <= _ZERO_EIGENVALUE * np.abs(mats[i]).max()
        errors[i] = DomainError(_SINGULAR if singular else _NO_REAL_LOG)
    return L, errors


def _glnplus_log(mat: np.ndarray, d: GroupDescriptor) -> np.ndarray:
    """The dense principal log of one GL(n)+ row, NaN for a non-finite
    row. A real-negative or zero eigenvalue has no real log, and a log
    that expm does not take back to the row to 1e-10 relative fails."""
    if not np.isfinite(mat).all():
        return np.full(d.algebra_dim, np.nan)
    eigvals = np.linalg.eigvals(mat)
    no_log = (eigvals.real <= 0) & (np.abs(eigvals.imag) < 1e-12)
    if np.any(no_log):
        smallest = np.abs(eigvals[no_log]).min()
        singular = smallest <= _ZERO_EIGENVALUE * np.abs(mat).max()
        raise DomainError(_SINGULAR if singular else _NO_REAL_LOG)
    # logm's norm estimator, scipy.sparse.linalg.onenormest, calls
    # np.random.randint: run it from a fixed state of numpy's legacy
    # global RNG, so that the log's bits do not depend on the caller's
    # state, and give the caller its state back.
    state = np.random.get_state()
    np.random.seed(0)
    try:
        with warnings.catch_warnings():
            # A Schur diagonal entry that is 0 (or below 1e-20) fails the
            # row; scipy's own accuracy estimate gives way to the round
            # trip below.
            warnings.filterwarnings("error", "The logm input matrix", UserWarning)
            warnings.filterwarnings("ignore", "logm result may be inaccurate", RuntimeWarning)
            L = logm(mat)
    except UserWarning as exc:
        raise DomainError(f"matrix log undefined: {exc}") from None
    finally:
        np.random.set_state(state)
    if np.abs(L.imag).max() > 1e-9:
        raise DomainError("matrix log is not real")
    L = L.real
    residual = np.abs(expm(L) - mat).max() / np.abs(mat).max()
    if residual > 1e-10:
        raise DomainError(
            f"matrix log does not give the matrix back: relative residual {residual:.3e}"
        )
    return vee(L, d)


def _log_stack(mats, d: GroupDescriptor) -> tuple[np.ndarray, dict]:
    """The principal log of each matrix of a (B, dim, dim) stack: (B, n)
    coordinates, NaN in the rows whose log is undefined, and {row:
    exception} for those rows (CutLocusError, or DomainError for GL(n)+)."""
    fam, B = d.family, len(mats)
    out = np.empty((B, d.algebra_dim))
    if fam == PRODUCT:
        failed = {}
        for f, entries, cols, pos in _factor_stacks(d):
            coords, errors = _log_stack(_blocks(mats, entries, f), f)
            out[:, cols] = coords.reshape((B,) + cols.shape)
            _first_factor_errors(errors, pos, failed)
        return out, {row: exc for row, (_, exc) in failed.items()}
    errors = {}
    if fam in (SO3, SE3):
        out[:, :3], errors = _so3_log_stack(mats[:, :3, :3])
    if fam == SE3:
        # v = J^-1(omega) p, with J^-1 = I - W/2 + c W^2 and theta taken
        # from omega again.
        omega = out[:, :3]
        theta = np.sqrt(np.vecdot(omega, omega))
        near_pi = math.pi - theta < _NEAR_PI
        c = np.full(B, 1.0 / 12.0)
        big = (theta >= _SMALL_ANGLE) & ~near_pi
        if np.count_nonzero(big):
            t = theta[big]
            c[big] = 1.0 / np.float_power(t, 2) - (1.0 + np.cos(t)) / (2.0 * t * np.sin(t))
        if np.count_nonzero(near_pi):
            # (1 + cos) / sin = sin / (1 - cos), without the cancellation in 1 + cos.
            t = theta[near_pi]
            c[near_pi] = 1.0 / np.float_power(t, 2) - np.sin(t) / (
                2.0 * t * (1.0 - np.cos(t))
            )
        W = hat(omega)
        J_inv = _eye(3) - 0.5 * W + c[:, None, None] * (W @ W)
        out[:, 3:] = (J_inv @ mats[:, :3, 3, None])[..., 0]
    elif fam == SE2:
        thetas = [
            math.atan2(s, c) for s, c in zip(mats[:, 1, 0].tolist(), mats[:, 0, 0].tolist())
        ]
        theta = np.array(thetas)
        out[:, 0] = theta
        out[:, 1:] = np.linalg.solve(_se2_V_stack(theta), mats[:, :2, 2, None])[..., 0]
        for i in np.flatnonzero(math.pi - np.abs(theta) < _CUT_LOCUS_MARGIN).tolist():
            errors[i] = CutLocusError(f"rotation angle {thetas[i]:.9f} within margin of pi")
            out[i] = np.nan
    elif fam == GLN_PLUS and d.matrix_dim == 2 and d.algebra_dim == 4:
        # GL(2)+: the coordinates in its matrix-unit basis are the entries.
        L, errors = _gl2_log_stack(mats)
        out[:] = L.reshape(B, 4)
    elif fam != SO3:  # GL(n)+, n >= 3, and the translation groups
        for i, mat in enumerate(mats):
            try:
                out[i] = _glnplus_log(mat, d)
            except HomCrbError as exc:
                out[i], errors[i] = np.nan, exc
    return out, errors


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
    """The membership test, to 1e-9, of each finite matrix of a
    (B, dim, dim) stack: the rotation-block defects (the largest over a
    product's factors, 0 for GL(n)+), and {row: ValueError} for the rows
    outside the group."""
    fam, B, dim = d.family, len(mats), d.matrix_dim
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
    finite = np.isfinite(mats)
    if np.count_nonzero(finite) == finite.size:
        return _family_membership(mats, d)
    finite = finite.reshape(len(mats), -1).all(axis=1)
    defects, errors = _family_membership(
        np.where(finite[:, None, None], mats, _eye(d.matrix_dim)), d
    )
    for i in np.flatnonzero(~finite):
        errors[i] = ValueError("matrix has non-finite entries")
    return defects, errors
