"""SPD covariance estimation on GL(n)+/SO(n).

Zero-mean Gaussian data x ~ N(0, Sigma) with Sigma = g g' pulled back to
GL(n)+: l(x|g) = -1/2 logdet(gg') - 1/2 x'(gg')^-1 x, invariant under
g -> gR for R in SO(n). The reductive split is h = skew-symmetric,
m = symmetric matrices (orthogonal under the Frobenius inner product).

With u = g^-1 x (standard normal under the model), the LIVF derivative
along any algebra direction D is u'Du - tr(D), giving the reduced FIM
2 tr(sym(D_i) sym(D_j)) = 2 I on the orthonormal symmetric basis, the
same at every g, so the model computes it once.
"""

from __future__ import annotations

import numpy as np

from .. import groups
from ..exceptions import DomainError
from ..groups import GroupElement
from ..homspace import Side, build_reductive
from .base import ModelBase


def _spd_bases(n: int):
    """Normalized skew (h) and symmetric (m) bases as coordinate rows
    over the matrix-unit descriptor basis."""
    desc = groups.glnplus(n)
    inv_sqrt2 = 1.0 / np.sqrt(2.0)
    h, m = [], []
    for i in range(n):
        for j in range(i + 1, n):
            A = np.zeros((n, n))
            A[i, j], A[j, i] = inv_sqrt2, -inv_sqrt2
            h.append(A.ravel())
    for i in range(n):
        A = np.zeros((n, n))
        A[i, i] = 1.0
        m.append(A.ravel())
    for i in range(n):
        for j in range(i + 1, n):
            A = np.zeros((n, n))
            A[i, j] = A[j, i] = inv_sqrt2
            m.append(A.ravel())
    return desc, h, m


class SpdModel(ModelBase):
    """Gaussian scatter-matrix estimation through the GL(n)+ pullback."""

    invariant_fim = True

    def __init__(self, n: int):
        if n < 2:
            raise ValueError("SPD model needs n >= 2")
        self.n = n
        desc, h, m = _spd_bases(n)
        self.descriptor = desc
        self.struct = build_reductive(desc, h, seed_m=m, side=Side.G_MOD_H)
        self._m_matrices = self.struct.m_basis.reshape(-1, n, n)
        self._m_traces = np.trace(self._m_matrices, axis1=1, axis2=2)

    # -- observations ------------------------------------------------------

    def covariance(self, g: GroupElement) -> np.ndarray:
        return g.matrix @ g.matrix.T

    def sample(self, g: GroupElement, m: int, rng: np.random.Generator):
        return rng.standard_normal((m, self.n)) @ g.matrix.T

    def loglik_batch(self, observations, g: GroupElement) -> np.ndarray:
        x = np.asarray(observations, dtype=float)
        u = np.linalg.solve(g.matrix, x.T).T
        sign, logabsdet = np.linalg.slogdet(g.matrix)
        if sign <= 0:
            raise DomainError("group element has non-positive determinant")
        return -logabsdet - 0.5 * np.einsum("mi,mi->m", u, u)

    def summarize(self, observations):
        x = np.asarray(observations, dtype=float)
        return x.shape[0], (x.T @ x) / x.shape[0]

    def evaluate(self, summary, G, with_fim: bool = True):
        """From one inverse per iterate; the FIM is the model's one array."""
        m, xbar2 = summary
        ginv = np.linalg.inv(G)
        ginv_t = np.swapaxes(ginv, -1, -2)
        U = np.linalg.solve(G, xbar2) @ ginv_t
        _, logabsdet = np.linalg.slogdet(G)
        ll = m * (-logabsdet - 0.5 * np.trace(U, axis1=-2, axis2=-1))
        Ubar = ginv @ xbar2 @ ginv_t
        grad = m[:, None] * (_trace_products(Ubar, self._m_matrices) - self._m_traces)
        return ll, grad, self.fim_reduced(G) if with_fim else None

    # -- analytic derivatives -----------------------------------------------

    def analytic_gradient_batch(self, observations, g, directions):
        D = np.reshape(directions, (-1, self.n, self.n))
        x = np.asarray(observations, dtype=float)
        u = np.linalg.solve(g.matrix, x.T).T
        quad = np.einsum("mi,dij,mj->md", u, D, u)
        return quad - np.trace(D, axis1=1, axis2=2)[None, :]

    def natural_fim(self, G, directions):
        """2 tr(sym(D_i) sym(D_j)), the same at every G."""
        D = directions.reshape(directions.shape[:-1] + (self.n, self.n))
        S = 0.5 * (D + np.swapaxes(D, -1, -2))
        flat = S.reshape(directions.shape)
        return 2.0 * (flat @ np.swapaxes(flat, -1, -2))


def _trace_products(U, M) -> np.ndarray:
    """(B, k) traces tr(U_b M_d) of a (B, n, n) stack U and a (k, n, n)
    stack M, summed over j within each row i and then over the rows, the
    order in which einsum("ij,dji->d") sums one U: the pinned SPD
    outputs keep their bits."""
    P = U[:, None] * np.swapaxes(M, -1, -2)  # [b, d, i, j] = U_ij M_dji
    n = U.shape[-1]
    rows = P[..., 0]
    for j in range(1, n):
        rows = rows + P[..., j]
    out = rows[..., 0]
    for i in range(1, n):
        out = out + rows[..., i]
    return out


def spd_grad(x_second_moment, g: GroupElement) -> np.ndarray:
    """Symmetric-projected gradient (X Sigma^-1 + Sigma^-1 X - 2 I) / 4
    of the covariance-form log-density at Sigma = g g'."""
    X = np.asarray(x_second_moment, dtype=float)
    if np.abs(X - X.T).max() > 1e-9:
        raise ValueError("second moment must be symmetric")
    Sigma = g.matrix @ g.matrix.T
    if np.linalg.cond(Sigma) > 1e14:
        raise DomainError("model covariance is numerically singular")
    S = np.linalg.inv(Sigma)
    n = Sigma.shape[0]
    return 0.25 * (X @ S + S @ X - 2.0 * np.eye(n))
