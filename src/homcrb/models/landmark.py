"""SE(3) landmark pose estimation on the right coset space H\\SE(3).

A robot at pose g = (R, p) measures known world-frame landmarks a_k in
its body frame: x_k ~ N(R'(a_k - p), sigma_k^2 I). The likelihood is
invariant under left multiplication by rotations fixing every landmark:
all rotations about a single landmark (n_H = 3), rotations about the
axis through two landmarks (n_H = 1), trivial for >= 3 non-collinear.

The analytic gradient and FIM along a direction X = (Omega, v) are
    X^R l(g)   = sum_k (Omega a_k + v)'(a_k - p - R x_k) / sigma_k^2
    F(X_i,X_j) = sum_k (Omega_j a_k + v_j)'(Omega_i a_k + v_i) / sigma_k^2
They are taken in the world frame: rotating the body-frame residual and
the mean's derivative by R turns the derivative into -(Omega a_k + v),
which does not depend on g. So the FIM is the same array at every g,
computed once, and rows along the stabilizer directions are exactly 0.
"""

from __future__ import annotations

import numpy as np

from .. import groups
from ..groups import GroupElement, hat
from ..homspace import ReductiveStructure, Side, build_reductive
from .base import GaussianModel


def se3_element(R: np.ndarray, p: np.ndarray) -> GroupElement:
    M = np.eye(4)
    M[:3, :3] = R
    M[:3, 3] = p
    return GroupElement(groups.se3(), M)


def _translation_metric_factors(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ad matrices of the translations by -a and +a in (omega, v) coords.

    Gram-Schmidt under <x, y> = (Mx)'(My) with M = Ad_{T_{-a}} leaves the
    point-stabilizer basis and the pure translations orthonormal, which
    yields the Ad_H-invariant complement m = pure translations.
    """
    M = np.eye(6)
    M[3:, :3] = -hat(a)
    M_inv = np.eye(6)
    M_inv[3:, :3] = hat(a)
    return M, M_inv


def _landmark_structure(landmarks: np.ndarray) -> ReductiveStructure:
    desc = groups.se3()
    k = len(landmarks)
    if k == 1:
        a = landmarks[0]
        # The subalgebra fixing a is spanned by (e_i, a^ e_i), built with the
        # hat arithmetic of the FIM formulas so Omega a + v cancels exactly.
        h = [np.concatenate([e, hat(a) @ e]) for e in np.eye(3)]
        seeds = np.eye(6)[3:]
        return build_reductive(
            desc, h, seed_m=seeds, side=Side.H_MOD_G, metric=_translation_metric_factors(a)
        )
    if k == 2:
        a1, a2 = landmarks
        axis = a1 - a2
        axis = axis / np.linalg.norm(axis)
        h = [np.concatenate([axis, hat(a1) @ axis])]
        metric = _translation_metric_factors(a1)
        # Ad_{T_{a1}} images of the standard basis keep m Ad_H-invariant:
        # rotations about axes through a1 plus pure translations.
        seeds = [metric[1] @ row for row in np.eye(6)]
        return build_reductive(desc, h, seed_m=seeds, side=Side.H_MOD_G, metric=metric)
    # Three or more non-collinear landmarks: trivial symmetry group.
    return build_reductive(desc, [], side=Side.H_MOD_G)


class LandmarkModel(GaussianModel):
    """Pose estimation from body-frame landmark observations."""

    invariant_fim = True

    def __init__(self, landmarks, noise=1.0):
        landmarks = np.array(landmarks, dtype=float, ndmin=2)  # a copy
        if landmarks.shape[1] != 3:
            raise ValueError("landmarks must be points in R^3")
        if not np.isfinite(landmarks).all():
            raise ValueError("landmarks must be finite")
        if len(landmarks) == 2 and np.allclose(landmarks[0], landmarks[1]):
            raise ValueError("two-landmark model requires distinct landmarks")
        # Read-only: the FIM and the m-basis terms are derived from them once.
        self.landmarks = groups._frozen(landmarks)
        self.noise = self._set_noise(noise, landmarks.shape)
        if np.any(self.noise < 0):
            raise ValueError("noise standard deviations must be nonnegative")
        self.descriptor = groups.se3()
        self.struct = _landmark_structure(landmarks)
        self._m_basis_terms = self._terms(None, self.struct.m_basis)

    def mean_observation(self, g: GroupElement) -> np.ndarray:
        return self._mean(g.matrix)

    def _mean(self, G) -> np.ndarray:
        """Rows R'(a_k - p) at a pose matrix or at each of a stack."""
        R, p = G[..., :3, :3], G[..., :3, 3]
        return (self.landmarks - p[..., None, :]) @ R

    def _residual(self, x, G, mu) -> np.ndarray:
        """World-frame residual R(mu_k - x_k) = (a_k - p) - R x_k, from G."""
        R, p = G[..., :3, :3], G[..., :3, 3]
        return (self.landmarks - p[..., None, :]) - x @ np.swapaxes(R, -1, -2)

    def _terms(self, G, directions) -> np.ndarray:
        """(..., n_dirs, K, 3) array of Omega_d a_k + v_d, the world-frame
        derivative -R X mu_k at every g, for directions (..., n_dirs, 6)."""
        directions = np.asarray(directions, dtype=float)
        Omega_t = np.swapaxes(hat(directions[..., :3]), -1, -2)
        return self.landmarks @ Omega_t + directions[..., None, 3:]

    def _mean_and_m_terms(self, G) -> tuple[np.ndarray, np.ndarray]:
        return self._mean(G), self._m_basis_terms
