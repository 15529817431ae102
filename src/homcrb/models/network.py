"""Distance-based sensor network localization on SE(d)^|V| (d = 2).

Agent i carries g_i = (R_i, p_i) in SE(2); the rotation is auxiliary.
Each edge (i, j) measures x_ij ~ N(|p_i - p_j|^2 / 2, sigma_ij^2). The
likelihood is invariant under left multiplication by diagonal rigid
motions of the whole network, and under per-agent rotations that fix the
agent's position (which act on the right); together they form a
symmetry family of dimension |V| + 3.

Those degenerate directions are not closed under the Lie bracket, so the
structure is assembled directly (no subalgebra validation): h collects
the per-agent rotations about own position plus the rigid-motion
generators, and m is the per-agent translation generators with the first
three (agent-1 x/y, agent-2 x) discarded, after canonically rotating the
reference so agents 1 and 2 lie on the y-axis. In that translation basis
the reduced FIM is a submatrix of the Symmetric Rigidity Matrix.
"""

from __future__ import annotations

import json
import math
from functools import partial
from pathlib import Path

import numpy as np

from .. import groups
from ..exceptions import ConfigError, DegenerateModelError
from ..fisher import ANALYTIC, REDUCED, FimMatrix
from ..groups import GroupElement
from ..homspace import ReductiveStructure, Side
from ..scoring import as_integer
from .base import GaussianModel, whitened_gram

_J = np.array([[0.0, -1.0], [1.0, 0.0]])


def network_dimensions(d: int, n_agents: int) -> tuple[int, int, int]:
    """(n_G, n_H, n_Theta) for SE(d)^V distance localization: the group
    has binom(d+1, 2) V dimensions, the symmetries binom(d, 2) V (agent
    rotations) plus binom(d+1, 2) (rigid motions), leaving
    d V - binom(d+1, 2) informative directions."""
    if d < 1 or n_agents < 1:
        raise ValueError("need d >= 1 and at least one agent")
    se_d = (d + 1) * d // 2
    so_d = d * (d - 1) // 2
    n_G = se_d * n_agents
    n_H = so_d * n_agents + se_d
    return n_G, n_H, d * n_agents - se_d


def canonicalize_positions(positions: np.ndarray) -> np.ndarray:
    """Translate agent 1 to the origin and rotate agent 2 onto the +y
    axis, so the discarded translation directions are non-informative."""
    p = np.asarray(positions, dtype=float)
    d = p[1] - p[0]
    r = float(np.linalg.norm(d))
    if r < 1e-12:
        raise DegenerateModelError("first two agents coincide; no canonical frame")
    phi = math.atan2(d[1], d[0])
    rot = math.pi / 2.0 - phi
    c, s = math.cos(rot), math.sin(rot)
    R = np.array([[c, -s], [s, c]])
    return (p - p[0]) @ R.T


def _validate_edges(n_agents: int, edges) -> list[tuple[int, int]]:
    seen = set()
    out = []
    for i, j in edges:
        i, j = as_integer(i, "edge endpoint"), as_integer(j, "edge endpoint")
        if i == j:
            raise ConfigError(f"self-loop at agent {i}")
        if not (0 <= i < n_agents and 0 <= j < n_agents):
            raise ConfigError(f"edge ({i},{j}) out of range")
        key = (min(i, j), max(i, j))
        if key in seen:
            raise ConfigError(f"duplicate edge ({i},{j})")
        seen.add(key)
        out.append((i, j))
    return out


def _edge_arrays(edges) -> tuple[np.ndarray, np.ndarray]:
    """Endpoint index arrays (i, j) of an edge list."""
    return tuple(np.asarray(edges, dtype=int).reshape(-1, 2).T)


def _position_slots(n_agents: int) -> tuple[np.ndarray, np.ndarray]:
    """(rows, cols) indices of the agents' translations in an SE(2)^n
    matrix, shaped so that matrix[rows, cols] is the (n, 2) positions."""
    base = 3 * np.arange(n_agents)
    return base[:, None] + np.arange(2), (base + 2)[:, None]


def _sensitivities(p, i, j, directions) -> np.ndarray:
    """(..., n_dirs, n_edges) derivatives of the edge means
    |p_i - p_j|^2 / 2 along RIVF directions with per-agent coordinates
    (omega, v), shaped (n_dirs, n_agents, 3): agent a moves at
    omega_a J p_a + v_a. p is (..., n_agents, 2), one leading index per
    network state."""
    vel = directions[..., :1] * (p @ _J.T)[..., None, :, :] + directions[..., 1:]
    return np.einsum(
        "...ek,...dek->...de", p[..., i, :] - p[..., j, :], vel[..., i, :] - vel[..., j, :]
    )


def _translation_directions(n_agents: int) -> np.ndarray:
    """The 2 n_agents per-agent translation generators, agent-major."""
    out = np.zeros((2 * n_agents, n_agents, 3))
    a = np.arange(n_agents)
    out[2 * a, a, 1] = 1.0
    out[2 * a + 1, a, 2] = 1.0
    return out


def rigidity_matrix(positions, edges, sigmas) -> np.ndarray:
    """Symmetric Rigidity Matrix A' diag(sigma^-2) A, with A the edge
    sensitivities to agent translations: diagonal blocks sum the
    edge-direction outer products over neighbors, off-diagonal blocks
    negate them. It is the FIM of all translation directions."""
    p = np.asarray(positions, dtype=float)
    i, j = _edge_arrays(edges)
    sig = np.broadcast_to(np.asarray(sigmas, dtype=float), i.shape)
    return whitened_gram(_sensitivities(p, i, j, _translation_directions(len(p))), sig)


def _network_group(n_agents: int) -> groups.GroupDescriptor:
    return groups.product_group([groups.se2()] * n_agents, name=f"SE(2)^{n_agents}")


def _reference_element(descriptor: groups.GroupDescriptor, positions) -> GroupElement:
    """The SE(2)^n element with identity rotations at the given positions."""
    n = len(descriptor.blocks)
    M = np.eye(3 * n)
    M[_position_slots(n)] = np.asarray(positions, dtype=float)
    return GroupElement(descriptor, M)


def _sample_diagonal_rigid_motion(
    rng: np.random.Generator, descriptor: groups.GroupDescriptor
) -> GroupElement:
    """Random (h, h, ..., h) with h an SE(2) rigid motion: angle uniform
    on [-pi, pi], translation standard normal."""
    angle = rng.uniform(-math.pi, math.pi)
    t = rng.standard_normal(2)
    c, s = math.cos(angle), math.sin(angle)
    block = np.eye(3)
    block[:2, :2] = [[c, -s], [s, c]]
    block[:2, 2] = t
    return GroupElement(
        descriptor, groups.block_diagonal([block] * len(descriptor.blocks))
    )


class NetworkModel(GaussianModel):
    """Sensor network localization from squared-distance measurements."""

    def __init__(self, positions, edges, sigmas=0.1):
        p = np.atleast_2d(np.asarray(positions, dtype=float))
        if p.shape[1] != 2:
            raise ConfigError("only d = 2 networks are shipped")
        if len(p) < 2:
            raise ConfigError("need at least two agents")
        if not np.isfinite(p).all():
            raise ConfigError("agent positions must be finite")
        self.edges = _validate_edges(len(p), edges)
        self.sigmas = self._set_noise(sigmas, (len(self.edges),))
        if np.any(self.sigmas <= 0):
            raise ConfigError("edge noise sigmas must be positive")
        self.positions = canonicalize_positions(p)
        n = len(p)
        self.n_agents = n
        self.descriptor = _network_group(n)
        self._i, self._j = _edge_arrays(self.edges)
        self._slots = _position_slots(n)
        self.struct = self._build_structure()

    # -- structure ---------------------------------------------------------

    def _build_structure(self) -> ReductiveStructure:
        """h: per-agent rotations about own position, then the rigid motions
        (one se(2) direction in every block); m: agent-major translations
        less the first three. h is not a subalgebra (module docstring)."""
        n = self.n_agents
        a = np.arange(n)
        rotations = np.zeros((n, n, 3))
        rotations[a, a, 0] = 1.0
        rotations[a, a, 1:] = self.positions @ (-_J).T
        basis = np.vstack([
            rotations.reshape(n, 3 * n),
            np.tile(np.eye(3), n),
            _translation_directions(n).reshape(2 * n, 3 * n)[3:],
        ])
        return ReductiveStructure(
            self.descriptor,
            Side.H_MOD_G,
            n + 3,
            basis,
            subgroup_sampler=partial(
                _sample_diagonal_rigid_motion, descriptor=self.descriptor
            ),
        )

    # -- observations --------------------------------------------------------

    def reference_element(self, positions=None) -> GroupElement:
        p = self.positions if positions is None else positions
        return _reference_element(self.descriptor, p)

    def positions_of(self, g: GroupElement) -> np.ndarray:
        return self._positions(g.matrix)

    def _positions(self, G) -> np.ndarray:
        """(..., n_agents, 2) positions of a matrix or of each of a stack."""
        rows, cols = self._slots
        return G[..., rows, cols]

    def edge_means(self, g: GroupElement) -> np.ndarray:
        return self._mean(g.matrix)

    def _mean(self, G) -> np.ndarray:
        p = self._positions(G)
        d = p[..., self._i, :] - p[..., self._j, :]
        return 0.5 * np.sum(d * d, axis=-1)

    def _terms(self, G, directions) -> np.ndarray:
        """(..., n_dirs, n_edges) array of d mu_e along each RIVF direction."""
        return _sensitivities(
            self._positions(G),
            self._i,
            self._j,
            directions.reshape(len(directions), self.n_agents, 3),
        )


def nonzero_eigenvalues(eig: np.ndarray) -> np.ndarray:
    """Mask of the eigenvalues above 1e-10 max(lambda_max, 1); the others
    are rounding noise around a null space."""
    return eig > 1e-10 * max(eig.max(initial=0.0), 1.0)


def network_fim(positions, edges, sigmas) -> FimMatrix:
    """Reduced FIM as the rigidity-matrix submatrix (drop the first three
    rows/columns of the translation coordinates); refuses flex graphs."""
    p = np.asarray(positions, dtype=float)
    S = rigidity_matrix(p, edges, sigmas)
    F = S[3:, 3:].copy()
    n_theta = F.shape[0]
    eig = np.linalg.eigvalsh(F)
    rank = int(np.sum(nonzero_eigenvalues(eig)))
    if rank < n_theta:
        raise DegenerateModelError(
            f"network is not rigid: reduced FIM rank {rank} < {n_theta}",
            rank_gap=n_theta - rank,
        )
    at = _reference_element(_network_group(len(p)), p)
    return FimMatrix(REDUCED, at, F, ANALYTIC, 0)


def load_graph(path) -> dict:
    """Read {"positions": [[x, y], ...], "edges": [[i, j, sigma], ...]}
    with 0-based agent indices, checked as NetworkModel checks its edges."""
    data = json.loads(Path(path).read_text())
    try:
        positions = [[float(c) for c in row] for row in data["positions"]]
        edges = _validate_edges(len(positions), [e[:2] for e in data["edges"]])
        sigmas = [float(e[2]) for e in data["edges"]]
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        raise ConfigError(f"malformed graph document {path}: {exc}") from exc
    return {"positions": positions, "edges": edges, "sigmas": sigmas}
