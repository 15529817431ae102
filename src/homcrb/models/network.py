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
from ..groups import AlgebraVector, GroupElement
from ..homspace import RIVF, ReductiveStructure, Side, structure_from_bases
from .base import ModelBase, translate_directions

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
        i, j = int(i), int(j)
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
    """(n_dirs, n_edges) derivatives of the edge means |p_i - p_j|^2 / 2
    along RIVF directions with per-agent coordinates (omega, v), shaped
    (n_dirs, n_agents, 3): agent a moves at omega_a J p_a + v_a."""
    vel = directions[..., :1] * (p @ _J.T) + directions[..., 1:]
    return np.einsum("ek,dek->de", p[i] - p[j], vel[:, i] - vel[:, j])


def _whitened_gram(sens, sigmas) -> np.ndarray:
    """Single-observation FIM sum_e s_e s_e' / sigma_e^2 of edge
    sensitivities s (directions x edges)."""
    A = sens / sigmas[None, :]
    return A @ A.T


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
    return _whitened_gram(
        _sensitivities(p, i, j, _translation_directions(len(p))), sig
    )


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
    n = len(descriptor.factors)
    M = np.eye(descriptor.matrix_dim)
    for k in range(n):
        M[3 * k : 3 * k + 3, 3 * k : 3 * k + 3] = block
    return GroupElement(descriptor, M)


class NetworkModel(ModelBase):
    """Sensor network localization from squared-distance measurements."""

    def __init__(self, positions, edges, sigmas=0.1):
        p = np.atleast_2d(np.asarray(positions, dtype=float))
        if p.shape[1] != 2:
            raise ConfigError("only d = 2 networks are shipped")
        if len(p) < 2:
            raise ConfigError("need at least two agents")
        self.edges = _validate_edges(len(p), edges)
        self.sigmas = np.broadcast_to(
            np.asarray(sigmas, dtype=float), (len(self.edges),)
        ).copy()
        if np.any(self.sigmas <= 0):
            raise ConfigError("edge noise sigmas must be positive")
        self.positions = canonicalize_positions(p)
        n = len(p)
        self.n_agents = n
        self.descriptor = groups.product_group([groups.se2()] * n, name=f"SE(2)^{n}")
        self._i, self._j = _edge_arrays(self.edges)
        self._slots = _position_slots(n)
        self.struct = self._build_structure()

    # -- structure ---------------------------------------------------------

    def _agent_vector(self, agent: int, omega: float, v) -> AlgebraVector:
        c = np.zeros(3 * self.n_agents)
        c[3 * agent] = omega
        c[3 * agent + 1 : 3 * agent + 3] = v
        return AlgebraVector(self.descriptor, c)

    def _build_structure(self) -> ReductiveStructure:
        n = self.n_agents
        h = [
            self._agent_vector(i, 1.0, -_J @ self.positions[i]) for i in range(n)
        ]
        rigid_rot = np.zeros(3 * n)
        rigid_tx = np.zeros(3 * n)
        rigid_ty = np.zeros(3 * n)
        for i in range(n):
            rigid_rot[3 * i] = 1.0
            rigid_tx[3 * i + 1] = 1.0
            rigid_ty[3 * i + 2] = 1.0
        h += [
            AlgebraVector(self.descriptor, rigid_rot),
            AlgebraVector(self.descriptor, rigid_tx),
            AlgebraVector(self.descriptor, rigid_ty),
        ]
        m = [self._agent_vector(1, 0.0, [0.0, 1.0])]
        for i in range(2, n):
            m.append(self._agent_vector(i, 0.0, [1.0, 0.0]))
            m.append(self._agent_vector(i, 0.0, [0.0, 1.0]))
        return structure_from_bases(
            self.descriptor,
            h,
            m,
            Side.H_MOD_G,
            subgroup_sampler=partial(
                _sample_diagonal_rigid_motion, descriptor=self.descriptor
            ),
        )

    # -- observations --------------------------------------------------------

    def reference_element(self, positions=None) -> GroupElement:
        p = self.positions if positions is None else np.asarray(positions, float)
        M = np.eye(3 * self.n_agents)
        M[self._slots] = p
        return GroupElement(self.descriptor, M)

    def positions_of(self, g: GroupElement) -> np.ndarray:
        return g.matrix[self._slots]

    def edge_means(self, g: GroupElement) -> np.ndarray:
        p = self.positions_of(g)
        d = p[self._i] - p[self._j]
        return 0.5 * np.sum(d * d, axis=1)

    def sample(self, g: GroupElement, m: int, rng: np.random.Generator):
        mu = self.edge_means(g)
        return mu[None, :] + self.sigmas[None, :] * rng.standard_normal(
            (m, len(self.edges))
        )

    def loglik_batch(self, observations, g: GroupElement) -> np.ndarray:
        x = np.asarray(observations, dtype=float)
        if x.ndim != 2 or x.shape[1] != len(self.edges):
            raise ValueError("observations must be (n, n_edges)")
        resid = x - self.edge_means(g)[None, :]
        return -0.5 * np.einsum("me,me,e->m", resid, resid, 1.0 / self.sigmas**2)

    def summarize(self, observations):
        x = np.asarray(observations, dtype=float)
        return x.shape[0], x.mean(axis=0), np.einsum("me,me->e", x, x)

    def total_loglik(self, summary, g: GroupElement) -> float:
        m, xbar, sq = summary
        mu = self.edge_means(g)
        w = 1.0 / self.sigmas**2
        return float(-0.5 * np.sum(w * (sq - 2.0 * m * xbar * mu + m * mu * mu)))

    # -- analytic derivatives --------------------------------------------------

    def _edge_sensitivities(self, g: GroupElement, directions) -> np.ndarray:
        """(n_dirs, n_edges) array of d mu_e along each RIVF direction."""
        coords = np.array([vec.coords for vec in directions])
        return _sensitivities(
            self.positions_of(g),
            self._i,
            self._j,
            coords.reshape(len(directions), self.n_agents, 3),
        )

    def analytic_gradient_batch(self, observations, g, directions, op):
        dirs = translate_directions(directions, g, RIVF, op)
        x = np.asarray(observations, dtype=float)
        resid = x - self.edge_means(g)[None, :]
        sens = self._edge_sensitivities(g, dirs)
        return np.einsum("me,de,e->md", resid, sens, 1.0 / self.sigmas**2)

    def analytic_fim(self, g, directions, op):
        dirs = translate_directions(directions, g, RIVF, op)
        return _whitened_gram(self._edge_sensitivities(g, dirs), self.sigmas)

    def total_grad_m(self, summary, g: GroupElement) -> np.ndarray:
        m, xbar, _ = summary
        resid = xbar - self.edge_means(g)
        sens = self._edge_sensitivities(g, self.struct.m_basis)
        return m * np.einsum("e,de,e->d", resid, sens, 1.0 / self.sigmas**2)


def network_fim(positions, edges, sigmas) -> FimMatrix:
    """Reduced FIM as the rigidity-matrix submatrix (drop the first three
    rows/columns of the translation coordinates); refuses flex graphs."""
    p = np.asarray(positions, dtype=float)
    S = rigidity_matrix(p, edges, sigmas)
    F = S[3:, 3:].copy()
    n_theta = F.shape[0]
    eig = np.linalg.eigvalsh(F)
    rank = int(np.sum(eig > 1e-10 * max(eig.max(initial=0.0), 1.0)))
    if rank < n_theta:
        raise DegenerateModelError(
            f"network is not rigid: reduced FIM rank {rank} < {n_theta}",
            rank_gap=n_theta - rank,
        )
    n = len(p)
    desc = groups.product_group([groups.se2()] * n, name=f"SE(2)^{n}")
    M = np.eye(3 * n)
    M[_position_slots(n)] = p
    at = GroupElement(desc, M)
    return FimMatrix(REDUCED, at, F, ANALYTIC, 0)


def load_graph(path) -> dict:
    """Read {"positions": [[x, y], ...], "edges": [[i, j, sigma], ...]}
    with 0-based agent indices."""
    data = json.loads(Path(path).read_text())
    try:
        positions = [[float(c) for c in row] for row in data["positions"]]
        edges = [(int(e[0]), int(e[1])) for e in data["edges"]]
        sigmas = [float(e[2]) for e in data["edges"]]
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        raise ConfigError(f"malformed graph document {path}: {exc}") from exc
    return {"positions": positions, "edges": edges, "sigmas": sigmas}
