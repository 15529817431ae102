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
from functools import cached_property, partial
from pathlib import Path

import numpy as np

from .. import groups
from ..exceptions import ConfigError, DegenerateModelError
from ..fisher import ANALYTIC, REDUCED, FimMatrix
from ..groups import GroupElement, as_integer
from ..homspace import ReductiveStructure, Side
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


def _jacobian_slots(n_agents: int, i, j) -> np.ndarray:
    """(2, n_edges, 2) flat indices into a (2 n_agents, n_edges) array of
    each edge's entries: [0] at agent i's x, y rows, [1] at agent j's."""
    n_edges = len(i)
    rows = 2 * np.stack([i, j])[..., None] + np.arange(2)
    return rows * n_edges + np.arange(n_edges)[:, None]


def _translation_jacobian(d, slots, n_agents: int) -> np.ndarray:
    """(..., 2 n_agents, n_edges) derivatives of the edge means along the
    agent-major translation generators, from the edge vectors d
    (..., n_edges, 2): +d_e at agent i, -d_e at agent j, zero elsewhere.
    Bit for bit the _sensitivities of _translation_directions, whose sums
    start from +0 and so never end at -0: hence d + 0 and 0 - d."""
    n_edges = d.shape[-2]
    out = np.zeros(d.shape[:-2] + (2 * n_agents * n_edges,))
    out[..., slots] = np.stack([d + 0.0, 0.0 - d], axis=-3)
    return out.reshape(d.shape[:-2] + (2 * n_agents, n_edges))


def _edge_means(d) -> np.ndarray:
    """(..., n_edges) |p_i - p_j|^2 / 2 from the edge vectors d."""
    return 0.5 * np.sum(d * d, axis=-1)


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
    A = _translation_jacobian(p[i] - p[j], _jacobian_slots(len(p), i, j), len(p))
    return whitened_gram(A, sig)


def _network_group(n_agents: int) -> groups.GroupDescriptor:
    return groups.product_group([groups.se2()] * n_agents, name=f"SE(2)^{n_agents}")


def _reference_element(descriptor: groups.GroupDescriptor, positions) -> GroupElement:
    """The SE(2)^n element with identity rotations at the given positions."""
    n = len(descriptor.blocks)
    M = np.eye(3 * n)
    M[_position_slots(n)] = np.asarray(positions, dtype=float)
    return GroupElement(descriptor, M)


def _sample_diagonal_rigid_motion(
    rng: np.random.Generator, k: int, descriptor: groups.GroupDescriptor
) -> np.ndarray:
    """(k, d, d) stack of random (h, h, ..., h), each h an SE(2) rigid
    motion: angle uniform on [-pi, pi], translation standard normal."""
    angle = rng.uniform(-math.pi, math.pi, k)
    c, s = np.cos(angle), np.sin(angle)
    block = np.zeros((k, 3, 3))
    block[:, 0, 0], block[:, 0, 1], block[:, 1, 0], block[:, 1, 1] = c, -s, s, c
    block[:, :2, 2] = rng.standard_normal((k, 2))
    block[:, 2, 2] = 1.0
    return groups.block_diagonal([block] * len(descriptor.blocks))


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
        # Flat indices, fixed per model: the endpoint positions of every
        # edge in a (3n, 3n) iterate, (2, n_edges, 2) as [p_i, p_j], and
        # their Jacobian entries in a (2n, n_edges) array.
        rows, cols = self._slots
        at = rows * (3 * n) + cols
        self._endpoint_slots = np.stack([at[self._i], at[self._j]])
        self._jacobian_slots = _jacobian_slots(n, self._i, self._j)
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

    @cached_property
    def rigidity(self) -> tuple[np.ndarray, np.ndarray]:
        """The rigidity matrix S at the canonical positions and the
        eigenvalues of its reduced-FIM block, built once per model and
        read-only; raises DegenerateModelError with the rank gap on a flex
        graph."""
        S = groups._frozen(rigidity_matrix(self.positions, self.edges, self.sigmas))
        return S, groups._frozen(_reduced_fim_eigenvalues(S))

    # -- observations --------------------------------------------------------

    def reference_element(self, positions=None) -> GroupElement:
        p = self.positions if positions is None else positions
        return _reference_element(self.descriptor, p)

    def _positions(self, G) -> np.ndarray:
        """(..., n_agents, 2) positions of a matrix or of each of a stack."""
        rows, cols = self._slots
        return G[..., rows, cols]

    def edge_means(self, g: GroupElement) -> np.ndarray:
        return self._mean(g.matrix)

    def _edge_vectors(self, G) -> np.ndarray:
        """(..., n_edges, 2) p_i - p_j of every edge (i, j), for a matrix or
        each of a stack: one take from the flattened matrices."""
        ends = G.reshape(G.shape[:-2] + (-1,))[..., self._endpoint_slots]
        return ends[..., 0, :, :] - ends[..., 1, :, :]

    def _mean(self, G) -> np.ndarray:
        return _edge_means(self._edge_vectors(G))

    def _mean_and_m_terms(self, G) -> tuple[np.ndarray, np.ndarray]:
        """Both from one gather of the edge vectors."""
        d = self._edge_vectors(G)
        return _edge_means(d), self._m_terms_of(d)

    def _m_terms_of(self, d) -> np.ndarray:
        """_terms along the m-basis, the translations less the first three,
        from the edge vectors: the rows 3: of the translation Jacobian."""
        return _translation_jacobian(d, self._jacobian_slots, self.n_agents)[..., 3:, :]

    def _terms(self, G, directions) -> np.ndarray:
        """(..., n_dirs, n_edges) array of d mu_e along each RIVF direction."""
        return _sensitivities(
            self._positions(G),
            self._i,
            self._j,
            directions.reshape(directions.shape[:-1] + (self.n_agents, 3)),
        )


def nonzero_eigenvalues(eig: np.ndarray) -> np.ndarray:
    """Mask of the eigenvalues above 1e-10 max(lambda_max, 1); the others
    are rounding noise around a null space."""
    return eig > 1e-10 * max(eig.max(initial=0.0), 1.0)


def _reduced_fim_eigenvalues(S) -> np.ndarray:
    """Eigenvalues of the reduced FIM S[3:, 3:] of a rigidity matrix S
    (drop the first three translation coordinates); raises
    DegenerateModelError with the rank gap when the graph flexes."""
    eig = np.linalg.eigvalsh(S[3:, 3:])
    n_theta = len(eig)
    rank = int(np.sum(nonzero_eigenvalues(eig)))
    if rank < n_theta:
        raise DegenerateModelError(
            f"network is not rigid: reduced FIM rank {rank} < {n_theta}",
            rank_gap=n_theta - rank,
        )
    return eig


def network_fim(positions, edges, sigmas) -> FimMatrix:
    """Reduced FIM as the rigidity-matrix submatrix (drop the first three
    rows/columns of the translation coordinates); refuses flex graphs."""
    p = np.asarray(positions, dtype=float)
    S = rigidity_matrix(p, edges, sigmas)
    _reduced_fim_eigenvalues(S)
    at = _reference_element(_network_group(len(p)), p)
    return FimMatrix(REDUCED, at, S[3:, 3:].copy(), ANALYTIC, 0)


def load_graph(path) -> dict:
    """Read {"positions": [[x, y], ...], "edges": [[i, j, sigma], ...]}
    with 0-based agent indices, checked as NetworkModel checks its edges.
    A file that cannot be read or parsed is a ConfigError naming the path."""
    try:
        data = json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read graph document {path}: {exc}") from exc
    try:
        positions = [[float(c) for c in row] for row in data["positions"]]
        edges = _validate_edges(len(positions), [e[:2] for e in data["edges"]])
        sigmas = [float(e[2]) for e in data["edges"]]
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        raise ConfigError(f"malformed graph document {path}: {exc}") from exc
    return {"positions": positions, "edges": edges, "sigmas": sigmas}
