import math
import tracemalloc

import numpy as np
import pytest

from homcrb import crb, fisher, groups, homspace, scoring
from homcrb.exceptions import ConfigError, DegenerateModelError, DomainError
from homcrb.groups import AlgebraVector
from homcrb.models import (
    GaussianMeanModel,
    LandmarkModel,
    NetworkModel,
    SpdModel,
    canonicalize_positions,
    invariance_defect,
    load_graph,
    network_fim,
    rigidity_matrix,
    se3_element,
    spd_grad,
)
from homcrb.models import network
from homcrb.models.base import natural_operator, whitened_gram


# ---------------------------------------------------------------------------
# Landmark model


def test_landmark_loglik_zero_residual(landmark_two, rng):
    g = groups.random_element(groups.se3(), rng, 0.5)
    x = landmark_two.mean_observation(g)
    assert landmark_two.loglik(x, g) == 0.0


def test_landmark_loglik_unit_residual(landmark_one):
    g = groups.identity_element(groups.se3())
    x = landmark_one.mean_observation(g) + np.array([[1.0, 0.0, 0.0]])
    assert abs(landmark_one.loglik(x, g) + 0.5) <= 1e-12


def test_landmark_invariance_under_stabilizer(landmark_one, rng):
    g = groups.random_element(groups.se3(), rng, 0.6)
    x = landmark_one.sample(g, 1, rng)
    base = landmark_one.loglik(x[0], g)
    for _ in range(20):
        h = landmark_one.struct.subgroup_sampler(rng)
        assert abs(landmark_one.loglik(x[0], h @ g) - base) <= 1e-12


def test_landmark_grad_zero_residual(landmark_two, rng):
    g = groups.random_element(groups.se3(), rng, 0.5)
    x = landmark_two.mean_observation(g)
    X = groups.random_algebra_vector(groups.se3(), rng, 1.0)
    grad = landmark_two.analytic_gradient_batch(x[None], g, X.coords[None], "rivf")
    grad = grad[0, 0]
    assert abs(grad) <= 1e-9


def test_landmark_grad_matches_rivf_derivative(landmark_two, rng):
    for _ in range(100):
        g = groups.random_element(groups.se3(), rng, 0.5)
        x = landmark_two.sample(g, 1, rng)[0]
        X = groups.random_algebra_vector(groups.se3(), rng, 1.0)
        fd = groups.rivf_derivative(lambda el: landmark_two.loglik(x, el), g, X)
        grad = landmark_two.analytic_gradient_batch(x[None], g, X.coords[None], "rivf")
        grad = grad[0, 0]
        assert abs(grad - fd) <= 1e-6


def test_landmark_grad_exactly_zero_on_h(landmark_one, rng):
    g = groups.random_element(groups.se3(), rng, 0.5)
    x = landmark_one.sample(g, 1, rng)[0]
    for X in landmark_one.struct.h_basis:
        grad = landmark_one.analytic_gradient_batch(x[None], g, [X], "rivf")
        assert grad[0, 0] == 0.0


def test_landmark_fim_hand_value():
    model = LandmarkModel([[1.0, 0.0, 0.0]])
    g = groups.identity_element(groups.se3())
    e1_trans = np.eye(6)[3:4]
    assert model.analytic_fim(g, e1_trans, "rivf")[0, 0] == 1.0


def test_landmark_fim_h_rows_exactly_zero(landmark_one, rng):
    g = groups.random_element(groups.se3(), rng, 0.5)
    F = landmark_one.analytic_fim(g, landmark_one.struct.basis, "rivf")
    assert np.all(F[:3, :] == 0.0) and np.all(F[:, :3] == 0.0)


def test_landmark_fim_constant_along_g(landmark_two, rng):
    dirs = landmark_two.struct.basis
    F0 = landmark_two.analytic_fim(groups.identity_element(groups.se3()), dirs, "rivf")
    for _ in range(5):
        g = groups.random_element(groups.se3(), rng, 0.8)
        assert np.array_equal(
            landmark_two.analytic_fim(g, dirs, "rivf"), F0
        )  # literally constant


def test_landmark_fim_matches_monte_carlo(landmark_one):
    g = groups.random_element(groups.se3(), np.random.default_rng(4), 0.3)
    Fa = fisher.fim(landmark_one, g, fisher.RIGHT)
    Fmc = fisher.fim(
        landmark_one, g, fisher.RIGHT, fisher.MC_GRADIENT, 100_000, random_state=5
    )
    assert np.linalg.norm(Fa.matrix - Fmc.matrix, 2) <= 0.05


def test_landmark_requires_distinct_landmarks():
    with pytest.raises(ValueError):
        LandmarkModel([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])


def test_landmark_zero_noise_samples_are_means(rng):
    model = LandmarkModel([[1.0, 0.0, 0.0]], noise=0.0)
    g = groups.random_element(groups.se3(), rng, 0.5)
    xs = model.sample(g, 5, rng)
    assert np.array_equal(xs, np.broadcast_to(model.mean_observation(g), xs.shape))
    with pytest.raises(DomainError):
        model.loglik(xs[0], g)


def test_landmark_sampling_mean_and_determinism():
    model = LandmarkModel([[1.0, 0.0, 0.0]])
    g = se3_element(np.eye(3), np.array([0.2, -0.1, 0.3]))
    xs = model.sample(g, 1_000_000, np.random.default_rng(11))
    mean = xs.mean(axis=0)[0]
    assert np.abs(mean - model.mean_observation(g)[0]).max() <= 0.005
    a = model.sample(g, 16, np.random.default_rng(123))
    b = model.sample(g, 16, np.random.default_rng(123))
    assert np.array_equal(a, b)


# ---------------------------------------------------------------------------
# Network model


def test_network_loglik_noiseless(triangle_network):
    g = triangle_network.reference_element()
    x = triangle_network.edge_means(g)
    assert triangle_network.loglik(x, g) == 0.0


def test_network_invariance_under_diagonal_rigid_motion(triangle_network, rng):
    g = triangle_network.reference_element()
    x = triangle_network.sample(g, 1, rng)
    base = triangle_network.loglik(x[0], g)
    for _ in range(20):
        h = triangle_network.struct.subgroup_sampler(rng)
        assert abs(triangle_network.loglik(x[0], h @ g) - base) <= 1e-12


def test_network_invariance_under_single_agent_rotation(triangle_network, rng):
    g = triangle_network.reference_element()
    x = triangle_network.sample(g, 1, rng)[0]
    base = triangle_network.loglik(x, g)
    theta = rng.uniform(-np.pi, np.pi)
    c, s = np.cos(theta), np.sin(theta)
    M = np.array(g.matrix)
    M[3:5, 3:5] = np.array([[c, -s], [s, c]]) @ M[3:5, 3:5]  # R_1 -> Q R_1
    rotated = groups.GroupElement(triangle_network.descriptor, M)
    assert abs(triangle_network.loglik(x, rotated) - base) <= 1e-12


def test_rigidity_matrix_two_agents():
    S = rigidity_matrix([[0.0, 0.0], [0.0, 1.0]], [(0, 1)], [1.0])
    e2 = np.outer([0.0, 1.0], [0.0, 1.0])
    assert np.array_equal(S[:2, :2], e2)
    assert np.array_equal(S[2:, 2:], e2)
    assert np.array_equal(S[:2, 2:], -e2)


def test_rigidity_matrix_empty_edges():
    assert np.all(rigidity_matrix([[0.0, 0.0], [1.0, 1.0]], [], []) == 0.0)


def test_rigidity_rank_bound_on_random_graphs():
    for t in range(50):
        r = np.random.default_rng([50, t])
        n = int(r.integers(2, 8))
        p = r.standard_normal((n, 2))
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        k = int(r.integers(1, len(pairs) + 1))
        chosen = [pairs[i] for i in r.choice(len(pairs), size=k, replace=False)]
        S = rigidity_matrix(p, chosen, 0.4)
        assert np.linalg.matrix_rank(S, tol=1e-10) <= 2 * n - 3


def test_network_fim_triangle_nonsingular(triangle_network):
    F = network_fim(
        triangle_network.positions, triangle_network.edges, triangle_network.sigmas
    )
    assert F.matrix.shape == (3, 3)
    assert np.linalg.eigvalsh(F.matrix).min() > 0


def test_network_fim_shares_the_model_descriptor(triangle_network):
    F = network_fim(
        triangle_network.positions, triangle_network.edges, triangle_network.sigmas
    )
    assert F.at.descriptor is triangle_network.descriptor


def test_network_fim_flex_graph_refused():
    with pytest.raises(DegenerateModelError) as err:
        network_fim([[0.0, 0.0], [0.0, 1.0], [1.0, 0.5]], [(0, 1), (1, 2)], 0.1)
    assert err.value.rank_gap == 1


def test_network_fim_equals_struct_basis_fim(triangle_network):
    """Submatrix-of-rigidity path against the generic per-direction path."""
    g = triangle_network.reference_element()
    F1 = network_fim(
        triangle_network.positions, triangle_network.edges, triangle_network.sigmas
    )
    F2 = fisher.fim(triangle_network, g, fisher.REDUCED)
    assert np.abs(F1.matrix - F2.matrix).max() <= 1e-12 * max(
        1.0, np.abs(F1.matrix).max()
    )


def test_network_fim_eigenvalue_interlacing(triangle_network):
    # lambda_min(Fbar) <= smallest nonzero eigenvalue of S (they are NOT
    # equal in general; two-agent counterexample gives 1 vs 2).
    S = rigidity_matrix(
        triangle_network.positions, triangle_network.edges, triangle_network.sigmas
    )
    ev = np.linalg.eigvalsh(S)
    nonzero = ev[ev > 1e-10 * ev.max()]
    F = network_fim(
        triangle_network.positions, triangle_network.edges, triangle_network.sigmas
    )
    assert np.linalg.eigvalsh(F.matrix).min() <= nonzero.min() + 1e-12
    S2 = rigidity_matrix([[0.0, 0.0], [0.0, 1.0]], [(0, 1)], [1.0])
    assert abs(np.linalg.eigvalsh(S2).max() - 2.0) <= 1e-12
    assert S2[3:, 3:] == pytest.approx(1.0)


def test_network_basis_matches_per_agent_construction():
    model, _ = _random_network(43)
    n, p = model.n_agents, model.positions

    def agent_vector(agent, omega, v):
        c = np.zeros(3 * n)
        c[3 * agent] = omega
        c[3 * agent + 1 : 3 * agent + 3] = v
        return c

    rows = [agent_vector(i, 1.0, -_J @ p[i]) for i in range(n)]
    rows += list(np.tile(np.eye(3), n))
    rows.append(agent_vector(1, 0.0, [0.0, 1.0]))
    for i in range(2, n):
        rows += [agent_vector(i, 0.0, [1.0, 0.0]), agent_vector(i, 0.0, [0.0, 1.0])]
    assert model.struct.n_H == n + 3
    assert np.array_equal(model.struct.basis, np.array(rows))


def test_network_canonicalization():
    p = canonicalize_positions([[1.0, 2.0], [4.0, 1.0], [2.0, 5.0]])
    assert np.abs(p[0]).max() <= 1e-12
    assert abs(p[1][0]) <= 1e-12 and p[1][1] > 0
    with pytest.raises(DegenerateModelError):
        canonicalize_positions([[1.0, 1.0], [1.0, 1.0], [0.0, 0.0]])


SQUARE = [[0.0, 0.0], [0.0, 1.0], [1.0, 1.0], [1.0, 0.0]]
RING = [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]


def test_network_edge_validation():
    with pytest.raises(ConfigError):
        NetworkModel([[0, 0], [0, 1]], [(0, 0)])
    with pytest.raises(ConfigError):
        NetworkModel([[0, 0], [0, 1]], [(0, 1), (1, 0)])
    with pytest.raises(ConfigError):
        NetworkModel([[0, 0], [0, 1]], [(0, 2)])
    with pytest.raises(ConfigError):
        NetworkModel([[0, 0], [0, 1]], [(0, 1)], sigmas=0.0)
    with pytest.raises(ValueError):
        NetworkModel(SQUARE, [[]])
    # The first offending edge in list order decides the error and its message.
    for edges, error, message in [
        (RING + [(2, 2), (0, 9)], ConfigError, "self-loop at agent 2"),
        (RING + [(1, 4), (3, 3)], ConfigError, "edge (1,4) out of range"),
        (RING + [(-1, 2)], ConfigError, "edge (-1,2) out of range"),
        (RING + [(1, 3), (1, 3)], ConfigError, "duplicate edge (1,3)"),
        (RING + [(2, 0)], ConfigError, "duplicate edge (2,0)"),
        (RING + [(1, True)], ValueError, "edge endpoint must be an integer, got True"),
        (RING + [(1, 2.5), (3, 3)], ValueError, "edge endpoint must be an integer, got 2.5"),
        (RING + [(3, 3), (1, 2.5)], ConfigError, "self-loop at agent 3"),
        (RING + [(1, "3")], ValueError, "edge endpoint must be an integer, got '3'"),
    ]:
        with pytest.raises(error) as info:
            NetworkModel(SQUARE, edges)
        assert type(info.value) is error and str(info.value) == message


def test_network_edges_read_integral_floats_and_arrays():
    expected = RING + [(1, 3)]
    for edges in (RING + [(1.0, 3)], np.array(RING + [(1, 3)]), iter(RING + [(1, 3)])):
        model = NetworkModel(SQUARE, edges)
        assert model.edges == expected
        assert all(type(v) is int for e in model.edges for v in e)
    assert NetworkModel(SQUARE, RING + [(np.int64(1), np.float64(3.0))]).edges == expected


def test_network_grad_matches_fd(triangle_network, rng):
    g = triangle_network.reference_element()
    for _ in range(25):
        x = triangle_network.sample(g, 1, rng)
        ga = triangle_network.analytic_gradient_batch(
            x, g, triangle_network.struct.basis, "rivf"
        )
        gf = triangle_network._fd_gradient_batch(
            x, g, triangle_network.struct.basis, "rivf"
        )
        assert np.abs(ga - gf).max() <= 1e-5


_J = np.array([[0.0, -1.0], [1.0, 0.0]])


def _scalar_positions(model, g):
    return [g.matrix[3 * a : 3 * a + 2, 3 * a + 2] for a in range(model.n_agents)]


def _scalar_edge_sensitivities(model, g, directions):
    """Per-direction, per-edge reference: agent a moves at omega_a J p_a + v_a."""
    p = _scalar_positions(model, g)
    out = np.empty((len(directions), len(model.edges)))
    for d, c in enumerate(directions):
        vel = [c[3 * a] * (_J @ p[a]) + c[3 * a + 1 : 3 * a + 3] for a in range(len(p))]
        for e, (i, j) in enumerate(model.edges):
            out[d, e] = float((p[i] - p[j]) @ (vel[i] - vel[j]))
    return out


def _random_network(seed, n=7, radius=1.1):
    r = np.random.default_rng(seed)
    p = r.uniform(0.0, 1.5, (n, 2))
    edges = [
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if np.linalg.norm(p[i] - p[j]) < radius
    ]
    return NetworkModel(p, edges, r.uniform(0.05, 0.3, len(edges))), r


def test_network_edge_kernels_match_per_edge_reference():
    model, r = _random_network(41)
    # A non-reference element: every agent rotated and moved.
    g = groups.random_element(model.descriptor, r, 0.8)
    assert np.abs(g.matrix[0:2, 0:2] - np.eye(2)).max() > 1e-3
    p = _scalar_positions(model, g)
    means = [0.5 * float(np.sum((p[i] - p[j]) ** 2)) for i, j in model.edges]
    assert np.abs(model.edge_means(g) - means).max() <= 1e-12 * max(means)
    dirs = np.array(
        [groups.random_algebra_vector(model.descriptor, r).coords for _ in range(5)]
    )
    x = model.sample(g, 3, r)
    resid = x - np.asarray(means)[None, :]
    w = 1.0 / model.sigmas**2
    for op in ("rivf", "livf"):
        translated = homspace.translate_directions(dirs, g, "rivf", op)
        ref = _scalar_edge_sensitivities(model, g, translated)
        sens = model._terms(g.matrix, translated)
        assert np.abs(sens - ref).max() <= 1e-12 * np.abs(ref).max()
        grad = model.analytic_gradient_batch(x, g, dirs, op)
        grad_ref = np.einsum("me,de,e->md", resid, ref, w)
        assert np.abs(grad - grad_ref).max() <= 1e-12 * np.abs(grad_ref).max()
        fim_ref = (ref * w) @ ref.T
        fim = model.analytic_fim(g, dirs, op)
        assert np.abs(fim - fim_ref).max() <= 1e-12 * np.abs(fim_ref).max()


def test_rigidity_matrix_matches_per_edge_blocks():
    model, _ = _random_network(42)
    p, n = model.positions, model.n_agents
    ref = np.zeros((2 * n, 2 * n))
    for (i, j), s in zip(model.edges, model.sigmas):
        block = np.outer(p[i] - p[j], p[i] - p[j]) / (s * s)
        ref[2 * i : 2 * i + 2, 2 * i : 2 * i + 2] += block
        ref[2 * j : 2 * j + 2, 2 * j : 2 * j + 2] += block
        ref[2 * i : 2 * i + 2, 2 * j : 2 * j + 2] -= block
        ref[2 * j : 2 * j + 2, 2 * i : 2 * i + 2] -= block
    S = rigidity_matrix(p, model.edges, model.sigmas)
    assert np.abs(S - ref).max() <= 1e-12 * np.abs(ref).max()
    # The model's reduced FIM is the same computation on the m-basis.
    F = fisher.fim(model, model.reference_element(), fisher.REDUCED).matrix
    assert np.abs(F - S[3:, 3:]).max() <= 1e-12 * np.abs(ref).max()


def _geometric_graph(seed, n, side, radius, sigma):
    """n agents uniform on [0, side]^2 from default_rng(seed), an edge for
    each pair closer than radius."""
    p = np.random.default_rng(seed).uniform(0.0, side, (n, 2))
    dist = np.linalg.norm(p[:, None, :] - p[None, :, :], axis=-1)
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if dist[i, j] < radius]
    return NetworkModel(p, edges, sigma)


def _bit_equal(a, b):
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


@pytest.mark.parametrize(
    "graph",
    ["triangle", "benchmark-16", "seed-30"],
)
def test_translation_jacobian_is_the_sensitivities_bit_for_bit(graph, triangle_network):
    """The edge-sparse Jacobian gives exactly the values and zero signs of
    the dense direction contraction, for the m-basis and for the
    rigidity matrix over every translation."""
    model = {
        "triangle": lambda: triangle_network,
        "benchmark-16": lambda: _geometric_graph(3, 16, 1.0, 0.6, 0.1),
        "seed-30": lambda: _geometric_graph(30, 30, 3.0, 1.5, 0.1),
    }[graph]()
    n = model.n_agents
    r = np.random.default_rng(17)
    # Agents rotated and moved; and axis-aligned positions, whose edge
    # vectors hold exact zeros of both signs.
    moved = np.stack([groups.random_element(model.descriptor, r, 0.8).matrix for _ in range(3)])
    grid = r.integers(-2, 3, (n, 2)) * r.choice([-1.0, 1.0], (n, 2))
    for G in (model.reference_element().matrix, moved, model.reference_element(grid).matrix):
        assert _bit_equal(model._m_terms(G), model._terms(G, model.struct.m_basis))
    for p in (model.positions, grid):
        S = rigidity_matrix(p, model.edges, model.sigmas)
        dense = network._sensitivities(
            p, model._i, model._j, network._translation_directions(n)
        )
        assert _bit_equal(S, whitened_gram(dense, model.sigmas))


def test_rigidity_matrix_of_an_edgeless_graph_is_zero():
    S = rigidity_matrix([[0.0, 0.0], [1.0, 1.0], [-1.0, 2.0]], [], [])
    assert S.shape == (6, 6)
    assert np.array_equal(S, np.zeros((6, 6)))
    assert not np.signbit(S).any()


def test_network_rigidity_is_built_once_per_model(monkeypatch):
    model = _geometric_graph(3, 16, 1.0, 0.6, 0.1)
    built = []
    original = network.rigidity_matrix
    monkeypatch.setattr(
        network, "rigidity_matrix", lambda *a: built.append(1) or original(*a)
    )
    S, reduced = model.rigidity
    assert model.rigidity[0] is S and len(built) == 1
    assert np.array_equal(reduced, np.linalg.eigvalsh(S[3:, 3:]))
    F = network_fim(model.positions, model.edges, model.sigmas)
    assert np.array_equal(F.matrix, S[3:, 3:])
    flex = NetworkModel([[0.0, 0.0], [0.0, 1.0], [1.0, 0.5]], [(0, 1), (1, 2)], 0.1)
    with pytest.raises(DegenerateModelError) as exc:
        flex.rigidity
    assert exc.value.rank_gap == 1


def test_network_memory_stays_per_factor():
    """SE(2)^60 is kept as its factors: building the model and computing
    one reduced FIM and one Delta over 50 samples allocates far less than
    a single dense (n_G, n_G, n_G) array, 8 (3 |V|)^3 bytes = 47 MB."""
    n = 60
    r = np.random.default_rng(n)
    p = r.uniform(0.0, 3.0 * math.sqrt(n / 30), (n, 2))
    dist = np.linalg.norm(p[:, None] - p[None], axis=-1)
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if dist[i, j] < 1.5]
    errors = r.standard_normal((50, 3 * n))
    tracemalloc.start()
    try:
        model = NetworkModel(p, edges, 0.1)
        model.fim_reduced(model.reference_element().matrix[None])
        crb.delta_matrix(errors, model.struct)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6


def test_load_graph(tmp_path):
    doc = tmp_path / "g.json"
    doc.write_text(
        '{"positions": [[0,0],[0,1],[1,0.5]], "edges": [[0,1,0.2],[1,2,0.3]]}'
    )
    graph = load_graph(doc)
    assert graph["edges"] == [(0, 1), (1, 2)]
    assert graph["sigmas"] == [0.2, 0.3]
    bad = tmp_path / "bad.json"
    for text in (
        '{"positions": [[0,0]]}',
        # An endpoint is read, not truncated: 2.7 is not agent 2.
        '{"positions": [[0,0],[0,1],[1,0.5]], "edges": [[0,2.7,0.2]]}',
        '{"positions": [[0,0],[0,1],[1,0.5]], "edges": [[0,true,0.2]]}',
    ):
        bad.write_text(text)
        with pytest.raises(ConfigError):
            load_graph(bad)


# ---------------------------------------------------------------------------
# SPD model


def test_spd_invariance_under_right_rotation(spd3, rng):
    g = groups.random_element(spd3.descriptor, rng, 0.4)
    x = spd3.sample(g, 1, rng)
    base = spd3.loglik(x[0], g)
    for _ in range(20):
        R = spd3.struct.subgroup_sampler(rng)
        assert abs(spd3.loglik(x[0], g @ R) - base) <= 1e-9


def test_spd_grad_zero_at_stationary_point(spd3, rng):
    g = groups.random_element(spd3.descriptor, rng, 0.4)
    Sigma = spd3.covariance(g)
    assert np.abs(spd_grad(Sigma, g)).max() <= 1e-12


def test_spd_grad_hand_value():
    g = groups.identity_element(groups.glnplus(3))
    out = spd_grad(2.0 * np.eye(3), g)
    assert np.abs(out - 0.5 * np.eye(3)).max() <= 1e-14


def test_spd_grad_matches_covariance_form_derivative(spd3, rng):
    """spd_grad is the LIVF m-gradient of Sigma -> -logdet(Sigma)/2
    - tr(Sigma^-1 X)/2 evaluated at the SPD representative g = Sigma."""
    for _ in range(25):
        A = rng.standard_normal((3, 3)) * 0.3
        Sigma = np.eye(3) + A @ A.T
        g = groups.GroupElement(groups.glnplus(3), Sigma)
        B = rng.standard_normal((3, 3))
        X = B @ B.T

        def cov_loglik(el):
            s, ld = np.linalg.slogdet(el.matrix)
            return float(-0.5 * ld - 0.5 * np.trace(np.linalg.inv(el.matrix) @ X))

        G = spd_grad(X, groups.GroupElement(groups.glnplus(3), np.linalg.cholesky(Sigma)))
        for z in spd3.struct.m_basis:
            Z = AlgebraVector(g.descriptor, z)
            fd = groups.livf_derivative(cov_loglik, g, Z, h=1e-6)
            analytic = float(np.sum(G * z.reshape(3, 3)))
            assert abs(fd - analytic) <= 1e-6


def test_spd_model_grad_matches_fd(spd3, rng):
    g = groups.random_element(spd3.descriptor, rng, 0.3)
    for _ in range(25):
        x = spd3.sample(g, 1, rng)
        ga = spd3.analytic_gradient_batch(x, g, spd3.struct.basis, "livf")
        gf = spd3._fd_gradient_batch(x, g, spd3.struct.basis, "livf")
        assert np.abs(ga - gf).max() <= 1e-5


def test_spd_reduced_fim_is_two_identity(spd3, rng):
    g = groups.random_element(spd3.descriptor, rng, 0.5)
    F = spd3.fim_reduced(g.matrix[None])
    assert np.abs(F - 2.0 * np.eye(spd3.struct.n_Theta)).max() <= 1e-12


def test_spd_grad_rejects_singular_covariance():
    g = groups.GroupElement(groups.glnplus(2), np.diag([1.0, 1e-9]))
    with pytest.raises(DomainError):
        spd_grad(np.eye(2), g)


def test_spd_structure_split(spd3):
    assert spd3.struct.n_H == 3 and spd3.struct.n_Theta == 6
    rep = homspace.check_adH_invariance(spd3.struct, 50, random_state=9)
    assert rep.invariant


# ---------------------------------------------------------------------------
# The invariant reduced FIM is computed once per model


INVARIANT_FIM_MODELS = {
    "landmark1": lambda: LandmarkModel([[1.0, 0.0, 0.0]]),
    "landmark2": lambda: LandmarkModel(
        [[1.0, 0.0, 0.0], [0.0, 1.0, 0.3]], noise=[0.5, 2.0]
    ),
    "landmark3": lambda: LandmarkModel(
        [[1.0, 0.0, 0.0], [0.0, 1.0, 0.3], [-0.4, 0.2, 1.1]], noise=[1.0, 0.3, 0.7]
    ),
    "spd2": lambda: SpdModel(2),
    "spd3": lambda: SpdModel(3),
}


@pytest.mark.parametrize("name", sorted(INVARIANT_FIM_MODELS))
def test_cached_reduced_fim_is_the_fim_at_every_g(name, rng):
    model = INVARIANT_FIM_MODELS[name]()
    fresh = INVARIANT_FIM_MODELS[name]()
    op = natural_operator(model.side)
    first = model.fim_reduced(groups.random_element(model.descriptor, rng, 0.5).matrix[None])
    assert not first.flags.writeable
    for _ in range(20):
        g = groups.random_element(model.descriptor, rng, 1.0)
        F = model.fim_reduced(g.matrix[None])
        assert F is first
        expected = fresh.analytic_fim(g, fresh.struct.m_basis, op)
        assert np.abs(F - expected).max() <= 1e-12 * np.abs(expected).max()
    with pytest.raises(ValueError):
        first[0, 0] = 1.0


def test_zero_noise_landmark_fim_raises_on_every_use(rng):
    model = LandmarkModel([[1.0, 0.0, 0.0]], noise=0.0)
    g = groups.random_element(groups.se3(), rng, 0.5)
    for _ in range(2):
        with pytest.raises(DomainError):
            model.fim_reduced(g.matrix[None])


def test_network_fim_is_computed_per_iterate(triangle_network):
    g = triangle_network.reference_element()
    G = g.matrix[None]
    assert triangle_network.fim_reduced(G) is not triangle_network.fim_reduced(G)


# ---------------------------------------------------------------------------
# Shared model contracts


@pytest.mark.parametrize("fixture", ["landmark_one", "landmark_two", "triangle_network", "spd3", "gaussian1"])
def test_models_pass_invariance_contract(fixture, request, rng):
    model = request.getfixturevalue(fixture)
    if fixture == "triangle_network":
        g = model.reference_element()
    elif fixture == "gaussian1":
        g = model.element([0.3])
    else:
        g = groups.random_element(model.descriptor, rng, 0.4)
    assert invariance_defect(model, g, 100, rng) <= 1e-9


def test_invariance_defect_refuses_zero_samples(landmark_two, rng):
    # With no sample the defect would read 0.0 for any model.
    g = groups.random_element(landmark_two.descriptor, rng, 0.4)
    for n_samples in (0, -1):
        with pytest.raises(ValueError, match="n_samples >= 1"):
            invariance_defect(landmark_two, g, n_samples, rng)


SUFFICIENT_STATISTIC_MODELS = {
    "landmark_one": lambda: LandmarkModel([[1.0, 0.0, 0.0]]),
    "landmark_two_unequal_noise": lambda: LandmarkModel(
        [[1.0, 0.0, 0.0], [0.0, 1.0, 0.3]], noise=[0.5, 2.0]
    ),
    "triangle_network_per_edge_sigma": lambda: NetworkModel(
        [[0.0, 0.0], [0.0, 1.0], [0.9, 0.6]], [(0, 1), (1, 2), (0, 2)], [0.2, 0.3, 0.45]
    ),
    "spd3": lambda: SpdModel(3),
    "gaussian2": lambda: GaussianMeanModel(2, noise=0.7),
}


@pytest.mark.parametrize("name", sorted(SUFFICIENT_STATISTIC_MODELS))
def test_sufficient_statistics_match_per_observation_sums(name, rng):
    """Scoring reads total_loglik(summarize(x)) and total_grad_m; the
    per-observation paths read loglik_batch and analytic_gradient_batch.
    Both must give the same totals, here at a g away from the sampling
    point."""
    model = SUFFICIENT_STATISTIC_MODELS[name]()
    if isinstance(model, NetworkModel):
        g_true = model.reference_element()
    else:
        g_true = groups.random_element(model.descriptor, rng, 0.4)
    g = g_true @ groups.random_element(model.descriptor, rng, 0.3)
    x = model.sample(g_true, 50, rng)
    summary = scoring.stack_summaries([model.summarize(x)])
    ll = np.sum(model.loglik_batch(x, g))
    assert abs(model.total_loglik(summary, g.matrix[None])[0] - ll) <= 1e-12 * abs(ll)
    op = natural_operator(model.side)
    grad = model.analytic_gradient_batch(x, g, model.struct.m_basis, op).sum(axis=0)
    dev = np.abs(model.total_grad_m(summary, g.matrix[None])[0] - grad).max()
    assert dev <= 1e-12 * np.abs(grad).max()


def test_models_sampling_determinism(triangle_network, spd3):
    g1 = triangle_network.reference_element()
    a = triangle_network.sample(g1, 8, np.random.default_rng(77))
    b = triangle_network.sample(g1, 8, np.random.default_rng(77))
    assert np.array_equal(a, b)
    g2 = groups.identity_element(spd3.descriptor)
    a = spd3.sample(g2, 8, np.random.default_rng(78))
    b = spd3.sample(g2, 8, np.random.default_rng(78))
    assert np.array_equal(a, b)


def test_network_dimension_counting():
    from homcrb.models import network_dimensions

    assert network_dimensions(2, 3) == (9, 6, 3)
    assert network_dimensions(2, 10) == (30, 13, 17)
    # d = 3: SE(3)^V with agent rotations (3/agent) plus 6 rigid motions.
    assert network_dimensions(3, 4) == (24, 18, 6)
    assert network_dimensions(3, 2) == (12, 12, 0)
    with pytest.raises(ValueError):
        network_dimensions(0, 3)


def test_coset_error_zero_iff_same_invariant_features(landmark_two, rng):
    """eta_reduced vanishes exactly when the invariant observation
    features (body-frame landmark positions) coincide."""
    from homcrb.homspace import coset_error

    g = groups.random_element(groups.se3(), rng, 0.4)
    same = landmark_two.struct.subgroup_sampler(rng) @ g
    assert np.abs(
        landmark_two.mean_observation(same) - landmark_two.mean_observation(g)
    ).max() <= 1e-12
    assert np.linalg.norm(coset_error(g, same, landmark_two.struct).eta_reduced) <= 1e-9
    moved = groups.exp(
        landmark_two.struct.from_coords(
            np.concatenate([[0.0], 0.2 * np.ones(5)])
        )
    ) @ g
    assert np.abs(
        landmark_two.mean_observation(moved) - landmark_two.mean_observation(g)
    ).max() > 1e-3
    assert (
        np.linalg.norm(coset_error(g, moved, landmark_two.struct).eta_reduced) > 1e-3
    )
