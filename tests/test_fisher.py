import numpy as np
import pytest

from homcrb import fisher, groups
from homcrb.groups import AlgebraVector
from homcrb.models import GaussianMeanModel


def test_scalar_gaussian_fim_is_one(gaussian1):
    g = gaussian1.element([0.7])
    for frame in (fisher.LEFT, fisher.RIGHT, fisher.REDUCED):
        F = fisher.fim(gaussian1, g, frame)
        assert np.array_equal(F.matrix, np.array([[1.0]]))


def test_landmark_pure_translation_entry(landmark_one):
    # a = e1, directions v_i = v_j = e1, Omega = 0: entry is 1.
    g = groups.identity_element(groups.se3())
    dirs = np.eye(6)[3:4]
    F = landmark_one.analytic_fim(g, dirs, "rivf")
    assert F[0, 0] == 1.0


def test_mc_gradient_fim_close_to_analytic(landmark_one):
    g = groups.random_element(groups.se3(), np.random.default_rng(1), 0.3)
    Fa = fisher.fim(landmark_one, g, fisher.LEFT)
    Fmc = fisher.fim(
        landmark_one, g, fisher.LEFT, fisher.MC_GRADIENT, 100_000, random_state=2
    )
    assert Fmc.n_samples == 100_000
    assert np.linalg.norm(Fa.matrix - Fmc.matrix, 2) <= 0.05


def test_fim_rejects_bad_sample_count(gaussian1):
    with pytest.raises(ValueError):
        fisher.fim(
            gaussian1, gaussian1.element([0.0]), fisher.REDUCED, fisher.MC_GRADIENT, 0
        )


def test_fim_matrix_validation():
    g = groups.identity_element(groups.so3())
    with pytest.raises(ValueError):
        fisher.FimMatrix(fisher.LEFT, g, np.array([[1.0, 0.5], [0.0, 1.0]]), fisher.ANALYTIC, 0)
    with pytest.raises(ValueError):
        fisher.FimMatrix(fisher.LEFT, g, np.array([[-1.0]]), fisher.ANALYTIC, 0)
    # Hessian-form estimates may carry small negative eigenvalues.
    F = fisher.FimMatrix(fisher.LEFT, g, np.array([[-1e-4]]), fisher.MC_HESSIAN, 10)
    assert F.matrix[0, 0] == -1e-4


# ---------------------------------------------------------------------------
# Hessian form


def test_hessian_form_scalar_gaussian_deterministic(gaussian1):
    """The scalar second derivative is -1 pointwise, so the estimate has
    zero Monte-Carlo variance: different draws give the same matrix."""
    g = gaussian1.element([0.2])
    F1 = fisher.fim_hessian(gaussian1, g, fisher.REDUCED, 200, random_state=1)
    F2 = fisher.fim_hessian(gaussian1, g, fisher.REDUCED, 200, random_state=999)
    assert abs(F1.matrix[0, 0] - 1.0) <= 1e-6
    assert abs(F1.matrix[0, 0] - F2.matrix[0, 0]) <= 1e-9


def test_hessian_form_matches_gradient_form(landmark_two):
    g = groups.random_element(groups.se3(), np.random.default_rng(7), 0.3)
    Fh = fisher.fim_hessian(landmark_two, g, fisher.REDUCED, 100_000, random_state=8)
    Fg = fisher.fim(
        landmark_two, g, fisher.REDUCED, fisher.MC_GRADIENT, 100_000, random_state=9
    )
    assert np.linalg.norm(Fh.matrix - Fg.matrix, 2) <= 0.05


def test_hessian_form_matches_rigidity_fim():
    from homcrb.models import NetworkModel, network_fim

    net = NetworkModel(
        [[0.0, 0.0], [0.0, 1.0], [0.9, 0.6]], [(0, 1), (1, 2), (0, 2)], 1.0
    )
    g = net.reference_element()
    Fh = fisher.fim_hessian(net, g, fisher.REDUCED, 100_000, random_state=10)
    Fr = network_fim(net.positions, net.edges, net.sigmas)
    assert np.linalg.norm(Fh.matrix - Fr.matrix, 2) <= 0.05


# ---------------------------------------------------------------------------
# grad_loglik


def test_grad_loglik_zero_at_noiseless_observation(landmark_two, rng):
    g = groups.random_element(groups.se3(), rng, 0.4)
    x = landmark_two.mean_observation(g)
    assert np.abs(fisher.grad_loglik(landmark_two, x, g)).max() <= 1e-9


def test_grad_loglik_matches_finite_differences(landmark_two, rng):
    for _ in range(100):
        g = groups.random_element(groups.se3(), rng, 0.4)
        x = landmark_two.sample(g, 1, rng)[0]
        analytic = fisher.grad_loglik(landmark_two, x, g)
        fd = landmark_two._fd_gradient_batch(
            x[None], g, landmark_two.struct.m_basis, "rivf"
        )[0]
        assert np.abs(analytic - fd).max() <= 1e-5


def test_h_direction_derivatives_vanish(landmark_one, rng):
    g = groups.random_element(groups.se3(), rng, 0.4)
    x = landmark_one.sample(g, 1, rng)[0]
    fn = lambda el: landmark_one.loglik(x, el)
    for x_h in landmark_one.struct.h_basis:
        X = AlgebraVector(groups.se3(), x_h)
        assert abs(groups.rivf_derivative(fn, g, X)) <= 1e-8


# ---------------------------------------------------------------------------
# FIM frame relations


def test_fim_properties_analytic(landmark_one, rng):
    g = groups.random_element(groups.se3(), rng, 0.4)
    for _ in range(10):
        h = landmark_one.struct.subgroup_sampler(rng)
        rep = fisher.verify_fim_properties(landmark_one, g, h)
        assert rep.frames_swapped  # H\G side
        assert rep.h_block == 0.0
        assert rep.max_deviation <= 1e-9


def test_fim_properties_monte_carlo(landmark_one):
    rng = np.random.default_rng(12)
    g = groups.random_element(groups.se3(), rng, 0.3)
    h = landmark_one.struct.subgroup_sampler(rng)
    rep = fisher.verify_fim_properties(
        landmark_one, g, h, n_samples=100_000, random_state=13,
        method=fisher.MC_GRADIENT,
    )
    assert rep.max_deviation <= 0.05


def test_abelian_left_equals_right(rng):
    model = GaussianMeanModel(3)
    g = model.element([0.3, -0.2, 0.9])
    FL = fisher.fim(model, g, fisher.LEFT)
    FR = fisher.fim(model, g, fisher.RIGHT)
    assert np.array_equal(FL.matrix, FR.matrix)


def test_sphere_side_properties_left_block(rng):
    """On a G/H model the LEFT FIM has the vanishing h-block; use the
    SPD model, whose side is G/H."""
    from homcrb.models import SpdModel

    model = SpdModel(2)
    g = groups.random_element(model.descriptor, rng, 0.3)
    h = model.struct.subgroup_sampler(rng)
    rep = fisher.verify_fim_properties(model, g, h)
    assert not rep.frames_swapped
    assert rep.max_deviation <= 1e-9


# ---------------------------------------------------------------------------
# Sum rule


def test_fim_sum_rule(landmark_two, replicate):
    g = groups.random_element(groups.se3(), np.random.default_rng(3), 0.4)
    F1 = fisher.fim(landmark_two, g, fisher.REDUCED).matrix
    for r in (10, 100, 1000):
        joint = replicate(landmark_two, r)
        Fr = fisher.fim(joint, g, fisher.REDUCED).matrix
        assert np.abs(Fr - r * F1).max() <= 1e-9 * r


def test_fim_sum_rule_monte_carlo(landmark_two, replicate):
    g = groups.random_element(groups.se3(), np.random.default_rng(4), 0.3)
    joint = replicate(landmark_two, 5)
    F1 = fisher.fim(landmark_two, g, fisher.REDUCED).matrix
    Fmc = fisher.fim(
        joint, g, fisher.REDUCED, fisher.MC_GRADIENT, 50_000, random_state=6
    ).matrix
    assert np.linalg.norm(Fmc - 5 * F1, 2) <= 0.05 * 5
