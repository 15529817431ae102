import numpy as np
import pytest

from homcrb import fisher, groups, homspace
from homcrb.groups import AlgebraVector
from homcrb.models import GaussianMeanModel, LandmarkModel, SpdModel


def test_scalar_gaussian_fim_is_one(gaussian1):
    g = gaussian1.element([0.7])
    for frame in (fisher.LEFT, fisher.RIGHT, fisher.REDUCED):
        F = fisher.fim(gaussian1, g, frame)
        assert np.array_equal(F.matrix, np.array([[1.0]]))


def test_landmark_pure_translation_entry(landmark_one):
    # a = e1, directions v_i = v_j = e1, Omega = 0: entry is 1.
    g = groups.identity_element(groups.se3())
    dirs = np.eye(6)[3:4]
    F = landmark_one.natural_fim(g.matrix, dirs)
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


@pytest.mark.parametrize("n_samples", [True, 2.5, 0])
def test_monte_carlo_fims_read_n_samples_as_a_count(gaussian1, n_samples):
    """A bool, a fraction or zero is refused where it enters, with the
    count's own message, not inside the model's sampler."""
    g = gaussian1.element([0.0])
    with pytest.raises(ValueError, match="n_samples must be"):
        fisher.fim(gaussian1, g, fisher.REDUCED, fisher.MC_GRADIENT, n_samples)
    with pytest.raises(ValueError, match="n_samples must be"):
        fisher.fim_hessian(gaussian1, g, fisher.REDUCED, n_samples)


def test_fim_matrix_validation():
    g = groups.identity_element(groups.so3())
    with pytest.raises(ValueError):
        fisher.FimMatrix(fisher.LEFT, g, np.array([[1.0, 0.5], [0.0, 1.0]]), fisher.ANALYTIC, 0)
    with pytest.raises(ValueError):
        fisher.FimMatrix(fisher.LEFT, g, np.array([[-1.0]]), fisher.ANALYTIC, 0)
    # Hessian-form estimates may carry small negative eigenvalues.
    F = fisher.FimMatrix(fisher.LEFT, g, np.array([[-1e-4]]), fisher.MC_HESSIAN, 10)
    assert F.matrix[0, 0] == -1e-4


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("estimation", [fisher.ANALYTIC, fisher.MC_GRADIENT, fisher.MC_HESSIAN])
def test_fim_matrix_rejects_non_finite_entries(bad, estimation):
    # NaN compares False in the symmetry and PSD tests, so it once passed.
    g = groups.identity_element(groups.se3())
    M = np.array([[bad, 0.0], [0.0, 1.0]])
    with pytest.raises(ValueError, match="FIM must be finite"):
        fisher.FimMatrix(fisher.REDUCED, g, M, estimation, 0)
    stack = np.stack([np.eye(2), M])
    with pytest.raises(ValueError, match="FIM must be finite"):
        fisher.check_fims(stack, estimation)


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


def test_h_direction_derivatives_vanish(landmark_one, rng):
    g = groups.random_element(groups.se3(), rng, 0.4)
    x = landmark_one.sample(g, 1, rng)[0]
    fn = lambda el: landmark_one.loglik(x, el)
    for x_h in landmark_one.struct.h_basis:
        X = AlgebraVector(groups.se3(), x_h)
        assert abs(groups.rivf_derivative(fn, g, X)) <= 1e-8


# ---------------------------------------------------------------------------
# FIM frame relations


def test_fim_properties_monte_carlo(landmark_one, draw_h):
    rng = np.random.default_rng(12)
    g = groups.random_element(groups.se3(), rng, 0.3)
    h = draw_h(landmark_one.struct, rng)
    rep = fisher.verify_fim_properties(
        landmark_one, g, h, n_samples=100_000, random_state=13,
        method=fisher.MC_GRADIENT,
    )
    assert rep.frames_swapped  # H\G side
    assert rep.max_deviation <= 0.05


def reference_deviations(model, g, h):
    """The four FimPropertyReport deviations for one h, from fisher.fim
    and struct.adjoint."""
    struct = model.struct
    swapped = struct.side == homspace.Side.H_MOD_G
    moved = homspace.act(g, h, struct.side)
    FL_g, FR_g, FL_m, FR_m = (
        fisher.fim(model, point, frame).matrix
        for point in (g, moved)
        for frame in (fisher.LEFT, fisher.RIGHT)
    )
    Ad_g = struct.adjoint(g)
    block = FR_g if swapped else FL_g
    n_H = struct.n_H
    h_block = max(np.abs(block[:n_H]).max(initial=0.0), np.abs(block[:, :n_H]).max(initial=0.0))
    adjoint = np.linalg.norm(FL_g - Ad_g.T @ FR_g @ Ad_g, 2)
    if swapped:
        Ad = struct.adjoint(h.inverse())
        fiber = np.linalg.norm(FL_m - FL_g, 2)
        conj = np.linalg.norm(FR_m - Ad.T @ FR_g @ Ad, 2)
    else:
        Ad = struct.adjoint(h)
        fiber = np.linalg.norm(FR_m - FR_g, 2)
        conj = np.linalg.norm(FL_m - Ad.T @ FL_g @ Ad, 2)
    return [h_block, fiber, adjoint, conj]


@pytest.mark.parametrize("kind", ["landmark", "spd"])
def test_fim_properties_stack_matches_reference(kind, draw_h):
    """Rows of the stacked relations against the per-h reference: samples
    of H (deviations at rounding level) and arbitrary group elements,
    which leave the coset and so give deviations of order one."""
    model = LandmarkModel([[1.0, 0.0, 0.0]]) if kind == "landmark" else SpdModel(2)
    rng = np.random.default_rng(21)
    g = groups.random_element(model.descriptor, rng, 0.4)
    hs = [draw_h(model.struct, rng) for _ in range(5)]
    hs += [groups.random_element(model.descriptor, rng, 0.5) for _ in range(3)]
    devs = fisher.verify_fim_properties_stack(model, g, np.array([h.matrix for h in hs]))
    expected = np.array([reference_deviations(model, g, h) for h in hs])
    assert devs.shape == (8, 4)
    assert np.abs(devs - expected).max() <= 1e-12
    assert expected[5:, [1, 3]].min() > 1e-3  # the off-coset rows do fail
    if kind == "landmark":
        assert np.all(devs[:, 0] == 0.0)  # H\G: the right FIM's h-block is exactly 0


def test_fim_properties_stack_monte_carlo_rows_are_one_h_calls(landmark_one, draw_h):
    rng = np.random.default_rng(12)
    g = groups.random_element(groups.se3(), rng, 0.3)
    hs = [draw_h(landmark_one.struct, rng) for _ in range(3)]
    kwargs = dict(n_samples=2000, random_state=13, method=fisher.MC_GRADIENT)
    devs = fisher.verify_fim_properties_stack(
        landmark_one, g, np.array([h.matrix for h in hs]), **kwargs
    )
    for row, h in zip(devs, hs):
        rep = fisher.verify_fim_properties(landmark_one, g, h, **kwargs)
        assert rep.method == fisher.MC_GRADIENT
        one = [rep.h_block, rep.fiber_constancy, rep.adjoint_relation, rep.fiber_conjugation]
        assert row.tolist() == one


def test_fim_properties_stack_rejects_non_members(landmark_one):
    g = groups.identity_element(groups.se3())
    H = np.stack([np.eye(4), 2.0 * np.eye(4)])
    with pytest.raises(ValueError, match="not in SO"):
        fisher.verify_fim_properties_stack(landmark_one, g, H)
    with pytest.raises(ValueError, match="stack"):
        fisher.verify_fim_properties_stack(landmark_one, g, np.eye(4))


def test_abelian_left_equals_right(rng):
    model = GaussianMeanModel(3)
    g = model.element([0.3, -0.2, 0.9])
    FL = fisher.fim(model, g, fisher.LEFT)
    FR = fisher.fim(model, g, fisher.RIGHT)
    assert np.array_equal(FL.matrix, FR.matrix)


def test_sphere_side_properties_left_block(rng, draw_h):
    """On a G/H model the LEFT FIM has the vanishing h-block; use the
    SPD model, whose side is G/H."""
    from homcrb.models import SpdModel

    model = SpdModel(2)
    g = groups.random_element(model.descriptor, rng, 0.3)
    h = draw_h(model.struct, rng)
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
