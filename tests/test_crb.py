import numpy as np
import pytest

from homcrb import crb, fisher, groups, homspace, scoring
from homcrb.exceptions import DegenerateModelError, LiftFailureError
from homcrb.groups import AlgebraVector
from homcrb.homspace import Side, build_reductive
from homcrb.models import GaussianMeanModel, LandmarkModel


def so3_trivial_structure():
    return build_reductive(groups.so3(), [], side=Side.G_MOD_H)


# ---------------------------------------------------------------------------
# estimator_stats


def test_stats_all_estimates_equal_reference(landmark_one, rng):
    g = groups.random_element(groups.se3(), rng, 0.4)
    stats = crb.estimator_stats(g, [g] * 6, landmark_one.struct)
    # Zero up to the rounding of g g^-1.
    assert np.abs(stats.bias).max() <= 1e-15
    assert np.abs(stats.covariance).max() <= 1e-30
    assert stats.variance_on_G <= 1e-30 and stats.variance_on_coset <= 1e-30


def test_stats_two_point_alternating(rng):
    s2 = homspace.sphere_structure()
    g = groups.random_element(groups.so3(), rng, 0.5)
    step = s2.from_coords(np.array([0.0, 0.1, 0.0]))
    ests = []
    for k in range(10):
        sign = 1.0 if k % 2 == 0 else -1.0
        ests.append(
            g @ groups.exp(AlgebraVector(groups.so3(), sign * step.coords))
        )
    stats = crb.estimator_stats(g, ests, s2)
    assert np.abs(stats.bias).max() <= 1e-12
    assert abs(stats.variance_on_coset - 0.01) <= 1e-12


def test_stats_pure_fiber_motion(landmark_one, rng):
    g = groups.random_element(groups.se3(), rng, 0.4)
    ests = [landmark_one.struct.subgroup_sampler(rng) @ g for _ in range(10)]
    stats = crb.estimator_stats(g, ests, landmark_one.struct)
    assert stats.variance_on_coset <= 1e-18
    assert stats.variance_on_G > 0.1


def test_stats_propagates_lift_failure_with_index():
    s2 = homspace.sphere_structure()
    g = groups.identity_element(groups.so3())
    bad = groups.exp(
        AlgebraVector(groups.so3(), np.array([-2.6004366, -1.28082679, 0.08492474]))
    )
    with pytest.raises(LiftFailureError, match="trial 1"):
        crb.estimator_stats(g, [g, bad], s2)


# ---------------------------------------------------------------------------
# phi_matrix


def test_phi_zero_errors_is_identity(landmark_one, rng):
    g = groups.random_element(groups.se3(), rng, 0.3)
    stats = crb.estimator_stats(g, [g] * 4, landmark_one.struct)
    assert np.abs(crb.phi_matrix(stats) - np.eye(6)).max() <= 1e-15
    J = 0.25 * np.eye(6)
    assert np.abs(crb.phi_matrix(stats, bias_jacobian=J) - np.eye(6) - J).max() <= 1e-15


def test_phi_abelian_is_identity_exactly(gaussian1, rng):
    model = GaussianMeanModel(2)
    g = model.element([0.4, -0.1])
    ests = [model.element(g.matrix[:2, 2] + rng.standard_normal(2)) for _ in range(20)]
    stats = crb.estimator_stats(g, ests, model.struct)
    assert np.array_equal(crb.phi_matrix(stats), np.eye(2))


def test_phi_two_point_symmetric_third_order(rng):
    struct = so3_trivial_structure()
    g = groups.identity_element(groups.so3())
    Y = np.array([0.2, -0.1, 0.15])
    ests = [groups.exp(AlgebraVector(groups.so3(), s * Y)) for s in (1.0, -1.0)]
    stats = crb.estimator_stats(g, ests, struct)
    phi = crb.phi_matrix(stats)
    ad = struct.in_adapted(groups.ad_matrix(AlgebraVector(groups.so3(), Y)))
    third = np.eye(3) + ad @ ad / 12.0
    # Odd terms cancel; the residual is quartic in |Y|.
    assert np.abs(phi - third).max() <= np.linalg.norm(Y) ** 4


# ---------------------------------------------------------------------------
# Bounds


def test_crb_group_scalar_gaussian(gaussian1):
    g = gaussian1.element([0.0])
    for m in (1, 10, 100):
        F = fisher.FimMatrix(fisher.LEFT, g, np.array([[float(m)]]), fisher.ANALYTIC, 0)
        rep = crb.crb_group(F, np.eye(1))
        assert abs(rep.bound_trace - 1.0 / m) <= 1e-15
        assert rep.variant == crb.GROUP_EXACT_LEFT


def test_crb_group_landmark_block_pattern(landmark_one, rng):
    g = groups.random_element(groups.se3(), rng, 0.3)
    F = fisher.fim(landmark_one, g, fisher.RIGHT)
    rep = crb.crb_group(F, np.eye(6))
    assert np.abs(rep.bound_matrix[:3, :]).max() <= 1e-12
    assert np.abs(rep.bound_matrix[:, :3]).max() <= 1e-12
    Fbar = fisher.fim(landmark_one, g, fisher.REDUCED)
    assert np.abs(
        rep.bound_matrix[3:, 3:] - np.linalg.inv(Fbar.matrix)
    ).max() <= 1e-10


def test_crb_group_pseudoinverse_of_nonsingular(rng):
    g = groups.identity_element(groups.so3())
    A = rng.standard_normal((3, 3))
    F = A @ A.T + np.eye(3)
    rep = crb.crb_group(
        fisher.FimMatrix(fisher.LEFT, g, F, fisher.ANALYTIC, 0), np.eye(3)
    )
    assert np.abs(rep.bound_matrix - np.linalg.inv(F)).max() <= 1e-10


def test_crb_homogeneous_identity_phi(landmark_one, rng):
    g = groups.random_element(groups.se3(), rng, 0.3)
    Fbar = fisher.fim(landmark_one, g, fisher.REDUCED)
    rep = crb.crb_homogeneous(Fbar, np.eye(6), landmark_one.struct)
    assert np.abs(rep.bound_matrix - np.linalg.inv(Fbar.matrix)).max() <= 1e-12


def test_crb_homogeneous_sum_rule(landmark_one, rng):
    g = groups.random_element(groups.se3(), rng, 0.3)
    F1 = fisher.fim(landmark_one, g, fisher.REDUCED)
    single = crb.crb_homogeneous(F1, np.eye(6), landmark_one.struct)
    for m in (10, 100, 1000):
        Fm = fisher.FimMatrix(
            fisher.REDUCED, g, m * F1.matrix, fisher.ANALYTIC, 0
        )
        rep = crb.crb_homogeneous(Fm, np.eye(6), landmark_one.struct)
        assert np.abs(rep.bound_matrix - single.bound_matrix / m).max() <= 1e-12


def test_crb_third_order_reduces_to_inverse(landmark_one, rng):
    g = groups.random_element(groups.se3(), rng, 0.3)
    Fbar = fisher.fim(landmark_one, g, fisher.REDUCED)
    rep = crb.crb_third_order(Fbar, np.zeros((3, 3)))
    assert np.abs(rep.bound_matrix - np.linalg.inv(Fbar.matrix)).max() <= 1e-12


def test_crb_degenerate_fim_rejected(landmark_one, rng):
    g = groups.random_element(groups.se3(), rng, 0.3)
    F = fisher.FimMatrix(
        fisher.REDUCED, g, np.diag([1.0, 1.0, 1e-14]), fisher.ANALYTIC, 0
    )
    with pytest.raises(DegenerateModelError):
        crb.crb_homogeneous(F, np.eye(6), landmark_one.struct)
    with pytest.raises(DegenerateModelError):
        crb.variance_bound(F)


def mixed_fims():
    """Well conditioned at 0 and 4; condition numbers 1e13 at 1, inf
    (singular) at 2 and NaN at 3."""
    F = np.broadcast_to(np.eye(3), (5, 3, 3)).copy()
    F[1] = np.diag([1.0, 1.0, 1e-13])
    F[2] = np.diag([1.0, 1.0, 0.0])
    F[3, 0, 0] = np.nan
    return F


def test_conditioning_errors_name_exactly_the_failing_matrices():
    errors = crb.conditioning_errors(mixed_fims(), DegenerateModelError, "FIM")
    assert list(errors) == [1, 2, 3]
    assert all(type(exc) is DegenerateModelError for exc in errors.values())
    conds = [errors[i].condition_number for i in (1, 2, 3)]
    assert conds[0] == pytest.approx(1e13) and conds[1] == np.inf and np.isnan(conds[2])
    assert "condition number 1.000e+13" in str(errors[1])
    assert crb.conditioning_errors(np.eye(3), DegenerateModelError, "FIM") == {}
    assert list(crb.conditioning_errors(np.zeros((3, 3)), DegenerateModelError, "FIM")) == [0]


def test_check_conditioning_raises_the_lowest_failing_matrix():
    F = mixed_fims()
    for lowest in (1, 2, 3):
        with pytest.raises(DegenerateModelError) as err:
            crb.check_conditioning(F[[0, *range(lowest, 5)]], DegenerateModelError, "FIM")
        alone = crb.conditioning_errors(F[lowest], DegenerateModelError, "FIM")
        assert str(err.value) == str(alone[0])
    crb.check_conditioning(F[[0, 4]], DegenerateModelError, "FIM")


# ---------------------------------------------------------------------------
# delta_matrix


def test_delta_empty_and_commuting(rng):
    struct = so3_trivial_structure()
    assert np.all(crb.delta_matrix([], struct) == 0.0)
    model = LandmarkModel([[1.0, 0.0, 0.0]])
    # Pure translations commute in se(3) restricted to m: ad^2 vanishes on m.
    t = np.concatenate([np.zeros(3), [0.4, -0.2, 0.1]])
    D = crb.delta_matrix([t], model.struct)
    assert np.abs(D).max() <= 1e-15


def test_delta_abelian_always_zero(rng):
    model = GaussianMeanModel(3)
    errs = rng.standard_normal((50, 3))
    assert np.all(crb.delta_matrix(errs, model.struct) == 0.0)


def test_delta_gaussian_so3_oracle():
    """Brute-force expectation: for eta ~ N(0, s^2 I) on so(3),
    E[ad_eta^2] = -2 s^2 I, so Delta -> -(s^2/6) I."""
    struct = so3_trivial_structure()
    s = 0.3
    rng = np.random.default_rng(99)
    errs = s * rng.standard_normal((1_000_000, 3))
    D = crb.delta_matrix(errs, struct)
    assert np.abs(D + (s * s / 6.0) * np.eye(3)).max() <= 2e-4


def _explicit_delta(coords, struct):
    """The O(n_G^5) definition: sum_kl E[eta_k eta_l] T_k T_l / 12 with
    T_k the adapted-basis ad matrices, m-block."""
    n_G = struct.group.algebra_dim
    second = coords.T @ coords / len(coords)
    T = np.stack(
        [struct.in_adapted(groups.ad_matrix(struct.from_coords(e))) for e in np.eye(n_G)]
    )
    full = np.einsum("kl,kij,ljm->im", second, T, T) / 12.0
    return full[struct.n_H :, struct.n_H :]


@pytest.mark.parametrize("n_samples", [2, 200])
def test_delta_matches_explicit_sum_network(n_samples):
    from homcrb.models import NetworkModel

    r = np.random.default_rng([7, n_samples])
    model = NetworkModel(
        r.uniform(0.0, 1.0, (5, 2)),
        [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3), (2, 4), (3, 4), (0, 4)],
        0.2,
    )
    struct = model.struct
    assert (n_samples < struct.group.algebra_dim) == (n_samples == 2)
    coords = 0.3 * r.standard_normal((n_samples, struct.group.algebra_dim))
    ref = _explicit_delta(coords, struct)
    D = crb.delta_matrix(coords, struct)
    assert np.abs(D - ref).max() <= 1e-12 * np.abs(ref).max()


def test_delta_matches_explicit_sum_landmark(landmark_two, rng):
    struct = landmark_two.struct
    coords = 0.4 * rng.standard_normal((300, struct.group.algebra_dim))
    ref = _explicit_delta(coords, struct)
    D = crb.delta_matrix(coords, struct)
    assert np.abs(D - ref).max() <= 1e-12 * np.abs(ref).max()


# ---------------------------------------------------------------------------
# variance bound


def test_variance_bound_identity(landmark_one):
    g = groups.identity_element(groups.se3())
    F = fisher.FimMatrix(fisher.REDUCED, g, np.eye(3), fisher.ANALYTIC, 0)
    assert crb.variance_bound(F) == 3.0


def test_variance_bound_representative_invariance(landmark_one, rng):
    g = groups.random_element(groups.se3(), rng, 0.4)
    F = fisher.fim(landmark_one, g, fisher.REDUCED)
    for _ in range(20):
        h = landmark_one.struct.subgroup_sampler(rng)
        Fh = fisher.fim(landmark_one, h @ g, fisher.REDUCED)
        assert abs(crb.variance_bound(F) - crb.variance_bound(Fh)) <= 1e-8


def test_variance_bound_one_over_m_scaling(landmark_two, rng):
    g = groups.random_element(groups.se3(), rng, 0.4)
    F1 = fisher.fim(landmark_two, g, fisher.REDUCED)
    base = crb.variance_bound(F1)
    for m in (10, 100, 1000):
        Fm = fisher.FimMatrix(fisher.REDUCED, g, m * F1.matrix, fisher.ANALYTIC, 0)
        assert abs(crb.variance_bound(Fm) - base / m) <= 1e-9 * base


# ---------------------------------------------------------------------------
# efficiency


def test_efficiency_scalar_sample_mean(gaussian1):
    g = gaussian1.element([0.4])
    obs_sets, ests = [], []
    for t in range(100):
        o = gaussian1.sample(g, 25, np.random.default_rng([21, t]))
        obs_sets.append(o)
        ests.append(gaussian1.sample_mean_element(o))
    res = crb.efficiency_residual(gaussian1, obs_sets, g, ests, gaussian1.struct, c=1.0)
    assert res <= 1e-10
    fitted = crb.efficiency_residual(gaussian1, obs_sets, g, ests, gaussian1.struct)
    assert fitted <= 1e-10


def test_efficiency_constant_estimator_positive(gaussian1):
    g = gaussian1.element([0.4])
    obs_sets = [
        gaussian1.sample(g, 25, np.random.default_rng([22, t])) for t in range(50)
    ]
    ests = [g] * 50  # zero error but nonzero gradients
    res = crb.efficiency_residual(gaussian1, obs_sets, g, ests, gaussian1.struct, c=1.0)
    assert res > 0.05


def test_crb_sandwich_scalar_gaussian(gaussian1):
    """Sample-mean covariance equals the bound within 3 standard errors."""
    g = gaussian1.element([0.0])
    m, trials = 20, 800
    ests = [
        gaussian1.sample_mean_element(
            gaussian1.sample(g, m, np.random.default_rng([23, t]))
        )
        for t in range(trials)
    ]
    stats = crb.estimator_stats(g, ests, gaussian1.struct)
    bound = 1.0 / m
    se = np.sqrt(2.0 / trials) * bound
    assert abs(stats.variance_on_coset - bound) <= 3 * se


def test_covariance_minus_bound_psd_at_large_m(landmark_two):
    model, m, trials = landmark_two, 2000, 300
    rng = np.random.default_rng(31)
    g = groups.random_element(groups.se3(), rng, 0.4)
    opts = scoring.ScoringOptions(gradient_tolerance=1e-11)
    ests = []
    for t in range(trials):
        r = np.random.default_rng([31, t])
        obs = model.sample(g, m, r)
        ests.append(scoring.fisher_scoring(model, obs, g, opts).final)
    stats = crb.estimator_stats(g, ests, model.struct)
    F1 = fisher.fim(model, g, fisher.REDUCED)
    bound = np.linalg.inv(m * F1.matrix)
    gap = stats.covariance[1:, 1:] - bound
    se = np.abs(bound).max() * np.sqrt(2.0 / trials)
    assert np.linalg.eigvalsh(gap).min() >= -3 * se
    # Lifted-error block structure: h rows of bias and covariance vanish.
    assert np.abs(stats.bias[:1]).max() <= 1e-9
    assert np.abs(stats.covariance[:1, :]).max() <= 1e-18


# ---------------------------------------------------------------------------
# bias jacobian


def test_bias_jacobian_perfect_estimator(landmark_one, rng):
    g = groups.random_element(groups.se3(), rng, 0.3)
    J = crb.bias_jacobian(
        landmark_one, g, lambda obs, ref: ref, landmark_one.struct,
        n_samples=5, random_state=3,
    )
    assert np.abs(J).max() <= 1e-9


def test_bias_jacobian_constant_estimator_matches_psi(rng):
    """For the constant estimator g0, the bias is log(g^-1 g0) and its
    Jacobian column along E is -Psi_{-eta} e (log-derivative oracle)."""
    model = LandmarkModel([[1.0, 0.0, 0.0]])
    struct = model.struct
    g = groups.random_element(groups.se3(), rng, 0.2)
    g0 = g @ groups.exp(groups.random_algebra_vector(groups.se3(), rng, 0.2))
    # The landmark side is H\G, so make the check on the G/H convention
    # with an explicit left-coset structure over the same group.
    left_struct = build_reductive(
        groups.se3(), [], side=Side.G_MOD_H, subgroup_sampler=None
    )
    J = crb.bias_jacobian(
        model, g, lambda obs, ref: g0, left_struct, n_samples=3, h=1e-5,
        random_state=4,
    )
    eta = groups.log(g.inverse() @ g0)
    psi = left_struct.psi(-left_struct.coords_of(eta))
    assert np.abs(J + psi).max() <= 1e-5


def test_bias_jacobian_mle_near_zero(landmark_one):
    opts = scoring.ScoringOptions(gradient_tolerance=1e-10)

    def mle_fn(obs, ref):
        return scoring.fisher_scoring(landmark_one, obs, ref, opts).final

    g = groups.random_element(groups.se3(), np.random.default_rng(5), 0.3)
    J = crb.bias_jacobian(
        landmark_one, g, mle_fn, landmark_one.struct,
        n_samples=40, obs_per_trial=200, h=1e-2, random_state=6,
    )
    # Monte-Carlo noise floor: bias SE ~ sigma/sqrt(n m); the common-
    # random-number difference quotient scales it by sqrt(2)/(2h).
    floor = 3 * np.sqrt(2.0 / (40 * 200)) / (2 * 1e-2) * 0.05
    assert np.abs(J).max() <= max(floor, 0.35)


def test_hessian_form_fim_floored_inside_bounds():
    """Tiny negative eigenvalues of Hessian-form estimates are floored
    before pseudo-inversion rather than poisoning the bound."""
    g = groups.identity_element(groups.so3())
    F = fisher.FimMatrix(
        fisher.LEFT, g, np.diag([4.0, 2.0, -1e-6]), fisher.MC_HESSIAN, 100
    )
    rep = crb.crb_group(F, np.eye(3))
    assert rep.bound_matrix[2, 2] == 0.0  # floored then pseudo-inverted
    assert abs(rep.bound_matrix[0, 0] - 0.25) <= 1e-12
    F_red = fisher.FimMatrix(
        fisher.REDUCED, g, np.diag([4.0, 2.0, -1e-6]), fisher.MC_HESSIAN, 100
    )
    with pytest.raises(DegenerateModelError):
        crb.variance_bound(F_red)  # flooring makes it singular: refused


def test_single_landmark_reduces_to_linear_gaussian():
    """With one landmark the coset is the body-frame landmark position,
    a plain 3-D Gaussian location problem: the MLE is exactly efficient,
    the coset variance matches tr(Fbar^-1)/m up to Monte-Carlo error,
    and the efficiency residual at c = 1 sits at rounding level."""
    model = LandmarkModel([[1.0, 0.0, 0.0]])
    g = groups.random_element(groups.se3(), np.random.default_rng(41), 0.4)
    m, trials = 50, 400
    opts = scoring.ScoringOptions(gradient_tolerance=1e-12)
    obs_sets, ests = [], []
    for t in range(trials):
        obs = model.sample(g, m, np.random.default_rng([41, t]))
        obs_sets.append(obs)
        ests.append(scoring.fisher_scoring(model, obs, g, opts).final)
    stats = crb.estimator_stats(g, ests, model.struct)
    bound = crb.variance_bound(fisher.fim(model, g, fisher.REDUCED)) / m
    rel_se = np.sqrt(2.0 / (3 * trials))  # chi^2_3 mean over trials
    assert abs(stats.variance_on_coset / bound - 1.0) <= 3 * rel_se
    res = crb.efficiency_residual(model, obs_sets, g, ests, model.struct, c=1.0)
    assert res <= 1e-8
