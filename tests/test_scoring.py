import math

import numpy as np
import pytest

from homcrb import crb, fisher, groups, homspace, scoring
from homcrb.exceptions import DegenerateFimError, DivergenceError
from homcrb.groups import AlgebraVector
from homcrb.models import GaussianMeanModel, LandmarkModel, NetworkModel, SpdModel, network


def landmark_truth():
    axis = np.array([0.3, 1.0, 0.4])
    axis /= np.linalg.norm(axis)
    coords = np.concatenate([1.2 * axis, [0.4, -0.3, 0.5]])
    return groups.exp(AlgebraVector(groups.se3(), coords))


def test_options_validation():
    with pytest.raises(ValueError):
        scoring.ScoringOptions(max_iterations=0)
    with pytest.raises(ValueError):
        scoring.ScoringOptions(gradient_tolerance=0.0)
    with pytest.raises(ValueError):
        scoring.ScoringOptions(fim_mode="adaptive")
    # Each of these would otherwise corrupt or abort a campaign mid-run.
    for bad in (
        {"gradient_tolerance": math.nan},
        {"fim_mode": "monte-carlo", "mc_fim_samples": 0},
        {"max_iterations": 2.5},
        {"max_iterations": True},
        {"mc_fim_samples": False},
    ):
        with pytest.raises(ValueError):
            scoring.ScoringOptions(**bad)
    opts = scoring.ScoringOptions(max_iterations=5.0, mc_fim_samples=np.int64(7))
    assert (opts.max_iterations, opts.mc_fim_samples) == (5, 7)
    assert type(opts.max_iterations) is type(opts.mc_fim_samples) is int


def test_scalar_gaussian_one_iteration(gaussian1, rng):
    obs = gaussian1.sample(gaussian1.element([2.0]), 40, rng)
    trace = scoring.fisher_scoring(gaussian1, obs, gaussian1.element([-3.0]))
    assert trace.converged
    assert trace.iterations_used == 1
    assert abs(gaussian1.translation(trace.final)[0] - obs.mean()) <= 1e-12
    # The update equals F^-1 grad = xbar - g0 exactly.
    step = gaussian1.translation(trace.iterates[1]) - gaussian1.translation(
        trace.iterates[0]
    )
    assert abs(step[0] - (obs.mean() - (-3.0))) <= 1e-12


def test_spd_fixed_point_is_sample_second_moment(spd3, rng):
    A = np.array([[1.2, 0.3, 0.0], [0.1, 0.9, 0.2], [0.0, -0.3, 1.4]])
    g_true = groups.GroupElement(spd3.descriptor, A)
    xs = spd3.sample(g_true, 500, rng)
    trace = scoring.fisher_scoring(
        spd3, xs, groups.identity_element(spd3.descriptor)
    )
    sigma_hat = xs.T @ xs / len(xs)
    sigma_est = trace.final.matrix @ trace.final.matrix.T
    assert trace.converged and trace.iterations_used <= 50
    assert np.linalg.norm(sigma_est - sigma_hat) <= 1e-6


def test_landmark_two_converges_fast(landmark_two):
    g_true = landmark_truth()
    obs = landmark_two.sample(g_true, 10_000, np.random.default_rng(5))
    trace = scoring.fisher_scoring(
        landmark_two, obs, groups.identity_element(groups.se3()),
        scoring.ScoringOptions(gradient_tolerance=1e-12),
    )
    first = next(i for i, v in enumerate(trace.grad_norms) if v <= 1e-8)
    assert first <= 10
    assert trace.logliks[-1] >= trace.logliks[0]


def test_steps_have_no_h_component(landmark_two):
    g_true = landmark_truth()
    obs = landmark_two.sample(g_true, 100, np.random.default_rng(6))
    trace = scoring.fisher_scoring(
        landmark_two, obs, groups.identity_element(groups.se3())
    )
    struct = landmark_two.struct
    for a, b in zip(trace.iterates, trace.iterates[1:]):
        move = groups.log(b @ a.inverse())  # H\G: exp on the left
        assert np.abs(struct.coords_of(move)[: struct.n_H]).max() <= 1e-12


def test_iterate_drift_is_projected(landmark_two):
    g_true = landmark_truth()
    obs = landmark_two.sample(g_true, 1000, np.random.default_rng(7))
    trace = scoring.fisher_scoring(
        landmark_two, obs, groups.identity_element(groups.se3())
    )
    assert trace.max_drift <= 1e-9
    for it in trace.iterates:
        assert groups.manifold_defect(it) <= 1e-9


def test_drifted_start_is_projected_on_the_first_step(landmark_two):
    """A start whose rotation block is scaled by 1 + 1e-11 is a valid
    element (defect 2e-11 <= 1e-9); the first step measures that drift
    and polar-projects it away."""
    g_true = landmark_truth()
    M = np.array(g_true.matrix)
    M[:3, :3] *= 1.0 + 1e-11
    g0 = groups.GroupElement(groups.se3(), M)
    obs = landmark_two.sample(g_true, 100, np.random.default_rng(8))
    trace = scoring.fisher_scoring(landmark_two, obs, g0)
    assert trace.iterations_used >= 1
    assert trace.max_drift > 1e-12
    assert groups.manifold_defect(trace.iterates[1]) <= 1e-12


def test_nan_step_is_rejected_at_the_box(landmark_two):
    step = np.full(landmark_two.struct.n_Theta, np.nan)
    with pytest.raises(ValueError, match="non-finite"):
        scoring._apply_steps(landmark_two, landmark_truth().matrix[None], step[None])


def test_scoring_boxes_one_element_per_step(landmark_two, built_elements):
    """The loop boxes nothing: an iterate is boxed when it is read."""
    obs = landmark_two.sample(landmark_truth(), 100, np.random.default_rng(6))
    g0 = groups.identity_element(groups.se3())
    before = built_elements[0]
    trace = scoring.fisher_scoring(landmark_two, obs, g0)
    assert trace.iterations_used >= 3 and trace.max_drift <= 1e-12
    assert built_elements[0] - before == 0
    trace.final
    assert built_elements[0] - before == 1


def test_determinism_bit_identical(landmark_two):
    g_true = landmark_truth()
    obs = landmark_two.sample(g_true, 200, np.random.default_rng(8))
    t1 = scoring.fisher_scoring(
        landmark_two, obs, groups.identity_element(groups.se3())
    )
    t2 = scoring.fisher_scoring(
        landmark_two, obs, groups.identity_element(groups.se3())
    )
    assert t1.step_norms == t2.step_norms
    assert t1.logliks == t2.logliks
    assert np.array_equal(t1.final.matrix, t2.final.matrix)


def test_frozen_and_monte_carlo_fim_modes(landmark_two):
    g_true = landmark_truth()
    obs = landmark_two.sample(g_true, 500, np.random.default_rng(9))
    g0 = groups.identity_element(groups.se3())
    frozen = scoring.fisher_scoring(
        landmark_two, obs, g0, scoring.ScoringOptions(fim_mode="frozen-at-initial")
    )
    mc = scoring.fisher_scoring(
        landmark_two,
        obs,
        g0,
        scoring.ScoringOptions(fim_mode="monte-carlo", mc_fim_samples=5000),
        random_state=10,
    )
    target = scoring.fisher_scoring(landmark_two, obs, g0).final
    for trace in (frozen, mc):
        gap = homspace.coset_error(target, trace.final, landmark_two.struct)
        assert np.linalg.norm(gap.eta_reduced) <= 1e-6


def test_degenerate_fim_raises():
    flex = NetworkModel([[0.0, 0.0], [0.0, 1.0], [1.0, 0.5]], [(0, 1), (1, 2)], 0.1)
    g = flex.reference_element()
    obs = flex.sample(g, 50, np.random.default_rng(11))
    with pytest.raises(DegenerateFimError):
        scoring.fisher_scoring(flex, obs, g)


class StubFimModel(GaussianMeanModel):
    """2-D Gaussian mean whose reduced FIM is fim_at(g); counts the
    iterates measured (one evaluation each)."""

    def __init__(self, fim_at):
        super().__init__(2)
        self.fim_at = fim_at
        self.measured = 0

    def fim_reduced(self, G):
        return self.fim_at(G)

    def evaluate(self, summary, G, with_fim=True):
        self.measured += 1
        return super().evaluate(summary, G, with_fim)


WELL_CONDITIONED = groups._frozen(np.eye(2))
SINGULAR = groups._frozen(np.diag([1.0, 0.0]))


@pytest.mark.parametrize("fresh", [False, True], ids=["same-array", "new-array"])
def test_conditioning_guard_fires_when_the_fim_turns_singular(fresh, rng):
    def pick(F):
        return F.copy() if fresh else F

    g0 = GaussianMeanModel(2).element([0.0, 0.0])
    model = StubFimModel(
        lambda G: pick(WELL_CONDITIONED if np.array_equal(G, g0.matrix[None]) else SINGULAR)
    )
    obs = model.sample(model.element([2.0, -1.0]), 30, rng)
    with pytest.raises(DegenerateFimError):
        scoring.fisher_scoring(model, obs, g0)
    assert model.measured == 2  # iterate 0 passed, iterate 1 raised


def test_conditioning_guard_fires_on_a_constant_singular_fim(rng):
    model = StubFimModel(lambda G: SINGULAR)
    obs = model.sample(model.element([2.0, -1.0]), 30, rng)
    with pytest.raises(DegenerateFimError):
        scoring.fisher_scoring(model, obs, model.element([0.0, 0.0]))
    assert model.measured == 1


def count_calls(monkeypatch, owner, name):
    """Replace owner.name with a wrapper that counts its calls."""
    calls = [0]
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_monte_carlo_fim_is_checked_every_iterate(gaussian1, monkeypatch, rng):
    obs = gaussian1.sample(gaussian1.element([2.0]), 40, rng)
    conds = count_calls(monkeypatch, crb, "ill_conditioned")
    trace = scoring.fisher_scoring(
        gaussian1,
        obs,
        gaussian1.element([-3.0]),
        scoring.ScoringOptions(fim_mode="monte-carlo", mc_fim_samples=200),
        random_state=4,
    )
    assert len(trace.step_norms) >= 3
    assert conds[0] == len(trace.step_norms)


def test_monte_carlo_fims_of_a_stack_are_those_of_fisher_fim(landmark_two, monkeypatch):
    """Each active row's Monte-Carlo FIM at iterate k is fisher.fim at that
    iterate, drawn from the child seed k of the row's entropy."""
    g_true = landmark_truth()
    entropies = [(5, 0, t, 0) for t in range(3)]
    summary = scoring.stack_summaries([
        landmark_two.summarize(landmark_two.sample(g_true, 100, np.random.default_rng(t)))
        for t in range(3)
    ])
    G0 = np.broadcast_to(np.eye(4), (3, 4, 4))
    opts = scoring.ScoringOptions(fim_mode="monte-carlo", mc_fim_samples=300)
    calls = []
    stack = fisher._fim_stack

    def recorded(model, X, frame, method, n_samples, seeds):
        calls.append((X.copy(), seeds, stack(model, X, frame, method, n_samples, seeds)))
        return calls[-1][2]

    monkeypatch.setattr(fisher, "_fim_stack", recorded)
    traces, failed = scoring.fisher_scoring_stack(landmark_two, summary, G0, opts, entropies)
    monkeypatch.undo()
    assert failed == {} and len(calls) >= 3
    for k, (X, seeds, S) in enumerate(calls):
        rows = [r for r, trace in enumerate(traces) if len(trace.step_norms) > k]
        assert len(S) == len(rows)
        for x, seed, F, r in zip(X, seeds, S, rows):
            assert seed == scoring._child_seed(entropies[r], k)
            assert np.array_equal(x, traces[r].matrices[k])
            g = groups.GroupElement(landmark_two.descriptor, x)
            expected = fisher.fim(landmark_two, g, fisher.REDUCED, fisher.MC_GRADIENT, 300, seed)
            assert np.array_equal(F, expected.matrix)


# ---------------------------------------------------------------------------
# Cost guard: call counts, no wall clock


@pytest.mark.parametrize("kind", ["landmark", "spd"])
def test_invariant_fim_is_built_and_checked_once(kind, monkeypatch):
    if kind == "landmark":
        model = LandmarkModel([[1.0, 0.0, 0.0], [0.0, 1.0, 0.3]])
        g_true = landmark_truth()
    else:
        model = SpdModel(3)
        g_true = groups.GroupElement(
            model.descriptor, np.array([[1.2, 0.3, 0.0], [0.1, 0.9, 0.2], [0.0, -0.3, 1.4]])
        )
    g0 = groups.identity_element(model.descriptor)
    fims = count_calls(monkeypatch, type(model), "natural_fim")
    conds = count_calls(monkeypatch, crb, "ill_conditioned")
    svds = count_calls(monkeypatch, np.linalg, "cond")
    for run in (1, 2):
        obs = model.sample(g_true, 300, np.random.default_rng(run))
        trace = scoring.fisher_scoring(model, obs, g0)
        assert trace.converged and trace.iterations_used >= 3
        assert conds[0] == run
    assert fims[0] == 1
    assert svds[0] == 0  # a well-conditioned FIM passes without an SVD


def test_rotation_defect_runs_once_per_element(landmark_two, monkeypatch):
    obs = landmark_two.sample(landmark_truth(), 300, np.random.default_rng(3))
    g0 = groups.identity_element(groups.se3())
    defects = count_calls(monkeypatch, groups, "_rotation_defect")
    built = count_calls(monkeypatch, groups.GroupElement, "__post_init__")
    trace = scoring.fisher_scoring(landmark_two, obs, g0)
    assert trace.iterations_used >= 3 and trace.max_drift <= 1e-12
    # The loop measures each new iterate once and boxes none.
    assert built[0] == 0 and defects[0] == trace.iterations_used
    trace.iterates
    assert built[0] == len(trace.matrices)
    assert defects[0] == trace.iterations_used + built[0]


def test_network_fim_is_checked_every_iterate(triangle_network, monkeypatch):
    g = triangle_network.reference_element()
    obs = triangle_network.sample(g, 100, np.random.default_rng(13))
    conds = count_calls(monkeypatch, crb, "ill_conditioned")
    fims = count_calls(monkeypatch, NetworkModel, "_gram")
    svds = count_calls(monkeypatch, np.linalg, "cond")
    families = []
    original = groups.GroupElement.__post_init__

    def tally(self):
        families.append(self.descriptor)
        original(self)

    defects = count_calls(monkeypatch, groups, "_rotation_defect")
    monkeypatch.setattr(groups.GroupElement, "__post_init__", tally)
    trace = scoring.fisher_scoring(triangle_network, obs, g)
    assert len(trace.step_norms) >= 3 and trace.max_drift <= 1e-12
    assert conds[0] == fims[0] == len(trace.step_norms)
    # Nothing is boxed, and each iterate's factors are checked as one stack.
    assert families == [] and defects[0] == trace.iterations_used
    frozen = scoring.fisher_scoring(
        triangle_network, obs, g, scoring.ScoringOptions(fim_mode="frozen-at-initial")
    )
    assert len(frozen.step_norms) >= 2
    assert conds[0] == fims[0] == len(trace.step_norms) + 1
    assert svds[0] == 0


def test_network_scoring_runs_no_dense_sensitivities(triangle_network, monkeypatch):
    """Score and FIM read the edge-sparse translation Jacobian; the dense
    contraction over directions serves only arbitrary directions."""
    g = triangle_network.reference_element()
    obs = triangle_network.sample(g, 100, np.random.default_rng(13))
    dense = count_calls(monkeypatch, network, "_sensitivities")
    evaluations = count_calls(monkeypatch, NetworkModel, "evaluate")
    trace = scoring.fisher_scoring(triangle_network, obs, g)
    assert len(trace.step_norms) >= 3 and evaluations[0] == len(trace.step_norms)
    assert dense[0] == 0
    fisher.fim(triangle_network, g, fisher.REDUCED)
    assert dense[0] == 1


@pytest.mark.parametrize("fim_mode", scoring._FIM_MODES)
def test_one_evaluation_per_iterate_and_one_edge_gather_each(
    fim_mode, triangle_network, monkeypatch
):
    """The loop calls the model once per iterate, g0 included, and a
    network evaluation gathers its edge vectors once. (A Monte-Carlo FIM
    samples observations, which gathers them too.)"""
    g = triangle_network.reference_element()
    obs = triangle_network.sample(g, 100, np.random.default_rng(13))
    evaluations = count_calls(monkeypatch, NetworkModel, "evaluate")
    gathers = count_calls(monkeypatch, NetworkModel, "_edge_vectors")
    opts = scoring.ScoringOptions(fim_mode=fim_mode, mc_fim_samples=500)
    trace = scoring.fisher_scoring(triangle_network, obs, g, opts, random_state=3)
    assert trace.converged and trace.iterations_used >= 2
    assert evaluations[0] == trace.iterations_used + 1
    if fim_mode != scoring.MONTE_CARLO:
        assert gathers[0] == evaluations[0]


def test_divergence_guard_attaches_trace(landmark_two):
    g_true = landmark_truth()
    obs = landmark_two.sample(g_true, 1000, np.random.default_rng(12))
    with pytest.raises(DivergenceError) as err:
        scoring.gradient_ascent(
            landmark_two, obs, groups.identity_element(groups.se3()),
            step0=1.0, max_iterations=200,
        )
    assert err.value.trace is not None
    assert len(err.value.trace.logliks) >= 2


def test_divergence_guard_catches_non_finite_loglik(rng):
    model = GaussianMeanModel(1)
    g0 = model.element([-3.0])
    obs = model.sample(model.element([2.0]), 40, rng)
    finite = model.evaluate

    def evaluate(summary, G, with_fim=True):
        # Stub: the log-likelihood turns NaN once the iterate leaves g0.
        ll, grad, F = finite(summary, G, with_fim)
        return np.where((G == g0.matrix).all(axis=(-2, -1)), ll, np.nan), grad, F

    model.evaluate = evaluate
    runs = (
        lambda: scoring.fisher_scoring(model, obs, g0),
        lambda: scoring.gradient_ascent(model, obs, g0, step0=0.5),
    )
    for run in runs:
        with pytest.raises(DivergenceError) as err:
            run()
        assert len(err.value.trace.logliks) == 2
        assert math.isnan(err.value.trace.logliks[-1])


# ---------------------------------------------------------------------------
# gradient ascent baseline


def test_gradient_ascent_zero_gradient_stays_put(landmark_two):
    g_true = landmark_truth()
    noiseless = np.broadcast_to(
        landmark_two.mean_observation(g_true), (5, 2, 3)
    ).copy()
    trace = scoring.gradient_ascent(
        landmark_two, noiseless, g_true, step0=0.1, max_iterations=50
    )
    assert trace.converged and len(trace.iterates) == 1


def test_gradient_ascent_scalar_matches_one_scoring_step(gaussian1, rng):
    obs = gaussian1.sample(gaussian1.element([1.0]), 30, rng)
    g0 = gaussian1.element([-2.0])
    fs = scoring.fisher_scoring(gaussian1, obs, g0)
    ga = scoring.gradient_ascent(gaussian1, obs, g0, step0=1.0, max_iterations=5)
    # F = 1, so step0 = 1/F reproduces the scoring update exactly.
    assert np.array_equal(fs.iterates[1].matrix, ga.iterates[1].matrix)
    assert ga.converged and ga.iterations_used == 1


def test_gradient_ascent_needs_more_iterations(landmark_two):
    g_true = landmark_truth()
    obs = landmark_two.sample(g_true, 1000, np.random.default_rng(13))
    g0 = groups.identity_element(groups.se3())
    tol = 1e-8
    fs = scoring.fisher_scoring(
        landmark_two, obs, g0, scoring.ScoringOptions(gradient_tolerance=1e-12)
    )
    fs_iters = next(i for i, v in enumerate(fs.grad_norms) if v <= tol)
    ga = scoring.gradient_ascent(
        landmark_two, obs, g0, step0=0.1, max_iterations=600,
        gradient_tolerance=1e-12,
    )
    ga_iters = next(
        (i for i, v in enumerate(ga.grad_norms) if v <= tol), np.inf
    )
    assert ga_iters > fs_iters


def test_gradient_ascent_parameter_validation(landmark_two):
    g = landmark_truth()
    obs = landmark_two.sample(g, 10, np.random.default_rng(14))
    with pytest.raises(ValueError):
        scoring.gradient_ascent(landmark_two, obs, g, step0=0.0)
    with pytest.raises(ValueError):
        scoring.gradient_ascent(landmark_two, obs, g, step0=0.1, decay=1.5)


@pytest.mark.parametrize(
    "bad",
    [
        {"step0": math.nan},
        {"step0": math.inf},
        {"step0": True},
        {"decay": math.nan},
        {"decay": True},
        {"max_iterations": 0},
        {"max_iterations": True},
        {"max_iterations": 2.5},
        {"gradient_tolerance": 0.0},
        {"gradient_tolerance": math.nan},
    ],
    ids=lambda bad: "-".join(f"{k}={v}" for k, v in bad.items()),
)
def test_gradient_ascent_validates_like_scoring_options(landmark_two, bad):
    """The rules of ScoringOptions: finite positive numbers, integer
    counts >= 1, no bools, refused before any step."""
    g = landmark_truth()
    obs = landmark_two.sample(g, 10, np.random.default_rng(14))
    with pytest.raises(ValueError):
        scoring.gradient_ascent(landmark_two, obs, g, **{"step0": 0.1, **bad})


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("kind", ["landmark", "spd"])
def test_non_finite_observations_are_refused_before_the_first_step(kind, value, spd3):
    """The error names the observations, not the iterate; and no
    RuntimeWarning comes first (the suite turns those into errors)."""
    if kind == "landmark":
        model = LandmarkModel([[1.0, 0.0, 0.0], [0.0, 1.0, 0.3]])
        g_true, g0 = landmark_truth(), groups.identity_element(groups.se3())
    else:
        model, g0 = spd3, groups.identity_element(spd3.descriptor)
        g_true = groups.GroupElement(model.descriptor, np.diag([1.2, 0.9, 1.4]))
    obs = model.sample(g_true, 50, np.random.default_rng(21))
    obs[7].flat[1] = value
    with pytest.raises(ValueError, match="observations"):
        scoring.fisher_scoring(model, obs, g0)
    with pytest.raises(ValueError, match="observations"):
        scoring.gradient_ascent(model, obs, g0, step0=0.1)


# ---------------------------------------------------------------------------
# mle


def test_mle_noiseless_recovers_coset(landmark_two):
    g_true = landmark_truth()
    noiseless = np.broadcast_to(
        landmark_two.mean_observation(g_true), (10, 2, 3)
    ).copy()
    est = scoring.mle(
        landmark_two, noiseless, groups.identity_element(groups.se3()),
        scoring.ScoringOptions(gradient_tolerance=1e-12),
    )
    ce = homspace.coset_error(g_true, est, landmark_two.struct)
    assert np.linalg.norm(ce.eta_reduced) <= 1e-6


def test_mle_multistart_same_coset(landmark_two):
    g_true = landmark_truth()
    obs = landmark_two.sample(g_true, 10_000, np.random.default_rng(15))
    opts = scoring.ScoringOptions(gradient_tolerance=1e-12)
    inits = [
        np.zeros(6),
        np.array([0.5, 0.0, 0.0, 0.0, 0.0, 0.0]),
        np.array([0.0, 0.8, 0.0, 0.3, 0.0, 0.0]),
        np.array([0.2, -0.4, 0.7, 0.0, 0.5, -0.2]),
    ]
    finals = [
        scoring.mle(
            landmark_two, obs, groups.exp(AlgebraVector(groups.se3(), c)), opts
        )
        for c in inits
    ]
    for i in range(len(finals)):
        for j in range(i + 1, len(finals)):
            ce = homspace.coset_error(finals[i], finals[j], landmark_two.struct)
            assert np.linalg.norm(ce.eta_reduced) <= 1e-6


def test_mle_consistency_at_large_m(landmark_two):
    g_true = landmark_truth()
    m = 10_000
    obs = landmark_two.sample(g_true, m, np.random.default_rng(16))
    est = scoring.mle(landmark_two, obs, groups.identity_element(groups.se3()))
    ce = homspace.coset_error(g_true, est, landmark_two.struct)
    assert np.linalg.norm(ce.eta_reduced) <= 3.0 / np.sqrt(m)


def test_loglik_nondecreasing_after_first_iteration(landmark_two):
    g_true = landmark_truth()
    good = 0
    trials = 40
    for t in range(trials):
        obs = landmark_two.sample(g_true, 100, np.random.default_rng([17, t]))
        trace = scoring.fisher_scoring(
            landmark_two, obs, groups.identity_element(groups.se3())
        )
        diffs = np.diff(trace.logliks[1:])
        good += 1 if (len(diffs) == 0 or diffs.min() >= -1e-9) else 0
    assert good >= 0.95 * trials


def test_converged_trace_step_norms_end_below_tolerance(landmark_two):
    g_true = landmark_truth()
    obs = landmark_two.sample(g_true, 500, np.random.default_rng(20))
    opts = scoring.ScoringOptions(gradient_tolerance=1e-10)
    trace = scoring.fisher_scoring(
        landmark_two, obs, groups.identity_element(groups.se3()), opts
    )
    assert trace.converged
    assert trace.step_norms[-1] <= opts.gradient_tolerance
    # The tail of the iteration contracts monotonically.
    tail = trace.step_norms[-3:]
    assert all(a > b for a, b in zip(tail, tail[1:]))
