"""The trials of one m run as one stack: stack kernels agree bit for bit
with the one-element kernels, every trial's row is the same in a stack of
one as in a stack of all, and a trial that fails leaves the stack alone."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homcrb import crb, groups, homspace, scoring
from homcrb.exceptions import (
    CutLocusError,
    DegenerateFimError,
    DivergenceError,
    LiftFailureError,
)
from homcrb.groups import AlgebraVector
from homcrb.harness import experiments, load_config
from homcrb.models import GaussianMeanModel, LandmarkModel, SpdModel

PROPERTY = settings(deadline=None, max_examples=100)

# Rotation angles near 0 (both sides of the small-angle switch), generic,
# near pi (both sides of the near-pi switch) and at the cut locus.
ANGLES = st.one_of(
    st.floats(0.0, 1e-3),
    st.floats(0.5 * groups._SMALL_ANGLE, 2.0 * groups._SMALL_ANGLE),
    st.floats(1e-3, math.pi - 1e-3),
    st.floats(math.pi - 2.0 * groups._NEAR_PI, math.pi - 0.5 * groups._NEAR_PI),
    st.floats(math.pi - 4.0 * groups._CUT_LOCUS_MARGIN, math.pi),
)
AXES = st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(
    lambda v: np.linalg.norm(v) >= 0.1
).map(lambda v: np.asarray(v) / np.linalg.norm(v))
TRANSLATIONS = st.tuples(*[st.floats(-3.0, 3.0)] * 3).map(np.asarray)
ROW = st.tuples(ANGLES, AXES, TRANSLATIONS, st.booleans())


def coordinates(desc, row):
    angle, axis, v, negative = row
    angle = -angle if negative else angle
    if desc.family == groups.SE2:
        return np.concatenate([[angle], v[:2]])
    omega = angle * axis
    return omega if desc.family == groups.SO3 else np.concatenate([omega, v])


def one_by_one(kernel, rows, desc):
    """Per-row results of a one-element kernel, NaN and the exception's
    class and message where it raises."""
    out, errors = [], {}
    for i, r in enumerate(rows):
        try:
            out.append(kernel(r, desc))
        except Exception as exc:  # noqa: BLE001 - compared below
            out.append(np.full(desc.algebra_dim, np.nan))
            errors[i] = (type(exc), str(exc))
    return np.array(out), errors


@PROPERTY
@given(
    st.sampled_from([groups.so3(), groups.se2(), groups.se3()]),
    st.lists(ROW, min_size=2, max_size=8),
)
def test_stack_kernels_match_one_element_kernels_bitwise(desc, rows):
    x = np.array([coordinates(desc, r) for r in rows])
    mats = groups._exp_stack(x, desc)
    assert np.array_equal(mats, np.array([groups._exp(r, desc) for r in x]))
    logs, errors = groups._log_stack(mats, desc)
    ref, ref_errors = one_by_one(groups._log, mats, desc)
    assert np.array_equal(logs, ref, equal_nan=True)
    assert {i: (type(e), str(e)) for i, e in errors.items()} == ref_errors
    defects, bad = groups._membership_stack(mats, desc)
    assert not bad
    assert np.array_equal(defects, [groups._check_membership(m, desc) for m in mats])


def test_stack_kernels_cover_every_branch():
    """The property test's strategies reach each branch; checked here on
    fixed rows so that a narrowed strategy cannot skip one."""
    desc = groups.se3()
    axis = np.array([0.6, 0.0, 0.8])
    angles = [0.0, 1e-5, 1.0, math.pi - 0.05, math.pi - 1e-7]
    x = np.array([np.concatenate([a * axis, [0.3, -0.2, 0.1]]) for a in angles])
    mats = groups._exp_stack(x, desc)
    logs, errors = groups._log_stack(mats, desc)
    assert list(errors) == [4] and isinstance(errors[4], CutLocusError)
    ref, _ = one_by_one(groups._log, mats, desc)
    assert np.array_equal(logs, ref, equal_nan=True)


def test_glnplus_stack_exp_matches_expm_bitwise(rng):
    for desc in (groups.glnplus(3), groups.translation_group(2)):
        x = rng.standard_normal((6, desc.algebra_dim))
        stacked = groups._exp_stack(x, desc)
        assert np.array_equal(stacked, [groups._exp(r, desc) for r in x])


def test_product_stack_kernels_match_per_factor_kernels(rng):
    prod = groups.product_group([groups.se2(), groups.so3(), groups.se3(), groups.se2()])
    x = 0.8 * rng.standard_normal((5, prod.algebra_dim))
    mats = groups._exp_stack(x, prod)
    for row, M in zip(x, mats):
        dense = groups.block_diagonal(
            [groups._exp(row[cols], f) for f, _, cols in prod.blocks]
        )
        assert np.array_equal(M, dense)
    logs, errors = groups._log_stack(mats, prod)
    assert not errors
    for row, M in zip(logs, mats):
        parts = [groups._log(M[rows, rows], f) for f, rows, _ in prod.blocks]
        assert np.array_equal(row, np.concatenate(parts))


# ---------------------------------------------------------------------------
# Factor-stack membership


def test_factor_stack_membership_rejects_off_block_and_bad_factor(rng):
    prod = groups.product_group([groups.se2()] * 5)
    g = groups.random_element(prod, rng, 0.5)
    off = np.array(g.matrix)
    off[1, 7] = 1e-3  # between agents 0 and 2
    with pytest.raises(ValueError, match="block diagonal"):
        groups.GroupElement(prod, off)
    bad = np.array(g.matrix)
    bad[6:8, 6:8] *= 1.01  # agent 2's rotation
    with pytest.raises(ValueError, match="rotation block is not in SO\\(2\\)"):
        groups.GroupElement(prod, bad)
    # In a stack each row is judged alone, the first bad factor first.
    both = np.array(bad)
    both[0:2, 0:2] *= 1.0 + 1e-6  # agent 0: a smaller defect, but earlier
    both[1, 7] = 1e-3
    defects, errors = groups._membership_stack(
        np.stack([g.matrix, off, bad, both]), prod
    )
    assert set(errors) == {1, 2, 3}
    assert "block diagonal" in str(errors[1])
    assert "SO(2)" in str(errors[2]) and "SO(2)" in str(errors[3])
    assert defects[0] == g.defect
    assert defects[2] == pytest.approx(0.0201, rel=1e-9)


# ---------------------------------------------------------------------------
# Row independence: a stack of one per trial against a stack of all


def stack_rows(ctx, kind, seed, m_index, m, trials):
    return experiments._estimation_stack(ctx, kind, seed, m_index, m, trials)


def alone_rows(ctx, kind, seed, m_index, m, trials):
    return [stack_rows(ctx, kind, seed, m_index, m, [t])[0] for t in trials]


def context(doc):
    config = load_config(doc)
    return experiments._CONTEXTS[config.experiment](config), config.seed


TRIANGLE = {
    "positions": [[0.0, 0.0], [0.0, 1.0], [0.9, 0.6]],
    "edges": [[0, 1], [1, 2], [0, 2]],
    "sigmas": 0.3,
}


@pytest.mark.parametrize(
    "doc, m_values, n_trials",
    [
        ({"experiment": "landmark", "seed": 11}, [10, 100], 200),
        ({"experiment": "spd", "seed": 12}, [10, 100], 60),
        ({"experiment": "network", "seed": 13, "network": TRIANGLE}, [100], 20),
    ],
    ids=["landmark", "spd", "triangle-network"],
)
def test_rows_do_not_depend_on_the_stack(doc, m_values, n_trials):
    ctx, seed = context(doc)
    kind = doc["experiment"]
    for m_index, m in enumerate(m_values):
        trials = list(range(n_trials))
        stacked = stack_rows(ctx, kind, seed, m_index, m, trials)
        assert stacked == alone_rows(ctx, kind, seed, m_index, m, trials)
        assert sum(r["status"] == "ok" for r in stacked) >= 0.9 * n_trials


@pytest.mark.parametrize("fim_mode", ["analytic", "monte-carlo"])
def test_campaign_bytes_do_not_depend_on_workers(fim_mode):
    doc = {
        "experiment": "landmark",
        "seed": 1,
        "n_trials": 4,
        "m_values": [10],
        "scoring": {"fim_mode": fim_mode, "mc_fim_samples": 200},
    }
    texts = [
        experiments.run_landmark_experiment(load_config({**doc, "workers": w})).to_csv_text()
        for w in (1, 1, 2)
    ]
    body = [[l for l in t.splitlines() if not l.startswith("# workers")] for t in texts]
    assert body[0] == body[1] == body[2]


MONTE_CARLO = {"fim_mode": "monte-carlo", "mc_fim_samples": 200}
MULTISTART = {
    "landmarks": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.3]],
    "true_pose": {
        "rotation_axis": [0.3, 1.0, 0.4],
        "rotation_angle": 1.2,
        "translation": [0.4, -0.3, 0.5],
    },
    "initializations": [[0.0] * 6, [0.5, 0.0, 0.0, 0.0, 0.0, 0.0]],
}


@pytest.mark.parametrize(
    "doc",
    [
        {"experiment": "landmark", "scoring": MONTE_CARLO},
        {"experiment": "network", "network": TRIANGLE, "scoring": {"fim_mode": "frozen-at-initial"}},
        {"experiment": "network", "network": TRIANGLE, "scoring": MONTE_CARLO},
        {"experiment": "landmark", "landmark": MULTISTART},
    ],
    ids=["landmark-monte-carlo", "network-frozen", "network-monte-carlo", "landmark-multistart"],
)
def test_rows_do_not_depend_on_the_stack_in_every_mode(doc):
    ctx, seed = context({**doc, "seed": 1})
    kind = doc["experiment"]
    trials = [0, 1, 2, 3]
    assert stack_rows(ctx, kind, seed, 0, 100, trials) == alone_rows(
        ctx, kind, seed, 0, 100, trials
    )


# ---------------------------------------------------------------------------
# Failure isolation


class DivergingLandmark(LandmarkModel):
    """A landmark model whose log-likelihood turns -inf after the first
    step for the trial whose mean observation starts with `marker`."""

    marker = None

    def total_loglik(self, summary, G):
        ll = super().total_loglik(summary, G)
        moved = ~(G == np.eye(4)).all(axis=(-2, -1))
        return np.where((summary[1][:, 0, 0] == self.marker) & moved, -np.inf, ll)


def test_a_diverging_trial_leaves_the_stack_alone():
    ctx, seed = context({"experiment": "landmark", "seed": 5})
    model, g_true, inits, opts = ctx
    diverging = DivergingLandmark(model.landmarks)
    rng = np.random.default_rng([seed, 0, 3])
    diverging.marker = diverging.summarize(diverging.sample(g_true, 100, rng))[1][0, 0]
    ctx = (diverging, g_true, inits, opts)
    trials = list(range(8))
    stacked = stack_rows(ctx, "landmark", seed, 0, 100, trials)
    alone = alone_rows(ctx, "landmark", seed, 0, 100, trials)
    assert stacked[3]["status"] == alone[3]["status"] == "failed:DivergenceError"
    assert stacked == alone
    clean = stack_rows((model, g_true, inits, opts), "landmark", seed, 0, 100, trials)
    assert [r for i, r in enumerate(stacked) if i != 3] == [
        r for i, r in enumerate(clean) if i != 3
    ]


class DivergingSpd(SpdModel):
    """An SPD model whose log-likelihood turns -inf after the first step
    for the trial whose sample second moment starts with `marker`."""

    marker = None

    def total_loglik(self, summary, G):
        ll = super().total_loglik(summary, G)
        moved = ~(G == np.eye(self.n)).all(axis=(-2, -1))
        return np.where((summary[1][:, 0, 0] == self.marker) & moved, -np.inf, ll)


def test_a_diverging_spd_trial_leaves_the_stack_alone():
    ctx, seed = context({"experiment": "spd", "seed": 6})
    model, g_true, inits, opts = ctx
    diverging = DivergingSpd(model.n)
    rng = np.random.default_rng([seed, 0, 2])
    diverging.marker = diverging.summarize(diverging.sample(g_true, 50, rng))[1][0, 0]
    ctx = (diverging, g_true, inits, opts)
    trials = list(range(6))
    stacked = stack_rows(ctx, "spd", seed, 0, 50, trials)
    alone = alone_rows(ctx, "spd", seed, 0, 50, trials)
    assert stacked[2]["status"] == alone[2]["status"] == "failed:DivergenceError"
    assert stacked == alone
    clean = stack_rows((model, g_true, inits, opts), "spd", seed, 0, 50, trials)
    assert [r for i, r in enumerate(stacked) if i != 2] == [
        r for i, r in enumerate(clean) if i != 2
    ]
    assert all("frobenius_gap" in r for i, r in enumerate(stacked) if i != 2)


def test_a_trial_diverging_from_a_later_start_leaves_the_stack_alone(monkeypatch):
    """Trial 2 diverges from the second starting point only: its row
    fails and every other row keeps its own multistart spread."""
    stack, one = scoring.fisher_scoring_stack, scoring.fisher_scoring

    def forced(entropy):
        return tuple(entropy[2:]) == (2, 1)

    def stack_diverging(model, summary, G0, opts=None, random_states=None):
        outcome = stack(model, summary, G0, opts, random_states)
        return [DivergenceError("forced") if forced(e) else o
                for o, e in zip(outcome, random_states)]

    def one_diverging(model, observations, g0, opts=None, random_state=None):
        if forced(random_state):
            raise DivergenceError("forced")
        return one(model, observations, g0, opts, random_state)

    ctx, seed = context({"experiment": "landmark", "seed": 7, "landmark": MULTISTART})
    trials = list(range(6))
    clean = stack_rows(ctx, "landmark", seed, 0, 100, trials)
    monkeypatch.setattr(scoring, "fisher_scoring_stack", stack_diverging)
    monkeypatch.setattr(scoring, "fisher_scoring", one_diverging)
    stacked = stack_rows(ctx, "landmark", seed, 0, 100, trials)
    alone = alone_rows(ctx, "landmark", seed, 0, 100, trials)
    assert stacked[2]["status"] == alone[2]["status"] == "failed:DivergenceError"
    assert stacked == alone
    assert [r for i, r in enumerate(stacked) if i != 2] == [
        r for i, r in enumerate(clean) if i != 2
    ]
    assert all("multistart_max_coset" in r for i, r in enumerate(stacked) if i != 2)


def test_a_diverging_row_raises_alone_through_fisher_scoring(rng):
    model = GaussianMeanModel(1)
    g0 = model.element([-3.0])
    obs = [model.sample(model.element([2.0]), 40, rng) for _ in range(3)]
    finite = model.total_loglik
    bad_mean = obs[1].mean()
    model.total_loglik = lambda s, G: np.where(
        (s[1][:, 0] == bad_mean) & (G[:, 0, 1] != g0.matrix[0, 1]), np.nan, finite(s, G)
    )
    summary = scoring.stack_summaries([model.summarize(o) for o in obs])
    G0 = np.broadcast_to(g0.matrix, (3, 2, 2))
    outcome = scoring.fisher_scoring_stack(model, summary, G0)
    assert isinstance(outcome[1], DivergenceError)
    with pytest.raises(DivergenceError):
        scoring.fisher_scoring(model, obs[1], g0)
    for i in (0, 2):
        alone = scoring.fisher_scoring(model, obs[i], g0)
        assert outcome[i].logliks == alone.logliks
        assert np.array_equal(outcome[i].final.matrix, alone.final.matrix)


def sphere_estimates(rng):
    """A reference rotation and four S^2 estimates of it, of which 1 and 2
    fail their lift."""
    s2 = homspace.sphere_structure()
    g = groups.random_element(groups.so3(), rng, 0.5)
    flip = groups.GroupElement(groups.so3(), np.diag([1.0, -1.0, -1.0]))
    far = groups.exp(
        AlgebraVector(groups.so3(), np.array([-2.6004366, -1.28082679, 0.08492474]))
    )
    ests = [
        g @ groups.exp(s2.from_coords(np.array([0.0, 0.3, -0.2]))),
        g @ flip,  # the relative element is a rotation by pi: the cut locus
        g @ far,  # nearly antipodal coset: the lift does not converge
        g @ groups.exp(s2.from_coords(np.array([0.0, -0.1, 0.5]))),
    ]
    return s2, g, ests


def test_a_lift_at_the_cut_locus_leaves_the_stack_alone(rng):
    s2, g, ests = sphere_estimates(rng)
    lifted = homspace.coset_errors(g, np.array([e.matrix for e in ests]), s2)
    assert sorted(lifted.errors) == [1, 2]
    assert isinstance(lifted.errors[1].__cause__, CutLocusError)
    for i in (1, 2):
        with pytest.raises(LiftFailureError) as alone:
            homspace.coset_error(g, ests[i], s2)
        assert type(lifted.errors[i]) is LiftFailureError
        assert str(alone.value) == str(lifted.errors[i])
        assert alone.value.iterations == lifted.errors[i].iterations
    for i in (0, 3):
        ce = homspace.coset_error(g, ests[i], s2)
        assert np.array_equal(ce.eta_struct, lifted.eta_struct[i])
        assert np.array_equal(ce.raw, lifted.raw[i])
        assert ce.iterations == lifted.iterations[i]
    with pytest.raises(LiftFailureError, match="trial 1"):
        crb.estimator_stats(g, ests, s2)


def test_a_trial_alone_lifts_like_the_stack(rng):
    s2, g, ests = sphere_estimates(rng)
    traces = [scoring.ScoringTrace(groups.so3(), [e.matrix], [0.0]) for e in ests]
    eta, raw, errors = experiments._lift(g, traces, s2, alone=False)
    assert sorted(errors) == [1, 2]
    for i, trace in enumerate(traces):
        eta_1, raw_1, errors_1 = experiments._lift(g, [trace], s2, alone=True)
        if i in errors:
            assert type(errors_1[0]) is type(errors[i])
            assert str(errors_1[0]) == str(errors[i])
        else:
            assert errors_1 == {}
            assert np.array_equal(eta_1[0], eta[i])
            assert np.array_equal(raw_1[0], raw[i])


def test_fewer_trials_than_a_stack_run_through_fisher_scoring(monkeypatch):
    calls = []
    one_trial = scoring.fisher_scoring

    def counted(*args, **kwargs):
        calls.append(args[2])
        return one_trial(*args, **kwargs)

    monkeypatch.setattr(scoring, "fisher_scoring", counted)
    doc = {"experiment": "landmark", "seed": 3, "m_values": [10, 100], "workers": 1}
    texts = {}
    for n in (experiments._MIN_STACK - 1, experiments._MIN_STACK):
        calls.clear()
        texts[n] = experiments.run_landmark_experiment(
            load_config({**doc, "n_trials": n})
        ).to_csv_text()
        assert len(calls) == (2 * n if n < experiments._MIN_STACK else 0)

    def trial_rows(text, n):
        return [l for l in text.splitlines() if l.startswith("trial,") and int(l.split(",")[2]) < n]

    n = experiments._MIN_STACK - 1
    assert trial_rows(texts[n], n) == trial_rows(texts[n + 1], n)
    assert len(trial_rows(texts[n], n)) == 2 * n


class SingularAt(GaussianMeanModel):
    """A 2-D Gaussian mean whose per-iterate reduced FIM is singular at
    iterates whose first coordinate equals `where`."""

    invariant_fim = False
    where = None

    def fim_reduced(self, G):
        F = np.broadcast_to(np.eye(2), (len(G), 2, 2)).copy()
        F[G[:, 0, 2] == self.where] = np.diag([1.0, 0.0])
        return F


def test_a_degenerate_fim_leaves_the_stack_alone(rng):
    model = SingularAt(2)
    starts = [model.element([x, 0.0]) for x in (-1.0, 0.5, 2.0)]
    model.where = 0.5
    obs = [model.sample(model.element([1.0, -1.0]), 30, rng) for _ in starts]
    summary = scoring.stack_summaries([model.summarize(o) for o in obs])
    G0 = np.array([g.matrix for g in starts])
    outcome = scoring.fisher_scoring_stack(model, summary, G0)
    assert isinstance(outcome[1], DegenerateFimError)
    with pytest.raises(DegenerateFimError):
        scoring.fisher_scoring(model, obs[1], starts[1])
    for i in (0, 2):
        alone = scoring.fisher_scoring(model, obs[i], starts[i])
        assert outcome[i].logliks == alone.logliks
        assert outcome[i].step_norms == alone.step_norms
        assert np.array_equal(outcome[i].final.matrix, alone.final.matrix)
