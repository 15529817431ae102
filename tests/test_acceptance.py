"""Acceptance gate: one test per criterion, each printing a PASS/FAIL
line (run with -s to see them). Tolerances are pinned here, not
calibrated elsewhere. The Monte-Carlo campaigns pin seeds; trend
assertions (criterion 4) are desk-scale statistical properties evaluated
at those seeds.
"""

import json
import math
import time

import numpy as np
import pytest
from click.testing import CliRunner

from homcrb import crb, fisher, groups, homspace, scoring
from homcrb.cli import main as cli_main
from homcrb.exceptions import DegenerateModelError, DivergenceError
from homcrb.groups import AlgebraVector
from homcrb.harness import (
    load_config,
    run_landmark_experiment,
)
from homcrb.models import (
    GaussianMeanModel,
    LandmarkModel,
    NetworkModel,
    network_fim,
    rigidity_matrix,
)
from model_registry import geometric_graph

SEED = 7

LANDMARK_TWO = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.3]]
TRUE_POSE = {
    "rotation_axis": [0.3, 1.0, 0.4],
    "rotation_angle": 1.2,
    "translation": [0.4, -0.3, 0.5],
}


def _report(criterion: int, detail: str, ok: bool = True):
    status = "PASS" if ok else "FAIL"
    print(f"{status} criterion {criterion:02d}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def true_pose_element():
    axis = np.asarray(TRUE_POSE["rotation_axis"], float)
    axis /= np.linalg.norm(axis)
    coords = np.concatenate(
        [TRUE_POSE["rotation_angle"] * axis, TRUE_POSE["translation"]]
    )
    return groups.exp(AlgebraVector(groups.se3(), coords))


@pytest.fixture(scope="module")
def variance_campaign():
    """The full variance-vs-CRB campaign; reused by criteria 3 and 4."""
    cfg = load_config(
        {
            "experiment": "landmark",
            "seed": SEED,
            "n_trials": 2000,
            "m_values": [10, 100, 1000],
            "landmark": {"landmarks": LANDMARK_TWO, "true_pose": TRUE_POSE},
            "scoring": {"gradient_tolerance": 1e-11},
        }
    )
    return run_landmark_experiment(cfg)


def test_criterion_01_psi_matrix():
    """Psi against central differences of the log map, 100 pairs per
    group with |X| <= 0.5, tolerance 1e-5, under 5 seconds."""
    start = time.monotonic()
    worst = 0.0
    h = 1e-5
    for desc in (groups.so3(), groups.se2(), groups.se3(), groups.glnplus(2)):
        rng = np.random.default_rng([SEED, desc.algebra_dim])
        for _ in range(100):
            X = groups.random_algebra_vector(
                desc, rng, 0.5 / math.sqrt(desc.algebra_dim)
            )
            Y = groups.random_algebra_vector(desc, rng, 1.0)
            P = groups.psi_matrix(X)
            gX = groups.exp(X)
            fp = groups.log(gX @ groups.exp(AlgebraVector(desc, h * Y.coords)))
            fm = groups.log(gX @ groups.exp(AlgebraVector(desc, -h * Y.coords)))
            fd = (fp.coords - fm.coords) / (2 * h)
            worst = max(worst, float(np.abs(P.matrix @ Y.coords - fd).max()))
    elapsed = time.monotonic() - start
    _report(
        1,
        f"Psi vs log-derivative worst deviation {worst:.2e} (<= 1e-5), "
        f"{elapsed:.2f}s (< 5s)",
        worst <= 1e-5 and elapsed < 5.0,
    )


def test_criterion_02_fim_frame_properties(draw_h):
    """FIM frame properties on the landmark model: exact h-block zero,
    fiber constancy / adjoint / conjugation to 1e-9 analytically over 20
    sampled h, and Monte-Carlo FIMs within 0.05 spectral at 1e5 samples,
    all under 60 seconds."""
    start = time.monotonic()
    model = LandmarkModel([[1.0, 0.0, 0.0]])
    rng = np.random.default_rng([SEED, 2])
    g = groups.random_element(groups.se3(), rng, 0.3)
    worst_exact = 0.0
    worst_analytic = 0.0
    for _ in range(20):
        h = draw_h(model.struct, rng)
        rep = fisher.verify_fim_properties(model, g, h)
        worst_exact = max(worst_exact, rep.h_block)
        worst_analytic = max(
            worst_analytic,
            rep.fiber_constancy,
            rep.adjoint_relation,
            rep.fiber_conjugation,
        )
    h = draw_h(model.struct, rng)
    rep_mc = fisher.verify_fim_properties(
        model, g, h, n_samples=100_000, random_state=SEED,
        method=fisher.MC_GRADIENT,
    )
    elapsed = time.monotonic() - start
    _report(
        2,
        f"h-block {worst_exact:.1e} (exactly 0), analytic deviations "
        f"{worst_analytic:.2e} (<= 1e-9), MC deviations "
        f"{rep_mc.max_deviation:.3f} (<= 0.05), {elapsed:.1f}s (< 60s)",
        worst_exact == 0.0
        and worst_analytic <= 1e-9
        and rep_mc.max_deviation <= 0.05
        and elapsed < 60.0,
    )


def test_criterion_03_lifted_error_block_structure(variance_campaign):
    """Lifted-MLE errors have h-components <= 1e-8 by construction and
    the empirical covariance h-block vanishes to 3 standard errors."""
    etas = np.array(variance_campaign.extras["etas"][100])
    worst_h = float(np.abs(etas[:, :1]).max())
    centered = etas - etas.mean(axis=0)
    cov = centered.T @ centered / len(etas)
    se = float(cov.max()) * math.sqrt(2.0 / len(etas))
    h_block = float(np.abs(cov[:1, :]).max())
    _report(
        3,
        f"h-components <= {worst_h:.1e} (<= 1e-8) over {len(etas)} trials, "
        f"covariance h-block {h_block:.1e} <= 3 SE ({3 * se:.1e})",
        worst_h <= 1e-8 and h_block <= 3 * se,
    )


def test_criterion_04_variance_approaches_crb(variance_campaign):
    """Coset variance / bound approaches 1 monotonically and is within
    [0.9, 1.1] at m = 1000; raw group variance stays > 1.5x the bound;
    the 2000-trial campaign stays under 10 minutes single-threaded."""
    runtime = variance_campaign.extras["runtime_seconds"]
    ratios = [variance_campaign.summary_for(m)["ratio_coset"] for m in (10, 100, 1000)]
    g_ratios = [variance_campaign.summary_for(m)["ratio_g"] for m in (10, 100, 1000)]
    devs = [abs(r - 1.0) for r in ratios]
    monotone = devs[0] >= devs[1] >= devs[2]
    in_range = 0.9 <= ratios[2] <= 1.1
    g_ok = all(g > 1.5 for g in g_ratios)
    failures = sum(variance_campaign.summary_for(m)["failures"] for m in (10, 100, 1000))
    _report(
        4,
        f"coset ratios {[round(r, 4) for r in ratios]} (|r-1| nonincreasing: "
        f"{monotone}, final in [0.9, 1.1]: {in_range}); G ratios "
        f"{[round(g, 1) for g in g_ratios]} all > 1.5: {g_ok}; "
        f"failures {failures}; runtime {runtime:.0f}s (< 600s)",
        monotone and in_range and g_ok and runtime < 600.0,
    )


def test_criterion_05_scoring_needs_no_step_size():
    """Fisher scoring reaches gradient norm <= 1e-8 within 10 iterations
    at every m with no step size; fixed-step gradient ascent needs
    strictly more iterations or fails outright."""
    model = LandmarkModel(LANDMARK_TWO)
    g_true = true_pose_element()
    g0 = groups.identity_element(groups.se3())
    tol = 1e-8
    details = []
    ok = True
    for m in (100, 1000, 10_000):
        obs = model.sample(g_true, m, np.random.default_rng([SEED, 5, m]))
        tr = scoring.fisher_scoring(
            model, obs, g0, scoring.ScoringOptions(gradient_tolerance=1e-12)
        )
        fs_iter = next(
            (i for i, v in enumerate(tr.grad_norms) if v <= tol), None
        )
        ok = ok and fs_iter is not None and fs_iter <= 10
        for step in (0.01, 0.1, 1.0):
            try:
                ga = scoring.gradient_ascent(
                    model, obs, g0, step0=step, decay=1.0,
                    max_iterations=3000, gradient_tolerance=1e-12,
                )
                ga_iter = next(
                    (i for i, v in enumerate(ga.grad_norms) if v <= tol), None
                )
            except DivergenceError:
                ga_iter = None
            ok = ok and (ga_iter is None or ga_iter > fs_iter)
        details.append(f"m={m}: scoring {fs_iter} its")
    _report(5, "; ".join(details) + " (ascent strictly slower or divergent)", ok)


def test_criterion_06_multistart_same_coset():
    """Four initializations give the same coset (error <= 1e-6) while
    differing on SE(3) (pairwise G-error >= 1e-2)."""
    model = LandmarkModel(LANDMARK_TWO)
    g_true = true_pose_element()
    obs = model.sample(g_true, 10_000, np.random.default_rng([SEED, 6]))
    opts = scoring.ScoringOptions(gradient_tolerance=1e-12)
    inits = [
        np.zeros(6),
        np.array([0.5, 0.0, 0.0, 0.0, 0.0, 0.0]),
        np.array([0.0, 0.8, 0.0, 0.3, 0.0, 0.0]),
        np.array([0.2, -0.4, 0.7, 0.0, 0.5, -0.2]),
    ]
    finals = [
        scoring.mle(model, obs, groups.exp(AlgebraVector(groups.se3(), c)), opts)
        for c in inits
    ]
    max_coset, min_g = 0.0, math.inf
    for i in range(4):
        for j in range(i + 1, 4):
            ce = homspace.coset_error(finals[i], finals[j], model.struct)
            max_coset = max(max_coset, float(np.linalg.norm(ce.eta_reduced)))
            diff = groups.log(finals[j] @ finals[i].inverse())
            min_g = min(min_g, float(np.linalg.norm(diff.coords)))
    _report(
        6,
        f"pairwise coset error <= {max_coset:.1e} (<= 1e-6), "
        f"pairwise G-error >= {min_g:.3f} (>= 1e-2)",
        max_coset <= 1e-6 and min_g >= 1e-2,
    )


def test_criterion_07_variance_representative_independence(draw_h):
    """tr(Fbar^-1) matches at g and hg to 1e-8 for 20 sampled h; coset
    variances on shared trials agree within 3 standard errors."""
    model = LandmarkModel([[1.0, 0.0, 0.0]])
    struct = model.struct
    rng = np.random.default_rng([SEED, 7])
    g = groups.random_element(groups.se3(), rng, 0.4)
    F = fisher.fim(model, g, fisher.REDUCED)
    base_trace = crb.variance_bound(F)
    # Shared trials: one set of estimates, re-lifted at each representative.
    opts = scoring.ScoringOptions(gradient_tolerance=1e-11)
    estimates = []
    for t in range(200):
        obs = model.sample(g, 100, np.random.default_rng([SEED, 7, t]))
        estimates.append(scoring.fisher_scoring(model, obs, g, opts).final)
    stats_g = crb.estimator_stats(g, estimates, struct)
    worst_trace = 0.0
    worst_var = 0.0
    for _ in range(20):
        h = draw_h(struct, rng)
        moved = h @ g  # H\G: representatives of Hg are hg
        Fh = fisher.fim(model, moved, fisher.REDUCED)
        worst_trace = max(worst_trace, abs(crb.variance_bound(Fh) - base_trace))
        stats_h = crb.estimator_stats(moved, estimates, struct)
        worst_var = max(
            worst_var, abs(stats_h.variance_on_coset - stats_g.variance_on_coset)
        )
    se = np.std(
        [np.sum(c[struct.n_H :] ** 2) for c in stats_g.error_coords]
    ) / math.sqrt(stats_g.n_trials)
    _report(
        7,
        f"trace deviation {worst_trace:.1e} (<= 1e-8); shared-trial "
        f"variance deviation {worst_var:.1e} <= 3 SE ({3 * se:.1e})",
        worst_trace <= 1e-8 and worst_var <= 3 * se,
    )


def test_criterion_08_sphere_riemannian_agreement():
    """Group coset error equals the closed-form spherical log to 1e-10
    over 100 pairs at geodesic distance <= 2."""
    s2 = homspace.sphere_structure()
    rng = np.random.default_rng([SEED, 8])
    worst = 0.0
    for _ in range(100):
        a = groups.random_element(groups.so3(), rng, 1.0)
        d = rng.standard_normal(2)
        d *= rng.uniform(0.0, 2.0) / np.linalg.norm(d)
        b = a @ groups.exp(s2.from_coords(np.concatenate([[0.0], d])))
        eg, ei = homspace.sphere_riemannian_check(a, b, s2)
        worst = max(worst, float(np.abs(eg - ei).max()))
    _report(8, f"worst coordinate deviation {worst:.2e} (<= 1e-10)", worst <= 1e-10)


def test_criterion_09_network_fim_and_rigidity():
    """Reduced FIM equals the rigidity submatrix to 1e-12 through an
    independent code path, matches the Monte-Carlo Hessian FIM within
    0.05, the rank bound holds on 50 random graphs, and flex graphs are
    refused."""
    net = NetworkModel(
        [[0.0, 0.0], [0.0, 1.0], [0.9, 0.6]], [(0, 1), (1, 2), (0, 2)], 1.0
    )
    g = net.reference_element()
    F_rig = network_fim(net.positions, net.edges, net.sigmas)
    F_struct = fisher.fim(net, g, fisher.REDUCED)
    path_dev = float(np.abs(F_rig.matrix - F_struct.matrix).max())
    F_hess = fisher.fim_hessian(
        net, g, fisher.REDUCED, 100_000, random_state=[SEED, 9]
    )
    mc_dev = float(np.linalg.norm(F_hess.matrix - F_rig.matrix, 2))
    rank_ok = True
    for t in range(50):
        r = np.random.default_rng([SEED, 9, t])
        n = int(r.integers(2, 8))
        p = r.standard_normal((n, 2))
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        k = int(r.integers(1, len(pairs) + 1))
        chosen = [pairs[i] for i in r.choice(len(pairs), size=k, replace=False)]
        S = rigidity_matrix(p, chosen, 0.5)
        rank_ok = rank_ok and np.linalg.matrix_rank(S, tol=1e-10) <= 2 * n - 3
    try:
        network_fim([[0.0, 0.0], [0.0, 1.0], [1.0, 0.5]], [(0, 1), (1, 2)], 0.1)
        flex_refused = False
    except DegenerateModelError:
        flex_refused = True
    _report(
        9,
        f"rigidity-vs-struct path {path_dev:.1e} (<= 1e-12), MC-Hessian "
        f"spectral {mc_dev:.3f} (<= 0.05), rank bound on 50 graphs: "
        f"{rank_ok}, flex refused: {flex_refused}",
        path_dev <= 1e-12 and mc_dev <= 0.05 and rank_ok and flex_refused,
    )


def test_criterion_10_spd_scoring():
    """Fisher scoring reaches the sample second-moment MLE within 1e-6
    Frobenius in <= 50 iterations on 100 seeded trials (n=3, m=500)."""
    from homcrb.harness import run_spd_experiment

    cfg = load_config(
        {"experiment": "spd", "seed": SEED, "n_trials": 100, "m_values": [500]}
    )
    rep = run_spd_experiment(cfg)
    s = rep.summary_for(500)
    iters = [r["iterations"] for r in rep.rows if r["status"] == "ok"]
    _report(
        10,
        f"100 trials: max gap {s['max_gap']:.2e} (<= 1e-6), max iterations "
        f"{max(iters)} (<= 50), failures {s['failures']}",
        s["failures"] == 0 and s["max_gap"] <= 1e-6 and max(iters) <= 50,
    )


def test_criterion_11_efficiency():
    """Scalar Gaussian sample mean: residual <= 1e-10 at c = 1. Landmark
    MLE at m = 1e4: residual <= 10% of the mean error norm."""
    gm = GaussianMeanModel()
    g = gm.element([0.4])
    obs_sets = [
        gm.sample(g, 25, np.random.default_rng([SEED, 11, t])) for t in range(100)
    ]
    ests = [gm.sample_mean_element(o) for o in obs_sets]
    res_scalar = crb.efficiency_residual(gm, obs_sets, g, ests, gm.struct, c=1.0)

    model = LandmarkModel(LANDMARK_TWO)
    g_true = true_pose_element()
    opts = scoring.ScoringOptions(gradient_tolerance=1e-11)
    lm_obs, lm_est = [], []
    for t in range(50):
        obs = model.sample(g_true, 10_000, np.random.default_rng([SEED, 11, 1, t]))
        lm_obs.append(obs)
        lm_est.append(scoring.fisher_scoring(model, obs, g_true, opts).final)
    res_lm = crb.efficiency_residual(
        model, lm_obs, g_true, lm_est, model.struct, c=1.0
    )
    stats = crb.estimator_stats(g_true, lm_est, model.struct)
    mean_norm = float(
        np.mean([np.linalg.norm(c) for c in stats.error_coords])
    )
    _report(
        11,
        f"scalar residual {res_scalar:.1e} (<= 1e-10); landmark residual "
        f"{res_lm:.2e} = {100 * res_lm / mean_norm:.1f}% of mean error norm "
        f"{mean_norm:.2e} (<= 10%)",
        res_scalar <= 1e-10 and res_lm <= 0.1 * mean_norm,
    )


def test_criterion_12_cli_determinism(tmp_path):
    """Identical config/seed/workers produce byte-identical CSV for every
    CLI experiment."""
    runner = CliRunner()
    configs = {
        "landmark": {"experiment": "landmark", "n_trials": 6, "m_values": [10, 40]},
        "network": {"experiment": "network", "n_trials": 6, "m_values": [50]},
        "spd": {"experiment": "spd", "n_trials": 6, "m_values": [100]},
        "crb-report": {"experiment": "crb-report", "m_values": [10, 100]},
    }
    all_ok = True
    for name, payload in configs.items():
        cfg = tmp_path / f"{name}.json"
        cfg.write_text(json.dumps(payload))
        out1 = tmp_path / f"{name}-1.csv"
        out2 = tmp_path / f"{name}-2.csv"
        r1 = runner.invoke(
            cli_main, [name, "--config", str(cfg), "--out", str(out1), "--seed", "5"]
        )
        r2 = runner.invoke(
            cli_main, [name, "--config", str(cfg), "--out", str(out2), "--seed", "5"]
        )
        same = (
            r1.exit_code == 0
            and r2.exit_code == 0
            and out1.read_bytes() == out2.read_bytes()
        )
        all_ok = all_ok and same
    _report(12, "byte-identical reruns for landmark/network/spd/crb-report", all_ok)


def test_criterion_13_network_efficiency():
    """At m = 1000 the coset variance of the 16-agent network, pooled over
    campaign seeds 1-5 (200 trials each, fixed beforehand), is within 6
    standard errors of its bound tr(Fbar^-1)/m. The graph is perfbench's:
    agents uniform in [0, 1]^2 from default_rng(3), an edge below
    distance 0.6, sigma = 0.1. False-alarm rate: a normal mean lands
    beyond 6 standard errors with probability 2e-9. One trial's squared
    error (29 m-coordinates) has skewness about 1.6, so the mean of 1000
    has about 0.05, and a one-term Edgeworth correction gives about 3e-9:
    below 1e-8 for a fault-free estimator whose variance meets the bound."""
    from homcrb.harness import run_network_experiment

    start = time.monotonic()
    network = geometric_graph(3, 16, 1.0, 0.6, 0.1)
    errs, bounds, failures = [], set(), 0
    for seed in (1, 2, 3, 4, 5):
        cfg = load_config(
            {"experiment": "network", "seed": seed, "n_trials": 200,
             "m_values": [1000], "network": network}
        )
        rep = run_network_experiment(cfg)
        errs += [r["coset_err_sq"] for r in rep.rows if r["status"] == "ok"]
        bounds.add(rep.summary_for(1000)["crb_trace"])
        failures += rep.summary_for(1000)["failures"]
    (bound,) = bounds
    errs = np.array(errs)
    ratio = errs.mean() / bound
    se = errs.std() / math.sqrt(len(errs)) / bound
    elapsed = time.monotonic() - start
    _report(
        13,
        f"network ratio_coset {ratio:.4f} +- {se:.4f} over {len(errs)} trials, "
        f"{abs(ratio - 1.0) / se:.1f} standard errors from 1 (<= 6), "
        f"failures {failures}, {elapsed:.1f}s",
        failures == 0 and abs(ratio - 1.0) <= 6.0 * se,
    )
