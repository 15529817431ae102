import dataclasses
import importlib
import json
import os
import pickle
import re
import subprocess
import sys
from concurrent.futures import Future

import numpy as np
import pytest
from click.testing import CliRunner

import homcrb
from homcrb import cli, fisher, groups, homspace
from homcrb.cli import main
from homcrb.exceptions import ConfigError, DegenerateModelError, LiftFailureError
from homcrb.models import LandmarkModel, NetworkModel, SpdModel, rigidity_matrix
from homcrb.harness import (
    experiments,
    load_config,
    run_crb_report,
    run_landmark_experiment,
    run_network_experiment,
    run_property_suite,
    run_spd_experiment,
)
from homcrb.harness import properties
from homcrb.models.base import ModelBase


def small_landmark_config(**overrides):
    base = {
        "experiment": "landmark",
        "seed": 42,
        "n_trials": 8,
        "m_values": [10, 40],
    }
    base.update(overrides)
    return load_config(base)


# ---------------------------------------------------------------------------
# config


@pytest.mark.parametrize("package", ["homcrb", "homcrb.models", "homcrb.harness"])
def test_every_exported_name_resolves(package):
    module = importlib.import_module(package)
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert module.__all__ and missing == []


def test_config_validation_errors(tmp_path):
    with pytest.raises(ConfigError):
        load_config({"experiment": "nope"})
    with pytest.raises(ConfigError):
        load_config({"experiment": "landmark", "n_trials": 0})
    with pytest.raises(ConfigError):
        load_config({"experiment": "landmark", "m_values": []})
    with pytest.raises(ConfigError):
        load_config({"experiment": "landmark", "m_values": "11"})
    with pytest.raises(ConfigError):
        load_config({"experiment": "landmark", "m_values": [100, 100]})
    with pytest.raises(ConfigError):
        load_config({"experiment": "landmark", "mvalues": [1]})
    with pytest.raises(ConfigError):
        load_config({"experiment": "landmark", "scoring": {"stepsize": 2}})
    with pytest.raises(ConfigError):
        load_config(None)  # no experiment declared
    with pytest.raises(ConfigError, match="cannot read config"):
        load_config(tmp_path / "missing.json")
    (tmp_path / "array.json").write_text('[{"experiment": "landmark"}]')
    with pytest.raises(ConfigError, match="must be a JSON object"):
        load_config(tmp_path / "array.json")
    with pytest.raises(ConfigError, match="workers"):
        load_config({"experiment": "landmark", "workers": 2}, workers=0)
    assert load_config({"experiment": "landmark", "workers": 2}, workers=3).workers == 3
    # Counts are checked, not truncated; bools are not counts.
    for bad in (
        {"model": "gaussian"},
        {"workers": 0},
        {"seed": -1},
        {"seed": 2**64},
        {"n_trials": 2.7},
        {"m_values": [10.9]},
        {"workers": 1.9},
        {"seed": 3.5},
        {"n_trials": True},
        {"scoring": {"step_scale": 0}},
        {"scoring": {"step_scale": True}},
        {"scoring": {"gradient_tolerance": True}},
        {"scoring": {"gradient_tolerance": float("nan")}},
        {"scoring": {"fim_mode": "monte-carlo", "mc_fim_samples": 0}},
        {"scoring": {"max_iterations": 2.5}},
    ):
        with pytest.raises(ConfigError):
            load_config({"experiment": "landmark", **bad})
    integral = load_config(
        {"experiment": "landmark", "n_trials": 2.0, "m_values": [10.0], "seed": 3.0}
    )
    assert (integral.n_trials, integral.m_values, integral.seed) == (2, (10,), 3)
    # Malformed spd and check sections are refused where they are read.
    for section in BAD_SPD_SECTIONS:
        with pytest.raises(ConfigError):
            run_spd_experiment(load_config({"experiment": "spd", "spd": section}))
    for section in BAD_CHECK_SECTIONS:
        with pytest.raises(ConfigError):
            run_property_suite(load_config({"experiment": "check", "check": section}))
    # Non-finite model inputs and fractional edge endpoints too, each
    # refused with what the value must be.
    for section in BAD_LANDMARK_SECTIONS:
        with pytest.raises(ConfigError, match="must be finite"):
            run_landmark_experiment(small_landmark_config(landmark=section))
    with pytest.raises(ConfigError, match="rotation_axis"):
        run_landmark_experiment(small_landmark_config(landmark=BAD_LANDMARK_SECTIONS[-1]))
    for section in BAD_NETWORK_SECTIONS:
        with pytest.raises(ConfigError, match="must be finite|must be an integer"):
            run_network_experiment(load_config({"experiment": "network", "network": section}))
        with pytest.raises(ConfigError, match="must be finite|must be an integer"):
            run_crb_report(
                load_config({"experiment": "crb-report", "model": "network", "network": section})
            )


NAN, INF = float("nan"), float("inf")
BAD_LANDMARK_SECTIONS = (
    {"noise": NAN},
    {"noise": INF},
    {"landmarks": [[1.0, 0.0, 0.0], [0.0, NAN, 0.3]]},
    {
        "true_pose": {
            "rotation_axis": [0.0, 0.0, 0.0],
            "rotation_angle": 1.2,
            "translation": [0.4, -0.3, 0.5],
        }
    },
)
BAD_NETWORK_SECTIONS = (
    {"sigmas": NAN},
    {"sigmas": INF},
    {"positions": [[0.0, 0.0], [0.0, 1.0], [NAN, 0.6]]},
    {"edges": [[0, 1], [1, 2], [0, 2.7]]},
)
BAD_SPD_SECTIONS = (
    {"dimension": 2, "covariance": [[1.0, float("nan")], [float("nan"), 1.0]]},
    {"dimension": 3, "covariance": [[2.0, 0.0], [0.0, 2.0]]},
    {"dimension": 2, "covariance": [[2.0, 5.0], [0.0, 2.0]]},  # not symmetric
    {"dimension": 2.5},
)
BAD_CHECK_SECTIONS = (
    {"suites": 5},
    {"suites": "psi"},
    {"suites": [], "corrupt_inner_product": "false"},  # a string is not False
)


def test_config_hash_ignores_execution_details():
    a = load_config({"experiment": "landmark", "workers": 1})
    b = load_config({"experiment": "landmark", "workers": 7, "output": "x.csv"})
    assert a.config_hash() == b.config_hash()
    # The hash of the defaults is part of every CSV; it must not move.
    assert load_config({"experiment": "landmark"}).config_hash() == (
        "2a6949f5478c7ae8f342e8f915a68670d001293898ecb3342b410c914afdf5ec"
    )
    c = load_config({"experiment": "landmark", "seed": 1})
    assert a.config_hash() != c.config_hash()


def test_config_experiment_mismatch():
    with pytest.raises(ConfigError):
        load_config({"experiment": "landmark"}, experiment="spd")


# ---------------------------------------------------------------------------
# experiments


def test_landmark_report_shape_and_rows():
    cfg = small_landmark_config()
    rep = run_landmark_experiment(cfg)
    assert len(rep.rows) == 2 * 8
    assert len(rep.summaries) == 2
    for s in rep.summaries:
        assert s["n_ok"] + s["failures"] == 8
        assert np.isfinite(s["coset_variance"])
        assert np.isfinite(s["crb_trace_third"])
    text = rep.to_csv_text()
    assert text.startswith("# config-sha256:")
    assert "# schema: landmark-mc-v1" in text
    assert f"# seed: 42" in text


def test_landmark_rows_independent_of_workers():
    r1 = run_landmark_experiment(small_landmark_config(workers=1))
    r2 = run_landmark_experiment(small_landmark_config(workers=3))
    a = [l for l in r1.to_csv_text().splitlines() if not l.startswith("#")]
    b = [l for l in r2.to_csv_text().splitlines() if not l.startswith("#")]
    assert a == b


class InlinePool:
    """Stands in for ProcessPoolExecutor: records max_workers and runs
    each task in this process on a pickled copy of its arguments, as a
    worker process receives them."""

    sizes = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        future = Future()
        future.set_result(fn(*pickle.loads(pickle.dumps(args))))
        return future


@pytest.mark.parametrize("cpus, pools", [(2, [2]), (None, [])])
def test_worker_processes_capped_at_cpu_count(cpus, pools, monkeypatch):
    serial = run_landmark_experiment(small_landmark_config(n_trials=4, m_values=[10]))
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    monkeypatch.setattr(experiments, "ProcessPoolExecutor", InlinePool)
    InlinePool.sizes = []
    cfg = small_landmark_config(n_trials=4, m_values=[10], workers=1000)
    rep = run_landmark_experiment(cfg)
    assert InlinePool.sizes == pools
    assert rep.rows == serial.rows
    assert rep.metadata["workers"] == 1000


@pytest.mark.parametrize("module", ["homcrb.harness", "homcrb.cli"])
def test_import_loads_neither_scipy_nor_the_process_pool(module):
    """A fresh interpreter that imports the package has no scipy module
    and no process pool; its first GL(2)+ exp loads scipy.linalg."""
    code = (
        f"import json, sys, {module}\n"
        "from homcrb import groups\n"
        "loaded = sorted(sys.modules)\n"
        "groups.exp(groups.AlgebraVector(groups.glnplus(2), [0.1, 0.2, 0.3, 0.4]))\n"
        "print(json.dumps([loaded, 'scipy.linalg' in sys.modules]))\n"
    )
    loaded, scipy_after_exp = fresh_interpreter_output(code)
    unwanted = [
        m for m in loaded
        if m.split(".")[0] == "scipy" or m == "concurrent.futures.process"
    ]
    assert unwanted == []
    assert scipy_after_exp


def fresh_interpreter_output(code):
    """The JSON that code prints last, run in a fresh interpreter."""
    src = os.path.dirname(os.path.dirname(homcrb.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("experiment", ["landmark", "network", "spd"])
def test_campaign_process_loads_no_scipy(experiment):
    """A fresh interpreter that runs a small campaign loads no scipy
    module: the spd steps are symmetric, so their exps take eigh."""
    code = (
        "import json, sys\n"
        "from homcrb import harness\n"
        f"config = harness.load_config({{'experiment': {experiment!r}, 'seed': 1,"
        " 'n_trials': 2, 'm_values': [10], 'workers': 1})\n"
        f"report = harness.run_{experiment}_experiment(config)\n"
        "statuses = [r['status'] for r in report.rows if r['record'] == 'trial']\n"
        "print(json.dumps([statuses, [m for m in sys.modules if m.split('.')[0] == 'scipy']]))\n"
    )
    statuses, scipy_modules = fresh_interpreter_output(code)
    assert statuses == ["ok", "ok"]
    assert scipy_modules == []


RUNNERS = {
    "landmark": run_landmark_experiment,
    "network": run_network_experiment,
    "spd": run_spd_experiment,
    "crb-report": run_crb_report,
}


MODELS = [("landmark", LandmarkModel), ("network", NetworkModel), ("spd", SpdModel)]


@pytest.mark.parametrize(
    "kind, cls, workers",
    [
        pytest.param(kind, cls, w, id=f"{kind}-{cls.__name__}" + "-2-workers" * (w == 2))
        for kind, cls in MODELS
        for w in (1, 2)
    ],
)
def test_serial_campaign_builds_one_model(kind, cls, workers, monkeypatch):
    """At 2 workers too: each chunk runs on the parent's context."""
    built = [0]
    original = cls.__init__

    def counted(self, *args, **kwargs):
        built[0] += 1
        original(self, *args, **kwargs)

    monkeypatch.setattr(cls, "__init__", counted)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(experiments, "ProcessPoolExecutor", InlinePool)
    InlinePool.sizes = []
    cfg = load_config(
        {"experiment": kind, "n_trials": 3, "m_values": [10, 20], "workers": workers}
    )
    rep = RUNNERS[kind](cfg)
    assert len(rep.rows) == 6
    assert built[0] == 1
    assert InlinePool.sizes == [2] * (workers == 2)


HEADERS = {
    "landmark": "record,m,trial,status,coset_err_sq,g_err_sq,iterations,loglik,"
    "multistart_max_coset,multistart_min_gdist,n_ok,failures,coset_variance,"
    "coset_stderr,g_variance,g_stderr,crb_trace,crb_trace_third,ratio_coset,ratio_g",
    "network": "record,m,trial,status,coset_err_sq,g_err_sq,iterations,loglik,"
    "n_ok,failures,coset_variance,coset_stderr,g_variance,g_stderr,crb_trace,"
    "crb_trace_third,ratio_coset,ratio_g,fim_lambda_min,rigidity_lambda_min_nonzero",
    "spd": "record,m,trial,status,frobenius_gap,iterations,loglik,n_ok,failures,"
    "max_gap,mean_iterations",
    "crb-report": "record,m,crb_trace,crb_trace_total,fim_lambda_min,"
    "fim_lambda_max,rigidity_lambda_min_nonzero",
}


@pytest.mark.parametrize("kind", sorted(HEADERS))
def test_csv_header_line(kind):
    cfg = load_config({"experiment": kind, "n_trials": 1, "m_values": [10]})
    lines = RUNNERS[kind](cfg).to_csv_text().split("\r\n")
    assert [l for l in lines if not l.startswith("#")][0] == HEADERS[kind]


def test_landmark_multistart_columns():
    cfg = small_landmark_config(
        n_trials=2,
        m_values=[200],
        landmark={
            "initializations": [
                [0.0] * 6,
                [0.5, 0, 0, 0, 0, 0],
                [0.0, 0.8, 0, 0.3, 0, 0],
            ]
        },
        scoring={"gradient_tolerance": 1e-12},
    )
    rep = run_landmark_experiment(cfg)
    for row in rep.rows:
        assert row["multistart_max_coset"] <= 1e-6
        assert row["multistart_min_gdist"] >= 1e-2


@pytest.mark.parametrize("n_trials, lift", [(10, "coset_errors"), (2, "coset_error")])
def test_a_failed_lift_fails_its_trial_alone(n_trials, lift, monkeypatch):
    """A lift that fails trial 1, in the stack lift of 10 trials or the
    one-trial lift of 2, leaves that row failed with empty error columns,
    the other rows byte-equal to the clean run, and the failure counted."""
    cfg = small_landmark_config(n_trials=n_trials, m_values=[10])
    clean = run_landmark_experiment(cfg)
    real, calls = getattr(experiments, lift), []

    def forced(*args):
        calls.append(args)
        if lift == "coset_errors":
            lifted = real(*args)
            return dataclasses.replace(lifted, errors={1: LiftFailureError("forced")})
        if len(calls) == 2:
            raise LiftFailureError("forced")
        return real(*args)

    monkeypatch.setattr(experiments, lift, forced)
    rep = run_landmark_experiment(cfg)

    def trial_lines(report):
        return [line for line in report.to_csv_text().splitlines() if line.startswith("trial,")]

    old, new = trial_lines(clean), trial_lines(rep)
    empty = [""] * (len(experiments._FIELDS["landmark"]) - 4)
    assert new[1] == ",".join(["trial", "10", "1", "failed:LiftFailureError", *empty])
    assert new[:1] + new[2:] == old[:1] + old[2:]
    assert clean.summary_for(10)["failures"] == 0
    assert (rep.summary_for(10)["n_ok"], rep.summary_for(10)["failures"]) == (n_trials - 1, 1)


def test_network_experiment_triangle():
    cfg = load_config(
        {
            "experiment": "network",
            "seed": 7,
            "n_trials": 600,
            "m_values": [1000],
        }
    )
    rep = run_network_experiment(cfg)
    s = rep.summary_for(1000)
    assert s["failures"] == 0
    assert abs(s["ratio_coset"] - 1.0) <= 0.15
    assert s["fim_lambda_min"] > 0
    assert s["fim_lambda_min"] <= s["rigidity_lambda_min_nonzero"] + 1e-9
    assert "rigidity-spectrum" in rep.metadata


def test_network_rigidity_spectrum_writes_null_eigenvalues_as_zero():
    positions = [[0.0, 0.0], [1.0, 0.1], [0.4, 0.9], [1.3, 1.0], [-0.2, 1.4]]
    edges = [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3), (2, 4), (0, 4), (3, 4)]
    cfg = load_config(
        {
            "experiment": "network",
            "seed": 5,
            "n_trials": 2,
            "m_values": [50],
            "network": {"positions": positions, "edges": edges, "sigmas": 0.2},
        }
    )
    rep = run_network_experiment(cfg)
    written = rep.metadata["rigidity-spectrum"].split(",")
    model = NetworkModel(positions, edges, 0.2)
    expected = np.linalg.eigvalsh(
        rigidity_matrix(model.positions, model.edges, model.sigmas)
    )
    assert len(written) == len(expected) == 2 * len(positions)
    assert written[:3] == ["0.0", "0.0", "0.0"]
    assert "0.0" not in written[3:]
    values = np.array([float(v) for v in written[3:]])
    assert np.all(np.abs(values - expected[3:]) <= 1e-12 * np.abs(expected[3:]))
    assert rep.summaries[0]["rigidity_lambda_min_nonzero"] == values[0]


def test_network_campaigns_share_one_descriptor():
    cfg = load_config(
        {"experiment": "network", "seed": 3, "n_trials": 2, "m_values": [10]}
    )
    run_network_experiment(cfg)
    cached = groups._vee_solver.cache_info().currsize
    constants = groups.structure_constants.cache_info().currsize
    run_network_experiment(cfg)
    assert groups._vee_solver.cache_info().currsize == cached
    assert groups.structure_constants.cache_info().currsize == constants


def test_network_experiment_refuses_flex_graph():
    cfg = load_config(
        {
            "experiment": "network",
            "n_trials": 2,
            "m_values": [10],
            "network": {
                "positions": [[0, 0], [0, 1], [1, 0.5]],
                "edges": [[0, 1], [1, 2]],
                "sigmas": 0.1,
            },
        }
    )
    with pytest.raises(DegenerateModelError) as err:
        run_network_experiment(cfg)
    assert err.value.rank_gap == 1


def test_spd_experiment_converges():
    cfg = load_config(
        {"experiment": "spd", "seed": 3, "n_trials": 10, "m_values": [500]}
    )
    rep = run_spd_experiment(cfg)
    s = rep.summary_for(500)
    assert s["failures"] == 0 and s["n_ok"] == 10
    assert s["max_gap"] <= 1e-6
    assert s["mean_iterations"] <= 50


def test_spd_experiment_records_degenerate_data():
    # One-dimensional data cannot identify a 3x3 covariance: the sample
    # second moment is rank deficient and the trial is recorded as failed.
    cfg = load_config(
        {
            "experiment": "spd",
            "n_trials": 3,
            "m_values": [1],
        }
    )
    rep = run_spd_experiment(cfg)
    s = rep.summary_for(1)
    assert s["failures"] == 3
    assert all(r["status"].startswith("failed:") for r in rep.rows)


def test_crb_report_scaling():
    cfg = load_config(
        {"experiment": "crb-report", "model": "landmark", "m_values": [10, 100, 1000]}
    )
    rep = run_crb_report(cfg)
    traces = [r["crb_trace"] for r in rep.rows]
    assert abs(traces[0] / traces[1] - 10.0) <= 1e-9
    assert abs(traces[1] / traces[2] - 10.0) <= 1e-9


def test_crb_report_network_includes_rigidity():
    cfg = load_config({"experiment": "crb-report", "model": "network", "m_values": [10]})
    rep = run_crb_report(cfg)
    assert rep.rows[0]["rigidity_lambda_min_nonzero"] > 0


# ---------------------------------------------------------------------------
# property suite


def test_property_suite_all_pass():
    cfg = load_config({"experiment": "check", "seed": 5})
    rep = run_property_suite(cfg)
    assert rep.passed
    assert rep.total_checks > 1000


def test_property_suite_empty_selection_trivial_pass():
    cfg = load_config({"experiment": "check", "check": {"suites": []}})
    rep = run_property_suite(cfg)
    assert rep.passed and rep.total_checks == 0


def test_property_suite_detects_corrupted_inner_product():
    cfg = load_config(
        {
            "experiment": "check",
            "check": {"suites": ["variance-invariance"], "corrupt_inner_product": True},
        }
    )
    rep = run_property_suite(cfg)
    # Every error-length check fails, no trace check does.
    assert (rep.total_checks, len(rep.failures)) == (220, 200)
    assert rep.failures[0] == (
        "variance-invariance[0,0] error length: |0.482291 - 1.073505| > 1e-08"
    )


FRAME_FAILURE = re.compile(r"fim-frames\[(\d+)\]:? (h-block|fiber|adjoint|conjugation)")


def frame_failures(monkeypatch, model):
    """(k, relation) of every fim-frames failure at seed 1, with model in
    place of the suite's landmark model."""
    fixture = properties._landmark_fixture

    def faulty(seed):
        _, g, rng = fixture(seed)
        return model, g, rng

    monkeypatch.setattr(properties, "_landmark_fixture", faulty)
    checks, failures = properties.suite_fim_frames(1)
    assert checks == 80
    found = [FRAME_FAILURE.match(msg) for msg in failures]
    assert all(found), failures
    return {(int(m[1]), m[2]) for m in found}


def every_k(*names):
    return {(k, name) for k in range(20) for name in names}


class GDependentLandmark(LandmarkModel):
    """A fault: the right FIM grows with |p|^2, so it changes along a fiber."""

    def natural_fim(self, G, directions):
        p = G[..., :3, 3]
        scale = 1.0 + np.sum(p * p, axis=-1)
        return super().natural_fim(G, directions) * scale[..., None, None]


def test_fim_frames_passes_and_reports_each_relation_by_index(monkeypatch):
    assert properties.suite_fim_frames(1) == (80, [])
    landmark = LandmarkModel([[1.0, 0.0, 0.0]])
    # The right FIM depends on g: fiber constancy and conjugation fail.
    assert frame_failures(monkeypatch, GDependentLandmark([[1.0, 0.0, 0.0]])) == every_k(
        "fiber", "conjugation"
    )
    # h built for another landmark: its h-block is not zero, and its
    # samples leave the coset.
    wrong_h = LandmarkModel([[1.0, 0.0, 0.0]])
    wrong_h.struct = LandmarkModel([[0.0, 0.0, 1.0]]).struct
    assert frame_failures(monkeypatch, wrong_h) == every_k("h-block", "fiber", "conjugation")
    # Sample 7 is a translation, which moves the landmark off the coset.
    def leaves_at_7(rng, k):
        H = landmark.struct.sample_subgroup(rng, k)
        H[7] = np.eye(4) + np.eye(4, k=3) * 0.5
        return H

    one_bad = LandmarkModel([[1.0, 0.0, 0.0]])
    one_bad.struct = dataclasses.replace(landmark.struct, subgroup_sampler=leaves_at_7)
    assert frame_failures(monkeypatch, one_bad) == {(7, "fiber"), (7, "conjugation")}
    # A corrupted Ad in the adapted basis: the adjoint relation and the
    # conjugation fail.
    in_adapted = homspace.ReductiveStructure.in_adapted
    monkeypatch.setattr(
        homspace.ReductiveStructure, "in_adapted", lambda self, op: 1.01 * in_adapted(self, op)
    )
    assert frame_failures(monkeypatch, landmark) == every_k("adjoint", "conjugation")


def test_subgroup_draws_box_no_elements(landmark_two, built_elements):
    # The draws are one raw stack: what is left is the fixture's g.
    counts = []
    for call in (
        lambda: homspace.check_adH_invariance(landmark_two.struct, 100),
        lambda: properties.suite_fim_frames(1),
        lambda: properties.suite_variance_invariance(1),
    ):
        before = built_elements[0]
        call()
        counts.append(built_elements[0] - before)
    assert counts == [0, 1, 1]


def test_variance_invariance_reports_each_moved_trace(monkeypatch):
    # A reduced FIM that changes along the fiber fails every trace check
    # and no error-length check, which reads the structure alone.
    model = GDependentLandmark([[1.0, 0.0, 0.0]])
    fixture = properties._landmark_fixture
    monkeypatch.setattr(
        properties, "_landmark_fixture", lambda seed: (model,) + fixture(seed)[1:]
    )
    checks, failures = properties.suite_variance_invariance(1)
    assert checks == 220
    expected = [f"variance-invariance[{k}]" for k in range(20)]
    assert [m.split(" ")[0] for m in failures] == expected
    assert all(" trace: " in m for m in failures)


def test_property_suite_looks_each_suite_up_when_it_runs(monkeypatch):
    # A wrapped suite function (a tracer's span, a stub) takes effect.
    monkeypatch.setattr(properties, "suite_psi", lambda seed: (7, [f"stub {seed}"]))
    cfg = load_config({"experiment": "check", "seed": 3, "check": {"suites": ["psi"]}})
    assert run_property_suite(cfg).results == {"psi": (7, ["stub 3"])}


def test_the_finite_difference_suites_run_as_stacks(monkeypatch):
    calls = {
        "log_stack": 0, "log": 0, "coset_errors": 0, "coset_error": 0, "fd": 0,
        "verify_stack": 0, "verify": 0,
    }

    def counted(owner, name, key):
        inner = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls[key] += 1
            return inner(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    counted(groups, "_log_stack", "log_stack")
    counted(groups, "log", "log")
    counted(homspace, "coset_errors", "coset_errors")
    counted(homspace, "coset_error", "coset_error")
    counted(ModelBase, "_fd_gradient_batch", "fd")
    counted(fisher, "verify_fim_properties_stack", "verify_stack")
    counted(fisher, "verify_fim_properties", "verify")
    assert properties.suite_psi(1)[0] == 400
    assert (calls["log_stack"], calls["log"]) == (4, 0)  # one log stack per group
    assert properties.suite_variance_invariance(1)[0] == 220
    # One lift for the reference's and every representative's pairs.
    assert (calls["coset_errors"], calls["coset_error"]) == (1, 0)
    assert properties.suite_fim_frames(1)[0] == 80
    assert (calls["verify_stack"], calls["verify"]) == (1, 0)
    assert properties.suite_gradients(1)[0] == 250
    assert calls["fd"] == 4  # one per model case


def test_property_suite_unknown_suite_rejected():
    cfg = load_config({"experiment": "check", "check": {"suites": ["nonsense"]}})
    with pytest.raises(ConfigError):
        run_property_suite(cfg)


# ---------------------------------------------------------------------------
# CLI


def write_config(tmp_path, payload):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(payload))
    return path


def test_cli_byte_identical_reruns(tmp_path):
    cfg = write_config(
        tmp_path, {"experiment": "landmark", "n_trials": 4, "m_values": [10]}
    )
    runner = CliRunner()
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    r1 = runner.invoke(main, ["landmark", "--config", str(cfg), "--out", str(out1)])
    r2 = runner.invoke(main, ["landmark", "--config", str(cfg), "--out", str(out2)])
    assert r1.exit_code == 0 and r2.exit_code == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_cli_exit_codes(tmp_path):
    runner = CliRunner()
    # 2: malformed config
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    res = runner.invoke(main, ["landmark", "--config", str(bad), "--out", "x.csv"])
    assert res.exit_code == 2
    # 2: missing output
    cfg = write_config(tmp_path, {"experiment": "landmark", "n_trials": 2, "m_values": [5]})
    res = runner.invoke(main, ["landmark", "--config", str(cfg)])
    assert res.exit_code == 2
    # 2: repeated m value
    twice = write_config(tmp_path, {"experiment": "landmark", "m_values": [100, 100]})
    res = runner.invoke(main, ["landmark", "--config", str(twice), "--out", "x.csv"])
    assert res.exit_code == 2 and "distinct" in res.output
    # 3: degenerate model
    flex = write_config(
        tmp_path,
        {
            "experiment": "network",
            "n_trials": 2,
            "m_values": [5],
            "network": {
                "positions": [[0, 0], [0, 1], [1, 0.5]],
                "edges": [[0, 1], [1, 2]],
                "sigmas": 0.1,
            },
        },
    )
    res = runner.invoke(main, ["network", "--config", str(flex), "--out", str(tmp_path / "n.csv")])
    assert res.exit_code == 3
    # 2: malformed spd and check sections
    cases = (
        [("spd", {"spd": section}) for section in BAD_SPD_SECTIONS]
        + [("check", {"check": section}) for section in BAD_CHECK_SECTIONS]
        + [("landmark", {"landmark": section}) for section in BAD_LANDMARK_SECTIONS]
        + [("network", {"network": section}) for section in BAD_NETWORK_SECTIONS]
        + [
            ("crb-report", {"model": "network", "network": section})
            for section in BAD_NETWORK_SECTIONS
        ]
    )
    for experiment, section in cases:
        cfg = write_config(tmp_path, {"experiment": experiment, **section})
        res = runner.invoke(
            main, [experiment, "--config", str(cfg), "--out", str(tmp_path / "s.csv")]
        )
        assert res.exit_code == 2 and "config error" in res.output, section


SMALL = {"landmark": {"experiment": "landmark", "n_trials": 2, "m_values": [5]},
         "check": {"experiment": "check", "check": {"suites": []}}}


@pytest.mark.parametrize(
    "experiment, config, out",
    [("landmark", "directory", "file"), ("landmark", "latin-1", "file"),
     ("landmark", "small", "directory"), ("check", "small", "directory")],
    ids=["config-directory", "config-not-utf8", "landmark-out-directory", "check-out-directory"],
)
def test_cli_unreadable_config_or_unwritable_output_is_a_config_error(
    experiment, config, out, tmp_path
):
    paths = {"directory": tmp_path, "file": tmp_path / "x.csv",
             "small": write_config(tmp_path, SMALL[experiment]),
             "latin-1": tmp_path / "latin1.json"}
    paths["latin-1"].write_bytes('{"experiment": "landmark", "output": "caf\xe9.csv"}'
                                 .encode("latin-1"))
    res = CliRunner().invoke(
        main, [experiment, "--config", str(paths[config]), "--out", str(paths[out])]
    )
    assert res.exit_code == 2, res.output
    assert "config error: cannot" in res.output
    assert isinstance(res.exception, SystemExit)  # no traceback


def test_cli_check_out_writes_the_lines_it_prints(tmp_path):
    out = tmp_path / "check.txt"
    res = CliRunner().invoke(main, ["check", "--seed", "1", "--out", str(out)])
    assert res.exit_code == 0
    assert out.read_text() == res.stdout


def test_cli_refuses_a_missing_output_path_before_the_campaign(tmp_path, monkeypatch):
    def runner(config):
        pytest.fail("the campaign ran without an output path")

    for experiment in ("landmark", "network", "spd", "crb-report"):
        monkeypatch.setitem(cli._RUNNERS, experiment, runner)
        cfg = write_config(tmp_path, {"experiment": experiment})
        res = CliRunner().invoke(main, [experiment, "--config", str(cfg)])
        assert res.exit_code == 2, res.output
        assert "no output path" in res.output


def test_cli_crb_report_refuses_flex_graph(tmp_path):
    # The network rigidity check runs for every runner, not only campaigns.
    flex = write_config(
        tmp_path,
        {
            "experiment": "crb-report",
            "model": "network",
            "m_values": [5],
            "network": {
                "positions": [[0, 0], [0, 1], [1, 0.5]],
                "edges": [[0, 1], [1, 2]],
                "sigmas": 0.1,
            },
        },
    )
    res = CliRunner().invoke(
        main, ["crb-report", "--config", str(flex), "--out", str(tmp_path / "c.csv")]
    )
    assert res.exit_code == 3
    assert "rank gap 1" in res.output


def test_cli_check_exit_codes(tmp_path):
    runner = CliRunner()
    ok = write_config(tmp_path, {"experiment": "check", "check": {"suites": ["sphere"]}})
    res = runner.invoke(main, ["check", "--config", str(ok)])
    assert res.exit_code == 0
    assert "PASS sphere" in res.output
    bad = write_config(
        tmp_path,
        {
            "experiment": "check",
            "check": {"suites": ["variance-invariance"], "corrupt_inner_product": True},
        },
    )
    res = runner.invoke(main, ["check", "--config", str(bad)])
    assert res.exit_code == 4


def test_cli_seed_override_changes_hash(tmp_path):
    cfg = write_config(
        tmp_path, {"experiment": "landmark", "n_trials": 2, "m_values": [5]}
    )
    runner = CliRunner()
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    runner.invoke(main, ["landmark", "--config", str(cfg), "--out", str(a), "--seed", "1"])
    runner.invoke(main, ["landmark", "--config", str(cfg), "--out", str(b), "--seed", "2"])
    assert a.read_bytes() != b.read_bytes()


def test_cli_graph_file_input(tmp_path):
    graph = tmp_path / "graph.json"
    graph.write_text(
        json.dumps(
            {
                "positions": [[0, 0], [0, 1], [0.9, 0.6], [1.5, 1.4]],
                "edges": [[0, 1, 0.2], [1, 2, 0.2], [0, 2, 0.2], [2, 3, 0.2], [1, 3, 0.2]],
            }
        )
    )
    cfg = write_config(
        tmp_path,
        {
            "experiment": "network",
            "n_trials": 3,
            "m_values": [50],
            "network": {"graph": str(graph)},
        },
    )
    runner = CliRunner()
    out = tmp_path / "net.csv"
    res = runner.invoke(main, ["network", "--config", str(cfg), "--out", str(out)])
    assert res.exit_code == 0
    assert out.exists()
    # A graph file that is missing or not JSON is a config error.
    graph.write_text('{"positions": [[0, 0]')
    for path in (graph, tmp_path / "missing.json"):
        cfg = write_config(tmp_path, {"experiment": "network", "network": {"graph": str(path)}})
        res = runner.invoke(main, ["network", "--config", str(cfg), "--out", str(out)])
        assert res.exit_code == 2 and "config error" in res.output, res.output


def test_cli_zero_landmark_noise_is_a_config_error(tmp_path):
    # A zero sigma has no likelihood density: refused before any trial runs.
    runner = CliRunner()
    for noise in (0.0, [1.0, 0.0]):
        for experiment in ("landmark", "crb-report"):
            cfg = write_config(tmp_path, {"experiment": experiment, "n_trials": 2,
                                          "m_values": [5], "landmark": {"noise": noise}})
            res = runner.invoke(
                main, [experiment, "--config", str(cfg), "--out", str(tmp_path / "z.csv")]
            )
            assert res.exit_code == 2 and "config error" in res.output, res.output
            assert "noise standard deviations must be positive" in res.output


def test_readme_quick_start_example():
    import numpy as np

    from homcrb import crb, fisher, groups, homspace, scoring
    from homcrb.models import LandmarkModel

    model = LandmarkModel([[1.0, 0.0, 0.0], [0.0, 1.0, 0.3]])
    g_true = groups.random_element(groups.se3(), np.random.default_rng(0), 0.5)
    obs = model.sample(g_true, 1000, np.random.default_rng(1))
    estimate = scoring.mle(model, obs, groups.identity_element(groups.se3()))
    err = homspace.coset_error(g_true, estimate, model.struct)
    fim = fisher.fim(model, g_true, fisher.REDUCED)
    bound = crb.variance_bound(fim) / 1000
    assert np.sum(err.eta_reduced**2) <= 25 * bound  # single-trial sanity
