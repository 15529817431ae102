import json
import os
from concurrent.futures import Future

import numpy as np
import pytest
from click.testing import CliRunner

from homcrb import groups
from homcrb.cli import main
from homcrb.exceptions import ConfigError, DegenerateModelError
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


def test_config_validation_errors():
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


def test_config_hash_ignores_execution_details():
    a = load_config({"experiment": "landmark", "workers": 1})
    b = load_config({"experiment": "landmark", "workers": 7, "output": "x.csv"})
    assert a.config_hash() == b.config_hash()
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
    each task in this process."""

    sizes = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        future = Future()
        future.set_result(fn(*args))
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


RUNNERS = {
    "landmark": run_landmark_experiment,
    "network": run_network_experiment,
    "spd": run_spd_experiment,
    "crb-report": run_crb_report,
}


@pytest.mark.parametrize(
    "kind, cls",
    [("landmark", LandmarkModel), ("network", NetworkModel), ("spd", SpdModel)],
)
def test_serial_campaign_builds_one_model(kind, cls, monkeypatch):
    built = [0]
    original = cls.__init__

    def counted(self, *args, **kwargs):
        built[0] += 1
        original(self, *args, **kwargs)

    monkeypatch.setattr(cls, "__init__", counted)
    cfg = load_config({"experiment": kind, "n_trials": 3, "m_values": [10, 20]})
    rep = RUNNERS[kind](cfg)
    assert len(rep.rows) == 6
    assert built[0] == 1


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
    assert not rep.passed


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
