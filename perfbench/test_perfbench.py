"""The benchmark's own checks reject wrong output.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads as W  # noqa: E402
from homcrb import groups, harness  # noqa: E402
from tracing import Tracer  # noqa: E402


def first_call_round(kind, **overrides):
    """One round made of the workload's first call only."""
    docs = W.round_configs(kind, 1, overrides)[:1]
    configs = [harness.load_config(doc) for doc in docs]
    return run.run_rounds(kind, harness, configs, docs, seconds=1e-9)


def test_clean_round_passes():
    result = first_call_round("spd")
    assert result["problems"] == []
    assert result["failed"] == 0
    assert result["attempted"] == 10 * 3


def test_check_rejects_corrupt_inner_product():
    result = first_call_round(
        "check", check={"suites": "all", "corrupt_inner_product": True}
    )
    assert result["failed"] > 0
    assert any(p.startswith("suite failure") for p in result["problems"])


@pytest.mark.parametrize("kind", ["landmark", "network"])
def test_perturbed_crb_trace_fails(kind):
    doc = W.round_configs(kind, 1, {"n_trials": 2})[0]
    report = getattr(harness, f"run_{kind}_experiment")(harness.load_config(doc))
    text = report.to_csv_text()
    assert W.check_campaign(kind, doc, text) == []
    value = report.summaries[0]["crb_trace"]
    bad = text.replace(repr(value), repr(value * (1.0 + 1e-6)), 1)
    assert bad != text
    assert W.check_campaign(kind, doc, bad)


def test_trial_at_iteration_cap_counts_as_failed():
    result = first_call_round("landmark", scoring={"max_iterations": 2})
    assert result["attempted"] == 20
    assert result["failed"] == result["attempted"]


def test_traced_counts_repeat_exactly():
    tracer = Tracer()
    original = groups.exp
    tracer.install()
    try:
        counts = []
        for _ in range(2):
            first_call_round("landmark", n_trials=2)
            counts.append({k: v for k, v in tracer.take().items()
                           if not k.endswith(".self_s")})
    finally:
        tracer.uninstall()
    assert groups.exp is original
    assert counts[0] == counts[1]
    assert counts[0]["scoring.fisher_scoring.calls"] == 4
    assert counts[0]["homspace.coset_error.lift_iterations"] > 0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, str(tmp_path / "perfbench" / "run.py"), "--workload",
         "spd", "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
