"""Pinned outputs: each file under tests/golden/ is the exact output of one
config run through the public harness, and must be reproduced byte for
byte.

Regenerate every file and the manifest, on purpose only, with

    PYTHONPATH=src python tests/test_golden.py

and quote the resulting diff of tests/golden/ with the change that moved
the bytes. The test below never skips, tolerates or regenerates.
"""

from __future__ import annotations

import csv
import io
import json
import platform
from pathlib import Path

import numpy as np
import pytest
import scipy

from homcrb import harness

GOLDEN = Path(__file__).resolve().parent / "golden"
MANIFEST = GOLDEN / "MANIFEST.json"


def _seed30_graph() -> dict:
    """30 agents uniform on [0, 3]^2 from default_rng(30), edges shorter
    than 1.5 (210 of them), sigma 0.1: scoring on it runs to the
    iteration cap at campaign seed 1 and diverges at seed 3."""
    p = np.random.default_rng(30).uniform(0.0, 3.0, (30, 2))
    dist = np.linalg.norm(p[:, None, :] - p[None, :, :], axis=-1)
    edges = [[i, j] for i in range(30) for j in range(i + 1, 30) if dist[i, j] < 1.5]
    return {"positions": p.tolist(), "edges": edges, "sigmas": 0.1}


def _cases() -> dict:
    graph = _seed30_graph()
    cases = {
        "landmark-seed1.csv": {"experiment": "landmark", "seed": 1, "n_trials": 3,
                               "m_values": [10, 100]},
        # Trial 1 at m = 10 stops at the 100-iteration cap.
        "landmark-seed205.csv": {"experiment": "landmark", "seed": 205,
                                 "n_trials": 4, "m_values": [10, 100, 1000]},
        "network-triangle-seed1.csv": {"experiment": "network", "seed": 1,
                                       "n_trials": 3, "m_values": [100]},
        "network-graph30-seed1.csv": {"experiment": "network", "seed": 1,
                                      "n_trials": 2, "m_values": [100],
                                      "network": graph},
        "network-graph30-seed3.csv": {"experiment": "network", "seed": 3,
                                      "n_trials": 2, "m_values": [100],
                                      "network": graph},
        "spd-seed1.csv": {"experiment": "spd", "seed": 1, "n_trials": 3,
                          "m_values": [10, 100]},
    }
    for model in ("landmark", "network", "spd"):
        cases[f"crb-report-{model}.csv"] = {"experiment": "crb-report", "seed": 1,
                                            "model": model}
    cases["check-seed1.txt"] = {"experiment": "check", "seed": 1}
    for doc in cases.values():
        doc["workers"] = 1
    return cases


CASES = _cases()

_RUNNERS = {
    "landmark": harness.run_landmark_experiment,
    "network": harness.run_network_experiment,
    "spd": harness.run_spd_experiment,
    "crb-report": harness.run_crb_report,
}


def render(doc: dict) -> str:
    """The output the CLI writes for this config."""
    config = harness.load_config(doc)
    if config.experiment == "check":
        return "\n".join(harness.run_property_suite(config).lines()) + "\n"
    return _RUNNERS[config.experiment](config).to_csv_text()


def versions() -> dict:
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__}


def _table(text: str) -> list[dict]:
    body = "".join(line for line in io.StringIO(text, newline="")
                   if not line.startswith("#"))
    return list(csv.DictReader(io.StringIO(body, newline="")))


def _as_float(value):
    try:
        return float(value)
    except (TypeError, ValueError):
        return None


def describe_mismatch(expected: str, actual: str) -> str:
    """The first differing line, and per numeric column the largest
    relative change between rows at the same position."""
    old, new = expected.splitlines(), actual.splitlines()
    k = next((i for i, (a, b) in enumerate(zip(old, new)) if a != b),
             min(len(old), len(new)))
    lines = [f"first difference at line {k + 1}:",
             f"  golden: {old[k] if k < len(old) else '<end of file>'}",
             f"  now:    {new[k] if k < len(new) else '<end of file>'}"]
    changes = {}
    for row_old, row_new in zip(_table(expected), _table(actual)):
        for col, a in row_old.items():
            x, y = _as_float(a), _as_float(row_new.get(col))
            if x is None or y is None or x == y:
                continue
            rel = abs(x - y) / max(abs(x), abs(y))
            changes[col] = max(changes.get(col, 0.0), rel)
    for col, rel in sorted(changes.items()):
        lines.append(f"  largest relative change in {col}: {rel:.3e}")
    lines.append(f"golden made with {json.loads(MANIFEST.read_text())['versions']}, "
                 f"now {versions()}")
    return "\n".join(lines)


def test_manifest_records_every_case():
    manifest = json.loads(MANIFEST.read_text())
    assert manifest["files"] == CASES
    assert sorted(p.name for p in GOLDEN.iterdir() if p != MANIFEST) == sorted(CASES)


@pytest.mark.parametrize("name", list(CASES))
def test_output_matches_golden(name):
    expected = (GOLDEN / name).read_bytes().decode()
    actual = render(CASES[name])
    if actual != expected:
        pytest.fail(f"{name} differs from its golden copy\n"
                    + describe_mismatch(expected, actual), pytrace=False)


def regenerate() -> None:
    GOLDEN.mkdir(exist_ok=True)
    for name, doc in CASES.items():
        (GOLDEN / name).write_bytes(render(doc).encode())
    MANIFEST.write_text(json.dumps({"versions": versions(), "files": CASES},
                                   indent=1) + "\n")


if __name__ == "__main__":
    regenerate()
