"""Pinned outputs: each file under tests/golden/ is the exact output of one
config run through the public harness, and must be reproduced byte for
byte.

Regenerate every file and the manifest, on purpose only, with

    PYTHONPATH=src python tests/test_golden.py

which prints each cell it moves as (file, record, m, trial, column, old,
new), and quote that list with the change that moved the bytes. The
tests below never skip, tolerate or regenerate.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import platform
from pathlib import Path

import numpy as np
import pytest
import scipy

from homcrb import harness
from model_registry import geometric_graph

GOLDEN = Path(__file__).resolve().parent / "golden"
MANIFEST = GOLDEN / "MANIFEST.json"


def _cases() -> dict:
    # 210 edges; scoring on it runs to the iteration cap at campaign seed
    # 1 and diverges at seed 3.
    graph = geometric_graph(30, 30, 3.0, 1.5, 0.1)
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


def _changed(old: dict, new: dict) -> list:
    """(key, old value, new value) for each key whose value differs; a
    missing key reads None."""
    keys = dict.fromkeys([*old, *new])
    return [(k, old.get(k), new.get(k)) for k in keys if old.get(k) != new.get(k)]


def _header(text: str) -> dict:
    return dict(line[2:].split(": ", 1) for line in text.splitlines() if line.startswith("# "))


def moved_cells(name: str, old: str, new: str) -> list[tuple]:
    """Each cell a new render moves in a golden file, as (file, record, m,
    trial, column, old, new): rows are paired by position, a '# key:
    value' line is record '#' with its key as column, and what is
    missing reads None. A file that is not a CSV gives (file, line
    number, old line, new line) for each changed line."""
    if not name.endswith(".csv"):
        lines = itertools.zip_longest(old.splitlines(), new.splitlines())
        return [(name, k, a, b) for k, (a, b) in enumerate(lines, 1) if a != b]
    moved = [(name, "#", None, None, *c) for c in _changed(_header(old), _header(new))]
    for a, b in itertools.zip_longest(_table(old), _table(new), fillvalue={}):
        row = b or a
        moved += [(name, row.get("record"), row.get("m"), row.get("trial"), *c)
                  for c in _changed(a, b)]
    return moved


def test_moved_cells_names_exactly_the_edited_cell():
    name = "landmark-seed1.csv"
    old = (GOLDEN / name).read_bytes().decode()
    new = old.replace(",-21.77625313209179,", ",-21.7,")
    assert new.count(",-21.7,") == 1
    assert moved_cells(name, old, new) == [
        (name, "trial", "10", "0", "loglik", "-21.77625313209179", "-21.7")
    ]
    assert moved_cells(name, old, new.replace("# seed: 1", "# seed: 2")) == [
        (name, "#", None, None, "seed", "1", "2"),
        (name, "trial", "10", "0", "loglik", "-21.77625313209179", "-21.7"),
    ]
    check = (GOLDEN / "check-seed1.txt").read_bytes().decode()
    line = "sphere: 100 checks, 0 failures"
    edited = check.replace(f"PASS {line}", f"FAIL {line}")
    assert moved_cells("check-seed1.txt", check, edited) == [
        ("check-seed1.txt", 5, f"PASS {line}", f"FAIL {line}")
    ]


def regenerate() -> None:
    """Write every golden file and the manifest, printing each cell that
    moves."""
    GOLDEN.mkdir(exist_ok=True)
    for name, doc in CASES.items():
        path = GOLDEN / name
        new = render(doc)
        old = path.read_bytes().decode() if path.exists() else ""
        for cell in moved_cells(name, old, new):
            print(cell)
        path.write_bytes(new.encode())
    MANIFEST.write_text(json.dumps({"versions": versions(), "files": CASES},
                                   indent=1) + "\n")


if __name__ == "__main__":
    regenerate()
