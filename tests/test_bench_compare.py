"""tools/bench_compare.py without subprocesses or git: its argument
refusals, and compare() over stubbed perfbench runs."""

import argparse
import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_compare.py"


@pytest.fixture(scope="module")
def bench():
    spec = importlib.util.spec_from_file_location("bench_compare", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


REQUIRED = ["--parent", "a", "--change", "b", "--label", "x", "--workdir", "w"]


@pytest.mark.parametrize(
    "extra",
    [
        ["--pairs", "1"],
        ["--pairs", "0"],
        ["--pairs", "-3"],
        ["--seconds", "0"],
        ["--seconds", "-1"],
        ["--seconds", "nan"],
        ["--traced-seconds", "-0.5"],
        ["--traced-seconds", "nan"],
    ],
)
def test_bad_arguments_are_refused_before_any_export(bench, extra, monkeypatch, capsys):
    done = []
    monkeypatch.setattr(bench, "git", lambda *a: done.append(("git", a)) or "rev")
    monkeypatch.setattr(bench, "export", lambda *a: done.append(("export", a)))
    with pytest.raises(SystemExit) as exc:
        bench.main(REQUIRED + extra)
    assert exc.value.code == 2 and done == []
    assert extra[0] in capsys.readouterr().err


def test_smallest_accepted_arguments(bench):
    args = bench.parse_args(
        REQUIRED + ["--pairs", "2", "--seconds", "0.5", "--traced-seconds", "0"]
    )
    assert (args.pairs, args.seconds, args.traced_seconds) == (2, 0.5, 0.0)


# Per pair: (parent, change) ops_per_s, higher is better, and setup_s,
# lower is better. Pair 2 ties on both, which counts for neither side.
OPS = [(10.0, 11.0), (10.0, 9.0), (10.0, 10.0), (10.0, 12.0)]
SETUP = [(1.0, 0.5), (1.0, 2.0), (1.0, 1.0), (1.0, 1.5)]
IDENTICAL = [True, True, False, True]


def test_compare_alternates_sides_cycles_seeds_and_counts_wins(bench, monkeypatch, capsys):
    calls, checked = [], []

    def run(side, workload, seed, seconds, trace):
        assert (workload, seconds, trace) == ("spd", 3.0, 0)
        k = sum(name == side.name for name, _ in calls)
        calls.append((side.name, seed))
        i = bench.SIDES.index(side.name)
        metrics = {"ops_per_s": OPS[k][i], "setup_s": SETUP[k][i]}
        return {"failed": i, "attempted": 5, "correct": True,
                "metrics": {m: {"value": v} for m, v in metrics.items()}}

    def round0_identical(sides, workload, seed):
        checked.append((workload, seed))
        return IDENTICAL[len(checked) - 1]

    monkeypatch.setattr(bench, "run", run)
    monkeypatch.setattr(bench, "round0_identical", round0_identical)
    sides = {s: Path("/nowhere") / s for s in bench.SIDES}
    args = argparse.Namespace(pairs=4, seeds=[7, 8, 9], seconds=3.0)
    out = bench.compare(sides, "spd", args, {"ops_per_s": "higher", "setup_s": "lower"})

    # The parent runs first in even pairs; pair k uses seeds[k % 3].
    assert calls == [
        ("parent", 7), ("change", 7),
        ("change", 8), ("parent", 8),
        ("parent", 9), ("change", 9),
        ("change", 7), ("parent", 7),
    ]
    assert checked == [("spd", 7), ("spd", 8), ("spd", 9), ("spd", 7)]
    assert out["change_wins"] == {"ops_per_s": "2 of 4", "setup_s": "1 of 4"}
    assert out["round0_identical"] == "3 of 4 pairs"
    for i, s in enumerate(bench.SIDES):
        assert out[s]["runs"] == 4 and out[s]["failed"] == 4 * i
        assert out[s]["attempted"] == 20 and out[s]["all_correct"]
        assert out[s]["ops_per_s"]["values"] == [pair[i] for pair in OPS]
        assert out[s]["setup_s"]["values"] == [pair[i] for pair in SETUP]
    change_ops = out["change"]["ops_per_s"]
    assert (change_ops["q1"], change_ops["median"], change_ops["q3"]) == (9.75, 10.5, 11.25)
    assert capsys.readouterr().out.count("spd pair") == 4
