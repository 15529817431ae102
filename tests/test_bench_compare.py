"""tools/bench_compare.py without git or perfbench: its argument
refusals, compare() over stubbed perfbench runs, reruns into one
workdir, and SIGTERM against one sleeping fake perfbench child."""

import argparse
import contextlib
import importlib.util
import json
import os
import signal
import subprocess
import sys
import time
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


def test_reruns_into_one_workdir_touch_nothing_else(bench, tmp_path, monkeypatch):
    workdir = tmp_path / "work"
    keep = workdir / "parent" / "keep.txt"  # not the tool's: it stays
    keep.parent.mkdir(parents=True)
    keep.write_text("mine")
    exported = []

    def export(commit, where):
        where.mkdir(parents=True)
        metric = {"name": "ops_per_s", "better": "higher"}
        (where / "BENCHMARK.json").write_text(json.dumps({"end_to_end": [metric]}))
        # src/homcrb: 3 + 2 lines on the parent side, 3 + 1 on the change
        # side; src_lines counts no file outside it or deeper in it.
        (where / "src" / "homcrb" / "models" / "deeper").mkdir(parents=True)
        (where / "src" / "homcrb" / "a.py").write_text("x = 1\n\ny = 2\n")
        (where / "src" / "homcrb" / "models" / "b.py").write_text(
            "z = 3\nw = 4\n" if where.name == "parent" else "z = 3\n")
        (where / "src" / "homcrb" / "notes.txt").write_text("\n" * 7)
        (where / "src" / "homcrb" / "models" / "deeper" / "c.py").write_text("\n" * 5)
        (where / "src" / "setup.py").write_text("\n" * 11)
        exported.append(where)

    def run(side, workload, seed, seconds, trace):
        return {"failed": 0, "attempted": 1, "correct": True,
                "metrics": {"ops_per_s": {"value": 1.0}}}

    monkeypatch.setattr(bench, "git", lambda *a: "rev")
    monkeypatch.setattr(bench, "export", export)
    monkeypatch.setattr(bench, "run", run)
    monkeypatch.setattr(bench, "round0_identical", lambda *a: True)
    monkeypatch.chdir(tmp_path)
    handler = signal.getsignal(signal.SIGTERM)
    argv = REQUIRED[:-1] + [str(workdir), "--pairs", "2", "--workloads", "spd"]
    for _ in range(2):
        assert bench.main(argv) == 0
    # A fresh folder per run, both sides in it, removed at the end.
    runs = [where.parent for where in exported]
    assert runs[0] == runs[1] and runs[2] == runs[3] and runs[0] != runs[2]
    assert all(run.parent == workdir.resolve() for run in runs)
    assert [p.name for p in workdir.iterdir()] == ["parent"]
    assert keep.read_text() == "mine"
    report = json.loads((tmp_path / "BENCH_x.json").read_text())
    assert report["workloads"]["spd"]
    assert report["src_lines"] == {"parent": 5, "change": 4}
    assert signal.getsignal(signal.SIGTERM) is handler


# The tool with git stubbed and an export that writes a perfbench/run.py
# which records its pid and sleeps.
DRIVER = """
import importlib.util, sys

spec = importlib.util.spec_from_file_location("bench_compare", sys.argv[1])
bench = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench)

SLEEPER = (
    "import os, time\\n"
    "from pathlib import Path\\n"
    "Path(__file__).with_name('pid').write_text(str(os.getpid()))\\n"
    "time.sleep(60)\\n"
)


def export(commit, where):
    (where / "perfbench").mkdir(parents=True)
    (where / "BENCHMARK.json").write_text('{"end_to_end": []}')
    (where / "perfbench" / "run.py").write_text(SLEEPER)


bench.git = lambda *args: "rev"
bench.export = export
sys.exit(bench.main(sys.argv[2:]))
"""


def test_sigterm_ends_the_running_perfbench_child(tmp_path):
    workdir = tmp_path / "work"
    argv = REQUIRED[:-1] + [str(workdir), "--workloads", "spd"]
    tool = subprocess.Popen([sys.executable, "-c", DRIVER, str(TOOL), *argv], cwd=tmp_path)
    child = None
    try:
        deadline = time.monotonic() + 60
        while child is None:
            assert tool.poll() is None and time.monotonic() < deadline
            written = [p.read_text() for p in workdir.glob("run-*/*/perfbench/pid")]
            child = int(written[0]) if written and written[0] else None
            time.sleep(0.02)
        tool.send_signal(signal.SIGTERM)
        assert tool.wait(timeout=60) == 128 + signal.SIGTERM
        # The tool killed and reaped its child before it exited.
        with pytest.raises(ProcessLookupError):
            os.kill(child, 0)
        assert list(workdir.iterdir()) == []
    finally:
        if tool.poll() is None:
            tool.kill()
            tool.wait()
        if child is not None:
            with contextlib.suppress(ProcessLookupError):
                os.kill(child, signal.SIGKILL)
