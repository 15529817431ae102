#!/usr/bin/env python3
"""Compare perfbench's end-to-end metrics between two commits.

    python3 tools/bench_compare.py --parent REV --change REV --label 24 \
        --workdir DIR [--pairs 10] [--seeds 1 2 3 4 5] [--seconds 20] \
        [--workloads landmark spd network check] [--traced-seconds 8] \
        [--claim TEXT]

Exports each commit with `git archive` into the parent/ and change/
folders of a fresh DIR/run-* folder, which it removes when it ends, so
a rerun into the same DIR needs no cleanup and nothing else in DIR is
touched. Then per workload it runs
`perfbench/run.py --trace 0` on both sides once per pair: pair k uses
seed seeds[k % len(seeds)], and the parent runs first in even pairs, the
change in odd ones. Runs are sequential, one process at a time. After
each pair the two sides' round-0 outputs (every file but metrics.json)
are compared byte for byte. With --traced-seconds each side also runs
`--seed 1 --trace 1` once per workload. SIGTERM ends the running
perfbench child with the tool.

--pairs must be at least 2 (a side's quartiles need two runs), --seconds
positive and --traced-seconds 0 or positive; other values are refused
before anything is exported.

Writes BENCH_<label>.json in the current directory: per workload and
side the runs, failed and attempted operations, whether every run was
correct, and per end-to-end metric the median, quartiles (inclusive
method) and values in pair order; per metric the change's pair wins,
counted in the direction BENCHMARK.json gives (ties count for neither);
and how many pairs had identical round-0 outputs. To measure work that
is not committed, pass `--change $(git stash create)`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from importlib import metadata
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
WORKLOADS = ("landmark", "spd", "network", "check")
SIDES = ("parent", "change")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", required=True, help="the base commit")
    p.add_argument("--change", required=True, help="the commit measured against it")
    p.add_argument("--label", required=True, help="names BENCH_<label>.json")
    p.add_argument("--workdir", required=True, type=Path,
                   help="where the two commits are exported")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3, 4, 5])
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--workloads", nargs="+", choices=WORKLOADS, default=list(WORKLOADS))
    p.add_argument("--traced-seconds", type=float, default=0.0,
                   help="length of one --trace 1 run per side and workload; 0 skips them")
    p.add_argument("--claim", default="none", help="the gain claimed, recorded as given")
    args = p.parse_args(argv)
    if args.pairs < 2:
        p.error(f"--pairs must be at least 2, got {args.pairs}")
    if not args.seconds > 0:
        p.error(f"--seconds must be positive, got {args.seconds:g}")
    if not args.traced_seconds >= 0:
        p.error(f"--traced-seconds must be 0 or positive, got {args.traced_seconds:g}")
    return args


def git(*args) -> str:
    return subprocess.run(
        ["git", *args], cwd=REPO, check=True, capture_output=True, text=True
    ).stdout.strip()


def export(commit: str, where: Path) -> None:
    """The commit's files at `where`, through git archive."""
    where.mkdir(parents=True)
    archive = subprocess.run(
        ["git", "archive", "--format=tar", commit], cwd=REPO, check=True, capture_output=True
    ).stdout
    subprocess.run(["tar", "-x", "-C", str(where)], input=archive, check=True)


def run(side: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One perfbench run: its final JSON line."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=side, capture_output=True, text=True, timeout=600 + 10 * seconds,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{side.name} {workload} seed {seed} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def round0_identical(sides: dict, workload: str, seed: int) -> bool:
    """Whether both sides wrote the same round-0 outputs for this run."""
    name = f"{workload}-seed{seed}-trace0"
    dirs = [sides[s] / "perfbench" / "out" / name for s in SIDES]
    files = [sorted(p.name for p in d.iterdir() if p.name != "metrics.json") for d in dirs]
    return files[0] == files[1] and all(
        (dirs[0] / f).read_bytes() == (dirs[1] / f).read_bytes() for f in files[0]
    )


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": round(median, 4), "q1": round(q1, 4), "q3": round(q3, 4),
            "values": [round(v, 4) for v in values]}


def compare(sides: dict, workload: str, args, better: dict) -> dict:
    runs = {s: [] for s in SIDES}
    identical = 0
    for k in range(args.pairs):
        seed = args.seeds[k % len(args.seeds)]
        for s in SIDES if k % 2 == 0 else SIDES[::-1]:
            runs[s].append(run(sides[s], workload, seed, args.seconds, 0))
        identical += round0_identical(sides, workload, seed)
        values = {s: runs[s][-1]["metrics"]["ops_per_s"]["value"] for s in SIDES}
        print(f"{workload} pair {k} seed {seed}: ops_per_s parent {values['parent']:.4g}"
              f" change {values['change']:.4g}", flush=True)
    out = {}
    for s in SIDES:
        out[s] = {
            "runs": len(runs[s]),
            "failed": sum(r["failed"] for r in runs[s]),
            "attempted": sum(r["attempted"] for r in runs[s]),
            "all_correct": all(r["correct"] for r in runs[s]),
            **{m: summary([r["metrics"][m]["value"] for r in runs[s]]) for m in better},
        }
    wins = {}
    for m, direction in better.items():
        sign = 1 if direction == "higher" else -1
        pairs = zip(runs["parent"], runs["change"])
        won = sum(
            sign * (c["metrics"][m]["value"] - p["metrics"][m]["value"]) > 0 for p, c in pairs
        )
        wins[m] = f"{won} of {args.pairs}"
    out["change_wins"] = wins
    out["round0_identical"] = f"{identical} of {args.pairs} pairs"
    return out


def traced(sides: dict, workload: str, seconds: float) -> dict:
    out = {}
    for s in SIDES:
        r = run(sides[s], workload, 1, seconds, 1)
        m = r["metrics"]
        out[s] = [r["correct"], r["failed"], round(m["harness.import_s"]["value"], 4),
                  round(m["harness.traced_ops_per_s"]["value"], 1)]
    return out


def _terminate(signum, frame):
    """SIGTERM as SystemExit: subprocess.run then kills its running child."""
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    args = parse_args(argv)
    commits = {"parent": git("rev-parse", args.parent), "change": git("rev-parse", args.change)}
    args.workdir.mkdir(parents=True, exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix="run-", dir=args.workdir)).resolve()
    previous = signal.signal(signal.SIGTERM, _terminate)
    try:
        return measure(args, commits, {s: run_dir / s for s in SIDES})
    finally:
        signal.signal(signal.SIGTERM, previous)
        shutil.rmtree(run_dir)


def measure(args, commits: dict, sides: dict) -> int:
    for s in SIDES:
        export(commits[s], sides[s])
    benchmark = json.loads((sides["parent"] / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in benchmark["end_to_end"]}
    report = {
        "label": args.label,
        "what": "perfbench end-to-end metrics, parent against change, alternating sides per pair",
        "command": (f"python3 perfbench/run.py --workload <w> --seed <s> "
                    f"--seconds {args.seconds:g} --trace 0"),
        "parent_commit": commits["parent"],
        "change_commit": commits["change"],
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "seeds": args.seeds,
        "pairs_per_workload": {w: args.pairs for w in args.workloads},
        "protocol": (f"one export of each side; per workload {args.pairs} pairs cycling "
                     f"through seeds {args.seeds}, the parent running first in even pairs "
                     "and the change first in odd ones; every run sequential"),
        "claim": args.claim,
        "workloads": {w: compare(sides, w, args, better) for w in args.workloads},
        "round0_outputs": ("perfbench/out/<w>-seed<s>-trace0 of each pair, every file but "
                           "metrics.json compared byte for byte between the sides: "
                           "workloads.<w>.round0_identical"),
    }
    if args.traced_seconds > 0:
        report["traced_seed1"] = {
            "note": (f"perfbench/run.py --seed 1 --seconds {args.traced_seconds:g} --trace 1, "
                     "one run per side: correct, failed, harness.import_s and "
                     "harness.traced_ops_per_s"),
            **{w: traced(sides, w, args.traced_seconds) for w in args.workloads},
        }
    path = Path(f"BENCH_{args.label}.json")
    path.write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
