"""Campaign benchmark for homcrb.

    python3 perfbench/run.py --workload landmark|spd|network|check \
        --seed N --seconds S --trace 0|1

Runs whole rounds of one workload (workloads.py) in this one process
until S seconds have passed, checks the outputs, and prints one JSON
object as its last line: {"correct", "attempted", "failed", "metrics"}.
With --trace 0 the metrics are the end-to-end ones (ops_per_s, setup_s,
peak_rss_mb). With --trace 1 the run wraps the package's public
functions (tracing.py) and reports per-layer calls, self times and
counts per round instead. Times are normalised for machine speed
(reference.py).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

SETUP_REPEATS = 5
FIRST_BRACKET_S = 0.02


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("landmark", "spd", "network", "check"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds positive")
    return args


def measure_setup(kind: str, doc: dict) -> float:
    """Median normalised set-up time over fresh interpreters; each one
    times itself and then runs the reference on the same core."""
    from reference import UNIT_NOMINAL_S

    payload = json.dumps({"src": str(SRC), "kind": kind, "config": doc})
    samples = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_child.py")],
            input=payload, capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed:\n{proc.stderr}")
        out = json.loads(proc.stdout.strip().splitlines()[-1])
        samples.append(out["setup_s"] * UNIT_NOMINAL_S / out["unit_s"])
    return statistics.median(samples)


def one_call(kind: str, harness, config):
    """The timed call: a property-suite report, or a campaign's CSV text."""
    if kind == "check":
        return harness.run_property_suite(config)
    return getattr(harness, f"run_{kind}_experiment")(config).to_csv_text()


def run_rounds(kind, harness, configs, docs, seconds):
    """Whole rounds until `seconds` have passed. Round 0 is checked in
    full; every later round must reproduce it exactly."""
    import workloads as W
    from reference import normalise, unit_seconds

    first = []  # (digest, operations, failed) per call of round 0
    outputs = []
    problems = []
    bracket = [FIRST_BRACKET_S] * len(configs)
    rounds = 0
    raw = normalised = 0.0
    peak_rss_mb = None
    deadline = time.perf_counter() + seconds
    while rounds == 0 or time.perf_counter() < deadline:
        for k, config in enumerate(configs):
            before = unit_seconds(bracket[k])
            start = time.perf_counter()
            output = one_call(kind, harness, config)
            elapsed = time.perf_counter() - start
            after = unit_seconds(bracket[k])
            bracket[k] = 0.5 * elapsed
            norm = normalise(elapsed, before, after)
            raw += elapsed
            normalised += norm
            digest = hashlib.sha256(
                (repr(output.results) if kind == "check" else output).encode()
            ).hexdigest()
            if rounds == 0:
                if kind == "check":
                    ops, failed = output.total_checks, len(output.failures)
                    problems += W.check_suites(docs[k], output)
                    outputs.append("\n".join(output.lines()) + "\n")
                else:
                    trials, _ = W.parse_csv(output)
                    ops = len(trials)
                    cap = config.scoring_options().max_iterations
                    failed = W.campaign_failures(trials, cap)
                    problems += W.check_campaign(kind, docs[k], output)
                    outputs.append(output)
                first.append((digest, ops, failed))
            elif digest != first[k][0]:
                problems.append(f"round {rounds} call {k}: output differs from round 0")
        if rounds == 0:
            if kind == "landmark":
                problems += W.check_efficiency(outputs, docs[0]["m_values"][-1])
            # The package caches every group descriptor it ever builds, so
            # memory grows with the rounds run; measure at fixed work.
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        rounds += 1
    attempted = rounds * sum(f[1] for f in first)
    return {
        "rounds": rounds,
        "attempted": attempted,
        "failed": rounds * sum(f[2] for f in first),
        "ops_per_s": attempted / normalised,
        "peak_rss_mb": peak_rss_mb,
        "speed_factor": normalised / raw,
        "problems": problems,
        "outputs": outputs,
    }


def trace_metrics(setup: dict, loop: dict, result: dict, import_s: float) -> dict:
    """Per-round figures of the traced loop, with self times scaled to
    normalised seconds; import and config validation from set-up."""
    from tracing import metric_names

    per_round = 1.0 / result["rounds"]
    metrics = {}
    for name, unit in metric_names():
        if name == "harness.load_config.self_s":
            value = setup.get(name, 0.0) * result["speed_factor"] / setup[
                "harness.load_config.calls"]
        else:
            value = loop.get(name, 0) * per_round
            if unit == "s":
                value *= result["speed_factor"]
        metrics[name] = {"value": value, "unit": unit}
    metrics["harness.import_s"] = {"value": import_s, "unit": "s"}
    metrics["harness.traced_ops_per_s"] = {"value": result["ops_per_s"], "unit": "1/s"}
    return metrics


def write_outputs(args, result, metrics) -> Path:
    """Round-0 outputs (CSVs or suite reports) and the metrics, kept for
    diagnosing a failed check without a rerun."""
    out_dir = HERE / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out_dir.mkdir(parents=True, exist_ok=True)
    suffix = "txt" if args.workload == "check" else "csv"
    for k, text in enumerate(result["outputs"]):
        (out_dir / f"call{k:02d}.{suffix}").write_text(text, newline="")
    (out_dir / "metrics.json").write_text(json.dumps(metrics, indent=1) + "\n")
    return out_dir


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "homcrb" / "__init__.py").is_file():
        print(f"homcrb sources not found under {SRC}", file=sys.stderr)
        return 2
    # One BLAS thread, set before numpy loads: all load comes from this
    # process and its set-up children.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))

    start = time.perf_counter()
    import homcrb.harness as harness
    import_raw = time.perf_counter() - start

    import workloads as W
    from reference import normalise, unit_seconds
    from tracing import Tracer

    docs = W.round_configs(args.workload, args.seed)
    if args.trace:
        import_s = normalise(import_raw, unit_seconds(0.02), unit_seconds(0.02))
        tracer = Tracer()
        tracer.install()
    else:
        setup_s = measure_setup(args.workload, docs[0])
        tracer = None
    configs = [harness.load_config(doc) for doc in docs]
    setup = tracer.take() if tracer else None
    result = run_rounds(args.workload, harness, configs, docs, args.seconds)

    if tracer:
        metrics = trace_metrics(setup, tracer.take(), result, import_s)
        tracer.uninstall()
    else:
        metrics = {
            "ops_per_s": {"value": result["ops_per_s"], "unit": "1/s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
        }
    out_dir = write_outputs(args, result, metrics)
    for problem in result["problems"]:
        print(f"CHECK FAILED: {problem}")
    print(f"{args.workload}: {result['rounds']} rounds, {result['attempted']} "
          f"operations, {result['failed']} failed, machine speed factor "
          f"{result['speed_factor']:.3f}; outputs in {out_dir}")
    print(json.dumps({
        "correct": not result["problems"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
