"""Workload inputs and output checks.

Each workload is a fixed sequence of calls (one round) into the public
harness: a Monte-Carlo campaign `run_<kind>_experiment(config)` followed
by rendering its CSV, or `run_property_suite(config)` for `check`. The
configs of a round are derived from the benchmark seed alone. Checks
compare outputs with a separate computation or with a property the
method must have, never with a stored copy of earlier output.
"""

from __future__ import annotations

import csv
import io
import math

import numpy as np

# Campaign seeds are SEED_STRIDE * seed + call index, so rounds of
# different benchmark seeds never share a trial stream.
SEED_STRIDE = 100

# Fixed network: a random geometric graph, not drawn from the benchmark
# seed, so every run localizes the same well-conditioned network and
# only the observation noise changes with the seed.
NETWORK_GRAPH = {"agents": 16, "graph_seed": 3, "side": 1.0, "radius": 0.6,
                 "sigma": 0.1}

# Property-suite sizes as the suites define them; `check` compares the
# reported counts with these.
SUITE_SIZES = {
    "psi": 4 * 100,
    "fim-frames": 20 * 4,
    "variance-invariance": 20 * (1 + 10),
    "error-block": 100 + 1,
    "sphere": 100,
    "gradients": 100 + 50 + 50 + 50,
}

WORKLOADS = {
    # kind: calls per round, trials per m in one call, m values
    "landmark": {"calls": 10, "n_trials": 10, "m_values": [100, 1000]},
    "spd": {"calls": 10, "n_trials": 10, "m_values": [10, 100, 1000]},
    "network": {"calls": 2, "n_trials": 2, "m_values": [100]},
    # check: property-suite seeds per round; one call per suite and seed
    "check": {"calls": 2},
}

REL_TOL = 1e-9
SPD_GAP_TOL = 1e-7
EFFICIENCY_SIGMAS = 6.0


def random_geometric_graph(agents, graph_seed, side, radius):
    rng = np.random.default_rng(graph_seed)
    p = rng.uniform(0.0, side, (agents, 2))
    dist = np.linalg.norm(p[:, None, :] - p[None, :, :], axis=-1)
    edges = [[i, j] for i in range(agents) for j in range(i + 1, agents)
             if dist[i, j] < radius]
    return p, edges


def canonical_positions(p):
    """Agent 0 at the origin, agent 1 on the +y axis."""
    d = p[1] - p[0]
    rot = math.pi / 2.0 - math.atan2(d[1], d[0])
    c, s = math.cos(rot), math.sin(rot)
    return (p - p[0]) @ np.array([[c, -s], [s, c]]).T


def rigidity(p, edges, sigma):
    """Symmetric rigidity matrix: sum over edges of (e_i - e_j)(e_i - e_j)'
    kron d d' / sigma^2, with d = p_i - p_j."""
    n = len(p)
    S = np.zeros((2 * n, 2 * n))
    for i, j in edges:
        row = np.zeros(2 * n)
        d = p[i] - p[j]
        row[2 * i: 2 * i + 2] = d
        row[2 * j: 2 * j + 2] = -d
        S += np.outer(row, row) / sigma**2
    return S


def network_inputs():
    g = NETWORK_GRAPH
    p, edges = random_geometric_graph(g["agents"], g["graph_seed"], g["side"],
                                      g["radius"])
    S = rigidity(canonical_positions(p), edges, g["sigma"])
    rank = np.linalg.matrix_rank(S, tol=1e-9 * np.abs(S).max())
    if rank != 2 * g["agents"] - 3:
        raise ValueError(f"benchmark graph is not rigid: rank {rank}")
    return {"positions": p.tolist(), "edges": edges, "sigmas": g["sigma"]}


def round_configs(kind: str, seed: int, overrides: dict | None = None) -> list[dict]:
    """The config documents of one round, in call order."""
    spec = WORKLOADS[kind]
    configs = []
    for k in range(spec["calls"]):
        base = {"experiment": kind, "seed": SEED_STRIDE * seed + k, "workers": 1}
        if kind == "check":
            variants = [{"check": {"suites": [name]}} for name in SUITE_SIZES]
        else:
            variants = [{"n_trials": spec["n_trials"], "m_values": spec["m_values"]}]
            if kind == "network":
                variants[0]["network"] = network_inputs()
        for variant in variants:
            configs.append({**base, **variant, **(overrides or {})})
    return configs


def build_model(models, kind: str, config):
    """The campaign's model, built through its public constructor."""
    if kind == "landmark":
        s = config.landmark
        return models.LandmarkModel(s["landmarks"], s.get("noise", 1.0))
    if kind == "spd":
        return models.SpdModel(int(config.spd.get("dimension", 3)))
    if kind == "network":
        s = config.network
        return models.NetworkModel(s["positions"], s["edges"], s.get("sigmas", 0.1))
    return None


# ---------------------------------------------------------------------------
# Output of one call: operations, failures, and the checks


def parse_csv(text: str) -> tuple[list[dict], list[dict]]:
    body = "".join(line for line in io.StringIO(text, newline="")
                   if not line.startswith("#"))
    rows = list(csv.DictReader(io.StringIO(body, newline="")))
    trials = [r for r in rows if r["record"] == "trial"]
    summaries = [r for r in rows if r["record"] == "summary"]
    return trials, summaries


def campaign_failures(trials: list[dict], max_iterations: int) -> int:
    """Trials whose status is not ok, or that used the whole iteration cap
    (the program still reports those as ok)."""
    return sum(
        1 for r in trials
        if r["status"] != "ok" or int(r["iterations"]) >= max_iterations
    )


def close(a: float, b: float, tol: float = REL_TOL) -> bool:
    return abs(a - b) <= tol * max(abs(a), abs(b))


def check_campaign(kind: str, config: dict, text: str) -> list[str]:
    """Problems found in one campaign CSV; empty when it is correct."""
    trials, summaries = parse_csv(text)
    m_values = config["m_values"]
    problems = []
    if len(trials) != config["n_trials"] * len(m_values):
        problems.append(f"{len(trials)} trial rows for "
                        f"{config['n_trials']} trials x {len(m_values)} m")
    if [int(s["m"]) for s in summaries] != m_values:
        problems.append("not one summary per m")
        return problems
    if kind == "landmark":
        scaled = [float(s["crb_trace"]) * int(s["m"]) for s in summaries]
        if not all(close(v, scaled[0]) for v in scaled):
            problems.append(f"crb_trace x m differs across m: {scaled}")
    elif kind == "network":
        net = config["network"]
        p = canonical_positions(np.asarray(net["positions"], float))
        F = rigidity(p, net["edges"], net["sigmas"])[3:, 3:]
        tr_inv = float(np.trace(np.linalg.inv(F)))
        lam_min = float(np.linalg.eigvalsh(F).min())
        for s in summaries:
            if not close(float(s["crb_trace"]), tr_inv / int(s["m"]), 1e-8):
                problems.append(f"crb_trace {s['crb_trace']} != tr(F^-1)/m "
                                f"{tr_inv / int(s['m'])!r}")
            if not close(float(s["fim_lambda_min"]), lam_min, 1e-8):
                problems.append(f"fim_lambda_min {s['fim_lambda_min']} != "
                                f"{lam_min!r}")
    elif kind == "spd":
        for s in summaries:
            if s["max_gap"] == "" or float(s["max_gap"]) > SPD_GAP_TOL:
                problems.append(f"m={s['m']}: max_gap {s['max_gap']!r} exceeds "
                                f"{SPD_GAP_TOL:g}")
    return problems


def check_efficiency(texts: list[str], m_max: int) -> list[str]:
    """At the largest m the coset variance, pooled over the trials of a
    round, lies within a few standard errors of crb_trace: the asymptotic
    efficiency that the bound predicts."""
    errs, bound = [], None
    for text in texts:
        trials, summaries = parse_csv(text)
        errs += [float(r["coset_err_sq"]) for r in trials
                 if int(r["m"]) == m_max and r["status"] == "ok"]
        bound = float(summaries[-1]["crb_trace"])
    errs = np.asarray(errs)
    stderr = errs.std() / math.sqrt(len(errs))
    if abs(errs.mean() - bound) > EFFICIENCY_SIGMAS * stderr:
        return [f"m={m_max}: pooled coset variance {errs.mean():.6g} is "
                f"{abs(errs.mean() - bound) / stderr:.1f} standard errors "
                f"from crb_trace {bound:.6g}"]
    return []


def check_suites(config: dict, report) -> list[str]:
    """Every requested suite ran, passed, and reported the number of
    checks it defines."""
    problems = [f"suite failure: {msg}" for msg in report.failures[:5]]
    wanted = config["check"]["suites"]
    wanted = list(SUITE_SIZES) if wanted == "all" else wanted
    if list(report.results) != wanted:
        problems.append(f"suites run: {list(report.results)}, asked {wanted}")
    for name, (checks, _) in report.results.items():
        if checks != SUITE_SIZES[name]:
            problems.append(f"suite {name}: {checks} checks, expected "
                            f"{SUITE_SIZES[name]}")
    return problems
