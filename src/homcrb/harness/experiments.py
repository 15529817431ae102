"""Monte-Carlo experiment campaigns with deterministic CSV output.

Per-trial randomness comes from the stream (seed, m_index, trial_index),
and a trial's Monte-Carlo FIMs from entropy derived from the same key,
so results are independent of the worker count and of how trials are
stacked, and reruns are byte-identical. Worker processes receive the
campaign's context and contiguous trial chunks, and results are merged
in index order; within a chunk the trials of all its m values run as one
stack, each row with its own m.
"""

from __future__ import annotations

import csv
import io
import itertools
import os
import time
from dataclasses import dataclass, field

import numpy as np

from .. import crb, fisher, groups, scoring
from ..exceptions import (
    ConfigError,
    CutLocusError,
    DegenerateFimError,
    DegenerateModelError,
    DivergenceError,
    DomainError,
    EvaluationError,
    LiftFailureError,
)
from ..groups import AlgebraVector, GroupElement
from ..homspace import coset_error, coset_errors
from ..models import (
    LandmarkModel,
    NetworkModel,
    SpdModel,
    load_graph,
)
from ..models.network import nonzero_eigenvalues
from .config import ExperimentConfig

SCHEMA_VERSIONS = {
    "landmark": "landmark-mc-v1",
    "network": "network-mc-v1",
    "spd": "spd-mc-v1",
    "crb-report": "crb-report-v1",
}

_TRIAL_FAILURES = (
    DivergenceError,
    LiftFailureError,
    DegenerateModelError,
    CutLocusError,
    DomainError,
    EvaluationError,
)

# The trials of one m in a chunk join the chunk's stack when there are at
# least _MIN_STACK of them; fewer run one at a time through fisher_scoring
# and coset_error, the one-trial entry points. Those are stacks of one
# through the same loop and lift, and every stack kernel gives each row the
# same bits whatever the stack holds, so no row's bytes depend on the choice.
# perfbench's per-layer trace wraps the two one-trial entry points and
# pins their counts on a round of two trials per m; this rule goes when
# the benchmark traces the stack entry points instead.
_MIN_STACK = 3

_TRIAL = ["record", "m", "trial", "status"]
_COUNTS = ["n_ok", "failures"]
_ERRORS = ["coset_err_sq", "g_err_sq", "iterations", "loglik"]
_ERROR_STATS = [
    "coset_variance", "coset_stderr", "g_variance", "g_stderr",
    "crb_trace", "crb_trace_third", "ratio_coset", "ratio_g",
]
_MULTISTART = ["multistart_max_coset", "multistart_min_gdist"]
_LAMBDAS = ["fim_lambda_min", "rigidity_lambda_min_nonzero"]
_FIELDS = {
    "landmark": _TRIAL + _ERRORS + _MULTISTART + _COUNTS + _ERROR_STATS,
    "network": _TRIAL + _ERRORS + _COUNTS + _ERROR_STATS + _LAMBDAS,
    "spd": _TRIAL + ["frobenius_gap", "iterations", "loglik"]
    + _COUNTS + ["max_gap", "mean_iterations"],
    "crb-report": [
        "record", "m", "crb_trace", "crb_trace_total",
        "fim_lambda_min", "fim_lambda_max", "rigidity_lambda_min_nonzero",
    ],
}


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


@dataclass
class MonteCarloReport:
    experiment: str
    metadata: dict
    fieldnames: list[str]
    rows: list[dict]
    summaries: list[dict]
    extras: dict = field(default_factory=dict)  # non-CSV payloads for callers

    def to_csv_text(self) -> str:
        buf = io.StringIO()
        for key in sorted(self.metadata):
            buf.write(f"# {key}: {self.metadata[key]}\r\n")
        writer = csv.DictWriter(buf, fieldnames=self.fieldnames, lineterminator="\r\n")
        writer.writeheader()
        for row in self.rows + self.summaries:
            writer.writerow({k: _fmt(row.get(k)) for k in self.fieldnames})
        return buf.getvalue()

    def summary_for(self, m: int) -> dict:
        for row in self.summaries:
            if row["m"] == m:
                return row
        raise KeyError(f"no summary for m={m}")


def _base_metadata(config: ExperimentConfig) -> dict:
    return {
        "format": "homcrb-csv v1",
        "schema": SCHEMA_VERSIONS[config.experiment],
        "experiment": config.experiment,
        "config-sha256": config.config_hash(),
        "seed": config.seed,
        "n-trials": config.n_trials,
        "m-values": ",".join(str(m) for m in config.m_values),
        "workers": config.workers,
        "fim-mode": config.scoring_options().fim_mode,
    }


# ---------------------------------------------------------------------------
# Contexts (one per campaign) and per-trial work


def _landmark_context(config: ExperimentConfig):
    section = config.landmark
    try:
        model = LandmarkModel(section["landmarks"], section.get("noise", 1.0))
        if not np.all(model.noise > 0):
            raise ConfigError("landmark noise standard deviations must be positive")
        pose = section["true_pose"]
        axis = np.asarray(pose["rotation_axis"], dtype=float)
        norm = np.linalg.norm(axis)
        if not 0.0 < norm < np.inf:
            raise ConfigError("landmark.true_pose.rotation_axis must be finite and nonzero")
        axis = axis / norm
        coords = np.concatenate(
            [float(pose["rotation_angle"]) * axis, np.asarray(pose["translation"], float)]
        )
        g_true = groups.exp(AlgebraVector(groups.se3(), coords))
        inits = [
            groups.exp(AlgebraVector(groups.se3(), np.asarray(c, dtype=float)))
            for c in section.get("initializations", [[0.0] * 6])
        ]
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad landmark section: {exc}") from exc
    return model, g_true, inits, config.scoring_options()


def _network_context(config: ExperimentConfig):
    section = dict(config.network)
    if "graph" in section and section["graph"]:
        section.update(load_graph(section["graph"]))
    try:
        model = NetworkModel(
            section["positions"], section["edges"], section.get("sigmas", 0.1)
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad network section: {exc}") from exc
    model.rigidity  # raises DegenerateModelError with the rank gap on flex graphs
    g_true = model.reference_element()
    return model, g_true, [g_true], config.scoring_options()


def default_spd_covariance(n: int) -> np.ndarray:
    # Kac-Murdock-Szego matrix: positive definite for any n.
    idx = np.arange(n)
    return 0.5 ** np.abs(idx[:, None] - idx[None, :])


def _spd_context(config: ExperimentConfig):
    section = config.spd
    try:
        n = groups.as_integer(section.get("dimension", 3), "spd.dimension")
        model = SpdModel(n)
        cov = section.get("covariance")
        Sigma = default_spd_covariance(n) if cov is None else np.asarray(cov, float)
        # cholesky reads only the lower triangle.
        if not np.array_equal(Sigma, Sigma.T, equal_nan=True):
            raise ValueError("covariance is not symmetric")
        g_true = groups.GroupElement(model.descriptor, np.linalg.cholesky(Sigma))
    except (KeyError, TypeError, ValueError, np.linalg.LinAlgError) as exc:
        raise ConfigError(f"bad spd section: {exc}") from exc
    return model, g_true, [groups.identity_element(model.descriptor)], config.scoring_options()


_CONTEXTS = {
    "landmark": _landmark_context,
    "network": _network_context,
    "spd": _spd_context,
}


def _estimation_stack(ctx, kind: str, seed: int, items) -> list[dict]:
    """The (m_index, m, trial) triples as one stack: each trial samples m
    observations from its own stream (seed, m_index, trial) and is
    summarised at once, then scoring and the horizontal lift run over the
    stack, each row with its own m; a stack of one keeps its observations
    for fisher_scoring and lifts through coset_error. A trial that fails
    leaves the stack with status failed:<Class>; the others are
    unaffected."""
    model, g_true, inits, opts = ctx
    summaries = []
    for mi, m, t in items:
        observations = model.sample(g_true, m, np.random.default_rng([seed, mi, t]))
        summaries.append(model.summarize(observations))
    summary = scoring.stack_summaries(summaries)
    alone = len(items) == 1  # runs through fisher_scoring and coset_error
    failed = {}  # stack row: the trial failure that ended it
    fields = [{"status": "ok"} for _ in items]  # per stack row, its CSV fields

    def fail(rows: list, errors: dict) -> None:
        """Fail rows[k] with each error {k: exception}, which leaves only
        its status in its fields; an exception that is not a trial
        failure is raised."""
        for k, exc in errors.items():
            if not isinstance(exc, _TRIAL_FAILURES):
                raise exc
            failed[rows[k]] = exc
            fields[rows[k]] = {"status": f"failed:{type(exc).__name__}"}

    def score(g0: GroupElement, start: int) -> dict:
        """{stack row: trace} of the rows not failed that score from g0,
        with each trial's Monte-Carlo FIM entropy (seed, m_index, trial,
        start); the rows that fail join failed."""
        live = [i for i in range(len(items)) if i not in failed]
        if not live:
            return {}
        entropies = [(seed, items[i][0], items[i][2], start) for i in live]
        if alone:
            calls = [(model, observations, g0, opts, entropies[0])]
            traces, errors = _rows_of(scoring.fisher_scoring, calls)
        else:
            traces, errors = scoring.fisher_scoring_stack(
                model,
                tuple(part[live] for part in summary),
                np.broadcast_to(g0.matrix, (len(live),) + g0.matrix.shape),
                opts,
                entropies,
            )
        fail(live, errors)
        return {i: trace for i, trace in zip(live, traces) if i not in failed}

    if kind == "spd":
        x2 = summary[1]
        errors = crb.conditioning_errors(x2, DegenerateFimError, "sample second moment")
        fail(range(len(items)), errors)
        for i, trace in score(inits[0], 0).items():
            final = trace.matrices[-1]
            fields[i].update(
                frobenius_gap=float(np.linalg.norm(final @ final.T - x2[i])),
                iterations=trace.iterations_used,
                loglik=trace.logliks[-1],
            )
    elif scored := score(inits[0], 0):
        rows = list(scored)
        eta_struct, raw_errors, errors = _lift(g_true, list(scored.values()), model.struct, alone)
        fail(rows, errors)
        n_H = model.struct.n_H
        finals = {}  # per ok row, its final estimate from each starting point
        for k, (i, trace) in enumerate(scored.items()):
            if i in failed:
                continue
            eta, raw = eta_struct[k], raw_errors[k]
            fields[i].update(
                coset_err_sq=float(np.sum(eta[n_H:] ** 2)),
                g_err_sq=float(raw @ raw),
                iterations=trace.iterations_used,
                loglik=trace.logliks[-1],
                eta=tuple(float(v) for v in eta),
            )
            finals[i] = [trace.matrices[-1]]
        if len(inits) > 1:  # landmark multistart
            for start, g0 in enumerate(inits[1:], 1):
                for i, trace in score(g0, start).items():
                    finals[i].append(trace.matrices[-1])
            rows = [i for i in finals if i not in failed]
            spreads, errors = _rows_of(_multistart_spread, [(finals[i], model) for i in rows])
            fail(rows, errors)
            for i, spread in zip(rows, spreads):
                if i not in failed:
                    fields[i].update(spread)
    return [
        {"record": "trial", "m": m, "trial": t, **fields[i]} for i, (_, m, t) in enumerate(items)
    ]


def _rows_of(fn, calls) -> tuple[list, dict]:
    """A one-trial entry point fn run on each argument tuple of calls, in
    the shape of a stack kernel: (results, {position: trial failure}),
    where a failed position's result is None."""
    results, errors = [], {}
    for k, args in enumerate(calls):
        try:
            results.append(fn(*args))
        except _TRIAL_FAILURES as exc:
            results.append(None)
            errors[k] = exc
    return results, errors


def _lift(g_true, traces, struct, alone: bool) -> tuple:
    """(eta_struct, raw, errors) of the traces' final estimates against
    g_true: one coset_errors stack, or coset_error for a trial alone."""
    if not alone:
        lifted = coset_errors(g_true, np.array([t.matrices[-1] for t in traces]), struct)
        return lifted.eta_struct, lifted.raw, lifted.errors
    [lifted], errors = _rows_of(coset_error, [(g_true, traces[0].final, struct)])
    if errors:
        return [None], [None], errors
    return [lifted.eta_struct], [lifted.raw], errors


def _multistart_spread(finals, model) -> dict:
    """The largest coset distance and the smallest group distance between
    a trial's estimates from its starting points."""
    finals = [GroupElement(model.descriptor, M) for M in finals]
    max_coset, min_gdist = 0.0, np.inf
    for i in range(len(finals)):
        for j in range(i + 1, len(finals)):
            pair = coset_error(finals[i], finals[j], model.struct)
            max_coset = max(max_coset, float(np.linalg.norm(pair.eta_reduced)))
            d = groups.log(finals[j] @ finals[i].inverse())
            min_gdist = min(min_gdist, float(np.linalg.norm(d.coords)))
    return {"multistart_max_coset": max_coset, "multistart_min_gdist": min_gdist}


def _run_trials(ctx, kind: str, seed: int, pairs) -> list[dict]:
    """Rows of the (m index, m, trial) triples, in order. Every m with at
    least _MIN_STACK of the trials joins one stack; the trials of the
    other m run one at a time."""
    by_m = [list(group) for _, group in itertools.groupby(pairs, key=lambda p: p[:2])]
    stacks = [[p for group in by_m if len(group) >= _MIN_STACK for p in group]]
    stacks += [[p] for group in by_m if len(group) < _MIN_STACK for p in group]
    rows = {}
    for stack in filter(None, stacks):
        rows.update(zip(stack, _estimation_stack(ctx, kind, seed, stack)))
    return [rows[p] for p in pairs]


def ProcessPoolExecutor(max_workers: int):
    """concurrent.futures.ProcessPoolExecutor, imported on first use, so
    that a serial run does not load multiprocessing."""
    from concurrent.futures import ProcessPoolExecutor as pool

    return pool(max_workers=max_workers)


def _collect_rows(ctx, kind: str, config: ExperimentConfig) -> list[dict]:
    """Trial rows in (m index, trial) order, run on ctx: serially, or on
    at most os.cpu_count() worker processes that each receive ctx
    pickled with their chunk, so no worker rebuilds the model."""
    pairs = [
        (mi, m, t)
        for mi, m in enumerate(config.m_values)
        for t in range(config.n_trials)
    ]
    workers = min(config.workers, os.cpu_count() or 1)
    if workers == 1 or len(pairs) < 2 * workers:
        return _run_trials(ctx, kind, config.seed, pairs)
    chunks = np.array_split(np.arange(len(pairs)), workers)
    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = [
            pool.submit(_run_trials, ctx, kind, config.seed, [pairs[i] for i in idx])
            for idx in chunks
        ]
        # Submission order is index order.
        return [row for fut in futures for row in fut.result()]


def _summaries(rows, m_values, stats) -> list[dict]:
    """One summary per m counting its ok and failed trials, plus
    stats(ok_rows, m) when some trial is ok."""
    out = []
    for m in m_values:
        rows_m = [r for r in rows if r["m"] == m]
        ok = [r for r in rows_m if r["status"] == "ok"]
        summary = {
            "record": "summary",
            "m": m,
            "status": "",
            "n_ok": len(ok),
            "failures": len(rows_m) - len(ok),
        }
        if ok:
            summary.update(stats(ok, m))
        out.append(summary)
    return out


def _error_campaign(ctx, kind: str, config: ExperimentConfig):
    """Trials on ctx, and per m the coset and group error variances
    against the CRB tr(Fbar^-1) / m and the third-order bound. Returns
    the report and the trial rows with their private eta."""
    model, g_true = ctx[0], ctx[1]
    rows = _collect_rows(ctx, kind, config)
    F1 = fisher.fim(model, g_true, fisher.REDUCED)
    tr_inv = crb.variance_bound(F1)

    def stats(ok, m):
        bound = tr_inv / m
        cvals = np.array([r["coset_err_sq"] for r in ok])
        gvals = np.array([r["g_err_sq"] for r in ok])
        delta = crb.delta_matrix(np.array([r["eta"] for r in ok]), model.struct)
        Fm = fisher.FimMatrix(fisher.REDUCED, g_true, m * F1.matrix, fisher.ANALYTIC, 0)
        return dict(
            coset_variance=float(cvals.mean()),
            coset_stderr=float(cvals.std() / np.sqrt(len(cvals))),
            g_variance=float(gvals.mean()),
            g_stderr=float(gvals.std() / np.sqrt(len(gvals))),
            crb_trace=bound,
            crb_trace_third=crb.crb_third_order(Fm, delta).bound_trace,
            ratio_coset=float(cvals.mean() / bound),
            ratio_g=float(gvals.mean() / bound),
        )

    public = [{k: v for k, v in r.items() if k != "eta"} for r in rows]
    report = MonteCarloReport(
        kind, _base_metadata(config), _FIELDS[kind], public,
        _summaries(rows, config.m_values, stats),
    )
    return report, rows


def run_landmark_experiment(config: ExperimentConfig) -> MonteCarloReport:
    """Pose-estimation campaign: scoring-based MLE errors against the
    analytic CRB for each measurement count."""
    started = time.monotonic()
    report, rows = _error_campaign(_landmark_context(config), "landmark", config)
    report.metadata["noise"] = config.landmark.get("noise", 1.0)
    report.extras["etas"] = {
        m: [r["eta"] for r in rows if r["m"] == m and r["status"] == "ok"]
        for m in config.m_values
    }
    report.extras["runtime_seconds"] = time.monotonic() - started
    return report


def _rigidity_spectrum(model: NetworkModel) -> tuple[np.ndarray, float, float]:
    """Eigenvalues of the rigidity matrix, with the rounding noise around
    the rigid-motion null space (nonzero_eigenvalues) set to 0.0 so that
    no summation order shows in the output; the smallest of
    the others (0.0 if none); and the smallest eigenvalue of the reduced
    FIM, the matrix's block past the first three translations."""
    S, reduced = model.rigidity
    spectrum = np.linalg.eigvalsh(S)
    nonzero = nonzero_eigenvalues(spectrum)
    lam_min_nonzero = float(spectrum[nonzero].min()) if nonzero.any() else 0.0
    lam_min_fim = float(reduced.min())
    return np.where(nonzero, spectrum, 0.0), lam_min_nonzero, lam_min_fim


def run_network_experiment(config: ExperimentConfig) -> MonteCarloReport:
    """Localization campaign on H\\SE(2)^V; refuses non-rigid graphs and
    reports the rigidity spectrum."""
    ctx = _network_context(config)
    spectrum, lam_min_nonzero, lam_min_fim = _rigidity_spectrum(ctx[0])
    report, _ = _error_campaign(ctx, "network", config)
    for s in report.summaries:
        s.update(
            fim_lambda_min=lam_min_fim, rigidity_lambda_min_nonzero=lam_min_nonzero
        )
    report.metadata["rigidity-spectrum"] = ",".join(repr(float(v)) for v in spectrum)
    return report


def run_spd_experiment(config: ExperimentConfig) -> MonteCarloReport:
    """Covariance-estimation campaign: Fisher scoring from the identity
    against the closed-form second-moment MLE."""
    rows = _collect_rows(_spd_context(config), "spd", config)

    def stats(ok, m):
        return dict(
            max_gap=float(max(r["frobenius_gap"] for r in ok)),
            mean_iterations=float(np.mean([r["iterations"] for r in ok])),
        )

    meta = _base_metadata(config)
    meta["dimension"] = config.spd.get("dimension", 3)
    return MonteCarloReport(
        "spd", meta, _FIELDS["spd"], rows, _summaries(rows, config.m_values, stats)
    )


def run_crb_report(config: ExperimentConfig) -> MonteCarloReport:
    """Analytic CRB traces and FIM spectra for the configured model."""
    ctx = _CONTEXTS[config.model](config)
    model, g_true = ctx[0], ctx[1]
    F1 = fisher.fim(model, g_true, fisher.REDUCED)
    eigs = np.linalg.eigvalsh(F1.matrix)
    tr_inv = crb.variance_bound(F1)
    rows = []
    lam_rig = _rigidity_spectrum(model)[1] if config.model == "network" else None
    for m in config.m_values:
        rows.append(
            {
                "record": "crb",
                "m": m,
                "crb_trace": tr_inv / m,
                "crb_trace_total": tr_inv,
                "fim_lambda_min": float(eigs.min()),
                "fim_lambda_max": float(eigs.max()),
                "rigidity_lambda_min_nonzero": lam_rig,
            }
        )
    meta = _base_metadata(config)
    meta["model"] = config.model
    return MonteCarloReport("crb-report", meta, _FIELDS["crb-report"], rows, [])
