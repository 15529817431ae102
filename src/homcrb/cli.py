"""Command-line interface.

    homcrb landmark|network|spd|crb-report|check \
        --config cfg.json --out results.csv --seed 123 --workers 4

Exit codes: 0 success, 2 config error, 3 degenerate model,
4 numerical failure. Logging level comes from HOMCRB_LOG
(error|info|debug, default error).
"""

from __future__ import annotations

import logging
import os
import sys

import click

from .exceptions import (
    ConfigError,
    CutLocusError,
    DegenerateModelError,
    DivergenceError,
    DomainError,
    EvaluationError,
    LiftFailureError,
    NotInAlgebraError,
)
from .harness import (
    load_config,
    run_crb_report,
    run_landmark_experiment,
    run_network_experiment,
    run_property_suite,
    run_spd_experiment,
)

EXIT_OK, EXIT_CONFIG, EXIT_DEGENERATE, EXIT_NUMERICAL = 0, 2, 3, 4

_RUNNERS = {
    "landmark": run_landmark_experiment,
    "network": run_network_experiment,
    "spd": run_spd_experiment,
    "crb-report": run_crb_report,
}

log = logging.getLogger("homcrb")


def _setup_logging() -> None:
    level = os.environ.get("HOMCRB_LOG", "error").lower()
    levels = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}
    logging.basicConfig(
        level=levels.get(level, logging.ERROR),
        format="%(asctime)s %(name)s %(levelname)s %(message)s",
    )


def _common_options(fn):
    fn = click.option(
        "--config", "config_path", type=click.Path(), default=None,
        help="JSON experiment config (built-in defaults when omitted).",
    )(fn)
    fn = click.option("--out", "out_path", type=click.Path(), default=None,
                      help="Output CSV path (overrides config).")(fn)
    fn = click.option("--seed", type=click.IntRange(0, 2**64 - 1), default=None,
                      help="Random seed (overrides config).")(fn)
    fn = click.option("--workers", type=click.IntRange(1), default=None,
                      help="Parallel worker processes (overrides config).")(fn)
    return fn


def _run_experiment(experiment: str, config_path, out_path, seed, workers) -> int:
    try:
        config = load_config(
            config_path, experiment=experiment, seed=seed, workers=workers,
            output=out_path,
        )
        if experiment == "check":
            report = run_property_suite(config)
            for line in report.lines():
                click.echo(line)
            if config.output:
                with open(config.output, "w") as fh:
                    fh.write("\n".join(report.lines()) + "\n")
            return EXIT_OK if report.passed else EXIT_NUMERICAL
        if config.output is None:  # before the campaign, not after it
            raise ConfigError("no output path: pass --out or set 'output' in the config")
        report = _RUNNERS[experiment](config)
        report.write(config.output)
        log.info("wrote %s", config.output)
        for row in report.summaries:
            click.echo(
                ", ".join(f"{k}={v}" for k, v in row.items() if v not in (None, ""))
            )
        return EXIT_OK
    except ConfigError as exc:
        click.echo(f"config error: {exc}", err=True)
        return EXIT_CONFIG
    except DegenerateModelError as exc:
        detail = f" (rank gap {exc.rank_gap})" if exc.rank_gap else ""
        click.echo(f"degenerate model: {exc}{detail}", err=True)
        return EXIT_DEGENERATE
    except (
        CutLocusError,
        DivergenceError,
        DomainError,
        EvaluationError,
        LiftFailureError,
        NotInAlgebraError,
    ) as exc:
        click.echo(f"numerical failure: {type(exc).__name__}: {exc}", err=True)
        return EXIT_NUMERICAL


@click.group()
def main() -> None:
    """Fisher information and Cramer-Rao analysis on homogeneous spaces."""
    _setup_logging()


def _register(name: str, doc: str) -> None:
    @main.command(name=name, help=doc)
    @_common_options
    def _cmd(config_path, out_path, seed, workers, _name=name):
        sys.exit(_run_experiment(_name, config_path, out_path, seed, workers))


_register("landmark", "SE(3) landmark pose-estimation Monte-Carlo campaign.")
_register("network", "SE(2)^V sensor-network localization campaign.")
_register("spd", "GL(n)+/SO(n) covariance-estimation campaign.")
_register("crb-report", "Analytic CRB traces and FIM spectra for a model.")
_register("check", "Run the cross-module property suites.")


if __name__ == "__main__":
    main()
