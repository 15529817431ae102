"""Experiment configuration: JSON documents validated into a dataclass.

Every run embeds the canonical-JSON SHA-256 of its config in the CSV
metadata, so outputs are traceable and reruns verifiable byte-for-byte.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import MISSING, dataclass, field, fields
from pathlib import Path

from ..exceptions import ConfigError
from ..groups import as_integer
from ..scoring import ScoringOptions

EXPERIMENTS = ("landmark", "network", "spd", "crb-report", "check")

DEFAULT_LANDMARK = {
    "landmarks": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.3]],
    "noise": 1.0,
    "true_pose": {
        "rotation_axis": [0.3, 1.0, 0.4],
        "rotation_angle": 1.2,
        "translation": [0.4, -0.3, 0.5],
    },
    "initializations": [[0.0] * 6],
}

DEFAULT_NETWORK = {
    "positions": [[0.0, 0.0], [0.0, 1.0], [0.9, 0.6]],
    "edges": [[0, 1], [1, 2], [0, 2]],
    "sigmas": 0.1,
}

DEFAULT_SPD = {"dimension": 3, "covariance": None}

DEFAULT_CHECK = {"suites": "all", "corrupt_inner_product": False}

# Execution details: results do not depend on them, so the config hash
# leaves them out.
_EXECUTION_KEYS = ("workers", "output")


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    seed: int = 20260810
    n_trials: int = 2000
    m_values: tuple[int, ...] = (10, 100, 1000)
    workers: int = 1
    output: str | None = None
    model: str = "landmark"  # which model crb-report targets
    scoring: dict = field(default_factory=dict)
    landmark: dict = field(default_factory=lambda: dict(DEFAULT_LANDMARK))
    network: dict = field(default_factory=lambda: dict(DEFAULT_NETWORK))
    spd: dict = field(default_factory=lambda: dict(DEFAULT_SPD))
    check: dict = field(default_factory=lambda: dict(DEFAULT_CHECK))

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise ConfigError(
                f"unknown experiment {self.experiment!r}; expected one of {EXPERIMENTS}"
            )
        if self.model not in ("landmark", "network", "spd"):
            raise ConfigError("model must be landmark, network, or spd")
        if self.n_trials < 1:
            raise ConfigError("n_trials must be >= 1")
        if not self.m_values or any(m < 1 for m in self.m_values):
            raise ConfigError("m_values must be nonempty and positive")
        if len(set(self.m_values)) != len(self.m_values):
            raise ConfigError(f"m_values must be distinct, got {list(self.m_values)}")
        if self.workers < 1:
            raise ConfigError("workers must be >= 1")
        if not (0 <= self.seed < 2**64):
            raise ConfigError("seed must fit in an unsigned 64-bit integer")

    def scoring_options(self) -> ScoringOptions:
        unknown = set(self.scoring) - {f.name for f in fields(ScoringOptions)}
        if unknown:
            raise ConfigError(f"unknown scoring options: {sorted(unknown)}")
        try:
            return ScoringOptions(**self.scoring)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad scoring options: {exc}") from exc

    def canonical_json(self) -> str:
        payload = {
            f.name: getattr(self, f.name)
            for f in fields(self)
            if f.name not in _EXECUTION_KEYS
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))

    def config_hash(self) -> str:
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()


def load_config(
    source,
    experiment: str | None = None,
    seed: int | None = None,
    workers: int | None = None,
    output: str | None = None,
) -> ExperimentConfig:
    """Build a config from a JSON file path, dict, or None (defaults),
    with optional CLI overrides."""
    if source is None:
        data = {}
    elif isinstance(source, dict):
        data = dict(source)
    else:
        path = Path(source)
        if not path.exists():
            raise ConfigError(f"config file not found: {path}")
        try:
            data = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError("config document must be a JSON object")

    if experiment is not None:
        declared = data.get("experiment")
        if declared is not None and declared != experiment:
            raise ConfigError(
                f"config declares experiment {declared!r} but {experiment!r} was requested"
            )
        data["experiment"] = experiment
    if "experiment" not in data:
        raise ConfigError("config must declare an experiment")
    if seed is not None:
        data["seed"] = seed
    if workers is not None:
        data["workers"] = workers
    if output is not None:
        data["output"] = output

    unknown = set(data) - {f.name for f in fields(ExperimentConfig)}
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")

    # Field defaults; a given section is merged over its default.
    values = {
        f.name: f.default if f.default_factory is MISSING else f.default_factory()
        for f in fields(ExperimentConfig)
        if f.name != "experiment"
    }
    try:
        for key, value in data.items():
            default = values.get(key)
            if isinstance(default, dict):
                value = {**default, **(value or {})}
            values[key] = value
        m_values = values["m_values"]
        if not isinstance(m_values, (list, tuple)):
            raise ConfigError(f"m_values must be a list of integers, got {m_values!r}")
        values.update(
            {k: as_integer(values[k], k) for k in ("seed", "n_trials", "workers")},
            m_values=tuple(as_integer(m, "m_values") for m in m_values),
        )
        config = ExperimentConfig(**values)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"malformed config: {exc}") from exc
    config.scoring_options()  # validate eagerly
    return config
