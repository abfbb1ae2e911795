"""Run configuration: one JSON file drives benches, datasets and replays.

A config file is a ``RunConfig`` record: the agent's settings, declared
once in ``AgentSettings`` and shared with every episode header, plus the
suite (``master_seed``, ``jobs``, ``arms``, ``scenarios``). One rule holds
in every block: omitted fields take their defaults, while unknown
keys and values of the wrong JSON type are rejected (an int may stand in
for a float; nothing else converts). Errors are ``ConfigError``s naming
the dotted field, e.g. ``'rig.views[0].fov'``. The master seed plus
(scenario index, episode index) deterministically derive every episode
seed, and the same episode seed is shared across ablation arms so arm
comparisons are paired.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from .episodes import ARMS, AgentRuntime, AgentSettings
from .records import FieldError, Record, check
from .scenarios import WORLD_LIMITS, ScenarioSpec


class ConfigError(ValueError):
    """Bad or inconsistent run configuration."""


@dataclass(frozen=True)
class ScenarioRun(Record):
    """One ``scenarios`` entry: a spec and how many episodes of it to run,
    written as one object holding the spec's fields and ``episodes``."""

    spec: ScenarioSpec
    episodes: int

    def __post_init__(self):
        if self.episodes < 1:
            raise FieldError("episodes", "must be >= 1")

    def to_dict(self) -> dict:
        return {**self.spec.to_dict(), "episodes": self.episodes}

    @classmethod
    def from_dict(cls, d, path: str = ""):
        try:
            spec = dict(check(dict, d))
            episodes = check(int, spec.pop("episodes", 1), "episodes")
            return cls(ScenarioSpec.from_dict(spec), episodes)
        except FieldError as e:
            raise e.within(path) from None


@dataclass
class RunConfig(AgentSettings):
    """A run config file: the agent's settings, shared by every arm, plus
    the suite to run them on."""

    master_seed: int = 0
    jobs: int = 1
    arms: list[str] = field(default_factory=lambda: list(ARMS))
    scenarios: list[ScenarioRun] = field(
        default_factory=lambda: [
            ScenarioRun(ScenarioSpec("stt"), 20),
            ScenarioRun(ScenarioSpec("dt"), 20),
        ]
    )

    def __post_init__(self):
        try:
            self.limits.check_within(WORLD_LIMITS, "the scenario worlds'")
        except FieldError as e:
            raise e.within("limits") from None
        if self.jobs < 1:
            raise FieldError("jobs", "must be >= 1")
        if not self.arms:
            raise FieldError("arms", "needs at least one arm")
        for i, arm in enumerate(self.arms):
            if arm not in ARMS:
                raise FieldError(f"arms[{i}]", f"unknown arm {arm!r}, expected {ARMS}")
        if not self.scenarios:
            raise FieldError("scenarios", "needs at least one entry")
        # logs are named after the scenario, so a repeated name overwrites
        names = [s.spec.name for s in self.scenarios]
        for i, name in enumerate(names):
            if name in names[:i]:
                raise FieldError(f"scenarios[{i}].name", f"{name!r} repeats "
                                 f"scenarios[{names.index(name)}]; names must be unique")

    def runtime_for_arm(self, arm: str, log_topk: int = 0) -> AgentRuntime:
        return AgentRuntime(**AgentSettings.values_of(self), arm=arm, log_topk=log_topk)


def load_config(path) -> RunConfig:
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file not found: {p}")
    try:
        d = json.loads(p.read_text(encoding="utf-8"))
    except json.JSONDecodeError as e:
        raise ConfigError(f"config file {p} is not valid JSON: {e}") from e
    if not isinstance(d, dict):
        raise ConfigError(f"config file {p} must hold a JSON object")
    return config_from_dict(d)


def config_from_dict(d: dict) -> RunConfig:
    try:
        return RunConfig.from_dict(d)
    except FieldError as e:
        raise ConfigError(f"config field {e}") from e


def save_config(cfg: RunConfig, path) -> None:
    Path(path).write_text(json.dumps(cfg.to_dict(), indent=2) + "\n", encoding="utf-8")
