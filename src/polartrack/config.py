"""Run configuration: one JSON file drives benches, datasets and replays.

A config file is a ``RunConfig`` record: the agent's settings, declared
once in ``AgentSettings`` and shared with every episode header, plus the
suite (``master_seed`` >= 0, ``jobs``, ``arms``, ``scenarios``, each a
``ScenarioRun``: a spec plus its ``episodes``). Omitted fields take their
defaults; unknown keys, values of the wrong JSON type (an int may stand
in for a float, nothing else converts) and values out of range are
rejected with a ``ConfigError`` naming the dotted field, e.g.
``'rig.views[0].fov'``. The master seed plus (scenario index, episode
index) derive every episode seed, and the same episode seed is shared
across ablation arms so arm comparisons are paired.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Annotated, Literal

from .episodes import ARMS, AgentRuntime, AgentSettings
from .records import FieldError, Range
from .scenarios import WORLD_LIMITS, ScenarioSpec


class ConfigError(ValueError):
    """Bad or inconsistent run configuration."""


@dataclass(frozen=True)
class ScenarioRun(ScenarioSpec):
    """One ``scenarios`` entry: a spec and how many episodes of it to run.
    ``spec`` is the plain spec, which the episode headers carry."""

    episodes: Annotated[int, Range(1)] = 1

    def __post_init__(self):
        object.__setattr__(self, "spec", ScenarioSpec(**ScenarioSpec.values_of(self)))


@dataclass
class RunConfig(AgentSettings):
    """A run config file: the agent's settings, shared by every arm, plus
    the suite to run them on."""

    master_seed: Annotated[int, Range(0)] = 0
    jobs: Annotated[int, Range(1)] = 1
    arms: Annotated[list[Literal[ARMS]], Range(1)] = field(default_factory=lambda: list(ARMS))
    scenarios: Annotated[list[ScenarioRun], Range(1)] = field(
        default_factory=lambda: [
            ScenarioRun("stt", episodes=20),
            ScenarioRun("dt", episodes=20),
        ]
    )

    def __post_init__(self):
        try:
            self.limits.check_within(WORLD_LIMITS, "the scenario worlds'")
        except FieldError as e:
            raise e.within("limits") from None
        # a repeated arm would run, and report, every episode twice
        for i, arm in enumerate(self.arms):
            if arm in self.arms[:i]:
                raise FieldError(f"arms[{i}]", f"{arm!r} repeats arms[{self.arms.index(arm)}]; "
                                 "arms must be unique")
        # logs are named after the scenario, so a repeated name overwrites
        names = [s.name for s in self.scenarios]
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
