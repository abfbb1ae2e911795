"""Run configuration: one JSON file drives benches, datasets and replays.

Each block is read as the record it sets (``grid`` as a ``PolarGrid``,
``scenarios[i]`` as a ``ScenarioSpec`` plus ``episodes``, ...), and one
rule holds everywhere: omitted fields take their defaults, while unknown
keys and values of the wrong JSON type are rejected (an int may stand in
for a float; nothing else converts). Errors are ``ConfigError``s naming
the dotted field, e.g. ``'rig.views[0].fov'``. The master seed plus
(scenario index, episode index) deterministically derive every episode
seed, and the same episode seed is shared across ablation arms so arm
comparisons are paired.
"""

from __future__ import annotations

import json
import typing
from dataclasses import dataclass, field
from pathlib import Path

from .episodes import VisibilityRules
from .metrics import MetricRules
from .perception import CameraRig, PerceptionParams
from .polar import PolarGrid
from .policy import HOLD, INVALID_MODES
from .records import FieldError, check, check_keys
from .runner import ARMS, AgentRuntime
from .scenarios import ScenarioSpec
from .world import MotionLimits


class ConfigError(ValueError):
    """Bad or inconsistent run configuration."""


@dataclass(frozen=True)
class ScenarioRun:
    spec: ScenarioSpec
    episodes: int

    def __post_init__(self):
        if self.episodes < 1:
            raise ValueError("episodes must be >= 1")


@dataclass
class RunConfig:
    grid: PolarGrid = PolarGrid()
    rig: CameraRig = CameraRig.ring(4)
    perception: PerceptionParams = PerceptionParams()
    rules: MetricRules = MetricRules()
    limits: MotionLimits = MotionLimits()
    vis_rules: VisibilityRules = VisibilityRules()
    standoff: float = 2.0
    invalid_mode: str = HOLD
    count_invalid_in_mean: bool = True
    master_seed: int = 0
    jobs: int = 1
    arms: list[str] = field(default_factory=lambda: ["full", "no_tim", "no_cot"])
    scenarios: list[ScenarioRun] = field(
        default_factory=lambda: [
            ScenarioRun(ScenarioSpec("stt"), 20),
            ScenarioRun(ScenarioSpec("dt"), 20),
        ]
    )

    def runtime_for_arm(self, arm: str) -> AgentRuntime:
        return AgentRuntime(
            arm=arm,
            grid=self.grid,
            rig=self.rig,
            params=self.perception,
            rules=self.rules,
            limits=self.limits,
            standoff=self.standoff,
            invalid_mode=self.invalid_mode,
            count_invalid_in_mean=self.count_invalid_in_mean,
            vis_rules=self.vis_rules,
        )

    def to_dict(self) -> dict:
        return {
            "master_seed": self.master_seed,
            "jobs": self.jobs,
            "grid": self.grid.to_dict(),
            "rig": self.rig.to_dict(),
            "perception": self.perception.to_dict(),
            "rules": self.rules.to_dict(),
            "limits": self.limits.to_dict(),
            "vis_rules": self.vis_rules.to_dict(),
            "policy": {"standoff": self.standoff, "invalid_mode": self.invalid_mode},
            "count_invalid_in_mean": self.count_invalid_in_mean,
            "arms": list(self.arms),
            "scenarios": [
                {**s.spec.to_dict(), "episodes": s.episodes} for s in self.scenarios
            ],
        }


TOP_KEYS = (
    "master_seed", "jobs", "grid", "rig", "perception", "rules", "limits",
    "vis_rules", "policy", "count_invalid_in_mean", "arms", "scenarios",
)


def _scenario_run(raw, path: str) -> ScenarioRun:
    s = dict(check(dict, raw, path))
    episodes = check(int, s.pop("episodes", 1), f"{path}.episodes")
    spec = ScenarioSpec.from_dict(s, path)
    try:
        return ScenarioRun(spec=spec, episodes=episodes)
    except ValueError as e:
        raise FieldError(f"{path}.episodes", str(e)) from e


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
        return _parse(d)
    except FieldError as e:
        raise ConfigError(f"config field {e}") from e


def _parse(d: dict) -> RunConfig:
    d = check_keys(d, TOP_KEYS)
    policy = check_keys(d.get("policy", {}), ("standoff", "invalid_mode"), "policy")
    # every other block and scalar is read as the RunConfig field it sets
    types = typing.get_type_hints(RunConfig)
    cfg = RunConfig()
    for name, value in d.items():
        if name not in ("policy", "scenarios"):
            setattr(cfg, name, check(types[name], value, name))
    for name, value in policy.items():
        setattr(cfg, name, check(types[name], value, f"policy.{name}"))
    if cfg.invalid_mode not in INVALID_MODES:
        raise FieldError("policy.invalid_mode", f"{cfg.invalid_mode!r} not in {INVALID_MODES}")
    if cfg.jobs < 1:
        raise FieldError("jobs", "must be >= 1")
    for i, arm in enumerate(cfg.arms):
        if arm not in ARMS:
            raise FieldError(f"arms[{i}]", f"unknown arm {arm!r}, expected {ARMS}")
    if not cfg.arms:
        raise FieldError("arms", "needs at least one arm")
    if "scenarios" in d:
        raw = check(list, d["scenarios"], "scenarios")
        cfg.scenarios = [_scenario_run(s, f"scenarios[{i}]") for i, s in enumerate(raw)]
        if not cfg.scenarios:
            raise FieldError("scenarios", "needs at least one entry")
    return cfg


def save_config(cfg: RunConfig, path) -> None:
    Path(path).write_text(json.dumps(cfg.to_dict(), indent=2) + "\n", encoding="utf-8")
