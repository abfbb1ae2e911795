"""Run configuration: one JSON file drives benches, datasets and replays.

Every block is optional and falls back to the package defaults; unknown
keys are rejected and parse errors name the offending field. The master seed plus (scenario index,
episode index) deterministically derive every episode seed, and the same
episode seed is shared across ablation arms so arm comparisons are
paired.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from .episodes import VisibilityRules
from .metrics import MetricRules
from .perception import CameraRig, PerceptionParams
from .polar import PolarGrid
from .policy import HOLD, INVALID_MODES
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
    arms: list = field(default_factory=lambda: ["full", "no_tim", "no_cot"])
    scenarios: list = field(
        default_factory=lambda: [
            ScenarioRun(ScenarioSpec("stt"), 20),
            ScenarioRun(ScenarioSpec("dt"), 20),
        ]
    )

    def runtime_for_arm(self, arm: str) -> AgentRuntime:
        return AgentRuntime.for_arm(
            arm,
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
            "limits": {"max_speed": self.limits.max_speed, "max_turn": self.limits.max_turn},
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
POLICY_KEYS = ("standoff", "invalid_mode")
LIMITS_KEYS = ("max_speed", "max_turn")
# "resolved" is accepted and ignored
SCENARIO_KEYS = (
    "name", "n_distractors", "sigma_app", "feature_dim", "max_steps", "episodes", "resolved",
)


def _reject_unknown(d: dict, allowed: tuple, prefix: str = "") -> None:
    for key in d:
        if key not in allowed:
            raise ConfigError(
                f"config field '{prefix}{key}': unknown key, expected one of {list(allowed)}"
            )


def _section(d: dict, name: str, parser, default):
    if name not in d:
        return default
    try:
        return parser(d[name])
    except ConfigError:
        raise
    except (KeyError, TypeError, ValueError) as e:
        raise ConfigError(f"config field '{name}': {e}") from e


def _parse_limits(x) -> MotionLimits:
    _reject_unknown(x, LIMITS_KEYS, "limits.")
    return MotionLimits(float(x["max_speed"]), float(x["max_turn"]))


def _parse_bool(x) -> bool:
    if not isinstance(x, bool):
        raise TypeError(f"expected true or false, got {x!r}")
    return x


def _parse_scenarios(raw) -> list:
    runs = []
    for i, s in enumerate(raw):
        try:
            s = dict(s)
            _reject_unknown(s, SCENARIO_KEYS, f"scenarios[{i}].")
            episodes = int(s.pop("episodes", 1))
            sigma = s.get("sigma_app")
            spec = ScenarioSpec(
                name=s["name"],
                n_distractors=s.get("n_distractors"),
                sigma_app=None if sigma is None else float(sigma),
                feature_dim=int(s.get("feature_dim", 16)),
                max_steps=int(s.get("max_steps", 500)),
            )
            runs.append(ScenarioRun(spec=spec, episodes=episodes))
        except ConfigError:
            raise
        except (KeyError, TypeError, ValueError) as e:
            raise ConfigError(f"config field 'scenarios[{i}]': {e}") from e
    if not runs:
        raise ConfigError("config field 'scenarios': needs at least one entry")
    return runs


def _parse_arms(raw) -> list:
    arms = list(raw)
    for a in arms:
        if a not in ARMS:
            raise ConfigError(f"config field 'arms': unknown arm {a!r}, expected {ARMS}")
    if not arms:
        raise ConfigError("config field 'arms': needs at least one arm")
    return arms


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
    _reject_unknown(d, TOP_KEYS)
    cfg = RunConfig()
    cfg.grid = _section(d, "grid", PolarGrid.from_dict, cfg.grid)
    cfg.rig = _section(d, "rig", CameraRig.from_dict, cfg.rig)
    cfg.perception = _section(d, "perception", PerceptionParams.from_dict, cfg.perception)
    cfg.rules = _section(d, "rules", MetricRules.from_dict, cfg.rules)
    cfg.limits = _section(d, "limits", _parse_limits, cfg.limits)
    cfg.vis_rules = _section(d, "vis_rules", VisibilityRules.from_dict, cfg.vis_rules)
    policy = _section(d, "policy", dict, {})
    _reject_unknown(policy, POLICY_KEYS, "policy.")
    cfg.standoff = float(policy.get("standoff", cfg.standoff))
    cfg.invalid_mode = policy.get("invalid_mode", cfg.invalid_mode)
    if cfg.invalid_mode not in INVALID_MODES:
        raise ConfigError(
            f"config field 'policy.invalid_mode': {cfg.invalid_mode!r} not in {INVALID_MODES}"
        )
    cfg.count_invalid_in_mean = _section(
        d, "count_invalid_in_mean", _parse_bool, cfg.count_invalid_in_mean
    )
    cfg.master_seed = _section(d, "master_seed", int, cfg.master_seed)
    cfg.jobs = _section(d, "jobs", int, cfg.jobs)
    if cfg.jobs < 1:
        raise ConfigError("config field 'jobs': must be >= 1")
    if "arms" in d:
        cfg.arms = _parse_arms(d["arms"])
    if "scenarios" in d:
        cfg.scenarios = _parse_scenarios(d["scenarios"])
    return cfg


def save_config(cfg: RunConfig, path) -> None:
    Path(path).write_text(json.dumps(cfg.to_dict(), indent=2) + "\n", encoding="utf-8")
