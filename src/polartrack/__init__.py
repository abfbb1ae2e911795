"""Polar-token target pursuit at desk scale.

A deterministic 2D tracking stack: agent-centric polar tokenization of
the target's position (with an explicit invalid token for occlusion and
out-of-range), an entropy-confidence-gated appearance memory that
survives occlusions and rejects look-alike distractors, a receding-
horizon pursuit planner, and a seeded benchmark harness with ablation
arms.
"""

from .gating import ConfidenceTrace, confidence, gate_weight
from .memory import TargetMemory, memory_similarity, update_memory
from .metrics import (
    EpisodeOutcome,
    MetricRules,
    SuiteReport,
    reason_loss,
    score_episode,
    total_loss,
    traj_loss,
)
from .perception import CameraRig, CameraView, PerceptionParams, ReasonerOutput, observe, view_masks
from .polar import PolarGrid, PolarPoint, decode, encode, roundtrip_cell, to_world
from .policy import NUM_WAYPOINTS, PolicySettings, execute_first, plan
from .runner import ARMS, AgentRuntime, run_episode
from .scenarios import SCENARIO_NAMES, ScenarioSpec, make_scenario
from .world import (
    Command,
    Entity,
    MotionLimits,
    Obstacle,
    Pose2D,
    StepEvents,
    World,
    relative_polar,
)

__version__ = "0.1.0"

__all__ = [
    "ARMS",
    "AgentRuntime",
    "CameraRig",
    "CameraView",
    "Command",
    "ConfidenceTrace",
    "Entity",
    "EpisodeOutcome",
    "MetricRules",
    "MotionLimits",
    "NUM_WAYPOINTS",
    "Obstacle",
    "PerceptionParams",
    "PolarGrid",
    "PolarPoint",
    "PolicySettings",
    "Pose2D",
    "ReasonerOutput",
    "SCENARIO_NAMES",
    "ScenarioSpec",
    "StepEvents",
    "SuiteReport",
    "TargetMemory",
    "World",
    "confidence",
    "decode",
    "encode",
    "execute_first",
    "gate_weight",
    "make_scenario",
    "memory_similarity",
    "observe",
    "plan",
    "reason_loss",
    "relative_polar",
    "roundtrip_cell",
    "run_episode",
    "score_episode",
    "to_world",
    "total_loss",
    "traj_loss",
    "update_memory",
    "view_masks",
]
