"""Episode logs: JSONL schema, ground-truth annotation, dataset generation.

One episode is one JSONL file: a header line, one line per frame, and a
footer line with the scored outcome. Frames mix two viewpoints on a step:
pose fields describe the world *after* the step's motion (what metrics
consume), while decision fields (token, confidence, ground-truth
annotation, expert trajectory, memory digest) describe what the agent saw
and chose at the step's start. Writing is deterministic, so re-writing a
parsed log reproduces the file byte for byte.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import Optional

import numpy as np

from .metrics import EpisodeOutcome, MetricRules, score_episode
from .perception import CameraRig, CameraView, PerceptionParams, is_observable
from .polar import PolarGrid, PolarPoint, encode
from .records import JSON_NAMES, FieldError, Record, check
from .scenarios import ScenarioSpec, make_scenario
from .world import World

SCHEMA_VERSION = "1"

# logits kept per dataset frame: the invalid entry plus up to 7 entities
DATASET_TOPK = 8


@dataclass(frozen=True)
class VisibilityRules(Record):
    """Ground-truth annotation knobs. ``min_apparent_size`` is the
    radius/distance ratio below which the target counts as too small to
    see, standing in for a pixel-count cutoff. The default puts the
    cutoff at 4 m for the default 0.3 m entity radius, calibrated so the
    obstacle split annotates 10-30% of frames invalid."""

    min_apparent_size: float = 0.075


def annotate_frame(
    world: World, rig: CameraRig, grid: PolarGrid, vis_rules: VisibilityRules
) -> tuple[Optional[PolarPoint], int]:
    """Ground-truth polar position and token for the target right now.

    Invalid when the target is occluded, outside every camera's field of
    view, outside the annulus, or apparently too small."""
    s = world.target_sighting
    rel = s.rel
    if not is_observable(s, rig, grid):
        return None, grid.invalid_index
    if rel.dist > 0 and s.entity.radius / rel.dist < vis_rules.min_apparent_size:
        return None, grid.invalid_index
    return rel, encode(grid, rel)


def view_visibility(world: World, rig: CameraRig, grid: PolarGrid) -> list[bool]:
    """Per-view summary: does this view see the target (annulus, field of
    view, line of sight)."""
    s = world.target_sighting
    seen = s.los and grid.r_min <= s.rel.dist <= grid.r_max
    return [seen and v.covers(s.rel.theta) for v in rig.views]


@dataclass
class FrameRecord:
    step: int
    agent_x: float
    agent_y: float
    agent_heading: float
    target_x: float
    target_y: float
    target_theta: float  # post-step ground truth, deg ccw from heading
    target_dist: float
    view_visible: list[bool]  # at observation time, one flag per view
    gt_invalid: bool
    gt_theta: Optional[float]  # observation-time annotation
    gt_dist: Optional[float]
    gt_token: int
    token: int  # token the policy actually consumed
    confidence: float
    expert_traj: list  # 8 x [x, y, theta]
    mem_digest: str
    mem_slot0: Optional[list]  # first 3 coords of the memory vector
    collided: bool
    logits_topk: Optional[list] = None  # [[index, value], ...]

    def to_json_dict(self) -> dict:
        return {
            "type": "frame",
            "step": self.step,
            "agent": [self.agent_x, self.agent_y, self.agent_heading],
            "target": [self.target_x, self.target_y],
            "target_rel": [self.target_theta, self.target_dist],
            "view_visible": self.view_visible,
            "gt_invalid": self.gt_invalid,
            "gt_polar": None if self.gt_invalid else [self.gt_theta, self.gt_dist],
            "gt_token": self.gt_token,
            "token": self.token,
            "confidence": self.confidence,
            "expert_traj": self.expert_traj,
            "mem_digest": self.mem_digest,
            "mem_slot0": self.mem_slot0,
            "collided": self.collided,
            "logits_topk": self.logits_topk,
        }

    @classmethod
    def from_json_dict(cls, d: dict, vocab_size: int) -> "FrameRecord":
        """Read a frame, each field as the JSON type it is written as;
        ``logits_topk`` indices must lie in ``[0, vocab_size)``."""
        gt_polar = d["gt_polar"]
        agent = _numbers(d["agent"], "agent", 3)
        target = _numbers(d["target"], "target", 2)
        target_rel = _numbers(d["target_rel"], "target_rel", 2)
        gt = None if gt_polar is None else _numbers(gt_polar, "gt_polar", 2)
        views = _exact(d["view_visible"], list, "view_visible")
        slot0 = d["mem_slot0"]
        topk = d["logits_topk"]
        return cls(
            step=_exact(d["step"], int, "step"),
            agent_x=agent[0],
            agent_y=agent[1],
            agent_heading=agent[2],
            target_x=target[0],
            target_y=target[1],
            target_theta=target_rel[0],
            target_dist=target_rel[1],
            view_visible=[_exact(v, bool, "view_visible") for v in views],
            gt_invalid=_exact(d["gt_invalid"], bool, "gt_invalid"),
            gt_theta=None if gt is None else gt[0],
            gt_dist=None if gt is None else gt[1],
            gt_token=_exact(d["gt_token"], int, "gt_token"),
            token=_exact(d["token"], int, "token"),
            confidence=_number(d["confidence"], "confidence"),
            expert_traj=_rows(d["expert_traj"], "expert_traj", 3),
            mem_digest=_exact(d["mem_digest"], str, "mem_digest"),
            mem_slot0=None if slot0 is None else _numbers(slot0, "mem_slot0"),
            collided=_exact(d["collided"], bool, "collided"),
            logits_topk=None if topk is None else _topk_pairs(topk, vocab_size),
        )


# Frame field readers: plain type checks, since a log is read a frame at
# a time (``records.check`` resolves annotations on every call). JSON
# gives a bool for true/false and an int or a float for a number.


def _exact(v, tp: type, field: str):
    """``v`` if its JSON type is exactly ``tp`` (a bool is not an int)."""
    if type(v) is tp:
        return v
    raise FieldError(field, f"expected {JSON_NAMES[tp]}, got {v!r}")


_NUMBER = {float, int}


def _number(v, field: str) -> float:
    if type(v) in _NUMBER:
        return float(v)
    raise FieldError(field, f"expected a number, got {v!r}")


def _numbers(v, field: str, n: Optional[int] = None) -> list:
    v = _exact(v, list, field)
    if n is not None and len(v) != n:
        raise FieldError(field, f"expected {n} numbers, got {v!r}")
    if not _NUMBER.issuperset(map(type, v)):
        raise FieldError(field, f"expected numbers, got {v!r}")
    return list(map(float, v))


def _rows(v, field: str, width: int) -> list:
    """``v``, checked to be a list of lists of ``width`` numbers."""
    rows = _exact(v, list, field)
    if not (
        {list}.issuperset(map(type, rows))
        and {width}.issuperset(map(len, rows))
        and _NUMBER.issuperset(map(type, chain.from_iterable(rows)))
    ):
        raise FieldError(field, f"expected lists of {width} numbers, got {v!r}")
    return rows


def _topk_pairs(v, vocab_size: int) -> list:
    pairs = _exact(v, list, "logits_topk")
    for pair in pairs:
        if not (
            type(pair) is list
            and len(pair) == 2
            and type(pair[0]) is int
            and 0 <= pair[0] < vocab_size
            and type(pair[1]) in _NUMBER
            and math.isfinite(pair[1])
        ):
            raise FieldError(
                "logits_topk",
                f"expected [index, logit] pairs with an integer index in "
                f"[0, {vocab_size}) and a finite logit, got {pair!r}",
            )
    return [[i, float(x)] for i, x in pairs]


@dataclass
class EpisodeHeader:
    scenario: dict
    seed: int
    grid: PolarGrid
    rig: CameraRig
    perception: PerceptionParams
    rules: MetricRules
    vis_rules: VisibilityRules
    max_steps: int
    standoff: float = 2.0
    invalid_mode: str = "hold"
    max_speed: float = 0.25
    max_turn: float = 30.0
    arm: str = "full"
    expert: str = "noiseless oracle pursuit"

    def to_json_dict(self) -> dict:
        return {
            "type": "header",
            "version": SCHEMA_VERSION,
            "scenario": self.scenario,
            "seed": self.seed,
            "grid": self.grid.to_dict(),
            "rig": self.rig.to_dict(),
            "perception": self.perception.to_dict(),
            "rules": self.rules.to_dict(),
            "vis_rules": self.vis_rules.to_dict(),
            "max_steps": self.max_steps,
            "policy": {
                "standoff": self.standoff,
                "invalid_mode": self.invalid_mode,
                "max_speed": self.max_speed,
                "max_turn": self.max_turn,
            },
            "arm": self.arm,
            "expert": self.expert,
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "EpisodeHeader":
        pol = check(dict, d["policy"], "policy")
        return cls(
            scenario=check(dict, d["scenario"], "scenario"),
            seed=check(int, d["seed"], "seed"),
            grid=PolarGrid.from_dict(d["grid"], "grid"),
            rig=CameraRig.from_dict(d["rig"], "rig"),
            perception=PerceptionParams.from_dict(d["perception"], "perception"),
            rules=MetricRules.from_dict(d["rules"], "rules"),
            vis_rules=VisibilityRules.from_dict(d["vis_rules"], "vis_rules"),
            max_steps=check(int, d["max_steps"], "max_steps"),
            standoff=check(float, pol["standoff"], "policy.standoff"),
            invalid_mode=check(str, pol["invalid_mode"], "policy.invalid_mode"),
            max_speed=check(float, pol["max_speed"], "policy.max_speed"),
            max_turn=check(float, pol["max_turn"], "policy.max_turn"),
            arm=check(str, d["arm"], "arm"),
            expert=check(str, d["expert"], "expert"),
        )


@dataclass
class EpisodeLog:
    header: EpisodeHeader
    frames: list[FrameRecord]
    outcome: Optional[EpisodeOutcome] = None

    def to_jsonl(self) -> str:
        lines = [json.dumps(self.header.to_json_dict(), separators=(",", ":"))]
        lines.extend(
            json.dumps(f.to_json_dict(), separators=(",", ":")) for f in self.frames
        )
        if self.outcome is not None:
            lines.append(
                json.dumps(
                    {"type": "footer", "outcome": self.outcome.to_dict()},
                    separators=(",", ":"),
                )
            )
        return "\n".join(lines) + "\n"


class EpisodeFormatError(ValueError):
    """Raised on malformed, truncated or inconsistent episode files."""


def write_episode(log: EpisodeLog, path) -> None:
    Path(path).write_text(log.to_jsonl(), encoding="utf-8")


def read_episode(path) -> EpisodeLog:
    """Parse and validate one episode file, including that the footer's
    outcome is what the frames score under the header's rules. Errors
    carry the 1-based line number of the offending line and, where one
    is at fault, the field."""
    text = Path(path).read_text(encoding="utf-8")
    lines = text.splitlines()
    if not lines:
        raise EpisodeFormatError(f"{path}: empty file")

    def parse(i: int) -> dict:
        try:
            d = json.loads(lines[i])
        except json.JSONDecodeError as e:
            raise EpisodeFormatError(
                f"{path}: malformed JSON at line {i + 1} (last good line {i})"
            ) from e
        if not isinstance(d, dict):
            raise EpisodeFormatError(f"{path}: line {i + 1} is not a JSON object")
        return d

    def build(i: int, make, d: dict):
        try:
            return make(d)
        except KeyError as e:
            raise EpisodeFormatError(f"{path}: line {i + 1}: missing field {e}") from e
        except (IndexError, TypeError, ValueError) as e:
            raise EpisodeFormatError(f"{path}: line {i + 1}: {e}") from e

    head = parse(0)
    if head.get("type") != "header":
        raise EpisodeFormatError(f"{path}: line 1 is not a header")
    if head.get("version") != SCHEMA_VERSION:
        raise EpisodeFormatError(
            f"{path}: schema version {head.get('version')!r} unsupported "
            f"(expected {SCHEMA_VERSION!r})"
        )
    header = build(0, EpisodeHeader.from_json_dict, head)
    vocab_size = header.grid.vocab_size

    frames: list[FrameRecord] = []
    outcome: Optional[EpisodeOutcome] = None
    for i in range(1, len(lines)):
        d = parse(i)
        kind = d.get("type")
        if outcome is not None:
            raise EpisodeFormatError(f"{path}: line {i + 1}: record after the footer")
        if kind == "frame":
            f = build(i, lambda d: FrameRecord.from_json_dict(d, vocab_size), d)
            if f.step != len(frames):
                raise EpisodeFormatError(
                    f"{path}: line {i + 1}: step {f.step}, expected {len(frames)}"
                )
            if not (0 <= f.gt_token <= header.grid.invalid_index) or not (
                0 <= f.token <= header.grid.invalid_index
            ):
                raise EpisodeFormatError(
                    f"{path}: line {i + 1}: token outside the header grid's "
                    f"range [0, {header.grid.invalid_index}]"
                )
            frames.append(f)
        elif kind == "footer":
            outcome = build(i, lambda d: EpisodeOutcome.from_dict(d["outcome"], "outcome"), d)
            footer = i + 1
        else:
            raise EpisodeFormatError(f"{path}: line {i + 1}: unknown record type {kind!r}")
    if outcome is None:
        raise EpisodeFormatError(
            f"{path}: missing footer (last good line {len(lines)})"
        )
    log = EpisodeLog(header=header, frames=frames, outcome=outcome)
    try:
        rescored = score_episode(log, header.rules)
    except ValueError as e:
        raise EpisodeFormatError(f"{path}: {e}") from e
    if rescored != outcome:
        raise EpisodeFormatError(
            f"{path}: line {footer}: footer outcome {outcome} disagrees with "
            f"the frames, which score {rescored}"
        )
    return log


def schema_description() -> str:
    """Human-readable field-by-field schema, printed by the CLI."""
    return f"""JSONL episode schema, version {SCHEMA_VERSION}
One JSON object per line.

Line 1   header:
  type             "header"
  version          schema version string (this file: "{SCHEMA_VERSION}")
  scenario         scenario spec: name, n_distractors, sigma_app,
                   feature_dim, max_steps
  seed             episode world seed
  grid             polar grid: r_min, r_max, n_angle, n_dist
  rig              camera views: [{{yaw, fov}} ...], degrees
  perception       perception parameters (noise, scores, gating knobs)
  rules            metric rules (orientation tolerance, tracked flag,
                   lost-termination, success band)
  vis_rules        annotation rules (min_apparent_size)
  max_steps        episode cap
  arm              "full" | "no_tim" | "no_cot"
  expert           provenance of the expert trajectories

Lines 2..N-1  frame (one per executed step):
  type             "frame"
  step             0-based step index, strictly increasing
  agent            [x, y, heading_deg] after the step's motion
  target           [x, y] after the step's motion
  target_rel       [theta_deg, dist_m] of the target, post-step ground truth
  view_visible     per-view target visibility at observation time
  gt_invalid       true when the target was not annotatable at observation
                   time (occluded / out of view / out of range / too small)
  gt_polar         [theta_deg, dist_m] at observation time, null if invalid
  gt_token         token index of gt_polar (last index = invalid)
  token            token the policy consumed this step
  confidence       entropy confidence of this step's prediction
  expert_traj      8 x [x, y, theta]: oracle pursuit plan from gt_token
  mem_digest       fingerprint of the memory vector after this step's update
  mem_slot0        first 3 coords of the memory vector, null while empty
  collided         whether this step's motion caused a collision
  logits_topk      [[token, logit] ...] of the k largest logits, largest
                   first, ties lowest token first; null if not kept. Only
                   the invalid token and one cell per detected entity can
                   be non-zero, so k above the entity count lists them all

Last line  footer:
  type             "footer"
  outcome          success, tracking_rate, collided, episode_length, reason
"""


def derive_seed(master: int, scenario_index: int, episode_index: int) -> int:
    """Deterministic per-episode seed from the master seed and indices."""
    ss = np.random.SeedSequence([master, scenario_index, episode_index])
    return int(ss.generate_state(1)[0])


def generate_dataset(
    specs: list[ScenarioSpec],
    n_episodes: int,
    seed: int,
    out_dir,
    randomize_rig: bool = False,
    rig: Optional[CameraRig] = None,
    grid: Optional[PolarGrid] = None,
) -> list[Path]:
    """Roll out annotated expert episodes and write one JSONL file each.

    Deterministic given ``seed``. With ``randomize_rig``, each episode
    draws per-view fields of view and keeps a random subset of the
    non-front views; the front view is always present. Frames keep the
    top-``DATASET_TOPK`` logits, so a world with more entities than fit
    beside the invalid token raises ``ValueError``.
    """
    from .runner import AgentRuntime, run_episode  # deferred: runner imports us

    if n_episodes < 1:
        raise ValueError("n_episodes must be >= 1")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    grid = grid or PolarGrid()
    base_rig = rig or CameraRig.ring(4)

    written: list[Path] = []
    for si, spec in enumerate(specs):
        for ei in range(n_episodes):
            ep_seed = derive_seed(seed, si, ei)
            if randomize_rig:
                rig_rng = np.random.default_rng(
                    np.random.SeedSequence([seed, si, ei, 1])
                )
                # front view always retained; other views kept at random
                views = [CameraView(0.0, float(rig_rng.uniform(70.0, 110.0)))]
                for yaw in (90.0, 180.0, 270.0):
                    keep = rig_rng.random() < 0.5
                    fov = float(rig_rng.uniform(70.0, 110.0))
                    if keep:
                        views.append(CameraView(yaw, fov))
                ep_rig = CameraRig(views=tuple(views))
            else:
                ep_rig = base_rig
            runtime = AgentRuntime(
                grid=grid,
                rig=ep_rig,
                params=PerceptionParams().noiseless(),
                rules=MetricRules(),
                log_topk=DATASET_TOPK,
            )
            world = make_scenario(spec, ep_seed)
            # each entity scores at most one cell, so the logged top-k holds
            # every non-zero logit (and rebuilds them exactly) as long as
            # the entities and the invalid entry fit in it
            if len(world.entities) > DATASET_TOPK - 1:
                raise ValueError(
                    f"scenario {spec.name!r} has {len(world.entities)} entities; the "
                    f"top-{DATASET_TOPK} logits a dataset frame keeps cover at most "
                    f"{DATASET_TOPK - 1}"
                )
            log = run_episode(world, runtime, scenario=spec, seed=ep_seed)
            path = out / f"{spec.name}_{ei:04d}.jsonl"
            write_episode(log, path)
            written.append(path)
    return written
