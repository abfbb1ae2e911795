"""Episode logs: JSONL schema, ground-truth annotation, dataset generation.

One episode is one JSONL file: a header line, one line per frame, and a
footer line with the scored outcome. The header is the settings that ran:
the agent's ``AgentRuntime`` plus the scenario spec and seed that rebuild
its world, so a log can be re-run from its own first line. Frames mix two
viewpoints on a step: pose fields describe the world *after* the step's
motion (what metrics consume), while decision fields (token, confidence,
ground-truth annotation, expert trajectory, memory digest) describe what
the agent saw and chose at the step's start. Writing is deterministic,
so re-writing a parsed log reproduces the file byte for byte.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, fields, replace
from decimal import Decimal
from itertools import chain
from pathlib import Path
from typing import Annotated, Literal, Optional

import numpy as np

from .metrics import EpisodeOutcome, MetricRules, score_episode
from .perception import CameraRig, CameraView, PerceptionParams
from .polar import PolarGrid, PolarPoint, encode
from .policy import NUM_WAYPOINTS, PolicySettings
from .records import FieldError, Range, Record, check
from .scenarios import ScenarioSpec, make_scenario
from .world import MotionLimits, World

SCHEMA_VERSION = "2"

ARMS = ("full", "no_tim", "no_cot")

# logits kept per dataset frame: the invalid entry plus up to 7 entities
DATASET_TOPK = 8


@dataclass(frozen=True)
class VisibilityRules(Record):
    """Ground-truth annotation knobs. ``min_apparent_size`` is the
    radius/distance ratio below which the target counts as too small to
    see, standing in for a pixel-count cutoff. The default puts the
    cutoff at 4 m for the default 0.3 m entity radius, calibrated so the
    obstacle split annotates 10-30% of frames invalid."""

    min_apparent_size: Annotated[float, Range(0.0)] = 0.075


def annotate_frame(
    world: World, masks: list[int], grid: PolarGrid, vis_rules: VisibilityRules
) -> tuple[Optional[PolarPoint], int]:
    """Ground-truth polar position and token for the target right now: invalid
    when no view sees it (its ``view_masks`` entry is 0) or it looks too small."""
    s = world.sightings[world.target_index]
    if not masks[world.target_index] or s.entity.radius / s.rel.dist < vis_rules.min_apparent_size:
        return None, grid.invalid_index
    return s.rel, encode(grid, s.rel)


def view_visibility(world: World, masks: list[int], rig: CameraRig) -> list[bool]:
    """Per-view flags: bit *i* of the target's ``view_masks(.., target_views=True)``
    entry. Every call with the same mask and view count returns the same
    list, which callers must not change."""
    return _view_flags(masks[world.target_index], len(rig.views))


# a rig has at most 8 views, and view_masks sets a bit only for a view
# of the rig, so at most 2^8 masks x 8 view counts
@functools.lru_cache(maxsize=2**8 * 8)
def _view_flags(mask: int, n_views: int) -> list[bool]:
    return [bool(mask >> i & 1) for i in range(n_views)]


@dataclass
class FrameRecord(Record):
    step: int
    agent: tuple[float, float, float]  # x, y, heading after the step's motion
    target: tuple[float, float]  # x, y after the step's motion
    target_rel: tuple[float, float]  # post-step ground truth: deg ccw from heading, m
    view_visible: list[bool]  # at observation time, one flag per view, shared per mask
    gt_invalid: bool
    gt_polar: Optional[tuple[float, float]]  # observation-time annotation
    gt_token: int
    token: int  # token the policy actually consumed
    confidence: float
    expert_traj: list[tuple[float, float, float]]  # 8 x (x, y, theta), shared per cell
    mem_digest: str
    mem_slot0: Optional[list[float]]  # first 3 coords of the memory vector
    collided: bool
    logits_topk: Optional[list[tuple[int, float]]]  # (index, logit), largest first


@dataclass
class AgentSettings(Record):
    """The agent's settings that a run config shares across its arms."""

    grid: PolarGrid = PolarGrid()
    rig: CameraRig = CameraRig.ring(4)
    perception: PerceptionParams = PerceptionParams()
    rules: MetricRules = MetricRules()
    limits: MotionLimits = MotionLimits()
    vis_rules: VisibilityRules = VisibilityRules()
    policy: PolicySettings = PolicySettings()
    count_invalid_in_mean: bool = True


@dataclass
class AgentRuntime(AgentSettings):
    """Everything the episode loop needs besides the world itself: the
    shared settings, the ablation arm (``ARMS``) and how many of the
    largest logits each frame logs (0: none)."""

    arm: Literal[ARMS] = "full"
    log_topk: Annotated[int, Range(0)] = 0

    def __post_init__(self):
        check(int, self.log_topk, "log_topk")


@dataclass(kw_only=True)
class EpisodeHeader(AgentRuntime):
    """The runtime an episode ran with, and its world: ``make_scenario(
    scenario, seed)`` rebuilds it, or ``scenario`` is null for a
    hand-built world. ``expert`` names where the expert trajectories
    come from."""

    scenario: Optional[ScenarioSpec]
    seed: Annotated[int, Range(0)]
    max_steps: Annotated[int, Range(1)]
    expert: str


@dataclass
class EpisodeLog:
    """One episode: its header, its frames and, once scored, its outcome.
    A score-only run (``run_episode(record=False)``) keeps a ``StepResult``
    per step in ``frames`` instead, which is enough to score but not to
    write."""

    header: EpisodeHeader
    frames: list[FrameRecord]
    outcome: Optional[EpisodeOutcome] = None

    def to_jsonl(self) -> str:
        """The log as JSONL. A log whose frame count differs from its
        outcome's episode length, that holds anything but frames, whose
        header fails ``read_episode``'s field check (``FieldError`` naming
        the field) or that holds a non-finite float (``FieldError`` naming
        the frame and field) raises ``ValueError``: ``read_episode`` would
        reject its file."""
        n = len(self.frames)
        if self.outcome is not None and n != self.outcome.episode_length:
            raise ValueError(
                f"log holds {n} frames for an episode of {self.outcome.episode_length} steps"
            )
        if not all(isinstance(f, FrameRecord) for f in self.frames):
            raise ValueError("a score-only log (run_episode(record=False)) has no frames to write")
        head = self.header.to_dict()
        EpisodeHeader.from_dict(head, complete=True)  # read_episode's field check
        lines = [_encode({"type": "header", "version": SCHEMA_VERSION, **head}),
                 *_frame_lines(self.frames)]
        if self.outcome is not None:
            lines.append(_encode({"type": "footer", "outcome": self.outcome.to_dict()}))
        lines.append("")  # the trailing newline, without copying the text
        return "\n".join(lines)


# the log's JSON: compact, and a non-finite float is a ValueError, not NaN
_encode = json.JSONEncoder(separators=(",", ":"), allow_nan=False).encode
# a frame's line: FrameRecord's fields in declaration order, each filled in
# by name with its JSON text
_FRAME_LINE = '{"type":"frame",%s}' % ",".join(
    f'"{f.name}":%({f.name})s' for f in fields(FrameRecord))


def _key(floats: tuple):
    """``floats`` as a memo key. 0.0 == -0.0 and both hash alike, but JSON
    writes them apart, so a key with a zero in it holds the zeros' signs."""
    return floats if all(floats) else (
        floats, tuple([math.copysign(1.0, x) for x in floats if not x]))


def _frame_lines(frames: list[FrameRecord]):
    """Each frame's JSON line, the text ``_encode({"type": "frame",
    **frame.to_dict()})`` gives. A non-finite float is a ``FieldError``
    naming its frame and field.

    The floats new in each frame are written by ``float.__repr__``, the
    encoder's own float text. Every other value's text is made once per
    log and looked up after that. ``expert_traj``, ``view_visible``,
    ``mem_slot0`` and ``logits_topk`` are keyed by identity: run_episode
    shares each list among the frames with its value, and every frame
    keeps its lists alive, so ids stay unique. A log read back from a
    file shares none, so each of its lists is encoded anew. The rest are
    keyed by value; a frame's ``gt_polar`` is the previous frame's
    ``target_rel``, so both share one memo."""
    polar_texts, list_texts, conf_texts, digest_texts = {}, {}, {}, {}

    def new_text(texts: dict, key, value, i: int, name: str) -> str:
        """``value``'s text, kept in ``texts`` under ``key``."""
        try:
            text = texts[key] = _encode(value)
        except ValueError:  # the encoder's only error on a value of the field's type
            raise FieldError(f"frames[{i}].{name}", f"non-finite float in {value!r}") from None
        return text

    for i, f in enumerate(frames):
        agent = ",".join(map(float.__repr__, f.agent))
        target = ",".join(map(float.__repr__, f.target))
        rel = tuple(f.target_rel)
        rel_text = ",".join(map(float.__repr__, rel))
        # float.__repr__ writes nan and inf, which no JSON reader parses
        if "n" in agent or "n" in target or "n" in rel_text:
            name = next(n for n in ("agent", "target", "target_rel")
                        if not all(map(math.isfinite, getattr(f, n))))
            raise FieldError(f"frames[{i}].{name}", f"non-finite float in {getattr(f, name)!r}")
        rel_text = polar_texts[_key(rel)] = f"[{rel_text}]"
        polar, conf, digest = f.gt_polar, f.confidence, f.mem_digest
        if polar is not None:
            key = _key(tuple(polar))
            polar = polar_texts.get(key) or new_text(polar_texts, key, polar, i, "gt_polar")
        key = _key((conf,))
        conf = conf_texts.get(key) or new_text(conf_texts, key, conf, i, "confidence")
        digest = digest_texts.get(digest) or new_text(digest_texts, digest, digest, i,
                                                      "mem_digest")
        # None is one object too, and its text is null
        views, traj, slot, topk = f.view_visible, f.expert_traj, f.mem_slot0, f.logits_topk
        views = list_texts.get(id(views)) or new_text(list_texts, id(views), views, i,
                                                      "view_visible")
        traj = list_texts.get(id(traj)) or new_text(list_texts, id(traj), traj, i,
                                                    "expert_traj")
        slot = list_texts.get(id(slot)) or new_text(list_texts, id(slot), slot, i, "mem_slot0")
        topk = list_texts.get(id(topk)) or new_text(list_texts, id(topk), topk, i,
                                                    "logits_topk")
        yield _FRAME_LINE % {
            "step": f.step,
            "agent": f"[{agent}]",
            "target": f"[{target}]",
            "target_rel": rel_text,
            "view_visible": views,
            "gt_invalid": "true" if f.gt_invalid else "false",
            "gt_polar": "null" if polar is None else polar,
            "gt_token": f.gt_token,
            "token": f.token,
            "confidence": conf,
            "expert_traj": traj,
            "mem_digest": digest,
            "mem_slot0": slot,
            "collided": "true" if f.collided else "false",
            "logits_topk": topk,
        }


class EpisodeFormatError(ValueError):
    """Raised on malformed, truncated or inconsistent episode files."""


# NaN, Infinity and -Infinity are not JSON: the log's reader reads them as
# Decimals, which no field's type takes, so the field check names the field
_decode = json.JSONDecoder(parse_constant=Decimal).decode


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
            d = _decode(lines[i])
        except json.JSONDecodeError as e:
            raise EpisodeFormatError(
                f"{path}: malformed JSON at line {i + 1} (last good line {i})"
            ) from e
        except ValueError as e:  # an integer literal too long to convert
            raise EpisodeFormatError(f"{path}: line {i + 1}: {e}") from e
        if not isinstance(d, dict):
            raise EpisodeFormatError(f"{path}: line {i + 1} is not a JSON object")
        return d

    def build(i: int, make, d: dict):
        try:
            return make(d)
        except KeyError as e:
            raise EpisodeFormatError(f"{path}: line {i + 1}: missing field {e}") from e
        except ValueError as e:
            raise EpisodeFormatError(f"{path}: line {i + 1}: {e}") from e

    head = parse(0)
    kind, version = head.pop("type", None), head.pop("version", None)
    if kind != "header":
        raise EpisodeFormatError(f"{path}: line 1: 'type' is {kind!r}, not a header")
    if version != SCHEMA_VERSION:
        raise EpisodeFormatError(
            f"{path}: line 1: 'version': schema version {version!r} unsupported "
            f"(expected {SCHEMA_VERSION!r})"
        )
    # the header states every setting the episode ran with
    header = build(0, lambda d: EpisodeHeader.from_dict(d, complete=True), head)
    # run_episode writes the cap of the world that make_scenario built from the spec
    if header.scenario is not None and header.max_steps != header.scenario.max_steps:
        raise EpisodeFormatError(f"{path}: line 1: 'max_steps': {header.max_steps}, "
                                 f"expected scenario.max_steps {header.scenario.max_steps}")
    grid, views = header.grid, header.rig.views
    vocab_size = grid.vocab_size
    # run_episode logs SparseLogits.topk(log_topk) of each reasoner output
    topk = 0 if header.arm == "no_cot" else min(header.log_topk, vocab_size)
    frames: list[FrameRecord] = []

    def read_frame(d: dict) -> FrameRecord:
        """A frame, checked against itself and the header: step index, shapes,
        finite numbers, confidence, gt_polar given (in the annulus) exactly when
        gt_invalid is false, gt_token its cell, token range and top-k logits (in range,
        none repeated, finite, then as many and in the order that the header's run
        logs them)."""
        f = FrameRecord.from_dict(d)
        if f.step != len(frames):
            raise FieldError("step", f"{f.step}, expected {len(frames)}")
        if len(f.view_visible) != len(views):
            raise FieldError("view_visible", f"{len(f.view_visible)} flags for {len(views)} views")
        if len(f.expert_traj) != NUM_WAYPOINTS:
            raise FieldError("expert_traj", f"{len(f.expert_traj)} rows, not {NUM_WAYPOINTS}")
        if not 0.0 <= f.confidence <= 1.0:
            raise FieldError("confidence", f"{f.confidence!r} outside [0, 1]")
        # JSON has no infinity, but a literal such as 1e999 reads as one
        if not all(map(math.isfinite, chain(f.agent, f.target, f.target_rel, f.gt_polar or (),
                                            f.mem_slot0 or (), *f.expert_traj))):
            flat = ("agent", "target", "target_rel", "gt_polar", "mem_slot0")
            name = next((n for n in flat if not all(map(math.isfinite, getattr(f, n) or ()))),
                        "expert_traj")
            raise FieldError(name, f"{getattr(f, name)} holds a number past float range")
        if f.gt_invalid != (f.gt_polar is None):
            raise FieldError("gt_invalid", "must be true exactly when gt_polar is null")
        try:
            cell = grid.invalid_index if f.gt_invalid else encode(grid, PolarPoint(*f.gt_polar))
        except ValueError as e:
            raise FieldError("gt_polar", str(e)) from e
        if cell == grid.invalid_index and not f.gt_invalid:  # encode's answer outside it
            raise FieldError("gt_polar", f"{f.gt_polar} outside the header grid's annulus")
        if f.gt_token != cell:
            raise FieldError("gt_token", f"{f.gt_token}, expected {cell}")
        if not 0 <= f.token < vocab_size:
            raise FieldError("token", f"{f.token} outside the header grid's [0, {vocab_size - 1}]")
        pairs = f.logits_topk or ()
        seen = set()
        for j, (index, logit) in enumerate(pairs):
            if not 0 <= index < vocab_size or index in seen or not math.isfinite(logit):
                raise FieldError(
                    f"logits_topk[{j}]",
                    f"expected an index in [0, {vocab_size}) not listed before and a "
                    f"finite logit, got {[index, logit]}",
                )
            seen.add(index)
        if len(pairs) != topk or (f.logits_topk is None) != (topk == 0):
            got = "null" if f.logits_topk is None else f"{len(pairs)} pairs"
            raise FieldError("logits_topk", f"{got} for log_topk {header.log_topk} in the "
                             f"{header.arm} arm, expected {f'{topk} pairs' if topk else 'null'}")
        if any((-v, i) > (-w, j) for (i, v), (j, w) in zip(pairs, pairs[1:])):
            raise FieldError("logits_topk", "not ordered by logit descending, then index")
        return f

    outcome: Optional[EpisodeOutcome] = None
    for i in range(1, len(lines)):
        d = parse(i)
        kind = d.pop("type", None)
        if outcome is not None:
            raise EpisodeFormatError(f"{path}: line {i + 1}: record after the footer")
        if kind == "frame":
            frames.append(build(i, read_frame, d))
        elif kind == "footer":
            extra = next((k for k in d if k != "outcome"), None)
            if extra is not None:
                raise EpisodeFormatError(f"{path}: line {i + 1}: '{extra}': unknown key, "
                                         "expected one of ['type', 'outcome']")
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

Line 1   header: the settings the episode ran with; every key required
  type             "header"
  version          schema version string (this file: "{SCHEMA_VERSION}")
  grid             polar grid: r_min, r_max, n_angle, n_dist
  rig              camera views: [{{yaw, fov}} ...], degrees
  perception       perception parameters (noise, scores, gating knobs)
  rules            metric rules (orientation tolerance, tracked flag,
                   lost-termination, success band)
  limits           motion limits: max_speed (m/step), max_turn (deg/step)
  vis_rules        annotation rules (min_apparent_size)
  policy           planner settings: standoff, invalid_mode
  count_invalid_in_mean  whether invalid steps count in the gate's mean
  arm              "full" | "no_tim" | "no_cot"
  log_topk         logits kept per frame in logits_topk (0: none)
  scenario         scenario spec: name, n_distractors, sigma_app,
                   feature_dim, max_steps; null for a hand-built world
  seed             episode world seed; with scenario it rebuilds the world
  max_steps        episode cap
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
    **settings,
) -> list[Path]:
    """Roll out annotated expert episodes and write one JSONL file each.

    ``settings`` are the ``AgentSettings`` fields by keyword (``grid``,
    ``rig``, ``perception``, ``rules``, ``limits``, ``vis_rules``,
    ``policy``, ``count_invalid_in_mean``); omitted ones take their
    defaults. A dataset overrides only what defines it: perception runs
    noiseless and frames keep the top-``DATASET_TOPK`` logits. With
    ``randomize_rig``, each episode replaces the rig: it draws per-view
    fields of view and keeps a random subset of the non-front views; the
    front view is always present. Deterministic given ``seed``. A spec
    with more entities than fit in the top-k beside the invalid token is
    a ``FieldError`` naming ``n_distractors``, raised before any file is
    written.
    """
    from .runner import run_episode  # deferred: runner imports us

    if n_episodes < 1:
        raise ValueError("n_episodes must be >= 1")
    # each entity scores at most one cell, so the logged top-k holds every
    # non-zero logit (and rebuilds them exactly) as long as the entities
    # and the invalid entry fit in it
    for spec in specs:
        if 1 + spec.n_distractors > DATASET_TOPK - 1:
            raise FieldError("n_distractors", (
                f"scenario {spec.name!r} has {1 + spec.n_distractors} entities; the "
                f"top-{DATASET_TOPK} logits a dataset frame keeps cover at most "
                f"{DATASET_TOPK - 1}"))
    runtime = AgentRuntime(**settings, log_topk=DATASET_TOPK)
    runtime = replace(runtime, perception=runtime.perception.noiseless())
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    written: list[Path] = []
    for si, spec in enumerate(specs):
        for ei in range(n_episodes):
            ep_seed = derive_seed(seed, si, ei)
            ep_runtime = runtime
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
                ep_runtime = replace(runtime, rig=CameraRig(views=tuple(views)))
            world = make_scenario(spec, ep_seed)
            log = run_episode(world, ep_runtime, scenario=spec, seed=ep_seed)
            path = out / f"{spec.name}_{ei:04d}.jsonl"
            write_episode(log, path)
            written.append(path)
    return written
