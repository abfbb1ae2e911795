"""Per-step orchestration: observe, update memory, plan, act, log. A
score-only run (``record=False``) skips the log and keeps per step only
what scoring reads.

The memory consumes the reasoner output of the *previous* step, one step
behind the observation that produced it, so the snapshot logged at step T
depends only on outputs 1..T-1 and the first valid sighting lands in the
memory at the step after it happened.

Three arms share this loop:

* ``full``    token reasoning plus gated appearance memory
* ``no_tim``  token reasoning, memory stays empty (kind-blind scores)
* ``no_cot``  no tokens at all: the raw noisy position of the nearest
              detected entity, held stale when nothing is detected

``perfbench/instrument.py`` traces the loop by rebinding the names it
calls here: ``run_episode``, ``annotate_frame``, ``view_visibility``,
``plan``, ``observe``, ``confidence``, ``update_memory``,
``nearest_detection``, ``plan_from_polar``, ``execute_first``,
``advance_hold`` and ``score_episode``. It counts a ``plan`` call right
after ``view_visibility`` as the expert's, any other as the agent's, and
``tests/test_trace.py`` pins how often each role, ``nearest_detection``
and ``World.step`` are called per step.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .episodes import (  # ARMS is re-exported
    ARMS,
    AgentRuntime,
    EpisodeHeader,
    EpisodeLog,
    FrameRecord,
    annotate_frame,
    view_visibility,
)
from .gating import confidence
from .memory import TargetMemory, update_memory
from .metrics import StepResult, episode_end, score_episode
from .perception import ReasonerOutput, nearest_detection, observe, view_masks
from .policy import (
    NUM_WAYPOINTS,
    advance_hold,
    execute_first,
    plan,
    plan_from_polar,
)
from .polar import encode
from .scenarios import ScenarioSpec
from .world import World


def run_episode(
    world: World,
    runtime: AgentRuntime,
    scenario: Optional[ScenarioSpec] = None,
    seed: int = 0,
    record: bool = True,
) -> EpisodeLog:
    """Run one episode to termination (collision, prolonged loss, or the
    step cap) and return the complete scored log. Its header is
    ``runtime`` plus ``scenario`` and ``seed``, the spec and seed
    ``world`` was built from (None for a hand-built world).

    With ``record`` false the episode is score-only: the work that only
    the log reads (annotation, view flags, the expert plan, top-k, the
    memory digest, the frame itself, and the confidence and acted token
    outside the ``full`` arm) is skipped, and the log keeps one
    ``StepResult`` per step instead of a frame. Its outcome is the same;
    it cannot be written.
    """
    if world.step_index != 0:
        raise ValueError("run_episode needs a fresh world")
    runtime.limits.check_within(world.limits, "the world's")

    grid, rig, params = runtime.grid, runtime.rig, runtime.perception
    limits, policy = runtime.limits, runtime.policy
    mem = TargetMemory.empty()
    hold = expert_hold = None
    out: Optional[ReasonerOutput] = None  # stays None in the no_cot arm
    pending: Optional[tuple[ReasonerOutput, float]] = None
    frames: list = []
    # a valid token plans its cell's trajectory and centroid whatever the hold
    # point, so on its first visit its expert rows, and its command with the
    # next hold point, are built once and read back on every later visit
    expert_rows: dict[int, list] = {}
    token_acts: dict[int, tuple] = {}
    lost_run, reason = 0, None
    header = EpisodeHeader(
        **AgentRuntime.values_of(runtime),
        scenario=scenario,
        seed=seed,
        max_steps=world.max_steps,
        expert="noiseless oracle pursuit",
    )

    while reason is None:
        try:
            masks = view_masks(world, rig, grid, record)
            if record:
                gt_polar, gt_token = annotate_frame(world, masks, grid, runtime.vis_rules)
                views = view_visibility(world, masks, rig)
                expert_traj, expert_hold = plan(gt_token, grid, expert_hold, policy, limits)

            if runtime.arm != "no_cot":
                out = observe(world, masks, mem, grid, params, world.rng)
                # the memory and the frame are the confidence's only readers
                if record or runtime.arm == "full":
                    conf = confidence(out.logits)
                if runtime.arm == "full":
                    if pending is not None:
                        prev, prev_conf = pending
                        mem = update_memory(mem, prev.token, prev_conf, prev.candidate, grid,
                                            runtime.count_invalid_in_mean)
                    pending = out, conf
                traj, hold = plan(out.token, grid, hold, policy, limits)
                acted_token = out.token
                act = token_acts.get(out.token)
            else:
                # no tokens, no invalid semantics: steer at the latest raw
                # reading, or the dead-reckoned previous one when nothing
                # is detected this step
                raw = nearest_detection(world, masks, params, world.rng)
                if raw is not None:
                    hold = raw
                if hold is None:
                    traj = np.zeros((NUM_WAYPOINTS, 3))
                else:
                    traj = plan_from_polar(hold, policy.standoff, limits)
                if record:
                    acted_token = grid.invalid_index if raw is None else encode(grid, raw)
                    conf = 0.0
                act = None

            if act is None:
                cmd = execute_first(traj, limits)
                act = cmd, advance_hold(hold, cmd)
                if out is not None and out.token != grid.invalid_index:
                    token_acts[out.token] = act
            cmd, hold = act
            events = world.step(cmd)
        except Exception as e:
            raise RuntimeError(f"episode failed at step {world.step_index}: {e}") from e

        target_rel = (events.target_rel.theta, events.target_rel.dist)
        if record:
            topk = None
            if out is not None and runtime.log_topk > 0:
                topk = list(map(tuple, out.logits.topk(runtime.log_topk)))
            rows = expert_rows.get(gt_token)
            if rows is None:
                rows = [tuple(r) for r in expert_traj.tolist()]
                if gt_polar is not None:
                    expert_rows[gt_token] = rows
            frames.append(
                FrameRecord(
                    step=len(frames),
                    agent=(world.agent.x, world.agent.y, world.agent.heading),
                    target=(world.target.x, world.target.y),
                    target_rel=target_rel,
                    view_visible=views,
                    gt_invalid=gt_polar is None,
                    gt_polar=None if gt_polar is None else (gt_polar.theta, gt_polar.dist),
                    gt_token=gt_token,
                    token=acted_token,
                    confidence=conf,
                    expert_traj=rows,
                    mem_digest=mem.digest(),
                    mem_slot0=None if mem.is_empty else mem.slots[:3].tolist(),
                    collided=events.collided,
                    logits_topk=topk,
                )
            )
        else:
            frames.append(StepResult(target_rel, events.collided))

        lost_run, reason = episode_end(lost_run, events.target_rel.dist, events.collided,
                                       world.terminated, runtime.rules)

    log = EpisodeLog(header=header, frames=frames)
    log.outcome = score_episode(log, runtime.rules)
    return log
