"""Per-step orchestration: observe, update memory, plan, act, log. A
score-only run (``record=False``) skips the log and keeps per step only
what scoring reads.

The memory consumes the reasoner output of the *previous* step, one step
behind the observation that produced it, so the snapshot logged at step T
depends only on outputs 1..T-1 and the first valid sighting lands in the
memory at the step after it happened.

The token arms' agent plans only on an invalid token or on a valid
token's first visit in the episode: a valid token's command and next
hold point do not depend on the hold point, so later visits read them
back from a per-episode table.

Three arms share this loop:

* ``full``    token reasoning plus gated appearance memory
* ``no_tim``  token reasoning, memory stays empty (kind-blind scores)
* ``no_cot``  no tokens at all: the raw noisy position of the nearest
              detected entity, held stale when nothing is detected

``perfbench/instrument.py`` traces the loop by rebinding the names it
calls here: ``run_episode``, ``annotate_frame``, ``view_visibility``,
``plan``, ``observe``, ``confidence``, ``update_memory``,
``nearest_detection``, ``execute_first``, ``advance_hold`` and
``score_episode``; also ``plan_from_polar``, which no_cot's untraced
``command_toward`` replaced, so it reads 0. It counts a ``plan`` call right
after ``view_visibility`` as the expert's, any other as the agent's, and
``tests/test_trace.py`` pins how often each role, ``nearest_detection``
and ``World.step`` are called per step.
"""

from __future__ import annotations

from typing import Optional

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
from .policy import (  # plan_from_polar is re-exported
    advance_hold,
    command_toward,
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
    # next hold point, are built once and read back on every later visit,
    # where the agent does not plan at all
    expert_rows: dict[int, list] = {}
    token_acts: dict[int, tuple] = {}
    # the memory vector stays unchanged on most steps, so its logged digest
    # and first coordinates are worked out once per distinct vector
    mem_logged: dict[Optional[bytes], tuple] = {}
    # most dataset steps repeat an earlier step's logits, so the logged top-k
    # is built once per distinct (invalid, *cells) value. Equal keys give equal
    # bytes: cell logits are max(0.0, .), never -0.0, and the invalid entry
    # takes one value with scored cells and one without, so no 0.0/-0.0 pair
    # shares a key. A NaN key is never stored, as topk raises on it.
    topks: dict[tuple, list] = {}
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
                acted_token = out.token
                act = token_acts.get(acted_token)
                if act is None:
                    traj, hold = plan(acted_token, grid, hold, policy, limits)
                    cmd = execute_first(traj, limits)
                    act = cmd, advance_hold(hold, cmd)
                    if acted_token != grid.invalid_index:
                        token_acts[acted_token] = act
                cmd, hold = act
            else:
                # no tokens, no invalid semantics: steer at the latest raw
                # reading, or the dead-reckoned previous one when nothing
                # is detected this step
                raw = nearest_detection(world, masks, params, world.rng)
                if raw is not None:
                    hold = raw
                if record:
                    acted_token = grid.invalid_index if raw is None else encode(grid, raw)
                    conf = 0.0
                cmd = command_toward(hold, policy.standoff, limits)
                hold = advance_hold(hold, cmd)
            events = world.step(cmd)
        except Exception as e:
            raise RuntimeError(f"episode failed at step {world.step_index}: {e}") from e

        target_rel = (events.target_rel.theta, events.target_rel.dist)
        if record:
            topk = None
            if out is not None and runtime.log_topk > 0:
                logits = out.logits
                key = (logits.invalid, *logits.cells.items())
                topk = topks.get(key)
                if topk is None:
                    topk = topks[key] = list(map(tuple, logits.topk(runtime.log_topk)))
            rows = expert_rows.get(gt_token)
            if rows is None:
                rows = [tuple(r) for r in expert_traj.tolist()]
                if gt_polar is not None:
                    expert_rows[gt_token] = rows
            vector = None if mem.is_empty else mem.slots.tobytes()
            logged = mem_logged.get(vector)
            if logged is None:
                logged = mem_logged[vector] = (
                    mem.digest(), None if mem.is_empty else mem.slots[:3].tolist())
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
                    mem_digest=logged[0],
                    mem_slot0=logged[1],
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
