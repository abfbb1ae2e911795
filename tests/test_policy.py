import math
import struct
from dataclasses import dataclass
from typing import Optional

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polartrack import policy
from polartrack.memory import TargetMemory
from polartrack.perception import CameraRig, NoiseStream, PerceptionParams, observe, view_masks
from polartrack.polar import PolarGrid, PolarPoint, decode, encode, signed_degrees
from polartrack.policy import (
    NUM_WAYPOINTS,
    SEARCH_RANGE,
    PolicySettings,
    advance_hold,
    execute_first,
    plan,
    plan_from_polar,
)
from polartrack.world import Command, Entity, MotionLimits, Pose2D, World, relative_polar

GRID = PolarGrid()
LIMITS = MotionLimits(max_speed=0.25, max_turn=30.0)
POLICY = PolicySettings()
STOP = PolicySettings(invalid_mode="stop")


def test_plan_output_shape():
    hold = None
    for token in (0, 915, GRID.invalid_index):
        traj, hold = plan(token, GRID, hold, POLICY, LIMITS)
        assert traj.shape == (NUM_WAYPOINTS, 3)


def test_hold_at_standoff():
    token = encode(GRID, PolarPoint(0.0, 2.0))
    traj, _ = plan(token, GRID, None, PolicySettings(standoff=2.0), LIMITS)
    # centroid sits within half a bin of the standoff: near-zero motion,
    # heading pinned to the bin-center bearing
    assert np.abs(traj[:, :2]).max() < 0.01
    assert np.abs(traj[:, 2]).max() <= GRID.angle_width / 2 + 1e-9


def test_equal_subdivision_to_goal():
    # exact geometry via the un-tokenized planner: target dead ahead at 4 m
    traj = plan_from_polar(PolarPoint(0.0, 4.0), 2.0, LIMITS)
    assert traj[-1, 0] == pytest.approx(2.0)
    assert traj[-1, 1] == pytest.approx(0.0)
    assert traj[-1, 2] == pytest.approx(0.0)
    spacing = np.diff(traj[:, 0])
    assert spacing == pytest.approx(np.full(NUM_WAYPOINTS - 1, 0.25))
    # tokenized version agrees within quantization
    token = encode(GRID, PolarPoint(0.0, 4.0))
    qtraj, _ = plan(token, GRID, None, PolicySettings(standoff=2.0), LIMITS)
    assert qtraj[-1, 0] == pytest.approx(2.0, abs=GRID.dist_width)
    assert abs(qtraj[-1, 2]) <= GRID.angle_width / 2


def test_invalid_turns_toward_last_cell():
    token = encode(GRID, PolarPoint(90.0, 3.0))
    _, hold = plan(token, GRID, None, PolicySettings(standoff=2.0), LIMITS)
    assert hold == decode(GRID, token)
    traj, hold = plan(GRID.invalid_index, GRID, hold, POLICY, LIMITS)
    assert hold == decode(GRID, token)
    assert traj[0, 2] > 0.0  # left turn
    assert traj[-1, 1] > 0.0  # motion has a leftward component


def test_invalid_without_history_scans():
    traj, hold = plan(GRID.invalid_index, GRID, None, POLICY, LIMITS)
    assert np.abs(traj[:, :2]).max() == 0.0
    assert traj[0, 2] == pytest.approx(LIMITS.max_turn)
    assert hold is None


def test_invalid_stop_mode():
    token = encode(GRID, PolarPoint(45.0, 3.0))
    _, hold = plan(token, GRID, None, STOP, LIMITS)
    traj, kept = plan(GRID.invalid_index, GRID, hold, STOP, LIMITS)
    assert np.all(traj == 0.0)
    assert kept == hold == decode(GRID, token)
    # stop mode stands still even with no hold point
    traj, kept = plan(GRID.invalid_index, GRID, None, STOP, LIMITS)
    assert np.all(traj == 0.0) and kept is None
    with pytest.raises(ValueError, match="invalid_mode"):
        PolicySettings(invalid_mode="wander")


def test_valid_token_resets_the_hold_point():
    token = encode(GRID, PolarPoint(10.0, 3.0))
    _, hold = plan(encode(GRID, PolarPoint(200.0, 4.0)), GRID, None, POLICY, LIMITS)
    for _ in range(2):
        _, hold = plan(GRID.invalid_index, GRID, hold, POLICY, LIMITS)
        hold = advance_hold(hold, Command(v=0.25, dtheta=10.0))
    _, hold = plan(token, GRID, hold, POLICY, LIMITS)
    assert hold == decode(GRID, token)


def test_reached_hold_point_replants_the_search_carrot():
    # the hold point is within 0.5 m: the pursuit presses on straight
    # ahead toward a carrot at SEARCH_RANGE, which becomes the hold point
    traj, hold = plan(GRID.invalid_index, GRID, PolarPoint(90.0, 0.4), POLICY, LIMITS)
    assert hold == PolarPoint(0.0, SEARCH_RANGE)
    assert traj.tobytes() == segment_plan_oracle(SEARCH_RANGE, 0.0, LIMITS).tobytes()


def test_advance_hold_dead_reckoning():
    # remembered point dead ahead at 2 m; agent advances 0.25: now 1.75
    hold = advance_hold(PolarPoint(0.0, 2.0), Command(v=0.25, dtheta=0.0))
    assert hold.dist == pytest.approx(1.75)
    assert hold.theta == pytest.approx(0.0)
    # pure rotation swings the relative bearing the other way
    hold = advance_hold(PolarPoint(0.0, 2.0), Command(v=0.0, dtheta=30.0))
    assert hold.theta == pytest.approx(330.0)
    assert hold.dist == pytest.approx(2.0)
    # no-op without a remembered point
    assert advance_hold(None, Command(1.0, 5.0)) is None


def test_execute_first_examples():
    big = MotionLimits(max_speed=1.0, max_turn=90.0)
    cmd = execute_first(np.array([[1.0, 0.0, 0.0]] * 8), big)
    assert (cmd.v, cmd.dtheta) == (1.0, 0.0)

    clipped = execute_first(
        np.array([[0.0, 0.0, 30.0]] * 8), MotionLimits(max_speed=1.0, max_turn=15.0)
    )
    assert (clipped.v, clipped.dtheta) == (0.0, 15.0)

    diag = execute_first(np.array([[0.5, 0.5, 45.0]] * 8), big)
    assert diag.v == pytest.approx(math.sqrt(0.5))
    assert diag.dtheta == pytest.approx(45.0)

    with pytest.raises(ValueError):
        execute_first(np.zeros((7, 3)), big)


def test_execute_first_polar_decomposition_oracle():
    rng = np.random.default_rng(3)
    big = MotionLimits(max_speed=10.0, max_turn=180.0)
    for _ in range(100):
        wp = rng.uniform(-1, 1, size=3)
        traj = np.tile(wp, (NUM_WAYPOINTS, 1))
        cmd = execute_first(traj, big)
        assert cmd.v == pytest.approx(math.hypot(wp[0], wp[1]))
        assert cmd.dtheta == pytest.approx(math.degrees(math.atan2(wp[1], wp[0])))


def test_kinematic_limits_respected():
    rng = np.random.default_rng(5)
    hold = None
    for _ in range(200):
        token = int(rng.integers(0, GRID.vocab_size))
        traj, hold = plan(token, GRID, hold, POLICY, LIMITS)
        steps = np.diff(np.vstack([[0.0, 0.0], traj[:, :2]]), axis=0)
        assert np.hypot(steps[:, 0], steps[:, 1]).max() <= LIMITS.max_speed + 1e-9
        turns = np.diff(np.concatenate([[0.0], traj[:, 2]]))
        assert np.abs(turns).max() <= LIMITS.max_turn + 1e-9
        cmd = execute_first(traj, LIMITS)
        assert abs(cmd.v) <= LIMITS.max_speed + 1e-12
        assert abs(cmd.dtheta) <= LIMITS.max_turn + 1e-12


def test_standoff_band_validation():
    with pytest.raises(ValueError, match="standoff"):
        PolicySettings(standoff=0.5)
    with pytest.raises(ValueError, match="standoff"):
        PolicySettings(standoff=3.5)


def closed_loop_world(target_pos):
    target = Entity(
        id=0,
        kind="target",
        position=target_pos,
        radius=0.3,
        appearance=np.array([1.0, 0.0]),
        path=np.array([target_pos]),
        speeds=np.array([0.0]),
        leg=0,
    )
    return World(
        agent=Pose2D(0.0, 0.0, 0.0),
        entities=[target],
        obstacles=[],
        rng=np.random.default_rng(0),
        limits=LIMITS,
        max_steps=400,
    )


def test_convergence_to_standoff_band():
    # empty world, static target, noiseless perception: the closed loop
    # reaches standoff +- one ring width within 200 steps and stays
    for target_pos in [(4.5, 0.0), (3.0, 2.5), (-2.0, 3.0)]:
        w = closed_loop_world(target_pos)
        mem = TargetMemory.empty()
        hold = None
        params = PerceptionParams().noiseless()
        rig = CameraRig.ring(4)
        noise = NoiseStream(w.rng, params)
        dists = []
        for _ in range(350):
            out = observe(w, view_masks(w, rig, GRID), mem, GRID, params, noise)
            traj, hold = plan(out.token, GRID, hold, POLICY, LIMITS)
            cmd = execute_first(traj, LIMITS)
            ev = w.step(cmd)
            hold = advance_hold(hold, cmd)
            dists.append(ev.target_rel[1])
        lo = 2.0 - GRID.dist_width
        hi = 2.0 + GRID.dist_width
        entered = next(i for i, d in enumerate(dists) if lo <= d <= hi)
        assert entered <= 200, f"target {target_pos}: entered at {entered}"
        assert all(lo - 1e-9 <= d <= hi + 1e-9 for d in dists[entered:]), target_pos


def test_frame_consistency_replan_near_hold():
    # after walking to the planned goal, replanning toward the same world
    # point is a near-hold: displacements within the quantization bound
    agent = Pose2D(0.0, 0.0, 0.0)
    target_world = (3.5, 1.0)
    rel = relative_polar(agent, target_world)
    token = encode(GRID, rel)
    traj, _ = plan(token, GRID, None, POLICY, LIMITS)
    # place the agent at the trajectory's end, facing per its final heading
    end = traj[-1]
    heading = agent.heading + end[2]
    moved = Pose2D(agent.x + end[0], agent.y + end[1], heading)
    rel2 = relative_polar(moved, target_world)
    traj2, _ = plan(encode(GRID, rel2), GRID, None, POLICY, LIMITS)
    assert np.hypot(traj2[-1, 0], traj2[-1, 1]) <= GRID.dist_width + 0.15


def segment_plan_oracle(goal_range, bearing, limits):
    """The element-by-element fill ``policy._segment_plan`` replaced."""
    traj = np.zeros((NUM_WAYPOINTS, 3))
    gx = goal_range * math.cos(math.radians(bearing))
    gy = goal_range * math.sin(math.radians(bearing))
    length = math.hypot(gx, gy)
    if length > 1e-12:
        step = min(length / NUM_WAYPOINTS, limits.max_speed)
        ux, uy = gx / length, gy / length
        for i in range(NUM_WAYPOINTS):
            traj[i, 0] = ux * step * (i + 1)
            traj[i, 1] = uy * step * (i + 1)
    for i in range(NUM_WAYPOINTS):
        turn_cap = (i + 1) * limits.max_turn
        traj[i, 2] = max(-turn_cap, min(turn_cap, bearing))
    return traj


def scan_plan_oracle(limits):
    traj = np.zeros((NUM_WAYPOINTS, 3))
    for i in range(NUM_WAYPOINTS):
        traj[i, 2] = min((i + 1) * limits.max_turn, 180.0)
    return traj


# int limits as a config may write them, zeros of both signs included
limit_values = st.one_of(
    st.sampled_from([0, 0.0, -0.0, 1, 30]),
    st.floats(0.0, 90.0, allow_nan=False),
)


@settings(max_examples=400, deadline=None)
@given(
    goal_range=st.one_of(
        st.floats(-6.0, 6.0, allow_nan=False),
        st.floats(-1e-11, 1e-11, allow_nan=False),
        st.sampled_from([0.0, -0.0, 1e-12, -1e-12, 2e-12]),
    ),
    bearing=st.one_of(
        st.floats(-180.0, 180.0, allow_nan=False),
        st.sampled_from([0.0, -0.0, 180.0, 30.0, -30.0]),
    ),
    max_speed=limit_values,
    max_turn=limit_values,
)
def test_segment_plan_matches_the_element_fill_oracle(goal_range, bearing, max_speed, max_turn):
    limits = MotionLimits(max_speed=max_speed, max_turn=max_turn)
    got = policy._segment_plan(goal_range, bearing, limits)
    want = segment_plan_oracle(goal_range, bearing, limits)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()  # tells -0.0 from 0.0
    assert policy._scan_plan(limits).tobytes() == scan_plan_oracle(limits).tobytes()


def command_bytes(cmd: Command) -> bytes:
    return struct.pack("<dd", cmd.v, cmd.dtheta)  # tells -0.0 from 0.0


@settings(max_examples=500, deadline=None)
@given(
    theta=st.one_of(
        st.floats(-720.0, 720.0, allow_nan=False),
        st.sampled_from([0.0, -0.0, 180.0, -180.0, 540.0, -540.0, 1e-20, -1e-20]),
    ),
    standoff=st.one_of(st.floats(0.0, 3.0), st.sampled_from([0.0, 1.0, 2.0, 2.5])),
    # the goal range p.dist - standoff, negative ones included (a target inside the
    # standoff backs the agent away); the first row is 1/8 of it, so 8e-12 is its edge
    goal_range=st.one_of(
        st.floats(-3.0, 6.0, allow_nan=False),
        st.floats(-1e-11, 1e-11, allow_nan=False),
        st.sampled_from([0.0, -0.0, 1e-12, -1e-12, 2e-12, 8e-12, -8e-12, 8.000000000000001e-12]),
    ),
    max_speed=limit_values,
    max_turn=limit_values,
)
def test_command_toward_is_the_first_command_of_the_plan(theta, standoff, goal_range,
                                                         max_speed, max_turn):
    limits = MotionLimits(max_speed=max_speed, max_turn=max_turn)
    p = PolarPoint(theta, abs(standoff + goal_range))
    got = policy.command_toward(p, standoff, limits)
    want = execute_first(plan_from_polar(p, standoff, limits), limits)
    assert command_bytes(got) == command_bytes(want)
    none = policy.command_toward(None, standoff, limits)
    assert command_bytes(none) == command_bytes(execute_first(np.zeros((NUM_WAYPOINTS, 3)),
                                                              limits))


@pytest.mark.parametrize("grid", [GRID, PolarGrid(r_min=1, r_max=4.5, n_angle=7, n_dist=5)])
@pytest.mark.parametrize("standoff", [1.0, 2.5])
def test_cell_plan_is_computed_once_and_read_only(grid, standoff):
    policy._cell_plan.cache_clear()
    settings = PolicySettings(standoff=standoff)
    for token in range(grid.n_cells):
        before = policy._cell_plan.cache_info()
        first, h1 = plan(token, grid, None, settings, LIMITS)
        second, h2 = plan(token, grid, h1, settings, LIMITS)
        after = policy._cell_plan.cache_info()
        assert (after.misses - before.misses, after.hits - before.hits) == (1, 1)
        assert first.tobytes() == second.tobytes()
        p = decode(grid, token)
        want = segment_plan_oracle(p.dist - standoff, signed_degrees(p.theta), LIMITS)
        assert first.tobytes() == want.tobytes()
        assert h1 == h2 == p
        with pytest.raises(ValueError):
            first[0, 0] = 1.0


@dataclass(frozen=True)
class OracleState:
    """The four-field pursuit state the hold point replaced."""

    last_valid_cell: Optional[int] = None
    steps_since_valid: int = 0
    standoff: float = 2.0
    hold_rel: Optional[PolarPoint] = None


def oracle_plan(token, grid, state, limits, invalid_mode):
    """The planner over ``OracleState`` that ``policy.plan`` replaced."""
    if grid.is_valid_token(token):
        p = decode(grid, token)
        traj = segment_plan_oracle(p.dist - state.standoff, signed_degrees(p.theta), limits)
        return traj, OracleState(token, 0, state.standoff, p)
    steps = state.steps_since_valid + 1
    hold = state.hold_rel
    if invalid_mode == "stop" or state.last_valid_cell is None:
        traj = np.zeros((NUM_WAYPOINTS, 3)) if invalid_mode == "stop" else scan_plan_oracle(limits)
        return traj, OracleState(state.last_valid_cell, steps, state.standoff, hold)
    p = hold if hold is not None else decode(grid, state.last_valid_cell)
    if p.dist < 0.5:
        p = hold = PolarPoint(0.0, SEARCH_RANGE)
    traj = segment_plan_oracle(p.dist, signed_degrees(p.theta), limits)
    return traj, OracleState(state.last_valid_cell, steps, state.standoff, hold)


def oracle_advance_hold(state, cmd):
    if state.hold_rel is None:
        return state
    th = math.radians(state.hold_rel.theta - cmd.dtheta)
    x = state.hold_rel.dist * math.cos(th) - cmd.v
    y = state.hold_rel.dist * math.sin(th)
    rel = PolarPoint(math.degrees(math.atan2(y, x)), math.hypot(x, y))
    return OracleState(state.last_valid_cell, state.steps_since_valid, state.standoff, rel)


def bits(p):
    """A hold point's exact floats (tells -0.0 from 0.0)."""
    return None if p is None else (p.theta.hex(), p.dist.hex())


# a small grid close to the agent, so random commands reach a hold point
# and the search carrot gets re-planted
NEAR = PolarGrid(r_min=0.3, r_max=2.0, n_angle=12, n_dist=4)
steps = st.lists(
    st.tuples(
        # about half the tokens invalid
        st.integers(0, 2 * NEAR.n_cells).map(lambda t: min(t, NEAR.invalid_index)),
        st.booleans(),  # execute the plan's first waypoint, or a random command
        st.floats(0.0, 1.2, allow_nan=False),
        st.floats(-45.0, 45.0, allow_nan=False),
    ),
    min_size=1,
    max_size=40,
)


@settings(max_examples=300, deadline=None)
@given(
    steps=steps,
    invalid_mode=st.sampled_from(["hold", "stop"]),
    standoff=st.floats(1.0, 3.0, allow_nan=False),
)
def test_hold_point_planner_matches_the_pursuit_state_oracle(steps, invalid_mode, standoff):
    settings_ = PolicySettings(standoff=standoff, invalid_mode=invalid_mode)
    limits = MotionLimits(max_speed=0.5, max_turn=30.0)
    hold, state = None, OracleState(standoff=standoff)
    for token, executed, v, dtheta in steps:
        traj, hold = plan(token, NEAR, hold, settings_, limits)
        want, state = oracle_plan(token, NEAR, state, limits, invalid_mode)
        assert traj.tobytes() == want.tobytes()
        assert bits(hold) == bits(state.hold_rel)
        cmd = execute_first(traj, limits) if executed else Command(v=v, dtheta=dtheta)
        hold, state = advance_hold(hold, cmd), oracle_advance_hold(state, cmd)
        assert bits(hold) == bits(state.hold_rel)
