"""Receding-horizon pursuit planner.

Every step the planner emits a fresh 8-waypoint egocentric trajectory and
the simulator executes only the first waypoint. A valid token decodes to
its cell centroid and the goal is that point pulled back along the
bearing to the standoff distance; the straight segment to the goal is
split into 8 equal pieces, each waypoint facing the target bearing as far
as the cumulative turn limit allows. The only state carried between
plans is the hold point: the body-frame position of the last valid
sighting, dead-reckoned through every executed command (``advance_hold``),
or None before the first one. An invalid token walks all the way into
the hold point, which rounds corners after a disappearance, or with no
hold point scans in place; in ``stop`` mode it stands still. A valid
token's plan depends only on the cell, the grid, the standoff and the
motion limits, so each cell is planned once and its read-only trajectory
reused (``_cell_plan``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Annotated, Literal, Optional

import numpy as np

from .polar import PolarGrid, PolarPoint, decode, polar_point, signed_degrees
from .records import Range, Record
from .world import Command, MotionLimits

NUM_WAYPOINTS = 8
SEARCH_RANGE = 8.0  # carrot distance for the press-on sweep after a lost hold

HOLD = "hold"  # invalid token: head for the last valid cell
STOP = "stop"  # invalid token: stand still
INVALID_MODES = (HOLD, STOP)


@dataclass(frozen=True)
class PolicySettings(Record):
    """The planner settings of a run: the follow distance, and what an invalid token does."""

    standoff: Annotated[float, Range(1.0, 3.0)] = 2.0  # within the follow band
    invalid_mode: Literal[INVALID_MODES] = HOLD


def advance_hold(hold: Optional[PolarPoint], cmd: Command) -> Optional[PolarPoint]:
    """Propagate the remembered target position through an executed
    motion (rotate by dtheta, then translate v along the new heading).

    A remembered egocentric point goes stale as soon as the agent moves:
    steering at a fixed relative bearing turns the pursuit into a spiral,
    so the point is re-expressed in the new body frame after every
    executed command. None stays None."""
    if hold is None:
        return None
    th = math.radians(hold.theta - cmd.dtheta)
    x = hold.dist * math.cos(th) - cmd.v
    y = hold.dist * math.sin(th)
    # hypot is >= 0, but finite terms can overflow
    return polar_point(math.degrees(math.atan2(y, x)), math.hypot(x, y))


def _first_waypoint(goal_range: float, bearing: float, limits: MotionLimits) -> tuple:
    """Row 0 of ``_segment_plan``: one equal piece of the segment to the goal (none
    when it is shorter than 1e-12), facing the bearing as far as one turn allows."""
    gx = goal_range * math.cos(math.radians(bearing))
    gy = goal_range * math.sin(math.radians(bearing))
    length = math.hypot(gx, gy)
    sx = sy = 0.0
    if length > 1e-12:
        step = min(length / NUM_WAYPOINTS, limits.max_speed)
        sx, sy = gx / length * step, gy / length * step
    return sx, sy, max(-limits.max_turn, min(limits.max_turn, bearing))


def _segment_plan(goal_range: float, bearing: float, limits: MotionLimits) -> np.ndarray:
    """Equal subdivision of the straight segment to the goal. ``bearing``
    is signed degrees; negative goal_range backs away along the bearing."""
    sx, sy, turn = _first_waypoint(goal_range, bearing, limits)
    rows = [(sx, sy, turn)]
    for k in range(2, NUM_WAYPOINTS + 1):
        turn_cap = k * limits.max_turn
        rows.append((sx * k, sy * k, max(-turn_cap, min(turn_cap, bearing))))
    return np.array(rows, dtype=np.float64)


def _scan_plan(limits: MotionLimits) -> np.ndarray:
    return np.array(
        [(0.0, 0.0, min(k * limits.max_turn, 180.0)) for k in range(1, NUM_WAYPOINTS + 1)],
        dtype=np.float64,
    )


@lru_cache(maxsize=256, typed=True)
def _cell_plan(
    token: int, grid: PolarGrid, standoff: float, max_speed: float, max_turn: float
) -> tuple[np.ndarray, PolarPoint]:
    """A valid token's read-only trajectory and its cell centroid. The key
    is typed and holds the limits as numbers, because a zero limit written
    as 0 compares equal to 0.0 yet plans zeros of another sign (a limit
    of -0.0 still shares the entry of 0.0)."""
    p = decode(grid, token)
    traj = plan_from_polar(p, standoff, MotionLimits(max_speed, max_turn))
    traj.flags.writeable = False
    return traj, p


def plan_from_polar(p: PolarPoint, standoff: float, limits: MotionLimits) -> np.ndarray:
    """Plan toward an un-tokenized relative position, pulled back to the
    standoff distance (the no-reasoning arm acts on its first command,
    ``command_toward``)."""
    return _segment_plan(p.dist - standoff, signed_degrees(p.theta), limits)


def plan(
    token: int,
    grid: PolarGrid,
    hold: Optional[PolarPoint],
    policy: PolicySettings,
    limits: MotionLimits,
) -> tuple[np.ndarray, Optional[PolarPoint]]:
    """Trajectory for the current token plus the next hold point: the
    body-frame position of the last valid sighting, or None before one.
    A valid token's trajectory is shared between calls and read-only."""
    if grid.is_valid_token(token):
        return _cell_plan(token, grid, policy.standoff, limits.max_speed, limits.max_turn)
    if token != grid.invalid_index:
        raise ValueError(f"token {token} out of range for grid")
    if policy.invalid_mode == STOP:
        return np.zeros((NUM_WAYPOINTS, 3)), hold
    if hold is None:
        return _scan_plan(limits), None
    # walk into the remembered point, no pull-back: standing off from a
    # stale sighting would stall short of wherever the target went. Once
    # the point is reached with the target still unseen, press on along
    # the current heading: the sighting is stale by however long the
    # target has had to move, so the sweep continues beyond it. The
    # search carrot is re-planted ahead so dead reckoning cannot swing
    # the pursuit back onto the consumed point.
    if hold.dist < 0.5:
        hold = PolarPoint(0.0, SEARCH_RANGE)
    return _segment_plan(hold.dist, signed_degrees(hold.theta), limits), hold


def _command(x1: float, y1: float, th1: float, limits: MotionLimits) -> Command:
    """``execute_first``'s command for the first waypoint ``(x1, y1, th1)``: turn
    toward it, or to its heading when it is within 1e-12 of the origin."""
    length = math.hypot(x1, y1)
    if length < 1e-12:
        v, heading = 0.0, th1
    else:
        v, heading = min(length, limits.max_speed), math.degrees(math.atan2(y1, x1))
    return Command(v=v, dtheta=max(-limits.max_turn, min(limits.max_turn, signed_degrees(heading))))


def execute_first(traj: np.ndarray, limits: MotionLimits) -> Command:
    """Command that reproduces the first waypoint as closely as the
    limits allow (exactly, when it is within them)."""
    if traj.shape != (NUM_WAYPOINTS, 3):
        raise ValueError(f"trajectory must be ({NUM_WAYPOINTS}, 3), got {traj.shape}")
    return _command(*traj[0].tolist(), limits)


def command_toward(p: Optional[PolarPoint], standoff: float, limits: MotionLimits) -> Command:
    """``execute_first(plan_from_polar(p, standoff, limits), limits)``, bit
    for bit, without building the plan; for None, the command of a
    trajectory of zeros (the no-reasoning arm before any sighting)."""
    row = (0.0, 0.0, 0.0) if p is None else _first_waypoint(p.dist - standoff,
                                                            signed_degrees(p.theta), limits)
    return _command(*row, limits)
