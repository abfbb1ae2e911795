"""Deterministic 2D pursuit world.

Discrete time, one command per step, velocities in meters per step. The
agent is a unicycle (rotate, then translate along the new heading); every
other entity follows a scripted closed waypoint loop at per-leg speeds.
Obstacles are convex polygons that block line of sight and collide with
the agent disc. All randomness comes from the per-world generator seeded
at construction, so a (scenario, seed, command sequence) triple replays
bit-exactly.

Public constructors check their values. The step loop builds the agent's
pose and the sightings, which it derives from checked values, with
``trusted_pose`` and ``polar.trusted_point``; it keeps inline only the
finiteness test that an overflow can still fail.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Annotated, NamedTuple, Optional

import numpy as np

from .polar import PolarPoint, trusted_point, wrap_degrees
from .records import FieldError, Range, Record

TARGET = "target"
DISTRACTOR = "distractor"


@dataclass(frozen=True, slots=True, init=False)
class Pose2D:
    x: float
    y: float
    heading: float  # degrees in [0, 360)

    def __init__(self, x: float, y: float, heading: float):
        if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(heading)):
            raise ValueError("pose must be finite")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "heading", wrap_degrees(heading))


_SET_X, _SET_Y, _SET_HEADING = Pose2D.x.__set__, Pose2D.y.__set__, Pose2D.heading.__set__


def trusted_pose(x: float, y: float, heading: float) -> Pose2D:
    """``Pose2D(x, y, heading)`` without its checks and wrapping, for
    finite ``x`` and ``y`` and a ``heading`` already in [0, 360)."""
    p = object.__new__(Pose2D)
    _SET_X(p, x)
    _SET_Y(p, y)
    _SET_HEADING(p, heading)
    return p


@dataclass(frozen=True)
class MotionLimits(Record):
    # zero is legal: an agent that may not move or turn
    max_speed: Annotated[float, Range(0.0)] = 0.25  # m/step
    max_turn: Annotated[float, Range(0.0)] = 30.0  # deg/step

    def check_within(self, bound: "MotionLimits", whose: str) -> None:
        """Raise a ``FieldError`` naming the first limit set above
        ``bound``, the limits ``whose`` world enforces."""
        for name in ("max_speed", "max_turn"):
            v, b = getattr(self, name), getattr(bound, name)
            if v > b:
                raise FieldError(name, f"{v!r} is above {whose} limit {b!r}")


@dataclass(frozen=True, slots=True)
class Command:
    v: float
    dtheta: float


def relative_polar(pose: Pose2D, point) -> PolarPoint:
    """Bearing (ccw from heading) and range of a world point as seen from
    a pose."""
    dx, dy = point[0] - pose.x, point[1] - pose.y
    theta, dist = math.degrees(math.atan2(dy, dx)) - pose.heading, math.hypot(dx, dy)
    # PolarPoint's checks inline: hypot is >= 0, but finite coordinates can overflow dx
    if not (math.isfinite(theta) and math.isfinite(dist)):
        raise ValueError(f"non-finite polar point ({theta}, {dist})")
    return trusted_point(wrap_degrees(theta), dist)


class Entity:
    """A scripted actor: the target or a look-alike distractor.

    ``path`` is a closed loop of world waypoints; ``speeds[i]`` is the
    speed while walking toward ``path[i]``. ``leg`` indexes the waypoint
    currently being approached. Both are checked as arrays at
    construction and kept as lists of floats, which ``advance`` walks. The
    position is two plain floats, ``x`` and ``y``, that start at
    ``position`` and that ``advance`` updates in place.
    """

    def __init__(self, id: int, kind: str, position: tuple[float, float], radius: float,
                 appearance: np.ndarray, path: np.ndarray, speeds: np.ndarray, leg: int = 1):
        if kind not in (TARGET, DISTRACTOR):
            raise ValueError(f"unknown entity kind {kind!r}")
        if radius <= 0:
            raise ValueError("entity radius must be positive")
        path = np.asarray(path, dtype=np.float64)  # (P, 2)
        speeds = np.asarray(speeds, dtype=np.float64)  # (P,)
        if path.ndim != 2 or path.shape[1] != 2 or len(path) < 1:
            raise ValueError("path must be a (P, 2) array")
        if speeds.shape != (len(path),):
            raise ValueError("need one speed per path waypoint")
        # a finite start, waypoints and speeds keep every position advance() walks to finite
        if not (np.isfinite(position).all() and np.isfinite(path).all()
                and np.isfinite(speeds).all()):
            raise ValueError("start position, path and speeds must be finite")
        # advance() walks no farther than the leg's speed: a negative one freezes the entity
        if (speeds < 0).any():
            raise ValueError("speeds must be >= 0")
        self.path, self.speeds = path.tolist(), speeds.tolist()
        self.appearance = np.asarray(appearance, dtype=np.float64)
        if self.appearance.ndim != 1 or not np.isfinite(self.appearance).all():
            raise ValueError("appearance must be a finite 1-D vector")
        self.id, self.kind, self.radius, self.leg = id, kind, radius, leg
        self.x, self.y = position

    def advance(self):
        """Walk one step along the loop, wrapping at the end. Crossing a
        waypoint mid-step carries the leftover distance onto the next leg
        (capped at that leg's speed, so a step never moves farther than
        the fastest leg involved)."""
        path, speeds, leg = self.path, self.speeds, self.leg
        x, y = self.x, self.y
        remaining = speeds[leg]
        for _ in range(len(path) + 1):
            if remaining <= 0.0:
                break
            tx, ty = path[leg]
            d = math.hypot(tx - x, ty - y)
            if d > remaining:
                x += (tx - x) / d * remaining
                y += (ty - y) / d * remaining
                remaining = 0.0
            else:
                x, y = tx, ty
                remaining -= d
                leg = (leg + 1) % len(path)
                remaining = min(remaining, speeds[leg])
        self.x, self.y, self.leg = x, y, leg


@dataclass(frozen=True)
class Obstacle:
    """Convex polygon, stored counterclockwise."""

    vertices: np.ndarray  # (V, 2)

    def __post_init__(self):
        v = np.asarray(self.vertices, dtype=np.float64)
        if v.ndim != 2 or v.shape[1] != 2 or len(v) < 3:
            raise ValueError("obstacle needs >= 3 vertices")
        area2 = _signed_area2(v)
        if abs(area2) < 1e-12:
            raise ValueError("degenerate obstacle polygon")
        if area2 < 0:
            v = v[::-1].copy()
        n = len(v)
        for i in range(n):
            a, b, c = v[i], v[(i + 1) % n], v[(i + 2) % n]
            if _cross(a, b, c) <= 0:
                raise ValueError("obstacle polygon must be strictly convex")
        object.__setattr__(self, "vertices", v)
        # axis-aligned bounds for cheap rejection in the hot predicates
        object.__setattr__(self, "bounds", (*v.min(axis=0).tolist(), *v.max(axis=0).tolist()))

    @classmethod
    def rect(cls, x0: float, y0: float, x1: float, y1: float) -> "Obstacle":
        return cls(np.array([[x0, y0], [x1, y0], [x1, y1], [x0, y1]]))

    def contains(self, p) -> bool:
        """Strict interior test."""
        v = self.vertices
        n = len(v)
        return all(_cross(v[i], v[(i + 1) % n], p) > 0 for i in range(n))

    def distance_to(self, p) -> float:
        """Distance from a point to the polygon (0 inside)."""
        if self.contains(p):
            return 0.0
        v = self.vertices
        n = len(v)
        return min(_point_segment_dist(p, v[i], v[(i + 1) % n]) for i in range(n))


def _signed_area2(v: np.ndarray) -> float:
    x, y = v[:, 0], v[:, 1]
    return float(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)))


def _cross(a, b, c) -> float:
    return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])


def _point_segment_dist(p, a, b) -> float:
    ax, ay = a
    bx, by = b
    px, py = p
    dx, dy = bx - ax, by - ay
    den = dx * dx + dy * dy
    t = 0.0 if den == 0 else max(0.0, min(1.0, ((px - ax) * dx + (py - ay) * dy) / den))
    return math.hypot(px - (ax + t * dx), py - (ay + t * dy))


def _proper_intersect(p, q, a, b) -> bool:
    """True iff open segments (p,q) and (a,b) cross strictly. Touching at
    an endpoint or grazing a vertex does not count."""
    d1 = _cross(p, q, a)
    d2 = _cross(p, q, b)
    d3 = _cross(a, b, p)
    d4 = _cross(a, b, q)
    return d1 * d2 < 0 and d3 * d4 < 0


class Sighting(NamedTuple):
    """One entity as the agent stands right now: its position in agent
    polar coordinates and whether the agent has line of sight to it."""

    entity: Entity
    rel: PolarPoint
    los: bool


@dataclass(slots=True)
class StepEvents:
    """What one world step produced: collision flag (and who) and the
    exact post-step target position in agent polar coordinates."""

    collided: bool
    collided_with: Optional[str]
    target_rel: PolarPoint


class World:
    """Mutable episode state. One world per episode; the owning runner is
    the only mutator. ``sightings`` (one per entity, in entity order; the
    target's at ``target_index``) describe the current poses: they are
    refreshed at construction and after every step, and everything else reads them."""

    def __init__(
        self,
        agent: Pose2D,
        entities: list[Entity],
        obstacles: list[Obstacle],
        rng: np.random.Generator,
        agent_radius: float = 0.3,
        limits: MotionLimits = MotionLimits(),
        max_steps: int = 500,
    ):
        targets = [e for e in entities if e.kind == TARGET]
        if len(targets) != 1:
            raise ValueError(f"world needs exactly 1 target, got {len(targets)}")
        if len({e.appearance.shape for e in entities}) > 1:
            raise ValueError("entity appearances must all have one shape")
        # the ending rule ends the episode on the step that reaches the cap
        if isinstance(max_steps, bool) or not (
                isinstance(max_steps, (int, float)) and max_steps >= 1 and max_steps % 1 == 0):
            raise FieldError("max_steps", f"must be a whole number >= 1, got {max_steps!r}")
        self.agent = agent
        self.agent_radius = agent_radius
        self.entities = entities
        self.obstacles = obstacles
        self.rng = rng
        self.limits = limits
        self.max_steps = max_steps
        self.step_index = 0
        self.target = targets[0]
        self.target_index = entities.index(self.target)
        self._sight()

    @property
    def terminated(self) -> bool:
        return self.step_index >= self.max_steps

    def line_of_sight(self, a, b) -> bool:
        """True iff the open segment between two points crosses no
        obstacle. Grazing a vertex exactly does not block."""
        ax, ay = a[0], a[1]
        bx, by = b[0], b[1]
        mid = None
        for obs in self.obstacles:
            x0, y0, x1, y1 = obs.bounds
            if (
                max(ax, bx) < x0
                or min(ax, bx) > x1
                or max(ay, by) < y0
                or min(ay, by) > y1
            ):
                continue
            v = obs.vertices
            n = len(v)
            for i in range(n):
                if _proper_intersect(a, b, v[i], v[(i + 1) % n]):
                    return False
            # segment threading the interior through two vertices
            if mid is None:
                mid = ((ax + bx) / 2.0, (ay + by) / 2.0)
            if obs.contains(mid):
                return False
        return True

    def step(self, cmd: Command) -> StepEvents:
        """Turn and move the agent by ``cmd``, advance every entity, refresh
        the sightings, then check for collisions at the new poses, entities
        first (from the sightings' ranges). Collisions are checked
        after each step only, not along the paths between steps: no
        entity moves more than the 0.6 m contact distance relative to the
        agent in one step (about 0.5 m at most over the scenario suite;
        ``tests/test_world.py`` checks this and that no contact falls
        between steps)."""
        if self.terminated:
            raise RuntimeError(f"step on terminated world (step {self.step_index})")
        eps = 1e-9
        # written so that NaN fails: every comparison with it is false
        if not abs(cmd.v) <= self.limits.max_speed + eps:
            raise ValueError(f"speed v={cmd.v} is outside the limit {self.limits.max_speed}")
        if not abs(cmd.dtheta) <= self.limits.max_turn + eps:
            raise ValueError(f"turn dtheta={cmd.dtheta} is outside the limit {self.limits.max_turn}")

        # rotate, then translate along the new heading
        heading = wrap_degrees(self.agent.heading + cmd.dtheta)
        rad = math.radians(heading)
        x = self.agent.x + cmd.v * math.cos(rad)
        y = self.agent.y + cmd.v * math.sin(rad)
        # the limits pass only finite commands: the heading is finite, x and y can overflow
        if not (math.isfinite(x) and math.isfinite(y)):
            raise ValueError("pose must be finite")
        self.agent = trusted_pose(x, y, heading)

        for e in self.entities:
            e.advance()

        self.step_index += 1
        self._sight()

        collided_with: Optional[str] = None
        for s in self.sightings:
            # rel.dist is the agent-entity distance
            if s.rel.dist < self.agent_radius + s.entity.radius:
                collided_with = f"{s.entity.kind}:{s.entity.id}"
                break
        else:
            ax, ay = apos = (self.agent.x, self.agent.y)
            r = self.agent_radius
            for k, obs in enumerate(self.obstacles):
                x0, y0, x1, y1 = obs.bounds
                if ax < x0 - r or ax > x1 + r or ay < y0 - r or ay > y1 + r:
                    continue
                if obs.distance_to(apos) < r:
                    collided_with = f"obstacle:{k}"
                    break

        return StepEvents(collided_with is not None, collided_with,
                          self.sightings[self.target_index].rel)

    def _sight(self) -> None:
        agent = self.agent
        apos = (agent.x, agent.y)
        self.sightings = [
            Sighting(e, relative_polar(agent, (e.x, e.y)), self.line_of_sight(apos, (e.x, e.y)))
            for e in self.entities
        ]
