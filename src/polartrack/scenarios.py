"""Seeded scenario construction.

Four families, mirroring the benchmark splits this package reproduces at
desk scale:

* ``stt``      one target on a rectangular loop, obstacles off the path
* ``dt``       the stt loop plus look-alike distractors whose own loops
               cross the pursuit zone; distractors spawn outside the
               perceivable annulus so the first valid sighting is always
               the true target
* ``obstacle`` a long wall; the target sprints through the corridor
               behind it, guaranteeing an extended invalid window (first
               out of range, then occluded), with one look-alike loitering
               near the corridor
* ``winding``  serpentine target path, no occluders

Everything is drawn from one ``default_rng(seed)`` in a fixed order, so a
(spec, seed) pair always builds the identical world.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Annotated, Literal, Optional

import numpy as np

from .records import FieldError, Range, Record
from .world import (
    DISTRACTOR,
    TARGET,
    Entity,
    MotionLimits,
    Obstacle,
    Pose2D,
    World,
)

SCENARIO_NAMES = ("stt", "dt", "obstacle", "winding")

ENTITY_RADIUS = 0.3
AGENT_RADIUS = 0.3
# every scenario world enforces these; an agent may not plan beyond them
WORLD_LIMITS = MotionLimits()
# follow equilibrium sits near standoff + 8 * target speed, so this keeps
# a pursuer with default limits comfortably inside the 1-3 m band
TARGET_SPEED = 0.09
SPRINT_SPEED = 0.45  # breakaway speed behind the obstacle wall


# family defaults of the spec fields left None
FAMILY_DISTRACTORS = {"stt": 0, "dt": 3, "obstacle": 1, "winding": 0}
# the obstacle bait must stay distinguishable through the long blind
# window even under per-step feature noise, so its look-alike is
# perturbed much harder
FAMILY_SIGMA_APP = {"stt": 0.35, "dt": 0.35, "obstacle": 0.7, "winding": 0.35}


@dataclass(frozen=True)
class ScenarioSpec(Record):
    """A scenario family and its knobs. ``n_distractors`` and ``sigma_app``
    left None take the family default on construction, so a spec writes
    the values its world is built with."""

    name: Literal[SCENARIO_NAMES]
    n_distractors: Optional[Annotated[int, Range(0)]] = None
    sigma_app: Optional[Annotated[float, Range(0.0)]] = None
    # an empty feature scores every similarity 0; an empty episode cannot be scored
    feature_dim: Annotated[int, Range(1)] = 16
    max_steps: Annotated[int, Range(1)] = 500

    def __post_init__(self):
        if self.n_distractors is None:
            object.__setattr__(self, "n_distractors", FAMILY_DISTRACTORS[self.name])
        if self.sigma_app is None:
            object.__setattr__(self, "sigma_app", FAMILY_SIGMA_APP[self.name])
        if self.n_distractors and self.name in ("stt", "winding"):
            raise FieldError("n_distractors",
                             f"{self.name} takes no distractors, got {self.n_distractors}")


def _unit_feature(rng: np.random.Generator, dim: int) -> np.ndarray:
    v = rng.normal(size=dim)
    return v / np.linalg.norm(v)


def _make_target(path: np.ndarray, speeds: np.ndarray, appearance: np.ndarray) -> Entity:
    return Entity(
        id=0,
        kind=TARGET,
        position=(float(path[0][0]), float(path[0][1])),
        radius=ENTITY_RADIUS,
        appearance=appearance,
        path=path,
        speeds=speeds,
    )


def _make_distractor(
    eid: int,
    rng: np.random.Generator,
    target_app: np.ndarray,
    sigma_app: float,
    path: np.ndarray,
    speed: float,
    spawn_sector: tuple[float, float] = (0.0, 360.0),
    start_leg: int = 0,
) -> Entity:
    """Look-alike that walks in from outside the annulus, then cycles the
    given waypoint loop."""
    appearance = target_app + sigma_app * rng.normal(size=target_app.size)
    spawn_r = rng.uniform(6.5, 9.0)
    spawn_a = np.radians(rng.uniform(*spawn_sector))
    spawn = np.array([spawn_r * np.cos(spawn_a), spawn_r * np.sin(spawn_a)])
    return Entity(
        id=eid,
        kind=DISTRACTOR,
        position=(float(spawn[0]), float(spawn[1])),
        radius=ENTITY_RADIUS,
        appearance=appearance,
        path=path,
        speeds=np.full(len(path), speed),
        leg=start_leg,
    )


def _diamond(center: np.ndarray, s: float) -> np.ndarray:
    cx, cy = center
    return np.array([[cx + s, cy], [cx, cy + s], [cx - s, cy], [cx, cy - s]])


def _parallel_walker(
    loop: np.ndarray, rng: np.random.Generator
) -> tuple[np.ndarray, int]:
    """Two-point shuttle that patrols alongside a random loop edge at a
    small outward offset: close enough to sit in the pursuer's view cone
    (and often nearer than the target it follows), far enough off the
    lane that a non-avoiding follower does not plow into it. Returns the
    shuttle and the index of the endpoint farther from the origin, which
    is the safer walk-in destination."""
    nxt = np.roll(loop, -1, axis=0)
    deltas = nxt - loop
    lengths = np.hypot(*deltas.T)
    i = int(rng.integers(0, len(loop)))
    d = deltas[i] / lengths[i]
    outward = np.array([d[1], -d[0]])  # right of travel = outside for ccw loops
    off = rng.uniform(1.8, 2.4)
    a = loop[i] + outward * off + d * 0.5
    b = nxt[i] + outward * off - d * 0.5
    shuttle = np.array([a, b])
    far = int(np.argmax(np.hypot(shuttle[:, 0], shuttle[:, 1])))
    return shuttle, far


def _jitter(rng: np.random.Generator, lo: float = -0.3, hi: float = 0.3) -> float:
    return float(rng.uniform(lo, hi))


def make_scenario(spec: ScenarioSpec, seed: int) -> World:
    """Deterministic world for a (spec, seed) pair. The agent always
    starts at the origin heading +x with the target 4.2 m dead ahead."""
    rng = np.random.default_rng(seed)
    target_app = _unit_feature(rng, spec.feature_dim)
    n_dist = spec.n_distractors
    sigma = spec.sigma_app

    obstacles: list[Obstacle] = []
    entities: list[Entity] = []

    if spec.name in ("stt", "dt"):
        # rectangular circuit, corners jittered per seed
        w = 6.5 + _jitter(rng, -0.5, 0.5)
        h = 5.0 + _jitter(rng, -0.5, 0.5)
        x0 = 4.2
        loop = np.array(
            [
                [x0, 0.0],
                [x0 + w + _jitter(rng), _jitter(rng)],
                [x0 + w + _jitter(rng), h + _jitter(rng)],
                [x0 + _jitter(rng), h + _jitter(rng)],
            ]
        )
        speed = TARGET_SPEED * rng.uniform(0.9, 1.1)
        entities.append(_make_target(loop, np.full(len(loop), speed), target_app))
        if spec.name == "stt":
            # off-path boxes, well clear of the circuit
            obstacles.append(Obstacle.rect(x0 + 1.0, -4.5, x0 + 3.0, -3.0))
            obstacles.append(Obstacle.rect(x0 + w + 3.5, h - 1.0, x0 + w + 5.0, h + 1.0))
        else:
            for k in range(n_dist):
                shuttle, far = _parallel_walker(loop, rng)
                speed_k = rng.uniform(0.10, 0.15)
                bearing = float(
                    np.degrees(np.arctan2(shuttle[far][1], shuttle[far][0]))
                )
                entities.append(
                    _make_distractor(
                        k + 1,
                        rng,
                        target_app,
                        sigma,
                        shuttle,
                        speed_k,
                        spawn_sector=(bearing - 25.0, bearing + 25.0),
                        start_leg=far,
                    )
                )

    elif spec.name == "obstacle":
        # long wall; the circuit runs south of it, climbs the east side,
        # sprints west through the hidden north corridor, descends west.
        # the wall is low and the east leg stands well clear so a pursuer
        # cutting the corner at standoff range never clips it; the slow
        # descent leg keeps the breakaway window long but lets the target
        # drop back into the annulus of a pursuer holding near the
        # corridor's west half
        # wall placed so every pursuit lane clears it: the south leg runs
        # underneath, the fall-in-behind curve after re-acquisition stays
        # west and below, the post-sprint chase rides above the top, and
        # the east climb leg is hidden from the spawn area behind it.
        # corridor length sets the breakaway window: ~23 out-of-range
        # sprint steps plus ~18 re-close steps, safely past 30 but well
        # inside the lost-termination patience
        wall_x0, wall_x1 = 6.4, 15.8 + _jitter(rng)
        wall = Obstacle.rect(wall_x0, 1.2, wall_x1, 1.8)
        obstacles.append(wall)
        east_x = wall_x1 + 2.6
        west_x = 2.6 + _jitter(rng, -0.2, 0.2)
        cy = 3.9 + _jitter(rng, -0.15, 0.15)
        loop = np.array(
            [
                [4.2, 0.0],
                [east_x, 0.0],
                [east_x, cy],
                [west_x, cy],
                [west_x, 0.0],
            ]
        )
        speeds = np.array([TARGET_SPEED] * 3 + [SPRINT_SPEED] + [0.07])
        entities.append(_make_target(loop, speeds, target_app))
        for k in range(n_dist):
            # loiters high over the corridor's west end: on the annulus
            # fringe of the breakaway march, so a memory-less pursuer
            # gets baited during the blind window while a bootstrapped
            # one correctly reports the target absent. Spawns from the
            # north so the walk-in never crosses the tracking lanes.
            center = np.array([rng.uniform(2.5, 6.5), cy + rng.uniform(3.5, 4.5)])
            entities.append(
                _make_distractor(
                    k + 1,
                    rng,
                    target_app,
                    sigma,
                    _diamond(center, rng.uniform(1.0, 1.6)),
                    rng.uniform(0.10, 0.14),
                    spawn_sector=(60.0, 120.0),
                )
            )

    else:  # winding: ScenarioSpec admits no other name
        amp = 2.2 + _jitter(rng)
        pitch = 2.5 + _jitter(rng)
        xs = 4.2 + pitch * np.arange(5)
        zig = np.stack([xs, amp * np.array([0, 1, -1, 1, -1])], axis=1)
        back = np.array([[xs[-1] + pitch, 0.0], [xs[-1] + pitch, amp + 1.0], [4.2, amp + 1.0]])
        loop = np.vstack([zig, back])
        speed = TARGET_SPEED * rng.uniform(0.9, 1.1)
        entities.append(_make_target(loop, np.full(len(loop), speed), target_app))

    return World(
        agent=Pose2D(0.0, 0.0, 0.0),
        entities=entities,
        obstacles=obstacles,
        rng=rng,
        agent_radius=AGENT_RADIUS,
        limits=WORLD_LIMITS,
        max_steps=spec.max_steps,
    )
