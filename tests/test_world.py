import math
import pickle

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from polartrack.config import RunConfig
from polartrack.runner import ARMS, run_episode
from polartrack.scenarios import SCENARIO_NAMES, ScenarioSpec, make_scenario
from polartrack.world import (
    Command,
    Entity,
    MotionLimits,
    Obstacle,
    Pose2D,
    World,
    relative_polar,
)


def discs_collide(p1, r1: float, p2, r2: float) -> bool:
    return math.hypot(p1[0] - p2[0], p1[1] - p2[1]) < r1 + r2


def position(e: Entity) -> tuple[float, float]:
    return (e.x, e.y)


def make_entity(eid=0, kind="target", pos=(5.0, 0.0), path=None, speed=0.1, radius=0.3,
                appearance=(1.0, 0.0)):
    path = np.array(path if path is not None else [pos])
    return Entity(
        id=eid,
        kind=kind,
        position=pos,
        radius=radius,
        appearance=np.array(appearance),
        path=path,
        speeds=np.full(len(path), speed),
        leg=0,
    )


def make_world(entities=None, obstacles=None, limits=MotionLimits(1.0, 90.0), max_steps=500):
    if entities is None:
        entities = [make_entity(speed=0.0)]
    return World(
        agent=Pose2D(0.0, 0.0, 0.0),
        entities=entities,
        obstacles=obstacles or [],
        rng=np.random.default_rng(0),
        limits=limits,
        max_steps=max_steps,
    )


def seg_intersection_oracle(p1, p2, p3, p4):
    """Independent parametric segment intersection (open segments)."""
    x1, y1 = p1
    x2, y2 = p2
    x3, y3 = p3
    x4, y4 = p4
    den = (x1 - x2) * (y3 - y4) - (y1 - y2) * (x3 - x4)
    if abs(den) < 1e-15:
        return False
    t = ((x1 - x3) * (y3 - y4) - (y1 - y3) * (x3 - x4)) / den
    u = ((x1 - x3) * (y1 - y2) - (y1 - y3) * (x1 - x2)) / den
    return 1e-12 < t < 1 - 1e-12 and 1e-12 < u < 1 - 1e-12


def test_step_translation():
    w = make_world()
    w.step(Command(v=1.0, dtheta=0.0))
    assert (w.agent.x, w.agent.y) == pytest.approx((1.0, 0.0))
    assert w.step_index == 1


def test_step_rotation_only():
    w = make_world()
    w.step(Command(v=0.0, dtheta=90.0))
    assert (w.agent.x, w.agent.y) == pytest.approx((0.0, 0.0))
    assert w.agent.heading == pytest.approx(90.0)


def test_rotate_then_translate_order():
    w = make_world()
    w.step(Command(v=1.0, dtheta=90.0))
    assert (w.agent.x, w.agent.y) == pytest.approx((0.0, 1.0), abs=1e-12)


def test_collision_at_disc_contact():
    r_agent, r_entity = 0.3, 0.3
    # entity sits just inside contact range after the agent steps forward
    e = make_entity(pos=(1.0 + r_agent + r_entity - 1e-3, 0.0), speed=0.0)
    w = make_world([e])
    ev = w.step(Command(v=1.0, dtheta=0.0))
    assert ev.collided
    assert ev.collided_with == "target:0"
    # disc-intersection oracle
    assert discs_collide((w.agent.x, w.agent.y), r_agent, position(e), r_entity)


def test_collision_symmetry():
    rng = np.random.default_rng(3)
    for _ in range(200):
        p1 = rng.uniform(-2, 2, 2)
        p2 = rng.uniform(-2, 2, 2)
        r1, r2 = rng.uniform(0.1, 1.0, 2)
        assert discs_collide(p1, r1, p2, r2) == discs_collide(p2, r2, p1, r1)


def test_speed_and_turn_limits_enforced():
    w = make_world(limits=MotionLimits(0.25, 30.0))
    with pytest.raises(ValueError):
        w.step(Command(v=0.3, dtheta=0.0))
    with pytest.raises(ValueError):
        w.step(Command(v=0.0, dtheta=31.0))


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", ["v", "dtheta"])
def test_a_non_finite_command_is_rejected_by_its_field(field, value):
    w = make_world(limits=MotionLimits(0.25, 30.0))
    cmd = Command(**{"v": 0.1, "dtheta": 5.0, field: value})
    with pytest.raises(ValueError, match=rf"{field}={value!r} is outside the limit"):
        w.step(cmd)
    # the world stays at its step
    assert w.step_index == 0
    assert w.agent == Pose2D(0.0, 0.0, 0.0)
    w.step(Command(0.1, 5.0))
    assert w.step_index == 1


def test_step_on_terminated_world_raises():
    w = make_world(max_steps=2)
    w.step(Command(0.0, 0.0))
    w.step(Command(0.0, 0.0))
    assert w.terminated
    with pytest.raises(RuntimeError):
        w.step(Command(0.0, 0.0))


def test_entities_never_teleport():
    spec = ScenarioSpec("dt")
    w = make_scenario(spec, 5)
    max_speed = {e.id: max(e.speeds) for e in w.entities}
    prev = {e.id: position(e) for e in w.entities}
    for _ in range(300):
        w.step(Command(0.0, 0.0))
        for e in w.entities:
            d = math.hypot(e.x - prev[e.id][0], e.y - prev[e.id][1])
            assert d <= max_speed[e.id] + 1e-9
            prev[e.id] = position(e)


def test_no_entity_crosses_the_contact_distance_in_one_step(monkeypatch):
    # World.step checks collisions after each step only. That misses no
    # contact as long as no entity moves, relative to the agent, by more
    # than the contact distance in one step; the swept check below also
    # looks for a contact the relative path made between two steps
    step = World.step
    worst, missed = 0.0, []

    def checked(self, cmd):
        nonlocal worst
        before = [(e.x - self.agent.x, e.y - self.agent.y) for e in self.entities]
        events = step(self, cmd)
        for e, (bx, by) in zip(self.entities, before):
            ax, ay = e.x - self.agent.x, e.y - self.agent.y
            dx, dy = ax - bx, ay - by
            moved = math.hypot(dx, dy)
            # relative move as a share of the contact distance
            worst = max(worst, moved / (self.agent_radius + e.radius))
            # the relative path's closest approach to the agent
            t = 0.0 if moved == 0.0 else min(1.0, max(0.0, -(bx * dx + by * dy) / moved**2))
            if math.hypot(bx + t * dx, by + t * dy) < self.agent_radius + e.radius:
                if not events.collided:
                    missed.append((self.step_index, e.id))
        return events

    monkeypatch.setattr(World, "step", checked)
    cfg = RunConfig()
    for name in SCENARIO_NAMES:
        spec = ScenarioSpec(name)
        for arm in ARMS:
            for seed in range(3):
                run_episode(make_scenario(spec, seed), cfg.runtime_for_arm(arm), spec, seed,
                            record=False)
    assert not missed
    # the largest relative move is about 0.5 m, 0.82 of the 0.6 m distance
    assert 0.0 < worst < 1.0, worst


def test_entity_rejects_a_non_finite_path_or_speed():
    for path, speed in (([(0.0, 0.0), (math.nan, 1.0)], 0.1),
                        ([(0.0, 0.0), (1.0, math.inf)], 0.1),
                        ([(0.0, 0.0), (1.0, 1.0)], math.inf),
                        ([(0.0, 0.0), (1.0, 1.0)], math.nan)):
        with pytest.raises(ValueError, match="finite"):
            make_entity(pos=(0.0, 0.0), path=path, speed=speed)


@pytest.mark.parametrize("pos", [(math.nan, 0.0), (0.0, math.inf), (-math.inf, 1.0)],
                         ids=["nan", "inf", "-inf"])
def test_entity_rejects_a_non_finite_start_position(pos):
    with pytest.raises(ValueError, match="finite"):
        make_entity(pos=pos, path=[(0.0, 0.0), (1.0, 0.0)])


@pytest.mark.parametrize("appearance", [
    [1.0, math.nan], [math.inf, 0.0], [-math.inf], [[1.0, 0.0]], 1.0, [[1.0], [0.0]],
], ids=["nan", "inf", "-inf", "2-D row", "0-D", "2-D column"])
def test_entity_rejects_an_appearance_that_is_not_a_finite_vector(appearance):
    with pytest.raises(ValueError, match="appearance must be a finite 1-D vector"):
        make_entity(appearance=appearance)


def test_entity_keeps_a_finite_vector_appearance_as_float64():
    e = make_entity(appearance=[1, 2, 3])
    assert e.appearance.dtype == np.float64 and e.appearance.tolist() == [1.0, 2.0, 3.0]


def test_world_rejects_entities_whose_appearance_shapes_differ():
    target = make_entity(0, appearance=(1.0, 0.0))
    with pytest.raises(ValueError, match="appearances must all have one shape"):
        make_world([target, make_entity(1, "distractor", appearance=(1.0, 0.0, 0.0))])
    # one shape across the entities is fine
    make_world([target, make_entity(1, "distractor", appearance=(0.0, 1.0))])


def test_entity_rejects_a_negative_speed():
    # advance() would never move it: the leg's budget starts below zero
    with pytest.raises(ValueError, match=">= 0"):
        make_entity(pos=(0.0, 0.0), path=[(0.0, 0.0), (5.0, 0.0)], speed=-0.1)
    # a standing entity is legal
    e = make_entity(pos=(0.0, 0.0), path=[(0.0, 0.0), (5.0, 0.0)], speed=0.0)
    e.advance()
    assert position(e) == (0.0, 0.0)


def test_waypoint_wraparound():
    e = make_entity(pos=(0.0, 0.0), path=[(0.0, 0.0), (1.0, 0.0)], speed=0.3)
    w = make_world([e])
    xs = []
    for _ in range(20):
        w.step(Command(0.0, 0.0))
        xs.append(e.x)
    # shuttles back and forth inside [0, 1]
    assert max(xs) <= 1.0 + 1e-9
    assert min(xs) >= -1e-9
    assert any(x < 0.5 for x in xs[5:])


def advance_oracle(e):
    """``Entity.advance`` as it read the ndarray ``path`` and ``speeds``."""
    path, speeds = np.asarray(e.path), np.asarray(e.speeds)
    x, y = e.x, e.y
    remaining = float(speeds[e.leg])
    for _ in range(len(path) + 1):
        if remaining <= 0.0:
            break
        tx, ty = path[e.leg]
        d = math.hypot(tx - x, ty - y)
        if d > remaining:
            x += (tx - x) / d * remaining
            y += (ty - y) / d * remaining
            remaining = 0.0
        else:
            x, y = float(tx), float(ty)
            remaining -= d
            e.leg = (e.leg + 1) % len(path)
            remaining = min(remaining, float(speeds[e.leg]))
    e.x, e.y = x, y


def test_advance_matches_the_ndarray_path_oracle():
    rng = np.random.default_rng(17)
    for _ in range(60):
        n = int(rng.integers(1, 7))
        path = rng.uniform(-4.0, 4.0, size=(n, 2))
        if n > 2:
            path[1] = path[0]  # a zero-length leg
        speeds = rng.choice([0.0, 0.05, 0.3, 2.5, 9.0], size=n)
        leg = int(rng.integers(0, n))
        a, b = (
            Entity(id=0, kind="target", position=(path[0, 0], path[0, 1]), radius=0.3,
                   appearance=np.ones(2), path=path, speeds=speeds, leg=leg)
            for _ in range(2)
        )
        for _ in range(80):
            a.advance()
            advance_oracle(b)
            assert a.leg == b.leg
            got = np.array([a.x, a.y])
            want = np.array([b.x, b.y])
            assert got.tobytes() == want.tobytes()


def test_line_of_sight_no_obstacles():
    w = make_world()
    assert w.line_of_sight((0, 0), (10, 0))


def test_line_of_sight_blocked_by_square():
    square = Obstacle.rect(4.0, -1.0, 6.0, 1.0)
    w = make_world(obstacles=[square])
    assert not w.line_of_sight((0, 0), (10, 0))
    assert w.line_of_sight((0, 2.0), (10, 2.0))
    # oracle cross-check on the blocking edge set
    v = square.vertices
    edges = [(tuple(v[i]), tuple(v[(i + 1) % 4])) for i in range(4)]
    assert any(seg_intersection_oracle((0, 0), (10, 0), a, b) for a, b in edges)


def test_line_of_sight_through_interior_without_edge_crossing():
    square = Obstacle.rect(-1.0, -1.0, 1.0, 1.0)
    w = make_world(obstacles=[square])
    # segment threading exactly through two corners
    assert not w.line_of_sight((-2.0, -2.0), (2.0, 2.0))


def test_line_of_sight_grazing_vertex_passes():
    square = Obstacle.rect(4.0, 0.0, 6.0, 2.0)
    w = make_world(obstacles=[square])
    # the segment y = x - 2 touches the corner (4, 2) tangentially and
    # stays outside the interior: open-segment convention says visible.
    # orientation-predicate oracle: the corner is collinear with the
    # segment, so no strict crossing exists on any edge.
    assert w.line_of_sight((2.0, 0.0), (6.0, 4.0))
    # running exactly along the top edge line, outside the interior
    assert w.line_of_sight((0.0, 2.0), (8.0, 2.0))


def test_obstacle_validation():
    with pytest.raises(ValueError):
        Obstacle(np.array([[0, 0], [1, 0]]))  # too few
    with pytest.raises(ValueError):
        Obstacle(np.array([[0, 0], [1, 0], [2, 0]]))  # degenerate
    with pytest.raises(ValueError):
        Obstacle(np.array([[0, 0], [2, 0], [2, 2], [1, 0.5], [0, 2]]))  # concave
    # clockwise input is normalized to counterclockwise
    o = Obstacle(np.array([[0, 0], [0, 1], [1, 1], [1, 0]]))
    assert o.contains((0.5, 0.5))
    assert not o.contains((1.5, 0.5))
    assert o.distance_to((2.0, 0.5)) == pytest.approx(1.0)
    assert o.distance_to((0.5, 0.5)) == 0.0


def assert_sightings_fresh(w: World):
    """Every sighting equals a fresh computation, bit for bit."""
    apos = (w.agent.x, w.agent.y)
    assert len(w.sightings) == len(w.entities)
    for s, e in zip(w.sightings, w.entities):
        assert s.entity is e
        assert s.rel == relative_polar(w.agent, position(e))
        assert s.los == w.line_of_sight(apos, position(e))
    assert w.sightings[w.target_index].entity is w.target


def test_target_rel_matches_recomputation():
    for name in ("stt", "dt", "obstacle"):
        w = make_scenario(ScenarioSpec(name), 2)
        assert_sightings_fresh(w)
        rng = np.random.default_rng(9)
        for _ in range(50):
            cmd = Command(
                v=float(rng.uniform(0, w.limits.max_speed)),
                dtheta=float(rng.uniform(-w.limits.max_turn, w.limits.max_turn)),
            )
            ev = w.step(cmd)
            assert ev.target_rel == relative_polar(w.agent, position(w.target))
            assert_sightings_fresh(w)


def test_world_requires_one_target():
    with pytest.raises(ValueError):
        World(
            agent=Pose2D(0, 0, 0),
            entities=[],
            obstacles=[],
            rng=np.random.default_rng(0),
        )
    with pytest.raises(ValueError):
        make_world([make_entity(0), make_entity(1)])


def test_scenario_determinism():
    for name in ("stt", "dt", "obstacle", "winding"):
        spec = ScenarioSpec(name)
        w1 = make_scenario(spec, 7)
        w2 = make_scenario(spec, 7)
        assert len(w1.entities) == len(w2.entities)
        for a, b in zip(w1.entities, w2.entities):
            assert (a.x, a.y) == (b.x, b.y)
            assert np.array_equal(a.path, b.path)
            assert np.array_equal(a.appearance, b.appearance)
            assert np.array_equal(a.speeds, b.speeds)
        for oa, ob in zip(w1.obstacles, w2.obstacles):
            assert np.array_equal(oa.vertices, ob.vertices)
        # and the rng stream continues identically
        assert w1.rng.random() == w2.rng.random()


def test_scenario_construction_counts():
    w = make_scenario(ScenarioSpec("dt", n_distractors=3), 1)
    kinds = [e.kind for e in w.entities]
    assert kinds.count("target") == 1
    assert kinds.count("distractor") == 3

    w = make_scenario(ScenarioSpec("stt"), 1)
    assert len(w.entities) == 1
    assert len(w.obstacles) >= 1

    with pytest.raises(ValueError):
        ScenarioSpec("maze")


def test_obstacle_scenario_guarantees_occlusion_from_start_pose():
    for seed in range(5):
        w = make_scenario(ScenarioSpec("obstacle"), seed)
        start = (w.agent.x, w.agent.y)
        blocked = 0
        for _ in range(499):
            w.step(Command(0.0, 0.0))  # agent holds still, world runs
            if not w.line_of_sight(start, position(w.target)):
                blocked += 1
        assert blocked >= 10


def test_distractors_spawn_outside_annulus():
    for name in ("dt", "obstacle"):
        for seed in range(10):
            w = make_scenario(ScenarioSpec(name), seed)
            for e in w.entities:
                if e.kind == "distractor":
                    rel = relative_polar(w.agent, position(e))
                    assert rel.dist > 5.0


coord = st.floats(-8.0, 8.0)
points = st.tuples(coord, coord)


@st.composite
def convex_obstacles(draw):
    """A strictly convex polygon: 3-8 distinct angles on a circle."""
    cx, cy = draw(points)
    radius = draw(st.floats(0.2, 3.0))
    angles = sorted(draw(st.lists(st.floats(0.0, 2 * math.pi, exclude_max=True),
                                  min_size=3, max_size=8, unique=True)))
    gaps = np.diff(angles + [angles[0] + 2 * math.pi])
    assume(gaps.min() > 0.05 and gaps.max() < math.pi - 0.05)
    return Obstacle(np.array([[cx + radius * math.cos(a), cy + radius * math.sin(a)]
                              for a in angles]))


@settings(max_examples=300, deadline=None)
@given(st.lists(convex_obstacles(), max_size=4), points, points)
def test_line_of_sight_is_symmetric(obstacles, a, b):
    w = make_world(obstacles=obstacles)
    assert w.line_of_sight(a, b) == w.line_of_sight(b, a)


commands = st.builds(Command, st.floats(-0.25, 0.25), st.floats(-30.0, 30.0))


@settings(max_examples=30, deadline=None)
@given(
    name=st.sampled_from(("stt", "dt", "obstacle", "winding")),
    seed=st.integers(0, 2**32 - 1),
    cmds=st.lists(commands, min_size=1, max_size=80),
    split=st.integers(0, 80),
)
def test_world_replay_is_bit_exact(name, seed, cmds, split):
    # two worlds from one (scenario, seed) under one command sequence stay
    # equal bit for bit, and so does a pickled copy taken mid-way
    def state(w, events):
        # repr tells -0.0 from 0.0 and shows every bit of a float
        return repr((events, w.agent, [(e.x, e.y, e.leg) for e in w.entities],
                     [(s.rel, s.los) for s in w.sightings]))

    a, b = (make_scenario(ScenarioSpec(name), seed) for _ in range(2))
    for k, cmd in enumerate(cmds):
        if k == split:
            b = pickle.loads(pickle.dumps(b))
        assert state(a, a.step(cmd)) == state(b, b.step(cmd))
    assert a.rng.bit_generator.state == b.rng.bit_generator.state
