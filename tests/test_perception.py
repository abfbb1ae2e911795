from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polartrack.gating import SparseLogits, confidence
from polartrack.memory import TargetMemory, memory_similarity, update_memory
from polartrack.perception import (
    BLOCK,
    CameraRig,
    CameraView,
    NoiseStream,
    PerceptionParams,
    ReasonerOutput,
    nearest_detection,
    observe,
    view_masks,
)
from polartrack.polar import PolarGrid, PolarPoint, encode, signed_degrees
from polartrack.scenarios import ScenarioSpec, make_scenario
from polartrack.world import (
    Command,
    Entity,
    MotionLimits,
    Obstacle,
    Pose2D,
    Sighting,
    World,
    relative_polar,
)

GRID = PolarGrid()
RING = CameraRig.ring(4)
NOISELESS = PerceptionParams().noiseless()


def entity(eid, kind, pos, appearance):
    return Entity(
        id=eid,
        kind=kind,
        position=pos,
        radius=0.3,
        appearance=np.asarray(appearance, dtype=float),
        path=np.array([pos]),
        speeds=np.array([0.0]),
        leg=0,
    )


def static_world(entities, obstacles=()):
    return World(
        agent=Pose2D(0.0, 0.0, 0.0),
        entities=entities,
        obstacles=list(obstacles),
        rng=np.random.default_rng(0),
        limits=MotionLimits(),
    )


def stream(world, params=NOISELESS):
    return NoiseStream(world.rng, params)


def bootstrapped(appearance):
    mem = TargetMemory.empty()
    tiny = PolarGrid(r_min=1, r_max=2, n_angle=1, n_dist=1)
    logits = np.array([5.0, 0.0])
    return update_memory(mem, 0, confidence(logits), np.asarray(appearance, dtype=float), tiny)


def test_rig_validation_and_coverage():
    with pytest.raises(ValueError):
        CameraRig(views=())
    with pytest.raises(ValueError):
        CameraRig(views=(CameraView(0.0, 0.0),))
    front = CameraRig.front(90.0)
    assert bearing_masks(front, (44.9, 315.1, 46.0, 314.0)) == [1, 1, 0, 0]
    assert bearing_masks(CameraRig.ring(4), (133.0,)) != [0]


def bearing_masks(rig, bearings, dist=3.0):
    """The target's per-view flags (its ``view_masks`` entry with
    ``target_views``) in line of sight at ``dist`` m and each of the given
    bearings (degrees ccw from the agent's heading). Checks on the way
    that every other entity's entry is the lowest of those bits."""
    sightings = [Sighting(None, PolarPoint(theta, dist).theta, dist, True) for theta in bearings]
    full = [view_masks(SimpleNamespace(sightings=[s], target_index=0), rig, GRID, True)[0]
            for s in sightings]
    first = view_masks(SimpleNamespace(sightings=sightings), rig, GRID)
    assert first == [m & -m for m in full]
    return full


def test_view_mask_edges_are_half_the_fov_either_side():
    front = CameraRig.front(90.0)
    assert bearing_masks(front, (45.0, 315.0, 0.0)) == [1, 1, 1]
    assert bearing_masks(front, (45.000001, 314.999999, 180.0)) == [0, 0, 0]


def test_view_mask_sets_a_bit_per_overlapping_view():
    rig = CameraRig(views=(CameraView(0.0, 90.0), CameraView(60.0, 90.0)))
    assert bearing_masks(rig, (30.0, 100.0, 340.0, 200.0)) == [0b11, 0b10, 0b01, 0]
    wide_ring = CameraRig.ring(4, fov=100.0)
    assert bearing_masks(wide_ring, (45.0, 133.0, 120.0)) == [0b0011, 0b0110, 0b0010]


def test_a_360_degree_view_sees_every_bearing():
    rig = CameraRig(views=(CameraView(90.0, 90.0), CameraView(0.0, 360.0)))
    bearings = (0.0, 90.0, 179.9, 180.0, 180.1, 270.0, 359.9)
    assert bearing_masks(rig, bearings) == [0b10, 0b11, 0b10, 0b10, 0b10, 0b10, 0b10]


def covers(view, theta):
    return abs(signed_degrees(theta - view.yaw)) <= view.fov / 2.0


@settings(max_examples=200, deadline=None)
@given(
    yaws=st.lists(st.floats(-720.0, 720.0), min_size=1, max_size=8),
    fovs=st.lists(st.floats(1e-9, 360.0), min_size=8, max_size=8),
    bearings=st.lists(st.floats(0.0, 360.0, exclude_max=True), min_size=1, max_size=8),
)
def test_view_mask_bits_follow_the_signed_bearing_rule(yaws, fovs, bearings):
    # view_masks writes abs(signed_degrees(theta - yaw)) <= fov / 2 out;
    # bearings on and one ulp either side of each edge are checked too
    views = [CameraView(yaw, fov) for yaw, fov in zip(yaws, fovs)]
    for v in views:
        for edge in (v.yaw + v.fov / 2.0, v.yaw - v.fov / 2.0):
            theta = PolarPoint(edge, 1.0).theta
            bearings += [theta, np.nextafter(theta, 0.0), np.nextafter(theta, 360.0)]
    bearings = [PolarPoint(float(b), 1.0).theta for b in bearings]
    masks = bearing_masks(CameraRig(views=tuple(views)), bearings)
    for theta, mask in zip(bearings, masks):
        assert mask == sum(1 << i for i, v in enumerate(views) if covers(v, theta)), theta


def test_view_mask_of_an_occluded_entity_is_zero():
    app = np.ones(2)
    wall = Obstacle.rect(1.0, -0.5, 1.4, 0.5)
    w = static_world([entity(0, "target", (3.0, 0.0), app),
                      entity(1, "distractor", (0.0, 3.0), app)], [wall])
    assert [s.los for s in w.sightings] == [False, True]
    for target_views in (False, True):
        assert view_masks(w, RING, GRID, target_views) == [0, 0b0010]
        assert view_masks(w, CameraRig(views=(CameraView(0.0, 360.0),)), GRID,
                          target_views) == [0, 1]


def test_view_mask_outside_the_annulus_is_zero():
    app = np.ones(2)
    inside = [(GRID.r_min, 0.0), (GRID.r_max, 0.0), (0.0, 2.0)]
    outside = [(GRID.r_min - 0.01, 0.0), (GRID.r_max + 0.01, 0.0), (0.0, -7.0)]
    w = static_world([entity(i, "target" if i == 0 else "distractor", pos, app)
                      for i, pos in enumerate(inside + outside)])
    for target_views in (False, True):
        assert view_masks(w, RING, GRID, target_views) == [0b0001, 0b0001, 0b0010, 0, 0, 0]


def observable_oracle(s, rig):
    """Line of sight, inside the annulus and inside some view, written
    with ``signed_degrees``."""
    return (s.los and GRID.r_min <= s.dist <= GRID.r_max
            and any(covers(v, s.theta) for v in rig.views))


@pytest.mark.parametrize("name", ["dt", "obstacle"])
def test_a_nonzero_mask_means_the_entity_is_observable(name):
    # every entity of a world driven around obstacles and look-alikes, on the
    # 4-view ring, on a single front view and on overlapping views with a gap
    overlapping = CameraRig(views=(CameraView(0.0, 100.0), CameraView(80.0, 100.0),
                                   CameraView(200.0, 60.0)))
    rigs = (RING, CameraRig.front(90.0), overlapping)
    w = make_scenario(ScenarioSpec(name, n_distractors=3), 1)
    rng = np.random.default_rng(2)
    seen = unseen = 0
    for _ in range(150):
        for rig in rigs:
            for target_views in (False, True):
                masks = view_masks(w, rig, GRID, target_views)
                assert len(masks) == len(w.sightings)
                for i, (s, m) in enumerate(zip(w.sightings, masks)):
                    assert (m != 0) == observable_oracle(s, rig), (i, m)
                    if target_views and i == w.target_index:
                        assert m == sum(1 << j for j, v in enumerate(rig.views)
                                        if m and covers(v, s.theta))
                    else:
                        assert m & (m - 1) == 0  # at most one bit: the first view's
                    seen += m != 0
                    unseen += m == 0
        w.step(Command(float(rng.uniform(-0.25, 0.25)), float(rng.uniform(-30.0, 30.0))))
    assert seen > 0 and unseen > 0


def test_nothing_observable_yields_invalid():
    app = np.ones(4)
    wall = Obstacle.rect(1.0, -2.0, 1.4, 2.0)
    w = static_world([entity(0, "target", (3.0, 0.0), app)], [wall])
    out = observe(w, view_masks(w, RING, GRID), TargetMemory.empty(), GRID, NOISELESS, stream(w))
    assert out.token == GRID.invalid_index
    assert out.candidate is None
    # the no-detection bonus dominates the distribution
    assert np.argmax(out.logits.dense()) == GRID.invalid_index


def test_single_target_matches_encode_oracle():
    app = np.array([1.0, 0.0, 0.0, 0.0])
    w = static_world([entity(0, "target", (2.5, 1.0), app)])
    mem = bootstrapped(app)
    out = observe(w, view_masks(w, RING, GRID), mem, GRID, NOISELESS, stream(w))
    expected = encode(GRID, relative_polar(w.agent, (2.5, 1.0)))
    assert out.token == expected
    assert out.candidate == pytest.approx(app)
    assert confidence(out.logits) > 0.85


def test_identical_distractor_lowers_confidence():
    app = np.array([1.0, 0.0])
    solo = static_world([entity(0, "target", (2.5, 1.0), app)])
    out_solo = observe(solo, view_masks(solo, RING, GRID), bootstrapped(app), GRID, NOISELESS,
                       stream(solo))

    pair = static_world(
        [
            entity(0, "target", (2.5, 1.0), app),
            entity(1, "distractor", (2.5, -1.0), app),  # mirrored, equidistant
        ]
    )
    out_pair = observe(pair, view_masks(pair, RING, GRID), bootstrapped(app), GRID, NOISELESS,
                       stream(pair))

    t_cell = encode(GRID, relative_polar(pair.agent, (2.5, 1.0)))
    d_cell = encode(GRID, relative_polar(pair.agent, (2.5, -1.0)))
    dense = out_pair.logits.dense()
    assert dense[t_cell] == pytest.approx(dense[d_cell])
    assert confidence(out_pair.logits) < confidence(out_solo.logits)


def test_visibility_soundness():
    app = np.array([1.0, 0.0])
    w = static_world(
        [
            entity(0, "target", (2.0, 0.5), app),
            entity(1, "distractor", (3.0, -2.0), app),
            entity(2, "distractor", (9.0, 0.0), app),  # out of range
        ]
    )
    out = observe(w, view_masks(w, RING, GRID), TargetMemory.empty(), GRID, NOISELESS, stream(w))
    observable_cells = {
        encode(GRID, relative_polar(w.agent, (2.0, 0.5))),
        encode(GRID, relative_polar(w.agent, (3.0, -2.0))),
    }
    nonzero = set(np.nonzero(out.logits.dense())[0].tolist()) - {GRID.invalid_index}
    assert nonzero <= observable_cells


def test_single_front_view_restriction():
    app = np.array([1.0, 0.0])
    front = CameraRig.front(90.0)
    for theta in (60.0, 120.0, 180.0, 250.0, 300.0):
        rel = PolarPoint(theta, 3.0)
        pos = (
            3.0 * np.cos(np.radians(theta)),
            3.0 * np.sin(np.radians(theta)),
        )
        w = static_world([entity(0, "target", pos, app)])
        out = observe(w, view_masks(w, front, GRID), bootstrapped(app), GRID, NOISELESS, stream(w))
        assert out.token == GRID.invalid_index, f"theta={theta}"


def test_look_alike_alone_reads_as_target_absent():
    # bootstrapped memory + only a dissimilar look-alike in view: the
    # invalid bias outranks the detection and the memory stays protected
    target_app = np.zeros(16)
    target_app[0] = 1.0
    # cosine against the target is exactly 0.45, below the absence cutoff
    lookalike_app = 0.45 * target_app + np.sqrt(1 - 0.45**2) * np.eye(16)[1]
    w = static_world([entity(1, "target", (9.0, 9.0), target_app),
                      entity(2, "distractor", (2.5, 0.0), lookalike_app)])
    out = observe(w, view_masks(w, RING, GRID), bootstrapped(target_app), GRID, NOISELESS,
                  stream(w))
    assert out.token == GRID.invalid_index
    assert out.candidate is None


def test_detectability_dropout():
    app = np.array([1.0, 0.0])
    params = PerceptionParams(
        angle_noise=0.0, dist_noise=0.0, feature_noise=0.0, base_detectability=0.0
    )
    w = static_world([entity(0, "target", (2.5, 0.0), app)])
    out = observe(w, view_masks(w, RING, GRID), TargetMemory.empty(), GRID, params,
                  stream(w, params))
    assert out.token == GRID.invalid_index


def test_determinism_given_rng_state():
    app = np.arange(8.0)
    params = PerceptionParams()
    w1 = static_world([entity(0, "target", (2.5, 1.2), app)])
    w2 = static_world([entity(0, "target", (2.5, 1.2), app)])
    o1 = observe(w1, view_masks(w1, RING, GRID), bootstrapped(app), GRID, params,
                 NoiseStream(np.random.default_rng(42), params))
    o2 = observe(w2, view_masks(w2, RING, GRID), bootstrapped(app), GRID, params,
                 NoiseStream(np.random.default_rng(42), params))
    assert o1.token == o2.token
    assert o1.logits == o2.logits
    assert np.array_equal(o1.candidate, o2.candidate)


def test_memory_benefit_over_random_distractor_fields():
    # argmax accuracy with a bootstrapped memory must beat the empty-
    # memory (kind-blind) accuracy across many crowded configurations
    rng = np.random.default_rng(99)
    params = PerceptionParams()
    hits_mem, hits_empty, n = 0, 0, 220
    for _ in range(n):
        app = rng.normal(size=16)
        app /= np.linalg.norm(app)
        tpos = (rng.uniform(1.5, 4.0), rng.uniform(-2.0, 2.0))
        ents = [entity(0, "target", tpos, app)]
        for k in range(3):
            dpos = (rng.uniform(1.0, 4.5), rng.uniform(-3.0, 3.0))
            dapp = app + 0.35 * rng.normal(size=16)
            ents.append(entity(k + 1, "distractor", dpos, dapp))
        true_cell = encode(GRID, relative_polar(Pose2D(0, 0, 0), tpos))

        w = static_world(ents)
        out = observe(w, view_masks(w, RING, GRID), bootstrapped(app), GRID, params,
                      NoiseStream(np.random.default_rng(1000 + _), params))
        hits_mem += out.token == true_cell

        w = static_world(ents)
        out = observe(w, view_masks(w, RING, GRID), TargetMemory.empty(), GRID, params,
                      NoiseStream(np.random.default_rng(1000 + _), params))
        hits_empty += out.token == true_cell
    assert hits_mem > hits_empty


def test_nearest_detection_returns_closest():
    app = np.array([1.0, 0.0])
    w = static_world(
        [
            entity(0, "target", (3.5, 0.0), app),
            entity(1, "distractor", (2.0, 1.0), app),
        ]
    )
    raw = nearest_detection(w, view_masks(w, RING, GRID), NOISELESS, stream(w))
    expected = relative_polar(w.agent, (2.0, 1.0))
    assert raw.dist == pytest.approx(expected.dist)
    assert raw.theta == pytest.approx(expected.theta)

    blocked = static_world(
        [entity(0, "target", (3.5, 0.0), app)],
        [Obstacle.rect(1.0, -1.0, 1.5, 1.0)],
    )
    masks = view_masks(blocked, RING, GRID)
    assert nearest_detection(blocked, masks, NOISELESS, stream(blocked)) is None


def test_perception_params_validation():
    with pytest.raises(ValueError):
        PerceptionParams(angle_noise=-1.0)
    with pytest.raises(ValueError):
        PerceptionParams(sim_temperature=0.0)
    with pytest.raises(ValueError):
        PerceptionParams(base_detectability=1.5)


def test_perception_params_reject_non_finite():
    for name in ("invalid_bias", "angle_noise", "no_detection_bonus"):
        for bad in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ValueError, match=name):
                PerceptionParams(**{name: bad})


def observe_oracle(world, rig, mem, grid, params, rng):
    """``observe`` as it read before its noise became one draw per
    detection: scalar angle and range draws, then the feature draw, and
    the rig's coverage asked of each view in turn."""
    cell_owner = {}
    detected_any = False
    for s in world.sightings:
        if not (grid.r_min <= s.dist <= grid.r_max and s.los
                and any(covers(v, s.theta) for v in rig.views)):
            continue
        if params.base_detectability < 1.0 and rng.random() >= params.base_detectability:
            continue
        detected_any = True
        theta = s.theta + rng.normal() * params.angle_noise
        dist = s.dist + rng.normal() * params.dist_noise
        dist = min(max(dist, grid.r_min), grid.r_max)
        cell = encode(grid, PolarPoint(theta, dist))
        feat = s.entity.appearance
        if params.feature_noise > 0.0:
            feat = feat + rng.normal(size=feat.size) * params.feature_noise
        if mem.is_empty:
            sim = params.empty_mem_similarity
        else:
            sim = memory_similarity(mem, feat)
        score = params.detect_score + params.sim_temperature * sim
        best = cell_owner.get(cell)
        if best is None or score > best[0]:
            cell_owner[cell] = (score, feat)

    invalid = params.invalid_bias
    if not detected_any:
        invalid += params.no_detection_bonus
    logits = SparseLogits(
        grid.vocab_size,
        invalid,
        {cell: max(0.0, score) for cell, (score, _) in cell_owner.items()},
    )
    token = grid.invalid_index
    if cell_owner:
        def rank(item):
            cell, (score, _) = item
            a, r = divmod(cell, grid.n_dist)
            return (score, -min(a, grid.n_angle - a), -r, -cell)

        best_cell, (best_score, _) = max(cell_owner.items(), key=rank)
        if best_score >= invalid:
            token = best_cell
    candidate = None if token == grid.invalid_index else cell_owner[token][1]
    return ReasonerOutput(logits=logits, token=token, candidate=candidate)


class CountingRng:
    """A generator that counts the normals it hands out."""

    def __init__(self, rng):
        self.rng, self.normals = rng, 0

    def random(self):
        return self.rng.random()

    def normal(self, size=None):
        self.normals += 1 if size is None else size
        return self.rng.normal(size=size)


def check_draws(noise, oracle_rng):
    """The stream consumed what the oracle did: the same generator state
    where the stream draws only what is asked (detectability below 1),
    else the same count of normals handed out."""
    if noise.p < 1.0:
        assert noise.rng.bit_generator.state == oracle_rng.rng.bit_generator.state
    else:
        assert noise.taken == oracle_rng.normals


def output_bytes(out: ReasonerOutput):
    lg = out.logits
    return (
        lg.size,
        list(lg.cells),
        np.array([lg.invalid, *lg.cells.values()]).tobytes(),
        out.token,
        None if out.candidate is None else out.candidate.tobytes(),
    )


@settings(max_examples=40, deadline=None)
@given(
    name=st.sampled_from(("dt", "obstacle")),
    seed=st.integers(0, 2**32 - 1),
    steps=st.integers(1, 60),
    detectability=st.sampled_from((1.0, 0.8, 0.3)),
    feature_noise=st.sampled_from((0.05, 0.0)),
    rig=st.sampled_from((RING, CameraRig.front(120.0))),
    turns=st.lists(st.floats(-30.0, 30.0), min_size=1, max_size=8),
)
def test_observe_matches_the_scalar_draw_oracle(
    name, seed, steps, detectability, feature_noise, rig, turns
):
    # the same output after every call, and the same draws (``check_draws``),
    # along a pursuit where the memory follows the outputs; one stream serves
    # the whole pursuit, as in an episode, so its blocks run out on the way
    params = PerceptionParams(base_detectability=detectability, feature_noise=feature_noise)
    w = make_scenario(ScenarioSpec(name), seed)
    noise = NoiseStream(np.random.default_rng(seed), params)
    oracle_rng = CountingRng(np.random.default_rng(seed))
    mem = TargetMemory.empty()
    for k in range(steps):
        out = observe(w, view_masks(w, rig, GRID), mem, GRID, params, noise)
        want = observe_oracle(w, rig, mem, GRID, params, oracle_rng)
        assert output_bytes(out) == output_bytes(want)
        check_draws(noise, oracle_rng)
        mem = update_memory(mem, out.token, confidence(out.logits), out.candidate, GRID)
        w.step(Command(w.limits.max_speed, turns[k % len(turns)]))
        if w.terminated:
            break


def at_bearing(eid, theta, dist, appearance):
    t = np.radians(theta)
    return entity(eid, "distractor" if eid else "target", (dist * np.cos(t), dist * np.sin(t)),
                  appearance)


# (bearing, range) of each entity; sectors are 6 degrees and rings 0.147 m wide on GRID
TIES = {
    # sectors 5 and 55 (= n_angle - 5), one ring: the lower index wins
    "mirrored_sectors": [(333.0, 3.0), (33.0, 3.0)],
    "mirrored_sectors_reversed": [(33.0, 3.0), (333.0, 3.0)],
    # mirrored sectors on different rings: the nearer ring wins over the lower index
    "mirrored_sectors_far_and_near": [(33.0, 4.0), (333.0, 2.0)],
    # one sector, different rings
    "one_sector_two_rings": [(3.0, 4.0), (3.0, 2.0)],
    # sector 0 on a far ring against sector 59 on a near one: dead-ahead comes first
    "ahead_beats_near": [(357.0, 2.0), (3.0, 4.0)],
    # two detections in one cell (sector 5, ring 16)
    "one_cell": [(33.2, 3.0), (33.4, 3.02)],
    "one_cell_and_a_tie": [(333.0, 3.0), (33.2, 3.0), (33.4, 3.02)],
}


@pytest.mark.parametrize("layout", TIES.values(), ids=TIES.keys())
@pytest.mark.parametrize("params", [NOISELESS, PerceptionParams()], ids=["noiseless", "noisy"])
def test_observe_breaks_ties_as_the_oracle_does(layout, params):
    # an empty memory scores every detection alike, so the argmax falls to
    # the tie rule; a memory that knows the last entity breaks it by score
    apps = [np.eye(4)[k] + 0.5 for k in range(len(layout))]
    for mem in (TargetMemory.empty(), bootstrapped(apps[-1])):
        for seed in range(5):
            w = static_world([at_bearing(k, *where, a) for k, (where, a)
                              in enumerate(zip(layout, apps))])
            noise = NoiseStream(np.random.default_rng(seed), params)
            oracle_rng = CountingRng(np.random.default_rng(seed))
            out = observe(w, view_masks(w, RING, GRID), mem, GRID, params, noise)
            want = observe_oracle(w, RING, mem, GRID, params, oracle_rng)
            assert output_bytes(out) == output_bytes(want)
            check_draws(noise, oracle_rng)
            scores = list(out.logits.cells.values())
            if mem.is_empty and params is NOISELESS:
                # the layout does tie: fewer cells than detections, or equal cell scores
                assert len(scores) < len(layout) or len(set(scores)) < len(scores)
                assert out.token != GRID.invalid_index


def test_a_non_finite_detection_score_fails_the_episode():
    # scores near the float maximum: the empty memory's stand-in similarity
    # keeps the first score finite, the bootstrapped target's similarity of
    # about 1 overflows it. Clamped into a 0.0 logit it would read as
    # "target absent" with the target in plain view. The score is checked
    # where it is made.
    from polartrack.runner import AgentRuntime, run_episode

    target = entity(0, "target", (2.0, 0.0), np.ones(16))
    runtime = AgentRuntime(perception=PerceptionParams(detect_score=8e307, sim_temperature=1e308))
    with pytest.raises(RuntimeError, match=r"^episode failed at step 2: ") as failed:
        run_episode(static_world([target]), runtime)
    assert isinstance(failed.value.__cause__, ValueError)
    assert "non-finite detection score inf" in str(failed.value.__cause__)


def test_a_memory_whose_norm_overflows_still_tracks():
    # every norm of a 1e160 vector overflows; the similarity is the cosine
    # of the scaled vectors, so the target in plain view keeps a valid token
    # and the episode goes as it does for a unit-scale appearance
    from polartrack.runner import AgentRuntime, run_episode

    def run(appearance):
        target = entity(0, "target", (2.0, 0.0), appearance)
        return run_episode(static_world([target]), AgentRuntime())

    with np.errstate(over="ignore"):
        log = run(np.full(16, 1e160))
    assert not any(f.gt_invalid or f.token == GRID.invalid_index for f in log.frames)
    assert log.outcome.reason == "cap" and log.outcome == run(np.ones(16)).outcome


@pytest.mark.parametrize("arm", ["full", "no_tim", "no_cot"])
def test_an_overflowing_noisy_bearing_fails_the_episode_by_name(arm):
    # a finite angle_noise times a normal can overflow the bearing; every arm
    # names it as a non-finite polar point rather than leaving it to the
    # wrap, whose fmod(inf, 360) reads "math domain error"
    from polartrack.runner import AgentRuntime, run_episode

    target = entity(0, "target", (2.0, 0.0), np.ones(16))
    runtime = AgentRuntime(arm=arm, perception=PerceptionParams(angle_noise=1e308))
    with pytest.raises(RuntimeError, match=r"^episode failed at step \d+: ") as failed:
        run_episode(static_world([target]), runtime)
    assert isinstance(failed.value.__cause__, ValueError)
    assert str(failed.value.__cause__).startswith(("non-finite polar point (inf, ",
                                                   "non-finite polar point (-inf, "))


def scalar_draws(rng, n):
    return np.array([rng.normal() for _ in range(n)])


def test_the_stream_hands_out_scalar_draws_across_block_ends():
    # rows of 2 + feature_dim (observe with feature noise on) and rows of 2
    # (nearest_detection), interleaved as the full and no_cot arms take them,
    # over three blocks: the floats and the scaled feature noise are those of
    # scalar draws, bit for bit, also for a row that straddles a block end
    params = PerceptionParams(feature_noise=0.05)
    noise = NoiseStream(np.random.default_rng(7), params)
    oracle = np.random.default_rng(7)
    rows = [18, 18, 2, 18, 2, 2, 18, 18, 18, 2]
    taken = straddles = 0
    while taken < 3 * BLOCK:
        for n in rows:
            straddles += 0 < noise.drawn - noise.taken < n
            i = noise.take(n)
            want = scalar_draws(oracle, n)
            assert np.array(noise.z[i:i + n]).tobytes() == want.tobytes()
            assert noise.scaled[i + 2:i + n].tobytes() == (want[2:] * 0.05).tobytes()
            taken += n
            assert noise.taken == taken
    assert straddles and noise.drawn % BLOCK == 0


def test_without_feature_noise_a_detection_reads_no_scaled_values():
    # two normals per detection, no scaled block to read, and the candidate
    # is the winner's own appearance
    params = PerceptionParams(feature_noise=0.0)
    apps = [np.eye(4)[0] + 0.5, np.eye(4)[1] + 0.5]
    w = static_world([entity(0, "target", (2.5, 0.0), apps[0]),
                      entity(1, "distractor", (2.0, 1.5), apps[1])])
    noise = stream(w, params)
    out = observe(w, view_masks(w, RING, GRID), bootstrapped(apps[0]), GRID, params, noise)
    assert noise.scaled is None and noise.taken == 4
    assert out.candidate is w.entities[0].appearance


@pytest.mark.parametrize("detectability", [0.0, 0.3, 0.7, 0.999])
def test_below_full_detectability_the_stream_draws_only_what_is_asked(detectability):
    # the uniforms sit between the normals, so after every draw the generator
    # is where scalar draws leave it
    params = PerceptionParams(base_detectability=detectability)
    noise = NoiseStream(np.random.default_rng(3), params)
    oracle = np.random.default_rng(3)
    for k in range(300):
        assert noise.detects() == (oracle.random() < detectability)
        assert noise.rng.bit_generator.state == oracle.bit_generator.state
        n = 18 if k % 3 else 2
        i = noise.take(n)
        want = scalar_draws(oracle, n)
        assert np.array(noise.z[i:i + n]).tobytes() == want.tobytes()
        assert noise.scaled[i + 2:i + n].tobytes() == (want[2:] * params.feature_noise).tobytes()
        assert noise.rng.bit_generator.state == oracle.bit_generator.state


def test_at_full_detectability_the_detectability_draw_takes_nothing():
    noise = NoiseStream(np.random.default_rng(3), PerceptionParams())
    state = noise.rng.bit_generator.state
    assert all(noise.detects() for _ in range(10))
    assert noise.rng.bit_generator.state == state and noise.drawn == 0
