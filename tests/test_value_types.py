"""The slotted value types built per entity per step keep the behaviour
of plain dataclasses: equality, hashing, repr, pickling and
``dataclasses.replace``, with frozen fields and validating constructors."""

import dataclasses
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polartrack.gating import ConfidenceTrace, SparseLogits, confidence, trusted_trace
from polartrack.memory import TargetMemory
from polartrack.perception import (
    CameraRig,
    NoiseStream,
    PerceptionParams,
    ReasonerOutput,
    observe,
    view_masks,
)
from polartrack.polar import PolarGrid, PolarPoint, trusted_point, wrap_degrees
from polartrack.world import (
    TARGET,
    Command,
    Entity,
    MotionLimits,
    Pose2D,
    StepEvents,
    World,
    trusted_pose,
)

finite = st.floats(-1e6, 1e6)
FROZEN = {
    PolarPoint: st.builds(PolarPoint, finite, st.floats(0.0, 1e6)),
    Pose2D: st.builds(Pose2D, finite, finite, finite),
    Command: st.builds(Command, finite, finite),
    ConfidenceTrace: st.builds(ConfidenceTrace, st.integers(0, 10**6), finite),
}
MUTABLE = {
    StepEvents: st.builds(StepEvents, st.booleans(), st.none() | st.text(max_size=8),
                          FROZEN[PolarPoint]),
    ReasonerOutput: st.builds(
        ReasonerOutput,
        st.builds(SparseLogits, st.just(5), finite, st.dictionaries(st.integers(0, 3), finite)),
        st.integers(0, 4),
        st.none(),
    ),
}


@pytest.mark.parametrize("cls", list(FROZEN), ids=lambda c: c.__name__)
@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_frozen_value_semantics(cls, data):
    v = data.draw(FROZEN[cls])
    assert not hasattr(v, "__dict__")
    names = [f.name for f in dataclasses.fields(cls)]
    copy = cls(*(getattr(v, n) for n in names))
    assert copy == v and hash(copy) == hash(v)
    assert repr(v) == f"{cls.__name__}({', '.join(f'{n}={getattr(v, n)!r}' for n in names)})"
    assert pickle.loads(pickle.dumps(v)) == v
    assert dataclasses.replace(v) == v
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(v, names[0], 1.0)
    # a name that is no field has no slot either (Python 3.11 reports it
    # as a TypeError from the frozen __setattr__)
    with pytest.raises((dataclasses.FrozenInstanceError, AttributeError, TypeError)):
        v.extra = 1.0


@pytest.mark.parametrize("cls", list(MUTABLE), ids=lambda c: c.__name__)
@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_mutable_value_semantics(cls, data):
    v = data.draw(MUTABLE[cls])
    assert not hasattr(v, "__dict__")
    assert pickle.loads(pickle.dumps(v)) == v
    assert dataclasses.replace(v) == v
    assert repr(v).startswith(f"{cls.__name__}(")
    with pytest.raises(AttributeError):
        v.extra = 1.0


def test_constructors_validate_and_wrap():
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="non-finite polar point"):
            PolarPoint(bad, 1.0)
        with pytest.raises(ValueError, match="non-finite polar point"):
            PolarPoint(0.0, bad)
        for args in ((bad, 0.0, 0.0), (0.0, bad, 0.0), (0.0, 0.0, bad)):
            with pytest.raises(ValueError, match="pose must be finite"):
                Pose2D(*args)
    with pytest.raises(ValueError, match="negative distance"):
        PolarPoint(0.0, -1e-9)
    # keywords, and replace, go through the same constructor
    assert PolarPoint(theta=-90.0, dist=2.0) == PolarPoint(270.0, 2.0)
    assert dataclasses.replace(PolarPoint(10.0, 2.0), theta=-90.0).theta == 270.0
    assert dataclasses.replace(Pose2D(1.0, 2.0, 0.0), heading=720.5).heading == wrap_degrees(720.5)
    with pytest.raises(ValueError, match="negative distance"):
        dataclasses.replace(PolarPoint(10.0, 2.0), dist=-1.0)


def test_grid_constants_are_not_fields():
    g = PolarGrid(0.5, 4.5, 36, 20)
    assert (g.angle_width, g.dist_width, g.n_cells, g.invalid_index, g.vocab_size) == (
        10.0, 0.2, 720, 720, 721)
    assert g.to_dict() == {"r_min": 0.5, "r_max": 4.5, "n_angle": 36, "n_dist": 20}
    assert g == PolarGrid(0.5, 4.5, 36, 20) and hash(g) == hash(PolarGrid(0.5, 4.5, 36, 20))
    # replace and pickle recompute or carry the constants with the fields
    r = dataclasses.replace(g, n_angle=72)
    assert (r.angle_width, r.n_cells, r.vocab_size) == (5.0, 1440, 1441)
    assert pickle.loads(pickle.dumps(g)).vocab_size == 721


TRUSTED = {PolarPoint: trusted_point, Pose2D: trusted_pose, ConfidenceTrace: trusted_trace}


@pytest.mark.parametrize("cls", list(TRUSTED), ids=lambda c: c.__name__)
@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_a_trusted_build_is_the_checked_value(cls, data):
    v = data.draw(FROZEN[cls])
    t = TRUSTED[cls](*(getattr(v, f.name) for f in dataclasses.fields(cls)))
    assert type(t) is cls and not hasattr(t, "__dict__")
    assert t == v and hash(t) == hash(v) and repr(t) == repr(v)
    assert pickle.dumps(t) == pickle.dumps(v) and pickle.loads(pickle.dumps(t)) == v
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(t, dataclasses.fields(cls)[0].name, 1.0)


@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_trusted_logits_are_the_checked_ones(data):
    v = data.draw(MUTABLE[ReasonerOutput]).logits
    t = SparseLogits.trusted(v)
    assert type(t) is SparseLogits and t == v and repr(t) == repr(v)
    assert pickle.dumps(t) == pickle.dumps(v) and pickle.loads(pickle.dumps(t)) == v
    for logits in (t, v):  # a dict field: neither hashes
        with pytest.raises(TypeError):
            hash(logits)


def target_at(x, y, appearance=(1.0, 0.0)):
    return Entity(0, TARGET, (x, y), 0.3, np.array(appearance), np.array([[x, y]]),
                  np.array([0.0]), leg=0)


def test_each_moved_check_fires_on_the_same_input():
    # the sightings: two finite coordinates whose difference overflows
    with pytest.raises(ValueError, match="non-finite polar point"):
        World(Pose2D(-1e308, 0.0, 0.0), [target_at(1e308, 0.0)], [], np.random.default_rng(0))
    # the agent's pose: a step past the largest float
    top = 1.7976931348623157e308
    w = World(Pose2D(top, 0.0, 0.0), [target_at(top, 3.0)], [], np.random.default_rng(0),
              limits=MotionLimits(max_speed=1e300))
    with pytest.raises(ValueError, match="pose must be finite"):
        w.step(Command(1e300, 0.0))
    # the logits: a score and an invalid entry that overflow, which the parent
    # code let through observe and rejected in confidence
    grid, rig = PolarGrid(), CameraRig.ring(4)
    for params, seen, match in (
        (PerceptionParams(detect_score=1e308, sim_temperature=1e308), True,
         "non-finite detection score inf"),
        (PerceptionParams(invalid_bias=1e308, no_detection_bonus=1e308), False,
         "non-finite invalid logit inf"),
    ):
        w = World(Pose2D(0.0, 0.0, 0.0), [target_at(2.0 if seen else 9.0, 0.0)], [],
                  np.random.default_rng(0))
        with pytest.raises(ValueError, match=match):
            confidence(observe(w, view_masks(w, rig, grid), TargetMemory.empty(), grid, params,
                               NoiseStream(w.rng, params)).logits)
