"""The slotted value types built per entity per step keep the behaviour
of plain dataclasses: equality, hashing, repr, pickling and
``dataclasses.replace``, with frozen fields and validating constructors."""

import dataclasses
import math
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polartrack.gating import ConfidenceTrace, SparseLogits
from polartrack.perception import ReasonerOutput
from polartrack.polar import PolarGrid, PolarPoint, wrap_degrees
from polartrack.world import Command, Pose2D, StepEvents

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
