import dataclasses
import json
import math
import re
import types
import typing

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polartrack.config import RunConfig, ScenarioRun
from polartrack.episodes import (
    ARMS,
    AgentRuntime,
    AgentSettings,
    EpisodeHeader,
    FrameRecord,
    VisibilityRules,
)
from polartrack.metrics import ArmResult, EpisodeOutcome, MetricRules, SuiteReport
from polartrack.perception import CameraRig, CameraView, PerceptionParams
from polartrack.polar import PolarGrid
from polartrack.policy import INVALID_MODES, PolicySettings
from polartrack.records import FieldError, Range, Record, check
from polartrack.scenarios import SCENARIO_NAMES, WORLD_LIMITS, ScenarioSpec
from polartrack.world import MotionLimits

finite = st.floats(allow_nan=False, allow_infinity=False)
positive = st.floats(0.0, 1e6)
views = st.builds(CameraView, finite, st.floats(1e-3, 360.0))

RECORDS = {
    PolarGrid: st.tuples(st.floats(1e-3, 1e3), st.floats(1e-3, 1e3), st.integers(1, 720),
                         st.integers(1, 200))
    .filter(lambda t: t[0] < t[1])
    .map(lambda t: PolarGrid(*t)),
    CameraView: views,
    CameraRig: st.lists(views, min_size=1, max_size=8).map(lambda v: CameraRig(tuple(v))),
    PerceptionParams: st.builds(
        PerceptionParams, positive, positive, st.floats(1e-3, 1e3), st.floats(0.0, 1.0),
        finite, finite, positive, finite, finite,
    ),
    MetricRules: st.builds(MetricRules, positive, positive, positive, positive,
                           st.integers(0, 10**6), st.tuples(positive, positive).map(sorted)
                           .map(tuple)),
    VisibilityRules: st.builds(VisibilityRules, positive),
    MotionLimits: st.builds(MotionLimits, positive, positive),
    # explicit family values; only dt and obstacle take distractors
    ScenarioSpec: st.sampled_from(SCENARIO_NAMES).flatmap(
        lambda name: st.builds(ScenarioSpec, st.just(name),
                               st.integers(0, 10) if name in ("dt", "obstacle") else st.just(0),
                               st.floats(0.0, 5.0), st.integers(1, 64), st.integers(1, 10_000))
    ),
    EpisodeOutcome: st.builds(EpisodeOutcome, st.booleans(), finite, st.booleans(),
                              st.integers(0, 10**6), st.sampled_from(("cap", "collision", "lost"))),
    ArmResult: st.builds(ArmResult, st.text(), st.text(), st.integers(0, 10**6), finite, finite,
                         finite, finite, st.lists(st.integers(0, 2**32 - 1))),
}
RECORDS[SuiteReport] = st.lists(RECORDS[ArmResult], max_size=3).map(SuiteReport)
RECORDS[PolicySettings] = st.builds(PolicySettings, st.floats(1.0, 3.0),
                                    st.sampled_from(INVALID_MODES))
# the agent's settings as keyword strategies, shared by the records that hold them
SETTINGS = dict(
    zip(("grid", "rig", "perception", "rules", "limits", "vis_rules", "policy"),
        map(RECORDS.get, (PolarGrid, CameraRig, PerceptionParams, MetricRules, MotionLimits,
                          VisibilityRules, PolicySettings))),
    count_invalid_in_mean=st.booleans(),
)
RUNTIME = dict(SETTINGS, arm=st.sampled_from(ARMS), log_topk=st.integers(0, 2000))
RECORDS[AgentSettings] = st.builds(AgentSettings, **SETTINGS)
RECORDS[AgentRuntime] = st.builds(AgentRuntime, **RUNTIME)
RECORDS[EpisodeHeader] = st.builds(
    EpisodeHeader, scenario=st.none() | RECORDS[ScenarioSpec], seed=st.integers(0),
    max_steps=st.integers(1), expert=st.text(), **RUNTIME,
)
RECORDS[ScenarioRun] = st.builds(
    lambda spec, n: ScenarioRun(**ScenarioSpec.values_of(spec), episodes=n),
    RECORDS[ScenarioSpec], st.integers(1, 1000),
)
RECORDS[RunConfig] = st.builds(
    RunConfig, master_seed=st.integers(min_value=0), jobs=st.integers(1, 64),
    # each arm runs once, and a run's logs are named after its scenario,
    # so arms and scenario names are unique
    arms=st.lists(st.sampled_from(ARMS), min_size=1, unique=True),
    scenarios=st.lists(RECORDS[ScenarioRun], min_size=1, max_size=4,
                       unique_by=lambda r: r.name),
    # the agent may not plan beyond the limits the scenario worlds enforce
    **dict(SETTINGS, limits=st.builds(MotionLimits, st.floats(0.0, WORLD_LIMITS.max_speed),
                                      st.floats(0.0, WORLD_LIMITS.max_turn))),
)
RECORDS[FrameRecord] = st.builds(
    lambda gt_polar, **kw: FrameRecord(gt_invalid=gt_polar is None, gt_polar=gt_polar, **kw),
    step=st.integers(),
    agent=st.tuples(finite, finite, finite),
    target=st.tuples(finite, finite),
    target_rel=st.tuples(finite, finite),
    view_visible=st.lists(st.booleans(), max_size=4),
    gt_polar=st.none() | st.tuples(finite, finite),
    gt_token=st.integers(),
    token=st.integers(),
    confidence=finite,
    expert_traj=st.lists(st.tuples(finite, finite, finite), max_size=8),
    mem_digest=st.text(),
    mem_slot0=st.none() | st.lists(finite, max_size=3),
    collided=st.booleans(),
    logits_topk=st.none() | st.lists(st.tuples(st.integers(), finite), max_size=8),
)


def subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from subclasses(sub)


def test_every_record_has_a_strategy():
    assert set(subclasses(Record)) == set(RECORDS)


@pytest.mark.parametrize("cls", list(RECORDS), ids=lambda c: c.__name__)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_record_round_trips(cls, data):
    r = data.draw(RECORDS[cls])
    # directly, where sequences are still tuples, and through JSON text
    assert cls.from_dict(r.to_dict()) == r
    assert cls.from_dict(json.loads(json.dumps(r.to_dict()))) == r


def test_no_record_codes_itself():
    # the fields are the schema: one reader and one writer serve every record
    for cls in subclasses(Record):
        assert not {"to_dict", "from_dict"} & vars(cls).keys(), cls.__name__


# values of a scalar field's own JSON type that a record may reject
EDGE_VALUES = {int: (-1, 0, 10**9), float: (math.nan, math.inf, -math.inf, -1.0, 0.0, 1e9)}


def edge_values(tp) -> tuple:
    """The values tried for a field annotated ``tp``: an int or float,
    optional or not; () for any other annotation."""
    if typing.get_origin(tp) in (typing.Union, types.UnionType):
        (tp,) = [a for a in typing.get_args(tp) if a is not type(None)]
    return EDGE_VALUES.get(tp, ())


@pytest.mark.parametrize("cls", list(RECORDS), ids=lambda c: c.__name__)
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_a_rejected_value_names_its_field(cls, data):
    r = data.draw(RECORDS[cls])
    hints = typing.get_type_hints(cls)
    for f in dataclasses.fields(cls):
        for v in edge_values(hints[f.name]):
            try:
                dataclasses.replace(r, **{f.name: v})
            except FieldError as e:
                assert re.match(rf"{f.name}($|[.\[])", e.path), (f.name, v, str(e))


def test_a_scenario_run_is_its_spec_and_a_count():
    run = ScenarioRun("dt", max_steps=40, episodes=3)
    assert run.spec == ScenarioSpec("dt", max_steps=40) and type(run.spec) is ScenarioSpec
    assert list(run.to_dict()) == [*ScenarioSpec("dt").to_dict(), "episodes"]
    # episodes defaults to 1
    assert ScenarioRun.from_dict({"name": "dt", "max_steps": 40}) == dataclasses.replace(
        run, episodes=1)


def test_unset_scenario_fields_are_written_resolved():
    spec = ScenarioSpec("dt")
    again = ScenarioSpec.from_dict(spec.to_dict())
    assert again.to_dict() == spec.to_dict()
    assert (again.n_distractors, again.sigma_app) == (3, 0.35)


def test_check_types():
    from typing import Optional

    assert check(float, 3) == 3.0 and type(check(float, 3)) is float
    assert check(Optional[int], None) is None
    assert check(tuple[float, ...], [1, 2.5]) == (1.0, 2.5)
    for tp, value in ((float, True), (int, False), (int, 2.0), (bool, 1), (str, 1),
                      (tuple[float, float], [1.0]), (tuple[float, ...], 1.0)):
        with pytest.raises(FieldError, match="'x'"):
            check(tp, value, "x")


def test_errors_name_the_faulty_item():
    for tp, value, path in (
        (list[tuple[int, float]], [[1, 2.0], [1, "2"]], "x[1][1]"),
        (tuple[float, ...], [1.0, None], "x[1]"),
        (CameraRig, {"views": [{"yaw": 0.0, "fov": 90.0}, {"yaw": "0"}]}, "x.views[1].yaw"),
    ):
        with pytest.raises(FieldError, match=re.escape(f"'{path}'")):
            check(tp, value, "x")


# a record of each class that has required fields, every field in its domain
BASES = {
    CameraView: CameraView(0.0, 90.0),
    CameraRig: CameraRig.ring(4),
    ScenarioSpec: ScenarioSpec("dt"),
    ScenarioRun: ScenarioRun("dt"),
    EpisodeHeader: EpisodeHeader(scenario=None, seed=0, max_steps=10, expert=""),
}
# fields that a hand-written rule also reads, so a value in the field's
# declared domain may still be rejected: r_min < r_max, no distractors in
# stt or winding, and a log_topk that is an int
JOINED = {(PolarGrid, "r_min"), (PolarGrid, "r_max"), (ScenarioSpec, "name"),
          (ScenarioRun, "name"), (AgentRuntime, "log_topk"), (EpisodeHeader, "log_topk")}


def in_range(rng: Range, v) -> bool:
    return math.isfinite(v) and (rng.lo < v if rng.lo_open else rng.lo <= v) and v <= rng.hi


def not_optional(tp):
    if typing.get_origin(tp) in (typing.Union, types.UnionType):
        (tp,) = [a for a in typing.get_args(tp) if a is not type(None)]
    return tp


def edge_cases(tp, value):
    """(value, whether it is in the domain) pairs at the edges of the
    domain that the field annotation ``tp`` declares; ``value`` is the
    field's value in a valid record."""
    if not_optional(tp) is not tp:
        tp = not_optional(tp)
        yield None, True
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin is typing.Literal:
        yield from ((c, True) for c in args)
        yield "elsewhere", False
    elif origin is typing.Annotated:
        (rng,), inner = tp.__metadata__, args[0]
        kind = typing.get_origin(inner)
        if kind in (list, tuple):  # the range bounds the item count
            counts = {rng.lo - 1, rng.lo, rng.hi, rng.hi + 1} - {math.inf}
            yield from ((kind(value[:1] * n), in_range(rng, n)) for n in counts if n >= 0)
            yield from ((kind([v]), ok) for v, ok in edge_cases(typing.get_args(inner)[0], None))
            return
        for bound in {rng.lo, rng.hi} - {-math.inf, math.inf}:
            for v in (bound, math.nextafter(bound, -math.inf), math.nextafter(bound, math.inf)):
                yield v, in_range(rng, v)
        yield from ((v, False) for v in (math.nan, math.inf, -math.inf))
        if inner is int:  # an int past a float's range is not finite either
            yield 10**400, False


def declares(tp) -> bool:
    return typing.get_origin(tp) in (typing.Annotated, typing.Literal) or any(
        map(declares, typing.get_args(tp)))


def as_json(v):
    if isinstance(v, Record):
        return v.to_dict()
    return [as_json(x) for x in v] if isinstance(v, (list, tuple)) else v


DECLARED = [(cls, name, tp) for cls in RECORDS
            for name, tp in typing.get_type_hints(cls, include_extras=True).items()
            if declares(tp)]
# the declared fields that are counts
INTS = [(cls, name) for cls, name, tp in DECLARED
        if typing.get_origin(not_optional(tp)) is typing.Annotated
        and typing.get_args(not_optional(tp))[0] is int]


@pytest.mark.parametrize("cls, name, tp", DECLARED, ids=[f"{c.__name__}.{n}" for c, n, _ in DECLARED])
def test_a_declared_domain_is_checked_at_its_edges(cls, name, tp):
    base = BASES.get(cls) or cls()
    names_field = re.compile(rf"{name}($|\[)")
    for v, inside in edge_cases(tp, getattr(base, name)):
        try:
            dataclasses.replace(base, **{name: v})
        except FieldError as e:
            assert not inside and names_field.match(e.path) or inside and (cls, name) in JOINED, (
                name, v, str(e))
        else:
            assert inside, (name, v)
        if not inside:
            # the same value read from JSON is rejected too, by its type or its domain
            with pytest.raises(FieldError) as err:
                cls.from_dict({**as_json(base), name: as_json(v)})
            assert names_field.match(err.value.path), (name, v, str(err.value))


@pytest.mark.parametrize("cls, name", INTS, ids=[f"{c.__name__}.{n}" for c, n in INTS])
def test_a_declared_count_takes_no_bool_or_whole_float_from_json(cls, name):
    base = BASES.get(cls) or cls()
    for v in (True, 1.0):
        with pytest.raises(FieldError) as err:
            cls.from_dict({**as_json(base), name: v})
        assert err.value.path == name


@pytest.mark.parametrize("build, field", [
    (lambda: MetricRules(lost_patience=math.nan), "lost_patience"),
    (lambda: ScenarioSpec("dt", max_steps=math.nan), "max_steps"),
    (lambda: PolarGrid(n_angle=math.nan), "n_angle"),
    (lambda: RunConfig(jobs=math.nan), "jobs"),
], ids=["lost_patience", "max_steps", "n_angle", "jobs"])
def test_a_nan_count_is_rejected(build, field):
    # each was accepted; a NaN lost_patience switched the lost ending off,
    # because a run of steps is never > nan
    with pytest.raises(FieldError) as err:
        build()
    assert err.value.path == field


def test_a_record_that_declares_nothing_runs_no_check():
    # FrameRecord is built once per recorded step
    for cls in (FrameRecord, EpisodeOutcome, ArmResult, SuiteReport, AgentSettings):
        assert not hasattr(cls, "__post_init__"), cls.__name__
