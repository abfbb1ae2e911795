from dataclasses import replace

import pytest

from polartrack.gating import SparseLogits, confidence
from polartrack.memory import TargetMemory, update_memory
from polartrack.metrics import MetricRules, StepResult
from polartrack.perception import CameraRig, PerceptionParams
from polartrack.polar import PolarGrid
from polartrack.policy import INVALID_MODES, PolicySettings, advance_hold, execute_first, plan
from polartrack.records import FieldError
from polartrack import runner
from polartrack.runner import ARMS, AgentRuntime, run_episode
from polartrack.scenarios import SCENARIO_NAMES, ScenarioSpec, make_scenario
from polartrack.world import Pose2D, World

GRID = PolarGrid()


def runtime(arm="full", noiseless=False, **kwargs):
    params = PerceptionParams().noiseless() if noiseless else PerceptionParams()
    return AgentRuntime(
        arm=arm, grid=GRID, rig=CameraRig.ring(4), perception=params, rules=MetricRules(), **kwargs
    )


def test_unknown_arm_is_rejected():
    for arm in ARMS:
        assert runtime(arm).arm == arm
    with pytest.raises(ValueError, match="half"):
        runtime("half")


@pytest.mark.parametrize("log_topk", [-1, 8.0, 2.5, True])
def test_a_log_topk_that_is_not_a_count_is_rejected(log_topk):
    # 8.0 and 2.5 used to fail in step 0's frame building with a bare
    # TypeError; True ran and failed only when the log was written
    with pytest.raises(FieldError) as err:
        runtime(log_topk=log_topk)
    assert err.value.path == "log_topk"


def test_stt_noiseless_succeeds_end_to_end():
    spec = ScenarioSpec("stt")
    for seed in (0, 1, 2):
        log = run_episode(make_scenario(spec, seed), runtime(noiseless=True), spec, seed)
        assert log.outcome.success
        assert log.outcome.episode_length == 500


def test_requires_fresh_world():
    spec = ScenarioSpec("stt")
    w = make_scenario(spec, 0)
    from polartrack.world import Command

    w.step(Command(0.0, 0.0))
    with pytest.raises(ValueError):
        run_episode(w, runtime(), spec, 0)


def test_limits_above_the_worlds_fail_before_the_first_step():
    from polartrack.world import MotionLimits

    spec = ScenarioSpec("stt")
    for limits in (MotionLimits(0.5, 30.0), MotionLimits(0.25, 31.0)):
        w = make_scenario(spec, 0)
        with pytest.raises(ValueError, match="above the world's limit"):
            run_episode(w, runtime(limits=limits), spec, 0)
        assert w.step_index == 0
    # up to the world's own limits the episode runs
    w = make_scenario(spec, 0)
    run_episode(w, runtime(limits=MotionLimits(0.25, 30.0)), spec, 0)


def test_line_of_sight_once_per_entity_per_step(monkeypatch):
    calls = 0
    los = World.line_of_sight

    def counting(self, a, b):
        nonlocal calls
        calls += 1
        return los(self, a, b)

    monkeypatch.setattr(World, "line_of_sight", counting)
    for name, arm in (("stt", "full"), ("dt", "full"), ("dt", "no_cot")):
        spec = ScenarioSpec(name, max_steps=60)
        calls = 0
        w = make_scenario(spec, 1)
        log = run_episode(w, runtime(arm), spec, 1)
        # one sighting per entity at construction and after every step
        assert calls == (len(log.frames) + 1) * len(w.entities), (name, arm)


class Yaw(float):
    """A view's yaw that reports every bearing subtracted from it."""

    def __new__(cls, value, index, seen):
        yaw = super().__new__(cls, value)
        yaw.index, yaw.seen = index, seen
        return yaw

    def __rsub__(self, bearing):
        self.seen(bearing, self.index)
        return bearing - float(self)

    def __sub__(self, bearing):
        self.seen(bearing, self.index)
        return float(self) - bearing


@pytest.mark.parametrize("record", [True, False])
@pytest.mark.parametrize("arm", ARMS)
def test_each_bearing_meets_each_view_at_most_once_per_step(arm, record):
    # every bearing-versus-view comparison subtracts a view's yaw from a
    # sighting's bearing; each is keyed by (step, entity, view)
    keys = []

    def seen(bearing, view):
        (entity,) = [j for j, s in enumerate(w.sightings) if s.rel.theta == bearing]
        keys.append((w.step_index, entity, view))

    ring = CameraRig.ring(4)
    rig = CameraRig(views=tuple(replace(v, yaw=Yaw(v.yaw, i, seen))
                                for i, v in enumerate(ring.views)))
    spec = ScenarioSpec("dt", max_steps=60)
    w = make_scenario(spec, 3)
    log = run_episode(w, replace(runtime(arm), rig=rig), spec, 3, record=record)
    assert log.outcome == run_episode(make_scenario(spec, 3), runtime(arm), spec, 3).outcome
    steps = len(log.frames)
    assert len(keys) == len(set(keys))
    assert len(keys) <= steps * len(w.entities) * len(rig.views)
    assert {k[0] for k in keys} == set(range(steps))


def test_each_reasoner_output_is_scored_once(monkeypatch):
    # the memory takes the confidence the step that produced the output
    # computed, so the logits' softmax runs once per observe step
    calls = 0
    terms = SparseLogits.softmax_terms

    def counting(self):
        nonlocal calls
        calls += 1
        return terms(self)

    monkeypatch.setattr(SparseLogits, "softmax_terms", counting)
    spec = ScenarioSpec("dt", max_steps=80)
    log = run_episode(make_scenario(spec, 2), runtime("full"), spec, 2)
    assert log.frames[-1].mem_digest != "empty"
    assert calls == len(log.frames)


def test_memory_frozen_through_occlusion_window():
    spec = ScenarioSpec("obstacle")
    log = run_episode(make_scenario(spec, 1), runtime(), spec, 1)
    frames = log.frames
    # find the long invalid stretch of acted tokens and check the memory
    # digest never changes from one step after the stretch begins
    runs = []
    i = 0
    while i < len(frames):
        if frames[i].token == GRID.invalid_index:
            j = i
            while j < len(frames) and frames[j].token == GRID.invalid_index:
                j += 1
            runs.append((i, j))
            i = j
        else:
            i += 1
    start, end = max(runs, key=lambda r: r[1] - r[0])
    assert end - start >= 30
    # memory updates lag one step: the digest may change at the first
    # invalid step (consuming the last valid output), never afterwards
    digests = {f.mem_digest for f in frames[start + 1 : end]}
    assert len(digests) == 1


def test_lag_correctness_via_independent_replay(monkeypatch):
    # collect every ReasonerOutput in order: the runner looks observe up
    # when it calls it
    sink = []
    observe = runner.observe

    def recording_observe(*args):
        sink.append(observe(*args))
        return sink[-1]

    monkeypatch.setattr(runner, "observe", recording_observe)
    spec = ScenarioSpec("dt")
    log = run_episode(make_scenario(spec, 3), runtime(), spec, 3)
    assert len(sink) == len(log.frames)

    # replay: the memory logged at step T is the fold of outputs < T
    mem = TargetMemory.empty()
    for t, frame in enumerate(log.frames):
        if t > 0:
            prev = sink[t - 1]
            mem = update_memory(mem, prev.token, confidence(prev.logits), prev.candidate, GRID)
        assert frame.mem_digest == mem.digest(), f"step {t}"


def test_bootstrap_timing():
    spec = ScenarioSpec("stt")
    log = run_episode(make_scenario(spec, 4), runtime(), spec, 4)
    first_valid = next(
        i for i, f in enumerate(log.frames) if f.token != GRID.invalid_index
    )
    for f in log.frames[: first_valid + 1]:
        assert f.mem_slot0 is None
    assert log.frames[first_valid + 1].mem_slot0 is not None


def test_no_tim_arm_never_fills_memory():
    spec = ScenarioSpec("dt")
    log = run_episode(make_scenario(spec, 5), runtime("no_tim"), spec, 5)
    assert all(f.mem_slot0 is None for f in log.frames)
    assert all(f.mem_digest == "empty" for f in log.frames)
    assert log.header.arm == "no_tim"


def test_no_cot_arm_runs_and_logs_raw_tokens():
    spec = ScenarioSpec("dt")
    log = run_episode(make_scenario(spec, 6), runtime("no_cot"), spec, 6)
    assert log.header.arm == "no_cot"
    assert all(f.confidence == 0.0 for f in log.frames)
    assert any(f.token != GRID.invalid_index for f in log.frames)


def test_episode_determinism_bitwise():
    spec = ScenarioSpec("dt")
    a = run_episode(make_scenario(spec, 7), runtime(), spec, 7)
    b = run_episode(make_scenario(spec, 7), runtime(), spec, 7)
    assert a.to_jsonl() == b.to_jsonl()


def test_collision_terminates_episode():
    # drive the agent into the stt scenario's off-path box via a rigged
    # runtime? simpler: dt traffic occasionally collides; find one seed
    spec = ScenarioSpec("dt")
    for seed in range(40):
        log = run_episode(make_scenario(spec, seed), runtime("no_tim"), spec, seed)
        if log.outcome.collided:
            assert log.frames[-1].collided
            assert log.outcome.episode_length == len(log.frames)
            assert log.outcome.reason == "collision"
            break
    else:
        pytest.skip("no collision found in 40 seeds")


def test_lost_termination_respects_patience():
    rules = MetricRules()
    spec = ScenarioSpec("obstacle")
    # obstacle seeds 25 and 26 of 0-39 end lost under these settings
    log = run_episode(make_scenario(spec, 25), runtime(), spec, 25)
    assert log.outcome.reason == "lost"
    tail = [f.target_rel[1] for f in log.frames[-(rules.lost_patience + 1) :]]
    assert all(d > rules.lost_radius for d in tail)
    assert log.frames[-(rules.lost_patience + 2)].target_rel[1] <= rules.lost_radius
    # and a healthy run never strings together that many far frames
    log = run_episode(make_scenario(ScenarioSpec("stt"), 0), runtime(), ScenarioSpec("stt"), 0)
    run = 0
    worst = 0
    for f in log.frames:
        run = run + 1 if f.target_rel[1] > rules.lost_radius else 0
        worst = max(worst, run)
    assert worst <= rules.lost_patience


def test_logits_topk_logging():
    spec = ScenarioSpec("dt")
    log = run_episode(make_scenario(spec, 8), runtime(log_topk=8), spec, 8)
    f = next(f for f in log.frames if f.token != GRID.invalid_index)
    assert f.logits_topk is not None
    assert len(f.logits_topk) == 8
    # entries are (index, value) sorted by value descending
    vals = [v for _, v in f.logits_topk]
    assert vals == sorted(vals, reverse=True)
    # the acted token's logit is among them
    assert any(i == f.token for i, _ in f.logits_topk)


@pytest.mark.parametrize("name", ["stt", "obstacle"])
def test_frames_of_one_cell_share_their_expert_rows(name):
    # a valid gt_token always plans its cell's trajectory, so its frames
    # share one list; an invalid one plans from the hold point, per frame
    spec = ScenarioSpec(name)
    rt = runtime(noiseless=True)
    log = run_episode(make_scenario(spec, 0), rt, spec, 0)
    first, invalid, hold = {}, [], None
    for f in log.frames:
        traj, hold = plan(f.gt_token, GRID, hold, rt.policy, rt.limits)
        assert f.expert_traj == [tuple(r) for r in traj.tolist()], f.step
        if f.gt_invalid:
            invalid.append(f.expert_traj)
        else:
            assert first.setdefault(f.gt_token, f.expert_traj) is f.expert_traj, f.step
    assert len(first) < len(log.frames) - len(invalid)  # some cell is visited twice
    lists = {id(f.expert_traj) for f in log.frames}
    assert len(lists) == len(first) + len(invalid)  # invalid frames share nothing
    if name == "obstacle":
        assert len(invalid) > 2  # the occlusion, not only the first steps


@pytest.mark.parametrize("name", SCENARIO_NAMES)
def test_a_score_only_run_has_the_recorded_outcome(name):
    # same world, same draws: skipping the log-only work changes nothing
    # the episode does, and the outcome is scored from the same two fields
    spec = ScenarioSpec(name, max_steps=300)
    for arm in ARMS:
        for seed in (0, 1):
            recorded = run_episode(make_scenario(spec, seed), runtime(arm), spec, seed)
            scored = run_episode(make_scenario(spec, seed), runtime(arm), spec, seed,
                                 record=False)
            assert scored.header == recorded.header
            assert scored.outcome == recorded.outcome, (arm, seed)
            assert scored.frames == [StepResult(f.target_rel, f.collided)
                                     for f in recorded.frames]


def test_a_score_only_step_builds_only_the_agents_pose(monkeypatch):
    # entities keep their position as plain floats, so the
    # agent's pose is the one Pose2D a step builds
    spec = ScenarioSpec("dt", max_steps=120)
    built = 0
    init = Pose2D.__init__

    def counting(self, *args):
        nonlocal built
        built += 1
        init(self, *args)

    worlds = {arm: make_scenario(spec, 3) for arm in ARMS}
    assert all(len(w.entities) == 4 for w in worlds.values())
    monkeypatch.setattr(Pose2D, "__init__", counting)
    for arm, w in worlds.items():
        built = 0
        log = run_episode(w, runtime(arm), spec, 3, record=False)
        assert built == log.outcome.episode_length, arm


def test_a_score_only_run_skips_what_only_the_frame_reads(monkeypatch):
    # outside the full arm the memory does not read the confidence, and
    # no arm but the frame reads no_cot's encoded token
    import polartrack.runner as runner

    calls = {"softmax_terms": 0, "encode": 0}
    terms, encode = SparseLogits.softmax_terms, runner.encode

    def counting_terms(self):
        calls["softmax_terms"] += 1
        return terms(self)

    def counting_encode(grid, p):
        calls["encode"] += 1
        return encode(grid, p)

    monkeypatch.setattr(SparseLogits, "softmax_terms", counting_terms)
    monkeypatch.setattr(runner, "encode", counting_encode)
    spec = ScenarioSpec("dt", max_steps=120)
    for arm in ("no_tim", "no_cot"):
        run_episode(make_scenario(spec, 4), runtime(arm), spec, 4, record=False)
    assert calls == {"softmax_terms": 0, "encode": 0}
    # recording, each still runs once per step
    for arm, key in (("no_tim", "softmax_terms"), ("no_cot", "encode")):
        calls[key] = 0
        log = run_episode(make_scenario(spec, 4), runtime(arm), spec, 4)
        assert calls[key] == len(log.frames), arm


@pytest.mark.parametrize("mode", INVALID_MODES)
@pytest.mark.parametrize("name", SCENARIO_NAMES)
def test_acted_poses_match_an_uncached_replay(name, mode):
    # the runner reads a valid token's command and next hold point from its
    # episode's table; every logged token replayed through plan, execute_first,
    # step and advance_hold, with nothing kept between steps but the hold
    # point, moves the agent bit for bit alike. A single front view loses
    # the target in every scenario, so runs mix valid and invalid tokens.
    spec = ScenarioSpec(name)
    invalid = 0
    for arm in ("full", "no_tim"):
        for seed in (0, 1):
            rt = replace(runtime(arm, policy=PolicySettings(invalid_mode=mode)),
                         rig=CameraRig.ring(1))
            log = run_episode(make_scenario(spec, seed), rt, spec, seed)
            world, hold = make_scenario(spec, seed), None
            for f in log.frames:
                traj, hold = plan(f.token, GRID, hold, rt.policy, rt.limits)
                cmd = execute_first(traj, rt.limits)
                world.step(cmd)
                hold = advance_hold(hold, cmd)
                a = world.agent
                assert f.agent == (a.x, a.y, a.heading), (arm, seed, f.step)
            invalid += sum(f.token == GRID.invalid_index for f in log.frames)
    assert invalid > 0


@pytest.mark.parametrize("record", [True, False])
def test_a_valid_tokens_command_is_worked_out_once_per_episode(monkeypatch, record):
    # the token arms work out a command and its next hold point once per
    # distinct valid token and on every invalid-token step; no_cot every step
    calls = {"execute_first": 0, "advance_hold": 0}

    def counting(name):
        real = getattr(runner, name)

        def wrapper(*args):
            calls[name] += 1
            return real(*args)

        return wrapper

    tokens = []
    observe = runner.observe

    def recording_observe(*args):
        out = observe(*args)
        tokens.append(out.token)
        return out

    for name in calls:
        monkeypatch.setattr(runner, name, counting(name))
    monkeypatch.setattr(runner, "observe", recording_observe)
    spec = ScenarioSpec("obstacle", max_steps=300)
    for arm in ARMS:
        for seed in (0, 1):
            tokens.clear()
            calls.update(execute_first=0, advance_hold=0)
            log = run_episode(make_scenario(spec, seed), runtime(arm), spec, seed,
                              record=record)
            steps = log.outcome.episode_length
            if arm == "no_cot":
                assert not tokens
                want = steps
            else:
                assert len(tokens) == steps
                invalid = tokens.count(GRID.invalid_index)
                want = len(set(tokens) - {GRID.invalid_index}) + invalid
                assert 0 < invalid and want < steps, (arm, seed)
            assert calls == {"execute_first": want, "advance_hold": want}, (arm, seed)
