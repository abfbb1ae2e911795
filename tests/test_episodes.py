import json
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polartrack.episodes import (
    SCHEMA_VERSION,
    EpisodeFormatError,
    EpisodeLog,
    VisibilityRules,
    annotate_frame,
    derive_seed,
    generate_dataset,
    read_episode,
    schema_description,
    view_visibility,
    write_episode,
)
from polartrack.metrics import EpisodeOutcome, MetricRules, frame_tracked
from polartrack.perception import CameraRig, CameraView, PerceptionParams, view_masks
from polartrack.polar import PolarGrid, encode, signed_degrees
from polartrack.records import FieldError
from polartrack.runner import AgentRuntime, run_episode
from polartrack.scenarios import ScenarioSpec, make_scenario
from polartrack.world import Entity, Obstacle, Pose2D, World, relative_polar

GRID = PolarGrid()
RING = CameraRig.ring(4)
VIS = VisibilityRules()


def static_world(target_pos, obstacles=()):
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
        agent=Pose2D(0, 0, 0),
        entities=[target],
        obstacles=list(obstacles),
        rng=np.random.default_rng(0),
    )


def run_stt_episode(seed=0, scenario="stt", log_topk=0):
    spec = ScenarioSpec(scenario)
    runtime = AgentRuntime(
        grid=GRID,
        rig=RING,
        perception=PerceptionParams().noiseless(),
        rules=MetricRules(),
        log_topk=log_topk,
    )
    world = make_scenario(spec, seed)
    return run_episode(world, runtime, scenario=spec, seed=seed)


def test_annotate_visible_target():
    w = static_world((2.0 * np.cos(np.radians(10)), 2.0 * np.sin(np.radians(10))))
    rel, token = annotate_frame(w, view_masks(w, RING, GRID), GRID, VIS)
    assert rel is not None
    assert token == encode(GRID, relative_polar(w.agent, (w.target.x, w.target.y)))
    assert rel.theta == pytest.approx(10.0)
    assert rel.dist == pytest.approx(2.0)


def test_annotate_occluded_target():
    wall = Obstacle.rect(1.0, -1.0, 1.4, 1.0)
    w = static_world((3.0, 0.0), [wall])
    rel, token = annotate_frame(w, view_masks(w, RING, GRID), GRID, VIS)
    assert rel is None
    assert token == GRID.invalid_index


def test_annotate_out_of_range_target():
    w = static_world((7.0, 0.0))
    rel, token = annotate_frame(w, view_masks(w, RING, GRID), GRID, VIS)
    assert rel is None and token == GRID.invalid_index


def test_annotate_out_of_view_target():
    front = CameraRig.front(90.0)
    w = static_world((0.0, -3.0))
    rel, token = annotate_frame(w, view_masks(w, front, GRID), GRID, VIS)
    assert rel is None and token == GRID.invalid_index


def test_annotate_apparent_size_cutoff():
    w = static_world((4.0, 0.0))
    rel, _ = annotate_frame(w, view_masks(w, RING, GRID), GRID, VIS)
    assert rel is not None
    # radius/dist = 0.075 at 4 m: raising the cutoff above that flips it
    rel, token = annotate_frame(w, view_masks(w, RING, GRID), GRID,
                                VisibilityRules(min_apparent_size=0.08))
    assert rel is None and token == GRID.invalid_index


def test_invalid_rate_monotone_in_apparent_size():
    rng = np.random.default_rng(5)
    worlds = [
        static_world((rng.uniform(0.5, 6.0), rng.uniform(-3, 3))) for _ in range(200)
    ]
    cuts = [0.0, 0.05, 0.08, 0.12, 0.3]
    rates = []
    for cut in cuts:
        vis = VisibilityRules(min_apparent_size=cut)
        rates.append(
            sum(annotate_frame(w, view_masks(w, RING, GRID), GRID, vis)[0] is None for w in worlds)
        )
    assert all(b >= a for a, b in zip(rates, rates[1:]))


def test_view_visibility_summary():
    w = static_world((3.0, 0.0))
    vis = view_visibility(w, view_masks(w, RING, GRID, target_views=True), RING)
    assert vis == [True, False, False, False]
    w = static_world((0.0, 3.0))
    vis = view_visibility(w, view_masks(w, RING, GRID, target_views=True), RING)
    assert vis == [False, True, False, False]
    # on the edge two views see the target; both flags are set
    w = static_world((3.0, 3.0))
    vis = view_visibility(w, view_masks(w, RING, GRID, target_views=True), RING)
    assert vis == [True, True, False, False]


def test_episode_roundtrip(tmp_path):
    log = run_stt_episode()
    path = tmp_path / "ep.jsonl"
    write_episode(log, path)
    loaded = read_episode(path)

    assert loaded.header.seed == log.header.seed
    assert loaded.header.grid == log.header.grid
    assert loaded.outcome == log.outcome
    assert len(loaded.frames) == len(log.frames)
    for a, b in zip(loaded.frames, log.frames):
        assert a == b

    # byte-exact rewrite
    path2 = tmp_path / "ep2.jsonl"
    write_episode(loaded, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_a_log_without_its_frames_cannot_be_written(tmp_path):
    spec = ScenarioSpec("dt", max_steps=40)
    scored = run_episode(make_scenario(spec, 1), AgentRuntime(), spec, 1, record=False)
    with pytest.raises(ValueError, match="score-only"):
        write_episode(scored, tmp_path / "scored.jsonl")
    scored.frames = []
    with pytest.raises(ValueError, match="0 frames for an episode of 40 steps"):
        write_episode(scored, tmp_path / "frameless.jsonl")
    recorded = run_episode(make_scenario(spec, 1), AgentRuntime(), spec, 1)
    recorded.frames.pop()
    with pytest.raises(ValueError, match="39 frames for an episode of 40 steps"):
        write_episode(recorded, tmp_path / "cut.jsonl")
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("spec, settings, field, expected", [
    (ScenarioSpec("dt", n_distractors=True, max_steps=20), {}, "scenario.n_distractors",
     "an integer, got True"),
    (ScenarioSpec("stt", max_steps=20.0), {}, "scenario.max_steps", "an integer, got 20.0"),
    (ScenarioSpec("stt", max_steps=20), {"count_invalid_in_mean": "false"},
     "count_invalid_in_mean", "true or false, got 'false'"),
])
def test_a_header_its_reader_would_reject_is_not_written(tmp_path, spec, settings, field,
                                                         expected):
    # the spec and the runtime take these values and the episode runs, but
    # read_episode would reject the header's field, so the log is not written
    world = make_scenario(spec, 0)
    assert len(world.entities) == 1 + spec.n_distractors
    log = run_episode(world, AgentRuntime(**settings), spec, 0)
    assert log.outcome.episode_length == 20
    with pytest.raises(ValueError, match=re.escape(f"'{field}': expected {expected}")):
        write_episode(log, tmp_path / "ep.jsonl")
    assert not list(tmp_path.iterdir())


def test_truncated_file_names_line(tmp_path):
    log = run_stt_episode()
    path = tmp_path / "ep.jsonl"
    write_episode(log, path)
    lines = path.read_text().splitlines()
    # cut off the footer and wound the last frame line
    broken = "\n".join(lines[:-2] + [lines[-2][: len(lines[-2]) // 2]])
    bad = tmp_path / "broken.jsonl"
    bad.write_text(broken)
    with pytest.raises(EpisodeFormatError) as err:
        read_episode(bad)
    assert "line" in str(err.value)


def test_missing_footer(tmp_path):
    log = run_stt_episode()
    path = tmp_path / "ep.jsonl"
    write_episode(log, path)
    lines = path.read_text().splitlines()
    bad = tmp_path / "nofooter.jsonl"
    bad.write_text("\n".join(lines[:-1]) + "\n")
    with pytest.raises(EpisodeFormatError, match="footer"):
        read_episode(bad)


def test_token_range_validation(tmp_path):
    log = run_stt_episode()
    path = tmp_path / "ep.jsonl"
    write_episode(log, path)
    lines = path.read_text().splitlines()
    frame = json.loads(lines[1])
    frame["gt_token"] = 99999
    lines[1] = json.dumps(frame, separators=(",", ":"))
    bad = tmp_path / "badtoken.jsonl"
    bad.write_text("\n".join(lines) + "\n")
    with pytest.raises(EpisodeFormatError, match="token"):
        read_episode(bad)


def test_version_gate(tmp_path):
    log = run_stt_episode()
    path = tmp_path / "ep.jsonl"
    write_episode(log, path)
    lines = path.read_text().splitlines()
    head = json.loads(lines[0])
    head["version"] = "99"
    lines[0] = json.dumps(head, separators=(",", ":"))
    bad = tmp_path / "badver.jsonl"
    bad.write_text("\n".join(lines) + "\n")
    with pytest.raises(EpisodeFormatError, match="version"):
        read_episode(bad)


def test_generate_dataset_deterministic(tmp_path):
    specs = [ScenarioSpec("stt", max_steps=120)]
    out1 = generate_dataset(specs, n_episodes=2, seed=3, out_dir=tmp_path / "a")
    out2 = generate_dataset(specs, n_episodes=2, seed=3, out_dir=tmp_path / "b")
    assert [p.name for p in out1] == [p.name for p in out2]
    for p1, p2 in zip(out1, out2):
        assert p1.read_bytes() == p2.read_bytes()
    different = generate_dataset(specs, n_episodes=2, seed=4, out_dir=tmp_path / "c")
    assert different[0].read_bytes() != out1[0].read_bytes()


def test_generate_dataset_takes_rig_and_grid_as_settings_keywords(tmp_path):
    rig = CameraRig(views=(CameraView(0.0, 120.0),))
    grid = PolarGrid(n_angle=36, n_dist=20)
    (path,) = generate_dataset([ScenarioSpec("stt", max_steps=20)], n_episodes=1, seed=0,
                               out_dir=tmp_path, rig=rig, grid=grid)
    header = read_episode(path).header
    assert (header.rig, header.grid) == (rig, grid)
    assert header.perception == PerceptionParams().noiseless() and header.log_topk == 8


def test_generate_dataset_rejects_zero_episodes(tmp_path):
    with pytest.raises(ValueError):
        generate_dataset([ScenarioSpec("stt")], n_episodes=0, seed=1, out_dir=tmp_path)


def test_randomized_rig_keeps_front_view(tmp_path):
    specs = [ScenarioSpec("stt", max_steps=25)]
    paths = generate_dataset(
        specs, n_episodes=12, seed=11, out_dir=tmp_path, randomize_rig=True
    )
    saw_multi = False
    for p in paths:
        log = read_episode(p)
        views = log.header.rig.views
        assert views[0].yaw == 0.0  # front always present, always first
        assert all(70.0 <= v.fov <= 110.0 for v in views)
        saw_multi = saw_multi or len(views) > 1
    assert saw_multi


def test_annotation_consistency_in_generated_episodes(tmp_path):
    from polartrack.polar import decode, signed_degrees

    paths = generate_dataset(
        [ScenarioSpec("stt", max_steps=150)], n_episodes=1, seed=2, out_dir=tmp_path
    )
    log = read_episode(paths[0])
    checked = 0
    for f in log.frames:
        if f.gt_invalid:
            assert f.gt_token == log.header.grid.invalid_index
            continue
        cell = decode(log.header.grid, f.gt_token)
        assert abs(signed_degrees(cell.theta - f.gt_polar[0])) <= GRID.angle_width / 2 + 1e-9
        assert abs(cell.dist - f.gt_polar[1]) <= GRID.dist_width / 2 + 1e-9
        checked += 1
    assert checked > 50


def test_obstacle_invalid_rate_in_calibrated_band():
    # the apparent-size default plus the breakaway design should leave
    # the obstacle split with a 10-30% invalid annotation rate
    rates = []
    for seed in range(6):
        log = run_stt_episode(seed=seed, scenario="obstacle")
        inv = sum(f.gt_invalid for f in log.frames)
        rates.append(inv / len(log.frames))
    mean_rate = sum(rates) / len(rates)
    assert 0.10 <= mean_rate <= 0.30, rates


def test_derive_seed_is_stable():
    assert derive_seed(0, 0, 0) == derive_seed(0, 0, 0)
    assert derive_seed(0, 0, 1) != derive_seed(0, 0, 0)
    assert derive_seed(1, 0, 0) != derive_seed(0, 0, 0)


def test_schema_description_covers_fields():
    text = schema_description()
    for field in (
        "gt_token",
        "expert_traj",
        "mem_digest",
        "confidence",
        "outcome",
        "version",
    ):
        assert field in text


def test_schema_description_lists_the_written_keys():
    lines = run_stt_episode().to_jsonl().splitlines()
    written = [list(json.loads(lines[i])) for i in (0, 1, -1)]
    # one block per record type, each key on a line of its own
    blocks = re.split(r"^(?=\S)", schema_description(), flags=re.M)
    listed = [re.findall(r"^  (\w+)", b, flags=re.M) for b in blocks]
    assert [keys for keys in listed if keys] == written


def edited_log(tmp_path, line: int, edit, log_topk: int = 0) -> str:
    """Write a fresh stt episode, apply ``edit`` to the JSON record on
    0-based ``line`` and return the error message of reading it back."""
    path = tmp_path / "ep.jsonl"
    write_episode(run_stt_episode(log_topk=log_topk), path)
    lines = path.read_text().splitlines()
    line = line % len(lines)
    record = json.loads(lines[line])
    edit(record)
    lines[line] = json.dumps(record, separators=(",", ":"))
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(EpisodeFormatError) as err:
        read_episode(path)
    return str(err.value)


def test_header_parse_failure_names_line_and_field(tmp_path):
    msg = edited_log(tmp_path, 0, lambda h: h.pop("policy"))
    assert "line 1:" in msg and "'policy'" in msg
    msg = edited_log(tmp_path, 0, lambda h: h["grid"].update(n_angle=60.9))
    assert "line 1:" in msg and "'grid.n_angle'" in msg
    msg = edited_log(tmp_path, 0, lambda h: h["policy"].update(invalid_mode="wander"))
    assert "line 1:" in msg and "'policy.invalid_mode'" in msg
    msg = edited_log(tmp_path, 0, lambda h: h.update(scenario={"name": 5}))
    assert "line 1:" in msg and "'scenario.name'" in msg


def key_paths(value, path=""):
    """The dotted path of every key in a JSON value, parents first."""
    if isinstance(value, dict):
        for k, v in value.items():
            yield f"{path}.{k}" if path else k
            yield from key_paths(v, f"{path}.{k}" if path else k)
    elif isinstance(value, list):
        for i, v in enumerate(value):
            yield from key_paths(v, f"{path}[{i}]")


def test_every_header_key_is_required(tmp_path):
    spec = ScenarioSpec("dt", max_steps=3)
    runtime = AgentRuntime(log_topk=2)
    path = tmp_path / "ep.jsonl"
    write_episode(run_episode(make_scenario(spec, 0), runtime, spec, 0), path)
    head, rest = path.read_text().split("\n", 1)
    keys = list(key_paths(json.loads(head)))
    assert {"rig.views[3].fov", "policy.standoff", "scenario.max_steps"} <= set(keys)
    for key in keys:
        header = json.loads(head)
        *outer, last = re.split(r"\.|(?=\[)", key)
        owner = header
        for part in outer:
            owner = owner[int(part[1:-1])] if part.startswith("[") else owner[part]
        del owner[last]
        path.write_text(json.dumps(header) + "\n" + rest)
        with pytest.raises(EpisodeFormatError) as err:
            read_episode(path)
        assert "line 1:" in str(err.value) and f"'{key}'" in str(err.value), key


def test_hand_built_world_writes_a_null_scenario(tmp_path):
    log = run_episode(static_world((2.0, 0.0)), AgentRuntime())
    assert '"scenario":null,' in log.to_jsonl().splitlines()[0]
    path = tmp_path / "ep.jsonl"
    write_episode(log, path)
    assert read_episode(path) == log and log.header.scenario is None


def test_frame_parse_failure_names_line_and_field(tmp_path):
    msg = edited_log(tmp_path, 3, lambda f: f.pop("confidence"))
    assert "line 4:" in msg and "'confidence'" in msg


@pytest.mark.parametrize(
    "field, bad",
    [
        ("collided", "no"),
        ("collided", 0),
        ("gt_invalid", None),
        ("confidence", "0.5"),
        ("confidence", True),
        ("step", 3.0),
        ("step", True),
        ("token", "7"),
        ("agent", [0.0, 0.0]),
        ("agent", [0.0, "1", 0.0]),
        ("view_visible", [1, 0, 0, 0]),
        ("expert_traj", [[0.0, 0.0, True]] * 8),
        ("mem_digest", 5),
        ("mem_slot0", ["a"]),
    ],
)
def test_frame_fields_must_have_their_json_type(tmp_path, field, bad):
    msg = edited_log(tmp_path, 3, lambda f: f.update({field: bad}))
    assert "line 4:" in msg and re.search(rf"'{field}(\[\d+\])*'", msg)


def shift_gt_polar(f):
    f["gt_polar"][0] += 90.0


def drop_gt_polar(f):
    f.update(gt_invalid=True, gt_polar=None)


@pytest.mark.parametrize(
    "field, edit",
    [
        ("view_visible", lambda f: f.update(view_visible=[True] * 5)),
        ("view_visible", lambda f: f.update(view_visible=[])),
        ("expert_traj", lambda f: f.update(expert_traj=f["expert_traj"][:3])),
        ("gt_token", drop_gt_polar),
        ("gt_token", shift_gt_polar),
        ("gt_polar", lambda f: f.update(gt_polar=[1e9, -5.0])),
        ("confidence", lambda f: f.update(confidence=7.5)),
        ("confidence", lambda f: f.update(confidence=-0.01)),
    ],
)
def test_frames_must_agree_with_the_header(tmp_path, field, edit):
    # the stt target is annotated on the first frames, with the 4-view rig
    msg = edited_log(tmp_path, 3, edit)
    assert "line 4:" in msg and f"'{field}'" in msg


def test_a_valid_annotation_outside_the_annulus_is_a_field_error(tmp_path):
    # encode maps such a point to the invalid token, so gt_token agrees with it
    path = tmp_path / "ep.jsonl"
    write_episode(run_stt_episode(), path)
    lines = path.read_text().splitlines()
    frame = json.loads(lines[3])
    assert frame["gt_invalid"] is False and GRID.invalid_index == 1800
    frame.update(gt_polar=[10.0, 9.0], gt_token=1800)
    lines[3] = json.dumps(frame, separators=(",", ":"))
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(EpisodeFormatError) as err:
        read_episode(path)
    assert isinstance(err.value.__cause__, FieldError)
    assert err.value.__cause__.path == "gt_polar"


@pytest.mark.parametrize(
    "bad",
    [
        [[GRID.vocab_size, 1.0]],  # index past the vocabulary
        [[-1, 1.0]],
        [[3.0, 1.0]],  # float index
        [[True, 1.0]],
        [[3, "1.0"]],
        [[3, float("nan")]],
        [[3, 1.0, 2.0]],
        [3],
        [[3, 1.0], [3, 0.5]],  # a repeated index
    ],
)
def test_logits_topk_pairs_are_checked(tmp_path, bad):
    msg = edited_log(tmp_path, 3, lambda f: f.update(logits_topk=bad), log_topk=5)
    assert "line 4:" in msg and re.search(r"'logits_topk(\[\d+\])*'", msg)


def two_more_pairs(f):
    taken = {i for i, _ in f["logits_topk"]}
    f["logits_topk"] += [[i, 0.0] for i in range(1000, 1010) if i not in taken][:2]


@pytest.mark.parametrize("line, edit", [
    (3, two_more_pairs),
    (3, lambda f: f.update(logits_topk=None)),
    (3, lambda f: f["logits_topk"].reverse()),
    (0, lambda h: h.update(log_topk=0)),
    (0, lambda h: h.update(arm="no_cot")),
], ids=["6-pairs", "null", "reversed", "header-log_topk-0", "header-no_cot"])
def test_logits_topk_must_be_what_the_header_logs(tmp_path, line, edit):
    # a top-4 log lists min(4, vocab_size) pairs per frame, ranked as
    # SparseLogits.topk ranks them; a header edit fails on the first frame
    spec = ScenarioSpec("dt", max_steps=40)
    path = tmp_path / "ep.jsonl"
    write_episode(run_episode(make_scenario(spec, 3), AgentRuntime(log_topk=4), spec, 3), path)
    lines = path.read_text().splitlines()
    assert all(len(json.loads(text)["logits_topk"]) == 4 for text in lines[1:-1])
    record = json.loads(lines[line])
    edit(record)
    lines[line] = json.dumps(record, separators=(",", ":"))
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(EpisodeFormatError) as err:
        read_episode(path)
    assert f"line {max(line, 1) + 1}:" in str(err.value)
    assert err.value.__cause__.path == "logits_topk"


@pytest.mark.parametrize("edit", [{"gt_invalid": True}, {"gt_polar": None}])
def test_gt_invalid_must_say_whether_gt_polar_is_null(tmp_path, edit):
    msg = edited_log(tmp_path, 3, lambda f: f.update(edit))
    assert "line 4:" in msg and "'gt_invalid'" in msg


def test_generate_dataset_rejects_worlds_its_topk_cannot_cover(tmp_path):
    # 1 target + 9 distractors score up to 10 cells: top-8 would drop some.
    # Every spec is checked before the first file, so stt writes nothing either
    with pytest.raises(FieldError, match="'n_distractors': .*10 entities"):
        generate_dataset([ScenarioSpec("stt", max_steps=5),
                          ScenarioSpec("dt", n_distractors=9, max_steps=5)],
                         n_episodes=1, seed=0, out_dir=tmp_path / "data")
    assert not (tmp_path / "data").exists()
    # 7 entities still fit beside the invalid token
    (path,) = generate_dataset([ScenarioSpec("dt", n_distractors=6, max_steps=5)],
                               n_episodes=1, seed=0, out_dir=tmp_path)
    assert all(len(f.logits_topk) == 8 for f in read_episode(path).frames)


def test_footer_parse_failure_names_line_and_field(tmp_path):
    msg = edited_log(tmp_path, -1, lambda f: f["outcome"].update(success="yes"))
    assert "line 502:" in msg and "'outcome.success'" in msg
    msg = edited_log(tmp_path, -1, lambda f: f.update(extra=1))
    assert "line 502:" in msg and "'extra': unknown key" in msg


def test_footer_that_disagrees_with_the_frames_is_rejected(tmp_path):
    msg = edited_log(
        tmp_path, -1, lambda f: f["outcome"].update(tracking_rate=0.123, success=False)
    )
    assert "line 502:" in msg and "disagrees" in msg


def test_max_steps_must_be_the_scenarios_cap(tmp_path):
    # a 300-step obstacle/no_cot log that ends "lost" at step 275 scores
    # "lost" under a cap of 295 too, so only the header check refuses it
    spec = ScenarioSpec("obstacle", max_steps=300)
    log = run_episode(make_scenario(spec, 16), AgentRuntime(arm="no_cot"), spec, 16)
    assert (log.outcome.reason, log.outcome.episode_length) == ("lost", 275)
    path = tmp_path / "ep.jsonl"
    write_episode(log, path)
    header, rest = path.read_text().split("\n", 1)
    assert '"max_steps":300,"expert"' in header
    path.write_text(header.replace('"max_steps":300,"expert"', '"max_steps":295,"expert"')
                    + "\n" + rest)
    with pytest.raises(EpisodeFormatError, match="line 1: 'max_steps': 295, expected "
                                                 "scenario.max_steps 300"):
        read_episode(path)
    # a hand-built world (scenario null) has no cap to agree with
    header = replace(log.header, scenario=None, max_steps=295)
    write_episode(EpisodeLog(header, log.frames, log.outcome), path)
    assert read_episode(path).header.max_steps == 295


def length_based_outcome(frames, rules, max_steps):
    """The outcome that reads the ending off the length alone ("lost"
    whenever the log is shorter than ``max_steps``), which the doctored
    logs below carry as their footer."""
    n = len(frames)
    theta, dist = frames[-1].target_rel
    return EpisodeOutcome(
        success=(rules.band[0] <= dist <= rules.band[1]
                 and abs(signed_degrees(theta)) <= rules.orient_tol),
        tracking_rate=sum(frame_tracked(f.target_rel[1], f.target_rel[0], rules)
                          for f in frames) / n,
        collided=False,
        episode_length=n,
        reason="lost" if n < max_steps else "cap",
    )


def doctored_log_error(tmp_path, log, frames, max_steps) -> str:
    """Write ``log`` with ``frames`` under ``max_steps`` and a footer
    rescored by length, and return the error of reading it back."""
    header = replace(log.header, max_steps=max_steps,
                     scenario=replace(log.header.scenario, max_steps=max_steps))
    outcome = length_based_outcome(frames, header.rules, max_steps)
    path = tmp_path / "doctored.jsonl"
    write_episode(EpisodeLog(header=header, frames=frames, outcome=outcome), path)
    with pytest.raises(EpisodeFormatError) as err:
        read_episode(path)
    return str(err.value)


def test_a_log_must_end_where_the_rules_end_it(tmp_path):
    spec = ScenarioSpec("stt", max_steps=120)
    log = run_episode(make_scenario(spec, 1), AgentRuntime(), spec, 1)
    assert log.outcome.reason == "cap" and not any(f.collided for f in log.frames)
    # cut to its first 60 frames: it would read as a successful "lost"
    # episode that stops 2.8 m from the target
    assert length_based_outcome(log.frames[:60], log.header.rules, 120).success
    msg = doctored_log_error(tmp_path, log, log.frames[:60], 120)
    assert "ends after 60 of 120 steps with no collision and no completed loss" in msg
    # 120 frames under a cap of 100
    msg = doctored_log_error(tmp_path, log, log.frames, 100)
    assert "frame 100 follows the episode's end (cap) at frame 99" in msg
    # 440 steps go on after a 60-step loss, which ended the episode at frame 50
    spec = ScenarioSpec("stt")
    log = run_episode(make_scenario(spec, 1), AgentRuntime(), spec, 1)
    frames = [replace(f, target_rel=(f.target_rel[0], 7.0)) if f.step < 60 else f
              for f in log.frames]
    msg = doctored_log_error(tmp_path, log, frames, 500)
    assert "frame 51 follows the episode's end (lost) at frame 50" in msg


@settings(max_examples=20, deadline=None)
@given(
    scenario=st.sampled_from(("stt", "dt", "obstacle", "winding")),
    arm=st.sampled_from(("full", "no_tim", "no_cot")),
    seed=st.integers(0, 2**32 - 1),
    max_steps=st.integers(1, 60),
    log_topk=st.sampled_from((0, 5)),
)
def test_jsonl_write_read_write_is_byte_identical(tmp_path_factory, scenario, arm, seed,
                                                  max_steps, log_topk):
    spec = ScenarioSpec(scenario, max_steps=max_steps)
    runtime = AgentRuntime(arm=arm, grid=GRID, rig=RING, perception=PerceptionParams(),
                           rules=MetricRules(), log_topk=log_topk)
    log = run_episode(make_scenario(spec, seed), runtime, scenario=spec, seed=seed)
    path = tmp_path_factory.mktemp("jsonl") / "ep.jsonl"
    write_episode(log, path)
    first = path.read_bytes()
    assert read_episode(path) == log
    write_episode(read_episode(path), path)
    assert path.read_bytes() == first


def dumps_per_record(log) -> str:
    """The log as JSONL, each record dumped on its own."""
    records = [
        {"type": "header", "version": SCHEMA_VERSION, **log.header.to_dict()},
        *({"type": "frame", **f.to_dict()} for f in log.frames),
    ]
    if log.outcome is not None:
        records.append({"type": "footer", "outcome": log.outcome.to_dict()})
    return "".join(json.dumps(r, separators=(",", ":")) + "\n" for r in records)


@pytest.mark.parametrize("scenario", ["stt", "obstacle"])
def test_shared_and_copied_trajectories_write_the_same_bytes(scenario):
    log = run_stt_episode(scenario=scenario, log_topk=8)
    text = log.to_jsonl()
    assert text == dumps_per_record(log)
    shared = log.frames[0].expert_traj
    one_list = EpisodeLog(log.header, [replace(f, expert_traj=shared) for f in log.frames],
                          log.outcome)
    assert one_list.to_jsonl() == dumps_per_record(one_list)
    copies = EpisodeLog(log.header, [replace(f, expert_traj=list(f.expert_traj))
                                     for f in log.frames], log.outcome)
    assert copies.to_jsonl() == dumps_per_record(copies) == text


def test_a_string_field_spelling_the_trajectory_key_is_written_as_is():
    log = run_stt_episode()
    tricky = '"expert_traj":0,'
    frame = replace(log.frames[0], mem_digest=tricky)
    hand_built = EpisodeLog(log.header, [frame, replace(frame, step=1)])
    text = hand_built.to_jsonl()
    assert text == dumps_per_record(hand_built)
    assert [json.loads(line).get("mem_digest") for line in text.splitlines()] == [
        None, tricky, tricky]


def test_non_object_line_and_record_after_footer_are_rejected(tmp_path):
    path = tmp_path / "ep.jsonl"
    write_episode(run_stt_episode(), path)
    lines = path.read_text().splitlines()
    for bad, where in ((lines[:2] + ["[1, 2]"] + lines[2:], "line 3"),
                       (lines + [lines[-1]], f"line {len(lines) + 1}")):
        path.write_text("\n".join(bad) + "\n")
        with pytest.raises(EpisodeFormatError, match=where):
            read_episode(path)


def test_empty_file_and_unknown_record_type_are_rejected(tmp_path):
    p = tmp_path / "ep.jsonl"
    p.write_text("")
    with pytest.raises(EpisodeFormatError, match="empty file"):
        read_episode(p)

    spec = ScenarioSpec("stt", max_steps=5)
    write_episode(run_episode(make_scenario(spec, 0), AgentRuntime(), spec, 0), p)
    lines = p.read_text().splitlines(keepends=True)
    lines[2] = lines[2].replace('"type":"frame"', '"type":"note"')
    p.write_text("".join(lines))
    with pytest.raises(EpisodeFormatError, match="line 3: unknown record type 'note'"):
        read_episode(p)
