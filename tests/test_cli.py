import json
import math
from pathlib import Path
from types import SimpleNamespace

import pytest

from polartrack.cli import EXIT_CONFIG, EXIT_OK, EXIT_RUNTIME, _lists_every_logit, main
from polartrack.config import RunConfig, load_config, save_config
from polartrack.episodes import read_episode, write_episode
from polartrack.polar import PolarGrid
from polartrack.runner import AgentRuntime, run_episode
from polartrack.scenarios import SCENARIO_NAMES, ScenarioSpec, make_scenario


def write_config(path, **overrides):
    cfg = {
        "master_seed": 5,
        "arms": ["full", "no_tim"],
        "scenarios": [
            {"name": "stt", "episodes": 2, "max_steps": 150},
            {"name": "dt", "episodes": 2, "max_steps": 150},
        ],
    }
    cfg.update(overrides)
    Path(path).write_text(json.dumps(cfg))
    return path


def test_config_roundtrip(tmp_path):
    p = tmp_path / "cfg.json"
    save_config(RunConfig(), p)
    cfg = load_config(p)
    assert cfg.grid.vocab_size == 1801
    assert cfg.arms == ["full", "no_tim", "no_cot"]


def test_config_error_diagnostics(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({"scenarios": [{"name": "maze", "episodes": 1}]}))
    with pytest.raises(Exception) as err:
        load_config(p)
    assert "scenarios" in str(err.value)

    p.write_text(json.dumps({"grid": {"r_min": -1, "r_max": 5, "n_angle": 6, "n_dist": 3}}))
    with pytest.raises(Exception) as err:
        load_config(p)
    assert "grid" in str(err.value)

    p.write_text("{not json")
    with pytest.raises(Exception):
        load_config(p)


def test_bench_run_deterministic(tmp_path, capsys):
    cfgp = write_config(tmp_path / "cfg.json")
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert main(["bench", "run", "--config", str(cfgp), "--out", str(out1)]) == EXIT_OK
    table1 = capsys.readouterr().out
    assert main(["bench", "run", "--config", str(cfgp), "--out", str(out2)]) == EXIT_OK
    table2 = capsys.readouterr().out
    assert table1.splitlines()[:-1] == table2.splitlines()[:-1]  # last line names the dir

    assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()
    assert (out1 / "report.txt").read_bytes() == (out2 / "report.txt").read_bytes()
    logs1 = sorted(p.name for p in out1.glob("*.jsonl"))
    logs2 = sorted(p.name for p in out2.glob("*.jsonl"))
    assert logs1 == logs2 and len(logs1) == 8  # 2 scenarios x 2 arms x 2 episodes
    for name in logs1:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    report = json.loads((out1 / "report.json").read_text())
    assert len(report["rows"]) == 4
    # report is recomputable from the emitted logs alone
    from polartrack.metrics import score_episode

    for row in report["rows"]:
        logs = sorted(out1.glob(f"{row['scenario']}_{row['arm']}_*.jsonl"))
        outs = [read_episode(p) for p in logs]
        sr = 100.0 * sum(o.outcome.success for o in outs) / len(outs)
        assert sr == pytest.approx(row["sr"])
        rescored = [score_episode(o, o.header.rules) for o in outs]
        assert [r.success for r in rescored] == [o.outcome.success for o in outs]


def test_bench_seed_flag_and_env_override(tmp_path, capsys, monkeypatch):
    cfgp = write_config(tmp_path / "cfg.json", scenarios=[{"name": "stt", "episodes": 1, "max_steps": 60}], arms=["full"])
    assert main(["bench", "run", "--config", str(cfgp), "--seed", "9"]) == EXIT_OK
    flag_out = capsys.readouterr().out
    monkeypatch.setenv("POLARTRACK_SEED", "9")
    assert main(["bench", "run", "--config", str(cfgp)]) == EXIT_OK
    env_out = capsys.readouterr().out
    assert flag_out == env_out
    monkeypatch.delenv("POLARTRACK_SEED")
    assert main(["bench", "run", "--config", str(cfgp)]) == EXIT_OK
    default_out = capsys.readouterr().out
    assert default_out != flag_out


def test_bench_missing_config_is_config_error(tmp_path, capsys):
    code = main(["bench", "run", "--config", str(tmp_path / "nope.json")])
    assert code == EXIT_CONFIG
    assert "config" in capsys.readouterr().err.lower()


def test_bench_bad_scenario_is_config_error(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({"scenarios": [{"name": "maze", "episodes": 1}]}))
    assert main(["bench", "run", "--config", str(p)]) == EXIT_CONFIG
    assert capsys.readouterr().err


def test_episode_run_and_replay_dump(tmp_path, capsys):
    ep = tmp_path / "ep.jsonl"
    code = main(
        ["episode", "run", "--scenario", "obstacle", "--seed", "1", "--out", str(ep)]
    )
    assert code == EXIT_OK
    assert "success=" in capsys.readouterr().out

    csvp = tmp_path / "ep.csv"
    assert main(["replay", "dump", "--episode", str(ep), "--out", str(csvp)]) == EXIT_OK
    capsys.readouterr()
    lines = csvp.read_text().splitlines()
    log = read_episode(ep)
    assert len(lines) == len(log.frames) + 1
    header = lines[0].split(",")
    assert header == [
        "step", "agent_x", "agent_y", "agent_heading", "target_x", "target_y",
        "token", "confidence", "mem0_a", "mem0_b", "mem0_c", "tracked",
    ]
    # occluded frames carry the invalid token index
    occluded_rows = [
        lines[1 + f.step] for f in log.frames if f.token == log.header.grid.invalid_index
    ]
    assert occluded_rows
    assert all(row.split(",")[6] == "1800" for row in occluded_rows)

    # byte-identical on rerun
    csvp2 = tmp_path / "ep2.csv"
    assert main(["replay", "dump", "--episode", str(ep), "--out", str(csvp2)]) == EXIT_OK
    capsys.readouterr()
    assert csvp.read_bytes() == csvp2.read_bytes()


def test_episode_run_takes_the_configs_scenario_entry(tmp_path, capsys):
    cfgp = write_config(tmp_path / "cfg.json",
                        scenarios=[{"name": "stt", "episodes": 1, "max_steps": 40}])
    assert main(["episode", "run", "--scenario", "stt", "--config", str(cfgp)]) == EXIT_OK
    assert "el=40 reason=cap" in capsys.readouterr().out
    # the log's header carries that spec, and a scenario the config does
    # not list runs at its defaults
    for name, steps in (("stt", 40), ("dt", 500)):
        ep = tmp_path / f"{name}.jsonl"
        argv = ["episode", "run", "--scenario", name, "--config", str(cfgp), "--out", str(ep)]
        assert main(argv) == EXIT_OK
        assert read_episode(ep).header.scenario == ScenarioSpec(name, max_steps=steps)
    capsys.readouterr()
    assert main(["replay", "verify", str(tmp_path / "stt.jsonl")]) == EXIT_OK


def test_replay_dump_missing_file(tmp_path, capsys):
    code = main(["replay", "dump", "--episode", str(tmp_path / "x.jsonl"), "--out", str(tmp_path / "x.csv")])
    assert code != EXIT_OK
    assert capsys.readouterr().err


def test_dataset_gen_and_eval_losses(tmp_path, capsys):
    out = tmp_path / "data"
    code = main(
        [
            "dataset", "gen", "--scenario", "stt", "--scenario", "dt",
            "--episodes", "2", "--seed", "3", "--out", str(out),
        ]
    )
    assert code == EXIT_OK
    capsys.readouterr()
    files = sorted(out.glob("*.jsonl"))
    assert len(files) == 4

    assert main(["eval", "losses", str(out)]) == EXIT_OK
    text = capsys.readouterr().out
    assert "overall:" in text
    assert "traj=" in text and "reason=" in text and "total=" in text


@pytest.mark.parametrize("command", [
    ["dataset", "gen", "--scenario", "stt", "--episodes", "1", "--out"],
    ["episode", "run", "--scenario", "stt", "--out"],
])
def test_config_master_seed_is_the_default_seed(tmp_path, capsys, command):
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text(json.dumps({"master_seed": 9}))

    def written(name, *extra):
        out = tmp_path / name
        assert main([*command, str(out), *extra]) == EXIT_OK
        capsys.readouterr()
        files = sorted(out.glob("*.jsonl")) if out.is_dir() else [out]
        return [p.read_bytes() for p in files]

    from_config = written("config", "--config", str(cfgp))
    assert from_config == written("flag", "--seed", "9")
    assert from_config != written("none")


def test_schema_command(capsys):
    assert main(["schema"]) == EXIT_OK
    text = capsys.readouterr().out
    assert "gt_token" in text and "footer" in text


def test_config_dump_command(tmp_path, capsys):
    p = tmp_path / "default.json"
    assert main(["config", "dump", "--out", str(p)]) == EXIT_OK
    capsys.readouterr()
    cfg = load_config(p)
    assert cfg.scenarios


def test_jobs_parallel_bench_matches_serial(tmp_path, capsys):
    cfgp = write_config(tmp_path / "cfg.json", scenarios=[{"name": "dt", "episodes": 3, "max_steps": 120}], arms=["full"])
    assert main(["bench", "run", "--config", str(cfgp), "--jobs", "1"]) == EXIT_OK
    serial = capsys.readouterr().out
    assert main(["bench", "run", "--config", str(cfgp), "--jobs", "2"]) == EXIT_OK
    parallel = capsys.readouterr().out
    assert serial == parallel


@pytest.mark.parametrize(
    "argv, env, config",
    [
        (["bench", "run", "--jobs", "0"], {}, None),
        (["bench", "run"], {"POLARTRACK_JOBS": "-4"}, None),
        (["bench", "run"], {}, {"policy": {"standoff": 5.0}}),
        (["dataset", "gen", "--scenario", "stt", "--episodes", "0"], {}, None),
        (["episode", "run", "--log-topk", "-3"], {}, None),
    ],
    ids=["jobs-flag", "jobs-env", "standoff", "episodes", "log-topk"],
)
def test_bad_counts_and_settings_are_config_errors(tmp_path, capsys, monkeypatch, argv, env,
                                                   config):
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    if config is not None:
        argv = argv + ["--config", str(tmp_path / "cfg.json")]
        (tmp_path / "cfg.json").write_text(json.dumps(config))
    if argv[0] == "dataset":
        argv = argv + ["--out", str(tmp_path / "data")]
    assert main(argv) == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err
    assert not list(tmp_path.rglob("*.jsonl"))


def test_dataset_gen_reads_the_configs_grid_and_rig(tmp_path, capsys):
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text(json.dumps({"grid": {"n_angle": 36, "n_dist": 20},
                                "rig": {"views": [{"yaw": 0, "fov": 120}]}}))
    argv = ["dataset", "gen", "--scenario", "stt", "--episodes", "1", "--config", str(cfgp),
            "--out", str(tmp_path / "data")]
    assert main(argv) == EXIT_OK
    header = read_episode(tmp_path / "data" / "stt_0000.jsonl").header
    assert (header.grid.n_angle, header.grid.n_dist) == (36, 20)
    assert len(header.rig.views) == 1 and header.rig.views[0].fov == 120


def test_dataset_gen_runs_the_configs_agent_settings(tmp_path, capsys):
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text(json.dumps({"policy": {"standoff": 2.5}, "perception": {"angle_noise": 0.5},
                                "rules": {"lost_patience": 10}, "count_invalid_in_mean": False}))
    out = tmp_path / "data"
    assert main(["dataset", "gen", "--scenario", "obstacle", "--scenario", "dt", "--episodes",
                 "2", "--randomize-rig", "--config", str(cfgp), "--out", str(out)]) == EXIT_OK
    paths = sorted(out.glob("*.jsonl"))
    assert len(paths) == 4
    for p in paths:
        h = read_episode(p).header
        assert (h.policy.standoff, h.rules.lost_patience, h.count_invalid_in_mean) == (2.5, 10,
                                                                                     False)
        # a dataset's own overrides: noiseless perception and top-8 logits
        assert (h.perception.angle_noise, h.log_topk) == (0.0, 8)
    capsys.readouterr()
    assert main(["replay", "verify", str(out)]) == EXIT_OK
    assert capsys.readouterr().out.splitlines()[-1] == "4 of 4 logs replay byte for byte"


def test_dataset_gen_with_the_default_config_writes_the_same_bytes(tmp_path, capsys):
    cfgp = tmp_path / "cfg.json"
    assert main(["config", "dump", "--out", str(cfgp)]) == EXIT_OK
    argv = ["dataset", "gen", "--scenario", "obstacle", "--episodes", "1", "--randomize-rig"]
    assert main([*argv, "--config", str(cfgp), "--out", str(tmp_path / "a")]) == EXIT_OK
    assert main([*argv, "--out", str(tmp_path / "b")]) == EXIT_OK
    name = "obstacle_0000.jsonl"
    assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_dataset_gen_checks_every_scenarios_entity_count_first(tmp_path, capsys):
    cfgp = write_config(tmp_path / "cfg.json",
                        scenarios=[{"name": "dt", "episodes": 1, "n_distractors": 9}])
    argv = ["dataset", "gen", "--scenario", "stt", "--scenario", "dt", "--episodes", "1",
            "--config", str(cfgp), "--out", str(tmp_path / "data")]
    assert main(argv) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "config error: 'n_distractors'" in err and "10 entities" in err
    assert not list(tmp_path.rglob("*.jsonl"))


def test_replay_dump_rows_keep_three_memory_cells(tmp_path, capsys):
    spec = ScenarioSpec("stt", feature_dim=2, max_steps=30)
    ep = tmp_path / "ep.jsonl"
    write_episode(run_episode(make_scenario(spec, 1), AgentRuntime(), spec, 1), ep)
    assert any(f.mem_slot0 is not None for f in read_episode(ep).frames)
    csvp = tmp_path / "ep.csv"
    assert main(["replay", "dump", "--episode", str(ep), "--out", str(csvp)]) == EXIT_OK
    assert {len(row.split(",")) for row in csvp.read_text().splitlines()} == {12}


def test_replay_verify_accepts_bench_and_dataset_logs(tmp_path, capsys):
    cfgp = write_config(tmp_path / "cfg.json", master_seed=2, arms=["full", "no_tim", "no_cot"],
                        scenarios=[{"name": n, "episodes": 1, "max_steps": 40}
                                   for n in SCENARIO_NAMES])
    assert main(["bench", "run", "--config", str(cfgp), "--out", str(tmp_path / "b")]) == EXIT_OK
    assert main(["dataset", "gen", "--scenario", "obstacle", "--scenario", "dt", "--episodes",
                 "2", "--seed", "3", "--randomize-rig", "--out", str(tmp_path / "d")]) == EXIT_OK
    capsys.readouterr()
    assert main(["replay", "verify", str(tmp_path / "b"), str(tmp_path / "d")]) == EXIT_OK
    assert capsys.readouterr().out.splitlines()[-1] == "16 of 16 logs replay byte for byte"


def test_replay_verify_names_the_first_differing_line_and_field(tmp_path, capsys):
    ep = tmp_path / "ep.jsonl"
    assert main(["episode", "run", "--scenario", "dt", "--seed", "2", "--out", str(ep)]) == EXIT_OK
    lines = ep.read_text().splitlines(keepends=True)
    good = "".join(lines)
    frame = json.loads(lines[5])
    logged = frame["confidence"]
    frame["confidence"] = math.nextafter(logged, 1.0)  # one ulp
    lines[5] = json.dumps(frame, separators=(",", ":")) + "\n"
    ep.write_text("".join(lines))
    capsys.readouterr()
    assert main(["replay", "verify", str(ep)]) == EXIT_RUNTIME
    out = capsys.readouterr().out
    edited = frame["confidence"]
    assert f"line 6: 'confidence' is {edited!r} in the log, {logged!r} on replay" in out

    # a hand-built world cannot be rebuilt from its header
    head = json.loads(lines[0])
    head["scenario"] = None
    ep.write_text(json.dumps(head, separators=(",", ":")) + "\n" + good.split("\n", 1)[1])
    assert main(["replay", "verify", str(ep)]) == EXIT_RUNTIME
    assert "not replayable" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["bench", "run"],
    ["episode", "run", "--scenario", "stt"],
    ["dataset", "gen", "--scenario", "stt", "--episodes", "1"],
], ids=["bench", "episode", "dataset"])
@pytest.mark.parametrize("source", ["flag", "env", "file"])
def test_a_negative_seed_is_a_config_error(tmp_path, capsys, monkeypatch, argv, source):
    # one check covers the flag, the variable and the file
    if source == "flag":
        argv = argv + ["--seed", "-1"]
    elif source == "env":
        monkeypatch.setenv("POLARTRACK_SEED", "-5")
    else:
        (tmp_path / "cfg.json").write_text(json.dumps({"master_seed": -1}))
        argv = argv + ["--config", str(tmp_path / "cfg.json")]
    argv = argv + ["--out", str(tmp_path / "out")]
    assert main(argv) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "config error" in err and "'master_seed'" in err
    assert not (tmp_path / "out").exists()


def test_bench_arm_flag_runs_only_that_arm(tmp_path, capsys):
    scenarios = [{"name": "stt", "episodes": 1, "max_steps": 30}]
    every = write_config(tmp_path / "every.json", scenarios=scenarios,
                         arms=["full", "no_tim", "no_cot"])
    one = write_config(tmp_path / "one.json", scenarios=scenarios, arms=["no_tim"])
    assert main(["bench", "run", "--config", str(every), "--arm", "no_tim",
                 "--out", str(tmp_path / "flag")]) == EXIT_OK
    assert main(["bench", "run", "--config", str(one), "--out", str(tmp_path / "file")]) == EXIT_OK
    capsys.readouterr()
    files = sorted(p.name for p in (tmp_path / "flag").iterdir())
    assert files == ["report.json", "report.txt", "stt_no_tim_0000.jsonl"]
    assert files == sorted(p.name for p in (tmp_path / "file").iterdir())
    for name in files:
        assert (tmp_path / "flag" / name).read_bytes() == (tmp_path / "file" / name).read_bytes()


def test_a_failing_episode_is_reported_and_left_out(tmp_path, capsys, monkeypatch):
    from polartrack import bench

    real = bench.run_episode

    def failing_for_no_tim(world, runtime, **kw):
        if runtime.arm == "no_tim":
            raise RuntimeError("boom")
        return real(world, runtime, **kw)

    monkeypatch.setattr(bench, "run_episode", failing_for_no_tim)
    cfgp = write_config(tmp_path / "cfg.json", scenarios=[{"name": "stt", "episodes": 1,
                                                           "max_steps": 30}])
    report, results = bench.run_bench(load_config(cfgp), jobs=1)
    failed = [r for r in results if r.error is not None]
    assert [(r.arm, r.error, r.outcome) for r in failed] == [("no_tim", "boom", None)]
    err = capsys.readouterr().err
    assert f"episode failed: scenario=stt arm=no_tim seed={failed[0].seed}: boom" in err
    assert [(row.scenario, row.arm) for row in report.rows] == [("stt", "full")]

    assert main(["bench", "run", "--config", str(cfgp)]) == EXIT_RUNTIME
    captured = capsys.readouterr()
    assert "episode failed: scenario=stt arm=no_tim" in captured.err
    assert " no_tim " not in captured.out and " full " in captured.out


def test_jobs_variable_must_be_an_integer(capsys, monkeypatch):
    monkeypatch.setenv("POLARTRACK_JOBS", "abc")
    assert main(["bench", "run"]) == EXIT_CONFIG
    assert "POLARTRACK_JOBS='abc' is not an integer" in capsys.readouterr().err


def test_eval_losses_needs_logged_logits(tmp_path, capsys):
    cfgp = write_config(tmp_path / "cfg.json", scenarios=[{"name": "stt", "episodes": 1,
                                                           "max_steps": 20}], arms=["full"])
    assert main(["bench", "run", "--config", str(cfgp), "--out", str(tmp_path / "b")]) == EXIT_OK
    capsys.readouterr()
    assert main(["eval", "losses", str(tmp_path / "b")]) == EXIT_CONFIG
    assert "frames carry no logits" in capsys.readouterr().err


def test_eval_losses_refuses_a_top_k_that_may_drop_a_logit(tmp_path, capsys):
    # each of dt's 4 entities can score a cell: a top-1 log loses logits
    # and would read reason=7.3897 instead of 7.7945
    for k in (1, 8):
        argv = ["episode", "run", "--scenario", "dt", "--seed", "3", "--log-topk", str(k)]
        assert main(argv + ["--out", str(tmp_path / f"top{k}.jsonl")]) == EXIT_OK
    capsys.readouterr()
    assert main(["eval", "losses", str(tmp_path / "top1.jsonl")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "top1.jsonl: frame 0: its top-1 logits may leave out a non-zero one" in err
    assert main(["eval", "losses", str(tmp_path / "top8.jsonl")]) == EXIT_OK
    assert capsys.readouterr().out == (
        "top8.jsonl: frames=500 traj=209.4546 reason=7.7945 total=211.0135\n"
        "overall: frames=500 traj=209.4546 reason=7.7945 total=211.0135\n")


@pytest.mark.parametrize("pairs, scenario, complete", [
    ([[1800, 2.0], [5, 1.0], [0, 0.0]], None, True),  # ends on a zero
    ([[5, 1.0], [1800, -0.5]], None, True),  # ends below zero
    ([[1800, 2.0], [5, 1.0]], None, False),  # no entity count to go by
    ([[1800, 2.0], [5, 1.0]], ScenarioSpec("stt"), True),  # 2 pairs, 1 entity
    ([[1800, 2.0], [5, 1.0]], ScenarioSpec("dt"), False),  # 2 pairs, 4 entities
    ([[5, 1.0], [7, 0.5]], ScenarioSpec("stt"), False),  # the invalid token is not listed
])
def test_the_top_k_rule_of_eval_losses(pairs, scenario, complete):
    header = SimpleNamespace(grid=PolarGrid(), scenario=scenario)
    assert PolarGrid().invalid_index == 1800
    assert _lists_every_logit(pairs, header) is complete


def test_replay_verify_rejects_an_empty_directory_and_a_cut_log(tmp_path, capsys):
    (tmp_path / "empty").mkdir()
    assert main(["replay", "verify", str(tmp_path / "empty")]) == EXIT_CONFIG
    assert "no episode files found" in capsys.readouterr().err

    ep = tmp_path / "ep.jsonl"
    assert main(["episode", "run", "--scenario", "stt", "--seed", "1", "--out", str(ep)]) == EXIT_OK
    lines = ep.read_text().splitlines(keepends=True)
    del lines[-2]  # the last frame, before the footer
    ep.write_text("".join(lines))
    capsys.readouterr()
    assert main(["replay", "verify", str(ep)]) == EXIT_RUNTIME
    out = capsys.readouterr().out
    # the cut log now fails on its ending, before its footer is compared
    assert "ends after 499 of 500 steps with no collision and no completed loss" in out
    assert out.splitlines()[-1] == "0 of 1 logs replay byte for byte"


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-1"])
def test_eval_losses_rejects_a_bad_text_loss_before_reading(tmp_path, capsys, value):
    # the episode file is not a log: reading it would be a runtime error
    bad = tmp_path / "ep.jsonl"
    bad.write_text("not a log\n")
    assert main(["eval", "losses", str(bad), f"--text-loss={value}"]) == EXIT_CONFIG
    assert "--text-loss" in capsys.readouterr().err


def test_dataset_gen_takes_the_configs_scenario_entry(tmp_path, capsys):
    cfgp = write_config(tmp_path / "cfg.json",
                        scenarios=[{"name": "stt", "episodes": 1, "max_steps": 20}])
    out = tmp_path / "data"
    argv = ["dataset", "gen", "--scenario", "stt", "--scenario", "obstacle", "--episodes", "1",
            "--config", str(cfgp), "--out", str(out)]
    assert main(argv) == EXIT_OK
    # stt takes the config's entry, obstacle (not listed) its defaults
    logs = {read_episode(p).header.scenario.name: read_episode(p) for p in out.glob("*.jsonl")}
    assert len(logs["stt"].frames) == 20
    assert logs["stt"].header.scenario == ScenarioSpec("stt", max_steps=20)
    assert logs["obstacle"].header.scenario == ScenarioSpec("obstacle")
    capsys.readouterr()
    assert main(["replay", "verify", str(out)]) == EXIT_OK
    assert capsys.readouterr().out.splitlines()[-1] == "2 of 2 logs replay byte for byte"


def test_replay_verify_reports_a_missing_file_and_checks_the_rest(tmp_path, capsys):
    ep = tmp_path / "ep.jsonl"
    assert main(["episode", "run", "--scenario", "stt", "--seed", "1", "--out", str(ep)]) == EXIT_OK
    missing = tmp_path / "nope.jsonl"
    capsys.readouterr()
    assert main(["replay", "verify", str(missing), str(ep)]) == EXIT_RUNTIME
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith(f"{missing}: ") and "No such file" in out[0]
    assert out[1:] == [f"{ep}: ok", "1 of 2 logs replay byte for byte"]
