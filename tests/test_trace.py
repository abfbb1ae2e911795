"""The benchmark's tracer (perfbench/instrument.py) wraps polartrack's
names by lookup. A rename under src/ that breaks it fails here."""

import contextlib
import io
import sys
from pathlib import Path

import pytest

from polartrack import bench, cli, episodes
from polartrack.config import RunConfig, ScenarioRun
from polartrack.metrics import MetricRules
from polartrack.runner import ARMS
from polartrack.scenarios import ScenarioSpec

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def instrument():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import instrument

        yield instrument
    finally:
        sys.path.remove(str(PERFBENCH))


def run(out_dir):
    cfg = RunConfig(
        master_seed=4,
        arms=list(ARMS),
        scenarios=[ScenarioRun("dt", max_steps=40, episodes=1)],
    )
    report, results = bench.run_bench(cfg, jobs=1, out_dir=out_dir)
    assert all(r.error is None for r in results)
    logs = {p.name: p.read_bytes() for p in sorted(Path(out_dir).glob("*.jsonl"))}
    assert len(logs) == len(ARMS)
    return report, results, logs


def test_traced_episodes_match_untraced(instrument, tmp_path):
    plain = run(tmp_path / "plain")
    tracer = instrument.Tracer()
    tracer.install()
    try:
        traced = run(tmp_path / "traced")
    finally:
        tracer.uninstall()
    assert traced[0] == plain[0]
    assert traced[2] == plain[2]

    counts = tracer.snapshot()
    steps = {r.arm: r.outcome.episode_length for r in traced[1]}
    entities = len(bench.make_scenario(ScenarioSpec("dt"), 0).entities)
    # the expert plans every step and is told apart from the agent by
    # call order; the agent plans only in the token arms, on each invalid
    # token and on each valid token's first visit in its episode
    assert counts["policy.plan_expert"] == sum(steps.values())
    agent_plans = 0
    for path in sorted((tmp_path / "traced").glob("*.jsonl")):
        log = episodes.read_episode(path)
        if log.header.arm != "no_cot":
            tokens = [f.token for f in log.frames]
            invalid = log.header.grid.invalid_index
            agent_plans += tokens.count(invalid) + len(set(tokens) - {invalid})
    assert 0 < agent_plans < steps["full"] + steps["no_tim"]
    assert counts["policy.plan_agent"] == agent_plans
    assert counts["perception.nearest_detection"] == steps["no_cot"]
    assert counts["world.step"] == sum(steps.values())
    # one line-of-sight query per entity per step, none repeated
    assert counts["los_calls"] == sum(n + 1 for n in steps.values()) * entities
    assert counts["los_distinct"] == counts["los_calls"]


def dataset(out_dir):
    episodes.generate_dataset([ScenarioSpec("obstacle", max_steps=30)], n_episodes=2, seed=5,
                              out_dir=out_dir)
    text = io.StringIO()
    with contextlib.redirect_stdout(text):
        assert cli.main(["eval", "losses", str(out_dir)]) == 0
    logs = {p.name: p.read_bytes() for p in sorted(Path(out_dir).glob("*.jsonl"))}
    assert len(logs) == 2
    return logs, text.getvalue()


def test_traced_dataset_matches_untraced(instrument, tmp_path):
    plain = dataset(tmp_path / "plain")
    tracer = instrument.Tracer()
    tracer.install()
    try:
        traced = dataset(tmp_path / "traced")
    finally:
        tracer.uninstall()
    assert traced == plain

    counts = tracer.snapshot()
    frames = sum(log.count(b'"type":"frame"') for log in plain[0].values())
    assert counts["episodes.write"] == len(plain[0])
    assert counts["episodes.read"] == len(plain[0])
    # eval losses replays every frame through plan, execute_first and
    # advance_hold
    assert counts["policy.replay_plan"] == 3 * frames


def test_the_episode_timer_counts_each_episodes_steps(instrument, tmp_path):
    # a lost radius of 3.2 m with a patience of 8 ends some of these
    # score-only episodes early and lets the rest reach the cap
    cfg = RunConfig(
        master_seed=4,
        arms=list(ARMS),
        rules=MetricRules(lost_radius=3.2, lost_patience=8),
        scenarios=[ScenarioRun(n, max_steps=40, episodes=1) for n in ("stt", "obstacle")],
    )
    timer = instrument.EpisodeTimer()
    timer.install()
    try:
        _, results = bench.run_bench(cfg, jobs=1)
        timed = timer.collect(results)
        (path,) = episodes.generate_dataset([ScenarioSpec("stt", max_steps=30)], n_episodes=1,
                                            seed=5, out_dir=tmp_path)
        dataset_timed = timer.take()
    finally:
        timer.uninstall()
    lengths = [r.outcome.episode_length for r in results]
    assert {r.outcome.reason for r in results} == {"cap", "lost"}
    assert [steps for _, steps, _, _ in timed] == lengths
    assert [steps for _, steps, _, _ in dataset_timed] == [
        episodes.read_episode(path).outcome.episode_length]
