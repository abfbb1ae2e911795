"""A bench run that keeps no logs scores the same episodes as one that
writes them: run_bench without ``out_dir`` runs score-only episodes."""

import math
import multiprocessing

import pytest
from test_golden import STOP_SETTINGS

from polartrack import bench
from polartrack.bench import run_bench
from polartrack.config import config_from_dict
from polartrack.episodes import derive_seed
from polartrack.records import FieldError
from polartrack.scenarios import SCENARIO_NAMES


# master seeds whose 4 x 3 suite ends episodes by collision and by loss
# as well as at the cap
@pytest.mark.parametrize("settings, seed", [({}, 3), (STOP_SETTINGS, 4)],
                         ids=["default", "stop"])
def test_a_bench_run_reports_the_same_with_and_without_logs(tmp_path, settings, seed):
    cfg = config_from_dict({
        "master_seed": seed,
        "scenarios": [{"name": n, "episodes": 2, "max_steps": 300} for n in SCENARIO_NAMES],
        **settings,
    })
    scored, scored_results = run_bench(cfg, jobs=1)
    logged, logged_results = run_bench(cfg, jobs=1, out_dir=tmp_path)
    assert len(list(tmp_path.glob("*.jsonl"))) == len(logged_results) == 24
    assert scored.to_dict() == logged.to_dict()
    assert [r.outcome for r in scored_results] == [r.outcome for r in logged_results]
    assert {r.outcome.reason for r in scored_results} == {"cap", "collision", "lost"}


@pytest.fixture
def pools(monkeypatch):
    """``(processes, chunksize)`` of every pool ``run_bench`` starts;
    the stand-in pool maps in-process."""
    started = []

    class RecordingPool:
        def __init__(self, processes):
            self.processes = processes

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks, chunksize=1):
            started.append((self.processes, chunksize))
            return [fn(t) for t in tasks]

    monkeypatch.setattr(multiprocessing, "Pool", RecordingPool)
    return started


def suite(scenarios, arms, episodes):
    return config_from_dict({"arms": arms, "scenarios": [
        {"name": n, "episodes": episodes, "max_steps": 20} for n in scenarios]})


def test_run_bench_starts_no_more_workers_than_tasks(pools):
    def report(episodes, jobs):
        return run_bench(suite(["stt"], ["full"], episodes), jobs=jobs)[0].to_dict()

    assert report(2, 8) == report(2, 1)
    assert [processes for processes, _ in pools] == [2]
    report(1, 8)  # one task runs in-process
    assert len(pools) == 1


def test_run_bench_hands_every_worker_a_chunk(pools):
    # at most 4 tasks a chunk, but never so many that a worker gets none
    for scenarios, arms, episodes, jobs, want in (
        (["stt"], ["full"], 3, 2, (2, 2)),
        (["stt"], ["full"], 4, 2, (2, 2)),
        (["stt"], ["full", "no_tim"], 3, 3, (3, 2)),
        (SCENARIO_NAMES, ["full", "no_tim", "no_cot"], 2, 2, (2, 4)),  # 24 tasks
    ):
        results = run_bench(suite(scenarios, arms, episodes), jobs=jobs)[1]
        processes, chunksize = pools[-1]
        assert (processes, chunksize) == want, (len(results), jobs)
        assert math.ceil(len(results) / chunksize) >= processes


@pytest.mark.parametrize("jobs", [0, -3])
def test_run_bench_rejects_fewer_than_one_job(monkeypatch, jobs):
    ran = []
    monkeypatch.setattr(bench, "_run_one", ran.append)
    with pytest.raises(FieldError, match=f"'jobs': must be >= 1, got {jobs}"):
        run_bench(suite(["stt"], ["full"], 1), jobs=jobs)
    assert not ran


def test_a_failing_arm_leaves_the_other_rows_in_config_order(monkeypatch, capsys):
    real = bench.run_episode

    def failing_for_no_tim(world, runtime, **kw):
        if runtime.arm == "no_tim":
            raise RuntimeError("boom")
        return real(world, runtime, **kw)

    monkeypatch.setattr(bench, "run_episode", failing_for_no_tim)
    cfg = suite(["stt", "dt"], ["no_cot", "no_tim", "full"], 2)
    report, results = run_bench(cfg, jobs=1)
    assert [(row.scenario, row.arm, row.episodes) for row in report.rows] == [
        ("stt", "no_cot", 2), ("stt", "full", 2), ("dt", "no_cot", 2), ("dt", "full", 2)]
    # every result comes back, in task order, with an error on each failed one;
    # episode e of scenario s runs on derive_seed(master_seed, s, e)
    assert [(r.scenario_index, r.arm, r.seed) for r in results] == [
        (s, arm, derive_seed(cfg.master_seed, s, e))
        for s in range(2) for arm in cfg.arms for e in range(2)]
    for r in results:
        if r.arm == "no_tim":
            assert r.error == "boom" and r.outcome is None
        else:
            assert r.error is None and r.outcome is not None
    assert capsys.readouterr().err.count("episode failed: ") == 4
