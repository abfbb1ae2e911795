"""A bench run that keeps no logs scores the same episodes as one that
writes them: run_bench without ``out_dir`` runs score-only episodes."""

import multiprocessing
import os
import signal

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
def started(monkeypatch):
    """Every worker process ``run_bench`` starts, in start order."""
    started = []

    class RecordingProcess(multiprocessing.Process):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(multiprocessing, "Process", RecordingProcess)
    return started


def suite(scenarios, arms, episodes):
    return config_from_dict({"arms": arms, "scenarios": [
        {"name": n, "episodes": episodes, "max_steps": 20} for n in scenarios]})


def test_run_bench_starts_no_more_workers_than_tasks(started):
    def report(episodes, jobs):
        return run_bench(suite(["stt"], ["full"], episodes), jobs=jobs)[0].to_dict()

    assert report(3, 8) == report(3, 1)
    assert len(started) == 3
    report(1, 8)  # one task runs in-process
    report(2, 1)  # and so does every task with one job
    assert len(started) == 3
    assert not multiprocessing.active_children()


def test_every_started_worker_runs_a_task(monkeypatch, started):
    real = bench._run_one

    def stamped(args):
        result = real(args)
        result.pid = os.getpid()
        return result

    monkeypatch.setattr(bench, "_run_one", stamped)
    for scenarios, arms, episodes, jobs in (
        (["stt"], ["full"], 3, 2),
        (["stt"], ["full", "no_tim"], 3, 3),
        (["stt"], ["full"], 2, 3),
        (SCENARIO_NAMES, ["full", "no_tim", "no_cot"], 2, 2),  # 24 tasks
    ):
        n = len(started)
        results = run_bench(suite(scenarios, arms, episodes), jobs=jobs)[1]
        workers = started[n:]
        assert len(workers) == min(jobs, len(results))
        assert {r.pid for r in results} == {w.pid for w in workers}, (len(results), jobs)


def test_a_worker_that_dies_raises_instead_of_hanging(monkeypatch):
    real = bench._run_one

    def dying(args):
        if args[3] == 1:  # episode index 1
            os._exit(3)
        return real(args)

    def on_alarm(signum, frame):
        raise TimeoutError("run_bench still waits 60 s after a worker died")

    monkeypatch.setattr(bench, "_run_one", dying)
    cfg = suite(["dt"], ["full"], 3)
    seed = derive_seed(cfg.master_seed, 0, 1)
    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.alarm(60)  # a hang fails the test instead of stalling the suite
    try:
        with pytest.raises(RuntimeError, match=rf"exit code 3\) running scenario=dt arm=full "
                                               rf"seed={seed}$"):
            run_bench(cfg, jobs=2)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert not multiprocessing.active_children()


@pytest.mark.parametrize("jobs", [0, -3])
def test_run_bench_rejects_fewer_than_one_job(monkeypatch, jobs):
    ran = []
    monkeypatch.setattr(bench, "_run_one", ran.append)
    with pytest.raises(FieldError, match=f"'jobs': must be >= 1, got {jobs}"):
        run_bench(suite(["stt"], ["full"], 1), jobs=jobs)
    assert not ran


@pytest.mark.parametrize("jobs", [1, 2, 3])
def test_a_failing_arm_leaves_the_other_rows_in_config_order(monkeypatch, capsys, jobs):
    real = bench.run_episode

    def failing_for_no_tim(world, runtime, **kw):
        if runtime.arm == "no_tim":
            raise RuntimeError("boom")
        return real(world, runtime, **kw)

    monkeypatch.setattr(bench, "run_episode", failing_for_no_tim)
    cfg = suite(["stt", "dt"], ["no_cot", "no_tim", "full"], 2)
    report, results = run_bench(cfg, jobs=jobs)
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
