"""A bench run that keeps no logs scores the same episodes as one that
writes them: run_bench without ``out_dir`` runs score-only episodes."""

import multiprocessing

import pytest
from test_golden import STOP_SETTINGS

from polartrack.bench import run_bench
from polartrack.config import config_from_dict
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


def test_run_bench_starts_no_more_workers_than_tasks(monkeypatch):
    asked = []

    class RecordingPool:
        """Records the worker count asked for and maps in-process."""

        def __init__(self, processes):
            asked.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks, chunksize=1):
            return [fn(t) for t in tasks]

    monkeypatch.setattr(multiprocessing, "Pool", RecordingPool)

    def report(episodes, jobs):
        cfg = config_from_dict({"arms": ["full"], "scenarios": [
            {"name": "stt", "episodes": episodes, "max_steps": 20}]})
        return run_bench(cfg, jobs=jobs)[0].to_dict()

    assert report(2, 8) == report(2, 1)
    assert asked == [2]
    report(1, 8)  # one task runs in-process
    assert asked == [2]
