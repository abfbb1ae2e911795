"""A bench run that keeps no logs scores the same episodes as one that
writes them: run_bench without ``out_dir`` runs score-only episodes."""

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
