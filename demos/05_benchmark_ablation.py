"""Small ablation bench: full vs. memory-less vs. token-less.

Runs the distracted-tracking split across the three arms on shared
episode seeds and prints the report table. A desk-scale mirror of the
benchmark structure: the full stack should lead, the arm without the
appearance memory should land in the middle, and the arm without token
reasoning should trail.
"""

from polartrack.bench import run_bench
from polartrack.config import RunConfig, ScenarioRun

cfg = RunConfig()
cfg.master_seed = 0
cfg.arms = ["full", "no_tim", "no_cot"]
cfg.scenarios = [
    ScenarioRun("stt", episodes=25),
    ScenarioRun("dt", episodes=25),
]

report, results = run_bench(cfg, jobs=1)
print(report.to_table())

failures = [r for r in results if r.error]
print(f"\n{len(results)} episodes, {len(failures)} failures")
print("(same seeds across arms, so rows within a scenario are paired)")
