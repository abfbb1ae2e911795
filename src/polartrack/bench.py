"""Benchmark suite runner: scenarios x arms x seeded episodes.

Episode seeds depend only on (master seed, scenario index, episode
index), never on the arm, so arms run on identical worlds and can be
compared pairwise. Workers are independent; results are merged in
(scenario, arm, episode) order regardless of scheduling, so reports are
byte-stable for a fixed config. A crashing episode is isolated: its seed
is reported and the rest of the suite continues.
"""

from __future__ import annotations

import math
import multiprocessing
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from .config import RunConfig
from .episodes import derive_seed, write_episode
from .metrics import EpisodeOutcome, SuiteReport, aggregate
from .runner import run_episode
from .scenarios import make_scenario


@dataclass
class EpisodeResult:
    scenario_index: int
    arm: str
    episode_index: int
    seed: int
    outcome: Optional[EpisodeOutcome]
    error: Optional[str] = None


def _run_one(args) -> EpisodeResult:
    cfg, scen_idx, arm, ep_idx, out_dir = args
    run = cfg.scenarios[scen_idx]
    seed = derive_seed(cfg.master_seed, scen_idx, ep_idx)
    try:
        world = make_scenario(run.spec, seed)
        runtime = cfg.runtime_for_arm(arm)
        log = run_episode(world, runtime, scenario=run.spec, seed=seed,
                          record=out_dir is not None)
        if out_dir is not None:
            path = Path(out_dir) / f"{run.name}_{arm}_{ep_idx:04d}.jsonl"
            write_episode(log, path)
        return EpisodeResult(scen_idx, arm, ep_idx, seed, log.outcome)
    except Exception as e:  # isolate the episode, keep the suite going
        return EpisodeResult(scen_idx, arm, ep_idx, seed, None, error=str(e))


def run_bench(
    cfg: RunConfig, jobs: Optional[int] = None, out_dir=None
) -> tuple[SuiteReport, list[EpisodeResult]]:
    """Run the whole suite; returns the report and the raw per-episode
    results (including any failures)."""
    jobs = jobs if jobs is not None else cfg.jobs
    if out_dir is not None:
        Path(out_dir).mkdir(parents=True, exist_ok=True)

    tasks = [
        (cfg, scen_idx, arm, ep_idx, None if out_dir is None else str(out_dir))
        for scen_idx, run in enumerate(cfg.scenarios)
        for arm in cfg.arms
        for ep_idx in range(run.episodes)
    ]

    jobs = min(jobs, len(tasks))
    if jobs > 1:
        # chunks of up to 4, but small enough that every worker gets one
        chunksize = min(4, math.ceil(len(tasks) / jobs))
        with multiprocessing.Pool(jobs) as pool:
            results = pool.map(_run_one, tasks, chunksize=chunksize)
    else:
        results = [_run_one(t) for t in tasks]

    # deterministic merge order, independent of scheduling
    results.sort(key=lambda r: (r.scenario_index, cfg.arms.index(r.arm), r.episode_index))

    failures = [r for r in results if r.error is not None]
    for r in failures:
        scen = cfg.scenarios[r.scenario_index].name
        print(
            f"episode failed: scenario={scen} arm={r.arm} seed={r.seed}: {r.error}",
            file=sys.stderr,
        )

    rows = []
    for scen_idx, run in enumerate(cfg.scenarios):
        for arm in cfg.arms:
            block = [
                r
                for r in results
                if r.scenario_index == scen_idx and r.arm == arm and r.outcome is not None
            ]
            if not block:
                continue
            rows.append(
                aggregate(
                    run.name,
                    arm,
                    [r.outcome for r in block],
                    [r.seed for r in block],
                )
            )
    return SuiteReport(rows=rows), results
