"""Benchmark suite runner: scenarios x arms x seeded episodes.

Episode seeds depend only on (master seed, scenario index, episode
index), never on the arm, so arms run on identical worlds and can be
compared pairwise. Workers are independent; results come back in
(scenario, arm, episode) order regardless of scheduling, so reports are
byte-stable for a fixed config. A crashing episode is isolated: its seed
is reported and the rest of the suite continues.
"""

from __future__ import annotations

import itertools
import multiprocessing
import pickle
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from .config import RunConfig
from .episodes import derive_seed, write_episode
from .metrics import EpisodeOutcome, SuiteReport, aggregate
from .records import FieldError
from .runner import run_episode
from .scenarios import make_scenario


@dataclass
class EpisodeResult:
    scenario_index: int
    arm: str
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
        return EpisodeResult(scen_idx, arm, seed, log.outcome)
    except Exception as e:  # isolate the episode, keep the suite going
        return EpisodeResult(scen_idx, arm, seed, None, error=str(e))


def _worker(conn, tasks) -> None:
    # _run_one is looked up per task, so a patch made before the fork holds here too
    for i in iter(conn.recv, None):
        conn.send(_run_one(tasks[i]))


def _run_in_workers(tasks: list, jobs: int) -> list[EpisodeResult]:
    """Run ``tasks`` on ``jobs`` worker processes, handing each one task index at a time,
    and join every worker before returning or raising. A worker that dies mid-task raises."""
    from multiprocessing.connection import wait  # deferred: a run on one job never loads it
    results, todo = [None] * len(tasks), iter(range(len(tasks)))
    workers, held = [], {}  # held: a worker's pipe -> (worker, the task index it runs)
    try:
        for i in itertools.islice(todo, jobs):
            conn, child = multiprocessing.Pipe()
            workers.append(multiprocessing.Process(target=_worker, args=(child, tasks), daemon=True))
            workers[-1].start()
            child.close()  # the worker holds the only other end, so its exit reads as EOF
            conn.send(i)
            held[conn] = (workers[-1], i)
        while held:
            for conn in wait(list(held)):
                worker, i = held.pop(conn)
                try:
                    result = conn.recv_bytes()
                except EOFError:
                    worker.join()
                    cfg, scen_idx, arm, ep_idx, _ = tasks[i]
                    raise RuntimeError(f"worker died (exit code {worker.exitcode}) running scenario="
                                       f"{cfg.scenarios[scen_idx].name} arm={arm} seed="
                                       f"{derive_seed(cfg.master_seed, scen_idx, ep_idx)}") from None
                # hand out the next index first, so the worker runs while its result is unpickled
                nxt = next(todo, None)
                conn.send(nxt)
                if nxt is not None:
                    held[conn] = (worker, nxt)
                results[i] = pickle.loads(result)
    except BaseException:
        for worker in workers:
            worker.terminate()
        raise
    finally:
        for worker in workers:
            worker.join()
    return results


def run_bench(
    cfg: RunConfig, jobs: Optional[int] = None, out_dir=None
) -> tuple[SuiteReport, list[EpisodeResult]]:
    """Run the whole suite on ``jobs`` >= 1 workers (default ``cfg.jobs``). Returns the
    report and every episode's result, failures included, in (scenario, arm, episode) order."""
    jobs = jobs if jobs is not None else cfg.jobs
    if jobs < 1:
        raise FieldError("jobs", f"must be >= 1, got {jobs}")
    if out_dir is not None:
        Path(out_dir).mkdir(parents=True, exist_ok=True)

    tasks = [
        (cfg, scen_idx, arm, ep_idx, None if out_dir is None else str(out_dir))
        for scen_idx, run in enumerate(cfg.scenarios)
        for arm in cfg.arms
        for ep_idx in range(run.episodes)
    ]

    jobs = min(jobs, len(tasks))
    results = _run_in_workers(tasks, jobs) if jobs > 1 else [_run_one(t) for t in tasks]

    rows = []
    # results are in task order, so each (scenario, arm) block is contiguous
    for (scen_idx, arm), block in itertools.groupby(results, lambda r: (r.scenario_index, r.arm)):
        name = cfg.scenarios[scen_idx].name
        done = []
        for r in block:
            if r.error is None:
                done.append(r)
            else:
                print(f"episode failed: scenario={name} arm={arm} seed={r.seed}: {r.error}",
                      file=sys.stderr)
        if done:
            rows.append(aggregate(name, arm, [r.outcome for r in done], [r.seed for r in done]))
    return SuiteReport(rows=rows), results
