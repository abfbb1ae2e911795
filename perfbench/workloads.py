"""The benchmark's workloads: which inputs each one feeds polartrack.

A workload runs in blocks. Block ``b`` of seed ``s`` is one ``RunConfig``
whose master seed is derived from ``(s, b)``, so the same seed always
gives the same blocks. The first ``core_blocks`` blocks always run; the
behaviour metrics (SR, TR) and the trace counters come from them alone,
so they repeat exactly per seed however many further blocks fit in the
measured time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "bench": run_bench over the config; "dataset": generate + eval losses
    scenarios: tuple
    arms: tuple
    episodes: int  # per (scenario, arm) and block
    max_steps: int
    jobs: int
    core_blocks: int


# why each workload was chosen is recorded in BENCHMARK.json
WORKLOADS = {
    w.name: w
    for w in (
        Workload("stt_full", "bench", ("stt",), ("full",), 4, 500, 1, 10),
        Workload("dt_ablation", "bench", ("dt",), ("full", "no_tim", "no_cot"), 4, 500, 1, 8),
        Workload("dataset_eval", "dataset", ("obstacle", "dt"), ("full",), 2, 500, 1, 4),
        Workload(
            "suite_jobs2", "bench", ("stt", "dt", "obstacle", "winding"),
            ("full", "no_tim", "no_cot"), 2, 150, 2, 4,
        ),
    )
}

# a tiny size for the self-test: one short block
TINY = {"episodes": 1, "max_steps": 40, "core_blocks": 1}


def sizes(w: Workload, tiny: bool) -> tuple[int, int, int]:
    """(episodes per block, max steps, core blocks)."""
    if tiny:
        return TINY["episodes"], TINY["max_steps"], TINY["core_blocks"]
    return w.episodes, w.max_steps, w.core_blocks


def block_seed(seed: int, block: int) -> int:
    return int(np.random.SeedSequence([seed, block]).generate_state(1)[0])


def config_dict(w: Workload, seed: int, block: int, tiny: bool = False) -> dict:
    """The run configuration of one block, as a user would write it."""
    episodes, max_steps, _ = sizes(w, tiny)
    return {
        "master_seed": block_seed(seed, block),
        "jobs": w.jobs,
        "arms": list(w.arms),
        "scenarios": [
            {"name": name, "max_steps": max_steps, "episodes": episodes}
            for name in w.scenarios
        ],
    }


def set_up(w: Workload, seed: int, tiny: bool = False):
    """Everything before a workload's first episode: imports, the parsed
    config, and the worker pool where there is one. Returns the pool (or
    None); the caller closes it."""
    from polartrack.config import config_from_dict

    if w.kind == "bench":
        import polartrack.bench  # noqa: F401
    else:
        import polartrack.cli  # noqa: F401
        import polartrack.episodes  # noqa: F401
    config_from_dict(config_dict(w, seed, 0, tiny))
    if w.jobs > 1:
        import multiprocessing

        pool = multiprocessing.Pool(w.jobs)
        pool.map(abs, range(w.jobs))
        return pool
    return None
