"""polartrack benchmark: end-to-end metrics, or per-layer metrics from a
traced run, for one workload.

    python3 perfbench/run.py --workload stt_full --seed 1 --seconds 25 --trace 0

Run from anywhere; the program is imported from ``src/`` next to this
directory. The load is closed-loop: one client runs blocks of seeded
episodes back to back until ``--seconds`` have passed (``suite_jobs2``
hands each block to ``run_bench``'s own pool of 2 workers).

``--trace 0`` prints the end-to-end metrics, with timings relative to a
fixed reference kernel (``reference.py``). ``--trace 1`` runs every
block twice, untraced and traced, checks that both give the same results,
and prints the per-layer metrics and the tracing overhead.
The last stdout line is the result object; the line before it holds the
details (provenance, checks, sample counts, metrics the contract keeps
out of the result). See README.md for every metric.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from instrument import EpisodeTimer, Tracer
from workloads import WORKLOADS, config_dict, sizes

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_REPS = 7


def import_program():
    """Import polartrack from this checkout's ``src/`` and nowhere else."""
    pkg = SRC / "polartrack"
    if not (pkg / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no polartrack sources at {pkg}")
    sys.path.insert(0, str(SRC))
    import polartrack

    if Path(polartrack.__file__).resolve().parent != pkg.resolve():
        raise SystemExit(f"perfbench: imported polartrack from {polartrack.__file__}")


@dataclass
class Block:
    index: int
    wall: float  # rollout phase, seconds
    steps: int
    attempted: int
    failed: int
    outcomes: list  # (arm, EpisodeOutcome)
    fingerprint: str
    problems: list = field(default_factory=list)
    episodes: list = field(default_factory=list)  # see EpisodeTimer
    jobs: int = 1
    eval_wall: float = 0.0
    eval_frames: int = 0

    @property
    def ref_s(self) -> float:
        """The reference kernel's mean time during this block."""
        return statistics.mean(e[2] for e in self.episodes)

    @property
    def program_wall(self) -> float:
        """Rollout wall time without the kernel runs between episodes."""
        return self.wall - sum(e[3] for e in self.episodes) / self.jobs


def run_bench_block(w, seed, b, tiny, timer, tracer) -> Block:
    from polartrack import bench
    from polartrack.config import config_from_dict

    cfg = config_from_dict(config_dict(w, seed, b, tiny))
    t0 = time.perf_counter()
    report, results = bench.run_bench(cfg, jobs=cfg.jobs)
    wall = time.perf_counter() - t0
    if tracer is not None:
        tracer.absorb(results)

    problems = []
    failed = [r for r in results if r.error is not None]
    if failed:
        problems.append(f"{len(failed)} episodes failed, first: {failed[0].error}")
    outcomes = [(r.arm, r.outcome) for r in results if r.outcome is not None]
    episodes, max_steps, _ = sizes(w, tiny)
    want_rows = len(w.scenarios) * len(w.arms)
    if len(report.rows) != want_rows or any(r.episodes != episodes for r in report.rows):
        problems.append("report rows do not match the configured suite")
    if w.name == "stt_full" and any(
        o.episode_length != max_steps or o.reason != "cap" for _, o in outcomes
    ):
        problems.append("an stt_full episode ended before the step cap")
    return Block(
        index=b,
        wall=wall,
        steps=sum(o.episode_length for _, o in outcomes),
        attempted=len(results),
        failed=len(failed),
        outcomes=outcomes,
        fingerprint=json.dumps(report.to_dict(), sort_keys=True),
        problems=problems,
        episodes=timer.collect(results) if timer is not None else [],
        jobs=cfg.jobs,
    )


def run_dataset_block(w, seed, b, tiny, timer, work: Path) -> Block:
    from polartrack import cli, episodes
    from polartrack.config import config_from_dict
    from polartrack.episodes import read_episode
    from polartrack.metrics import score_episode

    cfg = config_from_dict(config_dict(w, seed, b, tiny))
    specs = [s.spec for s in cfg.scenarios]
    n = cfg.scenarios[0].episodes
    out = work / f"block{b}"
    problems = []
    t0 = time.perf_counter()
    try:
        paths = episodes.generate_dataset(
            specs, n_episodes=n, seed=cfg.master_seed, out_dir=out, rig=cfg.rig, grid=cfg.grid
        )
    except Exception as e:  # count the block as failed and keep measuring
        shutil.rmtree(out, ignore_errors=True)
        if timer is not None:
            timer.take()
        return Block(b, time.perf_counter() - t0, 0, len(specs) * n, len(specs) * n, [],
                     "", [f"generate_dataset failed: {e!r}"])
    wall = time.perf_counter() - t0

    text = io.StringIO()
    t1 = time.perf_counter()
    with contextlib.redirect_stdout(text):
        code = cli.main(["eval", "losses", str(out)])
    eval_wall = time.perf_counter() - t1
    lines = text.getvalue().splitlines()
    if code != 0 or not lines or not lines[-1].startswith("overall: "):
        problems.append(f"eval losses exited {code}")

    digest = hashlib.sha256(text.getvalue().encode())
    outcomes, frames = [], 0
    for p in paths:
        digest.update(p.read_bytes())
        log = read_episode(p)
        if score_episode(log, log.header.rules) != log.outcome:
            problems.append(f"{p.name}: recomputed score differs from the footer")
        outcomes.append((log.header.arm, log.outcome))
        frames += len(log.frames)
    shutil.rmtree(out)
    return Block(
        index=b,
        wall=wall,
        steps=frames,
        attempted=len(paths),
        failed=0,
        outcomes=outcomes,
        fingerprint=digest.hexdigest(),
        problems=problems,
        episodes=timer.take() if timer is not None else [],
        eval_wall=eval_wall,
        eval_frames=frames,
    )


def run_block(w, seed, b, tiny, work, timer=None, tracer=None) -> Block:
    if w.kind == "bench":
        return run_bench_block(w, seed, b, tiny, timer, tracer)
    return run_dataset_block(w, seed, b, tiny, timer, work)


def run_for(w, seed, tiny, work, seconds, timer) -> list[Block]:
    """Untraced blocks back to back: the core blocks, then more until
    ``seconds`` have passed."""
    core = sizes(w, tiny)[2]
    blocks = []
    start = time.perf_counter()
    while len(blocks) < core or time.perf_counter() - start < seconds:
        blocks.append(run_block(w, seed, len(blocks), tiny, work, timer=timer))
    return blocks


def run_paired(w, seed, tiny, work, seconds, tracer):
    """Each block untraced and then traced, the order alternating so that
    both halves see the same machine; until ``seconds`` have passed and at
    least the core blocks ran. Returns (untraced, traced, core counts)."""
    core = sizes(w, tiny)[2]
    untraced, traced = [], []
    start = time.perf_counter()
    while len(untraced) < core or time.perf_counter() - start < seconds:
        b = len(untraced)
        for with_trace in (False, True) if b % 2 == 0 else (True, False):
            if not with_trace:
                untraced.append(run_block(w, seed, b, tiny, work))
                continue
            tracer.install()
            try:
                traced.append(run_block(w, seed, b, tiny, work, tracer=tracer))
            finally:
                tracer.uninstall()
        if b + 1 == core:
            core_counts = tracer.snapshot()
    return untraced, traced, core_counts


# -- measurements ----------------------------------------------------------


def setup_times(w, seed, tiny, reps) -> list[float]:
    """Wall time from launching a fresh interpreter until the workload's
    set-up is done, once per rep."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "setup_probe.py"), w.name, str(seed), str(int(tiny))],
            stdout=subprocess.PIPE,
            cwd=ROOT,
            env=env,
            text=True,
        )
        with proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
        if proc.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe exited {proc.returncode}")
        times.append(elapsed)
    return times


def peak_rss_mb() -> float:
    """Peak resident memory of this process or of any waited-for child
    (the pool workers), in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def tail(values: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples) at the highest percentile that still
    has 10 samples above it."""
    s = sorted(values)
    n = len(s)
    if n <= 10:
        return s[-1], 100.0, n
    return s[n - 11], 100.0 * (n - 10) / n, n


def outcome_pcts(blocks: list[Block]) -> tuple[float, float]:
    full = [o for blk in blocks for arm, o in blk.outcomes if arm == "full"]
    if not full:
        return 0.0, 0.0
    sr = 100.0 * sum(o.success for o in full) / len(full)
    tr = 100.0 * sum(o.tracking_rate for o in full) / len(full)
    return sr, tr


def end_to_end(w, tiny, blocks, setup, rss):
    """Bounded metrics and details of an untraced run. Timings are in ref
    (see reference.py); their wall-clock forms go to the details."""
    timed = [b for b in blocks if b.episodes]
    per_step_s, per_step_ref = [], []
    for b in timed:
        for ns, steps, ref, _ in b.episodes:
            per_step_s.append(ns / 1e9 / steps)
            per_step_ref.append(ns / 1e9 / steps / ref)
    tail_ref, tail_pct, n = tail(per_step_ref)
    steps = sum(b.steps for b in timed)
    sr, tr = outcome_pcts(blocks[: sizes(w, tiny)[2]])
    metrics = {
        "steps_per_ref": (steps / sum(b.program_wall / b.ref_s for b in timed), "1/ref"),
        "episode_step_mref_p50": (1e3 * statistics.median(per_step_ref), "mref"),
        "episode_step_mref_tail": (1e3 * tail_ref, "mref"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (rss, "MB"),
        "sr_full_pct": (sr, "%"),
        "tr_full_pct": (tr, "%"),
    }
    attempted = sum(b.attempted for b in blocks)
    failed = sum(b.failed for b in blocks)
    refs = sorted(e[2] for b in timed for e in b.episodes)
    extra = {
        "error_ratio": {"value": failed / attempted, "unit": "ratio"},
        "steps_per_s": {"value": steps / sum(b.program_wall for b in timed), "unit": "1/s"},
        "episode_step_us_p50": {"value": 1e6 * statistics.median(per_step_s), "unit": "us"},
        "episode_step_us_tail": {"value": 1e6 * tail(per_step_s)[0], "unit": "us"},
        "ref_ms": {"min": 1e3 * refs[0], "median": 1e3 * statistics.median(refs),
                   "max": 1e3 * refs[-1]},
        "tail.percentile": tail_pct,
        "tail.samples": n,
        "setup_s.samples": setup,
        "blocks": len(blocks),
        "core_blocks": sizes(w, tiny)[2],
        "episodes": len(per_step_s),
        "steps": steps,
        "block_steps_per_s": [round(b.steps / b.program_wall, 1) for b in timed],
    }
    if w.kind == "dataset":
        eval_wall = sum(b.eval_wall for b in timed)
        frames = sum(b.eval_frames for b in timed)
        extra["eval_frames_per_s"] = {"value": frames / eval_wall, "unit": "1/s"}
        extra["eval_frames_per_ref"] = {
            "value": frames / sum(b.eval_wall / b.ref_s for b in timed), "unit": "1/ref"}
    return metrics, extra


def per_layer(w, tracer, traced, untraced, core_counts):
    """Per-layer metrics of a traced run. Times are self times in us per
    simulated step unless the unit says otherwise; counts and ratios come
    from the core blocks, so they repeat exactly per seed."""
    self_ns = tracer.self_times()
    total = tracer.counts
    steps = total["world.step"]
    n_episodes = total["runner.run_episode"]
    eval_frames = total["metrics.traj_loss"]
    written = total["frames_written"]

    def us(name, per):
        return self_ns.get(name, 0.0) / 1e3 / per if per else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    # rollout calls (one per block) and the episodes that started inside
    # each, wherever they ran
    a = tracer.arrays()
    ids = {n: i for i, n in enumerate(tracer.names)}
    is_ep = a["name"] == ids["runner.run_episode"]
    ep_start, ep_dur = a["start_ns"][is_ep], (a["end_ns"] - a["start_ns"])[is_ep]
    is_call = (a["name"] == ids["bench.run_bench"]) | (a["name"] == ids["episodes.generate_dataset"])
    busy, rollout, waits = 0, 0, []
    for t0, t1 in zip(a["start_ns"][is_call], a["end_ns"][is_call]):
        inside = ep_dur[(ep_start >= t0) & (ep_start < t1)].sum()
        busy += inside
        rollout += (t1 - t0) * w.jobs
        waits.append(((t1 - t0) - inside / w.jobs) / 1e9)

    c = core_counts

    metrics = {
        "world.step_us": (us("world.step", steps), "us"),
        "world.los_calls_per_step": (ratio(c["los_calls"], c["world.step"]), "1/step"),
        "world.los_useful_ratio": (ratio(c["los_distinct"], c["los_calls"]), "ratio"),
        "scenarios.make_scenario_us": (us("scenarios.make_scenario", n_episodes), "us/episode"),
        "perception.observe_us": (us("perception.observe", steps), "us"),
        "perception.observe_calls_per_step": (
            ratio(c["perception.observe"], c["world.step"]), "1/step"),
        "perception.nearest_detection_us": (us("perception.nearest_detection", steps), "us"),
        "perception.valid_token_ratio": (
            ratio(c["observe_valid"], c["perception.observe"]), "ratio"),
        "gating.confidence_us": (us("gating.confidence", steps), "us"),
        "memory.update_us": (us("memory.update", steps), "us"),
        "memory.similarity_us": (us("memory.similarity", steps), "us"),
        "memory.similarity_calls_per_step": (
            ratio(c["memory.similarity"], c["world.step"]), "1/step"),
        "memory.digest_us": (us("memory.digest", steps), "us"),
        "memory.blend_ratio": (ratio(c["update_blend"], c["memory.update"]), "ratio"),
        "policy.plan_expert_us": (us("policy.plan_expert", steps), "us"),
        "policy.plan_agent_us": (us("policy.plan_agent", steps), "us"),
        "policy.plan_from_polar_us": (us("policy.plan_from_polar", steps), "us"),
        "policy.execute_us": (us("policy.execute", steps), "us"),
        "policy.replay_plan_us": (us("policy.replay_plan", eval_frames), "us/frame"),
        "episodes.annotate_us": (us("episodes.annotate", steps), "us"),
        "episodes.view_flags_us": (us("episodes.view_flags", steps), "us"),
        "episodes.write_us_per_frame": (us("episodes.write", written), "us/frame"),
        "episodes.read_us_per_frame": (us("episodes.read", eval_frames), "us/frame"),
        "episodes.bytes_per_frame": (ratio(c["bytes_written"], c["frames_written"]), "B/frame"),
        "metrics.score_us": (us("metrics.score", n_episodes), "us/episode"),
        "metrics.traj_loss_us": (us("metrics.traj_loss", eval_frames), "us/frame"),
        "metrics.reason_loss_us": (us("metrics.reason_loss", eval_frames), "us/frame"),
        "runner.self_us": (us("runner.run_episode", steps), "us"),
        "bench.worker_busy_ratio": (ratio(busy, rollout), "ratio"),
        "bench.wait_s": (statistics.median(waits) if waits else 0.0, "s"),
        "trace.overhead_pct": (
            100.0 * (sum(b.wall for b in traced) / sum(b.wall for b in untraced) - 1.0), "%"),
    }
    all_self = sum(self_ns.values())
    extra = {
        "traced_steps": steps,
        "traced_episodes": n_episodes,
        "traced_eval_frames": eval_frames,
        "spans": len(tracer.spans),
        "untraced_steps_per_s": sum(b.steps for b in untraced) / sum(b.wall for b in untraced),
        "traced_steps_per_s": sum(b.steps for b in traced) / sum(b.wall for b in traced),
        "self_share_pct": {
            k: round(100.0 * v / all_self, 2) for k, v in sorted(self_ns.items()) if v
        },
        "core_counts": c,
    }
    return metrics, extra


# -- provenance ------------------------------------------------------------


def git_commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def provenance(seed: int) -> dict:
    import numpy

    cpu = None
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    src = hashlib.sha256()
    for p in sorted((SRC / "polartrack").glob("*.py")):
        src.update(p.name.encode() + b"\0" + p.read_bytes())
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": git_commit(),
        "src_sha256": src.hexdigest(),
        "loadavg_start": list(os.getloadavg()),
    }


# -- entry point -------------------------------------------------------------


def as_result(metrics: dict) -> dict:
    return {name: {"value": float(v), "unit": unit} for name, (v, unit) in metrics.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="one short block (self-test)")
    args = ap.parse_args(argv)

    import_program()
    if args.workload not in WORKLOADS:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}, expected {list(WORKLOADS)}")
    w = WORKLOADS[args.workload]
    prov = provenance(args.seed)
    work = OUT / f"work-{w.name}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            tracer = Tracer()
            blocks, traced, core_counts = run_paired(
                w, args.seed, args.tiny, work, args.seconds, tracer
            )
            problems = [f"block {b.index}: {p}" for b in blocks + traced for p in b.problems]
            problems += [
                f"block {t.index}: traced results differ from untraced"
                for u, t in zip(blocks, traced)
                if t.fingerprint != u.fingerprint
            ]
            metrics, extra = per_layer(w, tracer, traced, blocks, core_counts)
            tracer.save(OUT / f"spans-{w.name}.npz")
        else:
            timer = EpisodeTimer()
            timer.install()
            try:
                blocks = run_for(w, args.seed, args.tiny, work, args.seconds, timer)
            finally:
                timer.uninstall()
            problems = [f"block {b.index}: {p}" for b in blocks for p in b.problems]
            rss = peak_rss_mb()
            setup = setup_times(w, args.seed, args.tiny, 1 if args.tiny else SETUP_REPS)
            metrics, extra = end_to_end(w, args.tiny, blocks, setup, rss)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    prov["loadavg_end"] = list(os.getloadavg())
    attempted = sum(b.attempted for b in blocks)
    failed = sum(b.failed for b in blocks)
    detail = {
        "workload": w.name,
        "trace": args.trace,
        "provenance": prov,
        "problems": problems,
        "extra": extra,
    }
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": as_result(metrics),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
