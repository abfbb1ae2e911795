"""Command line entry point.

Subcommands::

    polartrack episode run   one seeded episode, optionally logged
    polartrack bench run     scenarios x arms suite, prints the report
    polartrack dataset gen   annotated expert episodes as JSONL files
    polartrack eval losses   offline loss kernels over logged episodes
    polartrack replay dump   flatten an episode log into a CSV table
    polartrack replay verify re-run logs from their headers, byte for byte
    polartrack schema        print the JSONL episode schema
    polartrack config dump   write the default run config

Exit codes: 0 ok, 1 configuration error, 2 runtime error or a log that
fails ``replay verify``. Every command takes its seed from ``--seed``,
else the POLARTRACK_SEED variable, else the config's ``master_seed``,
else 0; POLARTRACK_JOBS stands in for an absent ``--jobs`` the same way.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import sys
from dataclasses import replace
from pathlib import Path
from typing import Optional

import numpy as np

from .bench import run_bench
from .config import ConfigError, RunConfig, load_config, save_config
from .episodes import (
    AgentSettings,
    generate_dataset,
    read_episode,
    schema_description,
    write_episode,
)
from .gating import SparseLogits
from .metrics import frame_tracked, reason_loss, total_loss, traj_loss
from .policy import advance_hold, execute_first, plan
from .records import FieldError
from .runner import ARMS, run_episode
from .scenarios import SCENARIO_NAMES, ScenarioSpec, make_scenario

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_RUNTIME = 2


def _flag_or_env(args, flag: str, default: int) -> int:
    """The ``--flag`` value, else the POLARTRACK_<FLAG> variable, else
    ``default``."""
    if getattr(args, flag, None) is not None:
        return getattr(args, flag)
    name = f"POLARTRACK_{flag.upper()}"
    v = os.environ.get(name)
    if v is None:
        return default
    try:
        return int(v)
    except ValueError:
        raise ConfigError(f"environment variable {name}={v!r} is not an integer")


def _load_or_default_config(args) -> RunConfig:
    """The ``--config`` file, else the defaults, with ``master_seed``
    taken from ``--seed`` or POLARTRACK_SEED when given; the config's own
    checks apply to the seed from either."""
    cfg = load_config(args.config) if args.config is not None else RunConfig()
    return replace(cfg, master_seed=_flag_or_env(args, "seed", cfg.master_seed))


def _spec_for(cfg: RunConfig, name: str) -> ScenarioSpec:
    """The spec of the config's scenario entry of that name, else the
    scenario's defaults."""
    return next((s.spec for s in cfg.scenarios if s.name == name), ScenarioSpec(name=name))


def cmd_episode_run(args) -> int:
    cfg = _load_or_default_config(args)
    seed = cfg.master_seed
    spec = _spec_for(cfg, args.scenario)
    runtime = cfg.runtime_for_arm(args.arm, args.log_topk)
    world = make_scenario(spec, seed)
    log = run_episode(world, runtime, scenario=spec, seed=seed, record=args.out is not None)
    o = log.outcome
    print(
        f"scenario={spec.name} arm={args.arm} seed={seed} "
        f"success={o.success} tr={o.tracking_rate:.3f} "
        f"collided={o.collided} el={o.episode_length} reason={o.reason}"
    )
    if args.out is not None:
        write_episode(log, args.out)
        print(f"wrote {args.out}")
    return EXIT_OK


def cmd_bench_run(args) -> int:
    cfg = _load_or_default_config(args)
    # flags and environment override the file and are checked like it
    cfg = replace(cfg, jobs=_flag_or_env(args, "jobs", cfg.jobs),
                  arms=cfg.arms if args.arm is None else [args.arm])
    report, results = run_bench(cfg, out_dir=args.out)
    print(report.to_table())
    if args.out is not None:
        out = Path(args.out)
        (out / "report.json").write_text(
            json.dumps(report.to_dict(), indent=2) + "\n", encoding="utf-8"
        )
        (out / "report.txt").write_text(report.to_table() + "\n", encoding="utf-8")
        print(f"wrote episode logs and report under {out}")
    if any(r.error is not None for r in results):
        return EXIT_RUNTIME
    return EXIT_OK


def cmd_dataset_gen(args) -> int:
    cfg = _load_or_default_config(args)
    if args.episodes < 1:
        raise ConfigError(f"--episodes must be >= 1, got {args.episodes}")
    specs = [_spec_for(cfg, n) for n in args.scenario]
    written = generate_dataset(
        specs,
        n_episodes=args.episodes,
        seed=cfg.master_seed,
        out_dir=args.out,
        randomize_rig=args.randomize_rig,
        **AgentSettings.values_of(cfg),
    )
    print(f"wrote {len(written)} episodes to {args.out}")
    return EXIT_OK


def _replay_acted_trajectories(log):
    """Rebuild the trajectories the policy produced by replaying the
    logged token sequence through the planner, including the dead
    reckoning applied after each executed command."""
    h = log.header
    hold = None
    for f in log.frames:
        traj, hold = plan(f.token, h.grid, hold, h.policy, h.limits)
        hold = advance_hold(hold, execute_first(traj, h.limits))
        yield f, traj


def _lists_every_logit(pairs, header) -> bool:
    """Whether logged top-k ``pairs`` hold every non-zero logit: cells score
    >= 0, one per entity at most, so with the invalid token listed none is
    left out when the pairs end on a value <= 0 or outnumber the entities."""
    entities = math.inf if header.scenario is None else 1 + header.scenario.n_distractors
    return (any(i == header.grid.invalid_index for i, _ in pairs)
            and (pairs[-1][1] <= 0.0 or len(pairs) > entities))


def _episode_paths(args) -> list[Path]:
    """The episode files named, directories standing for their logs."""
    paths = []
    for p in map(Path, args.episodes):
        paths.extend(sorted(p.glob("*.jsonl")) if p.is_dir() else [p])
    if not paths:
        raise ConfigError(f"{args.command} {args.sub}: no episode files found")
    return paths


def cmd_eval_losses(args) -> int:
    if not 0.0 <= args.text_loss < math.inf:
        raise ConfigError(f"--text-loss must be finite and >= 0, got {args.text_loss!r}")
    paths = _episode_paths(args)
    grand_traj, grand_reason, n_frames = 0.0, 0.0, 0
    for path in paths:
        log = read_episode(path)
        k = log.header.grid.vocab_size
        ep_traj, ep_reason, n = 0.0, 0.0, 0
        for f, acted in _replay_acted_trajectories(log):
            ep_traj += traj_loss(acted, np.asarray(f.expert_traj))
            if f.logits_topk is None:
                raise ConfigError(
                    f"{path}: frames carry no logits; generate the dataset "
                    "with top-k logit logging to evaluate the reasoning loss"
                )
            if not _lists_every_logit(f.logits_topk, log.header):
                raise ConfigError(
                    f"{path}: frame {f.step}: its top-{len(f.logits_topk)} logits may leave "
                    "out a non-zero one; log more of them to evaluate the reasoning loss"
                )
            ep_reason += reason_loss(SparseLogits.from_pairs(k, f.logits_topk), f.gt_token)
            n += 1
        print(
            f"{path.name}: frames={n} traj={ep_traj / n:.4f} "
            f"reason={ep_reason / n:.4f} "
            f"total={total_loss(ep_traj / n, ep_reason / n, args.text_loss):.4f}"
        )
        grand_traj += ep_traj
        grand_reason += ep_reason
        n_frames += n
    mt, mr = grand_traj / n_frames, grand_reason / n_frames
    print(
        f"overall: frames={n_frames} traj={mt:.4f} reason={mr:.4f} "
        f"total={total_loss(mt, mr, args.text_loss):.4f}"
    )
    return EXIT_OK


def cmd_replay_dump(args) -> int:
    log = read_episode(args.episode)
    rules = log.header.rules
    lines = [
        "step,agent_x,agent_y,agent_heading,target_x,target_y,"
        "token,confidence,mem0_a,mem0_b,mem0_c,tracked"
    ]
    for f in log.frames:
        mem_cols = [*map(repr, f.mem_slot0 or ()), "", "", ""][:3]
        tracked = int(frame_tracked(f.target_rel[1], f.target_rel[0], rules))
        cols = [
            str(f.step),
            *map(repr, f.agent),
            *map(repr, f.target),
            str(f.token),
            repr(f.confidence),
            *mem_cols,
            str(tracked),
        ]
        lines.append(",".join(cols))
    text = "\n".join(lines) + "\n"
    Path(args.out).write_text(text, encoding="utf-8")
    print(f"wrote {len(log.frames)} rows to {args.out}")
    return EXIT_OK


def _replay_mismatch(path: Path) -> Optional[str]:
    """Why the log at ``path`` does not re-run from its header to the same
    bytes, or None when it does. An unreadable file is its own mismatch."""
    try:
        h = read_episode(path).header
        if h.scenario is None:
            return "not replayable: a hand-built world (scenario null)"
        rerun = run_episode(make_scenario(h.scenario, h.seed), h, h.scenario, h.seed)
    except (OSError, ValueError, RuntimeError) as e:
        return str(e)
    logged = path.read_text(encoding="utf-8").splitlines(keepends=True)
    replayed = rerun.to_jsonl().splitlines(keepends=True)
    for i, (a, b) in enumerate(itertools.zip_longest(logged, replayed)):
        if a == b:
            continue
        if a is None or b is None:
            return f"line {i + 1}: {'missing from the log' if a is None else 'not replayed'}"
        x, y = json.loads(a), json.loads(b)
        # repr tells 1 from 1.0, which compare equal
        field = next((k for k in {**x, **y} if repr(x.get(k)) != repr(y.get(k))), None)
        if field is None:
            return f"line {i + 1}: written differently"
        return (f"line {i + 1}: '{field}' is {x.get(field)!r} in the log, "
                f"{y.get(field)!r} on replay")
    return None


def cmd_replay_verify(args) -> int:
    paths = _episode_paths(args)
    failed = 0
    for path in paths:
        problem = _replay_mismatch(path)
        print(f"{path}: {problem or 'ok'}")
        failed += problem is not None
    print(f"{len(paths) - failed} of {len(paths)} logs replay byte for byte")
    return EXIT_RUNTIME if failed else EXIT_OK


def cmd_schema(args) -> int:
    print(schema_description())
    return EXIT_OK


def cmd_config_dump(args) -> int:
    save_config(RunConfig(), args.out)
    print(f"wrote default config to {args.out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="polartrack",
        description="Polar-token pursuit simulator and benchmark harness.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    ep = sub.add_parser("episode", help="single-episode operations")
    eps = ep.add_subparsers(dest="sub", required=True)
    ep_run = eps.add_parser("run", help="run one seeded episode")
    ep_run.add_argument("--scenario", choices=SCENARIO_NAMES, default="stt")
    ep_run.add_argument("--arm", choices=ARMS, default="full")
    ep_run.add_argument("--seed", type=int, default=None, help="episode seed (else master_seed)")
    ep_run.add_argument("--config", default=None, help="run-config JSON file")
    ep_run.add_argument("--out", default=None, help="write the episode log here")
    ep_run.add_argument("--log-topk", type=int, default=0, dest="log_topk")
    ep_run.set_defaults(func=cmd_episode_run)

    be = sub.add_parser("bench", help="benchmark suite operations")
    bes = be.add_subparsers(dest="sub", required=True)
    be_run = bes.add_parser("run", help="run scenarios x arms and print the report")
    be_run.add_argument("--config", default=None, help="run-config JSON file")
    be_run.add_argument("--seed", type=int, default=None, help="override the master seed")
    be_run.add_argument("--jobs", type=int, default=None, help="parallel episode workers")
    be_run.add_argument("--arm", choices=ARMS, default=None, help="run only this arm")
    be_run.add_argument("--out", default=None, help="directory for logs and reports")
    be_run.set_defaults(func=cmd_bench_run)

    ds = sub.add_parser("dataset", help="dataset operations")
    dss = ds.add_subparsers(dest="sub", required=True)
    ds_gen = dss.add_parser("gen", help="generate annotated expert episodes")
    ds_gen.add_argument(
        "--scenario", action="append", choices=SCENARIO_NAMES, required=True,
        help="may be given multiple times",
    )
    ds_gen.add_argument("--episodes", type=int, required=True)
    ds_gen.add_argument("--seed", type=int, default=None)
    ds_gen.add_argument("--config", default=None)
    ds_gen.add_argument("--out", required=True)
    ds_gen.add_argument("--randomize-rig", action="store_true", dest="randomize_rig")
    ds_gen.set_defaults(func=cmd_dataset_gen)

    ev = sub.add_parser("eval", help="offline evaluation")
    evs = ev.add_subparsers(dest="sub", required=True)
    ev_losses = evs.add_parser("losses", help="loss kernels over logged episodes")
    ev_losses.add_argument("episodes", nargs="+", help="episode files or directories")
    ev_losses.add_argument("--text-loss", type=float, default=0.0, dest="text_loss")
    ev_losses.set_defaults(func=cmd_eval_losses)

    rp = sub.add_parser("replay", help="replay operations")
    rps = rp.add_subparsers(dest="sub", required=True)
    rp_dump = rps.add_parser("dump", help="flatten an episode log to CSV")
    rp_dump.add_argument("--episode", required=True)
    rp_dump.add_argument("--out", required=True)
    rp_dump.set_defaults(func=cmd_replay_dump)
    rp_verify = rps.add_parser("verify", help="re-run logs from their headers, byte for byte")
    rp_verify.add_argument("episodes", nargs="+", help="episode files or directories")
    rp_verify.set_defaults(func=cmd_replay_verify)

    sc = sub.add_parser("schema", help="print the JSONL episode schema")
    sc.set_defaults(func=cmd_schema)

    cf = sub.add_parser("config", help="configuration helpers")
    cfs = cf.add_subparsers(dest="sub", required=True)
    cf_dump = cfs.add_parser("dump", help="write the default run config")
    cf_dump.add_argument("--out", required=True)
    cf_dump.set_defaults(func=cmd_config_dump)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, FieldError) as e:  # a FieldError here: a bad flag or variable
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except FileNotFoundError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_RUNTIME
    except Exception as e:
        print(f"runtime error: {e}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
