"""Write a ``BENCH_<n>.json`` from alternating runs of ``perfbench/run.py``
in a parent checkout and a change checkout.

    python tools/bench_pairs.py --parent <checkout> --change <checkout> \\
        --seed 2711 --claim dt_ablation:steps_per_ref \\
        --trace dt_ablation --what "<one paragraph>" --out BENCH_27.json

A checkout is a directory holding ``src/`` and ``perfbench/``, for example
``git archive <commit> | tar -x -C <dir>``. For each workload of the
change's ``BENCHMARK.json``, in its order, each of the ``PAIRS`` pairs ``k``
runs both sides with seed ``--seed + k`` for the file's ``run_seconds``
each, the parent first when ``k`` is even and the change first otherwise. Medians and quartiles
(``statistics.quantiles(n=4, method="inclusive")``), pair wins, ties, the
median change and the claim are computed here from the runs; none is
typed in. ``--claim`` may be left out, and ``--trace`` names the workloads
that get one traced run per side (seed ``--seed + PAIRS``) after the
pairs. ``tests/test_bench_files.py`` checks the file it writes.
"""

from __future__ import annotations

import argparse
import json
import shlex
import statistics
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from source_size import source_size  # noqa: E402

SIDES = ("parent", "change")
PAIRS = 10  # a claimed gain must win 9 of them
# the traced metrics a perf change is read by; the full set stays in each side's run
TRACED = ("world.step_us", "world.los_calls_per_step", "perception.observe_us",
          "perception.nearest_detection_us", "memory.similarity_us",
          "memory.similarity_calls_per_step", "runner.self_us", "trace.overhead_pct")


def run(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One ``perfbench/run.py`` run: its result (last stdout line) and
    details (the line before)."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=True)
    detail, result = (json.loads(line) for line in done.stdout.splitlines()[-2:])
    print(f"{checkout.name} {workload} seed={seed} trace={trace} "
          f"correct={result['correct']}", file=sys.stderr, flush=True)
    return {"result": result, "detail": detail}


def summary(runs: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(runs, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "runs": runs}


def compare(metric: dict, parent: list[float], change: list[float]) -> dict:
    """The end-to-end entry ``tests/test_bench_files.py`` checks."""
    higher = metric["better"] == "higher"
    pm, cm = statistics.median(parent), statistics.median(change)
    pct = 0.0 if pm == cm else (cm - pm) / pm * 100
    return {
        "unit": metric["unit"], "better": metric["better"], "bound": metric["bound"],
        "parent": summary(parent), "change": summary(change),
        "median_change_pct": round(pct, 2),
        "worse_than_bound": pct / 100 < -metric["bound"] if higher else pct / 100 > metric["bound"],
        "change_wins": sum((c > p) if higher else (c < p) for p, c in zip(parent, change)),
        "ties": sum(c == p for p, c in zip(parent, change)),
        "pairs": len(parent),
    }


def claim(metric: dict, workload: str, entry: dict) -> dict:
    """A gain is met when the change wins at least 9 pairs in 10 and its
    median moves past the parent's interquartile range."""
    sign = 1 if entry["better"] == "higher" else -1
    p, c = entry["parent"], entry["change"]
    iqr = p["q3"] - p["q1"]
    gain = sign * (c["median"] - p["median"])
    return {"metric": metric["name"], "workload": workload, "parent_median": p["median"],
            "change_median": c["median"], "gain_pct": round(sign * entry["median_change_pct"], 1),
            "parent_iqr": iqr, "change_wins": entry["change_wins"], "pairs": entry["pairs"],
            "met": entry["change_wins"] >= 0.9 * entry["pairs"] and gain > iqr}


def size(checkout: Path) -> dict:
    raw = code = 0
    for path in sorted((checkout / "src" / "polartrack").glob("*.py")):
        r, c = source_size(path.read_text(encoding="utf-8"))
        raw, code = raw + r, code + c
    return {"raw_lines": raw, "code_lines": code}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, required=True)
    ap.add_argument("--change", type=Path, required=True)
    ap.add_argument("--seed", type=int, required=True, help="seed of pair 0")
    ap.add_argument("--claim", help="<workload>:<metric> the change claims a gain on")
    ap.add_argument("--trace", nargs="*", default=[], help="workloads to trace once per side")
    ap.add_argument("--what", default="", help="what the change does, for the file's reader")
    ap.add_argument("--parent-commit", default=None, help="recorded as parent_commit")
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    bench = json.loads((checkouts["change"] / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    seeds = [args.seed + k for k in range(PAIRS)]

    runs = {w: {side: [] for side in SIDES} for w in workloads}
    for w in workloads:
        for k, seed in enumerate(seeds):
            for side in SIDES if k % 2 == 0 else SIDES[::-1]:
                runs[w][side].append(run(checkouts[side], w, seed, seconds, 0))
    traced = {w: {side: run(checkouts[side], w, args.seed + PAIRS, seconds, 1)
                  for side in SIDES} for w in args.trace}

    def values(w, side, name):
        return [r["result"]["metrics"][name]["value"] for r in runs[w][side]]

    end_to_end = {w: {m["name"]: compare(m, values(w, "parent", m["name"]),
                                         values(w, "change", m["name"]))
                      for m in bench["end_to_end"]} for w in workloads}
    out = {
        "what": args.what,
        "parent_commit": args.parent_commit,
        "machine": {key: runs[workloads[0]]["change"][0]["detail"]["provenance"][key]
                    for key in ("nproc", "cpu_model", "python", "numpy")},
        "commands": {
            "tool": shlex.join(["python", "tools/bench_pairs.py",
                                *(argv if argv is not None else sys.argv[1:])]),
            "end_to_end": f"python3 perfbench/run.py --workload <w> --seed <s> "
                          f"--seconds {seconds:g} --trace 0",
            "seeds": seeds,
            "order": f"{PAIRS} pairs per workload, workloads in BENCHMARK.json order; "
                     "the parent runs first in pairs with an even index, the change first "
                     "otherwise; each side from its own checkout",
            "quartiles": "statistics.quantiles(n=4, method='inclusive') over the runs",
        },
        "source_size": {"command": "tools/source_size.py rules on <checkout>/src/polartrack",
                        **{side: size(checkouts[side]) for side in SIDES}},
        "src_sha256": {w: {side: sorted({r["detail"]["provenance"]["src_sha256"]
                                         for r in runs[w][side]}) for side in SIDES}
                       for w in workloads},
        "sr_tr_identical_per_seed": {w: all(values(w, "parent", m) == values(w, "change", m)
                                            for m in ("sr_full_pct", "tr_full_pct"))
                                     for w in workloads},
        "operations_attempted_failed_correct": {
            w: {side: [[r["result"]["attempted"], r["result"]["failed"], r["result"]["correct"]]
                       for r in runs[w][side]] for side in SIDES} for w in workloads},
    }
    if args.claim:
        w, name = args.claim.split(":")
        metric = next(m for m in bench["end_to_end"] if m["name"] == name)
        out["claim"] = claim(metric, w, end_to_end[w][name])
    for w, sides in traced.items():
        metrics = {side: sides[side]["result"]["metrics"] for side in SIDES}
        out[f"trace_{w}"] = {
            "command": f"python3 perfbench/run.py --workload {w} --seed {args.seed + PAIRS} "
                       f"--seconds {seconds:g} --trace 1",
            "order": list(SIDES),
            "metrics": {name: {side: metrics[side][name]["value"] for side in SIDES}
                        for name in TRACED if name in metrics["parent"]},
            "runs": sides,
        }
    out["end_to_end"] = end_to_end
    args.out.write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
