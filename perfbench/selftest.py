"""Quick self-test of the benchmark: every workload at a tiny size, untraced
and traced, must exit 0, pass its output checks and print exactly the
metrics BENCHMARK.json names, each with its unit. Takes well under a minute.

    python3 perfbench/selftest.py
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    bad = []
    for wl in spec["workloads"]:
        for trace in (0, 1):
            cmd = [*spec["command"], "--workload", wl["name"], "--seed", "1",
                   "--seconds", "1", "--trace", str(trace), "--tiny"]
            cmd[0] = sys.executable if cmd[0].startswith("python") else cmd[0]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
            where = f"{wl['name']} --trace {trace}"
            if proc.returncode != 0:
                bad.append(f"{where}: exit {proc.returncode}: {proc.stderr[-500:]}")
                continue
            result = json.loads(proc.stdout.splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                bad.append(f"{where}: result keys {sorted(result)}")
                continue
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                bad.append(f"{where}: checks failed: {proc.stdout.splitlines()[-2][:500]}")
            got = {k: v.get("unit") for k, v in result["metrics"].items()}
            if got != want[trace]:
                bad.append(f"{where}: metrics/units differ from BENCHMARK.json: "
                           f"missing {sorted(set(want[trace]) - set(got))}, "
                           f"extra {sorted(set(got) - set(want[trace]))}, "
                           f"units {[k for k in got if want[trace].get(k, got[k]) != got[k]]}")
            if not all(isinstance(v["value"], (int, float)) for v in result["metrics"].values()):
                bad.append(f"{where}: a metric value is not a number")
            print(f"ok  {where}" if not bad or not bad[-1].startswith(where) else f"BAD {where}")
    for b in bad:
        print(b, file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
