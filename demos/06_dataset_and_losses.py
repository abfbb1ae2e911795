"""Dataset generation and the offline loss kernels.

Writes a small annotated expert dataset (JSONL episodes with ground-truth
tokens, expert trajectories and sparse logits), reads one file back, and
evaluates the trajectory / reasoning losses over it.
"""

import tempfile
from pathlib import Path

import numpy as np

from polartrack.episodes import generate_dataset, read_episode
from polartrack.gating import SparseLogits
from polartrack.metrics import reason_loss, total_loss, traj_loss
from polartrack.policy import advance_hold, execute_first, plan
from polartrack.scenarios import ScenarioSpec

out = Path(tempfile.mkdtemp(prefix="polartrack_demo_"))
paths = generate_dataset(
    [ScenarioSpec("stt", max_steps=200), ScenarioSpec("obstacle", max_steps=300)],
    n_episodes=2,
    seed=7,
    out_dir=out,
    randomize_rig=True,
)
print(f"wrote {len(paths)} episodes under {out}")

log = read_episode(paths[-1])
h = log.header
print(f"\n{paths[-1].name}: scenario={h.scenario.name} views={len(h.rig.views)}")
print(f"frames={len(log.frames)} outcome={log.outcome.reason} tr={log.outcome.tracking_rate:.2f}")
inv = sum(f.gt_invalid for f in log.frames)
print(f"invalid annotations: {inv} ({inv / len(log.frames):.0%})")

# replay the acted tokens through the planner the header names and
# compare to the expert
hold = None
t_loss, r_loss, n = 0.0, 0.0, 0
for f in log.frames:
    acted, hold = plan(f.token, h.grid, hold, h.policy, h.limits)
    hold = advance_hold(hold, execute_first(acted, h.limits))
    t_loss += traj_loss(acted, np.asarray(f.expert_traj))
    # the logged top-8 holds every non-zero logit of the frame
    logits = SparseLogits.from_pairs(h.grid.vocab_size, f.logits_topk)
    r_loss += reason_loss(logits, f.gt_token)
    n += 1
print(
    f"\nmean losses: traj={t_loss / n:.4f} reason={r_loss / n:.4f} "
    f"total={total_loss(t_loss / n, r_loss / n):.4f}"
)
print("(the same numbers come from: polartrack eval losses <dir>)")
