"""One full episode, narrated.

Runs the obstacle scenario: the target sprints through a corridor hidden
behind a wall, the token stream goes invalid, the pursuer holds toward
the last sighting and re-acquires on the far side. Prints a timeline and
the scored outcome.
"""

from polartrack import (
    AgentRuntime,
    CameraRig,
    MetricRules,
    PerceptionParams,
    PolarGrid,
    ScenarioSpec,
    make_scenario,
    run_episode,
)

spec = ScenarioSpec("obstacle")
seed = 1
runtime = AgentRuntime(
    grid=PolarGrid(),
    rig=CameraRig.ring(4),
    perception=PerceptionParams(),
    rules=MetricRules(),
)
log = run_episode(make_scenario(spec, seed), runtime, scenario=spec, seed=seed)

print(f"scenario={spec.name} seed={seed} arm={runtime.arm}")
print("step  dist  bearing  token    confidence  memory")
marks = set(range(0, len(log.frames), 25))
invalid = log.header.grid.invalid_index
for f in log.frames:
    if f.step not in marks:
        continue
    tok = "invalid" if f.token == invalid else f"{f.token:7d}"
    print(
        f"{f.step:4d}  {f.target_rel[1]:4.1f}  {f.target_rel[0]:7.1f}  {tok}  "
        f"{f.confidence:10.2f}  {f.mem_digest[:8]}"
    )

o = log.outcome
print(
    f"\noutcome: success={o.success} tracking_rate={o.tracking_rate:.2f} "
    f"collided={o.collided} length={o.episode_length} ({o.reason})"
)

runs = []
i, frames = 0, log.frames
while i < len(frames):
    if frames[i].gt_invalid:
        j = i
        while j < len(frames) and frames[j].gt_invalid:
            j += 1
        runs.append((i, j - i))
        i = j
    else:
        i += 1
print("invalid windows (start, length):", [r for r in runs if r[1] >= 5])
