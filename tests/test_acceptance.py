"""Acceptance suite: one test per criterion, each printing a pass line.

Heavier criteria (the directional ablation, occlusion recovery, and the
throughput run) execute hundreds of seeded episodes; the whole module is
sized to finish in a few minutes on one core.
"""

import math
import time

import numpy as np
import pytest
from scipy.stats import binomtest

from polartrack.config import RunConfig, ScenarioRun
from polartrack.bench import run_bench
from polartrack.gating import ConfidenceTrace, confidence, gate_weight
from polartrack.memory import TargetMemory, update_memory
from polartrack.metrics import (
    MetricRules,
    frame_tracked,
    reason_loss,
    total_loss,
    traj_loss,
)
from polartrack.perception import CameraRig, PerceptionParams
from polartrack.polar import PolarGrid, roundtrip_cell
from polartrack.policy import NUM_WAYPOINTS
from polartrack.runner import AgentRuntime, run_episode
from polartrack.scenarios import ScenarioSpec, make_scenario

GRID = PolarGrid()
RING = CameraRig.ring(4)
RULES = MetricRules()

# two-token grid for the scripted memory protocol: cell 0 plus invalid
TINY = PolarGrid(r_min=1.0, r_max=2.0, n_angle=1, n_dist=1)


def report(line: str):
    print(f"[acceptance] {line}")


def logits_with_confidence(target: float, k: int = 2) -> np.ndarray:
    lo, hi = 0.0, 500.0
    for _ in range(200):
        mid = (lo + hi) / 2
        v = np.zeros(k)
        v[0] = mid
        if confidence(v) < target:
            lo = mid
        else:
            hi = mid
    v = np.zeros(k)
    v[0] = (lo + hi) / 2
    return v


def runtime_for(arm: str, noiseless: bool = False) -> AgentRuntime:
    params = PerceptionParams().noiseless() if noiseless else PerceptionParams()
    return AgentRuntime(arm=arm, grid=GRID, rig=RING, perception=params, rules=RULES)


def occlusion_recovery(log, min_run=30, within=50):
    """(window length, steps to tracked after it) for the first invalid
    run of at least ``min_run`` ground-truth-invalid frames."""
    inv = [f.gt_invalid for f in log.frames]
    i, n = 0, len(inv)
    while i < n:
        if not inv[i]:
            i += 1
            continue
        j = i
        while j < n and inv[j]:
            j += 1
        if j - i >= min_run:
            for k in range(j, min(j + within, n)):
                if frame_tracked(log.frames[k].target_rel[1], log.frames[k].target_rel[0], RULES):
                    return (j - i, k - j)
            return (j - i, None)
        i = j
    return (0, None)


def test_criterion_1_codec_bijection():
    start = time.perf_counter()
    for token in range(GRID.n_cells):
        assert roundtrip_cell(GRID, token) == token
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"bijection sweep took {elapsed:.2f}s"
    report(f"1 PASS codec bijection: 1800/1800 round-trips in {elapsed * 1e3:.0f} ms")


def test_criterion_2_confidence_exactness():
    for k in (2, 4, 1801):
        assert abs(confidence(np.zeros(k))) <= 1e-9
    one_hot = np.zeros(1801)
    one_hot[0] = 1000.0
    assert confidence(one_hot) >= 1.0 - 1e-6
    half = confidence(np.array([10.0, 10.0, -10.0, -10.0]))
    assert abs(half - 0.5) <= 1e-4
    report("2 PASS confidence: uniform=0 (1e-9), one-hot>=1-1e-6, two-mass=0.5 (1e-4)")


def test_criterion_3_gate_arithmetic():
    trace = ConfidenceTrace().record(0.8).record(0.4)
    w = gate_weight(trace, 0.3)
    assert abs(w - 1.0 / 3.0) <= 1e-12
    assert gate_weight(trace, 0.0) == 0.0
    report("3 PASS gate: {0.8,0.4} & 0.3 -> 1/3 (1e-12); zero confidence -> 0 exactly")


def test_criterion_4_memory_protocol():
    f1 = np.array([1.0, 0.0, 2.0, -1.0])
    f2 = np.array([0.0, 1.0, 0.0, 3.0])
    f3 = np.array([5.0, 5.0, 5.0, 5.0])
    c1, c3 = 0.8, 0.9

    mem = TargetMemory.empty()
    # leading invalid: freeze (still empty) and one recorded zero
    mem = update_memory(mem, TINY.invalid_index, None, None, TINY)
    assert mem.is_empty and mem.trace.count == 1

    # first valid: adopt f1 wholesale
    mem = update_memory(mem, 0, confidence(logits_with_confidence(c1)), f1, TINY)
    assert np.array_equal(mem.slots, f1)

    # second valid with confidence equal to the running mean: w = 1/2
    c2 = mem.trace.mean
    mem = update_memory(mem, 0, confidence(logits_with_confidence(c2)), f2, TINY)
    mid = 0.5 * (f1 + f2)
    assert mem.slots == pytest.approx(mid, abs=1e-8)

    # 50 invalid steps: bitwise frozen, 50 zeros recorded
    frozen = mem.slots.tobytes()
    count0 = mem.trace.count
    for _ in range(50):
        mem = update_memory(mem, TINY.invalid_index, None, None, TINY)
    assert mem.slots.tobytes() == frozen
    assert mem.trace.count == count0 + 50

    # re-detection blends by the history-normalized weight; expected
    # value computed from the update equations directly
    mean = (0.0 + c1 + c2 + 0.0 * 50) / 53.0
    w3 = c3 / (mean + c3)
    expected = (1.0 - w3) * mem.slots + w3 * f3
    mem = update_memory(mem, 0, confidence(logits_with_confidence(c3)), f3, TINY)
    assert mem.slots == pytest.approx(expected, abs=1e-8)
    report("4 PASS memory protocol: adopt, half blend, 50-step freeze, gated re-blend")


def test_criterion_5_loss_kernels():
    assert abs(reason_loss(np.zeros(1801), 3) - math.log(1801)) <= 1e-9
    assert total_loss(1.0, 1.0, 0.0) == 1.2
    a = np.zeros((NUM_WAYPOINTS, 3))
    b = a.copy()
    a[0, 2], b[0, 2] = 359.0, 1.0
    assert traj_loss(a, b) == pytest.approx((2.0**2) / 3.0)
    report("5 PASS losses: reason(uniform)=ln1801 (1e-9), total(1,1,0)=1.2, wrapped angle")


def test_criterion_6_stt_convergence():
    spec = ScenarioSpec("stt")
    lo, hi = RULES.band
    for seed in range(50):
        log = run_episode(make_scenario(spec, seed), runtime_for("full", noiseless=True), spec, seed)
        assert log.outcome.success, f"seed {seed} failed: {log.outcome}"
        entered = next(
            (i for i, f in enumerate(log.frames) if lo <= f.target_rel[1] <= hi), None
        )
        assert entered is not None and entered < 200, f"seed {seed} entered at {entered}"
    report("6 PASS stt convergence: 50/50 noiseless successes, band reached < 200 steps")


def test_criterion_7_directional_ablation():
    spec = ScenarioSpec("dt")
    arms = ("full", "no_tim", "no_cot")
    success = {a: [] for a in arms}
    for seed in range(200):
        for arm in arms:
            log = run_episode(make_scenario(spec, seed), runtime_for(arm), spec, seed,
                              record=False)
            success[arm].append(log.outcome.success)
    sr = {a: sum(success[a]) for a in arms}
    assert sr["full"] > sr["no_tim"] > sr["no_cot"], sr

    pvals = {}
    for a, b in (("full", "no_tim"), ("no_tim", "no_cot")):
        wins = sum(1 for x, y in zip(success[a], success[b]) if x and not y)
        losses = sum(1 for x, y in zip(success[a], success[b]) if y and not x)
        pvals[(a, b)] = binomtest(wins, wins + losses, 0.5, alternative="greater").pvalue
        assert pvals[(a, b)] < 0.05, (a, b, wins, losses)
    report(
        "7 PASS ablation on dt (200 seeds/arm): "
        f"SR full {sr['full'] / 2:.1f}% > no_tim {sr['no_tim'] / 2:.1f}% > "
        f"no_cot {sr['no_cot'] / 2:.1f}%; "
        f"p(full>no_tim)={pvals[('full', 'no_tim')]:.1e}, "
        f"p(no_tim>no_cot)={pvals[('no_tim', 'no_cot')]:.1e}"
    )


def test_criterion_8_occlusion_recovery():
    spec = ScenarioSpec("obstacle")
    recovered = {"full": 0, "no_tim": 0}
    windows_ok = 0
    for seed in range(100):
        for arm in recovered:
            log = run_episode(make_scenario(spec, seed), runtime_for(arm), spec, seed)
            window, rec = occlusion_recovery(log)
            if arm == "full":
                windows_ok += window >= 30
            recovered[arm] += rec is not None
    assert windows_ok == 100, f"only {windows_ok}/100 seeds produced a >=30-step window"
    assert recovered["full"] >= 80, recovered
    assert recovered["full"] > recovered["no_tim"], recovered
    report(
        "8 PASS occlusion recovery: windows 100/100, "
        f"full {recovered['full']}/100 >= 80%, no_tim {recovered['no_tim']}/100"
    )


def test_criterion_9_bench_determinism(tmp_path):
    cfg = RunConfig()
    cfg.master_seed = 17
    cfg.arms = ["full", "no_tim"]
    cfg.scenarios = [
        ScenarioRun("stt", max_steps=200, episodes=3),
        ScenarioRun("dt", max_steps=200, episodes=3),
    ]
    outs = []
    for run_dir in (tmp_path / "a", tmp_path / "b"):
        report_obj, results = run_bench(cfg, jobs=1, out_dir=run_dir)
        assert all(r.error is None for r in results)
        outs.append(run_dir)
    import json

    a, b = outs
    for name in sorted(p.name for p in a.glob("*.jsonl")):
        assert (a / name).read_bytes() == (b / name).read_bytes(), name
    ra, _ = run_bench(cfg, jobs=1)
    rb, _ = run_bench(cfg, jobs=1)
    assert json.dumps(ra.to_dict()) == json.dumps(rb.to_dict())
    assert ra.to_table() == rb.to_table()
    report("9 PASS determinism: repeated bench runs byte-identical (logs and reports)")


def test_criterion_10_throughput(tmp_path):
    # 1,000 episodes x 500 steps, single worker; stt always runs to cap
    cfg = RunConfig()
    cfg.master_seed = 3
    cfg.arms = ["full"]
    cfg.scenarios = [ScenarioRun("stt", episodes=1000)]
    start = time.perf_counter()
    suite, results = run_bench(cfg, jobs=1)
    elapsed = time.perf_counter() - start
    assert all(r.error is None for r in results)
    assert suite.rows[0].episodes == 1000
    assert suite.rows[0].mean_el == 500.0
    assert elapsed < 300.0, f"1000x500 took {elapsed:.1f}s"

    # --jobs scaling stays monotone within measurement slack, and the
    # report is identical regardless of scheduling
    cfg.scenarios = [ScenarioRun("stt", max_steps=250, episodes=60)]
    t0 = time.perf_counter()
    r1, _ = run_bench(cfg, jobs=1)
    t1 = time.perf_counter() - t0
    t0 = time.perf_counter()
    r2, _ = run_bench(cfg, jobs=2)
    t2 = time.perf_counter() - t0
    assert r1.to_table() == r2.to_table()
    assert t2 <= t1 * 1.35, f"jobs=2 took {t2:.1f}s vs jobs=1 {t1:.1f}s"
    report(
        f"10 PASS throughput: 1000x500 steps in {elapsed:.1f}s (< 300s); "
        f"jobs scaling 1->2: {t1:.1f}s -> {t2:.1f}s"
    )
