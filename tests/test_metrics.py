import math

import numpy as np
import pytest

from polartrack.metrics import (
    EpisodeOutcome,
    MetricRules,
    SuiteReport,
    aggregate,
    frame_tracked,
    reason_loss,
    score_episode,
    total_loss,
    traj_loss,
)
from polartrack.policy import NUM_WAYPOINTS

RULES = MetricRules()


class StubFrame:
    def __init__(self, dist, theta=0.0, collided=False):
        self.target_rel = (theta, dist)
        self.collided = collided


class StubHeader:
    def __init__(self, max_steps=500):
        self.max_steps = max_steps


class StubLog:
    def __init__(self, frames, max_steps=500):
        self.frames = frames
        self.header = StubHeader(max_steps)


def test_perfect_episode():
    log = StubLog([StubFrame(2.0) for _ in range(500)])
    o = score_episode(log, RULES)
    assert o.success
    assert o.tracking_rate == 1.0
    assert o.episode_length == 500
    assert o.reason == "cap"
    assert not o.collided


def test_collision_episode():
    frames = [StubFrame(2.0) for _ in range(16)] + [StubFrame(2.0, collided=True)]
    o = score_episode(StubLog(frames), RULES)
    assert o.collided
    assert not o.success
    assert o.episode_length == 17
    assert o.reason == "collision"


def test_half_tracked_episode():
    # 249 tracked + 250 untracked + a final tracked frame: TR = 0.5 and
    # the episode ends in the band, correctly oriented
    frames = (
        [StubFrame(2.0) for _ in range(249)]
        + [StubFrame(4.5) for _ in range(250)]
        + [StubFrame(2.5, theta=10.0)]
    )
    o = score_episode(StubLog(frames), RULES)
    assert o.tracking_rate == pytest.approx(0.5)
    assert o.success
    assert o.episode_length == 500


def test_orientation_gate():
    frames = [StubFrame(2.0, theta=40.0)]
    o = score_episode(StubLog(frames, max_steps=1), RULES)
    assert not o.success  # oriented worse than the 30 degree tolerance
    frames = [StubFrame(2.0, theta=331.0)]  # -29 degrees, wrapped
    o = score_episode(StubLog(frames, max_steps=1), RULES)
    assert o.success


def test_early_end_without_collision_is_lost():
    # a complete loss run: 51 frames beyond the 6 m lost radius
    frames = [StubFrame(2.0) for _ in range(99)] + [StubFrame(7.0) for _ in range(51)]
    o = score_episode(StubLog(frames), RULES)
    assert o.reason == "lost"
    assert not o.collided


def far(n):
    return [StubFrame(RULES.lost_radius + 1.0) for _ in range(n)]


def test_a_loss_of_patience_plus_one_far_frames_before_the_cap_is_lost():
    frames = [StubFrame(2.0) for _ in range(10)] + far(RULES.lost_patience + 1)
    o = score_episode(StubLog(frames, max_steps=len(frames) + 1), RULES)
    assert o.reason == "lost" and o.episode_length == 61
    # one far frame fewer is no loss: the episode cannot end there
    with pytest.raises(ValueError, match="no collision and no completed loss"):
        score_episode(StubLog(frames[:-1], max_steps=len(frames) + 1), RULES)
    # a frame at the lost radius itself is not beyond it
    frames[-1] = StubFrame(RULES.lost_radius)
    with pytest.raises(ValueError, match="no collision and no completed loss"):
        score_episode(StubLog(frames, max_steps=len(frames) + 1), RULES)


def test_a_loss_completed_on_the_last_step_is_the_cap():
    frames = [StubFrame(2.0) for _ in range(10)] + far(RULES.lost_patience + 1)
    o = score_episode(StubLog(frames, max_steps=len(frames)), RULES)
    assert o.reason == "cap" and not o.collided


def test_a_collision_on_the_step_that_completes_a_loss_is_a_collision():
    frames = far(RULES.lost_patience) + [StubFrame(RULES.lost_radius + 1.0, collided=True)]
    o = score_episode(StubLog(frames), RULES)
    assert o.reason == "collision" and o.collided
    # and on the last step too
    o = score_episode(StubLog(frames, max_steps=len(frames)), RULES)
    assert o.reason == "collision" and o.collided


def test_a_log_must_end_where_the_rules_end_it():
    # cut short: it stops 2.8 m from the target, with no loss and no collision
    with pytest.raises(ValueError, match="ends after 60 of 120 steps with no collision"):
        score_episode(StubLog([StubFrame(2.8) for _ in range(60)], max_steps=120), RULES)
    # padded: 440 steps go on after a 60-step loss, which ended it at frame 50
    frames = far(60) + [StubFrame(2.0) for _ in range(440)]
    with pytest.raises(ValueError, match=r"frame 51 follows the episode's end \(lost\) at frame 50"):
        score_episode(StubLog(frames), RULES)
    # past the cap
    frames = [StubFrame(2.0) for _ in range(120)]
    with pytest.raises(ValueError, match=r"frame 100 follows the episode's end \(cap\)"):
        score_episode(StubLog(frames, max_steps=100), RULES)


def test_score_rejects_untermination():
    frames = [StubFrame(2.0, collided=True), StubFrame(2.0)]
    with pytest.raises(ValueError):
        score_episode(StubLog(frames), RULES)
    with pytest.raises(ValueError):
        score_episode(StubLog([]), RULES)


def test_frame_tracked_rule():
    assert frame_tracked(3.0, 60.0, RULES)
    assert not frame_tracked(3.01, 0.0, RULES)
    assert not frame_tracked(2.0, 61.0, RULES)
    assert frame_tracked(2.0, 300.0, RULES)  # -60 wrapped


def test_traj_loss_examples():
    a = np.zeros((NUM_WAYPOINTS, 3))
    assert traj_loss(a, a) == 0.0

    b = a.copy()
    b[3, 0] = 0.3
    assert traj_loss(b, a) == pytest.approx(0.09 / 3)

    c = a.copy()
    c[0, 2] = 359.0
    d = a.copy()
    d[0, 2] = 1.0
    assert traj_loss(c, d) == pytest.approx(4.0 / 3)  # wrapped 2 deg, not 358


def test_traj_loss_symmetry_and_identity():
    rng = np.random.default_rng(3)
    for _ in range(50):
        a = rng.uniform(-2, 2, size=(NUM_WAYPOINTS, 3))
        b = rng.uniform(-2, 2, size=(NUM_WAYPOINTS, 3))
        assert traj_loss(a, b) == pytest.approx(traj_loss(b, a))
        assert traj_loss(a, a) == 0.0
    # zero iff equal modulo angle wrap
    a = rng.uniform(-2, 2, size=(NUM_WAYPOINTS, 3))
    b = a.copy()
    b[:, 2] += 360.0
    assert traj_loss(a, b) == pytest.approx(0.0, abs=1e-20)
    with pytest.raises(ValueError):
        traj_loss(a[:4], a[:4])


def test_reason_loss_examples():
    one_hot = np.zeros(1801)
    one_hot[42] = 1000.0
    assert reason_loss(one_hot, 42) == pytest.approx(0.0, abs=1e-9)

    assert reason_loss(np.zeros(1801), 7) == pytest.approx(math.log(1801), abs=1e-9)
    assert reason_loss(np.zeros(2), 1) == pytest.approx(math.log(2), abs=1e-12)
    assert reason_loss(np.zeros(4), 0) > 0
    with pytest.raises(ValueError):
        reason_loss(np.zeros(4), 4)


def test_total_loss_examples():
    assert total_loss(1.0, 1.0, 0.0) == 1.2
    assert total_loss(0.0, 0.0, 0.0) == 0.0
    assert total_loss(2.0, 5.0, 4.0) == pytest.approx(5.0)
    with pytest.raises(ValueError):
        total_loss(-1.0, 0.0, 0.0)
    for bad in (math.nan, math.inf, -math.inf):
        for terms in ((bad, 0.0, 0.0), (0.0, bad, 0.0), (0.0, 0.0, bad)):
            with pytest.raises(ValueError, match="finite"):
                total_loss(*terms)


def test_aggregate_hand_means():
    outcomes = [
        EpisodeOutcome(True, 1.0, False, 500, "cap"),
        EpisodeOutcome(False, 0.5, True, 100, "collision"),
        EpisodeOutcome(True, 0.9, False, 500, "cap"),
    ]
    row = aggregate("stt", "full", outcomes, [1, 2, 3])
    assert row.sr == pytest.approx(100.0 * 2 / 3)
    assert row.tr == pytest.approx(100.0 * (1.0 + 0.5 + 0.9) / 3)
    assert row.cr == pytest.approx(100.0 / 3)
    assert row.mean_el == pytest.approx((500 + 100 + 500) / 3)
    assert row.episodes == 3

    report = SuiteReport(rows=[row])
    table = report.to_table()
    assert "stt" in table and "full" in table
    assert report.to_dict()["rows"][0]["sr"] == row.sr

    with pytest.raises(ValueError):
        aggregate("stt", "full", [], [])
