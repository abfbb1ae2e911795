"""Episode scoring and offline loss kernels.

Success means the episode ends correctly oriented inside the 1-3 m
follow band without ever colliding. The per-step tracked flag, episode
termination rules and the orientation tolerance are operationalizations,
kept configurable in ``MetricRules``. The loss kernels evaluate logged
predictions offline: summed per-waypoint MSE for trajectories (angles
compared on the circle), negative log-likelihood for the reasoning token,
and their weighted combination.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .gating import SparseLogits
from .policy import NUM_WAYPOINTS
from .polar import signed_degrees
from .records import FieldError, Record, check_non_negative


@dataclass(frozen=True)
class MetricRules(Record):
    orient_tol: float = 30.0  # deg, final-step "correctly oriented"
    track_dist: float = 3.0  # m, per-step tracked flag
    track_bearing: float = 60.0  # deg, per-step tracked flag
    lost_radius: float = 6.0  # m, early termination when exceeded...
    lost_patience: int = 50  # ...for this many consecutive steps
    band: tuple[float, float] = (1.0, 3.0)

    def __post_init__(self):
        for name in ("orient_tol", "track_dist", "track_bearing", "lost_radius"):
            check_non_negative(self, name)
        if self.lost_patience < 0:
            raise FieldError("lost_patience", f"must be >= 0, got {self.lost_patience}")
        lo, hi = self.band
        if not (math.isfinite(hi) and 0.0 <= lo <= hi):
            raise FieldError("band", f"need finite 0 <= band[0] <= band[1], got {self.band}")


@dataclass(frozen=True)
class EpisodeOutcome(Record):
    success: bool
    tracking_rate: float
    collided: bool
    episode_length: int
    reason: str  # cap | collision | lost


class StepResult(NamedTuple):
    """What scoring reads from one step, the two fields a ``FrameRecord``
    also carries: the target's post-step ``(theta, dist)`` and whether the
    step collided. A score-only episode keeps one per step in place of a
    frame."""

    target_rel: tuple[float, float]
    collided: bool


def frame_tracked(dist: float, theta: float, rules: MetricRules) -> bool:
    return dist <= rules.track_dist and abs(signed_degrees(theta)) <= rules.track_bearing


def episode_end(run: int, dist: float, collided: bool, at_cap: bool,
                rules: MetricRules) -> tuple[int, Optional[str]]:
    """The ending rule, applied to a step that ends ``dist`` from the target after
    ``run`` consecutive steps beyond ``lost_radius``: the new run and why the episode
    ends there (a collision, the step cap, then a run above ``lost_patience``), or None."""
    run = run + 1 if dist > rules.lost_radius else 0
    if collided:
        return run, "collision"
    if at_cap:
        return run, "cap"
    return run, "lost" if run > rules.lost_patience else None


def score_episode(log, rules: MetricRules) -> EpisodeOutcome:
    """Recompute the outcome from a complete episode log.

    Works on any log object exposing ``frames`` (``FrameRecord``s or
    ``StepResult``s: each has ``target_rel``, the post-step ``(theta,
    dist)`` of the target, and ``collided``) and a header with
    ``max_steps``. The log must end on its first frame that ``episode_end``
    ends, which names the reason; else ``ValueError``.
    """
    max_steps = log.header.max_steps
    tracked = run = 0
    reason = None
    for step, f in enumerate(log.frames):
        if reason is not None:
            raise ValueError(f"frame {step} follows the episode's end ({reason}) at frame {step - 1}")
        theta, dist = f.target_rel
        tracked += frame_tracked(dist, theta, rules)
        run, reason = episode_end(run, dist, f.collided, step + 1 == max_steps, rules)
    n = len(log.frames)
    if reason is None:
        raise ValueError(f"the episode ends after {n} of {max_steps} steps with no collision "
                         f"and no completed loss ({run} steps beyond lost_radius)")
    collided = reason == "collision"
    lo, hi = rules.band
    success = (
        not collided
        and lo <= dist <= hi
        and abs(signed_degrees(theta)) <= rules.orient_tol
    )
    return EpisodeOutcome(
        success=success,
        tracking_rate=tracked / n,
        collided=collided,
        episode_length=n,
        reason=reason,
    )


def traj_loss(pred: np.ndarray, gt: np.ndarray) -> float:
    """Sum over waypoints of the per-waypoint MSE across (x, y, theta);
    heading errors are wrapped onto (-180, 180]."""
    pred = np.asarray(pred, dtype=np.float64)
    gt = np.asarray(gt, dtype=np.float64)
    if pred.shape != (NUM_WAYPOINTS, 3) or gt.shape != (NUM_WAYPOINTS, 3):
        raise ValueError(
            f"trajectories must be ({NUM_WAYPOINTS}, 3), got {pred.shape} vs {gt.shape}"
        )
    dxy = pred[:, :2] - gt[:, :2]
    dth = np.array([signed_degrees(a) for a in pred[:, 2] - gt[:, 2]])
    per_wp = (dxy[:, 0] ** 2 + dxy[:, 1] ** 2 + dth**2) / 3.0
    return float(per_wp.sum())


def reason_loss(logits, token: int) -> float:
    """Negative log softmax probability of the ground-truth token:
    log Z - (x_token - M) in closed form for ``SparseLogits``, over the
    whole vector for a dense one."""
    if isinstance(logits, SparseLogits):
        if not (0 <= token < logits.size):
            raise ValueError(f"token {token} out of range for {logits.size} logits")
        m, z, _ = logits.softmax_terms()
        x = logits.invalid if token == logits.size - 1 else logits.cells.get(token, 0.0)
        return math.log(z) - (x - m)
    x = np.asarray(logits, dtype=np.float64)
    if not (0 <= token < x.size):
        raise ValueError(f"token {token} out of range for {x.size} logits")
    z = x - x.max()
    return float(np.log(np.exp(z).sum()) - z[token])


def total_loss(
    l_traj: float, l_reason: float, l_text: float = 0.0, alpha: float = 0.2, beta: float = 0.5
) -> float:
    """Weighted sum of the three training terms. There is no text head in
    this package, so the text term is an externally supplied scalar."""
    if not all(0.0 <= term < math.inf for term in (l_traj, l_reason, l_text)):
        raise ValueError(f"loss terms must be finite and >= 0, got {(l_traj, l_reason, l_text)}")
    return l_traj + alpha * l_reason + beta * l_text


@dataclass
class ArmResult(Record):
    """Aggregate over one (scenario, arm) block of episodes."""

    scenario: str
    arm: str
    episodes: int
    sr: float  # percent
    tr: float  # percent
    cr: float  # percent
    mean_el: float
    seeds: list[int]


def aggregate(
    scenario: str, arm: str, outcomes: Sequence[EpisodeOutcome], seeds: Sequence[int]
) -> ArmResult:
    if not outcomes:
        raise ValueError("cannot aggregate zero episodes")
    n = len(outcomes)
    return ArmResult(
        scenario=scenario,
        arm=arm,
        episodes=n,
        sr=100.0 * sum(o.success for o in outcomes) / n,
        tr=100.0 * sum(o.tracking_rate for o in outcomes) / n,
        cr=100.0 * sum(o.collided for o in outcomes) / n,
        mean_el=sum(o.episode_length for o in outcomes) / n,
        seeds=list(seeds),
    )


@dataclass
class SuiteReport(Record):
    rows: list[ArmResult]

    def to_table(self) -> str:
        """Fixed-width text table; column order matches the JSON form."""
        header = f"{'scenario':<10} {'arm':<8} {'n':>5} {'SR%':>7} {'TR%':>7} {'CR%':>7} {'mean EL':>8}"
        lines = [header, "-" * len(header)]
        for r in self.rows:
            lines.append(
                f"{r.scenario:<10} {r.arm:<8} {r.episodes:>5} "
                f"{r.sr:>7.1f} {r.tr:>7.1f} {r.cr:>7.1f} {r.mean_el:>8.1f}"
            )
        return "\n".join(lines)
