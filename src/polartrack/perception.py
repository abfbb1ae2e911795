"""Oracle reasoner over the polar vocabulary.

Stands in for a learned perception stack: ground-truth visibility plus
appearance similarity against the target memory are turned into sparse
logits over the cell tokens (``SparseLogits``: the invalid entry plus one
score per detected cell, every other cell zero). Positions (each a plain
bearing and range) and line of sight come from the world's per-step
``sightings``; nothing here recomputes them. ``view_masks`` works out
once per step whether a camera view sees each entity (line of sight,
annulus, field of view): a seen one is observable.
Each detected entity puts mass on its (noise-jittered) cell; how much
depends on how similar it looks to the remembered target, which is what
lets a bootstrapped memory pull the argmax onto the true target and away
from look-alikes. The invalid entry gets a small standing bias, plus a
large bonus when nothing is detected at all.

The noise comes from a per-episode ``NoiseStream`` on the world's
generator. Each detection takes its angle and range normals, then its
feature normals when feature noise is on, in the order the detections
arrive. When ``base_detectability`` is 1 no other draw comes between
them, so the stream draws ``BLOCK`` normals per generator call, ahead of
need: ``Generator.normal(size=n)`` gives the values of n scalar draws,
and scaling by ``feature_noise`` is elementwise, so every detection reads
the values it read from its own draws and the logs keep their bytes; only
the generator's state after the episode, which nothing reads, moves.
Below 1 the detectability uniforms come between the normals, and the
stream draws only what each detection asks for.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Annotated, Optional

import numpy as np

from .gating import SparseLogits
from .memory import TargetMemory, memory_similarity
from .polar import PolarGrid, PolarPoint, cell_of, polar_point, wrap_degrees
from .records import Range, Record
from .world import World


@dataclass(frozen=True)
class CameraView(Record):
    yaw: Annotated[float, Range()]  # degrees ccw from agent heading
    fov: Annotated[float, Range(0.0, 360.0, lo_open=True)]  # degrees


@dataclass(frozen=True)
class CameraRig(Record):
    views: Annotated[tuple[CameraView, ...], Range(1, 8)]

    def __post_init__(self):
        # what ``view_masks`` reads per entity per step: (yaw, fov / 2, bit) per view
        object.__setattr__(self, "_cones", tuple(
            (v.yaw, v.fov / 2.0, 1 << i) for i, v in enumerate(self.views)))

    @classmethod
    def front(cls, fov: float = 90.0) -> "CameraRig":
        return cls(views=(CameraView(0.0, fov),))

    @classmethod
    def ring(cls, n: int = 4, fov: float = 90.0) -> "CameraRig":
        return cls(views=tuple(CameraView(i * 360.0 / n, fov) for i in range(n)))


@dataclass(frozen=True)
class PerceptionParams(Record):
    """Noise and logit-construction knobs.

    ``base_detectability`` is the per-step probability that an observable
    entity actually registers; the remaining score constants shape the
    softmax sharpness and through it the entropy confidence. The default
    scores are ordered so that, once the memory is bootstrapped,

        look-alike (sim ~0.6) < invalid bias < kind-blind < true target,

    meaning a memory-equipped reasoner answers "target absent" when only
    a look-alike is in view (freezing the memory), while a memory-less
    one scores every entity identically and chases whatever bins first.
    """

    angle_noise: Annotated[float, Range(0.0)] = 1.5  # deg stddev
    dist_noise: Annotated[float, Range(0.0)] = 0.10  # m stddev
    sim_temperature: Annotated[float, Range(0.0, lo_open=True)] = 4.0
    base_detectability: Annotated[float, Range(0.0, 1.0)] = 1.0
    invalid_bias: Annotated[float, Range()] = 10.9
    detect_score: Annotated[float, Range()] = 8.0
    feature_noise: Annotated[float, Range(0.0)] = 0.05
    no_detection_bonus: Annotated[float, Range()] = 9.5
    empty_mem_similarity: Annotated[float, Range()] = 0.85  # kind-blind stand-in before bootstrap

    def noiseless(self) -> "PerceptionParams":
        return replace(self, angle_noise=0.0, dist_noise=0.0, feature_noise=0.0)


BLOCK = 1024  # normals per generator call when no detectability draw comes between them


class NoiseStream:
    """An episode's perception draws from ``rng``: the detectability draw
    (``detects``) and each detection's noise normals (``take``).

    ``take(n)`` hands out the next ``n`` normals as an index into ``z``, a
    memoryview of the drawn block that reads each value as a Python float,
    and into ``scaled``, the block times ``feature_noise`` (None when that
    is 0). It draws ``BLOCK`` at a time when ``base_detectability`` is 1,
    and exactly ``n`` otherwise, so the uniforms keep their place between
    the normals."""

    __slots__ = ("rng", "p", "feature_noise", "z", "scaled", "i", "drawn", "_block")

    def __init__(self, rng: np.random.Generator, params: PerceptionParams):
        self.rng, self.p = rng, params.base_detectability
        self.feature_noise = params.feature_noise if params.feature_noise > 0.0 else None
        self._block = BLOCK if self.p >= 1.0 else 0
        self.z, self.scaled = memoryview(np.empty(0)), None
        self.i = self.drawn = 0  # next index into ``z``; normals drawn so far

    @property
    def taken(self) -> int:
        """The normals handed out so far."""
        return self.drawn - len(self.z) + self.i

    def detects(self) -> bool:
        """Whether an observable entity registers: one uniform draw below 1."""
        return self.p >= 1.0 or self.rng.random() < self.p

    def take(self, n: int) -> int:
        """The index in ``z`` (and ``scaled``) of the next ``n`` normals."""
        i, left = self.i, len(self.z) - self.i
        if n > left:
            block = self.rng.normal(size=max(self._block, n - left))
            self.drawn += block.size
            if left:  # the row starts in the block before
                block = np.concatenate((self.z[i:], block))
            self.z = memoryview(block)
            if self.feature_noise is not None:
                self.scaled = block * self.feature_noise
            i = 0
        self.i = i + n
        return i


@dataclass(slots=True)
class ReasonerOutput:
    """Logits over the token vocabulary, the argmax token, and the
    observed appearance of whatever entity won the argmax cell (absent
    when the argmax is the invalid token)."""

    logits: SparseLogits
    token: int
    candidate: Optional[np.ndarray]


def view_masks(world: World, rig: CameraRig, grid: PolarGrid,
               target_views: bool = False) -> list[int]:
    """One int per ``world.sightings`` entry: 0 when that entity is not observable,
    else the bit of the first view that sees it; with ``target_views`` the target's
    has bit *i* set for every view *i* that sees it (a recorded frame's flags)."""
    r_min, r_max, cones = grid.r_min, grid.r_max, rig._cones
    all_views = world.target_index if target_views else -1
    masks = []
    for i, s in enumerate(world.sightings):
        mask = 0
        if s.los and r_min <= s.dist <= r_max:
            theta = s.theta
            for yaw, half_fov, bit in cones:
                # abs(signed_degrees(theta - yaw)) <= half_fov, without the calls: d is
                # wrap_degrees(theta - yaw) (360 where it gives 0); 360 - d is exact for d >= 180
                d = (theta - yaw) % 360.0
                if d <= half_fov or 360.0 - d <= half_fov:
                    mask |= bit
                    if i != all_views:
                        break
        masks.append(mask)
    return masks


def _ahead_of(grid: PolarGrid, cell: int, other: int) -> bool:
    """The tie rule of equal scores: the more dead-ahead cell wins, then the
    nearer ring, then the lower index."""
    a, r = divmod(cell, grid.n_dist)
    b, q = divmod(other, grid.n_dist)
    return (min(a, grid.n_angle - a), r, cell) < (min(b, grid.n_angle - b), q, other)


def observe(
    world: World,
    masks: list[int],
    mem: TargetMemory,
    grid: PolarGrid,
    params: PerceptionParams,
    noise: NoiseStream,
) -> ReasonerOutput:
    """One reasoning step: build logits from the currently detectable
    entities (``masks`` from ``view_masks``) and pick the argmax token.

    An observable entity registers with probability ``base_detectability``
    (``noise.detects``). Deterministic given the stream; draws happen in
    entity-list order so replays are bit-exact. Each detection takes its
    angle and range normals, then its feature normals when feature noise is
    on, and its noisy feature is built as it is scored, also while the
    memory is empty and no similarity reads it: the winner's is the
    candidate.
    """
    scaled_noise = noise.feature_noise is not None
    cell_owner: dict[int, float] = {}  # each cell's best score, in first-detection order
    # the argmax as the detections arrive; ties (which arise when the memory
    # is empty and every detection scores identically) follow ``_ahead_of``
    best_cell, best_score, candidate = None, 0.0, None
    for s, m in zip(world.sightings, masks):
        if not m or not noise.detects():
            continue
        feat = s.entity.appearance
        n = 2 + feat.size if scaled_noise else 2
        i = noise.take(n)
        z = noise.z
        # the entity was deemed observable from its true range; noise only
        # jitters the cell, it cannot push the detection out of the annulus
        dist = min(max(s.dist + z[i + 1] * params.dist_noise, grid.r_min), grid.r_max)
        theta = s.theta + z[i] * params.angle_noise
        if not math.isfinite(theta):  # finite terms can overflow
            raise ValueError(f"non-finite polar point ({theta}, {dist})")
        cell = cell_of(grid, wrap_degrees(theta), dist)
        if scaled_noise:
            feat = feat + noise.scaled[i + 2:i + n]
        sim = params.empty_mem_similarity if mem.slots is None else memory_similarity(mem, feat)
        score = params.detect_score + params.sim_temperature * sim
        # the logits' one check: a NaN similarity or an overflow must not be clamped to 0.0
        if not math.isfinite(score):
            raise ValueError(f"non-finite detection score {score} (similarity {sim})")
        owned = cell_owner.get(cell)
        if owned is None or score > owned:
            cell_owner[cell] = score
            if best_cell is None or score > best_score or (
                    score == best_score and _ahead_of(grid, cell, best_cell)):
                best_cell, best_score, candidate = cell, score, feat

    invalid = params.invalid_bias
    if not cell_owner:  # every detection owns or shares a cell
        invalid += params.no_detection_bonus  # two finite parameters, whose sum can overflow
        if not math.isfinite(invalid):
            raise ValueError(f"non-finite invalid logit {invalid}")
    # trusted: vocab_size >= 2, cell_of gives only cells, and each value is checked above
    logits = SparseLogits.trusted(
        (grid.vocab_size, invalid, {cell: max(0.0, score) for cell, score in cell_owner.items()}))
    if best_cell is not None and best_score >= invalid:
        return ReasonerOutput(logits=logits, token=best_cell, candidate=candidate)
    return ReasonerOutput(logits=logits, token=grid.invalid_index, candidate=None)


def nearest_detection(
    world: World,
    masks: list[int],
    params: PerceptionParams,
    noise: NoiseStream,
) -> Optional[PolarPoint]:
    """Kind-blind raw readout: the noisy polar position of the nearest
    detected entity, with no tokenization, no invalid semantics and no
    appearance handling. This is the degraded front end used by the arm
    that runs without spatial-token reasoning. It takes two normals, the
    angle's and the range's, after every entity's detectability draw."""
    best = None
    for s, m in zip(world.sightings, masks):
        if m and noise.detects() and (best is None or s.dist < best.dist):
            best = s
    if best is None:
        return None
    i = noise.take(2)
    z = noise.z
    theta = best.theta + z[i] * params.angle_noise
    dist = max(best.dist + z[i + 1] * params.dist_noise, 0.0)
    # dist is >= 0 unless NaN, but finite terms can overflow
    return polar_point(theta, dist)
